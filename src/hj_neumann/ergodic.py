"""Additive eigenvalue and ergodic function of the discrete scheme.

``discounted_solve`` computes the steady state of the damped problem
eps*u + H(x, Du) = 0 (boundary condition per kind: the Neumann root for
"e1", eps*u + B(x, Du) = 0 on the boundary for "e2") on the same discrete
operator Phi = ``Stepper.rhs`` as the time-marching scheme. It takes Newton
steps on eps*u + Phi(u) = 0 with the sparse coloured-difference Jacobian
``Stepper.jacobian`` (Howard's algorithm when Phi is piecewise smooth;
Bokanowski, Maroso & Zidani, SIAM J. Numer. Anal. 47, 2009), so the fixed
point of the damped evolution is reached in a handful of solves instead of
O(1/eps) steps.

``ergodic_limit`` solves the discrete eigenproblem Phi(v) = c, v(x0) = 0 by
Newton's method on (v, c) with the same Jacobian (the generalized Newton
method of Cacace & Camilli, SIAM J. Sci. Comput. 38, 2016), started from one
discounted solution. The start selects v where the eigenproblem has several
solutions, as the vanishing discount does (Davini, Fathi, Iturriaga &
Zavidovique, Invent. Math. 206, 2016). ``large_time_slope`` is the
independent estimator used for cross-validation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import spsolve

from .errors import ConvergenceError, NumericalError
from .geometry import Grid
from .models import BoundaryOperator, Hamiltonian, shift_boundary, shift_hamiltonian
from .pde import (GridField, SpaceTimeField, Stepper, discrete_lipschitz, scheme_kind,
                  stationary_residual)


@dataclass
class ErgodicPair:
    """Eigenvalue c, eigenfunction v (anchored to 0 at x0), and diagnostics.

    c is the exact eigenvalue c_h of the discrete operator, so it carries the
    scheme's O(h) Lax-Friedrichs bias (ROADMAP item 3). epsilon_trace holds
    one entry (eps, eps*u_eps(x0)) for the discounted solve that started the
    Newton iteration; residual is |Phi(v) - c|_inf on the operator solved.
    """

    c: float
    v: GridField
    epsilon_trace: list      # [(eps, eps*u_eps(x0))]
    residual: float
    anchor: int


def discounted_solve(H: Hamiltonian, Bm: BoundaryOperator, epsilon: float,
                     kind: str, init: GridField, tol: float | None = None,
                     max_sweeps: int = 2000) -> GridField:
    """Steady state of the eps-damped problem, warm-started from init.

    Newton steps on eps*u + Phi(u) = 0, Phi the marching scheme's rhs, each
    a sparse solve with eps*I + Stepper.jacobian(u); max_sweeps caps their
    number. Converged when the largest update is at most tol (default
    eps*h^2); otherwise ConvergenceError carries the update history. The
    dissipation is refreshed, and the iteration resumed, when the converged
    field's slopes outgrow its certified radius; slopes of the iterates on
    the way do not change the operator. The returned field obeys the
    discount bound |eps u| <= max|H(x, 0)| (+ max|B(x, 0)| for "e2") up to
    solver tolerance, else NumericalError.
    kind is "e1" or "e2", or its scheme's "cn" or "dbc".
    """
    if not (0 < epsilon < 1):
        raise NumericalError("epsilon must lie in (0, 1)")
    grid = init.grid
    lip = max(discrete_lipschitz(grid, init.values), 1.0)
    st = Stepper(grid, H, Bm, kind, grad_bound=lip)
    tol = epsilon * grid.h ** 2 if tol is None else tol
    damp = epsilon * sparse.eye_array(grid.n_nodes, format="csr")
    u = init.values.copy()
    history = []
    while len(history) < max_sweeps:
        phi = st.rhs(u)
        du = spsolve(damp + st.jacobian(u, phi), -(epsilon * u + phi))
        u += du
        history.append(float(np.abs(du).max()))
        if history[-1] > tol:
            continue
        # converged (or a non-finite step): refresh the dissipation if the
        # solution's slopes outgrow its certified radius, else stop
        s = discrete_lipschitz(grid, u)
        if not s > st.radius - 1.0:
            break
        st.refresh(2.0 * s)
    if not (history and history[-1] <= tol):
        raise ConvergenceError(
            f"discounted solve (eps={epsilon:g}) did not reach {tol:g} "
            f"in {len(history)} Newton steps", history)

    m1 = float(np.abs(H(grid.nodes, np.zeros(grid.dim))).max())
    if st.kind == "dbc":
        bx = grid.nodes[grid.boundary]
        m1 += float(np.abs(Bm(bx, np.zeros(grid.dim))).max())
    bound = np.abs(epsilon * u).max()
    if bound > m1 + 10 * grid.h ** 2 + 1e-9:
        raise NumericalError(
            f"discount bound violated: |eps u| = {bound:g} > M1 = {m1:g}")
    return GridField(grid, u)


DEFAULT_SCHEDULE = (0.001,)

# stopping residual |Phi(v) - c|_inf and step cap of the eigenpair solve
EIGEN_TOL = 1e-12
EIGEN_STEPS = 50


def ergodic_limit(H: Hamiltonian, Bm: BoundaryOperator, grid: Grid,
                  kind: str = "e1", epsilon_schedule=DEFAULT_SCHEDULE) -> ErgodicPair:
    """Discrete eigenvalue c and eigenfunction v with Phi(v) = c, v(x0) = 0.

    The schedule must decrease strictly to at least 1e-4; only its last eps
    is used. One discounted solve from zero at that eps gives the start
    v = u_eps - u_eps(x0), c = -eps*u_eps(x0); Newton steps on (v, c) follow,
    each a sparse solve with Stepper.jacobian(v) whose anchor column (v(x0)
    is fixed at 0) carries the unknown c instead. x0 is the node nearest the
    domain centroid. Stops when |Phi(v) - c|_inf <= EIGEN_TOL; after
    EIGEN_STEPS steps, ConvergenceError carries the residual history.
    """
    eps = list(epsilon_schedule)
    if any(b >= a for a, b in zip(eps, eps[1:])) or eps[-1] < 1e-4:
        raise NumericalError("epsilon schedule must decrease strictly to >= 1e-4")
    x0 = grid.centroid_node()
    n = grid.n_nodes
    u = discounted_solve(H, Bm, eps[-1], kind, GridField(grid, np.zeros(n))).values
    m = eps[-1] * float(u[x0])
    v, c = u - u[x0], -m
    st = Stepper(grid, H, Bm, kind, grad_bound=max(discrete_lipschitz(grid, v), 1.0))
    col = sparse.csr_array((np.full(n, -1.0), (np.arange(n), np.full(n, x0))),
                           shape=(n, n))
    history = []
    for _ in range(EIGEN_STEPS):
        phi = st.rhs(v)
        history.append(float(np.abs(phi - c).max()))
        if not history[-1] > EIGEN_TOL:     # converged, or a non-finite residual
            break
        J = st.jacobian(v, phi)
        J.data[J.indices == x0] = 0.0
        step = spsolve(J + col, c - phi)
        c += float(step[x0])
        step[x0] = 0.0
        v += step
    if not history[-1] <= EIGEN_TOL:
        raise ConvergenceError(
            f"eigenpair solve did not reach |Phi(v) - c| <= {EIGEN_TOL:g} "
            f"in {EIGEN_STEPS} Newton steps", history)

    pair_v = GridField(grid, v)
    res = stationary_residual(pair_v, H, Bm, kind, level=c, grad_bound=st.grad_bound)
    return ErgodicPair(float(c), pair_v, [(eps[-1], m)], float(np.abs(res).max()), x0)


def eigenvalue_extrapolated(H: Hamiltonian, Bm: BoundaryOperator, geom, h: float):
    """Richardson-extrapolate the Neumann ("e1") eigenvalue in h from grids
    (h, h/2).

    The Lax-Friedrichs dissipation biases c_h by O(h) with a visible
    constant when the effective potential peaks sharply; two grids cancel
    the first-order term. Returns (c_extrapolated, fine-grid ErgodicPair).
    """
    from .geometry import build_grid
    pair_c = ergodic_limit(H, Bm, build_grid(geom, h))
    pair_f = ergodic_limit(H, Bm, build_grid(geom, h / 2))
    return 2.0 * pair_f.c - pair_c.c, pair_f


def large_time_slope(evolution: SpaceTimeField, t1: float, t2: float) -> float:
    """Eigenvalue estimate -mean_x (u(x, t2) - u(x, t1)) / (t2 - t1)."""
    if not t2 > t1 >= 0:
        raise NumericalError("need t2 > t1 >= 0")
    u1 = evolution.at_time(t1)
    u2 = evolution.at_time(t2)
    return -float(np.mean(u2 - u1)) / (t2 - t1)


def normalize(H: Hamiltonian, Bm: BoundaryOperator, c: float,
              kind: str = "e1"):
    """Shift the eigenvalue to zero: H -> H - c, and B -> B - c for "e2"
    (or "dbc")."""
    Hn = shift_hamiltonian(H, c)
    Bn = shift_boundary(Bm, c) if scheme_kind(kind) == "dbc" else Bm
    return Hn, Bn


def subsolution_probe(H: Hamiltonian, Bm: BoundaryOperator, grid: Grid,
                      kind: str, level: float) -> float:
    """Damped residual at a trial eigenvalue: eps * u_eps(x0) for H - level,
    at eps = 0.01.

    Values near zero mean level >= c (a subsolution exists); values bounded
    away from zero witness that no discrete subsolution exists at this level.
    """
    Hs, Bs = normalize(H, Bm, level, kind)
    u = discounted_solve(Hs, Bs, 0.01, kind, GridField(grid, np.zeros(grid.n_nodes)))
    return 0.01 * float(u.values[grid.centroid_node()])
