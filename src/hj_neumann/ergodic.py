"""Additive eigenvalue and ergodic function via the vanishing-discount limit.

``discounted_solve`` computes the steady state of the damped problem
eps*u + H(x, Du) = 0 (boundary condition per kind: the Neumann root for
"e1", eps*u + B(x, Du) = 0 on the boundary for "e2") on the same discrete
operator Phi = ``Stepper.rhs`` as the time-marching scheme. It takes Newton
steps on eps*u + Phi(u) = 0 with the sparse coloured-difference Jacobian
``Stepper.jacobian`` (Howard's algorithm when Phi is piecewise smooth;
Bokanowski, Maroso & Zidani, SIAM J. Numer. Anal. 47, 2009), so the fixed
point of the damped evolution is reached in a handful of solves instead of
O(1/eps) steps. ``anchored_polish`` solves the discrete eigenproblem
Phi(v) = c, v(x0) = 0 with the same Jacobian, bordered by the unknown c.

``ergodic_limit`` drives eps down a schedule with warm starts and
extrapolates eps*u_eps(x0) to the eigenvalue; ``large_time_slope`` is the
independent estimator used for cross-validation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    """Eigenvalue c, eigenfunction v (anchored to 0 at x0), and diagnostics."""

    c: float
    v: GridField
    epsilon_trace: list = field(default_factory=list)   # (eps, eps*u_eps(x0))
    residual: float = np.nan
    anchor: int = 0
    warning: str | None = None


def discounted_solve(H: Hamiltonian, Bm: BoundaryOperator, epsilon: float,
                     kind: str, init: GridField, tol: float | None = None,
                     max_sweeps: int = 2000) -> GridField:
    """Steady state of the eps-damped problem, warm-started from init.

    Newton steps on eps*u + Phi(u) = 0, Phi the marching scheme's rhs, each
    a sparse solve with eps*I + Stepper.jacobian(u); max_sweeps caps their
    number. Converged when the largest update is at most tol (default
    eps*h^2); otherwise ConvergenceError carries the update history. The
    dissipation is refreshed when slopes outgrow its certified radius. The
    returned field obeys the discount bound |eps u| <= max|H(x, 0)|
    (+ max|B(x, 0)| for "e2") up to solver tolerance, else NumericalError.
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
        if not history[-1] > tol:          # converged, or a non-finite step
            break
        # refresh dissipation if slopes outgrow the certified radius
        s = discrete_lipschitz(grid, u)
        if s > st.radius - 1.0:
            st = Stepper(grid, H, Bm, st.kind, grad_bound=2.0 * s)
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


DEFAULT_SCHEDULE = (0.1, 0.03, 0.01, 0.003, 0.001)


def ergodic_limit(H: Hamiltonian, Bm: BoundaryOperator, grid: Grid,
                  kind: str = "e1", epsilon_schedule=DEFAULT_SCHEDULE) -> ErgodicPair:
    """Vanishing-discount eigenvalue and eigenfunction.

    Solves the discounted problem down the schedule (strictly decreasing,
    ending at or above 1e-4) with warm starts, Richardson-extrapolates
    eps*u_eps(x0) at first order, and anchors v = u_eps - u_eps(x0) at the
    node nearest the domain centroid. A trace whose last two values differ
    by more than 0.05 (1 + |c|) is not Cauchy and attaches a warning rather
    than failing.
    """
    eps = list(epsilon_schedule)
    if any(b >= a for a, b in zip(eps, eps[1:])) or eps[-1] < 1e-4:
        raise NumericalError("epsilon schedule must decrease strictly to >= 1e-4")
    x0 = grid.centroid_node()
    u = GridField(grid, np.zeros(grid.n_nodes))
    trace = []
    for e in eps:
        u = discounted_solve(H, Bm, e, kind, u)
        trace.append((e, e * float(u.values[x0])))

    if len(trace) >= 2:
        (e1, m1), (e2, m2) = trace[-2], trace[-1]
        c = -(m2 + (m2 - m1) * e2 / (e1 - e2))
    else:
        c = -trace[-1][1]

    warning = None
    if len(trace) >= 2 and abs(trace[-1][1] - trace[-2][1]) > 0.05 * (1 + abs(c)):
        warning = ("epsilon trace is not Cauchy: last two values "
                   f"{trace[-2][1]:.4g}, {trace[-1][1]:.4g}")

    v = GridField(grid, u.values - u.values[x0])
    res = stationary_residual(v, H, Bm, kind, level=c)
    return ErgodicPair(float(c), v, trace, float(np.abs(res).max()), x0, warning)


def eigenvalue_extrapolated(H: Hamiltonian, Bm: BoundaryOperator, geom, h: float,
                            kind: str = "e1",
                            epsilon_schedule=(0.1, 0.01, 0.001)):
    """Richardson-extrapolate the eigenvalue in h from grids (h, h/2).

    The Lax-Friedrichs dissipation biases c_h by O(h) with a visible
    constant when the effective potential peaks sharply; two grids cancel
    the first-order term. Returns (c_extrapolated, fine-grid ErgodicPair).
    """
    from .geometry import build_grid
    pair_c = ergodic_limit(H, Bm, build_grid(geom, h), kind, epsilon_schedule)
    pair_f = ergodic_limit(H, Bm, build_grid(geom, h / 2), kind, epsilon_schedule)
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


def anchored_polish(H: Hamiltonian, Bm: BoundaryOperator, grid: Grid,
                    kind: str, v0: GridField, tol: float = 1e-12):
    """Discrete eigenpair of the marching scheme by Newton's method.

    Solves Phi(v) = c with v(x0) = 0, x0 the centroid node, as one bordered
    system in (v, c) with the matrix [J, -1; e_x0^T, 0], J =
    Stepper.jacobian(v), starting from v0. Converged when the largest
    update is at most tol within 50 Newton steps (each a sparse LU solve);
    the fixed point is the reference orbit for long-time comparisons.
    Returns (c_h, v_h, converged).
    """
    x0 = grid.centroid_node()
    n = grid.n_nodes
    lip = max(discrete_lipschitz(grid, v0.values), 1.0)
    st = Stepper(grid, H, Bm, kind, grad_bound=lip + 1.0)
    border = sparse.csr_array(-np.ones((n, 1)))
    anchor = sparse.csr_array(([1.0], ([0], [x0])), shape=(1, n))
    v = v0.values - v0.values[x0]
    c, converged = 0.0, False       # c enters linearly: one step sets it
    for _ in range(50):
        phi = st.rhs(v)
        A = sparse.block_array([[st.jacobian(v, phi), border], [anchor, None]],
                               format="csr")
        step = spsolve(A, -np.append(phi - c, v[x0]))
        v, c = v + step[:n], c + float(step[n])
        size = float(np.abs(step).max())
        if not size > tol:          # converged, or a non-finite step
            converged = size <= tol
            break
    return c, GridField(grid, v), converged


def subsolution_probe(H: Hamiltonian, Bm: BoundaryOperator, grid: Grid,
                      kind: str, level: float, epsilon: float = 0.01) -> float:
    """Damped residual at a trial eigenvalue: eps * u_eps(x0) for H - level.

    Values near zero mean level >= c (a subsolution exists); values bounded
    away from zero witness that no discrete subsolution exists at this level.
    """
    Hs, Bs = normalize(H, Bm, level, kind)
    u = discounted_solve(Hs, Bs, epsilon, kind,
                         GridField(grid, np.zeros(grid.n_nodes)))
    return epsilon * float(u.values[grid.centroid_node()])
