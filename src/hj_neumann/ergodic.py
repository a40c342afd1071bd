"""Additive eigenvalue and ergodic function of the discrete scheme.

``discounted_solve`` computes the steady state of the damped problem
eps*u + H(x, Du) = 0 (boundary condition per kind: the Neumann root for
"e1", eps*u + B(x, Du) = 0 on the boundary for "e2") on the same discrete
operator Phi = ``Stepper.rhs`` as the time-marching scheme. It takes Newton
steps on eps*u + Phi(u) = 0, one rhs call and one sparse solve with
``Stepper.jacobian`` each, for every model. At a kink that Jacobian is one
element of the generalized Jacobian, so Newton is Howard's algorithm
(Bokanowski, Maroso & Zidani, SIAM J. Numer. Anal. 47, 2009): the fixed
point of the damped evolution in a handful of solves instead of O(1/eps)
steps. The dissipation widens by ``Stepper.refresh_for``, the march's rule.

``ergodic_limit`` solves the discrete eigenproblem Phi(v) = c, v(x0) = 0 by
Newton's method on (v, c) (the generalized Newton method of Cacace &
Camilli, SIAM J. Sci. Comput. 38, 2016), started from one discounted
solution. Its bordered matrix, the same Jacobian with the unknown c in
column x0, is ``Stepper.jacobian(v, shift, anchor=x0)``. The start selects
v where the eigenproblem has several solutions, as the vanishing discount
does (Davini, Fathi, Iturriaga & Zavidovique, Invent. Math. 206, 2016).
``large_time_slope`` is the independent estimator used for cross-validation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
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
                     kind: str, init: GridField, tol: float | None = None) -> GridField:
    """Steady state of the eps-damped problem, warm-started from init.

    Newton steps on eps*u + Phi(u) = 0, Phi the marching scheme's rhs, each
    a sparse solve with Stepper.jacobian(u) + eps*I (the shift added in its
    diagonal slots); NEWTON_STEPS caps their number. Converged when the
    largest update is at most tol (default eps*h^2); otherwise
    ConvergenceError carries the update history. The dissipation is
    refreshed (``Stepper.refresh_for``), and the iteration resumed, when the
    converged field's slopes outgrow its certified radius; slopes of the
    iterates on the way do not change the operator. The returned field obeys
    the discount bound |eps u| <= max|H(x, 0)| (+ max|B(x, 0)| for "e2") up to
    solver tolerance, else NumericalError; H(x, 0) is the Stepper's h0.
    kind is "e1" or "e2", or its scheme's "cn" or "dbc".
    """
    if not (0 < epsilon < 1):
        raise NumericalError("epsilon must lie in (0, 1)")
    grid = init.grid
    lip = max(discrete_lipschitz(grid, init.values), 1.0)
    st = Stepper(grid, H, Bm, kind, grad_bound=lip)
    tol = epsilon * grid.h ** 2 if tol is None else tol
    u = init.values.copy()
    history = []
    while len(history) < NEWTON_STEPS:
        du = spsolve(st.jacobian(u, shift=epsilon), -(epsilon * u + st.rhs(u)))
        u += du
        history.append(float(np.abs(du).max()))
        if history[-1] > tol:
            continue
        # converged (or a non-finite step): refresh the dissipation if the
        # solution's slopes outgrow its certified radius, else stop
        if not st.refresh_for(discrete_lipschitz(grid, u)):
            break
    if not (history and history[-1] <= tol):
        raise ConvergenceError(
            f"discounted solve (eps={epsilon:g}) did not reach {tol:g} "
            f"in {len(history)} Newton steps", history)

    m1 = float(np.abs(st.h0).max())
    if st.kind == "dbc":
        m1 += float(np.abs(Bm(grid.nodes[grid.boundary], np.zeros(grid.dim))).max())
    bound = np.abs(epsilon * u).max()
    if bound > m1 + 10 * grid.h ** 2 + 1e-9:
        raise NumericalError(
            f"discount bound violated: |eps u| = {bound:g} > M1 = {m1:g}")
    return GridField(grid, u)


DEFAULT_SCHEDULE = (0.001,)

# stopping residual |Phi(v) - c|_inf of the eigenpair solve, and the step
# cap of both Newton solves, discounted and eigenpair
EIGEN_TOL = 1e-12
NEWTON_STEPS = 50

# the eigenpair Newton matrix is J + delta I with delta = EIGEN_SHIFT / dt_max,
# dt_max the Stepper's CFL bound, 1 over its largest bound on a diagonal entry
# of J. Where the potential has two distant maxima the wells decouple to
# rounding: with the exact Jacobian of H = p^2/2 + 2 cos(2 pi x) on [0, 1]
# at h = 0.01 the bordered matrix has a least singular value of 1.3e-12
# against 1.2e3, and unshifted steps amplify the residual's rounding along
# it (3e-12 back up to 1e-8).
# The shift leaves such modes where the discounted start put them and slows
# a mode of rate lambda by delta / lambda.
EIGEN_SHIFT = float(np.sqrt(np.finfo(float).eps))


def ergodic_limit(H: Hamiltonian, Bm: BoundaryOperator, grid: Grid,
                  kind: str = "e1", epsilon_schedule=DEFAULT_SCHEDULE) -> ErgodicPair:
    """Discrete eigenvalue c and eigenfunction v with Phi(v) = c, v(x0) = 0.

    The schedule must decrease strictly to at least 1e-4; only its last eps
    is used. One discounted solve from zero at that eps gives the start
    v = u_eps - u_eps(x0), c = -eps*u_eps(x0); Newton steps on (v, c) follow,
    each a sparse solve with the bordered matrix Stepper.jacobian(v, delta,
    anchor=x0): J + delta I (EIGEN_SHIFT) whose column x0 (v(x0) is fixed
    at 0) carries the unknown c instead. x0 is the node nearest the domain
    centroid. Stops when |Phi(v) - c|_inf <= EIGEN_TOL; after NEWTON_STEPS
    steps, ConvergenceError carries the residual history.
    """
    eps = list(epsilon_schedule)
    if not eps or any(b >= a for a, b in zip(eps, eps[1:])) or eps[-1] < 1e-4:
        raise NumericalError("epsilon schedule must decrease strictly to >= 1e-4")
    x0 = grid.centroid_node()
    u = discounted_solve(H, Bm, eps[-1], kind, GridField(grid, np.zeros(grid.n_nodes))).values
    m = eps[-1] * float(u[x0])
    v, c = u - u[x0], -m
    st = Stepper(grid, H, Bm, kind, grad_bound=max(discrete_lipschitz(grid, v), 1.0))
    history = []
    for _ in range(NEWTON_STEPS):
        phi = st.rhs(v)
        history.append(float(np.abs(phi - c).max()))
        if not history[-1] > EIGEN_TOL:     # converged, or a non-finite residual
            break
        step = spsolve(st.jacobian(v, shift=EIGEN_SHIFT / st.dt_max, anchor=x0), c - phi)
        c += float(step[x0])
        step[x0] = 0.0
        v += step
    if not history[-1] <= EIGEN_TOL:
        raise ConvergenceError(
            f"eigenpair solve did not reach |Phi(v) - c| <= {EIGEN_TOL:g} "
            f"in {NEWTON_STEPS} Newton steps", history)

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
    """Eigenvalue estimate -mean_x (u(x, s2) - u(x, s1)) / (s2 - s1), with
    s1 and s2 the recorded stamps nearest t1 and t2 (``SpaceTimeField.stamp``)."""
    if not t2 > t1 >= 0:
        raise NumericalError("need t2 > t1 >= 0")
    k1, k2 = evolution.stamp(t1), evolution.stamp(t2)
    if k1 == k2:
        raise NumericalError(f"t1={t1:g} and t2={t2:g} read the same stamp")
    u, s = evolution.values, evolution.times
    return -float(np.mean(u[k2] - u[k1]) / (s[k2] - s[k1]))


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
