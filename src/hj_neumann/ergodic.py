"""Additive eigenvalue and ergodic function via the vanishing-discount limit.

``discounted_solve`` computes the steady state of the damped problem
eps*u + H(x, Du) = 0 (boundary condition per kind: the Neumann root for
"e1", eps*u + B(x, Du) = 0 on the boundary for "e2") on the same discrete
operators as the time-marching scheme. The steady state is found by
Gauss-Seidel sweeps with exact per-node scalar solves plus a global
constant-mode shift per sweep; the fixed point is identical to the damped
evolution's but reached in a few dozen sweeps instead of O(1/eps) steps.

``ergodic_limit`` drives eps down a schedule with warm starts and
extrapolates eps*u_eps(x0) to the eigenvalue; ``large_time_slope`` is the
independent estimator used for cross-validation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import optimize

from .errors import ConvergenceError, NumericalError
from .geometry import Grid
from .models import BoundaryOperator, Hamiltonian, shift_boundary, shift_hamiltonian
from .pde import (GridField, SpaceTimeField, Stepper, discrete_lipschitz,
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


def _solve_increasing(f, x0: float, slope_min: float) -> float:
    """Root of a scalar function that grows at least linearly at rate slope_min."""
    f0 = f(x0)
    if f0 == 0.0:
        return x0
    step = abs(f0) / slope_min + 1e-12
    if f0 > 0:
        lo, hi = x0 - step, x0
        for _ in range(60):
            if f(lo) <= 0:
                break
            step *= 2.0
            lo -= step
        else:
            raise ConvergenceError("node solve failed to bracket the root")
        return float(optimize.brentq(f, lo, hi, xtol=1e-13))
    hi = x0 + step
    for _ in range(60):
        if f(hi) >= 0:
            break
        step *= 2.0
        hi += step
    else:
        raise ConvergenceError("node solve failed to bracket the root")
    return float(optimize.brentq(f, x0, hi, xtol=1e-13))


class _GaussSeidel:
    """Per-node exact solves of eps*u_i + Phi_i(u) = 0 on the stepper tables."""

    def __init__(self, st: Stepper, epsilon: float):
        self.st = st
        self.eps = epsilon
        grid = st.grid
        self.nodes = grid.nodes
        self.dim = grid.dim
        self.is_boundary = grid.boundary
        self.bpos = {int(k): j for j, k in enumerate(st.bidx)}
        # affine coefficients of the inward reconstruction in u_i
        self.q_coef = np.where(np.isfinite(st.inw_gap),
                               st.inw_sgn / np.where(np.isfinite(st.inw_gap),
                                                     st.inw_gap, 1.0), 0.0)

    def solve_node(self, u: np.ndarray, i: int) -> float:
        if self.is_boundary[i]:
            if self.st.kind == "cn":
                return self._solve_cn_boundary(u, i)
            return self._solve_dbc_boundary(u, i)
        return self._solve_interior(u, i)

    def _solve_interior(self, u, i):
        st, eps = self.st, self.eps
        x = self.nodes[i]
        iW, iE = st.idx[0, :, i], st.idx[1, :, i]
        gW, gE = st.gap[0, :, i], st.gap[1, :, i]
        uW, uE = u[iW], u[iE]
        sig = st.sigma

        def f(ui):
            pW = (ui - uW) / gW
            pE = (uE - ui) / gE
            return (eps * ui + float(st.H(x, 0.5 * (pW + pE)))
                    - 0.5 * float(np.sum(sig * (pE - pW))))

        return _solve_increasing(f, float(u[i]), eps)

    def _solve_cn_boundary(self, u, i):
        st, eps = self.st, self.eps
        j = self.bpos[i]
        x = self.nodes[i]
        n = st.bn[j]
        nb = st.inw_idx[:, j]
        coef = self.q_coef[:, j]
        base = -coef * np.where(nb >= 0, u[np.maximum(nb, 0)], 0.0)
        b = float(coef @ n)
        sig_n = float(st.sig_n[j])
        ui = float(u[i])
        if b <= 0:
            def f(v):
                q = base + coef * v
                qn = float(q @ n)
                qt = q - qn * n
                lam = self._lam(x, qt, n)
                return eps * v + float(st.H(x[None], (qt + lam * n)[None])[0]) \
                    - sig_n * (lam - qn)
            return _solve_increasing(f, ui, eps)
        for _ in range(4 if self.dim > 1 else 1):
            q = base + coef * ui
            qn = float(q @ n)
            qt = q - qn * n
            lam = self._lam(x, qt, n)
            hval = float(st.H(x[None], (qt + lam * n)[None])[0])
            a = float(base @ n)
            new = (sig_n * lam - hval - sig_n * a) / (eps + sig_n * b)
            if abs(new - ui) <= 1e-14 * (1 + abs(new)):
                ui = new
                break
            ui = new
        return ui

    def _lam(self, x, qt, n):
        from .pde import _ghost_solve_many
        return float(_ghost_solve_many(self.st.Bm, x[None], qt[None], n[None], 1e-12)[0])

    def _solve_dbc_boundary(self, u, i):
        st, eps = self.st, self.eps
        j = self.bpos[i]
        x = self.nodes[i]
        nb = st.inw_idx[:, j]
        coef = self.q_coef[:, j]
        base = -coef * np.where(nb >= 0, u[np.maximum(nb, 0)], 0.0)

        def f(ui):
            return eps * ui + float(st.Bm(x, base + coef * ui))

        return _solve_increasing(f, float(u[i]), eps)


def discounted_solve(H: Hamiltonian, Bm: BoundaryOperator, epsilon: float,
                     kind: str, init: GridField, tol: float | None = None,
                     max_sweeps: int = 2000) -> GridField:
    """Steady state of the eps-damped problem, warm-started from init.

    Converged when the largest per-sweep node update (including the global
    shift) drops below eps*h^2. The returned field obeys the discount bound
    |eps u| <= max|H(x, 0)| (+ max|B(x, 0)| for "e2") up to solver tolerance.
    """
    if not (0 < epsilon < 1):
        raise NumericalError("epsilon must lie in (0, 1)")
    if kind not in ("e1", "e2"):
        raise NumericalError(f"unknown ergodic kind {kind!r}")
    grid = init.grid
    lip = max(discrete_lipschitz(grid, init.values), 1.0)
    st = Stepper(grid, H, Bm, "cn" if kind == "e1" else "dbc", grad_bound=lip)
    gs = _GaussSeidel(st, epsilon)
    tol = epsilon * grid.h ** 2 if tol is None else tol
    orders = grid.sweep_orders()
    u = init.values.copy()
    history = []
    for it in range(max_sweeps):
        r = epsilon * u + st.rhs(u)
        shift = -float(r.mean()) / epsilon
        u += shift
        delta = abs(shift)
        for i in orders[it % len(orders)]:
            new = gs.solve_node(u, int(i))
            delta = max(delta, abs(new - u[i]))
            u[i] = new
        history.append(delta)
        if delta <= tol:
            break
        # refresh dissipation if slopes outgrow the certified radius
        s = discrete_lipschitz(grid, u)
        if s > st.radius - 1.0:
            st = Stepper(grid, H, Bm, st.kind, grad_bound=2.0 * s)
            gs = _GaussSeidel(st, epsilon)
    else:
        raise ConvergenceError(
            f"discounted solve (eps={epsilon:g}) did not reach {tol:g} "
            f"in {max_sweeps} sweeps", history)

    m1 = float(np.abs(H(grid.nodes, np.zeros(grid.dim))).max())
    if kind == "e2":
        bx = grid.nodes[grid.boundary]
        m1 += float(np.abs(Bm(bx, np.zeros(grid.dim))).max())
    bound = np.abs(epsilon * u).max()
    if bound > m1 + 10 * grid.h ** 2 + 1e-9:
        raise NumericalError(
            f"discount bound violated: |eps u| = {bound:g} > M1 = {m1:g}")
    return GridField(grid, u)


DEFAULT_SCHEDULE = (0.1, 0.03, 0.01, 0.003, 0.001)


def ergodic_limit(H: Hamiltonian, Bm: BoundaryOperator, grid: Grid,
                  kind: str = "e1", epsilon_schedule=DEFAULT_SCHEDULE,
                  osc_tol: float = 0.05) -> ErgodicPair:
    """Vanishing-discount eigenvalue and eigenfunction.

    Solves the discounted problem down the schedule (strictly decreasing,
    ending at or above 1e-4) with warm starts, Richardson-extrapolates
    eps*u_eps(x0) at first order, and anchors v = u_eps - u_eps(x0) at the
    node nearest the domain centroid. A non-Cauchy trace attaches a warning
    rather than failing.
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
    if len(trace) >= 2 and abs(trace[-1][1] - trace[-2][1]) > osc_tol * (1 + abs(c)):
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
    """Shift the eigenvalue to zero: H -> H - c, and B -> B - c for "e2"."""
    Hn = shift_hamiltonian(H, c)
    Bn = shift_boundary(Bm, c) if kind == "e2" else Bm
    return Hn, Bn


def anchored_polish(H: Hamiltonian, Bm: BoundaryOperator, grid: Grid,
                    kind: str, v0: GridField, tol: float = 1e-12,
                    max_steps: int = 60000):
    """Discrete eigenpair by anchored power iteration on the marching scheme.

    Iterates the explicit step, recentering at the anchor node each step;
    converges to a machine-accurate fixed point (c_h, v_h) of the discrete
    scheme, the right reference orbit for long-time comparisons. Returns
    (c_h, v_h, converged).
    """
    x0 = grid.centroid_node()
    lip = max(discrete_lipschitz(grid, v0.values), 1.0)
    st = Stepper(grid, H, Bm, "cn" if kind in ("cn", "e1") else "dbc",
                 grad_bound=lip + 1.0)
    dt = 0.9 * st.dt_max
    u = v0.values - v0.values[x0]
    c = 0.0
    for _ in range(max_steps):
        u1 = st.step(u, dt)
        c = (u[x0] - u1[x0]) / dt
        u1 = u1 - u1[x0]
        if np.abs(u1 - u).max() <= tol:
            return float(c), GridField(grid, u1), True
        u = u1
    return float(c), GridField(grid, u), False


def subsolution_probe(H: Hamiltonian, Bm: BoundaryOperator, grid: Grid,
                      kind: str, level: float, epsilon: float = 0.01) -> float:
    """Damped residual at a trial eigenvalue: eps * u_eps(x0) for H - level.

    Values near zero mean level >= c (a subsolution exists); values bounded
    away from zero witness that no discrete subsolution exists at this level.
    """
    Hs, Bs = normalize(H, Bm, level, "e2" if kind == "e2" else "e1")
    u = discounted_solve(Hs, Bs, epsilon, kind,
                         GridField(grid, np.zeros(grid.n_nodes)))
    return epsilon * float(u.values[grid.centroid_node()])
