"""Finite-difference marching for the Neumann and dynamical problems.

Interior nodes use the Lax-Friedrichs numerical Hamiltonian on one-sided
slopes with the exact post-snap stencil gaps. Boundary nodes under the
Neumann condition reconstruct the inward one-sided gradient, replace its
normal component by the root of the boundary operator along the outward
normal (strong ghost sense; unique by obliqueness), and add Lax-Friedrichs
dissipation along the normal. Under the dynamical condition the boundary
carries its own explicit update with the inward reconstruction.

A ``Stepper`` fixes its boundary data at build, down to the flat index of
each inward slope. For a catalog B the root is then closed and certified by
one call of B, kept because it is the only check that the forms match B;
custom ones bisect (``_ghost_solve_many``). Each ``rhs`` makes one H call:
under the Neumann condition the ghost gradients take the place of the
boundary rows' mean slopes before it. sigma is closed-form for the radial
catalog H and sampled for the rest. The CFL bound comes from the actual
stencil gaps; it does not make the scheme monotone at curved boundaries
(ROADMAP item 2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .errors import CFLError, NumericalError, ObliquenessError
from .geometry import Grid
from .models import BoundaryOperator, Hamiltonian

# dissipation refreshes evolve() allows before it calls the march unstable
MAX_REFRESHES = 8

# the Stepper kind of each problem kind: the Neumann ("cn") and dynamical
# ("dbc") marches, and the ergodic problems "e1" and "e2" on their operators
SCHEME_KIND = {"cn": "cn", "e1": "cn", "dbc": "dbc", "e2": "dbc"}

# absolute forward-difference step of Stepper.jacobian; a step relative to
# |u| is too coarse for the slopes of discounted solutions, which grow like
# 1/eps
FD_STEP = 1e-9

# the slot an inward slope with no neighbour on either side reads
_ZERO = np.zeros(1)


@dataclass
class GridField:
    """Discrete function on a grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.n_nodes,):
            raise NumericalError("field shape does not match the grid")
        if not np.all(np.isfinite(self.values)):
            raise NumericalError("field has non-finite values")


@dataclass
class SpaceTimeField:
    """Stack of snapshots u(., t_k) on one grid."""

    grid: Grid
    times: np.ndarray
    values: np.ndarray        # (K, N)
    dt: float

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if np.any(np.diff(self.times) <= 0):
            raise NumericalError("time stamps must be strictly increasing")
        if self.values.shape != (self.times.size, self.grid.n_nodes):
            raise NumericalError("snapshot stack does not match grid/stamps")

    def at_time(self, t: float, tol: float | None = None) -> np.ndarray:
        k = int(np.argmin(np.abs(self.times - t)))
        gap = abs(self.times[k] - t)
        spacing = np.diff(self.times).min() if self.times.size > 1 else self.dt
        lim = tol if tol is not None else 0.51 * float(spacing)
        if gap > lim:
            raise NumericalError(f"no snapshot near t={t:g} (closest {self.times[k]:g})")
        return self.values[k]


def constant_field(grid: Grid, value: float = 0.0) -> GridField:
    return GridField(grid, np.full(grid.n_nodes, float(value)))


def field_from(grid: Grid, fn) -> GridField:
    return GridField(grid, np.asarray(fn(grid.nodes), dtype=float))


def _form_values(Bm: BoundaryOperator, X, N):
    """gamma_k(X), g_k(X) and gamma_k . N stacked over the forms of Bm;
    ObliquenessError where some gamma_k . n <= 0."""
    gam = np.stack([gm(X) for gm, _ in Bm.forms])
    slope = (gam * N).sum(axis=-1)
    if (slope <= 0).any():
        raise ObliquenessError(f"boundary form with gamma.n = {slope.min():g} <= 0")
    return gam, np.stack([gf(X) for _, gf in Bm.forms]), slope


def _ghost_solve_many(Bm: BoundaryOperator, X, QT, N, tol: float,
                      forms: tuple | None = None) -> np.ndarray:
    """Roots lambda of B(x, q_T + lambda n) = 0 for the rows of (X, QT, N).

    With forms, lambda = min_k (g_k - gamma_k . q_T) / (gamma_k . n), since
    each form increases along n; one call of B certifies it to within tol
    times 1 + |q_T + lambda n|_inf; forms defaults to _form_values(Bm, X, N).
    Custom models bisect from the bracket |B(x, q_T)| / theta + 1, expanded
    geometrically at most 10 times.
    """
    if Bm.forms is not None:
        gam, g, slope = _form_values(Bm, X, N) if forms is None else forms
        lam = ((g - (gam * QT).sum(axis=-1)) / slope).min(axis=0)
        ghost = QT + lam[:, None] * N
        res = np.abs(Bm(X, ghost))
        if not (res <= tol * (1.0 + np.abs(ghost).max(axis=-1))).all():
            raise NumericalError(
                f"closed-form boundary root misses B = 0 by {res.max():.3g}; "
                "the forms do not match B")
        return lam

    def bval(lam):
        return np.asarray(Bm(X, QT + lam[:, None] * N), dtype=float)

    bracket = float(np.abs(Bm(X, QT)).max()) / max(Bm.theta, 1e-9) + 1.0
    lo = np.full(X.shape[0], -bracket)
    hi = np.full(X.shape[0], +bracket)
    flo, fhi = bval(lo), bval(hi)
    for _ in range(10):
        bad_lo = flo > 0
        bad_hi = fhi < 0
        if not (np.any(bad_lo) or np.any(bad_hi)):
            break
        lo[bad_lo] *= 2.0
        hi[bad_hi] *= 2.0
        flo[bad_lo] = bval(lo)[bad_lo]
        fhi[bad_hi] = bval(hi)[bad_hi]
    else:
        raise ObliquenessError(
            "boundary root bracket expansion exceeded 2^10 times the bracket; "
            "the model violates obliqueness numerically")
    for _ in range(90):
        mid = 0.5 * (lo + hi)
        fm = bval(mid)
        up = fm < 0
        lo = np.where(up, mid, lo)
        hi = np.where(up, hi, mid)
        if np.max(np.abs(fm)) <= tol and np.max(hi - lo) <= tol:
            break
    return 0.5 * (lo + hi)


class Stepper:
    """Precomputed stencil tables and dissipation constants for one (H, B, grid).

    kind is "cn" or "e1" (nonlinear Neumann) or "dbc" or "e2" (dynamical
    boundary); self.kind holds the scheme's "cn" or "dbc". The inward
    reconstruction and, for a catalog B under "cn", gamma_k, g_k and
    gamma_k . n at the boundary nodes are fixed at build (ObliquenessError
    there if some gamma_k . n <= 0); ``refresh`` resets sigma and dt_max.
    """

    def __init__(self, grid: Grid, H: Hamiltonian, Bm: BoundaryOperator,
                 kind: str = "cn", grad_bound: float = 1.0):
        self.grid, self.H, self.Bm, self.kind = grid, H, Bm, scheme_kind(kind)
        self.idx = grid.neighbors
        self.gap = grid.gaps

        # inward reconstruction per axis from the neighbour against the normal,
        # else the other; inw_sgn +1: (u_b - u_j)/gap, -1: (u_j - u_b)/gap
        b = grid.boundary_idx
        self.bidx, self.bn, self.xb = b, grid.normals[b], grid.nodes[b]
        first = (self.bn.T < -1e-12).astype(np.int64)[None]
        side = np.where(np.take_along_axis(self.idx[:, :, b] >= 0, first, 0), first, 1 - first)
        self.inw_idx = np.take_along_axis(self.idx[:, :, b], side, 0)[0]
        self.inw_gap = np.take_along_axis(self.gap[:, :, b], side, 0)[0]
        self.inw_sgn = np.where(self.inw_idx >= 0, 1.0 - 2.0 * side[0], 0.0)
        # flat index of each inward slope in concatenate((pW, pE, [0]), None);
        # an axis with no neighbour reads the trailing 0
        dim, n = grid.dim, grid.n_nodes
        at = side[0] * dim * n + np.arange(dim)[:, None] * n + b
        self.q_at = np.where(self.inw_sgn != 0, at, 2 * dim * n).T
        self._pattern = None

        self.tol = min(1e-12, Bm.theta * grid.h ** 2)
        self.forms = (_form_values(Bm, self.xb, self.bn)
                      if self.kind == "cn" and Bm.forms is not None else None)

        # the dissipation radius is anchored at p = 0 so that every solver
        # (marching, discounted sweeps, slope estimator) shares one discrete
        # operator; data with larger slopes lifts it, and the solvers
        # refresh when slopes grow past it
        level = 2.0 * float(np.abs(H(grid.nodes, np.zeros(grid.dim))).max()) + 2.0
        self.base_radius = H.coercivity_radius(level, grid.nodes) + 1.0
        self.refresh(grad_bound)

    def refresh(self, grad_bound: float):
        """Set sigma and the CFL bound dt_max for slopes up to grad_bound."""
        grid = self.grid
        self.grad_bound = max(grad_bound, 0.1)
        self.radius = max(self.base_radius, self.grad_bound + 1.0)
        self.sigma = self.H.lip_p(self.radius, grid.nodes)
        self.sig_n = np.sum(self.sigma[None, :] * np.abs(self.bn), axis=-1)

        inv = 1.0 / self.gap
        coef = np.sum(self.sigma[:, None] * np.maximum(inv[0], inv[1]), axis=0)
        binv = 1.0 / self.inw_gap
        if self.kind == "cn":
            fac = 1.0 if grid.dim == 1 else 2.0
            bco = fac * self.sig_n * np.sum(np.abs(self.bn).T * binv, axis=0)
        else:
            bco = self.Bm.lip * np.sum(binv, axis=0)
        coef[self.bidx] = np.maximum(coef[self.bidx], bco)
        self.dt_max = 1.0 / float(coef.max())

    # -- scheme operator ------------------------------------------------------

    def rhs(self, u: np.ndarray, slopes: tuple | None = None) -> np.ndarray:
        """Per-node scheme value Phi(u); one step is u - dt * Phi(u).

        slopes is one_sided(grid, u) when the caller holds it. An interior
        row is the Lax-Friedrichs flux H(x, (pW + pE)/2) - sum_i sigma_i
        (pE_i - pW_i)/2 on the one-sided slopes: nonincreasing in pE and
        nondecreasing in pW while each sigma_i bounds |dH/dp_i| over the
        slopes reached. A boundary row reads its inward gradient q off the
        same slopes by one gather. Under "cn" its ghost gradient takes the
        place of the mean slope, so one H call over all nodes serves both
        kinds of row; the closed-form root keeps its one certifying B call,
        which is what catches forms that do not match B.
        """
        grid = self.grid
        pW, pE = one_sided(grid, u) if slopes is None else slopes
        pbar = 0.5 * (pW + pE).T
        diss = 0.5 * (self.sigma[:, None] * (pE - pW)).sum(axis=0)
        if not self.bidx.size:
            return np.asarray(self.H(grid.nodes, pbar), dtype=float) - diss

        b, bn = self.bidx, self.bn
        q = np.concatenate((pW, pE, _ZERO), axis=None)[self.q_at]
        if self.kind == "dbc":
            phi = np.asarray(self.H(grid.nodes, pbar), dtype=float) - diss
            phi[b] = self.Bm(self.xb, q)
            return phi
        qn = (q * bn).sum(axis=-1)
        qt = q - qn[:, None] * bn
        lam = _ghost_solve_many(self.Bm, self.xb, qt, bn, self.tol, self.forms)
        pbar[b] = qt + lam[:, None] * bn
        hv = np.asarray(self.H(grid.nodes, pbar), dtype=float)
        phi = hv - diss
        phi[b] = hv[b] - self.sig_n * (lam - qn)
        return phi

    # -- Jacobian -------------------------------------------------------------

    def jacobian(self, u: np.ndarray, phi: np.ndarray) -> sparse.csr_array:
        """CSR matrix d rhs / du at u by forward differences of rhs itself.

        phi is rhs(u); one further rhs call per colour of
        ``stencil_colouring``. The step FD_STEP is absolute. The colouring
        and the CSR pattern depend on the grid alone and are built on the
        first call.
        """
        n = self.grid.n_nodes
        if self._pattern is None:
            colour = stencil_colouring(self.grid)
            nb = self.idx.reshape(-1, n)
            rows = np.concatenate([np.arange(n), np.tile(np.arange(n), nb.shape[0])])
            cols = np.concatenate([np.arange(n), nb.ravel()])
            rows, cols = rows[cols >= 0], cols[cols >= 0]
            masks = colour == np.arange(int(colour.max()) + 1)[:, None]
            self._pattern = masks, rows, cols, colour[cols]
        masks, rows, cols, col_colour = self._pattern
        up = u + FD_STEP
        dphi = np.stack([self.rhs(np.where(m, up, u)) for m in masks]) - phi
        vals = dphi[col_colour, rows] / (up - u)[cols]
        return sparse.csr_array((vals, (rows, cols)), shape=(n, n))

    def check_dt(self, dt: float):
        if dt > self.dt_max * (1 + 1e-12):
            raise CFLError(dt, self.dt_max)

    def step(self, u: np.ndarray, dt: float, slopes: tuple | None = None) -> np.ndarray:
        self.check_dt(dt)
        return u - dt * self.rhs(u, slopes)


def scheme_kind(kind: str) -> str:
    """The Stepper kind, "cn" or "dbc", of a problem kind; NumericalError
    for a kind outside SCHEME_KIND."""
    if kind not in SCHEME_KIND:
        raise NumericalError(f"unknown problem kind {kind!r}")
    return SCHEME_KIND[kind]


def stencil_colouring(grid: Grid) -> np.ndarray:
    """Colour of each column of d rhs / du; no row reads two of one colour.

    Row i reads u at i and at its axis neighbours (a boundary row's inward
    reconstruction picks among them), all lattice neighbours. Two such
    columns differ by e_a, 2 e_a or e_a +- e_b in lattice coordinates k,
    so sum_a (a + 1) k_a mod (2 dim + 1) parts them: 3 colours in 1-D,
    5 in 2-D.
    """
    d = grid.dim
    raw = (grid.lattice_index @ np.arange(1, d + 1)) % (2 * d + 1)
    return np.unique(raw, return_inverse=True)[1]


def one_sided(grid: Grid, u: np.ndarray):
    """(pW, pE) arrays of shape (dim, N); zero where a side is missing (the
    inf gap of ``Grid``)."""
    iw, ie = grid.neighbors
    gw, ge = grid.gaps
    pW = (u[None, :] - u[iw]) / gw
    pE = (u[ie] - u[None, :]) / ge
    return pW, pE


def discrete_lipschitz(grid: Grid, u: np.ndarray) -> float:
    """Largest one-sided slope magnitude over the existing stencil edges."""
    return _steepest(one_sided(grid, u))


def _steepest(slopes) -> float:
    pW, pE = slopes
    return float(max(np.abs(pW).max(initial=0.0), np.abs(pE).max(initial=0.0)))


def evolve(u0: GridField, H: Hamiltonian, Bm: BoundaryOperator, kind: str,
           T: float, record_every: float | None = None,
           dt: float | None = None) -> SpaceTimeField:
    """March u_t + H = 0 (with the kind's boundary treatment) up to time T.

    Snapshots are recorded at t = 0, then whenever a multiple of
    record_every is crossed, and at T. Each step's one-sided slopes feed
    its rhs and the check after the previous step. The dissipation range is
    refreshed if discrete slopes outgrow the certified radius; when that
    lowers the CFL bound below dt, a dt chosen here is re-chosen as 0.95
    dt_max for the rest of the horizon, and a dt given by the caller raises
    CFLError. Each refresh at least doubles the radius; slopes that outgrow
    it more than MAX_REFRESHES times are an unstable march, not a Lipschitz
    solution, and raise NumericalError.
    """
    if T < 0:
        raise NumericalError("T must be nonnegative")
    grid = u0.grid
    u = u0.values.copy()
    slopes = one_sided(grid, u)
    st = Stepper(grid, H, Bm, kind, grad_bound=_steepest(slopes))
    if T == 0:
        return SpaceTimeField(grid, np.array([0.0]), u[None, :], st.dt_max)
    chosen = dt is None
    if chosen:
        n = int(np.ceil(T / (0.95 * st.dt_max)))
        dt = T / n
    else:
        st.check_dt(dt)
        n = int(np.ceil(T / dt - 1e-12))
    if record_every is None:
        record_every = T / 8.0

    times = [0.0]
    snaps = [u.copy()]
    next_mark = record_every
    t = 0.0
    k = refreshes = 0
    while k < n:
        step_dt = min(dt, T - t)
        u = st.step(u, step_dt, slopes)
        t += step_dt
        slopes = one_sided(grid, u)
        slope = _steepest(slopes)
        if slope > st.radius - 1.0:
            refreshes += 1
            if refreshes > MAX_REFRESHES:
                raise NumericalError(
                    f"discrete slopes keep growing ({slope:.3g} at t={t:g} after "
                    f"{MAX_REFRESHES} dissipation refreshes): the march is unstable")
            st.refresh(2.0 * slope)
            if dt > st.dt_max:
                if not chosen:
                    raise CFLError(dt, st.dt_max)
                if k < n - 1:
                    rest = int(np.ceil((T - t) / (0.95 * st.dt_max)))
                    dt, n = (T - t) / rest, k + 1 + rest
        if t + 1e-12 >= next_mark or k == n - 1:
            times.append(t)
            snaps.append(u.copy())
            while next_mark <= t + 1e-12:
                next_mark += record_every
        k += 1
    return SpaceTimeField(grid, np.array(times), np.stack(snaps), dt)


def stationary_residual(w: GridField, H: Hamiltonian, Bm: BoundaryOperator,
                        kind: str, level: float = 0.0,
                        grad_bound: float | None = None) -> np.ndarray:
    """Residual of the stationary scheme H = level (boundary per kind) at w."""
    gb = grad_bound if grad_bound is not None else discrete_lipschitz(w.grid, w.values)
    st = Stepper(w.grid, H, Bm, kind, grad_bound=gb)
    return st.rhs(w.values) - level
