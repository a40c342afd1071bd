"""Finite-difference marching for the Neumann and dynamical problems.

Interior nodes use the Lax-Friedrichs numerical Hamiltonian on one-sided
slopes with the exact post-snap stencil gaps. Boundary nodes under the
Neumann condition reconstruct the inward one-sided gradient, replace its
normal component by the root of the boundary operator along the outward
normal (strong ghost sense; unique by obliqueness), and add Lax-Friedrichs
dissipation along the normal. Under the dynamical condition the boundary
carries its own explicit update with the inward reconstruction.

A ``Stepper`` fixes its boundary data at build, down to the flat index of
each inward slope, and for a catalog B the forms gamma_k, g_k and
gamma_k . n at the boundary nodes. Under the Neumann condition the root is
then closed, certified against B by one call at build (``_certify_forms``);
a custom B is bisected to rounding (``_ghost_solve_many``). Each ``rhs``
takes its one-sided slopes from one pair of gathers (``one_sided``); under
the Neumann condition the ghost gradients take the place of the boundary
rows' mean slopes, so one evaluation of H serves every row, and a catalog B
is not called. A radial catalog H is h0 + profile(|p|^2), with h0 = H(x, 0)
kept from the build, so its ``rhs`` makes no H call. sigma is closed-form
for the radial catalog H and sampled for the rest. The CFL bound dt_max
keeps every row's own coefficient in u - dt Phi(u) nonnegative, from the
actual stencil gaps; for a catalog B under the Neumann condition the
boundary rows' bound follows the closed-form root as it moves with u_b
(``Stepper.refresh``). It does not make the scheme monotone at curved
boundaries (ROADMAP item 2). ``Stepper.refresh_for`` holds the one rule of
every solver that widens the dissipation as slopes grow.

``Stepper.jacobian`` gives d Phi / du for the Newton solves of ``ergodic``
by one assembly for every model: the chain rule through the one-sided
slopes and the boundary root, fed with dH/dp and dB/dp in closed form for a
radial catalog H and a catalog B and by central differences in p for the
rest. It makes no rhs call. Given an anchor node it is the bordered matrix
of ``ergodic_limit``'s Newton steps, so only this module knows its layout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .errors import CFLError, NumericalError, ObliquenessError
from .geometry import Grid
from .models import BoundaryOperator, Hamiltonian, _forms_at

# dissipation refreshes evolve() allows before it calls the march unstable
MAX_REFRESHES = 8

# the Stepper kind of each problem kind: the Neumann ("cn") and dynamical
# ("dbc") marches, and the ergodic problems "e1" and "e2" on their operators
SCHEME_KIND = {"cn": "cn", "e1": "cn", "dbc": "dbc", "e2": "dbc"}


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

    def stamp(self, t: float, tol: float | None = None) -> int:
        """Index of the recorded stamp nearest t; NumericalError when it is
        more than tol (default 0.51 times the least stamp spacing) away."""
        k = int(np.argmin(np.abs(self.times - t)))
        gap = abs(self.times[k] - t)
        spacing = np.diff(self.times).min() if self.times.size > 1 else self.dt
        lim = tol if tol is not None else 0.51 * float(spacing)
        if gap > lim:
            raise NumericalError(f"no snapshot near t={t:g} (closest {self.times[k]:g})")
        return k

    def at_time(self, t: float, tol: float | None = None) -> np.ndarray:
        """The snapshot at ``stamp``(t, tol)."""
        return self.values[self.stamp(t, tol)]


def constant_field(grid: Grid, value: float = 0.0) -> GridField:
    return GridField(grid, np.full(grid.n_nodes, float(value)))


def field_from(grid: Grid, fn) -> GridField:
    return GridField(grid, np.asarray(fn(grid.nodes), dtype=float))


def _form_values(Bm: BoundaryOperator, X, N):
    """``_forms_at``(Bm, X) and gamma_k . N, shapes (m, K, d), (m, K), (m, K);
    ObliquenessError where some gamma_k . n <= 0."""
    gam, g = _forms_at(Bm, X)
    slope = (gam * N[:, None]).sum(axis=-1)
    if (slope <= 0).any():
        raise ObliquenessError(f"boundary form with gamma.n = {slope.min():g} <= 0")
    return gam, g, slope


def _form_root(forms, QT) -> np.ndarray:
    """lambda = min_k (g_k - gamma_k . q_T) / (gamma_k . n) over the forms of
    _form_values, the root along n since each form increases along it."""
    gam, g, slope = forms
    return ((g - (gam * QT[:, None]).sum(axis=-1)) / slope).min(axis=1)


def _certify_forms(Bm: BoundaryOperator, X, QTs, N, tol: float, forms):
    """NumericalError unless the closed-form root for each q_T block of QTs
    (rows as X) zeroes B to within tol times 1 + |q_T + lambda n|_inf.

    One call of B covers every block; it is the only check that the forms
    match B, so it sees only the q_T it is given.
    """
    ghost = np.concatenate([QT + _form_root(forms, QT)[:, None] * N for QT in QTs])
    res = np.abs(Bm(np.tile(X, (len(QTs), 1)), ghost))
    if not (res <= tol * (1.0 + np.abs(ghost).max(axis=-1))).all():
        raise NumericalError(
            f"closed-form boundary root misses B = 0 by {res.max():.3g}; "
            "the forms do not match B")


def _ghost_solve_many(Bm: BoundaryOperator, X, QT, N, tol: float,
                      forms: tuple | None = None) -> np.ndarray:
    """Roots lambda of B(x, q_T + lambda n) = 0 for the rows of (X, QT, N).

    With forms, lambda is _form_root. Given forms (a Stepper's) were
    certified where they were built, so no B call is made; without them
    _form_values(Bm, X, N) is computed here and its roots at QT certified
    by one call of B. Custom models bisect from the bracket |B(x, q_T)| /
    theta + 1, expanded geometrically at most 10 times, down to rounding:
    until every bracket is at most 4 eps (1 + max |lambda|) wide.
    """
    if Bm.forms is not None:
        if forms is None:
            forms = _form_values(Bm, X, N)
            _certify_forms(Bm, X, [QT], N, tol, forms)
        return _form_root(forms, QT)

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
    rounding = 4.0 * np.finfo(float).eps
    for _ in range(90):
        mid = 0.5 * (lo + hi)
        up = bval(mid) < 0
        lo = np.where(up, mid, lo)
        hi = np.where(up, hi, mid)
        if np.max(hi - lo) <= rounding * (1.0 + np.max(np.abs(mid))):
            break
    return 0.5 * (lo + hi)


class Stepper:
    """Precomputed stencil tables and dissipation constants for one (H, B, grid).

    kind is "cn" or "e1" (nonlinear Neumann) or "dbc" or "e2" (dynamical
    boundary); self.kind holds the scheme's "cn" or "dbc". The inward
    reconstruction and, for a catalog B, gamma_k, g_k and gamma_k . n at
    the boundary nodes are fixed at build (ObliquenessError there if some
    gamma_k . n <= 0); under "cn" the forms' root is certified against B by
    one call (NumericalError if they do not match). h0 = H(x, 0) at the
    nodes is evaluated once: it sets the coercivity radius and is kept as
    the base of a radial H in ``rhs``. ``refresh`` resets sigma and dt_max
    from the forms fixed at build and calls no B.
    """

    def __init__(self, grid: Grid, H: Hamiltonian, Bm: BoundaryOperator,
                 kind: str = "cn", grad_bound: float = 1.0):
        self.grid, self.H, self.Bm, self.kind = grid, H, Bm, scheme_kind(kind)
        self.idx = grid.neighbors
        self.gap = grid.gaps

        # inward reconstruction per axis from the neighbour against the normal,
        # else the other: side 0 reads (u_b - u_j)/gap, side 1 (u_j - u_b)/gap
        b = grid.boundary_idx
        self.bidx, self.bn, self.xb = b, grid.normals[b], grid.nodes[b]
        first = (self.bn.T < -1e-12).astype(np.int64)[None]
        side = np.where(np.take_along_axis(self.idx[:, :, b] >= 0, first, 0), first, 1 - first)
        # flat index of each inward slope in one_sided(grid, u).ravel(); an
        # axis with no neighbour points at a missing side, whose slope is +0.0
        dim, n = grid.dim, grid.n_nodes
        self.q_at = (side[0] * dim * n + np.arange(dim)[:, None] * n + b).T
        self._patterns = {}

        self.tol = min(1e-12, Bm.theta * grid.h ** 2)

        # the dissipation radius is anchored at p = 0 so that every solver
        # (marching, discounted sweeps, slope estimator) shares one discrete
        # operator; data with larger slopes lifts it, and the solvers
        # refresh when slopes grow past it
        self.h0 = np.asarray(H(grid.nodes, np.zeros(grid.dim)), dtype=float)
        level = 2.0 * float(np.abs(self.h0).max()) + 2.0
        self.base_radius = H.coercivity_radius(level, grid.nodes, self.h0) + 1.0

        self.forms = None if Bm.forms is None else _form_values(Bm, self.xb, self.bn)
        self.refresh(grad_bound)

        if self.kind == "cn" and self.forms is not None:
            # q_T = 0 and +-r (e_i - (e_i . n) n), r the dissipation radius:
            # opposite tangential slopes turn the root onto different pieces
            # of a max of forms
            tang = np.eye(grid.dim)[:, None, :] - self.bn.T[:, :, None] * self.bn
            probes = [np.zeros_like(self.bn), *(self.radius * tang), *(-self.radius * tang)]
            _certify_forms(Bm, self.xb, probes, self.bn, self.tol, self.forms)

    def refresh(self, grad_bound: float):
        """Set sigma and the CFL bound dt_max for slopes up to grad_bound.

        dt_max is 1 over the largest bound on a row's own derivative
        d Phi_i / d u_i, which keeps u - dt Phi(u) nondecreasing in u_i (a
        monotone explicit scheme needs no more). Under "cn" a boundary row
        Phi_b = H(x, q_T + lambda n) - sigma_n (lambda - q . n) reads u_b
        through its inward gradient q, with w = dq/du_b = +-1 / gap per
        inward side (0 on a missing axis) and w_T = w - (w . n) n. For a
        catalog B the root lambda = min_k lambda_k moves by dlambda_k =
        -gamma_k . w_T / (gamma_k . n) on form k, so the bound is the normal
        dissipation sigma_n sum_i |n_i| / gap_i plus the max over k of
        sigma_n |dlambda_k| + sum_a sigma_a |w_T,a + n_a dlambda_k|. In 1-D
        w_T = 0 and only the first term is left. A custom B in 2-D takes
        twice the first term.
        """
        grid = self.grid
        self.grad_bound = max(grad_bound, 0.1)
        self.radius = max(self.base_radius, self.grad_bound + 1.0)
        self.sigma = self.H.lip_p(self.radius, grid.nodes)
        self.sig_n = np.sum(self.sigma[None, :] * np.abs(self.bn), axis=-1)

        inv = 1.0 / self.gap
        coef = np.sum(self.sigma[:, None] * np.maximum(inv[0], inv[1]), axis=0)
        binv = 1.0 / self.gap.ravel()[self.q_at].T          # inward gaps (dim, Nb)
        if self.kind == "cn":
            bco = self.sig_n * np.sum(np.abs(self.bn).T * binv, axis=0)
            if self.forms is not None:
                bco = bco + self._tangential_bound(binv)
            elif grid.dim > 1:
                bco = 2.0 * bco
        else:
            bco = self.Bm.lip * np.sum(binv, axis=0)
        coef[self.bidx] = np.maximum(coef[self.bidx], bco)
        self.dt_max = 1.0 / float(coef.max())

    def refresh_for(self, slope: float) -> bool:
        """``refresh``(2 slope) when slope has outgrown the certified radius
        (slope > radius - 1); whether it did."""
        if not slope > self.radius - 1.0:
            return False
        self.refresh(2.0 * slope)
        return True

    def _tangential_bound(self, binv: np.ndarray) -> np.ndarray:
        """max_k sigma_n |dlambda_k| + sum_a sigma_a |w_T,a + n_a dlambda_k|
        per boundary node, binv the inward 1 / gap (dim, Nb); see refresh."""
        gam, _, slope = self.forms
        bn = self.bn
        # q_at's side 0 reads (u_b - u_j) / gap, side 1 (u_j - u_b) / gap
        w = np.where(self.q_at < self.grid.dim * self.grid.n_nodes, binv.T, -binv.T)
        wt = w - (w * bn).sum(axis=-1)[:, None] * bn
        dlam = -(gam * wt[:, None]).sum(axis=-1) / slope
        move = np.abs(wt[:, None] + bn[:, None] * dlam[..., None])
        return (self.sig_n[:, None] * np.abs(dlam) + (self.sigma * move).sum(axis=-1)).max(axis=1)

    # -- scheme operator ------------------------------------------------------

    def rhs(self, u: np.ndarray, slopes: np.ndarray | None = None) -> np.ndarray:
        """Per-node scheme value Phi(u); one step is u - dt * Phi(u).

        slopes is one_sided(grid, u) when the caller holds it. An interior
        row is the Lax-Friedrichs flux H(x, (pW + pE)/2) - sum_i sigma_i
        (pE_i - pW_i)/2 on the one-sided slopes: nonincreasing in pE and
        nondecreasing in pW while each sigma_i bounds |dH/dp_i| over the
        slopes reached. A boundary row reads its inward gradient q off the
        same slopes by one gather. Under "cn" its ghost gradient takes the
        place of the mean slope, so one evaluation of H over all nodes
        serves both kinds of row: h0 + profile(|p|^2) for a radial H, one H
        call for any other. Its closed-form root calls no B: the forms were
        certified against B at build.
        """
        S = one_sided(self.grid, u) if slopes is None else slopes
        pbar, q, qn, lam = self._row_slopes(S)
        diss = 0.5 * (self.sigma[:, None] * (S[1] - S[0])).sum(axis=0)
        if self.H.profile is None:
            hv = np.asarray(self.H(self.grid.nodes, pbar), dtype=float)
        else:
            hv = self.h0 + self.H.profile((pbar ** 2).sum(axis=-1))
        phi = hv - diss
        b = self.bidx
        phi[b] = self.Bm(self.xb, q) if self.kind == "dbc" else hv[b] - self.sig_n * (lam - qn)
        return phi

    def _row_slopes(self, S: np.ndarray):
        """(pbar, q, qn, lam) from the one-sided slopes S: the slopes H reads
        (N, dim), the mean slopes with the ghost gradients q_T + lambda n in
        the boundary rows under "cn"; the inward gradients q (Nb, dim); and
        under "cn" q . n and the roots lambda, else None."""
        pbar = 0.5 * (S[0] + S[1]).T
        q = S.ravel()[self.q_at]
        qn = lam = None
        if self.kind == "cn":
            bn = self.bn
            qn = (q * bn).sum(axis=-1)
            qt = q - qn[:, None] * bn
            lam = _ghost_solve_many(self.Bm, self.xb, qt, bn, self.tol, self.forms)
            pbar[self.bidx] = qt + lam[:, None] * bn
        return pbar, q, qn, lam

    # -- Jacobian -------------------------------------------------------------

    def jacobian(self, u: np.ndarray, shift: float = 0.0,
                 anchor: int | None = None) -> sparse.csr_array:
        """CSR matrix d rhs / du + shift I at u, with no rhs call.

        Each row is d Phi / dS on its one-sided slopes S, chained through
        S = (u[hi] - u[lo]) / gap (``Grid.slope_ends``), with a = dH/dp and
        gamma = dB/dp from ``_grad_p``. An interior row reads (a_i +- sigma_i)
        / 2 on pW_i and pE_i, a at its mean slope. A "cn" boundary row takes
        its root lambda as rhs does (``_row_slopes``) and reads its inward
        gradient q through it: with a and gamma at the ghost gradient,
        dlambda = -P gamma / (gamma . n), P = I - n n^T, and d Phi / dq =
        P a + (a . n) dlambda - sigma_n (dlambda - n). A "dbc" row reads
        gamma at q. At a kink this is one element of the generalized
        Jacobian (the minimal-norm one for |p| at p = 0, the active form's
        for a max of forms), so Newton on it is Howard's policy iteration
        (Bokanowski, Maroso & Zidani, SIAM J. Numer. Anal. 47, 2009), the
        semismooth Newton method of Qi & Sun (Math. Program. 58, 1993).
        With an anchor x0 it is the eigenpair's bordered matrix
        (``ergodic.ergodic_limit``): column x0, the unknown c, is -1 in
        every row, and exact zeros (slots a boundary row does not read) are
        dropped, as they would change SuperLU's column ordering and so the
        rounding. The CSR pattern depends on the grid and the anchor alone
        and is built on the first call with that anchor.
        """
        n = self.grid.n_nodes
        if anchor not in self._patterns:
            # entries: the diagonal, the neighbour columns of idx and, with an
            # anchor, its column in every row in place of J's own entries
            # there; take puts the kept ones (column >= 0) in CSR order
            rows = np.tile(np.arange(n), 2 + self.idx.size // n)
            cols = np.concatenate([np.arange(n), self.idx.ravel(), np.full(n, -1)])
            if anchor is not None:
                cols[cols == anchor] = -1
                cols[-n:] = anchor
            take = np.flatnonzero(cols >= 0)
            take = take[np.lexsort((cols[take], rows[take]))]
            indptr = np.concatenate([[0], np.cumsum(np.bincount(rows[take], minlength=n))])
            self._patterns[anchor] = take, cols[take], indptr
        take, cols, indptr = self._patterns[anchor]
        pbar, q, _, _ = self._row_slopes(one_sided(self.grid, u))
        b, bn = self.bidx, self.bn
        a = self._grad_p(self.H, self.grid.nodes, pbar)
        C = 0.5 * a.T + 0.5 * self.sigma[:, None] * np.array([1.0, -1.0])[:, None, None]
        C[:, :, b] = 0.0
        if self.kind == "cn":
            gam = self._grad_p(self.Bm, self.xb, pbar[b])
            gn = (gam * bn).sum(axis=-1)[:, None]
            dlam = -(gam - gn * bn) / gn
            an = (a[b] * bn).sum(axis=-1)[:, None]
            dq = a[b] + (an - self.sig_n[:, None]) * (dlam - bn)
        else:
            dq = self._grad_p(self.Bm, self.xb, q)
        np.put(C, self.q_at, dq)
        W = C / self.gap
        vals = np.concatenate([(W[0] - W[1]).sum(axis=0), -W[0].ravel(), W[1].ravel(),
                               np.full(n, -1.0)])
        vals[:n] += shift
        # a copy, so that eliminate_zeros (in place) and any caller's edit
        # leave the cached pattern alone
        J = sparse.csr_array((vals[take], cols, indptr), shape=(n, n), copy=True)
        if anchor is not None:
            J.eliminate_zeros()
        return J

    def _grad_p(self, F, X: np.ndarray, P: np.ndarray) -> np.ndarray:
        """dF/dp at the rows (X, P), F the Stepper's H or B; shape of P.

        A radial H gives 2 dprofile(|p|^2) p, and a catalog B the gamma of
        its active form (the argmax at p) from the forms fixed at build, X
        being the boundary nodes. Any other model is differenced centrally in
        p, with one step eps^(1/3) (1 + |P|_inf) for all rows and one call.
        """
        if F is self.H and F.dprofile is not None:
            return 2.0 * F.dprofile((P ** 2).sum(axis=-1))[:, None] * P
        if F is self.Bm and self.forms is not None:
            gam, g, _ = self.forms
            k = ((gam * P[:, None]).sum(axis=-1) - g).argmax(axis=1)
            return gam[np.arange(P.shape[0]), k]
        m, d = P.shape
        step = np.finfo(float).eps ** (1 / 3) * (1.0 + float(np.abs(P).max(initial=0.0)))
        E = step * np.eye(d)[:, None, :]
        vals = np.asarray(F(np.tile(X, (2 * d, 1)), np.concatenate([P + E, P - E]).reshape(-1, d)),
                          dtype=float).reshape(2, d, m)
        return ((vals[0] - vals[1]) / (2.0 * step)).T

    def check_dt(self, dt: float):
        if dt > self.dt_max * (1 + 1e-12):
            raise CFLError(dt, self.dt_max)

    def step(self, u: np.ndarray, dt: float, slopes: np.ndarray | None = None) -> np.ndarray:
        self.check_dt(dt)
        return u - dt * self.rhs(u, slopes)


def scheme_kind(kind: str) -> str:
    """The Stepper kind, "cn" or "dbc", of a problem kind; NumericalError
    for a kind outside SCHEME_KIND."""
    if kind not in SCHEME_KIND:
        raise NumericalError(f"unknown problem kind {kind!r}")
    return SCHEME_KIND[kind]


def one_sided(grid: Grid, u: np.ndarray) -> np.ndarray:
    """One-sided slopes stacked as one (2, dim, N) array, the backward pW
    then the forward pE (``pW, pE = one_sided(grid, u)`` unpacks), from one
    pair of gathers over ``Grid.slope_ends``; +0.0 across every missing
    side."""
    lo, hi = grid.slope_ends
    return (u[hi] - u[lo]) / grid.gaps


def discrete_lipschitz(grid: Grid, u: np.ndarray) -> float:
    """Largest one-sided slope magnitude over the existing stencil edges."""
    return _steepest(one_sided(grid, u))


def _steepest(slopes: np.ndarray) -> float:
    return float(np.abs(slopes).max())


def evolve(u0: GridField, H: Hamiltonian, Bm: BoundaryOperator, kind: str,
           T: float, record_every: float | None = None,
           dt: float | None = None) -> SpaceTimeField:
    """March u_t + H = 0 (with the kind's boundary treatment) up to time T.

    Snapshots are recorded at t = 0, then whenever a multiple of
    record_every (positive, default T / 8) is crossed, and at T. Each
    step's one-sided slopes feed its rhs and the check after the previous
    step. The dissipation range is refreshed if discrete slopes outgrow the
    certified radius; when that lowers the CFL bound below dt, a dt chosen
    here is re-chosen as 0.95 dt_max for the rest of the horizon, and a dt
    given by the caller raises CFLError. Each refresh at least doubles the
    radius; slopes that outgrow it more than MAX_REFRESHES times are an
    unstable march, not a Lipschitz solution, and raise NumericalError.
    """
    if T < 0:
        raise NumericalError("T must be nonnegative")
    if record_every is not None and not record_every > 0:
        raise NumericalError(f"record_every must be positive, not {record_every:g}")
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
        if st.refresh_for(slope):
            refreshes += 1
            if refreshes > MAX_REFRESHES:
                raise NumericalError(
                    f"discrete slopes keep growing ({slope:.3g} at t={t:g} after "
                    f"{MAX_REFRESHES} dissipation refreshes): the march is unstable")
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
