"""Hamiltonians, boundary operators, their convex conjugates, and assumption audits.

Evaluators are vectorized: ``H(x, p)`` and ``B(x, p)`` take point arrays of
shape (..., dim) and momentum arrays broadcastable against them, returning
value arrays of shape (...).

Both convex conjugates, the running cost L = H* of the control
representation and the reflection cost G = B*, come from one engine over
paired rows (x, xi): a dense lattice argmax per row, with plateaus broken
toward the lattice center, then a vectorized axiswise polish that returns
the value and the maximizer. Models are never differentiated analytically,
so nonsmooth and nonconvex ones are handled uniformly. ``lagrangian`` and
``boundary_conjugate`` are one-row calls, ``lagrangian_batch`` and
``effective_velocity_bound`` batch calls, and ``moreau`` takes the
conjugate of B(x, .) + |.|^2 / (2 delta). Every caller gets one
certification rule:

- a row whose argmax touches the lattice edge doubles its radius, at most
  7 times;
- a row still on the edge after the last doubling, having grown at every
  doubling, is priced at ``CAP``, the finite stand-in for +infinity;
- a row on the edge that did not grow at a doubling raises RadiusError.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .errors import NumericalError, RadiusError
from .expressions import scalar_field
from .geometry import DomainGeometry, build_grid

CAP = 1.0e9

# boundary samples per domain diameter, for obliqueness and M_B estimates
BOUNDARY_SAMPLES = 48

# draws per assumption and pass tolerance of audit_assumptions
AUDIT_SAMPLES = 400
AUDIT_TOL = 1e-7


# ---------------------------------------------------------------------------
# model containers and catalog
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Hamiltonian:
    """Hamiltonian H(x, p) with what the solvers read of it.

    convex gates audit (A7) and the control representation of ``value``.
    conjugate, when set, is the closed form of L(x, xi) = sup_p (xi . p -
    H(x, p)) on paired rows (X, XI); the conjugate engine serves the rest.
    A radial model H(x, p) = H(x, 0) + profile(|p|) sets profile, and
    lip_form(r) = sup |dH/dp_i| over |p|_inf <= r, in place of sampling p.
    """

    name: str
    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    dim: int
    convex: bool
    conjugate: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    lip_form: Callable[[float], float] | None = None
    profile: Callable[[float], float] | None = None

    def __call__(self, x: np.ndarray, p: np.ndarray) -> np.ndarray:
        return self.fn(np.asarray(x, float), np.asarray(p, float))

    def coercivity_radius(self, level: float, points: np.ndarray) -> float:
        """Smallest scanned radius r = 0.5 * 1.25^k <= 256 with min over samples
        of H at |p| = r >= level; a profile gives min H(x, 0) + profile(r)."""
        dirs = _directions(self.dim)
        base = None if self.profile is None else float(self(points, np.zeros(self.dim)).min())
        r = 0.5
        while r <= 256.0:
            if base is None:
                low = self(points[:, None, :], (r * dirs)[None, :, :]).min()
            else:
                low = base + self.profile(r)
            if low >= level:
                return r
            r *= 1.25
        raise NumericalError(
            f"H={self.name} does not reach level {level:g} within |p|<=256; "
            "coercivity (A1) fails numerically")

    def lip_p(self, radius: float, points: np.ndarray) -> np.ndarray:
        """Componentwise bound on |dH/dp_i| over |p|_inf <= radius (lip_form,
        else sampled), with a 5% + 1e-9 margin."""
        if self.lip_form is not None:
            return 1.05 * np.full(self.dim, float(self.lip_form(radius))) + 1e-9
        lat = _lattice(self.dim, radius, 33 if self.dim == 1 else 17)
        eps = 1e-4 * max(radius, 1.0)
        out = np.zeros(self.dim)
        for i, e in enumerate(eps * np.eye(self.dim)):
            hi = self(points[:, None, :], (lat + e)[None, :, :])
            lo = self(points[:, None, :], (lat - e)[None, :, :])
            out[i] = np.abs(hi - lo).max() / (2 * eps)
        return 1.05 * out + 1e-9


@dataclass(frozen=True)
class BoundaryOperator:
    """Boundary operator B(x, p) with obliqueness theta and Lipschitz bound M_B.

    convex gates audit (A5); geom is the domain whose normals B was built on.
    forms holds the affine pieces ((gamma_k, g_k), ...) of a catalog model,
    B = max_k (gamma_k(x) . p - g_k(x)), as callables on point arrays; it is
    None for custom models.
    """

    name: str
    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    dim: int
    theta: float
    lip: float
    convex: bool
    geom: DomainGeometry | None = None
    forms: tuple | None = None

    def __call__(self, x: np.ndarray, p: np.ndarray) -> np.ndarray:
        return self.fn(np.asarray(x, float), np.asarray(p, float))


def quadratic(dim: int = 1, potential: Callable | str | None = None,
              coeff: float = 0.5) -> Hamiltonian:
    """H(x, p) = coeff*|p|^2 + V(x); L(x, xi) = |xi|^2 / (4 coeff) - V(x)."""
    V = _as_field(potential, dim)

    def fn(x, p):
        base = coeff * (p ** 2).sum(axis=-1)
        return base + (V(x) if V is not None else 0.0)

    def conjugate(X, XI):
        return np.sum(XI ** 2, axis=-1) / (4 * coeff) - H(X, np.zeros(dim))

    H = Hamiltonian("quadratic", fn, dim, True, conjugate if coeff > 0 else None,
                    lambda r: 2.0 * abs(coeff) * r, lambda s: coeff * s ** 2)
    return H


def eikonal(dim: int = 1, speed: Callable | str | None = None) -> Hamiltonian:
    """H(x, p) = |p| - f(x); L(x, xi) = f(x) for |xi| <= 1, +inf (CAP after any shift) outside."""
    f = _as_field(speed, dim)

    def fn(x, p):
        base = np.sqrt((p * p).sum(axis=-1))
        return base - (f(x) if f is not None else 0.0)

    def conjugate(X, XI):
        return np.where(np.linalg.norm(XI, axis=-1) <= 1.0, -fn(X, np.zeros(dim)), np.inf)

    return Hamiltonian("eikonal", fn, dim, True, conjugate, lambda r: 1.0, lambda s: s)


def double_well(dim: int = 1) -> Hamiltonian:
    """H(x, p) = (|p|^2 - 1)^2. Nonconvex; satisfies (A6). An offset is a
    shift_hamiltonian."""

    def fn(x, p):
        q = (p ** 2).sum(axis=-1)
        return (q - 1.0) ** 2

    return Hamiltonian("double_well", fn, dim, False)


def poly1d(coeffs) -> Hamiltonian:
    """H(p) = sum_k coeffs[k] * p^k in one dimension."""
    c = np.asarray(coeffs, float)

    def fn(x, p):
        return np.polyval(c[::-1], np.asarray(p, float)[..., 0])

    conv = bool(len(c) >= 3 and np.all(c[3:] == 0) and c[2] > 0) if len(c) > 2 else len(c) <= 2
    return Hamiltonian("poly1d", fn, 1, conv)


def shift_hamiltonian(H: Hamiltonian, c: float) -> Hamiltonian:
    if c == 0.0:
        return H
    conj = None if H.conjugate is None else (lambda X, XI: H.conjugate(X, XI) + c)
    return replace(H, fn=lambda x, p: H.fn(x, p) - c, conjugate=conj)


def neumann(geom: DomainGeometry) -> BoundaryOperator:
    """Homogeneous Neumann condition B(x, p) = p . n(x)."""
    return _affine_forms("neumann", geom, [(None, 0.0)], lip=1.0)


def affine(geom: DomainGeometry, gamma: Callable | np.ndarray | None = None,
           g: Callable | str | float = 0.0) -> BoundaryOperator:
    """Linear oblique condition B(x, p) = gamma(x) . p - g(x)."""
    return _affine_forms("affine", geom, [(gamma, g)])


def max_affine(geom: DomainGeometry, forms) -> BoundaryOperator:
    """Control-type condition B(x, p) = max_k (gamma_k(x) . p - g_k(x))."""
    return _affine_forms("max_affine", geom, forms)


def _affine_forms(name, geom, forms, lip=None) -> BoundaryOperator:
    """max_k (gamma_k . p - g_k) kept as forms; M_B defaults to max |gamma_k|."""
    forms = tuple((_as_direction(gm, geom), _as_field(gv, geom.dim)) for gm, gv in forms)
    bpts = _boundary_samples(geom)
    theta = min(estimate_obliqueness(geom, gm, bpts) for gm, _ in forms)
    if lip is None:
        lip = max(float(np.linalg.norm(gm(bpts), axis=-1).max()) for gm, _ in forms)

    def fn(x, p):
        vals = [(p * gm(x)).sum(axis=-1) - gf(x) for gm, gf in forms]
        return vals[0] if len(vals) == 1 else np.stack(vals).max(axis=0)

    return BoundaryOperator(name, fn, geom.dim, theta, lip, True, geom, forms)


def custom_boundary(geom: DomainGeometry, fn, theta: float, lip: float) -> BoundaryOperator:
    """B = fn with declared theta and M_B; not taken as convex, so (A5) is
    informational."""
    return BoundaryOperator("custom", fn, geom.dim, theta, lip, False, geom)


def shift_boundary(Bm: BoundaryOperator, c: float) -> BoundaryOperator:
    if c == 0.0:
        return Bm
    forms = None if Bm.forms is None else tuple(
        (gm, lambda x, gf=gf: gf(x) + c) for gm, gf in Bm.forms)
    return BoundaryOperator(Bm.name, lambda x, p: Bm.fn(x, p) - c, Bm.dim,
                            Bm.theta, Bm.lip, Bm.convex, Bm.geom, forms)


def _as_field(v, dim):
    if v is None:
        return None
    if isinstance(v, str):
        return scalar_field(v, dim)
    if isinstance(v, (int, float)):
        c = float(v)
        return lambda pts: np.full(np.asarray(pts, float).shape[:-1], c)
    return v


def _as_direction(gamma, geom):
    """None -> n(x); scalar c -> c*n(x); vector -> constant field; else callable."""
    if gamma is None:
        return geom.unit_normal
    if callable(gamma):
        return gamma
    if np.isscalar(gamma):
        c = float(gamma)
        return lambda pts: c * geom.unit_normal(pts)
    vec = np.asarray(gamma, float)
    return lambda pts: np.broadcast_to(vec, np.asarray(pts, float).shape).copy()


def _boundary_samples(geom):
    g = build_grid(geom, geom.diameter / BOUNDARY_SAMPLES)
    return g.nodes[g.boundary]


def estimate_obliqueness(geom: DomainGeometry, gamma_fn, pts: np.ndarray) -> float:
    """Worst-case gamma(x) . n(z) over boundary pairs with |x-z| small.

    Each direction gamma(x) is paired with the normals n(z) of the samples
    within 6 h of x, h = diameter / BOUNDARY_SAMPLES the spacing of the
    sample grid, not with n(x) alone, so theta also bounds gamma . n where
    the normal turns between samples. pts are the boundary samples of
    `_boundary_samples`.
    """
    gam = gamma_fn(pts)
    nrm = geom.unit_normal(pts)
    reach = 6.0 * geom.diameter / BOUNDARY_SAMPLES
    d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1)
    close = d2 <= reach ** 2
    dots = np.einsum("id,jd->ij", gam, nrm)
    theta = float(np.min(np.where(close, dots, np.inf)))
    if theta <= 0:
        raise NumericalError(f"reflection field is not oblique (min gamma.n = {theta:g})")
    return theta


def _directions(dim: int) -> np.ndarray:
    if dim == 1:
        return np.array([[1.0], [-1.0]])
    ang = np.linspace(0.0, 2 * np.pi, 32, endpoint=False)
    return np.stack([np.cos(ang), np.sin(ang)], axis=-1)


# ---------------------------------------------------------------------------
# convex conjugates: one engine over paired rows
# ---------------------------------------------------------------------------

_INVPHI = (np.sqrt(5.0) - 1) / 2


def _lattice(dim: int, radius: float, n_axis: int) -> np.ndarray:
    ax = np.linspace(-radius, radius, n_axis)
    return np.stack(np.meshgrid(*([ax] * dim), indexing="ij"),
                    axis=-1).reshape(-1, dim)


def _conjugate(fun, X, XI, radius: float):
    """sup_p (xi . p - fun(x, p)) over the paired rows (x, xi) of (X, XI).

    fun(X, P) broadcasts over points X and momenta P of shape (..., dim).
    Returns the values and the maximizers (nan rows where the value is CAP)
    under the certification rule of the module docstring.
    """
    X = np.asarray(X, float)
    XI = np.asarray(XI, float)
    m, dim = XI.shape
    n_axis = 257 if dim == 1 else 65
    val = np.full(m, CAP)
    arg = np.full((m, dim), np.nan)
    cell = np.zeros(m)
    rows, prev = np.arange(m), None
    for _ in range(8):      # the first lattice and at most 7 doublings
        best, p0, on_edge = _lattice_max(fun, X[rows], XI[rows], radius, n_axis)
        fin = rows[~on_edge]
        val[fin], arg[fin] = best[~on_edge], p0[~on_edge]
        cell[fin] = 2 * radius / (n_axis - 1)
        best = best[on_edge]
        if prev is not None and np.any(best <= prev[on_edge] + 1e-7 * (1 + np.abs(prev[on_edge]))):
            raise RadiusError(
                f"conjugate maximizer on the p-grid edge at radius {radius:g} "
                "without growth; radius too small")
        rows, prev = rows[on_edge], best
        if rows.size == 0:
            break
        radius *= 2.0
    fin = ~np.isnan(arg[:, 0])
    if np.any(fin):
        val[fin], arg[fin] = _polish(fun, X[fin], XI[fin], arg[fin], cell[fin])
    return np.minimum(val, CAP), arg


def _lattice_max(fun, X, XI, radius, n_axis):
    """Lattice argmax per row and whether it sits on the lattice edge.

    Plateaus (e.g. affine B at xi = gamma) tie-break toward the center. An
    edge argmax whose advantage over the best interior point is at noise
    level is a plateau tilted by roundoff, not growth: the interior point
    is taken instead.
    """
    lat = _lattice(XI.shape[-1], radius, n_axis)
    cell = 2 * radius / (n_axis - 1)
    norm = np.abs(lat).max(axis=-1)
    inner = norm <= radius - 0.5 * cell
    edge = np.any(np.abs(np.abs(lat) - radius) < 0.5 * cell, axis=-1)
    k = np.empty(len(XI), dtype=np.int64)
    best = np.empty(len(XI))
    step = max(1, int(2e6 // len(lat)))
    for s in range(0, len(XI), step):
        sl = slice(s, s + step)
        vals = XI[sl, :1] * lat[:, 0]
        for a in range(1, lat.shape[1]):
            vals += XI[sl, a:a + 1] * lat[:, a]
        vals -= fun(X[sl, None, :], lat[None, :, :])
        r = np.arange(vals.shape[0])
        top = vals.max(axis=1, keepdims=True)
        kk = np.argmin(np.where(vals >= top - 1e-12 * (1 + np.abs(top)), norm, np.inf), axis=1)
        bb = vals[r, kk]
        vals[:, ~inner] = -np.inf
        ki = np.argmax(vals, axis=1)
        flat = edge[kk] & (bb - vals[r, ki] <= 1e-9 * (1 + np.abs(bb)))
        k[sl] = np.where(flat, ki, kk)
        best[sl] = np.where(flat, vals[r, ki], bb)
    return best, lat[k], edge[k]


def _polish(fun, X, XI, P, cell):
    """Axiswise polish around lattice maximizers, vectorized over rows, in 3
    sweeps.

    On each axis a row takes the parabolic step through (-cell, 0, +cell).
    The step is kept when the objective there equals the parabola's value
    to roundoff (quadratic objectives); other rows also run a golden-section
    search of [-cell, cell] down to width 1e-13, which wins only by more than
    roundoff. The cell halves after each sweep. Returns the best value
    seen and the point where it was seen.
    """
    def obj(r, ax, t):
        Q = P[r].copy()
        Q[:, ax] += t
        return np.sum(Q * XI[r], axis=-1) - fun(X[r], Q)

    P = P.copy()
    every = np.arange(len(P))
    cur = obj(every, 0, 0.0)
    best, arg = cur.copy(), P.copy()
    for _ in range(3):
        for ax in range(P.shape[-1]):
            fm, fp = obj(every, ax, -cell), obj(every, ax, cell)
            den = 2 * cur - fm - fp
            t = np.clip(0.5 * cell * (fp - fm) / np.where(den > 0, den, np.inf), -cell, cell)
            ft = obj(every, ax, t)
            pred = cur + t * (fp - fm) / (2 * cell) - t ** 2 * den / (2 * cell ** 2)
            exact = (den > 0) & (np.abs(ft - pred) <= 1e-12 * (1 + np.abs(cur)))
            r = np.flatnonzero(~exact)
            if r.size:
                tg, fg = _golden(lambda s: obj(r, ax, s), cell[r], 1e-13)
                win = fg > ft[r] + 4e-16 * (1 + np.abs(ft[r]))
                t[r[win]], ft[r[win]] = tg[win], fg[win]
            P[:, ax] += t
            cur = ft
            up = cur > best
            best[up], arg[up] = cur[up], P[up]
        cell = 0.5 * cell
    return best, arg


def _golden(f, half, xtol):
    """Golden-section max of f on [-half, half] per row, to width xtol."""
    lo, hi = -half, half
    a, b = hi - _INVPHI * (hi - lo), lo + _INVPHI * (hi - lo)
    fa, fb = f(a), f(b)
    for _ in range(int(np.ceil(np.log(xtol / (2 * half.max())) / np.log(_INVPHI)))):
        left = fa >= fb
        hi, lo = np.where(left, b, hi), np.where(left, lo, a)
        t = np.where(left, hi - _INVPHI * (hi - lo), lo + _INVPHI * (hi - lo))
        ft = f(t)
        a, b, fa, fb = (np.where(left, t, b), np.where(left, a, t),
                        np.where(left, ft, fb), np.where(left, fa, ft))
    left = fa >= fb
    return np.where(left, a, b), np.where(left, fa, fb)


def lagrangian(H: Hamiltonian, x: np.ndarray, xi: np.ndarray) -> float:
    """Running cost L(x, xi) = sup_p (xi . p - H(x, p)).

    Returns CAP when xi lies outside the effective domain (the sampled sup
    grows under radius doubling); raises RadiusError when the maximizer
    sits on the lattice edge without growth. The first lattice has radius 4.
    """
    return float(lagrangian_batch(H, np.asarray(x, float)[None],
                                  np.asarray(xi, float)[None], 4.0)[0])


def boundary_conjugate(Bm: BoundaryOperator, x: np.ndarray, xi: np.ndarray) -> float:
    """Reflection cost G(x, xi) = sup_p (xi . p - B(x, p)); CAP outside dom G.

    The first lattice has radius 4 (1 + M_B).
    """
    val, _ = _conjugate(Bm, np.asarray(x, float)[None], np.asarray(xi, float)[None],
                        4.0 * (1.0 + Bm.lip))
    return float(val[0])


def lagrangian_batch(H: Hamiltonian, X: np.ndarray, XI: np.ndarray,
                     radius: float) -> np.ndarray:
    """Vectorized L over paired (X, XI) rows, under the rule of lagrangian.

    Used to build semi-Lagrangian stage-cost tables, where an uncertified
    finite value would silently corrupt the control problem. A closed-form
    conjugate on H replaces the engine, under the same CAP.
    """
    if H.conjugate is not None:
        return np.minimum(H.conjugate(np.asarray(X, float), np.asarray(XI, float)), CAP)
    return _conjugate(H, X, XI, radius)[0]


def effective_velocity_bound(H: Hamiltonian, points: np.ndarray, v_cap: float) -> float:
    """Largest |xi| with finite L(x, xi) along axis directions, up to v_cap.

    For Hamiltonians with bounded slopes (eikonal-type) the control set must
    include the exact edge of dom L or fronts propagate too slowly; the edge
    is bisected to 1e-9.
    """
    xs = points[:: max(1, len(points) // 8)]
    dirs = _directions(H.dim)
    X = np.repeat(xs, len(dirs), axis=0)
    D = np.tile(dirs, (len(xs), 1))

    def finite(v):
        try:
            return bool(np.all(lagrangian_batch(H, X, v * D, 4.0) < CAP))
        except RadiusError:
            return False

    if finite(v_cap):
        return v_cap
    lo, hi = 0.0, v_cap
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        if finite(mid):
            lo = mid
        else:
            hi = mid
    return lo


# ---------------------------------------------------------------------------
# Moreau regularization and the oblique selection
# ---------------------------------------------------------------------------

def moreau(Bm: BoundaryOperator, x: np.ndarray, p: np.ndarray, delta: float):
    """Moreau envelope of B(x, .) at p: (value, gradient).

    value = min_q B(x, q) + |p - q|^2 / (2 delta) = |p|^2 / (2 delta)
    - f*(p / delta) with f = B(x, .) + |.|^2 / (2 delta); the gradient is
    (p - q*) / delta, q* the maximizer of the conjugate, and has norm at
    most M_B. The first lattice covers the ball |q - p| <= 1.5 delta M_B
    that must contain q*.
    """
    if delta <= 0:
        raise NumericalError("moreau needs delta > 0")
    x = np.asarray(x, float)
    p = np.asarray(p, float)

    def f(X, Q):
        return Bm(X, Q) + np.sum(Q ** 2, axis=-1) / (2 * delta)

    radius = float(np.abs(p).max()) + 1.5 * delta * Bm.lip + 1e-9
    val, q = _conjugate(f, x[None], p[None] / delta, radius)
    value = float(p @ p) / (2 * delta) - float(val[0])
    if not (np.isfinite(value) and val[0] < CAP):
        raise NumericalError(f"moreau minimization failed at x={x}")
    return value, (p - q[0]) / delta


@dataclass(frozen=True)
class ObliqueSelection:
    """Continuous selection (gamma, g) with B(x, p) >= gamma(x).p - g(x).

    For a single affine form, B(x, p) = gamma(x) . p - g(x), (gamma, g) is
    the form itself. Otherwise gamma comes from the Moreau gradient at
    p = 0, with the delta of oblique_selection, and g is the boundary
    conjugate G(x, gamma(x)), the smallest admissible offset. gamma and g
    take points of shape (..., dim).
    """

    Bm: BoundaryOperator
    gamma: Callable[[np.ndarray], np.ndarray]
    g: Callable[[np.ndarray], np.ndarray]

    def tightness_gap(self, points: np.ndarray) -> float:
        """Worst B(x, 0) - (gamma.0 - g) = B(x, 0) + g(x) over sample points
        (>= 0, small)."""
        X = np.atleast_2d(points)
        return max(0.0, float((self.Bm(X, np.zeros(X.shape)) + self.g(X)).max()))

    def membership_gap(self, points: np.ndarray) -> float:
        """Worst violation of gamma.p - g <= B(x, p) over a dense sample of
        |p|_inf <= 8."""
        X = np.atleast_2d(points)
        P = _lattice(self.Bm.dim, 8.0, 129 if self.Bm.dim == 1 else 33)
        lhs = P @ self.gamma(X).T - self.g(X)                           # (p, x)
        return float((lhs - self.Bm(X[None, :, :], P[:, None, :])).max())


def oblique_selection(Bm: BoundaryOperator, delta: float = 0.05) -> ObliqueSelection:
    """Continuous (gamma, g) in the admissible reflection set, near-tight at p = 0.

    A boundary with a single affine form (neumann, affine, and their shifts)
    returns that form, exact and tight at every p. Other boundaries
    (max_affine, custom) go through the Moreau gradient at p = 0 and the
    boundary conjugate, memoized per point.
    """
    if Bm.forms is not None and len(Bm.forms) == 1:
        (gam, gfun), = Bm.forms
        return ObliqueSelection(Bm, gam, gfun)

    cache: dict[tuple, tuple[np.ndarray, float]] = {}

    def entry(x):
        # points that differ by round-off (projected landing points) share
        # one entry; + 0.0 folds -0.0 into 0.0
        key = tuple(np.round(np.asarray(x, float), 12) + 0.0)
        if key not in cache:
            _, grad = moreau(Bm, x, np.zeros(Bm.dim), delta)
            gval = boundary_conjugate(Bm, x, grad)
            cache[key] = (grad, float(gval))
        return cache[key]

    def rows(k, tail):
        def fn(x):
            x = np.asarray(x, float)
            vals = [entry(r)[k] for r in x.reshape(-1, x.shape[-1])]
            return np.array(vals, dtype=float).reshape(x.shape[:-1] + tail)
        return fn

    return ObliqueSelection(Bm, rows(0, (Bm.dim,)), rows(1, ()))


# ---------------------------------------------------------------------------
# assumption audit (A0)-(A7)
# ---------------------------------------------------------------------------

@dataclass
class AuditEntry:
    name: str
    passed: bool | None          # None = not applicable / skipped
    detail: str
    witness: dict = field(default_factory=dict)


@dataclass
class AuditReport:
    entries: list[AuditEntry]

    def entry(self, name: str) -> AuditEntry:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)

    def passed(self, *names: str) -> bool:
        pool = names or [e.name for e in self.entries]
        return all(self.entry(n).passed is not False for n in pool)


def audit_assumptions(H: Hamiltonian, Bm: BoundaryOperator,
                      geom: DomainGeometry) -> AuditReport:
    """Sample the standing assumptions and report pass/fail with witnesses.

    Each check draws AUDIT_SAMPLES points from a generator seeded with 0.
    (A6)/(A7) are sampled inequalities only: the moduli they assert are
    estimated at the drawn points, never constructed as functions. (A7) is
    audited around the level set H = 0, which is the eigenvalue's level on a
    model normalized by ergodic.normalize, and skipped for nonconvex H.
    """
    rng = np.random.default_rng(0)
    grid = build_grid(geom, geom.diameter / 24)
    xs = grid.nodes[rng.integers(0, grid.n_nodes, AUDIT_SAMPLES)]
    bmask = grid.boundary
    bxs = grid.nodes[bmask][rng.integers(0, int(bmask.sum()), AUDIT_SAMPLES)]
    entries = []

    # A0: geometry sanity via the defining function contract
    rho_in = geom.rho(grid.nodes[~bmask])
    gn = np.linalg.norm(geom.grad_rho(grid.nodes[bmask]), axis=-1)
    a0 = bool(np.all(rho_in < 0) and np.all(gn > 0))
    entries.append(AuditEntry("A0", a0,
                              f"rho<0 inside, |grad rho|>0 on boundary (min {gn.min():.3g})"))

    # A1: coercivity along the shell ladder
    try:
        level = float(np.abs(H(xs, np.zeros(geom.dim))).max()) + 2.0
        r = H.coercivity_radius(level, xs)
        entries.append(AuditEntry("A1", True,
                                  f"H >= {level:.3g} for |p| >= {r:.3g}"))
    except NumericalError:
        shell = 8.0 * _directions(geom.dim)
        vals = H(xs[:, None, :], shell[None, :, :])
        k = np.unravel_index(np.argmin(vals), vals.shape)
        entries.append(AuditEntry(
            "A1", False, "no coercivity level reached",
            {"x": xs[k[0]].tolist(), "p": shell[k[1]].tolist(),
             "H": float(vals[k])}))

    # A2: local Lipschitz ratio in p
    P = rng.uniform(-3, 3, (AUDIT_SAMPLES, geom.dim))
    Q = P + rng.uniform(-0.5, 0.5, P.shape)
    num = np.abs(H(xs, P) - H(xs, Q))
    den = np.linalg.norm(P - Q, axis=-1) + 1e-300
    mr = float((num / den).max())
    entries.append(AuditEntry("A2", bool(np.isfinite(mr)),
                              f"sampled M_R ~ {mr:.3g} on B_3"))

    # A3: obliqueness along the unit normal
    lam = rng.uniform(0.1, 2.0, AUDIT_SAMPLES)
    nt = geom.unit_normal(bxs)
    Pb = rng.uniform(-3, 3, (AUDIT_SAMPLES, geom.dim))
    inc = (Bm(bxs, Pb + lam[:, None] * nt) - Bm(bxs, Pb)) / lam
    th = float(inc.min())
    k = int(np.argmin(inc))
    entries.append(AuditEntry("A3", bool(th >= Bm.theta - 1e-6),
                              f"sampled theta {th:.4g} (declared {Bm.theta:.4g})",
                              {"x": bxs[k].tolist(), "p": Pb[k].tolist(), "theta": th}))

    # A4: global Lipschitz of B in p
    P2 = rng.uniform(-8, 8, (AUDIT_SAMPLES, geom.dim))
    Q2 = rng.uniform(-8, 8, (AUDIT_SAMPLES, geom.dim))
    mb = float((np.abs(Bm(bxs, P2) - Bm(bxs, Q2))
                / (np.linalg.norm(P2 - Q2, axis=-1) + 1e-300)).max())
    entries.append(AuditEntry("A4", bool(mb <= Bm.lip + AUDIT_TOL),
                              f"sampled M_B {mb:.4g} (declared {Bm.lip:.4g})"))

    # A5: midpoint convexity of B
    mid = Bm(bxs, 0.5 * (P2 + Q2)) - 0.5 * (Bm(bxs, P2) + Bm(bxs, Q2))
    a5 = bool(mid.max() <= AUDIT_TOL)
    entries.append(AuditEntry("A5", a5 if Bm.convex else None,
                              f"worst midpoint gap {mid.max():.3g}"
                              + ("" if Bm.convex else " (flag off, informational)")))

    entries.append(_audit_a6(H, xs, rng, AUDIT_SAMPLES))
    entries.append(_audit_a7(H, xs, rng, AUDIT_SAMPLES))
    return AuditReport(entries)


def _audit_a6(H, xs, rng, budget):
    """Sampled (A6)+/-: estimate the constant psi_eta at eta = 0.25."""
    eta = 0.25
    lvl_tol = 0.05
    Q = rng.uniform(-2.5, 2.5, (budget * 8, xs.shape[-1]))
    X = xs[rng.integers(0, len(xs), len(Q))]
    okq = H(X, Q) <= lvl_tol
    X, Q = X[okq], Q[okq]
    if len(X) == 0:
        return AuditEntry("A6", None, "no samples with H(x, q) <= 0 found")
    P = rng.uniform(-3, 3, Q.shape)
    hv = H(X, P + Q)

    plus_ok = hv >= eta
    psi_plus = np.inf
    if np.any(plus_ok):
        mus = np.linspace(0.2, 0.95, 6)
        Xp, Pp, Qp, hp = X[plus_ok], P[plus_ok], Q[plus_ok], hv[plus_ok]
        for mu in mus:
            gain = mu * H(Xp, Pp / mu + Qp) - hp
            psi_plus = min(psi_plus, float((gain / (1 - mu)).min()))

    minus_ok = hv <= -eta
    psi_minus = np.inf
    if np.any(minus_ok):
        mus = np.array([1.25, 1.5, 2.0, 3.0])
        Xm, Pm, Qm, hm = X[minus_ok], P[minus_ok], Q[minus_ok], hv[minus_ok]
        for mu in mus:
            drop = hm - mu * H(Xm, Pm / mu + Qm)
            psi_minus = min(psi_minus, float((drop * mu / (mu - 1)).min()))

    plus_pass = (psi_plus > 1e-9) if np.any(plus_ok) else True
    minus_pass = (psi_minus > 1e-9) if np.any(minus_ok) else True
    vac_p = "" if np.any(plus_ok) else " (vacuous)"
    vac_m = "" if np.any(minus_ok) else " (vacuous)"
    ok = plus_pass or minus_pass
    return AuditEntry("A6", bool(ok),
                      f"psi+ ~ {psi_plus:.3g}{vac_p}, psi- ~ {psi_minus:.3g}{vac_m} at eta={eta}")


def _audit_a7(H, xs, rng, budget):
    if not H.convex:
        return AuditEntry("A7", None, "skipped (H nonconvex)")
    dim = xs.shape[-1]
    P = rng.uniform(-3, 3, (budget * 8, dim))
    X = xs[rng.integers(0, len(xs), len(P))]
    near = np.abs(H(X, P)) <= 0.05
    X, P = X[near], P[near]
    if len(X) == 0:
        return AuditEntry("A7", None, "no samples near the level set H = 0")
    eps = 1e-5
    XI = np.stack([(H(X, P + eps * np.eye(dim)[i]) - H(X, P - eps * np.eye(dim)[i]))
                   / (2 * eps) for i in range(dim)], axis=-1)
    Q = rng.uniform(-2, 2, P.shape)
    slack = H(X, P + Q) - np.einsum("md,md->m", XI, Q)
    proj = np.einsum("md,md->m", XI, Q)
    r = 0.5
    band = np.abs(proj) >= r
    if not np.any(band):
        return AuditEntry("A7", None, "no samples with |xi.q| above the probe radius")
    omega = float(slack[band].min())
    return AuditEntry("A7", bool(omega > -1e-6),
                      f"omega({r:g}) ~ {max(omega, 0):.3g} near H = 0")
