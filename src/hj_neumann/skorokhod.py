"""Reflected trajectories: the discrete Skorokhod problem for a velocity signal.

Given a start point, a control t -> v(t) and a continuous selection
(gamma, g) from the admissible reflection set, each step takes the free
trial y = eta + dt*v; if y leaves the closure, the reflection intensity is
the first l >= 0 pulling y back to the boundary along gamma evaluated at
the boundary projection of y, found by the boundary snap's Newton iteration
run along gamma; the step pays the cost rate l*g. Obliqueness is gamma . n
on the unit normal n. The cost track can be
recomputed through the reflection-cost conjugate and, by convention,
vanishes whenever l does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ObliquenessError
from .geometry import SNAP_TOL, DomainGeometry, _newton_to_boundary, project_to_closure
from .models import CAP, BoundaryOperator, ObliqueSelection, boundary_conjugate


@dataclass
class SkorokhodTriple:
    """Sampled trajectory (eta, v, l) with its cost track f.

    times has K+1 stamps; eta is (K+1, dim); v, l, f are per-step (K, ...).
    gamma_used records the reflection direction of each step (NaN when the
    step stayed free).
    """

    geom: DomainGeometry
    times: np.ndarray
    eta: np.ndarray
    v: np.ndarray
    l: np.ndarray
    f: np.ndarray
    gamma_used: np.ndarray
    theta: float
    lip: float

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    def eta_dot(self) -> np.ndarray:
        return np.diff(self.eta, axis=0) / self.dt


@dataclass
class BoundReport:
    """Observed Skorokhod constants against their theoretical bounds."""

    max_l_ratio: float        # max l / |v|
    max_speed_ratio: float    # max |eta_dot| / |v|
    l_bound: float            # 1 / theta
    speed_bound: float        # 1 + M_B / theta
    violations: int

    @property
    def ok(self) -> bool:
        return self.violations == 0


def integrate(geom: DomainGeometry, Bm: BoundaryOperator, x0, v_fn,
              T: float, dt: float, selection: ObliqueSelection) -> SkorokhodTriple:
    """March the reflected trajectory from x0 under the control v_fn.

    v_fn maps a time to a velocity vector. A step whose free move stays in
    the closure (rho <= SNAP_TOL, as ``project_to_closure`` reads it) carries
    l = f = 0 exactly; constrained steps land on the boundary (within
    projection tolerance) with f = l * g at the contact point. The
    selection is evaluated once per contact point of the run, keyed to
    1e-12 (a pressed path returns to one point step after step).
    """
    if dt <= 0 or T <= 0:
        raise NumericalError("need T > 0 and dt > 0")
    x0 = np.asarray(x0, dtype=float)
    if float(geom.rho(x0)) > 1e-10:
        raise NumericalError(f"start point {x0} lies outside the closure")
    n_steps = int(np.ceil(T / dt - 1e-12))
    d = geom.dim
    eta = np.empty((n_steps + 1, d))
    vs = np.empty((n_steps, d))
    ls = np.zeros(n_steps)
    fs = np.zeros(n_steps)
    gammas = np.full((n_steps, d), np.nan)
    contacts: dict[tuple, tuple] = {}
    eta[0] = x0
    for k in range(n_steps):
        t = k * dt
        v = np.asarray(v_fn(t), dtype=float)
        vs[k] = v
        y = eta[k] + dt * v
        if float(geom.rho(y)) <= SNAP_TOL:
            eta[k + 1] = y
            continue
        hat = project_to_closure(geom, y)
        key = tuple(np.round(hat, 12) + 0.0)          # + 0.0 folds -0.0 into 0.0
        if key not in contacts:
            contacts[key] = selection.at(hat)
        gam, g = contacts[key]
        gam = np.asarray(gam, dtype=float)
        nt = geom.unit_normal(hat)
        if float(gam @ nt) < Bm.theta / 2:
            raise ObliquenessError(
                f"reflection direction fails obliqueness at {hat}: "
                f"gamma.n = {float(gam @ nt):.3g} < theta/2")
        ls[k] = _pullback_intensity(geom, y[None], gam[None], dt)[0]
        eta[k + 1] = y - dt * ls[k] * gam
        fs[k] = ls[k] * float(g)
        gammas[k] = gam
    times = dt * np.arange(n_steps + 1)
    return SkorokhodTriple(geom, times, eta, vs, ls, fs, gammas,
                           Bm.theta, Bm.lip)


def _pullback_intensity(geom: DomainGeometry, Y: np.ndarray, GAM: np.ndarray,
                        dt: float) -> np.ndarray:
    """Per row, the first l >= 0 with rho(y - dt*l*gamma) = 0, for exterior y.

    The landing point is the boundary snap's Newton iteration run along the
    row's gamma, and l is read off the displacement y - landing. Raises
    ObliquenessError when gamma . grad_rho <= 0 at an iterate.
    """
    Y, GAM = np.asarray(Y, dtype=float), np.asarray(GAM, dtype=float)
    land = Y.copy()
    _newton_to_boundary(geom, land, np.arange(Y.shape[0]), "reflection pull-back", GAM)
    return np.sum((Y - land) * GAM, axis=-1) / (dt * np.sum(GAM * GAM, axis=-1))


def verify_bounds(triple: SkorokhodTriple) -> BoundReport:
    """Check l <= |v|/theta and |eta_dot| <= (1 + M_B/theta)|v| stepwise, to 1e-6.

    Steps with |v| at roundoff scale are excluded from the ratios (the
    difference quotient eta_dot is pure cancellation there) but must carry
    an intensity at the same negligible scale.
    """
    speed = np.linalg.norm(triple.v, axis=-1)
    ed = np.linalg.norm(triple.eta_dot(), axis=-1)
    floor = 1e-9 * (1.0 + float(speed.max(initial=0.0)))
    active = speed > floor
    l_ratio = float((triple.l[active] / speed[active]).max(initial=0.0))
    s_ratio = float((ed[active] / speed[active]).max(initial=0.0))
    idle_violations = int(np.sum(triple.l[~active] > floor / triple.theta))
    l_bound = 1.0 / triple.theta
    s_bound = 1.0 + triple.lip / triple.theta
    violations = idle_violations
    violations += int(l_ratio > l_bound + 1e-6) + int(s_ratio > s_bound + 1e-6)
    return BoundReport(l_ratio, s_ratio, l_bound, s_bound, violations)


def complementarity_defect(triple: SkorokhodTriple) -> float:
    """Sum of l over steps that landed strictly inside the domain, rho < -1e-9
    (0 exactly)."""
    rho_land = np.asarray(triple.geom.rho(triple.eta[1:]), dtype=float)
    return float(np.sum(triple.l[rho_land < -1e-9]))


def containment_defect(triple: SkorokhodTriple) -> float:
    """max rho over the path (must stay <= 1e-10)."""
    return float(np.asarray(triple.geom.rho(triple.eta), dtype=float).max())


def cost_track(triple: SkorokhodTriple, Bm: BoundaryOperator) -> np.ndarray:
    """Recompute the cost rate through the conjugate: l * G(eta, (v - eta_dot)/l).

    Zero-intensity steps cost zero by the module convention; steps with
    l below roundoff-amplification level (grazing contacts) fall under the
    same convention, since (v - eta_dot)/l is pure cancellation noise
    there. A capped conjugate at a genuinely constrained step means the
    reflection direction left the effective domain and is reported as an
    inconsistency.
    """
    out = np.zeros_like(triple.l)
    speed = np.linalg.norm(triple.v, axis=-1)
    ks = np.flatnonzero(triple.l > 1e-9 * (1.0 + speed))
    if ks.size:
        xi = (triple.v[ks] - triple.eta_dot()[ks]) / triple.l[ks, None]
        val = boundary_conjugate(Bm, triple.eta[ks + 1], xi)
        capped = np.flatnonzero(val >= CAP)
        if capped.size:
            raise NumericalError(
                f"cost track: reflection direction {xi[capped[0]]} at step "
                f"{ks[capped[0]]} lies outside the effective domain of the conjugate")
        out[ks] = triple.l[ks] * val
    return out
