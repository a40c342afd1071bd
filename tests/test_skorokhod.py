"""Reflected trajectories: containment, complementarity, constants, costs."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy import optimize

from hj_neumann import geometry as G, models as M, skorokhod as S
from hj_neumann.errors import NumericalError, ObliquenessError

IV = G.interval(0.0, 1.0)
DISC = G.disc()
ELLIPSE = G.custom(2, lambda p: np.asarray(p)[..., 0] ** 2 + (np.asarray(p)[..., 1] / 0.6) ** 2 - 1,
                   lambda p: np.stack([2 * np.asarray(p)[..., 0],
                                       2 * np.asarray(p)[..., 1] / 0.36], axis=-1),
                   ((-1.0, -0.6), (1.0, 0.6)))


def make(geom, Bm, x0, v_fn, T=1.0, dt=0.01, sel=None):
    sel = sel or M.oblique_selection(Bm)
    return S.integrate(geom, Bm, np.asarray(x0, float), v_fn, T, dt, sel)


def test_zero_control_stays_put():
    tr = make(IV, M.neumann(IV), [0.3], lambda t: np.zeros(1))
    assert np.abs(tr.eta - 0.3).max() == 0.0
    assert tr.l.sum() == 0.0 and tr.f.sum() == 0.0


def test_1d_sticking_matches_closed_form():
    Bn = M.neumann(IV)
    tr = make(IV, Bn, [0.5], lambda t: np.ones(1), T=1.0, dt=0.01)
    exact = np.minimum(0.5 + tr.times, 1.0)
    assert np.abs(tr.eta[:, 0] - exact).max() <= 1e-10
    stuck = tr.times[:-1] >= 0.5
    np.testing.assert_allclose(tr.l[stuck], 1.0, atol=1e-10)
    assert np.all(tr.f == 0.0)


def test_containment_and_complementarity():
    for geom, Bm, x0, v in [
        (IV, M.neumann(IV), [0.2], lambda t: np.array([np.cos(3 * t) + 0.5])),
        (DISC, M.neumann(DISC), [0.0, 0.0], lambda t: np.array([1.0, 0.4])),
    ]:
        tr = make(geom, Bm, x0, v, T=2.0, dt=0.005)
        assert S.containment_defect(tr) <= 1e-10
        assert S.complementarity_defect(tr) == 0.0


def test_bounds_interior_only_run():
    tr = make(IV, M.neumann(IV), [0.5], lambda t: np.array([0.1 * np.sin(t)]))
    rep = S.verify_bounds(tr)
    assert rep.max_l_ratio == 0.0
    assert rep.max_speed_ratio <= 1.0 + 1e-9


def test_bounds_sticking_run_saturates_l_over_v():
    Bn = M.neumann(IV)   # theta = 1
    tr = make(IV, Bn, [0.5], lambda t: np.ones(1))
    rep = S.verify_bounds(tr)
    assert rep.max_l_ratio == pytest.approx(1.0, abs=1e-10)
    assert rep.ok


def test_bounds_random_sweep_no_violations():
    rng = np.random.default_rng(17)
    cases = [
        (IV, lambda: M.neumann(IV)),
        (IV, lambda: M.affine(IV, g=0.3)),
        (IV, lambda: M.max_affine(IV, [(1.0, 0.5), (2.0, 2.0)])),
        (DISC, lambda: M.neumann(DISC)),
    ]
    for _ in range(25):
        geom, mk = cases[rng.integers(0, len(cases))]
        Bm = mk()
        sel = M.oblique_selection(Bm)
        if geom.dim == 1:
            x0 = [rng.uniform(0.1, 0.9)]
            a, w = rng.uniform(0.5, 2.0), rng.uniform(0.5, 4.0)
            v_fn = lambda t, a=a, w=w: np.array([a * np.cos(w * t)])
        else:
            ang = rng.uniform(0, 2 * np.pi)
            x0 = [0.5 * np.cos(ang), 0.5 * np.sin(ang)]
            a = rng.uniform(0.5, 1.5)
            v_fn = lambda t, a=a, g=ang: np.array([a * np.cos(g), a * np.sin(g + t)])
        tr = make(geom, Bm, x0, v_fn, T=1.0, dt=0.005, sel=sel)
        assert S.verify_bounds(tr).ok
        assert S.containment_defect(tr) <= 1e-10
        assert S.complementarity_defect(tr) == 0.0


def test_cost_track_conventions():
    Bn = M.neumann(IV)
    tr = make(IV, Bn, [0.5], lambda t: np.array([-0.2]))
    assert np.all(S.cost_track(tr, Bn) == 0.0)   # l == 0 everywhere

    Ba = M.affine(IV, g=0.4)
    tra = make(IV, Ba, [0.5], lambda t: np.ones(1))
    fa = S.cost_track(tra, Ba)
    np.testing.assert_allclose(fa, tra.f, atol=1e-10)       # f = l * g exactly
    np.testing.assert_allclose(tra.f, tra.l * 0.4, atol=1e-12)


def test_cost_track_envelope_inequality():
    # max-affine cost through the conjugate never exceeds a single-form cost
    Bk = M.max_affine(IV, [(1.0, 0.5), (2.0, 2.0)])
    sel = M.oblique_selection(Bk, delta=0.02)
    tr = make(IV, Bk, [0.5], lambda t: np.ones(1), sel=sel)
    f = S.cost_track(tr, Bk)
    ed = tr.eta_dot()
    for k in np.flatnonzero(tr.l > 1e-9):
        xi = (tr.v[k] - ed[k]) / tr.l[k]
        for c, g0 in ((1.0, 0.5), (2.0, 2.0)):
            # single affine form gamma = c*n admits xi iff xi = s*c*n; compare costs
            s = float(xi @ IV.unit_normal(tr.eta[k + 1])) / c
            if s >= 0 and np.allclose(xi, s * c * IV.unit_normal(tr.eta[k + 1]), atol=1e-8):
                assert f[k] <= tr.l[k] * s * g0 + 1e-7


def test_dt_refinement_first_order_on_disc():
    Bo = M.affine(DISC, gamma=lambda p: DISC.unit_normal(p)
                  + 0.3 * np.stack([-np.asarray(p, float)[..., 1],
                                    np.asarray(p, float)[..., 0]], axis=-1),
                  g=0.2)
    sel = M.oblique_selection(Bo)
    v_fn = lambda t: np.array([np.cos(t), np.sin(2 * t)])
    ref = S.integrate(DISC, Bo, np.array([0.5, 0.0]), v_fn, 1.5, 0.00125, sel)
    errs = []
    for dt in (0.01, 0.005, 0.0025):
        tr = S.integrate(DISC, Bo, np.array([0.5, 0.0]), v_fn, 1.5, dt, sel)
        k = np.arange(0, len(ref.times), int(round(dt / 0.00125)))
        errs.append(np.abs(tr.eta - ref.eta[k]).max())
    assert errs[1] <= 0.7 * errs[0]
    assert errs[2] <= 0.7 * errs[1]


def test_start_outside_rejected():
    with pytest.raises(NumericalError):
        make(IV, M.neumann(IV), [1.2], lambda t: np.zeros(1))


def scaled_disc(scale):
    """Unit disc with rho = scale/2 (|x|^2 - 1), so |grad rho| = scale on the boundary."""
    return G.custom(2, lambda p: 0.5 * scale * (np.sum(np.asarray(p, float) ** 2, axis=-1) - 1),
                    lambda p: scale * np.asarray(p, float), ((-1.0, -1.0), (1.0, 1.0)))


@pytest.mark.parametrize("scale", [0.2, 1.0, 5.0])
def test_obliqueness_is_measured_on_the_unit_normal(scale):
    geom = scaled_disc(scale)
    Bn = M.neumann(geom)
    tr = make(geom, Bn, [0.5, 0.0], lambda t: np.array([2.0, 0.0]), dt=0.05)
    assert tr.l.max() > 0
    assert S.verify_bounds(tr).ok
    a3 = M.audit_assumptions(M.quadratic(2), Bn, geom).entry("A3")
    assert a3.passed
    assert abs(a3.witness["theta"] - 1.0) <= 1e-6


def first_crossing(geom, y, gam, dt):
    """Reference pull-back: brentq on [0, argmin] of the convex s -> rho(y - s*gam);
    returns (l, min rho along the ray)."""
    def f(s):
        return float(geom.rho(y - s * gam))

    reach = 4.0 * geom.diameter / float(np.linalg.norm(gam))
    low = optimize.minimize_scalar(f, bounds=(0.0, reach), method="bounded",
                                   options={"xatol": 1e-12})
    if low.fun > 0:
        return None, low.fun
    s = optimize.brentq(f, 0.0, low.x, xtol=1e-15, rtol=8.9e-16)
    return s / dt, low.fun


def test_pullback_returns_first_crossing_when_linearised_start_overshoots():
    # the linearised root overshoots this short chord; a bracket grown from
    # it never contains a root
    y, gam, dt = np.array([1.27001136, 0.52458051]), np.array([1.22683128, -0.54630453]), 0.1
    l = S._pullback_intensity(DISC, y[None], gam[None], dt)[0]
    ref, _ = first_crossing(DISC, y, gam, dt)
    assert abs(l - ref) <= 1e-12 * (1 + ref)
    assert abs(float(DISC.rho(y - dt * l * gam))) <= G.SNAP_TOL


@pytest.mark.parametrize("geom,at", [
    (DISC, lambda a, r: (1 + r) * np.array([np.cos(a), np.sin(a)])),
    (ELLIPSE, lambda a, r: np.sqrt(1 + r) * np.array([np.cos(a), 0.6 * np.sin(a)])),
], ids=["disc", "ellipse"])
@settings(max_examples=150, deadline=None)
@given(a=st.floats(0.0, 2 * np.pi), r=st.floats(1e-6, 0.4), c=st.floats(0.2, 1.0),
       u=st.floats(-1.0, 1.0), dt=st.floats(0.01, 1.0))
def test_pullback_matches_first_crossing_reference(geom, at, a, r, c, u, dt):
    y = at(a, r)                                   # rho(y) = r
    n = geom.unit_normal(G.project_to_closure(geom, y))
    gam = c * n + u * np.array([-n[1], n[0]])
    ref, depth = first_crossing(geom, y, gam, dt)
    assume(abs(depth) > 1e-6)                      # grazing rays: ill-conditioned root
    if ref is None:
        with pytest.raises(NumericalError):
            S._pullback_intensity(geom, y[None], gam[None], dt)
        return
    l = S._pullback_intensity(geom, y[None], gam[None], dt)[0]
    assert abs(float(geom.rho(y - dt * l * gam))) <= G.SNAP_TOL
    assert abs(l - ref) <= 1e-12 * (1 + ref)


def test_pullback_tangent_direction_is_not_oblique():
    y = np.array([[1.2, 0.0]])
    with pytest.raises(ObliquenessError, match="gamma.grad_rho"):
        S._pullback_intensity(DISC, y, np.array([[0.0, 1.0]]), 0.1)
