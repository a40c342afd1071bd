"""Monotone scheme: consistency, boundary roots, comparison and contraction."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hj_neumann import ergodic as E, geometry as G, models as M, pde as P
from hj_neumann.errors import CFLError, NumericalError, ObliquenessError

IV = G.interval(0.0, 1.0)
DISC = G.disc(0.0, 0.0, 1.0)


def tilted(s):
    """gamma(x) = n(x) + s t(x) on DISC, t the counterclockwise tangent."""
    def gamma(pts):
        n = DISC.unit_normal(pts)
        return n + s * np.stack([-n[..., 1], n[..., 0]], axis=-1)
    return gamma


def hopf_lax_neumann(grid, u0_vals, t):
    """Exact eikonal-Neumann evolution: sliding minimum over reachable points."""
    x = grid.nodes[:, 0]
    out = np.empty_like(u0_vals)
    for i, xi in enumerate(x):
        out[i] = u0_vals[np.abs(x - xi) <= t + 1e-12].min()
    return out


def slopes_at(grid, k, pm, pp):
    """A field on the 1-D grid whose one-sided slopes at node k are (pm, pp)."""
    x = grid.nodes[:, 0]
    return np.where(x <= x[k], pm * (x - x[k]), pp * (x - x[k]))


def test_numerical_hamiltonian_consistency():
    # affine data: p- = p+ = p at every interior node, and the flux is H(x, p)
    grid = G.build_grid(IV, 0.05)
    H = M.quadratic(1)
    stp = P.Stepper(grid, H, M.neumann(IV), "cn", grad_bound=2.0)
    phi = stp.rhs(0.7 * grid.nodes[:, 0])
    inner = grid.interior_idx
    np.testing.assert_allclose(phi[inner], H(grid.nodes[inner], np.array([0.7])),
                               rtol=0, atol=1e-14)


def test_numerical_hamiltonian_direct_value():
    # H = p^2/2 in 1-D, p- = 0, p+ = 2 at node k: H(1) - sigma*(2-0)/2
    grid = G.build_grid(IV, 0.05)
    stp = P.Stepper(grid, M.quadratic(1), M.neumann(IV), "cn", grad_bound=2.0)
    k = 10
    v = stp.rhs(slopes_at(grid, k, 0.0, 2.0))[k]
    assert v == pytest.approx(0.5 - stp.sigma[0], abs=1e-14)


def test_numerical_hamiltonian_monotone_sweep():
    # an interior row of rhs is nonincreasing in p+ and nondecreasing in p-
    # while sigma covers |p| <= 3
    rng = np.random.default_rng(5)
    grid = G.build_grid(IV, 0.05)
    stp = P.Stepper(grid, M.double_well(1), M.neumann(IV), "cn", grad_bound=2.0)
    assert stp.radius >= 3.0
    for _ in range(1000):
        k = int(rng.integers(1, grid.n_nodes - 1))
        pm, pp = rng.uniform(-2.5, 2.5, 2)
        base = stp.rhs(slopes_at(grid, k, pm, pp))[k]
        up = stp.rhs(slopes_at(grid, k, pm, pp + 0.1))[k]
        dn = stp.rhs(slopes_at(grid, k, pm + 0.1, pp))[k]
        assert up <= base + 1e-12      # nonincreasing in p+
        assert dn >= base - 1e-12      # nondecreasing in p-


def ghost_root(Bm, x, qt, tol=1e-12):
    """Boundary root at one point, along the unit outward normal there."""
    X = np.atleast_2d(np.asarray(x, float))
    lam = P._ghost_solve_many(Bm, X, np.atleast_2d(qt), Bm.geom.unit_normal(X), tol)
    return float(lam[0])


def test_ghost_solve_examples():
    xr = np.array([1.0])
    assert ghost_root(M.neumann(IV), xr, np.zeros(1)) == pytest.approx(0.0, abs=1e-10)
    assert ghost_root(M.affine(IV, g=1.0), xr, np.zeros(1)) == pytest.approx(1.0, abs=1e-10)


def test_ghost_solve_max_affine_matches_scan():
    # root of max(p - 2, 2 p - 3) at the right endpoint, against a dense scan
    Bk = M.max_affine(IV, [(1.0, 2.0), (2.0, 3.0)])
    xr = np.array([1.0])
    lam = ghost_root(Bk, xr, np.zeros(1))
    ls = np.linspace(-5, 5, 2_000_001)
    scan = ls[np.argmin(np.abs(Bk(xr, ls[:, None])))]
    assert lam == pytest.approx(scan, abs=1e-5)
    assert abs(float(Bk(xr, np.array([lam])))) <= 1e-10


def catalog_boundaries():
    """(grid, H, B, u): the 1-D fixtures of CASES and the h=0.1 disc with a
    tangential gamma, each boundary unshifted and shifted by 0.3."""
    iv = G.build_grid(IV, 0.04)
    disc = G.build_grid(DISC, 0.1)
    u_iv = 0.4 * np.sin(2 * np.pi * iv.nodes[:, 0]) + 0.3 * iv.nodes[:, 0]
    u_disc = 0.3 * np.sin(3 * disc.nodes[:, 0]) * np.cos(2 * disc.nodes[:, 1])
    out = []
    for grid, H, u, Bs in (
            (iv, M.quadratic(1), u_iv,
             [M.neumann(IV), M.affine(IV, g=0.3),
              M.max_affine(IV, [(1.0, 0.5), (2.0, 2.0)])]),
            (disc, M.quadratic(2, "-0.5*(x**2 + y**2)"), u_disc,
             [M.neumann(DISC), M.affine(DISC, tilted(0.5), "0.2*x"),
              M.max_affine(DISC, [(tilted(0.5), 0.0), (tilted(-0.5), 0.0)])])):
        for Bm in Bs:
            for c in (0.0, 0.3):
                out.append((grid, H, M.shift_boundary(Bm, c), u))
    return out


def test_closed_form_root_matches_custom_bisection():
    # the same B known only through fn takes the bisection path
    rng = np.random.default_rng(31)
    for grid, H, Bm, u in catalog_boundaries():
        Bc = M.custom_boundary(Bm.geom, Bm.fn, Bm.theta, Bm.lip)
        assert Bm.forms is not None and Bc.forms is None
        X = grid.nodes[grid.boundary]
        N = grid.normals[grid.boundary]
        QT = rng.uniform(-3, 3, X.shape)
        np.testing.assert_allclose(P._ghost_solve_many(Bm, X, QT, N, 1e-12),
                                   P._ghost_solve_many(Bc, X, QT, N, 1e-12),
                                   rtol=0, atol=1e-11)
        rhs = P.Stepper(grid, H, Bm, "cn", grad_bound=2.0).rhs(u)
        ref = P.Stepper(grid, H, Bc, "cn", grad_bound=2.0).rhs(u)
        np.testing.assert_allclose(rhs, ref, rtol=0, atol=1e-11)


def test_closed_form_root_rejects_forms_that_miss_b():
    # forms of the Neumann condition under a B shifted by 0.1: the one
    # certifying B call of the Stepper build catches the mismatch
    Bn = M.neumann(DISC)
    Bbad = dataclasses.replace(Bn, fn=lambda x, p: Bn.fn(x, p) + 0.1)
    grid = G.build_grid(DISC, 0.25)
    with pytest.raises(NumericalError, match="misses B = 0 by 0.1; the forms do not match B"):
        P.Stepper(grid, M.quadratic(2), Bbad, "cn", grad_bound=1.0)


def test_certification_probes_tangential_slopes():
    # B = p.n + 0.1 p.t has the Neumann root along n at q_T = 0, so only
    # the +-r t probes of the build see that the forms miss it
    Bn = M.neumann(DISC)

    def fn(x, p):
        n = DISC.unit_normal(x)
        return Bn.fn(x, p) + 0.1 * (p * np.stack([-n[..., 1], n[..., 0]], axis=-1)).sum(-1)

    Bbad = dataclasses.replace(Bn, fn=fn)
    grid = G.build_grid(DISC, 0.25)
    xb, nb = grid.nodes[grid.boundary], grid.normals[grid.boundary]
    assert np.abs(P._ghost_solve_many(Bbad, xb, np.zeros_like(xb), nb, 1e-12)).max() == 0.0
    with pytest.raises(NumericalError, match="the forms do not match B"):
        P.Stepper(grid, M.quadratic(2), Bbad, "cn", grad_bound=1.0)


def test_custom_root_beyond_the_bracket_expands_it():
    # B = a p.n - 1 declares theta = 1, so the first bracket is |B(x, 0)| + 1
    # = 2; the root 1/a lies beyond it up to 2 * 2^10
    grid = G.build_grid(DISC, 0.25)
    X, N = grid.nodes[grid.boundary], grid.normals[grid.boundary]

    def model(a):
        return M.custom_boundary(DISC, lambda x, p: a * (p * DISC.unit_normal(x)).sum(-1) - 1.0,
                                 1.0, a)

    lam = P._ghost_solve_many(model(0.01), X, np.zeros_like(X), N, 1e-12)
    np.testing.assert_allclose(lam, 100.0, rtol=0, atol=1e-9)
    with pytest.raises(ObliquenessError, match="bracket expansion"):
        P._ghost_solve_many(model(1e-4), X, np.zeros_like(X), N, 1e-12)


def test_rhs_calls_catalog_boundary_once(monkeypatch):
    # the closed-form root is certified by one call of B at build and
    # costs rhs none; a return of the bisection would show here as dozens
    for grid, H, Bm, u in catalog_boundaries():
        calls = []
        call = M.BoundaryOperator.__call__
        monkeypatch.setattr(M.BoundaryOperator, "__call__",
                            lambda self, x, p: calls.append(1) or call(self, x, p))
        stp = P.Stepper(grid, H, Bm, "cn", grad_bound=2.0)
        assert len(calls) == 1
        stp.rhs(u)
        stp.refresh(4.0)
        stp.rhs(u)
        monkeypatch.undo()
        assert len(calls) == 1


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.floats(0.2, 2.0), st.floats(-1.0, 1.0), st.floats(-2.0, 2.0)),
                min_size=1, max_size=3),
       st.lists(st.tuples(st.floats(0.0, 2 * np.pi), st.floats(-3.0, 3.0)),
                min_size=1, max_size=4))
def test_closed_form_root_is_the_sign_change(forms, points):
    # gamma_k = a (n + r t), oblique for |r| <= 1; q_T = s t
    def gamma(a, r):
        return lambda pts: a * tilted(r)(pts)

    Bm = M.max_affine(DISC, [(gamma(a, r), g) for a, r, g in forms])
    ang = np.array([a for a, _ in points])
    X = np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    N = DISC.unit_normal(X)
    QT = np.array([s for _, s in points])[:, None] * np.stack([-N[:, 1], N[:, 0]], axis=-1)
    lam = P._ghost_solve_many(Bm, X, QT, N, 1e-12)
    assert np.abs(Bm(X, QT + lam[:, None] * N)).max() <= 1e-12
    delta = 1e-9
    assert np.all(Bm(X, QT + (lam - delta)[:, None] * N) < 0)
    assert np.all(Bm(X, QT + (lam + delta)[:, None] * N) > 0)


def test_step_cn_constants():
    grid = G.build_grid(IV, 0.05)
    H = M.quadratic(1)          # H(x, 0) = 0
    u = np.full(grid.n_nodes, 3.0)
    out = P.Stepper(grid, H, M.neumann(IV), "cn", grad_bound=0.1).step(u, 1e-3)
    np.testing.assert_allclose(out, 3.0, atol=1e-14)

    Hc = M.poly1d([0.7, 0.0, 0.5])   # H(0) = 0.7
    out2 = P.Stepper(grid, Hc, M.neumann(IV), "cn", grad_bound=0.1).step(u, 1e-3)
    np.testing.assert_allclose(out2, 3.0 - 1e-3 * 0.7, atol=1e-12)


def test_step_dbc_affine_boundary_growth():
    grid = G.build_grid(IV, 0.05)
    H = M.quadratic(1)
    Ba = M.affine(IV, g=1.0)     # B(x, 0) = -1
    u = np.zeros(grid.n_nodes)
    dt = 1e-3
    out = P.Stepper(grid, H, Ba, "dbc", grad_bound=0.1).step(u, dt)
    b = grid.boundary
    np.testing.assert_allclose(out[b], dt, atol=1e-14)
    np.testing.assert_allclose(out[~b], 0.0, atol=1e-14)


def test_step_dbc_constant_fixed_point():
    grid = G.build_grid(IV, 0.05)
    u = np.full(grid.n_nodes, 1.0)
    out = P.Stepper(grid, M.quadratic(1), M.neumann(IV), "dbc", grad_bound=0.1).step(u, 1e-3)
    np.testing.assert_allclose(out, 1.0, atol=1e-14)


def test_evolve_t0_returns_initial():
    grid = G.build_grid(IV, 0.05)
    u0 = P.field_from(grid, lambda x: np.sin(x[:, 0]))
    stf = P.evolve(u0, M.quadratic(1), M.neumann(IV), "cn", T=0.0)
    assert stf.times.tolist() == [0.0]
    np.testing.assert_array_equal(stf.values[0], u0.values)


@pytest.mark.parametrize("record_every", [0.0, -0.1])
def test_evolve_rejects_nonpositive_record_every(record_every):
    # the record mark would never move past t
    grid = G.build_grid(IV, 0.1)
    u0 = P.field_from(grid, lambda x: np.sin(x[:, 0]))
    with pytest.raises(NumericalError, match="record_every must be positive"):
        P.evolve(u0, M.quadratic(1), M.neumann(IV), "cn", T=0.5, record_every=record_every)


def test_evolve_eikonal_matches_hopf_lax():
    grid = G.build_grid(IV, 0.02)
    u0 = P.field_from(grid, lambda x: x[:, 0])
    stf = P.evolve(u0, M.eikonal(1), M.neumann(IV), "cn", T=2.0, record_every=0.5)
    for t in (0.5, 1.0, 2.0):
        ref = hopf_lax_neumann(grid, u0.values, t)
        assert np.abs(stf.at_time(t) - ref).max() <= 2.5 * grid.h
    assert np.abs(stf.values[-1] - u0.values.min()).max() <= 2 * grid.h


def test_cfl_violation_rejected():
    grid = G.build_grid(IV, 0.05)
    u = grid.nodes[:, 0]
    stp = P.Stepper(grid, M.quadratic(1), M.neumann(IV), "cn",
                    grad_bound=P.discrete_lipschitz(grid, u))
    with pytest.raises(CFLError) as exc:
        stp.step(u, dt=1.0)
    assert exc.value.dt_max > 0


def test_evolve_rechooses_dt_after_refresh():
    # slopes of u0 = 4x grow past the radius fixed from u0, and the refreshed
    # CFL bound falls below the dt chosen from the first one
    grid = G.build_grid(G.interval(-1.0, 1.0), 0.05)
    H = M.quadratic(1, "-0.5*x**2")
    Bn = M.neumann(grid.geom)
    u0 = P.field_from(grid, lambda x: 4.0 * x[:, 0])
    first = P.Stepper(grid, H, Bn, "cn", grad_bound=P.discrete_lipschitz(grid, u0.values))
    dt0 = 1.0 / np.ceil(1.0 / (0.95 * first.dt_max))
    stf = P.evolve(u0, H, Bn, "cn", T=1.0)
    assert stf.times[-1] == pytest.approx(1.0, abs=1e-12)
    assert stf.dt < dt0
    assert np.all(np.isfinite(stf.values))
    with pytest.raises(CFLError):
        P.evolve(u0, H, Bn, "cn", T=1.0, dt=dt0)


def evolve_reference(u0, H, Bm, kind, T, record_every=None, dt=None):
    """The march with the slopes taken twice per step: st.step, then
    discrete_lipschitz, and a new Stepper on each refresh."""
    grid = u0.grid
    st = P.Stepper(grid, H, Bm, kind,
                   grad_bound=max(P.discrete_lipschitz(grid, u0.values), 0.1))
    chosen = dt is None
    if chosen:
        n = int(np.ceil(T / (0.95 * st.dt_max)))
        dt = T / n
    else:
        st.check_dt(dt)
        n = int(np.ceil(T / dt - 1e-12))
    record_every = T / 8.0 if record_every is None else record_every
    u = u0.values.copy()
    times, snaps = [0.0], [u.copy()]
    next_mark, t, k, refreshes = record_every, 0.0, 0, 0
    while k < n:
        step_dt = min(dt, T - t)
        u = st.step(u, step_dt)
        t += step_dt
        slope = P.discrete_lipschitz(grid, u)
        if slope > st.radius - 1.0:
            refreshes += 1
            if refreshes > P.MAX_REFRESHES:
                raise NumericalError(
                    f"discrete slopes keep growing ({slope:.3g} at t={t:g} after "
                    f"{P.MAX_REFRESHES} dissipation refreshes): the march is unstable")
            st = P.Stepper(grid, H, Bm, kind, grad_bound=2.0 * slope)
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
    return P.SpaceTimeField(grid, np.array(times), np.stack(snaps), dt)


def bench_disc_march(seed):
    """The h=0.2 disc march of the benchmark: H = |p|^2/2 - |x|^2/2, Neumann,
    u0 a seeded cosine sum with Lipschitz constant 1, T = 8."""
    grid = G.build_grid(DISC, 0.2)
    rng = np.random.default_rng(seed)
    m = rng.integers(-2, 3, size=(3, 2))
    m[np.all(m == 0, axis=1)] = (1, 0)
    a = rng.uniform(0.5, 1.0, 3)
    phi = rng.uniform(0.0, 2.0 * np.pi, 3)
    a /= float(np.sum(a * np.pi * np.linalg.norm(m, axis=1)))
    u0 = P.GridField(grid, np.cos(np.pi * grid.nodes @ m.T + phi) @ a)
    H = M.quadratic(2, lambda x: -0.5 * np.sum(x ** 2, axis=-1))
    return u0, H, M.neumann(DISC), "cn", 8.0, {"record_every": 0.8}


def dbc_affine_march():
    grid = G.build_grid(IV, 0.04)
    u0 = random_lipschitz_field(grid, np.random.default_rng(41))
    return u0, M.quadratic(1, "0.8*cos(2*pi*x)"), M.affine(IV, g=0.3), "dbc", 1.0, {}


def refresh_march():
    # the case of test_evolve_rechooses_dt_after_refresh
    grid = G.build_grid(G.interval(-1.0, 1.0), 0.05)
    u0 = P.field_from(grid, lambda x: 4.0 * x[:, 0])
    return u0, M.quadratic(1, "-0.5*x**2"), M.neumann(grid.geom), "cn", 1.0, {}


@pytest.mark.parametrize("case", [lambda: bench_disc_march(1), lambda: bench_disc_march(2),
                                  dbc_affine_march, refresh_march],
                         ids=["disc-seed1", "disc-seed2", "dbc-affine", "refresh"])
def test_evolve_matches_reference_march(case):
    u0, H, Bm, kind, T, kw = case()
    got = P.evolve(u0, H, Bm, kind, T, **kw)
    ref = evolve_reference(u0, H, Bm, kind, T, **kw)
    assert got.dt == ref.dt
    assert np.array_equal(got.times, ref.times)
    assert np.array_equal(got.values, ref.values)


def test_evolve_takes_one_slope_pass_per_step(monkeypatch):
    # n steps: one pass for u0 and one after each step
    grid = G.build_grid(IV, 0.05)
    u0 = P.field_from(grid, lambda x: 0.3 * np.sin(3 * x[:, 0]))
    calls, one_sided = [], P.one_sided
    monkeypatch.setattr(P, "one_sided", lambda g, u: calls.append(1) or one_sided(g, u))
    stf = P.evolve(u0, M.quadratic(1), M.neumann(IV), "cn", T=0.07, dt=0.01)
    assert stf.times[-1] == pytest.approx(0.07, abs=1e-12)
    assert len(calls) == 7 + 1


def test_evolve_makes_no_h_call_per_step_for_radial_h(monkeypatch):
    # the builds' calls only: horizon 4T takes four times the steps of T
    u0, H, Bm, kind, T, kw = bench_disc_march(1)
    counts, call = [], M.Hamiltonian.__call__
    for horizon in (T / 8, T / 2):
        calls = []
        monkeypatch.setattr(M.Hamiltonian, "__call__",
                            lambda self, x, p: calls.append(1) or call(self, x, p))
        stf = P.evolve(u0, H, Bm, kind, horizon)
        monkeypatch.undo()
        counts.append(len(calls))
    assert stf.times[-1] == pytest.approx(T / 2)
    assert counts[0] == counts[1] <= 2


def test_stepper_build_calls_radial_h_once(monkeypatch):
    # the closed forms replace the sampled sigma and radius: one H call for
    # h0, which gives the level and min H(x, 0)
    grid = G.build_grid(DISC, 0.05)
    H = M.quadratic(2, "0.3*cos(pi*x)*cos(pi*y)")
    calls, call = [], M.Hamiltonian.__call__
    monkeypatch.setattr(M.Hamiltonian, "__call__",
                        lambda self, x, p: calls.append(1) or call(self, x, p))
    P.Stepper(grid, H, M.neumann(DISC), "cn", grad_bound=2.0)
    assert len(calls) == 1


def test_evolve_oblique_disc_reports_growth_not_cfl():
    # gamma = n + t/2 on the disc: evolve re-chooses its own dt instead of
    # raising CFLError; the boundary flux is not monotone there, so the
    # slopes keep doubling and the march is reported unstable
    geom = G.disc(0.0, 0.0, 1.0)
    grid = G.build_grid(geom, 0.1)
    H = M.quadratic(2, "-0.5*(x**2 + y**2)")

    def gamma(pts):
        n = geom.unit_normal(pts)
        return n + 0.5 * np.stack([-n[..., 1], n[..., 0]], axis=-1)

    u0 = P.field_from(grid, lambda x: np.sin(np.pi * x[:, 0]) * np.cos(np.pi * x[:, 1] / 2))
    with pytest.raises(NumericalError, match="slopes keep growing") as exc:
        P.evolve(u0, H, M.affine(geom, gamma), "cn", T=10.0)
    assert not isinstance(exc.value, CFLError)
    with pytest.raises(NumericalError) as ref:
        evolve_reference(u0, H, M.affine(geom, gamma), "cn", T=10.0)
    assert type(ref.value) is type(exc.value) and str(ref.value) == str(exc.value)


def random_lipschitz_field(grid, rng, lip=1.0):
    x = grid.nodes[:, 0]
    n_modes = rng.integers(1, 4)
    vals = np.zeros_like(x)
    for _ in range(n_modes):
        a = rng.uniform(-0.5, 0.5)
        k = rng.integers(1, 4)
        ph = rng.uniform(0, 2 * np.pi)
        vals += a * np.sin(2 * np.pi * k * x + ph) / (2 * np.pi * k)
    vals *= lip / max(np.abs(np.gradient(vals, x)).max(), 1e-9)
    return P.GridField(grid, vals + rng.uniform(-1, 1))


CASES = [
    (M.quadratic(1), lambda: M.neumann(IV), "cn"),
    (M.eikonal(1), lambda: M.affine(IV, g=0.3), "cn"),
    (M.double_well(1), lambda: M.max_affine(IV, [(1.0, 0.5), (2.0, 2.0)]), "dbc"),
]


def test_comparison_preserved_nodewise():
    rng = np.random.default_rng(21)
    grid = G.build_grid(IV, 0.04)
    for H, mkB, kind in CASES:
        Bm = mkB()
        st = P.Stepper(grid, H, Bm, kind, grad_bound=2.5)
        dt = 0.9 * st.dt_max
        u = random_lipschitz_field(grid, rng).values
        bump = random_lipschitz_field(grid, rng).values
        v = u + (bump - bump.min())          # Lipschitz, v >= u nodewise
        for _ in range(60):
            u = st.step(u, dt)
            v = st.step(v, dt)
            assert (u <= v + 5e-12).all()


def test_contraction_in_sup_norm():
    rng = np.random.default_rng(22)
    grid = G.build_grid(IV, 0.04)
    for H, mkB, kind in CASES:
        Bm = mkB()
        st = P.Stepper(grid, H, Bm, kind, grad_bound=2.0)
        dt = 0.9 * st.dt_max
        u = random_lipschitz_field(grid, rng).values
        v = random_lipschitz_field(grid, rng).values
        dist = np.abs(u - v).max()
        for _ in range(60):
            u = st.step(u, dt)
            v = st.step(v, dt)
            nd = np.abs(u - v).max()
            assert nd <= dist + 5e-12
            dist = nd


def test_evolve_contraction_snapshotwise():
    grid = G.build_grid(IV, 0.04)
    rng = np.random.default_rng(23)
    u0 = random_lipschitz_field(grid, rng)
    delta = 0.37
    v0 = P.GridField(grid, u0.values + delta)
    su = P.evolve(u0, M.quadratic(1), M.neumann(IV), "cn", T=0.5, record_every=0.1)
    sv = P.evolve(v0, M.quadratic(1), M.neumann(IV), "cn", T=0.5, record_every=0.1)
    for k in range(len(su.times)):
        assert np.abs(su.values[k] - sv.values[k]).max() <= delta + 1e-12


def test_interior_consistency_under_refinement():
    # residual of the scheme on a smooth field approaches H(x, Du) at rate O(h)
    H = M.quadratic(1)
    Bm = M.neumann(IV)
    errs = []
    for h in (0.04, 0.02, 0.01):
        grid = G.build_grid(IV, h)
        st = P.Stepper(grid, H, Bm, "cn", grad_bound=1.0)
        w = np.sin(2 * np.pi * grid.nodes[:, 0]) / (2 * np.pi)
        phi = st.rhs(w)
        exact = H(grid.nodes, np.cos(2 * np.pi * grid.nodes[:, 0])[:, None])
        inner = ~grid.boundary
        errs.append(np.abs(phi - exact)[inner].max())
    assert errs[2] < errs[0]
    assert errs[2] <= 0.5 * errs[0] * 1.5  # roughly first order


def test_2d_disc_evolution_runs_and_contracts():
    d = G.disc()
    grid = G.build_grid(d, 0.2)
    H = M.quadratic(2)
    Bn = M.neumann(d)
    rng = np.random.default_rng(9)
    u0 = P.GridField(grid, 0.3 * np.sin(grid.nodes[:, 0] * 3) * np.cos(grid.nodes[:, 1] * 2))
    v0 = P.GridField(grid, u0.values + 0.2)
    su = P.evolve(u0, H, Bn, "cn", T=0.3, record_every=0.1)
    sv = P.evolve(v0, H, Bn, "cn", T=0.3, record_every=0.1)
    assert np.abs(su.values[-1] - sv.values[-1]).max() <= 0.2 + 1e-10
    assert (su.values[-1] <= sv.values[-1] + 1e-10).all()


ELLIPSE = G.custom(2, lambda p: np.asarray(p)[..., 0] ** 2 + (np.asarray(p)[..., 1] / 0.6) ** 2 - 1,
                   lambda p: np.stack([2 * np.asarray(p)[..., 0],
                                       2 * np.asarray(p)[..., 1] / 0.36], axis=-1),
                   ((-1.0, -0.6), (1.0, 0.6)))


@pytest.mark.parametrize("geom,h", [(IV, 0.05), (DISC, 0.25), (ELLIPSE, 0.1)])
def test_one_sided_is_zero_across_missing_sides(geom, h):
    # one (2, dim, N) stack; node -1 set large: a quotient that read it
    # across a missing side would round to -0.0 on the backward side
    grid = G.build_grid(geom, h)
    u = np.random.default_rng(3).uniform(-1.0, 1.0, grid.n_nodes)
    u[-1] = 1e12
    S = P.one_sided(grid, u)
    assert S.shape == (2, grid.dim, grid.n_nodes)
    pW, pE = S
    (iw, ie), (gw, ge) = grid.neighbors, grid.gaps
    assert np.any(iw < 0) and np.any(ie < 0)
    assert np.all(pW[iw < 0] == 0.0) and np.all(pE[ie < 0] == 0.0)
    assert not np.signbit(S[grid.neighbors < 0]).any()
    ax, k = np.nonzero(iw >= 0)
    np.testing.assert_array_equal(pW[ax, k], (u[k] - u[iw[ax, k]]) / gw[ax, k])
    ax, k = np.nonzero(ie >= 0)
    np.testing.assert_array_equal(pE[ax, k], (u[ie[ax, k]] - u[k]) / ge[ax, k])


JACOBIAN_GRIDS = [(IV, 0.05), (DISC, 0.25), (DISC, 0.2), (DISC, 0.1)]


def jacobian_setups(geom, h):
    """(Stepper, u) for cn and dbc with a potential, a tilted affine boundary
    on the disc, and a random field."""
    grid = G.build_grid(geom, h)
    if grid.dim == 1:
        H, Bm = M.quadratic(1, "0.8*cos(2*pi*x)"), M.affine(IV, g=0.3)
    else:
        H, Bm = M.quadratic(2, "0.3*cos(pi*x)*cos(pi*y)"), M.affine(DISC, tilted(0.5), "0.2*x")
    u = np.random.default_rng(5).uniform(-1.0, 1.0, grid.n_nodes)
    return [(P.Stepper(grid, H, Bm, kind, grad_bound=2.0), u) for kind in ("cn", "dbc")]


def difference_setups(geom, h, custom_b=True):
    """jacobian_setups with models that carry no derivative: the same H
    without its profile, and the same B as a custom_boundary (kept catalog
    with custom_b False)."""
    out = []
    for stp, u in jacobian_setups(geom, h):
        H = dataclasses.replace(stp.H, profile=None, dprofile=None)
        Bm = stp.Bm
        if custom_b:
            Bm = M.custom_boundary(geom, Bm.fn, Bm.theta, Bm.lip)
        out.append((P.Stepper(stp.grid, H, Bm, stp.kind, grad_bound=2.0), u))
    return out


# absolute step of the reference forward differences of rhs
FD_STEP = 1e-9


def columnwise_differences(stp, u):
    """Stepper.jacobian at u and one forward difference of rhs per column,
    dense."""
    base = stp.rhs(u)
    ref = np.empty((u.size, u.size))
    for j in range(u.size):
        up = u.copy()
        up[j] += FD_STEP
        ref[:, j] = (stp.rhs(up) - base) / (up[j] - u[j])
    return stp.jacobian(u).toarray(), ref


@pytest.mark.parametrize("geom,h", JACOBIAN_GRIDS)
def test_jacobian_matches_columnwise_differences(geom, h):
    # every model: radial catalog H and catalog B, the same H differenced in
    # p with the catalog B, and both differenced, B as a custom_boundary
    # whose root is bisected to rounding
    setups = jacobian_setups(geom, h) + difference_setups(geom, h, custom_b=False)
    for stp, u in setups + difference_setups(geom, h):
        J, ref = columnwise_differences(stp, u)
        assert np.abs(J - ref).max() <= 1e-6 * np.abs(ref).max()


@pytest.mark.parametrize("geom,h", JACOBIAN_GRIDS)
def test_custom_twin_jacobian_matches_catalog(geom, h):
    # the same H and B without their derivatives: dH/dp and dB/dp by central
    # differences in p, and the custom root bisected to rounding, give the
    # catalog Jacobian to well within the reference differences' error
    for (cat, u), (twin, _) in zip(jacobian_setups(geom, h), difference_setups(geom, h)):
        J, Jt = cat.jacobian(u).toarray(), twin.jacobian(u).toarray()
        assert np.abs(Jt - J).max() <= 1e-8 * np.abs(J).max()


def rhs_reference(stp, u):
    """Stepper.rhs as it was with two H calls and a nested-where inward slope."""
    grid = stp.grid
    pW, pE = P.one_sided(grid, u)
    pbar = 0.5 * (pW + pE).T
    phi = np.asarray(stp.H(grid.nodes, pbar), dtype=float)
    phi -= 0.5 * np.sum(stp.sigma[:, None] * (pE - pW), axis=0)
    if stp.bidx.size:
        b, xb, bn = stp.bidx, stp.xb, stp.bn
        side = (stp.q_at // (grid.dim * grid.n_nodes)).T
        sgn = np.where(grid.neighbors.ravel()[stp.q_at].T >= 0, 1 - 2 * side, 0)
        q = np.where(sgn > 0, pW[:, b], np.where(sgn < 0, pE[:, b], 0.0)).T
        if stp.kind == "cn":
            qn = np.sum(q * bn, axis=-1)
            qt = q - qn[:, None] * bn
            lam = P._ghost_solve_many(stp.Bm, xb, qt, bn, stp.tol, stp.forms)
            gstar = qt + lam[:, None] * bn
            phi[b] = (np.asarray(stp.H(xb, gstar), dtype=float)
                      - stp.sig_n * (lam - qn))
        else:
            phi[b] = np.asarray(stp.Bm(xb, q), dtype=float)
    return phi


def tilted_on(geom, s):
    """gamma(x) = n(x) + s t(x) on a 2-D geom, t the counterclockwise tangent."""
    def gamma(pts):
        n = geom.unit_normal(pts)
        return n + s * np.stack([-n[..., 1], n[..., 0]], axis=-1)
    return gamma


def operator_fixtures():
    """(grid, H, B, u) over interval, disc and ellipse, each with neumann,
    affine (gamma = n + t/2 in 2-D) and max_affine, a quadratic H with a
    potential and an eikonal H, and a seeded u."""
    out = []
    for geom, h in ((IV, 0.04), (DISC, 0.2), (DISC, 0.1), (ELLIPSE, 0.1)):
        grid = G.build_grid(geom, h)
        if grid.dim == 1:
            Hs = (M.quadratic(1, "0.8*cos(2*pi*x)"), M.eikonal(1, "1 + 0.3*x"))
            Bs = (M.neumann(geom), M.affine(geom, 1.5, "0.3 + x"),
                  M.max_affine(geom, [(1.0, 0.5), (2.0, 2.0)]))
        else:
            Hs = (M.quadratic(2, "0.3*cos(pi*x)*cos(pi*y)"), M.eikonal(2, "1 + 0.2*y"))
            Bs = (M.neumann(geom), M.affine(geom, tilted_on(geom, 0.5), "0.2*x"),
                  M.max_affine(geom, [(tilted_on(geom, 0.5), 0.0),
                                      (tilted_on(geom, -0.5), 0.2)]))
        u = np.random.default_rng(int(100 * h) + grid.n_nodes).uniform(-1.0, 1.0, grid.n_nodes)
        for H in Hs:
            for Bm in Bs:
                out.append((grid, H, Bm, u))
    return out


def same_bits(a, b):
    """Equal arrays down to the sign of zero."""
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("kind", ["cn", "dbc"])
def test_rhs_matches_two_call_reference(kind):
    # the one-H-call operator equals the old one bit for bit, before and
    # after a refresh for slopes beyond the radius
    for grid, H, Bm, u in operator_fixtures():
        stp = P.Stepper(grid, H, Bm, kind, grad_bound=1.0)
        steep = 4.0 * u
        assert P.discrete_lipschitz(grid, steep) > stp.radius
        for w in (u, steep):
            assert same_bits(stp.rhs(w), rhs_reference(stp, w))
        stp.refresh(2.0 * P.discrete_lipschitz(grid, steep))
        ref = rhs_reference(stp, steep)
        assert same_bits(stp.rhs(steep), ref)
        assert same_bits(stp.rhs(steep, P.one_sided(grid, steep)), ref)


@pytest.mark.parametrize("kind", ["cn", "dbc"])
def test_rhs_calls_each_model_once(monkeypatch, kind):
    # the fixtures' H are radial: h0 + profile(|p|^2) with h0 from the build
    # takes the place of the H call; the same fn without a profile keeps it
    cases = [(grid, H, Bm, u, 0) for grid, H, Bm, u in operator_fixtures()]
    cases += [(grid, dataclasses.replace(H, profile=None), Bm, u, 1)
              for grid, H, Bm, u, _ in cases]
    for grid, H, Bm, u, h_calls in cases:
        stp = P.Stepper(grid, H, Bm, kind, grad_bound=2.0)
        calls = {"H": 0, "B": 0}
        h_call, b_call = M.Hamiltonian.__call__, M.BoundaryOperator.__call__

        def count(name, call):
            def counted(self, x, p):
                calls[name] += 1
                return call(self, x, p)
            return counted

        monkeypatch.setattr(M.Hamiltonian, "__call__", count("H", h_call))
        monkeypatch.setattr(M.BoundaryOperator, "__call__", count("B", b_call))
        stp.rhs(u)
        monkeypatch.undo()
        # under "cn" the forms were certified against B at build; a "dbc"
        # boundary row is a B call
        assert calls == {"H": h_calls, "B": 0 if kind == "cn" else 1}


def test_shifted_radial_rhs_within_rounding_of_reference():
    # normalize moves c into h0 = H(x, 0) - c, so a radial rhs adds the
    # profile to h0 where the reference subtracts c from H: a rounding apart
    # on the magnitudes of H's sum, which the dissipation may cancel in phi
    ulp = np.finfo(float).eps
    for kind in ("cn", "dbc"):
        for grid, H, Bm, u in operator_fixtures():
            for c in (0.37, -1.3):
                Hn, Bn = E.normalize(H, Bm, c, kind)
                stp = P.Stepper(grid, Hn, Bn, kind, grad_bound=1.0)
                for w in (u, 4.0 * u):
                    got = stp.rhs(w)
                    hv = []
                    stp.H = dataclasses.replace(
                        Hn, fn=lambda x, p: hv.append(np.array(Hn.fn(x, p))) or hv[-1].copy())
                    ref = rhs_reference(stp, w)
                    stp.H = Hn
                    # H at each row's slopes: the mean slope, or the ghost
                    # gradient on a "cn" boundary row
                    h_row = np.broadcast_to(hv[0], ref.shape).copy()
                    if stp.kind == "cn":
                        h_row[stp.bidx] = hv[1]
                    scale = 1.0 + np.abs(ref) + np.abs(h_row) + np.abs(stp.h0) + abs(c)
                    assert np.all(np.abs(got - ref) <= 4 * ulp * scale)


def test_jacobian_pattern_fixed_per_stepper():
    # the CSR pattern is built on the first call only, and the matrix is the
    # one a fresh pattern gives
    for stp, u in difference_setups(DISC, 0.2):
        first = stp.jacobian(u)
        again = stp.jacobian(u)
        fresh = P.Stepper(stp.grid, stp.H, stp.Bm, stp.kind, grad_bound=2.0).jacobian(u)
        for a in (again, fresh):
            assert np.array_equal(first.indptr, a.indptr)
            assert np.array_equal(first.indices, a.indices)
            assert np.array_equal(first.data, a.data)


@pytest.mark.parametrize("kind", ["cn", "dbc"])
def test_model_jacobian_matches_columnwise_differences(kind):
    # the catalog models' Jacobian from the model against one forward
    # difference of rhs per column, at the seeded fields, away from kinks;
    # its rows annihilate constants, as rhs does
    for grid, H, Bm, u in operator_fixtures():
        J, ref = columnwise_differences(P.Stepper(grid, H, Bm, kind, grad_bound=2.0), u)
        assert np.abs(J - ref).max() <= 1e-6 * np.abs(ref).max()
        assert np.abs(J.sum(axis=1)).max() <= 1e-12 * np.abs(J).max()


@pytest.mark.parametrize("kind", ["cn", "dbc"])
def test_catalog_jacobian_makes_no_rhs_call(kind):
    # no rhs call for any model: the catalog fixtures, their H without its
    # derivative, and both with B as a custom_boundary, at the seeded fields
    # and at u = 0, the kink of every eikonal row
    calls = []
    for grid, H, Bm, u in operator_fixtures():
        bare = dataclasses.replace(H, profile=None, dprofile=None)
        twin = M.custom_boundary(Bm.geom, Bm.fn, Bm.theta, Bm.lip)
        for Hm, Bc in ((H, Bm), (bare, Bm), (bare, twin)):
            stp = P.Stepper(grid, Hm, Bc, kind, grad_bound=2.0)
            rhs = stp.rhs
            stp.rhs = lambda v, slopes=None: calls.append("rhs") or rhs(v, slopes)
            for w in (u, np.zeros_like(u)):
                assert np.isfinite(stp.jacobian(w).data).all()
    assert calls == []


def test_jacobian_shift_fills_the_diagonal():
    # shift s adds s I in the cached diagonal slots, for every model
    for stp, u in jacobian_setups(DISC, 0.2) + difference_setups(DISC, 0.2):
        J, Js = stp.jacobian(u), stp.jacobian(u, shift=0.25)
        assert np.array_equal(J.indices, Js.indices) and np.array_equal(J.indptr, Js.indptr)
        diff = (Js - J).toarray()
        assert np.abs(diff - 0.25 * np.eye(u.size)).max() <= 1e-13 * np.abs(J.data).max()


@pytest.mark.parametrize("geom,h", [(IV, 0.05), (DISC, 0.2)])
def test_anchored_jacobian_is_the_bordered_matrix(geom, h):
    # anchor x0 gives the eigenpair's bordered matrix: J + shift I with column
    # x0 set to -1 and no stored zeros; the matrix must not share the cached
    # pattern that eliminate_zeros would rewrite, so repeated anchored calls,
    # and anchored calls around a plain one, return the same arrays
    for stp, u in difference_setups(geom, h):
        x0 = stp.grid.centroid_node()
        plain = stp.jacobian(u, shift=0.25)
        # on the disc, boundary rows store zeros in the slots they do not read
        assert (plain.data == 0).any() == (stp.grid.dim == 2)
        ref = plain.toarray()
        ref[:, x0] = -1.0
        first = stp.jacobian(u, shift=0.25, anchor=x0)
        assert np.array_equal(first.toarray(), ref)
        assert (first.data != 0).all()
        calls = [stp.jacobian(u, shift=0.25, anchor=x0), stp.jacobian(u, shift=0.25),
                 stp.jacobian(u, shift=0.25, anchor=x0)]
        for a, b in ((first, calls[0]), (plain, calls[1]), (first, calls[2])):
            assert np.array_equal(a.indptr, b.indptr)
            assert np.array_equal(a.indices, b.indices)
            assert np.array_equal(a.data, b.data)


def dt_max_reference(stp):
    """dt_max with the old boundary rule: a "cn" row took fac sigma_n
    sum_i |n_i| / gap_i, fac 1 in 1-D and 2 in 2-D; a "dbc" row M_B sum_i
    1 / gap_i."""
    inv = 1.0 / stp.gap
    coef = np.sum(stp.sigma[:, None] * np.maximum(inv[0], inv[1]), axis=0)
    binv = 1.0 / stp.gap.ravel()[stp.q_at].T
    if stp.kind == "cn":
        fac = 1.0 if stp.grid.dim == 1 else 2.0
        bco = fac * stp.sig_n * np.sum(np.abs(stp.bn).T * binv, axis=0)
    else:
        bco = stp.Bm.lip * np.sum(binv, axis=0)
    coef[stp.bidx] = np.maximum(coef[stp.bidx], bco)
    return 1.0 / float(coef.max())


def test_dt_max_keeps_every_diagonal_nonnegative():
    # at dt = dt_max, I - dt d rhs / du has no negative diagonal entry on
    # any 2-D row, interior or boundary, for seeded fields whose slopes stay
    # within the certified range; 1-D bounds and "dbc" bounds are the old
    # ones bit for bit. A 1-D row attains its bound, so its forward-
    # difference diagonal sits at 0 within the differences' rounding.
    for grid, H, Bm, u in operator_fixtures():
        for kind in ("cn", "dbc"):
            stp = P.Stepper(grid, H, Bm, kind, grad_bound=2.0)
            if grid.dim == 1 or kind == "dbc":
                assert stp.dt_max == dt_max_reference(stp)
            if grid.dim == 1:
                continue
            rng = np.random.default_rng(grid.n_nodes)
            for w in (u, *rng.uniform(-1.0, 1.0, (3, grid.n_nodes))):
                for lip in (0.5 * stp.grad_bound, stp.grad_bound):
                    w = w * (lip / P.discrete_lipschitz(grid, w))
                    J = stp.jacobian(w)
                    assert (1.0 - stp.dt_max * J.diagonal()).min() >= 0.0
