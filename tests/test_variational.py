"""Control representation: monotone DP steps, crosschecks against marching."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hj_neumann import geometry as G, models as M, pde as P, variational as V
from hj_neumann.errors import NumericalError

IV = G.interval(0.0, 1.0)


def hopf_lax_neumann(grid, u0_vals, t):
    x = grid.nodes[:, 0]
    out = np.empty_like(u0_vals)
    for i, xi in enumerate(x):
        out[i] = u0_vals[np.abs(x - xi) <= t + 1e-12].min()
    return out


def test_control_set_contains_zero_and_edges():
    grid = G.build_grid(IV, 0.05)
    ctrl = V.build_control_set(M.eikonal(1), M.neumann(IV), grid)
    w = ctrl.velocities[:, 0]
    assert 0.0 in w
    assert ctrl.v_max == pytest.approx(1.0, abs=1e-6)   # edge of dom L
    assert w.max() == pytest.approx(ctrl.v_max)
    assert np.all(ctrl.intensities > 0)
    assert ctrl.intensities.size == 8


def test_even_velocity_count_keeps_zero():
    grid = G.build_grid(IV, 0.1)
    ctrl = V.build_control_set(M.quadratic(1), M.neumann(IV), grid, n_velocity=8)
    assert ctrl.velocities.shape == (9, 1)
    assert 0.0 in ctrl.velocities[:, 0]


def test_stage_costs_below_the_cap_stay_finite():
    # L(x, w) = w^2/2 + 2e8 is finite everywhere, so from u0 = 0 the value
    # at T = 0.5 is 1e8 exactly; only a stage at models.CAP is outside dom L
    grid = G.build_grid(IV, 0.1)
    H, Bm = M.quadratic(1, "-2e8"), M.neumann(IV)
    tab = V.value(P.constant_field(grid, 0.0), H, Bm, "cn", T=0.5,
                  controls=V.build_control_set(H, Bm, grid, v_max=2.0))
    assert np.all(tab.values[-1] == 1e8)


def test_quadratic_zero_data_stays_zero():
    grid = G.build_grid(IV, 0.05)
    u0 = P.constant_field(grid, 0.0)
    tab = V.value(u0, M.quadratic(1), M.neumann(IV), "cn", T=0.5)
    assert np.abs(tab.values).max() <= 1e-12


@pytest.mark.parametrize("kind", ["cn", "dbc"])
def test_value_t0_returns_initial(kind):
    # as evolve does: one slice at t = 0, the data itself
    grid = G.build_grid(IV, 0.05)
    u0 = P.field_from(grid, lambda x: np.sin(x[:, 0]))
    tab = V.value(u0, M.quadratic(1), M.neumann(IV), kind, T=0.0)
    assert tab.times.tolist() == [0.0]
    np.testing.assert_array_equal(tab.values[0], u0.values)
    assert not np.shares_memory(tab.values, u0.values)


def test_value_rejects_negative_horizon():
    grid = G.build_grid(IV, 0.05)
    with pytest.raises(NumericalError, match="T must be nonnegative"):
        V.value(P.constant_field(grid, 0.0), M.quadratic(1), M.neumann(IV), "cn", T=-0.1)


def test_constant_hamiltonian_linear_decay():
    # H = p^2/2 + 0.7: constants decay at rate H(0) exactly in both solvers
    grid = G.build_grid(IV, 0.05)
    H = M.poly1d([0.7, 0.0, 0.5])
    u0 = P.constant_field(grid, 0.2)
    tab = V.value(u0, H, M.neumann(IV), "cn", T=0.5)
    expected = 0.2 - 0.7 * tab.times
    assert np.abs(tab.values - expected[:, None]).max() <= 1e-9
    stf = P.evolve(u0, H, M.neumann(IV), "cn", T=0.5, record_every=0.25)
    rep = V.crosscheck(tab, stf, times=[0.25, 0.5])
    assert rep.sup_errors.max() <= 1e-9


def test_monotone_and_nonexpansive_in_initial_data():
    grid = G.build_grid(IV, 0.04)
    rng = np.random.default_rng(3)
    H, Bm = M.quadratic(1), M.neumann(IV)
    a = rng.uniform(-1, 1, grid.n_nodes) * 0.2
    b = a + rng.uniform(0, 0.3, grid.n_nodes)
    ctrl = V.build_control_set(H, Bm, grid)
    ta = V.value(P.GridField(grid, a), H, Bm, "cn", T=0.3, controls=ctrl)
    tb = V.value(P.GridField(grid, b), H, Bm, "cn", T=0.3, controls=ctrl)
    for k in range(len(ta.times)):
        assert (ta.values[k] <= tb.values[k] + 1e-12).all()
        assert np.abs(ta.values[k] - tb.values[k]).max() \
            <= np.abs(a - b).max() + 1e-12


def test_eikonal_value_matches_hopf_lax():
    grid = G.build_grid(IV, 0.02)
    u0 = P.field_from(grid, lambda x: x[:, 0])
    tab = V.value(u0, M.eikonal(1), M.neumann(IV), "cn", T=1.0)
    for t in (0.25, 0.5, 1.0):
        ref = hopf_lax_neumann(grid, u0.values, t)
        assert np.abs(tab.at_time(t) - ref).max() <= 4 * (grid.h + tab.dt)


def test_crosscheck_eikonal_against_marching():
    grid = G.build_grid(IV, 0.01)
    u0 = P.field_from(grid, lambda x: x[:, 0])
    H, Bm = M.eikonal(1), M.neumann(IV)
    tab = V.value(u0, H, Bm, "cn", T=1.0)
    stf = P.evolve(u0, H, Bm, "cn", T=1.0, record_every=0.5)
    rep = V.crosscheck(tab, stf, times=[1.0])
    assert rep.final_error <= 0.05


def test_crosscheck_identical_inputs_zero():
    grid = G.build_grid(IV, 0.05)
    u0 = P.field_from(grid, lambda x: np.sin(3 * x[:, 0]))
    stf = P.evolve(u0, M.quadratic(1), M.neumann(IV), "cn", T=0.2,
                   record_every=0.1)
    tab = P.SpaceTimeField(grid, stf.times, stf.values, float(stf.dt))
    rep = V.crosscheck(tab, stf)
    assert rep.sup_errors.max() == 0.0


def test_crosscheck_misaligned_stamps_error():
    grid = G.build_grid(IV, 0.05)
    u0 = P.constant_field(grid, 0.0)
    stf = P.evolve(u0, M.quadratic(1), M.neumann(IV), "cn", T=0.2,
                   record_every=0.1)
    tab = P.SpaceTimeField(grid, np.array([0.0371]), np.zeros((1, grid.n_nodes)),
                           0.0002)
    assert np.array_equal(tab.at_time(0.0372), tab.values[0])   # one stamp: 0.51 dt
    with pytest.raises(NumericalError):
        V.crosscheck(tab, stf)


def test_dbc_matches_cn_when_boundary_inactive():
    # constant data, H(x,0) = 0, B(x,0) = 0: both values stay put
    grid = G.build_grid(IV, 0.05)
    u0 = P.constant_field(grid, 1.3)
    tc = V.value(u0, M.quadratic(1), M.neumann(IV), "cn", T=0.4)
    td = V.value(u0, M.quadratic(1), M.neumann(IV), "dbc", T=0.4)
    assert np.abs(tc.values - 1.3).max() <= 1e-12
    assert np.abs(td.values - 1.3).max() <= 1e-12


def test_dbc_crosscheck_affine_case():
    grid = G.build_grid(IV, 0.01)
    H = M.quadratic(1)
    Ba = M.affine(IV, g=-0.3)
    u0 = P.field_from(grid, lambda x: 0.5 - np.abs(x[:, 0] - 0.5))
    tab = V.value(u0, H, Ba, "dbc", T=1.0)
    stf = P.evolve(u0, H, Ba, "dbc", T=1.0, record_every=0.5)
    rep = V.crosscheck(tab, stf, times=[1.0])
    assert rep.final_error <= 0.05


def test_one_step_consistency_interior():
    # dp residual on a smooth field reproduces u_t + H = 0 at first order
    H, Bm = M.quadratic(1), M.neumann(IV)
    errs = []
    for h, nv in [(0.02, 33), (0.01, 65)]:
        grid = G.build_grid(IV, h)
        ctrl = V.build_control_set(H, Bm, grid, n_velocity=nv)
        tables = V.build_tables(grid, H, ctrl, dt=h / ctrl.v_max)
        w = 0.2 * np.sin(2 * np.pi * grid.nodes[:, 0])
        stepped = V.dp_step_cn(w, tables)
        resid = (w - stepped) / tables.dt
        exact = H(grid.nodes, (0.4 * np.pi * np.cos(2 * np.pi * grid.nodes[:, 0]))[:, None])
        inner = ~grid.boundary
        errs.append(np.abs(resid - exact)[inner].max())
    assert errs[1] < errs[0]
    assert errs[1] <= 0.1


def test_stage_fenchel_young_chain():
    # L(x,-w) + l*g >= -eta_dot.p - H(x,p) - l*B(x,p) with eta_dot = w - l*gamma
    grid = G.build_grid(IV, 0.05)
    H = M.quadratic(1)
    Bm = M.max_affine(IV, [(1.0, 0.5), (2.0, 2.0)])
    ctrl = V.build_control_set(H, Bm, grid)
    sel = ctrl.selection
    rng = np.random.default_rng(5)
    xb = np.array([1.0])
    g = float(sel.g(xb))
    gam = sel.gamma(xb)
    for _ in range(200):
        w = ctrl.velocities[rng.integers(0, len(ctrl.velocities))]
        l = float(rng.choice(ctrl.intensities))
        p = rng.uniform(-3, 3, (1,))
        L = M.lagrangian(H, xb, -w)
        lhs = L + l * g
        eta_dot = w - l * gam
        rhs = -float(eta_dot @ p) - float(H(xb, p)) - l * float(Bm(xb, p))
        assert lhs >= rhs - 1e-7


def test_selection_solved_once_per_boundary_node(monkeypatch):
    # projected landing points differ from the end points by round-off; the
    # nonlinear selection memo must still hit
    calls = []
    moreau = M.moreau

    def counted(*args, **kwargs):
        calls.append(args[1])
        return moreau(*args, **kwargs)

    monkeypatch.setattr(M, "moreau", counted)
    grid = G.build_grid(IV, 0.05)
    H = M.quadratic(1, "-cos(2*pi*x) - 1")
    Bm = M.max_affine(IV, [(1.0, 0.2), (2.0, 0.5)])
    ctl = V.build_control_set(H, Bm, grid, n_velocity=17, v_max=2.5)
    V.build_tables(grid, H, ctl, grid.h / ctl.v_max)
    assert 0 < len(calls) <= grid.boundary_idx.size


def test_max_affine_disc_tables_evaluate_the_selection_twice(monkeypatch):
    # once at the boundary nodes, once at the contact points of all free
    # landing points (the pressing controls land on their nodes)
    calls = {"moreau": 0, "boundary_conjugate": 0}
    for name in calls:
        fn = getattr(M, name)
        monkeypatch.setattr(M, name, lambda *a, fn=fn, name=name, **k:
                            calls.__setitem__(name, calls[name] + 1) or fn(*a, **k))
    disc = G.disc()
    grid = G.build_grid(disc, 0.25)
    H = M.quadratic(2, "0.3*cos(pi*x)*cos(pi*y)")
    Bm = M.max_affine(disc, [(1.0, 0.2), (2.0, 0.5)])
    ctl = V.build_control_set(H, Bm, grid, n_velocity=3)
    V.build_tables(grid, H, ctl, grid.h / ctl.v_max)
    assert calls == {"moreau": 2, "boundary_conjugate": 2}


def _dbc_per_control(slices, tables):
    # the boundary recursion one rung at a time: time interpolation first,
    # then the stencil rows of the boundary nodes
    lad = tables.controls.intensities
    n = len(slices)
    back = n - (1.0 + lad)
    k0 = np.clip(np.floor(back).astype(int), 0, n - 1)
    k1 = np.minimum(k0 + 1, n - 1)
    a = np.clip(back - k0, 0.0, 1.0)
    best = np.full(tables.bnd_rows.size, np.inf)
    for r in range(lad.size):
        ur = (1 - a[r]) * slices[k0[r]] + a[r] * slices[k1[r]]
        best = np.minimum(best, tables.bnd_stage[:, r] + tables.bnd_op @ ur)
    out = (tables.dbc_stage
           + (tables.free_op @ slices[-1]).reshape(tables.dbc_stage.shape)).min(axis=0)
    out[tables.bnd_rows] = np.minimum(out[tables.bnd_rows], best)
    return out


def test_dp_steps_match_column_and_control_references():
    # a stack of columns steps exactly as its columns one at a time
    grid = G.build_grid(IV, 0.05)
    H = M.quadratic(1)
    Bm = M.max_affine(IV, [(1.0, 0.5), (2.0, 2.0)])
    ctrl = V.build_control_set(H, Bm, grid)
    tables = V.build_tables(grid, H, ctrl, dt=grid.h / ctrl.v_max)
    U = np.random.default_rng(7).uniform(-1, 1, (grid.n_nodes, 5))
    stacked = V.dp_step_cn(U, tables)
    for s in range(U.shape[1]):
        assert np.array_equal(stacked[:, s], V.dp_step_cn(U[:, s], tables))
    # the slow-clock step equals the per-control loop on the affine fixture
    grid = G.build_grid(IV, 0.01)
    H, Ba = M.quadratic(1), M.affine(IV, g=-0.3)
    ctrl = V.build_control_set(H, Ba, grid)
    tables = V.build_tables(grid, H, ctrl, dt=grid.h / ctrl.v_max)
    slices = [0.5 - np.abs(grid.nodes[:, 0] - 0.5)]
    for _ in range(60):
        ref = _dbc_per_control(slices, tables)
        slices.append(V.dp_step_dbc(slices, tables))
        assert np.abs(slices[-1] - ref).max() <= 1e-14


# -- the per-point table build, kept as the oracle of the array build ---------

def _project_ref(geom, x, tol=1e-12, max_iter=60):
    # one point at a time: the Newton steps of project_to_closure
    x = np.asarray(x, dtype=float).copy()
    r = float(geom.rho(x))
    if r <= tol:
        return x
    for _ in range(max_iter):
        g = np.asarray(geom.grad_rho(x), dtype=float)
        x = x - (r / float(g @ g)) * g
        r = float(geom.rho(x))
        if abs(r) <= tol:
            return x
    raise AssertionError("reference projection did not converge")


def _pullback_ref(geom, y, gam, dt):
    # rho is convex along the ray: from the linearised root, double hi while
    # rho > 0 still falls; once a point past the minimum is seen, bisect
    # between the last falling point and it until rho <= 0
    from scipy import optimize

    def f(l):
        return float(geom.rho(y - dt * l * gam))

    def falling(l):
        return float(gam @ geom.grad_rho(y - dt * l * gam)) > 0.0

    hi = max(float(geom.rho(y)) / (dt * max(float(gam @ geom.grad_rho(y)), 1e-12)), 1e-12)
    lo, past = 0.0, None
    for _ in range(200):
        if f(hi) <= 0.0:
            break
        if falling(hi):
            lo = hi
        else:
            past = hi
        hi = 2.0 * hi if past is None else 0.5 * (lo + past)
    else:
        raise AssertionError("reference pull-back found no bracket in 200 steps")
    return float(optimize.brentq(f, 0.0, hi, xtol=1e-15, rtol=8.9e-16))


def _interp_weights_ref(grid, pts):
    from scipy import sparse
    d = grid.dim
    lo = np.asarray(grid.geom.bounds[0], dtype=float)
    key = {tuple(t): i for i, t in enumerate(grid.lattice_index)}
    frac = (pts - lo) / grid.h
    base = np.floor(frac + 1e-12).astype(np.int64)
    rem = frac - base
    K = 2 ** d
    idx = np.zeros((pts.shape[0], K), dtype=np.int64)
    wgt = np.zeros((pts.shape[0], K))
    corners = np.stack(np.meshgrid(*([np.array([0, 1])] * d), indexing="ij"),
                       axis=-1).reshape(-1, d)
    for m in range(pts.shape[0]):
        tot = 0.0
        for kc, c in enumerate(corners):
            w = 1.0
            for axk in range(d):
                r = min(max(rem[m, axk], 0.0), 1.0)
                w *= r if c[axk] else (1.0 - r)
            j = key.get(tuple(base[m] + c), -1)
            if j >= 0 and w > 0:
                idx[m, kc] = j
                wgt[m, kc] = w
                tot += w
        if tot <= 0:
            idx[m, 0] = int(np.argmin(np.linalg.norm(grid.nodes - pts[m], axis=-1)))
            wgt[m, 0] = 1.0
        else:
            wgt[m] /= tot
    op = sparse.csr_matrix((wgt.ravel(), idx.ravel(), np.arange(0, idx.size + 1, K)),
                           shape=(pts.shape[0], grid.n_nodes))
    op.eliminate_zeros()
    return op


def _land_and_cost_ref(grid, sel, pts, dt):
    geom = grid.geom
    rho = np.asarray(geom.rho(pts), dtype=float)
    cost = np.zeros(pts.shape[0])
    out = pts.copy()
    outside = np.flatnonzero(rho > 1e-12)
    for m in outside:
        hat = _project_ref(geom, pts[m])
        gam, g = sel.at(hat)
        gam = np.asarray(gam, dtype=float)
        lc = _pullback_ref(geom, pts[m], gam, dt)
        out[m] = pts[m] - dt * lc * gam
        cost[m] = dt * lc * float(g)
    return out, cost, outside


DISC = G.disc()
ELLIPSE = G.custom(2, lambda p: np.asarray(p)[..., 0] ** 2 + (np.asarray(p)[..., 1] / 0.6) ** 2 - 1,
                   lambda p: np.stack([2 * np.asarray(p)[..., 0],
                                       2 * np.asarray(p)[..., 1] / 0.36], axis=-1),
                   ((-1.0, -0.6), (1.0, 0.6)))


def test_pullback_oracle_brackets_an_overshooting_start():
    # the linearised root overshoots this short chord, so a bracket grown
    # from it by doubling alone never closes
    from test_skorokhod import first_crossing
    y, gam, dt = np.array([1.27001136, 0.52458051]), np.array([1.22683128, -0.54630453]), 0.1
    ref, _ = first_crossing(DISC, y, gam, dt)
    assert abs(_pullback_ref(DISC, y, gam, dt) - ref) <= 1e-12 * (1 + ref)


# V = -|x|^2/2, the potential of the bench disc model
BENCH_BOWL = "-0.5*(x**2 + y**2)"


def _tilted(pts):
    n = DISC.unit_normal(pts)
    return n + 0.5 * np.stack([-n[..., 1], n[..., 0]], axis=-1)


def table_fixtures():
    bowl = "0.3*cos(pi*x)*cos(pi*y)"
    return [
        (G.build_grid(IV, 0.05), M.quadratic(1, "0.2*cos(2*pi*x)"), M.neumann(IV), {}),
        (G.build_grid(IV, 0.05), M.quadratic(1, "-cos(2*pi*x) - 1"),
         M.max_affine(IV, [(1.0, 0.2), (2.0, 0.5)]), {"n_velocity": 17, "v_max": 2.5}),
        (G.build_grid(DISC, 0.1), M.quadratic(2, bowl), M.neumann(DISC), {"n_velocity": 9}),
        (G.build_grid(DISC, 0.1), M.quadratic(2, bowl), M.affine(DISC, _tilted, 0.1),
         {"n_velocity": 9}),
        (G.build_grid(ELLIPSE, 0.1), M.quadratic(2), M.neumann(ELLIPSE), {"n_velocity": 9}),
        # a boundary that pays: the pressing controls beat staying put
        (G.build_grid(DISC, 0.2), M.quadratic(2, BENCH_BOWL), M.affine(DISC, g=-2.0),
         {"n_velocity": 9}),
    ]


def test_array_tables_match_per_point_oracle(monkeypatch):
    # the ellipse needs several Newton steps per projection
    for grid, H, Bm, kw in table_fixtures():
        ctl = V.build_control_set(H, Bm, grid, **kw)
        dt = grid.h / ctl.v_max
        landing = (grid.nodes[:, None, :] + dt * ctl.velocities).reshape(-1, grid.dim)
        assert np.any(grid.geom.rho(landing) > 1e-12)
        new = V.build_tables(grid, H, ctl, dt)
        with monkeypatch.context() as mp:
            mp.setattr(V, "_interp_weights", _interp_weights_ref)
            mp.setattr(V, "_land_and_cost", _land_and_cost_ref)
            ref = V.build_tables(grid, H, ctl, dt)
        for a, b in ((new.free_stage, ref.free_stage), (new.dbc_stage, ref.dbc_stage),
                     (new.bnd_stage, ref.bnd_stage)):
            fin = np.isfinite(b)
            assert np.array_equal(np.isfinite(a), fin)
            assert np.abs(a[fin] - b[fin]).max() <= 1e-12
        for a, b in ((new.free_op, ref.free_op), (new.bnd_op, ref.bnd_op)):
            assert abs(a - b).max() <= 1e-12


def test_table_build_batches_landing_and_uses_closed_form(monkeypatch):
    calls = {"project": 0, "pullback": 0, "conjugate": 0}

    def counted(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(V, "project_to_closure", counted("project", V.project_to_closure))
    monkeypatch.setattr(V, "_pullback_intensity", counted("pullback", V._pullback_intensity))
    monkeypatch.setattr(M, "_conjugate", counted("conjugate", M._conjugate))
    grid = G.build_grid(DISC, 0.1)
    H = M.quadratic(2, "0.3*cos(pi*x)*cos(pi*y)")
    Bm = M.neumann(DISC)
    ctl = V.build_control_set(H, Bm, grid, n_velocity=9)
    calls["conjugate"] = 0     # the velocity bound of the control set may use the engine
    V.build_tables(grid, H, ctl, grid.h / ctl.v_max)
    assert 1 <= calls["project"] <= 2
    assert 1 <= calls["pullback"] <= 2
    assert calls["conjugate"] == 0


def test_interp_fallback_and_renormalisation_match_per_point_oracle():
    # points outside the closure and more than a cell outside the lattice
    # box, whose cells have no present corner and take the nearest node;
    # others lose only a few corners and renormalise the rest
    rng = np.random.default_rng(11)
    for grid in (G.build_grid(IV, 0.05), G.build_grid(DISC, 0.1), G.build_grid(ELLIPSE, 0.1)):
        lo, hi = np.asarray(grid.geom.bounds[0]), np.asarray(grid.geom.bounds[1])
        pts = rng.uniform(lo - 0.6, hi + 0.6, (600, grid.dim))
        assert np.any(np.any((pts < lo - grid.h) | (pts > hi + grid.h), axis=1))
        assert np.any(grid.geom.rho(pts) > 1e-12)
        new, ref = V._interp_weights(grid, pts), _interp_weights_ref(grid, pts)
        assert all(np.array_equal(getattr(new, f), getattr(ref, f))
                   for f in ("indptr", "indices", "data"))


# -- the row-major DP step, kept as the oracle of the control-major one -------
# (free rows n*C + c with the min over axis 1; the pressing controls are
# (Nb, m) in both)

def _row_major(stage, op):
    # stage (n, C) and operator row n*C + c, from the control-major (C, n)
    C, n = stage.shape
    return stage.T, op[(np.arange(C) * n + np.arange(n)[:, None]).ravel()]


def _stage_plus_ref(stage, land):
    land = land.reshape(stage.shape + land.shape[1:])
    land += stage.reshape(stage.shape + (1,) * (land.ndim - 2))
    return land


def _dp_step_cn_ref(u, tables):
    stage, op = _row_major(tables.free_stage, tables.free_op)
    return _stage_plus_ref(stage, op @ u).min(axis=1)


def _dp_step_dbc_ref(slices, tables):
    stage, op = _row_major(tables.dbc_stage, tables.free_op)
    out = _stage_plus_ref(stage, op @ slices[-1]).min(axis=1)
    j_new = len(slices)
    back = j_new - (1.0 + tables.controls.intensities)
    k0 = np.clip(np.floor(back).astype(int), 0, len(slices) - 1)
    k1 = np.clip(k0 + 1, 0, len(slices) - 1)
    a = np.clip(back - k0, 0.0, 1.0)
    lo = int(k0.min())
    land = tables.bnd_op @ np.stack(slices[lo:], axis=1)
    lerp = (1 - a) * land[:, k0 - lo] + a * land[:, k1 - lo]
    best = (tables.bnd_stage + lerp).min(axis=1)
    out[tables.bnd_rows] = np.minimum(out[tables.bnd_rows], best)
    return out


def _dp_step_cn_pressing_rows(u, tables):
    # the Neumann step with the Nb*m pressing controls as rows of their own,
    # each interpolating at its own landing point, the node: the stay-put
    # stages unfolded (a boundary node lands inside, so its dbc stage is the
    # unfolded one), then the pressing rows
    c0 = int(np.argmin(np.linalg.norm(tables.controls.velocities, axis=-1)))
    rows = tables.bnd_rows
    stage = tables.free_stage.copy()
    stage[c0, rows] = tables.dbc_stage[c0, rows]
    out = _stage_plus_ref(stage, tables.free_op @ u).min(axis=0)
    m = tables.bnd_stage.shape[1]
    op = V._interp_weights(tables.grid, np.repeat(tables.grid.nodes[rows], m, axis=0))
    bv = _stage_plus_ref(tables.bnd_stage, op @ u).min(axis=1)
    out[rows] = np.minimum(out[rows], bv)
    return out


@functools.cache
def _fixture_tables(k):
    grid, H, Bm, kw = table_fixtures()[k]
    ctl = V.build_control_set(H, Bm, grid, **kw)
    return V.build_tables(grid, H, ctl, grid.h / ctl.v_max)


def test_control_major_steps_match_row_major_oracle():
    rng = np.random.default_rng(13)
    for k in range(len(table_fixtures())):
        tables = _fixture_tables(k)
        N = tables.grid.n_nodes
        for U in (rng.uniform(-1, 1, N), rng.uniform(-1, 1, (N, 5))):
            assert np.array_equal(V.dp_step_cn(U, tables), _dp_step_cn_ref(U, tables))
        slices = [rng.uniform(-1, 1, N)]
        for _ in range(12):
            step = V.dp_step_dbc(slices, tables)
            assert np.array_equal(step, _dp_step_dbc_ref(slices, tables))
            slices.append(step)


def test_folded_pressing_step_equals_pressing_rows():
    # the pressing controls land where the stay-put control does, so their
    # min folds into its stage bit for bit
    rng = np.random.default_rng(17)
    folded = 0
    for k in range(len(table_fixtures())):
        tables = _fixture_tables(k)
        c0 = int(np.argmin(np.linalg.norm(tables.controls.velocities, axis=-1)))
        assert not tables.controls.velocities[c0].any()
        rows = tables.bnd_rows
        assert tables.bnd_stage.shape == (rows.size, tables.controls.intensities.size)
        folded += np.sum(tables.free_stage[c0, rows] < tables.dbc_stage[c0, rows])
        N = tables.grid.n_nodes
        for U in (rng.uniform(-1, 1, N), rng.uniform(-1, 1, (N, 5))):
            assert np.array_equal(V.dp_step_cn(U, tables), _dp_step_cn_pressing_rows(U, tables))
    assert folded > 0          # the g < 0 fixture presses


def test_dbc_stage_drops_landings_outside_the_closure():
    # the slow-clock stages are the Neumann ones before the fold, with every
    # free landing outside the closure priced +inf
    for k in range(len(table_fixtures())):
        tables = _fixture_tables(k)
        grid, W = tables.grid, tables.controls.velocities
        pts = grid.nodes[None, :, :] + tables.dt * W[:, None, :]
        out = grid.geom.rho(pts.reshape(-1, grid.dim)).reshape(W.shape[0], -1) > 1e-12
        assert out.any()
        assert np.all(np.isinf(tables.dbc_stage[out]))
        c0 = int(np.argmin(np.linalg.norm(W, axis=-1)))
        keep = ~out
        keep[c0, tables.bnd_rows] = False
        assert np.array_equal(tables.dbc_stage[keep], tables.free_stage[keep])


# the 1-D max_affine and the two h = 0.1 disc fixtures
PROPERTY_FIXTURES = [1, 2, 3]


def _steps(tables, stack):
    # the Neumann step on the last slice and the slow-clock step on the stack
    return V.dp_step_cn(stack[-1], tables), V.dp_step_dbc(list(stack), tables)


@pytest.mark.parametrize("k", PROPERTY_FIXTURES)
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), scale=st.floats(1e-3, 1e2),
       gap=st.floats(0.0, 10.0), shift=st.floats(-1e3, 1e3))
def test_dp_steps_monotone_nonexpansive_commute_with_constants(k, seed, scale, gap, shift):
    tables = _fixture_tables(k)
    rng = np.random.default_rng(seed)
    u = scale * rng.uniform(-1, 1, (4, tables.grid.n_nodes))
    up = u + gap * rng.uniform(0, 1, u.shape) * (rng.uniform(size=u.shape) < 0.5)
    w = u + gap * rng.uniform(-1, 1, u.shape)
    Tu, Tup, Tw, Tk = (_steps(tables, v) for v in (u, up, w, u + shift))
    dist = np.abs(u - w).max()
    for a, b, c, d in zip(Tu, Tup, Tw, Tk):
        assert np.all(a <= b)                                  # u <= up => Tu <= Tup
        assert np.abs(a - c).max() <= dist + 1e-12 * (1 + scale + gap)
        assert np.abs(d - (a + shift)).max() <= 1e-12 * (1 + scale + abs(shift))


# -- exact critical values on the disc with a boundary term that can win -------

# the first-order constant of the O(h + dt) bounds, as in the bench checks
K_FIRST_ORDER = 2.0


def affine_disc_c(g0, kind):
    """Exact critical value of H = |p|^2/2 - |x|^2/2 on the unit disc with
    B = affine(disc, g=g0), B(x, p) = n.p - g0, for the Neumann problem
    ("e1", the control kind "cn") or the dynamical one ("e2", "dbc").

    At a boundary point the viscosity tests use the gradients Dv - t n
    (subsolution: min(H, B) <= 0) and Dv + t n (supersolution:
    max(H, B) >= 0), t >= 0; under "e2" B's test level is c, not 0.

    - g0 >= -1: c = 0 for both kinds. w = |x|^2/2 solves H(x, Dw) = 0
      classically up to the boundary. At r = 1, Dw = n: H(x, (1 - t) n)
      <= 0 for t <= 2 and B(x, (1 - t) n) <= 0 for t >= 1 - g0, which
      cover every t >= 0 exactly when g0 >= -1; H(x, (1 + t) n) >= 0.
    - g0 <= -1, "e1": c = (g0^2 - 1)/2. v(r) = -int_0^r sqrt(s^2 + 2c) ds
      solves H = c inside, has a concave kink at 0 that passes the tests,
      and B(x, Dv) = -sqrt(1 + 2c) - g0 = 0 on r = 1. On the control side,
      holding the state on the boundary while pushing out at speed l costs
      L(x, -l n) + l g0 = l^2/2 + 1/2 + g0 l per unit time, whose minimum
      over l is -(g0^2 - 1)/2.
    - g0 <= -1, "e2": B(x, Dv) = c on r = 1 with |Dv| = s = sqrt(1 + 2c)
      reads -s - g0 = (s^2 - 1)/2, so s = -1 + sqrt(2 - 2 g0) and
      c = (s^2 - 1)/2. The slow clock gives the same value: the minimum
      over l >= 0 of (l^2/2 + 1/2 + g0 l)/(1 + l) is -c.

    At g0 = -2: c = 1.5 for "e1" and 0.5505 for "e2".
    """
    if g0 >= -1.0:
        return 0.0
    if kind == "e1":
        return 0.5 * (g0 ** 2 - 1.0)
    s = -1.0 + np.sqrt(2.0 - 2.0 * g0)
    return 0.5 * (s ** 2 - 1.0)


@pytest.mark.parametrize("kind", ["cn", "dbc"])
@pytest.mark.parametrize("g0", [0.0, -0.5, -2.0])
def test_value_slope_matches_exact_affine_disc_c(g0, kind):
    # u_t + H = 0 from u0 = 0 settles to v - c t: its slope over (3, 6)
    H, Bm = M.quadratic(2, BENCH_BOWL), M.affine(DISC, g=g0)
    c = affine_disc_c(g0, {"cn": "e1", "dbc": "e2"}[kind])
    for h in (0.2, 0.1):
        grid = G.build_grid(DISC, h)
        ctl = V.build_control_set(H, Bm, grid, n_velocity=9)
        tab = V.value(P.constant_field(grid, 0.0), H, Bm, kind, T=6.0, controls=ctl)
        k = int(np.argmin(np.abs(tab.times - 3.0)))
        slope = (tab.values[k] - tab.values[-1]) / (tab.times[-1] - tab.times[k])
        assert np.abs(slope - c).max() <= K_FIRST_ORDER * (h + tab.dt)
