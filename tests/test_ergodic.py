"""Discounted solves, eigenvalue limits, slope estimator, normalization."""

import dataclasses
import warnings

import numpy as np
import pytest
from scipy.optimize import brentq

from hj_neumann import ergodic as E, geometry as G, models as M, pde as P, variational as V
from hj_neumann.errors import ConvergenceError, NumericalError
from hj_neumann.pde import stationary_residual

IV = G.interval(0.0, 1.0)
BN = M.neumann(IV)
DISC = G.disc(0.0, 0.0, 1.0)


def test_discounted_constant_hamiltonian():
    # H = p^2/2 - 1: u_eps is the constant 1/eps, so eps*u_eps = 1
    grid = G.build_grid(IV, 0.02)
    H = M.poly1d([-1.0, 0.0, 0.5])
    u = E.discounted_solve(H, BN, 0.1, "e1", P.constant_field(grid, 0.0))
    np.testing.assert_allclose(0.1 * u.values, 1.0, atol=1e-10)


def test_discounted_zero_level_gives_zero():
    grid = G.build_grid(IV, 0.02)
    u = E.discounted_solve(M.quadratic(1), BN, 0.05, "e1",
                           P.constant_field(grid, 0.0))
    assert np.abs(u.values).max() <= 1e-10


def test_discount_bound_along_schedule():
    # |eps u_eps| <= max|H(x, 0)| for every eps
    grid = G.build_grid(IV, 0.02)
    H = M.quadratic(1, potential="0.8*cos(2*pi*x)")
    m1 = float(np.abs(H(grid.nodes, np.zeros(1))).max())
    u = P.constant_field(grid, 0.0)
    for eps in (0.1, 0.03, 0.01):
        u = E.discounted_solve(H, BN, eps, "e1", u)
        assert np.abs(eps * u.values).max() <= m1 + 1e-6


def test_discounted_solve_calls_h_only_at_build(monkeypatch):
    # a radial H: rhs makes no H call and the discount bound reads the
    # Stepper's h0; the damping is built without sparse.eye_array, which
    # the SciPy 1.10 that pyproject.toml admits does not have
    grid = G.build_grid(DISC, 0.25)
    H = M.quadratic(2, "0.3*cos(pi*x)*cos(pi*y)")
    calls, call = [], M.Hamiltonian.__call__
    monkeypatch.setattr(M.Hamiltonian, "__call__",
                        lambda self, x, p: calls.append(1) or call(self, x, p))
    monkeypatch.delattr(P.sparse, "eye_array", raising=False)
    E.discounted_solve(H, M.neumann(DISC), 0.1, "e1", P.constant_field(grid, 0.0))
    assert len(calls) == 1          # the build's h0, which sets the level and min H(x, 0)


def test_discounted_solve_refreshes_for_steep_solution(monkeypatch):
    # g = 5 on both ends of [0, 1] drives slopes past the radius 3.38 fixed
    # from u = 0: the solve refreshes once and then solves the refreshed
    # operator
    grid = G.build_grid(IV, 0.05)
    H, Bm = M.quadratic(1), M.affine(IV, g=5.0)
    bounds = []
    refresh = P.Stepper.refresh
    monkeypatch.setattr(P.Stepper, "refresh", lambda st, b: bounds.append(b) or refresh(st, b))
    u = E.discounted_solve(H, Bm, 0.1, "e2", P.constant_field(grid, 0.0)).values
    assert len(bounds) == 2                      # the build, then one refresh
    st = P.Stepper(grid, H, Bm, "e2", grad_bound=bounds[-1])
    assert st.radius > P.discrete_lipschitz(grid, u) + 1.0
    assert np.abs(0.1 * u + st.rhs(u)).max() <= 1e-10


def test_discounted_solve_one_rhs_call_per_newton_step(monkeypatch):
    # a profile-less H with a custom B: the Jacobian makes no rhs call, so
    # each Newton step makes one rhs and one jacobian call
    grid = G.build_grid(DISC, 0.2)
    H = dataclasses.replace(M.quadratic(2, "0.3*cos(pi*x)*cos(pi*y)"), profile=None,
                            dprofile=None)
    Bm = M.neumann(DISC)
    counts = {"rhs": 0, "jacobian": 0}
    for name in counts:
        def counted(st, *args, name=name, call=getattr(P.Stepper, name), **kw):
            counts[name] += 1
            return call(st, *args, **kw)
        monkeypatch.setattr(P.Stepper, name, counted)
    E.discounted_solve(H, M.custom_boundary(DISC, Bm.fn, Bm.theta, Bm.lip), 0.1, "e1",
                       P.constant_field(grid, 0.0))
    assert counts["rhs"] == counts["jacobian"] >= 2


@pytest.mark.parametrize("h", [0.2, 0.1])
def test_custom_twin_eigenpair_meets_the_catalog(h):
    # neumann as a custom_boundary, its root bisected to rounding, with H as
    # given and without its profile: the eigenpair is the catalog one
    grid = G.build_grid(DISC, h)
    H, Bm = M.quadratic(2, "0.3*cos(pi*x)*cos(pi*y)"), M.neumann(DISC)
    ref = E.ergodic_limit(H, Bm, grid)
    twin = M.custom_boundary(DISC, Bm.fn, Bm.theta, Bm.lip)
    for Hm in (H, dataclasses.replace(H, profile=None, dprofile=None)):
        pair = E.ergodic_limit(Hm, twin, grid)
        assert abs(pair.c - ref.c) <= 1e-12
        assert np.abs(pair.v.values - ref.v.values).max() <= 1e-12


def test_equi_lipschitz_in_eps():
    grid = G.build_grid(IV, 0.02)
    H = M.quadratic(1, potential="0.8*cos(2*pi*x)")
    u = P.constant_field(grid, 0.0)
    lips = []
    for eps in (0.1, 0.03, 0.01, 0.003):
        u = E.discounted_solve(H, BN, eps, "e1", u)
        lips.append(P.discrete_lipschitz(grid, u.values))
    assert max(lips) <= 2.0 * max(lips[0], 1.0)


def test_double_well_eigenvalue_is_one():
    grid = G.build_grid(IV, 0.02)
    pair = E.ergodic_limit(M.double_well(1), BN, grid)
    assert pair.c == pytest.approx(1.0, abs=5e-2)
    assert pair.residual <= 1e-10
    assert pair.v.values[pair.anchor] == 0.0


def test_eikonal_eigenvalue_zero_flat_eigenfunction():
    grid = G.build_grid(IV, 0.02)
    pair = E.ergodic_limit(M.eikonal(1), BN, grid,
                           epsilon_schedule=(0.1, 0.03, 0.01))
    assert abs(pair.c) <= 1e-10
    assert np.abs(pair.v.values).max() <= 1e-10


def test_cosine_well_eigenvalue_extrapolated():
    # H = p^2/2 + W, max W = 2; first-order-in-h eigenvalues from two grids
    # extrapolate to the analytic value
    H = M.quadratic(1, potential="2*cos(2*pi*x)")
    c, pair = E.eigenvalue_extrapolated(H, BN, IV, h=0.02)
    assert c == pytest.approx(2.0, abs=5e-2)


def test_slope_estimator_constant_case():
    grid = G.build_grid(IV, 0.05)
    H = M.poly1d([0.6, 0.0, 0.5])      # H(0) = 0.6
    stf = P.evolve(P.constant_field(grid, 0.0), H, BN, "cn", T=2.0,
                   record_every=0.5)
    assert E.large_time_slope(stf, 1.0, 2.0) == pytest.approx(0.6, abs=1e-12)


def test_slope_agrees_with_discounted():
    grid = G.build_grid(IV, 0.02)
    H = M.quadratic(1, potential="2*cos(2*pi*x)")
    pair = E.ergodic_limit(H, BN, grid, epsilon_schedule=(0.1, 0.01, 0.001))
    stf = P.evolve(P.constant_field(grid, 0.0), H, BN, "cn", T=24.0,
                   record_every=2.0)
    assert abs(E.large_time_slope(stf, 12.0, 24.0) - pair.c) <= 1e-2


@pytest.mark.parametrize("h", [0.2, 0.1])
def test_disc_march_slope_meets_discrete_eigenvalue(h):
    # the bench disc model, H = |p|^2/2 - |x|^2/2 with the Neumann
    # condition: the march from u0 = 0 settles on the slope of its own
    # operator's eigenvalue c_h
    grid = G.build_grid(DISC, h)
    H = M.quadratic(2, lambda x: -0.5 * np.sum(x ** 2, axis=-1))
    Bm = M.neumann(DISC)
    c = E.ergodic_limit(H, Bm, grid).c
    stf = P.evolve(P.constant_field(grid, 0.0), H, Bm, "cn", T=16.0, record_every=1.0)
    assert abs(E.large_time_slope(stf, 8.0, 16.0) - c) <= 1e-3


EIKONAL_FIXTURES = {
    "interval-eps-1e-3": (IV, 0.02, M.eikonal(1, "1 + cos(2*pi*x)"), (0.001,)),
    "interval-eps-0.1": (IV, 0.02, M.eikonal(1, "1 + cos(2*pi*x)"), (0.1,)),
    "disc-h-0.2": (DISC, 0.2, M.eikonal(2, "0.5*(x**2 + y**2)"), (0.001,)),
    "disc-h-0.1": (DISC, 0.1, M.eikonal(2, "0.5*(x**2 + y**2)"), (0.001,)),
}


@pytest.mark.parametrize("name", EIKONAL_FIXTURES)
def test_eikonal_eigenpair_meets_the_march(name):
    # a speed that is not constant puts the slopes of u0 = 0 on the kink of
    # |p|: the Newton solves converge with the model's minimal-norm element
    # there, and c_h meets the march's slope from u0 = 0
    geom, h, H, schedule = EIKONAL_FIXTURES[name]
    grid = G.build_grid(geom, h)
    Bm = M.neumann(geom)
    pair = E.ergodic_limit(H, Bm, grid, epsilon_schedule=schedule)
    assert pair.residual <= 1e-10
    stf = P.evolve(P.constant_field(grid, 0.0), H, Bm, "cn", T=16.0, record_every=1.0)
    assert abs(E.large_time_slope(stf, 8.0, 16.0) - pair.c) <= 1e-3


def test_slope_divides_by_the_stamps_read():
    # stamps 0.3 apart do not divide the window (1, 2): it reads 0.9 and 2.1,
    # and u = -0.6 t gives the slope 0.6 only over their difference 1.2
    grid = G.build_grid(IV, 0.05)
    times = 0.3 * np.arange(9)
    stf = P.SpaceTimeField(grid, times, -0.6 * np.outer(times, np.ones(grid.n_nodes)), 0.3)
    assert E.large_time_slope(stf, 1.0, 2.0) == pytest.approx(0.6, rel=1e-12)
    with pytest.raises(NumericalError, match="same stamp"):
        E.large_time_slope(stf, 0.95, 1.0)


def test_stationary_residual_of_pair():
    grid = G.build_grid(IV, 0.02)
    H = M.quadratic(1, potential="0.8*cos(2*pi*x)")
    pair = E.ergodic_limit(H, BN, grid)
    res = stationary_residual(pair.v, H, BN, "e1", level=pair.c)
    tol = 10 * 0.001 * (1 + np.abs(pair.v.values).max())
    assert np.abs(res).max() <= tol


def test_normalize_shifts():
    H = M.double_well(1)
    Hn, Bn2 = E.normalize(H, BN, 0.0)
    assert Hn is H and Bn2 is BN
    Hn, Bn2 = E.normalize(H, BN, 1.0)
    p = np.array([[0.0]])
    x = np.array([[0.5]])
    # one point of shape (1, dim) gives values of shape (1,), shift or not
    assert Hn(x, p).shape == H(x, p).shape == (1,)
    assert Hn(x, p).item() == pytest.approx(H(x, p).item() - 1.0)
    assert Bn2 is BN                     # e1 leaves B alone
    assert E.normalize(H, BN, 1.0, kind="cn")[1] is BN
    assert E.normalize(H, BN, 1.0, kind="dbc")[1] is not BN
    Ba = M.affine(IV, g=0.2)
    _, Bs = E.normalize(H, Ba, 0.5, kind="e2")
    b = Bs(np.array([1.0]), np.zeros(1))
    assert np.ndim(b) == 0               # a single point of shape (dim,)
    assert float(b) == pytest.approx(-0.7)


def test_e2_dynamical_eigenproblem():
    # H = p^2/2 - 1 with B = p.n: the scheme enforces the boundary equation
    # in the strong sense, whose level-a matching |a| = sqrt(2(1+a)) has the
    # root a = 1 - sqrt(3) (classical tent profile); the solver converges to
    # it under h-refinement
    grid = G.build_grid(IV, 0.01)
    H = M.poly1d([-1.0, 0.0, 0.5])
    pair = E.ergodic_limit(H, BN, grid, kind="e2",
                           epsilon_schedule=(0.1, 0.03, 0.01))
    assert pair.c == pytest.approx(1.0 - np.sqrt(3.0), abs=1e-3)


def test_subsolution_probe_below_eigenvalue():
    grid = G.build_grid(IV, 0.02)
    H = M.double_well(1)
    probe = E.subsolution_probe(H, BN, grid, "e1", level=0.5)
    assert probe <= -0.25          # residual bounded away from zero
    probe_at = E.subsolution_probe(H, BN, grid, "e1", level=1.0)
    assert abs(probe_at) <= 0.05


def test_schedule_validation():
    grid = G.build_grid(IV, 0.05)
    with pytest.raises(NumericalError):
        E.ergodic_limit(M.quadratic(1), BN, grid, epsilon_schedule=(0.01, 0.1))
    with pytest.raises(NumericalError):
        E.ergodic_limit(M.quadratic(1), BN, grid, epsilon_schedule=(0.1, 1e-5))
    with pytest.raises(NumericalError, match="epsilon schedule"):
        E.ergodic_limit(M.quadratic(1), BN, grid, epsilon_schedule=())
    with pytest.raises(NumericalError):
        E.discounted_solve(M.quadratic(1), BN, 1.5, "e1",
                           P.constant_field(grid, 0.0))


@pytest.mark.parametrize("solve", [
    lambda grid, kind: stationary_residual(P.constant_field(grid, 0.0), M.quadratic(1),
                                           BN, kind),
    lambda grid, kind: E.ergodic_limit(M.quadratic(1), BN, grid, kind),
    lambda grid, kind: E.discounted_solve(M.quadratic(1), BN, 0.1, kind,
                                          P.constant_field(grid, 0.0)),
    lambda grid, kind: E.normalize(M.quadratic(1), BN, 0.5, kind),
    lambda grid, kind: V.value(P.constant_field(grid, 0.0), M.quadratic(1), BN, kind, T=0.1),
], ids=["stationary_residual", "ergodic_limit", "discounted_solve", "normalize", "value"])
def test_unknown_kind_rejected(solve):
    # "cn"/"e1" select the Neumann scheme and "dbc"/"e2" the dynamical one;
    # any other kind is an error, not the dynamical scheme
    grid = G.build_grid(IV, 0.05)
    for kind in ("cn", "e1", "dbc", "e2"):
        solve(grid, kind)
    for kind in ("neumann", "bogus"):
        with pytest.raises(NumericalError, match="unknown problem kind"):
            solve(grid, kind)


def test_anchored_polish_reaches_machine_fixed_point():
    # the eigenpair solve ends at the scheme's discrete eigenvalue whichever
    # discounted solve starts it, and its pair is a fixed point of the
    # operator rebuilt from v alone
    grid = G.build_grid(IV, 0.02)
    H = M.quadratic(1, potential="0.8*cos(2*pi*x)")
    pair = E.ergodic_limit(H, BN, grid, epsilon_schedule=(0.1, 0.01))
    ref = E.ergodic_limit(H, BN, grid)
    assert abs(ref.c - pair.c) <= 1e-10
    assert pair.residual <= 1e-10
    res = stationary_residual(pair.v, H, BN, "e1", level=pair.c)
    assert np.abs(res).max() <= 1e-10


def test_discounted_solve_reports_history_on_cap(monkeypatch):
    grid = G.build_grid(IV, 0.02)
    H = M.quadratic(1, potential="0.8*cos(2*pi*x)")
    monkeypatch.setattr(E, "NEWTON_STEPS", 1)
    with pytest.raises(ConvergenceError) as exc:
        E.discounted_solve(H, BN, 0.1, "e1", P.constant_field(grid, 0.0), tol=1e-14)
    assert len(exc.value.history) == 1
    assert exc.value.history[0] > 1e-14


def test_discounted_solve_from_zero_keeps_the_operator():
    # the first Newton iterate from zero overshoots the slopes of u_eps; the
    # dissipation follows the converged field, not the iterates on the way
    grid = G.build_grid(IV, 0.02)
    H = M.quadratic(1, potential="0.8*cos(2*pi*x)")
    st = P.Stepper(grid, H, BN, "cn", grad_bound=1.0)
    for eps in (0.03, 0.001):
        u = E.discounted_solve(H, BN, eps, "e1", P.constant_field(grid, 0.0), tol=1e-12)
        assert P.discrete_lipschitz(grid, u.values) < st.radius - 1.0
        assert np.abs(eps * u.values + st.rhs(u.values)).max() <= 1e-10


def tilted_max_affine(geom):
    """max(gamma_+ . p, gamma_- . p) with gamma_+- = n +- t/2 on the disc."""
    def gamma(s):
        def g(pts):
            n = geom.unit_normal(pts)
            return n + s * np.stack([-n[..., 1], n[..., 0]], axis=-1)
        return g
    return M.max_affine(geom, [(gamma(0.5), 0.0), (gamma(-0.5), 0.0)])


def test_tangential_max_affine_disc_schedule():
    # a tangential part in gamma stalled the per-node solver at eps = 0.01
    grid = G.build_grid(DISC, 0.2)
    H = M.quadratic(2, "0.3*cos(pi*x)*cos(pi*y)")
    Bm = tilted_max_affine(DISC)
    schedule = (0.1, 0.03, 0.01)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pair = E.ergodic_limit(H, Bm, grid, "e1", schedule)
    assert pair.residual <= 1e-10
    u = P.constant_field(grid, 0.0)
    for eps in schedule:
        lip = max(P.discrete_lipschitz(grid, u.values), 1.0)
        u = E.discounted_solve(H, Bm, eps, "e1", u, tol=1e-12)
        st = P.Stepper(grid, H, Bm, "cn", grad_bound=lip)
        assert np.abs(eps * u.values + st.rhs(u.values)).max() <= 1e-10


# -- the per-node Gauss-Seidel solver as a reference ---------------------------

def root_increasing(f, x0, slope_min):
    # root of a scalar function that grows at least linearly at rate slope_min
    f0 = f(x0)
    if f0 == 0.0:
        return x0
    sgn = -1.0 if f0 > 0 else 1.0
    step = abs(f0) / slope_min + 1e-12
    for _ in range(60):
        far = x0 + sgn * step
        if sgn * f(far) >= 0:
            return brentq(f, min(x0, far), max(x0, far), xtol=1e-13)
        step *= 2.0
    raise AssertionError("node solve failed to bracket the root")


def gauss_seidel_discounted(st, eps, u, tol, max_sweeps=5000):
    # per-node Gauss-Seidel with exact scalar solves and a constant shift per
    # sweep, the discounted solver Newton replaced; returns (u, sweeps). A cn
    # boundary node whose value enters the inward normal slope positively
    # takes four fixed-point passes, which solve its equation only when the
    # boundary root does not move with the tangential slope: no reference on
    # a disc with a tangential part in gamma
    grid = st.grid
    nodes, sig = grid.nodes, st.sigma
    bpos = {int(k): j for j, k in enumerate(st.bidx)}
    inw_idx, inw_gap = grid.neighbors.ravel()[st.q_at].T, grid.gaps.ravel()[st.q_at].T
    fin = np.isfinite(inw_gap)
    side = (st.q_at // (grid.dim * grid.n_nodes)).T
    sgn = np.where(inw_idx >= 0, 1 - 2 * side, 0)
    q_coef = np.where(fin, sgn / np.where(fin, inw_gap, 1.0), 0.0)
    lat = grid.lattice_index
    if grid.dim == 1:
        fwd = np.argsort(lat[:, 0], kind="stable")
        orders = [fwd, fwd[::-1]]
    else:
        orders = [np.lexsort((sy * lat[:, 1], sx * lat[:, 0]))
                  for sx in (1, -1) for sy in (1, -1)]

    def lam(x, qt, n):
        forms = P._form_values(st.Bm, x[None], n[None])
        return float(P._ghost_solve_many(st.Bm, x[None], qt[None], n[None], forms)[0])

    def interior(u, i):
        x = nodes[i]
        uW, uE = u[st.idx[0, :, i]], u[st.idx[1, :, i]]
        gW, gE = st.gap[0, :, i], st.gap[1, :, i]

        def f(ui):
            pW, pE = (ui - uW) / gW, (uE - ui) / gE
            return (eps * ui + float(st.H(x, 0.5 * (pW + pE)))
                    - 0.5 * float(np.sum(sig * (pE - pW))))
        return root_increasing(f, float(u[i]), eps)

    def boundary(u, i):
        j = bpos[i]
        x, n, coef = nodes[i], st.bn[j], q_coef[:, j]
        nb = inw_idx[:, j]
        base = -coef * np.where(nb >= 0, u[np.maximum(nb, 0)], 0.0)
        if st.kind == "dbc":
            return root_increasing(lambda v: eps * v + float(st.Bm(x, base + coef * v)),
                                   float(u[i]), eps)
        b, sig_n, ui = float(coef @ n), float(st.sig_n[j]), float(u[i])
        if b <= 0:
            def f(v):
                q = base + coef * v
                qn = float(q @ n)
                qt = q - qn * n
                lm = lam(x, qt, n)
                return (eps * v + float(st.H(x[None], (qt + lm * n)[None])[0])
                        - sig_n * (lm - qn))
            return root_increasing(f, ui, eps)
        for _ in range(4 if grid.dim > 1 else 1):
            q = base + coef * ui
            qt = q - float(q @ n) * n
            lm = lam(x, qt, n)
            hval = float(st.H(x[None], (qt + lm * n)[None])[0])
            new = (sig_n * lm - hval - sig_n * float(base @ n)) / (eps + sig_n * b)
            done = abs(new - ui) <= 1e-14 * (1 + abs(new))
            ui = new
            if done:
                break
        return ui

    u = u.copy()
    for it in range(max_sweeps):
        shift = -float((eps * u + st.rhs(u)).mean()) / eps
        u += shift
        delta = abs(shift)
        for i in orders[it % len(orders)]:
            new = boundary(u, i) if grid.boundary[i] else interior(u, i)
            delta = max(delta, abs(new - u[i]))
            u[i] = new
        if delta <= tol:
            return u, it + 1
    raise AssertionError("reference sweep did not settle")


ORACLE_FIXTURES = {
    "cosine-well": (IV, 0.02, M.quadratic(1, potential="-cos(2*pi*x) - 1"), BN, "e1"),
    "max-affine-1d": (IV, 0.02, M.quadratic(1, potential="0.8*cos(2*pi*x)"),
                      M.max_affine(IV, [(1.0, 0.2), (2.0, 0.5)]), "e1"),
    "e2": (IV, 0.02, M.poly1d([-1.0, 0.0, 0.5]), BN, "e2"),
    "bench-disc": (DISC, 0.25, M.quadratic(2, "-0.5*(x**2 + y**2)"), M.neumann(DISC), "e1"),
}


@pytest.mark.parametrize("name", ORACLE_FIXTURES)
def test_newton_is_the_gauss_seidel_fixed_point(name):
    # the reference contracts slowly on these (up to ~1e4 sweeps from zero),
    # so it starts at the Newton field and must settle there
    geom, h, H, Bm, kind = ORACLE_FIXTURES[name]
    grid = G.build_grid(geom, h)
    for eps in (0.1, 0.01):
        u = E.discounted_solve(H, Bm, eps, kind, P.constant_field(grid, 0.0), tol=1e-12)
        st = P.Stepper(grid, H, Bm, "cn" if kind == "e1" else "dbc", grad_bound=1.0)
        assert st.radius > P.discrete_lipschitz(grid, u.values) + 1.0   # no refresh
        ref, _ = gauss_seidel_discounted(st, eps, u.values, 1e-12)
        assert np.abs(u.values - ref).max() <= 1e-8


def test_gauss_seidel_from_zero_reaches_newton():
    geom, h, H, Bm, kind = ORACLE_FIXTURES["bench-disc"]
    grid = G.build_grid(geom, h)
    u = E.discounted_solve(H, Bm, 0.1, kind, P.constant_field(grid, 0.0), tol=1e-12)
    st = P.Stepper(grid, H, Bm, "cn", grad_bound=1.0)
    ref, sweeps = gauss_seidel_discounted(st, 0.1, np.zeros(grid.n_nodes), 1e-12)
    assert sweeps > 1
    assert np.abs(u.values - ref).max() <= 1e-8


# -- the eigenpair solve against the discounted problem -------------------------

@pytest.mark.parametrize("name", ORACLE_FIXTURES)
def test_eigenpair_within_discrete_comparison_bound(name):
    # v - c/eps - max v and v - c/eps - min v are a discounted sub- and
    # supersolution, so comparison gives |eps u_eps(x0) + c| <= eps osc(v)
    geom, h, H, Bm, kind = ORACLE_FIXTURES[name]
    grid = G.build_grid(geom, h)
    pair = E.ergodic_limit(H, Bm, grid, kind)
    assert pair.residual <= 1e-10
    osc = float(np.ptp(pair.v.values))
    for eps in (0.1, 0.01):
        u = E.discounted_solve(H, Bm, eps, kind, P.constant_field(grid, 0.0), tol=1e-12)
        assert abs(eps * u.values[pair.anchor] + pair.c) <= eps * osc


SELECTION_FIXTURES = {
    "double-well": (IV, M.double_well(1)),
    "cosine-two-wells": (G.interval(-1.0, 1.0), M.quadratic(1, potential="-0.5*cos(2*pi*x)")),
}


@pytest.mark.parametrize("name", SELECTION_FIXTURES)
def test_eigenfunction_follows_the_discounted_start(name):
    # with two maxima of V the eigenfunction is not unique up to constants;
    # the discounted start selects it (Davini, Fathi, Iturriaga & Zavidovique,
    # Invent. Math. 206, 2016), the same from eps = 0.1 as from 0.001 and
    # close to u_eps - u_eps(x0) at eps = 0.001
    geom, H = SELECTION_FIXTURES[name]
    Bm = M.neumann(geom)
    grid = G.build_grid(geom, 0.02)
    coarse = E.ergodic_limit(H, Bm, grid, epsilon_schedule=(0.1,))
    fine = E.ergodic_limit(H, Bm, grid, epsilon_schedule=(0.001,))
    assert coarse.residual <= 1e-10 and fine.residual <= 1e-10
    assert np.abs(coarse.v.values - fine.v.values).max() <= 1e-10
    u = E.discounted_solve(H, Bm, 0.001, "e1", P.constant_field(grid, 0.0)).values
    assert np.abs(fine.v.values - (u - u[fine.anchor])).max() <= 1e-3


def test_ergodic_limit_reports_history_on_cap(monkeypatch):
    grid = G.build_grid(IV, 0.02)
    H = M.quadratic(1, potential="0.8*cos(2*pi*x)")
    # the discounted start is solved uncapped, so the cap meets the eigenpair steps
    start = E.discounted_solve(H, BN, E.DEFAULT_SCHEDULE[-1], "e1", P.constant_field(grid, 0.0))
    monkeypatch.setattr(E, "discounted_solve", lambda *args: start)
    monkeypatch.setattr(E, "NEWTON_STEPS", 1)
    with pytest.raises(ConvergenceError, match="eigenpair solve") as exc:
        E.ergodic_limit(H, BN, grid)
    assert len(exc.value.history) == 1
    assert exc.value.history[0] > E.EIGEN_TOL
