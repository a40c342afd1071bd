"""Intrinsic distance, Aubry mask, asymptotic profile, monotonicity traces."""

import numpy as np
import pytest
from scipy import sparse
from scipy.integrate import quad

from hj_neumann import ergodic as E, geometry as G, models as M, pde as P
from hj_neumann import variational as V, weak_kam as W
from hj_neumann.errors import ConvergenceError, NormalizationError, NumericalError

IV = G.interval(0.0, 1.0)
DISC = G.disc(0.0, 0.0, 1.0)

# normalized cosine well: H = p^2/2 - cos(2 pi x) - 1, single interior
# maximum of the effective potential at x* = 0.5, eigenvalue 0
COSINE = "-cos(2*pi*x) - 1"


def agmon_oracle(xs, xstar=0.5):
    # d(x, x*) = |int_{x*}^{x} sqrt(2 (1 + cos(2 pi s))) ds|, integrand 2|cos(pi s)|
    return np.array([abs(quad(lambda s: 2 * abs(np.cos(np.pi * s)), xstar, x)[0])
                     for x in xs])


def cosine_setup(h, nv=65):
    grid = G.build_grid(IV, h)
    H = M.quadratic(1, potential=COSINE)
    Bm = M.neumann(IV)
    ctrl = V.build_control_set(H, Bm, grid, n_velocity=nv, v_max=2.5)
    return grid, H, Bm, ctrl


def test_eikonal_distance_vanishes_and_aubry_is_everything():
    grid = G.build_grid(IV, 0.02)
    H, Bm = M.eikonal(1), M.neumann(IV)
    ctrl = V.build_control_set(H, Bm, grid)
    act = W.action_matrix(grid, H, Bm, controls=ctrl)
    assert np.abs(act.d).max() <= 5e-3        # zero-cost loops connect everything
    mask = W.aubry_set(act)
    assert mask.nodes.size == grid.n_nodes


def test_eikonal_asymptotic_profile_is_min_u0():
    grid = G.build_grid(IV, 0.02)
    H, Bm = M.eikonal(1), M.neumann(IV)
    act = W.action_matrix(grid, H, Bm,
                          controls=V.build_control_set(H, Bm, grid))
    mask = W.aubry_set(act)
    u0 = P.field_from(grid, lambda x: x[:, 0])
    prof = W.asymptotic_profile(u0, act, mask)
    assert np.abs(prof.values - u0.values.min()).max() <= 5e-3


def test_distance_diag_zero_and_triangle_sampled():
    grid, H, Bm, ctrl = cosine_setup(0.02)
    act = W.action_matrix(grid, H, Bm, controls=ctrl)
    assert np.abs(np.diag(act.d)).max() == 0.0
    rng = np.random.default_rng(0)
    dt = act.tables.dt
    worst = 0.0
    for _ in range(1000):
        i, j, k = rng.integers(0, grid.n_nodes, 3)
        worst = max(worst, act.d[i, k] - act.d[i, j] - act.d[j, k])
    assert worst <= 2 * (grid.h + dt)


def test_distance_is_discrete_subsolution():
    grid, H, Bm, ctrl = cosine_setup(0.02)
    tables = W.distance_tables(grid, H, Bm, controls=ctrl)
    y = grid.centroid_node()
    d = W.distances(tables, [y]).column(y)
    resid = W.dp_residual(tables, d)
    off = np.arange(grid.n_nodes) != y
    assert resid[off].max() <= grid.h          # d <= T[d] away from the pin


def test_cosine_distance_matches_agmon_quadrature():
    grid, H, Bm, ctrl = cosine_setup(0.005, nv=129)
    xstar = int(np.argmin(np.abs(grid.nodes[:, 0] - 0.5)))
    d = W.distances(W.distance_tables(grid, H, Bm, ctrl), [xstar]).column(xstar)
    oracle = agmon_oracle(grid.nodes[:, 0])
    rel = np.abs(d - oracle).max() / oracle.max()
    assert rel <= 0.02


def test_cosine_aubry_mask_localizes():
    grid, H, Bm, ctrl = cosine_setup(0.02)
    act = W.action_matrix(grid, H, Bm, controls=ctrl)
    mask = W.aubry_set(act)
    xs = grid.nodes[mask.nodes][:, 0]
    assert xs.size >= 1
    assert np.abs(xs - 0.5).max() <= 0.1


def test_distance_row_matches_column_for_even_lagrangian():
    grid, H, Bm, ctrl = cosine_setup(0.01, nv=65)
    xstar = int(np.argmin(np.abs(grid.nodes[:, 0] - 0.5)))
    col = W.distances(W.distance_tables(grid, H, Bm, ctrl), [xstar]).column(xstar)
    row = W.distances(W.distance_tables(grid, H, Bm, ctrl, reverse=True),
                      [xstar]).column(xstar)
    assert np.abs(col - row).max() <= 3 * grid.h


def test_asymptotic_profile_solves_stationary_recursion():
    grid, H, Bm, ctrl = cosine_setup(0.02)
    act = W.action_matrix(grid, H, Bm, controls=ctrl)
    mask = W.aubry_set(act)
    u0 = P.field_from(grid, lambda x: x[:, 0])
    prof = W.asymptotic_profile(u0, act, mask)
    resid = W.dp_residual(act.tables, prof.values)
    assert resid.max() <= grid.h               # subsolution side
    assert resid.min() >= -5 * (grid.h + act.tables.dt)


def test_asymptotic_profile_independent_of_source_order():
    grid, H, Bm, ctrl = cosine_setup(0.05, nv=33)
    N = grid.n_nodes
    u0 = P.field_from(grid, lambda x: x[:, 0])
    act = W.action_matrix(grid, H, Bm, controls=ctrl)
    ref = W.asymptotic_profile(u0, act, W.aubry_set(act))
    for perm in (np.random.default_rng(0).permutation(N), np.arange(N)[::-1]):
        a = W.action_matrix(grid, H, Bm, controls=ctrl, sources=perm)
        prof = W.asymptotic_profile(u0, a, W.aubry_set(a))
        assert np.abs(prof.values - ref.values).max() <= 1e-12
    part = W.action_matrix(grid, H, Bm, controls=ctrl, sources=np.arange(N - 1))
    with pytest.raises(NumericalError):
        part.column(N - 1)
    with pytest.raises(NumericalError):
        W.asymptotic_profile(u0, part, W.aubry_set(part))


def gauss_seidel_distance(tables, pinned, tol, max_sweeps=20000):
    # per-node Gauss-Seidel fast sweeping, the distance engine that value
    # iteration replaced; a reference for the fixed point. A boundary node's
    # pressing controls (one per rung) land on the node through its one
    # bnd_op row
    grid = tables.grid
    N = grid.n_nodes
    free = [tables.free_op[i::N] for i in range(N)]
    bnd = {int(k): (tables.bnd_stage[j], tables.bnd_op[j])
           for j, k in enumerate(tables.bnd_rows)}
    d = np.full(grid.n_nodes, 1e7)
    d[pinned] = 0.0
    fwd = np.argsort(grid.lattice_index[:, 0], kind="stable")
    orders = [fwd, fwd[::-1]]           # alternating sweeps on the 1-D lattice
    for it in range(max_sweeps):
        change = 0.0
        for i in orders[it % len(orders)]:
            if i == pinned:
                continue
            cand = np.min(tables.free_stage[:, i] + free[i] @ d)
            if i in bnd:
                cand = min(cand, np.min(bnd[i][0] + bnd[i][1] @ d))
            if cand < d[i] - 1e-15:
                change = max(change, d[i] - cand)
                d[i] = cand
        if change <= tol and d.max() < 1e7:
            return d
    raise AssertionError("reference sweep did not settle")


def test_value_iteration_matches_gauss_seidel_reference():
    grid = G.build_grid(IV, 0.05)
    H = M.quadratic(1, potential=COSINE)
    Bm = M.max_affine(IV, [(1.0, 0.2), (2.0, 0.5)])
    ctrl = V.build_control_set(H, Bm, grid, n_velocity=17, v_max=2.5)
    for reverse in (False, True):
        tables = W.distance_tables(grid, H, Bm, controls=ctrl, reverse=reverse)
        for y in (0, grid.centroid_node(), grid.n_nodes - 1):
            d = W.distances(tables, [y]).column(y)
            ref = gauss_seidel_distance(tables, y, 1e-12)
            assert np.abs(d - ref).max() <= 1e-9


def weak_kam_1d_setup():
    # the weak-kam-1d bench set-up: cosine well, two affine boundary forms
    grid = G.build_grid(IV, 0.025)
    H = M.quadratic(1, potential=COSINE)
    Bm = M.max_affine(IV, [(1.0, 0.2), (2.0, 0.5)])
    return grid, H, Bm, V.build_control_set(H, Bm, grid, n_velocity=33, v_max=2.5)


def eikonal_setup():
    grid = G.build_grid(IV, 0.02)
    H, Bm = M.eikonal(1), M.neumann(IV)
    return grid, H, Bm, V.build_control_set(H, Bm, grid)


def disc_setup():
    # the bench disc model; no control lands on a snapped boundary node
    # alone, so those sources reach their first nodes through mixed stencils
    grid = G.build_grid(DISC, 0.2)
    H, Bm = M.quadratic(2, "-0.5*(x**2 + y**2)"), M.neumann(DISC)
    return grid, H, Bm, V.build_control_set(H, Bm, grid, n_velocity=9)


SETUPS = {"cosine": lambda: cosine_setup(0.02), "weak-kam-1d": weak_kam_1d_setup,
          "eikonal": eikonal_setup, "disc": disc_setup}


def value_iteration_distance(tables, sources, tol, max_steps=100000):
    # batched monotone value iteration d <- min(d, T d) from 1e7 with the
    # pins at 0, the distance engine that policy iteration replaced; stops
    # once (d - T d)/dt <= tol off the pins. A reference for the fixed point
    big = 1e7
    pins = (sources, np.arange(sources.size))
    d = np.full((tables.grid.n_nodes, sources.size), big)
    d[pins] = 0.0
    for _ in range(max_steps):
        Td = np.minimum(d, V.dp_step_cn(d, tables))
        Td[pins] = 0.0
        if np.max(d - Td) <= tol * tables.dt and np.max(d) < big:
            return d
        d = Td
    raise AssertionError("reference value iteration did not settle")


@pytest.mark.parametrize("name", sorted(SETUPS))
def test_distance_columns_solve_the_recursion(name):
    grid, H, Bm, ctrl = SETUPS[name]()
    act = W.action_matrix(grid, H, Bm, controls=ctrl)
    resid = W.dp_residual(act.tables, act.d)
    resid[act.sources, np.arange(act.sources.size)] = 0.0
    assert np.abs(resid).max() <= 1e-12


def test_action_matrix_column_equals_single_source_distances():
    grid, H, Bm, ctrl = weak_kam_1d_setup()
    act = W.action_matrix(grid, H, Bm, controls=ctrl)
    for y in (0, grid.centroid_node(), grid.n_nodes - 1):
        col = W.distances(act.tables, [y]).column(y)
        assert np.abs(act.column(y) - col).max() <= 1e-12


@pytest.mark.parametrize("step", [1, 7])
def test_column_batches_match_one_batch(step, monkeypatch):
    # the 2-D sizes split the sources into several _chunks batches; their
    # LUs differ in size, so the columns agree to rounding, not bitwise
    grid, H, Bm, ctrl = disc_setup()
    tables = W.distance_tables(grid, H, Bm, controls=ctrl)
    sources = np.random.default_rng(0).permutation(grid.n_nodes)
    monkeypatch.setattr(W, "_chunks", lambda tables, S: [slice(0, S)])
    ref = W.distances(tables, sources)
    monkeypatch.setattr(W, "_chunks",
                        lambda tables, S: [slice(s, s + step) for s in range(0, S, step)])
    act = W.distances(tables, sources)
    assert np.array_equal(act.sources, sources)
    assert np.all(np.abs(act.d - ref.d) <= 1e-14 * (1 + np.abs(ref.d)))
    assert np.all(np.abs(act.pin_margin - ref.pin_margin)
                  <= 1e-14 * (1 + np.abs(ref.pin_margin)))


@pytest.mark.parametrize("name, reverse", [("weak-kam-1d", False), ("weak-kam-1d", True),
                                           ("disc", False)])
def test_policy_iteration_matches_value_iteration_oracle(name, reverse):
    grid, H, Bm, ctrl = SETUPS[name]()
    tables = W.distance_tables(grid, H, Bm, controls=ctrl, reverse=reverse)
    sources = np.arange(grid.n_nodes)
    ref = value_iteration_distance(tables, sources, 1e-12)
    assert np.abs(W.distances(tables, sources).d - ref).max() <= 1e-9


@pytest.mark.parametrize("name", ["weak-kam-1d", "disc"])
def test_policy_evaluation_matches_dense_solve(name):
    # the first-arrival policy's value, column by column from a dense solve
    # of d = stage_pi + P_pi d off the pin, d = 0 on it
    grid, H, Bm, ctrl = SETUPS[name]()
    stage, op = exit_form = W._exit_form(W.distance_tables(grid, H, Bm, controls=ctrl))
    N = grid.n_nodes
    src = np.arange(0, N, 3)
    pol = W._first_arrival(exit_form, src, N)
    d = W._evaluate(exit_form, src, pol)
    for s, y in enumerate(src):
        rows = pol[:, s] * N + np.arange(N)
        A = np.eye(N) - op[rows].toarray()
        b = stage.ravel()[rows]
        A[y], b[y] = np.eye(N)[y], 0.0
        assert np.abs(d[:, s] - np.linalg.solve(A, b)).max() <= 1e-12


@pytest.mark.parametrize("name", ["weak-kam-1d", "disc"])
def test_aubry_set_reads_pin_margins_without_a_dp_step(name, monkeypatch):
    grid, H, Bm, ctrl = SETUPS[name]()
    act = W.action_matrix(grid, H, Bm, controls=ctrl)
    ref = W.dp_residual(act.tables, act.d)[act.sources, np.arange(act.sources.size)]

    def no_step(*args):
        raise AssertionError("aubry_set ran a DP step")
    monkeypatch.setattr(W, "dp_step_cn", no_step)
    monkeypatch.setattr(V, "dp_step_cn", no_step)
    assert np.array_equal(W.aubry_set(act).residual_margin, ref)


@pytest.mark.parametrize("name", ["weak-kam-1d", "disc"])
def test_interior_stay_put_rows_land_exactly_on_their_node(name):
    # a rounding weight on a neighbour would be a free move at a node whose
    # stay-put stage is 0
    grid, H, Bm, ctrl = SETUPS[name]()
    tables = W.distance_tables(grid, H, Bm, controls=ctrl)
    c0 = int(np.argmin(np.linalg.norm(ctrl.velocities, axis=-1)))
    x = grid.interior_idx
    rows = tables.free_op[c0 * grid.n_nodes + x].toarray()
    assert np.array_equal(rows, np.eye(grid.n_nodes)[x])


def unmerged_exit_form(tables):
    # the exit form with one row per control, (Cv, N) control-major, a row
    # that never leaves costing +inf: the form before single-landing rows
    # were merged, kept as the reference for the merged one
    Cv, N = tables.free_stage.shape
    op = tables.free_op.tocoo()
    leave = op.col != op.row % N
    row, col, w = op.row[leave], op.col[leave], op.data[leave]
    off = np.bincount(row, w, minlength=Cv * N).reshape(Cv, N)
    stage = np.full((Cv, N), np.inf)
    moves = off > 0
    stage[moves] = tables.free_stage[moves] / off[moves]
    return stage, sparse.csr_matrix((w / off.ravel()[row], (row, col)), shape=op.shape)


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("name", sorted(SETUPS))
def test_merged_exit_form_gives_identical_distances(name, reverse, monkeypatch):
    grid, H, Bm, ctrl = SETUPS[name]()
    tables = W.distance_tables(grid, H, Bm, controls=ctrl, reverse=reverse)
    sources = np.arange(grid.n_nodes)
    act = W.distances(tables, sources)
    monkeypatch.setattr(W, "_exit_form", unmerged_exit_form)
    ref = W.distances(tables, sources)
    assert act.d.tobytes() == ref.d.tobytes()
    assert act.pin_margin.tobytes() == ref.pin_margin.tobytes()


@pytest.mark.parametrize("name", ["cosine", "weak-kam-1d"])
def test_merged_exit_form_keeps_two_rows_per_node_in_1d(name):
    # every moving velocity lands on one neighbour alone: an interior node
    # keeps the cheapest row to each side, a boundary node its inward one
    # and a padding row
    grid, H, Bm, ctrl = SETUPS[name]()
    stage, op = W._exit_form(W.distance_tables(grid, H, Bm, controls=ctrl))
    N = grid.n_nodes
    assert stage.shape == (2, N)
    kept = np.isfinite(stage)
    assert np.all(kept[:, grid.interior_idx])
    assert np.array_equal(kept[:, grid.boundary_idx].sum(axis=0), [1, 1])
    land = op.toarray().reshape(2, N, N)
    assert not np.any(land[~kept])
    for x in range(N):
        rows = land[kept[:, x], x]
        assert np.unique(rows, axis=0).shape[0] == rows.shape[0]


def test_disc_first_arrival_reaches_the_stall_rule(monkeypatch):
    # the stall rule alone prices the exit form by _stage_plus; on the disc
    # a snapped boundary node is reached through a mixed stencil only
    grid, H, Bm, ctrl = disc_setup()
    exit_form = W._exit_form(W.distance_tables(grid, H, Bm, controls=ctrl))
    calls = []

    def spy(stage, land):
        calls.append(land.shape)
        return V._stage_plus(stage, land)
    monkeypatch.setattr(W, "_stage_plus", spy)
    W._first_arrival(exit_form, np.arange(grid.n_nodes), grid.n_nodes)
    assert calls


def test_eikonal_distances_are_exactly_zero():
    # every admissible stage costs 0, and so does every policy's value
    grid, H, Bm, ctrl = eikonal_setup()
    act = W.action_matrix(grid, H, Bm, controls=ctrl)
    assert np.all(act.d == 0.0)


def test_improper_policy_evaluation_raises():
    # exit rows that pair the nodes off, 0 <-> 1, 2 <-> 3, ..., the last
    # node landing on its left neighbour: the pairs away from a pin cycle
    grid, H, Bm, ctrl = eikonal_setup()
    exit_form = W._exit_form(W.distance_tables(grid, H, Bm, controls=ctrl))
    N = grid.n_nodes
    land = exit_form[1].toarray().reshape(-1, N, N)
    nodes = np.arange(N)
    to = np.minimum(nodes ^ 1, N - 2)
    pol = np.argmax(land[:, nodes, to], axis=0)
    assert np.all(land[pol, nodes, to] == 1.0)
    src = np.array([0, N // 2])
    with pytest.raises(ConvergenceError, match="singular"):
        W._evaluate(exit_form, src, np.repeat(pol[:, None], src.size, axis=1))
    # one control, node 0 -> 1, 1 -> 2, 2 -> 1: nodes 1 and 2 cycle away
    # from the pin at node 0
    op = sparse.csr_matrix(([1.0, 1.0, 1.0], [1, 2, 1], [0, 1, 2, 3]), shape=(3, 3))
    with pytest.raises(ConvergenceError, match="singular"):
        W._evaluate((np.ones(3), op), np.array([0]), np.zeros((3, 1), dtype=np.int64))


def test_unreachable_node_raises():
    # node 2 has no control that leaves it
    op = sparse.csr_matrix(([1.0, 1.0], [1, 0], [0, 1, 2, 2]), shape=(3, 3))
    stage = np.array([[1.0, 1.0, np.inf]])
    with pytest.raises(NumericalError, match="cannot reach its source"):
        W._first_arrival((stage, op), np.array([0]), 3)


def test_policy_step_cap_raises_with_history(monkeypatch):
    grid, H, Bm, ctrl = disc_setup()
    monkeypatch.setattr(W, "MAX_POLICY_STEPS", 1)
    with pytest.raises(ConvergenceError, match="did not settle in 1 steps") as err:
        W.action_matrix(grid, H, Bm, controls=ctrl)
    assert len(err.value.history) == 1 and err.value.history[0] > 0


def test_liminf_spot_check():
    # late snapshots of the drift-free marching stay above u_inf - tol
    grid, H, Bm, ctrl = cosine_setup(0.02)
    act = W.action_matrix(grid, H, Bm, controls=ctrl)
    mask = W.aubry_set(act)
    u0 = P.field_from(grid, lambda x: x[:, 0])
    prof = W.asymptotic_profile(u0, act, mask)
    pair = E.ergodic_limit(H, Bm, grid)
    assert pair.residual <= 1e-10
    c_h = pair.c
    Hn, _ = E.normalize(H, Bm, c_h)
    stf = P.evolve(u0, Hn, Bm, "cn", T=12.0, record_every=2.0)
    late = stf.values[stf.times >= 6.0]
    # level offset between the schemes is first order with a visible
    # constant; the pointwise liminf bound holds within that margin
    assert late.min(axis=0).min() >= prof.values.min() - 60 * grid.h


def test_monotonicity_trace_stationary():
    grid = G.build_grid(IV, 0.05)
    v = P.field_from(grid, lambda x: 0.1 * np.sin(2 * x[:, 0]))
    times = np.linspace(0.0, 4.0, 9)
    u = np.tile(v.values + 1.0, (times.size, 1))
    stf = P.SpaceTimeField(grid, times, u, 0.5)
    tr = W.monotonicity_trace(stf, v, eta_param=0.1, shift=0.0)
    np.testing.assert_allclose(tr.mu_plus, 1.0, atol=1e-12)
    np.testing.assert_allclose(tr.mu_minus, 1.0, atol=1e-12)


def test_monotonicity_trace_bounds_on_evolution():
    grid = G.build_grid(IV, 0.02)
    H, Bm = M.eikonal(1), M.neumann(IV)
    u0 = P.field_from(grid, lambda x: x[:, 0])
    stf = P.evolve(u0, H, Bm, "cn", T=8.0, record_every=0.5)
    pair = E.ergodic_limit(H, Bm, grid, epsilon_schedule=(0.1, 0.01))
    tr = W.monotonicity_trace(stf, pair.v, eta_param=0.05)
    assert (tr.mu_plus >= -1e-12).all() and (tr.mu_plus <= 1 + 1e-12).all()
    assert (tr.mu_minus >= 1 - 1e-12).all()
    assert abs(tr.mu_plus[-1] - 1) <= 0.02
    assert abs(tr.mu_minus[-1] - 1) <= 0.02


def test_monotonicity_trace_normalization_guard():
    grid = G.build_grid(IV, 0.05)
    v = P.constant_field(grid, 0.0)
    times = np.array([0.0, 1.0])
    u = np.zeros((2, grid.n_nodes))
    stf = P.SpaceTimeField(grid, times, u, 1.0)
    with pytest.raises(NormalizationError):
        W.monotonicity_trace(stf, v, eta_param=0.1, shift=0.0)


def test_sweep_divergence_flags_bad_normalization():
    grid = G.build_grid(IV, 0.05)
    H = M.quadratic(1, potential="2.0")      # eigenvalue +2, not normalized
    Bm = M.neumann(IV)
    with pytest.raises(NormalizationError):
        W.distances(W.distance_tables(grid, H, Bm), [grid.centroid_node()])


@pytest.mark.parametrize("call", ["from -1", "from N", "matrix -1"])
def test_sources_outside_the_grid_rejected(call):
    # a negative id would read node N-1's column, N would index past it
    grid, H, Bm, ctrl = cosine_setup(0.1, nv=17)
    N = grid.n_nodes
    with pytest.raises(NumericalError, match=rf"source node ids must lie in \[0, {N}\)"):
        if call == "matrix -1":
            W.action_matrix(grid, H, Bm, controls=ctrl, sources=np.array([-1, 0]))
        else:
            W.distances(W.distance_tables(grid, H, Bm, ctrl), [-1 if call == "from -1" else N])


def test_control_representation_rejects_nonconvex_h():
    # every DP table goes through build_tables, which prices paths by L = H*
    grid = G.build_grid(IV, 0.1)
    H, Bm = M.shift_hamiltonian(M.double_well(1), 1.0), M.neumann(IV)
    msg = "the control representation needs a convex H"
    with pytest.raises(NumericalError, match=msg):
        V.value(P.constant_field(grid, 0.0), H, Bm, "cn", T=0.5)
    with pytest.raises(NumericalError, match=msg):
        W.action_matrix(grid, H, Bm)
    with pytest.raises(NumericalError, match=msg):
        W.distance_tables(grid, H, Bm)
