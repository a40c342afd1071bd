"""Grid construction, snapping, and projection checks."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hj_neumann import geometry as G
from hj_neumann.errors import GeometryError


def test_interval_grid_endpoints():
    grid = G.build_grid(G.interval(0.0, 1.0), 0.25)
    assert grid.n_nodes == 5
    np.testing.assert_allclose(grid.nodes.ravel(), [0.0, 0.25, 0.5, 0.75, 1.0])
    assert list(np.flatnonzero(grid.boundary)) == [0, 4]
    np.testing.assert_allclose(grid.normals[grid.boundary].ravel(), [-1.0, 1.0])


def test_disc_boundary_nodes_snapped_onto_circle():
    grid = G.build_grid(G.disc(), 0.5)
    radii = np.linalg.norm(grid.nodes[grid.boundary], axis=-1)
    assert np.abs(radii - 1.0).max() <= 1e-10


def test_boundary_normals_are_unit_and_aligned_with_grad_rho():
    for geom, h in [(G.interval(0, 1), 0.1), (G.disc(), 0.25)]:
        grid = G.build_grid(geom, h)
        b = grid.boundary
        n = grid.normals[b]
        assert np.abs(np.linalg.norm(n, axis=-1) - 1.0).max() <= 1e-12
        g = np.asarray(geom.grad_rho(grid.nodes[b]), dtype=float)
        gnorm = np.linalg.norm(g, axis=-1)
        assert np.abs(np.sum(g * n, axis=-1) - gnorm).max() <= 1e-10


def test_build_grid_deterministic():
    a = G.build_grid(G.disc(), 0.3)
    b = G.build_grid(G.disc(), 0.3)
    np.testing.assert_array_equal(a.nodes, b.nodes)
    np.testing.assert_array_equal(a.neighbors, b.neighbors)


def test_degenerate_grid_rejected():
    with pytest.raises(GeometryError):
        G.build_grid(G.interval(0, 1), 0.3)  # h > diameter / 4
    with pytest.raises(GeometryError):
        G.build_grid(G.interval(0, 1), -0.1)


def test_projection_examples():
    iv = G.interval(0, 1)
    assert G.project_to_closure(iv, np.array([1.3]))[0] == pytest.approx(1.0, abs=1e-12)
    d = G.disc()
    np.testing.assert_allclose(G.project_to_closure(d, np.array([2.0, 0.0])),
                               [1.0, 0.0], atol=1e-12)
    inside = np.array([0.3, 0.1])
    np.testing.assert_array_equal(G.project_to_closure(d, inside), inside)


def test_projection_rejects_far_points():
    with pytest.raises(GeometryError):
        G.project_to_closure(G.interval(0, 1), np.array([25.0]))


def test_interior_points_have_negative_rho():
    for geom in [G.interval(0, 1), G.disc()]:
        grid = G.build_grid(geom, 0.2 if geom.dim == 2 else 0.1)
        rho_in = np.asarray(geom.rho(grid.nodes[~grid.boundary]))
        assert np.all(rho_in < 0)
        rho_b = np.asarray(geom.rho(grid.nodes[grid.boundary]))
        assert np.abs(rho_b).max() <= 1e-10


def test_projection_of_point_arrays_matches_single_points():
    # interior, exterior and boundary points in one array
    cases = [
        (G.interval(0, 1), [[0.4], [1.3], [-0.2], [1.0]]),
        (G.disc(), [[0.3, 0.1], [2.0, 0.0], [-1.5, 1.5], [0.0, -1.0]]),
    ]
    for geom, pts in cases:
        pts = np.asarray(pts, dtype=float)
        out = G.project_to_closure(geom, pts)
        assert out.shape == pts.shape
        for p, q in zip(pts, out):
            np.testing.assert_array_equal(q, G.project_to_closure(geom, p))
        inside = np.asarray(geom.rho(pts)) <= 1e-12
        np.testing.assert_array_equal(out[inside], pts[inside])
        assert np.abs(np.asarray(geom.rho(out[~inside]))).max() <= 1e-12
    with pytest.raises(GeometryError):
        G.project_to_closure(G.disc(), np.array([[0.3, 0.1], [25.0, 0.0], [2.0, 0.0]]))


def _snap_ref(geom, x, tol=1e-12):
    # one node at a time: the Newton steps of the boundary snap
    x = x.copy()
    for _ in range(60):
        r = float(geom.rho(x))
        if abs(r) <= tol:
            return x
        g = np.asarray(geom.grad_rho(x), dtype=float)
        x = x - (r / float(g @ g)) * g
    raise AssertionError("reference snap did not converge")


def test_dense_index_stencil_matches_key_lookup():
    # nodes from per-node snaps of their lattice points, neighbors by a dict
    # of lattice keys, collapsed boundary edges pruned
    for geom, h in [(G.interval(0, 1), 0.05), (G.disc(), 0.25), (G.disc(), 0.2),
                    (G.disc(), 0.1), (G.disc(), 0.05)]:
        grid = G.build_grid(geom, h)
        lat = np.asarray(geom.bounds[0]) + h * grid.lattice_index
        nodes = lat.copy()
        for k in grid.boundary_idx:
            nodes[k] = _snap_ref(geom, lat[k])
        np.testing.assert_array_equal(grid.nodes, nodes)
        key = {tuple(t): i for i, t in enumerate(grid.lattice_index)}
        neighbors = -np.ones_like(grid.neighbors)
        gaps = np.full(grid.gaps.shape, np.inf)
        for k, t in enumerate(grid.lattice_index):
            for ax in range(geom.dim):
                for side, step in ((0, -1), (1, 1)):
                    s = list(t)
                    s[ax] += step
                    j = key.get(tuple(s), -1)
                    if j >= 0 and abs(nodes[j][ax] - nodes[k][ax]) >= 0.2 * h:
                        neighbors[side, ax, k] = j
                        gaps[side, ax, k] = abs(nodes[j][ax] - nodes[k][ax])
        np.testing.assert_array_equal(grid.neighbors, neighbors)
        np.testing.assert_array_equal(grid.gaps, gaps)
        slots = np.argwhere(grid.node_at >= 0)
        assert len(slots) == grid.n_nodes
        np.testing.assert_array_equal(grid.lattice_index[grid.node_at[tuple(slots.T)]], slots)


def _central_grad(rho, step=1e-6):
    def grad(p):
        p = np.asarray(p, float)
        return np.stack([(rho(p + step * e) - rho(p - step * e)) / (2 * step)
                         for e in np.eye(p.shape[-1])], axis=-1)
    return grad


def test_dumbbell_neck_lacks_interior_stencil():
    # two r = 0.3 discs at (+-1, 0) joined by the strip |y| <= 0.02: the
    # neck is thinner than h, so the discs' inner nodes on it miss axis 1
    def rho(p):
        p = np.asarray(p, float)
        strip = np.maximum(np.abs(p[..., 1]) - 0.02, np.abs(p[..., 0]) - 1.0)
        return np.minimum(np.minimum(np.linalg.norm(p - [-1.0, 0.0], axis=-1) - 0.3,
                                     np.linalg.norm(p - [1.0, 0.0], axis=-1) - 0.3), strip)
    geom = G.custom(2, rho, _central_grad(rho), ((-1.3, -0.3), (1.3, 0.3)))
    with pytest.raises(GeometryError,
                       match=r"interior node 37 at .* lacks a one-sided stencil on axis 1"):
        G.build_grid(geom, 0.1)


def test_satellite_disc_is_disconnected():
    # the unit disc and a disc of radius 0.05 at (1.7, 0): the small disc's
    # nodes are all boundary nodes and reach no interior node
    centres, radii = np.array([[0.0, 0.0], [1.7, 0.0]]), np.array([1.0, 0.05])

    def rho(p):
        d = np.linalg.norm(np.asarray(p, float)[..., None, :] - centres, axis=-1)
        return np.min(d - radii, axis=-1)

    def grad(p):
        diff = np.asarray(p, float)[..., None, :] - centres
        d = np.linalg.norm(diff, axis=-1)
        k = np.argmin(d - radii, axis=-1)[..., None, None]
        unit = diff / np.where(d > 0, d, 1.0)[..., None]
        return np.take_along_axis(unit, k, axis=-2)[..., 0, :]

    geom = G.custom(2, rho, grad, ((-1.0, -1.0), (1.75, 1.0)))
    with pytest.raises(GeometryError, match=r"boundary node 349 at .* is disconnected"):
        G.build_grid(geom, 0.1)


def test_thin_ellipse_has_no_interior_node():
    # x^2 + (y / 0.05)^2 = 1 at h = 0.08: its lattice rows y = -0.05 and 0.03
    # both lie within BAND * h of the boundary
    def rho(p):
        p = np.asarray(p, float)
        return p[..., 0] ** 2 + (p[..., 1] / 0.05) ** 2 - 1

    geom = G.custom(2, rho, _central_grad(rho), ((-1.0, -0.05), (1.0, 0.05)))
    with pytest.raises(GeometryError, match="no interior node"):
        G.build_grid(geom, 0.08)


def _build_grid_ref(geom, h):
    # build_grid as it was with a greedy collision walk, an isolated-node
    # test, a reachability sweep and a per-axis stencil loop, kept as the
    # oracle of its graph code
    if h <= 0:
        raise GeometryError("h must be positive")
    if h > geom.diameter / 4:
        raise GeometryError(f"h={h:g} too coarse for domain diameter {geom.diameter:g}")
    lo = np.asarray(geom.bounds[0], dtype=float)
    hi = np.asarray(geom.bounds[1], dtype=float)
    counts = [int(np.floor((hi[i] - lo[i]) / h + 1e-9)) + 2 for i in range(geom.dim)]
    axes = [lo[i] + h * np.arange(counts[i]) for i in range(geom.dim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    idx = np.stack([m.ravel() for m in np.meshgrid(
        *[np.arange(c) for c in counts], indexing="ij")], axis=-1)

    r = np.asarray(geom.rho(pts), dtype=float)
    g = np.asarray(geom.grad_rho(pts), dtype=float)
    gnorm = np.linalg.norm(g, axis=-1)
    sdist = r / np.where(gnorm > 0, gnorm, 1.0)

    keep = sdist <= G.BAND * h
    if not np.any(keep):
        raise GeometryError("no lattice node inside the domain")
    pts, idx, sdist = pts[keep], idx[keep], sdist[keep]
    boundary = sdist > -G.BAND * h

    nodes = pts.copy()
    G._newton_to_boundary(geom, nodes, np.flatnonzero(boundary), "boundary snap")

    bsel = np.flatnonzero(boundary)
    if bsel.size > 1:
        from scipy.spatial import cKDTree
        tree = cKDTree(nodes[bsel])
        near = tree.query_ball_point(nodes[bsel], 0.3 * h)
        outside = (sdist[bsel] > 0).astype(int)
        order = np.lexsort((bsel, np.abs(sdist[bsel]), outside))
        accepted = np.zeros(bsel.size, dtype=bool)
        drop = np.zeros(nodes.shape[0], dtype=bool)
        for o in order:
            if any(accepted[j] for j in near[o] if j != o):
                drop[bsel[o]] = True
            else:
                accepted[o] = True
        if np.any(drop):
            nodes, idx, boundary = nodes[~drop], idx[~drop], boundary[~drop]

    if not np.any(~boundary):
        raise GeometryError("no interior node; reduce h")

    node_at, neighbors, gaps = _stencil_ref(nodes, idx, boundary, counts, h)
    isolated = boundary & (neighbors.max(axis=(0, 1)) < 0)
    if np.any(isolated):
        nodes, idx, boundary = nodes[~isolated], idx[~isolated], boundary[~isolated]
        node_at, neighbors, gaps = _stencil_ref(nodes, idx, boundary, counts, h)

    normals = np.zeros_like(nodes)
    bidx = np.flatnonzero(boundary)
    normals[bidx] = geom.unit_normal(nodes[bidx])

    reached, size = ~boundary, 0
    while reached.sum() > size:
        size = reached.sum()
        nb = neighbors[:, :, reached]
        reached[nb[nb >= 0]] = True
    if not np.all(reached):
        bad = int(np.flatnonzero(~reached)[0])
        raise GeometryError(f"boundary node {bad} at {nodes[bad]} is disconnected "
                            "from the interior")
    lacking = np.argwhere((neighbors.min(axis=0) < 0).T & ~boundary[:, None])
    if lacking.size:
        k, ax = lacking[0]
        raise GeometryError(
            f"interior node {k} at {nodes[k]} lacks a one-sided stencil on axis {ax}")
    return G.Grid(geom, float(h), nodes, boundary, normals, idx, neighbors, gaps, node_at)


def _stencil_ref(nodes, idx, boundary, counts, h):
    node_at = -np.ones(counts, dtype=np.int64)
    node_at[tuple(idx.T)] = np.arange(idx.shape[0])
    dim, n = idx.shape[1], idx.shape[0]
    neighbors = -np.ones((2, dim, n), dtype=np.int64)
    gaps = np.full((2, dim, n), np.inf)
    for ax in range(dim):
        for side, step in ((0, -1), (1, +1)):
            t = idx.copy()
            t[:, ax] += step
            k = np.flatnonzero((t[:, ax] >= 0) & (t[:, ax] < counts[ax]))
            j = node_at[tuple(t[k].T)]
            k, j = k[j >= 0], j[j >= 0]
            neighbors[side, ax, k] = j
            gaps[side, ax, k] = np.abs(nodes[j, ax] - nodes[k, ax])
    short = gaps < 0.2 * h
    k = np.nonzero(short)[2]
    if not np.all(boundary[k] & boundary[neighbors[short]]):
        raise GeometryError("snapped boundary node collapsed an interior stencil gap")
    neighbors[short] = -1
    gaps[short] = np.inf
    return node_at, neighbors, gaps


def _gauge_ellipse(a, b, cx=0.0, cy=0.0):
    # the ellipse ((x - cx)/a)^2 + ((y - cy)/b)^2 = 1 as the zero set of the
    # gauge rho = |((x - cx)/a, (y - cy)/b)| - 1
    def rho(p):
        p = np.asarray(p, float)
        return np.hypot((p[..., 0] - cx) / a, (p[..., 1] - cy) / b) - 1

    def grad(p):
        p = np.asarray(p, float)
        s = rho(p) + 1
        s = np.where(s > 0, s, 1.0)
        return np.stack([(p[..., 0] - cx) / (a * a * s), (p[..., 1] - cy) / (b * b * s)], -1)

    return G.custom(2, rho, grad, ((cx - a, cy - b), (cx + a, cy + b)))


def test_build_grid_matches_walk_oracle(monkeypatch):
    # equal bytes, or the same error type, against the greedy walks; the
    # disc at h = 0.26382 and the ellipse x^2 + (y/0.6)^2 = 1 at h = 0.12054
    # drop an isolated boundary node, a second _stencil call
    stencils = []
    stencil = G._stencil
    monkeypatch.setattr(G, "_stencil", lambda *a: stencils.append(1) or stencil(*a))
    geoms = [G.interval(0, 1), G.disc(), G.disc(0.13, -0.31, 0.77), _gauge_ellipse(1, 0.6),
             _gauge_ellipse(1, 0.3), _gauge_ellipse(0.8, 0.5, 0.1, 0.2)]
    cases = [(geom, h, False) for geom in geoms for h in np.geomspace(0.015, 0.3, 40)]
    for geom, h, drops in cases + [(G.disc(), 0.26382, True), (geoms[3], 0.12054, True)]:
        try:
            ref = _build_grid_ref(geom, h)
        except GeometryError:
            with pytest.raises(GeometryError):
                G.build_grid(geom, h)
            continue
        stencils.clear()
        grid = G.build_grid(geom, h)
        for f in ("nodes", "boundary", "normals", "lattice_index", "neighbors", "gaps",
                  "node_at"):
            a, b = getattr(grid, f), getattr(ref, f)
            assert (a.dtype, a.shape, a.strides) == (b.dtype, b.shape, b.strides), f
            assert a.tobytes() == b.tobytes(), f
        assert len(stencils) == 2 or not drops


def test_satellite_disc_with_central_grad_comes_apart():
    # the satellite disc with a central-difference grad_rho: |grad rho| ~ 2e-10
    # at (1.7, 0) counts that node interior, so the small disc is a 5-node
    # piece of its own, with its own critical value
    centres, radii = np.array([[0.0, 0.0], [1.7, 0.0]]), np.array([1.0, 0.05])

    def rho(p):
        return np.min(np.linalg.norm(np.asarray(p, float)[..., None, :] - centres, axis=-1)
                      - radii, axis=-1)

    geom = G.custom(2, rho, _central_grad(rho), ((-1.0, -1.0), (1.75, 1.0)))
    assert _build_grid_ref(geom, 0.1).n_nodes == 354
    with pytest.raises(GeometryError, match=r"boundary node 349 at .* is disconnected"):
        G.build_grid(geom, 0.1)


@settings(max_examples=80, deadline=None)
@given(kind=st.sampled_from(["interval", "disc", "ellipse"]), a=st.floats(0.2, 2.0),
       b=st.floats(0.2, 2.0), cx=st.floats(-1.0, 1.0), cy=st.floats(-1.0, 1.0),
       frac=st.floats(0.01, 0.25))
def test_every_grid_has_a_boundary_node(kind, a, b, cx, cy, frac):
    # the schemes and DP steps carry no branch for a grid without boundary
    # nodes; build_grid must never return one
    geom = {"interval": G.interval(cx, cx + a), "disc": G.disc(cx, cy, a),
            "ellipse": _gauge_ellipse(a, b, cx, cy)}[kind]
    try:
        grid = G.build_grid(geom, frac * geom.diameter)
    except GeometryError:
        return
    assert grid.boundary.any()
