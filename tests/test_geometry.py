"""Grid construction, snapping, and projection checks."""

import numpy as np
import pytest

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
