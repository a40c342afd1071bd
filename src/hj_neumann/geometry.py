"""Bounded C1 domains via defining functions, and the clipped lattice they induce.

A domain is described by a defining function ``rho`` (negative inside,
positive outside, nonvanishing gradient on the boundary). The catalog
geometries use signed-distance style defining functions so that
``grad_rho`` is a unit vector at the boundary; custom defining functions
may have any nonzero gradient there.

``build_grid`` clips a regular lattice to the closure, flags the nodes
within a band of the boundary, snaps them onto the boundary along
``grad_rho`` and stores unit outward normals plus the axis-neighbor
stencil with exact post-snap gaps. The grid is one connected piece: two
pieces have a critical value c each, and u(., t) + ct converges for none.
The snap, ``project_to_closure`` and the reflection pull-back of
``skorokhod`` share one Newton iteration.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np
from scipy.sparse import csgraph, csr_array
from scipy.spatial import cKDTree

from .errors import GeometryError, ObliquenessError

# boundary band of build_grid, in units of h
BAND = 0.6

# Newton steps onto rho = 0, shared by the boundary snap, the projection and
# the reflection pull-back: a point is on the boundary once |rho| <= SNAP_TOL,
# within SNAP_ITER steps
SNAP_TOL = 1e-12
SNAP_ITER = 60


@dataclass(frozen=True)
class DomainGeometry:
    """Defining-function description of a bounded domain.

    rho(pts) evaluates the defining function on points of shape (..., dim);
    grad_rho(pts) its gradient, shape (..., dim). bounds is the bounding
    box ((lo, ...), (hi, ...)). The solvers read nothing else of a domain.
    """

    dim: int
    rho: Callable[[np.ndarray], np.ndarray]
    grad_rho: Callable[[np.ndarray], np.ndarray]
    bounds: tuple

    def unit_normal(self, pts: np.ndarray) -> np.ndarray:
        """Outward unit normal grad_rho/|grad_rho| (points assumed near the boundary)."""
        g = np.asarray(self.grad_rho(np.asarray(pts, dtype=float)), dtype=float)
        norm = np.sqrt((g * g).sum(axis=-1, keepdims=True))
        if (norm <= 0).any():
            raise GeometryError("grad_rho vanishes at a requested boundary point")
        return g / norm

    @property
    def diameter(self) -> float:
        lo, hi = np.asarray(self.bounds[0]), np.asarray(self.bounds[1])
        return float(np.linalg.norm(hi - lo))


def interval(a: float = 0.0, b: float = 1.0) -> DomainGeometry:
    """1-D interval (a, b) with rho(x) = |x - m| - w, unit gradient at the ends."""
    if not b > a:
        raise GeometryError(f"empty interval [{a}, {b}]")
    m, w = 0.5 * (a + b), 0.5 * (b - a)

    def rho(pts):
        return np.abs(np.asarray(pts, float)[..., 0] - m) - w

    def grad(pts):
        s = np.sign(np.asarray(pts, float)[..., 0] - m)
        s = np.where(s == 0.0, 1.0, s)
        return s[..., None]

    return DomainGeometry(1, rho, grad, ((a,), (b,)))


def disc(cx: float = 0.0, cy: float = 0.0, r: float = 1.0) -> DomainGeometry:
    """Disc of radius r, rho(x) = |x - c| - r."""
    if r <= 0:
        raise GeometryError("disc needs r > 0")
    c = np.array([cx, cy])

    def rho(pts):
        return np.linalg.norm(np.asarray(pts, float) - c, axis=-1) - r

    def grad(pts):
        d = np.asarray(pts, float) - c
        n = np.sqrt((d * d).sum(axis=-1, keepdims=True))
        safe = np.where(n == 0.0, 1.0, n)
        g = d / safe
        g[..., 0] = np.where(n[..., 0] == 0.0, 1.0, g[..., 0])
        return g

    return DomainGeometry(2, rho, grad, ((cx - r, cy - r), (cx + r, cy + r)))


def custom(dim: int, rho, grad_rho, bounds) -> DomainGeometry:
    return DomainGeometry(dim, rho, grad_rho, bounds)


def project_to_closure(geom: DomainGeometry, x):
    """Project points of shape (..., dim) onto the closure of the domain.

    Interior points are returned unchanged. Exterior points are moved by
    Newton steps on rho along grad_rho, which follows the gradient line
    exactly for the catalog geometries (radial for the disc); each point
    stops as soon as |rho| <= SNAP_TOL. Raises for an exterior point more
    than two diameters outside the bounding box, and with the last iterate
    if some point does not reach rho = 0.
    """
    x = np.array(x, dtype=float)
    pts = x.reshape(-1, geom.dim)
    out = np.flatnonzero(np.asarray(geom.rho(pts), dtype=float) > SNAP_TOL)
    lo, hi = np.asarray(geom.bounds[0]), np.asarray(geom.bounds[1])
    band = 2.0 * geom.diameter
    far = np.any((pts[out] < lo - band) | (pts[out] > hi + band), axis=-1)
    if np.any(far):
        raise GeometryError(f"point {pts[out[far][0]]} too far from the domain to project")
    _newton_to_boundary(geom, pts, out, "projection")
    return x


def _newton_to_boundary(geom: DomainGeometry, pts: np.ndarray, rows: np.ndarray,
                        what: str, gam: np.ndarray | None = None) -> None:
    """Move pts[rows] onto rho = 0 in place by Newton steps on rho.

    A row travels along grad_rho at the iterate (the snap and the
    projection), or along its fixed gam[row] (the reflection pull-back, whose
    steps on a convex rho rise monotonically to the first crossing). It stops
    at its first iterate with |rho| <= SNAP_TOL (possibly the start); a
    pull-back row takes one step more, since its landing point feeds
    interpolation weights. A slope gam . grad_rho <= 0 raises ObliquenessError.
    """
    extra = 0 if gam is None else 1
    hits = np.zeros(rows.size, dtype=np.int64)
    r = np.asarray(geom.rho(pts[rows]), dtype=float)
    for it in range(SNAP_ITER + extra + 1):
        hits += np.abs(r) <= SNAP_TOL
        left = hits <= extra
        rows, r, hits = rows[left], r[left], hits[left]
        if not rows.size:
            return
        if it == SNAP_ITER + extra:
            raise GeometryError(f"{what} did not converge; last iterate {pts[rows[0]]}, "
                                f"rho={r[0]:g}")
        g = np.asarray(geom.grad_rho(pts[rows]), dtype=float)
        d = g if gam is None else gam[rows]
        slope = (d[:, None, :] @ g[:, :, None])[:, 0, 0]   # rounds as d @ g per row
        if np.any(slope <= 0):
            k = int(np.argmax(slope <= 0))
            if gam is None:
                raise GeometryError(f"grad_rho vanished during {what} at {pts[rows[k]]}")
            raise ObliquenessError(f"{what} direction {d[k]} is not oblique at "
                                   f"{pts[rows[k]]}: gamma.grad_rho = {slope[k]:.3g}")
        pts[rows] -= (r / slope)[:, None] * d
        r = np.asarray(geom.rho(pts[rows]), dtype=float)


@dataclass(frozen=True)
class Grid:
    """Lattice clipped to the closure with snapped boundary nodes.

    nodes: (N, dim) coordinates (boundary nodes exactly on rho = 0).
    boundary: (N,) bool flags. normals: (N, dim), unit outward normal on
    boundary nodes, zero elsewhere. neighbors[side][axis]: (N,) index of
    the lattice neighbor on that side (-1 if absent) and gaps[side][axis]
    the corresponding positive axis gap after snapping (inf if absent).
    slope_ends, built on first use and kept, holds the (lo, hi) node
    indices of each one-sided difference quotient (u[hi] - u[lo]) / gaps;
    a missing side points at the node itself, so its quotient is +0.0.
    node_at maps every slot of the lattice box (axis counts as in
    build_grid) to the node addressed there, -1 where there is none. The
    neighbor graph is connected and has a boundary node: interior nodes
    have both axis neighbors, so the one furthest along an axis has a
    boundary neighbor there.
    """

    geom: DomainGeometry
    h: float
    nodes: np.ndarray
    boundary: np.ndarray
    normals: np.ndarray
    lattice_index: np.ndarray      # (N, dim) integer lattice coordinates
    neighbors: np.ndarray          # (2, dim, N) int, -1 when missing
    gaps: np.ndarray               # (2, dim, N) float, inf when missing
    node_at: np.ndarray            # lattice box shape, int, -1 when missing

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def dim(self) -> int:
        return self.geom.dim

    @property
    def interior_idx(self) -> np.ndarray:
        return np.flatnonzero(~self.boundary)

    @property
    def boundary_idx(self) -> np.ndarray:
        return np.flatnonzero(self.boundary)

    @cached_property
    def slope_ends(self) -> tuple[np.ndarray, np.ndarray]:
        own = np.broadcast_to(np.arange(self.n_nodes), self.neighbors.shape[1:])
        nb = np.where(self.neighbors >= 0, self.neighbors, own)
        lo, hi = np.stack([nb[0], own]), np.stack([own, nb[1]])
        lo.setflags(write=False)
        hi.setflags(write=False)
        return lo, hi

    def centroid_node(self) -> int:
        """Index of the node nearest the domain centroid (the anchor x0)."""
        c = self.nodes[~self.boundary].mean(axis=0)
        return int(np.argmin(np.linalg.norm(self.nodes - c, axis=-1)))


def build_grid(geom: DomainGeometry, h: float) -> Grid:
    """Clip a regular lattice of spacing h to the domain closure.

    Nodes with estimated signed distance rho/|grad_rho| in
    (-BAND*h, BAND*h] are flagged as boundary and snapped onto rho = 0
    along grad_rho; interior nodes stay on the lattice. Drops one of two
    boundary nodes snapped within 0.3h of each other, and a boundary node
    left with no neighbor. GeometryError when the result has no interior
    node, collapses an interior gap, comes apart in pieces, or leaves an
    interior node with no neighbor on some axis.
    """
    if h <= 0:
        raise GeometryError("h must be positive")
    if h > geom.diameter / 4:
        raise GeometryError(f"h={h:g} too coarse for domain diameter {geom.diameter:g}")
    lo = np.asarray(geom.bounds[0], dtype=float)
    hi = np.asarray(geom.bounds[1], dtype=float)
    # one extra layer beyond the bounding box; the band rule trims the excess
    counts = [int(np.floor((hi[i] - lo[i]) / h + 1e-9)) + 2 for i in range(geom.dim)]
    idx = np.indices(counts).reshape(geom.dim, -1).T
    pts = lo + h * idx

    r = np.asarray(geom.rho(pts), dtype=float)
    g = np.asarray(geom.grad_rho(pts), dtype=float)
    gnorm = np.linalg.norm(g, axis=-1)
    sdist = r / np.where(gnorm > 0, gnorm, 1.0)

    keep = sdist <= BAND * h
    if not np.any(keep):
        raise GeometryError("no lattice node inside the domain")
    nodes, idx, sdist = pts[keep], idx[keep], sdist[keep]
    boundary = sdist > -BAND * h

    bsel = np.flatnonzero(boundary)
    _newton_to_boundary(geom, nodes, bsel, "boundary snap")

    # two band layers can snap onto near-identical boundary points (poles of
    # curved boundaries); of a pair within 0.3h the inside-band node wins, as
    # interior stencils point at it, then the one from the nearer lattice point
    pairs = cKDTree(nodes[bsel]).query_pairs(0.3 * h, output_type="ndarray")
    rank = np.empty(bsel.size, dtype=np.int64)
    rank[np.lexsort((bsel, np.abs(sdist[bsel]), sdist[bsel] > 0))] = np.arange(bsel.size)
    kept = np.ones(nodes.shape[0], dtype=bool)
    kept[bsel[np.where(rank[pairs[:, 0]] > rank[pairs[:, 1]], pairs[:, 0], pairs[:, 1])]] = False
    nodes, idx, boundary = nodes[kept], idx[kept], boundary[kept]

    if not np.any(~boundary):
        raise GeometryError("no interior node; reduce h")

    node_at, neighbors, gaps = _stencil(nodes, idx, boundary, counts, h)
    # one piece: a boundary node with no kept neighbor is dropped, and a piece
    # apart from the largest is an error. Edges are pruned in pairs, so the
    # graph is symmetric and its strong components, which scipy finds without
    # a transpose, are its pieces; a missing neighbor is a self-loop
    n = nodes.shape[0]
    nb = np.where(neighbors >= 0, neighbors, np.arange(n)).reshape(-1, n).T
    graph = csr_array((np.ones(nb.size), nb.ravel(), np.arange(0, nb.size + 1, nb.shape[1])),
                      (n, n))
    labels = csgraph.connected_components(graph, connection="strong")[1]
    isolated = boundary & (np.bincount(labels)[labels] == 1)
    if np.any(isolated):
        nodes, idx, boundary, labels = (a[~isolated] for a in (nodes, idx, boundary, labels))
        node_at, neighbors, gaps = _stencil(nodes, idx, boundary, counts, h)
    apart = labels != np.argmax(np.bincount(labels))
    if np.any(apart):
        k = int(np.argmax(apart))
        raise GeometryError(f"{'boundary' if boundary[k] else 'interior'} node {k} at "
                            f"{nodes[k]} is disconnected from the largest piece")

    normals = np.zeros_like(nodes)
    bidx = np.flatnonzero(boundary)
    normals[bidx] = geom.unit_normal(nodes[bidx])

    lacking = np.argwhere((neighbors.min(axis=0) < 0).T & ~boundary[:, None])
    if lacking.size:
        k, ax = lacking[0]
        raise GeometryError(
            f"interior node {k} at {nodes[k]} lacks a one-sided stencil on axis {ax}")

    neighbors.setflags(write=False)
    gaps.setflags(write=False)
    nodes.setflags(write=False)
    boundary.setflags(write=False)
    normals.setflags(write=False)
    node_at.setflags(write=False)
    return Grid(geom, float(h), nodes, boundary, normals, idx, neighbors, gaps, node_at)


def _stencil(nodes, idx, boundary, counts, h):
    """Lattice-box index, axis neighbors and post-snap gaps of the nodes.

    Snapping can collapse the axis gap between two nearly-tangential
    boundary neighbors; such edges are not load-bearing and are pruned. A
    collapsed edge touching an interior node is a real degeneracy.
    """
    n, dim = idx.shape
    # an empty layer around the lattice box keeps every axis step inside it
    pad = -np.ones([c + 2 for c in counts], dtype=np.int64)
    pad[tuple(idx.T + 1)] = np.arange(n)
    step = np.array([[-1], [1]]) * (np.array(pad.strides) // pad.itemsize)
    neighbors = pad.ravel()[step[:, :, None] + np.ravel_multi_index(idx.T + 1, pad.shape)]
    gaps = np.abs(nodes.T[np.arange(dim)[:, None], neighbors] - nodes.T)
    gaps[neighbors < 0] = np.inf
    short = gaps < 0.2 * h
    k = np.nonzero(short)[2]
    if not np.all(boundary[k] & boundary[neighbors[short]]):
        raise GeometryError("snapped boundary node collapsed an interior stencil gap")
    neighbors[short] = -1
    gaps[short] = np.inf
    return pad[(slice(1, -1),) * dim].copy(), neighbors, gaps
