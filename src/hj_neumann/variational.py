"""Optimal-control values for both problems by semi-Lagrangian programming.

The state moves with a lattice velocity w (cost rate L(x, -w)). Landing
points outside the closure are corrected by the single-step Skorokhod rule
(project, pull back along the selected direction gamma at the contact
point, pay the contact cost g per unit of intensity). Reflection also acts
while the state is held on the boundary (Lions & Sznitman's Skorokhod
problem): at a boundary node, the pressing control w = l*gamma with
intensity l from a geometric ladder keeps the state on its node at cost
rate L(x, -l*gamma) + l*g, and under the dynamical boundary condition it
also consumes extra clock time dt*l. A pressing control lands where the
stay-put control w = 0 lands, so under the Neumann condition its min
folds into the stay-put stage; under the dynamical one it runs on the
slow clock, and free landings outside the closure are dropped, since
their pull-back would reflect without that clock. Interpolation is
multilinear with nonnegative weights, so one step is monotone and
nonexpansive in the value array exactly.

Stage costs and interpolation stencils are independent of the value being
iterated; they are precomputed once into tables (stencils as sparse
operators) that the time-marching values here and the weak-KAM module's
policy iteration share: both read the DP step, and the policy iteration
also reads the free stages and stencils as one control per node. The tables are built as
whole-array operations: all landing points go through one projection,
one evaluation of the selection and one pull-back (both are the
geometry's Newton iteration onto the boundary), the
stencils are read off the grid's dense lattice index one axis at a time,
and the stage costs come from the Hamiltonian's closed-form conjugate
where it has one (``quadratic``, ``eikonal``), else from the conjugate
engine. The selection (gamma, g) and its cost are closed forms for every
catalog boundary; only a custom boundary sends them to the engine. The
free tables are control-major (all nodes of one velocity, then the next),
so the min of a DP step over the controls runs over the leading,
contiguous axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .errors import NumericalError
from .geometry import SNAP_TOL, Grid, project_to_closure
from .models import (CAP, BoundaryOperator, Hamiltonian, ObliqueSelection, _lattice,
                     effective_velocity_bound, lagrangian_batch,
                     oblique_selection)
from .pde import GridField, SpaceTimeField, scheme_kind
from .skorokhod import _pullback_intensity


@dataclass(frozen=True)
class ControlSet:
    """Velocity lattice, reflection-intensity ladder, and the selection."""

    velocities: np.ndarray      # (Cv, dim), contains 0 and the +-v_max corners
    intensities: np.ndarray     # (m,) positive geometric ladder
    selection: ObliqueSelection
    v_max: float


def build_control_set(H: Hamiltonian, Bm: BoundaryOperator, grid: Grid,
                      n_velocity: int | None = None,
                      v_max: float | None = None) -> ControlSet:
    """Velocity lattice up to the effective growth bound of the running cost.

    v_max defaults to 1 + coercivity_radius(2 max|H(x,0)| + 2), clipped to
    the edge of the effective domain of L (bounded-slope Hamiltonians place
    the optimal speeds exactly on that edge, so the lattice includes it).
    The intensity ladder has 8 rungs, (v_max/theta) / 2^7 .. v_max/theta,
    and the selection is oblique_selection(Bm).
    """
    if n_velocity is None:
        n_velocity = 33 if grid.dim == 1 else 17
    if n_velocity % 2 == 0:
        n_velocity += 1   # keep w = 0 in the lattice
    if v_max is None:
        h0 = np.asarray(H(grid.nodes, np.zeros(grid.dim)), dtype=float)
        level = 2.0 * float(np.abs(h0).max()) + 2.0
        v_max = 1.0 + H.coercivity_radius(level, grid.nodes, h0)
        v_max = effective_velocity_bound(H, grid.nodes, v_max)
    vel = _lattice(grid.dim, v_max, n_velocity)
    vel = 0.5 * (vel - vel[::-1])   # odd-symmetric, so its centre w = 0 is exact
    l_max = v_max / Bm.theta
    ladder = l_max * 2.0 ** (-np.arange(8)[::-1].astype(float))
    return ControlSet(vel, ladder, oblique_selection(Bm), float(v_max))


def _interp_weights(grid: Grid, pts: np.ndarray) -> sparse.csr_matrix:
    """Multilinear interpolation operator, one row per point (K = 2^dim corners).

    Snapped boundary nodes are addressed at their original lattice slots
    (grid.node_at); missing corners get their weight redistributed over the
    present ones, keeping the stencil nonnegative with unit sum. A point
    with no present corner takes the nearest node. Weights and lattice
    offsets are built one axis at a time, and the corners are read from
    node_at padded with two empty slots per side in one flat take.
    """
    M = pts.shape[0]
    frac = (pts - np.asarray(grid.geom.bounds[0], dtype=float)) / grid.h
    base = np.floor(frac + 1e-12).astype(np.int64)
    rem = np.clip(frac - base, 0.0, 1.0)
    rem[rem <= 1e-12] = 0.0       # on a lattice plane up to rounding: no weight across it
    pad = np.pad(grid.node_at, 2, constant_values=-1)
    # a base cell outside the lattice clips to one whose corners are pads
    cell = np.clip(base + 2, 0, np.array(pad.shape) - 2)
    offs, w = np.zeros(1, dtype=np.int64), np.ones((M, 1))
    for k, stride in enumerate(np.array(pad.strides) // pad.itemsize):
        offs = (offs[:, None] + np.array([0, stride])).ravel()
        f = np.stack([1.0 - rem[:, k], rem[:, k]], axis=1)
        w = (w[:, :, None] * f[:, None, :]).reshape(M, -1)          # (M, 2^(k+1))
    idx = pad.ravel()[np.ravel_multi_index(tuple(cell.T), pad.shape)[:, None] + offs]
    wgt = np.where((idx >= 0) & (w > 0), w, 0.0)
    idx = np.maximum(idx, 0)
    tot = wgt.sum(axis=1)
    miss = np.flatnonzero(tot <= 0)
    if miss.size:
        dist = np.linalg.norm(grid.nodes[None, :, :] - pts[miss, None, :], axis=-1)
        idx[miss, 0] = np.argmin(dist, axis=1)
        wgt[miss, 0] = tot[miss] = 1.0
    wgt /= tot[:, None]
    op = sparse.csr_matrix((wgt.ravel(), idx.ravel(), np.arange(0, idx.size + 1, offs.size)),
                           shape=(M, grid.n_nodes))
    op.eliminate_zeros()
    return op


def _land_and_cost(grid: Grid, sel: ObliqueSelection, pts: np.ndarray,
                   dt: float):
    """Skorokhod single-step correction for landing points; returns the
    corrected points, their cost and the ids of the points that were outside
    the closure.

    The points outside the closure go through one projection, one
    evaluation of the selection at their contact points and one pull-back.
    """
    geom = grid.geom
    cost = np.zeros(pts.shape[0])
    out = pts.copy()
    m = np.flatnonzero(np.asarray(geom.rho(pts), dtype=float) > SNAP_TOL)
    if m.size:
        gam, g = sel.at(project_to_closure(geom, pts[m]))
        lc = _pullback_intensity(geom, pts[m], gam, dt)
        out[m] = pts[m] - dt * lc[:, None] * gam
        cost[m] = dt * lc * g
    return out, cost, m


@dataclass
class DPTables:
    """Stage costs and interpolation stencils for one (grid, H, B, controls, dt).

    The free tables are control-major: operator row c*N + n interpolates at
    the landing point of velocity c from node n and stages are (Cv, N), so
    values of u (N,) or (N, S) come out as (Cv, N) or (Cv, N, S) and the min
    over controls runs over the leading, contiguous axis. The boundary
    controls are the pressing pairs w = l*gamma, one per node and rung:
    they hold the state on its node, so they land where the stay-put
    control w = 0 lands, and bnd_op holds that one row per boundary node.
    Under "cn" their min is folded into the stay-put stages of free_stage;
    under "dbc" they run on the slow clock, and dbc_stage is free_stage
    before the fold with the landings outside the closure dropped (+inf),
    since these would reflect without the slow clock.
    """

    grid: Grid
    controls: ControlSet
    dt: float
    free_stage: np.ndarray     # (Cv, N), pressing stages folded in
    free_op: sparse.csr_matrix  # (Cv*N, N)
    dbc_stage: np.ndarray      # (Cv, N)
    bnd_rows: np.ndarray       # boundary node ids (Nb,)
    bnd_stage: np.ndarray      # (Nb, m), one column per intensity rung
    bnd_op: sparse.csr_matrix  # (Nb, N)


def _stage_plus(stage: np.ndarray, land: np.ndarray) -> np.ndarray:
    """stage (C, n) plus landing values (C*n,) or (C*n, S) in the same row
    order, reshaped to match; adds in place into land, a fresh product that
    nothing else holds."""
    land = land.reshape(stage.shape + land.shape[1:])
    land += stage.reshape(stage.shape + (1,) * (land.ndim - 2))
    return land


def build_tables(grid: Grid, H: Hamiltonian, controls: ControlSet, dt: float,
                 reverse: bool = False) -> DPTables:
    """Precompute stages and stencils; reverse=True builds the tables of the
    time-reversed trajectories (stage L(x, +w), reflections entering). A
    stage cost without a closed form comes from the conjugate engine, from
    the radius max(6, 2 v_max); a stage at CAP, outside dom L, is +inf.
    The boundary enters only through controls: its selection, evaluated at
    the boundary nodes and in one `_land_and_cost` of all free landing
    points, and its intensity ladder. H must be convex: the control
    representation prices paths by L = H*, which only recovers a convex H."""
    if not H.convex:
        raise NumericalError("the control representation needs a convex H")
    if dt <= 0:
        raise NumericalError("dt must be positive")
    if dt * controls.v_max > 2.0 * grid.h + 1e-12:
        raise NumericalError(
            f"dt*v_max = {dt * controls.v_max:g} exceeds the interpolation "
            f"locality bound 2h = {2 * grid.h:g}")
    W = controls.velocities
    Cv = W.shape[0]
    N = grid.n_nodes
    sgn = 1.0 if reverse else -1.0
    radius = max(6.0, 2.0 * controls.v_max)

    X = np.tile(grid.nodes, (Cv, 1))
    XI = np.repeat(sgn * W, N, axis=0)
    L = lagrangian_batch(H, X, XI, radius=radius).reshape(Cv, N)
    pts = (grid.nodes[None, :, :] + dt * W[:, None, :]).reshape(-1, grid.dim)
    pts, corr, outside = _land_and_cost(grid, controls.selection, pts, dt)
    free_op = _interp_weights(grid, pts)
    free_stage = dt * L + corr.reshape(Cv, N)
    free_stage[L >= CAP] = np.inf
    dbc_stage = free_stage.copy()
    dbc_stage.flat[outside] = np.inf
    if np.any(~np.isfinite(dbc_stage).any(axis=0)):
        raise NumericalError("a node has no admissible control; enlarge the "
                             "velocity lattice or reduce dt")

    # the pressing pair w = l*gamma costs L(x, -l*gamma) + l*g (reversed
    # paths flip w and the reflection together) and lands on its node, which
    # lies on the boundary: its landing row and cost are the stay-put's
    rows = grid.boundary_idx
    xb, lad = grid.nodes[rows], controls.intensities
    gam_b, g_b = controls.selection.at(xb)
    refl = lad[:, None] * np.asarray(gam_b, dtype=float)[:, None, :]  # (Nb, m, dim)
    Lp = lagrangian_batch(H, np.repeat(xb, lad.size, axis=0), -refl.reshape(-1, grid.dim),
                          radius=radius).reshape(rows.size, lad.size)
    bnd_stage = dt * (Lp + lad * g_b[:, None])
    bnd_stage[Lp >= CAP] = np.inf
    c0 = int(np.argmin(np.linalg.norm(W, axis=-1)))
    free_stage[c0, rows] = np.minimum(free_stage[c0, rows], bnd_stage.min(axis=1))
    return DPTables(grid, controls, dt, free_stage, free_op, dbc_stage, rows,
                    bnd_stage, free_op[c0 * N + rows])


def dp_step_cn(u: np.ndarray, tables: DPTables) -> np.ndarray:
    """One backward-horizon step of the Neumann recursion on u (N,) or (N, S)."""
    return _stage_plus(tables.free_stage, tables.free_op @ u).min(axis=0)


def dp_step_dbc(slices: list[np.ndarray], tables: DPTables) -> np.ndarray:
    """One step of the dynamical-boundary recursion with the slow clock.

    slices[j] holds the value at horizon j*dt; pressing with intensity l
    advances physical time by dt*(1+l), so the pressing controls look back
    through linear interpolation in the stored stack (clamped at 0).
    """
    out = _stage_plus(tables.dbc_stage, tables.free_op @ slices[-1]).min(axis=0)
    back = len(slices) - (1.0 + tables.controls.intensities)   # the new slice is len(slices)
    k0 = np.clip(np.floor(back).astype(int), 0, len(slices) - 1)
    k1 = np.clip(k0 + 1, 0, len(slices) - 1)
    a = np.clip(back - k0, 0.0, 1.0)
    # space-interpolate only the slices reached, then lerp per rung
    lo = int(k0.min())
    land = tables.bnd_op @ np.stack(slices[lo:], axis=1)          # (Nb, slices reached)
    lerp = (1 - a) * land[:, k0 - lo] + a * land[:, k1 - lo]
    best = (tables.bnd_stage + lerp).min(axis=1)
    out[tables.bnd_rows] = np.minimum(out[tables.bnd_rows], best)
    return out


def value(u0: GridField, H: Hamiltonian, Bm: BoundaryOperator, kind: str,
          T: float, controls: ControlSet | None = None) -> SpaceTimeField:
    """Control-representation value up to horizon T >= 0.

    The step is dt = T / n for the fewest n steps of at most h / v_max; T = 0
    gives the one slice u0. Monotone and nonexpansive in u0 slice by slice.
    Needs a convex H for the representation to match the PDE solution;
    `build_tables` raises for any other. kind is "cn" or "e1" (Neumann) or
    "dbc" or "e2" (dynamical), as for ``pde.evolve``.
    """
    kind = scheme_kind(kind)
    if T < 0:
        raise NumericalError("T must be nonnegative")
    grid = u0.grid
    if controls is None:
        controls = build_control_set(H, Bm, grid)
    dt = grid.h / max(controls.v_max, 1e-9)
    if T == 0:
        return SpaceTimeField(grid, np.array([0.0]), u0.values[None, :].copy(), dt)
    n = max(1, int(np.ceil(T / dt - 1e-12)))
    dt = T / n
    tables = build_tables(grid, H, controls, dt)
    slices = [u0.values.copy()]
    for _ in range(n):
        if kind == "cn":
            slices.append(dp_step_cn(slices[-1], tables))
        else:
            slices.append(dp_step_dbc(slices, tables))
    times = dt * np.arange(n + 1)
    return SpaceTimeField(grid, times, np.stack(slices), dt)


@dataclass
class CrosscheckReport:
    times: np.ndarray
    sup_errors: np.ndarray

    @property
    def final_error(self) -> float:
        return float(self.sup_errors[-1])


def crosscheck(table: SpaceTimeField, evolution: SpaceTimeField,
               times=None) -> CrosscheckReport:
    """Per-stamp sup distance between the control value and the marched field."""
    if table.grid is not evolution.grid:
        raise NumericalError("crosscheck needs both fields on one grid")
    if times is None:
        times = [t for t in table.times
                 if np.min(np.abs(evolution.times - t)) <= 0.51 * table.dt]
    ts, errs = [], []
    for t in times:
        u = evolution.at_time(t, tol=max(table.dt, evolution.dt))
        U = table.at_time(t)
        ts.append(t)
        errs.append(float(np.abs(U - u).max()))
    if not ts:
        raise NumericalError("no aligned stamps between the value table and "
                             "the evolution record")
    return CrosscheckReport(np.asarray(ts), np.asarray(errs))
