"""Optimal-control values for both problems by semi-Lagrangian programming.

The state moves with a lattice velocity w (cost rate L(x, -w)); at the
boundary an additional reflection intensity l from a geometric ladder pulls
along the selected direction gamma at cost rate l*g, and under the
dynamical boundary condition it also consumes extra clock time dt*l.
Landing points outside the closure are corrected by the single-step
Skorokhod rule (project, pull back along gamma at the contact point, pay
the contact cost). Interpolation is multilinear with nonnegative weights,
so one step is monotone and nonexpansive in the value array exactly.

Stage costs and interpolation stencils are independent of the value being
iterated; they are precomputed once into tables (stencils as sparse
operators) whose DP step the time-marching values here and the stationary
value iteration of the weak-KAM module share. The tables are built as
whole-array operations: all landing points of a batch go through one
projection, one evaluation of the selection and one pull-back (both are
the geometry's Newton iteration onto the boundary), the
stencils are read off the grid's dense lattice index, and the stage costs
come from the Hamiltonian's closed-form conjugate where it has one
(``quadratic``), else from the conjugate engine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .errors import NumericalError
from .geometry import Grid, project_to_closure
from .models import (BoundaryOperator, Hamiltonian, ObliqueSelection, _lattice,
                     effective_velocity_bound, lagrangian_batch,
                     oblique_selection)
from .pde import GridField, SpaceTimeField
from .skorokhod import _pullback_intensity

STAGE_CAP = 1e8


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
        level = 2.0 * float(np.abs(H(grid.nodes, np.zeros(grid.dim))).max()) + 2.0
        v_max = 1.0 + H.coercivity_radius(level, grid.nodes)
        v_max = effective_velocity_bound(H, grid.nodes, v_max)
    vel = _lattice(grid.dim, v_max, n_velocity)
    l_max = v_max / Bm.theta
    ladder = l_max * 2.0 ** (-np.arange(8)[::-1].astype(float))
    return ControlSet(vel, ladder, oblique_selection(Bm), float(v_max))


def _interp_weights(grid: Grid, pts: np.ndarray) -> sparse.csr_matrix:
    """Multilinear interpolation operator, one row per point (K = 2^dim corners).

    Snapped boundary nodes are addressed at their original lattice slots
    (grid.node_at); missing corners get their weight redistributed over the
    present ones, keeping the stencil nonnegative with unit sum. A point
    with no present corner takes the nearest node.
    """
    d = grid.dim
    frac = (pts - np.asarray(grid.geom.bounds[0], dtype=float)) / grid.h
    base = np.floor(frac + 1e-12).astype(np.int64)
    rem = np.clip(frac - base, 0.0, 1.0)[:, None, :]
    corners = np.stack(np.meshgrid(*([np.array([0, 1])] * d), indexing="ij"),
                       axis=-1).reshape(-1, d)
    w = np.prod(np.where(corners == 1, rem, 1.0 - rem), axis=-1)     # (M, K)
    t = base[:, None, :] + corners                                   # (M, K, dim)
    inbox = np.all((t >= 0) & (t < grid.node_at.shape), axis=-1)
    idx = np.full(w.shape, -1, dtype=np.int64)
    idx[inbox] = grid.node_at[tuple(t[inbox].T)]
    wgt = np.where((idx >= 0) & (w > 0), w, 0.0)
    idx = np.maximum(idx, 0)
    tot = wgt.sum(axis=1)
    for m in np.flatnonzero(tot <= 0):
        idx[m, 0] = int(np.argmin(np.linalg.norm(grid.nodes - pts[m], axis=-1)))
        wgt[m, 0] = tot[m] = 1.0
    wgt /= tot[:, None]
    op = sparse.csr_matrix((wgt.ravel(), idx.ravel(), np.arange(0, idx.size + 1, 2 ** d)),
                           shape=(pts.shape[0], grid.n_nodes))
    op.eliminate_zeros()
    return op


def _land_and_cost(grid: Grid, sel: ObliqueSelection, pts: np.ndarray,
                   dt: float):
    """Skorokhod single-step correction for landing points; returns cost.

    The points outside the closure go through one projection, one
    evaluation of the selection and one pull-back as a batch.
    """
    geom = grid.geom
    cost = np.zeros(pts.shape[0])
    out = pts.copy()
    m = np.flatnonzero(np.asarray(geom.rho(pts), dtype=float) > 1e-12)
    if m.size:
        hat = project_to_closure(geom, pts[m])
        gam = np.asarray(sel.gamma(hat), dtype=float)
        lc = _pullback_intensity(geom, pts[m], gam, dt)
        out[m] = pts[m] - dt * lc[:, None] * gam
        cost[m] = dt * lc * sel.g(hat)
    return out, cost


@dataclass
class DPTables:
    """Stage costs and interpolation stencils for one (grid, H, B, controls, dt).

    Operator row n*C + c interpolates at the landing point of control c
    from node n; values of u (N,) or (N, S) come out as (n, C) or (n, C, S).
    """

    grid: Grid
    controls: ControlSet
    dt: float
    free_stage: np.ndarray     # (N, Cv)
    free_op: sparse.csr_matrix  # (N*Cv, N)
    bnd_rows: np.ndarray       # boundary node ids (Nb,)
    bnd_stage: np.ndarray      # (Nb, Cb)
    bnd_op: sparse.csr_matrix  # (Nb*Cb, N)
    bnd_l: np.ndarray          # (Cb,) intensity of each boundary control

    def free_values(self, u: np.ndarray) -> np.ndarray:
        return _stage_plus(self.free_stage, self.free_op @ u)

    def boundary_values(self, u: np.ndarray) -> np.ndarray:
        return _stage_plus(self.bnd_stage, self.bnd_op @ u)


def _stage_plus(stage: np.ndarray, land: np.ndarray) -> np.ndarray:
    """stage (n, C) plus landing values (n*C,) or (n*C, S), reshaped to match;
    adds in place into land, a fresh product that nothing else holds."""
    land = land.reshape(stage.shape + land.shape[1:])
    land += stage.reshape(stage.shape + (1,) * (land.ndim - 2))
    return land


def build_tables(grid: Grid, H: Hamiltonian, Bm: BoundaryOperator,
                 controls: ControlSet, dt: float, reverse: bool = False) -> DPTables:
    """Precompute stages and stencils; reverse=True builds the tables of the
    time-reversed trajectories (stage L(x, +w), reflections entering). The
    conjugate engine starts from the radius max(6, 2 v_max)."""
    if dt <= 0:
        raise NumericalError("dt must be positive")
    if dt * controls.v_max > 2.0 * grid.h + 1e-12:
        raise NumericalError(
            f"dt*v_max = {dt * controls.v_max:g} exceeds the interpolation "
            f"locality bound 2h = {2 * grid.h:g}")
    sel = controls.selection
    W = controls.velocities
    Cv = W.shape[0]
    N = grid.n_nodes
    sgn = 1.0 if reverse else -1.0
    radius = max(6.0, 2.0 * controls.v_max)

    X = np.repeat(grid.nodes, Cv, axis=0)
    XI = np.tile(sgn * W, (N, 1))
    L = lagrangian_batch(H, X, XI, radius=radius).reshape(N, Cv)

    pts = (grid.nodes[:, None, :] + dt * W[None, :, :]).reshape(-1, grid.dim)
    pts, corr = _land_and_cost(grid, sel, pts, dt)
    free_op = _interp_weights(grid, pts)
    free_stage = dt * L + corr.reshape(N, Cv)
    free_stage[L >= STAGE_CAP] = np.inf

    rows = grid.boundary_idx
    xb, lad = grid.nodes[rows], controls.intensities
    gam_b = np.asarray(sel.gamma(xb), dtype=float)
    refl = lad[:, None] * gam_b[:, None, :]                            # (Nb, m, dim)

    # boundary controls, per intensity l: every (w, l) pair, landing at
    # x + dt*(w - l*gamma) (reversed paths flip the reflection term only),
    # then the pressing pair w = l*gamma that holds the state on the
    # boundary exactly and costs L(x, -l*gamma) either way
    Lp = lagrangian_batch(H, np.repeat(xb, lad.size, axis=0), -refl.reshape(-1, grid.dim),
                          radius=radius).reshape(-1, lad.size, 1)
    drift = np.concatenate([W + sgn * refl[:, :, None, :],
                            np.zeros(refl.shape[:2] + (1, grid.dim))], axis=2)
    bnd_pts = xb[:, None, None, :] + dt * drift                        # (Nb, m, Cv+1, dim)
    run = np.concatenate([np.broadcast_to(L[rows][:, None, :], Lp.shape[:2] + (Cv,)), Lp],
                         axis=2)
    bnd_stage = dt * (run + lad[:, None] * sel.g(xb)[:, None, None])
    bnd_l = np.repeat(lad, Cv + 1)
    flat, corr_b = _land_and_cost(grid, sel, bnd_pts.reshape(-1, grid.dim), dt)
    bnd_op = _interp_weights(grid, flat)
    bnd_stage = (bnd_stage + corr_b.reshape(bnd_stage.shape)).reshape(rows.size, -1)
    bnd_stage[~np.isfinite(bnd_stage)] = np.inf

    if np.any(~np.isfinite(free_stage).any(axis=1)):
        raise NumericalError("a node has no admissible control; enlarge the "
                             "velocity lattice or reduce dt")
    return DPTables(grid, controls, dt, free_stage, free_op, rows, bnd_stage,
                    bnd_op, bnd_l)


def dp_step_cn(u: np.ndarray, tables: DPTables) -> np.ndarray:
    """One backward-horizon step of the Neumann recursion on u (N,) or (N, S)."""
    vals = tables.free_values(u)
    out = vals.min(axis=1)
    if tables.bnd_rows.size:
        bv = tables.boundary_values(u).min(axis=1)
        out[tables.bnd_rows] = np.minimum(out[tables.bnd_rows], bv)
    return out


def dp_step_dbc(slices: list[np.ndarray], tables: DPTables) -> np.ndarray:
    """One step of the dynamical-boundary recursion with the slow clock.

    slices[j] holds the value at horizon j*dt; reflection with intensity l
    advances physical time by dt*(1+l), so boundary controls look back
    through linear interpolation in the stored stack (clamped at 0).
    """
    u_prev = slices[-1]
    vals = tables.free_values(u_prev)
    out = vals.min(axis=1)
    if tables.bnd_rows.size:
        j_new = len(slices)            # index of the slice being built
        back = j_new - (1.0 + tables.bnd_l)
        k0 = np.clip(np.floor(back).astype(int), 0, len(slices) - 1)
        k1 = np.clip(k0 + 1, 0, len(slices) - 1)
        a = np.clip(back - k0, 0.0, 1.0)
        # space-interpolate only the slices reached, then lerp per control
        lo = int(k0.min())
        land = (tables.bnd_op @ np.stack(slices[lo:], axis=1)).reshape(
            tables.bnd_stage.shape + (-1,))
        c = np.arange(tables.bnd_l.size)
        lerp = (1 - a) * land[:, c, k0 - lo] + a * land[:, c, k1 - lo]
        best = (tables.bnd_stage + lerp).min(axis=1)
        out[tables.bnd_rows] = np.minimum(out[tables.bnd_rows], best)
    return out


def value(u0: GridField, H: Hamiltonian, Bm: BoundaryOperator, kind: str,
          T: float, controls: ControlSet | None = None) -> SpaceTimeField:
    """Control-representation value up to horizon T.

    The step is dt = T / n for the fewest n steps of at most h / v_max.
    Monotone and nonexpansive in u0 slice by slice. Requires a convex
    Hamiltonian for the representation to match the PDE solution.
    """
    if kind not in ("cn", "dbc"):
        raise NumericalError(f"unknown kind {kind!r}")
    if not H.convex:
        raise NumericalError("the control representation needs a convex H")
    grid = u0.grid
    if controls is None:
        controls = build_control_set(H, Bm, grid)
    dt = grid.h / max(controls.v_max, 1e-9)
    n = max(1, int(np.ceil(T / dt - 1e-12)))
    dt = T / n
    tables = build_tables(grid, H, Bm, controls, dt)
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
