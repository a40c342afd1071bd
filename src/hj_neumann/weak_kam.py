"""Intrinsic distance, Aubry set, asymptotic profile, monotonicity traces.

All quantities here presume models normalized so the additive eigenvalue is
zero (stage costs of admissible loops are then nonnegative); a divergent
iteration signals a missed normalization.

The intrinsic distance d(., y) is the fixed point of the same control
recursion the value module iterates in time, with d(y) pinned to zero: the
discrete maximal subsolution vanishing at y. It is reached by monotone
value iteration of that module's DP step, on a batch of sources at once.
A point y belongs to the Aubry mask when d(., y) also satisfies the
recursion AT y within tolerance, i.e. pinning was not an active
constraint. The asymptotic profile is the two-stage minimization of
distance plus initial data over the mask.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NormalizationError, NumericalError
from .geometry import Grid
from .models import BoundaryOperator, Hamiltonian
from .pde import GridField, SpaceTimeField
from .variational import ControlSet, DPTables, build_control_set, build_tables, dp_step_cn

# value-iteration steps a batch of distance columns may take to settle
MAX_SWEEPS = 2000


@dataclass
class ActionMatrix:
    """d[i, j] = intrinsic distance from node sources[j] evaluated at node i."""

    grid: Grid
    sources: np.ndarray          # (S,) node ids
    d: np.ndarray                # (N, S)
    tables: DPTables

    def column(self, y: int) -> np.ndarray:
        j = np.flatnonzero(self.sources == y)
        if j.size == 0:
            raise NumericalError(f"node {y} is not a source of the action matrix")
        return self.d[:, j[0]]


@dataclass
class AubryMask:
    mask: np.ndarray             # (S,) bool over the action sources
    residual_margin: np.ndarray  # (S,) d(y,y) - DP rhs at y (<= 0 up to tol)
    sources: np.ndarray
    tol: float

    @property
    def nodes(self) -> np.ndarray:
        return self.sources[self.mask]


@dataclass
class MonotonicityTrace:
    s: np.ndarray
    mu_plus: np.ndarray
    mu_minus: np.ndarray
    eta: float
    shift: float
    C: float                     # sup of the normalized gap u - v_shifted


def _chunks(tables: DPTables, S: int) -> list[slice]:
    """Column slices of an (N, S) stack so that each DP product, (Cv, N, S)
    over the controls (the boundary ones folded into the stay-put row),
    holds ~2e6 entries."""
    step = max(1, int(2e6 // tables.free_stage.size))
    return [slice(s, s + step) for s in range(0, S, step)]


def _distances(tables: DPTables, sources: np.ndarray, tol: float) -> np.ndarray:
    """Columns d(., y), y in sources: monotone value iteration d <- min(d, T d)
    from big with d(y) = 0, until max (d - T d)/dt <= tol off the pins.

    The stay-put stages, the zero velocity's row of the control-major free
    stages with the pressing controls folded in, must be nonnegative. Every
    source must be a node id in [0, N)."""
    grid = tables.grid
    if sources.size and not (0 <= sources.min() and sources.max() < grid.n_nodes):
        raise NumericalError(f"source node ids must lie in [0, {grid.n_nodes}); "
                             f"got {sources.min()} to {sources.max()}")
    # a negative stay-put stage means inf_p H(x, p) > 0 somewhere: the
    # eigenvalue is positive and the fixed point is -infinity
    c0 = int(np.argmin(np.linalg.norm(tables.controls.velocities, axis=-1)))
    stay = tables.free_stage[c0]
    if float(stay.min()) < -1e-12 * (1 + float(np.abs(stay).max())):
        raise NormalizationError(
            "zero-velocity stage cost is negative at some node: the models "
            "are not normalized to eigenvalue zero; re-run the ergodic solver")
    big = 1e7
    floor = -10.0 * (1.0 + grid.geom.diameter
                     * float(np.abs(tables.free_stage[np.isfinite(tables.free_stage)]).max())
                     / tables.dt)
    out = np.empty((grid.n_nodes, sources.size))
    for sl in _chunks(tables, sources.size):
        pins = (sources[sl], np.arange(sources[sl].size))
        d = np.full((grid.n_nodes, pins[1].size), big)
        d[pins] = 0.0
        for _ in range(MAX_SWEEPS):
            Td = np.minimum(d, dp_step_cn(d, tables))
            Td[pins] = 0.0
            if np.min(Td) < floor:
                raise NormalizationError(
                    "distance iteration diverges to -inf: the models are not "
                    "normalized to eigenvalue zero; re-run the ergodic solver")
            if np.max(d - Td) <= tol * tables.dt and np.max(d) < big:
                break
            d = Td
        else:
            raise NumericalError(
                f"value iteration did not settle in {MAX_SWEEPS} steps")
        out[:, sl] = d
    return out


def distance_from(grid: Grid, H: Hamiltonian, Bm: BoundaryOperator, y: int,
                  controls: ControlSet | None = None, tables: DPTables | None = None,
                  tol: float | None = None) -> GridField:
    """Distance column d(., y): maximal discrete subsolution vanishing at y.

    Stops once the `dp_residual` (d - T d)/dt is <= tol (default h^2) away
    from y; MAX_SWEEPS caps the value-iteration steps.
    """
    tables = tables if tables is not None else distance_tables(grid, H, Bm, controls)
    tol = grid.h ** 2 if tol is None else tol
    return GridField(grid, _distances(tables, np.array([int(y)]), tol)[:, 0])


def distance_to(grid: Grid, H: Hamiltonian, Bm: BoundaryOperator, x: int,
                controls: ControlSet | None = None, tables: DPTables | None = None,
                tol: float | None = None) -> GridField:
    """Distance row d(x, .): `distance_from` on the time-reversed tables,
    with tol in the same `dp_residual` units."""
    tables = tables if tables is not None else distance_tables(grid, H, Bm, controls,
                                                               reverse=True)
    tol = grid.h ** 2 if tol is None else tol
    return GridField(grid, _distances(tables, np.array([int(x)]), tol)[:, 0])


def distance_tables(grid: Grid, H: Hamiltonian, Bm: BoundaryOperator,
                    controls: ControlSet | None = None,
                    reverse: bool = False) -> DPTables:
    """DP tables of the distance recursion, with the step dt = h / v_max."""
    if controls is None:
        controls = build_control_set(H, Bm, grid)
    dt = grid.h / max(controls.v_max, 1e-9)
    return build_tables(grid, H, controls, dt, reverse=reverse)


def action_matrix(grid: Grid, H: Hamiltonian, Bm: BoundaryOperator,
                  controls: ControlSet | None = None,
                  sources: np.ndarray | None = None) -> ActionMatrix:
    """Distance columns for every source (all nodes by default).

    The full matrix is only assembled for grids up to 2000 nodes; pass an
    explicit source list beyond that.
    """
    if sources is None:
        if grid.n_nodes > 2000:
            raise NumericalError(
                "full action matrix needs <= 2000 nodes; pass an explicit source list")
        sources = np.arange(grid.n_nodes)
    sources = np.asarray(sources, dtype=np.int64)
    tables = distance_tables(grid, H, Bm, controls)
    return ActionMatrix(grid, sources, _distances(tables, sources, grid.h ** 2), tables)


def dp_residual(tables: DPTables, u: np.ndarray) -> np.ndarray:
    """Stationary residual (u - one DP step of u) / dt; zero for solutions."""
    return (u - dp_step_cn(u, tables)) / tables.dt


def aubry_set(action: ActionMatrix) -> AubryMask:
    """Sources where pinning was inactive: d(., y) solves the recursion at y.

    residual_margin is the `dp_residual` of d(., y) at y, a supersolution
    residual in equation units: <= 0 up to iteration tolerance everywhere,
    == 0 on the discrete Aubry set. The tolerance 5*(h + dt) tracks the
    discretization inflation of the exact set.
    """
    tables = action.tables
    aubry_tol = 5.0 * (action.grid.h + tables.dt)
    margins = np.empty(action.sources.size)
    for sl in _chunks(tables, action.sources.size):
        margins[sl] = np.diag(dp_residual(tables, action.d[:, sl])[action.sources[sl]])
    mask = margins >= -aubry_tol
    if not np.any(mask):
        raise NumericalError("empty Aubry mask: the eigenvalue normalization "
                             "or the tolerance is off")
    return AubryMask(mask, margins, action.sources, float(aubry_tol))


def asymptotic_profile(u0: GridField, action: ActionMatrix,
                       mask: AubryMask) -> GridField:
    """Large-time profile: two nested minimizations through the Aubry mask.

    u0_minus(y) = min_z d(y, z) + u0(z) needs distance rows at the mask
    nodes; with the full action matrix these are just its rows. The sources
    may come in any order.
    """
    if not np.array_equal(np.sort(action.sources), np.arange(action.grid.n_nodes)):
        raise NumericalError("asymptotic_profile needs every node once as a source")
    D = action.d[:, np.argsort(action.sources)]     # D[:, y] = d(., y)
    sel = mask.nodes
    rows = D[sel, :]                                 # d(y, z), y in mask
    u0_minus = (rows + u0.values[None, :]).min(axis=1)
    cols = D[:, sel]
    prof = (cols + u0_minus[None, :]).min(axis=1)
    return GridField(action.grid, prof)


def monotonicity_trace(evolution: SpaceTimeField, v: GridField,
                       eta_param: float, shift: float | None = None) -> MonotonicityTrace:
    """Asymptotic monotonicity diagnostics on a recorded evolution.

    mu_plus(s), at every recorded stamp s, = min over stamps t >= s and
    over nodes of (u(x,t) - v~(x) + eta (t-s)) / (u(x,s) - v~(x)) with
    v~ = v - shift normalized so the denominator stays >= 1; mu_minus is
    the max with -eta. Both equal 1 at t = s and approach 1 as s grows.
    """
    u = evolution.values
    t = evolution.times
    if shift is None:
        shift = 1.0 - float((u - v.values[None, :]).min())
    gap = u - (v.values[None, :] - shift)
    if gap.min() < 1.0 - 1e-12:
        raise NormalizationError(
            f"normalization failed: min u - (v - shift) = {gap.min():g} < 1")
    mp = np.empty(t.size)
    mm = np.empty(t.size)
    for k, s in enumerate(t):
        lag = eta_param * (t[k:] - s)[:, None]
        mp[k] = ((gap[k:] + lag) / gap[k]).min()
        mm[k] = ((gap[k:] - lag) / gap[k]).max()
    return MonotonicityTrace(t, mp, mm, float(eta_param), float(shift),
                             float(gap.max()))
