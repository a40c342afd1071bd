"""Intrinsic distance, Aubry set, asymptotic profile, monotonicity traces.

All quantities here presume models normalized so the additive eigenvalue is
zero (stage costs of admissible loops are then nonnegative); a divergent
iteration signals a missed normalization.

The intrinsic distance d(., y) is the fixed point of the same control
recursion the value module iterates in time, with d(y) pinned to zero: the
discrete maximal subsolution vanishing at y. It is solved by Howard's
policy iteration (Howard, Dynamic Programming and Markov Processes, 1960)
on that module's DP tables, a batch of sources at once, all through
`distances`; `action_matrix` builds the tables for it. On the tables of
`distance_tables(..., reverse=True)` the same call returns the rows d(y, .)
instead of the columns. The controls are recast as exit rows, each control
held at its node until the state leaves it; of the rows that land on one
node alone, only the cheapest per landing is kept. A policy picks one exit
row per node and column, its value comes from one sparse LU, and the policy
switches only where the DP step improves on that value. Policy iteration is
a semismooth Newton method (Bokanowski, Maroso & Zidani, SIAM J. Numer.
Anal. 47, 2009), so it stops after a few steps at a fixed point exact up to
rounding. A point y belongs to the Aubry mask when d(., y) also satisfies
the recursion AT y within tolerance, i.e. pinning was not an active
constraint. The asymptotic profile is the two-stage minimization of
distance plus initial data over the mask.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .errors import ConvergenceError, NormalizationError, NumericalError
from .geometry import Grid
from .models import BoundaryOperator, Hamiltonian
from .pde import GridField, SpaceTimeField
from .variational import (ControlSet, DPTables, _stage_plus, build_control_set, build_tables,
                          dp_step_cn)

# policy steps a batch of distance columns may take to settle
MAX_POLICY_STEPS = 50


@dataclass
class ActionMatrix:
    """d[i, j] = intrinsic distance from node sources[j] evaluated at node i,
    d(i, sources[j]). Built on reversed tables (`distance_tables(...,
    reverse=True)`) it holds the rows instead: d[i, j] = d(sources[j], i),
    and column(y) is the row d(y, .)."""

    grid: Grid
    sources: np.ndarray          # (S,) node ids
    d: np.ndarray                # (N, S)
    tables: DPTables
    pin_margin: np.ndarray       # (S,) dp_residual of column j at sources[j]

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
    holds ~2e6 entries. A policy step holds one; the first-arrival
    products over the merged exit form, (R, N, S) with R <= Cv, are no
    larger."""
    step = max(1, int(2e6 // tables.free_stage.size))
    return [slice(s, s + step) for s in range(0, S, step)]


def _exit_form(tables: DPTables) -> tuple[np.ndarray, sparse.csr_matrix]:
    """The free controls with each one's self-loop solved out, merged to
    distinct exit stencils, as (stage (R, N), op (R*N, N)).

    Using control c at node x until the state leaves x costs
    free_stage[c, x] / off and lands on node j != x with weight w_j / off,
    where w is free_op's row c*N + x and off = sum over j != x of w_j.
    Dividing by off, not 1 - w_x, keeps a row whose self weight rounds near
    1 exact. A control that never leaves (off = 0: staying put on the node)
    or costs +inf is dropped. A row that lands on one node j alone is
    exactly {j: 1.0}, so of those only the cheapest per (x, j) can win a
    min; it is kept, the lowest control id on a tie, and so is every row
    with more than one landing. Row r*N + x is node x's r-th kept row in
    increasing control id, so argmin ties resolve as over the controls; R
    is the most rows a node keeps, and a node with fewer is padded with
    +inf stages on empty rows."""
    Cv, N = tables.free_stage.shape
    op = tables.free_op.tocoo()
    leave = op.col != op.row % N
    row, col, w = op.row[leave], op.col[leave], op.data[leave]
    off = np.bincount(row, w, minlength=Cv * N)
    lands = np.bincount(row, minlength=Cv * N)
    stage = np.full(Cv * N, np.inf)
    moves = off > 0
    stage[moves] = tables.free_stage.ravel()[moves] / off[moves]
    keep = (lands > 1) & np.isfinite(stage)
    one = np.flatnonzero((lands == 1) & np.isfinite(stage))
    target = np.empty(Cv * N, dtype=np.int64)
    target[row] = col
    key = one % N * N + target[one]
    # lexsort is stable and one is control-major: each (x, j) run starts
    # with its cheapest row of the lowest control id
    order = np.lexsort((stage[one], key))
    first = np.ones(order.size, dtype=bool)
    first[1:] = np.diff(key[order]) != 0
    keep[one[order[first]]] = True
    keep = keep.reshape(Cv, N)
    rid = (np.cumsum(keep, axis=0) - 1) * N + np.arange(N)      # merged row ids
    R = max(1, int(keep.sum(axis=0).max()))
    merged = np.full(R * N, np.inf)
    merged[rid[keep]] = stage[keep.ravel()]
    sel = keep.ravel()[row]
    return merged.reshape(R, N), sparse.csr_matrix(
        (w[sel] / off[row[sel]], (rid.ravel()[row[sel]], col[sel])), shape=(R * N, N))


def _first_arrival(exit_form: tuple, src: np.ndarray, N: int) -> np.ndarray:
    """A proper start policy (N, S) of exit-form row ids, column s pinned
    at node src[s].

    Value iteration d <- min(d, T' d) from +inf with d = 0 on the pins, T'
    the DP step in the exit form, reaches an entry at the step where some
    row's landings are all reached (one that lands on an unreached node
    costs +inf), and the entry takes that step's best row, priced as
    `_stage_plus`(stage, op @ d) as in the policy step. In a column where
    a step reaches no entry so, the unreached entries with some row landing
    on reached nodes are reached, each taking the best such row as if its
    unreached landings cost what the entry does. Either way every entry's
    row lands with positive weight on entries reached before it, so every
    path of the policy ends at a pin. Columns drop out of the iteration
    once reached. NumericalError if an entry cannot reach its pin."""
    stage, op = exit_form
    d = np.full((N, src.size), np.inf)
    d[src, np.arange(src.size)] = 0.0
    pol = np.zeros((N, src.size), dtype=np.int64)
    left = np.full(src.size, N - 1)     # unreached entries per column
    while left.any():
        act = np.flatnonzero(left)
        da = d[:, act]
        ra = np.isfinite(da)
        q = _stage_plus(stage, op @ da)
        Td = q.min(axis=0)
        new = np.isfinite(Td) & ~ra
        stall = ~new.any(axis=0)
        if stall.any():
            r = ra[:, stall]
            rho = (op @ r.astype(float)).reshape(*stage.shape, -1)
            with np.errstate(divide="ignore", invalid="ignore"):
                q[:, :, stall] = np.where(
                    rho > 0, _stage_plus(stage, op @ np.where(r, da[:, stall], 0.0)) / rho,
                    np.inf)
            Td[:, stall] = np.where(r, np.inf, q[:, :, stall].min(axis=0))
            new[:, stall] = np.isfinite(Td[:, stall])
        x, j = new.nonzero()
        count = np.bincount(j, minlength=act.size)
        if not count.all():
            raise NumericalError("a node cannot reach its source: the "
                                 "distance is +inf")
        pol[x, act[j]] = q[:, x, j].argmin(axis=0)
        da = np.minimum(da, Td)
        da[src[act], np.arange(act.size)] = 0.0
        d[:, act] = da
        left[act] -= count
    return pol


def _evaluate(exit_form: tuple, src: np.ndarray, pol: np.ndarray) -> np.ndarray:
    """Value d (N, S) of the policy pol (N, S) of exit-form row ids, column s
    pinned at node src[s]: d = stage_pi + P_pi d off the pins and d = 0 on
    them, in the exit form, from one sparse LU of the block-diagonal
    I - P_pi, one block per column.

    The row at entry (x, s) is exit row pol[x, s]*N + x read on column s;
    a pin's row is the identity with right-hand side 0. The rows of I -
    P_pi are laid out as the columns of a CSC matrix, its transpose, which
    the LU solves transposed. ConvergenceError if I - P_pi is singular:
    the policy holds some node in a cycle that never reaches its pin."""
    stage, op = exit_form
    N, S = pol.shape
    rows = (pol * N + np.arange(N)[:, None]).ravel()     # entries x*S + s
    free = np.ones((N, S), dtype=bool)
    free[src, np.arange(S)] = False
    free = free.ravel()
    rhs = np.where(free, stage.ravel()[rows], 0.0)
    if not np.all(np.isfinite(rhs)):
        raise ConvergenceError("policy evaluation: I - P_pi is singular; the "
                               "policy takes a row that never leaves its node")
    # column k = x*S + s: its diagonal 1 and -P_pi's row, which holds no
    # entry on its own node x, at the entries (j, s)
    sub = op[rows].tocoo()
    keep = free[sub.row]
    k = sub.row[keep]
    diag = np.arange(N * S)
    IPt = sparse.csc_matrix((np.concatenate([np.ones(N * S), -sub.data[keep]]),
                             (np.concatenate([diag, sub.col[keep] * S + k % S]),
                              np.concatenate([diag, k]))), shape=(N * S, N * S))
    try:
        d = splu(IPt, permc_spec="NATURAL").solve(rhs, trans="T")
    except RuntimeError:                          # SuperLU: exactly singular
        d = np.full(N * S, np.nan)
    if not np.all(np.isfinite(d)):
        raise ConvergenceError("policy evaluation: I - P_pi is singular; the "
                               "policy has a cycle that never reaches its pin")
    return d.reshape(N, S)


def distances(tables: DPTables, sources: np.ndarray) -> ActionMatrix:
    """Columns d(., y), y in sources (node ids in any order, array-like):
    the fixed point d = T d off the pins with d(y) = 0, T the DP step
    `dp_step_cn`, by Howard's policy iteration, exact up to rounding. On
    the tables of `distance_tables(..., reverse=True)` they are the rows
    d(y, .) instead. Each column's `dp_residual` at its pin, the
    pin_margin, is read off the column's last policy step.

    From the first-arrival policy (`_first_arrival`), each step evaluates
    the policy exactly (`_evaluate`) in the columns whose policy changed.
    Where T d < d - 1e-13 (1 + |d|), the policy switches to the best row
    of the exit form; it keeps the incumbent everywhere else, and stops when
    no entry improves, so d = T d off the pins up to rounding. While every
    cycle costs >= 0, strict improvement keeps the policy proper (Bertsekas
    & Tsitsiklis, Math. Oper. Res. 16, 1991).

    The stay-put stages, the zero velocity's row of the control-major free
    stages with the pressing controls folded in, must be nonnegative. Every
    source must be an integer node id in [0, N). ConvergenceError after
    MAX_POLICY_STEPS policy steps, with the largest improvement of each
    step as history."""
    ids = np.asarray(sources, dtype=np.int64)
    if not np.array_equal(ids, np.asarray(sources)):
        raise NumericalError(f"source node ids must be integers; got {sources}")
    sources, grid = ids, tables.grid
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
    floor = -10.0 * (1.0 + grid.geom.diameter
                     * float(np.abs(tables.free_stage[np.isfinite(tables.free_stage)]).max())
                     / tables.dt)
    exit_form = stage, op = _exit_form(tables)
    out, margin = np.empty((grid.n_nodes, sources.size)), np.empty(sources.size)
    for sl in _chunks(tables, sources.size):
        src = sources[sl]
        pol = _first_arrival(exit_form, src, grid.n_nodes)
        d, m = out[:, sl], margin[sl]
        cols = np.arange(src.size)       # the columns whose policy changed
        history = []
        for _ in range(MAX_POLICY_STEPS):
            dc = _evaluate(exit_form, src[cols], pol[:, cols])
            if np.min(dc) < floor:
                raise NormalizationError(
                    "distance iteration diverges to -inf: the models are not "
                    "normalized to eigenvalue zero; re-run the ergodic solver")
            d[:, cols] = dc
            gain = dc - dp_step_cn(dc, tables)
            m[cols] = gain[src[cols], np.arange(cols.size)] / tables.dt
            gain[src[cols], np.arange(cols.size)] = 0.0
            history.append(float(gain.max()))
            x, s = np.nonzero(gain > 1e-13 * (1.0 + np.abs(dc)))
            if x.size == 0:
                break
            pol[x, cols[s]] = np.argmin(_stage_plus(stage, op @ dc)[:, x, s], axis=0)
            cols = cols[np.unique(s)]
        else:
            raise ConvergenceError(
                f"policy iteration did not settle in {MAX_POLICY_STEPS} steps", history)
    return ActionMatrix(grid, sources, out, tables, margin)


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
    """`distances` on `distance_tables(grid, H, Bm, controls)`, for every
    node as a source by default.

    The full matrix is only assembled for grids up to 2000 nodes; pass an
    explicit source list beyond that.
    """
    if sources is None:
        if grid.n_nodes > 2000:
            raise NumericalError(
                "full action matrix needs <= 2000 nodes; pass an explicit source list")
        sources = np.arange(grid.n_nodes)
    return distances(distance_tables(grid, H, Bm, controls), sources)


def dp_residual(tables: DPTables, u: np.ndarray) -> np.ndarray:
    """Stationary residual (u - one DP step of u) / dt; zero for solutions."""
    return (u - dp_step_cn(u, tables)) / tables.dt


def aubry_set(action: ActionMatrix) -> AubryMask:
    """Sources where pinning was inactive: d(., y) solves the recursion at y.

    residual_margin is the `dp_residual` of d(., y) at y, a supersolution
    residual in equation units: <= 0 up to rounding everywhere,
    == 0 on the discrete Aubry set. It is the action matrix's pin_margin,
    so no DP step runs here. The tolerance 5*(h + dt) tracks the
    discretization inflation of the exact set.
    """
    aubry_tol = 5.0 * (action.grid.h + action.tables.dt)
    mask = action.pin_margin >= -aubry_tol
    if not np.any(mask):
        raise NumericalError("empty Aubry mask: the eigenvalue normalization "
                             "or the tolerance is off")
    return AubryMask(mask, action.pin_margin, action.sources, float(aubry_tol))


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
    the max with -eta; both are 1 at t = s, to rounding, and approach 1
    as s grows. Over t >= s the min is (min of gap(t) + eta t, less eta s)
    / gap(s), gap = u - v~ > 0: one backward running min (max for mu_minus).
    """
    u = evolution.values
    t = evolution.times
    if shift is None:
        shift = 1.0 - float((u - v.values[None, :]).min())
    gap = u - (v.values[None, :] - shift)
    if gap.min() < 1.0 - 1e-12:
        raise NormalizationError(
            f"normalization failed: min u - (v - shift) = {gap.min():g} < 1")
    lag = eta_param * t[:, None]
    up = np.minimum.accumulate((gap + lag)[::-1], axis=0)[::-1] - lag
    down = np.maximum.accumulate((gap - lag)[::-1], axis=0)[::-1] + lag
    mp, mm = (up / gap).min(axis=1), (down / gap).max(axis=1)
    return MonotonicityTrace(t, mp, mm, float(eta_param), float(shift),
                             float(gap.max()))
