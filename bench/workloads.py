"""The four benchmark workloads, each run through hj_neumann's public entry points.

A workload has a set-up (grid, models and, where it has one, the control
set), a solve (the solver calls that are timed) and a check of the solve's
outputs. Checks compare with computations made apart from the program, or
with properties the method must have; none compares with stored output.

Each workload loads one layer that the roadmap plans to rewrite:

- ergodic-disc: the per-node Gauss-Seidel fixed point of ``ergodic``;
- marching-disc: the ``pde`` marching and its boundary root;
- control-disc: the semi-Lagrangian tables of ``variational``;
- weak-kam-1d: the fast sweeps of ``weak_kam``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import integrate

from hj_neumann import ergodic as E
from hj_neumann import geometry as G
from hj_neumann import models as M
from hj_neumann import pde as P
from hj_neumann import variational as V
from hj_neumann import weak_kam as W

# first-order constant K in the O(h) and O(h + dt) bounds below
K_FIRST_ORDER = 2.0
# the profile adds two distance errors and the mask spread; the program's
# own Aubry tolerance uses the same 5 * (h + dt)
K_PROFILE = 5.0


@dataclass(frozen=True)
class Workload:
    name: str
    ops: int                 # public solver calls made by one solve
    setup_repeats: int       # set-ups timed per round (short set-ups repeat)
    setup: Callable[[], dict]
    solve: Callable[[dict, "P.GridField | None"], dict]
    check: Callable[[dict, "P.GridField | None", dict], list]
    family: Callable | None  # seeded initial-data family, or None


# ---------------------------------------------------------------------------
# models and seeded initial data
# ---------------------------------------------------------------------------

def bowl(x):
    """V(x) = -|x|^2 / 2 on the disc; max V = 0 at the centre."""
    return -0.5 * np.sum(np.asarray(x, float) ** 2, axis=-1)


def cosine_well(x):
    """V(x) = -cos(2 pi x) - 1 on [0, 1]; max V = 0 at x = 1/2, so c = 0."""
    return -np.cos(2.0 * np.pi * np.asarray(x, float)[..., 0]) - 1.0


def disc_family(rng: np.random.Generator, lip: float = 1.0):
    """u0(x) = sum_k a_k cos(pi m_k . x + phi_k), scaled to Lipschitz <= lip.

    The bound keeps every seed below the dissipation radius the model fixes
    at p = 0, so the time step does not depend on the seed.
    """
    m = rng.integers(-2, 3, size=(3, 2))
    m[np.all(m == 0, axis=1)] = (1, 0)
    a = rng.uniform(0.5, 1.0, 3)
    phi = rng.uniform(0.0, 2.0 * np.pi, 3)
    a *= lip / float(np.sum(a * np.pi * np.linalg.norm(m, axis=1)))

    def u0(x):
        return np.cos(np.pi * x @ m.T + phi) @ a

    return u0


def interval_family(rng: np.random.Generator, lip: float = 2.0):
    """u0(x) = sum_k a_k cos(k pi x + phi_k), k = 1..3, Lipschitz <= lip."""
    k = np.arange(1, 4)
    a = rng.uniform(0.5, 1.0, 3)
    phi = rng.uniform(0.0, 2.0 * np.pi, 3)
    a *= lip / float(np.sum(a * k * np.pi))

    def u0(x):
        return np.cos(np.pi * x[:, :1] * k + phi) @ a

    return u0


def _disc_models(h: float) -> dict:
    geom = G.disc(0.0, 0.0, 1.0)
    grid = G.build_grid(geom, h)
    return {"grid": grid, "H": M.quadratic(2, bowl), "B": M.neumann(geom)}


# ---------------------------------------------------------------------------
# ergodic-disc: vanishing discount by per-node Gauss-Seidel
# ---------------------------------------------------------------------------

ERGODIC_H = 0.25
ERGODIC_SCHEDULE = (0.1, 0.03)


def ergodic_setup() -> dict:
    return _disc_models(ERGODIC_H)


def ergodic_solve(s: dict, u0) -> dict:
    return {"pair": E.ergodic_limit(s["H"], s["B"], s["grid"], "e1",
                                    ERGODIC_SCHEDULE)}


def _mirror_maps(grid) -> list:
    """Node permutations for the reflections of the disc that map the
    clipped lattice to itself; empty when the lattice is not symmetric."""
    keys = {tuple(np.round(x, 9)): i for i, x in enumerate(grid.nodes)}
    maps = []
    for f in (lambda x: (-x[0], x[1]), lambda x: (x[0], -x[1]),
              lambda x: (x[1], x[0])):
        perm = [keys.get(tuple(np.round(f(x), 9) + 0.0), -1) for x in grid.nodes]
        if min(perm) >= 0:
            maps.append(np.asarray(perm))
    return maps


def ergodic_check(s: dict, u0, out: dict) -> list:
    grid, pair = s["grid"], out["pair"]
    h = grid.h
    eps = ERGODIC_SCHEDULE[-1]
    v = pair.v.values
    stop = eps * h ** 2                      # the solver's stopping tolerance
    bad = []
    # constants are discrete subsolutions, so c <= max V = 0
    if not pair.c <= stop:
        bad.append(f"c = {pair.c:.6g} exceeds max V = 0")
    # the Lax-Friedrichs bias lowers c by at most first order in h
    if not pair.c >= -K_FIRST_ORDER * h:
        bad.append(f"c = {pair.c:.6g} below max V - K h = {-K_FIRST_ORDER * h:.6g}")
    if v[pair.anchor] != 0.0:
        bad.append(f"v(anchor) = {v[pair.anchor]:.3g}, not 0")
    # Phi(v) = Phi(u_eps) = -eps u_eps, so |Phi(v) - c| <= eps sup|v|
    # + |c + eps u_eps(x0)|; the sweeps stop once no node moves by more
    # than `stop`, which moves Phi by at most 2 stop / dt_max
    m_last = pair.epsilon_trace[-1][1]
    st = P.Stepper(grid, s["H"], s["B"], "cn",
                   grad_bound=max(P.discrete_lipschitz(grid, v), 1.0))
    bound = eps * np.abs(v).max() + abs(pair.c + m_last) + 2 * stop / st.dt_max
    if not pair.residual <= bound:
        bad.append(f"residual {pair.residual:.3g} above {bound:.3g}")
    maps = _mirror_maps(grid)
    if not maps:
        bad.append("the clipped lattice is not symmetric")
    for perm in maps:
        asym = float(np.abs(v - v[perm]).max())
        if asym > stop / eps:
            bad.append(f"v not invariant under a reflection: {asym:.3g}")
    return bad


# ---------------------------------------------------------------------------
# marching-disc: explicit marching to large time
# ---------------------------------------------------------------------------

MARCHING_H = 0.2
MARCHING_T = 8.0


def marching_setup() -> dict:
    return _disc_models(MARCHING_H)


def marching_solve(s: dict, u0) -> dict:
    T = MARCHING_T
    stf = P.evolve(u0, s["H"], s["B"], "cn", T=T, record_every=T / 10)
    return {"stf": stf,
            "c_half": E.large_time_slope(stf, 0.5 * T, T),
            "c_late": E.large_time_slope(stf, 0.8 * T, T)}


def marching_check(s: dict, u0, out: dict) -> list:
    h, T = s["grid"].h, MARCHING_T
    stf, c = out["stf"], out["c_half"]
    bad = []
    if not abs(c - out["c_late"]) <= h ** 2:
        bad.append(f"slope has not settled: {c:.6g} on (T/2, T), "
                   f"{out['c_late']:.6g} on (0.8T, T)")
    if not c <= h ** 2:
        bad.append(f"slope {c:.6g} exceeds max V = 0")
    if not c >= -K_FIRST_ORDER * h:
        bad.append(f"slope {c:.6g} below max V - K h = {-K_FIRST_ORDER * h:.6g}")
    # the paper's convergence of u + ct
    drift = np.abs(stf.at_time(T) + c * T - stf.at_time(0.5 * T) - 0.5 * c * T).max()
    if not drift <= h ** 2:
        bad.append(f"u + ct still moves by {drift:.3g} between T/2 and T")
    if not np.array_equal(stf.values[0], u0.values):
        bad.append("the record does not start at u0")
    return bad


# ---------------------------------------------------------------------------
# control-disc: semi-Lagrangian value under the dynamical boundary condition
# ---------------------------------------------------------------------------

CONTROL_H = 0.2
CONTROL_VELOCITIES = 9
CONTROL_T = 0.5


def control_setup() -> dict:
    s = _disc_models(CONTROL_H)
    s["controls"] = V.build_control_set(s["H"], s["B"], s["grid"],
                                        n_velocity=CONTROL_VELOCITIES)
    return s


def control_solve(s: dict, u0) -> dict:
    T = CONTROL_T
    table = V.value(u0, s["H"], s["B"], "dbc", T=T, controls=s["controls"])
    stf = P.evolve(u0, s["H"], s["B"], "dbc", T=T, record_every=T / 10)
    return {"table": table, "report": V.crosscheck(table, stf, times=[T / 2, T])}


def control_check(s: dict, u0, out: dict) -> list:
    grid, table, rep = s["grid"], out["table"], out["report"]
    bad = []
    bound = K_FIRST_ORDER * (grid.h + table.dt)
    worst = float(rep.sup_errors.max())
    if not worst <= bound:
        bad.append(f"crosscheck sup|U - u| = {worst:.3g} above K (h + dt) = {bound:.3g}")
    if not np.array_equal(table.values[0], u0.values):
        bad.append("U(., 0) differs from u0")
    # L = |xi|^2/2 + |x|^2/2 >= 0 and reflections cost g = 0: U >= min u0
    low = float(table.values.min() - u0.values.min())
    if not low >= -1e-12:
        bad.append(f"U falls below min u0 by {-low:.3g}")
    # staying put is a free control: U(x, t) <= u0(x) + t L(x, 0) with
    # L(x, 0) = |x|^2/2; at interior nodes it lands exactly on the node
    inner = grid.interior_idx
    cap = u0.values[inner] + np.outer(table.times, -bowl(grid.nodes[inner]))
    over = float((table.values[:, inner] - cap).max())
    if not over <= 1e-9:
        bad.append(f"U exceeds u0 + t L(x, 0) by {over:.3g}")
    return bad


# ---------------------------------------------------------------------------
# weak-kam-1d: action matrix, Aubry set and asymptotic profile
# ---------------------------------------------------------------------------

WEAK_KAM_H = 0.025
WEAK_KAM_VELOCITIES = 33
WEAK_KAM_VMAX = 2.5
WEAK_KAM_FORMS = [(1.0, 0.2), (2.0, 0.5)]


def weak_kam_setup() -> dict:
    geom = G.interval(0.0, 1.0)
    grid = G.build_grid(geom, WEAK_KAM_H)
    H = M.quadratic(1, cosine_well)
    B = M.max_affine(geom, WEAK_KAM_FORMS)
    controls = V.build_control_set(H, B, grid, n_velocity=WEAK_KAM_VELOCITIES,
                                   v_max=WEAK_KAM_VMAX)
    return {"grid": grid, "H": H, "B": B, "controls": controls}


def weak_kam_solve(s: dict, u0) -> dict:
    action = W.action_matrix(s["grid"], s["H"], s["B"], controls=s["controls"])
    mask = W.aubry_set(action)
    return {"action": action, "mask": mask,
            "profile": W.asymptotic_profile(u0, action, mask)}


def agmon_distance(x: float, y: float) -> float:
    """d(x, y) = |int_x^y sqrt(2 (max V - V(s))) ds| = |int_x^y 2 |cos pi s| ds|."""
    val, _ = integrate.quad(lambda t: 2.0 * abs(np.cos(np.pi * t)), min(x, y),
                            max(x, y), points=[0.5], epsabs=1e-12)
    return val


def weak_kam_check(s: dict, u0, out: dict) -> list:
    grid, controls = s["grid"], s["controls"]
    action, mask = out["action"], out["mask"]
    xs = grid.nodes[:, 0]
    half = int(np.argmin(np.abs(xs - 0.5)))
    bad = []
    # the reflection offsets are positive: no path gains at the boundary,
    # so the interior Agmon distance is the exact intrinsic distance
    offsets = [float(controls.selection.g(grid.nodes[i])) for i in grid.boundary_idx]
    if not min(offsets) > 0:
        bad.append(f"reflection offsets {offsets} are not positive")
    if half not in set(mask.nodes.tolist()):
        bad.append("the Aubry mask misses x = 1/2")
    spread = float(np.abs(xs[mask.nodes] - 0.5).max())
    if not spread <= 0.1 + 1e-12:
        bad.append(f"the Aubry mask reaches {spread:.3g} from x = 1/2")
    tol = K_FIRST_ORDER * (grid.h + action.tables.dt)
    d_half = np.array([agmon_distance(x, 0.5) for x in xs])
    err_d = float(np.abs(action.column(half) - d_half).max())
    if not err_d <= tol:
        bad.append(f"d(., 1/2) off the Agmon quadrature by {err_d:.3g} > {tol:.3g}")
    expect = d_half + float(np.min(d_half + u0.values))
    err_p = float(np.abs(out["profile"].values - expect).max())
    tol_p = K_PROFILE * (grid.h + action.tables.dt)
    if not err_p <= tol_p:
        bad.append(f"profile off d(x, 1/2) + min_z (d(1/2, z) + u0(z)) "
                   f"by {err_p:.3g} > {tol_p:.3g}")
    return bad


WORKLOADS = {
    "ergodic-disc": Workload("ergodic-disc", 1, 20, ergodic_setup,
                             ergodic_solve, ergodic_check, None),
    "marching-disc": Workload("marching-disc", 3, 20, marching_setup,
                              marching_solve, marching_check, disc_family),
    "control-disc": Workload("control-disc", 3, 1, control_setup,
                             control_solve, control_check, disc_family),
    "weak-kam-1d": Workload("weak-kam-1d", 3, 20, weak_kam_setup,
                            weak_kam_solve, weak_kam_check, interval_family),
}
