"""Spans around the calls into each hj_neumann module, installed from outside.

Each wrapper replaces a name where it is looked up: a module-level function
in every module that binds it (``from .x import y`` makes a second binding
in the importing module), and a method on its class. A span records
(name, start, end, parent); a layer's self time is its spans' duration
minus the time their child spans cover. Counts are taken at the same
boundaries. Everything stays in memory until the run writes it out.
"""

from __future__ import annotations

import contextlib
import functools
import json
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

from hj_neumann import ergodic, geometry, models, pde, skorokhod, variational, weak_kam


def _points(tracer, args, out):
    tracer.counts[tracer.current + ".points"] += int(np.size(out))


def _sweep(tracer, args, out):
    if tracer.open_by_name["ergodic.discounted_solve"]:
        tracer.counts["ergodic.sweeps"] += 1


def _pairs(tracer, args, out):
    tracer.counts["models.lagrangian_batch.pairs"] += int(np.shape(args[1])[0])


def _sources(tracer, args, out):
    tracer.counts["weak_kam.sources"] += int(out.sources.size)


# (owner, attribute, span name, count hook)
TARGETS = [
    (geometry, "build_grid", "geometry.build_grid", None),
    (models, "build_grid", "geometry.build_grid", None),
    (geometry, "project_to_closure", "geometry.project_to_closure", None),
    (variational, "project_to_closure", "geometry.project_to_closure", None),
    (skorokhod, "project_to_closure", "geometry.project_to_closure", None),
    (models, "estimate_obliqueness", "models.estimate_obliqueness", None),
    (models, "effective_velocity_bound", "models.effective_velocity_bound", None),
    (variational, "effective_velocity_bound", "models.effective_velocity_bound", None),
    (models.Hamiltonian, "__call__", "models.H", _points),
    (models.BoundaryOperator, "__call__", "models.B", _points),
    (models, "lagrangian_batch", "models.lagrangian_batch", _pairs),
    (variational, "lagrangian_batch", "models.lagrangian_batch", _pairs),
    (models, "moreau", "models.moreau", None),
    (models, "boundary_conjugate", "models.boundary_conjugate", None),
    (pde.Stepper, "__init__", "pde.Stepper.build", None),
    (pde.Stepper, "rhs", "pde.Stepper.rhs", _sweep),
    (pde, "_ghost_solve_many", "pde.ghost_root", None),
    (pde, "evolve", "pde.evolve", None),
    (ergodic, "ergodic_limit", "ergodic.ergodic_limit", None),
    (ergodic, "discounted_solve", "ergodic.discounted_solve", None),
    (ergodic, "stationary_residual", "ergodic.stationary_residual", None),
    (pde, "stationary_residual", "ergodic.stationary_residual", None),
    (ergodic, "large_time_slope", "ergodic.large_time_slope", None),
    (variational, "build_control_set", "variational.build_control_set", None),
    (weak_kam, "build_control_set", "variational.build_control_set", None),
    (variational, "build_tables", "variational.build_tables", None),
    (weak_kam, "build_tables", "variational.build_tables", None),
    (variational, "dp_step_cn", "variational.dp_step", None),
    (variational, "dp_step_dbc", "variational.dp_step", None),
    (weak_kam, "dp_step_cn", "variational.dp_step", None),
    (variational, "value", "variational.value", None),
    (variational, "crosscheck", "variational.crosscheck", None),
    (variational, "_pullback_intensity", "skorokhod.pullback", None),
    (skorokhod, "_pullback_intensity", "skorokhod.pullback", None),
    (weak_kam, "action_matrix", "weak_kam.action_matrix", _sources),
    (weak_kam, "aubry_set", "weak_kam.aubry_set", None),
    (weak_kam, "asymptotic_profile", "weak_kam.asymptotic_profile", None),
]

# the speed probe's spans: children of whatever span was open, so that its
# time is no layer's self time
PROBE = "bench.probe"

# span-derived names that the metric table spells differently
ALIASES = {"pde.Stepper.build.calls": "pde.Stepper.builds",
           "pde.Stepper.build.s": "pde.Stepper.build_s"}

# per-layer metrics that must be non-zero in each workload's trace
REQUIRED = {
    "ergodic-disc": [
        "geometry.build_grid.s", "models.estimate_obliqueness.s",
        "models.H.calls", "models.H.points", "models.H.points_per_call", "models.H.s",
        "models.B.calls", "models.B.points", "models.B.s",
        "pde.Stepper.builds", "pde.Stepper.build_s",
        "pde.Stepper.rhs.calls", "pde.Stepper.rhs.s",
        "pde.ghost_root.calls", "pde.ghost_root.s",
        "ergodic.discounted_solve.calls", "ergodic.discounted_solve.s",
        "ergodic.sweeps", "ergodic.stationary_residual.s"],
    "marching-disc": [
        "geometry.build_grid.s", "models.estimate_obliqueness.s",
        "models.B.calls", "models.B.points", "models.B.s",
        "pde.Stepper.builds", "pde.Stepper.build_s",
        "pde.Stepper.rhs.calls", "pde.Stepper.rhs.s",
        "pde.ghost_root.calls", "pde.ghost_root.s"],
    "control-disc": [
        "geometry.build_grid.s", "models.estimate_obliqueness.s",
        "geometry.project_to_closure.calls", "geometry.project_to_closure.s",
        "models.effective_velocity_bound.s",
        "models.H.calls", "models.H.points", "models.H.points_per_call", "models.H.s",
        "models.lagrangian_batch.pairs", "models.lagrangian_batch.s",
        "variational.build_control_set.s",
        "variational.build_tables.calls", "variational.build_tables.s",
        "variational.dp_step.calls", "variational.dp_step.s",
        "skorokhod.pullback.calls", "skorokhod.pullback.s"],
    "weak-kam-1d": [
        "geometry.build_grid.s", "models.estimate_obliqueness.s",
        "models.lagrangian_batch.pairs", "models.lagrangian_batch.s",
        "models.moreau.calls", "models.moreau.s",
        "models.boundary_conjugate.calls", "models.boundary_conjugate.s",
        "variational.build_control_set.s",
        "variational.build_tables.calls", "variational.build_tables.s",
        "variational.dp_step.calls", "variational.dp_step.s",
        "weak_kam.action_matrix.s", "weak_kam.sources",
        "weak_kam.aubry_set.s", "weak_kam.asymptotic_profile.s"],
}


class Tracer:
    """Span and count recorder for one traced round."""

    def __init__(self):
        self.spans: list = []         # [name, start, end, parent index or -1]
        self.stack: list = []         # indices of the open spans
        self.open_by_name: Counter = Counter()
        self.counts: Counter = Counter()
        self.current = ""             # name of the span a count hook runs for

    def _wrap(self, name, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans, stack = tracer.spans, tracer.stack
            idx = len(spans)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(rec)
            stack.append(idx)
            tracer.open_by_name[name] += 1
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
                tracer.open_by_name[name] -= 1
            if hook is not None:
                tracer.current = name
                hook(tracer, args, out)
            return out

        return traced

    def add_probe(self, start: float, end: float):
        """Record a speed probe as a closed span under the open one."""
        self.spans.append([PROBE, start, end, self.stack[-1] if self.stack else -1])

    @contextlib.contextmanager
    def installed(self):
        """Replace every target by its wrapper; restore the originals on exit."""
        saved = []
        try:
            for owner, attr, name, hook in TARGETS:
                orig = vars(owner)[attr]
                saved.append((owner, attr, orig))
                setattr(owner, attr, self._wrap(name, orig, hook))
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    def self_times(self) -> list:
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - c for (name, start, end, parent), c in zip(self.spans, child)]

    def metrics(self) -> dict:
        calls: Counter = Counter()
        own: defaultdict = defaultdict(float)
        for (name, *_), s in zip(self.spans, self.self_times()):
            if name == PROBE:
                continue
            calls[name] += 1
            own[name] += s
        out = {}
        for name in calls:
            out[ALIASES.get(f"{name}.calls", f"{name}.calls")] = calls[name]
            out[ALIASES.get(f"{name}.s", f"{name}.s")] = own[name]
        out.update(self.counts)
        n_h = out.get("models.H.calls", 0)
        out["models.H.points_per_call"] = out.get("models.H.points", 0) / n_h if n_h else 0.0
        return out

    def write(self, fh, round_no: int):
        """One JSON array per span: round, id, name, start, end, parent and
        self time, in s from the round's first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        for i, ((name, start, end, parent), s) in enumerate(zip(self.spans, self.self_times())):
            fh.write(json.dumps([round_no, i, name, round(start - t0, 7),
                                 round(end - t0, 7), parent, round(s, 7)]) + "\n")
