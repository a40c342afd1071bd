"""Benchmark of hj_neumann: one workload per process, timed or traced.

    python3 bench/run.py --workload ergodic-disc --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all

A run repeats whole rounds (set-up, solve, check) until --seconds have
passed. With --trace 0 it prints the end-to-end metrics of BENCHMARK.json;
with --trace 1 it alternates untraced and traced rounds, prints the
per-layer metrics and writes every span to bench/out/trace-<workload>.jsonl.
The last line of standard output is one JSON object: correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import os

# one thread for BLAS and OpenMP; this must precede the first numpy import
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
NAMES = ("ergodic-disc", "marching-disc", "control-disc", "weak-kam-1d")


def load_program():
    """Import hj_neumann from this checkout's src/, never from elsewhere."""
    if not (SRC / "hj_neumann" / "__init__.py").is_file():
        sys.exit(f"no hj_neumann package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import hj_neumann
    if Path(hj_neumann.__file__).resolve().parent != SRC / "hj_neumann":
        sys.exit(f"imported hj_neumann from {hj_neumann.__file__}, not from {SRC}")


def metric_table(key: str) -> list:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)[key]


def is_time(name: str) -> bool:
    return name.endswith((".s", "_s"))


class Run:
    """Rounds of one workload: timed segments, operation counts, check results."""

    def __init__(self, wl, seed: int, probe):
        import numpy as np
        from hj_neumann.pde import GridField
        self.wl, self.probe, self.grid_field = wl, probe, GridField
        self.family = wl.family(np.random.default_rng(seed)) if wl.family else None
        self.attempted = self.failed = 0
        self.problems: list = []

    def round(self, tracer=None) -> bool:
        """One set-up (several when untraced), solve and check; False if the
        solve raised."""
        wl, probe = self.wl, self.probe
        tag = "traced " if tracer is not None else ""
        probe.tracer = tracer
        try:
            with tracer.installed() if tracer is not None else contextlib.nullcontext():
                # a traced round sets up once, so its spans are one round's
                for _ in range(1 if tracer is not None else wl.setup_repeats):
                    gc.collect()
                    s = probe.time(tag + "setup", wl.setup)
                # the program receives only the generated array
                u0 = (self.grid_field(s["grid"], self.family(s["grid"].nodes))
                      if self.family else None)
                gc.collect()
                self.attempted += wl.ops
                try:
                    out = probe.time(tag + "solve", wl.solve, s, u0)
                except Exception:
                    self.failed += wl.ops
                    traceback.print_exc()
                    return False
        finally:
            probe.tracer = None
        self.problems += [p for p in wl.check(s, u0, out) if p not in self.problems]
        return True


def timed(wl, seed: int, seconds: float) -> dict:
    from speed import SpeedProbe
    with SpeedProbe() as probe:
        run = Run(wl, seed, probe)
        t_end = time.perf_counter() + seconds
        rounds = 0
        while rounds < 2 or time.perf_counter() < t_end:
            run.round()
            rounds += 1
    solve, setup = probe.corrected("solve"), probe.corrected("setup")
    ms = 1e3 * probe.probes()
    print(f"rounds {rounds}; probe min {ms.min():.4f} ms, median {statistics.median(ms):.4f} ms;"
          " solve wall s "
          + " ".join(f"{x:.3f}" for x in probe.wall("solve")) + "; corrected "
          + " ".join(f"{x:.3f}" for x in solve))
    values = {}
    if solve:
        values = {"solve_s": statistics.median(solve), "setup_s": statistics.median(setup),
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    return finish(run, values, metric_table("end_to_end"))


def traced(wl, seed: int, seconds: float) -> dict:
    from speed import SpeedProbe
    from tracing import REQUIRED, Tracer
    tracers = []
    with SpeedProbe() as probe:
        run = Run(wl, seed, probe)
        t_end = time.perf_counter() + seconds
        while not tracers or time.perf_counter() < t_end:
            run.round()
            tracer = Tracer()
            if run.round(tracer):
                tracers.append(tracer)
    layers = [t.metrics() for t in tracers]
    counts = {k: v for k, v in layers[0].items() if not is_time(k)}
    if any(m.get(k) != v for m in layers[1:] for k, v in counts.items()):
        run.problems.append("per-layer counts differ between traced rounds")
    values = {}
    for name in {k for m in layers for k in m}:
        samples = [m.get(name, 0) for m in layers]
        values[name] = statistics.median(samples) if is_time(name) else samples[0]
    plain, spanned = probe.corrected("solve"), probe.corrected("traced solve")
    if plain:
        values["bench.untraced_solve_s"] = statistics.median(plain)
        values["bench.traced_solve_s"] = statistics.median(spanned)
        overhead = values["bench.traced_solve_s"] - values["bench.untraced_solve_s"]
        print(f"traced rounds {len(layers)}; tracing overhead {overhead:.4f} s "
              f"({100 * overhead / values['bench.untraced_solve_s']:.1f}% of solve_s)")
    for name in REQUIRED[wl.name]:
        if not values.get(name):
            run.problems.append(f"per-layer metric {name} is 0 in the trace")
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / f"trace-{wl.name}.jsonl", "w") as fh:
        fh.write(json.dumps({"workload": wl.name, "seed": seed,
                             "fields": ["round", "id", "name", "start", "end",
                                        "parent", "self"]}) + "\n")
        for k, tracer in enumerate(tracers, 1):
            tracer.write(fh, k)
    return finish(run, values, metric_table("per_layer"))


def finish(run, values: dict, table: list) -> dict:
    for p in run.problems:
        print("CHECK FAILED:", p)
    metrics = {}
    for m in table:
        v = values.get(m["name"], 0)
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
        print(f"{m['name']:40s} {v:>14.6g} {m['unit']}")
    return {"correct": not run.problems and bool(values), "attempted": run.attempted,
            "failed": run.failed, "metrics": metrics}


def run_all(args) -> int:
    """Each workload in its own process, so peak_rss_mb is that workload's."""
    code = 0
    for name in NAMES:
        print(f"== {name}", flush=True)
        res = subprocess.run([sys.executable, __file__, "--workload", name,
                              "--seed", str(args.seed), "--seconds", str(args.seconds),
                              "--trace", str(args.trace)])
        code = code or res.returncode
    return code


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.workload == "all":
        return run_all(args)
    load_program()
    from workloads import WORKLOADS
    wl = WORKLOADS[args.workload]
    result = (traced if args.trace else timed)(wl, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
