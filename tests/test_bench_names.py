"""The benchmark's traced names and checks hold on the package as it is.

A rename in the package, or a change to an output field a workload check
reads, would otherwise surface only in a benchmark run; here it fails the
test suite.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

from hj_neumann.pde import GridField

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module       # a dataclass resolves its module by name
    spec.loader.exec_module(module)
    return module


def test_trace_targets_exist():
    tracing = _load("bench_tracing", BENCH / "tracing.py")
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, *_ in tracing.TARGETS if attr not in vars(owner)]
    assert not missing, f"traced names not found: {missing}"


def test_bench_workload_checks_pass():
    # one round of each workload as bench/run.py makes it at seed 1
    failed = {}
    for name, wl in _load("bench_workloads", BENCH / "workloads.py").WORKLOADS.items():
        s = wl.setup()
        u0 = (GridField(s["grid"], wl.family(np.random.default_rng(1))(s["grid"].nodes))
              if wl.family else None)
        failed[name] = wl.check(s, u0, wl.solve(s, u0))
    assert not any(failed.values()), failed
