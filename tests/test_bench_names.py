"""The benchmark's traced names and checks hold on the package as it is.

A rename in the package, or a change to an output field a workload check
reads, would otherwise surface only in a benchmark run; here it fails the
test suite.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

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


@pytest.fixture(scope="module")
def seed1_rounds():
    """One round of each workload as bench/run.py makes it at seed 1, set up
    and solved under the tracer: {name: (failed checks, per-layer metrics)}."""
    tracing = _load("bench_tracing", BENCH / "tracing.py")
    out = {}
    for name, wl in _load("bench_workloads", BENCH / "workloads.py").WORKLOADS.items():
        tracer = tracing.Tracer()
        with tracer.installed():
            s = wl.setup()
            u0 = (GridField(s["grid"], wl.family(np.random.default_rng(1))(s["grid"].nodes))
                  if wl.family else None)
            res = wl.solve(s, u0)
        out[name] = (wl.check(s, u0, res), tracer.metrics())
    return out


def test_bench_workload_checks_pass(seed1_rounds):
    failed = {name: bad for name, (bad, _) in seed1_rounds.items()}
    assert not any(failed.values()), failed


def test_required_layers_nonzero(seed1_rounds):
    # a solver path that bypasses a traced name reads 0 on that layer
    required = _load("bench_tracing", BENCH / "tracing.py").REQUIRED
    zero = {name: [k for k in required[name] if not metrics.get(k)]
            for name, (_, metrics) in seed1_rounds.items()}
    assert not any(zero.values()), zero
