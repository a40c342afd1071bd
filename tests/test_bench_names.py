"""The benchmark's traced names must exist where bench/tracing.py looks them up.

A rename in the package would otherwise surface only in a traced benchmark
run; here it fails the test suite.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_trace_targets_exist():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, *_ in tracing.TARGETS if attr not in vars(owner)]
    assert not missing, f"traced names not found: {missing}"
