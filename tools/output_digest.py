"""SHA-1 digest of every array the four benchmark workloads return.

    python3 tools/output_digest.py --seeds 1 2 > digest.txt

For each seed and each workload of ``bench/workloads.py``, runs the set-up
and the solve as ``bench/run.py`` makes them and prints one line
``workload path sha1`` per array of the set-up's and the solve's outputs.
The walk enters dicts, lists, tuples and dataclass fields (declared fields
only), densifies sparse operators and digests numbers as 0-d float64
arrays; callables and strings are skipped. A digest covers dtype, shape
and bytes, so the sign of zero counts. The package is imported from the
``src/`` next to this file, so a copy of the script in another checkout
digests that checkout; ``diff`` two outputs to compare the outputs of two
versions bit for bit.
"""

from __future__ import annotations

import os

# one thread for BLAS and OpenMP, as in the benchmark; before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import importlib.util  # noqa: E402
import numbers  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
from scipy import sparse  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]


def load_workloads():
    """bench/workloads.py of this checkout, on hj_neumann from its src/."""
    sys.path.insert(0, str(ROOT / "src"))
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module      # a dataclass resolves its module by name
    spec.loader.exec_module(module)
    return module


def digest(a: np.ndarray) -> str:
    a = np.ascontiguousarray(a)
    h = hashlib.sha1(f"{a.dtype.str} {a.shape}".encode())
    h.update(a.tobytes())
    return h.hexdigest()


def walk(obj, path: str, out: list):
    """Append (path, sha1) for every array reachable from obj."""
    if sparse.issparse(obj):
        out.append((path, digest(obj.toarray())))
    elif isinstance(obj, np.ndarray):
        out.append((path, digest(obj)))
    elif isinstance(obj, (numbers.Number, np.generic)) and not isinstance(obj, str):
        out.append((path, digest(np.asarray(obj, dtype=float))))
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        for f in dataclasses.fields(obj):
            walk(getattr(obj, f.name), f"{path}.{f.name}", out)
    elif isinstance(obj, dict):
        for k, v in obj.items():
            walk(v, f"{path}.{k}", out)
    elif isinstance(obj, (list, tuple)):
        for k, v in enumerate(obj):
            walk(v, f"{path}[{k}]", out)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    args = ap.parse_args()
    workloads = load_workloads()
    from hj_neumann.pde import GridField
    for seed in args.seeds:
        for name, wl in workloads.WORKLOADS.items():
            s = wl.setup()
            u0 = (GridField(s["grid"], wl.family(np.random.default_rng(seed))(s["grid"].nodes))
                  if wl.family else None)
            out: list = []
            walk(s, "setup", out)
            walk(wl.solve(s, u0), "solve", out)
            for path, sha in out:
                print(f"{name}@{seed} {path} {sha}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
