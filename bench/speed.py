"""Host-speed probe: timed segments corrected for neighbours on shared cores.

On a virtual machine that shares its cores with other tenants, the same
fixed work runs at two or more speeds, and the speed switches many times
a second. On a 2-core VM the kernel below took 0.21 ms at one moment and
0.38 ms the next, and its fast stretches lasted under 0.15 s. The wall
times of whole runs moved by 20-30% with the neighbours' load.

While a segment is timed, a SIGALRM handler times a short fixed kernel
every INTERVAL seconds; one more probe runs just before and just after the
segment. A segment's corrected time is its wall time less the probes' own
time, multiplied by the mean over its probes of REFERENCE / probe: the
segment's time at the fixed speed at which the kernel takes REFERENCE.
REFERENCE is about the kernel's time on an uncontended core of that VM,
so there the corrected time is close to the wall time. The reference is a
constant rather than the run's quickest probe because some runs of 20 s
saw no uncontended moment at all; their quickest probe took 0.34 ms.
"""

from __future__ import annotations

import signal
from time import perf_counter

import numpy as np

INTERVAL = 0.01        # s between probes inside a segment
REFERENCE = 2.0e-4     # s, the kernel's time at the reference speed

_A = np.arange(6.0).reshape(3, 2)
_W = np.ones(2)


def _kernel() -> float:
    """About 0.2 ms of interpreter work and small numpy calls, like the solvers'."""
    s = 0.0
    for i in range(40):
        s += float(np.sum(_A * _W, axis=-1).max()) + 0.5 * i
    return s


class SpeedProbe:
    """Times segments and keeps their probes; corrects them after the run."""

    def __init__(self):
        self.segments: list = []   # (name, wall, wall less probes, probe times)
        self._inside: list | None = None
        self._spent = 0.0
        self.tracer = None         # a tracer records each probe as a span

    def _probe(self) -> float:
        t0 = perf_counter()
        _kernel()
        t1 = perf_counter()
        if self.tracer is not None:
            self.tracer.add_probe(t0, t1)
        return t1 - t0

    def _on_alarm(self, signum, frame):
        if self._inside is None:
            return
        t0 = perf_counter()
        self._inside.append(self._probe())
        self._spent += perf_counter() - t0

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._on_alarm)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        return False

    def time(self, name: str, fn, *args):
        """Call fn(*args) as one timed segment and return its result; a
        segment that raises is not kept."""
        before = self._probe()
        self._inside, self._spent = [], 0.0
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        ok = False
        t0 = perf_counter()
        try:
            out = fn(*args)
            ok = True
            return out
        finally:
            wall = perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
            inside, self._inside = self._inside, None
            after = self._probe()
            if ok:
                self.segments.append((name, wall, wall - self._spent,
                                      [before, *inside, after]))

    def probes(self) -> np.ndarray:
        return np.array([p for *_, ps in self.segments for p in ps])

    def corrected(self, name: str) -> list:
        """Corrected times of the segments called name, in run order."""
        return [net * float(np.mean(REFERENCE / np.asarray(ps)))
                for n, _, net, ps in self.segments if n == name]

    def wall(self, name: str) -> list:
        return [wall for n, wall, *_ in self.segments if n == name]
