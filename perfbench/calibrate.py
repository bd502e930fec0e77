"""A fixed reference kernel that measures how fast the machine is right now.

On a shared machine the speed of a core changes on its own, as other tenants
load the same hardware: on a 2-core Xeon VM the cores flip between a fast and
a slow state within seconds, the kernel below takes up to 1.6x longer in the
slow one, and the share of time spent in each drifts over tens of seconds.
Pass times carry that drift.  So while a pass runs, `Sampler` interrupts it
every `INTERVAL_S` seconds of wall time and times the kernel, and run.py
divides the mean pass time by the mean kernel time of the run.  The ratio
keeps what the library costs and drops most of what the machine's state
adds.  The time spent in the kernel is taken out of the pass.

The kernel mixes the kinds of work the library does: a dense complex
eigensolve, small solves called from a Python loop, elementwise array
arithmetic and plain interpreter work.  It calls numpy only, never the
library, so a change to the library cannot change it.  Adding a part that
streams an array larger than the per-core caches made the ratio less steady
on every workload, so there is none.
"""

from __future__ import annotations

import signal
import time

import numpy as np

INTERVAL_S = 0.2     # wall time between samples
REPEATS = 2          # kernels per sample, about 25 ms

_rng = np.random.default_rng(20240601)
_DENSE = _rng.standard_normal((64, 64)) + 1j * _rng.standard_normal((64, 64))
_SMALL = [_rng.standard_normal((6, 6)) + 1j * _rng.standard_normal((6, 6)) for _ in range(8)]
_VECTOR = _rng.standard_normal(20000)


def kernel() -> float:
    """One run of the reference work; returns a checksum so nothing is skipped."""
    total = float(np.abs(np.linalg.eigvals(_DENSE)).sum())
    for k in range(100):
        total += abs(np.linalg.solve(_SMALL[k % 8], _SMALL[(k + 1) % 8])[0, 0])
    x = _VECTOR
    for _ in range(5):
        x = np.sin(x) * 0.5 + np.cos(x)
    total += float(x[0])
    counts: dict[int, int] = {}
    for i in range(5000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    return total + counts[0]


def reference_s() -> float:
    """Mean wall time of one kernel over `REPEATS` back-to-back runs."""
    start = time.perf_counter()
    for _ in range(REPEATS):
        kernel()
    return (time.perf_counter() - start) / REPEATS


class Sampler:
    """Times the kernel once on entry and then every `INTERVAL_S` s until exit.

    The samples come from a SIGALRM handler, which Python runs between
    bytecodes: a long call into compiled code delays a sample to its end.
    `paused_wall` and `paused_cpu` are the time spent sampling after entry.
    """

    def __init__(self):
        self.refs = [reference_s()]
        self.paused_wall = 0.0
        self.paused_cpu = 0.0
        self._previous = None

    def _sample(self, _signum, _frame):
        wall0, cpu0 = time.perf_counter(), time.process_time()
        self.refs.append(reference_s())
        self.paused_wall += time.perf_counter() - wall0
        self.paused_cpu += time.process_time() - cpu0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *_exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
