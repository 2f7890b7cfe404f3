"""Machine-speed sampling: measured time rescaled to a reference speed.

The shared 2-core host this benchmark was tuned on switches between a fast
and a slow state, about 1.7x apart, for a fraction of a second to minutes at
a time, and process CPU time slows with it.  Medians of raw times therefore
depend on how much of a run fell in the slow state.  While a run is timed,
`SpeedSampler` times a small fixed pure-Python kernel (complex arithmetic,
small-object construction, calls, dict lookups: the mix gnumsd's engine,
qmath and solver spend their time on) from a SIGALRM handler every
`INTERVAL_S`.  `ref_s` turns an interval measured on the wall clock into
seconds at the reference speed: the interval, less the sampler's own time
inside it, times the mean of `REF_KERNEL_S` / kernel time over the samples
taken during it.  Samples are evenly spaced in time, so that mean weighs
each state by the time the interval spent in it.  The kernel is part of the benchmark, so a change to gnumsd moves the
interval and not the kernel.  A command run in a child process samples
itself (`clirun.py`) and reports its kernel times; `child()` records them
for the interval the parent waited on it.
"""
from __future__ import annotations

import bisect
import cmath
import math
import signal
import time

INTERVAL_S = 0.02
KERNEL_STEPS = 150
# Samples taken on either side of an interval as well as those inside it:
# a short op sees about 2 * NEIGHBOURS samples, which is steadier than one
# kernel time and still mostly within one of the host's states.
NEIGHBOURS = 4
# Kernel time in the host's fast state (2-core Xeon VM, Python 3.11); it
# only sets the scale, so that reference seconds read like wall seconds there.
REF_KERNEL_S = 2.0e-4
# Marks the stderr line on which a sampled child reports its kernel times.
SPEED_MARKER = "PERFBENCH-SPEED "


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


def _step(p: _Pair, z: complex, k: int) -> _Pair:
    return _Pair(cmath.exp(1j * z.real * k) * p.a + p.b, z * 0.5 + math.cos(k))


def mean_speed(kernel_s) -> float:
    """Mean speed relative to the reference over kernel times taken evenly in time."""
    return sum(REF_KERNEL_S / k for k in kernel_s) / len(kernel_s)


def kernel(steps: int = KERNEL_STEPS) -> float:
    """A fixed amount of interpreter work; returns a value so none is skipped."""
    p, table, acc = _Pair(1.0 + 0j, 0.5 + 0.5j), {}, 0.0
    for k in range(steps):
        p = _step(p, p.b, k & 15)
        table[k & 63] = abs(p.a)
        acc += table.get((k * 7) & 63, 0.0)
        if abs(p.a) > 1e6:
            p = _Pair(1.0 + 0j, p.b)
    return acc


class SpeedSampler:
    """Context manager: times `kernel()` every INTERVAL_S of wall time.

    `samples` holds (start, kernel seconds, handler seconds) in time order;
    `children` holds (start, end, kernel seconds, handler seconds) of each
    interval spent waiting on a child that sampled itself.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.samples: list[tuple[float, float, float]] = []
        self.children: list[tuple[float, float, list[float], float]] = []
        self._starts: list[float] = []
        self._previous = None

    def sample(self, *_) -> None:
        clock = self.clock
        start = clock()
        kernel()
        took = clock() - start
        self.samples.append((start, took, clock() - start))

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        self.resume()
        return self

    def __exit__(self, *exc) -> None:
        self.pause()
        signal.signal(signal.SIGALRM, self._previous)

    def pause(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)

    def resume(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def child(self, start: float, end: float, report: dict) -> None:
        """Record a sampled child's report for the interval [start, end]."""
        self.children.append((start, end, report["kernel_s"], report["handler_s"]))

    def report(self) -> dict:
        """This process's samples, as a sampled child sends them."""
        return {
            "kernel_s": [k for _, k, _ in self.samples],
            "handler_s": sum(h for _, _, h in self.samples),
        }

    def ref_s(self, start: float, end: float, in_process: bool = True) -> float:
        """Seconds at the reference speed for the wall interval [start, end].

        The kernel times are those sampled inside the interval plus the
        NEIGHBOURS nearest on either side.  With `in_process` the sampler's own
        time inside the interval is taken out; for an interval spent waiting
        on a child process it ran beside the child and is left in.  A
        recorded child inside the interval supplies both instead.
        """
        for c_start, c_end, kernel_s, handler_s in self.children:
            if start <= c_start and c_end <= end and kernel_s:
                return (end - start - handler_s) * mean_speed(kernel_s)
        samples = self.samples
        if not samples:
            raise RuntimeError("no speed samples: the interval was not timed under the sampler")
        if len(self._starts) != len(samples):
            self._starts = [s[0] for s in samples]
        starts = self._starts
        lo = max(0, bisect.bisect_left(starts, start) - NEIGHBOURS)
        hi = min(len(samples), bisect.bisect_right(starts, end) + NEIGHBOURS)
        window = samples[lo:hi]
        wall = end - start
        if in_process:
            wall -= sum(h for t, _, h in window if start <= t <= end)
        return wall * mean_speed([k for _, k, _ in window])
