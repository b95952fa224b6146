"""Machine-speed reference: scale timings to a steady nominal machine.

The benchmark runs on shared virtual machines whose speed drifts by 30-70%
over seconds to minutes (another tenant on the same core, frequency
changes), and whose CPUs the hypervisor sometimes takes away for seconds at
a time (*steal* time).  Medians over a run cannot remove drift that lasts
longer than the run, so while work is timed a ``Sampler`` interrupts it every
``PERIOD_S`` seconds to time a fixed reference computation and to read the
machine's steal counter.  A measured interval is then scaled to a machine
that has no steal and on which the reference takes ``NOMINAL_S``:

    scaled = (measured - stolen) * NOMINAL_S / reference

The reference is the benchmark's own pure-Python code and never calls
``wordrep``, so a change to the library moves the scaled timings exactly as
much as the raw ones; only the machine is divided out.  Time spent in the
reference itself is left out of every interval.
"""

from __future__ import annotations

import os
import random
import signal
import statistics
from bisect import bisect_right
from time import perf_counter

PERIOD_S = 0.1  # wall seconds between two samples of the reference
NOMINAL_S = 0.0025  # about the reference's time on a quiet 2-core Xeon (Sapphire Rapids)
SMOOTH = 2  # speed and steal are taken over this many samples on each side

_rng = random.Random(3)
_N = 300
_ADJ = [frozenset(_rng.sample(range(_N), 6)) for _ in range(_N)]


def _reference() -> int:
    """Arithmetic, then breadth-first searches and dict updates: the kind of
    interpreted, container-heavy work the library does."""
    total = 0
    for i in range(12_000):
        total += i * i % 7
    for source in range(0, _N, 100):
        seen = {source}
        queue = [source]
        for v in queue:
            for w in _ADJ[v]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        total += len(seen)
    counts: dict = {}
    for i in range(3_000):
        counts[i % 97] = counts.get(i % 97, 0) + 1
    return total + len(counts)


def steal_seconds() -> float:
    """CPU seconds the hypervisor has taken from the machine, all CPUs
    together (the ``steal`` column of /proc/stat); 0.0 where it is not known."""
    try:
        with open("/proc/stat", encoding="ascii") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def reference_s(samples: int = 7) -> float:
    """Median seconds of ``samples`` runs of the reference, after a warm-up."""
    _reference()
    took = []
    for _ in range(samples):
        start = perf_counter()
        _reference()
        took.append(perf_counter() - start)
    return statistics.median(took)


class Sampler:
    """Samples the reference and the steal counter every ``PERIOD_S`` seconds.

    Use as a context manager around the timed work (in the main thread: the
    samples run from a SIGALRM handler), then ask ``scaled(a, b)`` for the
    nominal seconds between two ``perf_counter`` readings taken inside it.
    """

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.took: list[float] = []
        self.stolen: list[float] = []  # steal counter at the end of each sample
        self._previous = None
        self._busy = False
        self._cumulative: list[tuple] = []

    def _sample(self, *_signal) -> None:
        if self._busy:  # a signal that arrives during a sample waits for the next
            return
        self._busy = True
        start = perf_counter()
        _reference()
        self.took.append(perf_counter() - start)
        self.starts.append(start)
        self.stolen.append(steal_seconds())
        self._busy = False

    def __enter__(self) -> "Sampler":
        _reference()  # warm up: the first run pays for cold caches
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        n = len(self.starts)
        ends = [s + t for s, t in zip(self.starts, self.took)]
        # Each sample's speed is the median over its neighbours, to damp
        # one-off jitter; steal counts in 10 ms ticks, so its share of the
        # time is taken over the same window.
        speed, unstolen = [], []
        for i in range(n):
            lo, hi = max(0, i - SMOOTH), min(n - 1, i + SMOOTH)
            speed.append(NOMINAL_S / statistics.median(self.took[lo: hi + 1]))
            span = ends[hi] - ends[lo]
            share = (self.stolen[hi] - self.stolen[lo]) / span if span > 0 else 0.0
            unstolen.append(1.0 - min(max(share, 0.0), 0.95))
        scaled = speed_only = raw = 0.0
        for i in range(n - 1):
            gap = max(0.0, self.starts[i + 1] - ends[i])
            fast = (speed[i] + speed[i + 1]) / 2
            free = (unstolen[i] + unstolen[i + 1]) / 2
            self._cumulative.append((ends[i], gap, fast * free, fast, scaled, speed_only, raw))
            scaled += gap * fast * free
            speed_only += gap * fast
            raw += gap

    def _at(self, t: float) -> tuple[float, float, float]:
        """Seconds from the first sample to ``t``, sampling left out: scaled,
        scaled for speed only, and raw."""
        i = max(0, bisect_right(self._cumulative, (t, float("inf"))) - 1)
        gap_start, gap, factor, fast, scaled, speed_only, raw = self._cumulative[i]
        into = min(max(t - gap_start, 0.0), gap)
        return scaled + into * factor, speed_only + into * fast, raw + into

    def scaled(self, a: float, b: float) -> float:
        """Seconds between ``a`` and ``b`` on the nominal machine (no steal)."""
        return self._at(b)[0] - self._at(a)[0]

    def speed_scaled(self, a: float, b: float) -> float:
        """Seconds between ``a`` and ``b`` scaled for speed but not for steal:
        the factor for CPU time, which has no steal in it."""
        return self._at(b)[1] - self._at(a)[1]

    def raw(self, a: float, b: float) -> float:
        """Measured seconds between ``a`` and ``b``, sampling left out."""
        return self._at(b)[2] - self._at(a)[2]
