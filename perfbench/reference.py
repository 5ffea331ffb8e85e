"""The host-speed reference: a fixed kernel timed next to every sample.

On a shared host the same Python work can take twice as long from one
second to the next (a busy SMT sibling, cache and memory-bus contention
from other tenants), while the simulation's own result never changes.
Timing a fixed kernel just before and just after each sample and
dividing by it cancels most of that drift.  The kernel imports nothing
from ``repro`` and draws from none of its generators, so it cannot
change the simulation it measures.

Its mix was chosen by measurement.  The drift has more than one cause.
From a fast regime to a slow one the simulation slowed by about 1.4x
to 1.6x; a cache-resident interpreted loop slowed about as much,
cache-missing lookups over fleet-sized tables more (about 1.9x) and
NumPy passes less (1.1x to 1.25x).  Over recorded runs of all three
single-process workloads, the per-cycle spread of cycle/reference was
smallest (about 0.15 in log-IQR, against 0.33 to 0.38 raw) with time
shares of one half interpreted loop, three tenths cache-missing lookups
and one fifth NumPy.  The tables hold only atomic values, so the
garbage collector never tracks or scans them.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time

import numpy as np

#: Reference-kernel time on the nominal host, in ms.  Normalized times
#: read as if every sample ran at this reference speed.
NOMINAL_REF_MS = 10.0

_N = 200_000
_ORDER = np.random.default_rng(20160618).permutation(_N)
#: A cache-resident table for the interpreted loop (half the time).
_SMALL = {i: float(i) for i in range(256)}
#: Fleet-sized tables probed in a scrambled order (three tenths).
_VALUES = tuple(float(i) * 0.5 for i in range(_N))
_VISIT = tuple(int(i) for i in _ORDER[:7000])
_TABLE = {f"srv-{i:06d}": float(i) for i in range(_N)}
_LOOKUP = tuple(f"srv-{int(i):06d}" for i in _ORDER[7000:10000])
#: NumPy passes: a memory-bound gather and cache-resident scans (a fifth).
_BIG = np.arange(2_000_000, dtype=np.float64)
_GATHER = (_ORDER[:65_000].astype(np.int64) * 7) % _BIG.size
_VECTOR = np.arange(20_000, dtype=np.float64) * 0.015625


def kernel() -> float:
    """One reference slice of fixed work; returns a checksum."""
    acc = 0.0
    small = _SMALL
    for i in range(75_000):
        acc += small[i & 255] * 0.5
    values = _VALUES
    for i in _VISIT:
        acc += values[i]
    table = _TABLE
    for key in _LOOKUP:
        acc += table[key]
    acc += float(_BIG[_GATHER].sum())
    for _ in range(11):
        acc += float(np.cumsum(_VECTOR * 1.0001)[-1])
    return acc


class ReferenceClock:
    """Times reference slices and scales host time to the nominal host."""

    def __init__(self) -> None:
        self.slices_s: list[float] = []
        #: Host seconds spent in slices taken by :meth:`sampling`.
        self.sampled_s = 0.0
        self._busy = False

    def slice(self) -> int:
        """Run one reference slice; returns its index."""
        self._busy = True
        t0 = time.perf_counter()
        kernel()
        self.slices_s.append(time.perf_counter() - t0)
        self._busy = False
        return len(self.slices_s) - 1

    def factor(self, lo: int, hi: int) -> float:
        """Nominal over measured, from the mean of slices ``lo..hi``."""
        window = self.slices_s[lo:hi + 1]
        return NOMINAL_REF_MS / (1e3 * statistics.fmean(window))

    @contextlib.contextmanager
    def sampling(self, interval_s: float = 0.1):
        """Also take a slice every ``interval_s`` of wall time.

        Long set-up calls (``populate_fleet`` runs for seconds) cannot be
        split, and the host's speed changes within them; a timer signal
        samples it uniformly in time instead.  The handler only runs the
        kernel, so the interrupted build is unchanged; its cost
        accumulates in :attr:`sampled_s` for the caller to subtract.
        """

        def sample(signum, frame):
            if self._busy:
                return
            t0 = time.perf_counter()
            self.slice()
            self.sampled_s += time.perf_counter() - t0

        previous = signal.signal(signal.SIGALRM, sample)
        signal.setitimer(signal.ITIMER_REAL, interval_s, interval_s)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
