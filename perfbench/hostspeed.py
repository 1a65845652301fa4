"""Host-speed reference for the end-to-end times.

The benchmark runs on a shared 2-vCPU VM whose speed drifts with the
load of other tenants: the same pass takes up to 2.7 times longer for
tens of seconds at a time, in process CPU time as much as in wall time.
No median inside one run removes a drift that outlasts the run.

So the run also times a fixed reference computation, which calls no
program code, between the program's operations.  Each operation's
latency is scaled by ``REFERENCE_S`` over the median reference time
around it: an end-to-end time reads as seconds on a host where the
reference takes ``REFERENCE_S``.  A program change moves the operation
and not the reference, so it moves the scaled time as much as the raw
one; a host slowdown moves both, and cancels.  The raw times are
printed beside the scaled ones.
"""

from __future__ import annotations

import time

import numpy as np

__all__ = ["REFERENCE_S", "HostSpeed"]

#: a round figure for the reference's duration on a 2-vCPU Intel Xeon
#: VM at 2.1 GHz with a quiet host, so scaled times there are close to
#: raw ones
REFERENCE_S = 0.0012
#: reference samples count for an operation within this many seconds
#: of it: shorter than the host's drifts, longer than its jitter
WINDOW_S = 5.0

_rng = np.random.default_rng(0)
_VALUES = _rng.random(16_384)
_QUERIES = _rng.random(4_096)


class HostSpeed:
    """Reference samples taken during a run, and the scale they give.

    The reference is interpreter and array work in roughly the
    program's mix, all of it cache-resident: tuple-keyed dict updates,
    then a sort and a binary search.  A reference that also walked a
    block of several MB tracked the passes slightly better while the
    host's speed drifted by a tenth or two, but when the host slowed a
    stream pass 2.2-fold, that reference, sampled between updates,
    slowed only 1.7-fold: memory latency did not follow the slowdown.
    """

    def __init__(self) -> None:
        self.stamps: "list[float]" = []
        self.durations: "list[float]" = []

    @staticmethod
    def _reference() -> int:
        counts: "dict[tuple[int, int], int]" = {}
        for i in range(2_000):
            key = (i % 31, i % 7)
            counts[key] = counts.get(key, 0) + 1
        ordered = np.sort(_VALUES)
        return int(np.searchsorted(ordered, _QUERIES).sum()) + len(counts)

    def probe(self, repeats: int = 1, gap_s: float = 0.0) -> None:
        """Take ``repeats`` samples, unless the last one is younger than
        ``gap_s``: sampling by the clock rather than by the operation
        keeps the samples independent of the program's speed."""
        if self.stamps and time.perf_counter() - self.stamps[-1] < gap_s:
            return
        for _ in range(repeats):
            t0 = time.perf_counter()
            self._reference()
            t1 = time.perf_counter()
            self.stamps.append(t1)
            self.durations.append(t1 - t0)

    def scale(self, start: float, end: float) -> float:
        """``REFERENCE_S`` over the median reference time within
        ``WINDOW_S`` of ``[start, end]`` (``perf_counter`` readings)."""
        lo, hi = np.searchsorted(self.stamps, (start - WINDOW_S, end + WINDOW_S))
        if lo == hi:
            raise ValueError("no reference sample near the operation")
        return REFERENCE_S / float(np.median(self.durations[lo:hi]))
