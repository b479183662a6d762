"""A fixed reference loop that gauges how fast this machine runs Python now.

On a shared virtual machine the same pure-Python work runs up to twice as
slow for seconds or minutes at a time, because of other tenants of the
host; the process keeps its CPU (CPU time and wall time agree), it just
gets less done.  A run that falls into a slow stretch reports the stretch,
not the program.  So the runner samples this loop between the calls of each
pass and scales the pass by ``REFERENCE_S / mean sample``: times are
reported as seconds on a machine on which one round of the loop takes
``REFERENCE_S``.  The raw seconds stay in the run record.

The loop belongs to the benchmark, not to the program, so a change to the
program moves the scaled times and a change of machine speed does not.  It
does what the kernel and the canonicaliser do most: it recurses over set
partitions held as bit masks and keys each one by a sorted tuple.  The
cyclic collector is off while it runs, so the size of the program's heap
does not change the loop's time.
"""

from __future__ import annotations

import gc
import statistics
import time

# Seconds for one round of the loop on a 2-vCPU Xeon virtual machine with
# Python 3.11, as a median over quiet and busy stretches.
REFERENCE_S = 0.025
# Elements partitioned by one round: Bell(9) = 21147 partitions.
ELEMENTS = 9
# A pass samples the loop before a call once this many seconds have passed
# since its last sample, so that sampling costs about a tenth of the run.
INTERVAL_S = 0.3


def _round() -> int:
    keys: dict[tuple[int, ...], int] = {}
    blocks: list[int] = []

    def rec(i: int) -> None:
        if i == ELEMENTS:
            key = tuple(sorted(blocks))
            keys[key] = keys.get(key, 0) + 1
            return
        bit = 1 << i
        for j in range(len(blocks)):
            blocks[j] |= bit
            rec(i + 1)
            blocks[j] &= ~bit
        blocks.append(bit)
        rec(i + 1)
        blocks.pop()

    rec(0)
    return len(keys)


def sample() -> float:
    """Seconds for one round of the loop, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _round()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Gauge:
    """The samples taken during one stretch of work (a pass, a set-up)."""

    def __init__(self):
        self.samples: list[float] = []
        self._last = float("-inf")

    def tick(self) -> None:
        """Sample the loop if the last sample is ``INTERVAL_S`` old."""
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.samples.append(sample())
            self._last = time.perf_counter()

    def scale(self) -> float:
        """Factor from seconds measured during the stretch to seconds at
        the reference speed."""
        return REFERENCE_S / statistics.mean(self.samples)
