"""Host speed, timed between the pieces of the work being measured.

On a shared virtual machine the same computation takes from 0.75 to 1.4
times its usual time from one minute to the next, as other tenants' load
comes and goes.  A fixed reference loop timed *between* the pieces of the
measured work (before each slot's auction, before each build, between
closed-loop windows) sees the same slowdowns, so a timing scaled by it
compares across runs and commits::

    normalized seconds = measured seconds * NOMINAL_S / median(reference seconds)

The reference mixes the two kinds of work the program's time depends on:
small dict/tuple/list churn that stays in the core's caches, and random
reads over a table larger than the core's L2 cache.  In one comparison
over ten simulations, either alone tracked the simulation less closely
than both (interquartile spread ÷ median: raw 0.081, churn 0.063, reads
over a 32 MB float list 0.054, both 0.042).
The benchmark's code is the same for both commits it compares, so a change
to the program moves the measured work and never the reference.
"""

from __future__ import annotations

import random
import statistics
from time import perf_counter

#: About one reference call's time between slots on a 2-vCPU Xeon VM
#: (Python 3.11), so that normalized figures read as seconds on that host.
NOMINAL_S = 200e-6
#: The random-read table: 16 MiB, four times the L2 cache of that host.
_TABLE_BYTES = 1 << 24
_table: bytes | None = None


def _churn(count: int = 300) -> int:
    table = {}
    for i in range(count):
        table[(i, "k")] = [i, i + 1]
    return sum(value[1] for value in table.values())


def _reads(table: bytes, count: int = 600) -> int:
    position, total, mask = 1, 0, len(table) - 1
    for _ in range(count):
        position = (position * 1103515245 + 12345) & mask
        total += table[position]
    return total


class HostSpeed:
    """Reference samples and the scale they give."""

    def __init__(self) -> None:
        global _table
        if _table is None:
            _table = random.Random(0).randbytes(_TABLE_BYTES)
        self.samples: list[float] = []

    def sample(self, times: int = 1, warmup: int = 0) -> float:
        """Time the reference ``times`` times after ``warmup`` untimed calls
        (the first call on a freshly switched CPU runs on cold caches); the
        seconds all that took."""
        began = perf_counter()
        for _ in range(warmup):
            _churn()
            _reads(_table)
        for _ in range(times):
            start = perf_counter()
            _churn()
            _reads(_table)
            self.samples.append(perf_counter() - start)
        return perf_counter() - began

    def scale(self) -> float:
        return scale(self.samples)


def scale(samples: list[float]) -> float:
    """``NOMINAL_S`` over the median reference time: 1.0 on the nominal host,
    below 1.0 on a slower one."""
    return NOMINAL_S / statistics.median(samples)
