"""A fixed pure-Python kernel that measures how fast the machine runs now.

The kernel does the same work on every call and touches no code of the
program under test, so its time changes only when the machine's speed
does.
"""

from __future__ import annotations

import gc
import statistics
from time import perf_counter

#: Seconds the kernel takes on the machine the benchmark's figures are
#: scaled to.  A time measured while the kernel takes ``k`` seconds is
#: reported as ``time * REFERENCE / k``.
REFERENCE = 0.010
#: Kernel calls per reading; the reading is their median.
SAMPLES = 3


def kernel() -> int:
    table: dict = {}
    items = []
    for i in range(8000):
        key = (i % 97, i % 13, i & 7)
        table[key] = table.get(key, 0) + i
        items.append((key, i))
    acc = 0
    for key, value in items:
        acc = (acc * 31 + table[key] + value) & 0xFFFFFFFF
    items.sort(key=lambda kv: (kv[0][1], -kv[1]))
    seen = set()
    for key, _ in items[::3]:
        if key not in seen:
            seen.add(key)
            acc ^= len(seen)
    return acc


def sample() -> float:
    """Seconds one call of ``kernel`` takes.

    The collector is off meanwhile: a collection would walk the heap the
    program left behind and charge its size to the machine.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        kernel()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def reading() -> float:
    """The median of ``SAMPLES`` kernel times: the machine's speed now."""
    return statistics.median(sample() for _ in range(SAMPLES))
