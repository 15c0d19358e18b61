"""Host speed reference for scaling timings.

On a shared host the CPU speed a process gets can drift by a factor of two
for minutes at a time, which moves every timing far more than the program
does.  ``reference_s`` times a fixed pure-Python loop that does not touch
polytopenums: big-integer arithmetic and dict and list traffic, the kinds of
work the package does.  child.py times it before and after every op, and
each op's time is scaled by REFERENCE_S / (the mean of those two), so a
timing reads as seconds on a host where the loop takes REFERENCE_S.
"""
from __future__ import annotations

import random
import statistics
import time

# About the loop's time on a 2-vCPU x86-64 VM with CPython 3.11.
REFERENCE_S = 0.0015

_TABLE = list(range(20000))
random.Random(0).shuffle(_TABLE)


def _loop() -> float:
    start = time.perf_counter()
    seen: dict[int, int] = {}
    acc = 3
    for k in range(0, 20000, 10):
        i = _TABLE[k]
        acc = (acc * acc + i) % (1 << 256)
        seen[i] = acc
        acc += _TABLE[(i * 7) % 20000]
    return time.perf_counter() - start


def reference_s(repeats: int = 3) -> float:
    """Median time of the reference loop over a few back-to-back repeats."""
    return statistics.median(_loop() for _ in range(repeats))
