"""Percentiles for per-op latency."""
from __future__ import annotations

# Candidate tail percentiles, in per mille, highest first.
TAIL_LADDER = (999, 990, 950, 900, 750, 500)
MIN_BEYOND = 10


def _rank(per_mille: int, n: int) -> int:
    """Nearest-rank position (1-based) of a per-mille percentile in n samples."""
    return max(1, -(-per_mille * n // 1000))


def percentile(values, per_mille: int) -> float:
    ordered = sorted(values)
    return ordered[_rank(per_mille, len(ordered)) - 1]


def tail_percentile(n: int) -> int:
    """Highest ladder percentile with at least MIN_BEYOND samples above it.

    Falls back to the median (500) when even that has fewer beyond it.
    """
    for per_mille in TAIL_LADDER:
        if n - _rank(per_mille, n) >= MIN_BEYOND:
            return per_mille
    return 500
