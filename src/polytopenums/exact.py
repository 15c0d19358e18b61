"""Exact integer combinatorics primitives.

Everything in this package is computed with plain Python integers, so all
arithmetic is arbitrary precision and exact; no floating point is used
anywhere.

One builder, `_column`, makes every run of the simplex column A(d, k) =
C(k+d-1, d) that `regular.simplex_table` returns or a batch of reads
slices: by `math.comb` (CPython's fast path) while the run's top entry is
below 2**64, above that each entry from the one before, A(d, k) =
A(d, k-1) * (k+d-1) / (k-1); a remainder raises ArithmeticError.  One
rule, `_dense`, says from a batch's read count whether its reads of that
column come from one run or from one `math.comb` each; `_gbinomial_rows`
and `regular._reads`, which serves every table head and the difference
route of the decompositions, ask it.  A run wins only when its top entry
is past 2**64 and the reads are many against its length.  That 2**64
test is `_past_fast`, written once for both, with no `math.comb`.
`_check_dimension` is the one rule d >= 0 (or d >= 1) and its message for
the tables, decompositions, `eulerian` and the descriptor factories alike.
"""
from __future__ import annotations

import math
from itertools import chain, repeat
from operator import mul

_FAST = 1 << 64  # column entries below this come from math.comb


def binomial(r: int, k: int) -> int:
    """Binomial coefficient C(r, k) for arbitrary integer r and k.

    Returns 0 for k < 0.  For r >= 0 this is the ordinary coefficient
    (0 when k > r).  Negative r follows the falling-factorial definition
    r(r-1)...(r-k+1)/k!, equivalently C(r, k) = (-1)**k * C(k-r-1, k),
    which is what the upper-index negation identity requires.
    """
    if k < 0:
        return 0
    if r >= 0:
        return math.comb(r, k) if k <= r else 0
    value = math.comb(k - r - 1, k)
    return -value if k % 2 else value


def _check_dimension(d: int, least: int = 0) -> None:
    """Raise ValueError unless d >= least, where least is 0 (nonnegative) or 1 (positive)."""
    if d < least:
        raise ValueError(f"dimension must be {('nonnegative', 'positive')[least]}, got d={d}")


def _past_fast(d: int, stop: int) -> bool:
    """Whether `_column(d, 1, stop)`'s top entry C(n, d), n = stop+d-2, is at least 2**64.

    No `math.comb`: below n = 68 it is False at once, since C(67, 33) < 2**64
    <= C(68, 34); past that it steps C(n-k+i, i) up through i = k, the shorter
    side k = min(d, stop-2) of C(n, d) = C(n, stop-2), to the first past 2**64.
    Each step at least doubles, so it takes at most 64 steps at any d."""
    n, k, entry = stop + d - 2, min(d, stop - 2), 1
    if n < 68:
        return False
    for i in range(1, k + 1):
        entry = entry * (n - k + i) // i
        if entry >= _FAST:
            return True
    return False


def _column(d: int, start: int, stop: int) -> list[int]:
    """A(d, k) = C(k+d-1, d) for start <= k < stop, where 1 <= start < stop."""
    if not _past_fast(d, stop):
        return list(map(math.comb, range(start + d - 1, stop + d - 1), repeat(d)))
    value = math.comb(start + d - 1, d)
    column = [value]
    # A(d, k) = A(d, k-1) * (k+d-1) / (k-1) for k = start+1 .. stop-1.
    for down in range(start, stop - 1):
        value, remainder = divmod(value * (down + d), down)
        if remainder:
            raise ArithmeticError(f"inexact simplex column step at d={d} k={down + 1}")
        column.append(value)
    return column


def _dense(d: int, stop: int, reads: int) -> bool:
    """Whether a batch of reads of A(d, k), k < stop, costs more than `_column(d, 1, stop)`.

    A read by `math.comb` costs about (d+21)/8 entries of a run past 2**64
    (measured, d <= 140); below 2**64 the run spends one `math.comb` per
    entry itself and cannot win.
    """
    return 8 * stop <= reads * (d + 21) and _past_fast(d, stop)


def gbinomial(n: int, m: int, s: int) -> int:
    """Generalized binomial coefficient of order s.

    Defined as the coefficient of x**m in (1 + x + ... + x**(s-1))**n.
    Order 2 reduces to the ordinary binomial C(n, m).  Requires n >= 0 and
    s >= 1; out-of-range m gives 0.  Evaluated as the alternating sum
    sum (-1)**k C(n, k) C(m-sk+n-1, n-1), read off (1-x**s)**n / (1-x)**n,
    at the nearer of m and its mirror n(s-1) - m: the row is palindromic,
    and the sum has m//s + 1 terms there.  It is the one-stretch, width-1
    row (s, -m) of `_gbinomial_rows`, which takes each term from
    `math.comb` unless `_dense` finds them dense.
    """
    return _gbinomial_rows(n, [(s, -m)], 1)[0][0]


def _gbinomial_rows(n: int, stretches: list[tuple[int, int]], width: int) -> list[list[int]]:
    """gbinomial(n, s*j - b, s) for j < width: one row per stretch (s, b).

    A row is 0 where m = s*j - b is below 0 or past n(s-1).  The rest is
    two runs stepping by s: m itself while m <= n(s-1)/2, then its mirror
    n(s-1) - m, stepping down.  Each entry at such a near m sums the signed
    row (-1)**k C(n, k) against the column C(t+n-1, n-1) = A(n-1, t+1) at
    t = m, m-s, m-2s, ...: m//s + 1 terms, so a run of consecutive m//s
    has their arithmetic sum.  When `_dense` says so, the batch reads them
    from one `_column` run up to t = the largest near m; otherwise each
    term is one `math.comb`, and the batch holds no column, whatever s.
    At n = 0 the column is the lone entry 1.
    """
    for s, _ in stretches:
        if s < 1:
            raise ValueError(f"order must be a positive integer, got s={s}")
    if n < 0:
        raise ValueError(f"upper argument must be nonnegative, got n={n}")
    rows = []  # (s, zeros before, run of m, run of mirrors, zeros after)
    for s, b in stretches:
        top = n * (s - 1)
        low = min(width, max(0, -(-b // s)))
        middle = min(width, max(low, (b + top // 2) // s + 1))
        high = min(width, max(middle, (b + top) // s + 1))
        rows.append((s, low, range(s * low - b, s * middle - b, s),
                     range(top + b - s * middle, top + b - s * high, -s), width - high))
    signed = [(-1) ** k * math.comb(n, k) for k in range(n + 1)]
    length = max([0, *(m for _, _, up, down, _ in rows for m in chain(up[-1:], down[:1]))]) + 2
    terms = sum(len(run) * (min(run[0], run[-1]) // s) + len(run) * (len(run) + 1) // 2
                for s, _, up, down, _ in rows for run in (up, down) if run)
    if n and not _dense(n - 1, length, terms):
        runs = [[sum(map(mul, signed, map(math.comb, range(m + n - 1, n - 2, -s), repeat(n - 1))))
                 for m in chain(up, down)] for s, _, up, down, _ in rows]
    else:
        column = _column(n - 1, 1, length) if n else [1]
        runs = [[sum(map(mul, signed, column[m::-s])) for m in chain(up, down)]
                for s, _, up, down, _ in rows]
    return [[0] * low + run + [0] * tail for (_, low, _, _, tail), run in zip(rows, runs)]


def eulerian(d: int, i: int) -> int:
    """Eulerian number: permutations of d elements with exactly i descents.

    Computed by the recurrence E(d, i) = (i+1) E(d-1, i) + (d-i) E(d-1, i-1)
    with E(0, 0) = 1, on the first i+1 entries of each row, all it reads.
    Zero outside 0 <= i <= max(d-1, 0).
    """
    row = _eulerian_row(d, max(i, 0) + 1)
    return row[i] if 0 <= i < len(row) else 0


def _eulerian_row(d: int, width: int | None = None) -> list[int]:
    """E(d, 0), ..., E(d, max(d-1, 0)) by a loop over the rows: no recursion, no memo.

    Each row is cut to width entries: entry i reads only entries i and i-1 above."""
    _check_dimension(d)
    row = [1][:width]
    for e in range(2, d + 1):
        row = [(i + 1) * a + (e - i) * b
               for i, (a, b) in enumerate(zip(row + [0], [0] + row))][:width]
    return row

