"""Exact integer combinatorics primitives.

Everything in this package is computed with plain Python integers, so all
arithmetic is arbitrary precision and exact; no floating point is used
anywhere.  Polynomials are plain lists of ints, index j holding the
coefficient of x**j.
"""
from __future__ import annotations

import math


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


def gbinomial(n: int, m: int, s: int) -> int:
    """Generalized binomial coefficient of order s.

    Defined as the coefficient of x**m in (1 + x + ... + x**(s-1))**n.
    Order 2 reduces to the ordinary binomial C(n, m).  Requires n >= 0 and
    s >= 1; out-of-range m gives 0.  Evaluated as the alternating sum
    sum (-1)**k C(n, k) C(m-sk+n-1, n-1), read off (1-x**s)**n / (1-x)**n.
    """
    if s < 1:
        raise ValueError(f"order must be a positive integer, got s={s}")
    if n < 0:
        raise ValueError(f"upper argument must be nonnegative, got n={n}")
    if m < 0 or m > n * (s - 1):
        return 0
    if n == 0:
        return 1
    return sum(
        (-1) ** k * math.comb(n, k) * math.comb(m - s * k + n - 1, n - 1)
        for k in range(min(n, m // s) + 1)
    )


def eulerian(d: int, i: int) -> int:
    """Eulerian number: permutations of d elements with exactly i descents.

    Computed by the recurrence E(d, i) = (i+1) E(d-1, i) + (d-i) E(d-1, i-1)
    with E(0, 0) = 1.  Zero outside 0 <= i <= max(d-1, 0).
    """
    row = _eulerian_row(d)
    return row[i] if 0 <= i < len(row) else 0


def _eulerian_row(d: int) -> list[int]:
    """E(d, 0), ..., E(d, max(d-1, 0)), built by a loop over the rows: no recursion, no memo."""
    if d < 0:
        raise ValueError(f"dimension must be nonnegative, got d={d}")
    row = [1]
    for e in range(2, d + 1):
        row = [(i + 1) * a + (e - i) * b for i, (a, b) in enumerate(zip(row + [0], [0] + row))]
    return row


def _poly_trim(p: list[int]) -> list[int]:
    """Canonical form: drop trailing zero coefficients (zero polynomial -> [])."""
    out = list(p)
    while out and out[-1] == 0:
        out.pop()
    return out


def poly_mul(p: list[int], q: list[int]) -> list[int]:
    """Exact convolution product, trailing zeros dropped.  Schoolbook; degrees stay small."""
    p, q = _poly_trim(p), _poly_trim(q)
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return _poly_trim(out)
