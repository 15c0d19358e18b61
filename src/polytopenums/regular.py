"""Closed-form number sequences for the regular polytopes.

The d-simplex sequence is the basic building block: every other family is a
finite binomially-weighted sum of shifted simplex sequences.  Sequence
arguments are clamped, so any index n <= 0 yields 0; this keeps the shifted
sums safe even when a shift pushes the argument far negative.

Each family comes at two granularities of one formula.  The scalar forms
(`simplex_number`, ...) evaluate the weighted sum at one n.  The table forms
(`simplex_table`, ...) return the values for n_from..n_to as one list: they
read a whole column of simplex numbers once and add the weighted shifts of
that column, so a row costs a few big-integer products instead of d calls.
Both are exact integer arithmetic and agree entry for entry.
"""
from __future__ import annotations

import math
from itertools import islice, repeat
from operator import add, mul

from .exact import binomial, eulerian


def simplex_number(d: int, n: int) -> int:
    """Number of points in the n-th d-simplex array: C(n+d-1, d), 0 for n <= 0."""
    if d < 0:
        raise ValueError(f"dimension must be nonnegative, got d={d}")
    if n <= 0:
        return 0
    return binomial(n + d - 1, d)


def simplex_interior(d: int, n: int) -> int:
    """Points of the n-th d-simplex array on no facet: C(n-2, d), 0 for n <= 1.

    Equals simplex_number(d, n-d-1), i.e. the result of cutting away all
    d+1 facets.  The 0-dimensional case is special: a point is its own
    interior, so the sequence is already 1 at n = 1.
    """
    if d < 0:
        raise ValueError(f"dimension must be nonnegative, got d={d}")
    if n <= 0:
        return 0
    if d == 0:
        return 1
    if n == 1:
        return 0
    return binomial(n - 2, d)


def cross_polytope_number(d: int, n: int) -> int:
    """Number of points in the n-th d-cross-polytope array (d >= 1)."""
    if d < 1:
        raise ValueError(f"dimension must be positive, got d={d}")
    return sum(binomial(d - 1, i) * simplex_number(d, n - i) for i in range(d))


def hypercube_number(d: int, n: int) -> int:
    """Number of points in the n-th d-hypercube array, i.e. n**d (d >= 1).

    Evaluated as the Eulerian-weighted sum of shifted simplex sequences
    rather than as a power, so the closed form itself is exercised.
    """
    if d < 1:
        raise ValueError(f"dimension must be positive, got d={d}")
    return sum(eulerian(d, i) * simplex_number(d, n - i) for i in range(d))


def facet_cut(d: int, n: int, k: int) -> int:
    """Size of the d-simplex array after removing k facets one at a time.

    Each cut removes one facet's points and shifts the index down by one,
    so the result is simplex_number(d, n-k).
    """
    if d < 0 or k < 0:
        raise ValueError(f"dimension and cut count must be nonnegative, got d={d} k={k}")
    return simplex_number(d, n - k)


def _simplex_column(d: int, ks: range) -> list[int]:
    """simplex_number(d, k) for every k of ks: C(k+d-1, d), 0 for k <= 0."""
    return [math.comb(k + d - 1, d) if k > 0 else 0 for k in ks]


def _simplex_interior_column(d: int, ks: range) -> list[int]:
    """simplex_interior(d, k) for every k of ks, with its d == 0 and k == 1 cases."""
    if d == 0:
        return [1 if k > 0 else 0 for k in ks]
    return [math.comb(k - 2, d) if k > 1 else 0 for k in ks]


def _accumulate(acc: list[int], weight: int, column) -> None:
    """acc[i] += weight * column[i], in place, for the first len(acc) entries."""
    acc[:] = map(add, acc, map(mul, repeat(weight), column))


def _shifted_sum_table(d: int, weights: list[int], n_from: int, n_to: int) -> list[int]:
    """sum_j weights[j] * simplex_number(d, n-j) for n = n_from..n_to.

    One column covers n_from - (len(weights)-1) .. n_to; shift j reads it
    from offset len(weights)-1-j.
    """
    rows = max(0, n_to - n_from + 1)
    width = len(weights)
    column = _simplex_column(d, range(n_from - width + 1, n_to + 1))
    acc = [0] * rows
    for j, weight in enumerate(weights):
        _accumulate(acc, weight, islice(column, width - 1 - j, None))
    return acc


def simplex_table(d: int, n_from: int, n_to: int) -> list[int]:
    """[simplex_number(d, n) for n in n_from..n_to], read as one column."""
    if d < 0:
        raise ValueError(f"dimension must be nonnegative, got d={d}")
    return _simplex_column(d, range(n_from, n_to + 1))


def simplex_interior_table(d: int, n_from: int, n_to: int) -> list[int]:
    """[simplex_interior(d, n) for n in n_from..n_to], read as one column."""
    if d < 0:
        raise ValueError(f"dimension must be nonnegative, got d={d}")
    return _simplex_interior_column(d, range(n_from, n_to + 1))


def cross_polytope_table(d: int, n_from: int, n_to: int) -> list[int]:
    """[cross_polytope_number(d, n) for n in n_from..n_to] (d >= 1).

    The C(d-1, j)-weighted sum of d unit shifts of one simplex column.
    """
    if d < 1:
        raise ValueError(f"dimension must be positive, got d={d}")
    return _shifted_sum_table(d, [binomial(d - 1, j) for j in range(d)], n_from, n_to)


def hypercube_table(d: int, n_from: int, n_to: int) -> list[int]:
    """[hypercube_number(d, n) for n in n_from..n_to] (d >= 1).

    The Eulerian-weighted sum of d unit shifts of one simplex column, so
    the closed form, not n**d, is what the table evaluates.
    """
    if d < 1:
        raise ValueError(f"dimension must be positive, got d={d}")
    return _shifted_sum_table(d, [eulerian(d, j) for j in range(d)], n_from, n_to)
