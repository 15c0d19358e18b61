"""Closed-form number sequences for the regular polytopes.

The d-simplex sequence is the basic building block: every other family is a
finite binomially-weighted sum of shifted simplex sequences.  Sequence
arguments are clamped, so any index n <= 0 yields 0; this keeps the shifted
sums safe even when a shift pushes the argument far negative.

Each family has one formula, written once as its table form
(`simplex_table`, ...), which returns the values for n_from..n_to as one
list: it reads a whole column of simplex numbers once and adds the weighted
shifts of that column, so a row costs a few big-integer products.  The
shifted sum itself is `recombine_table`.  The scalar form of each family
(`simplex_number`, ...) is the one-row read of its table.
"""
from __future__ import annotations

import math
from itertools import islice, repeat
from operator import add, mul

from .exact import _eulerian_row, binomial


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


def recombine_table(coeffs: list[int], d: int, n_from: int, n_to: int) -> list[int]:
    """sum_j coeffs[j] * simplex_number(d, n-j) for n = n_from..n_to.

    The sequence with simplex-basis coefficients coeffs.  One column covers
    n_from - (len(coeffs)-1) .. n_to; shift j reads it from offset
    len(coeffs)-1-j.
    """
    if d < 0:
        raise ValueError(f"dimension must be nonnegative, got d={d}")
    rows = max(0, n_to - n_from + 1)
    width = len(coeffs)
    column = _simplex_column(d, range(n_from - width + 1, n_to + 1))
    acc = [0] * rows
    for j, weight in enumerate(coeffs):
        _accumulate(acc, weight, islice(column, width - 1 - j, None))
    return acc


def simplex_table(d: int, n_from: int, n_to: int) -> list[int]:
    """Points in the n-th d-simplex array, C(n+d-1, d) (0 for n <= 0), for n_from..n_to."""
    if d < 0:
        raise ValueError(f"dimension must be nonnegative, got d={d}")
    return _simplex_column(d, range(n_from, n_to + 1))


def simplex_interior_table(d: int, n_from: int, n_to: int) -> list[int]:
    """Points of the n-th d-simplex array on no facet, for n_from..n_to.

    C(n-2, d), 0 for n <= 1: the array left after cutting away all d+1
    facets.  The 0-dimensional case is special: a point is its own
    interior, so the sequence is already 1 at n = 1.
    """
    if d < 0:
        raise ValueError(f"dimension must be nonnegative, got d={d}")
    return _simplex_interior_column(d, range(n_from, n_to + 1))


def cross_polytope_table(d: int, n_from: int, n_to: int) -> list[int]:
    """Points in the n-th d-cross-polytope array for n_from..n_to (d >= 1).

    The C(d-1, j)-weighted sum of d unit shifts of one simplex column.
    """
    if d < 1:
        raise ValueError(f"dimension must be positive, got d={d}")
    return recombine_table([binomial(d - 1, j) for j in range(d)], d, n_from, n_to)


def hypercube_table(d: int, n_from: int, n_to: int) -> list[int]:
    """Points in the n-th d-hypercube array, i.e. n**d, for n_from..n_to (d >= 1).

    The Eulerian-weighted sum of d unit shifts of one simplex column, so
    the closed form, not n**d, is what the table evaluates.
    """
    if d < 1:
        raise ValueError(f"dimension must be positive, got d={d}")
    return recombine_table(_eulerian_row(d), d, n_from, n_to)


def simplex_number(d: int, n: int) -> int:
    """Number of points in the n-th d-simplex array: one row of simplex_table."""
    return simplex_table(d, n, n)[0]


def simplex_interior(d: int, n: int) -> int:
    """Interior points of the n-th d-simplex array: one row of simplex_interior_table."""
    return simplex_interior_table(d, n, n)[0]


def cross_polytope_number(d: int, n: int) -> int:
    """Points in the n-th d-cross-polytope array: one row of cross_polytope_table."""
    return cross_polytope_table(d, n, n)[0]


def hypercube_number(d: int, n: int) -> int:
    """Points in the n-th d-hypercube array: one row of hypercube_table."""
    return hypercube_table(d, n, n)[0]


def facet_cut(d: int, n: int, k: int) -> int:
    """Size of the d-simplex array after removing k facets one at a time.

    Each cut removes one facet's points and shifts the index down by one,
    so the result is simplex_number(d, n-k).
    """
    if d < 0 or k < 0:
        raise ValueError(f"dimension and cut count must be nonnegative, got d={d} k={k}")
    return simplex_number(d, n - k)
