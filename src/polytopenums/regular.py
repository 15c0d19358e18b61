"""Closed-form number sequences for the regular polytopes.

The d-simplex sequence A(d, k) = C(k+d-1, d) is the basic building block:
every other family is a finite weighted sum of shifted, stretched reads of
it.  Sequence arguments are clamped, so any index n <= 0 yields 0; this
keeps the shifted sums safe even when a shift pushes the argument far
negative.

Each family has one formula, written once as its table form
(`simplex_table`, ...), which returns the values for n_from..n_to as one
list, and all of them read one simplex column.  `simplex_table` is the
column itself, and the simplex interior is that column shifted by d+1,
since C(k-2, d) = A(d, k-d-1) for d >= 1 (only d = 0 is special).  Every
other table form is one call of the private kernel `_column_sum`, a
weighted sum over terms (weight, step, offset) of the reads
A(d, step*n + offset): `recombine_table`, which the cross-polytope and
hypercube tables read, is its unit-step case, and the rectified tables in
`rectified` are steps i+1.  The scalar form of each family
(`simplex_number`, ...) is the one-row read of its table.

The kernel reads the column in one of two ways:

- Dense (the arguments >= 1 that the rows read span fewer than
  2 * terms * rows entries): the column over that span is streamed in
  chunks of `_CHUNK` entries, each entry computed once, and each chunk is
  added into the rows it covers.  Peak memory is O(rows + _CHUNK), not
  O(span): holding the whole span as one list, 7 * 18000 entries for the
  lambda b-file table of the seq-formula benchmark, raised that workload's
  peak RSS by 9.8%.  The chunk size is a fixed module constant.
- Sparse (anything else, such as one row at huge n): one `math.comb` per
  read entry, so no column of about r*n entries is ever built.

The factor 2 in the switch is untuned.  In the benchmark (seeds 1, 2 and
9173 alike), the seq-formula ops make 18 dense reads and no sparse one;
the seq-oracle ops make 8 dense reads and 4 sparse ones, the two
`--route both` rectified tables that start near n = 2000.

A run of the column (a chunk, or all of `simplex_table`, whose column is
its output) takes its entries from `math.comb` while the run's top entry
fits in 64 bits, where CPython's fast path wins; short tables, such as all
of `verify`'s, therefore never reach the recurrence, which slowed them by
5-10% when they did.  Above 64 bits each entry comes from the one before,
A(d, k) = A(d, k-1) * (k+d-1) / (k-1), by `divmod`; a remainder raises
ArithmeticError.
"""
from __future__ import annotations

import math
from itertools import repeat
from operator import add, mul

from .exact import _eulerian_row, binomial

_CHUNK = 2048  # column entries a dense read holds at once
_FAST = 1 << 64  # entries below this come from math.comb


def _column(d: int, start: int, stop: int) -> list[int]:
    """A(d, k) = C(k+d-1, d) for start <= k < stop, where 1 <= start < stop."""
    if math.comb(stop + d - 2, d) < _FAST:
        return list(map(math.comb, range(start + d - 1, stop + d - 1), repeat(d)))
    value = math.comb(start + d - 1, d)
    column = [value]
    # A(d, k) = A(d, k-1) * (k+d-1) / (k-1) for k = start+1 .. stop-1.
    for up, down in zip(range(start + d, stop + d - 1), range(start, stop - 1)):
        value, remainder = divmod(value * up, down)
        if remainder:
            raise ArithmeticError(f"inexact simplex column step at d={d} k={down + 1}")
        column.append(value)
    return column


def _add_into(acc: list[int], first: int, weight: int, entries: list[int]) -> None:
    """acc[first + i] += weight * entries[i] for every i, in place."""
    stop = first + len(entries)
    if weight != 1:
        entries = map(mul, repeat(weight), entries)
    acc[first:stop] = map(add, acc[first:stop], entries)


def _column_sum(d: int, terms: list[tuple[int, int, int]], n_from: int,
                n_to: int) -> list[int]:
    """sum over (weight, step, offset) in terms of weight * A(d, step*n + offset).

    For n = n_from..n_to, with every step >= 1.  Dense or sparse as the
    module docstring says; both give the same rows.
    """
    acc = [0] * max(0, n_to - n_from + 1)
    terms = [term for term in terms if term[0]]
    if not acc or not terms:
        return acc
    k_lo = max(1, min(step * n_from + offset for _, step, offset in terms))
    k_hi = max(step * n_to + offset for _, step, offset in terms)
    if k_hi - k_lo + 1 >= 2 * len(terms) * len(acc):
        for weight, step, offset in terms:
            first = max(n_from, -((offset - 1) // step))  # the first row reading k >= 1
            ks = range(step * first + offset + d - 1, step * n_to + offset + d, step)
            _add_into(acc, first - n_from, weight, list(map(math.comb, ks, repeat(d))))
        return acc
    for start in range(k_lo, k_hi + 1, _CHUNK):
        stop = min(start + _CHUNK, k_hi + 1)
        chunk = _column(d, start, stop)
        for weight, step, offset in terms:
            # The rows n with start <= step*n + offset < stop.
            first = max(n_from, -((offset - start) // step))
            last = min(n_to, (stop - 1 - offset) // step)
            if first <= last:
                at = step * first + offset - start
                _add_into(acc, first - n_from, weight,
                          chunk[at:at + step * (last - first) + 1:step])
    return acc


def recombine_table(coeffs: list[int], d: int, n_from: int, n_to: int) -> list[int]:
    """sum_j coeffs[j] * simplex_number(d, n-j) for n = n_from..n_to.

    The sequence with simplex-basis coefficients coeffs: the unit-step
    terms (coeffs[j], 1, -j) of one simplex column.
    """
    if d < 0:
        raise ValueError(f"dimension must be nonnegative, got d={d}")
    return _column_sum(d, [(c, 1, -j) for j, c in enumerate(coeffs)], n_from, n_to)


def simplex_table(d: int, n_from: int, n_to: int) -> list[int]:
    """Points in the n-th d-simplex array, C(n+d-1, d) (0 for n <= 0), for n_from..n_to."""
    if d < 0:
        raise ValueError(f"dimension must be nonnegative, got d={d}")
    zeros = [0] * max(0, min(n_to, 0) - n_from + 1)
    start = max(1, n_from)
    return zeros + (_column(d, start, n_to + 1) if start <= n_to else [])


def simplex_interior_table(d: int, n_from: int, n_to: int) -> list[int]:
    """Points of the n-th d-simplex array on no facet, for n_from..n_to.

    C(n-2, d), 0 for n <= 1: the array left after cutting away all d+1
    facets, which is the simplex column shifted by d+1.  The 0-dimensional
    case is special: a point is its own interior, so the sequence is
    already 1 at n = 1.
    """
    if d < 0:
        raise ValueError(f"dimension must be nonnegative, got d={d}")
    if d == 0:
        return [int(n > 0) for n in range(n_from, n_to + 1)]
    return simplex_table(d, n_from - d - 1, n_to - d - 1)


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
