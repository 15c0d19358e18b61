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
since C(k-2, d) = A(d, k-d-1) for d >= 1, or by 0 for a point.  Every
other table form is one call of the private kernel `_column_sum`, a
weighted sum over terms (weight, step, offset) of the reads
A(d, step*n + offset): `recombine_table`, which the cross-polytope and
hypercube tables read, is its unit-step case, and the rectified tables in
`rectified` are steps i+1.  The scalar form of each family
(`simplex_number`, ...) is the one-row read of its table.

A read A(d, k) agrees with the polynomial C(k+d-1, d) once k >= 1-d, as
that polynomial vanishes at k = 0, ..., 1-d, where the clamp gives 0.  So
from row n_poly on, the largest ceil((1-d-offset)/step) over the terms,
the kernel's sum is one polynomial of degree d in n.  It computes a
head entry by entry: the rows before n_poly, then the d+2 rows from
max(n_from, n_poly), whose (d+1)-th difference must be 0, or
ArithmeticError is raised.  Every later row comes from d nested
`itertools.accumulate` passes seeded with the head's backward
differences: d integer additions per row, whatever the terms.  The head's
reads, `_reads`, are one `math.comb` per read with k >= 1, unless
`exact._dense` finds them dense: then each term's reads are one strided
slice of a single `exact._column` run up to the largest k read, as at
large d, where the reads pass 2**64.  A run no longer than the head, such
as one row past n = 2**64, makes O(terms) `math.comb` calls and builds no
column.

`simplex_table` calls no kernel: building its rows as one run of the
column, by `exact._column` as for the generalized binomials, beats d
additions per row.
"""
from __future__ import annotations

import math
from itertools import accumulate, islice, repeat
from operator import add, mul, sub

from .exact import _check_dimension, _column, _dense, _eulerian_row, binomial


def _reads(d: int, terms: list[tuple[int, int, int]], n_from: int, n_to: int) -> list[int]:
    """The kernel's rows n_from..n_to entry by entry, a read with k <= 0 giving 0.

    The reads with k >= 1 come from one `math.comb` each or, when
    `exact._dense` says so of their count, as strided slices of one
    `_column` run up to the largest k read.
    """
    acc = [0] * max(0, n_to - n_from + 1)
    rows = len(acc)
    spans, stop, reads = [], 1, 0  # per term reading k >= 1: (weight, first row, its k, end, step)
    for weight, step, offset in terms:
        first = max(n_from, -((offset - 1) // step)) - n_from
        if first < rows:
            end = step * n_to + offset + 1
            spans.append((weight, first, step * (n_from + first) + offset, end, step))
            if end > stop:
                stop = end
            reads += rows - first
    column = _column(d, 1, stop) if reads and _dense(d, stop, reads) else None
    for weight, first, k, end, step in spans:
        if column is None:
            entries = map(math.comb, range(k + d - 1, end + d - 1, step), repeat(d))
        else:
            entries = column[k - 1:end - 1:step]  # column[k-1] = A(d, k)
        acc[first:] = map(add, acc[first:], map(mul, repeat(weight), entries))
    return acc


def _extend(head: list[int], count: int) -> list[int]:
    """The count rows after head, d+2 rows of a sequence of degree at most d.

    The (d+1)-th difference of head must be 0, or ArithmeticError is raised.
    """
    d = len(head) - 2
    differences = [head]  # differences[j][i]: the j-th backward difference at head row i+j
    while len(differences[-1]) > 1:
        row = differences[-1]
        differences.append(list(map(sub, row[1:], row[:-1])))
    if differences[-1][0]:
        raise ArithmeticError(f"table rows are not of degree {d} past the threshold")
    # Seeded with the j-th difference at head row j+2, the prefix sums of the
    # (j+1)-th from row j+3 on are the j-th from row j+2 on: rows from head row 2.
    rows = repeat(differences[d][0], count)
    for j in reversed(range(d)):
        rows = accumulate(rows, initial=differences[j][2])
    return list(islice(rows, d, None))


def _column_sum(d: int, terms: list[tuple[int, int, int]], n_from: int,
                n_to: int) -> list[int]:
    """sum over (weight, step, offset) in terms of weight * A(d, step*n + offset).

    For n = n_from..n_to, with every step >= 1: a head read entry by entry
    and a prefix-sum tail, as the module docstring says.
    """
    terms = [term for term in terms if term[0]]
    # n_poly: the row from which every read has k >= 1-d, ceil((1-d-offset)/step).
    n_poly = max((-((d - 1 + offset) // step) for _, step, offset in terms), default=n_to)
    start = max(n_from, n_poly)
    if n_to - start <= d + 1:
        return _reads(d, terms, n_from, n_to)
    head = _reads(d, terms, n_from, start + d + 1)
    return head + _extend(head[-d - 2:], n_to - start - d - 1)


def recombine_table(coeffs: list[int], d: int, n_from: int, n_to: int) -> list[int]:
    """sum_j coeffs[j] * simplex_number(d, n-j) for n = n_from..n_to.

    The sequence with simplex-basis coefficients coeffs: the unit-step
    terms (coeffs[j], 1, -j) of one simplex column.
    """
    _check_dimension(d)
    return _column_sum(d, [(c, 1, -j) for j, c in enumerate(coeffs)], n_from, n_to)


def simplex_table(d: int, n_from: int, n_to: int) -> list[int]:
    """Points in the n-th d-simplex array, C(n+d-1, d) (0 for n <= 0), for n_from..n_to."""
    _check_dimension(d)
    zeros = [0] * max(0, min(n_to, 0) - n_from + 1)
    start = max(1, n_from)
    return zeros + (_column(d, start, n_to + 1) if start <= n_to else [])


def simplex_interior_table(d: int, n_from: int, n_to: int) -> list[int]:
    """Points of the n-th d-simplex array on no facet, for n_from..n_to.

    C(n-2, d), 0 for n <= 1: the array left after cutting away all d+1
    facets, which is the simplex column shifted by d+1.  A point is its own
    interior, so for d = 0 the shift is 0: 1 from n = 1 on.
    """
    shift = d + 1 if d else 0
    return simplex_table(d, n_from - shift, n_to - shift)


def cross_polytope_table(d: int, n_from: int, n_to: int) -> list[int]:
    """Points in the n-th d-cross-polytope array for n_from..n_to (d >= 1).

    The C(d-1, j)-weighted sum of d unit shifts of one simplex column.  Shift
    j is 0 at n <= j, so only the first min(d, max(n_to, 1)) are built.
    """
    _check_dimension(d, 1)
    weights = [binomial(d - 1, j) for j in range(min(d, max(n_to, 1)))]
    return recombine_table(weights, d, n_from, n_to)


def hypercube_table(d: int, n_from: int, n_to: int) -> list[int]:
    """Points in the n-th d-hypercube array, i.e. n**d, for n_from..n_to (d >= 1).

    The Eulerian-weighted sum of d unit shifts of one simplex column, so
    the closed form, not n**d, is what the table evaluates.  Shift j is 0
    at n <= j, so only the first max(n_to, 1) Eulerian numbers are built.
    """
    _check_dimension(d, 1)
    return recombine_table(_eulerian_row(d, max(n_to, 1)), d, n_from, n_to)


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
