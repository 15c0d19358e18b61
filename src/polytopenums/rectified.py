"""Rectified-simplex number sequences and their simplex-basis decompositions.

Rectifying the d-simplex at level r (truncating every vertex to the centers
of the incident r-faces) produces the polytope whose vertices are the
(r+1)-subsets of d+1 points.  Its point-count sequence is an alternating,
inclusion-exclusion style sum over the stretches (w, a, b) of `_stretches`:

    value(d, r, n) = sum of w * A(d, a*n - (a-1) - b) over the stretches

where A is the clamped d-simplex sequence and stretch i = 0..r has
w = (-1)**(r-i) C(d+1, r-i), a = i+1 and b = r-i: the sequence that
`shift_decomposition(d, a, b)` rewrites, read by every formula here, so
the list checks the domain d >= 1, r >= 0 for all of them.  The
sum and its interior companion are written once, as table forms: each is
one call of the `regular` column kernel, whose terms (w, a, offset) read a
single simplex column.  Each stretch is a degree-d polynomial in n once
a*n + offset >= 1-d, so the kernel reads a head of about d+2 rows entry by
entry and extends it by d-fold prefix sums.  The interior sum reads the
simplex interior at a*n + 1 - a + b, the same column shifted by d+1, since
the simplex interior C(k-2, d) is A(d, k-d-1).  The scalar forms are the
one-row reads of those tables.  The module also computes the coefficients
that rewrite such sequences in the basis A(d, n-j) of unit shifts, read
back by `recombine`.  A decomposition is a stretch list, (1, a, b) alone
or `_stretches(d, r)`, and each route one body over it: d+1 backward
difference passes over the summed stretched column, read by
`regular._reads` to the d+2 coefficients past the kept length or to
d + max(a+b) if that comes first, or one `exact._gbinomial_rows` batch,
a row per stretch of width the largest `_support_bound` + 1, weighted by
w column by column.  Both routes read
their simplex column by the one rule `exact._dense`: one `math.comb` per
read, or, when the reads are dense past 2**64 as at large d, slices of
one column run.  So a shift decomposition's work on either route is its
support times a polynomial in d, whatever a and b: a column out to its
largest read would be long against its reads, and is not built.  The two
expand the same generating function differently, so they cross-check the
code, not the formula; `verify`'s shift-identity and recombination checks
hold the vectors against the simplex and rectified columns.

The degenerate families with d <= r are still defined by the same formulas,
as formal sequences.  For d == r the value is 1 at every n >= 1 and the
interior is 0 at n = 1, then (-1)**r.  For 0 < d < r the value is 1 at
n = 1 and 0 from n = 2 on, and the interior is (-1)**(d+1) at n = 1 and 0
from n = 2 on.
"""
from __future__ import annotations

from operator import mul, sub

from .exact import _check_dimension, _gbinomial_rows, binomial
from .regular import _column_sum, _reads, recombine_table


def _shift_mode(d: int, a: int, b: int) -> tuple[list[tuple[int, int, int]], int, str]:
    """(stretches, kept length, error label) of a shift decomposition: (1, a, b) alone."""
    _check_dimension(d, 1)
    if a < 1:
        raise ValueError(f"stretch factor must be positive, got a={a}")
    if b < 0:
        raise ValueError(f"offset must be nonnegative, got b={b}")
    return [(1, a, b)], _support_bound(d, a, b) + 1, f"shift coefficients for d={d} a={a} b={b}"


def _stretches(d: int, r: int) -> list[tuple[int, int, int]]:
    """(w, a, b) = ((-1)**(r-i) C(d+1, r-i), i+1, r-i): the stretches i = 0..r.

    Every rectified table and decomposition reads it: it checks d >= 1, then r >= 0."""
    _check_dimension(d, 1)
    if r < 0:
        raise ValueError(f"rectification level must be nonnegative, got r={r}")
    return [((-1) ** (r - i) * binomial(d + 1, r - i), i + 1, r - i) for i in range(r + 1)]


def _lambda_mode(d: int, r: int) -> tuple[list[tuple[int, int, int]], int, str]:
    """(stretches, kept length, error label) of a rectified decomposition, which also
    needs r < d: r >= d >= 1 passes `_stretches`' rules, so this check goes first."""
    if r >= d >= 1:
        raise ValueError(f"decomposition requires 0 <= r < d, got d={d} r={r}")
    return _stretches(d, r), d, f"rectified coefficients for d={d} r={r}"


def rectified_simplex_table(d: int, r: int, n_from: int, n_to: int) -> list[int]:
    """Point counts of the r-rectified d-simplex arrays for n_from..n_to (0 for n <= 0).

    Valid as geometric counts for 0 <= r < d; larger r evaluates the same
    alternating formula as a formal sequence.  Rows with n <= 0 come out 0
    with no special case: every argument a*n + 1 - a - b is then below 1.
    """
    return _column_sum(d, [(w, a, 1 - a - b) for w, a, b in _stretches(d, r)], n_from, n_to)


def rectified_simplex_interior_table(d: int, r: int, n_from: int, n_to: int) -> list[int]:
    """Interior point counts of the r-rectified d-simplex arrays for n_from..n_to.

    Stretch (w, a, b) reads the simplex interior at a*n + 1 - a + b, which
    is the simplex column at a*n + b - a - d.  Rows with n <= 0 come out 0:
    a nonzero weight needs b <= d+1, and then that argument is below 1.
    """
    return _column_sum(d, [(w, a, b - a - d) for w, a, b in _stretches(d, r)], n_from, n_to)


def rectified_simplex_number(d: int, r: int, n: int) -> int:
    """n-th point count of the r-rectified d-simplex: one row of rectified_simplex_table."""
    return rectified_simplex_table(d, r, n, n)[0]


def rectified_simplex_interior(d: int, r: int, n: int) -> int:
    """n-th interior count: one row of rectified_simplex_interior_table."""
    return rectified_simplex_interior_table(d, r, n, n)[0]


def _support_bound(d: int, a: int, b: int) -> int:
    # The shift coefficients come from multiplying (1-x)**(d+1) into the
    # series with k-th coefficient C(d+ak-b, ak-b).  Once ak-b >= -d that
    # coefficient agrees with a degree-d polynomial in k, whose series is a
    # rational function with denominator (1-x)**(d+1); only the finitely many
    # k with ak < b-d deviate.  Support therefore never extends past
    # d + ceil(max(b-d, 0)/a).
    return d + max(0, -((d - b) // a))


def _trimmed(coeffs: list[int], keep: int, what: str) -> list[int]:
    """coeffs[:keep], raising ArithmeticError if any later coefficient is nonzero."""
    bad = [(j, c) for j, c in enumerate(coeffs[keep:], keep) if c != 0]
    if bad:
        raise ArithmeticError(f"{what} extend past index {keep - 1}: {bad}")
    return coeffs[:keep]


def _difference_route(d: int, stretches: list, keep: int, what: str) -> list[int]:
    """(1-x)**(d+1) times the sum of w * A(d, a*k + 1 - b) over stretches (w, a, b), trimmed.

    The column is read to index keep + d + 1, or to d + max(a+b) if that
    comes first, so up to d+2 coefficients past keep are checked.
    Coefficient j reads the column only at k <= j, and from index keep on
    every coefficient is 0 (see `_support_bound`): checking further would
    test only reads that no kept coefficient uses.
    """
    limit = min(d + max(a + b for _, a, b in stretches), keep + d + 1)
    coeffs = _reads(d, [(w, a, 1 - b) for w, a, b in stretches], 0, limit)
    for _ in range(d + 1):
        coeffs = list(map(sub, coeffs, [0] + coeffs[:-1]))
    return _trimmed(coeffs, keep, what)


def _gbinomial_route(d: int, stretches: list, keep: int, what: str) -> list[int]:
    """The sum of w * gbinomial(d+1, a*j - b, a) over stretches (w, a, b), trimmed.

    One `_gbinomial_rows` batch reads a row per stretch (a, b), j up to the
    largest support bound; coefficient j weights column j of the rows."""
    width = max(_support_bound(d, a, b) for _, a, b in stretches) + 1
    rows = _gbinomial_rows(d + 1, [(a, b) for _, a, b in stretches], width)
    weights = [w for w, _, _ in stretches]
    coeffs = [sum(map(mul, weights, column)) for column in zip(*rows)]
    return _trimmed(coeffs, keep, what)


def shift_decomposition(d: int, a: int, b: int) -> list[int]:
    """Coefficients rewriting a stretched simplex sequence over unit shifts.

    Returns c with simplex_number(d, a*n - (a-1) - b) equal to the sum of
    c[j] * simplex_number(d, n-j) whenever the left argument is >= 1: the
    difference route of the one stretch (1, a, b).  c has length d+1 when
    b <= d, and offsets past d push it out to d + ceil((b-d)/a) + 1; the
    d+2 coefficients after it, or those out to index d+a+b if fewer, are
    computed and checked to be 0, so the cost follows the support, not a.
    """
    return _difference_route(d, *_shift_mode(d, a, b))


def shift_decomposition_gbinom(d: int, a: int, b: int) -> list[int]:
    """Same coefficients as shift_decomposition, read off generalized binomials.

    c[j] is gbinomial(d+1, a*j - b, a), the coefficient of x**(a*j - b) in
    (1 + x + ... + x**(a-1))**(d+1): the h-vector of a Veronese subring.
    The gbinomial route of the one stretch (1, a, b): one row, to the
    support bound.  At large a it takes each term, about d/2 a coefficient,
    from `math.comb`.
    """
    return _gbinomial_route(d, *_shift_mode(d, a, b))


def recombine(coeffs: list[int], d: int, n: int) -> int:
    """Value at n of the sequence with simplex-basis coefficients coeffs.

    One row of recombine_table: the right side of the shift identity for
    shift_decomposition vectors, and the rectified value for
    rectified_decomposition vectors.
    """
    return recombine_table(coeffs, d, n, n)[0]


def rectified_decomposition(d: int, r: int) -> list[int]:
    """Simplex-basis coefficients of the r-rectified d-simplex sequence.

    Returns (a_0 .. a_{d-1}) with the rectified sequence equal to the sum of
    a_j * simplex_number(d, n-j): the difference route of `_stretches(d, r)`,
    out to index d+r+1, as a+b = r+1 for every stretch.  Requires
    0 <= r < d; a nonzero coefficient from index d on raises ArithmeticError.
    """
    return _difference_route(d, *_lambda_mode(d, r))


def rectified_decomposition_gbinom(d: int, r: int) -> list[int]:
    """Simplex-basis coefficients via generalized binomial coefficients.

    The gbinomial route of `_stretches(d, r)`: one batch of r+1 rows of
    width d+1, as b <= r < d puts every support bound at d.  Must agree with
    rectified_decomposition; a nonzero a_d raises ArithmeticError.
    """
    return _gbinomial_route(d, *_lambda_mode(d, r))
