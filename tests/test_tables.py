"""Table forms of the closed forms against references that do not read them.

Each closed form is written once, as its table; the scalar forms are its
one-row reads.  The references here are the oracle for n up to a few
hundred (its recursion rows to n = 40, its own extension past them, held
to a plain recursion loop in test_oracle), an integer Newton extrapolation
of oracle values beyond that, n**d and C(n+d-1, d) for the hypercube and the
simplex, and the pinned values of the formal rectified families (r >= d),
which have no polytope for the oracle to evaluate.  A property test holds
every table form and `recombine_table` to a per-entry `math.comb`
definition, on runs that cross the column kernel's threshold, where its
entry-by-entry head gives way to a prefix-sum tail, and simplex_table's
switch from `math.comb` to the recurrence above 64 bits.  Another holds
the head's reader, `regular._reads`, with its column rule forced either
way, to the same definition past 2**64.  The long b-file tables are pinned
at sampled rows, with the number of column runs each head builds.  Two
more properties hold the two routes of each `decompose` mode to each
other and to the rows their vectors must recombine to, at d up to 40,
where coefficients pass 64 bits;
the lambda property also holds `rectified_decomposition`, which expands the
summed stretches once, to each stretch's `shift_decomposition` weighted and
summed.  A third holds both shift routes, with a up to 10**6, to the double
sum written out, at every index to d+1 past the support.
"""
import math
from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from polytopenums import oracle, regular
from polytopenums.exact import binomial
from polytopenums.rectified import (
    rectified_decomposition,
    rectified_decomposition_gbinom,
    rectified_simplex_interior,
    rectified_simplex_interior_table,
    rectified_simplex_number,
    rectified_simplex_table,
    shift_decomposition,
    shift_decomposition_gbinom,
)
from polytopenums.regular import (
    cross_polytope_number,
    cross_polytope_table,
    hypercube_number,
    hypercube_table,
    recombine_table,
    simplex_interior,
    simplex_interior_table,
    simplex_number,
    simplex_table,
)
from test_rectified import naive_shift_window

# (table, its one-row scalar form, least d) for the families indexed by d alone.
REGULAR = [
    (simplex_table, simplex_number, 0),
    (simplex_interior_table, simplex_interior, 0),
    (cross_polytope_table, cross_polytope_number, 1),
    (hypercube_table, hypercube_number, 1),
]
RECTIFIED = [
    (rectified_simplex_table, rectified_simplex_number),
    (rectified_simplex_interior_table, rectified_simplex_interior),
]

# Which oracle descriptor and which `oracle_table` column (0 values,
# 1 interiors) each table reproduces; rectified tables take their
# descriptor from (d, r).
DESCRIPTOR = {
    simplex_table: oracle.simplex,
    simplex_interior_table: oracle.simplex,
    cross_polytope_table: oracle.cross_polytope,
    hypercube_table: oracle.hypercube,
}
COLUMN = {
    simplex_table: 0, simplex_interior_table: 1, cross_polytope_table: 0,
    hypercube_table: 0, rectified_simplex_table: 0, rectified_simplex_interior_table: 1,
}

# Runs from n = 0 and below, one-row and empty runs, and runs far enough out
# that values (and, in the last run, n itself) pass 64 bits.
RUNS = [(0, 40), (1, 1), (0, 0), (-3, 5), (-4, -1), (17, 17), (5, 4), (9990, 10000),
        (2**64 - 2, 2**64 + 2)]
ORACLE_N_MAX = 400  # past this, rows come from the Newton extrapolation

# The (d, a, b) strata of the decompose-large benchmark's --shift ops.
LARGE_SHIFTS = [(6, 300, 200), (10, 200, 100), (14, 120, 150), (18, 60, 40), (20, 150, 0),
                (8, 250, 50)]


def newton(samples, n0, degree, n):
    """Value at n >= n0 of the degree-`degree` polynomial through `samples`.

    samples holds its values at n0, n0+1, ..., n0+degree+1; one more than
    the degree needs, so the (degree+1)-th forward difference must be 0.
    Integer arithmetic only: sum_k C(n-n0, k) * (k-th difference at n0).
    """
    differences = []
    row = list(samples)
    while row:
        differences.append(row[0])
        row = [b - a for a, b in zip(row, row[1:])]
    assert len(differences) == degree + 2 and differences[degree + 1] == 0
    return sum(binomial(n - n0, k) * differences[k] for k in range(degree + 1))


def oracle_rows(p, column, d, n0, n_from, n_to):
    """Column `column` of p's `oracle_table` for n_from..n_to.

    Rows up to ORACLE_N_MAX are read from the table; rows past it are
    extrapolated from the d+2 rows at n0.., where the sequence is a
    polynomial of degree d in n.
    """
    near = oracle.oracle_table(p, n_from, min(n_to, ORACLE_N_MAX))[column]
    samples = oracle.oracle_table(p, n0, n0 + d + 1)[column]
    return near + [newton(samples, n0, d, n)
                   for n in range(max(n_from, ORACLE_N_MAX + 1), n_to + 1)]


def formal_rows(table, d, r, n_from, n_to):
    """The pinned rectified families with r >= d >= 1, for n_from..n_to.

    d == r: value 1 for every n >= 1; interior 0 at n = 1, then (-1)**r.
    0 < d < r: value 1 at n = 1, then 0; interior (-1)**(d+1) at n = 1, then 0.
    """
    if table is rectified_simplex_table:
        return [int(n == 1 or (d == r and n > 1)) for n in range(n_from, n_to + 1)]
    if d == r:
        return [(-1) ** r if n > 1 else 0 for n in range(n_from, n_to + 1)]
    return [(-1) ** (d + 1) if n == 1 else 0 for n in range(n_from, n_to + 1)]


def regular_reference(table, d, n_from, n_to):
    return oracle_rows(DESCRIPTOR[table](d), COLUMN[table], d, 2, n_from, n_to)


def assert_shift_facts(d, a, b, n_to=8):
    """Both shift routes agree, and the vector recombines to the stretched simplex rows.

    Row n of recombine_table must equal A(d, a*n - (a-1) - b) wherever that
    argument is at least 1.
    """
    coeffs = shift_decomposition(d, a, b)
    assert coeffs == shift_decomposition_gbinom(d, a, b), (d, a, b)
    stretched = simplex_table(d, 1, a * n_to - (a - 1) - b)
    for n, recombined in enumerate(recombine_table(coeffs, d, 1, n_to), 1):
        k = a * n - (a - 1) - b
        if k >= 1:
            assert recombined == stretched[k - 1], (d, a, b, n)


def rectified_reference(table, d, r, n_from, n_to):
    if r >= d:
        return formal_rows(table, d, r, n_from, n_to)
    p = oracle.rectified_simplex_descriptor(d, r)
    return oracle_rows(p, COLUMN[table], d, r + 2, n_from, n_to)


@pytest.mark.parametrize("table, scalar, d_min", REGULAR)
def test_regular_tables_on_grid(table, scalar, d_min):
    for d in range(d_min, 8):
        for n_from, n_to in RUNS:
            expected = regular_reference(table, d, n_from, n_to)
            assert table(d, n_from, n_to) == expected, (d, n_from, n_to)
            # The scalar form is the table's one-row read.
            assert [scalar(d, n) for n in range(n_from, n_to + 1)] == expected


@pytest.mark.parametrize("table, scalar", RECTIFIED)
def test_rectified_tables_on_grid(table, scalar):
    # r = 0, r = d-1, and r >= d (the formal sequences).
    for d in range(1, 8):
        for r in sorted({0, 1, d - 1, d, d + 2}):
            for n_from, n_to in RUNS:
                expected = rectified_reference(table, d, r, n_from, n_to)
                assert table(d, r, n_from, n_to) == expected, (d, r, n_from, n_to)
                assert [scalar(d, r, n) for n in range(n_from, n_to + 1)] == expected


@pytest.mark.parametrize("n_from, n_to", RUNS)
def test_oracle_table_matches_every_closed_form_table(n_from, n_to):
    # Both sides are table forms with one contract: the same run, read
    # straight, with no clamp or slice on either side.  Past its head the
    # oracle extends its rows, so the run past 2**64 is read too.
    for table, _, d_min in REGULAR:
        for d in range(d_min, 8):
            columns = oracle.oracle_table(DESCRIPTOR[table](d), n_from, n_to)
            assert table(d, n_from, n_to) == columns[COLUMN[table]], (table, d)
    for table, _ in RECTIFIED:
        for d in range(1, 8):
            for r in range(d):
                columns = oracle.oracle_table(oracle.rectified_simplex_descriptor(d, r),
                                              n_from, n_to)
                assert table(d, r, n_from, n_to) == columns[COLUMN[table]], (table, d, r)


def test_oracle_table_of_rows_at_or_below_zero_fills_no_table():
    oracle.clear_tables()
    p = oracle.rectified_simplex_descriptor(5, 2)
    assert oracle.oracle_table(p, -3, 0) == ([0, 0, 0, 0], [0, 0, 0, 0])
    assert oracle.table_sizes() == {}


@pytest.mark.parametrize("d", range(0, 8))
def test_simplex_and_hypercube_closed_references(d):
    for n_from, n_to in RUNS:
        ns = range(n_from, n_to + 1)
        assert simplex_table(d, n_from, n_to) == [binomial(n + d - 1, d) if n > 0 else 0
                                                  for n in ns]
        if d >= 1:
            assert hypercube_table(d, n_from, n_to) == [n**d if n > 0 else 0 for n in ns]


def test_formal_families_are_pinned():
    # The oracle cannot evaluate r >= d; these values, with the verify
    # records constant-family, interior-sign and vanishing-interior, are
    # the reference there.
    for d in range(1, 12):
        for r in range(d, d + 10):
            for table in (rectified_simplex_table, rectified_simplex_interior_table):
                assert table(d, r, -3, 40) == formal_rows(table, d, r, -3, 40), (d, r)


def test_grid_reaches_past_64_bits():
    assert simplex_table(6, 9990, 10000)[0] > 2**64
    assert hypercube_table(6, 2**64, 2**64)[0] == 2**384


@pytest.mark.parametrize("table, d", [(simplex_table, -1), (simplex_interior_table, -1),
                                      (cross_polytope_table, 0), (hypercube_table, 0)])
def test_regular_tables_reject_what_the_scalars_reject(table, d):
    with pytest.raises(ValueError):
        table(d, 1, 3)


def test_recombine_table_rejects_a_negative_dimension():
    with pytest.raises(ValueError, match="dimension must be nonnegative, got d=-1"):
        recombine_table([1, 2], -1, 1, 3)


def test_simplex_column_rejects_an_inexact_recurrence_step(monkeypatch):
    # Above 64 bits each entry comes from the one before by divmod: a first
    # entry one too large leaves a remainder at the next step.
    d, first = 2, 2**33
    exact = math.comb
    monkeypatch.setattr(math, "comb", lambda n, k: exact(n, k) + ((n, k) == (first + d - 1, d)))
    with pytest.raises(ArithmeticError, match=f"inexact simplex column step at d=2 k={first + 1}"):
        simplex_table(d, first, first + 2)


@pytest.mark.parametrize("table", [rectified_simplex_table, rectified_simplex_interior_table])
def test_rectified_tables_reject_what_the_scalars_reject(table):
    with pytest.raises(ValueError):
        table(0, 0, 1, 3)
    with pytest.raises(ValueError):
        table(3, -1, 1, 3)


@pytest.mark.parametrize("d, a, b", LARGE_SHIFTS)
def test_shift_routes_recombine_at_large_stretch(d, a, b):
    assert_shift_facts(d, a, b)


runs = st.tuples(st.integers(-60, 5000), st.integers(0, 40))


@given(st.sampled_from(REGULAR), st.integers(0, 14), runs)
def test_regular_tables_property(family, d, run):
    table, _, d_min = family
    d = max(d, d_min)
    n_from, rows = run
    n_to = n_from + rows - 1
    assert table(d, n_from, n_to) == regular_reference(table, d, n_from, n_to)


@given(st.sampled_from(RECTIFIED), st.integers(1, 14), st.integers(0, 17), runs)
def test_rectified_tables_property(family, d, r, run):
    table, _ = family
    n_from, rows = run
    n_to = n_from + rows - 1
    assert table(d, r, n_from, n_to) == rectified_reference(table, d, r, n_from, n_to)


@given(st.integers(1, 40), st.integers(1, 60), st.integers(0, 80))
@example(40, 40, 60)  # coefficients far past 64 bits
def test_shift_decomposition_property(d, a, b):
    assert_shift_facts(d, a, b)


@st.composite
def wide_shifts(draw):
    """(d, a, b) with d <= 12, a <= 10**6 and b <= 2*10**6, the support at most d + 64.

    The support has d + ceil((b-d)/a) + 1 coefficients, and at a = 1 with
    b ~ 10**6 printing them is the cost; b is held to 64a + d past that.
    """
    d, a = draw(st.integers(1, 12)), draw(st.integers(1, 10**6))
    return d, a, draw(st.integers(0, min(2 * 10**6, 64 * a + d)))


@given(wide_shifts())
@example((6, 17, 0))  # the gbinomial batch reads its shared column
@example((6, 18, 0))  # and, one step of a later, each term from math.comb
@example((60, 10**5, 0))
@example((8, 10**6, 10**6))
def test_wide_shift_routes_match_the_literal_double_sum(shape):
    # Both routes, held to each other and to the double sum at every index
    # out to d+1 past the support, where every coefficient must be 0.
    d, a, b = shape
    coeffs = shift_decomposition(d, a, b)
    assert coeffs == shift_decomposition_gbinom(d, a, b)
    window = naive_shift_window(d, a, b, len(coeffs) + d + 1)
    assert coeffs == window[:len(coeffs)]
    assert not any(window[len(coeffs):])


def composed_decomposition(d, r):
    """The stretches' shift vectors, each expanded on its own, weighted, summed and trimmed to d."""
    acc = [0] * (d + 1)
    for i in range(r + 1):
        weight = (-1) ** (r - i) * binomial(d + 1, r - i)
        for j, c in enumerate(shift_decomposition(d, i + 1, r - i)):
            acc[j] += weight * c
    assert acc[d] == 0, (d, r)
    return acc[:d]


@given(st.integers(1, 40).flatmap(lambda d: st.tuples(st.just(d), st.integers(0, d - 1))))
@example((40, 20))  # coefficients far past 64 bits
def test_rectified_decomposition_property(level):
    """Both lambda routes agree, equal the composed shift vectors, and recombine to the rows."""
    d, r = level
    coeffs = rectified_decomposition(d, r)
    assert coeffs == rectified_decomposition_gbinom(d, r), (d, r)
    assert coeffs == composed_decomposition(d, r), (d, r)
    assert recombine_table(coeffs, d, 1, 8) == rectified_simplex_table(d, r, 1, 8), (d, r)


# Per-entry definitions, one math.comb (or power) per term, that read no table.
def simplex_entry(d, k):
    return math.comb(k + d - 1, d) if k > 0 else 0


def interior_entry(d, n):
    if d == 0:
        return int(n > 0)
    return math.comb(n - 2, d) if n > 1 else 0


def stretch_sum(d, r, entry, argument):
    return sum((-1) ** (r - i) * math.comb(d + 1, r - i) * entry(d, argument(i))
               for i in range(r + 1))


# (table, per-entry definition taking (d, r, n), least d); r is ignored by
# the tables indexed by d alone.
DEFINITIONS = [
    (simplex_table, lambda d, r, n: simplex_entry(d, n), 0),
    (simplex_interior_table, lambda d, r, n: interior_entry(d, n), 0),
    (cross_polytope_table,
     lambda d, r, n: sum(math.comb(d - 1, j) * simplex_entry(d, n - j) for j in range(d)), 1),
    (hypercube_table, lambda d, r, n: n**d if n > 0 else 0, 1),
    (rectified_simplex_table,
     lambda d, r, n: stretch_sum(d, r, simplex_entry, lambda i: (i + 1) * n - r), 1),
    (rectified_simplex_interior_table,
     lambda d, r, n: stretch_sum(d, r, interior_entry, lambda i: (i + 1) * n + r - 2 * i), 1),
]


def past_64_bits(d):
    """Least k with C(k+d-1, d) >= 2**64, where the column leaves math.comb (d >= 1)."""
    lo, hi = 1, 2**64
    while lo < hi:
        mid = (lo + hi) // 2
        if simplex_entry(d, mid) >= 2**64:
            hi = mid
        else:
            lo = mid + 1
    return lo


def threshold(d, steps_offsets):
    """ceil((1-d-offset)/step) maximised over the (step, offset) pairs.

    The row from which every read A(d, step*n + offset) has argument
    k >= 1-d, where it agrees with the polynomial C(k+d-1, d).
    """
    return max(-((d - 1 + offset) // step) for step, offset in steps_offsets)


def thresholds(d, r, coeffs):
    """The thresholds of every table form read through the column kernel at (d, r)."""
    found = {threshold(d, [(i + 1, -r) for i in range(r + 1)]),
             threshold(d, [(i + 1, r - 2 * i - d - 1) for i in range(r + 1)])}
    if d >= 1:
        found.add(threshold(d, [(1, -j) for j in range(d)]))
    if coeffs:
        found.add(threshold(d, [(1, -j) for j in range(len(coeffs))]))
    return sorted(found)


@st.composite
def kernel_reads(draw, coeffs):
    """(d, r, n_from, n_to) for the column kernel and simplex_table.

    Runs start below, at or just above some table's threshold, where the
    kernel's head ends and its prefix-sum tail begins; near 0 (rows at
    n <= 0); near where some stretch's argument crosses 2**64, simplex_table's
    switch from math.comb to its recurrence; or, for one-row reads, past
    n = 2**64.  Run lengths straddle the head's d+2 rows and reach a few
    hundred.  r runs past d, into the formal families, and d = 0 gives the
    point's interior.
    """
    d = draw(st.integers(0, 16))
    r = draw(st.integers(0, d + 3))
    if draw(st.booleans()):
        n_from = draw(st.integers(2**64, 2**70))
        return d, r, n_from, n_from
    anchor = draw(st.sampled_from(["threshold", "zero", "switch"]))
    if anchor == "switch" and d >= 1:
        n_from = past_64_bits(d) // draw(st.integers(1, r + 1)) - draw(st.integers(0, 60))
    elif anchor == "threshold":
        n_from = (draw(st.sampled_from(thresholds(d, r, coeffs)))
                  + draw(st.integers(-(d + 3), 3)))
    else:
        n_from = draw(st.one_of(st.integers(-3, 6), st.integers(-60, 60)))
    rows = draw(st.one_of(st.sampled_from([d + 1, d + 2, d + 3]), st.integers(0, 3),
                          st.integers(0, 400)))
    return d, r, n_from, n_from + rows - 1


coefficient_lists = st.lists(st.integers(-50, 50), max_size=8)


@given(coefficient_lists.flatmap(lambda coeffs: st.tuples(kernel_reads(coeffs),
                                                          st.just(coeffs))))
# One row under many stretches: a read entry by entry that reaches the column at k = 1.
@example(((3, 5, 3, 3), [1, -2]))
def test_tables_match_their_per_entry_definitions(read_and_coeffs):
    read, coeffs = read_and_coeffs
    d, r, n_from, n_to = read
    ns = range(n_from, n_to + 1)
    for table, entry, d_min in DEFINITIONS:
        if d < d_min:
            continue
        args = (d, r) if table in (rectified_simplex_table,
                                   rectified_simplex_interior_table) else (d,)
        assert table(*args, n_from, n_to) == [entry(d, r, n) for n in ns], (table, read)
    assert recombine_table(coeffs, d, n_from, n_to) == [
        sum(c * simplex_entry(d, n - j) for j, c in enumerate(coeffs)) for n in ns]


@st.composite
def read_batches(draw):
    """(d, terms, n_from, n_to) for `regular._reads`.

    d <= 48, so the entries pass 2**64; 1-8 terms (weight, step <= 30,
    offset) whose offsets reach below 1; a run of up to 40 rows from at
    most row 3, so most cross row 0, and some are empty.
    """
    d = draw(st.integers(0, 48))
    terms = draw(st.lists(st.tuples(st.integers(-50, 50), st.integers(1, 30),
                                    st.integers(-60, 20)), min_size=1, max_size=8))
    n_from = draw(st.integers(-10, 3))
    return d, terms, n_from, n_from + draw(st.integers(-1, 40))


@given(read_batches(), st.booleans())
@example((24, [(1, 5, -29)], 0, 52), True)  # one shift decomposition's reads, past 2**64
@example((24, [(1, 5, -29)], 0, 52), False)
@example((0, [(3, 2, -5), (-1, 1, 0)], -4, 6), True)  # the point's column of ones
@example((5, [(1, 1, -9)], -2, 3), True)  # no read reaches k = 1: no run
def test_reads_on_either_path_equal_the_definition(batch, dense):
    """`_reads` with the rule forced either way is sum w * C(k+d-1, d), 0 for k <= 0."""
    d, terms, n_from, n_to = batch
    runs = []
    column = regular._column
    with mock.patch.object(regular, "_dense", lambda d, stop, reads: dense), \
            mock.patch.object(regular, "_column",
                              lambda *args: runs.append(args) or column(*args)):
        rows = regular._reads(d, terms, n_from, n_to)
    ns = range(n_from, n_to + 1)
    assert rows == [sum(w * simplex_entry(d, step * n + offset) for w, step, offset in terms)
                    for n in ns]
    # One run, to the largest k read, on the dense path; none on the sparse one.
    top = max((step * n_to + offset for _, step, offset in terms if ns), default=0)
    assert runs == ([(d, 1, top + 1)] if dense and top >= 1 else [])


@pytest.mark.parametrize("d", range(0, 9))
def test_prefix_sum_tail_continues_a_polynomial_and_rejects_a_higher_degree(d):
    # d+2 rows of a degree-d polynomial with a sign change, then 50 more.
    values = [5 * (n - 3) ** d - 7 * n ** max(d - 1, 0) for n in range(d + 52)]
    assert regular._extend(values[:d + 2], 50) == values[d + 2:]
    # The same number of rows of a degree-(d+1) sequence fail the degree check.
    with pytest.raises(ArithmeticError):
        regular._extend([n ** (d + 1) for n in range(5, d + 7)], 10)


# The long tables of the seq-formula benchmark's b-files, far past the
# property test's run lengths, and one at d = 64, whose head's reads pass
# 2**64 and are dense: (table, args, d, number of kernel terms).
LONG_TABLES = [
    (rectified_simplex_table, (12, 6), 12, 7),
    (rectified_simplex_interior_table, (12, 6), 12, 7),
    (cross_polytope_table, (10,), 10, 10),
    (hypercube_table, (9,), 9, 9),
    (rectified_simplex_table, (64, 32), 64, 33),
]


@pytest.mark.parametrize("table, args, d, terms", LONG_TABLES)
def test_long_tables_match_their_definitions_from_a_short_head(table, args, d, terms):
    runs = int(d == 64)  # one column run serves a dense head
    calls, built = [], []
    comb, column = math.comb, regular._column

    def counting_comb(*pair):
        calls.append(pair)
        return comb(*pair)

    with mock.patch.object(math, "comb", counting_comb), \
            mock.patch.object(regular, "_column",
                              lambda *args: built.append(args) or column(*args)):
        rows = table(*args, 1, 18000)
    # A head of d+2 rows per term at most; every later row is a prefix sum.
    assert len(calls) <= (d + 2) * terms, len(calls)
    # A run takes its entries by the exact step: a weight per term and the
    # run's first entry are all the math.comb calls left.
    assert len(built) == runs
    if runs:
        assert len(calls) <= terms + 1, len(calls)
    entry = next(entry for t, entry, _ in DEFINITIONS if t is table)
    r = args[1] if len(args) == 2 else 0
    for n in [*range(1, 18001, 997), 18000]:
        assert rows[n - 1] == entry(d, r, n), (table, n)
