"""Table forms of the closed forms against references that do not read them.

Each closed form is written once, as its table; the scalar forms are its
one-row reads.  The references here are the face-lattice recursion (the
oracle) for n up to a few hundred, an integer Newton extrapolation of
oracle values beyond that, n**d and C(n+d-1, d) for the hypercube and the
simplex, and the pinned values of the formal rectified families (r >= d),
which have no polytope for the oracle to evaluate.
"""
import pytest
from hypothesis import given
from hypothesis import strategies as st

from polytopenums import oracle
from polytopenums.exact import binomial
from polytopenums.rectified import (
    rectified_simplex_interior,
    rectified_simplex_interior_table,
    rectified_simplex_number,
    rectified_simplex_table,
)
from polytopenums.regular import (
    cross_polytope_number,
    cross_polytope_table,
    hypercube_number,
    hypercube_table,
    simplex_interior,
    simplex_interior_table,
    simplex_number,
    simplex_table,
)

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


@pytest.mark.parametrize("n_from, n_to", [run for run in RUNS if run[1] < 2**64])
def test_oracle_table_matches_every_closed_form_table(n_from, n_to):
    # Both sides are table forms with one contract: the same run, read
    # straight, with no clamp or slice on either side.  Every run but the
    # one past 2**64, which no table can hold.
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


@pytest.mark.parametrize("table", [rectified_simplex_table, rectified_simplex_interior_table])
def test_rectified_tables_reject_what_the_scalars_reject(table):
    with pytest.raises(ValueError):
        table(0, 0, 1, 3)
    with pytest.raises(ValueError):
        table(3, -1, 1, 3)


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
