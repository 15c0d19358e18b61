"""Table forms of the closed forms against their scalar forms, entry for entry."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

# (table, scalar, least d) for the families indexed by d alone.
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

# Runs from n = 0 and below, one-row and empty runs, and runs far enough out
# that values (and, in the last run, n itself) pass 64 bits.
RUNS = [(0, 40), (1, 1), (0, 0), (-3, 5), (-4, -1), (17, 17), (5, 4), (9990, 10000),
        (2**64 - 2, 2**64 + 2)]


def scalar_rows(scalar, *args, n_from, n_to):
    return [scalar(*args, n) for n in range(n_from, n_to + 1)]


@pytest.mark.parametrize("table, scalar, d_min", REGULAR)
def test_regular_tables_on_grid(table, scalar, d_min):
    for d in range(d_min, 7):
        for n_from, n_to in RUNS:
            assert table(d, n_from, n_to) == scalar_rows(
                scalar, d, n_from=n_from, n_to=n_to), (d, n_from, n_to)


@pytest.mark.parametrize("table, scalar", RECTIFIED)
def test_rectified_tables_on_grid(table, scalar):
    # r = 0, r = d-1, and r >= d (the formal sequences).
    for d in range(1, 7):
        for r in sorted({0, 1, d - 1, d, d + 2}):
            for n_from, n_to in RUNS:
                assert table(d, r, n_from, n_to) == scalar_rows(
                    scalar, d, r, n_from=n_from, n_to=n_to), (d, r, n_from, n_to)


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


@settings(deadline=None)
@given(st.sampled_from(REGULAR), st.integers(0, 14), runs)
def test_regular_tables_property(family, d, run):
    table, scalar, d_min = family
    d = max(d, d_min)
    n_from, rows = run
    n_to = n_from + rows - 1
    assert table(d, n_from, n_to) == scalar_rows(scalar, d, n_from=n_from, n_to=n_to)


@settings(deadline=None)
@given(st.sampled_from(RECTIFIED), st.integers(1, 14), st.integers(0, 17), runs)
def test_rectified_tables_property(family, d, r, run):
    table, scalar = family
    n_from, rows = run
    n_to = n_from + rows - 1
    assert table(d, r, n_from, n_to) == scalar_rows(scalar, d, r, n_from=n_from, n_to=n_to)
