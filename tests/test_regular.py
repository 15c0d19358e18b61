"""Tests for the regular-polytope closed-form sequences."""
import itertools

import pytest

from polytopenums.regular import (
    cross_polytope_number,
    cross_polytope_table,
    facet_cut,
    hypercube_number,
    hypercube_table,
    simplex_interior,
    simplex_number,
)


def count_simplex_points(d, n):
    """Independent oracle: multisets of size d over {1..n} (nested simplex arrays)."""
    if n <= 0:
        return 0
    return sum(1 for _ in itertools.combinations_with_replacement(range(n), d))


def count_triangle_interior(n):
    """Independent oracle: grid points i+j <= n-1, i,j >= 0, off all three edges."""
    points = [(i, j) for i in range(n) for j in range(n) if i + j <= n - 1]
    return sum(1 for i, j in points if i > 0 and j > 0 and i + j < n - 1)


class TestSimplex:
    def test_examples(self):
        assert simplex_number(2, 3) == 6
        assert simplex_number(3, 4) == 20
        for d in range(11):
            assert simplex_number(d, 1) == 1

    def test_point_counting_oracle(self):
        for d in range(5):
            for n in range(-1, 9):
                assert simplex_number(d, n) == count_simplex_points(d, n)

    def test_clamped_below_one(self):
        for d in range(6):
            for n in range(-2 * d - 3, 1):
                assert simplex_number(d, n) == 0

    def test_facet_identity(self):
        # Removing one facet from the n-th array leaves the (n-1)-th array.
        for d in range(1, 11):
            for n in range(1, 51):
                assert simplex_number(d, n) - simplex_number(d - 1, n) == simplex_number(d, n - 1)

    def test_rejects_negative_dimension(self):
        with pytest.raises(ValueError):
            simplex_number(-1, 3)


class TestSimplexInterior:
    def test_examples(self):
        assert simplex_interior(2, 5) == 3
        assert simplex_interior(1, 5) == 3
        for d in range(1, 8):
            assert simplex_interior(d, 2) == 0

    def test_triangle_enumeration_oracle(self):
        for n in range(1, 10):
            assert simplex_interior(2, n) == count_triangle_interior(n)

    def test_point_is_its_own_interior(self):
        assert [simplex_interior(0, n) for n in range(-1, 4)] == [0, 0, 1, 1, 1]

    def test_consistency_with_facet_cuts(self):
        # d+1 cuts strip the whole exterior; the d = 0, n = 1 corner is the
        # one spot where the point convention (interior 1) takes precedence.
        for d in range(11):
            for n in range(1, 51):
                if (d, n) == (0, 1):
                    continue
                assert simplex_interior(d, n) == simplex_number(d, n - d - 1)


class TestCrossPolytope:
    def test_examples(self):
        assert cross_polytope_number(2, 3) == 9
        assert cross_polytope_number(3, 3) == 19
        for d in range(1, 9):
            assert cross_polytope_number(d, 1) == 1

    def test_squares_and_octahedral_numbers(self):
        for n in range(1, 101):
            assert cross_polytope_number(2, n) == n * n
            octahedral, rem = divmod(n * (2 * n * n + 1), 3)
            assert rem == 0
            assert cross_polytope_number(3, n) == octahedral

    def test_nonpositive_index_is_zero(self):
        for d in range(1, 6):
            assert cross_polytope_number(d, 0) == 0
            assert cross_polytope_number(d, -3) == 0

    def test_rejects_dimension_zero(self):
        with pytest.raises(ValueError):
            cross_polytope_number(0, 3)

    def test_large_dimension_builds_only_the_binomial_prefix(self):
        # Rows up to n = 3 read 3 of the 8000 weights C(7999, j): 1, 2d, 2d**2 + 1.
        assert cross_polytope_table(8000, 1, 3) == [1, 16000, 2 * 8000**2 + 1]


class TestHypercube:
    def test_examples(self):
        assert hypercube_number(3, 3) == 27
        assert hypercube_number(2, 4) == 16
        for d in range(1, 9):
            assert hypercube_number(d, 1) == 1

    def test_powers(self):
        for n in range(1, 101):
            assert hypercube_number(2, n) == n * n
            assert hypercube_number(3, n) == n**3
        for d in range(1, 7):
            for n in range(1, 21):
                assert hypercube_number(d, n) == n**d

    def test_deep_dimension_needs_no_recursion(self):
        # The Eulerian weights are built by a loop, so no recursion limit applies.
        assert hypercube_table(600, 1, 3) == [1, 2**600, 3**600]

    def test_large_dimension_builds_only_the_eulerian_prefix(self):
        # Rows up to n = 10 read the first 10 Eulerian numbers of 2000, not all of them.
        assert hypercube_table(2000, 9, 10) == [9**2000, 10**2000]


class TestFacetCut:
    def test_examples(self):
        assert facet_cut(3, 5, 2) == simplex_number(3, 3) == 10
        for d in range(5):
            for n in range(8):
                assert facet_cut(d, n, 0) == simplex_number(d, n)
        assert facet_cut(2, 4, 4) == 0

    def test_rejects_negative_cuts(self):
        with pytest.raises(ValueError):
            facet_cut(2, 4, -1)


def test_families_strictly_increasing():
    for d in range(1, 7):
        for n in range(1, 50):
            assert simplex_number(d, n + 1) > simplex_number(d, n)
            assert cross_polytope_number(d, n + 1) > cross_polytope_number(d, n)
            assert hypercube_number(d, n + 1) > hypercube_number(d, n)
