"""Tests for the exact integer combinatorics primitives."""
import itertools
import math
import random

import pytest

from polytopenums.exact import _eulerian_row, binomial, eulerian, gbinomial, poly_mul


def falling_factorial_binomial(r, k):
    """Independent oracle: r(r-1)...(r-k+1) / k!, exact division required."""
    if k < 0:
        return 0
    num = 1
    for t in range(k):
        num *= r - t
    quotient, rem = divmod(num, math.factorial(k))
    assert rem == 0
    return quotient


def count_descents(perm):
    return sum(1 for a, b in zip(perm, perm[1:]) if a > b)


def brute_eulerian(d, i):
    """Independent oracle: count permutations of {1..d} with exactly i descents."""
    return sum(
        1 for perm in itertools.permutations(range(d)) if count_descents(perm) == i
    )


def brute_gbinomial(n, m, s):
    """Independent oracle: count n-tuples over {0..s-1} summing to m."""
    return sum(1 for t in itertools.product(range(s), repeat=n) if sum(t) == m)


class TestBinomial:
    def test_examples(self):
        assert binomial(5, 2) == 10
        assert binomial(4, -1) == 0
        assert binomial(-1, 2) == 1  # (-1)(-2)/2!

    @pytest.mark.parametrize("r", range(-8, 13))
    @pytest.mark.parametrize("k", range(-2, 10))
    def test_matches_falling_factorial(self, r, k):
        assert binomial(r, k) == falling_factorial_binomial(r, k)

    def test_pascal_and_symmetry(self):
        for r in range(26):
            for k in range(r + 1):
                assert binomial(r, k) == binomial(r, r - k)
                assert binomial(r, k) == binomial(r - 1, k) + binomial(r - 1, k - 1)

    def test_negated_upper_index(self):
        for r in range(-10, 11):
            for k in range(9):
                assert binomial(r, k) == (-1) ** k * binomial(k - r - 1, k)

    def test_zero_above_diagonal(self):
        assert binomial(3, 5) == 0
        assert binomial(0, 1) == 0

    def test_huge_values_exact(self):
        n = 10**5
        assert binomial(n + 11, 12) == math.comb(n + 11, 12)
        assert binomial(400, 200) == math.comb(400, 200)


class TestGBinomial:
    def test_examples(self):
        assert gbinomial(3, 2, 2) == 3
        assert gbinomial(4, 1, 1) == 0
        assert gbinomial(2, 2, 3) == 3

    def test_matches_enumeration(self):
        for n in range(6):
            for s in range(1, 5):
                for m in range(-1, n * (s - 1) + 2):
                    assert gbinomial(n, m, s) == brute_gbinomial(n, m, s), (n, m, s)

    def test_order_two_is_binomial(self):
        for n in range(31):
            for m in range(n + 1):
                assert gbinomial(n, m, 2) == binomial(n, m)

    def test_row_sum_and_symmetry(self):
        # The last case lies far beyond what enumeration can reach.
        for n, s in [(n, s) for n in range(9) for s in range(1, 5)] + [(60, 7)]:
            width = n * (s - 1)
            assert sum(gbinomial(n, m, s) for m in range(width + 1)) == s**n
            for m in range(width + 1):
                assert gbinomial(n, m, s) == gbinomial(n, width - m, s)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            gbinomial(3, 1, 0)
        with pytest.raises(ValueError):
            gbinomial(-1, 0, 2)


class TestEulerian:
    def test_examples(self):
        assert eulerian(3, 1) == 4
        assert eulerian(4, 1) == 11
        for d in range(1, 10):
            assert eulerian(d, 0) == 1

    def test_matches_descent_count(self):
        for d in range(8):
            hi = max(d - 1, 0)
            for i in range(-1, hi + 2):
                assert eulerian(d, i) == brute_eulerian(d, i), (d, i)

    def test_row_sums_are_factorials(self):
        for d in range(1, 10):
            assert sum(eulerian(d, i) for i in range(d)) == math.factorial(d)

    def test_deep_row_sums_to_factorial(self):
        row = _eulerian_row(1000)
        assert len(row) == 1000
        assert sum(row) == math.factorial(1000)

    def test_closed_form(self):
        # Alternating-sum closed form, used only as an oracle here.
        for d in range(1, 10):
            for i in range(d):
                expected = sum(
                    (-1) ** k * binomial(d + 1, k) * (i + 1 - k) ** d
                    for k in range(i + 1)
                )
                assert eulerian(d, i) == expected

    def test_rejects_negative_dimension(self):
        with pytest.raises(ValueError):
            eulerian(-1, 0)


def schoolbook_mul(p, q):
    """Independent quadratic-time reference for polynomial products."""
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i in range(len(p)):
        for j in range(len(q)):
            out[i + j] += p[i] * q[j]
    while out and out[-1] == 0:
        out.pop()
    return out


class TestPolynomials:
    def test_product_examples(self):
        assert poly_mul([1, -1], [1, 1]) == [1, 0, -1]
        assert poly_mul([1, 2], []) == []
        # The degree-3 window of (1-x)^3 (1 + 6x + 15x^2 + 28x^3) collapses
        # to 1 + 3x: this is the d=2, a=2, b=0 shift decomposition.
        assert poly_mul([1, -3, 3, -1], [1, 6, 15, 28])[:4] == [1, 3, 0, 0]

    def test_trim_canonical_form(self):
        assert poly_mul([0, 1, 0, 0], [1]) == [0, 1]
        assert poly_mul([0, 0], [1, 2]) == []

    def test_matches_schoolbook_reference(self):
        rng = random.Random(20240811)
        for _ in range(200):
            p = [rng.randrange(-9, 10) for _ in range(rng.randrange(0, 7))]
            q = [rng.randrange(-9, 10) for _ in range(rng.randrange(0, 7))]
            assert poly_mul(p, q) == schoolbook_mul(p, q)
