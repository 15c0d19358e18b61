"""Tests for rectified-simplex sequences and their decompositions."""
import collections
import itertools
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polytopenums import rectified, regular
from polytopenums.exact import binomial
from polytopenums.rectified import (
    recombine,
    rectified_decomposition,
    rectified_decomposition_gbinom,
    rectified_simplex_interior,
    rectified_simplex_number,
    shift_decomposition,
    shift_decomposition_gbinom,
)
from polytopenums.regular import cross_polytope_number, simplex_number


def naive_shift_window(d, a, b):
    """The shift double sum by its definition: one binomial pair per (i, j), i over 0..j.

    Every term with i > d+1 has C(d+1, i) = 0 and is left out, so index j
    costs at most d+2 terms; the window still runs to index d+a+b.
    """
    return [
        sum((-1) ** i * binomial(d + 1, i) * binomial(d + a * (j - i) - b, a * (j - i) - b)
            for i in range(min(j, d + 1) + 1))
        for j in range(d + a + b + 1)
    ]


class TestRectifiedValues:
    def test_examples(self):
        assert rectified_simplex_number(3, 1, 2) == 6  # octahedron vertices
        assert rectified_simplex_number(2, 1, 4) == 10  # rectified triangle = triangle
        for d in range(1, 9):
            for r in range(d):
                assert rectified_simplex_number(d, r, 1) == 1

    def test_interior_examples(self):
        assert rectified_simplex_interior(3, 1, 3) == 1  # single central point
        assert rectified_simplex_interior(3, 1, 4) == 6

    def test_zero_rectification_is_simplex(self):
        for d in range(1, 9):
            for n in range(1, 61):
                assert rectified_simplex_number(d, 0, n) == simplex_number(d, n)

    def test_full_rectification_is_dual_simplex(self):
        for d in range(2, 9):
            for n in range(1, 61):
                assert rectified_simplex_number(d, d - 1, n) == simplex_number(d, n)

    def test_octahedron_bridge(self):
        for n in range(1, 201):
            assert rectified_simplex_number(3, 1, n) == cross_polytope_number(3, n)

    def test_vertex_counts(self):
        # Index 2 arrays consist of the vertices: the (r+1)-subsets.
        for d in range(1, 11):
            for r in range(d):
                assert rectified_simplex_number(d, r, 2) == binomial(d + 1, r + 1)

    def test_nonpositive_index_is_zero(self):
        assert rectified_simplex_number(3, 1, 0) == 0
        assert rectified_simplex_interior(3, 1, -2) == 0

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            rectified_simplex_number(0, 0, 3)
        with pytest.raises(ValueError):
            rectified_simplex_interior(2, -1, 3)


class TestDegenerateFamilies:
    # The formulas stay defined for d <= r as formal sequences.  At d == r
    # the value is 1 and the interior 0 at n = 1, then (-1)**r.  At
    # 0 < d < r the value is 1 and the interior (-1)**(d+1) at n = 1, and
    # both are 0 from n = 2 on.

    def test_constant_one_family(self):
        for r in range(1, 9):
            for n in range(1, 41):
                assert rectified_simplex_number(r, r, n) == 1

    def test_interior_sign_family(self):
        for r in range(1, 9):
            assert rectified_simplex_interior(r, r, 1) == 0
            for n in range(2, 41):
                assert rectified_simplex_interior(r, r, n) == (-1) ** r

    def test_interior_vanishes_below_rectification(self):
        for r in range(2, 9):
            for d in range(1, r):
                for n in range(2, 41):
                    assert rectified_simplex_interior(d, r, n) == 0


class TestShiftDecomposition:
    def test_examples(self):
        assert shift_decomposition(1, 2, 0) == [1, 1]
        assert shift_decomposition(2, 2, 0) == [1, 3, 0]
        for d in range(1, 7):
            assert shift_decomposition(d, 1, 0) == [1] + [0] * d

    def test_gf_examples(self):
        assert shift_decomposition_gbinom(1, 2, 0) == [1, 1]
        assert shift_decomposition_gbinom(4, 2, 0) == [1, 10, 5, 0, 0]
        assert shift_decomposition_gbinom(2, 1, 1) == [0, 1, 0]

    def test_gbinom_route_matches_a_brute_count(self):
        # c[j] counts the vectors in {0..a-1}**(d+1) with sum a*j - b: a
        # reference that does not start from the alternating sum.  Past the
        # vector's end every count is 0.
        for d in range(1, 5):
            for a in range(1, 5):
                sums = collections.Counter(map(sum, itertools.product(range(a), repeat=d + 1)))
                for b in range(9):
                    coeffs = shift_decomposition_gbinom(d, a, b)
                    counts = [sums[a * j - b] for j in range(len(coeffs) + d + b + 2)]
                    assert coeffs == counts[:len(coeffs)], (d, a, b)
                    assert not any(counts[len(coeffs):]), (d, a, b)

    def test_routes_agree(self):
        for d in range(1, 7):
            for a in range(1, 6):
                for b in range(6):
                    assert shift_decomposition(d, a, b) == shift_decomposition_gbinom(d, a, b)

    @pytest.mark.parametrize("d, a, b", [(32, 305, 205), (6, 300, 200)])
    def test_routes_agree_at_decompose_large_corners(self, d, a, b):
        assert shift_decomposition(d, a, b) == shift_decomposition_gbinom(d, a, b)

    def test_matches_the_naive_double_sum(self):
        # Offsets past d included: there the support grows past index d.
        for d in range(1, 7):
            for a in range(1, 7):
                for b in range(13):
                    window = naive_shift_window(d, a, b)
                    coeffs = shift_decomposition(d, a, b)
                    assert coeffs == window[:len(coeffs)], (d, a, b)
                    assert not any(window[len(coeffs):]), (d, a, b)

    @settings(max_examples=25)  # the literal window takes up to 0.08 s an example
    @given(st.integers(1, 32), st.integers(1, 305), st.integers(0, 205))
    @example(32, 305, 205)  # decompose-large's corner: coefficients past 256 bits
    @example(32, 1, 205)  # the support furthest past index d
    def test_matches_the_naive_double_sum_past_64_bits(self, d, a, b):
        # decompose-large's range, held to the double sum written out rather
        # than to the gbinomial route, so a fault here shows even when that
        # route carries the same fault.
        window = naive_shift_window(d, a, b)
        coeffs = shift_decomposition(d, a, b)
        assert coeffs == window[:len(coeffs)]
        assert not any(window[len(coeffs):])

    def test_tail_past_the_support_is_still_checked(self, monkeypatch):
        # (2, 2, 5) has its last coefficient, at the true bound 4, nonzero.
        # Claiming a bound one short must raise: the coefficients past the
        # support are computed, so the cap on i is no cap on j.
        assert shift_decomposition(2, 2, 5)[-1] != 0
        true_bound = rectified._support_bound
        monkeypatch.setattr(rectified, "_support_bound", lambda d, a, b: true_bound(d, a, b) - 1)
        with pytest.raises(ArithmeticError):
            shift_decomposition(2, 2, 5)

    @pytest.mark.parametrize("d, a, b", [(2, 2, 5), (3, 300, 0), (6, 7, 30), (12, 10**5, 10**5),
                                         (24, 5, 30)])
    def test_tail_window_is_checked_at_both_ends(self, monkeypatch, d, a, b):
        # The route reads the column only to the d+2 coefficients past the
        # support.  One unit at the first of them, or at the last read,
        # must raise.  Adding C(k - t + d, d) from k = t on puts that unit at
        # coefficient t alone.  Only at d = 24 do the reads pass 2**64 and
        # come dense, as slices of one column run.
        runs = int(d == 24)
        keep = len(shift_decomposition(d, a, b))
        reads, column = rectified._reads, regular._column
        asked, built = [], []
        monkeypatch.setattr(rectified, "_reads", lambda d, terms, n_from, n_to: asked.append(
            n_to) or reads(d, terms, n_from, n_to))
        monkeypatch.setattr(regular, "_column", lambda *args: built.append(args) or column(*args))
        shift_decomposition(d, a, b)
        assert (asked, len(built)) == ([keep + d + 1], runs)
        for t in (keep, keep + d + 1):
            monkeypatch.setattr(rectified, "_reads", lambda d, terms, n_from, n_to, t=t: [
                v + (math.comb(k - t + d, d) if k >= t else 0)
                for k, v in enumerate(reads(d, terms, n_from, n_to), n_from)])
            message = rf"a={a} b={b} extend past index {keep - 1}: \[\({t}, 1\)\]$"
            with pytest.raises(ArithmeticError, match=message):
                shift_decomposition(d, a, b)

    def test_support_is_d_when_offset_small(self):
        for d in range(1, 7):
            for a in range(1, 6):
                for b in range(d + 1):
                    assert len(shift_decomposition(d, a, b)) == d + 1

    def test_support_extends_when_offset_large(self):
        # With b > d the vector genuinely reaches past index d: the plain
        # two-step shift of the line sequence is the simplest witness.
        assert shift_decomposition(1, 1, 2) == [0, 0, 1]
        assert shift_decomposition(1, 2, 5) == [0, 0, 0, 2]
        assert shift_decomposition(2, 2, 5) == [0, 0, 0, 3, 1]
        for d in range(1, 7):
            for a in range(1, 6):
                for b in range(d + 1, 6):
                    coeffs = shift_decomposition(d, a, b)
                    assert len(coeffs) == d + 1 + -((d - b) // a)
                    assert coeffs == shift_decomposition_gbinom(d, a, b)

    def test_identity_examples(self):
        # simplex_number(d, a*n - (a-1) - b) against its recombined vector.
        assert (simplex_number(2, 5), recombine(shift_decomposition(2, 2, 0), 2, 3)) == (15, 15)
        assert (simplex_number(1, 3), recombine(shift_decomposition(1, 2, 0), 1, 2)) == (3, 3)
        assert (simplex_number(3, 7), recombine(shift_decomposition(3, 1, 0), 3, 7)) == (84, 84)

    def test_offset_reduction(self):
        # For b >= a the decomposition at (a, b) evaluated at n matches the
        # decomposition at (a, b-a) evaluated at n-1.
        for d in range(1, 6):
            for a in range(1, 5):
                for b in range(a, 6):
                    big = shift_decomposition(d, a, b)
                    small = shift_decomposition(d, a, b - a)
                    for n in range(1, 21):
                        assert recombine(big, d, n) == recombine(small, d, n - 1), (d, a, b, n)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            shift_decomposition(0, 1, 0)
        with pytest.raises(ValueError):
            shift_decomposition(2, 0, 0)
        with pytest.raises(ValueError):
            shift_decomposition_gbinom(2, 1, -1)


class TestRectifiedDecomposition:
    def test_examples(self):
        assert rectified_decomposition(3, 1) == [1, 2, 1]
        assert rectified_decomposition(2, 1) == [1, 0]
        assert rectified_decomposition(4, 1) == [1, 5, 5, 0]

    def test_gbinom_examples(self):
        assert rectified_decomposition_gbinom(3, 1) == [1, 2, 1]
        assert rectified_decomposition_gbinom(2, 1) == [1, 0]
        for d in range(1, 9):
            assert rectified_decomposition_gbinom(d, 0) == [1] + [0] * (d - 1)

    def test_octahedron_matches_cross_polytope_weights(self):
        # The octahedron is the 3-cross-polytope, whose decomposition
        # weights are the binomial row C(2, i).
        assert rectified_decomposition(3, 1) == [binomial(2, i) for i in range(3)]

    def test_routes_agree_with_valid_coefficients(self):
        for d in range(1, 9):
            for r in range(d):
                via_shifts = rectified_decomposition(d, r)
                gbinom = rectified_decomposition_gbinom(d, r)
                assert via_shifts == gbinom, (d, r)
                assert via_shifts[0] == 1
                assert all(c >= 0 for c in via_shifts)

    def test_weighted_sum_of_stretch_shift_vectors(self):
        # The identity both routes rest on: the rectified vector is the
        # w-weighted sum of its stretches' shift vectors, padded to d+r+2,
        # and that sum is 0 from index d on.
        for d in range(1, 13):
            for r in range(d):
                total = [0] * (d + r + 2)
                for w, a, b in rectified._stretches(d, r):
                    for j, c in enumerate(shift_decomposition(d, a, b)):
                        total[j] += w * c
                assert total[:d] == rectified_decomposition(d, r), (d, r)
                assert not any(total[d:]), (d, r)

    def test_routes_agree_at_large_parameters(self):
        # d = 100 is past every grid; each route is well under a second here.
        assert rectified_decomposition(100, 50) == rectified_decomposition_gbinom(100, 50)

    def test_recombination_examples(self):
        assert recombine(rectified_decomposition_gbinom(4, 1), 4, 3) == 45
        assert recombine(rectified_decomposition_gbinom(3, 1), 3, 4) == 44
        for d in range(1, 9):
            for r in range(d):
                assert recombine(rectified_decomposition_gbinom(d, r), d, 1) == 1

    def test_nonzero_coefficient_at_index_d_is_rejected(self, monkeypatch):
        # One unit too many, and one too few, at index d of the coefficient
        # vector, from each route's own reads: a coefficient past the
        # support is an error whatever its sign.  Adding C(k, d), the series
        # of x**d / (1-x)**(d+1), to the shift-composition route's summed
        # column does that after its d+1 difference passes.  At d = 24 that
        # column's reads pass 2**64 and are slices of one run.
        reads, column = rectified._reads, regular._column
        gbinomial_rows = rectified._gbinomial_rows
        for (d, r, runs), unit in itertools.product([(3, 1, 0), (24, 8, 1)], (1, -1)):
            built = []
            monkeypatch.setattr(regular, "_column",
                                lambda *args: built.append(args) or column(*args))
            monkeypatch.setattr(rectified, "_reads", lambda d, terms, n_from, n_to: [
                v + unit * math.comb(k, d)
                for k, v in enumerate(reads(d, terms, n_from, n_to), n_from)])
            message = (rf"rectified coefficients for d={d} r={r} extend past index {d - 1}: "
                       rf"\[\({d}, {unit}\)\]")
            with pytest.raises(ArithmeticError, match=message):
                rectified_decomposition(d, r)
            assert len(built) == runs
            monkeypatch.undo()
            # On the gbinomial route, coefficient d of stretch i = r, whose
            # weight is 1, is gbinomial(d+1, (r+1)d, r+1): row r, column d of
            # the route's one batch of rows.
            monkeypatch.setattr(rectified, "_gbinomial_rows", lambda n, stretches, width: [
                [v + unit * (i == r and j == d) for j, v in enumerate(row)]
                for i, row in enumerate(gbinomial_rows(n, stretches, width))])
            with pytest.raises(ArithmeticError, match=message):
                rectified_decomposition_gbinom(d, r)
            monkeypatch.undo()

    def test_tail_is_checked_out_to_index_d_plus_r_plus_1(self, monkeypatch):
        # Each stretch's own shift vector reaches index d+r+1, so the summed
        # expansion must read and check that far.  Adding C(k - t + d, d)
        # from k = t on puts one unit at coefficient t alone.
        reads = rectified._reads
        for d, r in [(3, 1), (5, 2), (6, 5)]:
            for t in range(d, d + r + 2):
                monkeypatch.setattr(rectified, "_reads", lambda d, terms, n_from, n_to, t=t: [
                    v + (math.comb(k - t + d, d) if k >= t else 0)
                    for k, v in enumerate(reads(d, terms, n_from, n_to), n_from)])
                message = rf"d={d} r={r} extend past index {d - 1}: \[\({t}, 1\)\]"
                with pytest.raises(ArithmeticError, match=message):
                    rectified_decomposition(d, r)
                monkeypatch.undo()

    def test_rejects_degenerate_parameters(self):
        with pytest.raises(ValueError):
            rectified_decomposition(3, 3)
        with pytest.raises(ValueError):
            rectified_decomposition_gbinom(2, 5)
