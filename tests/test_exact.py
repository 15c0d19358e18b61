"""Tests for the exact integer combinatorics primitives."""
import itertools
import math
from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from polytopenums import exact
from polytopenums.exact import (_dense, _eulerian_row, _gbinomial_rows, binomial, eulerian,
                                gbinomial)


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


def unreflected_gbinomial(n, m, s):
    """The alternating sum of (1-x**s)**n / (1-x)**n at m as written: no row symmetry used."""
    return sum((-1) ** k * math.comb(n, k) * math.comb(m - s * k + n - 1, n - 1)
               for k in range(min(n, m // s) + 1))


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

    def test_row_sum(self):
        # The last case lies far beyond what enumeration can reach.
        for n, s in [(n, s) for n in range(9) for s in range(1, 5)] + [(60, 7)]:
            width = n * (s - 1)
            assert sum(gbinomial(n, m, s) for m in range(width + 1)) == s**n

    def test_reflected_rows_match_the_unreflected_sum(self):
        # gbinomial reads the upper half of a row from its mirror image, so
        # symmetry holds by construction; every entry, both halves and the
        # middle, is held to the sum taken at m itself.
        for n, s in [(n, s) for n in range(1, 41) for s in range(1, 9)] + [(60, 7)]:
            for m in range(n * (s - 1) + 1):
                assert gbinomial(n, m, s) == unreflected_gbinomial(n, m, s), (n, m, s)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            gbinomial(3, 1, 0)
        with pytest.raises(ValueError):
            gbinomial(-1, 0, 2)


@st.composite
def gbinomial_rows(draw):
    """(n, stretches, width): n <= 40, a few stretches (s, b), width 0..n+3.

    s <= 9, or the long narrow s = 250 and 300 of decompose --shift; b from
    -3 to past n(s-1)+3, so rows start before m = 0 and end past the row."""
    n = draw(st.integers(0, 40))
    stretch = st.one_of(st.integers(1, 9), st.sampled_from((250, 300))).flatmap(
        lambda s: st.tuples(st.just(s), st.integers(-3, n * (s - 1) + 4)))
    return n, draw(st.lists(stretch, max_size=5)), draw(st.integers(0, n + 3))


class TestGBinomials:
    @pytest.mark.parametrize("forced", [None, True, False])
    @given(batch=gbinomial_rows())
    @example(batch=(0, [(1, 0), (5, 0), (3, 1)], 3))  # n = 0: only m = 0 is in range
    @example(batch=(7, [], 4))  # empty batches build no column unless forced
    @example(batch=(0, [], 0))
    @example(batch=(7, [(3, 0)], 0))  # width 0: empty rows
    # s = 9 at n = 40: the row's ends m = 0 and 320, its middle 160, and
    # m = -1 and 321 just outside; s = 2 runs on past the row's end.
    @example(batch=(40, [(9, 4), (9, 3), (9, 2), (9, 1), (2, 0)], 43))
    # A row crossing m = n(s-1)/2: at n(s-1) = 20 onto it (m = 10), at
    # n(s-1) = 21 across it (m = 10, then 14); the width ends inside the
    # first run, inside the second, and past the row.
    @example(batch=(10, [(3, -1), (3, 2)], 2))
    @example(batch=(10, [(3, -1), (3, 2)], 6))
    @example(batch=(10, [(3, -1), (3, 2)], 13))
    @example(batch=(7, [(4, -2), (4, -3)], 2))
    @example(batch=(7, [(4, -2), (4, -3)], 4))
    @example(batch=(7, [(4, -2), (4, -3)], 10))
    # decompose --shift's long narrow columns: ends, middle and one read past
    # the row.  Under the rule itself (forced None) these few reads take each
    # term from math.comb.  With every
    # third m read as well the terms outnumber the entries to t = 1044: at
    # n = 7, s = 300 those stay below 2**64, so each term is still one
    # math.comb; n = 9, s = 250 builds t = 0..1120, whose top passes 2**64
    # at t = 960, by the exact step.
    @example(batch=(7, [(300, 0), (300, 7), (300, 154), (300, 6)], 8))
    @example(batch=(9, [(250, 0), (250, 9), (250, 130), (250, 1)], 10))
    @example(batch=(7, [(300, -m) for m in range(0, 1047, 3)] + [(300, -7 * 299 - 1)], 1))
    @example(batch=(9, [(250, -m) for m in range(0, 1121, 3)] + [(250, -9 * 249), (250, 1)], 1))
    def test_rows_match_the_unreflected_sum_entry_by_entry(self, forced, batch):
        n, stretches, width = batch
        # The unreflected sum is 0 past the row's end; at n = 0 its C(., -1)
        # is undefined, and the count of empty tuples stands in.
        want = [[unreflected_gbinomial(n, s * j - b, s) if n else brute_gbinomial(n, s * j - b, s)
                 for j in range(width)] for s, b in stretches]
        # Each read in its row is taken at the nearer of m and n(s-1) - m,
        # with min(n, m//s) + 1 terms; the batch's column runs to the largest.
        near = [(s, min(m, n * (s - 1) - m)) for s, b in stretches
                for m in range(-b, s * width - b, s) if 0 <= m <= n * (s - 1)]
        length = max([0, *(m for _, m in near)]) + 2
        terms = sum(min(n, m // s) + 1 for s, m in near)
        rule, column, asked, decided, built = exact._dense, exact._column, [], [], []

        def dense(d, stop, counts):
            asked.append((d, stop, sum(counts)))
            decided.append(rule(*asked[-1][:2], [asked[-1][2]]) if forced is None else forced)
            return decided[-1]

        with mock.patch.object(exact, "_dense", dense), mock.patch.object(
                exact, "_column", lambda *args: built.append(args) or column(*args)):
            assert _gbinomial_rows(n, stretches, width) == want
        # One decision per batch of order n >= 1, on all its terms, and one
        # column run to the largest near read exactly when it says dense.
        assert asked == ([(n - 1, length, terms)] if n else [])
        assert built == [(n - 1, 1, length)] * decided.count(True)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="order must be a positive integer, got s=0"):
            _gbinomial_rows(3, [(2, -1), (0, -1)], 1)
        with pytest.raises(ValueError, match="upper argument must be nonnegative, got n=-1"):
            _gbinomial_rows(-1, [(2, 0)], 1)

    def test_column_rejects_an_inexact_step(self, monkeypatch):
        # Past 2**64 the column's steps divide exactly; a remainder injected
        # at the step into k = 4 must raise rather than be dropped.  The rows
        # of order 26 at n = 33, m = 0..415, need the column C(t+32, 32) up to
        # t = 412, far past 2**64, and sum more terms than it has entries, so
        # the batch builds it, by the step path.
        monkeypatch.setattr(exact, "divmod", lambda x, y: (x // y, x % y + (y == 3)),
                            raising=False)
        with pytest.raises(ArithmeticError, match="inexact simplex column step at d=32 k=4"):
            _gbinomial_rows(33, [(26, -m) for m in range(26)], 16)


class TestColumn:
    @pytest.mark.parametrize("d", [10, 20, 32])
    def test_math_comb_until_the_top_entry_passes_2_to_the_64(self, d, monkeypatch):
        # A run whose top entry C(stop+d-2, d) is below 2**64 takes every
        # entry from math.comb; one entry further, it steps, by divmod.
        stop = next(k for k in itertools.count(2) if math.comb(k + d - 1, d) >= 2**64)
        steps = []
        monkeypatch.setattr(exact, "divmod", lambda x, y: steps.append(y) or (x // y, x % y),
                            raising=False)
        want = [math.comb(k + d - 1, d) for k in range(1, stop + 1)]
        assert exact._column(d, 1, stop) == want[:-1]
        assert steps == []
        assert exact._column(d, 1, stop + 1) == want
        assert steps == list(range(1, stop))


class TestDenseRule:
    def test_a_run_wins_only_past_2_to_the_64(self):
        # stop reads pass the cost test at every d >= 1, so the rule is the
        # 2**64 test on the run's top entry, C(stop+d-2, d), alone.
        for d in range(1, 70):
            for stop in range(2, 160):
                past = math.comb(stop + d - 2, d) >= 2**64
                assert _dense(d, stop, [stop]) == past, (d, stop)
        assert not _dense(0, 10**6, [10**9])  # the point's column of ones

    def test_reads_win_until_eight_stop_is_reads_times_d_plus_21(self):
        # d = 40, stop = 400, past 2**64: dense from 8 * 400 / 61 reads on,
        # with the counts summed across the batch and read only that far.
        assert (_dense(40, 400, [53]), _dense(40, 400, [52])) == (True, False)
        # A tie goes to the run, one short of it to the reads:
        # 8 * 400 = 50 * (43 + 21) and 8 * 449 = 57 * (42 + 21) + 1.
        assert (_dense(43, 400, [50]), _dense(43, 400, [49])) == (True, False)
        assert (_dense(42, 449, [58]), _dense(42, 449, [57])) == (True, False)
        counts = iter([20, 20, 13, 1])
        assert _dense(40, 400, counts)
        assert list(counts) == [1]
        assert not _dense(40, 400, [])


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

    def test_truncated_row_is_the_full_rows_prefix(self):
        for d in range(61):
            full = _eulerian_row(d)
            for width in range(d + 3):
                assert _eulerian_row(d, width) == full[:width], (d, width)

    def test_entry_is_the_full_rows_entry(self):
        for d in range(61):
            full = _eulerian_row(d)
            for i in range(-2, d + 3):
                assert eulerian(d, i) == (full[i] if 0 <= i < len(full) else 0), (d, i)
        # E(d, 1) = 2**d - d - 1, read from a two-entry prefix of each row.
        assert eulerian(2000, 1) == 2**2000 - 2001
        with pytest.raises(ValueError):
            eulerian(-1, -2)

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

