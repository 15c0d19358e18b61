"""Tests for the identity verification suite."""
import pytest

from polytopenums.checks import identity_checks
from polytopenums.exact import binomial
from polytopenums.identities import (
    GRID_KEYS,
    REGISTRY,
    check_alt_vandermonde,
    check_face_interior_sum,
    check_interior_sum,
    check_pascal_alternating_row,
    check_subset_convolution,
    check_vertex_star_sum,
    default_grid,
    parse_grid,
)


class TestAltVandermonde:
    def test_examples(self):
        assert (check_alt_vandermonde(2, 5, 2).lhs, check_alt_vandermonde(2, 5, 2).rhs) == (3, 3)
        assert (check_alt_vandermonde(1, 1, 1).lhs, check_alt_vandermonde(1, 1, 1).rhs) == (0, 0)
        check = check_alt_vandermonde(3, 7, 4)
        assert check.lhs == check.rhs == 1

    def test_holds_on_grid(self):
        for b in range(1, 13):
            for c in range(b, 13):
                for n in range(1, 13):
                    assert check_alt_vandermonde(b, c, n).ok, (b, c, n)


class TestInteriorSum:
    def test_examples(self):
        check = check_interior_sum(3, 0, 0, 5)
        assert check.lhs == check.rhs == 5
        # Dimension bottoms out below zero here, so both sides vanish.
        check = check_interior_sum(2, 1, 0, 4)
        assert check.lhs == check.rhs == 0
        check = check_interior_sum(4, 1, 2, 6)
        assert check.lhs == check.rhs == 20

    def test_holds_on_grid(self):
        for d in range(1, 9):
            for k in range(d):
                for j in range(5):
                    for n in range(1, 13):
                        assert check_interior_sum(d, k, j, n).ok, (d, k, j, n)


class TestCensusSums:
    def test_face_interior_examples(self):
        check = check_face_interior_sum(1, 3, 2)
        assert check.lhs == check.rhs == 6
        check = check_face_interior_sum(0, 2, 5)
        assert check.lhs == check.rhs == 15
        assert check_face_interior_sum(2, 4, 3).ok

    def test_vertex_star_examples(self):
        check = check_vertex_star_sum(1, 3, 2)
        assert check.lhs == check.rhs == 1
        check = check_vertex_star_sum(0, 3, 4)
        assert check.lhs == check.rhs == 10
        assert check_vertex_star_sum(2, 5, 3).ok

    def test_face_interior_holds_on_grid(self):
        for r in range(5):
            for d in range(1, 8):
                for n in range(1, 11):
                    assert check_face_interior_sum(r, d, n).ok, (r, d, n)

    def test_vertex_star_holds_on_grid(self):
        for r in range(5):
            for d in range(1, 8):
                for n in range(2, 11):
                    assert check_vertex_star_sum(r, d, n).ok, (r, d, n)


class TestClosedSums:
    def test_subset_convolution_examples(self):
        check = check_subset_convolution(4, 2)
        assert check.lhs == check.rhs == 10
        # Discriminates the correct right side C(d+1, r+1) from the
        # near-miss C(d+1, r), which would give 5 here.
        check = check_subset_convolution(4, 1)
        assert check.lhs == check.rhs == 10
        assert binomial(5, 1) != check.lhs
        for d in range(1, 10):
            check = check_subset_convolution(d, 0)
            assert check.lhs == check.rhs == d + 1

    def test_subset_convolution_holds_on_grid(self):
        for d in range(1, 13):
            for r in range(d + 1):
                assert check_subset_convolution(d, r).ok, (d, r)

    def test_pascal_alternating_row(self):
        for r in (0, 3, 6):
            check = check_pascal_alternating_row(r)
            assert check.lhs == check.rhs == 1
        for r in range(21):
            assert check_pascal_alternating_row(r).ok


class TestSuiteRunner:
    def test_default_grid_is_all_green(self):
        records = list(identity_checks(default_grid()))
        assert len(records) > 3000
        assert [check.describe() for check in records if not check.ok] == []
        assert {check.identity for check in records} == set(REGISTRY)

    def test_empty_grid(self):
        assert list(identity_checks({})) == []

    def test_single_point_grid(self):
        grid = {"alt-vandermonde": {"b": [2], "c": [5], "n": [2]}}
        assert [check.ok for check in identity_checks(grid)] == [True]

    def test_describe_line(self):
        check = check_alt_vandermonde(2, 5, 2)
        assert check.describe() == "alt-vandermonde [b=2 c=5 n=2] lhs=3 rhs=3"

    def test_parse_grid_roundtrip(self):
        grid = parse_grid(
            "[meta]\nversion = 1\n\n[pascal-alternating-row]\nr = 0..4  # short run\n"
        )
        assert grid == {"pascal-alternating-row": {"r": range(0, 5)}}
        assert [check.ok for check in identity_checks(grid)] == [True] * 5

    def test_parse_grid_rejects_unknown_section(self):
        with pytest.raises(ValueError):
            parse_grid("[no-such-identity]\nr = 1..2\n")

    def test_grid_keys_are_the_keys_each_identity_reads(self):
        class Recording(dict):
            def __getitem__(self, key):
                self.read.add(key)
                return super().__getitem__(key)

        assert list(GRID_KEYS) == list(REGISTRY)
        for name, points in REGISTRY.items():
            section = Recording((key, range(1, 3)) for key in GRID_KEYS[name])
            section.read = set()
            assert list(points(section)), name
            assert section.read == set(GRID_KEYS[name]), name

    def test_parse_grid_rejects_section_missing_a_key(self):
        with pytest.raises(ValueError, match="'alt-vandermonde' is missing key.s. n"):
            parse_grid("[alt-vandermonde]\nb = 1..2\nc = 1..2\nnn = 1..2\n")

    def test_parse_grid_rejects_unknown_key(self):
        with pytest.raises(ValueError, match="unknown key.s. extra; it takes b, c, n"):
            parse_grid("[alt-vandermonde]\nb = 1..2\nc = 1..2\nn = 1..2\nextra = 1..2\n")

    @pytest.mark.parametrize("text", [
        "r = 1..2\n",
        "[pascal-alternating-row]\nr = 1..2\n[pascal-alternating-row]\nr = 1..2\n",
        "[pascal-alternating-row]\nr\n",
    ], ids=["no-section-header", "duplicate-section", "key-without-value"])
    def test_parse_grid_rejects_unreadable_text(self, text):
        with pytest.raises(ValueError):
            parse_grid(text)

    def test_parse_grid_rejects_empty_range(self):
        with pytest.raises(ValueError, match="empty range '5..2'"):
            parse_grid("[pascal-alternating-row]\nr = 5..2\n")

    @pytest.mark.parametrize("section", [
        "[pascal-alternating-row]\nr = -2..3\n",
        "[alt-vandermonde]\nb = 1..2\nc = 1..2\nn = -1\n",
        "[subset-convolution]\nd = -3..-1\nr = 0..2\n",
    ], ids=["pascal-alternating-row", "alt-vandermonde", "subset-convolution"])
    def test_parse_grid_rejects_negative_bound(self, section):
        # Below 0 the identities do not hold; a grid reaching there would
        # report false failures.
        with pytest.raises(ValueError, match="negative bound in '-"):
            parse_grid(section)

    def test_default_grid_matches_shipped_ranges(self):
        grid = default_grid()
        assert grid["alt-vandermonde"] == {
            "b": range(1, 13),
            "c": range(1, 13),
            "n": range(1, 13),
        }
        assert grid["face-interior-sum"]["n"] == range(1, 11)
        assert grid["vertex-star-sum"]["n"] == range(2, 11)
        assert grid["subset-convolution"]["d"] == range(1, 13)
        assert grid["pascal-alternating-row"]["r"] == range(0, 21)
        assert "meta" not in grid
        assert {name: tuple(section) for name, section in grid.items()} == GRID_KEYS
