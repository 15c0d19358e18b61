"""Tests for the identity verification suite."""
import collections
import itertools
import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polytopenums import checks, cli, identities
from polytopenums.exact import binomial
from polytopenums.oracle import hypersimplex
from polytopenums.identities import (
    REGISTRY,
    IdentityCheck,
    check_alt_vandermonde,
    check_face_interior_sum,
    check_interior_sum,
    check_pascal_alternating_row,
    check_subset_convolution,
    check_vertex_star_sum,
    default_grid,
    identity_checks,
    parse_grid,
)

# The grid file the package shipped before its default ranges moved into
# `REGISTRY`, verbatim: a user's copy of it must still give the default grid.
SHIPPED_GRID = """\
# Default verification grid for the identity suite.
# Ranges are inclusive, written lo..hi.  Constraints tying parameters
# together (c >= b, k < d, r <= d) are applied by the suite runner.

[meta]
version = 1

[alt-vandermonde]
b = 1..12
c = 1..12
n = 1..12

[interior-sum]
# k runs over 0..d-1 for each d.
d = 1..8
j = 0..4
n = 1..12

[face-interior-sum]
r = 0..4
d = 1..7
n = 1..10

[vertex-star-sum]
r = 0..4
d = 1..7
n = 2..10

[subset-convolution]
d = 1..12
r = 0..12

[pascal-alternating-row]
r = 0..20
"""

# Each identity's top per key, past its default grid: every value from 0 up
# to the top holds, and the iterators apply the constraints between keys.
BEYOND_DEFAULT_GRID = {
    "alt-vandermonde": {"b": 40, "c": 40, "n": 40},
    "interior-sum": {"d": 16, "j": 8, "n": 40},
    "face-interior-sum": {"r": 7, "d": 13, "n": 24},
    "vertex-star-sum": {"r": 7, "d": 13, "n": 24},
    "subset-convolution": {"d": 40, "r": 40},
    "pascal-alternating-row": {"r": 200},
}


# The literal per-point sums of the six identities, as the checkers'
# docstrings state them: references independent of the one body each identity
# has in `identities` and of its stores.
def plain(e, n):
    return binomial(n + e - 1, e)


def naive_alt_vandermonde(b, c, n):
    lhs = sum((-1) ** k * binomial(c - k, b - k) * binomial(n, k) for k in range(n + 1))
    return IdentityCheck("alt-vandermonde", (("b", b), ("c", c), ("n", n)), lhs,
                         binomial(c - n, b))


def naive_interior_sum(d, k, j, n):
    # Reads `identities._interior` at each call, so a patched interior reaches
    # this sum as it reaches the iterator's store.
    lhs = sum(binomial(d - 1 - k, m - k) * identities._interior(m - k - 1 + j, n)
              for m in range(d))
    return IdentityCheck("interior-sum", (("d", d), ("k", k), ("j", j), ("n", n)), lhs,
                         plain(d - k + j - 2, n - j))


def rectified(r, d, n):
    # The r-rectified d-simplex value: its alternating stretched-simplex sum.
    return sum((-1) ** (r - i) * binomial(d + 1, r - i) * plain(d, (i + 1) * n - r)
               for i in range(r + 1))


def rectified_interior(k, m, n):
    # The k-rectified m-simplex interior: its alternating stretched-interior sum.
    return sum((-1) ** (k - i) * binomial(m + 1, k - i) * binomial((i + 1) * n + k - 2 * i - 2, m)
               for i in range(k + 1))


def naive_census(identity, multiplicity, back):
    # Interiors of the face classes of the r-rectified d-simplex, the k-rectified
    # m-simplices with k <= r and m - k <= d - r, weighted by multiplicity,
    # against the rectified value `back` before n.
    def check(r, d, n):
        lhs = sum(multiplicity(r, d, k, m) * rectified_interior(k, m, n)
                  for k in range(r + 1) for m in range(k, d - r + k + 1))
        return IdentityCheck(identity, (("r", r), ("d", d), ("n", n)), lhs,
                             rectified(r, d, n - back))
    return check


naive_face_interior_sum = naive_census(
    "face-interior-sum",
    lambda r, d, k, m: binomial(d + 1, r - k) * binomial(d + 1 - r + k, m + 1), 0)
naive_vertex_star_sum = naive_census(
    "vertex-star-sum", lambda r, d, k, m: binomial(r + 1, r - k) * binomial(d - r, m - k), 1)


def naive_subset_convolution(d, r):
    lhs = sum((-1) ** k * binomial(d + 1, r - k) * binomial(d + 1 - r + k, k + 1)
              for k in range(r + 1))
    return IdentityCheck("subset-convolution", (("d", d), ("r", r)), lhs, binomial(d + 1, r + 1))


def naive_pascal_alternating_row(r):
    lhs = sum((-1) ** k * binomial(r + 1, r - k) for k in range(r + 1))
    return IdentityCheck("pascal-alternating-row", (("r", r),), lhs, 1)


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

    def test_one_point_answers_below_c_equal_b(self):
        # The grid iterator keeps c >= b; a one-point call still answers for c < b.
        check = check_alt_vandermonde(3, 1, 2)
        assert check.lhs == check.rhs == -1
        for b in range(9):
            for c in range(b):
                for n in range(9):
                    assert check_alt_vandermonde(b, c, n) == naive_alt_vandermonde(b, c, n)


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

    def test_one_point_answers_at_the_top_k_and_the_lowest_n(self):
        # k = d-1 weighs one interior; at n = 0 and 1 the interiors and the
        # right side read negative upper indices.
        check = check_interior_sum(4, 3, 2, 1)
        assert check.lhs == check.rhs == -1
        check = check_interior_sum(4, 3, 2, 0)
        assert check.lhs == check.rhs == -2
        for d in range(1, 9):
            points = [(d - 1, n) for n in range(13)] + [(k, n) for k in range(d) for n in (0, 1)]
            for k, n in points:
                for j in range(5):
                    assert check_interior_sum(d, k, j, n) == naive_interior_sum(d, k, j, n)


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

    def test_one_point_checkers_are_the_literal_sums(self):
        # The grid iterator keeps r <= d; a one-point subset-convolution still
        # answers past it.
        for d in range(15):
            for r in range(15):
                assert check_subset_convolution(d, r) == naive_subset_convolution(d, r), (d, r)
            assert check_pascal_alternating_row(d) == naive_pascal_alternating_row(d)


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

    def test_check_record_keeps_its_fields_repr_and_verdict(self):
        check = IdentityCheck(identity="f-vector", params=(("polytope", hypersimplex(5, 2)),),
                              lhs=(10, 30), rhs=(10, 31))
        assert repr(check) == ("IdentityCheck(identity='f-vector', params=(('polytope', "
                               "Hypersimplex(m=5, s=2)),), lhs=(10, 30), rhs=(10, 31))")
        assert (check.identity, check.params, check.lhs, check.rhs) == (
            "f-vector", (("polytope", hypersimplex(5, 2)),), (10, 30), (10, 31))
        assert not check.ok and IdentityCheck("x", (), [1], [1]).ok
        assert check.describe() == (
            "f-vector [polytope=Hypersimplex(m=5, s=2)] lhs=(10, 30) rhs=(10, 31)")
        with pytest.raises(AttributeError):
            check.lhs = check.rhs

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

        for name, (keys, points) in REGISTRY.items():
            section = Recording((key, range(1, 3)) for key in keys)
            section.read = set()
            assert list(points(section)), name
            assert section.read == set(keys), name

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
        assert {name: tuple(section) for name, section in grid.items()} == {
            name: tuple(keys) for name, (keys, _) in REGISTRY.items()}

    def test_shipped_grid_file_is_the_default_grid(self, capsys, tmp_path):
        assert parse_grid(SHIPPED_GRID) == default_grid()
        grid = tmp_path / "identity_grid.cfg"
        grid.write_text(SHIPPED_GRID, encoding="utf-8")
        assert cli.main(["verify", "--suite", "identities"]) == 0
        default_out = capsys.readouterr().out
        assert cli.main(["verify", "--suite", "identities", "--grid", str(grid)]) == 0
        assert capsys.readouterr().out == default_out

    def test_beyond_grid_boxes_set_every_key_of_every_identity(self):
        assert {name: tuple(tops) for name, tops in BEYOND_DEFAULT_GRID.items()} == {
            name: tuple(keys) for name, (keys, _) in REGISTRY.items()}

    @settings(max_examples=200)  # about 0.4 s
    @given(st.data())
    def test_identities_hold_beyond_the_default_grid(self, data):
        name = data.draw(st.sampled_from(list(REGISTRY)), label="identity")
        point = {key: [data.draw(st.integers(0, top), label=key)]
                 for key, top in BEYOND_DEFAULT_GRID[name].items()}
        _, points = REGISTRY[name]
        assert [check.describe() for check in identities._records(points(point))
                if not check.ok] == []


# Each grid iterator's records, point by point from the literal sums above, in
# the iterator's order.
POINTS = {
    "alt-vandermonde": lambda g: [naive_alt_vandermonde(b, c, n) for b in g["b"] for c in g["c"]
                                  if c >= b for n in g["n"]],
    "interior-sum": lambda g: [naive_interior_sum(d, k, j, n) for d in g["d"] for k in range(d)
                               for j in g["j"] for n in g["n"]],
    "face-interior-sum": lambda g: [naive_face_interior_sum(r, d, n) for r in g["r"]
                                    for d in g["d"] for n in g["n"]],
    "vertex-star-sum": lambda g: [naive_vertex_star_sum(r, d, n) for r in g["r"]
                                  for d in g["d"] for n in g["n"]],
    "subset-convolution": lambda g: [naive_subset_convolution(d, r) for d in g["d"]
                                     for r in g["r"] if r <= d],
    "pascal-alternating-row": lambda g: [naive_pascal_alternating_row(r) for r in g["r"]],
}


class TestIdentityStores:
    @pytest.mark.parametrize("name", list(POINTS))
    def test_default_grid_records_are_the_point_checkers(self, name):
        grid = default_grid()[name]
        assert list(identities._records(REGISTRY[name][1](grid))) == POINTS[name](grid)

    @settings(max_examples=60)
    @given(st.data())
    def test_drawn_grid_records_are_the_point_checkers(self, data):
        # Ranges as a grid file writes them, lo..hi with 0 <= lo <= hi, from
        # single values to runs past the default grid at any offset.
        name = data.draw(st.sampled_from(list(POINTS)), label="identity")
        grid = {}
        for key, top in BEYOND_DEFAULT_GRID[name].items():
            lo = data.draw(st.integers(0, min(top, 16)), label=f"{key} lo")
            hi = data.draw(st.integers(lo, min(top, lo + 8)), label=f"{key} hi")
            grid[key] = range(lo, hi + 1)
        assert list(identities._records(REGISTRY[name][1](grid))) == POINTS[name](grid)

    def test_one_patched_interior_fails_exactly_the_sums_that_read_it(self, monkeypatch):
        # The interior-sum iterator stores the interiors it reads, but looks
        # up `_interior` when called.  interior(2, 6) is term i = 3 - j of the
        # sum at (d, k, j, 6), whose weight C(d-1-k, i) is nonzero for
        # 0 <= i <= d-1-k: exactly those points fail.
        real = identities._interior
        monkeypatch.setattr(identities, "_interior",
                            lambda e, n: real(e, n) + ((e, n) == (2, 6)))
        grid = default_grid()["interior-sum"]
        records = list(identities._records(REGISTRY["interior-sum"][1](grid)))
        assert records == POINTS["interior-sum"](grid)
        assert {check.params for check in records if not check.ok} == {
            (("d", d), ("k", k), ("j", j), ("n", 6))
            for d in grid["d"] for k in range(d) for j in grid["j"] if 0 <= 3 - j <= d - 1 - k}


class TestCensusStore:
    @settings(max_examples=40)
    @given(st.data())
    def test_grid_records_are_the_point_checkers(self, data):
        # Past the default grid, the iterator's stored interiors and
        # per-(r, d) weights give the records the literal sums give.
        name = data.draw(st.sampled_from(["face-interior-sum", "vertex-star-sum"]),
                         label="identity")
        grid = {key: data.draw(st.lists(st.integers(0, top), min_size=1, max_size=3,
                                        unique=True), label=key)
                for key, top in (("r", 8), ("d", 12), ("n", 30))}
        records = list(identities._records(REGISTRY[name][1](grid)))
        assert records == POINTS[name](grid)
        assert [check.describe() for check in records if not check.ok] == []

    def test_each_run_computes_each_interior_once(self, monkeypatch):
        # Each suite run has one store, which both census identities read:
        # two runs back to back each compute every interior once, and no
        # module global keeps a cache between them.
        real = identities._rectified_interior
        calls = collections.Counter()

        def counting(k, m, n):
            calls[k, m, n] += 1
            return real(k, m, n)

        monkeypatch.setattr(identities, "_rectified_interior", counting)
        for _ in range(2):
            calls.clear()
            assert all(check.ok for check in identity_checks(default_grid()))
            # Face classes k <= 4, m <= 7 on the default grid, read by
            # face-interior-sum at n = 1..10 and by vertex-star-sum at 2..10.
            assert calls == {(k, m, n): 1
                             for k in range(5) for m in range(8) for n in range(1, 11)}
        assert [name for name, value in vars(identities).items()
                if hasattr(value, "cache_info")] == []

    def test_each_run_computes_each_rectified_value_once(self, monkeypatch):
        # Both census right sides read one store of rectified values a run:
        # vertex-star-sum's at (r, d, n) is face-interior-sum's at (r, d, n-1).
        real = identities._rectified
        calls = collections.Counter()

        def counting(r, d, m):
            calls[r, d, m] += 1
            return real(r, d, m)

        monkeypatch.setattr(identities, "_rectified", counting)
        for _ in range(2):
            calls.clear()
            assert all(check.ok for check in identity_checks(default_grid()))
            # face-interior-sum reads m = n = 1..10, vertex-star-sum m = n-1 = 1..9.
            assert calls == {(r, d, m): 1
                             for r in range(5) for d in range(1, 8) for m in range(1, 11)}
        assert [name for name, value in vars(identities).items()
                if hasattr(value, "cache_info")] == []

    def test_one_patched_rectified_value_fails_both_census_identities(self, capsys,
                                                                      monkeypatch):
        # The rectified value at (r, d, m) = (1, 2, 3) is face-interior-sum's
        # right side at n = 3 and vertex-star-sum's at n = 4; read from the
        # shared store, one wrong value still fails both, and nothing else.
        real = identities._rectified
        monkeypatch.setattr(identities, "_rectified",
                            lambda r, d, m: real(r, d, m) + ((r, d, m) == (1, 2, 3)))
        assert cli.main(["verify", "--suite", "identities"]) == 1
        assert [line for line in capsys.readouterr().out.splitlines() if "FAIL " in line] == [
            "  FAIL face-interior-sum [r=1 d=2 n=3] lhs=6 rhs=7",
            "  FAIL vertex-star-sum [r=1 d=2 n=4] lhs=6 rhs=7",
        ]
        assert check_face_interior_sum(1, 2, 3).rhs == check_vertex_star_sum(1, 2, 4).rhs == 7


# A side of a run as the property below draws it: a list, a lazy map over one, or an
# endless repeat of one value; each kind with the rows it gives for a given row count.
MISSING = identities._MISSING
VALUES = st.one_of(st.integers(-2, 2), st.just(MISSING))
SIDES = st.one_of(
    st.tuples(st.just("list"), st.lists(VALUES, max_size=8)),
    st.tuples(st.just("map"), st.lists(VALUES, max_size=8)),
    st.tuples(st.just("repeat"), VALUES),
)


def side(spec):
    kind, values = spec
    if kind == "repeat":
        return itertools.repeat(values)
    return list(values) if kind == "list" else map(operator.itemgetter(0), zip(values))


def side_rows(spec, rows):
    # The values a side gives its rows: cut at the rows, `missing` past its end.
    kind, values = spec
    return [values] * rows if kind == "repeat" else (values + [MISSING] * rows)[:rows]


def expected_records(fixed, key, values, specs):
    # Row by row, each check's record in turn, built per row with no run.
    rows = [(name, side_rows(lhs, len(values)), side_rows(rhs, len(values)))
            for name, lhs, rhs in specs]
    return [IdentityCheck(name, (*fixed, (key, value)), lhs[i], rhs[i])
            for i, value in enumerate(values) for name, lhs, rhs in rows]


class TestRuns:
    @settings(max_examples=300)
    @given(values=st.lists(st.integers(0, 40), max_size=6),
           fixed=st.sampled_from([(), (("d", 2),)]), key=st.sampled_from(["n", "r"]),
           sides=st.lists(st.tuples(SIDES, SIDES), min_size=1, max_size=2))
    def test_a_run_is_its_records_and_fails_exactly_their_failing_rows(self, values, fixed, key,
                                                                       sides):
        # Each row is decided by `!=`, as `verify` decides a record, so a row
        # missing on both sides fails: list `==` would pass it by identity.
        specs = [(name, lhs, rhs) for name, (lhs, rhs) in zip(("x", "y"), sides)]
        built = [(name, side(lhs), side(rhs)) for name, lhs, rhs in specs]
        run = (identities._Run(fixed, values, *built) if key == "n"
               else identities._Run(fixed, values, *built, key=key))
        want = expected_records(fixed, key, values, specs)
        assert len(run) == len(specs) * len(values) == len(want)
        assert list(run) == list(run) == want
        assert run.failures() == [check for check in run if check[2] != check[3]] == [
            check for check in want if check[2] is MISSING or check[3] is MISSING
            or check[2] != check[3]]
        assert bool(run) == bool(values)

    def test_a_row_missing_on_both_sides_fails(self):
        run = identities._Run((), [1, 2], ("x", [MISSING, 1], itertools.repeat(MISSING)))
        assert [check.params for check in run.failures()] == [(("n", 1),), (("n", 2),)]
        assert identities._Run((), [1], ("x", [1, 2], [1])).failures() == []

    @pytest.mark.parametrize("params", [
        {"d": 3}, {"d": 3, "r": 1}, {"d": 2, "a": 1, "b": 0}, {"polytope": hypersimplex(4, 2)},
    ], ids=["one", "two", "three", "polytope"])
    def test_a_single_check_is_a_one_row_run_keyed_by_its_last_param(self, params):
        run = checks._check("x", [1, 2], [1, 2], **params)
        assert type(run) is identities._Run and len(run) == 1
        assert list(run) == [IdentityCheck("x", tuple(params.items()), [1, 2], [1, 2])]
        assert run.failures() == []
        for lhs, rhs in ((MISSING, [1]), ([1], MISSING), (MISSING, MISSING), ([1], [2])):
            assert checks._check("x", lhs, rhs, **params).failures() == [
                IdentityCheck("x", tuple(params.items()), lhs, rhs)]
