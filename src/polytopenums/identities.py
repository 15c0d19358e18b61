"""Exact two-sided verification of the binomial and face-census identities.

Each checker evaluates both sides of one identity independently and reports
them; nothing is shared between the sides, so a transcription slip on either
one shows up as a mismatch.  Simplex values inside the checkers use the pure
binomial reading, with no clamping at small arguments or dimensions:

    plain value at index n, dimension e:    C(n+e-1, e)
    interior value at index n, dimension e: C(n-2, e)

Negative dimensions then vanish through the negative-lower-index rule, and
index 1 interiors contribute (-1)**e; both behaviors are what the census
identities need to hold on their full stated ranges.

Every suite item is a `_Run`, which `checks` uses too: rows over one
parameter (n for a column comparison, r for subset-convolution and
pascal-alternating-row), for one tuple of the other parameters, with one or
more checks, each as its two sides.  `verify` decides a run in one C-level
pass per check and builds its records only when a row fails; `_records`,
the one flattener, gives every record to the public suites
(`identity_checks` here, `checks.oracle_checks` and
`checks.decomposition_checks`).  Each identity has one body, and each
per-point checker is its body's one-point run.  The four store bodies give
one run over n per tuple, with summands from stores: interior-sum C(n-2, e)
once per n and its weights once per (d, k); alt-vandermonde (-1)**k C(n, k)
once per n and C(c-k, b-k) once per (b, c).  The two census identities
share one body, the interiors of the face classes (k, m) weighted by
multiplicities once per (r, d), against the rectified value; each interior
depends on (k, m, n) alone and each rectified value on (r, d, m), and each
comes from its own store per suite run, which the suite's body makes for
both.  A grid iterator builds its stores once per run and frees them with
it; no right side reads a store a left side reads.

Each `REGISTRY` entry pairs an identity's default ranges, keyed by the grid
keys `parse_grid` requires and accepts, with the iterator that reads them; a
grid file writes the same ranges inclusive, as `lo..hi`.  Constraints tying
parameters together (c >= b, k < d, r <= d) are part of the identities and
live in the iterators: interior-sum's k runs over 0..d-1 for each d.
"""
from __future__ import annotations

from functools import cache
from itertools import chain, islice, repeat
from operator import mul, ne
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .exact import binomial


class IdentityCheck(NamedTuple):
    """One two-sided check: it holds when lhs equals rhs exactly.

    The identity checkers below compare integers; the structural checks in
    `checks` also compare tuples and lists, and may name a polytope
    descriptor as a parameter.
    """

    identity: str
    params: tuple[tuple[str, object], ...]
    lhs: object
    rhs: object

    @property
    def ok(self) -> bool:
        return self.lhs == self.rhs

    def describe(self) -> str:
        args = " ".join(f"{name}={value}" for name, value in self.params)
        return f"{self.identity} [{args}] lhs={self.lhs} rhs={self.rhs}"


class _Missing:
    """The side of a row its column did not give: equal to nothing, so the row fails."""

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        return False

    def __repr__(self) -> str:
        return "missing"


_MISSING = _Missing()


class _Run:
    """Rows over one parameter, each with the same checks: a suite's one kind of item.

    A row's params are `fixed`, then `(key, value)` for its value of
    `values`; the key is n for every column comparison.  Each check is
    (name, lhs, rhs), its sides held as lists of one value per row, cut
    past the rows and padded with `_MISSING`, so a side that ends early
    fails its missing rows, not drops them.  `len` counts rows times
    checks.  Iterating gives each row's records, one per check in turn,
    with no frame per row.  `failures` decides each check's rows by `!=` in
    one C-level pass (never list `==`, whose identity shortcut would pass a
    row missing on both sides) and builds records only when some row fails.
    """

    __slots__ = ("fixed", "key", "values", "checks")

    def __init__(self, fixed: tuple[tuple[str, object], ...], values: Sequence[object],
                 *checks: tuple[str, Iterable[object], Iterable[object]], key: str = "n") -> None:
        self.fixed, self.key, self.values, rows = fixed, key, values, len(values)
        self.checks = [
            (name, lhs if type(lhs) is list and len(lhs) == rows else _padded(lhs, rows),
             rhs if type(rhs) is list and len(rhs) == rows else _padded(rhs, rows))
            for name, lhs, rhs in checks]

    def __len__(self) -> int:
        return len(self.values) * len(self.checks)

    def __iter__(self) -> Iterator[IdentityCheck]:
        params = list(zip(*map(repeat, self.fixed), zip(repeat(self.key), self.values)))
        return chain.from_iterable(zip(*(
            map(tuple.__new__, repeat(IdentityCheck), zip(repeat(name), params, lhs, rhs))
            for name, lhs, rhs in self.checks)))

    def failures(self) -> list[IdentityCheck]:
        """The records of the rows whose sides differ, in order."""
        for _, lhs, rhs in self.checks:
            if any(map(ne, lhs, rhs)):
                return [check for check in self if check[2] != check[3]]
        return []


def _padded(side: Iterable[object], rows: int) -> list[object]:
    # A side as a list of `rows` values: cut past the rows, `_MISSING` past its end.
    return list(islice(chain(side, repeat(_MISSING)), rows))


# The one flattener: a suite body's runs as their records, in order.
_records: Callable[[Iterable[_Run]], Iterator[IdentityCheck]] = chain.from_iterable


def _plain(e: int, n: int) -> int:
    return binomial(n + e - 1, e)


def _interior(e: int, n: int) -> int:
    return binomial(n - 2, e)


def _signed(ns: Iterable[int]) -> list[list[int]]:
    # alt-vandermonde's store: each n's signed row (-1)**k C(n, k) for k <= n.
    return [[(-1) ** k * binomial(n, k) for k in range(n + 1)] for n in ns]


def _alt_vandermonde_rows(b: int, c: int, ns: Sequence[int], signed: list[list[int]],
                          top: int) -> _Run:
    # alt-vandermonde's one body, a run over n of ns <= top: n's signed row times C(c-k, b-k).
    row = [binomial(c - k, b - k) for k in range(top + 1)]
    return _Run((("b", b), ("c", c)), ns,
                ("alt-vandermonde", [sum(map(mul, terms, row)) for terms in signed],
                 [binomial(c - n, b) for n in ns]))


def check_alt_vandermonde(b: int, c: int, n: int) -> IdentityCheck:
    """Alternating Vandermonde: sum (-1)**k C(c-k, b-k) C(n, k) = C(c-n, b)."""
    return next(iter(_alt_vandermonde_rows(b, c, (n,), _signed((n,)), n)))


def _alt_vandermonde_points(g: Mapping[str, Sequence[int]]) -> Iterator[_Run]:
    # alt-vandermonde's grid iterator: its body for each (b, c) with c >= b.
    signed, top = _signed(g["n"]), max(g["n"], default=0)
    for b in g["b"]:
        for c in g["c"]:
            if c >= b:
                yield _alt_vandermonde_rows(b, c, g["n"], signed, top)


def _interiors(top: int, ns: Iterable[int]) -> list[list[int]]:
    # interior-sum's store: each n's interiors C(n-2, e) for -1 <= e < top-1.
    return [[_interior(e, n) for e in range(-1, top - 1)] for n in ns]


def _interior_sum_rows(d: int, k: int, js: Iterable[int], ns: Sequence[int],
                       interiors: list[list[int]]) -> Iterator[_Run]:
    # interior-sum's one body, a run over n per j of js: with t = d-1-k, the sum over i <= t
    # of C(t, i) * interior(i-1+j, n), the weights against n's stored interiors from e = j-1.
    weights = [binomial(d - 1 - k, i) for i in range(d - k)]
    return (_Run((("d", d), ("k", k), ("j", j)), ns,
                 ("interior-sum", [sum(map(mul, weights, row[j:j + d - k])) for row in interiors],
                  [_plain(d - k + j - 2, n - j) for n in ns])) for j in js)


def check_interior_sum(d: int, k: int, j: int, n: int) -> IdentityCheck:
    """Weighted interiors across dimensions collapse to one simplex value.

    sum over m < d of C(d-1-k, m-k) * interior(m-k-1+j, n)
        = plain(d-k+j-2, n-j),  for d > k >= 0 and j >= 0; k < 0 or j < 0 raises ValueError.
    """
    if k < 0 or j < 0:
        raise ValueError(f"k and j must be nonnegative, got k={k} j={j}")
    return next(_records(_interior_sum_rows(d, k, (j,), (n,), _interiors(d + j, (n,)))))


def _interior_sum_points(g: Mapping[str, Sequence[int]]) -> Iterator[_Run]:
    # interior-sum's grid iterator: its body for each (d, k) with k < d.
    interiors = _interiors(max(g["d"], default=0) + max(g["j"], default=0), g["n"])
    for d in g["d"]:
        for k in range(d):
            yield from _interior_sum_rows(d, k, g["j"], g["n"], interiors)


def _rectified(r: int, d: int, m: int) -> int:
    # The r-rectified d-simplex value at index m, as its alternating
    # stretched-simplex sum: sum (-1)**(r-i) C(d+1, r-i) plain(d, (i+1)*m - r).
    return sum((-1) ** (r - i) * binomial(d + 1, r - i) * _plain(d, (i + 1) * m - r)
               for i in range(r + 1))


def _rectified_interior(k: int, m: int, n: int) -> int:
    # The interior value of the k-rectified m-simplex at index n, as its
    # alternating stretched-interior sum: the inner sum of both census
    # identities, which depends on the face class (k, m) and on n alone.
    return sum((-1) ** (k - i) * binomial(m + 1, k - i) * _interior(m, (i + 1) * n + k - 2 * i)
               for i in range(k + 1))


# Census identity -> (the multiplicity its left side gives face class
# (k, m) of the r-rectified d-simplex, and how far before n its right side
# reads the rectified value).
_CENSUS: dict[str, tuple[Callable[[int, int, int, int], int], int]] = {
    "face-interior-sum": (
        lambda r, d, k, m: binomial(d + 1, r - k) * binomial(d + 1 - r + k, m + 1), 0),
    "vertex-star-sum": (lambda r, d, k, m: binomial(r + 1, r - k) * binomial(d - r, m - k), 1),
}


def _census_rows(identity: str, r: int, d: int, ns: Sequence[int],
                 interior: Callable[[int, int, int], int],
                 rectified: Callable[[int, int, int], int]) -> _Run:
    # The one body of both census checks, a run over n of ns: the weighted interiors
    # of the face classes (k, m) against the rectified value, which reads no interior.
    multiplicity, back = _CENSUS[identity]
    classes = [(k, m) for k in range(r + 1) for m in range(d - r + k + 1)]
    ks, ms = [k for k, _ in classes], [m for _, m in classes]
    weights = [multiplicity(r, d, k, m) for k, m in classes]
    return _Run((("r", r), ("d", d)), ns,
                (identity, [sum(map(mul, weights, map(interior, ks, ms, repeat(n)))) for n in ns],
                 [rectified(r, d, n - back) for n in ns]))


def _census_points(identity: str) -> _Points:
    # A census identity's grid iterator, reading the stores it is given or its own.
    def points(g: Mapping[str, Sequence[int]],
               interior: Callable[[int, int, int], int] | None = None,
               rectified: Callable[[int, int, int], int] | None = None) -> Iterator[_Run]:
        interior = interior or cache(_rectified_interior)
        rectified = rectified or cache(_rectified)
        for r in g["r"]:
            for d in g["d"]:
                yield _census_rows(identity, r, d, g["n"], interior, rectified)
    return points


def check_face_interior_sum(r: int, d: int, n: int) -> IdentityCheck:
    """Interiors over all faces of the r-rectified d-simplex sum to the total.

    The face multiplicities C(d+1, r-k) C(d+1-r+k, m+1) weight the interior
    of each face class; the result is the rectified value itself, written as
    its alternating stretched-simplex sum.
    """
    return next(iter(_census_rows("face-interior-sum", r, d, (n,), _rectified_interior,
                                  _rectified)))


def check_vertex_star_sum(r: int, d: int, n: int) -> IdentityCheck:
    """Interiors over faces containing the base vertex give the previous term.

    The multiplicities C(r+1, r-k) C(d-r, m-k) count faces of each class in
    the closed vertex star; their interiors at index n reproduce the
    rectified value at index n-1.  Valid for n >= 2.
    """
    return next(iter(_census_rows("vertex-star-sum", r, d, (n,), _rectified_interior,
                                  _rectified)))


def _subset_convolution_rows(d: int, rs: Sequence[int]) -> _Run:
    # subset-convolution's one body, a run over r of rs.
    return _Run((("d", d),), rs,
                ("subset-convolution",
                 [sum((-1) ** k * binomial(d + 1, r - k) * binomial(d + 1 - r + k, k + 1)
                      for k in range(r + 1)) for r in rs],
                 [binomial(d + 1, r + 1) for r in rs]), key="r")


def check_subset_convolution(d: int, r: int) -> IdentityCheck:
    """Alternating two-binomial convolution collapses to a vertex count.

    sum (-1)**k C(d+1, r-k) C(d+1-r+k, k+1) = C(d+1, r+1).
    """
    return next(iter(_subset_convolution_rows(d, (r,))))


def _pascal_alternating_rows(rs: Sequence[int]) -> _Run:
    # pascal-alternating-row's one body, a run over r of rs.
    return _Run((), rs, ("pascal-alternating-row",
                         [sum((-1) ** k * binomial(r + 1, r - k) for k in range(r + 1))
                          for r in rs], repeat(1)), key="r")


def check_pascal_alternating_row(r: int) -> IdentityCheck:
    """Partial alternating row sum of Pascal's triangle equals 1."""
    return next(iter(_pascal_alternating_rows((r,))))


GridRanges = Mapping[str, Mapping[str, Sequence[int]]]

# A grid iterator: every run of one identity over its grid section.
_Points = Callable[[Mapping[str, Sequence[int]]], Iterator[_Run]]

# Identity name -> (its default ranges, keyed by the keys its grid section
# sets, and an iterator over its grid that reads exactly those keys), in
# suite order.  Each iterator looks up when called what it evaluates: the
# body its identity's checker runs at one point (`_subset_convolution_rows`,
# `_pascal_alternating_rows` and the four store bodies) and what its stores
# and sums call (the census pair `_rectified_interior` and `_rectified`,
# through the run's stores when `identity_checks` gives them, interior-sum
# `_interior`, `binomial` and `_plain`, the others `binomial`); so a
# replaced module-level function is honored.
REGISTRY: dict[str, tuple[dict[str, range], _Points]] = {
    "alt-vandermonde": ({"b": range(1, 13), "c": range(1, 13), "n": range(1, 13)},
                        _alt_vandermonde_points),
    "interior-sum": ({"d": range(1, 9), "j": range(0, 5), "n": range(1, 13)},
                     _interior_sum_points),
    "face-interior-sum": ({"r": range(0, 5), "d": range(1, 8), "n": range(1, 11)},
                          _census_points("face-interior-sum")),
    "vertex-star-sum": ({"r": range(0, 5), "d": range(1, 8), "n": range(2, 11)},
                        _census_points("vertex-star-sum")),
    "subset-convolution": ({"d": range(1, 13), "r": range(0, 13)}, lambda g: (
        _subset_convolution_rows(d, [r for r in g["r"] if r <= d]) for d in g["d"]
    )),
    "pascal-alternating-row": ({"r": range(0, 21)},
                               lambda g: iter([_pascal_alternating_rows(g["r"])])),
}


def identity_checks(grid: GridRanges) -> Iterator[IdentityCheck]:
    """The binomial and face-census identities over the grid, with one census store a run."""
    return _records(_identity_runs(grid))


def _identity_runs(grid: GridRanges) -> Iterator[_Run]:
    # The identities suite's one body: each identity's runs, in suite order;
    # both census identities read one store of interiors and one of rectified values.
    stores = cache(_rectified_interior), cache(_rectified)
    for name, (_, points) in REGISTRY.items():
        if name in grid:
            yield from points(grid[name], *stores) if name in _CENSUS else points(grid[name])


def _parse_range(text: str) -> range:
    text = text.strip()
    lo, dots, hi = text.partition("..")
    lo, hi = int(lo), int(hi if dots else lo)
    if lo > hi:
        raise ValueError(f"empty range {text!r}: {lo} > {hi}")
    if lo < 0:
        raise ValueError(f"negative bound in {text!r}: the identities hold from 0 up")
    return range(lo, hi + 1)


def parse_grid(text: str) -> dict[str, dict[str, range]]:
    """Parse a key=value grid config; ranges are inclusive `lo..hi`.

    Raises ValueError for text configparser cannot read, an unknown
    section, a section that misses a key of its identity or sets one it
    does not read, a range with lo > hi, and a negative bound.
    """
    import configparser  # deferred: only a grid file needs a parser

    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ValueError(str(exc)) from exc
    grid: dict[str, dict[str, range]] = {}
    for section in parser.sections():
        if section == "meta":
            continue
        if section not in REGISTRY:
            raise ValueError(f"unknown identity section {section!r}")
        takes, _ = REGISTRY[section]
        keys = set(parser[section])
        missing = [key for key in takes if key not in keys]
        if missing:
            raise ValueError(f"identity section {section!r} is missing key(s) "
                             f"{', '.join(missing)}")
        unknown = sorted(keys - set(takes))
        if unknown:
            raise ValueError(f"identity section {section!r} has unknown key(s) "
                             f"{', '.join(unknown)}; it takes {', '.join(takes)}")
        grid[section] = {key: _parse_range(value) for key, value in parser[section].items()}
    return grid


def load_grid(path: str) -> dict[str, dict[str, range]]:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_grid(handle.read())


def default_grid() -> dict[str, dict[str, range]]:
    """A fresh copy of every identity's default ranges, in suite order."""
    return {name: dict(ranges) for name, (ranges, _) in REGISTRY.items()}
