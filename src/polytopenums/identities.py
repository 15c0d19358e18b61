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

Verification grids ship as a plain-text config (see identity_grid.cfg) so
runs are reproducible; structural constraints between parameters (c >= b,
k < d, r <= d) are part of the identities and live in the iteration code.
"""
from __future__ import annotations

import configparser
from dataclasses import dataclass
from importlib import resources
from typing import Callable, Iterable, Iterator, Mapping

from .exact import binomial


@dataclass(frozen=True)
class IdentityCheck:
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


def _plain(e: int, n: int) -> int:
    return binomial(n + e - 1, e)


def _interior(e: int, n: int) -> int:
    return binomial(n - 2, e)


def check_alt_vandermonde(b: int, c: int, n: int) -> IdentityCheck:
    """Alternating Vandermonde: sum (-1)**k C(c-k, b-k) C(n, k) = C(c-n, b)."""
    lhs = sum((-1) ** k * binomial(c - k, b - k) * binomial(n, k) for k in range(n + 1))
    rhs = binomial(c - n, b)
    return IdentityCheck("alt-vandermonde", (("b", b), ("c", c), ("n", n)), lhs, rhs)


def check_interior_sum(d: int, k: int, j: int, n: int) -> IdentityCheck:
    """Weighted interiors across dimensions collapse to one simplex value.

    sum over m < d of C(d-1-k, m-k) * interior(m-k-1+j, n)
        = plain(d-k+j-2, n-j),  for d > k >= 0 and j >= 0.
    """
    lhs = sum(binomial(d - 1 - k, m - k) * _interior(m - k - 1 + j, n) for m in range(d))
    rhs = _plain(d - k + j - 2, n - j)
    return IdentityCheck(
        "interior-sum", (("d", d), ("k", k), ("j", j), ("n", n)), lhs, rhs
    )


def _census_weighted_interiors(weight, r: int, d: int, n: int) -> int:
    # Shared shape of the two census sums: for each face class (k, m) the
    # inner alternating sum is the interior value of the k-rectified
    # m-simplex at index n, and `weight` supplies the face multiplicity.
    total = 0
    for k in range(r + 1):
        for m in range(d - r + k + 1):
            inner = sum(
                (-1) ** (k - i)
                * binomial(m + 1, k - i)
                * _interior(m, (i + 1) * n + k - 2 * i)
                for i in range(k + 1)
            )
            total += weight(k, m) * inner
    return total


def check_face_interior_sum(r: int, d: int, n: int) -> IdentityCheck:
    """Interiors over all faces of the r-rectified d-simplex sum to the total.

    The face multiplicities C(d+1, r-k) C(d+1-r+k, m+1) weight the interior
    of each face class; the result is the rectified value itself, written as
    its alternating stretched-simplex sum.
    """
    lhs = _census_weighted_interiors(
        lambda k, m: binomial(d + 1, r - k) * binomial(d + 1 - r + k, m + 1), r, d, n
    )
    rhs = sum(
        (-1) ** (r - i) * binomial(d + 1, r - i) * _plain(d, (i + 1) * n - r)
        for i in range(r + 1)
    )
    return IdentityCheck("face-interior-sum", (("r", r), ("d", d), ("n", n)), lhs, rhs)


def check_vertex_star_sum(r: int, d: int, n: int) -> IdentityCheck:
    """Interiors over faces containing the base vertex give the previous term.

    The multiplicities C(r+1, r-k) C(d-r, m-k) count faces of each class in
    the closed vertex star; their interiors at index n reproduce the
    rectified value at index n-1.  Valid for n >= 2.
    """
    lhs = _census_weighted_interiors(
        lambda k, m: binomial(r + 1, r - k) * binomial(d - r, m - k), r, d, n
    )
    rhs = sum(
        (-1) ** (r - i) * binomial(d + 1, r - i) * _plain(d, (i + 1) * (n - 1) - r)
        for i in range(r + 1)
    )
    return IdentityCheck("vertex-star-sum", (("r", r), ("d", d), ("n", n)), lhs, rhs)


def check_subset_convolution(d: int, r: int) -> IdentityCheck:
    """Alternating two-binomial convolution collapses to a vertex count.

    sum (-1)**k C(d+1, r-k) C(d+1-r+k, k+1) = C(d+1, r+1).
    """
    lhs = sum(
        (-1) ** k * binomial(d + 1, r - k) * binomial(d + 1 - r + k, k + 1)
        for k in range(r + 1)
    )
    rhs = binomial(d + 1, r + 1)
    return IdentityCheck("subset-convolution", (("d", d), ("r", r)), lhs, rhs)


def check_pascal_alternating_row(r: int) -> IdentityCheck:
    """Partial alternating row sum of Pascal's triangle equals 1."""
    lhs = sum((-1) ** k * binomial(r + 1, r - k) for k in range(r + 1))
    return IdentityCheck("pascal-alternating-row", (("r", r),), lhs, 1)


GridRanges = Mapping[str, Mapping[str, Iterable[int]]]

# Identity name -> the keys its grid section sets: every key REGISTRY reads.
GRID_KEYS: dict[str, tuple[str, ...]] = {
    "alt-vandermonde": ("b", "c", "n"),
    "interior-sum": ("d", "j", "n"),
    "face-interior-sum": ("r", "d", "n"),
    "vertex-star-sum": ("r", "d", "n"),
    "subset-convolution": ("d", "r"),
    "pascal-alternating-row": ("r",),
}

# Identity name -> iterator over its grid, in suite order.  Each entry looks
# its checker up when called, so a replaced module-level checker is honored.
REGISTRY: dict[str, Callable[[Mapping[str, Iterable[int]]], Iterator[IdentityCheck]]] = {
    "alt-vandermonde": lambda g: (
        check_alt_vandermonde(b, c, n) for b in g["b"] for c in g["c"] if c >= b for n in g["n"]
    ),
    "interior-sum": lambda g: (
        check_interior_sum(d, k, j, n)
        for d in g["d"] for k in range(d) for j in g["j"] for n in g["n"]
    ),
    "face-interior-sum": lambda g: (
        check_face_interior_sum(r, d, n) for r in g["r"] for d in g["d"] for n in g["n"]
    ),
    "vertex-star-sum": lambda g: (
        check_vertex_star_sum(r, d, n) for r in g["r"] for d in g["d"] for n in g["n"]
    ),
    "subset-convolution": lambda g: (
        check_subset_convolution(d, r) for d in g["d"] for r in g["r"] if r <= d
    ),
    "pascal-alternating-row": lambda g: (check_pascal_alternating_row(r) for r in g["r"]),
}


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
        keys = set(parser[section])
        missing = [key for key in GRID_KEYS[section] if key not in keys]
        if missing:
            raise ValueError(f"identity section {section!r} is missing key(s) "
                             f"{', '.join(missing)}")
        unknown = sorted(keys - set(GRID_KEYS[section]))
        if unknown:
            raise ValueError(f"identity section {section!r} has unknown key(s) "
                             f"{', '.join(unknown)}; it takes {', '.join(GRID_KEYS[section])}")
        grid[section] = {key: _parse_range(value) for key, value in parser[section].items()}
    return grid


def load_grid(path: str) -> dict[str, dict[str, range]]:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_grid(handle.read())


def default_grid() -> dict[str, dict[str, range]]:
    text = resources.files("polytopenums").joinpath("identity_grid.cfg").read_text("utf-8")
    return parse_grid(text)
