"""Every verification suite, as generators of two-sided check records.

Each generator yields `IdentityCheck` records (name, params, lhs, rhs); a
check holds when lhs == rhs exactly.  Structural checks put the computed
value on the left and the expected one on the right.  `polytopenums verify`
and the acceptance tests iterate these same generators, so the suites are
written once.  Bounds left as None take the default grid of each suite.
"""
from __future__ import annotations

from typing import Iterator

from . import identities, oracle
from .exact import binomial
from .identities import GridRanges, IdentityCheck
from .rectified import (
    recombine,
    rectified_decomposition,
    rectified_decomposition_gbinom,
    rectified_simplex_interior,
    rectified_simplex_number,
    shift_decomposition,
    shift_decomposition_gf,
)
from .regular import (
    cross_polytope_number,
    hypercube_number,
    simplex_interior,
    simplex_number,
)


def _check(name: str, lhs: object, rhs: object, **params: object) -> IdentityCheck:
    return IdentityCheck(name, tuple(params.items()), lhs, rhs)


def identity_checks(grid: GridRanges) -> Iterator[IdentityCheck]:
    """The binomial and face-census identities at every point of the grid."""
    for name, points in identities.REGISTRY.items():
        if name in grid:
            yield from points(grid[name])


def oracle_checks(d_max: int | None = None, n_max: int | None = None) -> Iterator[IdentityCheck]:
    """Closed forms against the recursion, bridges, degenerate families, censuses."""
    n_hi = 40 if n_max is None else n_max

    def cap(default: int) -> int:
        return default if d_max is None else min(default, d_max)

    for d in range(cap(8) + 1):
        p = oracle.simplex(d)
        for n in range(1, n_hi + 1):
            yield _check("simplex-value", oracle.polytope_number(p, n),
                         simplex_number(d, n), d=d, n=n)
            yield _check("simplex-interior", oracle.interior_number(p, n),
                         simplex_interior(d, n), d=d, n=n)
    for d in range(1, cap(6) + 1):
        for n in range(1, n_hi + 1):
            yield _check("cross-polytope", oracle.polytope_number(oracle.cross_polytope(d), n),
                         cross_polytope_number(d, n), d=d, n=n)
            yield _check("hypercube", oracle.polytope_number(oracle.hypercube(d), n),
                         hypercube_number(d, n), d=d, n=n)
    for d in range(2, cap(7) + 1):
        for r in range(1, d):
            p = oracle.rectified_simplex_descriptor(d, r)
            for n in range(1, n_hi + 1):
                yield _check("rectified-value", oracle.polytope_number(p, n),
                             rectified_simplex_number(d, r, n), d=d, r=r, n=n)
                yield _check("rectified-interior", oracle.interior_number(p, n),
                             rectified_simplex_interior(d, r, n), d=d, r=r, n=n)

    # Known-sequence bridges; 3 * octahedral(n) = n (2n^2 + 1).
    for n in range(1, (200 if n_max is None else n_max) + 1):
        yield _check("octahedral-bridge", 3 * rectified_simplex_number(3, 1, n),
                     n * (2 * n * n + 1), n=n)
    for d in range(1, cap(8) + 1):
        for n in range(1, min(n_hi, 60) + 1):
            yield _check("zero-rectification", rectified_simplex_number(d, 0, n),
                         simplex_number(d, n), d=d, n=n)
            if d >= 2:
                yield _check("dual-rectification", rectified_simplex_number(d, d - 1, n),
                             simplex_number(d, n), d=d, n=n)
    for d in range(1, cap(10) + 1):
        for r in range(d):
            yield _check("vertex-count", rectified_simplex_number(d, r, 2),
                         binomial(d + 1, r + 1), d=d, r=r)

    # Degenerate-family conventions (d <= r), valid from n = 2.
    for r in range(1, cap(8) + 1):
        for n in range(1, min(n_hi, 40) + 1):
            yield _check("constant-family", rectified_simplex_number(r, r, n), 1, r=r, n=n)
            if n >= 2:
                yield _check("interior-sign", rectified_simplex_interior(r, r, n),
                             (-1) ** r, r=r, n=n)
        for d in range(1, r):
            for n in range(2, min(n_hi, 40) + 1):
                yield _check("vanishing-interior", rectified_simplex_interior(d, r, n), 0,
                             d=d, r=r, n=n)

    # Census structure: Euler relation over every census reachable from the
    # tested polytopes, plus two pinned f-vectors.
    seen: set[oracle.PolytopeDescriptor] = set()
    stack: list[oracle.PolytopeDescriptor] = [oracle.simplex(cap(8))]
    stack += [oracle.cross_polytope(cap(6)), oracle.hypercube(cap(6))]
    stack += [oracle.rectified_simplex_descriptor(d, r)
              for d in range(2, cap(7) + 1) for r in range(1, d)]
    while stack:
        p = stack.pop()
        if p in seen or isinstance(p, oracle.Point):
            continue
        seen.add(p)
        census = oracle.faces_of(p)
        yield _check("euler-relation",
                     sum((-1) ** k * f for k, f in enumerate(census.f_vector())),
                     1 + (-1) ** (p.dimension - 1), polytope=p)
        yield _check("census-counts",
                     [e for e in census.entries if not 0 <= e.not_containing <= e.total], [],
                     polytope=p)
        stack.extend(e.face for e in census.entries)
    for p, f_vector in ((oracle.hypersimplex(4, 2), (6, 12, 8)),
                        (oracle.hypersimplex(5, 2), (10, 30, 30, 10))):
        yield _check("f-vector", oracle.faces_of(p).f_vector(), f_vector, polytope=p)


def decomposition_checks(d_max: int | None = None, n_max: int | None = None,
                         a_max: int | None = None,
                         b_max: int | None = None) -> Iterator[IdentityCheck]:
    """Coefficient route agreement, recombination and the shift identity."""
    n_hi = 40 if n_max is None else n_max
    for d in range(1, (8 if d_max is None else min(8, d_max)) + 1):
        for r in range(d):
            via_shifts = rectified_decomposition(d, r)
            gbinom = rectified_decomposition_gbinom(d, r)
            yield _check("route-agreement", via_shifts, gbinom, d=d, r=r)
            # Leading coefficient 1 and no negative coefficient.
            yield _check("coefficient-signs", (via_shifts[0], [c for c in via_shifts if c < 0]),
                         (1, []), d=d, r=r)
            for n in range(1, n_hi + 1):
                yield _check("recombination", recombine(gbinom, d, n),
                             rectified_simplex_number(d, r, n), d=d, r=r, n=n)

    # One coefficient vector per (d, a, b) serves every n of the identity.
    for d in range(1, (6 if d_max is None else min(6, d_max)) + 1):
        for a in range(1, (5 if a_max is None else a_max) + 1):
            for b in range((5 if b_max is None else b_max) + 1):
                coeffs = shift_decomposition(d, a, b)
                yield _check("shift-routes", coeffs, shift_decomposition_gf(d, a, b),
                             d=d, a=a, b=b)
                if b <= d:
                    yield _check("shift-support", len(coeffs), d + 1, d=d, a=a, b=b)
                for n in range(1, min(30, n_hi) + 1):
                    stretched = a * n - (a - 1) - b
                    if stretched >= 1:
                        yield _check("shift-identity", simplex_number(d, stretched),
                                     recombine(coeffs, d, n), d=d, a=a, b=b, n=n)
