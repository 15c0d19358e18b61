"""Every verification suite, as generators of two-sided check records.

Each generator yields `IdentityCheck` records (name, params, lhs, rhs); a
check holds when lhs == rhs exactly.  Structural checks put the computed
value on the left and the expected one on the right.  `polytopenums verify`
and the acceptance tests iterate these same generators, so the suites are
written once.  Bounds left as None take the default grid of each suite.
The closed forms are read a column at a time from the same table functions
`polytopenums seq` prints from, so the oracle suite checks that code.
"""
from __future__ import annotations

from typing import Iterator

from . import identities, oracle
from .exact import binomial
from .identities import GridRanges, IdentityCheck
from .rectified import (
    rectified_decomposition,
    rectified_decomposition_gbinom,
    rectified_simplex_interior_table,
    rectified_simplex_table,
    shift_decomposition,
    shift_decomposition_gf,
)
from .regular import (
    cross_polytope_table,
    hypercube_table,
    recombine_table,
    simplex_interior_table,
    simplex_table,
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

    def recursion(p: oracle.PolytopeDescriptor) -> list[tuple[int, int, int]]:
        # (n, value, interior) for n = 1..n_hi, from one table fill.
        return oracle.oracle_report(p, n_hi)[1:] if n_hi else []

    for d in range(cap(8) + 1):
        for (n, value, interior), formula, formula_interior in zip(
                recursion(oracle.simplex(d)), simplex_table(d, 1, n_hi),
                simplex_interior_table(d, 1, n_hi)):
            yield _check("simplex-value", value, formula, d=d, n=n)
            yield _check("simplex-interior", interior, formula_interior, d=d, n=n)
    for d in range(1, cap(6) + 1):
        for (n, cross, _), (_, cube, _), cross_formula, cube_formula in zip(
                recursion(oracle.cross_polytope(d)), recursion(oracle.hypercube(d)),
                cross_polytope_table(d, 1, n_hi), hypercube_table(d, 1, n_hi)):
            yield _check("cross-polytope", cross, cross_formula, d=d, n=n)
            yield _check("hypercube", cube, cube_formula, d=d, n=n)
    for d in range(2, cap(7) + 1):
        for r in range(1, d):
            for (n, value, interior), formula, formula_interior in zip(
                    recursion(oracle.rectified_simplex_descriptor(d, r)),
                    rectified_simplex_table(d, r, 1, n_hi),
                    rectified_simplex_interior_table(d, r, 1, n_hi)):
                yield _check("rectified-value", value, formula, d=d, r=r, n=n)
                yield _check("rectified-interior", interior, formula_interior, d=d, r=r, n=n)

    # Known-sequence bridges; 3 * octahedral(n) = n (2n^2 + 1).
    bridge_hi = 200 if n_max is None else n_max
    for n, octahedral in enumerate(rectified_simplex_table(3, 1, 1, bridge_hi), 1):
        yield _check("octahedral-bridge", 3 * octahedral, n * (2 * n * n + 1), n=n)
    short_hi = min(n_hi, 60)
    for d in range(1, cap(8) + 1):
        columns = zip(simplex_table(d, 1, short_hi), rectified_simplex_table(d, 0, 1, short_hi),
                      rectified_simplex_table(d, d - 1, 1, short_hi))
        for n, (simplex_value, zero, dual) in enumerate(columns, 1):
            yield _check("zero-rectification", zero, simplex_value, d=d, n=n)
            if d >= 2:
                yield _check("dual-rectification", dual, simplex_value, d=d, n=n)
    for d in range(1, cap(10) + 1):
        for r in range(d):
            [vertices] = rectified_simplex_table(d, r, 2, 2)
            yield _check("vertex-count", vertices, binomial(d + 1, r + 1), d=d, r=r)

    # Degenerate-family conventions (d <= r), valid from n = 2.
    degenerate_hi = min(n_hi, 40)
    for r in range(1, cap(8) + 1):
        columns = zip(rectified_simplex_table(r, r, 1, degenerate_hi),
                      rectified_simplex_interior_table(r, r, 1, degenerate_hi))
        for n, (value, interior) in enumerate(columns, 1):
            yield _check("constant-family", value, 1, r=r, n=n)
            if n >= 2:
                yield _check("interior-sign", interior, (-1) ** r, r=r, n=n)
        for d in range(1, r):
            for n, interior in enumerate(
                    rectified_simplex_interior_table(d, r, 2, degenerate_hi), 2):
                yield _check("vanishing-interior", interior, 0, d=d, r=r, n=n)

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
        if d_max is None or d_max >= p.dimension:
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
            columns = zip(recombine_table(gbinom, d, 1, n_hi),
                          rectified_simplex_table(d, r, 1, n_hi))
            for n, (recombined, formula) in enumerate(columns, 1):
                yield _check("recombination", recombined, formula, d=d, r=r, n=n)

    # One coefficient vector per (d, a, b) serves every n of the identity,
    # and one simplex column from 1 holds every stretched argument >= 1.
    m = min(30, n_hi)
    for d in range(1, (6 if d_max is None else min(6, d_max)) + 1):
        for a in range(1, (5 if a_max is None else a_max) + 1):
            for b in range((5 if b_max is None else b_max) + 1):
                coeffs = shift_decomposition(d, a, b)
                yield _check("shift-routes", coeffs, shift_decomposition_gf(d, a, b),
                             d=d, a=a, b=b)
                if b <= d:
                    yield _check("shift-support", len(coeffs), d + 1, d=d, a=a, b=b)
                stretched = simplex_table(d, 1, a * m - (a - 1) - b)
                for n, recombined in enumerate(recombine_table(coeffs, d, 1, m), 1):
                    k = a * n - (a - 1) - b
                    if k >= 1:
                        yield _check("shift-identity", stretched[k - 1], recombined,
                                     d=d, a=a, b=b, n=n)
