"""Every route to each answer, and every verification suite over them.

`formula_columns` and `family_descriptor` give each `seq` family's closed
form and oracle descriptor; `rectified_routes` and `shift_routes` give each
`decompose` mode's coefficient vectors, one entry per route.  `seq`,
`decompose` and `verify` all read these functions, which look up this
module's globals at call time, so the suites check the code the commands
print from.  Each suite yields `IdentityCheck` records (name, params, lhs,
rhs); a check holds when lhs == rhs exactly, with a structural check's
computed value on the left.  `verify` and the acceptance tests iterate
these same generators.  Bounds left as None take each suite's default grid.
"""
from __future__ import annotations

import itertools
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


def formula_columns(family: str, d: int, r: int | None, n_from: int, n_to: int,
                    want_interior: bool) -> tuple[list[int], list[int] | None]:
    """Closed-form values for n_from..n_to, and interiors when asked for."""
    if family == "alpha":
        values = simplex_table(d, n_from, n_to)
        interiors = simplex_interior_table(d, n_from, n_to) if want_interior else None
    elif family == "beta":
        values, interiors = cross_polytope_table(d, n_from, n_to), None
    elif family == "gamma":
        values, interiors = hypercube_table(d, n_from, n_to), None
    else:
        values = rectified_simplex_table(d, r, n_from, n_to)
        interiors = (rectified_simplex_interior_table(d, r, n_from, n_to)
                     if want_interior else None)
    return values, interiors


def family_descriptor(family: str, d: int, r: int | None) -> oracle.PolytopeDescriptor:
    """The oracle descriptor whose recursion a `seq` family's closed form matches."""
    if family == "beta":
        return oracle.cross_polytope(d)
    if family == "gamma":
        return oracle.hypercube(d)
    if family in ("lambda", "oracle") and r is not None:
        return oracle.rectified_simplex_descriptor(d, r)
    return oracle.simplex(d)


def rectified_routes(d: int, r: int) -> dict[str, list[int]]:
    """Simplex-basis coefficients of the r-rectified d-simplex, by each route."""
    return {"shift-composition": rectified_decomposition(d, r),
            "gbinomial": rectified_decomposition_gbinom(d, r)}


def shift_routes(d: int, a: int, b: int) -> dict[str, list[int]]:
    """Simplex-basis coefficients of the stretched sequence, by each route."""
    return {"double-sum": shift_decomposition(d, a, b),
            "generating-function": shift_decomposition_gf(d, a, b)}


def _check(name: str, lhs: object, rhs: object, **params: object) -> IdentityCheck:
    return IdentityCheck(name, tuple(params.items()), lhs, rhs)


def identity_checks(grid: GridRanges) -> Iterator[IdentityCheck]:
    """The binomial and face-census identities at every point of the grid."""
    for name, points in identities.REGISTRY.items():
        if name in grid:
            yield from points(grid[name])


def oracle_checks(d_max: int | None = None, n_max: int | None = None) -> Iterator[IdentityCheck]:
    """Closed-form columns against `oracle_table`, bridges, degenerate families, censuses."""
    n_hi = 40 if n_max is None else n_max

    def cap(default: int) -> int:
        return default if d_max is None else min(default, d_max)

    # (family, value check, interior check or None, (d, r) points): each
    # family's closed-form columns against the recursion of its descriptor.
    families = (
        ("alpha", "simplex-value", "simplex-interior", [(d, None) for d in range(cap(8) + 1)]),
        ("beta", "cross-polytope", None, [(d, None) for d in range(1, cap(6) + 1)]),
        ("gamma", "hypercube", None, [(d, None) for d in range(1, cap(6) + 1)]),
        ("lambda", "rectified-value", "rectified-interior",
         [(d, r) for d in range(2, cap(7) + 1) for r in range(1, d)]),
    )
    for family, value_name, interior_name, points in families:
        for d, r in points:
            params = {"d": d} if r is None else {"d": d, "r": r}
            values, interiors = formula_columns(family, d, r, 1, n_hi, interior_name is not None)
            columns = zip(*oracle.oracle_table(family_descriptor(family, d, r), 1, n_hi),
                          values, interiors or itertools.repeat(None))
            for n, (value, interior, formula, formula_interior) in enumerate(columns, 1):
                yield _check(value_name, value, formula, **params, n=n)
                if interior_name is not None:
                    yield _check(interior_name, interior, formula_interior, **params, n=n)

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
            routes = rectified_routes(d, r)
            via_shifts, *others = routes.values()
            for other in others:  # every route against the first
                yield _check("route-agreement", via_shifts, other, d=d, r=r)
            # Leading coefficient 1 and no negative coefficient.
            yield _check("coefficient-signs", (via_shifts[0], [c for c in via_shifts if c < 0]),
                         (1, []), d=d, r=r)
            columns = zip(recombine_table(routes["gbinomial"], d, 1, n_hi),
                          rectified_simplex_table(d, r, 1, n_hi))
            for n, (recombined, formula) in enumerate(columns, 1):
                yield _check("recombination", recombined, formula, d=d, r=r, n=n)

    # One coefficient vector per (d, a, b) serves every n of the identity,
    # and one simplex column from 1 holds every stretched argument >= 1.
    m = min(30, n_hi)
    for d in range(1, (6 if d_max is None else min(6, d_max)) + 1):
        for a in range(1, (5 if a_max is None else a_max) + 1):
            for b in range((5 if b_max is None else b_max) + 1):
                routes = shift_routes(d, a, b)
                coeffs = routes["double-sum"]
                yield _check("shift-routes", coeffs, routes["generating-function"],
                             d=d, a=a, b=b)
                if b <= d:
                    yield _check("shift-support", len(coeffs), d + 1, d=d, a=a, b=b)
                stretched = simplex_table(d, 1, a * m - (a - 1) - b)
                for n, recombined in enumerate(recombine_table(coeffs, d, 1, m), 1):
                    k = a * n - (a - 1) - b
                    if k >= 1:
                        yield _check("shift-identity", stretched[k - 1], recombined,
                                     d=d, a=a, b=b, n=n)
