"""Every route to each answer, and every verification suite over them.

`FAMILIES` has one row per `seq` family: its value and interior tables
(names in this module, or None), oracle descriptor factory, -r rule
("required", "refused" or "optional"), smallest d, and oracle-suite value
and interior checks with their grid's top d.  A row with no value table
is recursion only and always prints interiors.  `formula_columns` and
`family_descriptor` look the rows up; `rectified_routes` and
`shift_routes` give each `decompose` mode's coefficient vectors, one entry
per route; `shift_routes` is the one-b case of `_shift_route_runs`, one
gbinomial batch per (d, a) for a run of b.  `seq`, `decompose` and
`verify` all read these, resolved from this module's globals at call
time, so the suites check the code the commands print from.  Each suite has
one body, which yields only `identities._Run`s, whose records are
`IdentityCheck`s (name, params, lhs, rhs); a check holds when lhs == rhs
exactly, with a structural check's computed value on the left.  A column
comparison is one run, a row per n of the range it asked for; a column that
ends early gives `missing` in each row it lacks, so that row fails and the
counts stay.  Checks read at the same rows share a run, one after the other
in each row.  The vertex counts are a run over r per d; the census checks
and the pinned f-vectors are each a run over polytopes; every other single
check is a one-row run, `_check`.  `verify` reads the bodies as `SUITES`
declares them: in run order, each suite's body and the bounds it reads, in
parameter order.  `oracle_checks`, `decomposition_checks` and
`identity_checks` (which lives in `identities`) give every record of the
same bodies through `identities._records`, as the acceptance tests read
them.  Every bound follows one rule, `_cap`: unset, an axis runs its
default grid top; set, the smaller of the two.  A bound lowers its axis and
never raises it.
"""
from __future__ import annotations

from collections import namedtuple
from itertools import repeat
from operator import mul
from typing import Iterator

from . import oracle
from .exact import binomial
from .identities import _MISSING, IdentityCheck, _identity_runs, _records, _Run, identity_checks
from .rectified import (
    _shift_decompositions_gbinom,
    rectified_decomposition,
    rectified_decomposition_gbinom,
    rectified_simplex_interior_table,
    rectified_simplex_table,
    shift_decomposition,
)
from .regular import (
    cross_polytope_table,
    hypercube_table,
    recombine_table,
    simplex_interior_table,
    simplex_table,
)


_Family = namedtuple("_Family", "values interiors descriptor r d_min value_check "
                     "interior_check d_top")


def _rectified(d: int, r: int | None) -> oracle.PolytopeDescriptor:
    return oracle.simplex(d) if r is None else oracle.rectified_simplex_descriptor(d, r)


FAMILIES = {
    "alpha": _Family("simplex_table", "simplex_interior_table", lambda d, r: oracle.simplex(d),
                     "refused", 0, "simplex-value", "simplex-interior", 8),
    "beta": _Family("cross_polytope_table", None, lambda d, r: oracle.cross_polytope(d),
                    "refused", 1, "cross-polytope", None, 6),
    "gamma": _Family("hypercube_table", None, lambda d, r: oracle.hypercube(d),
                     "refused", 1, "hypercube", None, 6),
    "lambda": _Family("rectified_simplex_table", "rectified_simplex_interior_table",
                      _rectified, "required", 1, "rectified-value", "rectified-interior", 7),
    "oracle": _Family(None, None, _rectified, "optional", 0, None, None, None),
}


def formula_columns(family: str, d: int, r: int | None, n_from: int, n_to: int,
                    want_interior: bool) -> tuple[list[int], list[int] | None]:
    """Closed-form values for n_from..n_to, and interiors when asked for and the row has them."""
    row = FAMILIES[family]
    args = (d, r, n_from, n_to) if row.r == "required" else (d, n_from, n_to)
    interiors = globals()[row.interiors](*args) if want_interior and row.interiors else None
    return globals()[row.values](*args), interiors


def family_descriptor(family: str, d: int, r: int | None) -> oracle.PolytopeDescriptor:
    """The oracle descriptor whose recursion a `seq` family's closed form matches."""
    return FAMILIES[family].descriptor(d, r)


def rectified_routes(d: int, r: int) -> dict[str, list[int]]:
    """Simplex-basis coefficients of the r-rectified d-simplex, by each route."""
    return {"shift-composition": rectified_decomposition(d, r),
            "gbinomial": rectified_decomposition_gbinom(d, r)}


def shift_routes(d: int, a: int, b: int) -> dict[str, list[int]]:
    """Simplex-basis coefficients of the stretched sequence, by each route."""
    return _shift_route_runs(d, a, [b])[0]


def _shift_route_runs(d: int, a: int, bs: list[int]) -> list[dict[str, list[int]]]:
    # `shift_routes` at each b of bs: the generating-function route one batch for the run.
    double_sums = [shift_decomposition(d, a, b) for b in bs]
    return [{"double-sum": double_sum, "generating-function": gf}
            for double_sum, gf in zip(double_sums, _shift_decompositions_gbinom(d, a, bs))]


def _check(name: str, lhs: object, rhs: object, **params: object) -> _Run:
    # One record as a one-row run, keyed by its last param.
    *fixed, (key, value) = params.items()
    return _Run(tuple(fixed), [value], (name, [lhs], [rhs]), key=key)


def _cap(default: int, bound: int | None) -> int:
    """A grid top under a bound: the default when unset, else the smaller of the two."""
    return default if bound is None else min(default, bound)


def oracle_checks(d_max: int | None = None, n_max: int | None = None) -> Iterator[IdentityCheck]:
    """Closed-form columns against `oracle_table`, bridges, degenerate families, censuses."""
    return _records(_oracle_runs(d_max, n_max))


def _oracle_runs(d_max: int | None, n_max: int | None) -> Iterator[_Run]:
    # The oracle suite's one body: its runs, in suite order.
    n_hi = _cap(oracle._MIN_HEAD, n_max)
    ns = range(1, n_hi + 1)

    # Each family's closed-form columns against the recursion of its descriptor.
    roots = []  # the census roots below: each family's descriptors at its top d
    for family, row in FAMILIES.items():
        if row.d_top is None:
            continue
        top = _cap(row.d_top, d_max)
        points = [(d, r) for d in range(row.d_min, top + 1)
                  for r in (range(1, d) if row.r == "required" else [None])]
        roots += [family_descriptor(family, d, r) for d, r in points if d == top]
        for d, r in points:
            fixed = (("d", d),) if r is None else (("d", d), ("r", r))
            values, interiors = formula_columns(family, d, r, 1, n_hi, bool(row.interior_check))
            oracle_values, oracle_interiors = oracle.oracle_table(
                family_descriptor(family, d, r), 1, n_hi)
            yield _Run(fixed, ns, (row.value_check, oracle_values, values),
                       *[(row.interior_check, oracle_interiors, interiors)]
                       if row.interior_check else ())

    # Known-sequence bridges; 3 * octahedral(n) = n (2n^2 + 1).
    bridge = _cap(200, n_max)
    yield _Run((), range(1, bridge + 1),
               ("octahedral-bridge", map(mul, repeat(3), rectified_simplex_table(3, 1, 1, bridge)),
                [n * (2 * n * n + 1) for n in range(1, bridge + 1)]))
    for d in range(1, _cap(8, d_max) + 1):
        simplex_values = simplex_table(d, 1, n_hi)
        yield _Run((("d", d),), ns,
                   ("zero-rectification", rectified_simplex_table(d, 0, 1, n_hi), simplex_values),
                   *[("dual-rectification", rectified_simplex_table(d, d - 1, 1, n_hi),
                      simplex_values)] if d >= 2 else ())
    for d in range(1, _cap(10, d_max) + 1):
        yield _Run((("d", d),), range(d),
                   ("vertex-count", [next(iter(rectified_simplex_table(d, r, 2, 2)), _MISSING)
                                     for r in range(d)],
                    [binomial(d + 1, r + 1) for r in range(d)]), key="r")

    # Degenerate-family conventions (d <= r), valid from n = 2.
    for r in range(1, _cap(8, d_max) + 1):
        values = rectified_simplex_table(r, r, 1, n_hi)
        # n = 1 alone, which has no interior-sign record, then the two in step.
        yield _Run((("r", r),), ns[:1], ("constant-family", values[:1], repeat(1)))
        yield _Run((("r", r),), ns[1:], ("constant-family", values[1:], repeat(1)),
                   ("interior-sign", rectified_simplex_interior_table(r, r, 2, n_hi),
                    repeat((-1) ** r)))
        for d in range(1, r):
            yield _Run((("d", d), ("r", r)), ns[1:],
                       ("vanishing-interior", rectified_simplex_interior_table(d, r, 2, n_hi),
                        repeat(0)))

    # Census structure: Euler relation over every census reachable from the
    # tested polytopes but a point (whose empty census would move the count),
    # plus two pinned f-vectors.
    closure = [p for p in oracle.face_closure(*roots) if not isinstance(p, oracle.Point)]
    censuses = list(map(oracle.faces_of, closure))
    yield _Run((), closure,
               ("euler-relation",
                [sum((-1) ** k * f for k, f in enumerate(census.f_vector()))
                 for census in censuses], [1 + (-1) ** (p.dimension - 1) for p in closure]),
               ("census-counts",
                [[e for e in census.entries if not 0 <= e.not_containing <= e.total]
                 for census in censuses], repeat([])), key="polytope")
    pinned = {oracle.hypersimplex(4, 2): (6, 12, 8), oracle.hypersimplex(5, 2): (10, 30, 30, 10)}
    polytopes = [p for p in pinned if d_max is None or d_max >= p.dimension]
    yield _Run((), polytopes, ("f-vector", [oracle.faces_of(p).f_vector() for p in polytopes],
                               [pinned[p] for p in polytopes]), key="polytope")


def decomposition_checks(d_max: int | None = None, n_max: int | None = None,
                         a_max: int | None = None,
                         b_max: int | None = None) -> Iterator[IdentityCheck]:
    """Coefficient route agreement, recombination and the shift identity."""
    return _records(_decomposition_runs(d_max, n_max, a_max, b_max))


def _decomposition_runs(d_max: int | None, n_max: int | None, a_max: int | None,
                        b_max: int | None) -> Iterator[_Run]:
    # The decompositions suite's one body: its runs, in suite order.
    n_hi = _cap(40, n_max)
    ns = range(1, n_hi + 1)
    for d in range(1, _cap(8, d_max) + 1):
        for r in range(d):
            routes = rectified_routes(d, r)
            via_shifts, *others = routes.values()
            for other in others:  # every route against the first
                yield _check("route-agreement", via_shifts, other, d=d, r=r)
            # Leading coefficient 1 and no negative coefficient.
            yield _check("coefficient-signs", (via_shifts[0], [c for c in via_shifts if c < 0]),
                         (1, []), d=d, r=r)
            yield _Run((("d", d), ("r", r)), ns,
                       ("recombination", recombine_table(routes["gbinomial"], d, 1, n_hi),
                        rectified_simplex_table(d, r, 1, n_hi)))

    # One coefficient vector per (d, a, b) serves every n of the identity, one
    # gbinomial batch per (d, a) the run of b, and one simplex column per (d, a)
    # every stretched argument >= 1.  No route reads that column: it would tie
    # the two sides of the identity together.
    m = _cap(30, n_max)
    for d in range(1, _cap(6, d_max) + 1):
        for a in range(1, _cap(5, a_max) + 1):
            stretched = simplex_table(d, 1, a * m - (a - 1))
            bs = range(_cap(5, b_max) + 1)
            for b, routes in zip(bs, _shift_route_runs(d, a, bs)):
                coeffs = routes["double-sum"]
                yield _check("shift-routes", coeffs, routes["generating-function"],
                             d=d, a=a, b=b)
                if b <= d:
                    yield _check("shift-support", len(coeffs), d + 1, d=d, a=a, b=b)
                # From the first n whose stretched argument a*n - (a-1) - b is >= 1.
                first = 1 - (-b // a)
                yield _Run((("d", d), ("a", a), ("b", b)), range(first, m + 1),
                           ("shift-identity", stretched[a * (first - 1) - b::a],
                            recombine_table(coeffs, d, 1, m)[first - 1:]))


# Each verify suite, in run order: its body, which yields runs, and the
# bounds it reads.
SUITES = {
    "identities": (_identity_runs, ("grid",)),
    "oracle": (_oracle_runs, ("d_max", "n_max")),
    "decompositions": (_decomposition_runs, ("d_max", "n_max", "a_max", "b_max")),
}
