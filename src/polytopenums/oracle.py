"""Ground-truth sequence evaluation from the recursive face-lattice definition.

A polytope number sequence counts the points used to build nested copies of
a polytope that share one corner vertex: step n extends every edge at the
base vertex by one point and completes each face that avoids the base
vertex with the n-th array of that face's own sequence.  That recursion
only depends on how many faces of each combinatorial type the polytope has
and how many of them contain the base vertex, never on which vertex was
chosen, so polytopes are represented here by canonical descriptors and
faces by a census of (type, count, count avoiding the base vertex).

Supported descriptor families: point, simplex, cross-polytope, hypercube,
and hypersimplex (the convex hull of the 0/1-vectors of length m with
exactly s ones, which is how rectified simplices arise).  Descriptors are
canonicalized on construction so that structural equality is type equality.

Evaluation is bottom-up, with no recursion on n.  Each descriptor gets a
plan once: its own table and those of every face in its transitive face
closure, ordered by dimension.  A table holds the value and interior counts
for n = 0 .. N, and a query past N extends every table of the plan up to
the asked n, faces first.  Size policy: a descriptor's N is the largest n
asked of any descriptor whose closure contains it, never more.
`table_sizes()` reports N per descriptor and `clear_tables()` drops every
table, plan and face census.  Fills and clears run under one lock; a query
its table already covers reads without it, so concurrent readers are safe.
`oracle_table` reads a run of n as value and interior columns, as the
closed-form tables do; `polytope_number` and `interior_number` read one row.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import lru_cache

from .exact import binomial


@dataclass(frozen=True)
class Point:
    @property
    def dimension(self) -> int:
        return 0


@dataclass(frozen=True)
class Simplex:
    d: int

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError("use simplex(0) / POINT for the 0-dimensional case")

    @property
    def dimension(self) -> int:
        return self.d


@dataclass(frozen=True)
class CrossPolytope:
    d: int

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError("cross-polytope dimension must be positive")

    @property
    def dimension(self) -> int:
        return self.d


@dataclass(frozen=True)
class Hypercube:
    d: int

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError("hypercube dimension must be positive")

    @property
    def dimension(self) -> int:
        return self.d


@dataclass(frozen=True)
class Hypersimplex:
    m: int  # number of 0/1 coordinates
    s: int  # ones per vertex; canonical form has 2 <= s <= m//2

    def __post_init__(self) -> None:
        if not 2 <= self.s <= self.m // 2:
            raise ValueError("not in canonical form; construct via hypersimplex(m, s)")

    @property
    def dimension(self) -> int:
        return self.m - 1


PolytopeDescriptor = Point | Simplex | CrossPolytope | Hypercube | Hypersimplex

POINT = Point()


def simplex(d: int) -> PolytopeDescriptor:
    """Canonical descriptor of the d-simplex."""
    if d < 0:
        raise ValueError(f"dimension must be nonnegative, got d={d}")
    return POINT if d == 0 else Simplex(d)


def cross_polytope(d: int) -> PolytopeDescriptor:
    """Canonical descriptor of the d-cross-polytope."""
    if d < 0:
        raise ValueError(f"dimension must be nonnegative, got d={d}")
    return POINT if d == 0 else CrossPolytope(d)


def hypercube(d: int) -> PolytopeDescriptor:
    """Canonical descriptor of the d-hypercube."""
    if d < 0:
        raise ValueError(f"dimension must be nonnegative, got d={d}")
    return POINT if d == 0 else Hypercube(d)


def hypersimplex(m: int, s: int) -> PolytopeDescriptor:
    """Canonical descriptor of the hypersimplex with m coordinates, s ones.

    Complement symmetry (s vs m-s) is applied on construction; s in {0, m}
    collapses to a point and s = 1 to the (m-1)-simplex, so equal shapes
    always compare equal.
    """
    if m < 2:
        raise ValueError(f"need at least two coordinates, got m={m}")
    if not 0 <= s <= m:
        raise ValueError(f"ones count must satisfy 0 <= s <= m, got s={s}")
    if s in (0, m):
        return POINT
    s = min(s, m - s)
    return simplex(m - 1) if s == 1 else Hypersimplex(m, s)


def rectified_simplex_descriptor(d: int, r: int) -> PolytopeDescriptor:
    """Descriptor of the r-rectified d-simplex: vertices are the (r+1)-subsets."""
    if not 0 <= r < d:
        raise ValueError(f"rectification requires 0 <= r < d, got d={d} r={r}")
    return hypersimplex(d + 1, r + 1)


@dataclass(frozen=True)
class FaceEntry:
    face: PolytopeDescriptor
    dim: int
    total: int
    not_containing: int  # faces of this type avoiding the base vertex

    @property
    def containing(self) -> int:
        return self.total - self.not_containing


@dataclass(frozen=True)
class FaceCensus:
    polytope: PolytopeDescriptor
    entries: tuple[FaceEntry, ...]

    def f_vector(self) -> tuple[int, ...]:
        counts: dict[int, int] = {}
        for e in self.entries:
            counts[e.dim] = counts.get(e.dim, 0) + e.total
        return tuple(counts.get(k, 0) for k in range(self.polytope.dimension))

    def euler_ok(self) -> bool:
        """Alternating face-count sum matches 1 + (-1)**(dimension-1)."""
        alternating = sum((-1) ** k * f for k, f in enumerate(self.f_vector()))
        return alternating == 1 + (-1) ** (self.polytope.dimension - 1)

    def entries_of_dim(self, k: int) -> tuple[FaceEntry, ...]:
        return tuple(e for e in self.entries if e.dim == k)


@lru_cache(maxsize=None)
def faces_of(p: PolytopeDescriptor) -> FaceCensus:
    """Census of all proper faces of p, one entry per (type, dimension).

    Every count pair is (total faces of that type, faces containing the base
    vertex); the stored entry keeps total and the complement.  Hypersimplex
    faces of dimension k >= 1 are indexed by disjoint coordinate sets (A, B)
    with |A| + |B| = m - k - 1: fixing the A coordinates to 0 and the B
    coordinates to 1 leaves a smaller hypersimplex, and the section is a
    proper face of dimension >= 1 exactly when 0 < s - |B| < m - |A| - |B|.
    The base vertex is the indicator vector of a fixed s-set S, and a face
    (A, B) contains it iff A avoids S and B lies inside S.
    """
    if isinstance(p, Point):
        raise ValueError("a point has no proper faces")

    counts: dict[tuple[int, PolytopeDescriptor], list[int]] = {}

    def add(face: PolytopeDescriptor, dim: int, total: int, containing: int) -> None:
        slot = counts.setdefault((dim, face), [0, 0])
        slot[0] += total
        slot[1] += containing

    match p:
        case Simplex(d):
            for k in range(d):
                add(simplex(k), k, binomial(d + 1, k + 1), binomial(d, k))
        case CrossPolytope(d):
            for k in range(d):
                add(simplex(k), k, 2 ** (k + 1) * binomial(d, k + 1), 2**k * binomial(d - 1, k))
        case Hypercube(d):
            for k in range(d):
                add(hypercube(k), k, 2 ** (d - k) * binomial(d, k), binomial(d, k))
        case Hypersimplex(m, s):
            add(POINT, 0, binomial(m, s), 1)
            for k in range(1, m - 1):
                for a in range(m - k):
                    b = m - k - 1 - a
                    if 0 < s - b < m - a - b:
                        add(
                            hypersimplex(m - a - b, s - b),
                            k,
                            binomial(m, a) * binomial(m - a, b),
                            binomial(m - s, a) * binomial(s, b),
                        )

    entries = tuple(
        FaceEntry(face, dim, total, total - containing)
        for (dim, face), (total, containing) in sorted(
            counts.items(), key=lambda item: (item[0][0], repr(item[0][1]))
        )
    )
    return FaceCensus(p, entries)


class _Table:
    """Value and interior lists of one descriptor, indexed by n, grown in place."""

    __slots__ = ("values", "interiors", "rows")

    def __init__(self, p: PolytopeDescriptor, rows: tuple[tuple[int, int, list[int]], ...]):
        # A point is its own interior: with no rows both of its lists run
        # 0, 1, 1, ...; any other polytope has no interior at n = 1.
        self.values = [0, 1]
        self.interiors = [0, 1 if isinstance(p, Point) else 0]
        # One (faces avoiding the base vertex, total faces, face interiors)
        # row per census entry; the face's interior list is shared, not copied.
        self.rows = rows


_lock = threading.Lock()  # held by every fill and every change to the tables
_tables: dict[PolytopeDescriptor, _Table] = {}
_plans: dict[PolytopeDescriptor, tuple[_Table, ...]] = {}


def _plan(p: PolytopeDescriptor) -> tuple[_Table, ...]:
    """Tables of p and all its faces, faces first; built once per descriptor.

    Callers hold the lock.  Members are ordered by (dimension, repr), so each
    face's table exists, and is filled, before any table that reads it.
    """
    plan = _plans.get(p)
    if plan is not None:
        return plan
    entries: dict[PolytopeDescriptor, tuple[FaceEntry, ...]] = {}
    stack = [p]
    while stack:
        q = stack.pop()
        if q not in entries:
            entries[q] = () if isinstance(q, Point) else faces_of(q).entries
            stack.extend(e.face for e in entries[q])
    members = sorted(entries, key=lambda q: (q.dimension, repr(q)))
    for q in members:
        if q not in _tables:
            rows = tuple((e.not_containing, e.total, _tables[e.face].interiors)
                         for e in entries[q])
            _tables[q] = _Table(q, rows)
    plan = _plans[p] = tuple(_tables[q] for q in members)
    return plan


def _filled(p: PolytopeDescriptor, n: int) -> _Table:
    """The table of p, with it and every face table extended to hold n."""
    with _lock:
        for table in _plan(p):
            values, interiors, rows = table.values, table.interiors, table.rows
            for k in range(len(values), n + 1):
                grown = inside_faces = 0
                for avoiding, total, face_interiors in rows:
                    x = face_interiors[k]
                    grown += avoiding * x
                    inside_faces += total * x
                value = values[-1] + grown
                values.append(value)
                interiors.append(value - inside_faces)
        return _tables[p]


def oracle_table(p: PolytopeDescriptor, n_from: int, n_to: int) -> tuple[list[int], list[int]]:
    """Value and interior columns of p's recursion for n = n_from .. n_to.

    Rows with n <= 0 are 0 and fill no table; otherwise p's table is filled
    to n_to first when it is shorter, and the columns are its slices.  The
    covered test reads the interiors list, which a fill appends to after
    the values, so a lock-free read never sees a row without its interior.
    """
    start = max(n_from, 1)
    zeros = [0] * max(0, min(n_to, 0) - n_from + 1)
    if n_to < start:
        return zeros, zeros[:]
    table = _tables.get(p)
    if table is None or len(table.interiors) <= n_to:
        table = _filled(p, n_to)
    return zeros + table.values[start:n_to + 1], zeros + table.interiors[start:n_to + 1]


def polytope_number(p: PolytopeDescriptor, n: int) -> int:
    """n-th term of the polytope number sequence of p: one row of oracle_table."""
    return oracle_table(p, n, n)[0][0]


def interior_number(p: PolytopeDescriptor, n: int) -> int:
    """n-th interior count of p, the total minus every proper face's interior: one row."""
    return oracle_table(p, n, n)[1][0]


def table_sizes() -> dict[PolytopeDescriptor, int]:
    """Largest n each descriptor's table holds (it holds every n from 0)."""
    with _lock:
        return {p: len(table.values) - 1 for p, table in _tables.items()}


def clear_tables() -> None:
    """Drop every table, plan and face census; later calls refill from scratch."""
    with _lock:
        _tables.clear()
        _plans.clear()
        faces_of.cache_clear()
