"""Ground-truth sequence evaluation from the recursive face-lattice definition.

A polytope number sequence counts the points used to build nested copies of
a polytope that share one corner vertex: step n extends every edge at the
base vertex by one point and completes each face that avoids the base
vertex with the n-th array of that face's own sequence.  That recursion
only depends on how many faces of each combinatorial type the polytope has
and how many of them contain the base vertex, never on which vertex was
chosen, so polytopes are represented here by canonical descriptors and
faces by a census of (type, count, count avoiding the base vertex), empty
for the point, which has no proper faces.

Supported descriptor families: point, simplex, cross-polytope, hypercube,
and hypersimplex (the convex hull of the 0/1-vectors of length m with
exactly s ones, which is how rectified simplices arise).  Descriptors are
immutable tuples of their fields, canonicalized on construction and equal
only within their own type, so structural equality is type equality.
Simplex, cross-polytope and hypercube share one body holding the dimension
d >= 1, and one factory rule: d < 0 is an error and d = 0 gives POINT.

Evaluation is bottom-up, with no recursion on n.  Each descriptor has one
table, a pair of lists holding its value and interior counts for
n = 0 .. N, filled by the face-lattice recursion: a fill walks
`face_closure(p)`, p and every face type its census lists, faces first,
and extends each of their tables up to the asked n.  Size policy:
the recursion fills a fixed head, rows 0 .. H(p) with
H(p) = max(40, dim + 3), and never more; a descriptor's N is the largest
n asked of any descriptor whose closure contains it, capped at that
root's H.  Rows past H(p) are exact all the same: from row 2 on each
column is a polynomial in n of degree at most dim (Stanley, Enumerative
Combinatorics I, section 4.3), so the head's last dim + 2 rows fix every
later row.  A read past the head checks that their (dim+1)-th difference
is 0, raising ArithmeticError otherwise, jumps to the run's first row by
Newton's forward formula and runs dim nested prefix sums from there.  The
extension is this module's own, not the closed forms' kernel, so the
oracle stays an independent route at every n.  `table_sizes()` reports N
per descriptor and `clear_tables()` drops every table and face census.
Fills and clears run under one lock; a query its table already covers
reads without it, so concurrent readers are safe.  `oracle_table` reads a
run of n as value and interior columns, as the closed-form tables do;
`polytope_number` and `interior_number` read one row.
"""
from __future__ import annotations

import threading
from collections import namedtuple
from functools import lru_cache
from itertools import accumulate, islice, repeat
from math import comb
from operator import mul, sub
from typing import NamedTuple

from .exact import _check_dimension, binomial


class _Descriptor(tuple):
    """Fields in a tuple: equal and hashed by them, only within one type, and unordered."""

    __slots__ = ()
    __hash__ = tuple.__hash__

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        return not self == other

    def __lt__(self, other: object) -> bool:
        raise TypeError(f"polytope descriptors have no order: {self!r}, {other!r}")
    __le__ = __gt__ = __ge__ = __lt__


class Point(_Descriptor, namedtuple("Point", ())):
    __slots__ = ()

    @property
    def dimension(self) -> int:
        return 0


class _Dimensional(_Descriptor, namedtuple("_Dimensional", "d")):
    """A family with one polytope per dimension d >= 1; d = 0 is POINT."""

    __slots__ = ()

    def __new__(cls, d: int) -> _Dimensional:
        if d < 1:
            raise ValueError(f"{cls.__name__} needs d >= 1; the 0-dimensional case is POINT")
        return super().__new__(cls, d)

    @property
    def dimension(self) -> int:
        return self.d


class Simplex(_Dimensional):
    """The d-simplex."""
    __slots__ = ()


class CrossPolytope(_Dimensional):
    """The d-cross-polytope."""
    __slots__ = ()


class Hypercube(_Dimensional):
    """The d-hypercube."""
    __slots__ = ()


class Hypersimplex(_Descriptor, namedtuple("Hypersimplex", "m s")):
    # m: number of 0/1 coordinates; s: ones per vertex, canonical when 2 <= s <= m//2
    __slots__ = ()

    def __new__(cls, m: int, s: int) -> Hypersimplex:
        if not 2 <= s <= m // 2:
            raise ValueError("not in canonical form; construct via hypersimplex(m, s)")
        return super().__new__(cls, m, s)

    @property
    def dimension(self) -> int:
        return self.m - 1


PolytopeDescriptor = Point | Simplex | CrossPolytope | Hypercube | Hypersimplex

POINT = Point()


def _dimensional(family: type[_Dimensional], d: int) -> PolytopeDescriptor:
    _check_dimension(d)
    return POINT if d == 0 else family(d)


def simplex(d: int) -> PolytopeDescriptor:
    """Canonical descriptor of the d-simplex."""
    return _dimensional(Simplex, d)


def cross_polytope(d: int) -> PolytopeDescriptor:
    """Canonical descriptor of the d-cross-polytope."""
    return _dimensional(CrossPolytope, d)


def hypercube(d: int) -> PolytopeDescriptor:
    """Canonical descriptor of the d-hypercube."""
    return _dimensional(Hypercube, d)


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


class FaceEntry(NamedTuple):
    face: PolytopeDescriptor
    total: int
    not_containing: int  # faces of this type avoiding the base vertex


class FaceCensus(NamedTuple):
    polytope: PolytopeDescriptor
    entries: tuple[FaceEntry, ...]

    def f_vector(self) -> tuple[int, ...]:
        counts: dict[int, int] = {}
        for e in self.entries:
            counts[e.face.dimension] = counts.get(e.face.dimension, 0) + e.total
        return tuple(counts.get(k, 0) for k in range(self.polytope.dimension))


def _faces_first(p: PolytopeDescriptor) -> tuple[int, str]:
    """Sort key that puts every face before any polytope it is a face of."""
    return p.dimension, repr(p)


@lru_cache(maxsize=None)
def faces_of(p: PolytopeDescriptor) -> FaceCensus:
    """Census of all proper faces of p, one entry per face type.

    Every count pair is (total faces of that type, faces containing the base
    vertex); the stored entry keeps total and the complement.  Hypersimplex
    faces of dimension k >= 1 are indexed by disjoint coordinate sets (A, B)
    with |A| + |B| = m - k - 1: fixing the A coordinates to 0 and the B
    coordinates to 1 leaves a smaller hypersimplex, and the section is a
    proper face of dimension >= 1 exactly when 0 < s - |B| < m - |A| - |B|.
    The base vertex is the indicator vector of a fixed s-set S, and a face
    (A, B) contains it iff A avoids S and B lies inside S.  The point has
    no proper faces, so its census is empty.
    """
    counts: dict[PolytopeDescriptor, list[int]] = {}

    def add(face: PolytopeDescriptor, total: int, containing: int) -> None:
        slot = counts.setdefault(face, [0, 0])
        slot[0] += total
        slot[1] += containing

    match p:
        case Simplex(d):
            for k in range(d):
                add(simplex(k), binomial(d + 1, k + 1), binomial(d, k))
        case CrossPolytope(d):
            for k in range(d):
                add(simplex(k), 2 ** (k + 1) * binomial(d, k + 1), 2**k * binomial(d - 1, k))
        case Hypercube(d):
            for k in range(d):
                add(hypercube(k), 2 ** (d - k) * binomial(d, k), binomial(d, k))
        case Hypersimplex(m, s):
            add(POINT, binomial(m, s), 1)
            for k in range(1, m - 1):
                for a in range(m - k):
                    b = m - k - 1 - a
                    if 0 < s - b < m - a - b:
                        add(hypersimplex(m - a - b, s - b), binomial(m, a) * binomial(m - a, b),
                            binomial(m - s, a) * binomial(s, b))

    entries = tuple(FaceEntry(face, total, total - containing)
                    for face, (total, containing) in sorted(
                        counts.items(), key=lambda item: _faces_first(item[0])))
    return FaceCensus(p, entries)


def face_closure(*roots: PolytopeDescriptor) -> list[PolytopeDescriptor]:
    """The roots and every face of theirs, POINT included, faces first.

    A face of a face is a face (Ziegler, Lectures on Polytopes, 1995), so
    each root's census already lists every face type below it: the closure
    is the roots and the faces of their censuses.  Sorted by (dimension,
    repr), the order `faces_of` lists its entries in, so each face comes
    before any polytope it is a face of.
    """
    faces = {e.face for p in roots for e in faces_of(p).entries}
    return sorted(faces.union(roots), key=_faces_first)


_lock = threading.Lock()  # held by every fill and every change to the tables
# Each descriptor's (values, interiors) lists, indexed by n and grown in place.
_tables: dict[PolytopeDescriptor, tuple[list[int], list[int]]] = {}
_MIN_HEAD = 40  # every head fills rows 0 .. 40, the rows the verify oracle suite reads


def _head(p: PolytopeDescriptor) -> int:
    """H(p) = max(_MIN_HEAD, dim + 3), the last row the recursion fills for p.

    The verify oracle suite reads n <= _MIN_HEAD, so it compares raw
    recursion rows; dim + 3 puts the head's last dim + 2 rows at row 2 or
    later, where every column is a polynomial in n of degree at most dim.
    """
    return max(_MIN_HEAD, p.dimension + 3)


def _filled(p: PolytopeDescriptor, n: int) -> tuple[list[int], list[int]]:
    """The table of p, with every table of `face_closure(p)`, p's census then p, extended to n.

    Its caller asks for n <= H(p), so no table grows past the largest head
    of the roots asked.
    """
    with _lock:
        for q in [e.face for e in faces_of(p).entries] + [p]:
            # A point is its own interior: with no rows both of its lists run
            # 0, 1, 1, ...; any other polytope has no interior at n = 1.
            values, interiors = _tables.setdefault(
                q, ([0, 1], [0, 1 if isinstance(q, Point) else 0]))
            # One (faces avoiding the base vertex, total faces, face interiors)
            # row per census entry; the face's interior list is shared, not copied.
            rows = [(e.not_containing, e.total, _tables[e.face][1]) for e in faces_of(q).entries]
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


def _extended(rows: list[int], skip: int, count: int) -> list[int]:
    """Rows skip .. skip+count-1 of the sequence of degree <= dim whose rows 0 .. dim+1 are rows.

    Raises ArithmeticError unless the (dim+1)-th difference of rows is 0.
    """
    dim = len(rows) - 2
    forward = []  # forward[j]: the j-th forward difference at rows[0]
    while rows:
        forward.append(rows[0])
        rows = list(map(sub, rows[1:], rows[:-1]))
    if forward[-1]:
        raise ArithmeticError(f"oracle head rows are not of degree {dim}")
    # Newton's forward formula: the j-th difference at row skip is
    # sum_k (j+k)-th difference at row 0 * C(skip, k).
    steps = [comb(skip, k) for k in range(dim + 1)]
    at = [sum(map(mul, forward[j:dim + 1], steps)) for j in range(dim + 1)]
    # The prefix sums of the (j+1)-th differences from row skip, seeded
    # with the j-th difference there, are the j-th differences from row skip.
    rows = repeat(at[dim], count)
    for j in reversed(range(dim)):
        rows = accumulate(rows, initial=at[j])
    return list(islice(rows, count))


def oracle_table(p: PolytopeDescriptor, n_from: int, n_to: int) -> tuple[list[int], list[int]]:
    """Value and interior columns of p's recursion for n = n_from .. n_to.

    Rows with n <= 0 are 0 and fill no table.  Rows up to H(p) are slices
    of p's table, which is filled first, to min(n_to, H(p)), when it is
    shorter; rows past H(p) extend the head's last dim + 2 rows.  The
    covered test reads the interiors list, which a fill appends to after
    the values, so a lock-free read never sees a row without its interior.
    """
    start = max(n_from, 1)
    zeros = [0] * max(0, min(n_to, 0) - n_from + 1)
    if n_to < start:
        return zeros, zeros[:]
    head = _head(p)
    top = min(n_to, head)
    table = _tables.get(p)
    if table is None or len(table[1]) <= top:
        table = _filled(p, top)
    columns = tuple(zeros + column[start:top + 1] for column in table)
    if n_to > head:
        first = max(start, head + 1)
        base = head - p.dimension - 1
        for column, full in zip(columns, table):
            column += _extended(full[base:head + 1], first - base, n_to - first + 1)
    return columns


def polytope_number(p: PolytopeDescriptor, n: int) -> int:
    """n-th term of the polytope number sequence of p: one row of oracle_table.

    A read past the head redoes the Newton jump on both columns per call,
    so a loop over n should read its run through oracle_table.
    """
    return oracle_table(p, n, n)[0][0]


def interior_number(p: PolytopeDescriptor, n: int) -> int:
    """n-th interior count of p, the total minus every proper face's interior: one row.

    A read past the head redoes the Newton jump on both columns per call,
    so a loop over n should read its run through oracle_table.
    """
    return oracle_table(p, n, n)[1][0]


def table_sizes() -> dict[PolytopeDescriptor, int]:
    """Largest n each descriptor's table holds (it holds every n from 0).

    At most the largest head H = max(40, dim + 3) of the roots asked whose
    closure holds the descriptor: rows past a head are extended, not kept.
    """
    with _lock:
        return {p: len(values) - 1 for p, (values, _) in _tables.items()}


def clear_tables() -> None:
    """Drop every table and face census; later calls refill from scratch."""
    with _lock:
        _tables.clear()
        faces_of.cache_clear()
