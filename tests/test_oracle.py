"""Tests for the recursive face-lattice oracle."""
import operator
import random
import sys
import threading

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from polytopenums import checks, oracle
from polytopenums.oracle import (
    POINT,
    CrossPolytope,
    FaceCensus,
    FaceEntry,
    Hypercube,
    Hypersimplex,
    Point,
    Simplex,
    clear_tables,
    cross_polytope,
    face_closure,
    faces_of,
    hypercube,
    hypersimplex,
    interior_number,
    oracle_table,
    polytope_number,
    rectified_simplex_descriptor,
    simplex,
    table_sizes,
)
from polytopenums.rectified import (
    rectified_simplex_interior,
    rectified_simplex_interior_table,
    rectified_simplex_number,
    rectified_simplex_table,
)
from polytopenums.regular import (
    cross_polytope_table,
    hypercube_table,
    simplex_interior,
    simplex_interior_table,
    simplex_number,
    simplex_table,
)


def plain_number(p, n):
    """Recursion without memoization, for cache-consistency checks."""
    if n <= 0:
        return 0
    if isinstance(p, Point) or n == 1:
        return 1
    return plain_number(p, n - 1) + sum(
        e.not_containing * plain_interior(e.face, n) for e in faces_of(p).entries
    )


def plain_interior(p, n):
    if n <= 0:
        return 0
    if isinstance(p, Point):
        return 1
    if n == 1:
        return 0
    return plain_number(p, n) - sum(
        e.total * plain_interior(e.face, n) for e in faces_of(p).entries
    )


DIMENSIONAL = (Simplex, CrossPolytope, Hypercube)
DESCRIPTORS = st.one_of(
    st.just(POINT),
    st.builds(lambda family, d: family(d), st.sampled_from(DIMENSIONAL), st.integers(1, 12)),
    st.integers(4, 12).flatmap(
        lambda m: st.builds(Hypersimplex, st.just(m), st.integers(2, m // 2))),
)


class TestDescriptors:
    def test_canonicalization(self):
        assert simplex(0) is POINT
        assert cross_polytope(0) is POINT
        assert hypercube(0) is POINT
        assert hypersimplex(5, 0) is POINT
        assert hypersimplex(5, 5) is POINT
        assert hypersimplex(2, 1) == simplex(1)
        assert hypersimplex(4, 3) == hypersimplex(4, 1) == simplex(3)
        assert hypersimplex(7, 5) == hypersimplex(7, 2)
        assert rectified_simplex_descriptor(3, 1) == hypersimplex(4, 2)
        assert rectified_simplex_descriptor(4, 3) == simplex(4)  # dual collapses

    def test_dimensions(self):
        assert POINT.dimension == 0
        assert simplex(3).dimension == 3
        assert cross_polytope(4).dimension == 4
        assert hypercube(2).dimension == 2
        assert hypersimplex(6, 2).dimension == 5

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            hypersimplex(1, 0)
        with pytest.raises(ValueError):
            hypersimplex(4, 5)
        for factory in (simplex, cross_polytope, hypercube):
            with pytest.raises(ValueError, match="got d=-1"):
                factory(-1)
        with pytest.raises(ValueError):
            rectified_simplex_descriptor(3, 3)
        with pytest.raises(ValueError):
            Hypersimplex(4, 1)  # must go through the canonicalizing factory
        for built_directly in (Simplex, CrossPolytope, Hypercube):
            with pytest.raises(ValueError, match="is POINT"):
                built_directly(0)  # the 0-dimensional case is POINT

    def test_repr_and_identity(self):
        # `_faces_first` sorts by repr, so it is part of the fill order.
        assert repr(simplex(3)) == "Simplex(d=3)"
        assert repr(cross_polytope(3)) == "CrossPolytope(d=3)"
        assert repr(hypercube(3)) == "Hypercube(d=3)"
        shapes = [Simplex(3), CrossPolytope(3), Hypercube(3)]
        assert len({shape: k for k, shape in enumerate(shapes)}) == 3
        assert all(a != b for k, a in enumerate(shapes) for b in shapes[k + 1:])
        assert Simplex(3) == simplex(3) and hash(Simplex(3)) == hash(simplex(3))
        assert repr(POINT) == str(POINT) == "Point()" and POINT == Point()
        assert hash(POINT) == hash(()) and POINT != () and () != POINT

    # The contract of the tuple-backed descriptors: each holds what the
    # frozen-dataclass descriptors did, and none compares as a plain tuple.
    @given(st.integers(1, 12))
    def test_dimensional_families_equal_only_within_their_type(self, d):
        shapes = [family(d) for family in DIMENSIONAL]
        for family, shape in zip(DIMENSIONAL, shapes):
            assert repr(shape) == str(shape) == f"{family.__name__}(d={d})"
            assert hash(shape) == hash((d,))  # the hash of the field tuple
            assert shape == family(d) and not shape != family(d)
            assert shape != (d,) and (d,) != shape
            assert not shape == (d,) and not (d,) == shape
        for a in shapes:
            for b in shapes:
                same = type(a) is type(b)
                assert (a == b, a != b, hash(a) == hash(b)) == (same, not same, True)

    @given(st.integers(4, 12).flatmap(lambda m: st.tuples(st.just(m), st.integers(2, m // 2))))
    def test_hypersimplex_values(self, ms):
        m, s = ms
        shape = hypersimplex(m, s)
        assert repr(shape) == str(shape) == f"Hypersimplex(m={m}, s={s})"
        assert hash(shape) == hash((m, s)) and shape == Hypersimplex(m, s)
        assert shape != (m, s) and (m, s) != shape and not shape == (m, s)

    @given(DESCRIPTORS)
    def test_descriptors_are_immutable_and_unordered(self, p):
        for name in ("d", "m", "s", "dimension", "extra"):
            with pytest.raises(AttributeError):
                setattr(p, name, 7)
        for other in (p, simplex(3), (3,), ()):
            for compare in (operator.lt, operator.le, operator.gt, operator.ge):
                with pytest.raises(TypeError):
                    compare(p, other)
                with pytest.raises(TypeError):
                    compare(other, p)

    @given(DESCRIPTORS)
    def test_class_patterns_bind_the_fields(self, p):
        match p:
            case Simplex(d) | CrossPolytope(d) | Hypercube(d):
                fields = (d,)
            case Hypersimplex(m, s):
                fields = (m, s)
            case Point():
                fields = ()
        names = {Point: (), Hypersimplex: ("m", "s")}.get(type(p), ("d",))
        assert type(p).__match_args__ == names
        assert fields == tuple(getattr(p, name) for name in names)
        assert type(p)(*fields) == p

    def test_constructor_messages(self):
        for family in DIMENSIONAL:
            with pytest.raises(ValueError) as raised:
                family(0)
            assert str(raised.value) == (
                f"{family.__name__} needs d >= 1; the 0-dimensional case is POINT")
        with pytest.raises(ValueError) as raised:
            Hypersimplex(6, 1)
        assert str(raised.value) == "not in canonical form; construct via hypersimplex(m, s)"
        with pytest.raises(ValueError) as raised:
            simplex(-2)
        assert str(raised.value) == "dimension must be nonnegative, got d=-2"

    def test_face_closure_order(self):
        assert [repr(q) for q in face_closure(hypercube(3), hypersimplex(6, 3))] == [
            "Point()", "Hypercube(d=1)", "Simplex(d=1)", "Hypercube(d=2)", "Simplex(d=2)",
            "Hypercube(d=3)", "Hypersimplex(m=4, s=2)", "Simplex(d=3)",
            "Hypersimplex(m=5, s=2)", "Hypersimplex(m=6, s=3)"]

    @given(st.lists(DESCRIPTORS, min_size=1, max_size=3))
    def test_face_closure_sorts_by_dimension_then_repr(self, roots):
        closure = face_closure(*roots)
        assert closure == sorted(closure, key=lambda q: (q.dimension, repr(q)))
        assert len(set(closure)) == len(closure)


# The census tests' roots: every family, at several dimensions.
CENSUS_ROOTS = [simplex(8), cross_polytope(6), hypercube(6)] + [
    hypersimplex(m, s) for m in range(4, 10) for s in range(2, m // 2 + 1)]


class TestCensus:
    def test_triangle(self):
        census = faces_of(simplex(2))
        assert [(e.face.dimension, e.total, e.not_containing) for e in census.entries] == [
            (0, 3, 2),
            (1, 3, 1),
        ]

    def test_octahedron(self):
        census = faces_of(hypersimplex(4, 2))
        assert census.f_vector() == (6, 12, 8)
        assert [(e.face.dimension, e.total, e.not_containing) for e in census.entries] == [
            (0, 6, 5),
            (1, 12, 8),
            (2, 8, 4),
        ]
        # Vertex figure: 4 edges and 4 triangles meet at each vertex.
        assert [e.total - e.not_containing for e in census.entries] == [1, 4, 4]
        assert all(e.face == simplex(e.face.dimension) for e in census.entries)

    def test_rectified_four_simplex(self):
        census = faces_of(hypersimplex(5, 2))
        assert census.f_vector() == (10, 30, 30, 10)
        cells = {e.face: e.total for e in census.entries if e.face.dimension == 3}
        assert cells == {simplex(3): 5, hypersimplex(4, 2): 5}

    def test_cross_polytope_and_cube(self):
        octa = faces_of(cross_polytope(3))
        assert octa.f_vector() == (6, 12, 8)
        cube = faces_of(hypercube(3))
        assert cube.f_vector() == (8, 12, 6)
        assert [e.total - e.not_containing for e in cube.entries] == [1, 3, 3]

    def test_euler_relation_everywhere(self):
        point, *polytopes = face_closure(*CENSUS_ROOTS)
        assert point is POINT  # the one 0-dimensional descriptor sorts first
        for p in polytopes:
            census = faces_of(p)
            alternating = sum((-1) ** k * f for k, f in enumerate(census.f_vector()))
            assert alternating == 1 + (-1) ** (p.dimension - 1), p
            for e in census.entries:
                assert 0 <= e.not_containing <= e.total
        assert len(polytopes) > 25  # the roots' censuses bring in faces that are not roots

    @pytest.mark.parametrize("roots", [[root] for root in CENSUS_ROOTS] + [CENSUS_ROOTS],
                             ids=[repr(root) for root in CENSUS_ROOTS] + ["all-roots"])
    def test_face_closure_is_closed_and_faces_first(self, roots):
        # The closure reads only the roots' censuses, so this holds each
        # census to listing every face of each of its faces.
        closure = face_closure(*roots)
        assert all(root in closure for root in roots) and POINT in closure
        position = {q: i for i, q in enumerate(closure)}
        for q in closure:
            if not isinstance(q, Point):
                for e in faces_of(q).entries:
                    assert position[e.face] < position[q]

    def test_census_records_keep_their_fields_and_repr(self):
        census = faces_of(cross_polytope(2))
        assert repr(census) == (
            "FaceCensus(polytope=CrossPolytope(d=2), entries=("
            "FaceEntry(face=Point(), total=4, not_containing=3), "
            "FaceEntry(face=Simplex(d=1), total=4, not_containing=2)))")
        entry = FaceEntry(face=POINT, total=4, not_containing=3)
        assert census == FaceCensus(polytope=cross_polytope(2),
                                    entries=(entry, FaceEntry(simplex(1), 4, 2)))
        assert (entry.face, entry.total, entry.not_containing) == (POINT, 4, 3)
        assert census.f_vector() == (4, 4)
        with pytest.raises(AttributeError):
            census.entries = ()

    def test_a_census_then_its_polytope_is_the_face_closure(self):
        # A fill walks p's census entries, then p, as `face_closure(p)` with
        # no sort: the two lists are equal for every descriptor of the four
        # families up to dimension 10.
        descriptors = {family(d) for family in (simplex, cross_polytope, hypercube)
                       for d in range(11)}
        descriptors |= {hypersimplex(m, s) for m in range(2, 12) for s in range(m + 1)}
        assert len(descriptors) == 1 + 3 * 10 + sum(m // 2 - 1 for m in range(4, 12))
        for p in descriptors:
            assert [e.face for e in faces_of(p).entries] + [p] == face_closure(p), p

    def test_point_has_no_census(self):
        # A point has no proper faces: its census is empty, not an error.
        assert faces_of(POINT) == FaceCensus(POINT, ())
        assert faces_of(POINT).f_vector() == ()
        assert face_closure(POINT) == [POINT]


class TestRecursion:
    def test_examples(self):
        assert polytope_number(simplex(2), 3) == 6
        assert polytope_number(POINT, 7) == 1
        assert polytope_number(hypersimplex(4, 2), 3) == 19
        assert interior_number(simplex(1), 5) == 3
        assert interior_number(hypersimplex(4, 2), 3) == 1
        for p in (simplex(3), cross_polytope(2), hypersimplex(5, 2)):
            assert interior_number(p, 1) == 0

    def test_table_examples(self):
        # Interior column of the triangle table is C(n-2, 2): 0, 0, 0, 0, 1.
        assert oracle_table(simplex(2), 0, 4) == ([0, 1, 3, 6, 10], [0, 0, 0, 0, 1])
        assert oracle_table(cross_polytope(2), 0, 3)[0] == [0, 1, 4, 9]
        assert oracle_table(hypercube(3), 2, 3)[0] == [8, 27]

    def test_empty_runs_and_rows_at_or_below_zero(self):
        clear_tables()
        p = hypersimplex(5, 2)
        assert oracle_table(p, 5, 4) == ([], [])
        assert oracle_table(p, -1, -2) == ([], [])
        assert polytope_number(p, -7) == interior_number(p, 0) == 0
        assert table_sizes() == {}  # no run above reached n = 1
        assert oracle_table(p, -2, 2) == ([0, 0, 0, 1, 10], [0, 0, 0, 0, 0])
        assert table_sizes()[p] == 2

    def test_memoized_matches_plain_recursion(self):
        for d in range(5):
            p = simplex(d)
            for n in range(11):
                assert polytope_number(p, n) == plain_number(p, n)
                assert interior_number(p, n) == plain_interior(p, n)

    def test_census_is_cached_per_descriptor(self):
        assert faces_of(simplex(5)) is faces_of(simplex(5))
        assert isinstance(faces_of(simplex(5)), FaceCensus)


class TestTables:
    @pytest.fixture(autouse=True)
    def cold(self):
        clear_tables()

    def test_cold_deep_queries_match_closed_forms(self):
        cases = [
            (simplex(3), simplex_number(3, 5000), simplex_interior(3, 5000)),
            (hypersimplex(6, 3), rectified_simplex_number(5, 2, 5000),
             rectified_simplex_interior(5, 2, 5000)),
        ]
        for p, value, interior in cases:
            clear_tables()
            assert polytope_number(p, 5000) == value
            assert interior_number(p, 5000) == interior
            assert table_sizes()[p] == 40  # the head, max(40, dim + 3)

    def test_size_is_the_largest_n_asked_across_the_closure(self):
        polytope_number(simplex(3), 7)
        assert table_sizes() == {POINT: 7, simplex(1): 7, simplex(2): 7, simplex(3): 7}
        interior_number(simplex(2), 4)
        polytope_number(simplex(3), 0)
        assert set(table_sizes().values()) == {7}
        interior_number(simplex(2), 9)
        assert table_sizes() == {POINT: 9, simplex(1): 9, simplex(2): 9, simplex(3): 7}
        clear_tables()
        assert table_sizes() == {}

    def test_cold_fill_sizes_every_table_of_the_closure(self):
        p = rectified_simplex_descriptor(5, 2)
        oracle_table(p, 0, 25)
        assert table_sizes() == {q: 25 for q in face_closure(p)}

    def test_clear_tables_also_drops_the_census_memo(self):
        p = rectified_simplex_descriptor(5, 2)
        before = oracle_table(p, 0, 40)
        assert faces_of.cache_info().currsize > 0
        clear_tables()
        assert faces_of.cache_info().currsize == 0
        assert oracle_table(p, 0, 40) == before

    def test_table_fills_only_when_it_is_short(self, monkeypatch):
        fills = []

        def counted(p, n, fill=oracle._filled):
            fills.append(n)
            return fill(p, n)

        monkeypatch.setattr(oracle, "_filled", counted)
        p = rectified_simplex_descriptor(5, 2)
        cold = oracle_table(p, 0, 40)
        assert fills == [40]
        # Covered reads, of p and of a face in its closure, take no lock.
        assert oracle_table(p, 0, 40) == cold
        assert oracle_table(p, 7, 40) == (cold[0][7:], cold[1][7:])
        assert oracle_table(simplex(3), 40, 40) == ([simplex_number(3, 40)],
                                                    [simplex_interior(3, 40)])
        assert fills == [40]

    @pytest.mark.parametrize("order", ["descending", "shuffled"])
    def test_query_order_does_not_change_tables(self, order):
        p, ns = hypersimplex(5, 2), list(range(60))

        def tables_after(queries):
            clear_tables()
            answers = [(polytope_number(p, n), interior_number(p, n)) for n in queries]
            sizes = table_sizes()
            return sizes, {q: oracle_table(q, 0, k) for q, k in sizes.items()}, answers

        sizes, contents, answers = tables_after(ns)
        queries = ns[::-1] if order == "descending" else random.Random(7).sample(ns, len(ns))
        other_sizes, other_contents, other_answers = tables_after(queries)
        assert other_sizes == sizes
        assert other_contents == contents
        assert sorted(zip(queries, other_answers)) == list(zip(ns, answers))

    def test_concurrent_cold_fills_agree_with_closed_form(self):
        p = rectified_simplex_descriptor(5, 2)

        def query(t, start, results):
            start.wait()
            results[t] = [(n, *oracle_table(p, n - 3, n))
                          for n in range(3000 - 200 * t, 0, -37)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                clear_tables()
                polytope_number(p, 1)  # every table of the closure exists, ending at n = 1
                start, results = threading.Barrier(4, timeout=60), {}
                threads = [threading.Thread(target=query, args=(t, start, results))
                           for t in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                rows = [row for t in range(4) for row in results[t]]
                assert table_sizes()[p] == 40  # the head, max(40, dim + 3)
                for n, values, interiors in rows:
                    assert values == rectified_simplex_table(5, 2, n - 3, n)
                    assert interiors == rectified_simplex_interior_table(5, 2, n - 3, n)
        finally:
            sys.setswitchinterval(interval)


def plain_tables(roots, n_to):
    """Every table of the roots' closure by the recursion alone, rows 0 .. n_to.

    A loop with no head and no extension: the reference the bounded
    tables are held to.
    """
    tables = {}
    for q in face_closure(*roots):
        if isinstance(q, Point):
            tables[q] = ([0] + [1] * n_to, [0] + [1] * n_to)
            continue
        entries = faces_of(q).entries
        values, interiors = [0, 1], [0, 0]
        for n in range(2, n_to + 1):
            face_interiors = [tables[e.face][1][n] for e in entries]
            value = values[-1] + sum(e.not_containing * x for e, x in zip(entries, face_interiors))
            values.append(value)
            interiors.append(value - sum(e.total * x for e, x in zip(entries, face_interiors)))
        tables[q] = (values, interiors)
    return tables


# The verify oracle suite's roots and every rectified simplex with d <= 10.
GUARD_ROOTS = [simplex(8), hypercube(6), *map(cross_polytope, range(1, 7))]
GUARD_ROOTS += [rectified_simplex_descriptor(d, r) for d in range(1, 11) for r in range(d)]
# Runs below the head (rows 0 .. 40 here), across it and far past it.
GUARD_RUNS = [(0, 39), (0, 40), (38, 42), (40, 41), (41, 41), (1, 500), (137, 138), (499, 500)]


@st.composite
def family_runs(draw):
    """(family, d, r, n_from, n_to): a descriptor and a run of up to 31 rows below n = 10**30."""
    family = draw(st.sampled_from(["simplex", "cross-polytope", "hypercube", "rectified"]))
    d = draw(st.integers(1, 11 if family == "rectified" else 45))
    r = draw(st.integers(0, d - 1)) if family == "rectified" else None
    n_from = draw(st.integers(-5, 10**30))
    return family, d, r, n_from, n_from + draw(st.integers(-1, 30))


class TestHead:
    @pytest.fixture(autouse=True)
    def cold(self):
        clear_tables()

    def test_bounded_tables_equal_the_plain_recursion(self):
        plain = plain_tables(GUARD_ROOTS, 500)
        assert len(plain) > 40
        for n_from, n_to in GUARD_RUNS:
            for q, (values, interiors) in plain.items():
                expected = values[n_from:n_to + 1], interiors[n_from:n_to + 1]
                assert oracle_table(q, n_from, n_to) == expected, (q, n_from, n_to)
        assert max(table_sizes().values()) == 40

    @given(family_runs())
    @example(("simplex", 45, None, 40, 60))  # dim + 3 > 40: a longer head
    @example(("hypercube", 39, None, 2**64 - 5, 2**64 + 5))
    def test_reads_far_past_the_head_equal_the_closed_forms(self, run):
        family, d, r, n_from, n_to = run
        if family == "rectified":
            values, interiors = oracle_table(rectified_simplex_descriptor(d, r), n_from, n_to)
            assert values == rectified_simplex_table(d, r, n_from, n_to)
            assert interiors == rectified_simplex_interior_table(d, r, n_from, n_to)
        elif family == "simplex":
            assert oracle_table(simplex(d), n_from, n_to) == (
                simplex_table(d, n_from, n_to), simplex_interior_table(d, n_from, n_to))
        elif family == "cross-polytope":
            assert oracle_table(cross_polytope(d), n_from, n_to)[0] == cross_polytope_table(
                d, n_from, n_to)
        else:
            assert oracle_table(hypercube(d), n_from, n_to) == (
                hypercube_table(d, n_from, n_to),
                [(n - 2) ** d if n >= 2 else 0 for n in range(n_from, n_to + 1)])

    def test_corrupt_head_row_fails_the_degree_check(self, monkeypatch):
        p = rectified_simplex_descriptor(4, 1)
        values, interiors = oracle_table(p, 0, 40)
        corrupted = values[:]
        corrupted[40] += 1
        monkeypatch.setitem(oracle._tables, p, (corrupted, interiors))
        assert oracle_table(p, 0, 40) == (corrupted, interiors)  # head rows read raw
        with pytest.raises(ArithmeticError):
            oracle_table(p, 41, 41)
        with pytest.raises(ArithmeticError):
            interior_number(p, 10**7)  # a read past the head extends both columns

    def test_ascending_one_row_reads_fill_only_the_head(self, monkeypatch):
        fills = []

        def counted(p, n, fill=oracle._filled):
            fills.append(n)
            return fill(p, n)

        monkeypatch.setattr(oracle, "_filled", counted)
        p = rectified_simplex_descriptor(7, 3)
        rows = [polytope_number(p, n) for n in range(1, 2001)]
        assert rows == rectified_simplex_table(7, 3, 1, 2000)
        assert len(fills) <= 40  # the head, max(40, dim + 3)
        assert table_sizes()[p] == 40

    @pytest.mark.parametrize("bounds", [(None, None), (None, 41)])
    def test_verify_family_checks_read_raw_recursion_rows(self, bounds):
        # verify's oracle suite compares the recursion's own rows, never the
        # extension past the head: an n bound lowers n and never raises it.
        families = {name: family for family, row in checks.FAMILIES.items()
                    for name in (row.value_check, row.interior_check) if name}
        assert len(families) == 6
        compared = [check for check in checks.oracle_checks(*bounds) if check.identity in families]
        assert {check.identity for check in compared} == set(families)
        for check in compared:
            params = dict(check.params)
            p = checks.family_descriptor(families[check.identity], params["d"], params.get("r"))
            assert params["n"] <= oracle._head(p), check.describe()

    def test_default_oracle_suite_never_extends_a_head(self, monkeypatch):
        # The suite's columns end at the least head, so every row it reads is
        # a raw recursion row and none comes from the extension past a head.
        extended = []
        monkeypatch.setattr(oracle, "_extended", lambda *args: extended.append(args) or [])
        assert all(check.ok for check in checks.oracle_checks())
        assert extended == []

    @pytest.mark.parametrize("d_max", [None, *range(11)])
    def test_census_roots_derived_from_the_family_rows(self, monkeypatch, d_max):
        # The oracle suite's census roots are the family rows' descriptors at
        # each top d; their closure is that of the hand-written reference list.
        top = {default: default if d_max is None else min(default, d_max) for default in (6, 7, 8)}
        reference = [simplex(top[8]), cross_polytope(top[6]), hypercube(top[6])]
        reference += [rectified_simplex_descriptor(d, r)
                      for d in range(2, top[7] + 1) for r in range(1, d)]
        derived = []

        def recording(*roots):
            derived.append(roots)
            return face_closure(*roots)

        monkeypatch.setattr(oracle, "face_closure", recording)
        assert all(check.ok for check in checks.oracle_checks(d_max, 1))
        roots = derived[-1]  # the table fills call it first, one descriptor each
        assert face_closure(*roots) == face_closure(*reference)
