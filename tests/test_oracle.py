"""Tests for the recursive face-lattice oracle."""
import random
import sys
import threading

import pytest

from polytopenums import oracle
from polytopenums.oracle import (
    POINT,
    FaceCensus,
    Hypersimplex,
    Point,
    clear_tables,
    cross_polytope,
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
from polytopenums.regular import simplex_interior, simplex_number


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


class TestDescriptors:
    def test_canonicalization(self):
        assert simplex(0) is POINT
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
        with pytest.raises(ValueError):
            simplex(-1)
        with pytest.raises(ValueError):
            rectified_simplex_descriptor(3, 3)
        with pytest.raises(ValueError):
            Hypersimplex(4, 1)  # must go through the canonicalizing factory


class TestCensus:
    def test_triangle(self):
        census = faces_of(simplex(2))
        assert [(e.dim, e.total, e.not_containing) for e in census.entries] == [
            (0, 3, 2),
            (1, 3, 1),
        ]

    def test_octahedron(self):
        census = faces_of(hypersimplex(4, 2))
        assert census.f_vector() == (6, 12, 8)
        assert [(e.dim, e.total, e.not_containing) for e in census.entries] == [
            (0, 6, 5),
            (1, 12, 8),
            (2, 8, 4),
        ]
        # Vertex figure: 4 edges and 4 triangles meet at each vertex.
        assert [e.containing for e in census.entries] == [1, 4, 4]
        assert all(e.face == simplex(e.dim) for e in census.entries)

    def test_rectified_four_simplex(self):
        census = faces_of(hypersimplex(5, 2))
        assert census.f_vector() == (10, 30, 30, 10)
        cells = {e.face: e.total for e in census.entries_of_dim(3)}
        assert cells == {simplex(3): 5, hypersimplex(4, 2): 5}

    def test_cross_polytope_and_cube(self):
        octa = faces_of(cross_polytope(3))
        assert octa.f_vector() == (6, 12, 8)
        cube = faces_of(hypercube(3))
        assert cube.f_vector() == (8, 12, 6)
        assert [e.containing for e in cube.entries] == [1, 3, 3]

    def test_euler_relation_everywhere(self):
        seen = set()
        stack = [simplex(8), cross_polytope(6), hypercube(6)]
        stack += [hypersimplex(m, s) for m in range(4, 10) for s in range(2, m // 2 + 1)]
        while stack:
            p = stack.pop()
            if p in seen or isinstance(p, Point):
                continue
            seen.add(p)
            census = faces_of(p)
            assert census.euler_ok(), p
            for e in census.entries:
                assert 0 <= e.not_containing <= e.total
                stack.append(e.face)
        assert len(seen) > 25  # the walk really closed over sub-faces

    def test_point_has_no_census(self):
        with pytest.raises(ValueError):
            faces_of(POINT)


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
            assert table_sizes()[p] == 5000

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
        # Covered reads, of p and of a face in its plan, take no lock.
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
                polytope_number(p, 1)  # one shared plan; its tables still end at n = 1
                start, results = threading.Barrier(4, timeout=60), {}
                threads = [threading.Thread(target=query, args=(t, start, results))
                           for t in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                rows = [row for t in range(4) for row in results[t]]
                assert table_sizes()[p] == max(n for n, _, _ in rows)
                for n, values, interiors in rows:
                    assert values == rectified_simplex_table(5, 2, n - 3, n)
                    assert interiors == rectified_simplex_interior_table(5, 2, n - 3, n)
        finally:
            sys.setswitchinterval(interval)
