"""Newton polyhedron geometry: frozen examples, invariants, oracle parity."""
import json
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscdecay.phase import PhasePolynomial, parse_phase, reduce_phase
from oscdecay.polytope import (
    MAX_DIMENSION,
    PolytopeError,
    build_polyhedron,
    contains,
    dual_polyhedron,
    from_support,
    lowest_face_containing,
    newton_distance,
    same_vertex_set,
    to_json_dict,
)
from oscdecay.ratlin import dot, rank

from oracle_polytope import (
    oracle_bisect_scale,
    oracle_compact_faces,
    oracle_facets,
    oracle_membership,
    oracle_min_scale,
    oracle_vertices,
)


def facet_set(n):
    return {(f.normal, Fraction(f.offset)) for f in n.facets}


class TestBuild:
    def test_single_point(self):
        n = from_support([(1, 1)], 2)
        assert n.vertices == ((1, 1),)
        assert facet_set(n) == {((1, 0), 1), ((0, 1), 1)}

    def test_two_vertices_one_edge(self):
        n = from_support([(2, 2), (5, 1)], 2)
        assert n.vertices == ((2, 2), (5, 1))
        assert facet_set(n) == {((1, 0), 2), ((0, 1), 1), ((1, 3), 8)}
        edges = [f for f in n.facets if f.compact]
        assert len(edges) == 1 and edges[0].normal == (1, 3)

    def test_dominated_point_dropped(self):
        n = from_support([(2, 2), (5, 1), (4, 2)], 2)
        assert n.vertices == ((2, 2), (5, 1))

    def test_duplicate_points_collapse(self):
        n = from_support([(1, 1), (1, 1)], 2)
        assert n.vertices == ((1, 1),)

    def test_build_from_phase_requires_reduced(self):
        p = parse_phase("x1^2*x2^2 + x1^4", 2)
        with pytest.raises(PolytopeError):
            build_polyhedron(p)
        n = build_polyhedron(reduce_phase(p))
        assert n.vertices == ((2, 2),)

    def test_input_validation(self):
        with pytest.raises(PolytopeError):
            from_support([], 2)
        with pytest.raises(PolytopeError):
            from_support([(1,)], 1)
        with pytest.raises(PolytopeError):
            from_support([(1, 1, 1, 1, 1, 1, 1)], MAX_DIMENSION + 1)
        with pytest.raises(PolytopeError):
            from_support([(1, -1)], 2)
        with pytest.raises(PolytopeError):
            from_support([(1, 1, 1)], 2)


class TestNewtonDistance:
    def test_single_vertex(self):
        assert newton_distance(from_support([(5, 1)], 2)) == 5

    def test_edge_cases(self):
        assert newton_distance(from_support([(2, 2), (5, 1)], 2)) == 2
        assert newton_distance(from_support([(3, 1), (1, 3)], 2)) == 2

    def test_fractional_value(self):
        # diagonal meets the edge between (3, 0)-ray side and (1, 2)? use
        # {(4, 1), (1, 4)}: edge normal (1, 1), offset 5, distance 5/2
        assert newton_distance(from_support([(4, 1), (1, 4)], 2)) == Fraction(5, 2)


class TestContains:
    def test_orthant_corner(self):
        n = from_support([(1, 1)], 2)
        assert contains(n, (1, 1))
        assert not contains(n, (Fraction(9, 10), 2))

    def test_edge_boundary(self):
        n = from_support([(2, 2), (5, 1)], 2)
        assert contains(n, (Fraction(7, 2), Fraction(3, 2)))
        assert not contains(n, (Fraction(7, 2), Fraction(149, 100)))

    def test_dimension_mismatch(self):
        n = from_support([(1, 1)], 2)
        with pytest.raises(PolytopeError):
            contains(n, (1, 1, 1))


class TestLowestFace:
    def test_vertex_point(self):
        n = from_support([(2, 2), (5, 1)], 2)
        f = lowest_face_containing(n, (2, 2))
        assert f.dim == 0 and f.vertices == ((2, 2),) and f.compact

    def test_edge_interior_point(self):
        n = from_support([(2, 2), (5, 1)], 2)
        f = lowest_face_containing(n, (Fraction(7, 2), Fraction(3, 2)))
        assert f.dim == 1 and set(f.vertices) == {(2, 2), (5, 1)}
        assert f.compact and f.normal == (1, 3)

    def test_unbounded_ray_point(self):
        n = from_support([(1, 1)], 2)
        f = lowest_face_containing(n, (1, 5))
        assert not f.compact
        assert f.dim == 1 and f.vertices == ((1, 1),) and f.rays == (1,)

    def test_interior_point_rejected(self):
        n = from_support([(1, 1)], 2)
        with pytest.raises(PolytopeError):
            lowest_face_containing(n, (2, 2))

    def test_outside_point_rejected(self):
        n = from_support([(1, 1)], 2)
        with pytest.raises(PolytopeError):
            lowest_face_containing(n, (0, 0))


class TestCompactFaces:
    def test_counts_small(self):
        assert len(from_support([(1, 1)], 2).faces) == 1
        assert len(from_support([(2, 2), (5, 1)], 2).faces) == 3

    def test_dims_sorted(self):
        faces = from_support([(2, 2), (5, 1)], 2).faces
        assert [f.dim for f in faces] == [0, 0, 1]
        for f in faces:
            assert all(x > 0 for x in f.normal)

    def test_three_dim_against_oracle(self):
        pts = [(4, 0, 1), (0, 4, 1), (1, 1, 4)]
        got = {frozenset(f.vertices) for f in from_support(pts, 3).faces}
        want = {frozenset(s) for s in oracle_compact_faces(pts)}
        assert got == want


class TestDual:
    def test_unit_corner(self):
        dual = dual_polyhedron(from_support([(1, 1)], 2))
        assert set(dual.vertices) == {(Fraction(1), Fraction(0)),
                                      (Fraction(0), Fraction(1))}

    def test_scaled_corner(self):
        dual = dual_polyhedron(from_support([(2, 2)], 2))
        assert set(dual.vertices) == {(Fraction(1, 2), Fraction(0)),
                                      (Fraction(0), Fraction(1, 2))}

    def test_double_dual_fixed(self):
        # every 11th point of the degree-5 shell in d = 6: 16 vertices, 59 facets
        shell = [a for a in product(range(6), repeat=6)
                 if sum(a) == 5 and sum(x > 0 for x in a) >= 2]
        for pts in [[(1, 1)], [(2, 2), (5, 1)], [(3, 1), (1, 3)],
                    [(4, 0, 1), (0, 4, 1), (1, 1, 4)], shell[::11][:16]]:
            n = from_support(pts, len(pts[0]))
            assert same_vertex_set(dual_polyhedron(dual_polyhedron(n)), n)


def support_strategy(dimension, max_exp=9, max_points=6):
    point = st.tuples(*([st.integers(0, max_exp)] * dimension)).filter(any)
    return st.lists(point, min_size=1, max_size=max_points, unique=True)


class TestInvariants:
    @given(st.one_of(support_strategy(2), support_strategy(3)))
    def test_vertex_facet_consistency(self, pts):
        n = from_support(pts, len(pts[0]))
        d = n.dimension
        assert set(n.vertices) <= set(tuple(p) for p in pts)
        for f in n.facets:
            assert all(x >= 0 for x in f.normal)
            for v in n.vertices:
                assert dot(f.normal, v) >= f.offset
            span = [[x - y for x, y in zip(n.vertices[i], n.vertices[f.vertex_ids[0]])]
                    for i in f.vertex_ids[1:]]
            span += [[int(j == i) for j in range(d)] for i in f.rays]
            assert rank(span) == d - 1

    @given(st.one_of(support_strategy(2), support_strategy(3)),
           st.data())
    def test_membership_monotone(self, pts, data):
        n = from_support(pts, len(pts[0]))
        d = n.dimension
        base = data.draw(st.sampled_from(n.vertices))
        shift = data.draw(st.tuples(*([st.fractions(min_value=0, max_value=3)] * d)))
        assert contains(n, [b + s for b, s in zip(base, shift)])

    @given(st.one_of(support_strategy(2), support_strategy(3)))
    def test_newton_distance_matches_lp_and_bisection(self, pts):
        d = len(pts[0])
        n = from_support(pts, d)
        t = newton_distance(n)
        assert t == oracle_min_scale(pts, (1,) * d)
        lo, hi = oracle_bisect_scale(pts, (1,) * d)
        assert lo <= t <= hi

    @given(st.one_of(support_strategy(2), support_strategy(3)))
    def test_face_lattice_closed_under_intersection(self, pts):
        n = from_support(pts, len(pts[0]))
        sets = {f.vertex_ids for f in n.faces}
        for a in sets:
            for b in sets:
                meet = tuple(sorted(set(a) & set(b)))
                assert not meet or meet in sets

    @given(st.one_of(support_strategy(2), support_strategy(3)))
    def test_barycenter_recovers_face(self, pts):
        n = from_support(pts, len(pts[0]))
        for f in n.faces:
            k = len(f.vertices)
            bary = [sum(Fraction(v[i]) for v in f.vertices) / k
                    for i in range(n.dimension)]
            assert lowest_face_containing(n, bary).vertex_ids == f.vertex_ids

    @given(st.one_of(support_strategy(2), support_strategy(3)))
    def test_double_dual_identity(self, pts):
        n = from_support(pts, len(pts[0]))
        assert same_vertex_set(dual_polyhedron(dual_polyhedron(n)), n)

    @given(st.one_of(support_strategy(2), support_strategy(3)))
    def test_dual_inequalities(self, pts):
        n = from_support(pts, len(pts[0]))
        dual = dual_polyhedron(n)
        for w in dual.vertices:
            assert all(x >= 0 for x in w)
            for v in n.vertices:
                assert dot(v, w) >= 1
        # blocking duality: dual vertices are the facets of positive offset,
        # scaled to offset 1, and the others are the axes some vertex touches
        assert set(dual.vertices) == {tuple(Fraction(x) / f.offset for x in f.normal)
                                      for f in n.facets if f.offset > 0}
        d = n.dimension
        assert {f.normal for f in n.facets if f.offset == 0} == {
            tuple(int(i == j) for j in range(d)) for i in range(d)
            if any(v[i] == 0 for v in n.vertices)}


class TestOracleParity:
    @settings(max_examples=12)
    @given(support_strategy(2))
    def test_two_dim(self, pts):
        n = from_support(pts, 2)
        assert list(n.vertices) == oracle_vertices(pts)
        assert facet_set(n) == {(w, Fraction(b)) for w, b in oracle_facets(pts)}
        got = {frozenset(f.vertices) for f in n.faces}
        assert got == {frozenset(s) for s in oracle_compact_faces(pts)}

    @settings(max_examples=8)
    @given(support_strategy(3, max_exp=6, max_points=5))
    def test_three_dim(self, pts):
        n = from_support(pts, 3)
        assert list(n.vertices) == oracle_vertices(pts)
        assert facet_set(n) == {(w, Fraction(b)) for w, b in oracle_facets(pts)}
        got = {frozenset(f.vertices) for f in n.faces}
        assert got == {frozenset(s) for s in oracle_compact_faces(pts)}

    def test_random_membership_agreement(self, rng):
        for _ in range(30):
            d = rng.choice([2, 3])
            pts = [tuple(rng.randint(0, 6) for _ in range(d)) for _ in range(rng.randint(1, 5))]
            pts = [p for p in pts if any(p)] or [(1,) * d]
            n = from_support(pts, d)
            q = [Fraction(rng.randint(0, 40), 4) for _ in range(d)]
            assert contains(n, q) == oracle_membership(pts, q)


class TestSerialization:
    def test_json_roundtrip_and_determinism(self):
        n = from_support([(2, 2), (5, 1)], 2)
        text = json.dumps(to_json_dict(n), sort_keys=True)
        doc = json.loads(text)
        assert doc["schema"] == "newton-polyhedron/1"
        assert doc["vertices"] == [[2, 2], [5, 1]]
        other = from_support([(5, 1), (2, 2), (4, 2)], 2)
        assert text == json.dumps(to_json_dict(other), sort_keys=True)

    def test_fraction_encoding(self):
        dualv = dual_polyhedron(from_support([(2, 2)], 2)).vertices
        assert (Fraction(1, 2), Fraction(0)) in dualv
