"""The polyhedron's exact queries, answered on scaled integers, against the
frozen `Fraction` oracle: membership, the lowest face containing a point,
the ray scaling and the dual-domination table, in every supported
dimension."""
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oscdecay.decay import check_dual_domination
from oscdecay.exponent import ExponentQuery, ray_scaling, sharp_exponent
from oscdecay.phase import parse_phase, reduce_phase
from oscdecay.polytope import (
    PolytopeError,
    build_polyhedron,
    contains,
    dual_polyhedron,
    from_support,
    lowest_face_containing,
)
from oscdecay.ratlin import dot

import oracle_lattice as lattice
import oracle_queries as oracle

FIELDS = ("id", "vertex_ids", "vertices", "dim", "normal", "offset", "compact", "rays")


def record(face):
    return tuple(getattr(face, k) for k in FIELDS)


def lowest_face(n, q):
    """The oracle's lowest face of a boundary point, from its tight facets."""
    return lattice.lowest_face(n, [record(f) for f in n.faces], q)


@st.composite
def polyhedra(draw):
    d = draw(st.integers(2, 6))
    point = st.tuples(*([st.integers(0, 6)] * d)).filter(any)
    return from_support(draw(st.lists(point, min_size=1, max_size=6, unique=True)), d)


RATIONALS = st.fractions(min_value=0, max_value=8, max_denominator=12)
P = st.one_of(st.just("inf"), st.fractions(min_value=2, max_value=30, max_denominator=12).map(str))
WEIGHTS = st.fractions(min_value=Fraction(1, 30), max_value=6, max_denominator=30)


def boundary_point(data, n):
    """A point of a random facet: a convex combination of its vertices,
    moved along its rays, so on an unbounded face whenever it has rays."""
    f = data.draw(st.sampled_from(n.facets))
    mix = [data.draw(st.integers(1, 5)) for _ in f.vertex_ids]
    q = [sum(Fraction(m * n.vertices[i][k], sum(mix)) for m, i in zip(mix, f.vertex_ids))
         for k in range(n.dimension)]
    for k in f.rays:
        q[k] += data.draw(RATIONALS)
    return q


@given(polyhedra(), st.data())
def test_points_match_the_reference(n, data):
    points = [data.draw(st.lists(RATIONALS, min_size=n.dimension, max_size=n.dimension)),
              boundary_point(data, n)]
    for q in points:
        inside = oracle.contains(n, q)
        assert contains(n, q) == inside
        if not inside:
            with pytest.raises(PolytopeError, match="outside"):
                lowest_face_containing(n, q)
        elif not oracle.tight_facets(n, q):
            with pytest.raises(PolytopeError, match="interior"):
                lowest_face_containing(n, q)
        else:
            assert record(lowest_face_containing(n, q)) == lowest_face(n, q)


@pytest.mark.parametrize("q", [(Fraction(6, 7), 1), (Fraction(13, 14), Fraction(13, 14))])
def test_a_point_outside_by_one_unit_of_its_denominator_is_refused(q):
    # scaled to integers, the point falls short of the facet x1 >= 1 by 1
    n = from_support([(1, 1)], 2)
    assert not contains(n, q)
    with pytest.raises(PolytopeError, match="outside"):
        lowest_face_containing(n, q)


@given(polyhedra(), st.data())
def test_interior_points_are_refused(n, data):
    # a vertex pushed off every facet's plane along the diagonal
    q = [x + data.draw(st.fractions(min_value=Fraction(1, 12), max_value=3, max_denominator=12))
         for x in data.draw(st.sampled_from(n.vertices))]
    assert contains(n, q) and not oracle.tight_facets(n, q)
    with pytest.raises(PolytopeError, match="interior"):
        lowest_face_containing(n, q)


@given(polyhedra(), st.data())
def test_ray_scaling_matches_the_reference(n, data):
    u = data.draw(st.lists(WEIGHTS, min_size=n.dimension, max_size=n.dimension))
    nu, witness, face = ray_scaling(n, u)
    assert (nu, witness) == oracle.ray_scaling(n, u)
    assert record(face) == lowest_face(n, witness)


@given(polyhedra(), st.data())
def test_exponent_and_dual_domination_match_the_reference(n, data):
    q = ExponentQuery.of(data.draw(st.lists(P, min_size=n.dimension, max_size=n.dimension)))
    nu, witness = oracle.ray_scaling(n, q.dual_reciprocals)
    rep = sharp_exponent(n, q)
    assert (rep.nu, rep.witness, record(rep.face)) == (nu, witness, lowest_face(n, witness))
    dual = dual_polyhedron(n)
    ok, table = check_dual_domination(n, q, dual)
    assert table == [(w, dot(witness, w)) for w in dual.vertices]
    assert ok == all(val >= 1 for _, val in table)


@pytest.mark.parametrize("text, p, witness, dim", [
    ("x1^2*x3^4 + x1^2*x2*x3^2 + x1^3*x2^2", ("3", "5/2", "inf"),
     (2, Fraction(9, 5), 3), 2),
    ("x1*x2^3", ("inf", "inf"), (3, 3), 1),
], ids=["unbounded-2-face", "unbounded-edge"])
def test_witness_on_an_unbounded_face(text, p, witness, dim):
    n = build_polyhedron(reduce_phase(parse_phase(text, len(p))))
    rep = sharp_exponent(n, ExponentQuery.of(p))
    assert rep.witness == witness and (rep.face.dim, rep.face.compact) == (dim, False)
    assert record(rep.face) == lowest_face(n, witness)
    assert rep.flags == ("witness on unbounded face",)
