"""The bit-set face lattice against the frozen tuple-and-set oracle, in
every supported dimension, including those where the LP oracle of
`test_polytope` is too slow."""
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from oscdecay.exponent import ExponentQuery, sharp_exponent
from oscdecay.polytope import from_support, lowest_face_containing

import oracle_lattice as oracle

REFS = Path(__file__).resolve().parents[1] / "perfbench" / "refs.json"
BASES = {k: [tuple(p) for p in b["support"]]
         for k, b in json.loads(REFS.read_text())["bases"].items()}
FIELDS = ("id", "vertex_ids", "vertices", "dim", "normal", "offset", "compact", "rays")


def record(face):
    return tuple(getattr(face, k) for k in FIELDS)


def random_support(rng, d):
    pts = [tuple(rng.randint(0, 6) for _ in range(d)) for _ in range(rng.randint(2, 8))]
    return [p for p in pts if any(p)] or [(1,) * d]


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_faces_match_oracle(d):
    rng = random.Random(f"lattice:{d}")
    for _ in range(12):
        n = from_support(random_support(rng, d), d)
        assert [record(f) for f in n.faces] == oracle.face_lattice(n.vertices, n.facets, d)


# supports with a meet of facet vertex sets that spans no compact face: all
# vertices lie on one facet that runs along a ray, (0, 2, 1).x >= 4 along e1
# and (4, 2, 3, 0).x >= 31 along e4; (support, vertex sets, compact faces)
UNBOUNDED_ONLY = {
    "d3": ([(2, 0, 4), (2, 1, 2), (3, 2, 0)], 6, 5),
    "d4": ([(4, 0, 5, 3), (4, 3, 3, 2), (5, 1, 3, 4), (5, 4, 1, 2)], 12, 11),
}


@pytest.mark.parametrize("key", sorted(UNBOUNDED_ONLY))
def test_vertex_set_of_an_unbounded_face_only_is_no_compact_face(key):
    pts, nsets, nfaces = UNBOUNDED_ONLY[key]
    d = len(pts[0])
    n = from_support(pts, d)
    assert [record(f) for f in n.faces] == oracle.face_lattice(n.vertices, n.facets, d)
    sets = {frozenset(f.vertex_ids) for f in n.facets}
    while more := {a & b for a in sets for b in sets if a & b} - sets:
        sets |= more
    assert (len(sets), len(n.faces)) == (nsets, nfaces)
    everything = frozenset(range(len(n.vertices)))
    assert sets - {frozenset(f.vertex_ids) for f in n.faces} == {everything}
    facet, = (f for f in n.facets if set(f.vertex_ids) == everything)
    assert facet.rays


@pytest.mark.parametrize("key", sorted(BASES))
def test_lowest_face_matches_oracle(key):
    pts = BASES[key]
    d = len(pts[0])
    n = from_support(pts, d)
    faces = oracle.face_lattice(n.vertices, n.facets, d)
    points = [[sum(Fraction(v[i]) for v in f.vertices) / len(f.vertices) for i in range(d)]
              for f in n.faces]
    points.append(sharp_exponent(n, ExponentQuery.all_inf(d)).witness)
    # points on unbounded faces: a vertex of each facet moved along its rays
    for f in n.facets:
        points.append([x + (i in f.rays) for i, x in enumerate(n.vertices[f.vertex_ids[0]])])
    for q in points:
        assert record(lowest_face_containing(n, q)) == oracle.lowest_face(n, faces, q)
