"""Exact Newton polyhedra of exponent sets.

The Newton polyhedron of a phase is the convex hull of the union of the
translated nonnegative orthants `alpha + R^d_{>=0}` over the support points
alpha.  Its recession cone is always the full nonnegative orthant, so every
facet inequality has a componentwise-nonnegative normal, vertices are
support points, and the bounded ("compact") faces are exactly those exposed
by some strictly positive normal.

Everything here is exact: integer support points, integer primitive facet
normals, Fraction arithmetic for query points and dual vertices.  Facets
are enumerated by solving for the hyperplane through each affinely
independent set of support points and coordinate rays, then filtering by
validity; the face lattice follows from vertex/facet incidence closed under
intersection.  This is exponential in the dimension, which is fine for the
intended range (d <= 6, small supports).
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence

from .phase import MultiIndex, PhasePolynomial
from .ratlin import affine_rank, dot, kernel_basis, primitive, rank, solve_square

MAX_DIMENSION = 6


class PolytopeError(ValueError):
    """Invalid polyhedron construction or query."""


@dataclass(frozen=True)
class Facet:
    """Halfspace `<normal, x> >= offset` with primitive integer-or-rational normal."""

    normal: tuple
    offset: object  # int or Fraction
    vertex_ids: tuple[int, ...]  # tight vertices
    rays: tuple[int, ...]        # axis indices spanned by the facet

    @property
    def compact(self) -> bool:
        return not self.rays


@dataclass(frozen=True)
class Face:
    """A face of the polyhedron: conv(vertices) + cone(e_i for i in rays)."""

    id: int
    vertex_ids: tuple[int, ...]
    vertices: tuple[tuple, ...]
    dim: int
    normal: tuple          # supporting witness; strictly positive iff compact
    offset: object         # value of <normal, x> on the face
    compact: bool
    rays: tuple[int, ...]
    tight_facets: tuple[int, ...]


@dataclass(frozen=True)
class NewtonPolyhedron:
    dimension: int
    vertices: tuple[tuple[int, ...], ...]
    facets: tuple[Facet, ...]
    faces: tuple[Face, ...]  # all compact faces, every dimension


def _dominated(a: Sequence[int], b: Sequence[int]) -> bool:
    """True when a lies in b + R^d_{>=0} and differs from b."""
    return a != b and all(x >= y for x, y in zip(a, b))


def _enumerate_facets(points: list[tuple[int, ...]], d: int):
    """All facet hyperplanes of conv(points) + orthant, as (normal, offset)."""
    found: dict[tuple, tuple] = {}
    axes = range(d)
    for k in range(1, d + 1):
        for pts in combinations(points, k):
            diffs = [[x - y for x, y in zip(p, pts[0])] for p in pts[1:]]
            for rays in combinations(axes, d - k):
                # rows always number d-1 here: (k-1) differences + (d-k) rays
                rows = diffs + [[int(j == i) for j in range(d)] for i in rays]
                kern = kernel_basis(rows, d)
                if len(kern) != 1:
                    continue
                w = list(primitive(kern[0]))
                b = dot(w, pts[0])
                vals = [dot(w, p) - b for p in points]
                if any(v < 0 for v in vals):
                    if any(v > 0 for v in vals):
                        continue  # not supporting
                    w = [-x for x in w]
                    b = -b
                    vals = [-v for v in vals]
                if any(x < 0 for x in w):
                    continue  # would exclude part of the recession orthant
                tight = [p for p, v in zip(points, vals) if v == 0]
                tight_rays = [i for i in axes if w[i] == 0]
                span = [[x - y for x, y in zip(p, tight[0])] for p in tight[1:]]
                span += [[int(j == i) for j in range(d)] for i in tight_rays]
                if rank(span) != d - 1:
                    continue  # supporting but lower-dimensional contact
                found[tuple(w)] = (tuple(w), b)
    return sorted(found.values())


def from_support(points: Iterable[Sequence[int]], dimension: int) -> NewtonPolyhedron:
    """Build the Newton polyhedron of an integer exponent set."""
    if dimension < 2:
        raise PolytopeError("dimension must be at least 2")
    if dimension > MAX_DIMENSION:
        raise PolytopeError(f"dimension {dimension} exceeds supported maximum {MAX_DIMENSION}")
    pts = sorted({tuple(int(x) for x in p) for p in points})
    if not pts:
        raise PolytopeError("empty support")
    for p in pts:
        if len(p) != dimension:
            raise PolytopeError(f"support point {p} has wrong dimension")
        if any(x < 0 for x in p):
            raise PolytopeError(f"support point {p} has negative entries")

    cands = [p for p in pts if not any(_dominated(p, q) for q in pts)]
    planes = _enumerate_facets(cands, dimension)

    # vertices: candidate points whose tight facet normals span R^d
    verts = []
    for p in cands:
        normals = [w for (w, b) in planes if dot(w, p) == b]
        if len(normals) >= dimension and rank(normals) == dimension:
            verts.append(p)
    verts = sorted(verts)
    vid = {v: i for i, v in enumerate(verts)}

    facets = []
    for w, b in planes:
        tight = tuple(sorted(vid[v] for v in verts if dot(w, v) == b))
        rays = tuple(i for i in range(dimension) if w[i] == 0)
        facets.append(Facet(w, b, tight, rays))

    faces = _face_lattice(verts, facets, dimension)
    return NewtonPolyhedron(dimension, tuple(verts), tuple(facets), faces)


def _face_witness(facets, vs, rs, d) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The facets containing the face (vertex ids vs, rays rs), and the
    primitive sum of their normals, which supports exactly that face."""
    tight = tuple(k for k, f in enumerate(facets)
                  if set(vs) <= set(f.vertex_ids) and set(rs) <= set(f.rays))
    return tight, primitive([sum(facets[k].normal[i] for k in tight) for i in range(d)])


def _face_lattice(verts, facets, d) -> tuple[Face, ...]:
    """All compact faces, from facet incidences closed under intersection."""
    seeds = {(f.vertex_ids, f.rays) for f in facets if f.vertex_ids}
    closed = set(seeds)
    frontier = list(seeds)
    while frontier:
        nxt = []
        for vs1, rs1 in frontier:
            for vs2, rs2 in seeds:
                vs = tuple(sorted(set(vs1) & set(vs2)))
                if not vs:
                    continue
                rs = tuple(sorted(set(rs1) & set(rs2)))
                key = (vs, rs)
                if key not in closed:
                    closed.add(key)
                    nxt.append(key)
        frontier = nxt

    faces = []
    compact = sorted((vs, rs) for vs, rs in closed if not rs)
    compact.sort(key=lambda fr: (affine_rank([verts[i] for i in fr[0]]), fr[0]))
    for fid, (vs, rs) in enumerate(compact):
        coords = [verts[i] for i in vs]
        tight, wit = _face_witness(facets, vs, rs, d)
        if any(x <= 0 for x in wit):
            raise PolytopeError("internal error: compact face without positive witness")
        lo = min(dot(wit, v) for v in coords)
        if any(dot(wit, v) == lo for j, v in enumerate(verts) if j not in vs):
            raise PolytopeError("internal error: face witness exposes a larger face")
        faces.append(Face(fid, vs, tuple(coords), affine_rank(coords),
                          wit, lo, True, rs, tight))
    return tuple(faces)


def build_polyhedron(p: PhasePolynomial) -> NewtonPolyhedron:
    """Newton polyhedron of a reduced phase polynomial."""
    if not p.reduced:
        raise PolytopeError("phase must be reduced first (reduce_phase)")
    return from_support(p.support, p.dimension)


# ---------------------------------------------------------------------------
# queries

def contains(n: NewtonPolyhedron, q: Sequence) -> bool:
    """Exact membership test against the facet description."""
    qq = [Fraction(x) for x in q]
    if len(qq) != n.dimension:
        raise PolytopeError("query point has wrong dimension")
    return all(dot(f.normal, qq) >= f.offset for f in n.facets)


def newton_distance(n: NewtonPolyhedron) -> Fraction:
    """Least t with (t, ..., t) in the polyhedron; exact."""
    return max(Fraction(f.offset) / sum(f.normal) for f in n.facets)


def lowest_face_containing(n: NewtonPolyhedron, q: Sequence) -> Face:
    """The unique minimal face containing q (q in its relative interior).

    For boundary points on an unbounded face the returned record has
    `compact=False` and a witness that is not strictly positive.  Raises for
    points outside the polyhedron and for interior points.
    """
    qq = [Fraction(x) for x in q]
    if not contains(n, qq):
        raise PolytopeError(f"point {q} lies outside the polyhedron")
    tight = [k for k, f in enumerate(n.facets) if dot(f.normal, qq) == f.offset]
    if not tight:
        raise PolytopeError(f"point {q} is interior; no proper face contains it")
    vs = set(n.facets[tight[0]].vertex_ids)
    rs = set(n.facets[tight[0]].rays)
    for k in tight[1:]:
        vs &= set(n.facets[k].vertex_ids)
        rs &= set(n.facets[k].rays)
    vs = tuple(sorted(vs))
    rs = tuple(sorted(rs))
    if not rs:
        for f in n.faces:
            if f.vertex_ids == vs:
                return f
        raise PolytopeError("internal error: compact face missing from lattice")
    # unbounded face: assemble a transient record
    coords = [n.vertices[i] for i in vs]
    full_tight, wit = _face_witness(n.facets, vs, rs, n.dimension)
    span = [[x - y for x, y in zip(p, coords[0])] for p in coords[1:]]
    span += [[int(j == i) for j in range(n.dimension)] for i in rs]
    return Face(-1, vs, tuple(coords), rank(span), wit, dot(wit, coords[0]),
                False, rs, full_tight)


# ---------------------------------------------------------------------------
# duality

@dataclass(frozen=True)
class DualPolyhedron:
    """The blocking-type dual: {w >= 0 : <alpha, w> >= 1 for all alpha in N}."""

    dimension: int
    vertices: tuple[tuple[Fraction, ...], ...]
    facets: tuple[Facet, ...]


def dual_polyhedron(n) -> DualPolyhedron:
    """Dual of a Newton polyhedron, or of a dual (taking it back).

    Consumes only the vertex list: since both the primal and the constraint
    normals are componentwise nonnegative, `<alpha, w> >= 1` for all alpha in
    the polyhedron reduces to the same inequalities over its vertices.
    """
    d = n.dimension
    pts = [tuple(Fraction(x) for x in v) for v in n.vertices]
    rows = [(p, Fraction(1)) for p in pts]
    rows += [(tuple(Fraction(int(i == j)) for j in range(d)), Fraction(0))
             for i in range(d)]

    verts: set[tuple[Fraction, ...]] = set()
    for subset in combinations(range(len(rows)), d):
        a = [rows[i][0] for i in subset]
        b = [rows[i][1] for i in subset]
        w = solve_square(a, b)
        if w is None:
            continue
        if any(x < 0 for x in w):
            continue
        if all(dot(r, w) >= rhs for r, rhs in rows):
            verts.add(tuple(w))
    vs = sorted(verts)
    vid = {v: i for i, v in enumerate(vs)}

    facets = []
    seen = set()
    for normal, rhs in rows:
        tight_pts = [v for v in vs if dot(normal, v) == rhs]
        if not tight_pts:
            continue
        tight_rays = [i for i in range(d) if normal[i] == 0]
        span = [[x - y for x, y in zip(p, tight_pts[0])] for p in tight_pts[1:]]
        span += [[int(j == i) for j in range(d)] for i in tight_rays]
        if rank(span) != d - 1:
            continue
        key = (tuple(normal), rhs)
        if key in seen:
            continue
        seen.add(key)
        facets.append(Facet(tuple(normal), rhs,
                            tuple(sorted(vid[v] for v in tight_pts)),
                            tuple(tight_rays)))
    facets.sort(key=lambda f: (f.normal, f.offset))
    return DualPolyhedron(d, tuple(vs), tuple(facets))


def same_vertex_set(a, b) -> bool:
    """Exact equality of two polyhedra of this recession class by vertices."""
    va = sorted(tuple(Fraction(x) for x in v) for v in a.vertices)
    vb = sorted(tuple(Fraction(x) for x in v) for v in b.vertices)
    return va == vb


# ---------------------------------------------------------------------------
# serialization

def _num_json(x):
    f = Fraction(x)
    return int(f) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def to_json_dict(n: NewtonPolyhedron) -> dict:
    """Deterministic JSON form of the V-rep, H-rep and compact face lattice."""
    return {
        "schema": "newton-polyhedron/1",
        "dimension": n.dimension,
        "vertices": [[_num_json(x) for x in v] for v in n.vertices],
        "facets": [
            {"normal": [_num_json(x) for x in f.normal],
             "offset": _num_json(f.offset),
             "vertex_ids": list(f.vertex_ids),
             "rays": list(f.rays)}
            for f in n.facets
        ],
        "compact_faces": [
            {"id": f.id,
             "dim": f.dim,
             "vertex_ids": list(f.vertex_ids),
             "normal": [_num_json(x) for x in f.normal],
             "offset": _num_json(f.offset)}
            for f in n.faces
        ],
    }


def to_json(n: NewtonPolyhedron) -> str:
    return json.dumps(to_json_dict(n), indent=2, sort_keys=True)


def dual_to_json_dict(dual: DualPolyhedron) -> dict:
    return {
        "schema": "dual-polyhedron/1",
        "dimension": dual.dimension,
        "vertices": [[_num_json(x) for x in v] for v in dual.vertices],
        "facets": [
            {"normal": [_num_json(x) for x in f.normal],
             "offset": _num_json(f.offset),
             "vertex_ids": list(f.vertex_ids),
             "rays": list(f.rays)}
            for f in dual.facets
        ],
    }
