"""Exact Newton polyhedra of exponent sets, and their blocking duals.

The Newton polyhedron of a phase is the convex hull of the union of the
translated nonnegative orthants `alpha + R^d_{>=0}` over the support points
alpha.  Its recession cone is always the full nonnegative orthant, so every
facet inequality has a componentwise-nonnegative normal, vertices are
support points, and the bounded ("compact") faces are exactly those exposed
by some strictly positive normal.  The dual is the blocker
{w >= 0 : <alpha, w> >= 1 for all alpha}, a polyhedron of the same class.

One routine, `_blocker_vertices`, enumerates both.  By blocking duality the
vertices of the blocker of a support set are the facet normals of positive
offset of its Newton polyhedron, scaled to offset 1; the remaining facets
are the coordinate hyperplanes x_i >= 0 that touch a support point.  The
vertices come from the double description method on integer rays, so the
cost follows the size of the output rather than the number of subsets of
the support.  The compact faces come from the facets' vertex and ray ids,
held as integer bit sets and closed under intersection (bitwise AND).  Every
face record, in the lattice and the transient unbounded one a query may
return, is built by `_face` from the ids of the facets that contain it.

Everything here is exact: integer support points, integer primitive facet
normals, Fraction arithmetic for query points and dual vertices.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .phase import PhasePolynomial
from .ratlin import dot, primitive, rank

MIN_DIMENSION = 2
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


@dataclass(frozen=True)
class NewtonPolyhedron:
    dimension: int
    vertices: tuple[tuple[int, ...], ...]
    facets: tuple[Facet, ...]
    faces: tuple[Face, ...]  # all compact faces, every dimension


def _dominated(a: Sequence[int], b: Sequence[int]) -> bool:
    """True when a lies in b + R^d_{>=0} and differs from b."""
    return a != b and all(x >= y for x, y in zip(a, b))


def _axes(d: int) -> list[tuple[int, ...]]:
    """The unit vectors of R^d."""
    return [tuple(int(i == j) for j in range(d)) for i in range(d)]


def _blocker_vertices(rows: Sequence[Sequence], d: int) -> list[tuple[Fraction, ...]]:
    """Sorted vertices of {w >= 0 : <r, w> >= 1 for every r in rows}.

    Double description (Fukuda & Prodon 1996) on the homogenised cone
    {(w, t) : w >= 0, t >= 0, <r, w> >= t}.  The extreme rays of the
    orthant in R^(d+1) are cut by one row at a time; each cut keeps the rays
    on its nonnegative side and joins every adjacent pair of rays on
    opposite sides.  Two rays are adjacent when no third ray is tight on all
    the constraints they share, tracked as bit sets.  Rows are scaled to
    integers and rays kept primitive, so the arithmetic stays in integers.
    The vertices are the rays with t > 0, scaled to t = 1.
    """
    # a ray is (primitive integer vector (w, t), bit set of tight constraints);
    # bits 0..d are w_0 >= 0 .. w_(d-1) >= 0, t >= 0, then one per row.  An
    # extreme ray is fixed by its tight set, so the sets tell rays apart.
    every = (1 << (d + 1)) - 1
    rays = [(e, every ^ (1 << i)) for i, e in enumerate(_axes(d + 1))]
    for k, row in enumerate(rows):
        den = lcm(*(Fraction(x).denominator for x in row))
        cut = [int(Fraction(x) * den) for x in row] + [-den]
        bit = 1 << (d + 1 + k)
        vals = [dot(cut, v) for v, _ in rays]
        pos = [(r, s) for r, s in zip(rays, vals) if s > 0]
        neg = [(r, s) for r, s in zip(rays, vals) if s < 0]
        nxt = [r for r, s in pos] + [(v, z | bit) for (v, z), s in zip(rays, vals) if s == 0]
        for (vp, zp), sp in pos:
            for (vn, zn), sn in neg:
                common = zp & zn
                # adjacent rays of a pointed cone in R^(d+1) share d - 1 constraints
                if common.bit_count() < d - 1:
                    continue
                if any(common & z == common for _, z in rays if z != zp and z != zn):
                    continue
                v = [sp * b - sn * a for a, b in zip(vp, vn)]
                g = gcd(*v)
                nxt.append((tuple(x // g for x in v), common | bit))
        rays = nxt
    return sorted(tuple(Fraction(x, v[d]) for x in v[:d]) for v, _ in rays if v[d] > 0)


def _facets(planes, verts: Sequence[tuple], d: int) -> tuple[Facet, ...]:
    """Facet records of the (normal, offset) planes tight at some vertex."""
    out = []
    for w, b in sorted(planes):
        tight = tuple(i for i, v in enumerate(verts) if dot(w, v) == b)
        if tight:
            out.append(Facet(w, b, tight, tuple(i for i in range(d) if w[i] == 0)))
    return tuple(out)


def from_support(points: Iterable[Sequence[int]], dimension: int) -> NewtonPolyhedron:
    """Build the Newton polyhedron of an integer exponent set."""
    if dimension < MIN_DIMENSION:
        raise PolytopeError(f"dimension must be at least {MIN_DIMENSION}")
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
    planes = [(w, min(dot(w, p) for p in cands))
              for w in map(primitive, _blocker_vertices(cands, dimension))]
    # offset-0 facets are the planes x_i = 0 that touch the support
    planes += [(e, 0) for e in _axes(dimension)]

    # vertices: candidate points whose tight facet normals span R^d
    verts = []
    for p in cands:
        normals = [w for (w, b) in planes if dot(w, p) == b]
        if len(normals) >= dimension and rank(normals) == dimension:
            verts.append(p)
    facets = _facets(planes, verts, dimension)
    faces = _face_lattice(verts, facets)
    return NewtonPolyhedron(dimension, tuple(verts), facets, faces)


def _bits(ids: Iterable[int]) -> int:
    return sum(1 << i for i in ids)


def _ids(bits: int) -> tuple[int, ...]:
    return tuple(i for i in range(bits.bit_length()) if bits >> i & 1)


def _face(verts, facets, tight: Sequence[int]) -> Face:
    """The face cut out by the facets `tight`, the ids of every facet that
    contains it.  The primitive sum of their normals is its witness: on the
    polyhedron its minimum is attained on exactly that face, so it is zero
    on the face's rays and positive on every other axis.  Its id is -1."""
    vbits = rbits = -1
    for k in tight:
        vbits &= _bits(facets[k].vertex_ids)
        rbits &= _bits(facets[k].rays)
    vs, rs = _ids(vbits), _ids(rbits)
    d = len(verts[0])
    wit = primitive([sum(facets[k].normal[i] for k in tight) for i in range(d)])
    if any((x > 0) == bool(rbits >> i & 1) for i, x in enumerate(wit)):
        raise PolytopeError("internal error: face witness not positive off the face's rays")
    coords = tuple(verts[i] for i in vs)
    lo = dot(wit, coords[0])
    if any(dot(wit, v) == lo for j, v in enumerate(verts) if not vbits >> j & 1):
        raise PolytopeError("internal error: face witness exposes a larger face")
    span = [[x - y for x, y in zip(p, coords[0])] for p in coords[1:]]
    span += [[int(j == i) for j in range(d)] for i in rs]
    return Face(-1, vs, coords, rank(span), wit, lo, not rs, rs)


def _face_lattice(verts, facets) -> tuple[Face, ...]:
    """All compact faces, sorted by (dim, vertex ids).

    A face is keyed by one bit set: its vertex ids, then its ray axes above
    them.  The facets' keys closed under intersection (AND) give every face;
    the compact ones have no ray bits.  Each face meets every facet once in
    the closure, which finds the facets containing it on the way."""
    nv = len(verts)
    every = (1 << nv) - 1
    keys = [_bits(f.vertex_ids) | _bits(f.rays) << nv for f in facets]
    tight = {}  # face key -> ids of the facets containing the face
    frontier = set(keys)
    while frontier:
        meets = set()
        for a in frontier:
            cut = [a & b for b in keys]
            tight[a] = [k for k, m in enumerate(cut) if m == a]
            meets.update(m for m in cut if m & every)
        frontier = meets - tight.keys()
    faces = sorted((_face(verts, facets, t) for a, t in tight.items() if not a >> nv),
                   key=lambda f: (f.dim, f.vertex_ids))
    return tuple(replace(f, id=k) for k, f in enumerate(faces))


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
    # the facets tight at q are the facets containing its lowest face
    face = _face(n.vertices, n.facets, tight)
    if not face.compact:
        return face
    for f in n.faces:
        if f.vertex_ids == face.vertex_ids:
            return f
    raise PolytopeError("internal error: compact face missing from lattice")


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
    the polyhedron reduces to the same inequalities over its vertices.  The
    dual vertices come from `_blocker_vertices`.  By blocking duality every
    plane `<alpha, w> = 1` for a vertex alpha is a facet of the dual, and so
    is every plane `w_i = 0` that some dual vertex touches.
    """
    d = n.dimension
    vs = _blocker_vertices(n.vertices, d)
    planes = [(tuple(Fraction(x) for x in v), Fraction(1)) for v in n.vertices]
    planes += [(tuple(map(Fraction, e)), Fraction(0)) for e in _axes(d)]
    return DualPolyhedron(d, tuple(vs), _facets(planes, vs, d))


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


def _facets_json(facets) -> list[dict]:
    return [{"normal": [_num_json(x) for x in f.normal], "offset": _num_json(f.offset),
             "vertex_ids": list(f.vertex_ids), "rays": list(f.rays)} for f in facets]


def to_json_dict(n: NewtonPolyhedron) -> dict:
    """Deterministic JSON form of the V-rep, H-rep and compact face lattice."""
    return {
        "schema": "newton-polyhedron/1",
        "dimension": n.dimension,
        "vertices": [[_num_json(x) for x in v] for v in n.vertices],
        "facets": _facets_json(n.facets),
        "compact_faces": [
            {"id": f.id,
             "dim": f.dim,
             "vertex_ids": list(f.vertex_ids),
             "normal": [_num_json(x) for x in f.normal],
             "offset": _num_json(f.offset)}
            for f in n.faces
        ],
    }


def dual_to_json_dict(dual: DualPolyhedron) -> dict:
    return {
        "schema": "dual-polyhedron/1",
        "dimension": dual.dimension,
        "vertices": [[_num_json(x) for x in v] for v in dual.vertices],
        "facets": _facets_json(dual.facets),
    }
