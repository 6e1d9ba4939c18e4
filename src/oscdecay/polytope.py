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
the support.  The compact faces come from the facets' vertex sets, held as
integer bit sets and closed under intersection (bitwise AND): a closed set
is a compact face's exactly when the facets containing it share no ray
axis, and its dimension is one more than the largest below it (0 for a
vertex).  Every face record, in the lattice and the transient unbounded
one a query may return, is built by `_face` from the facets containing it;
its witness is the sum of their primitive integer normals over its gcd.

All arithmetic is exact, and on integers except for the dual.  A query
point q is scaled to integers Q over one common denominator D, and meets
each facet <w, x> >= b as <w, Q> against b * D.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import gcd
from operator import and_, mul
from typing import Iterable, Sequence

from .phase import PhasePolynomial
from .ratlin import clear_denominators, primitive, rank

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


def _bits(ids: Iterable[int]) -> int:
    return sum(1 << i for i in ids)


def _ids(bits: int) -> tuple[int, ...]:
    return tuple(i for i in range(bits.bit_length()) if bits >> i & 1)


def _blocker_vertices(rows: Sequence[Sequence], d: int) -> list[tuple[int, ...]]:
    """The vertices of {w >= 0 : <r, w> >= 1 for every r in rows}, each as
    the primitive integer ray (w, t) with t > 0 of the vertex w / t.

    Double description (Fukuda & Prodon 1996) on the homogenised cone
    {(w, t) : w >= 0, t >= 0, <r, w> >= t}.  The extreme rays of the
    orthant in R^(d+1) are cut by one row at a time; each cut keeps the rays
    on its nonnegative side and joins every adjacent pair of rays on
    opposite sides.  Two rays are adjacent when no third ray is tight on all
    the constraints they share, tracked as bit sets.  Rows are scaled to
    integers and rays kept primitive, so the arithmetic stays in integers.
    """
    # a ray is (primitive integer vector (w, t), bit set of tight constraints);
    # bits 0..d are w_0 >= 0 .. w_(d-1) >= 0, t >= 0, then one per row.  An
    # extreme ray is fixed by its tight set, so the sets tell rays apart.
    every = (1 << (d + 1)) - 1
    rays = [(e, every ^ (1 << i)) for i, e in enumerate(_axes(d + 1))]
    for k, row in enumerate(rows):
        cut = clear_denominators((*row, -1))[0]
        bit = 1 << (d + 1 + k)
        vals = [sum(map(mul, cut, v)) for v, _ in rays]
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
    return [v for v, _ in rays if v[d] > 0]


def _facets(planes, verts: Sequence[tuple], d: int) -> tuple[Facet, ...]:
    """Facet records of the (normal, offset) planes tight at some vertex, with
    <w, v> = b tested on integers: V = den v and (W, B) a multiple of (w, den b)."""
    flat, den = clear_denominators([x for v in verts for x in v])
    ints = list(enumerate(flat[i:i + d] for i in range(0, len(flat), d)))
    out = []
    for w, b in sorted(planes):
        *iw, ib = clear_denominators((*w, b * den))[0]
        tight = tuple(i for i, v in ints if sum(map(mul, iw, v)) == ib)
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
    planes = [(w, min(sum(map(mul, w, p)) for p in cands))
              for w in (primitive(r[:dimension]) for r in _blocker_vertices(cands, dimension))]
    # offset-0 facets are the planes x_i = 0 that touch the support
    planes += [(e, 0) for e in _axes(dimension)]

    # vertices: the candidates whose tight planes hold no other candidate
    on = [_bits(k for k, (w, b) in enumerate(planes) if sum(map(mul, w, p)) == b) for p in cands]
    verts = [p for p, s in zip(cands, on) if not any(s & t == s for t in on if t != s)]
    facets = _facets(planes, verts, dimension)
    faces = _face_lattice(verts, facets)
    return NewtonPolyhedron(dimension, tuple(verts), facets, faces)


def _face(verts, facets, tight, vs, vbits: int, rbits: int, dim: int, fid: int = -1) -> Face:
    """The face with vertex ids `vs` (bit set `vbits`) and ray-axis bit set
    `rbits`, cut out by the facets `tight`, the ids of every facet that
    contains it.  The sum of their normals, primitive integers, over its gcd
    is its witness: on the polyhedron its minimum is attained on exactly that
    face, so it is zero on the face's rays and positive on every other axis."""
    total = [sum(c) for c in zip(*(facets[k].normal for k in tight))]
    g = gcd(*total)
    wit = tuple(x // g for x in total)
    if any((x > 0) == bool(rbits >> i & 1) for i, x in enumerate(wit)):
        raise PolytopeError("internal error: face witness not positive off the face's rays")
    rs = _ids(rbits)
    coords = tuple(verts[i] for i in vs)
    lo = sum(map(mul, wit, coords[0]))
    if any(sum(map(mul, wit, v)) == lo for j, v in enumerate(verts) if not vbits >> j & 1):
        raise PolytopeError("internal error: face witness exposes a larger face")
    return Face(fid, vs, coords, dim, wit, lo, not rs, rs)


def _face_lattice(verts, facets) -> tuple[Face, ...]:
    """All compact faces, sorted by (dim, vertex ids).

    The facets' vertex sets closed under intersection (AND) are those of all
    faces.  Each meets every facet once, giving the facets containing it and
    the sets just below it.  It is a compact face's exactly when those
    facets' ray sets AND to nothing (else the least face holding it is
    unbounded), and its dimension is then 1 + the largest below, 0 if none."""
    vbits = [_bits(f.vertex_ids) for f in facets]
    rbits = [_bits(f.rays) for f in facets]
    tight, below = {}, {}  # vertex set -> facets containing it, sets just below
    frontier = set(vbits)
    while frontier:
        meets = set()
        for a in frontier:
            cut = [a & b for b in vbits]
            tight[a] = [k for k, m in enumerate(cut) if m == a]
            below[a] = {m for m in cut if m and m != a}
            meets |= below[a]
        frontier = meets - tight.keys()
    dim = {}
    for a in sorted(tight, key=int.bit_count):
        if not reduce(and_, (rbits[k] for k in tight[a])):
            dim[a] = 1 + max((dim[m] for m in below[a]), default=-1)
    order = sorted((dim[a], _ids(a), a) for a in dim)  # vertex ids decoded once per face
    return tuple(_face(verts, facets, tight[a], vs, a, 0, m, k)
                 for k, (m, vs, a) in enumerate(order))


def build_polyhedron(p: PhasePolynomial) -> NewtonPolyhedron:
    """Newton polyhedron of a reduced phase polynomial."""
    if not p.reduced:
        raise PolytopeError("phase must be reduced first (reduce_phase)")
    return from_support(p.support, p.dimension)


# ---------------------------------------------------------------------------
# queries

def _slacks(n: NewtonPolyhedron, q: Sequence) -> list[int]:
    """<w, Q> - b D over the facets, on integers: Q = D q for D the least
    common denominator of q.  q is in the polyhedron when none is negative,
    and on the facets where one is 0."""
    qq, den = clear_denominators([Fraction(x) for x in q])
    if len(qq) != n.dimension:
        raise PolytopeError("query point has wrong dimension")
    return [sum(map(mul, f.normal, qq)) - f.offset * den for f in n.facets]


def contains(n: NewtonPolyhedron, q: Sequence) -> bool:
    """Exact membership test against the facet description."""
    return min(_slacks(n, q)) >= 0


def newton_distance(n: NewtonPolyhedron) -> Fraction:
    """Least t with (t, ..., t) in the polyhedron; exact."""
    return max(Fraction(f.offset) / sum(f.normal) for f in n.facets)


def lowest_face_containing(n: NewtonPolyhedron, q: Sequence) -> Face:
    """The unique minimal face containing q (q in its relative interior).

    For boundary points on an unbounded face the returned record has
    `compact=False` and a witness that is not strictly positive.  Raises for
    points outside the polyhedron and for interior points.
    """
    slacks = _slacks(n, q)
    if min(slacks) < 0:
        raise PolytopeError(f"point {q} lies outside the polyhedron")
    # the facets tight at q are the facets containing its lowest face
    tight = [k for k, s in enumerate(slacks) if not s]
    if not tight:
        raise PolytopeError(f"point {q} is interior; no proper face contains it")
    vbits = reduce(and_, (_bits(n.facets[k].vertex_ids) for k in tight))
    rbits = reduce(and_, (_bits(n.facets[k].rays) for k in tight))
    vs = _ids(vbits)
    if not rbits:
        for f in n.faces:
            if f.vertex_ids == vs:
                return f
        raise PolytopeError("internal error: compact face missing from lattice")
    span = [[x - y for x, y in zip(n.vertices[i], n.vertices[vs[0]])] for i in vs[1:]]
    span += [_axes(n.dimension)[i] for i in _ids(rbits)]
    return _face(n.vertices, n.facets, tight, vs, vbits, rbits, rank(span))


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
    vs = sorted(tuple(Fraction(x, r[d]) for x in r[:d]) for r in _blocker_vertices(n.vertices, d))
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
    return x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


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
