"""Frozen tuple-and-set oracle for the compact face lattice.

This is the face lattice as it stood before the bit-set closure: facet
incidences are intersected as sorted vertex and ray id tuples through sets,
every face's witness is the primitive sum of the normals of the facets found
by rescanning all facets, and a query point's lowest face is the set
intersection of its tight facets.  It takes the vertices and facet records
of an `oscdecay.polytope.NewtonPolyhedron` and returns each face as the
tuple (id, vertex_ids, vertices, dim, normal, offset, compact, rays).

Pure test machinery: no code shared with `oscdecay.polytope`; only the exact
rank and inner product come from `oscdecay.ratlin`, and the affine rank
from `oracle_polytope`.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd

from oscdecay.ratlin import dot, rank
from oracle_polytope import affine_rank


def primitive(vec):
    fr = [Fraction(x) for x in vec]
    den = 1
    for x in fr:
        den = den * x.denominator // gcd(den, x.denominator)
    ints = [int(x * den) for x in fr]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    return tuple(x // g for x in ints)


def face_witness(facets, vs, rs, d):
    """The primitive sum of the normals of every facet containing the face."""
    tight = [k for k, f in enumerate(facets)
             if set(vs) <= set(f.vertex_ids) and set(rs) <= set(f.rays)]
    return primitive([sum(facets[k].normal[i] for k in tight) for i in range(d)])


def face_lattice(verts, facets, d):
    """All compact faces, sorted by (dim, vertex ids)."""
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
                key = (vs, tuple(sorted(set(rs1) & set(rs2))))
                if key not in closed:
                    closed.add(key)
                    nxt.append(key)
        frontier = nxt
    compact = sorted((affine_rank([verts[i] for i in vs]), vs)
                     for vs, rs in closed if not rs)
    faces = []
    for fid, (dim, vs) in enumerate(compact):
        coords = tuple(verts[i] for i in vs)
        wit = face_witness(facets, vs, (), d)
        assert all(x > 0 for x in wit)
        lo = min(dot(wit, v) for v in coords)
        assert not any(dot(wit, v) == lo for j, v in enumerate(verts) if j not in vs)
        faces.append((fid, vs, coords, dim, wit, lo, True, ()))
    return faces


def lowest_face(n, faces, q):
    """The lowest face containing the boundary point q of polyhedron n, whose
    compact faces, from `face_lattice`, are `faces`."""
    qq = [Fraction(x) for x in q]
    tight = [f for f in n.facets if dot(f.normal, qq) == f.offset]
    vs = set(tight[0].vertex_ids)
    rs = set(tight[0].rays)
    for f in tight[1:]:
        vs &= set(f.vertex_ids)
        rs &= set(f.rays)
    vs, rs = tuple(sorted(vs)), tuple(sorted(rs))
    if not rs:
        return next(f for f in faces if f[1] == vs)
    coords = tuple(n.vertices[i] for i in vs)
    wit = face_witness(n.facets, vs, rs, n.dimension)
    span = [[x - y for x, y in zip(p, coords[0])] for p in coords[1:]]
    span += [[int(j == i) for j in range(n.dimension)] for i in rs]
    return (-1, vs, coords, rank(span), wit, dot(wit, coords[0]), False, rs)
