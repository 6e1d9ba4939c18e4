"""Frozen `Fraction` oracle for the exact queries of a Newton polyhedron.

These are the queries as they stood before they were answered on scaled
integers: membership, the facets tight at a point and the ray scaling each
take `Fraction` inner products facet by facet, and the ray scaling's
witness is nu * u.  They read the facet records of an
`oscdecay.polytope.NewtonPolyhedron`; only the exact inner product comes
from `oscdecay.ratlin`.
"""
from __future__ import annotations

from fractions import Fraction

from oscdecay.ratlin import dot


def contains(n, q) -> bool:
    qq = [Fraction(x) for x in q]
    return all(dot(f.normal, qq) >= f.offset for f in n.facets)


def tight_facets(n, q) -> list[int]:
    qq = [Fraction(x) for x in q]
    return [k for k, f in enumerate(n.facets) if dot(f.normal, qq) == f.offset]


def ray_scaling(n, u) -> tuple[Fraction, tuple[Fraction, ...]]:
    """(nu, nu * u): the least nu with nu * u in the polyhedron."""
    uu = tuple(Fraction(x) for x in u)
    nu = max(Fraction(f.offset) / dot(f.normal, uu) for f in n.facets)
    return nu, tuple(nu * x for x in uu)
