"""Sharp decay exponents from Newton polyhedron geometry.

For Lebesgue exponents p_j in [2, inf] write 1/p'_j = 1 - 1/p_j, so the
dual-exponent vector u = (1/p'_1, ..., 1/p'_d) lies in [1/2, 1]^d.  The
sharp decay rate is the least nu > 0 with nu * u inside the polyhedron; the
log power m is d - l where the minimal face containing the witness nu * u
has dimension l - 1 (m = 0 for witnesses on faces of dimension d - 1).

Since the polyhedron is an intersection of halfspaces <w, x> >= b with
w >= 0 and u is strictly positive, the minimum along the ray is attained
exactly at max_facets b / <w, u>.  With u = U / D for integers U, the
facets compare on integers by cross-multiplying b / <w, U>, and nu is the
one `Fraction` D b / <w, U> of the largest.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Sequence

from .polytope import Face, NewtonPolyhedron, lowest_face_containing
from .ratlin import clear_denominators

INF = math.inf


class ExponentError(ValueError):
    """Invalid Lebesgue exponent query."""


def _parse_p(value) -> Fraction | float:
    if value in ("inf", "Inf", "INF", "oo"):
        return INF
    if isinstance(value, float) and math.isinf(value):
        return INF
    p = Fraction(value)
    if p < 2:
        raise ExponentError(f"p = {p} out of range; exponents must lie in [2, inf]")
    return p


@dataclass(frozen=True)
class ExponentQuery:
    """A vector of Lebesgue exponents, one per variable; `inf` is explicit."""

    p: tuple

    @classmethod
    def of(cls, values: Sequence) -> "ExponentQuery":
        return cls(tuple(_parse_p(v) for v in values))

    @classmethod
    def all_inf(cls, dimension: int) -> "ExponentQuery":
        return cls((INF,) * dimension)

    @property
    def dimension(self) -> int:
        return len(self.p)

    @property
    def dual_reciprocals(self) -> tuple[Fraction, ...]:
        """The vector 1/p' = 1 - 1/p, exactly; 1 for p = inf."""
        return tuple(Fraction(1) if x is INF or (isinstance(x, float) and math.isinf(x))
                     else 1 - Fraction(1) / Fraction(x)
                     for x in self.p)

    def is_all_inf(self) -> bool:
        return all(isinstance(x, float) and math.isinf(x) for x in self.p)


@dataclass(frozen=True)
class ExponentReport:
    nu: Fraction
    m: int
    witness: tuple[Fraction, ...]
    face: Face
    m_is_sharp: bool
    flags: tuple[str, ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "nu": str(self.nu),
            "nu_float": float(self.nu),
            "m": self.m,
            "witness": [str(x) for x in self.witness],
            "face": {
                "dim": self.face.dim,
                "vertices": [list(v) for v in self.face.vertices],
                "compact": self.face.compact,
            },
            "m_is_sharp": self.m_is_sharp,
            "flags": list(self.flags),
        }


def ray_scaling(n: NewtonPolyhedron, u: Sequence) -> tuple[Fraction, tuple, "object"]:
    """Least t with t*u on the polyhedron boundary, for strictly positive u.

    Returns (t, t*u, lowest face containing t*u).  This is the scaling
    shared by the exponent criterion and the dyadic-sum envelope.
    """
    uu = [Fraction(x) for x in u]
    if len(uu) != n.dimension:
        raise ExponentError("ray direction has wrong dimension")
    if any(x <= 0 for x in uu):
        raise ExponentError("ray direction must be strictly positive")
    U, den = clear_denominators(uu)
    b, s = 0, 1  # the largest b / <w, U> so far, cross-multiplied as <w, U> > 0
    for f in n.facets:
        fs = sum(map(mul, f.normal, U))
        if f.offset * s > b * fs:
            b, s = f.offset, fs
    if not b:
        raise ExponentError("degenerate polyhedron: ray never leaves the complement")
    nu = Fraction(b * den, s)
    witness = tuple(Fraction(b * x, s) for x in U)
    return nu, witness, lowest_face_containing(n, witness)


def sharp_exponent(n: NewtonPolyhedron, q: ExponentQuery) -> ExponentReport:
    """Sharp (nu, m) for the given exponents.

    nu <= 2 is outside the supported range of the decay law; the value
    is still returned, flagged.  m is the proven upper bound for the log
    power; it is known sharp only in the all-infinity case.
    """
    if q.dimension != n.dimension:
        raise ExponentError("exponent vector has wrong dimension")
    nu, witness, face = ray_scaling(n, q.dual_reciprocals)
    ell = face.dim + 1
    m = n.dimension - ell
    flags = []
    if nu <= 2:
        flags.append("nu<=2 boundary")
    if not face.compact:
        flags.append("witness on unbounded face")
    return ExponentReport(nu, m, witness, face, q.is_all_inf(), tuple(flags))


def varchenko_exponent(n: NewtonPolyhedron) -> ExponentReport:
    """The all-infinity query: nu equals the Newton distance exactly."""
    return sharp_exponent(n, ExponentQuery.all_inf(n.dimension))
