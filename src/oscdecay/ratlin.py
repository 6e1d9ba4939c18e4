"""Small exact linear algebra over the rationals.

Everything here operates on plain Python ints and Fractions; no floats.
These routines back the polyhedral geometry (ranks and primitive normals
for faces and facets) and the log2-space rescaling solver, where floating
error would corrupt exact face and membership decisions.

Matrices are lists of row sequences.  Inputs may mix ints and Fractions.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

Vector = Sequence[Fraction | int]
Matrix = Sequence[Vector]


def dot(u: Vector, v: Vector) -> Fraction | int:
    """Inner product; stays in int when both vectors are int."""
    if len(u) != len(v):
        raise ValueError("length mismatch in dot product")
    return sum(a * b for a, b in zip(u, v))


def clear_denominators(vec: Vector) -> tuple[list[int], int]:
    """`vec` times the least common denominator `den` of its entries, and `den`."""
    den = lcm(*(x.denominator for x in vec))
    return [x.numerator * (den // x.denominator) for x in vec], den


def rref(rows: Matrix) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form.  Returns (rows, pivot column indices)."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def rank(rows: Matrix) -> int:
    """Row rank by fraction-free (Bareiss) elimination on the rows scaled to
    integers by their common denominators; every division is exact."""
    m = [clear_denominators(row)[0] for row in rows]
    r, prev = 0, 1
    for c in range(len(m[0]) if m else 0):
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        pv = m[r][c]
        for i in range(r + 1, len(m)):
            f = m[i][c]
            m[i] = [(pv * x - f * y) // prev for x, y in zip(m[i], m[r])]
        prev, r = pv, r + 1
    return r


def inf_operator_norm(a: Matrix) -> Fraction:
    """Max-row-sum norm, i.e. the operator norm on sup-norm vectors."""
    return max(sum(abs(Fraction(x)) for x in row) for row in a)


def primitive(vec: Vector) -> tuple[int, ...]:
    """Scale a rational vector by a positive rational to primitive integers.

    Direction is preserved (no sign flip); the zero vector is rejected.
    """
    if not any(vec):
        raise ValueError("primitive of zero vector")
    ints = clear_denominators(vec)[0]
    g = gcd(*ints)
    return tuple(x // g for x in ints)
