"""Independent brute-force oracle for the Newton polyhedron machinery.

Everything the main code computes by tight-subset facet solving and
incidence closure is recomputed here by a different route:

  * vertices: domination filter, then an exact LP certificate that the
    point is not a convex-plus-orthant combination of the others;
  * facets: exhaustive search over a primitive integer normal grid, with
    LP certification that the collected facet list reproduces the
    polyhedron (grid widened until the certificate passes);
  * compact faces: brute force over affinely closed vertex subsets with an
    LP feasibility check for a strictly positive common normal;
  * ray scaling: exact LP minimization over the V-representation plus
    rational bisection on exact membership.

Pure test machinery: slow, simple, and with no code shared with the
package's geometry.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product

import numpy as np

from oscdecay.ratlin import dot, rank, rref
from oracle_lp import lp_feasible, solve_lp


def affine_rank(points) -> int:
    """Dimension of the affine hull of a point set (0 for a single point)."""
    base = points[0]
    return rank([[x - b for x, b in zip(p, base)] for p in points[1:]])


def solve_square(a, b) -> tuple[Fraction, ...] | None:
    """Solve a square system exactly.  None when singular."""
    n = len(a)
    aug = [[Fraction(x) for x in row] + [Fraction(b[i])] for i, row in enumerate(a)]
    m, pivots = rref(aug)
    if pivots == list(range(n)):
        return tuple(m[i][n] for i in range(n))
    return None


def _dominated(a, b) -> bool:
    return a != b and all(x >= y for x, y in zip(a, b))


def domination_filter(points):
    pts = sorted({tuple(p) for p in points})
    return [p for p in pts if not any(_dominated(p, q) for q in pts)]


def oracle_membership(points, q) -> bool:
    """Exact test of q in conv(points) + R^d_{>=0}."""
    d = len(q)
    n = len(points)
    # columns: lambda_1..lambda_n, r_1..r_d
    a = []
    for k in range(d):
        a.append([Fraction(p[k]) for p in points] + [Fraction(int(i == k)) for i in range(d)])
    a.append([Fraction(1)] * n + [Fraction(0)] * d)
    b = [Fraction(q[k]) for k in range(d)] + [Fraction(1)]
    return lp_feasible(a, b)


def oracle_vertices(points):
    """LP-certified vertex list."""
    cands = domination_filter(points)
    out = []
    for p in cands:
        others = [q for q in cands if q != p]
        if not others or not oracle_membership(others, p):
            out.append(p)
    return sorted(out)


def _primitive_grid(d: int, width: int) -> np.ndarray:
    """All primitive integer vectors in [0, width]^d minus the origin."""
    axes = [np.arange(width + 1)] * d
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    grid = grid[grid.any(axis=1)]
    g = grid[:, 0]
    for k in range(1, d):
        g = np.gcd(g, grid[:, k])
    return grid[g == 1]


def _facets_from_grid(cands, d, width):
    pts = np.array(cands, dtype=np.int64)
    normals = _primitive_grid(d, width)
    dots = normals @ pts.T
    offsets = dots.min(axis=1)
    facets = {}
    for w, b, row in zip(normals, offsets, dots):
        tight = [cands[i] for i in np.nonzero(row == b)[0]]
        zero_axes = [i for i in range(d) if w[i] == 0]
        if len(tight) + len(zero_axes) < d:
            continue
        span = [[x - y for x, y in zip(p, tight[0])] for p in tight[1:]]
        span += [[int(j == i) for j in range(d)] for i in zero_axes]
        if rank(span) == d - 1:
            facets[tuple(int(x) for x in w)] = int(b)
    return sorted(facets.items())


def _certify_facets(facets, verts, cands, d) -> bool:
    """Check that the facet list cuts out exactly the polyhedron."""
    # every certified vertex must be a vertex of the carved polyhedron
    for v in verts:
        tight = [w for w, b in facets if dot(w, v) == b]
        if rank(tight) != d:
            return False
    # every basic point of the carved polyhedron must belong to the hull
    for subset in combinations(facets, d):
        mat = [list(w) for w, _ in subset]
        rhs = [b for _, b in subset]
        y = solve_square(mat, rhs)
        if y is None:
            continue
        if all(dot(w, y) >= b for w, b in facets):
            if not oracle_membership(cands, y):
                return False
    # recession cone must be exactly the orthant
    w_rows = [list(w) for w, _ in facets]
    for axis in range(d):
        # minimize r_axis over {W r >= 0, sum r = 1}, r free (split r = u - v)
        nv = 2 * d + len(w_rows)  # u, v, slacks
        a = []
        for row in w_rows:
            a.append([Fraction(x) for x in row] + [-Fraction(x) for x in row]
                     + [Fraction(0)] * len(w_rows))
        for i, row in enumerate(w_rows):
            a[i][2 * d + i] = Fraction(-1)
        a.append([Fraction(1)] * d + [Fraction(-1)] * d + [Fraction(0)] * len(w_rows))
        b = [Fraction(0)] * len(w_rows) + [Fraction(1)]
        c = [Fraction(0)] * nv
        c[axis] = Fraction(1)
        c[d + axis] = Fraction(-1)
        status, _, val = solve_lp(a, b, c)
        if status != "optimal" or val < 0:
            return False
    return True


def oracle_facets(points, max_width: int = 256):
    """Grid-search facet list, certified complete; raises if the cap is hit."""
    d = len(points[0])
    cands = domination_filter(points)
    verts = oracle_vertices(points)
    width = 8
    while width <= max_width:
        facets = _facets_from_grid(cands, d, width)
        if _certify_facets(facets, verts, cands, d):
            return facets
        width *= 2
    raise AssertionError(f"facet oracle: grid cap {max_width} exceeded")


def oracle_compact_faces(points):
    """Vertex sets of compact faces via LP positivity of a common normal."""
    verts = oracle_vertices(points)
    d = len(verts[0])
    cands = set()
    for size in range(1, min(len(verts), d) + 1):
        for s in combinations(verts, size):
            # affine closure: vertices on the affine hull of s
            closure = tuple(v for v in verts
                            if affine_rank(list(s) + [v]) == affine_rank(list(s)))
            cands.add(closure)
    faces = []
    for s in sorted(cands):
        inside = set(s)
        others = [v for v in verts if v not in inside]
        # w = 1 + wt (wt >= 0), beta free, <w,v> = beta on s, >= beta + 1 off s
        nw, nb, ns = d, 2, len(others)
        a, b = [], []
        for v in s:
            a.append([Fraction(v[i]) for i in range(d)] + [Fraction(-1), Fraction(1)]
                     + [Fraction(0)] * ns)
            b.append(Fraction(-sum(v)))
        for k, u in enumerate(others):
            row = [Fraction(u[i]) for i in range(d)] + [Fraction(-1), Fraction(1)] \
                + [Fraction(0)] * ns
            row[nw + nb + k] = Fraction(-1)
            a.append(row)
            b.append(Fraction(1 - sum(u)))
        if lp_feasible(a, b):
            faces.append(s)
    return faces


def oracle_min_scale(points, direction):
    """Exact min t with t * direction in conv(points) + orthant (LP on V-rep)."""
    d = len(direction)
    n = len(points)
    # columns: t, lambda, r
    a = []
    for k in range(d):
        a.append([Fraction(direction[k])] + [-Fraction(p[k]) for p in points]
                 + [-Fraction(int(i == k)) for i in range(d)])
    a.append([Fraction(0)] + [Fraction(1)] * n + [Fraction(0)] * d)
    b = [Fraction(0)] * d + [Fraction(1)]
    c = [Fraction(1)] + [Fraction(0)] * (n + d)
    status, _, val = solve_lp(a, b, c)
    assert status == "optimal", status
    return val


def oracle_bisect_scale(points, direction, iters: int = 40):
    """Rational bisection bracket for the minimal scale along a ray."""
    lo, hi = Fraction(0), Fraction(1)
    while not oracle_membership(points, [hi * x for x in direction]):
        hi *= 2
    for _ in range(iters):
        mid = (lo + hi) / 2
        if oracle_membership(points, [mid * x for x in direction]):
            hi = mid
        else:
            lo = mid
    return lo, hi


def oracle_face_dim_at(points, q):
    """Dimension of the minimal face containing boundary point q.

    Computed as d - rank of the facet normals tight at q, using the
    oracle facet list.
    """
    facets = oracle_facets(points)
    d = len(q)
    tight = [w for w, b in facets if dot(w, q) == b]
    if not tight:
        return d  # interior
    return d - rank(tight)
