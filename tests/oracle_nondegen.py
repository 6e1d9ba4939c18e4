"""Frozen full-grid oracle for the per-face nondegeneracy check.

This is the face check as it stood before the sign certificate: every
orientation x_m = 1 of the slice is swept over all (grid - 1)^(d - 1)
cells of np.geomspace(eta, 1, grid), each cell gets the Lipschitz bound
|g(centre)| - sum_k sup|d_k g| * halfwidth (sup at the upper corner, summed
in k order, then the max over pairs), and a face is certified when every
cell's bound exceeds tol.  A face that fails gets the Gauss-Newton witness
search from the cells of smallest slice maximum.

Pure test machinery: no code shared with `oscdecay.nondegen`; only the
polynomial type and its evaluator come from the package.
"""
from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from oscdecay.phase import restrict_to_face


def mixed_pairs(p):
    """The nonzero off-diagonal second partials d_i d_j p, i < j."""
    out = []
    for i, j in combinations(range(p.dimension), 2):
        g = p.derivative(i, j)
        if not g.is_zero():
            out.append(g)
    return out


def slice_coords(values, d, fixed_axis):
    coords = []
    free = 0
    for k in range(d):
        if k == fixed_axis:
            coords.append(np.float64(1.0))
        else:
            shape = [1] * (d - 1)
            shape[free] = values.size
            coords.append(values.reshape(shape))
            free += 1
    return coords


def slice_values(pairs, centers, d, m):
    cellshape = (centers.size,) * (d - 1)
    coords = slice_coords(centers, d, m)
    gvals = [np.broadcast_to(np.abs(g.evaluate(coords)), cellshape) for g in pairs]
    valmax = gvals[0]
    for g in gvals[1:]:
        valmax = np.maximum(valmax, g)
    return gvals, valmax


def cell_bounds(pairs, d, grid, eta, m):
    """(max_pairs |g| at each cell centre, each cell's certified lower
    bound) on the slice x_m = 1, as arrays of shape (grid - 1,)^(d - 1)."""
    absgrads = [[g.derivative(axis).absolute() for axis in range(d)] for g in pairs]
    nodes = np.geomspace(eta, 1.0, grid)
    centers = (nodes[:-1] + nodes[1:]) / 2
    halfw = (nodes[1:] - nodes[:-1]) / 2
    uppers = nodes[1:]
    pen = np.empty((centers.size,) * (d - 1))
    cellcert = np.empty_like(pen)
    u_coords = slice_coords(uppers, d, m)
    gvals, valmax = slice_values(pairs, centers, d, m)
    for i, (gv, grads) in enumerate(zip(gvals, absgrads)):
        free = 0
        for k in range(d):
            if k == m:
                continue
            shape = [1] * (d - 1)
            shape[free] = halfw.size
            term = grads[k].evaluate(u_coords) * halfw.reshape(shape)
            if free == 0:
                pen[...] = term
            else:
                np.add(pen, term, out=pen)
            free += 1
        if i == 0:
            np.subtract(gv, pen, out=cellcert)
        else:
            np.maximum(cellcert, np.subtract(gv, pen, out=pen), out=cellcert)
    return valmax, cellcert


def smallest_cells(values, k):
    flat = values.ravel()
    order = sorted(range(flat.size), key=lambda i: (flat[i], i))
    return order[:k]


def refine_zero(pairs, x0, iters=60):
    grads = [[g.derivative(axis) for axis in range(len(x0))] for g in pairs]
    x = np.array([float(v) for v in x0])
    fvals = np.array([g.evaluate(x) for g in pairs])
    for _ in range(iters):
        worst = np.max(np.abs(fvals))
        if worst < 1e-15:
            break
        jac = np.array([[h.evaluate(x) for h in row] for row in grads])
        step, *_ = np.linalg.lstsq(jac, -fvals, rcond=None)
        if not np.all(np.isfinite(step)):
            break
        t = 1.0
        while t > 1e-12 and np.any(x + t * step <= 0):
            t /= 2
        moved = False
        for _ in range(25):
            cand = x + t * step
            cvals = np.array([g.evaluate(cand) for g in pairs])
            if np.max(np.abs(cvals)) < worst:
                x, fvals, moved = cand, cvals, True
                break
            t /= 2
        if not moved:
            break
    return x, float(np.max(np.abs(fvals)))


def normalize_to_slice(x, weights):
    s = min(-math.log(v) / w for v, w in zip(x, weights))
    return np.array([math.exp(w * s) * v for v, w in zip(x, weights)])


def check_face(p, face, grid=64, eta=1e-3, tol=0.0, degen_tol=1e-10, starts=8):
    """(verdict, margin, witness, witness_value) of one face, full grid."""
    d = p.dimension
    pairs = mixed_pairs(restrict_to_face(p, face))
    if not pairs:
        return "degenerate", 0.0, (1.0,) * d, 0.0
    margin = math.inf
    certified = True
    for m in range(d):
        valmax, cellcert = cell_bounds(pairs, d, grid, eta, m)
        margin = min(margin, float(valmax.min()))
        certified = certified and bool((cellcert > tol).all())
    if certified:
        return "nondegenerate", margin, None, None

    nodes = np.geomspace(eta, 1.0, grid)
    centers = (nodes[:-1] + nodes[1:]) / 2
    cand = []
    for m in range(d):
        _, valmax = slice_values(pairs, centers, d, m)
        for idx in smallest_cells(valmax, max(1, starts // d)):
            multi = np.unravel_index(idx, valmax.shape)
            point = []
            free = 0
            for k in range(d):
                if k == m:
                    point.append(1.0)
                else:
                    point.append(float(centers[multi[free]]))
                    free += 1
            cand.append((float(valmax[multi]), tuple(point)))
    cand.sort()
    floor = eta * 1e-2
    best = None
    for _, start in cand[:starts]:
        x, value = refine_zero(pairs, start)
        if value > degen_tol:
            continue
        w = normalize_to_slice(x, face.normal)
        wvalue = max(abs(float(g.evaluate(w))) for g in pairs)
        if min(w) >= floor and wvalue <= degen_tol:
            if best is None or wvalue < best[1]:
                best = (tuple(float(v) for v in w), wvalue)
    if best is not None:
        return "degenerate", margin, best[0], best[1]
    return "inconclusive", margin, None, None
