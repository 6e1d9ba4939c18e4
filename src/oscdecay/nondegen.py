"""Mixed-Hessian nondegeneracy checks and dyadic-box scale analysis.

A reduced phase is called nondegenerate here when, for every compact face
of its Newton polyhedron, the off-diagonal second partials of the face
polynomial have no common zero in the open positive orthant.  Each face
polynomial is quasi-homogeneous under the anisotropic scaling given by the
face normal, so its zero set is scale-invariant and the search collapses
to the slice {x : max_k x_k = 1, min_k x_k >= eta}.  An exact sign test,
or else one sweep of that slice's grid cells per orientation, yields one of
three verdicts per face: a certified positive lower bound ("nondegenerate"
down to resolution eta), a refined near-zero witness off the coordinate
hyperplanes ("degenerate"), or an honest "inconclusive".  The sweep gives
each cell's derivative bound, the face's margin and the witness search's
start cells at once.

The box-level quantities live on dyadic boxes prod_k [eps_k, 8 eps_k] with
eps_k = 2^(-j_k).  All comparisons between monomial scales eps^alpha are
done on the integer exponents <alpha, j>, never in floating point.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import combinations, product
from operator import sub
from typing import Sequence

import numpy as np

from .phase import PhasePolynomial, restrict_to_face
from .polytope import Face, NewtonPolyhedron, build_polyhedron
from .ratlin import dot, inf_operator_norm, invert, rank


class NondegenError(ValueError):
    """Invalid input to a box-analysis routine."""


# ---------------------------------------------------------------------------
# dyadic boxes

@dataclass(frozen=True)
class DyadicBox:
    """The box prod_k [eps_k, 8 eps_k] with eps_k = 2^(-j_k), j_k >= 0 integer."""

    j: tuple[int, ...]

    def __post_init__(self):
        if not self.j or any(not isinstance(x, int) or x < 0 for x in self.j):
            raise NondegenError(f"box exponents must be nonnegative integers, got {self.j!r}")

    @classmethod
    def of(cls, j: Sequence) -> "DyadicBox":
        return cls(tuple(int(x) for x in j))

    @property
    def dimension(self) -> int:
        return len(self.j)

    @property
    def eps(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(1, 2 ** x) for x in self.j)

    @property
    def lo(self) -> tuple[Fraction, ...]:
        return self.eps

    @property
    def hi(self) -> tuple[Fraction, ...]:
        return tuple(8 * e for e in self.eps)

    def scale_exponent(self, alpha: Sequence[int]) -> int:
        """The integer t with eps^alpha = 2^(-t)."""
        return dot(alpha, self.j)


def _min_scale_exponent(n: NewtonPolyhedron, box: DyadicBox) -> int:
    # max over vertices of eps^alpha is 2^(-t) for the smallest t
    return min(box.scale_exponent(v) for v in n.vertices)


def _pow2(value: float, t: int) -> float:
    """value * 2^t without intermediate over/underflow surprises."""
    if value == 0.0:
        return 0.0
    try:
        return math.ldexp(value, t)
    except OverflowError:
        return math.inf


# ---------------------------------------------------------------------------
# exact second-order polynomials

def _mixed_pairs(p: PhasePolynomial, scaled: bool = False) -> list[PhasePolynomial]:
    """The nonzero off-diagonal second partials d_i d_j p, i < j, built from
    p's terms: c x^a gives c a_i a_j x^(a - e_i - e_j), so each pair equals
    p.derivative(i, j) term for term.  With `scaled`, the nonzero
    x_i x_j d_i d_j p, whose term keeps the exponent a."""
    out = []
    for i, j in combinations(range(p.dimension), 2):
        shift = [0 if scaled or k not in (i, j) else 1 for k in range(p.dimension)]
        terms = {tuple(map(sub, a, shift)): c * a[i] * a[j]
                 for a, c in p.terms.items() if a[i] and a[j]}
        if terms:
            out.append(PhasePolynomial(p.dimension, terms))
    return out


# ---------------------------------------------------------------------------
# per-face nondegeneracy

@dataclass(frozen=True)
class FaceCheck:
    face_id: int
    face_dim: int
    verdict: str  # "nondegenerate" | "degenerate" | "inconclusive"
    margin: float
    witness: tuple[float, ...] | None = None
    witness_value: float | None = None

    def to_json_dict(self) -> dict:
        return {
            "face_id": self.face_id,
            "face_dim": self.face_dim,
            "verdict": self.verdict,
            "margin": self.margin,
            "witness": list(self.witness) if self.witness else None,
            "witness_value": self.witness_value,
        }


@dataclass(frozen=True)
class NondegeneracyReport:
    dimension: int
    grid: int
    eta: float
    faces: tuple[FaceCheck, ...]

    @property
    def verdict(self) -> str:
        kinds = {f.verdict for f in self.faces}
        if "degenerate" in kinds:
            return "degenerate"
        if "inconclusive" in kinds:
            return "inconclusive"
        return "nondegenerate"

    @property
    def margin(self) -> float:
        return min(f.margin for f in self.faces)

    @property
    def witness(self) -> tuple[float, ...] | None:
        for f in self.faces:
            if f.verdict == "degenerate":
                return f.witness
        return None

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "margin": self.margin,
            "grid": self.grid,
            "eta": self.eta,
            "faces": [f.to_json_dict() for f in self.faces],
        }


_REFINE_STEPS = 60  # Gauss-Newton steps of `_refine_zero` at most


def _refine_zero(pairs: Sequence[PhasePolynomial], grads, x0):
    """Gauss-Newton descent toward a common zero of the pair polynomials;
    grads[i][k] is the exact d_k of pairs[i].  The iterate is a list of
    floats; a trial point is taken only when every |pair| drops below the
    current max (so a NaN value is never taken)."""
    x = [float(v) for v in x0]
    fvals = [g.evaluate(x) for g in pairs]
    worst = max(map(abs, fvals))
    for _ in range(_REFINE_STEPS):
        if worst < 1e-15:
            break
        jac = np.array([[h.evaluate(x) for h in row] for row in grads])
        step = np.linalg.lstsq(jac, [-f for f in fvals], rcond=None)[0].tolist()
        if not all(map(math.isfinite, step)):
            break
        t = 1.0
        while t > 1e-12 and any(xk + t * sk <= 0 for xk, sk in zip(x, step)):
            t /= 2
        moved = False
        for _ in range(25):
            cand = [xk + t * sk for xk, sk in zip(x, step)]
            cvals = [g.evaluate(cand) for g in pairs]
            if all(abs(v) < worst for v in cvals):
                x, fvals, worst, moved = cand, cvals, max(map(abs, cvals)), True
                break
            t /= 2
        if not moved:
            break
    return x, worst


def _normalize_to_slice(x: Sequence[float], weights: Sequence[int]) -> np.ndarray:
    # scale along the quasi-homogeneous flow so that max_k x_k = 1
    s = min(-math.log(v) / w for v, w in zip(x, weights))
    return np.array([math.exp(w * s) * v for v, w in zip(x, weights)])


def _slice_coords(values: np.ndarray, d: int, m: int) -> list:
    """Coordinates of the slice x_m = 1, one free axis per k != m."""
    coords = [values.reshape([-1 if j == k else 1 for j in range(d - 1)])
              for k in range(d - 1)]
    coords.insert(m, np.float64(1.0))
    return coords


def _abs_values(pairs: Sequence[PhasePolynomial], coords: list,
                shape: tuple[int, ...]) -> list[np.ndarray]:
    """|g| at the broadcasting grid `coords`, one array of `shape` per pair."""
    return [np.broadcast_to(np.abs(g.evaluate(coords)), shape) for g in pairs]


def _smallest_cells(values: np.ndarray, k: int) -> np.ndarray:
    """Flat indices of the k smallest entries, ordered by (value, flat index)."""
    flat = values.ravel()
    if k < flat.size:
        kth = flat[np.argpartition(flat, k - 1)[k - 1]]
        below = np.flatnonzero(flat < kth)
        sel = np.concatenate([below, np.flatnonzero(flat == kth)[:k - below.size]])
    else:
        sel = np.arange(flat.size)
    return sel[np.lexsort((sel, flat[sel]))]


def _cell_bounds(pairs: Sequence[PhasePolynomial], absgrads, nodes: np.ndarray,
                 d: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """max_pairs |g| at the cell centres of the slice x_m = 1 of the grid
    `nodes`, and each cell's bound max_pairs |g(centre)| - sum_k sup|d_k g|
    * halfwidth_k, the sup at the upper corner by `absgrads` (the gradients'
    g.absolute()), summed in k order."""
    centers = (nodes[:-1] + nodes[1:]) / 2
    halfw = _slice_coords((nodes[1:] - nodes[:-1]) / 2, d, m)
    upper = _slice_coords(nodes[1:], d, m)
    gvals = _abs_values(pairs, _slice_coords(centers, d, m), (centers.size,) * (d - 1))
    bounds = (gv - sum(grads[k].evaluate(upper) * halfw[k] for k in range(d) if k != m)
              for gv, grads in zip(gvals, absgrads))
    return reduce(np.maximum, gvals), reduce(np.maximum, bounds)


def _check_face(p: PhasePolynomial, face: Face, grid: int, eta: float,
                degen_tol: float, starts: int) -> FaceCheck:
    """Certify one face, or search it for a common zero of its pairs.

    A pair whose nonzero coefficients share one sign has no zero in the
    open orthant and certifies the face outright, with no grid built; the
    margin is then taken at the centres of the d root boxes [eta, 1]^(d - 1),
    whose coordinates (eta + 1) / 2 are those of the grid's end nodes.  Any
    other face is swept once per orientation x_m = 1 of the slice grid
    np.geomspace(eta, 1, grid).  Each sweep gives every cell's Lipschitz
    bound (`_cell_bounds`), the least max_pairs |g| at a cell centre (the
    margin is the least over the orientations) and the max(1, starts // d)
    cells of smallest max_pairs |g|, ties broken by (value, flat index).
    The face is certified when every bound is positive.  Otherwise the
    `starts` smallest of those cells seed the Gauss-Newton refinement, and
    a refined point off the open orthant is no witness.
    """
    d = p.dimension
    pairs = _mixed_pairs(restrict_to_face(p, face))
    if not pairs:
        # a sum of single-variable monomials; impossible for reduced input
        return FaceCheck(face.id, face.dim, "degenerate", 0.0, (1.0,) * d, 0.0)
    if any(len({c > 0 for c in g.terms.values()}) == 1 for g in pairs):
        centre = np.full((d, d), (eta + 1.0) / 2)
        np.fill_diagonal(centre, 1.0)
        # a constant pair evaluates to a float: broadcast each |g| to (d,)
        values = reduce(np.maximum, _abs_values(pairs, list(centre), (d,)))
        return FaceCheck(face.id, face.dim, "nondegenerate", float(values.min()))

    nodes = np.geomspace(eta, 1.0, grid)
    grads = [[g.derivative(k) for k in range(d)] for g in pairs]
    absgrads = [[h.absolute() for h in row] for row in grads]
    centers = (nodes[:-1] + nodes[1:]) / 2
    margin, certified = math.inf, True
    cand: list[tuple[float, tuple[float, ...]]] = []
    for m in range(d):
        valmax, bound = _cell_bounds(pairs, absgrads, nodes, d, m)
        margin = min(margin, float(valmax.min()))
        certified = certified and bool((bound > 0).all())
        for idx in _smallest_cells(valmax, max(1, starts // d)):
            multi = np.unravel_index(idx, valmax.shape)
            point = [float(centers[i]) for i in multi]
            point.insert(m, 1.0)
            cand.append((float(valmax[multi]), tuple(point)))
    if certified:
        return FaceCheck(face.id, face.dim, "nondegenerate", margin)

    cand.sort()
    floor = eta * 1e-2
    best = None
    for _, start in cand[:starts]:
        x, value = _refine_zero(pairs, grads, start)
        if value > degen_tol or min(x) <= 0:
            continue
        w = _normalize_to_slice(x, face.normal)
        wvalue = max(abs(float(g.evaluate(w))) for g in pairs)
        if min(w) >= floor and wvalue <= degen_tol:
            if best is None or wvalue < best[1]:
                best = (tuple(float(v) for v in w), wvalue)
    if best is not None:
        return FaceCheck(face.id, face.dim, "degenerate", margin, best[0], best[1])
    return FaceCheck(face.id, face.dim, "inconclusive", margin)


# a swept face's grid has d * (grid - 1)^(d - 1) cells, one slice array of
# (grid - 1)^(d - 1) per pair alive at a time; 2^23 admits grid 129 in
# d = 4, 36 in d = 5 and 17 in d = 6
MAX_FACE_CELLS = 2 ** 23


def max_grid(dimension: int) -> int:
    """Largest grid whose face sweeps stay within MAX_FACE_CELLS cells."""
    d = dimension
    steps = int((MAX_FACE_CELLS / d) ** (1.0 / (d - 1)))
    while d * (steps + 1) ** (d - 1) <= MAX_FACE_CELLS:
        steps += 1
    while d * steps ** (d - 1) > MAX_FACE_CELLS:
        steps -= 1
    return steps + 1


def check_nondegeneracy(p: PhasePolynomial, n: NewtonPolyhedron | None = None, *,
                        grid: int = 64, eta: float = 1e-3, degen_tol: float = 1e-10,
                        starts: int = 8) -> NondegeneracyReport:
    """Face-by-face common-zero search for the off-diagonal Hessian entries.

    Certification covers the cone {x > 0 : min_k x_k >= eta * max_k x_k}; a
    "nondegenerate" verdict is exact down to that resolution, a "degenerate"
    one carries a positive witness with max_{i<j} |d_i d_j phi_F| <= degen_tol.
    A face's margin is the least max_{i<j} |d_i d_j phi_F| at the grid's
    cell centres, or, for a face certified by the sign of its coefficients,
    at the centres of its d root boxes.  The witness search runs only on
    faces that fail certification; its `starts` Gauss-Newton seeds are the
    grid cells of smallest slice maximum, picked during the certifying
    sweep with ties broken by (value, flat index), so witnesses are
    deterministic.
    """
    if not p.reduced:
        raise NondegenError("phase must be reduced first (reduce_phase)")
    if grid < 2:
        raise NondegenError("grid must have at least 2 points per axis")
    if starts < 0:
        raise NondegenError(f"starts must be nonnegative, got {starts}")
    if grid > max_grid(p.dimension):
        raise NondegenError(f"grid {grid} sweeps more than {MAX_FACE_CELLS} cells "
                            f"per face in dimension {p.dimension}; the largest "
                            f"grid that fits is {max_grid(p.dimension)}")
    if n is None:
        n = build_polyhedron(p)
    checks = tuple(_check_face(p, face, grid, eta, degen_tol, starts)
                   for face in n.faces)
    return NondegeneracyReport(p.dimension, grid, eta, checks)


# ---------------------------------------------------------------------------
# scale-invariant mixed-Hessian floor over a dyadic box

@dataclass(frozen=True)
class HessianFloor:
    """min over the box of max_{i<j} |x_i x_j d_i d_j phi|, with its argmin."""

    value: float
    point: tuple[float, ...]


# `mixed_hessian_floor`'s zooms after its first grid, each onto the grid
# cells around the minimum so far, and the floor constant under which
# `sweep_hessian_floor` fails
_FLOOR_ZOOMS = 3
_FLOOR_THRESHOLD = 1e-6


def mixed_hessian_floor(p: PhasePolynomial, box: DyadicBox, *,
                        grid: int = 24) -> HessianFloor:
    if box.dimension != p.dimension:
        raise NondegenError("box dimension does not match the phase")
    pairs = _mixed_pairs(p, scaled=True)
    lo = [float(x) for x in box.lo]
    hi = [float(x) for x in box.hi]
    if not pairs:
        return HessianFloor(0.0, tuple(lo))
    d = p.dimension
    best_val, best_pt = math.inf, tuple(lo)
    for _ in range(_FLOOR_ZOOMS + 1):
        axes = [np.geomspace(a, b, grid) for a, b in zip(lo, hi)]
        coords = np.meshgrid(*axes, indexing="ij", sparse=True)
        val = reduce(np.maximum, _abs_values(pairs, coords, (grid,) * d))
        idx = np.unravel_index(np.argmin(val), val.shape)
        if float(val[idx]) < best_val:
            best_val = float(val[idx])
            best_pt = tuple(float(axes[k][idx[k]]) for k in range(d))
        lo = [float(axes[k][max(idx[k] - 1, 0)]) for k in range(d)]
        hi = [float(axes[k][min(idx[k] + 1, grid - 1)]) for k in range(d)]
    return HessianFloor(best_val, best_pt)


# ---------------------------------------------------------------------------
# box sweep: the floor constant

@dataclass(frozen=True)
class BoxRatioRow:
    j: tuple[int, ...]
    ratio: float
    value: float
    point: tuple[float, ...]
    scale_exponent: int


@dataclass(frozen=True)
class FloorSweep:
    floor_constant: float
    verdict: str
    rows: tuple[BoxRatioRow, ...]
    jmax: int
    grid: int
    threshold: float

    @property
    def worst(self) -> BoxRatioRow:
        return min(self.rows, key=lambda r: (r.ratio, r.j))


def sweep_hessian_floor(p: PhasePolynomial, n: NewtonPolyhedron | None = None, *,
                        jmax: int = 10, grid: int = 16) -> FloorSweep:
    """Floor constant: min over boxes of floor / (largest vertex monomial scale).

    A nondegenerate phase keeps the ratio bounded below across all boxes; a
    degenerate one sends it to zero, tripping the FAIL verdict.
    """
    if n is None:
        n = build_polyhedron(p)
    rows = []
    for j in product(range(jmax + 1), repeat=p.dimension):
        box = DyadicBox(j)
        t = _min_scale_exponent(n, box)
        fl = mixed_hessian_floor(p, box, grid=grid)
        rows.append(BoxRatioRow(j, _pow2(fl.value, t), fl.value, fl.point, t))
    constant = min(r.ratio for r in rows)
    verdict = "PASS" if constant >= _FLOOR_THRESHOLD else "FAIL"
    return FloorSweep(constant, verdict, tuple(rows), jmax, grid, _FLOOR_THRESHOLD)


# ---------------------------------------------------------------------------
# exact rescaling onto a reference monomial

@dataclass(frozen=True)
class Rescaling:
    y: tuple[float, ...]
    log2_y: tuple[Fraction, ...]
    basis: tuple[int, ...]
    rho: Fraction
    bound: float  # y lies in [bound, 1/bound]^d


def solve_rescaling(alphas: Sequence[Sequence[int]], beta: Sequence[int],
                    box: DyadicBox, contrast) -> Rescaling:
    """Positive y with y^alpha = eps^(alpha - beta) for each given alpha.

    The equations are solved exactly in log2 coordinates over an
    independent column basis (remaining components are 1).  `contrast` is
    the lower bound on eps^alpha / eps^beta from the caller's sandwich
    assumption; the output satisfies y in [b, 1/b]^d with b = contrast^rho,
    rho the max-row-sum norm of the inverted basis block.
    """
    alphas = [tuple(int(x) for x in a) for a in alphas]
    beta = tuple(int(x) for x in beta)
    d = box.dimension
    if not alphas or any(len(a) != d for a in alphas) or len(beta) != d:
        raise NondegenError("exponent rows must match the box dimension")
    m = len(alphas)
    if m > d or rank([list(a) for a in alphas]) != m:
        raise NondegenError("exponent rows must be linearly independent")
    kappa = Fraction(contrast)
    if not 0 < kappa < 1:
        raise NondegenError(f"contrast must lie in (0, 1), got {contrast}")

    sb = box.scale_exponent(beta)
    v = [sb - box.scale_exponent(a) for a in alphas]  # log2 eps^(alpha-beta)
    for a, vk in zip(alphas, v):
        if vk > 0 or Fraction(1, 2 ** (-vk)) < kappa:
            raise NondegenError(
                f"scale sandwich violated for row {a}: eps^(alpha-beta) = 2^{vk}")

    basis: list[int] = []
    for c in range(d):
        cand = basis + [c]
        cols = [[alphas[k][i] for k in range(m)] for i in cand]
        if rank(cols) == len(cand):
            basis = cand
        if len(basis) == m:
            break
    block = [[Fraction(alphas[k][i]) for i in basis] for k in range(m)]
    inv = invert(block)
    u_basis = [sum(inv[r][k] * v[k] for k in range(m)) for r in range(m)]
    u = [Fraction(0)] * d
    for i, c in enumerate(basis):
        u[c] = u_basis[i]
    for a, vk in zip(alphas, v):
        assert dot(a, u) == vk, "internal error: rescaling equations not satisfied"
    rho = inf_operator_norm(inv)
    bound = float(kappa) ** float(rho)
    y = tuple(2.0 ** float(x) for x in u)
    return Rescaling(y, tuple(u), tuple(basis), rho, bound)
