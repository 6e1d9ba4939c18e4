"""Mixed-Hessian nondegeneracy checks and dyadic-box scale analysis.

A reduced phase is called nondegenerate here when, for every compact face
of its Newton polyhedron, the off-diagonal second partials of the face
polynomial have no common zero in the open positive orthant.  Each face
polynomial is quasi-homogeneous under the anisotropic scaling given by the
face normal, so its zero set is scale-invariant and the search collapses
to the slice {x : max_k x_k = 1, min_k x_k >= eta}.  Sampling that slice
with per-cell derivative bounds yields one of three verdicts per face: a
certified positive lower bound ("nondegenerate" down to resolution eta), a
refined near-zero witness off the coordinate hyperplanes ("degenerate"),
or an honest "inconclusive".

The box-level quantities live on dyadic boxes prod_k [eps_k, 8 eps_k] with
eps_k = 2^(-j_k).  All comparisons between monomial scales eps^alpha are
done on the integer exponents <alpha, j>, never in floating point.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
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

def _mixed_pairs(p: PhasePolynomial) -> list[PhasePolynomial]:
    """The nonzero off-diagonal second partials d_i d_j p, i < j."""
    out = []
    for i, j in combinations(range(p.dimension), 2):
        g = p.derivative(i, j)
        if not g.is_zero():
            out.append(g)
    return out


def _scaled_pairs(p: PhasePolynomial) -> list[tuple[tuple[int, int], PhasePolynomial]]:
    """The nonzero polynomials x_i x_j (d^2 p / dx_i dx_j), keyed by (i, j)."""
    out = []
    for i, j in combinations(range(p.dimension), 2):
        terms = {a: c * a[i] * a[j] for a, c in p.terms.items() if a[i] and a[j]}
        if terms:
            out.append(((i, j), PhasePolynomial(p.dimension, terms)))
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


def _slice_coords(values: np.ndarray, d: int, fixed_axis: int):
    """Broadcastable coordinate arrays with axis `fixed_axis` pinned to 1."""
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


def _refine_zero(pairs: Sequence[PhasePolynomial], x0, iters: int = 60):
    """Gauss-Newton descent toward a common zero of the pair polynomials."""
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


def _normalize_to_slice(x: np.ndarray, weights: Sequence[int]) -> np.ndarray:
    # scale along the quasi-homogeneous flow so that max_k x_k = 1
    s = min(-math.log(v) / w for v, w in zip(x, weights))
    return np.array([math.exp(w * s) * v for v, w in zip(x, weights)])


def _check_face(p: PhasePolynomial, face: Face, grid: int, eta: float,
                tol: float, degen_tol: float, starts: int) -> FaceCheck:
    d = p.dimension
    fpoly = restrict_to_face(p, face)
    pairs = _mixed_pairs(fpoly)
    if not pairs:
        # a sum of single-variable monomials; impossible for reduced input
        return FaceCheck(face.id, face.dim, "degenerate", 0.0, (1.0,) * d, 0.0)
    absgrads = [[g.derivative(axis).absolute() for axis in range(d)] for g in pairs]

    nodes = np.geomspace(eta, 1.0, grid)
    centers = (nodes[:-1] + nodes[1:]) / 2
    halfw = (nodes[1:] - nodes[:-1]) / 2
    uppers = nodes[1:]

    margin = math.inf
    certified = True
    cand: list[tuple[float, tuple[float, ...]]] = []
    cellshape = (centers.size,) * (d - 1)
    for m in range(d):
        c_coords = _slice_coords(centers, d, m)
        u_coords = _slice_coords(uppers, d, m)
        gvals = [np.broadcast_to(np.abs(g.evaluate(c_coords)), cellshape)
                 for g in pairs]
        valmax = gvals[0]
        for g in gvals[1:]:
            valmax = np.maximum(valmax, g)
        margin = min(margin, float(valmax.min()))

        cellcert = None
        for gv, grads in zip(gvals, absgrads):
            pen = 0.0
            free = 0
            for k in range(d):
                if k == m:
                    continue
                shape = [1] * (d - 1)
                shape[free] = halfw.size
                pen = pen + grads[k].evaluate(u_coords) * halfw.reshape(shape)
                free += 1
            bound = gv - pen
            cellcert = bound if cellcert is None else np.maximum(cellcert, bound)
        if not bool((cellcert > tol).all()):
            certified = False

        flat = np.argsort(valmax, axis=None)[:max(1, starts // d)]
        for idx in flat:
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

    if certified:
        return FaceCheck(face.id, face.dim, "nondegenerate", margin)

    cand.sort()
    floor = eta * 1e-2
    best = None
    for _, start in cand[:starts]:
        x, value = _refine_zero(pairs, start)
        if value > degen_tol:
            continue
        w = _normalize_to_slice(x, face.normal)
        wvalue = max(abs(float(g.evaluate(w))) for g in pairs)
        if min(w) >= floor and wvalue <= degen_tol:
            if best is None or wvalue < best[1]:
                best = (tuple(float(v) for v in w), wvalue)
    if best is not None:
        return FaceCheck(face.id, face.dim, "degenerate", margin, best[0], best[1])
    return FaceCheck(face.id, face.dim, "inconclusive", margin)


# one face sweep visits d * (grid - 1)^(d - 1) cells; 2^23 admits grid 64 up
# to d = 4 and grid 32 in d = 5
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
                        grid: int = 64, eta: float = 1e-3, tol: float = 0.0,
                        degen_tol: float = 1e-10, starts: int = 8) -> NondegeneracyReport:
    """Face-by-face common-zero search for the off-diagonal Hessian entries.

    Certification covers the cone {x > 0 : min_k x_k >= eta * max_k x_k}; a
    "nondegenerate" verdict is exact down to that resolution, a "degenerate"
    one carries a positive witness with max_{i<j} |d_i d_j phi_F| <= degen_tol.
    """
    if not p.reduced:
        raise NondegenError("phase must be reduced first (reduce_phase)")
    if grid < 2:
        raise NondegenError("grid must have at least 2 points per axis")
    if grid > max_grid(p.dimension):
        raise NondegenError(f"grid {grid} sweeps more than {MAX_FACE_CELLS} cells "
                            f"per face in dimension {p.dimension}; the largest "
                            f"grid that fits is {max_grid(p.dimension)}")
    if n is None:
        n = build_polyhedron(p)
    checks = tuple(_check_face(p, face, grid, eta, tol, degen_tol, starts)
                   for face in n.faces)
    return NondegeneracyReport(p.dimension, grid, eta, checks)


# ---------------------------------------------------------------------------
# scale-invariant mixed-Hessian floor over a dyadic box

@dataclass(frozen=True)
class HessianFloor:
    """min over the box of max_{i<j} |x_i x_j d_i d_j phi|, with its argmin."""

    value: float
    point: tuple[float, ...]


def mixed_hessian_floor(p: PhasePolynomial, box: DyadicBox, *,
                        grid: int = 24, refine: int = 4) -> HessianFloor:
    if box.dimension != p.dimension:
        raise NondegenError("box dimension does not match the phase")
    pairs = _scaled_pairs(p)
    lo = [float(x) for x in box.lo]
    hi = [float(x) for x in box.hi]
    if not pairs:
        return HessianFloor(0.0, tuple(lo))
    d = p.dimension
    best_val, best_pt = math.inf, tuple(lo)
    for _ in range(refine + 1):
        axes = [np.geomspace(a, b, grid) for a, b in zip(lo, hi)]
        coords = np.meshgrid(*axes, indexing="ij", sparse=True)
        val = None
        for _, g in pairs:
            gv = np.abs(g.evaluate(coords))
            val = gv if val is None else np.maximum(val, gv)
        idx = np.unravel_index(np.argmin(val), val.shape)
        if float(val[idx]) < best_val:
            best_val = float(val[idx])
            best_pt = tuple(float(axes[k][idx[k]]) for k in range(d))
        lo = [float(axes[k][max(idx[k] - 1, 0)]) for k in range(d)]
        hi = [float(axes[k][min(idx[k] + 1, grid - 1)]) for k in range(d)]
    return HessianFloor(best_val, best_pt)


# ---------------------------------------------------------------------------
# box sweeps: floor and ceiling constants

@dataclass(frozen=True)
class BoxRatioRow:
    j: tuple[int, ...]
    ratio: float
    value: float
    point: tuple[float, ...]
    scale_exponent: int

    def to_json_dict(self) -> dict:
        return {"j": list(self.j), "ratio": self.ratio, "value": self.value,
                "point": list(self.point), "scale_exponent": self.scale_exponent}


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

    def to_json_dict(self) -> dict:
        worst = sorted(self.rows, key=lambda r: (r.ratio, r.j))[:10]
        return {"floor_constant": self.floor_constant, "verdict": self.verdict,
                "jmax": self.jmax, "grid": self.grid, "threshold": self.threshold,
                "worst_boxes": [r.to_json_dict() for r in worst]}


def sweep_hessian_floor(p: PhasePolynomial, n: NewtonPolyhedron | None = None, *,
                        jmax: int = 10, grid: int = 16, refine: int = 3,
                        threshold: float = 1e-6) -> FloorSweep:
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
        fl = mixed_hessian_floor(p, box, grid=grid, refine=refine)
        rows.append(BoxRatioRow(j, _pow2(fl.value, t), fl.value, fl.point, t))
    constant = min(r.ratio for r in rows)
    verdict = "PASS" if constant >= threshold else "FAIL"
    return FloorSweep(constant, verdict, tuple(rows), jmax, grid, threshold)


@dataclass(frozen=True)
class CeilingSweep:
    ceiling_constant: float
    verdict: str
    rows: tuple[BoxRatioRow, ...]  # per box: the worst derivative ratio
    jmax: int
    grid: int
    order_cap: int

    def to_json_dict(self) -> dict:
        worst = sorted(self.rows, key=lambda r: (-r.ratio, r.j))[:10]
        return {"ceiling_constant": self.ceiling_constant, "verdict": self.verdict,
                "jmax": self.jmax, "grid": self.grid, "order_cap": self.order_cap,
                "worst_boxes": [r.to_json_dict() for r in worst]}


def _falling(n: int, k: int) -> int:
    out = 1
    for i in range(k):
        out *= n - i
    return out


def sweep_derivative_ceiling(p: PhasePolynomial, n: NewtonPolyhedron | None = None, *,
                             jmax: int = 10, grid: int = 8,
                             order_cap: int = 3) -> CeilingSweep:
    """Ceiling constant: max over boxes and derivative orders a <= order_cap
    of sup |x^a d^a phi| / (largest vertex monomial scale)."""
    if n is None:
        n = build_polyhedron(p)
    d = p.dimension
    # the nonzero polynomials x^a d^a phi, one per derivative order a
    apolys = []
    for a in product(range(order_cap + 1), repeat=d):
        terms = {beta: c * math.prod(_falling(bk, ak) for bk, ak in zip(beta, a))
                 for beta, c in p.terms.items()}
        poly = PhasePolynomial.from_terms(terms, d, allow_zero=True)
        if not poly.is_zero():
            apolys.append(poly)
    rows = []
    for j in product(range(jmax + 1), repeat=d):
        box = DyadicBox(j)
        t = _min_scale_exponent(n, box)
        axes = [np.geomspace(float(a), float(b), grid)
                for a, b in zip(box.lo, box.hi)]
        coords = np.meshgrid(*axes, indexing="ij", sparse=True)
        worst_val, worst_pt = -math.inf, tuple(float(x) for x in box.lo)
        for poly in apolys:
            vals = np.abs(poly.evaluate(coords))
            idx = np.unravel_index(np.argmax(vals), vals.shape)
            if float(vals[idx]) > worst_val:
                worst_val = float(vals[idx])
                worst_pt = tuple(float(axes[k][idx[k]]) for k in range(d))
        rows.append(BoxRatioRow(j, _pow2(worst_val, t), worst_val, worst_pt, t))
    constant = max(r.ratio for r in rows)
    verdict = "PASS" if math.isfinite(constant) else "FAIL"
    return CeilingSweep(constant, verdict, tuple(rows), jmax, grid, order_cap)


# ---------------------------------------------------------------------------
# congruent subdivision with a fixed Hessian pair per piece

@dataclass(frozen=True)
class CellAssignment:
    index: tuple[int, ...]
    lo: tuple[Fraction, ...]
    hi: tuple[Fraction, ...]
    pair: tuple[int, int]


@dataclass(frozen=True)
class BoxSubdivision:
    ok: bool
    levels: int | None
    threshold: float
    cells: tuple[CellAssignment, ...]


def subdivide_box(p: PhasePolynomial, box: DyadicBox,
                  n: NewtonPolyhedron | None = None, *,
                  floor_ratio: float | None = None, max_levels: int = 6,
                  grid: int = 6) -> BoxSubdivision:
    """Smallest N splitting the box into 2^(d N) congruent pieces such that
    each piece (doubled, clipped to the box) has one Hessian pair bounded
    below by half the floor ratio times the dominant vertex scale."""
    if n is None:
        n = build_polyhedron(p)
    d = p.dimension
    t = _min_scale_exponent(n, box)
    if floor_ratio is None:
        fl = mixed_hessian_floor(p, box)
        floor_ratio = _pow2(fl.value, t)
    threshold = (floor_ratio / 2) * _pow2(1.0, -t)
    pairs = _scaled_pairs(p)
    # a nonpositive threshold would make the cell bound vacuous
    if not pairs or not threshold > 0:
        return BoxSubdivision(False, None, threshold, ())

    for levels in range(max_levels + 1):
        parts = 2 ** levels
        widths = [(b - a) / parts for a, b in zip(box.lo, box.hi)]
        cells = []
        feasible = True
        for index in product(range(parts), repeat=d):
            clo = [a + i * w for a, i, w in zip(box.lo, index, widths)]
            chi = [a + w for a, w in zip(clo, widths)]
            dlo = [max(a, x - w / 2) for a, x, w in zip(box.lo, clo, widths)]
            dhi = [min(b, x + w / 2) for b, x, w in zip(box.hi, chi, widths)]
            axes = [np.geomspace(float(a), float(b), grid)
                    for a, b in zip(dlo, dhi)]
            coords = np.meshgrid(*axes, indexing="ij", sparse=True)
            chosen = None
            for pair, g in pairs:
                if float(np.abs(g.evaluate(coords)).min()) >= threshold:
                    chosen = pair
                    break
            if chosen is None:
                feasible = False
                break
            cells.append(CellAssignment(index, tuple(clo), tuple(chi), chosen))
        if feasible:
            return BoxSubdivision(True, levels, threshold, tuple(cells))
    return BoxSubdivision(False, None, threshold, ())


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


# ---------------------------------------------------------------------------
# dominant-face classification of a box

@dataclass(frozen=True)
class DominantFace:
    dominated: bool
    order: int | None          # dimension of the dominant face
    face: Face | None
    scale_exponent: int        # t with max_alpha eps^alpha = 2^(-t)
    gap: int | None            # log2 suppression of the best outside vertex

    def to_json_dict(self) -> dict:
        return {"dominated": self.dominated, "order": self.order,
                "face_vertices": [list(v) for v in self.face.vertices] if self.face else None,
                "scale_exponent": self.scale_exponent, "gap": self.gap}


def dominant_face(n: NewtonPolyhedron, box: DyadicBox,
                  thresholds: Sequence | None = None) -> DominantFace:
    """The compact face whose vertex monomials all share the largest scale
    on the box, with every other vertex suppressed below the dimension's
    threshold (default 2^-(dim+3)); exact integer-exponent arithmetic."""
    d = n.dimension
    if box.dimension != d:
        raise NondegenError("box dimension does not match the polyhedron")
    if thresholds is None:
        ks = [Fraction(1, 2 ** (k + 3)) for k in range(d)]
    else:
        ks = [Fraction(x) for x in thresholds]
        if len(ks) != d or any(not 0 < k < 1 for k in ks):
            raise NondegenError("need one threshold in (0,1) per face dimension")

    svals = [box.scale_exponent(v) for v in n.vertices]
    s1 = min(svals)
    tight = tuple(sorted(i for i, s in enumerate(svals) if s == s1))
    face = next((f for f in n.faces if f.vertex_ids == tight), None)
    if face is None:
        return DominantFace(False, None, None, s1, None)
    outside = [s for i, s in enumerate(svals) if i not in tight]
    if not outside:
        return DominantFace(True, face.dim, face, s1, None)
    s2 = min(outside)
    gap = s2 - s1
    if Fraction(1, 2 ** s2) <= ks[face.dim] * Fraction(1, 2 ** s1):
        return DominantFace(True, face.dim, face, s1, gap)
    return DominantFace(False, None, None, s1, gap)
