"""Quadrature for the separable oscillatory form, with per-box certificates.

The quantity computed here is the integral of exp(i*lambda*phi(x)) against a
smooth compactly supported cutoff times a product of one-variable factors.
Each axis of the cutoff support is cut into octave pieces, so every product
cell sees a single oscillation scale; Gauss panel counts then track the phase
variation cell by cell instead of chasing the worst case globally; each
per-axis rule is built once per distinct (axis, piece, panel count) and shared
by every cell that uses it.  Cells with equal panel counts are stacked and
evaluated together, at most `QuadratureConfig.chunk` nodes per kernel call, so
the working set stays a few megabytes whatever the frequency.  The kernel
takes exp(i*theta) from the float64 half-angle tangent t = tan(theta/2) in
real arithmetic, which vectorizes where complex exp does not.  The same cell
grid indexes a closed-form bound per cell (dominant vertex of the support
polyhedron), whose sum serves as an a-priori certificate for the measured
value.

Full tensor quadrature is limited to dimension <= 3.  The certificate sum
has no such limit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import product
from typing import Sequence

import numpy as np

from .exponent import INF, ExponentQuery
from .nondegen import DyadicBox
from .phase import PhasePolynomial
from .polytope import NewtonPolyhedron, build_polyhedron
from .ratlin import dot

__all__ = [
    "OscError", "CutoffSpec", "FactorSpec", "TestFunctionSpec",
    "QuadratureConfig", "BoxContribution", "OscResult", "bump",
    "smooth_step", "evaluate_lambda", "single_box_bound", "certificate_sum",
    "lambda_grid", "lambda_sweep", "DEFAULT_CERT_CONSTANT", "MAX_LEVELS", "MIN_LAMBDA",
]


class OscError(ValueError):
    pass


# calibrated once on the product phase x1*x2 (see scripts/calibrate_certificate.py):
# the worst measured-to-bound ratio over the default sweep is 0.0204 at C = 1,
# and two decades of headroom absorb the phase-dependent van der Corput factors
# the per-cell inequality leaves unquantified
DEFAULT_CERT_CONSTANT = 2.0

MAX_LEVELS = 40   # cutoff octaves run 1..MAX_LEVELS
MIN_LAMBDA = 2.0  # decay sweeps start here


def bump(t):
    """The reference bump exp(1 - 1/(1 - t^2)) inside |t| < 1, zero outside."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    m = np.abs(t) < 1
    tm = t[m]
    out[m] = np.exp(1.0 - 1.0 / (1.0 - tm * tm))
    return out


# fixed rule for the profile integral; the same rule normalizes itself, so
# smooth_step(0) == 1 exactly
_STEP_X, _STEP_W = np.polynomial.legendre.leggauss(48)
_STEP_X = 0.5 * (_STEP_X + 1.0)
_STEP_W = 0.5 * _STEP_W
_STEP_NORM = float(bump(2.0 * _STEP_X - 1.0) @ _STEP_W)


def smooth_step(u):
    """Integrated bump: 1 for u <= 0, 0 for u >= 1, flat to all orders at both ends."""
    u = np.asarray(u, dtype=float)
    uc = np.clip(u, 0.0, 1.0)
    v = uc[..., None] + (1.0 - uc)[..., None] * _STEP_X
    vals = bump(2.0 * v - 1.0)
    out = (1.0 - uc) * (vals @ _STEP_W) / _STEP_NORM
    return np.where(u <= 0.0, 1.0, np.where(u >= 1.0, 0.0, out))


@dataclass(frozen=True)
class CutoffSpec:
    """Tensorized plateau cutoff.

    The per-axis profile equals one on |t| <= inner*radius and vanishes
    beyond |t| >= radius.  `levels` fixes the octave granularity of the
    quadrature cells and the truncation of the certificate sum.
    """
    radius: float = 1.0
    inner: float = 0.5
    positive_orthant: bool = False
    levels: int = 12

    def __post_init__(self):
        if not (self.radius > 0 and 0 < self.inner < 1):
            raise OscError("cutoff needs radius > 0 and inner fraction in (0, 1)")
        if not 1 <= self.levels <= MAX_LEVELS:
            raise OscError("levels out of range")

    def profile(self, t):
        u = (np.abs(np.asarray(t, dtype=float)) / self.radius - self.inner)
        return smooth_step(u / (1.0 - self.inner))


# ---------------------------------------------------------------------------
# separable test functions

@dataclass(frozen=True)
class FactorSpec:
    """One-variable factor: constant, interval indicator, complex exponential,
    or a sampled table (linear interpolation, zero outside its grid)."""
    kind: str
    scale: complex = 1.0
    a: float = 0.0
    b: float = 0.0
    xi: float = 0.0
    table: tuple[tuple[float, float], ...] = ()

    @classmethod
    def const(cls, value: complex = 1.0) -> "FactorSpec":
        return cls("const", scale=complex(value))

    @classmethod
    def box(cls, a: float, b: float, scale: complex = 1.0) -> "FactorSpec":
        if not a < b:
            raise OscError("box indicator needs a < b")
        return cls("box", scale=complex(scale), a=float(a), b=float(b))

    @classmethod
    def exponential(cls, xi: float) -> "FactorSpec":
        return cls("exp", xi=float(xi))

    @classmethod
    def sampled(cls, points: Sequence[tuple[float, float]]) -> "FactorSpec":
        pts = tuple(sorted((float(t), float(v)) for t, v in points))
        if len(pts) < 2:
            raise OscError("sampled factor needs at least two points")
        return cls("table", table=pts)

    @property
    def interval(self) -> tuple[float, float] | None:
        """Support restriction usable for exact per-axis clipping."""
        if self.kind == "box":
            return (self.a, self.b)
        if self.kind == "table":
            return (self.table[0][0], self.table[-1][0])
        return None

    @property
    def angular_rate(self) -> float:
        """Oscillation the factor itself adds, which panels must resolve."""
        return abs(self.xi) if self.kind == "exp" else 0.0

    def values(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "const":
            return np.full(t.shape, self.scale)
        if self.kind == "box":
            ind = np.where((t >= self.a) & (t <= self.b), 1.0, 0.0)
            return self.scale * ind.astype(complex)
        if self.kind == "exp":
            return np.exp(1j * self.xi * t)
        grid = np.array([q[0] for q in self.table])
        vals = np.array([q[1] for q in self.table])
        return np.interp(t, grid, vals, left=0.0, right=0.0).astype(complex)

    def norm(self, p, radius: float) -> float:
        """L^p size over [-radius, radius]; closed form except for tables."""
        if self.kind == "const":
            base, measure = abs(self.scale), 2.0 * radius
        elif self.kind == "exp":
            base, measure = 1.0, 2.0 * radius
        elif self.kind == "box":
            lo, hi = max(self.a, -radius), min(self.b, radius)
            base, measure = abs(self.scale), max(hi - lo, 0.0)
        else:
            grid = np.array([q[0] for q in self.table])
            vals = np.abs([q[1] for q in self.table])
            if p == INF:
                return float(vals.max())
            # trapezoid sum written out: numpy 2 removed np.trapz, and
            # np.trapezoid is missing before numpy 2.0
            powers = vals ** float(p)
            area = float(np.sum(np.diff(grid) * (powers[1:] + powers[:-1])) / 2.0)
            return area ** (1.0 / float(p))
        if p == INF:
            return base
        return base * measure ** (1.0 / float(p))


@dataclass(frozen=True)
class TestFunctionSpec:
    factors: tuple[FactorSpec, ...]

    __test__ = False  # keep pytest from collecting this as a test class

    @classmethod
    def of(cls, *factors: FactorSpec) -> "TestFunctionSpec":
        return cls(tuple(factors))

    @classmethod
    def ones(cls, dimension: int) -> "TestFunctionSpec":
        return cls(tuple(FactorSpec.const() for _ in range(dimension)))

    @classmethod
    def boxes(cls, intervals: Sequence[tuple[float, float]]) -> "TestFunctionSpec":
        return cls(tuple(FactorSpec.box(a, b) for a, b in intervals))

    @classmethod
    def exponentials(cls, xis: Sequence[float]) -> "TestFunctionSpec":
        return cls(tuple(FactorSpec.exponential(x) for x in xis))

    @property
    def dimension(self) -> int:
        return len(self.factors)

    def norms(self, query: ExponentQuery, radius: float) -> tuple[float, ...]:
        return tuple(fac.norm(p, radius)
                     for fac, p in zip(self.factors, query.p))


# ---------------------------------------------------------------------------
# quadrature

@dataclass(frozen=True)
class QuadratureConfig:
    order: int = 12                 # Gauss nodes per panel
    waves_per_panel: float = 1.0    # target phase turns per panel
    node_budget: int = 300_000_000  # tensor points per evaluation level
    chunk: int = 262_144            # nodes per kernel call: bounds a batch of
                                    # cells and the axis-0 slice of one cell

    def __post_init__(self):
        if self.order < 2 or self.waves_per_panel <= 0 or self.node_budget < 1:
            raise OscError("bad quadrature configuration")


@dataclass(frozen=True)
class BoxContribution:
    index: tuple[tuple[int, int], ...]  # per axis: (sign, octave level)
    value: complex
    nodes: int


@dataclass(frozen=True)
class OscResult:
    lam: float
    value: complex
    error: float            # difference against the half-order rerun
    low_confidence: bool
    nodes: int
    certificate: float | None = None
    boxes: tuple[BoxContribution, ...] | None = None

    @property
    def magnitude(self) -> float:
        return abs(self.value)


def _axis_pieces(chi: CutoffSpec, factor: FactorSpec):
    """Signed octave intervals covering the support, clipped to the factor."""
    r, levels = chi.radius, chi.levels
    mags = [(r * 2.0 ** -(l + 1), r * 2.0 ** -l, l) for l in range(levels)]
    mags.append((0.0, r * 2.0 ** -levels, levels))
    signs = (1,) if chi.positive_orthant else (1, -1)
    clip = factor.interval
    pieces = []
    for sign in signs:
        for mlo, mhi, level in mags:
            lo, hi = (mlo, mhi) if sign > 0 else (-mhi, -mlo)
            if clip is not None:
                lo, hi = max(lo, clip[0]), min(hi, clip[1])
            if hi > lo:
                pieces.append((sign, level, lo, hi))
    return pieces


def _panel_counts(lam, axis_pieces, grads, rates, quad):
    """Gauss panels per axis for every cell, cells in product order of the pieces.

    Each axis's gradient bound is evaluated once, on the grid of cell-corner
    magnitudes.  The grid holds Python floats (dtype object), so every power
    and product is the one a scalar evaluation at a single corner would give.
    """
    d = len(axis_pieces)
    mags, widths = [], []
    for k, pieces in enumerate(axis_pieces):
        shape = [1] * d
        shape[k] = len(pieces)
        mags.append(np.array([max(abs(lo), abs(hi)) for _, _, lo, hi in pieces],
                             dtype=object).reshape(shape))
        widths.append(np.array([hi - lo for _, _, lo, hi in pieces]).reshape(shape))
    full = tuple(len(pieces) for pieces in axis_pieces)
    ratios = []
    for k in range(d):
        bound = np.asarray(grads[k].evaluate(mags), dtype=float)
        turns = (abs(lam) * bound + rates[k]) * widths[k] / (2.0 * math.pi)
        ratios.append(np.broadcast_to(turns / quad.waves_per_panel, full).ravel().tolist())
    return [tuple(1 + int(r) for r in row) for row in zip(*ratios)]


def _axis_rule(lo, hi, panels, gx, gw, chi, factor):
    """Gauss panel nodes on [lo, hi] and their weights times cutoff and factor."""
    width = (hi - lo) / panels
    starts = lo + width * np.arange(panels)
    nodes = (starts[:, None] + width * 0.5 * (gx + 1.0)[None, :]).ravel()
    weights = np.tile(width * 0.5 * gw, panels)
    return nodes, weights * chi.profile(nodes) * factor.values(nodes)


def _kernel(p, lam, axes, weights):
    """Tensor quadrature of exp(i*lam*phi) on a batch of cells of one shape.

    axes[k] and weights[k] are the (B, n_k) nodes and complex weights of axis
    k; the result holds the B cell sums.  With t = tan(theta/2), cos(theta) =
    2/(1+t^2) - 1 and sin(theta) = 2t/(1+t^2): float64 tan is vectorized where
    complex exp is not, and loses no accuracy.  The real arrays 2/(1+t^2) and
    sin(theta) are contracted against the last axis's weights as an (n, 2)
    [re, im] matrix, the cosine's -sum(w) is added after, and only the
    contracted array is complex.
    """
    b = axes[0].shape[0]
    sizes = [x.shape[1] for x in axes]
    grid = [x.reshape([b] + [n if j == k else 1 for j, n in enumerate(sizes)])
            for k, x in enumerate(axes)]
    t = np.empty([b] + sizes)
    np.multiply(p.evaluate(grid), 0.5 * lam, out=t)
    np.tan(t, out=t)
    u = t * t
    u += 1.0
    np.divide(2.0, u, out=u)  # 1 + cos(theta)
    t *= u                    # sin(theta)
    n = sizes[-1]
    w = weights[-1].view(np.float64).reshape(b, n, 2)
    c = np.matmul(u.reshape(b, -1, n), w)
    c -= w.sum(axis=1)[:, None, :]
    s = np.matmul(t.reshape(b, -1, n), w)
    z = np.empty(c.shape[:2], dtype=complex)
    z.real = c[..., 0] - s[..., 1]
    z.imag = c[..., 1] + s[..., 0]
    for wk, nk in zip(weights[-2::-1], sizes[-2::-1]):
        z = np.matmul(z.reshape(b, -1, nk), wk[:, :, None])
    return z.reshape(b)


def _run_level(p, lam, cells, counts, chi, f, quad, keep_boxes):
    gx, gw = np.polynomial.legendre.leggauss(quad.order)
    d = len(f.factors)
    # a per-axis rule depends only on (axis, piece, panel count), so it is
    # built once per distinct key and shared by every cell that uses it
    cache = {}
    # cells with equal panel counts have rules of equal shape: each such
    # group is stacked and evaluated in batches of at most quad.chunk nodes
    groups = {}
    for i, cnt in enumerate(counts):
        groups.setdefault(tuple(cnt), []).append(i)
    values = np.zeros(len(cells), dtype=complex)
    cell_nodes = [0] * len(cells)
    for cnt, members in groups.items():
        sizes = [c * quad.order for c in cnt]
        size = math.prod(sizes)
        batch = max(1, quad.chunk // size)
        # a cell above the chunk alone is cut into slices along axis 0
        rows = max(1, quad.chunk // (size // sizes[0]))
        for start in range(0, len(members), batch):
            idx = members[start:start + batch]
            axes, weights = [], []
            for k in range(d):
                rules = []
                for i in idx:
                    key = (k, cells[i][k], cnt[k])
                    if key not in cache:
                        cache[key] = _axis_rule(key[1][2], key[1][3], cnt[k],
                                                gx, gw, chi, f.factors[k])
                    rules.append(cache[key])
                axes.append(np.stack([x for x, _ in rules]))
                weights.append(np.stack([g for _, g in rules]))
            for s in range(0, sizes[0], rows):
                values[idx] += _kernel(p, lam, [axes[0][:, s:s + rows]] + axes[1:],
                                       [weights[0][:, s:s + rows]] + weights[1:])
        for i in members:
            cell_nodes[i] = size
    boxes = None
    if keep_boxes:
        boxes = [BoxContribution(tuple((sign, level) for sign, level, _, _ in cell),
                                 complex(v), m)
                 for cell, v, m in zip(cells, values, cell_nodes)]
    return complex(values.sum()), sum(cell_nodes), boxes


def evaluate_lambda(p: PhasePolynomial, f: TestFunctionSpec, chi: CutoffSpec,
                    lam: float, *, quad: QuadratureConfig = QuadratureConfig(),
                    certify: bool = False, query: ExponentQuery | None = None,
                    n: NewtonPolyhedron | None = None, keep_boxes: bool = False,
                    cert_constant: float = DEFAULT_CERT_CONSTANT) -> OscResult:
    """Tensor-panel quadrature of the oscillatory form at one frequency.

    Panel counts per cell and axis grow with the local phase variation; when
    the implied node count exceeds the budget, counts are scaled down and
    the result is flagged low-confidence.  The reported error is the
    difference against a half-order rerun on the same panels.
    """
    d = p.dimension
    if d > 3:
        raise OscError("tensor quadrature is limited to dimension <= 3")
    if f.dimension != d:
        raise OscError("test function dimension mismatch")
    lam = float(lam)
    # per axis, d_k phi with absolute coefficients; evaluated at the
    # componentwise magnitude maximum of a cell, it bounds |d_k phi| there
    grads = [p.derivative(k).absolute() for k in range(d)]

    axis_pieces = [_axis_pieces(chi, f.factors[k]) for k in range(d)]
    rates = [fac.angular_rate for fac in f.factors]
    cells = list(product(*axis_pieces))
    counts = _panel_counts(lam, axis_pieces, grads, rates, quad)

    fine_nodes = sum(math.prod(c) for c in counts) * quad.order ** d
    low_confidence = fine_nodes > quad.node_budget
    if low_confidence:
        shrink = (quad.node_budget / fine_nodes) ** (1.0 / d)
        counts = [[max(1, int(c * shrink)) for c in cnt] for cnt in counts]

    value, nodes_used, boxes = _run_level(
        p, lam, cells, counts, chi, f, quad, keep_boxes)
    # halving the Gauss order on the same panels gives a nonzero error signal
    # even for single-panel cells, where halving the count would not
    coarse_quad = replace(quad, order=max(2, quad.order // 2))
    coarse, _, _ = _run_level(
        p, lam, cells, counts, chi, f, coarse_quad, keep_boxes=False)
    error = abs(value - coarse)

    certificate = None
    if certify:
        if n is None:
            n = build_polyhedron(p)
        if query is None:
            query = ExponentQuery.all_inf(d)
        norms = f.norms(query, chi.radius)
        certificate = certificate_sum(
            p, n, query, norms, lam, levels=chi.levels,
            multiplicity=1 if chi.positive_orthant else 2 ** d,
            constant=cert_constant)
    return OscResult(lam, value, error, low_confidence, nodes_used,
                     certificate, tuple(boxes) if boxes is not None else None)


# ---------------------------------------------------------------------------
# per-box bound and certificate

def _box_term(scale: float, lam: float, t: int, s: float) -> float:
    """scale * 2^-s * min(1, |lam 2^-t|^(-1/2)): one box's bound."""
    volume = 2.0 ** -s
    osc = math.ldexp(abs(lam), -t)
    gain = min(1.0, osc ** -0.5) if osc > 0 else 1.0
    return scale * volume * gain


def single_box_bound(p: PhasePolynomial, n: NewtonPolyhedron, box: DyadicBox,
                     query: ExponentQuery, norms: Sequence[float], lam: float,
                     constant: float = 1.0) -> float:
    """Dominant-vertex bound for the form restricted to one dyadic box.

    The oscillation gain |lam * eps^alpha|^(-1/2) is best at the vertex with
    the smallest scale exponent, and never helps beyond the plain volume
    factor eps^(1/p'); the minimum of the two branches is returned times the
    product of factor norms.
    """
    if len(box.j) != p.dimension:
        raise OscError("box dimension mismatch")
    if len(norms) != p.dimension:
        raise OscError("norm vector dimension mismatch")
    t = min(dot(v, box.j) for v in n.vertices)
    s = sum(r * j for r, j in zip(query.dual_reciprocals, box.j))
    return _box_term(constant * math.prod(norms), lam, t, float(s))


def certificate_sum(p: PhasePolynomial, n: NewtonPolyhedron,
                    query: ExponentQuery, norms: Sequence[float], lam: float,
                    *, levels: int = 12, multiplicity: int = 1,
                    constant: float = DEFAULT_CERT_CONSTANT) -> float:
    """Sum of per-box bounds over the octave grid covering the support."""
    if len(norms) != p.dimension:
        raise OscError("norm vector dimension mismatch")
    vertices = n.vertices
    scale = math.prod(norms)
    # 1/p' as integer numerators over one denominator: the int true division
    # below rounds correctly, so it gives the float of the exact Fraction sum
    recips = query.dual_reciprocals
    den = math.lcm(*(r.denominator for r in recips))
    nums = [r.numerator * (den // r.denominator) for r in recips]
    total = 0.0
    for j in product(range(levels + 1), repeat=p.dimension):
        t = min(dot(v, j) for v in vertices)
        s = sum(a * b for a, b in zip(nums, j)) / den
        total += _box_term(scale, lam, t, s)
    return constant * multiplicity * total


# ---------------------------------------------------------------------------
# sweeps

def lambda_grid(lo: float = 64.0, hi: float = 4096.0, count: int = 13) -> tuple[float, ...]:
    if count < 1 or not MIN_LAMBDA <= lo < hi:
        raise OscError("bad lambda grid request")
    if count == 1:
        return (float(lo),)
    ratio = (hi / lo) ** (1.0 / (count - 1))
    return tuple(lo * ratio ** i for i in range(count))


def lambda_sweep(p: PhasePolynomial, f: TestFunctionSpec, chi: CutoffSpec,
                 lambdas: Sequence[float], **kwargs) -> tuple[OscResult, ...]:
    """Evaluate the form on an increasing frequency grid, one result each."""
    lams = [float(x) for x in lambdas]
    if not lams:
        return ()
    if any(b <= a for a, b in zip(lams, lams[1:])):
        raise OscError("lambda grid must be strictly increasing")
    if lams[0] < MIN_LAMBDA:
        raise OscError(f"decay sweeps start at lambda >= {MIN_LAMBDA:g}")
    return tuple(evaluate_lambda(p, f, chi, lam, **kwargs) for lam in lams)
