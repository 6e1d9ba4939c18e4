"""Quadrature for the separable oscillatory form, with per-box certificates.

The quantity computed here is the integral of exp(i*lambda*phi(x)) against a
smooth compactly supported cutoff times a product of one-variable factors,
each the indicator of an interval.  Each axis of the cutoff support is cut
into octave pieces, clipped to the factor's interval, so every product cell
sees a single oscillation scale and the factor is 1 on every node.  Each axis
of each cell takes the Gauss order and panel count with the fewest nodes that
meet one per-panel error target (`_panel_counts`).  The error estimate reruns
at a lower order only the cells that may miss the target (`_evaluate` states
the rule); every other cell adds the target times its weight mass.  A call
is planned whole before any quadrature, one row per frequency, each row with
its own test function (one plan per distinct one); then the cells of every
row and both levels are evaluated as one batch (`_evaluate`).  A per-axis
rule, real weights times the cutoff, depends only on its piece, panel count
and order: each distinct one is built and stacked once per call, and rows
with equal node counts per axis gather theirs from the stacks.  A kernel
call on several cells needs at most `_CHUNK` workspace floats, and one on a
single cell at most `_CHUNK` nodes (a larger cell is cut along its first
axis).  The kernel has `PhasePolynomial.evaluate_tensor` write lam*phi/2
straight into a reused per-thread workspace, takes cos and sin of theta from
the half-angle tangent tan(theta/2), which vectorizes where complex exp does
not, and contracts them in real arithmetic.  The same cell grid indexes a
closed-form bound per cell (dominant vertex of the support polyhedron):
`box_envelope` gives them all from exact integer exponent grids, and their
sum is an a-priori certificate for the result.

The cutoff has one fixed shape, 1 on |t| <= PLATEAU and 0 on |t| >= 1.
Full tensor quadrature is limited to dimension <= 3.  The certificate sum
has no such limit.
"""
from __future__ import annotations

import heapq
import math
import threading
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Sequence

import numpy as np

from .exponent import INF, ExponentQuery
from .phase import PhasePolynomial
from .polytope import NewtonPolyhedron, build_polyhedron

__all__ = [
    "OscError", "CutoffSpec", "FactorSpec", "TestFunctionSpec",
    "QuadratureConfig", "OscResult", "bump",
    "smooth_step", "evaluate_lambda", "box_envelope", "certificate_sum",
    "lambda_grid", "lambda_sweep", "DEFAULT_CERT_CONSTANT", "MAX_LEVELS", "MIN_LAMBDA",
    "PLATEAU",
]


class OscError(ValueError):
    pass


# calibrated once on the product phase x1*x2 (see scripts/calibrate_certificate.py):
# the worst measured-to-bound ratio over the default sweep is 0.0204 at C = 1,
# and two decades of headroom absorb the phase-dependent van der Corput factors
# the per-cell inequality leaves unquantified
DEFAULT_CERT_CONSTANT = 2.0

MAX_LEVELS = 40   # cutoff octaves run 1..MAX_LEVELS
PLATEAU = Fraction(1, 2)  # the cutoff is 1 on |t| <= PLATEAU and 0 on |t| >= 1
_PLATEAU = float(PLATEAU)  # floats compare with a Fraction 100x slower
MIN_LAMBDA = 2.0  # decay sweeps start here


_SCRATCH = threading.local()


def _scratch(name, size):
    """This thread's own float64 array `name`, at least `size` long; it only grows."""
    buf = getattr(_SCRATCH, name, None)
    if buf is None or buf.size < size:
        buf = np.empty(size)
        setattr(_SCRATCH, name, buf)
    return buf


def bump(t, out=None):
    """The reference bump exp(1 - 1/(1 - t^2)) inside |t| < 1, zero outside.
    `out` may be t itself; rounding can put |t| at exactly 1, outside the mask."""
    t = np.asarray(t, dtype=float)
    m = np.abs(t) < 1
    tm = t[m]  # a copy, so out may be t
    out = np.empty_like(t) if out is None else out
    out.fill(0.0)
    out[m] = np.exp(1.0 - 1.0 / (1.0 - tm * tm))
    return out


# fixed rule for the profile integral; the same rule normalizes itself, so
# smooth_step(0) == 1 exactly.  The rule is applied as a per-row sum, not as
# a BLAS matvec, whose rounding of a row depends on its place in the batch
_STEP_X, _STEP_W = np.polynomial.legendre.leggauss(48)
_STEP_X = 0.5 * (_STEP_X + 1.0)
_STEP_W = 0.5 * _STEP_W
_STEP_NORM = float((bump(2.0 * _STEP_X - 1.0) * _STEP_W).sum())
_STEP_ROWS = 256  # transition nodes per block of the bump table (96 KiB)


def smooth_step(u):
    """Integrated bump: 1 for u <= 0, 0 for u >= 1, flat to all orders at both ends."""
    u = np.asarray(u, dtype=float)
    out = np.where(u >= 1.0, 0.0, u)  # NaN stays NaN
    out[u <= 0.0] = 1.0
    # the bump table runs only on the transition nodes 0 < u < 1, in blocks
    m = (u > 0.0) & (u < 1.0)
    if m.any():
        um = u[m]
        rest, sums = 1.0 - um, np.empty_like(um)
        block = _scratch("step", _STEP_ROWS * _STEP_X.size).reshape(_STEP_ROWS, -1)
        for s in range(0, um.size, _STEP_ROWS):
            e = min(s + _STEP_ROWS, um.size)
            v = np.multiply(rest[s:e, None], _STEP_X, out=block[:e - s])
            v += um[s:e, None]
            v *= 2.0
            v -= 1.0
            bump(v, out=v)
            v *= _STEP_W
            v.sum(axis=1, out=sums[s:e])
        out[m] = rest * sums / _STEP_NORM
    return out


@dataclass(frozen=True)
class CutoffSpec:
    """Tensorized plateau cutoff.

    The per-axis profile equals one on |t| <= PLATEAU and vanishes beyond
    |t| >= 1.  `levels` fixes the octave granularity of the quadrature
    cells and the truncation of the certificate sum.
    """
    positive_orthant: bool = False
    levels: int = 12

    def __post_init__(self):
        if not 1 <= self.levels <= MAX_LEVELS:
            raise OscError("levels out of range")

    def profile(self, t):
        t = np.abs(np.asarray(t, dtype=float))
        return smooth_step((t - _PLATEAU) / (1.0 - _PLATEAU))


# ---------------------------------------------------------------------------
# separable test functions

@dataclass(frozen=True)
class FactorSpec:
    """One-variable factor: the indicator of [a, b].  `FactorSpec()` is the
    whole line.  Quadrature clips each axis's pieces to [a, b], so the factor
    is 1 on every node and never evaluated."""
    a: float = -math.inf
    b: float = math.inf

    @classmethod
    def box(cls, a: float, b: float) -> "FactorSpec":
        if not a < b:
            raise OscError("box indicator needs a < b")
        return cls(float(a), float(b))

    def norm(self, p) -> float:
        """L^p size over the cutoff's support [-1, 1], in closed form."""
        measure = max(min(self.b, 1.0) - max(self.a, -1.0), 0.0)
        return measure ** (0.0 if p == INF else 1.0 / float(p))


@dataclass(frozen=True)
class TestFunctionSpec:
    factors: tuple[FactorSpec, ...]

    __test__ = False  # keep pytest from collecting this as a test class

    @classmethod
    def of(cls, *factors: FactorSpec) -> "TestFunctionSpec":
        return cls(tuple(factors))

    @classmethod
    def ones(cls, dimension: int) -> "TestFunctionSpec":
        return cls(tuple(FactorSpec() for _ in range(dimension)))

    @classmethod
    def boxes(cls, intervals: Sequence[tuple[float, float]]) -> "TestFunctionSpec":
        return cls(tuple(FactorSpec.box(a, b) for a, b in intervals))

    @property
    def dimension(self) -> int:
        return len(self.factors)

    def norms(self, query: ExponentQuery) -> tuple[float, ...]:
        return tuple(fac.norm(p) for fac, p in zip(self.factors, query.p))


# ---------------------------------------------------------------------------
# quadrature

@dataclass(frozen=True)
class QuadratureConfig:
    """Gauss panel rule.  The Gauss remainder bound R(order, waves_per_panel)
    of `order` nodes on a panel of `waves_per_panel` phase turns is the error
    target every panel is sized to.  Each axis of each cell takes the order
    with the fewest nodes that meets it: `order`, 24 or 32 (the last two on
    wider panels), or on the cutoff plateau also 4, 8 or 12.  A rule shrunk
    to the node budget keeps at least one panel per axis, at order 4 on the
    plateau and `order` elsewhere."""
    order: int = 16                 # Gauss nodes per panel of the target
    waves_per_panel: float = 4.0    # phase turns per panel of the target
    node_budget: int = 300_000_000  # tensor points per evaluation level

    def __post_init__(self):
        # comparisons are written so that NaN fails them
        if not (self.order >= 2 and 0 < self.waves_per_panel < math.inf
                and 1 <= self.node_budget < math.inf):
            raise OscError("bad quadrature configuration")


_CHUNK = 262_144  # per kernel call: workspace floats of a batch, nodes of a lone cell


@dataclass(frozen=True)
class OscResult:
    lam: float
    value: complex
    # difference against a lower-order rerun of some cells, plus the
    # allowance of the others (the rule is in _evaluate's docstring)
    error: float
    low_confidence: bool
    nodes: int
    certificate: float | None = None


def _axis_pieces(chi: CutoffSpec, factor: FactorSpec):
    """Signed octave intervals covering the support, clipped to the factor."""
    levels = chi.levels
    mags = [(2.0 ** -(l + 1), 2.0 ** -l, l) for l in range(levels)]
    mags.append((0.0, 2.0 ** -levels, levels))
    signs = (1,) if chi.positive_orthant else (1, -1)
    pieces = []
    for sign in signs:
        for mlo, mhi, level in mags:
            lo, hi = (mlo, mhi) if sign > 0 else (-mhi, -mlo)
            lo, hi = max(lo, factor.a), min(hi, factor.b)
            if hi > lo:
                pieces.append((sign, level, lo, hi))
    return pieces


def _on_plateau(lo, hi):
    """Whether the cutoff is 1 on all of [lo, hi], so the integrand is analytic there."""
    return max(abs(lo), abs(hi)) <= _PLATEAU


_LADDER = (4, 8, 12)  # Gauss orders below `order`, for axes on the cutoff plateau only
_HIGHER = (24, 32)    # Gauss orders above `order`, for any axis


def _log_gauss_constant(n):
    """log of (n!)^4 / ((2n + 1) ((2n)!)^3): an n-point Gauss panel of width h
    errs on exp(i w x) by at most h (w h)^(2n) times this (Davis & Rabinowitz,
    Methods of Numerical Integration, 2.7)."""
    return 4 * math.lgamma(n + 1) - math.log(2 * n + 1) - 3 * math.lgamma(2 * n + 1)


@lru_cache(maxsize=None)
def _ladder(order, waves):
    """The per-panel relative error target R(order, waves), capped at 2, and
    every Gauss order n an axis may take, ascending, as (n, most, plateau):
    `most` is the most turns per panel at which R(n, turns) meets the target
    (`waves` for `order` itself), and `plateau` whether only an axis on the
    cutoff plateau may take n (the orders of _LADDER below `order`; those of
    _HIGHER above it are open to every axis)."""
    log_target = min(2 * order * math.log(2 * math.pi * waves)
                     + _log_gauss_constant(order), math.log(2.0))

    def most(n):
        return math.exp((log_target - _log_gauss_constant(n)) / (2 * n)) / (2 * math.pi)

    rungs = ([(n, most(n), True) for n in _LADDER if n < order] + [(order, waves, False)]
             + [(n, most(n), False) for n in _HIGHER if n > order])
    return math.exp(log_target), tuple(rungs)


def _turns(lam, sizing):
    """Phase turns per cell and axis, a (cells, d) float array, from `sizing`:
    the |d_k phi| bound and the piece width (`_plan`)."""
    bounds, widths = sizing
    with np.errstate(over="ignore"):
        return abs(lam) * bounds * widths / (2.0 * math.pi)


def _panel_counts(lam, sizing, analytic, quad):
    """Gauss panel counts and orders, (cells, d) integer arrays, cells in
    product order, from `sizing`: the (cells, d) float arrays of the
    |d_k phi| bound and the piece width (`_plan`).  Each axis of each cell
    takes, among the orders n it may take (`_ladder`; the plateau ones only
    where `analytic` says its piece lies on the cutoff plateau), the one
    with the fewest nodes at 1 + floor(turns / most_n) panels, ties to the
    lower order: by default 16 points on at most 4 turns, 24 on 7.43 or 32 on
    11.0, and on the plateau also 4, 8 or 12.  Every panel meets the same
    target relative to its width, so the summed bound per axis is that of
    16-point panels alone.  Counts are capped at 2^53, far above any budget."""
    turns = _turns(lam, sizing)
    with np.errstate(over="ignore"):
        if not np.all(np.isfinite(turns / quad.waves_per_panel)):
            raise OscError(f"phase turns per cell overflow at lam {lam:g}")
        # the fewest nodes so far per cell and axis, with their count and
        # order; orders ascend, and a later one needs strictly fewer nodes
        nodes = np.full(turns.shape, np.iinfo(np.int64).max)
        counts, orders = np.zeros_like(nodes), np.zeros_like(nodes)
        for n, most, plateau in _ladder(quad.order, quad.waves_per_panel)[1]:
            count = 1 + np.minimum(np.floor(turns / most), 2.0 ** 53).astype(np.int64)
            size = count * n
            take = size < nodes
            if plateau:
                take &= analytic
            np.copyto(nodes, size, where=take)
            np.copyto(counts, count, where=take)
            np.copyto(orders, n, where=take)
    return counts, orders


# P0(n) per Gauss order n an axis off the cutoff plateau may take, for a rule
# (order, waves_per_panel): the panel count from which on n-point panels on
# the cutoff's transition piece [PLATEAU, 1] integrate
# profile * exp(i w x) there within the target relative to the profile's
# mass, the allowance a cell not rerun adds per axis, at every w up to n's
# most turns per panel (derived by scripts/calibrate_transition.py).  An
# axis on that whole piece whose panels are that narrow keeps the target; a
# missing order resolves none, and a missing rule keeps every rerun
_TRANSITION_PANELS = MappingProxyType({(16, 4.0): ((16, 6), (24, 3), (32, 2))})


def _nodes(counts, orders):
    """Total tensor nodes, in floats, which cannot wrap around."""
    with np.errstate(over="ignore"):
        return np.multiply(counts, orders, dtype=float).prod(axis=1).sum()


def _fit_budget(counts, orders, analytic, turns, quad):
    """Shrink a rule above the node budget: every panel count by one common
    factor, the largest that fits, then one panel more at a time to the axis
    with the most `turns` per panel, while the rule still fits.  Only where
    one panel per axis does not fit are orders above `order` first capped at
    it, and then, as far as needed, the orders of analytic axes stepped down
    the ladder.  The result fits unless one panel per axis at the lowest
    allowed orders (4 on the plateau, `order` elsewhere) does not."""
    _, rungs = _ladder(quad.order, quad.waves_per_panel)
    caps = [(quad.order, True)] + [(n, analytic) for n, _, plateau in reversed(rungs) if plateau]
    for n, where in caps:
        if _nodes(np.ones_like(counts), orders) <= quad.node_budget:
            break
        orders = np.where(where, np.minimum(orders, n), orders)

    def scaled(e):
        return np.maximum(1, np.floor(counts * 2.0 ** e).astype(np.int64))

    # bisect the exponent of the factor; at lo every count is 1
    lo, hi = -math.log2(counts.max()) - 1.0, 0.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if _nodes(scaled(mid), orders) <= quad.node_budget:
            lo = mid
        else:
            hi = mid
    counts = scaled(lo)
    # then one panel more at a time, to the axis with the most turns per
    # panel first, while the rule still fits; a panel more on axis k of
    # cell c adds that cell's nodes / counts[c, k]
    cell_nodes = np.multiply(counts, orders, dtype=float).prod(axis=1)
    room = quad.node_budget - cell_nodes.sum()
    heap = list(zip((-turns / counts).ravel().tolist(),
                    *np.indices(counts.shape).reshape(2, -1).tolist()))
    heapq.heapify(heap)
    while heap:
        _, c, k = heapq.heappop(heap)
        add = cell_nodes[c] / counts[c, k]
        if add > room:
            break
        room -= add
        cell_nodes[c] += add
        counts[c, k] += 1
        heapq.heappush(heap, (-turns[c, k] / counts[c, k], c, k))
    return counts, orders


def _axis_rule(lo, hi, panels, gx, gw, chi):
    """Gauss panel nodes on [lo, hi] and their weights times the cutoff; on
    the plateau the cutoff is 1 and is not evaluated."""
    width = (hi - lo) / panels
    starts = lo + width * np.arange(panels)
    nodes = (starts[:, None] + width * 0.5 * (gx + 1.0)[None, :]).ravel()
    weights = np.tile(width * 0.5 * gw, panels)
    if not _on_plateau(lo, hi):
        weights *= chi.profile(nodes)
    return nodes, weights


def _kernel(p, lam, axes, weights):
    """Tensor quadrature of exp(i*lam*phi) on a batch of cells of one shape.

    axes[k] and weights[k] are the (B, n_k) nodes and real weights of axis
    k, and lam (B,) their frequencies; the result holds the B cell sums.
    cs, (2, B, m, n) for n nodes on the last axis and m on the others, and
    its last axis's contraction are views of this thread's workspace,
    2*B*m*(n + 1) floats.  `PhasePolynomial.evaluate_tensor` writes
    theta/2 = lam*phi/2 straight into cs[1].  With t = tan(theta/2),
    cos(theta) = 2/(1+t^2) - 1 and sin(theta) = 2t/(1+t^2): float64 tan is
    vectorized where complex exp is not, and loses no accuracy.  cs holds
    1 + cos(theta) and sin(theta); each axis is contracted by one real
    matmul, the cosine's -sum(w) is added after the last axis's, and only
    the B cell sums are complex.
    """
    b = axes[0].shape[0]
    sizes = [x.shape[1] for x in axes]
    n, m = sizes[-1], math.prod(sizes[:-1])
    size = 2 * b * m * n
    ws = _scratch("kernel", size + 2 * b * m)
    cs = ws[:size].reshape(2, b, m, n)
    p.evaluate_tensor(axes, 0.5 * lam, cs[1].reshape([b] + sizes))
    np.tan(cs[1], out=cs[1])
    np.multiply(cs[1], cs[1], out=cs[0])
    cs[0] += 1.0
    np.divide(2.0, cs[0], out=cs[0])  # 1 + cos(theta)
    cs[1] *= cs[0]                    # sin(theta)
    w = weights[-1]
    z = np.matmul(cs, w[:, :, None], out=ws[size:size + 2 * b * m].reshape(2, b, m, 1))
    z[0] -= w.sum(axis=1)[:, None, None]
    for wk, nk in zip(weights[-2::-1], sizes[-2::-1]):
        z = np.matmul(z.reshape(2, b, -1, nk), wk[:, :, None])
    return z[0].reshape(b) + 1j * z[1].reshape(b)


@lru_cache(maxsize=None)
def _gauss(order):
    gx, gw = np.polynomial.legendre.leggauss(order)
    gx.flags.writeable = gw.flags.writeable = False
    return gx, gw


def _rows(a):
    """The distinct rows of the integer array a, in lexicographic order, and
    the index of each row of a among them: np.unique(a, axis=0) without its
    sort of a void view, which is 5x slower."""
    order = np.lexsort(a.T[::-1])
    a = a[order]
    step = np.ones(len(a), dtype=bool)
    step[1:] = (a[1:] != a[:-1]).any(axis=1)
    inverse = np.empty(len(a), dtype=np.int64)
    inverse[order] = np.cumsum(step) - 1
    return a[step], inverse


def _run_level(p, axis_pieces, cells, counts, orders, lams, chi):
    """Rule sums and weight masses of rows of cells, each row at its own
    frequency `lams` and with its rule given per axis by its row of `cells`
    (piece index), `counts` and `orders`.  The pieces are already clipped to
    the factors, so a rule is the real Gauss weights times the cutoff, keyed
    by (lo, hi, panels, order) alone.  Per axis, the distinct rules of each
    node count are stacked once; each shape group gathers its rows from them."""
    values = np.zeros(len(cells), dtype=complex)
    mass = np.ones(len(cells))

    @lru_cache(maxsize=None)
    def rule(lo, hi, panels, order):
        # each distinct rule is built once, and every axis and cell shares it
        return _axis_rule(lo, hi, panels, *_gauss(order), chi)

    # per axis, {node count: stacked nodes and weights} and each row's place
    stacks, place = [], []
    for k, pieces in enumerate(axis_pieces):
        keys, inv = _rows(np.stack([counts[:, k] * orders[:, k], cells[:, k],
                                    counts[:, k], orders[:, k]], axis=1))
        sizes, first, many = np.unique(keys[:, 0], return_index=True, return_counts=True)
        built = [rule(pieces[j][2], pieces[j][3], c, o) for _, j, c, o in keys.tolist()]
        stacks.append({n: [np.stack(r) for r in zip(*built[a:a + m])]
                       for n, a, m in zip(sizes.tolist(), first.tolist(), many.tolist())})
        mass *= np.concatenate([np.zeros(0)] + [np.abs(w).sum(axis=1)
                                                for _, w in stacks[-1].values()])[inv]
        place.append((np.arange(len(keys)) - np.repeat(first, many))[inv])
    # rows with equal node counts per axis have rules of equal shape: each
    # such group is evaluated in batches whose kernel workspace,
    # 2*b*m*(n + 1) floats, stays within _CHUNK
    shapes, group = _rows(counts * orders)
    by_group = np.split(np.argsort(group, kind="stable"), np.cumsum(np.bincount(group))[:-1])
    for sizes, members in zip(shapes.tolist(), by_group):
        size = math.prod(sizes)
        batch = max(1, _CHUNK // (2 * (size + size // sizes[-1])))
        # a cell above the chunk alone is cut into slices along axis 0
        rows = max(1, _CHUNK // (size // sizes[0]))
        # per axis, the stack of the group's node count and its rows' places
        gathered = [(*by_size[n], at[members]) for by_size, at, n in zip(stacks, place, sizes)]
        for start in range(0, len(members), batch):
            idx = members[start:start + batch]
            axes = [x[at[start:start + batch]] for x, _, at in gathered]
            weights = [w[at[start:start + batch]] for _, w, at in gathered]
            for s in range(0, sizes[0], rows):
                values[idx] += _kernel(p, lams[idx], [axes[0][:, s:s + rows]] + axes[1:],
                                       [weights[0][:, s:s + rows]] + weights[1:])
    return values, mass


def _plan(p, f, chi, grads=None):
    """What an evaluation's cells and rules depend on besides lam: the pieces
    of each axis; then per cell (in product order) and axis, as (cells, d)
    arrays: the piece index, whether that piece lies on the cutoff plateau,
    and the sizing `_panel_counts` takes, the |d_k phi| bound and the piece
    width.  `grads`, p's derivatives with absolute coefficients, may be given."""
    d = p.dimension
    if d > 3:
        raise OscError("tensor quadrature is limited to dimension <= 3")
    if f.dimension != d:
        raise OscError("test function dimension mismatch")
    axis_pieces = [_axis_pieces(chi, f.factors[k]) for k in range(d)]
    full = tuple(len(pieces) for pieces in axis_pieces)
    cells = np.stack(np.unravel_index(np.arange(math.prod(full)), full), axis=1)
    analytic = np.stack([np.array([_on_plateau(lo, hi) for _, _, lo, hi in pieces],
                                  dtype=bool)[cells[:, k]]
                         for k, pieces in enumerate(axis_pieces)], axis=1)
    # d_k phi with absolute coefficients bounds |d_k phi| on a cell at its
    # corner of largest magnitudes.  It is evaluated once on the grid of those
    # corners, which holds Python floats (dtype object), so every power and
    # product is the one a scalar evaluation at a single corner would give
    mags = [np.array([max(abs(lo), abs(hi)) for _, _, lo, hi in pieces], dtype=object)
            .reshape([-1] + [1] * (d - 1 - k)) for k, pieces in enumerate(axis_pieces)]
    grads = grads or [p.derivative(k).absolute() for k in range(d)]
    bounds = np.stack([np.broadcast_to(np.asarray(g.evaluate(mags), dtype=float), full).ravel()
                       for g in grads], axis=1)
    widths = np.stack([np.array([hi - lo for _, _, lo, hi in pieces])[cells[:, k]]
                       for k, pieces in enumerate(axis_pieces)], axis=1)
    return axis_pieces, cells, analytic, (bounds, widths)


def _per_row(f, rows):
    """`f` once per row: one `TestFunctionSpec` repeated, or a sequence of one per row."""
    fs = [f] * rows if isinstance(f, TestFunctionSpec) else list(f)
    if len(fs) != rows:
        raise OscError(f"{len(fs)} test functions for {rows} frequencies")
    return fs


def _evaluate(p, f, chi, lams, quad):
    """Tensor-panel quadrature of the oscillatory form at every frequency of
    `lams`, with one test function `f` or one per frequency: per frequency,
    its result (without certificate), and the value and node count of every
    cell, cells in product order.

    Panel counts and Gauss orders per cell and axis follow the local phase
    variation (`_panel_counts`); when the implied node count exceeds the
    budget, the rule is shrunk to fit (`_fit_budget`) and the result is
    flagged low-confidence.  The reported error is the difference against a
    rerun on the same panels at order max(n // 2, n - 4) on the axes at order
    n >= `order` (12, 20 and 28 for 16, 24 and 32), or on every axis of a
    shrunk rule, plus d * target times the weight mass of each cell not
    rerun.  For a rule with an entry in `_TRANSITION_PANELS` only two kinds
    of cell are rerun: every cell of a shrunk rule, and a cell with an axis
    off the cutoff plateau that is not resolved.  An axis is resolved when
    its piece is the whole transition [PLATEAU, 1], unclipped, and its
    panels are at most (1 - PLATEAU) / P0(n) wide, on which n-point panels
    meet the target across the transition.  Every other cell has each axis
    within the error target, analytic or resolved.  A rule without an entry
    reruns every cell with an axis at order n >= `order`.  Each distinct
    test function is planned once, with p's derivative bounds formed once
    per call; their pieces join one list per axis, and all rows run in one
    `_run_level`.
    """
    lams = [float(lam) for lam in lams]
    bad = [lam for lam in lams if not math.isfinite(lam)]
    if bad:
        raise OscError(f"frequency must be finite, got {bad[0]:g}")
    fs = _per_row(f, len(lams))
    grads = [p.derivative(k).absolute() for k in range(p.dimension)]
    axis_pieces, plans = [[] for _ in grads], {}
    for g in dict.fromkeys(fs):
        pieces, cells, analytic, sizing = _plan(p, g, chi, grads)
        plans[g] = cells + [len(all_k) for all_k in axis_pieces], analytic, sizing
        for all_k, pieces_k in zip(axis_pieces, pieces):
            all_k.extend(pieces_k)
    # per Gauss order, the widest panel that keeps the target on the cutoff's
    # transition piece, the octave piece [PLATEAU, 1]; 0 where none does
    transition = 1.0 - _PLATEAU
    entry = _TRANSITION_PANELS.get((quad.order, quad.waves_per_panel))
    widest = np.zeros(max(quad.order, _HIGHER[-1]) + 1)
    for n, panels in entry or ():
        widest[n] = transition / panels
    rows, main, rerun_rows = [], [], []
    for lam, g in zip(lams, fs):
        cells, analytic, sizing = plans[g]
        counts, orders = _panel_counts(lam, sizing, analytic, quad)
        low_confidence = bool(_nodes(counts, orders) > quad.node_budget)
        if low_confidence:
            counts, orders = _fit_budget(counts, orders, analytic, _turns(lam, sizing), quad)
        # a shrunk rule no longer meets the target on analytic axes: rerun
        # them all.  Otherwise, with a table entry, only a cell with an axis
        # off the plateau that is clipped or on panels too wide for the
        # transition is rerun
        full = (orders >= quad.order) | low_confidence
        if entry is None:
            rerun = full.any(axis=1)
        else:
            widths = sizing[1]
            resolved = analytic | ((widths == transition)
                                   & (widths <= widest[orders] * counts))
            rerun = ~resolved.all(axis=1) | low_confidence
        coarse = np.where(full, np.maximum(orders // 2, orders - 4), orders)
        rows.append((lam, counts, orders, low_confidence, rerun))
        main.append((cells, counts, orders, np.full(len(cells), lam)))
        rerun_rows.append((cells[rerun], counts[rerun], coarse[rerun],
                           np.full(int(rerun.sum()), lam)))
    # the cells, counts, orders and lam of every frequency's rows, then of
    # every frequency's rerun rows
    values, mass = _run_level(p, axis_pieces, *(np.concatenate(col) for col in
                                                zip(*main, *rerun_rows)), chi)
    target, _ = _ladder(quad.order, quad.waves_per_panel)
    ends = np.cumsum([len(r[0]) for r in main + rerun_rows])[:-1]
    parts, masses, out = np.split(values, ends), np.split(mass, ends), []
    for (lam, counts, orders, low_confidence, rerun), v, m, check in zip(
            rows, parts, masses, parts[len(lams):]):
        error = abs((v[rerun] - check).sum()) + p.dimension * target * m[~rerun].sum()
        cell_nodes = (counts * orders).prod(axis=1)
        out.append((OscResult(lam, complex(v.sum()), float(error), low_confidence,
                              int(cell_nodes.sum())), v, cell_nodes))
    return out


def _certified(results, p, fs, chi, query, n, constant):
    """The results, each certified (`certificate_sum`) with its test function in `fs`."""
    d = p.dimension
    if n is None:
        n = build_polyhedron(p)
    if query is None:
        query = ExponentQuery.all_inf(d)
    return tuple(replace(r, certificate=certificate_sum(
        p, n, query, f.norms(query), r.lam, levels=chi.levels,
        multiplicity=1 if chi.positive_orthant else 2 ** d, constant=constant))
        for r, f in zip(results, fs))


def evaluate_lambda(p: PhasePolynomial, f: TestFunctionSpec, chi: CutoffSpec,
                    lam: float, *, quad: QuadratureConfig = QuadratureConfig(),
                    certify: bool = False, query: ExponentQuery | None = None,
                    n: NewtonPolyhedron | None = None,
                    cert_constant: float = DEFAULT_CERT_CONSTANT) -> OscResult:
    """Tensor-panel quadrature of the oscillatory form at one frequency, the
    one-row case of `_evaluate`; with `certify` it carries its certificate."""
    (r, _, _), = _evaluate(p, f, chi, [lam], quad)
    if certify:
        r, = _certified([r], p, [f], chi, query, n, cert_constant)
    return r


# ---------------------------------------------------------------------------
# per-box bound and certificate

def box_envelope(vertices: Sequence[Sequence[int]], weights: Sequence, lam: float,
                 jmax: int, scale: float = 1.0) -> np.ndarray:
    """Terms scale * 2^-<w, j> * min(1, |lam 2^-t|^(-1/2)), t = min over vertices
    alpha of <alpha, j>, for j over [0, jmax]^d in `product` order.  Exponents
    are exact integers, <w, j> over one common denominator; the float factors
    are scalar libm calls per distinct exponent (numpy's array pow is not libm)."""
    w = [Fraction(x) for x in weights]
    d, den = len(w), math.lcm(*(x.denominator for x in w))

    def factor(rows, f):
        # f of min over rows c of <c, j>, called once per distinct value; the
        # running minimum is exact, in Python ints where int64 could overflow
        big = max(abs(x) for c in rows for x in c) * jmax * d >= 2 ** 63
        axes = [np.arange(jmax + 1, dtype=object if big else np.int64)
                .reshape([-1] + [1] * (d - 1 - k)) for k in range(d)]
        e = None
        for c in rows:
            ec = sum(ck * ak for ck, ak in zip(c, axes))
            e = ec if e is None else np.minimum(e, ec, out=e)
        uniq = np.unique(e)  # not return_inverse: it holds 3 more grid-size arrays
        return np.array([f(x) for x in uniq.tolist()])[np.searchsorted(uniq, e.ravel())]

    def gain(t):
        osc = math.ldexp(abs(lam), -t)
        return min(1.0, osc ** -0.5) if osc > 0 else 1.0

    nums = [x.numerator * (den // x.denominator) for x in w]
    return factor([nums], lambda s: scale * 2.0 ** -(s / den)) * factor(vertices, gain)


def certificate_sum(p: PhasePolynomial, n: NewtonPolyhedron,
                    query: ExponentQuery, norms: Sequence[float], lam: float,
                    *, levels: int = 12, multiplicity: int = 1,
                    constant: float = DEFAULT_CERT_CONSTANT) -> float:
    """Sum of per-box bounds (weights 1/p') over the octave grid, left to right."""
    if len(norms) != p.dimension:
        raise OscError("norm vector dimension mismatch")
    terms = box_envelope(n.vertices, query.dual_reciprocals, lam, levels, math.prod(norms))
    return constant * multiplicity * float(np.add.accumulate(terms)[-1])


# ---------------------------------------------------------------------------
# sweeps

def lambda_grid(lo: float = 64.0, hi: float = 4096.0, count: int = 13) -> tuple[float, ...]:
    """`count` frequencies from lo to hi in geometric progression; a single
    point is lo, whatever hi is."""
    if count < 1 or not lo >= MIN_LAMBDA or (count > 1 and not lo < hi):
        raise OscError("bad lambda grid request")
    if count == 1:
        return (float(lo),)
    ratio = (hi / lo) ** (1.0 / (count - 1))
    return tuple(lo * ratio ** i for i in range(count))


def lambda_sweep(p: PhasePolynomial, f: TestFunctionSpec | Sequence[TestFunctionSpec],
                 chi: CutoffSpec, lambdas: Sequence[float], *,
                 quad: QuadratureConfig = QuadratureConfig(),
                 certify: bool = False, query: ExponentQuery | None = None,
                 n: NewtonPolyhedron | None = None) -> tuple[OscResult, ...]:
    """Evaluate the form on an increasing frequency grid, one result each,
    equal to `evaluate_lambda`'s at each frequency.  `f` is one test function
    for the whole grid, or a sequence of one per frequency.  The whole grid
    is evaluated as one batch of cells (`_evaluate`)."""
    lams = [float(x) for x in lambdas]
    fs = _per_row(f, len(lams))
    if not lams:
        return ()
    if any(b <= a for a, b in zip(lams, lams[1:])):
        raise OscError("lambda grid must be strictly increasing")
    if lams[0] < MIN_LAMBDA:
        raise OscError(f"decay sweeps start at lambda >= {MIN_LAMBDA:g}")
    results = [r for r, _, _ in _evaluate(p, fs, chi, lams, quad)]
    if certify:
        return _certified(results, p, fs, chi, query, n, DEFAULT_CERT_CONSTANT)
    return tuple(results)
