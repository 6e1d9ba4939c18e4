"""Quadrature for the separable oscillatory form, with per-box certificates.

The quantity computed here is the integral of exp(i*lambda*phi(x)) against a
smooth compactly supported cutoff times a product of one-variable factors,
each the indicator of an interval.  Each axis of the cutoff support is cut
into octave pieces, clipped to the factor's interval, so every product cell
sees a single oscillation scale and the factor is 1 on every node.  Near 0,
where the phase barely turns, the octaves below 2^-L are one merged piece
[0, 2^-L] on a single Gauss panel: per frequency and axis, L is the smallest
depth at which a bound that holds exactly, not the turns model, keeps that
panel within the target (`_depths`).  On every other piece an axis takes
the Gauss order, map exponent e and panel count with the fewest nodes that
meet one per-panel error target (`_panel_counts`); its panels lie at equal
steps of x^e, so each panel of a monomial axis carries an equal share of
the phase.  One table, read term by term off the phase's derivatives, gives
the turns across each piece in x^e for every e, equal panels (e = 1)
included (`_sizing`).  The error estimate reruns at a lower order only the
cells that may miss the target (`_evaluate` states the rule); every other
cell adds the target times its weight mass.  A call is planned whole before
any quadrature, one row per frequency, each row with its own test function
and depths (the cells of all rows are sized in one pass, each at its row's
frequency); then the cells of every row and both levels are evaluated as
one batch (`_evaluate`).  A frequency whose rule needs more nodes than
the budget is refused in the plan: none of its cells is evaluated, and its
result carries no value.  A per-axis rule, real weights times the cutoff,
depends only on its piece, panel count, order and map exponent: each
distinct one is built and stacked once per call, and rows with equal node
counts per axis gather theirs from the stacks.  A kernel call
on several cells needs at most `_CHUNK` workspace floats, and one on a
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
    |t| >= 1.  `levels` is the deepest octave 2^-levels the quadrature may
    cut an axis to (each frequency takes its own depth, `_depths`) and the
    truncation of the certificate sum.
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
        """L^p size over the cutoff's support [-1, 1], in closed form: 0 for
        an interval that misses it."""
        measure = max(min(self.b, 1.0) - max(self.a, -1.0), 0.0)
        return float(measure > 0) if p == INF else measure ** (1.0 / float(p))


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
    and map exponent with the fewest nodes that meet it: `order`, 24 or 32
    (the last two on wider panels), or on the cutoff plateau also 4, 8 or 12,
    on panels at equal steps of x^e, e = 1..5 (`_panel_counts`).  A
    frequency whose rule needs more than `node_budget` nodes is refused
    before any quadrature (`_evaluate`)."""
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
    value: complex | None  # None where the frequency was refused
    # difference against a lower-order rerun of some cells, plus the
    # allowance of the others (the rule is in _evaluate's docstring); None
    # where the frequency was refused
    error: float | None
    low_confidence: bool   # refused over the node budget, before any quadrature
    nodes: int             # evaluated nodes, or the planned count of a refused rule
    certificate: float | None = None


def _axis_pieces(chi: CutoffSpec, factor: FactorSpec, depth: int):
    """Intervals (lo, hi) covering the support, clipped to the factor: the
    octaves [2^-(l+1), 2^-l] for l < depth and [0, 2^-depth], mirrored below
    0 unless the cutoff is on the positive orthant."""
    ends = [2.0 ** -l for l in range(depth + 1)] + [0.0]
    pieces = []
    for sign in (1,) if chi.positive_orthant else (1, -1):
        for mhi, mlo in zip(ends, ends[1:]):
            lo, hi = (mlo, mhi) if sign > 0 else (-mhi, -mlo)
            lo, hi = max(lo, factor.a), min(hi, factor.b)
            if hi > lo:
                pieces.append((lo, hi))
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


@lru_cache(maxsize=None)
def _merge_reach(order, waves, degree):
    """Per Gauss order n <= `order` of the ladder, ascending, (n, theta_n):
    the largest theta at which 2 theta^j0 / j0! e^theta, j0 = ceil(2n /
    degree), is at most the target R(order, waves).  On [0, h], where
    |lam g| <= theta for g a polynomial of that degree, n-point Gauss
    integrates every term (i lam g)^j / j! of exp(i lam g) with j < j0
    exactly, so it errs by at most that much times h.  theta_n is inf at
    degree 0."""
    target, rungs = _ladder(order, waves)
    reach = []
    for n, _, _ in rungs:
        if n > order:
            break
        if degree == 0:
            reach.append((n, math.inf))
            continue
        j0 = -(-2 * n // degree)

        def fits(theta):
            return (math.log(2.0) + j0 * math.log(theta) - math.lgamma(j0 + 1) + theta
                    <= math.log(target))

        lo, hi = 0.0, 1.0
        while fits(hi):
            lo, hi = hi, 2.0 * hi
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if fits(mid) else (lo, mid)
        reach.append((n, lo))
    return tuple(reach)


_MAX_MAP = 5  # map exponents e run 1.._MAX_MAP


def _panel_counts(lams, sizing, quad):
    """Gauss panel counts, orders and map exponents, (cells, d) integer
    arrays for cells at frequencies `lams`, one per cell, from `sizing`
    (`_sizing`).  T is the turns across the piece in x^e: lam times the
    bound, times the span over 2 pi.  An axis with map exponent e has its
    P panels at equal steps of x^e (`_axis_rule`).  With
    F(P) = (1 + ((hi/lo)^e - 1) / P)^((e - 1)/e) the bottom panel's ratio
    of ends, no panel of P = 1 + floor(T F(P0) / most_n) exceeds most_n
    turns, for P0 = 1 + floor(T / most_n), since F falls as P grows.  At
    e = 1, F is 1: equal panels, by default 16 points on at most 4 turns,
    24 on 7.43 or 32 on 11.0, and on the plateau also 4, 8 or 12
    (`_ladder`).  Each e and order an axis may take is sized in turn, e
    outside and orders ascending inside, and an entry takes a rule only
    with strictly fewer nodes than its best so far: the fewest nodes win,
    ties to e = 1, then to the lower e and order.  An e > 1 is tried only
    where one is allowed and equal panels number more than one.  Every
    panel meets the same target relative to its width, so the summed bound
    per axis is that of 16-point panels alone.  Counts are capped at 2^53,
    far above any budget; turns at e = 1 that overflow are refused, naming
    the first cell's frequency where they do."""
    bounds, spans, ratios, analytic = sizing
    lam = np.abs(np.asarray(lams, dtype=float))[:, None]
    with np.errstate(over="ignore"):
        # lam times the bound first: a product past the float range is refused
        turns = lam * bounds[0] * spans[0] / (2.0 * math.pi)
        finite = np.isfinite(turns / quad.waves_per_panel).all(axis=1)
    if not finite.all():
        raise OscError(f"phase turns per cell overflow at lam {lams[int(np.argmin(finite))]:g}")
    lam = np.broadcast_to(lam, ratios.shape)
    # no rule yet: every entry takes the first one it meets
    orders, exps = (np.ones(ratios.shape, dtype=np.int64) for _ in range(2))
    counts = np.full(ratios.shape, np.iinfo(np.int64).max)
    sized = np.ones(ratios.shape, dtype=bool)
    rungs = _ladder(quad.order, quad.waves_per_panel)[1]
    with np.errstate(over="ignore", invalid="ignore"):
        for e, (bound, span) in enumerate(zip(bounds, spans), 1):
            if e == 2:
                # the mapped rules, only where some e > 1 is allowed and
                # equal panels need more than one
                sized = (counts > 1) & np.isfinite(spans[1:]).any(axis=0)
            spread = lam[sized] * bound[sized] * span[sized] / (2.0 * math.pi)
            grow, plateau_ok = ratios[sized] ** e - 1.0, analytic[sized]
            # the fewest nodes so far per entry, with their count, order and e
            picked = counts[sized], orders[sized], exps[sized]
            best = picked[0] * picked[1]
            for n, most, plateau in rungs:
                first = 1 + np.minimum(np.floor(spread / most), 2.0 ** 53)
                need = spread * (1.0 + grow / first) ** ((e - 1) / e) / most
                # at e = 1 the turns are finite and a count past the float
                # range is capped; at e > 1 such a rule is not taken
                ok = np.isfinite(need) | (e == 1)
                if plateau:
                    ok &= plateau_ok
                need = np.where(ok, need, 0.0)
                count = 1 + np.minimum(np.floor(need), 2.0 ** 53).astype(np.int64)
                size = np.where(ok, count * n, np.iinfo(np.int64).max)
                take = size < best
                for out, value in zip((best, *picked), (size, count, n, e)):
                    np.copyto(out, value, where=take)
            counts[sized], orders[sized], exps[sized] = picked
    return counts, orders, exps


# P0(n, e) per map exponent e and Gauss order n an axis off the cutoff
# plateau may take, for a rule (order, waves_per_panel), as (e, ((n, P0),
# ...)) pairs: the panel count from which on n-point panels at map exponent
# e on the cutoff's transition piece [PLATEAU, 1] integrate
# profile * exp(i w x^e) there within the target relative to the profile's
# mass, the allowance a cell not rerun adds per axis, at every w up to n's
# most turns per panel (derived by scripts/calibrate_transition.py).  An
# axis on that whole piece with at least P0 panels keeps the target; a
# missing (n, e) resolves none, and a missing rule keeps every rerun
_TRANSITION_PANELS = MappingProxyType({(16, 4.0): (
    (1, ((16, 6), (24, 3), (32, 2))),
    (2, ((16, 8), (24, 3), (32, 2))),
    (3, ((16, 10), (24, 6), (32, 5))),
    (4, ((16, 18), (24, 13), (32, 10))),
    (5, ((24, 27), (32, 20))),
)})


def _axis_rule(lo, hi, panels, e, gx, gw, chi):
    """Gauss panel nodes on [lo, hi] and their weights times the cutoff; on
    the plateau the cutoff is 1 and is not evaluated.  At map exponent e the
    panels lie between (a^e + j (b^e - a^e) / panels)^(1/e), a < b the
    magnitudes of the ends, mirrored below 0: Gauss in x, no Jacobian."""
    if e == 1:
        width = (hi - lo) / panels
        starts = lo + width * np.arange(panels)
        nodes = (starts[:, None] + width * 0.5 * (gx + 1.0)[None, :]).ravel()
        weights = np.tile(width * 0.5 * gw, panels)
    else:
        a, b = sorted((abs(lo), abs(hi)))
        ends = (a ** e + (b ** e - a ** e) * np.arange(panels + 1) / panels) ** (1.0 / e)
        ends[0], ends[-1] = a, b
        if hi <= 0:
            ends = -ends[::-1]
        widths = np.diff(ends)[:, None]
        nodes = (ends[:-1, None] + widths * 0.5 * (gx + 1.0)).ravel()
        weights = (widths * 0.5 * gw).ravel()
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


def _run_level(p, axis_pieces, cells, counts, orders, exps, lams, chi):
    """Rule sums and weight masses of rows of cells, each row at its own
    frequency `lams` and with its rule given per axis by its row of `cells`
    (piece index), `counts`, `orders` and `exps` (map exponents).  The
    pieces are already clipped to the factors, so a rule is the real Gauss
    weights times the cutoff, keyed by (lo, hi, panels, order, e) alone.
    Per axis, the distinct rules of each node count are stacked once; each
    shape group gathers its rows from them."""
    values = np.zeros(len(cells), dtype=complex)
    mass = np.ones(len(cells))

    @lru_cache(maxsize=None)
    def rule(lo, hi, panels, order, e):
        # each distinct rule is built once, and every axis and cell shares it
        return _axis_rule(lo, hi, panels, e, *_gauss(order), chi)

    # per axis, {node count: stacked nodes and weights} and each row's place
    stacks, place = [], []
    for k, pieces in enumerate(axis_pieces):
        keys, inv = _rows(np.stack([counts[:, k] * orders[:, k], cells[:, k],
                                    counts[:, k], orders[:, k], exps[:, k]], axis=1))
        sizes, first, many = np.unique(keys[:, 0], return_index=True, return_counts=True)
        built = [rule(*pieces[j], c, o, e) for _, j, c, o, e in keys.tolist()]
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


def _plan(f, chi, depths):
    """The pieces of each axis k of test function `f`, cut to depth
    `depths[k]` (`_axis_pieces`), and the cells, a (cells, d) array of piece
    indices in product order."""
    axis_pieces = [_axis_pieces(chi, fac, depth) for fac, depth in zip(f.factors, depths)]
    full = tuple(len(pieces) for pieces in axis_pieces)
    return axis_pieces, np.stack(np.unravel_index(np.arange(math.prod(full)), full), axis=1)


def _depths(grads, f, chi, lams, quad):
    """Per frequency of `lams`, with test function `f` or its own one of a
    sequence `f` (`_per_row`), and axis k: the depth L_k to which axis k is
    cut into octaves, and the Gauss order n of its merged piece [0, 2^-L_k],
    or 0 where it has none, as two (F, d) integer arrays.  With g the terms
    of phi with a_k >= 1 and G the same terms with absolute coefficients and
    the other axes at their largest magnitude over the support and the
    factor, |lam g| <= theta = |lam| G(2^-L) on the piece, so `_merge_reach`
    bounds one n-point panel's error there.  G is read off `grads`, d_k phi
    with absolute coefficients: each of its terms c x^b is one of g's
    divided by a_k = b_k + 1.  L_k is the smallest level, at most `levels`,
    at which some order meets the target, and n the least such order; where
    none does, L_k = `levels` and n = 0, the octave layout to the
    truncation.  A theta that is not finite meets no target.  A row depends
    only on its own lam and test function: G per level and axis is tabled
    once per test function."""
    d, levels = len(grads), chi.levels
    terms = [g._float_coefficients for g in grads]
    reach = [_merge_reach(quad.order, quad.waves_per_panel,
                          max((b[k] + 1 for b, _ in t), default=0))
             for k, t in enumerate(terms)]
    x = 2.0 ** -np.arange(1, levels + 1)
    fs, tables = _per_row(f, len(lams)), {}
    with np.errstate(over="ignore", invalid="ignore"):
        for g in fs:
            if g in tables:
                continue
            # largest magnitude of each axis over the support, clipped to the factor
            tops = [max((max(-lo, hi) for lo, hi in _axis_pieces(chi, fac, 1)), default=0.0)
                    for fac in g.factors]
            table = tables[g] = np.zeros((levels, d))
            for k, t in enumerate(terms):
                for b, c in t:
                    others = math.prod(tops[j] ** b[j] for j in range(d) if j != k)
                    table[:, k] += c / (b[k] + 1) * others * x ** (b[k] + 1)
        theta = np.abs(np.asarray(lams))[:, None, None] * np.stack([tables[g] for g in fs])
    ns = np.array([n for n, _ in reach[0]])
    reach = np.array([[t for _, t in r] for r in reach])  # (d, orders)
    admitted = theta <= reach.max(axis=1)
    merges = admitted.any(axis=1)
    depth = np.where(merges, admitted.argmax(axis=1) + 1, levels)
    at = np.take_along_axis(theta, (depth - 1)[:, None, :], axis=1)[:, 0, :]
    order = ns[(at[..., None] <= reach).argmax(axis=-1)]
    return depth, np.where(merges, order, 0)


def _sizing(grads, axis_pieces, cells):
    """What sizes the rules of `cells`, rows of piece indices into
    `axis_pieces`, given `grads`, d_k phi with absolute coefficients:
    `bounds` and `spans`, (E, cells, d) float arrays per map exponent
    e = 1..E (E the largest e any axis may take), cell and axis k, whose
    product over 2 pi is the phase turns per unit lam across the piece in
    the variable x^e; then (cells, d) arrays of hi / lo, for lo < hi the
    magnitudes of the piece's ends, and of whether the piece lies on the
    cutoff plateau.  The span is hi^e - lo^e, and the bound the sum over
    the terms of phi of |c| (a_k / e) x*^(a_k - e), a_k the term's exponent
    of x_k, x* = lo if a_k < e else hi, times the other axes at hi.  At
    e = 1 that is d_k phi at the cell's corner of largest
    magnitudes, each power and product rounded as `PhasePolynomial.evaluate`
    rounds them there.  The span is inf where e may not be taken: e above
    the largest exponent of x_k in phi, and e > 1 on the piece touching 0."""
    # per axis, the magnitudes lo (row 0) and hi (row 1) of each piece's ends
    ends = [np.sort(np.abs(np.array(pieces, dtype=float).reshape(-1, 2)), axis=1).T
            for pieces in axis_pieces]

    @lru_cache(maxsize=None)
    def power(j, q, end):
        # x^q on each cell, x its axis j piece's end; q >= 0 as Python
        # floats, since numpy's array power can round differently
        x = ends[j][end]
        return (x ** float(q) if q < 0 else np.array([v ** q for v in x.tolist()]))[cells[:, j]]

    terms = [g._float_coefficients for g in grads]
    tops = [min(1 + max([a[k] for a, _ in t] + [0]), _MAX_MAP) for k, t in enumerate(terms)]
    bounds, spans = np.full((2, max(tops), len(cells), len(grads)), np.inf)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for k, top in enumerate(tops):
            for e in range(1, top + 1):
                total = 0.0
                for a, c in terms[k]:
                    mono = c / e
                    for j, aj in enumerate(a):
                        q = aj + 1 - e if j == k else aj
                        if q:
                            mono = mono * power(j, q, int(q > 0))
                    total = total + mono
                bounds[e - 1, :, k] = total
                span = power(k, e, 1) - power(k, e, 0)
                spans[e - 1, :, k] = np.where((power(k, 1, 0) > 0) | (e == 1), span, np.inf)
        ratios = np.stack([power(k, 1, 1) / power(k, 1, 0) for k in range(len(grads))], axis=1)
    analytic = np.stack([power(k, 1, 1) <= _PLATEAU for k in range(len(grads))], axis=1)
    return bounds, spans, ratios, analytic


def _per_row(f, rows):
    """`f` once per row: one `TestFunctionSpec` repeated, or a sequence of one per row."""
    fs = [f] * rows if isinstance(f, TestFunctionSpec) else list(f)
    if len(fs) != rows:
        raise OscError(f"{len(fs)} test functions for {rows} frequencies")
    return fs


def _layout(grads, fs, chi, lams, quad, depths, merged):
    """The rule of every row, as a list of (cells, counts, orders, exps,
    spans, analytic): its cells, a (cells, d) array of piece indices, their
    (cells, d) panel counts, Gauss orders and map exponents
    (`_panel_counts`), and the spans at e = 1 and plateau mask of their
    pieces (`_sizing`); then the pieces of each axis that the indices point
    into.  A row's pieces are those of its test function cut to its `depths`
    (`_plan`); rows share the pieces they have in common.  The cells of
    all rows, in row order, are sized in one `_sizing` and one
    `_panel_counts` call, each at its row's frequency; then the merged piece
    of each axis with a `merged` order takes one panel of it at map
    exponent 1.  An overflow refusal names the first row whose turns
    overflow.  Sizing works cell by cell, so a row's rule does not depend
    on the other rows of the call."""
    # per axis, a dict from piece (lo, hi) to its index, grown as pieces are met
    index = [{} for _ in grads]
    cells = []
    for g, depth in zip(fs, depths.tolist()):
        pieces, own = _plan(g, chi, depth)
        ids = [np.array([ix.setdefault(piece, len(ix)) for piece in pieces_k], dtype=np.int64)
               for ix, pieces_k in zip(index, pieces)]
        cells.append(np.stack([a[own[:, k]] for k, a in enumerate(ids)], axis=1))
    pieces = [list(ix) for ix in index]
    sizes = [len(c) for c in cells]
    cells = np.concatenate(cells)
    sizing = _sizing(grads, pieces, cells)
    counts, orders, exps = _panel_counts(np.repeat(lams, sizes), sizing, quad)
    # a row's merged piece on axis k is the one within [-2^-L_k, 2^-L_k]
    tops = [np.array([max(-lo, hi) for lo, hi in pieces_k]) for pieces_k in pieces]
    n = np.repeat(merged, sizes, axis=0)
    on = (np.stack([t[cells[:, k]] for k, t in enumerate(tops)], axis=1)
          <= np.ldexp(1.0, -np.repeat(depths, sizes, axis=0))) & (n > 0)
    counts, orders, exps = (np.where(on, v, a) for v, a in ((1, counts), (n, orders), (1, exps)))
    ends = np.cumsum(sizes)[:-1]
    rules = (cells, counts, orders, exps, sizing[1][0], sizing[3])
    return list(zip(*(np.split(a, ends) for a in rules))), pieces


def _evaluate(p, f, chi, lams, quad):
    """Tensor-panel quadrature of the oscillatory form at every frequency of
    `lams`, with one test function `f` or one per frequency: per frequency,
    its result (without certificate), and the value and node count of every
    cell, cells in product order of the row's pieces.

    Each axis of each row is cut into octaves to its own depth L
    (`_depths`), and [0, 2^-L] is one merged piece on one Gauss panel whose
    order a bound that holds exactly fixes; where no depth admits it, the
    axis is cut to `levels`, with its piece at 0 sized like every other.
    Panel counts, Gauss orders and map exponents per cell and axis follow
    the local phase variation (`_panel_counts`).  A row whose planned node
    count exceeds the budget is refused before any quadrature: none of its
    cells is evaluated, and its result is flagged low-confidence, with no
    value or error and the planned count as its nodes.  The reported error
    is the difference against a rerun on the same panels at order
    max(n // 2, n - 4) on the axes at order n >= `order` (12, 20 and 28
    for 16, 24 and 32), plus d * target times the weight mass of each cell
    not rerun.  For a rule with an entry in `_TRANSITION_PANELS` only a
    cell with an axis off the cutoff plateau that is not resolved is rerun.
    An axis is resolved when its piece is the whole transition
    [PLATEAU, 1], unclipped, and it has at least P0(n, e) panels for its
    order n and map exponent e, from which on n-point panels meet the
    target across the transition.  Every other cell has each axis within
    the error target, analytic (a merged piece too) or resolved.  A rule
    without an entry reruns every cell with an axis at order n >= `order`.
    All rows run in one `_run_level`.
    """
    lams = [float(lam) for lam in lams]
    bad = [lam for lam in lams if not math.isfinite(lam)]
    if bad:
        raise OscError(f"frequency must be finite, got {bad[0]:g}")
    fs = _per_row(f, len(lams))
    d = p.dimension
    if d > 3:
        raise OscError("tensor quadrature is limited to dimension <= 3")
    if any(g.dimension != d for g in set(fs)):
        raise OscError("test function dimension mismatch")
    grads = [p.derivative(k).absolute() for k in range(d)]
    sized, pieces = _layout(grads, fs, chi, lams, quad, *_depths(grads, fs, chi, lams, quad))
    # P0 per Gauss order and map exponent on the cutoff's transition piece,
    # the octave piece [PLATEAU, 1]; above any count where none is given
    transition = 1.0 - _PLATEAU
    entry = _TRANSITION_PANELS.get((quad.order, quad.waves_per_panel))
    least = np.full((max(quad.order, _HIGHER[-1]) + 1, _MAX_MAP + 1), np.iinfo(np.int64).max)
    for e, panels in entry or ():
        for n, count in panels:
            least[n, e] = count
    rows, main, rerun_rows = [], [], []
    for lam, rule in zip(lams, sized):
        # tensor nodes in floats, which cannot wrap around
        planned = np.multiply(rule[1], rule[2], dtype=float).prod(axis=1).sum()
        refused = bool(planned > quad.node_budget)
        if refused:
            rule = tuple(a[:0] for a in rule)  # no cell reaches the kernel
        cells, counts, orders, exps, spans, analytic = rule
        # with a table entry, only a cell with an axis off the plateau that
        # is clipped or on too few panels for the transition is rerun
        full = orders >= quad.order
        if entry is None:
            rerun = full.any(axis=1)
        else:
            resolved = analytic | ((spans == transition) & (counts >= least[orders, exps]))
            rerun = ~resolved.all(axis=1)
        coarse = np.where(full, np.maximum(orders // 2, orders - 4), orders)
        rows.append((lam, counts, orders, rerun, refused, planned))
        main.append((cells, counts, orders, exps, np.full(len(cells), lam)))
        rerun_rows.append((cells[rerun], counts[rerun], coarse[rerun], exps[rerun],
                           np.full(int(rerun.sum()), lam)))
    # the cells, counts, orders, map exponents and lam of every frequency's
    # rows, then of every frequency's rerun rows
    values, mass = _run_level(p, pieces,
                              *(np.concatenate(col) for col in zip(*main, *rerun_rows)), chi)
    target, _ = _ladder(quad.order, quad.waves_per_panel)
    ends = np.cumsum([len(r[0]) for r in main + rerun_rows])[:-1]
    parts, masses, out = np.split(values, ends), np.split(mass, ends), []
    for (lam, counts, orders, rerun, refused, planned), v, m, check in zip(
            rows, parts, masses, parts[len(lams):]):
        cell_nodes = (counts * orders).prod(axis=1)
        if refused:
            r = OscResult(lam, None, None, True, int(planned))
        else:
            error = abs((v[rerun] - check).sum()) + d * target * m[~rerun].sum()
            r = OscResult(lam, complex(v.sum()), float(error), False, int(cell_nodes.sum()))
        out.append((r, v, cell_nodes))
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
