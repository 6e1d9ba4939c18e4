"""Quadrature for the separable oscillatory form, with per-box certificates.

The quantity computed here is the integral of exp(i*lambda*phi(x)) against a
smooth compactly supported cutoff times a product of one-variable factors,
each the indicator of an interval.  Quadrature runs on the positive orthant
only: over the full space a row splits into its 2^d orthants, orthant sigma
(sigma_k = +-1) the positive one's integral of phi(sigma x), whose term
c x^a is c sigma^a x^a, against the factors mirrored where sigma_k = -1;
reflections that a coordinate permutation maps onto each other, up to the
sign of the phase, are one sub-row, planned once (`_reflections`).  Each
axis is cut into octave pieces clipped to the factor's interval, so
every cell sees one oscillation scale and the factor is 1 on every node;
near 0 the octaves below a per-frequency depth are one merged piece on
one Gauss panel (`_depths`, per row).  Every other piece takes the Gauss
order, map exponent and panel count with the fewest nodes that meet one
per-panel error target (`_sizing`, `_panel_counts`).  A call is one cell table
planned before any quadrature (`_layout`), one row per sub-row; a row
whose rule needs more nodes than the budget, over all its reflections, is
refused.  Each cell axis's rule (lo, hi, panels, order, e) is a row of
one table of the call's distinct rules, sorted by value over every axis.
Cells in one orbit of the coordinate permutations that map a sub-row's
phase to plus or minus itself are evaluated once, and so are the panel
cells of a cell that such a permutation maps to itself, one per orbit
(`_orbits`).  The evaluated cells of every row are one batch
(`_run_level`): each rule is built once (`_rule_table`), and the cells of
each shape are one `_kernel` call, with each cell's term signs folded into
its per-term scale.  The error estimate is planned with the cells, before
any quadrature (`_layout`): each cell's allowance per axis, the rule's
target on the plateau and the default rule's calibrated error on the whole
transition piece (`_TRANSITION_PANELS`), times its weight mass in closed
form.  Only a rule that table vouches for is accepted (`QuadratureConfig`),
and only a cell whose transition piece a box factor clips is rerun at a
lower order, in a second batch (`_evaluate`).
A kernel block holds whole cells in a per-thread workspace of _BLOCK
floats, within a core's L2 cache; cells whose rows do not fit one block
are cut into runs that do (`_runs`), each cell the sum of its runs.
The certificate sums a closed-form bound per box of its own dyadic grid,
the box at 2^-j for j in [0, levels]^d (`box_envelope`).  It is not the
quadrature's cell grid, which stops at each row's merged piece near 0.

The cutoff has one fixed shape, 1 on |t| <= PLATEAU and 0 on |t| >= 1,
its profile a table accurate to rounding (`smooth_step`); a call's rows may
each take their own cutoff, over the orthant or the full space, with one
`levels`.  Full tensor quadrature is limited to dimension <= 3.  The certificate sum
has no such limit.
"""
from __future__ import annotations

import math
import threading
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product
from typing import Iterator, Sequence

import numpy as np

from .exponent import INF, ExponentQuery
from .phase import PhasePolynomial
from .polytope import NewtonPolyhedron, build_polyhedron

__all__ = [
    "OscError", "CutoffSpec", "FactorSpec", "TestFunctionSpec",
    "QuadratureConfig", "OscResult", "bump",
    "smooth_step", "evaluate_lambda", "box_envelope", "certificate_sum", "certify_results",
    "lambda_grid", "lambda_sweep", "DEFAULT_CERT_CONSTANT", "MAX_LEVELS",
    "MAX_LAM_COUNT", "MIN_LAMBDA", "PLATEAU",
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
# the most frequencies of one grid: a sweep plans every frequency's cells at
# once, so its memory grows with the grid.  At the cap, `integrate` peaks at
# 54 MB on x1*x2 over lam 64..128 and at 78 MB on x1*x2*x3 over 16..32
MAX_LAM_COUNT = 1000


_SCRATCH = threading.local()
_BLOCK = 131_072  # workspace floats per block: 1 MiB, half of a 2 MiB per-core L2


def _scratch(size):
    """This thread's one float64 workspace for `_kernel`, at least `size`
    long; it only grows."""
    buf = getattr(_SCRATCH, "floats", None)
    if buf is None or buf.size < size:
        buf = _SCRATCH.floats = np.empty(size)
    return buf


def bump(t):
    """The reference bump exp(1 - 1/(1 - t^2)) inside |t| < 1, zero outside;
    rounding can put |t| at exactly 1, outside the mask.  exp is 0.0 below
    about -745.14 and slow far below, so its argument is clamped at -750
    first."""
    t = np.asarray(t, dtype=float)
    m = np.abs(t) < 1
    x = np.square(t[m])  # t[m] is a copy
    np.subtract(1.0, x, out=x)
    np.divide(1.0, x, out=x)
    np.subtract(1.0, x, out=x)
    np.maximum(x, -750.0, out=x)
    out = np.zeros_like(t)
    out[m] = np.exp(x, out=x)
    return out


_STEP_PANELS, _STEP_DEGREE = 64, 12  # the profile's table on [1/2, 1]


@lru_cache(maxsize=None)
def _step_table():
    """Chebyshev coefficients of `smooth_step` on each of _STEP_PANELS
    equal panels of [1/2, 1], a read-only (_STEP_DEGREE + 1, _STEP_PANELS)
    array, from its values at the Chebyshev points of each panel.  Each
    value is the bump's integral from the point to the panel's end, by
    20-point Gauss, plus those of the panels right of it, over twice the
    integral on [1/2, 1], the whole integral by the bump's symmetry.  Built
    on first use, in about 0.6 ms, so a command without quadrature neither
    builds it nor imports `numpy.polynomial`."""
    gx, gw = np.polynomial.legendre.leggauss(20)
    n = _STEP_DEGREE + 1
    angles = np.pi * (np.arange(n) + 0.5) / n
    width = 0.5 / _STEP_PANELS
    ends = 0.5 + width * np.arange(_STEP_PANELS + 1)

    def integral(a, b):
        half = 0.5 * (b - a)
        v = a[..., None] + half[..., None] * (gx + 1.0)
        return (bump(2.0 * v - 1.0) * gw).sum(axis=-1) * half

    tail = np.append(np.cumsum(integral(ends[:-1], ends[1:])[::-1])[::-1], 0.0)
    u = ends[:-1, None] + 0.5 * width * (np.cos(angles) + 1.0)
    values = (integral(u, np.broadcast_to(ends[1:, None], u.shape)) + tail[1:, None]) / (2 * tail[0])
    coeffs = np.cos(np.outer(np.arange(n), angles)) @ values.T * (2.0 / n)
    coeffs[0] *= 0.5
    coeffs.flags.writeable = False
    return coeffs


def smooth_step(u):
    """Integrated bump: 1 for u <= 0, 0 for u >= 1, the bump's integral
    from u to 1 over its whole integral, clamped to [0, 1]; NaN passes
    through.  By the bump's symmetry a u below 1/2 takes 1 - S(1 - u), and
    S on [1/2, 1] is a table of _STEP_PANELS equal panels, each a Chebyshev
    series of degree _STEP_DEGREE summed by Clenshaw's recurrence
    (`_step_table`).  Against a composite 48-point Gauss
    reference on 256 panels it deviates by at most 1.1e-15, which is the
    reference's own rounding, and S(0.001) is 1.0 exactly, so the profile is
    flat at the plateau edge to rounding.  Every value is computed
    elementwise, so a node's value does not depend on the others."""
    u = np.asarray(u, dtype=float)
    out = np.where(u >= 1.0, 0.0, u)  # NaN stays NaN
    out[u <= 0.0] = 1.0
    m = (u > 0.0) & (u < 1.0)
    if m.any():
        um = u[m]
        low = um < 0.5
        x = (np.where(low, 1.0 - um, um) - 0.5) * (2 * _STEP_PANELS)
        panel = np.minimum(x.astype(np.int64), _STEP_PANELS - 1)
        t = 2.0 * (x - panel) - 1.0
        t2, b1, b2 = 2.0 * t, np.zeros_like(t), np.zeros_like(t)
        coeffs = _step_table()
        for c in coeffs[:0:-1]:
            b1, b2 = c[panel] + t2 * b1 - b2, b1
        s = coeffs[0][panel] + t * b1 - b2
        out[m] = np.clip(np.where(low, 1.0 - s, s), 0.0, 1.0)
    return out


@dataclass(frozen=True)
class CutoffSpec:
    """Tensorized plateau cutoff.

    The per-axis profile, one shape for every cutoff, equals one on
    |t| <= PLATEAU and vanishes beyond |t| >= 1.  `levels` is the deepest
    octave 2^-levels the quadrature may cut an axis to (each frequency takes
    its own depth, `_depths`) and the truncation of the certificate sum.
    """
    positive_orthant: bool = False
    levels: int = 12

    def __post_init__(self):
        if not 1 <= self.levels <= MAX_LEVELS:
            raise OscError("levels out of range")

    @staticmethod
    def profile(t):
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
    before any quadrature (`_evaluate`).  A whole transition axis's error is
    the default rule's calibrated one (`_TRANSITION_PANELS`), so a rule is
    refused whose target exceeds the default's, as its panels would carry
    more turns than the calibration checked, or that lets an axis off the
    plateau take an order the table has no row for: of the orders, only 16,
    24 and 32 are accepted."""
    order: int = 16                 # Gauss nodes per panel of the target
    waves_per_panel: float = 4.0    # phase turns per panel of the target
    node_budget: int = 300_000_000  # tensor points per evaluation level

    def __post_init__(self):
        # comparisons are written so that NaN fails them
        if not (self.order >= 2 and 0 < self.waves_per_panel < math.inf
                and 1 <= self.node_budget < math.inf):
            raise OscError("bad quadrature configuration")
        rule = f"rule {(self.order, self.waves_per_panel)}"
        target, rungs = _ladder(self.order, self.waves_per_panel)
        if target > _ladder(*_TRANSITION_RULE)[0]:
            raise OscError(f"{rule}: its per-panel error target exceeds the default rule's, "
                           "which the transition table is calibrated for")
        tabled = set.intersection(*({n for n, _ in rows} for _, rows in _TRANSITION_PANELS))
        untabled = [n for n, _, plateau in rungs if not (plateau or n in tabled)]
        if untabled:
            raise OscError(f"{rule}: the transition table has no row for order {untabled[0]}")


@dataclass(frozen=True)
class OscResult:
    lam: float
    value: complex | None  # None where the frequency was refused
    # each cell's allowance, the target per axis, or a whole transition
    # axis's calibrated error where larger, times its weight mass in closed
    # form; plus, over the cells whose transition piece a box factor clips,
    # the difference against a lower-order rerun (the rule is in _evaluate's
    # docstring); None where refused
    error: float | None
    low_confidence: bool   # refused over the node budget, before any quadrature
    # the rule's node count over every orthant, refused or not; the kernel
    # evaluates fewer (`_reflections`, `_orbits`)
    nodes: int
    certificate: float | None = None


def _axis_pieces(factor: FactorSpec, depth: int):
    """Intervals (lo, hi) covering the support on the positive orthant,
    clipped to the factor: the octaves [2^-(l+1), 2^-l] for l < depth and
    [0, 2^-depth].  The other orthants are reflections (`_reflections`)."""
    ends = [2.0 ** -l for l in range(depth + 1)] + [0.0]
    pieces = [(max(lo, factor.a), min(hi, factor.b)) for hi, lo in zip(ends, ends[1:])]
    return [(lo, hi) for lo, hi in pieces if hi > lo]


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
    P panels at equal steps of x^e (`_rule_table`).  With
    F(P) = (1 + ((hi/lo)^e - 1) / P)^((e - 1)/e) the bottom panel's ratio
    of ends, no panel of P = 1 + floor(T F(P0) / most_n) exceeds most_n
    turns, for P0 = 1 + floor(T / most_n), since F falls as P grows.  At
    e = 1, F is 1: equal panels, by default 16 points on at most 4 turns,
    24 on 7.43 or 32 on 11.0, and on the plateau also 4, 8 or 12
    (`_ladder`).  Each e is sized in one broadcast over (order, entry): an
    entry takes the order with the fewest nodes, the first, so the lower,
    on a tie, and keeps it only with strictly fewer nodes than its best at
    a lower e: ties go to e = 1, then to the lower e.  An e > 1 is tried
    only where one is allowed and equal panels number more than one.  Every
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
    lam, never = np.broadcast_to(lam, ratios.shape), np.iinfo(np.int64).max
    # each rung's order, most turns and plateau flag, one row per rung
    rungs = _ladder(quad.order, quad.waves_per_panel)[1]
    ns, most, plateau = (np.array(v)[:, None] for v in zip(*rungs))
    # no rule yet: every entry takes the first one it meets
    orders, exps = (np.ones(ratios.shape, dtype=np.int64) for _ in range(2))
    counts = np.full(ratios.shape, never)
    sized = np.ones(ratios.shape, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        for e, (bound, span) in enumerate(zip(bounds, spans), 1):
            if e == 2:
                # the mapped rules, only where some e > 1 is allowed and
                # equal panels need more than one
                sized = (counts > 1) & np.isfinite(spans[1:]).any(axis=0)
            spread = lam[sized] * bound[sized] * span[sized] / (2.0 * math.pi)
            need = spread / most
            if e > 1:  # at e = 1, F(P0) = (...)^0.0 is exactly 1.0
                first = 1 + np.minimum(np.floor(need), 2.0 ** 53)
                need = spread * (1.0 + (ratios[sized] ** e - 1.0) / first) ** ((e - 1) / e) / most
            # at e = 1 the turns are finite and a count past the float range
            # is capped; at e > 1 such a rule is not taken
            ok = (np.isfinite(need) | (e == 1)) & (~plateau | analytic[sized])
            count = 1 + np.minimum(np.floor(np.where(ok, need, 0.0)), 2.0 ** 53).astype(np.int64)
            size = np.where(ok, count * ns, never)
            pick = size.argmin(axis=0)[None]
            size, count = (np.take_along_axis(a, pick, axis=0)[0] for a in (size, count))
            keep = size < counts[sized] * orders[sized]
            take = sized.copy()
            take[sized] = keep
            counts[take], orders[take], exps[take] = count[keep], ns[pick[0, keep], 0], e
    return counts, orders, exps


# The calibrated error of the cutoff's transition piece [PLATEAU, 1] under
# the default rule, _TRANSITION_RULE = (order, waves_per_panel), as
# (e, ((n, errors), ...)) pairs per map exponent e and Gauss order n an axis
# off the plateau may take: errors[P - 1] is the largest error E(n, P, e) of
# P n-point panels at map exponent e on profile * exp(i w x^e) there,
# relative to the profile's mass 1/4 on the piece, at every w up to n's
# most turns per panel, rounded up to 2 significant digits (derived by
# scripts/calibrate_transition.py).  A row runs to P0 - 1, P0(n, e) the
# panel count from which on, up to _TRANSITION_CHECKED, E meets the target;
# every row has a P0, and the script refuses a row without one.  An axis
# on the whole, unclipped piece takes max(E, target) as its allowance, the
# target alone from P0 panels on, under every rule `QuadratureConfig`
# accepts (`_layout`); a clipped piece has none
_TRANSITION_RULE = (QuadratureConfig.order, QuadratureConfig.waves_per_panel)
_TRANSITION_CHECKED = 40  # the most panels the calibration checks
_TRANSITION_PANELS = (
    (1, (
        (16, (5.1e-07, 2.5e-08, 4.3e-09, 1.3e-09, 3.9e-10)),
        (24, (1.5e-08, 5.4e-10)),
        (32, (7.8e-10,)),
    )),
    (2, (
        (16, (5.5e-07, 2.9e-08, 5.3e-09, 1.8e-09, 6.4e-10, 2.4e-10, 2.1e-10)),
        (24, (1.8e-08, 5.4e-10)),
        (32, (1.6e-09,)),
    )),
    (3, (
        (16, (9.7e-07, 5.1e-08, 5.6e-09, 5.8e-09, 1.8e-09, 5.9e-10, 6.3e-10, 4.7e-10, 2.4e-10)),
        (24, (3e-07, 1.5e-08, 2.6e-09, 8.1e-10, 3.4e-10)),
        (32, (1.6e-07, 5.4e-09, 7.9e-10, 2.1e-10)),
    )),
    (4, (
        (16, (6.3e-06, 5.9e-07, 1.8e-07, 6.4e-08, 2.5e-08, 1.3e-08, 8.4e-09, 5.2e-09, 3e-09,
             1.7e-09, 1.2e-09, 9e-10, 7.5e-10, 6e-10, 4.6e-10, 3.4e-10, 2.4e-10)),
        (24, (7.1e-06, 5.5e-07, 1.2e-07, 3.6e-08, 1.4e-08, 5.8e-09, 2.9e-09, 1.6e-09, 9e-10,
             5.7e-10, 3.8e-10, 2.7e-10)),
        (32, (6.8e-06, 4.4e-07, 7.2e-08, 1.8e-08, 5.5e-09, 2.1e-09, 9.2e-10, 4.6e-10, 2.5e-10)),
    )),
    (5, (
        (16, (4.3e-05, 6.3e-06, 2.3e-06, 1.1e-06, 5e-07, 2.8e-07, 1.6e-07, 9.5e-08, 6e-08, 4e-08,
             2.8e-08, 2e-08, 1.5e-08, 1.1e-08, 7.9e-09, 6e-09, 4.6e-09, 3.6e-09, 2.9e-09, 2.3e-09,
             1.9e-09, 1.6e-09, 1.4e-09, 1.2e-09, 9.8e-10, 8.3e-10, 7.1e-10, 6.1e-10, 5.2e-10,
             4.5e-10, 3.9e-10, 3.4e-10, 3e-10, 2.7e-10, 2.5e-10, 2.2e-10)),
        (24, (6.4e-05, 1.1e-05, 3.2e-06, 1.2e-06, 4.8e-07, 2.3e-07, 1.2e-07, 6.2e-08, 3.6e-08,
             2.2e-08, 1.4e-08, 8.8e-09, 6e-09, 4.2e-09, 3e-09, 2.2e-09, 1.6e-09, 1.3e-09, 9.3e-10,
             7.3e-10, 5.8e-10, 4.7e-10, 3.9e-10, 3.2e-10, 2.7e-10, 2.3e-10)),
        (32, (9.2e-05, 1.5e-05, 3.6e-06, 1.1e-06, 3.9e-07, 1.6e-07, 7e-08, 3.4e-08, 1.8e-08,
             9.8e-09, 5.8e-09, 3.5e-09, 2.3e-09, 1.5e-09, 9.8e-10, 6.9e-10, 4.9e-10, 3.6e-10,
             2.7e-10)),
    )),
)


# least nodes of a panel cell (`_orbits`): planning one takes about as
# long as the kernel takes on 200 nodes, and its orbit saves at most half of it
_PANEL_NODES = 512


def _runs(axes, weights, room):
    """The runs of a kernel call on nodes `axes` and `weights`, (B, n_k) per
    axis k, for blocks of `room` rows: per run, its nodes and weights per
    axis, the call's B cells restricted to it, each of at most `room` rows,
    or of one.  A call whose cells fit is its own one run.  Else the first
    axis with more than one node is cut into the fewest runs of as many
    nodes as fit, at least one, made as equal as can be, and each run is
    cut in turn: a cell is the sum of its runs.  The cut axis is passed
    as a slice and every other one whole, so no nodes are copied."""
    sizes = [x.shape[1] for x in axes]
    if math.prod(sizes[:-1]) <= max(room, 1):
        yield axes, weights
        return
    k = next(k for k, n in enumerate(sizes) if n > 1)
    count = -(-sizes[k] // max(room // math.prod(sizes[k + 1:-1]), 1))
    step = -(-sizes[k] // count)
    for s in range(0, sizes[k], step):
        yield from _runs(*([x[:, s:s + step] if j == k else x for j, x in enumerate(v)]
                           for v in (axes, weights)), room)


def _kernel(p, lam, axes, weights):
    """Tensor quadrature of exp(i*lam*phi) on the cells of one shape.

    axes[k] and weights[k] are the (B, n_k) nodes and real weights of axis
    k, and lam (B,) their frequencies, or (B, T) one per cell and term of
    the phase, term signs folded in; the result holds the B cell sums.
    With n nodes on the last axis and m on the others, a cell has m rows
    of n nodes.  A block is whole cells: this thread's workspace holds its
    cs, (2, rows, n), and z, (2, rows), its row sums, within _BLOCK floats,
    so at most _BLOCK // (2 (n + 1)) rows.  Cells whose rows do not fit
    are cut into runs that do (`_runs`), and each cell sum is its runs'
    sum.  The one exception is a single row of more than _BLOCK / 2 - 1
    nodes, a block of its own.  A call whose cells fit one block is that
    block.  `PhasePolynomial.evaluate_tensor` writes theta/2 = lam*phi/2
    straight into cs[1].  With t = tan(theta/2), cos(theta) = 2/(1+t^2) - 1
    and sin(theta) = 2t/(1+t^2): float64 tan is vectorized where complex
    exp is not, and loses no accuracy.  cs holds 1 + cos(theta) and
    sin(theta), and one real matmul per block contracts its last axis into
    z, one GEMV per cell from its first row, so a cell that fits has the
    same bits in any block.  The row sums take the cosine's -sum(w), each
    other axis is contracted by one matmul, and only the cell sums are
    complex.
    """
    b, n = axes[0].shape[0], axes[-1].shape[1]
    room = _BLOCK // (2 * (n + 1))  # rows of a block, with their row sums
    # one workspace for every run: no block holds more rows than the call or `room`
    top = min(b * math.prod(x.shape[1] for x in axes[:-1]), max(room, 1))
    ws = _scratch(2 * top * (n + 1))
    lam = np.asarray(lam, dtype=float)  # one for all cells, per cell, or per cell and term
    scale = np.multiply(0.5, lam, out=np.empty((b,) + lam.shape[1:]))
    w = weights[-1]  # runs never cut the last axis
    mass = w.sum(axis=1)
    total = None  # real and imaginary cell sums of the runs so far
    for axes, weights in _runs(axes, weights, room):
        sizes = [x.shape[1] for x in axes]
        m = math.prod(sizes[:-1])
        # as many cells in each of the fewest blocks that hold them
        per = -(-b // -(-b // max(room // m, 1)))
        sums = np.empty((2, b))
        for s in range(0, b, per):
            cells = slice(s, s + per)
            # a call that fits is one block, without slicing its axes
            block = axes if per == b else [x[cells] for x in axes]
            rows = len(block[0]) * m
            cs = ws[:2 * rows * n].reshape(2, -1, m, n)
            z = ws[2 * rows * n:2 * rows * (n + 1)].reshape(2, -1, m)
            p.evaluate_tensor(block, scale[cells], cs[1].reshape([-1] + sizes))
            np.tan(cs[1], out=cs[1])
            np.multiply(cs[1], cs[1], out=cs[0])
            cs[0] += 1.0
            np.divide(2.0, cs[0], out=cs[0])  # 1 + cos(theta)
            cs[1] *= cs[0]                    # sin(theta)
            np.matmul(cs, w[cells, :, None], out=z[..., None])
            z[0] -= mass[cells, None]
            for wk, nk in zip(weights[-2::-1], sizes[-2::-1]):
                z = np.matmul(z.reshape(2, z.shape[1], -1, nk), wk[cells, :, None])
            sums[:, cells] = z.reshape(2, -1)
        total = sums if total is None else total + sums
    return total[0] + 1j * total[1]


@lru_cache(maxsize=None)
def _gauss(order):
    gx, gw = np.polynomial.legendre.leggauss(order)
    gx.flags.writeable = gw.flags.writeable = False
    return gx, gw


def _rows(a):
    """The distinct rows of the array a, in lexicographic order, and the
    index of each row of a among them: np.unique(a, axis=0) without its
    sort of a void view, which is 5x slower, and without the numpy.ma
    import it makes.  Float rows compare by value, so -0.0 and 0.0 are one."""
    order = np.lexsort(a.T[::-1])
    a = a[order]
    step = np.ones(len(a), dtype=bool)
    step[1:] = (a[1:] != a[:-1]).any(axis=1)
    inverse = np.empty(len(a), dtype=np.int64)
    inverse[order] = np.cumsum(step) - 1
    return a[step], inverse


def _rule_table(keys):
    """Every distinct Gauss rule of `keys`, float rows (lo, hi, panels,
    order, e) with 0 <= lo < hi, built as one table: nodes on [lo, hi] and
    real weights times the cutoff.  At map exponent e the panels lie between
    (lo^e + j (hi^e - lo^e) / panels)^(1/e): Gauss in x, no Jacobian.  Each
    panel's start and width are found first, those at e > 1 rule by rule
    with scalar powers lo^e, then each Gauss order's nodes and weights in
    one broadcast; the cutoff's profile, one shape for every cutoff, is
    evaluated once, on the nodes of every rule off the plateau.  Returns the
    index of each row of `keys` among the distinct rows (`_rows`), the
    offset of each one's first node, and the nodes and weights of every
    rule, rule after rule, as two flat arrays: panel j of a rule of order n
    is the n nodes from its offset + j n."""
    rules, inverse = _rows(keys)
    lo, hi = rules[:, 0], rules[:, 1]
    panels, order, e = rules[:, 2:].astype(np.int64).T
    size = panels * order
    # per panel, its rule, index j in the rule, start and width
    of = np.repeat(np.arange(len(rules)), panels)
    first = np.cumsum(panels) - panels
    width = ((hi - lo) / panels)[of]
    start = lo[of] + width * (np.arange(len(of)) - first[of])
    mapped = np.flatnonzero(e > 1)
    for r, a, b, p, x in zip(mapped.tolist(), *(v[mapped].tolist() for v in (lo, hi, panels, e))):
        ends = (a ** x + (b ** x - a ** x) * np.arange(p + 1) / p) ** (1.0 / x)
        ends[0], ends[-1] = a, b
        at = slice(first[r], first[r] + p)
        start[at], width[at] = ends[:-1], np.diff(ends)
    half, n = width * 0.5, order[of]
    at = np.cumsum(n) - n  # each panel's first node
    nodes, weights = np.empty((2, int(n.sum())))
    # elementwise only, so a rule's bits do not depend on the others in its table
    for m in sorted(set(n.tolist())):
        gx, gw = _gauss(m)
        sel = np.flatnonzero(n == m)
        put = at[sel, None] + np.arange(m)
        nodes[put] = start[sel, None] + half[sel, None] * (gx + 1.0)
        weights[put] = half[sel, None] * gw
    off = np.repeat(hi > _PLATEAU, size)
    if off.any():
        weights[off] *= CutoffSpec.profile(nodes[off])
    return inverse, np.cumsum(size) - size, nodes, weights


def _run_level(p, keys, ids, parts, lams):
    """Rule sums of cells, each at its own frequencies `lams` (`_kernel`) and
    with its rule per axis its row of `ids` among `keys`, rows (lo, hi,
    panels, order, e): the whole rule where its entry of `parts` is -1, else
    its panel of that index.  The rules the cells take are built as one
    table (`_rule_table`), so axes share them, and each cell axis gathers
    one run of its flat nodes and weights, from the rule's offset + part *
    order: panels * order nodes for a whole rule, order for a panel.  Cells
    with equal node counts per axis, whose rules have one shape, are one
    `_kernel` call on all their runs."""
    values = np.empty(len(ids), dtype=complex)
    # each cell axis's rule in the table of the rules the cells take, and
    # the first node of its run
    taken = np.flatnonzero(np.bincount(ids.ravel(), minlength=len(keys)))
    rule, offset, nodes, weights = _rule_table(keys[taken])
    panels, order = (keys[:, c].astype(np.int64)[ids] for c in (2, 3))
    first = offset[rule[np.searchsorted(taken, ids)]] + np.maximum(parts, 0) * order
    shapes, group = _rows(np.where(parts < 0, panels * order, order))
    by_group = np.split(np.argsort(group, kind="stable"), np.cumsum(np.bincount(group))[:-1])
    for sizes, members in zip(shapes.tolist(), by_group):
        runs = [first[members, k, None] + np.arange(n) for k, n in enumerate(sizes)]
        values[members] = _kernel(p, lams[members], [nodes[r] for r in runs],
                                  [weights[r] for r in runs])
    return values


def _plan(f, depths):
    """The pieces of each axis k of test function `f`, cut to depth
    `depths[k]` (`_axis_pieces`), and the cells, a (cells, d) array of piece
    indices in product order."""
    axis_pieces = [_axis_pieces(fac, depth) for fac, depth in zip(f.factors, depths)]
    full = tuple(len(pieces) for pieces in axis_pieces)
    return axis_pieces, np.stack(np.unravel_index(np.arange(math.prod(full)), full), axis=1)


def _depths(grads, f, chi, lams, quad):
    """Per frequency of `lams`, with its test function and cutoff of `f` and
    `chi` (`_per_row`), and axis k: the depth L_k to which axis k is cut into
    octaves, and the Gauss order n of its merged piece [0, 2^-L_k], or 0
    where it has none, as two (F, d) integer arrays.  With g the terms of
    phi with a_k >= 1 and G the same terms with absolute coefficients and
    the other axes at their largest magnitude over the support and the
    factor, |lam g| <= theta = |lam| G(2^-L) on the piece, so `_merge_reach`
    bounds one n-point panel's error there.  G is read off `grads`, d_k phi
    with absolute coefficients: each of its terms c x^b is one of g's
    divided by a_k = b_k + 1.  L_k is the smallest level, at most `levels`,
    at which some order meets the target, and n the least such order; where
    none does, L_k = `levels` and n = 0, the octave layout to the
    truncation.  A theta that is not finite meets no target.  A row depends
    only on its own lam, test function and cutoff: G per level and axis is
    tabled once per test function and orthant flag, over both sides of 0 on
    the full cutoff, so every reflection of the row keeps these depths.
    Every row's cutoff has the same `levels` (`_evaluate`)."""
    fs, chis = _per_row(f, chi, len(lams))
    d, levels = len(grads), chis[0].levels
    terms = [g._float_coefficients for g in grads]
    reach = [_merge_reach(quad.order, quad.waves_per_panel,
                          max((b[k] + 1 for b, _ in t), default=0))
             for k, t in enumerate(terms)]
    x = 2.0 ** -np.arange(1, levels + 1)
    keys, tables = [(g, c.positive_orthant) for g, c in zip(fs, chis)], {}
    with np.errstate(over="ignore", invalid="ignore"):
        for g, orthant in set(keys):
            # largest magnitude of each axis over the support, clipped to the factor
            sides = [(fac,) if orthant else (fac, FactorSpec(-fac.b, -fac.a))
                     for fac in g.factors]
            tops = [max((hi for side in both for _, hi in _axis_pieces(side, 1)), default=0.0)
                    for both in sides]
            table = tables[g, orthant] = np.zeros((levels, d))
            for k, t in enumerate(terms):
                for b, c in t:
                    others = math.prod(tops[j] ** b[j] for j in range(d) if j != k)
                    table[:, k] += c / (b[k] + 1) * others * x ** (b[k] + 1)
        theta = (np.abs(np.asarray(lams))[:, None, None]
                 * np.reshape([tables[key] for key in keys], (-1, levels, d)))
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
    the variable x^e; then (cells, d) arrays of hi / lo, for 0 <= lo < hi
    the piece's ends, and of whether the piece lies on the cutoff plateau.
    The span is hi^e - lo^e, and the bound the sum over the terms of phi of
    |c| (a_k / e) x*^(a_k - e), a_k the term's exponent of x_k, x* = lo if
    a_k < e else hi, times the other axes at hi.  At e = 1 that is d_k phi
    at the cell's corner of largest magnitudes, each power and product
    rounded as `PhasePolynomial.evaluate` rounds them there.  The span is
    inf where e may not be taken: e above the largest exponent of x_k in
    phi, and e > 1 on the piece touching 0."""
    # per axis, the ends lo (row 0) and hi (row 1) of each piece
    ends = [np.array(pieces, dtype=float).reshape(-1, 2).T for pieces in axis_pieces]

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


def _per_row(f, chi, rows):
    """The test function and the cutoff of each row: `f` and `chi` each one
    `TestFunctionSpec` or `CutoffSpec` repeated, or a sequence of one per row."""
    out = []
    for x, kind, name in ((f, TestFunctionSpec, "test functions"), (chi, CutoffSpec, "cutoffs")):
        out.append([x] * rows if isinstance(x, kind) else list(x))
        if len(out[-1]) != rows:
            raise OscError(f"{len(out[-1])} {name} for {rows} frequencies")
    return out


@lru_cache(maxsize=None)
def _transition_errors():
    """`_TRANSITION_PANELS` as a read-only array by [order n, e, P], for P
    up to _TRANSITION_CHECKED + 1 (where larger counts look): the tabled
    error of P panels, or the default rule's target T where larger, T alone
    from P0(n, e) on, and inf where the table has no row, for orders up to
    _HIGHER's last, the most any rule `QuadratureConfig` accepts may take.
    Every row has a P0 up to _TRANSITION_CHECKED, so every count of a row
    has a tabled error."""
    floor, _ = _ladder(*_TRANSITION_RULE)
    table = np.full((_HIGHER[-1] + 1, _MAX_MAP + 1, _TRANSITION_CHECKED + 2), np.inf)
    for e, rows in _TRANSITION_PANELS:
        for n, errors in rows:
            table[n, e, 1:] = floor
            table[n, e, 1:len(errors) + 1] = np.maximum(errors, floor)
    table.flags.writeable = False
    return table


def _layout(grads, fs, lams, quad, depths, merged):
    """The cell table of a call, every row's cells in row order: per cell
    its row, its piece ends lo and hi, its panel counts, Gauss orders and
    map exponents ((cells, d) arrays, `_panel_counts`), its weight mass,
    whether the error estimate reruns it, and the allowance per unit of
    weight mass it adds to the estimate if not, else 0.0 (the rule is in
    `_evaluate`).  A row's pieces are its test function's cut to its
    `depths` (`_plan`), shared with other rows.  All cells are sized in one
    `_sizing` and one `_panel_counts` call, each at its row's frequency, so
    a row's rule does not depend on the other rows; an overflow refusal
    names the first row whose turns overflow.  Then each axis's merged
    piece with a `merged` order takes one panel of it at map exponent 1.
    The weight mass is the product over the axes of a closed form: hi - lo,
    the sum of the Gauss weights, on the plateau, and 1/4, the profile's
    integral over [PLATEAU, 1] (S(u) + S(1 - u) = 1), on the whole
    transition piece.  An axis's allowance is the rule's target on the
    plateau, and on the whole transition piece the default rule's tabled
    error (`_transition_errors`), which serves every rule `QuadratureConfig`
    accepts.  A transition piece clipped by a box factor has none: a cell
    with such an axis is rerun and takes no allowance, so its mass, which
    counts the piece as whole, goes unused.  A cell's allowances are summed
    in sorted order, so its rerun flag and allowance depend only on the
    multiset of its rules."""
    # per axis, a dict from piece (lo, hi) to its index, grown as pieces are
    # met; rows of one test function and depths share their cells
    index, planned = [{} for _ in grads], {}
    keys = list(zip(fs, map(tuple, depths.tolist())))
    for key in keys:
        if key not in planned:
            pieces, own = _plan(*key)
            ids = [np.array([ix.setdefault(piece, len(ix)) for piece in pieces_k], dtype=np.int64)
                   for ix, pieces_k in zip(index, pieces)]
            planned[key] = np.stack([a[own[:, k]] for k, a in enumerate(ids)], axis=1)
    cells = [planned[key] for key in keys]
    pieces = [list(ix) for ix in index]
    row = np.repeat(np.arange(len(cells)), [len(c) for c in cells])
    cells = np.concatenate(cells)
    # each cell's piece ends, (cells, d) arrays
    lo, hi = np.stack([np.array(pk, dtype=float).reshape(-1, 2)[cells[:, k]].T
                       for k, pk in enumerate(pieces)], axis=2)
    sizing = _sizing(grads, pieces, cells)
    counts, orders, exps = _panel_counts(np.asarray(lams)[row], sizing, quad)
    # a row's merged piece on axis k is the one within [0, 2^-L_k]
    n = merged[row]
    on = (hi <= np.ldexp(1.0, -depths[row])) & (n > 0)
    counts, orders, exps = (np.where(on, v, a) for v, a in ((1, counts), (n, orders), (1, exps)))
    # per axis, the target where analytic, the tabled error on the
    # transition piece [PLATEAU, 1], unclipped, and else inf: a cell with
    # such an axis is rerun
    target, _ = _ladder(quad.order, quad.waves_per_panel)
    edge = (lo == _PLATEAU) & (hi == 1.0)
    tabled = _transition_errors()[orders, exps, np.minimum(counts, _TRANSITION_CHECKED + 1)]
    axis = np.where(sizing[3], target, np.where(edge, tabled, np.inf))
    rerun = np.isinf(axis).any(axis=1)
    allow = np.where(rerun, 0.0, np.sort(axis, axis=1).sum(axis=1))
    mass = np.where(sizing[3], hi - lo, 0.25).prod(axis=1)
    return row, lo, hi, counts, orders, exps, mass, rerun, allow


def _reflections(p, fs, chi):
    """Per distinct test function f of `fs`, its sub-rows: orthant sigma
    (sigma_k = +-1) of the cutoff is the positive orthant's integral of
    phi(sigma x), whose term c x^a is c sigma^a x^a, against f's factors
    mirrored where sigma_k = -1.  A coordinate permutation perm, carrying
    x_k to x_perm[k], maps the positive orthant to itself, so reflections
    whose (phase, factors on [0, 1]) have the same least image under the
    permutations, up to the sign of the phase, are one sub-row (signs,
    factors, plain, conj, group): the first in `product` order, its signs
    per term of phi in the order of its exponents, then how many have its
    integral and how many the conjugate, and its own group, the (perm,
    conj) pairs whose image is itself, conj where the image of its phase
    is the negative, the identity first.  The orthant cutoff has one
    reflection."""
    d, terms = p.dimension, sorted(p.terms.items())
    sigmas = [(1,) * d] if chi.positive_orthant else list(product((1, -1), repeat=d))
    # each term's coefficient ranked among the coefficients and their
    # negatives, where -c ranks top - rank(c); each permutation's exponents
    values = sorted({v for _, c in terms for v in (c, -c)})
    top, ranks = len(values) - 1, [values.index(c) for _, c in terms]
    moves = [(perm, [perm.index(j) for j in range(d)]) for perm in permutations(range(d))]
    moved = [[tuple(a[i] for i in back) for a, _ in terms] for _, back in moves]
    subs = {}
    for f in dict.fromkeys(fs):
        found = {}
        for sigma in sigmas:
            signs = tuple((-1) ** sum(ak for ak, s in zip(a, sigma) if s < 0) for a, _ in terms)
            ids = [r if s > 0 else top - r for r, s in zip(ranks, signs)]
            # the factors on [0, 1]; an empty one leaves the sub-row no cells
            parts = [(max(fac.a, 0.0), min(fac.b, 1.0)) if s > 0 else
                     (max(-fac.b, 0.0), min(-fac.a, 1.0)) for fac, s in zip(f.factors, sigma)]
            images = {}
            for (perm, back), exps in zip(moves, moved):
                side = tuple(parts[i] for i in back)
                images[perm, False] = tuple(sorted(zip(exps, ids))), side
                images[perm, True] = tuple(sorted(zip(exps, [top - i for i in ids]))), side
            # a key reached both ways has a real integral: either count is right
            key, conj = min((image, conj) for (_, conj), image in images.items())
            if key not in found:
                own = next(iter(images.values()))
                group = tuple(e for e, image in images.items() if image == own)
                g = TestFunctionSpec(tuple(fac if s > 0 else FactorSpec(-fac.b, -fac.a)
                                           for fac, s in zip(f.factors, sigma)))
                found[key] = [signs, g, 0, 0, group, conj]
            sub = found[key]
            sub[2 + (conj != sub[5])] += 1
        subs[f] = tuple(tuple(sub[:5]) for sub in found.values())
    return subs


def _orbits(groups, keys, ids, row, live):
    """Which cells of the table are evaluated, and in what pieces.  A cell's
    key is its sub-row (`row`) and the least image, under its sub-row's
    group (`groups`, from `_reflections`), of its per-axis rules (`ids`,
    rows of `keys`): perm carries axis k's rule to axis perm[k].  Permuting
    the coordinates turns the cell's sum into that of its image, conjugated
    where perm negates the phase; its rerun flag and allowance depend only
    on the multiset of its rules (`_layout`), so the image shares them, and
    the cell takes the image's rerun sum with its value.
    Rule ids rank by value over every axis, so a row's keys and images do
    not depend on the other rows of the call.  The first cell of each key
    in table order is evaluated where `live`.  One walk of each group's
    moves gives both the least images and the stabilizers, the moves whose
    image of a cell is the cell itself.  An evaluated cell whose stabilizer
    moves an axis of three panels or more is cut on each such axis into one
    panel cell per panel, where a panel cell holds at least _PANEL_NODES
    nodes.  (With two panels, the one such cell of a 3D sweep at lam 16 to
    32 saved less kernel time than its panel cells took to plan.)  The
    stabilizer maps the panel cells onto each other, and the least image of
    each orbit, in the order of their panels, is a piece; every other
    evaluated cell is one piece, whole.  Returns per cell the cell whose
    value and rerun value it takes, and whether it takes their conjugate;
    then per piece, in table order, its cell, its part of each axis's rule
    (-1 for the whole rule, j for panel j), and how many panel cells of its
    cell take its sum and how many its conjugate."""
    n, d = ids.shape
    rep, conj, moves = np.arange(n), np.zeros(n, dtype=bool), []
    cut = np.zeros((n, d), dtype=bool)  # the axes a move that fixes the cell moves
    if any(len(group) > 1 for group in groups):
        # the least image of each cell under its sub-row's group, whether the
        # first element giving it negates the phase, and the moves that fix it
        best = ids.copy()
        for group in {g for g in groups if len(g) > 1}:
            mine = np.equal([g == group for g in groups], True)[row]
            rules = ids[mine]
            # the identity's image first
            least, flip = rules.copy(), np.zeros(len(rules), dtype=bool)
            at = np.arange(len(rules))
            for perm, negates in group[1:]:
                image = rules[:, np.argsort(perm)]
                # lexicographically less: at the first column where they differ
                col = (image != least).argmax(axis=1)
                less = image[at, col] < least[at, col]
                least[less], flip[less] = image[less], negates
                fixed = np.zeros(n, dtype=bool)
                fixed[mine] = (image == rules).all(axis=1)
                moves.append((perm, negates, fixed))
                cut[fixed] |= np.array(perm) != np.arange(d)
            best[mine], conj[mine] = least, flip
        _, key = _rows(np.column_stack([row, best]))
        first = np.full(n, n)
        np.minimum.at(first, key, np.arange(n))
        rep = first[key]
        conj = conj != conj[rep]
    cells = np.flatnonzero(live & (rep == np.arange(n)))
    cut = cut[cells]
    if cut.any():
        panels, orders = (keys[ids[cells], c].astype(np.int64) for c in (2, 3))
        cut &= panels > 2
        cut &= (np.where(cut, orders, orders * panels).prod(axis=1) >= _PANEL_NODES)[:, None]
    if not cut.any():
        return (rep, conj, cells, np.full((len(cells), d), -1),
                np.ones(len(cells), dtype=np.int64), np.zeros(len(cells), dtype=np.int64))
    # every panel cell (a cell not cut is one), its panels and its index in
    # its cell, in mixed radix with the last axis fastest: the moved axes
    # have equal radix, so index order is the panels' lexicographic order
    counts = np.where(cut, panels, 1)
    size = counts.prod(axis=1)
    owner = np.repeat(np.arange(len(cells)), size)
    start = np.repeat(np.cumsum(size) - size, size)
    index = np.arange(len(owner)) - start
    part, stride, rest = *np.empty((2, len(owner), d), dtype=np.int64), index
    for k in reversed(range(d)):
        stride[:, k] = counts[owner, k + 1:].prod(axis=1)
        rest, part[:, k] = np.divmod(rest, counts[owner, k])
    # the least index among its images under the moves that fix its cell,
    # and whether the first move giving it negates the phase
    least, flip = index.copy(), np.zeros(len(owner), dtype=bool)
    for perm, negates, fixed in moves:
        image = (part[:, np.argsort(perm)] * stride).sum(axis=1)
        less = fixed[cells][owner] & (image < least)
        least[less], flip[less] = image[less], negates
    orbit = start + least
    plain, twin = (np.bincount(orbit[f], minlength=len(owner)) for f in (~flip, flip))
    piece = least == index
    part = part[piece]
    part[~cut[owner[piece]]] = -1
    return rep, conj, cells[owner[piece]], part, plain[piece], twin[piece]


def _evaluate(p, f, chi, lams, quad):
    """Tensor-panel quadrature of the oscillatory form at every frequency of
    `lams`, with test function `f` and cutoff `chi`, each one for every
    frequency or a sequence of one per frequency: per frequency, its result
    (without certificate), and the value and node count of every cell of its
    sub-rows (`_reflections`, per test function and orthant flag), over all
    the copies of each.  Every row's cutoff must have the same `levels`.
    A row's result does not depend on the other rows of the call, bit for
    bit: its rules depend only on its own frequency, test function and
    cutoff (`_layout`), and a cell that fits a kernel block keeps its bits
    in any block (`_kernel`).  So independent families, such as a sweep and
    the sharpness boxes of `verify`, pay the call's set-up once.

    The call is one cell table of every sub-row (`_layout`, with its row's
    `_depths`).  A row whose planned nodes over all its reflections exceed
    the budget is refused before any quadrature: its result is flagged
    low-confidence, with no value or error and the planned count as nodes.
    Each cell axis's rule is a row of one table of the call's distinct rules
    (lo, hi, panels, order, e), sorted by value over every axis.  One
    `_run_level` takes the first cell of each orbit of every other row, in
    pieces where a permutation maps it to itself (one per orbit of its panel
    cells, `_orbits`), each at the row's frequency times its sub-row's term
    signs; a cell's value is its pieces' over the panel cells that take
    them, and every other cell takes its orbit's, conjugated where its
    permutation negates the phase.  The reported error is planned with the
    cells (`_layout`): the allowance of each cell not rerun times its weight
    mass in closed form and its copies, the allowance target * sum_k a_k,
    a_k 1 on an analytic axis (a merged piece too), and max(E, T) / target
    on an axis whose piece is the whole transition [PLATEAU, 1], unclipped,
    with E the error `_TRANSITION_PANELS` holds for its order n, map
    exponent e and panel count P under the default rule, whose target is T
    (E = T from P0(n, e) panels on).  Only a cell with an axis whose
    transition piece a box factor clips, where no error is tabled, is
    rerun, in a second `_run_level` made only when some piece needs it: on
    the same panels at order max(n // 2, n - 4) on the axes at order
    n >= `order`, its pieces taken as the first pass's.  The difference,
    summed over the cells rerun, adds to the error.
    """
    lams = [float(lam) for lam in lams]
    bad = [lam for lam in lams if not math.isfinite(lam)]
    if bad:
        raise OscError(f"frequency must be finite, got {bad[0]:g}")
    fs, chis = _per_row(f, chi, len(lams))
    if len({c.levels for c in chis}) > 1:
        raise OscError("the rows of one call must share the cutoff's levels")
    d = p.dimension
    if d > 3:
        raise OscError("tensor quadrature is limited to dimension <= 3")
    if any(g.dimension != d for g in set(fs)):
        raise OscError("test function dimension mismatch")
    grads = [p.derivative(k).absolute() for k in range(d)]
    depths, merged = _depths(grads, fs, chis, lams, quad)
    # each row's sub-rows, keyed by its test function and orthant flag
    pairs, reflections = [(g, c.positive_orthant) for g, c in zip(fs, chis)], {}
    for orthant, c in {c.positive_orthant: c for c in chis}.items():
        own = [g for g, o in pairs if o == orthant]
        reflections.update(((g, orthant), s) for g, s in _reflections(p, own, c).items())
    subs = [s for pair in pairs for s in reflections[pair]]
    parent = np.repeat(np.arange(len(fs)), [len(reflections[pair]) for pair in pairs])
    signs, sub_fs, plain, twin, groups = zip(*subs)
    row, lo, hi, counts, orders, exps, mass, rerun, allow = _layout(
        grads, sub_fs, np.array(lams)[parent], quad, depths[parent], merged[parent])
    n, signs = len(row), np.array(signs, dtype=float)
    plain, twin = np.array(plain)[row], np.array(twin)[row]
    copies = plain + twin
    # row i is cells ends[i]:ends[i + 1]; its tensor nodes over every
    # reflection, in floats, which cannot wrap
    ends = np.searchsorted(parent[row], np.arange(len(lams) + 1))
    planned = np.multiply(counts, orders, dtype=float).prod(axis=1) * copies
    planned = np.array([planned[a:b].sum() for a, b in zip(ends, ends[1:])])
    # the call's distinct rules (lo, hi, panels, order, e), by value over
    # every axis, and each cell axis's among them
    rules, ids = _rows(np.stack([lo, hi, counts, orders, exps], axis=2).reshape(-1, 5))
    ids = ids.reshape(lo.shape)
    # the first cell of each orbit of the rows in budget is evaluated, in
    # pieces where it is self-symmetric
    live = ~(planned > quad.node_budget)[parent[row]]
    rep, conj, owner, part, once, twice = _orbits(groups, rules, ids, row, live)
    # one frequency per piece, or one per piece and term where a term sign is -1
    freqs = np.array(lams)[parent[row[owner]]]
    if (signs < 0).any():
        freqs = freqs[:, None] * signs[row[owner]]
    values = _run_level(p, rules, ids[owner], part, freqs)
    # the pieces of the cells rerun, on the same panels at order
    # max(n // 2, n - 4) for n >= `order`
    rerun_values, again = np.zeros(len(owner), complex), rerun[owner]
    if again.any():
        low, n_k = rules.copy(), rules[:, 3]
        low[:, 3] = np.where(n_k >= quad.order, np.maximum(n_k // 2, n_k - 4), n_k)
        rerun_values[again] = _run_level(p, low, ids[owner[again]], part[again], freqs[again])
    # per piece, its value and rerun value over the panel cells that take it
    # or its conjugate, summed onto its cell; then each cell takes its key's
    # first, over its sub-row's plain and conjugate copies, conjugated once
    # more where its permutation says so
    sums = [values, rerun_values]
    for v in sums:
        v.real *= once + twice
        v.imag *= once - twice
    value, check = np.zeros((2, n), complex)
    if len(owner):
        starts = np.flatnonzero(np.diff(owner, prepend=-1))
        value[owner[starts]], check[owner[starts]] = (np.add.reduceat(v, starts) for v in sums)
    value, check = value[rep], check[rep]
    for v in (value, check):
        v.real *= copies
        v.imag *= np.where(conj, twin - plain, plain - twin)
    allowed = allow * mass * copies
    nodes, out = (counts * orders).prod(axis=1) * copies, []
    for lam, a, b, plan in zip(lams, ends, ends[1:], planned):
        if plan > quad.node_budget:
            out.append((OscResult(lam, None, None, True, int(plan)), value[:0], nodes[:0]))
            continue
        v, r = value[a:b], rerun[a:b]
        error = abs((v[r] - check[a:b][r]).sum()) + allowed[a:b].sum()
        out.append((OscResult(lam, complex(v.sum()), float(error), False, int(nodes[a:b].sum())),
                    v, nodes[a:b]))
    return out


def certify_results(results: Sequence[OscResult], p: PhasePolynomial,
                    f: TestFunctionSpec | Sequence[TestFunctionSpec],
                    chi: CutoffSpec | Sequence[CutoffSpec], *,
                    query: ExponentQuery | None = None, n: NewtonPolyhedron | None = None,
                    constant: float = DEFAULT_CERT_CONSTANT) -> tuple[OscResult, ...]:
    """The results, each certified with its test function and cutoff, each
    one for every result or a sequence of one per result: one
    `certificate_sum` call per distinct test function and cutoff, on its
    frequencies, truncated at the cutoff's `levels` and counted once per
    orthant the cutoff covers."""
    d = p.dimension
    fs, chis = _per_row(f, chi, len(results))
    n = build_polyhedron(p) if n is None else n
    query = ExponentQuery.all_inf(d) if query is None else query
    rows, certificates = {}, {}
    for i, key in enumerate(zip(fs, chis)):
        rows.setdefault(key, []).append(i)
    for (g, c), at in rows.items():
        certificates.update(zip(at, certificate_sum(
            p, n, query, g.norms(query), [results[i].lam for i in at],
            levels=c.levels, multiplicity=1 if c.positive_orthant else 2 ** d,
            constant=constant)))
    return tuple(replace(r, certificate=certificates[i]) for i, r in enumerate(results))


def evaluate_lambda(p: PhasePolynomial, f: TestFunctionSpec, chi: CutoffSpec,
                    lam: float, *, quad: QuadratureConfig = QuadratureConfig(),
                    certify: bool = False, query: ExponentQuery | None = None,
                    n: NewtonPolyhedron | None = None) -> OscResult:
    """Tensor-panel quadrature of the oscillatory form at one frequency, the
    one-row case of `_evaluate`; with `certify` it carries its certificate."""
    (r, _, _), = _evaluate(p, f, chi, [lam], quad)
    if certify:
        r, = certify_results([r], p, f, chi, query=query, n=n)
    return r


# ---------------------------------------------------------------------------
# per-box bound and certificate

def box_envelope(vertices: Sequence[Sequence[int]], weights: Sequence, lams: Sequence[float],
                 jmax: int, scale: float = 1.0) -> Iterator[np.ndarray]:
    """Per frequency lam of `lams`, in turn, the terms scale * 2^-<w, j> *
    min(1, |lam 2^-t|^(-1/2)), t = min over vertices alpha of <alpha, j>, for
    j over [0, jmax]^d in `product` order.  Exponents are exact integers,
    <w, j> over one common denominator, and the volume factor is built once;
    the float factors are scalar libm calls per distinct exponent (numpy's
    array pow is not libm)."""
    w = [Fraction(x) for x in weights]
    d, den = len(w), math.lcm(*(x.denominator for x in w))

    def exponents(rows):
        # the distinct values of min over rows c of <c, j>, and each j's
        # index among them; exact, in Python ints where int64 could overflow
        big = max(abs(x) for c in rows for x in c) * jmax * d >= 2 ** 63
        axes = [np.arange(jmax + 1, dtype=object if big else np.int64)
                .reshape([-1] + [1] * (d - 1 - k)) for k in range(d)]
        e = None
        for c in rows:
            ec = sum(ck * ak for ck, ak in zip(c, axes))
            e = ec if e is None else np.minimum(e, ec, out=e)
        # np.unique(e) by hand: numpy's checks for a masked array on the way,
        # importing numpy.ma; and not return_inverse: 3 more grid-size arrays
        flat = np.sort(e, axis=None)
        uniq = flat[np.concatenate([[True], flat[1:] != flat[:-1]])]
        return uniq.tolist(), np.searchsorted(uniq, e.ravel())

    def gain(lam, t):
        osc = math.ldexp(abs(lam), -t)
        return min(1.0, osc ** -0.5) if osc > 0 else 1.0

    s, at = exponents([[x.numerator * (den // x.denominator) for x in w]])
    volume = np.array([scale * 2.0 ** -(x / den) for x in s])[at]
    t, at = exponents(vertices)
    for lam in lams:
        yield volume * np.array([gain(lam, x) for x in t])[at]


def certificate_sum(p: PhasePolynomial, n: NewtonPolyhedron,
                    query: ExponentQuery, norms: Sequence[float], lams: Sequence[float],
                    *, levels: int = 12, multiplicity: int = 1,
                    constant: float = DEFAULT_CERT_CONSTANT) -> tuple[float, ...]:
    """Per frequency of `lams`, the sum of per-box bounds (weights 1/p') over
    the octave grid, left to right."""
    if len(norms) != p.dimension:
        raise OscError("norm vector dimension mismatch")
    return tuple(constant * multiplicity * float(np.add.accumulate(terms)[-1])
                 for terms in box_envelope(n.vertices, query.dual_reciprocals, lams, levels,
                                           math.prod(norms)))


# ---------------------------------------------------------------------------
# sweeps

def lambda_grid(lo: float = 64.0, hi: float = 4096.0, count: int = 13) -> tuple[float, ...]:
    """`count` frequencies from lo to hi in geometric progression, point i
    lo * ratio^i; a single point is lo, whatever hi is.  Every frequency is
    finite: an infinite hi, or one whose top point rounds past the float
    range, is refused, as is a count below 1 or a lo below MIN_LAMBDA."""
    if count < 1 or not MIN_LAMBDA <= lo < math.inf or (count > 1 and not lo < hi):
        raise OscError("bad lambda grid request")
    ratio = (hi / lo) ** (1.0 / (count - 1)) if count > 1 else 1.0
    grid = tuple(lo * ratio ** i for i in range(count))
    if not math.isfinite(grid[-1]):
        raise OscError("bad lambda grid request")
    return grid


def lambda_sweep(p: PhasePolynomial, f: TestFunctionSpec | Sequence[TestFunctionSpec],
                 chi: CutoffSpec | Sequence[CutoffSpec], lambdas: Sequence[float], *,
                 quad: QuadratureConfig = QuadratureConfig()) -> tuple[OscResult, ...]:
    """Evaluate the form at every frequency, one result each, equal to
    `evaluate_lambda`'s at each frequency.  `f` and `chi` are each one test
    function or cutoff for every frequency, or a sequence of one per
    frequency; every cutoff must have the same `levels`.  With one of each
    the frequencies are a grid: strictly increasing, and at most
    MAX_LAM_COUNT of them.  Per-row sequences are independent rows, in any
    order.  Every frequency is at least MIN_LAMBDA.  All rows are evaluated
    as one batch of cells (`_evaluate`), so they share its set-up;
    `certify_results` adds their certificates."""
    lams = [float(x) for x in lambdas]
    fs, chis = _per_row(f, chi, len(lams))
    if not lams:
        return ()
    if isinstance(f, TestFunctionSpec) and isinstance(chi, CutoffSpec):
        if len(lams) > MAX_LAM_COUNT:
            raise OscError(f"a lambda grid holds at most {MAX_LAM_COUNT} frequencies, "
                           f"got {len(lams)}")
        if any(b <= a for a, b in zip(lams, lams[1:])):
            raise OscError("lambda grid must be strictly increasing")
    if any(lam < MIN_LAMBDA for lam in lams):
        raise OscError(f"decay sweeps start at lambda >= {MIN_LAMBDA:g}")
    return tuple(r for r, _, _ in _evaluate(p, fs, chis, lams, quad))
