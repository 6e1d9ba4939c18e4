"""Decay-rate verification for the oscillatory form.

Three instruments: a log-log regression that extracts the decay power and
the log correction from a quadrature sweep; a lower bound built from a
dual-polyhedron vertex, realized by indicator boxes thin enough that the
phase never turns; and the dyadic box-sum envelope, summed from the
`oscint.box_envelope` terms that the certificate sums too.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .exponent import ExponentQuery, ExponentReport, ray_scaling
from .oscint import (PLATEAU, CutoffSpec, OscResult, TestFunctionSpec, box_envelope,
                     lambda_sweep)
from .phase import PhasePolynomial
from .polytope import DualPolyhedron, NewtonPolyhedron, dual_polyhedron
from .ratlin import dot

__all__ = [
    "DecayError", "DecayFit", "SharpnessRow", "SharpnessWitness",
    "SummationRow", "SummationReport", "fit_decay", "fit_samples",
    "dual_lambda_grid", "sharpness_boxes", "box_functions", "sharpness_witness",
    "sharpness_test", "check_dual_domination", "MAX_EXPONENT", "MAX_SHARPNESS_COUNT",
    "summation_oracle", "summation_boxes", "MAX_SUM_BOXES", "SHARPNESS_BAND",
    "MIN_FIT_SAMPLES", "MIN_FIT_OCTAVES", "MAX_HALVINGS", "spans_fit_octaves",
]


class DecayError(ValueError):
    pass


# ---------------------------------------------------------------------------
# regression

MIN_FIT_SAMPLES = 8    # the shortest clean sweep a fit accepts: samples,
MIN_FIT_OCTAVES = 4.0  # and octaves spanned


def spans_fit_octaves(lams: Sequence[float]) -> bool:
    """True when the frequencies span `MIN_FIT_OCTAVES` octaves, less one ulp
    per frequency for a geometric grid's rounding (`lambda_grid(64, 4096,
    13)[8]` is 1023.9999999999993)."""
    slack = len(lams) * math.ulp(MIN_FIT_OCTAVES)
    return math.log2(max(lams) / min(lams)) >= MIN_FIT_OCTAVES - slack


@dataclass(frozen=True)
class DecayFit:
    """Least squares of log|value| against [1, log lam, log log lam].

    All rate fields live on the 1/nu scale, where the regression is linear
    and tolerances are honest.  The free fit estimates the log power m too;
    the pinned fit fixes m to the prediction, which breaks the
    near-collinearity of the two regressors over desk-scale grids.
    """
    lams: tuple[float, ...]
    mags: tuple[float, ...]
    inv_nu_free: float
    m_free: float
    residual_free: float
    inv_nu_pinned: float
    residual_pinned: float
    inv_nu_predicted: float
    m_predicted: float
    tol: float
    excluded: int

    @property
    def inv_nu_gap(self) -> float:
        return abs(self.inv_nu_pinned - self.inv_nu_predicted)

    @property
    def passed(self) -> bool:
        return self.inv_nu_gap <= self.tol

    def to_json_dict(self) -> dict:
        return {
            "schema": "decay-fit/1",
            "samples": [[l, m] for l, m in zip(self.lams, self.mags)],
            "excluded": self.excluded,
            "free": {"inv_nu": self.inv_nu_free, "m": self.m_free,
                     "residual": self.residual_free},
            "pinned": {"inv_nu": self.inv_nu_pinned,
                       "residual": self.residual_pinned},
            "predicted": {"inv_nu": self.inv_nu_predicted,
                          "m": self.m_predicted},
            "tol": self.tol,
            "inv_nu_gap": self.inv_nu_gap,
            "verdict": "PASS" if self.passed else "FAIL",
        }


def _solve(a: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, float]:
    if np.linalg.matrix_rank(a) < a.shape[1]:
        raise DecayError("degenerate regression matrix")
    coef, _, _, _ = np.linalg.lstsq(a, y, rcond=None)
    return coef, float(np.linalg.norm(a @ coef - y))


def fit_samples(lams: Sequence[float], mags: Sequence[float],
                inv_nu_predicted: float, m_predicted: float, *,
                tol: float = 0.05, excluded: int = 0) -> DecayFit:
    lams = tuple(float(x) for x in lams)
    mags = tuple(float(x) for x in mags)
    if len(lams) < MIN_FIT_SAMPLES:
        raise DecayError(f"need at least {MIN_FIT_SAMPLES} clean samples, got {len(lams)}")
    if any(l < 2 for l in lams) or any(m <= 0 for m in mags):
        raise DecayError("samples must have lam >= 2 and positive magnitude")
    if not spans_fit_octaves(lams):
        raise DecayError(f"samples must span at least {MIN_FIT_OCTAVES} octaves")
    x = np.log(np.array(lams))
    xx = np.log(x)
    y = np.log(np.array(mags))
    free, res_free = _solve(np.column_stack([np.ones_like(x), x, xx]), y)
    pin, res_pin = _solve(np.column_stack([np.ones_like(x), x]),
                          y - float(m_predicted) * xx)
    return DecayFit(lams, mags, -float(free[1]), float(free[2]), res_free,
                    -float(pin[1]), res_pin, float(inv_nu_predicted),
                    float(m_predicted), tol, excluded)


def fit_decay(sweep: Sequence[OscResult], predicted: ExponentReport, *,
              tol: float = 0.05) -> DecayFit:
    """Fit the decay law on the clean part of a sweep and compare rates."""
    clean = [(r.lam, abs(r.value)) for r in sweep
             if r.lam >= 2 and not r.low_confidence]
    excluded = len(sweep) - len(clean)
    return fit_samples([l for l, _ in clean], [m for _, m in clean],
                       1.0 / float(predicted.nu), predicted.m, tol=tol,
                       excluded=excluded)


# ---------------------------------------------------------------------------
# sharpness via dual-polyhedron boxes

SHARPNESS_BAND = (0.9, 1.1)  # |measured| / (L1 norm of f) on a flat box
MAX_HALVINGS = 80  # of the box scale delta, before a phase bound is unattainable


@dataclass(frozen=True)
class SharpnessRow:
    lam: float
    f_norm1: float
    measured: complex | None  # None where the sample was refused over the node budget
    ratio: float | None       # |measured| / f_norm1
    phase_bound: float    # exact bound on |lam * phase| over the box


@dataclass(frozen=True)
class SharpnessWitness:
    w: tuple[Fraction, ...]
    delta: Fraction
    decay_power: Fraction       # <1, w>: the box volume scales as lam^(-power)
    rows: tuple[SharpnessRow, ...]
    halvings: int
    chain_ok: bool              # exact <nu/p', w> >= 1 for the query used

    @property
    def passed(self) -> bool:
        return self.chain_ok and all(r.ratio is not None and
                                     SHARPNESS_BAND[0] <= r.ratio <= SHARPNESS_BAND[1]
                                     for r in self.rows)

    def to_json_dict(self) -> dict:
        return {
            "schema": "sharpness/1",
            "w": [str(x) for x in self.w],
            "delta": str(self.delta),
            "decay_power": str(self.decay_power),
            "halvings": self.halvings,
            "band": list(SHARPNESS_BAND),
            "chain_ok": self.chain_ok,
            "rows": [{"lam": r.lam, "f_norm1": r.f_norm1,
                      "measured": (None if r.measured is None
                                   else [r.measured.real, r.measured.imag]),
                      "ratio": r.ratio, "phase_bound": r.phase_bound}
                     for r in self.rows],
            "verdict": "PASS" if self.passed else "FAIL",
        }


MAX_EXPONENT = 1023   # 2^1023 is the largest power of two a float holds
SHARPNESS_START = 6   # the least exponent of a sharpness grid
# the longest sharpness grid some dual vertex may take: each point's
# exponent is at least one above the last, from SHARPNESS_START on
MAX_SHARPNESS_COUNT = MAX_EXPONENT - SHARPNESS_START + 1


def dual_lambda_grid(w: Sequence[Fraction], count: int = 8,
                     start: int = SHARPNESS_START) -> tuple[float, ...]:
    """Powers of two whose exponent clears the denominators of w, so the box
    corners delta * lam^(-w_j) stay exactly dyadic."""
    if count < 1:
        raise DecayError("grid needs at least one point")
    ws = [Fraction(x) for x in w]
    step = math.lcm(*(x.denominator for x in ws)) if ws else 1
    e0 = max(step, step * math.ceil(start / step))
    top = e0 + (count - 1) * step
    if top > MAX_EXPONENT:
        raise DecayError(f"sharpness grid at w = ({', '.join(map(str, ws))}) "
                         f"reaches lam 2^{top}, beyond the largest float")
    return tuple(float(2 ** (e0 + k * step)) for k in range(count))


def _exact_corner(delta: Fraction, e: int, wj: Fraction) -> Fraction:
    exp = e * wj
    if exp.denominator != 1:
        raise DecayError("lambda grid incompatible with the dual vertex")
    return delta * Fraction(1, 2 ** int(exp)) if exp >= 0 else delta * 2 ** int(-exp)


def sharpness_boxes(p: PhasePolynomial, n: NewtonPolyhedron, w: Sequence[Fraction],
                    delta, lambdas: Sequence[float], *, chi: CutoffSpec,
                    dual: DualPolyhedron) -> tuple:
    """The exact boxes of `sharpness_test`, without quadrature: (w, delta,
    halvings, boxes), one box per frequency as (lam, half-widths, volume,
    phase bound)."""
    ws = tuple(Fraction(x) for x in w)
    if ws not in set(dual.vertices):
        raise DecayError("w must be a vertex of the dual polyhedron")
    assert all(dot(v, ws) >= 1 for v in n.vertices)
    if chi.positive_orthant:
        raise DecayError("sharpness boxes are symmetric; need a full cutoff")
    exps = [math.frexp(lam)[1] - 1 for lam in lambdas]  # lam = 2^e exactly, checked next
    if any(math.frexp(lam)[0] != 0.5 or e < 2 for lam, e in zip(lambdas, exps)):
        raise DecayError("sharpness grid needs lambdas that are powers of two, >= 4")

    cap = Fraction(1, 10 ** 10)
    delta = Fraction(delta)
    if not 0 < delta <= PLATEAU:
        raise DecayError("delta must sit inside the cutoff plateau")

    # sup of |lam * phase| over the box: the absolute-coefficient polynomial
    # at the box corner, exactly
    absp = p.absolute()

    def corners(dlt: Fraction, e: int) -> list[Fraction]:
        return [_exact_corner(dlt, e, wj) for wj in ws]

    def phase_bound(dlt: Fraction, e: int) -> Fraction:
        return 2 ** e * absp.evaluate_exact(corners(dlt, e))

    # 2^e sum |c| delta^|alpha| 2^(-e <alpha, w>) never rises with e, since
    # <alpha, w> >= 1 on the support: the lowest frequency decides
    halvings = 0
    while exps and phase_bound(delta, min(exps)) > cap:
        delta /= 2
        halvings += 1
        if halvings > MAX_HALVINGS:
            raise DecayError("phase bound unattainable within retry budget")

    boxes = []
    for lam, e in zip(lambdas, exps):
        half = tuple(float(h) for h in corners(delta, e))
        vol = math.prod(2.0 * h for h in half)
        if vol < sys.float_info.min:
            raise DecayError(f"sharpness box at lam {lam:g} has volume {vol:g}, "
                             "below the smallest normal float; use a larger delta")
        boxes.append((lam, half, vol, float(phase_bound(delta, e))))
    return ws, delta, halvings, boxes


def box_functions(boxes: tuple) -> list[TestFunctionSpec]:
    """The indicator of each box of `sharpness_boxes`' result, in its order."""
    return [TestFunctionSpec.boxes([(-h, h) for h in half]) for _, half, _, _ in boxes[3]]


def sharpness_witness(boxes: tuple, results: Sequence[OscResult],
                      chain_ok: bool) -> SharpnessWitness:
    """The witness of `sharpness_boxes`' result `boxes`, from the quadrature
    result of each box, in its order, and the domination check `chain_ok`."""
    ws, delta, halvings, rows = boxes
    rows = [SharpnessRow(lam, vol, r.value, None if r.value is None else abs(r.value) / vol,
                         bound)
            for (lam, _, vol, bound), r in zip(rows, results, strict=True)]
    return SharpnessWitness(ws, delta, sum(ws), tuple(rows), halvings, chain_ok)


def sharpness_test(p: PhasePolynomial, n: NewtonPolyhedron, q: ExponentQuery,
                   w: Sequence[Fraction], delta, lambdas: Sequence[float], *,
                   chi: CutoffSpec = CutoffSpec(),
                   dual: DualPolyhedron | None = None) -> SharpnessWitness:
    """Realize the decay rate from below with boxes dual to the polyhedron.

    Indicator boxes |x_j| <= delta * lam^(-w_j) built from a dual vertex w
    keep |lam * phase| below 1e-10 once delta is small enough (the exponent
    of lam is 1 - <alpha, w> <= 0 termwise, so halving delta always wins).
    On such boxes the integrand is flat and the form measures plain volume:
    |value| must sit inside `SHARPNESS_BAND` times the L1 norm of f.  Pass `dual`
    when it is already built; it is computed from `n` otherwise.  The boxes
    (`sharpness_boxes`) are evaluated in one `lambda_sweep` call, one test
    function per frequency (`box_functions`), and the witness is built from
    their results (`sharpness_witness`); `verify` evaluates them beside its
    sweep.
    """
    if dual is None:
        dual = dual_polyhedron(n)
    boxes = sharpness_boxes(p, n, w, delta, lambdas, chi=chi, dual=dual)
    results = lambda_sweep(p, box_functions(boxes), chi, [lam for lam, *_ in boxes[3]])
    chain_ok, _ = check_dual_domination(n, q, dual)
    return sharpness_witness(boxes, results, chain_ok)


def check_dual_domination(n: NewtonPolyhedron, q: ExponentQuery,
                          dual: DualPolyhedron | None = None) -> tuple[bool, list]:
    """Exact check that nu/p' clears every dual vertex: <nu/p', w> >= 1.

    `dual` is the dual of `n` when the caller has already built it."""
    if dual is None:
        dual = dual_polyhedron(n)
    point = ray_scaling(n, q.dual_reciprocals)[1]
    table = [(w, dot(point, w)) for w in dual.vertices]
    return all(val >= 1 for _, val in table), table


# ---------------------------------------------------------------------------
# brute-force envelope summation

@dataclass(frozen=True)
class SummationRow:
    lam: float
    jmax: int
    total: float       # truncated sum plus analytic tail bound
    tail: float
    normalized: float  # total / (lam^(-1/nu) * log(lam)^m)


@dataclass(frozen=True)
class SummationReport:
    nu: Fraction
    log_power: int
    z: tuple[Fraction, ...]
    rows: tuple[SummationRow, ...]
    spread: float      # max/min of the normalized column
    bound_factor: float

    @property
    def passed(self) -> bool:
        return self.spread <= self.bound_factor

    def to_json_dict(self) -> dict:
        return {
            "schema": "summation/1",
            "nu": str(self.nu),
            "log_power": self.log_power,
            "z": [str(x) for x in self.z],
            "rows": [{"lam": r.lam, "jmax": r.jmax, "total": r.total,
                      "tail": r.tail, "normalized": r.normalized}
                     for r in self.rows],
            "spread": self.spread,
            "bound_factor": self.bound_factor,
            "verdict": "PASS" if self.passed else "FAIL",
        }


SUM_BOUND_FACTOR = 10.0  # the largest normalized spread `summation_oracle` passes
# box_envelope peaks at 32-40 bytes a box, 33-40 MiB for one frequency at the
# cap; 2^20 boxes admit every frequency up to 2^24 in d <= 3 with unit weights
MAX_SUM_BOXES = 2 ** 20


def _summation_jmax(z: Sequence, lam: float, margin: int) -> int:
    return math.ceil(math.log2(lam) / min(float(x) for x in z)) + margin


def summation_boxes(d: int, z: Sequence, lam: float, margin: int = 8) -> int:
    """Boxes `summation_oracle` visits at one frequency, (jmax + 1)^d."""
    return (_summation_jmax(z, lam, margin) + 1) ** d


def summation_oracle(n: NewtonPolyhedron, z: Sequence, lambdas: Sequence[float],
                     *, margin: int = 8) -> SummationReport:
    """Sum the dyadic box-sum envelope and normalize by the claim.

    Every `box_envelope` term is the volume factor 2^(-<z,j>) damped by the
    oscillation gain min(1, |lam 2^-t|^(-1/2)) at the dominant vertex scale
    t = min_alpha <alpha, j>.  The grid is truncated where the volume factor
    alone is negligible and the remainder is added as a geometric tail.
    """
    zz = tuple(Fraction(x) for x in z)
    if len(zz) != n.dimension or any(x <= 0 for x in zz):
        raise DecayError("z must be strictly positive of matching dimension")
    nu, _, face = ray_scaling(n, zz)
    if nu <= 2:
        raise DecayError(f"scaling exponent {nu} is not above 2; envelope not applicable")
    m = n.dimension - 1 - face.dim
    lams = [float(x) for x in lambdas]
    if any(l < 2 for l in lams):
        raise DecayError("envelope grid needs lam >= 2")
    boxes = sum(summation_boxes(n.dimension, zz, lam, margin) for lam in lams)
    if boxes > MAX_SUM_BOXES:
        raise DecayError(f"the envelope grid has {boxes} boxes, more than {MAX_SUM_BOXES}")

    zf = [float(x) for x in zz]
    rows = []
    for lam in lams:
        jmax = _summation_jmax(zz, lam, margin)
        # gain <= 1 outside the truncation, so the exact volume remainder
        # prod(geo) * (1 - prod(1 - 2^-z(J+1))) bounds the tail without the
        # corner double-counting a per-axis union bound would add; the
        # full-orthant volume series factors per axis, geo = 1 / (1 - 2^-z)
        tail = math.prod(1.0 / (1.0 - 2.0 ** -x) for x in zf) * (
            1.0 - math.prod(1.0 - 2.0 ** (-x * (jmax + 1)) for x in zf))
        total = math.fsum(next(box_envelope(n.vertices, zz, [lam], jmax))) + tail
        normalized = total / (lam ** (-1.0 / float(nu)) * math.log(lam) ** m)
        rows.append(SummationRow(lam, jmax, total, tail, normalized))
    values = [r.normalized for r in rows]
    spread = max(values) / min(values)
    return SummationReport(nu, m, zz, tuple(rows), spread, SUM_BOUND_FACTOR)

