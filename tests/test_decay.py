"""Decay-rate fits, sharpness boxes, and the box-sum scaling oracle."""
import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from oscdecay.decay import (
    DecayError,
    check_dual_domination,
    dual_lambda_grid,
    fit_decay,
    fit_samples,
    sharpness_test,
    summation_oracle,
)
from oscdecay.exponent import ExponentQuery, varchenko_exponent
from oscdecay.oscint import (
    CutoffSpec,
    OscResult,
    TestFunctionSpec,
    lambda_grid,
    lambda_sweep,
)
from oscdecay.phase import parse_phase, reduce_phase
from oscdecay.polytope import build_polyhedron
from oscdecay.ratlin import dot


def phase(text, d=2):
    return reduce_phase(parse_phase(text, d))


def synthetic(inv_nu, m, lams, noise=0.0):
    rng = np.random.default_rng(7)
    out = []
    for lam in lams:
        mag = lam ** -inv_nu * math.log(lam) ** m
        out.append(mag * (1 + noise * rng.standard_normal()))
    return out


LAMS = [2.0 ** e for e in np.linspace(3, 12, 12)]


class TestFitSamples:
    def test_exact_recovery_free_model(self):
        fit = fit_samples(LAMS, synthetic(0.5, 1, LAMS), 0.5, 1)
        assert fit.inv_nu_free == pytest.approx(0.5, abs=1e-10)
        assert fit.m_free == pytest.approx(1.0, abs=1e-9)
        assert fit.residual_free < 1e-10

    def test_exact_recovery_pinned_model(self):
        fit = fit_samples(LAMS, synthetic(0.25, 0, LAMS), 0.25, 0)
        assert fit.inv_nu_pinned == pytest.approx(0.25, abs=1e-10)
        assert fit.residual_pinned < 1e-10
        assert fit.passed and fit.inv_nu_gap < 1e-10

    def test_wrong_prediction_fails(self):
        fit = fit_samples(LAMS, synthetic(0.5, 0, LAMS), 0.25, 0)
        assert not fit.passed
        assert fit.inv_nu_gap == pytest.approx(0.25, abs=1e-6)

    def test_noise_tolerance(self):
        fit = fit_samples(LAMS, synthetic(0.5, 1, LAMS, noise=0.02), 0.5, 1)
        assert abs(fit.inv_nu_pinned - 0.5) < 0.05

    def test_properties_and_json(self):
        fit = fit_samples(LAMS, synthetic(0.5, 1, LAMS), 0.5, 1, excluded=3)
        d = fit.to_json_dict()
        assert d["schema"] == "decay-fit/1"
        assert d["verdict"] == "PASS"
        assert d["excluded"] == 3
        assert len(d["samples"]) == len(LAMS)

    def test_input_validation(self):
        good = synthetic(0.5, 0, LAMS)
        with pytest.raises(DecayError):
            fit_samples(LAMS[:5], good[:5], 0.5, 0)  # too few points
        with pytest.raises(DecayError):
            fit_samples([2 * 1.1 ** i for i in range(12)],
                        synthetic(0.5, 0, [2 * 1.1 ** i for i in range(12)]),
                        0.5, 0)  # not enough octaves
        with pytest.raises(DecayError):
            fit_samples([1.5] + LAMS[1:], good, 0.5, 0)
        with pytest.raises(DecayError):
            fit_samples(LAMS, [0.0] + good[1:], 0.5, 0)

    def test_degenerate_matrix(self):
        lams = [4.0] * 6 + [64.0] * 6  # two clusters cannot pin three columns
        with pytest.raises(DecayError, match="degenerate"):
            fit_samples(lams, synthetic(0.5, 1, lams), 0.5, 1)


class TestFitDecay:
    def test_excludes_flagged_and_small(self):
        lams = list(LAMS)
        mags = synthetic(0.5, 1, lams)
        results = [OscResult(l, complex(m), 1e-9, False, 10)
                   for l, m in zip(lams, mags)]
        results.append(OscResult(2 ** 13, complex(1e-3), 1e-9, True, 10))
        results.append(OscResult(1.5, complex(0.9), 1e-9, False, 10))
        predicted = varchenko_exponent(build_polyhedron(phase("x1^2*x2^2")))
        assert (predicted.nu, predicted.m) == (2, 1)
        fit = fit_decay(results, predicted)
        assert fit.excluded == 2
        assert len(fit.lams) == len(lams)
        assert fit.inv_nu_free == pytest.approx(0.5, abs=1e-9)

    def test_measured_product_phase(self):
        p = phase("x1*x2")
        sweep = lambda_sweep(p, TestFunctionSpec.ones(2),
                             CutoffSpec(positive_orthant=True),
                             lambda_grid())
        fit = fit_decay(sweep, varchenko_exponent(build_polyhedron(p)))
        assert fit.passed
        assert abs(fit.inv_nu_pinned - 1.0) <= 0.05


class TestSharpness:
    W10 = (Fraction(1), Fraction(0))

    def setup_method(self):
        self.p = phase("x1*x2")
        self.n = build_polyhedron(self.p)
        self.q = ExponentQuery.all_inf(2)

    def test_dual_grid(self):
        g = dual_lambda_grid(self.W10, count=6, start=6)
        assert [float(x) for x in g] == [64.0, 128.0, 256.0, 512.0, 1024.0, 2048.0]
        half = dual_lambda_grid((Fraction(1, 2), Fraction(1, 2)), count=3, start=4)
        assert [float(x) for x in half] == [16.0, 64.0, 256.0]  # step lcm = 2
        with pytest.raises(DecayError):
            dual_lambda_grid(self.W10, count=0)

    def test_witness_run_frozen(self):
        rep = sharpness_test(self.p, self.n, self.q, self.W10, Fraction(1, 4),
                             dual_lambda_grid(self.W10, count=6, start=6))
        assert rep.halvings == 15
        assert rep.delta == Fraction(1, 131072)
        assert rep.chain_ok and rep.passed
        assert len(rep.rows) == 6
        for row in rep.rows:
            assert row.ratio == pytest.approx(1.0, abs=1e-9)
            assert row.phase_bound <= 1e-10
        # the box volume scales as lam^(-1) along this ray
        assert rep.rows[0].f_norm1 == pytest.approx(
            32 * rep.rows[-1].f_norm1, rel=1e-12)
        d = rep.to_json_dict()
        assert d["schema"] == "sharpness/1" and d["verdict"] == "PASS"

    def test_both_dual_vertices_work(self):
        w = (Fraction(0), Fraction(1))
        rep = sharpness_test(self.p, self.n, self.q, w, Fraction(1, 4),
                             dual_lambda_grid(w, count=4, start=6))
        assert rep.passed

    def test_rejects_non_dual_vertex(self):
        with pytest.raises(DecayError, match="dual"):
            sharpness_test(self.p, self.n, self.q,
                           (Fraction(1, 3), Fraction(1, 3)), Fraction(1, 4),
                           (64.0,))

    def test_rejects_orthant_cutoff(self):
        with pytest.raises(DecayError, match="full cutoff"):
            sharpness_test(self.p, self.n, self.q, self.W10, Fraction(1, 4),
                           dual_lambda_grid(self.W10, count=2, start=6),
                           chi=CutoffSpec(positive_orthant=True))

    def test_rejects_non_power_of_two(self):
        with pytest.raises(DecayError):
            sharpness_test(self.p, self.n, self.q, self.W10, Fraction(1, 4),
                           (100.0,))

    def test_rejects_incompatible_grid(self):
        # fractional dual vertex needs exponents in 4 Z
        p = phase("x1^3*x2 + x1*x2^3")
        n = build_polyhedron(p)
        w = (Fraction(1, 4), Fraction(1, 4))
        with pytest.raises(DecayError, match="incompatible"):
            sharpness_test(p, n, ExponentQuery.all_inf(2), w, Fraction(1, 4),
                           (2.0 ** 5,))

    def test_rejects_delta_outside_plateau(self):
        with pytest.raises(DecayError, match="plateau"):
            sharpness_test(self.p, self.n, self.q, self.W10, Fraction(3, 4),
                           dual_lambda_grid(self.W10, count=2, start=6),
                           max_halvings=0)

    def test_dual_domination_table(self):
        ok, table = check_dual_domination(self.n, self.q)
        assert ok
        assert sorted(table) == [
            ((Fraction(0), Fraction(1)), Fraction(1)),
            ((Fraction(1), Fraction(0)), Fraction(1)),
        ]
        # the scaled query point sits on the boundary, so every pairing is
        # exactly one for this symmetric phase whatever the integrabilities
        ok4, table4 = check_dual_domination(self.n, ExponentQuery.of([4, 4]))
        assert ok4 and all(val == 1 for _, val in table4)
        # a lopsided phase pairs the off-axis vertex strictly above one
        n2 = build_polyhedron(phase("x1^3*x2 + x1*x2^3"))
        ok2, table2 = check_dual_domination(n2, ExponentQuery.of(["inf", 2]))
        assert ok2
        assert any(val > 1 for _, val in table2)


class TestSummationOracle:
    def setup_method(self):
        self.n = build_polyhedron(phase("x1^3*x2^3"))
        self.lams = [2.0 ** e for e in range(4, 25, 2)]

    def test_frozen_run(self):
        rep = summation_oracle(self.n, (Fraction(1), Fraction(1)), self.lams)
        assert rep.nu == 3 and rep.log_power == 1
        assert rep.spread == pytest.approx(1.365147, abs=1e-4)
        assert rep.passed
        assert rep.rows[5].normalized == pytest.approx(1.986327, abs=1e-4)
        d = rep.to_json_dict()
        assert d["schema"] == "summation/1" and d["verdict"] == "PASS"

    def test_tail_truncation_stability(self):
        a = summation_oracle(self.n, (Fraction(1), Fraction(1)), self.lams)
        b = summation_oracle(self.n, (Fraction(1), Fraction(1)), self.lams,
                             margin=16)
        worst = max(abs(x.total - y.total) / x.total
                    for x, y in zip(a.rows, b.rows))
        assert worst < 1e-9

    def test_refuses_small_scaling_exponent(self):
        n = build_polyhedron(phase("x1^3*x2 + x1*x2^3"))
        with pytest.raises(DecayError, match="not above 2"):
            summation_oracle(n, (Fraction(1), Fraction(1)), self.lams)

    def test_weight_rescaling_changes_exponent(self):
        n = build_polyhedron(phase("x1^3*x2 + x1*x2^3"))
        rep = summation_oracle(n, (Fraction(1, 2), Fraction(1, 2)), self.lams)
        assert rep.nu == 4 and rep.log_power == 0
        assert rep.spread == pytest.approx(1.744338, abs=1e-4)
        assert rep.passed

    def test_validation(self):
        z = (Fraction(1), Fraction(1))
        with pytest.raises(DecayError):
            summation_oracle(self.n, (Fraction(1),), self.lams)
        with pytest.raises(DecayError):
            summation_oracle(self.n, (Fraction(0), Fraction(1)), self.lams)
        with pytest.raises(DecayError):
            summation_oracle(self.n, z, [1.0, 4.0])
        with pytest.raises(DecayError, match="boxes"):
            # weights 1/10 at 2^110: jmax = 1100 + 8, and 1109^2 > 2^20 boxes
            summation_oracle(self.n, (Fraction(1, 10), Fraction(1, 10)), [2.0 ** 110])


def envelope_reference(n, z, lam, jmax):
    """Reference for one `summation_oracle` row total, box by box: every j in
    [0, jmax]^d adds 2^-<z, j> * min(1, sqrt(2^t / lam)), t = min over the
    vertices alpha of <alpha, j>, and the exact volume remainder closes the
    tail.  Float weights give float exponent sums; Fraction weights give the
    float of the exact sum."""
    log2lam = math.log2(lam)
    pieces = []
    for j in product(range(jmax + 1), repeat=len(z)):
        t = min(dot(v, j) for v in n.vertices)
        gain = 1.0 if t >= log2lam else math.sqrt(math.ldexp(1.0 / lam, t))
        pieces.append(2.0 ** -float(sum(zk * jk for zk, jk in zip(z, j))) * gain)
    zf = [float(x) for x in z]
    tail = math.prod(1.0 / (1.0 - 2.0 ** -x) for x in zf) * (
        1.0 - math.prod(1.0 - 2.0 ** (-x * (jmax + 1)) for x in zf))
    return math.fsum(pieces) + tail


class TestSummationReference:
    LAMS = [2.0 ** e for e in range(4, 17, 4)]

    @pytest.mark.parametrize("text, z, rel", [
        ("x1^3*x2^3", (Fraction(1), Fraction(1)), 0.0),
        ("x1^3*x2^3", (Fraction(1, 2), Fraction(1, 2)), 0.0),
        ("x1^3*x2^3*x3^3", (Fraction(1),) * 3, 0.0),
        # float weight sums round differently from the exact exponents
        ("x1^4*x2^3 + x1^2*x2^5", (Fraction(2, 3), Fraction(5, 7)), 1e-15),
    ])
    def test_totals_match_per_box_loop(self, text, z, rel):
        n = build_polyhedron(phase(text, len(z)))
        rep = summation_oracle(n, z, self.LAMS)
        for row in rep.rows:
            want = envelope_reference(n, [float(x) for x in z], row.lam, row.jmax)
            if rel == 0.0:
                assert row.total == want
            else:
                assert row.total == pytest.approx(want, rel=rel, abs=0.0)

    def test_wide_denominator_is_exact(self):
        # over the 21-digit common denominator the weight numerators exceed
        # int64, so the exponents are summed in Python ints
        den = 10 ** 20 + 7
        z = (Fraction(2 * den // 3 + 1, den), Fraction(1))
        assert min(2 * den // 3 + 1, den) > 2 ** 63
        n = build_polyhedron(phase("x1^3*x2^3"))
        rep = summation_oracle(n, z, self.LAMS)
        assert rep.nu == 3 / z[0]
        floats = [float(x) for x in z]
        inexact = 0
        for row in rep.rows:
            assert row.total == envelope_reference(n, z, row.lam, row.jmax)
            inexact += row.total != envelope_reference(n, floats, row.lam, row.jmax)
        assert inexact  # float weight sums would have moved some totals
