"""Quadrature of the oscillatory form: cutoff, factors, parity, certificates."""
import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import dblquad, quad

from oscdecay.exponent import ExponentQuery
from oscdecay.nondegen import DyadicBox
from oscdecay.oscint import (
    CutoffSpec,
    FactorSpec,
    OscError,
    QuadratureConfig,
    TestFunctionSpec,
    _axis_pieces,
    _axis_rule,
    _kernel,
    _panel_counts,
    bump,
    certificate_sum,
    evaluate_lambda,
    lambda_grid,
    lambda_sweep,
    single_box_bound,
    smooth_step,
)
from oscdecay.phase import PhasePolynomial, parse_phase, reduce_phase
from oscdecay.polytope import build_polyhedron


def phase(text, d=2):
    return reduce_phase(parse_phase(text, d))


CHI = CutoffSpec()
CHI_POS = CutoffSpec(positive_orthant=True)


def profile(t):
    return float(smooth_step((abs(t) / CHI.radius - CHI.inner) / (1 - CHI.inner)))


class TestBumpAndStep:
    def test_bump_endpoints(self):
        assert bump(0.0) == 1.0
        assert bump(1.0) == 0.0 and bump(-1.0) == 0.0
        assert bump(2.5) == 0.0
        assert 0 < bump(0.7) < 1

    def test_step_endpoints_exact(self):
        assert float(smooth_step(0.0)) == 1.0
        assert float(smooth_step(-3.0)) == 1.0
        assert float(smooth_step(1.0)) == 0.0
        assert float(smooth_step(7.0)) == 0.0

    def test_step_symmetry(self):
        # symmetric up to the fixed-rule quadrature error, not exactly
        for u in [0.1, 0.25, 0.5, 0.8]:
            assert float(smooth_step(u) + smooth_step(1 - u)) == pytest.approx(1.0, abs=1e-9)

    def test_step_monotone(self):
        u = np.linspace(0, 1, 101)
        v = smooth_step(u)
        assert np.all(np.diff(v) <= 0)


class TestCutoff:
    def test_validation(self):
        with pytest.raises(OscError):
            CutoffSpec(radius=0.0)
        with pytest.raises(OscError):
            CutoffSpec(inner=1.0)
        with pytest.raises(OscError):
            CutoffSpec(levels=0)

    def test_profile_plateau(self):
        assert float(CHI.profile(0.0)) == 1.0
        assert float(CHI.profile(0.5)) == 1.0
        assert float(CHI.profile(-0.49)) == 1.0
        assert float(CHI.profile(1.0)) == 0.0
        assert 0 < float(CHI.profile(0.75)) < 1


class TestFactors:
    def test_const(self):
        f = FactorSpec.const(2.5)
        assert np.all(f.values([0.1, -3.0]) == 2.5)
        assert f.norm(math.inf, 1.0) == 2.5
        assert f.norm(Fraction(2), 1.0) == pytest.approx(2.5 * math.sqrt(2.0))

    def test_box(self):
        f = FactorSpec.box(0.25, 0.75)
        assert list(f.values([0.1, 0.5, 0.9])) == [0.0, 1.0, 0.0]
        assert f.interval == (0.25, 0.75)
        assert f.norm(math.inf, 1.0) == 1.0
        assert f.norm(Fraction(2), 1.0) == pytest.approx(math.sqrt(0.5))
        assert FactorSpec.box(-5.0, 5.0).norm(Fraction(1), 1.0) == pytest.approx(2.0)
        with pytest.raises(OscError):
            FactorSpec.box(1.0, 1.0)

    def test_exponential(self):
        f = FactorSpec.exponential(3.0)
        v = f.values([0.5])
        assert abs(v[0] - np.exp(1.5j)) < 1e-15
        assert f.angular_rate == 3.0
        assert f.norm(math.inf, 1.0) == 1.0
        assert f.norm(Fraction(4), 1.0) == pytest.approx(2.0 ** 0.25)

    def test_sampled(self):
        f = FactorSpec.sampled([(0.0, 0.0), (1.0, 2.0)])
        assert abs(f.values([0.5])[0] - 1.0) < 1e-15
        assert abs(f.values([2.0])[0]) == 0.0  # zero outside the grid
        assert f.norm(math.inf, 1.0) == 2.0
        with pytest.raises(OscError):
            FactorSpec.sampled([(0.0, 1.0)])

    def test_sampled_norms_closed_form(self):
        # a constant table: the L^p norm over [0, 1/2] is (1/2)^(1/p)
        flat = FactorSpec.sampled([(0.0, 1.0), (0.5, 1.0)])
        assert flat.norm(Fraction(2), 1.0) == pytest.approx(math.sqrt(0.5), rel=1e-15)
        assert flat.norm(Fraction(4), 1.0) == pytest.approx(0.5 ** 0.25, rel=1e-15)
        # a nonnegative hat: the trapezoid sum is the exact area, 1 + 2
        hat = FactorSpec.sampled([(0.0, 0.0), (1.0, 2.0), (3.0, 0.0)])
        assert hat.norm(Fraction(1), 1.0) == pytest.approx(3.0, rel=1e-15)
        assert hat.norm(math.inf, 1.0) == 2.0

    def test_certified_sampled_factor(self):
        f = TestFunctionSpec.of(FactorSpec.sampled([(0.0, 1.0), (0.5, 1.0)]),
                                FactorSpec.sampled([(0.0, 1.0), (0.5, 1.0)]))
        q = ExponentQuery.of(["2", "2"])
        p = phase("x1*x2")
        r = evaluate_lambda(p, f, CHI_POS, 64.0, certify=True, query=q)
        expected = certificate_sum(p, build_polyhedron(p), q,
                                   (math.sqrt(0.5), math.sqrt(0.5)), 64.0)
        assert r.certificate == pytest.approx(expected, rel=1e-15)
        assert 0 < abs(r.value) <= r.certificate

    def test_spec_norms(self):
        f = TestFunctionSpec.of(FactorSpec.const(), FactorSpec.box(0.0, 0.5))
        q = ExponentQuery.of(["inf", 2])
        assert f.norms(q, 1.0) == (1.0, pytest.approx(math.sqrt(0.5)))


class TestEvaluateBasics:
    def test_zero_frequency_is_cutoff_mass(self):
        mass, _ = quad(profile, -1, 1, epsabs=1e-13, limit=200)
        r = evaluate_lambda(phase("x1*x2"), TestFunctionSpec.ones(2), CHI, 0.0)
        assert abs(r.value - mass ** 2) < 1e-10
        assert r.value.imag == 0.0

    def test_conjugation(self):
        p = phase("x1^2*x2^2 + x1^5*x2")
        f = TestFunctionSpec.ones(2)
        a = evaluate_lambda(p, f, CHI, 37.5)
        b = evaluate_lambda(p, f, CHI, -37.5)
        assert b.value == a.value.conjugate()

    def test_odd_symmetry_kills_imaginary_part(self):
        r = evaluate_lambda(phase("x1*x2"), TestFunctionSpec.ones(2), CHI, 41.0)
        assert abs(r.value.imag) <= max(r.error, 1e-12)

    def test_dimension_guards(self):
        with pytest.raises(OscError):
            evaluate_lambda(phase("x1*x2*x3*x4", 4), TestFunctionSpec.ones(4), CHI, 3.0)
        with pytest.raises(OscError):
            evaluate_lambda(phase("x1*x2"), TestFunctionSpec.ones(3), CHI, 3.0)

    def test_budget_flag(self):
        tight = QuadratureConfig(node_budget=2000)
        free = evaluate_lambda(phase("x1*x2"), TestFunctionSpec.ones(2),
                               CHI_POS, 512.0)
        r = evaluate_lambda(phase("x1*x2"), TestFunctionSpec.ones(2), CHI_POS,
                            512.0, quad=tight)
        assert not free.low_confidence
        assert r.low_confidence
        assert r.nodes < free.nodes
        assert math.isfinite(abs(r.value))

    def test_axis_rules_shared_across_cells(self, monkeypatch):
        # 2197 cells with 3 axes each at two Gauss orders would build 13182
        # per-axis rules; only a few dozen (axis, piece, panel count) differ
        calls = []
        original = CutoffSpec.profile

        def counting(self, t):
            calls.append(t)
            return original(self, t)

        monkeypatch.setattr(CutoffSpec, "profile", counting)
        evaluate_lambda(phase("x1*x2*x3", 3), TestFunctionSpec.ones(3),
                        CHI_POS, 16.0)
        assert 0 < len(calls) < 150

    def test_axis_permutation_with_distinct_factors(self):
        # every axis has its own factor and clipping, so a rule cached
        # without its axis would hand one axis's weights to another
        factors = (FactorSpec.box(0.1, 0.7), FactorSpec.exponential(3.0),
                   FactorSpec.const(2.0))
        text = "x1^2*x2*x3 + x1*x3^2"
        a = evaluate_lambda(phase(text, 3), TestFunctionSpec.of(*factors),
                            CHI_POS, 12.0)
        # y1 = x3, y2 = x1, y3 = x2
        permuted = text.replace("x1", "y2").replace("x2", "y3").replace(
            "x3", "y1").replace("y", "x")
        b = evaluate_lambda(phase(permuted, 3),
                            TestFunctionSpec.of(factors[2], factors[0], factors[1]),
                            CHI_POS, 12.0)
        assert b.nodes == a.nodes
        assert abs(b.value - a.value) <= 1e-10 * abs(a.value)

    def test_box_report(self):
        r = evaluate_lambda(phase("x1*x2"), TestFunctionSpec.ones(2), CHI_POS,
                            8.0, keep_boxes=True)
        assert r.boxes is not None
        assert abs(sum(b.value for b in r.boxes) - r.value) < 1e-14
        assert sum(b.nodes for b in r.boxes) == r.nodes
        signs = {s for b in r.boxes for s, _ in b.index}
        assert signs == {1}


def reference_boxes(p, f, chi, lam, quad=QuadratureConfig()):
    """Per-cell values with one full np.exp tensor per cell, in cell order."""
    d = p.dimension
    gx, gw = np.polynomial.legendre.leggauss(quad.order)
    pieces = [_axis_pieces(chi, fac) for fac in f.factors]
    grads = [p.derivative(k).absolute() for k in range(d)]
    rates = [fac.angular_rate for fac in f.factors]
    counts = _panel_counts(lam, pieces, grads, rates, quad)
    values = []
    for cell, cnt in zip(product(*pieces), counts):
        rules = [_axis_rule(lo, hi, c, gx, gw, chi, fac)
                 for (_, _, lo, hi), c, fac in zip(cell, cnt, f.factors)]
        grid = np.meshgrid(*[x for x, _ in rules], indexing="ij")
        weight = rules[0][1]
        for _, g in rules[1:]:
            weight = np.multiply.outer(weight, g)
        values.append(np.sum(np.exp(1j * lam * p.evaluate(grid)) * weight))
    return values


class TestKernel:
    def test_half_angle_phasor(self):
        # one node per cell on x1*x2 with x2 = 1 and unit weights: each cell
        # value is the kernel's exp(i theta) itself
        odd_pi = np.pi * np.array([1.0, 3.0, 101.0, 12345.0, 318309.0])
        theta = np.concatenate([
            [0.0, -0.0], odd_pi, -odd_pi,
            np.linspace(-1e6, 1e6, 20001),
            np.random.default_rng(5).uniform(-50.0, 50.0, 20000)])
        ones = np.ones((theta.size, 1))
        z = _kernel(phase("x1*x2"), 1.0, [theta[:, None], ones],
                    [ones.astype(complex), ones.astype(complex)])
        assert np.max(np.abs(z - np.exp(1j * theta))) <= 4.5e-16

    @pytest.mark.parametrize("text, factors, lam", [
        ("x1^2*x2 + x1*x2^3",
         (FactorSpec.box(0.1, 0.7), FactorSpec.exponential(3.0)), 40.0),
        ("x1^2*x2*x3 + x1*x3^2",
         (FactorSpec.box(0.1, 0.7), FactorSpec.exponential(3.0),
          FactorSpec.const(2.0 - 1j)), 12.0),
    ], ids=["2d", "3d"])
    def test_boxes_match_per_cell_exp(self, text, factors, lam):
        p = phase(text, len(factors))
        f = TestFunctionSpec.of(*factors)
        r = evaluate_lambda(p, f, CHI_POS, lam, keep_boxes=True)
        ref = reference_boxes(p, f, CHI_POS, lam)
        assert len(r.boxes) == len(ref)
        for box, want in zip(r.boxes, ref):
            assert abs(box.value - want) <= 1e-13 * abs(want)

    def test_tiny_chunk_batches_and_slices(self, monkeypatch):
        calls = []
        real = _kernel

        def spy(p, lam, axes, weights):
            calls.append((axes[0].shape[0], tuple(x.shape[1] for x in axes)))
            return real(p, lam, axes, weights)

        monkeypatch.setattr("oscdecay.oscint._kernel", spy)
        p = phase("x1*x2*x3", 3)
        f = TestFunctionSpec.ones(3)
        a = evaluate_lambda(p, f, CHI_POS, 16.0)
        wide = len(calls)
        calls.clear()
        b = evaluate_lambda(p, f, CHI_POS, 16.0, quad=QuadratureConfig(chunk=5000))
        assert len(calls) > wide
        # no call exceeds the chunk, yet some hold several cells
        assert all(batch * math.prod(shape) <= 5000 for batch, shape in calls)
        assert any(batch > 1 for batch, _ in calls)
        # a whole axis has a multiple of 6 nodes (orders 12 and 6), so this
        # is a cell above the chunk cut along axis 0
        assert any(shape[0] % 6 for _, shape in calls)
        assert b.nodes == a.nodes
        assert abs(b.value - a.value) <= 1e-13 * abs(a.value)

    def test_phase_evaluated_per_batch(self, monkeypatch):
        # per cell, this took about 6,600 evaluations: panel-count bounds and
        # phase tensors for 2197 cells at two Gauss orders
        calls = []
        original = PhasePolynomial.evaluate

        def counting(self, x):
            calls.append(1)
            return original(self, x)

        monkeypatch.setattr(PhasePolynomial, "evaluate", counting)
        evaluate_lambda(phase("x1*x2*x3", 3), TestFunctionSpec.ones(3),
                        CHI_POS, 16.0)
        assert 0 < len(calls) <= 36

    def test_panel_counts_match_scalar_bounds(self):
        # awkward clips, a radius off the powers of two and high powers: the
        # grid evaluation must round exactly like one corner at a time
        chi = CutoffSpec(radius=0.7, positive_orthant=False, levels=5)
        f = TestFunctionSpec.of(FactorSpec.box(-0.33, 0.61),
                                FactorSpec.exponential(2.7),
                                FactorSpec.box(-0.45, 0.123))
        p = phase("3*x1^7*x2 + 1/3*x1*x2^5*x3^3 + x2^2*x3^9", 3)
        quad_cfg = QuadratureConfig(waves_per_panel=0.37)
        pieces = [_axis_pieces(chi, fac) for fac in f.factors]
        grads = [p.derivative(k).absolute() for k in range(3)]
        rates = [fac.angular_rate for fac in f.factors]
        for lam in [3.0, 77.7, 1234.5]:
            want = []
            for cell in product(*pieces):
                mags = [max(abs(lo), abs(hi)) for _, _, lo, hi in cell]
                row = []
                for k, (_, _, lo, hi) in enumerate(cell):
                    turns = ((abs(lam) * grads[k].evaluate(mags) + rates[k])
                             * (hi - lo) / (2.0 * math.pi))
                    row.append(1 + int(turns / quad_cfg.waves_per_panel))
                want.append(tuple(row))
            assert _panel_counts(lam, pieces, grads, rates, quad_cfg) == want


class TestOracleParity:
    def test_product_phase_against_reduction(self):
        # integrate the inner variable with scipy's oscillatory weights, the
        # outer adaptively; this path shares nothing with the cell quadrature
        p = phase("x1*x2")
        f = TestFunctionSpec.ones(2)
        for lam in [13.7, 64.0, 256.0]:
            r = evaluate_lambda(p, f, CHI_POS, lam)

            def inner(x, kind):
                v, _ = quad(profile, 0, 1, weight=kind, wvar=lam * x,
                            epsabs=1e-13, limit=400)
                return v

            re, _ = quad(lambda x: profile(x) * inner(x, "cos"), 0, 1,
                         epsabs=1e-12, limit=20000)
            im, _ = quad(lambda x: profile(x) * inner(x, "sin"), 0, 1,
                         epsabs=1e-12, limit=20000)
            assert abs(r.value - complex(re, im)) < max(5e-7, 3 * r.error)

    def test_box_factors_against_dblquad(self):
        r = evaluate_lambda(phase("x1*x2"),
                            TestFunctionSpec.boxes([(0.05, 0.4), (0.1, 0.3)]),
                            CHI_POS, 60.0)
        re = dblquad(lambda y, x: math.cos(60 * x * y), 0.05, 0.4, 0.1, 0.3,
                     epsabs=1e-12)[0]
        im = dblquad(lambda y, x: math.sin(60 * x * y), 0.05, 0.4, 0.1, 0.3,
                     epsabs=1e-12)[0]
        assert abs(r.value - complex(re, im)) < 1e-10

    def test_exponential_factors_against_dblquad(self):
        r = evaluate_lambda(phase("x1*x2"),
                            TestFunctionSpec.exponentials([80.0, -33.0]),
                            CHI_POS, 40.0)

        def g(y, x):
            return profile(x) * profile(y)

        re = dblquad(lambda y, x: g(y, x) * math.cos(80 * x - 33 * y + 40 * x * y),
                     0, 1, 0, 1, epsabs=1e-12)[0]
        im = dblquad(lambda y, x: g(y, x) * math.sin(80 * x - 33 * y + 40 * x * y),
                     0, 1, 0, 1, epsabs=1e-12)[0]
        assert abs(r.value - complex(re, im)) < 1e-8

    def test_three_dim_against_reduction(self):
        # phi = x2 (x1 + x3): transform the middle axis once on a dense
        # frequency grid, then integrate the smooth remainder adaptively
        p = phase("x1*x2 + x2*x3", 3)
        chi = CutoffSpec(positive_orthant=True, levels=6)
        lam = 6.0
        r = evaluate_lambda(p, TestFunctionSpec.ones(3), chi, lam)

        gx, gw = np.polynomial.legendre.leggauss(12)
        panels = 200
        edges = np.linspace(0.0, 1.0, panels + 1)
        mid, half = (edges[:-1] + edges[1:]) / 2, (edges[1] - edges[0]) / 2
        nodes = (mid[:, None] + half * gx[None, :]).ravel()
        wgts = np.tile(half * gw, panels)
        pv = smooth_step((np.abs(nodes) - 0.5) / 0.5) * wgts
        om = np.linspace(0.0, 2.2 * lam, 20001)
        wtab = np.exp(1j * om[:, None] * nodes[None, :]) @ pv

        def w_interp(omega):
            return complex(np.interp(omega, om, wtab.real),
                           np.interp(omega, om, wtab.imag))

        re = dblquad(lambda z, x: profile(x) * profile(z)
                     * w_interp(lam * (x + z)).real, 0, 1, 0, 1, epsabs=1e-10)[0]
        im = dblquad(lambda z, x: profile(x) * profile(z)
                     * w_interp(lam * (x + z)).imag, 0, 1, 0, 1, epsabs=1e-10)[0]
        assert abs(r.value - complex(re, im)) < 1e-6


class TestLinearity:
    def test_scalar_scaling_is_exact(self):
        p = phase("x1*x2")
        base = TestFunctionSpec.of(FactorSpec.box(0.1, 0.6), FactorSpec.const())
        scaled = TestFunctionSpec.of(FactorSpec.box(0.1, 0.6, scale=-2.5 + 1j),
                                     FactorSpec.const())
        a = evaluate_lambda(p, base, CHI_POS, 50.0)
        b = evaluate_lambda(p, scaled, CHI_POS, 50.0)
        assert abs(b.value - (-2.5 + 1j) * a.value) <= 1e-15 * abs(b.value)

    @given(st.tuples(st.floats(0.05, 0.3), st.floats(0.35, 0.6),
                     st.floats(0.65, 0.9)))
    @settings(max_examples=10, deadline=None)
    def test_adjacent_boxes_add(self, cuts):
        a, b, c = cuts
        p = phase("x1*x2")
        lam = 30.0

        def val(lo, hi):
            f = TestFunctionSpec.of(FactorSpec.box(lo, hi), FactorSpec.const())
            return evaluate_lambda(p, f, CHI_POS, lam)

        left, right, whole = val(a, b), val(b, c), val(a, c)
        err = left.error + right.error + whole.error
        gap = abs(left.value + right.value - whole.value)
        assert gap <= max(1e-8 * abs(whole.value), 5 * err + 1e-12)


class TestRefinement:
    def test_doubling_stays_within_error(self):
        p = phase("x1*x2")
        f = TestFunctionSpec.ones(2)
        fine = QuadratureConfig(waves_per_panel=0.5)
        bad = 0
        grid = lambda_grid(64, 1024, 9)
        for lam in grid:
            r = evaluate_lambda(p, f, CHI_POS, lam)
            r2 = evaluate_lambda(p, f, CHI_POS, lam, quad=fine)
            if abs(r2.value - r.value) > max(r.error, 1e-15):
                bad += 1
        assert bad <= math.ceil(0.05 * len(grid))


class TestSingleBoxBound:
    def test_plug_in_example(self):
        p = phase("x1*x2")
        n = build_polyhedron(p)
        q = ExponentQuery.of([2, 2])
        for k in [2, 3, 5]:
            for lam in [10.0, 1e6, 0.5]:
                got = single_box_bound(p, n, DyadicBox((k, k)), q, (1.0, 1.0), lam)
                want = min(lam ** -0.5, 2.0 ** -k)
                assert got == pytest.approx(want, rel=1e-12)

    def test_small_lambda_volume_branch(self):
        p = phase("x1^2*x2^2 + x1^5*x2")
        n = build_polyhedron(p)
        q = ExponentQuery.all_inf(2)
        # |lam eps^alpha| <= 1 for every vertex: bound is the volume factor
        got = single_box_bound(p, n, DyadicBox((1, 1)), q, (1.0, 1.0), 3.0)
        assert got == 2.0 ** -2
        assert single_box_bound(p, n, DyadicBox((1, 1)), q, (1.0, 1.0), 0.0) == 0.25

    def test_norms_scale_linearly(self):
        p = phase("x1*x2")
        n = build_polyhedron(p)
        q = ExponentQuery.all_inf(2)
        one = single_box_bound(p, n, DyadicBox((2, 3)), q, (1.0, 1.0), 9.0)
        two = single_box_bound(p, n, DyadicBox((2, 3)), q, (2.0, 3.0), 9.0)
        assert two == pytest.approx(6 * one, rel=1e-12)

    def test_certificate_dominates_measured(self):
        p = phase("x1*x2")
        f = TestFunctionSpec.ones(2)
        for lam in lambda_grid(64, 1024, 5):
            r = evaluate_lambda(p, f, CHI, lam, certify=True)
            assert r.certificate is not None
            assert abs(r.value) <= r.certificate

    def test_certificate_scales_with_constant(self):
        p = phase("x1*x2")
        n = build_polyhedron(p)
        q = ExponentQuery.all_inf(2)
        a = certificate_sum(p, n, q, (1.0, 1.0), 100.0, constant=1.0)
        b = certificate_sum(p, n, q, (1.0, 1.0), 100.0, constant=3.0, multiplicity=2)
        assert b == pytest.approx(6 * a, rel=1e-12)

    @pytest.mark.parametrize("text, d, p", [
        ("x1^2*x2^2 + x1^5*x2", 2, (2, 3)),
        ("x1^2*x2^2*x3^2 + x1^3*x2*x3", 3, (4, "inf", 3)),
    ])
    def test_certificate_is_sum_of_box_bounds(self, text, d, p):
        ph = phase(text, d)
        n = build_polyhedron(ph)
        q = ExponentQuery.of(p)
        norms = tuple(1.0 + 0.25 * k for k in range(d))
        levels, multiplicity, constant, lam = 12, 2 ** d, 2.0, 77.0
        total = 0.0
        for j in product(range(levels + 1), repeat=d):
            total += single_box_bound(ph, n, DyadicBox(j), q, norms, lam,
                                      constant=1.0)
        got = certificate_sum(ph, n, q, norms, lam, levels=levels,
                              multiplicity=multiplicity, constant=constant)
        assert got == constant * multiplicity * total


class TestSweep:
    def test_grid_helper(self):
        g = lambda_grid(64, 4096, 13)
        assert len(g) == 13 and g[0] == 64 and g[-1] == pytest.approx(4096)
        assert all(b > a for a, b in zip(g, g[1:]))
        with pytest.raises(OscError):
            lambda_grid(1.0, 10.0, 5)

    def test_sweep_decreases_for_product_phase(self):
        p = phase("x1*x2")
        results = lambda_sweep(p, TestFunctionSpec.ones(2), CHI_POS,
                               lambda_grid(64, 1024, 9))
        mags = [abs(r.value) for r in results]
        assert len(results) == 9
        assert all(b < a for a, b in zip(mags, mags[1:]))
        assert [r.lam for r in results] == sorted(r.lam for r in results)

    def test_sweep_validation(self):
        p = phase("x1*x2")
        f = TestFunctionSpec.ones(2)
        assert lambda_sweep(p, f, CHI_POS, []) == ()
        with pytest.raises(OscError):
            lambda_sweep(p, f, CHI_POS, [4.0, 3.0])
        with pytest.raises(OscError):
            lambda_sweep(p, f, CHI_POS, [1.0, 3.0])
