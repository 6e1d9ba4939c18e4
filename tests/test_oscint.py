"""Quadrature of the oscillatory form: cutoff, factors, parity, certificates."""
import math
import random
import sys
import threading
import tracemalloc
import warnings
from fractions import Fraction
from itertools import permutations, product
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import dblquad, quad

from oscdecay import oscint
from oscdecay.decay import dual_lambda_grid, sharpness_test
from oscdecay.exponent import ExponentQuery
from oscdecay.oscint import (
    CutoffSpec,
    FactorSpec,
    OscError,
    QuadratureConfig,
    TestFunctionSpec,
    _axis_pieces,
    _depths,
    _evaluate,
    _kernel,
    _merge_reach,
    _panel_counts,
    _plan,
    _rows,
    _rule_table,
    _sizing,
    _step_table,
    bump,
    certificate_sum,
    certify_results,
    evaluate_lambda,
    lambda_grid,
    lambda_sweep,
    smooth_step,
)
from oscdecay.phase import PhasePolynomial, parse_phase, reduce_phase
from oscdecay.polytope import build_polyhedron
from oscdecay.ratlin import dot

import oracle_fine_rule
import oracle_mellin


def phase(text, d=2):
    return reduce_phase(parse_phase(text, d))


CHI = CutoffSpec()
CHI_POS = CutoffSpec(positive_orthant=True)


def profile(t):
    return float(smooth_step((abs(t) - 0.5) / 0.5))


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

    @staticmethod
    def unmasked_step(u):
        # the formula without the mask: numpy's Chebyshev series of each
        # node's panel, on every node, u below 1/2 mirrored, and np.where
        # discards the plateau and outside results
        u = np.asarray(u, dtype=float)
        uc = np.clip(u, 0.0, 1.0)
        w = np.where(uc < 0.5, 1.0 - uc, uc)
        table = _step_table()
        panels = table.shape[1]
        x = (w - 0.5) * (2 * panels)
        j = np.minimum(x.astype(int), panels - 1)
        s = np.array([np.polynomial.chebyshev.chebval(t, table[:, k])
                      for t, k in zip(2.0 * (x - j) - 1.0, j)])
        s = np.clip(np.where(uc < 0.5, 1.0 - s, s), 0.0, 1.0)
        return np.where(u <= 0.0, 1.0, np.where(u >= 1.0, 0.0, s))

    def test_masked_step_matches_unmasked_formula(self):
        special = np.array([-np.inf, -1.0, -0.0, 0.0, 5e-324, 0.3, 0.5,
                            1.0 - 2.0 ** -53, 1.0, 2.0, np.inf])
        rng = np.random.default_rng(6)
        for u in (special, rng.uniform(-0.5, 1.5, 2_000)):
            got = smooth_step(u)
            m = (u > 0) & (u < 1)
            # plateau and outside nodes: exactly 1.0 and 0.0, bit for bit
            assert got[~m].tobytes() == self.unmasked_step(u)[~m].tobytes()
            # transition nodes: the table's series, within 4 ulp of 1
            assert np.abs(got - self.unmasked_step(u)).max() <= 4 * np.finfo(float).eps
            assert ((got >= 0.0) & (got <= 1.0)).all()
        assert np.isnan(smooth_step(np.nan))
        assert np.isnan(smooth_step(np.array([0.3, np.nan, 2.0]))).tolist() == [
            False, True, False]

    def test_batch_equals_single_calls(self):
        # a node's weight does not depend on the other nodes of the call
        u = np.random.default_rng(7).uniform(-0.2, 1.2, 1003)
        single = np.array([smooth_step(np.array([x]))[0] for x in u])
        assert smooth_step(u).tobytes() == single.tobytes()

    def test_nodes_next_to_the_ends_equal_single_calls(self):
        # nodes one ulp inside 0 and 1, where 1 - u rounds and the panel
        # index reaches the table's last panel: no warning, values in
        # [0, 1], and the same bits alone as in a batch
        inside = np.random.default_rng(8).uniform(0.0, 1.0, 1005)
        u = np.concatenate([inside, [np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0),
                                     np.nextafter(0.5, 0.0), 0.5], [-1.0, 0.0, 1.0, 2.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = smooth_step(u)
            single = np.array([smooth_step(np.array([x]))[0] for x in u])
        assert got.tobytes() == single.tobytes()
        assert got[-8] == 1.0 and 0.0 <= got[-7] <= 1e-20 and got[-6:-4].tolist() == [0.5, 0.5]
        t = np.linspace(-1.5, 1.5, 301)
        assert bump(t).tobytes() == np.array([bump(x) for x in t]).tobytes()

    def test_step_deviation_is_rounding(self):
        # against the bump's integral by 48-point Gauss on 256 panels (the
        # reference of test_step_error_against_a_composite_rule): at most
        # 1e-14 over (0, 1), and flat to rounding next to the plateau,
        # where the 48-point rule left 6.5e-11 at u = 0.001
        gx, gw = np.polynomial.legendre.leggauss(48)

        def tail(u, panels=256):
            u = np.asarray(u, dtype=float)[:, None, None]
            h = (1.0 - u) / panels
            v = u + h * np.arange(panels)[:, None] + 0.5 * h * (gx + 1.0)
            return (bump(2.0 * v - 1.0) * (0.5 * h * gw)).sum(axis=(1, 2))

        u = np.concatenate([np.random.default_rng(9).uniform(0.0, 1.0, 2000),
                            np.linspace(0.0, 1.0, 129)[1:-1], [0.171, 1e-9, 1.0 - 1e-9]])
        want = np.concatenate([tail(u[i:i + 50]) for i in range(0, len(u), 50)]) / tail([0.0])[0]
        assert np.abs(smooth_step(u) - want).max() <= 1e-14
        assert 1.0 - float(smooth_step(0.001)) <= 1e-15
        assert float(smooth_step(0.999)) <= 1e-15

    def test_step_error_against_a_composite_rule(self):
        # the fixed 48-point rule against the bump's integral by 48-point
        # Gauss on 256 panels (which agrees with 128 panels to 5e-16): the
        # worst deviation, 3.04e-10, is near u = 0.171.  Next to the plateau
        # the rule leaves 6.5e-11 of mass where the integral has below
        # 1e-16, so the profile is not flat to all orders there
        gx, gw = np.polynomial.legendre.leggauss(48)

        def tail(u, panels=256):
            # the integral of the bump's profile from each u to 1
            u = np.asarray(u, dtype=float)[:, None, None]
            h = (1.0 - u) / panels
            v = u + h * np.arange(panels)[:, None] + 0.5 * h * (gx + 1.0)
            return (bump(2.0 * v - 1.0) * (0.5 * h * gw)).sum(axis=(1, 2))

        u = np.concatenate([np.linspace(0.0, 1.0, 1001)[1:-1], [0.171, 0.5, 0.001]])
        want = np.concatenate([tail(u[i:i + 50]) for i in range(0, len(u), 50)]) / tail([0.0])[0]
        dev = np.abs(smooth_step(u) - want)
        assert dev.max() <= 3.1e-10
        assert 1.0 - want[-1] < 1e-16

    @pytest.mark.parametrize("t", [
        [1.0, -1.0],
        # all inside: exp's argument reaches -4.5e15
        [1 - 1e-9, -1 + 1e-9, np.nextafter(1.0, 0.0), -np.nextafter(1.0, 0.0), 0.0, -0.0],
        [1 - 1e-9, 1.0, -1 + 1e-9, -1.0, 1 + 1e-9, -1 - 1e-9, 2.5, -7.0],
        [np.inf, -np.inf, np.nan, 0.5, -0.75],
        0.25, 1 - 1e-9, 1.0, -3.0, np.inf, np.nan,
    ])
    def test_bump_edge_values_match_the_masked_formula(self, t):
        t = np.asarray(t, dtype=float)
        m = np.abs(t) < 1
        tm = t[m]
        want = np.zeros_like(t)
        want[m] = np.exp(1.0 - 1.0 / (1.0 - tm * tm))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = bump(t)
        assert got.shape == t.shape
        assert got.tobytes() == want.tobytes()

    def test_step_reads_the_table_without_the_bump(self, monkeypatch):
        # the table is built once: no node of a later call evaluates the
        # bump, and a plateau-only piece of the cutoff is exactly 1
        _step_table()
        sizes = []
        real = bump

        def spy(t):
            sizes.append(np.size(t))
            return real(t)

        monkeypatch.setattr("oscdecay.oscint.bump", spy)
        smooth_step(np.array([-np.inf, -2.0, -0.0, 0.0, 0.25, 0.5, 0.75, 1.0, 3.0, np.inf]))
        assert CHI.profile(np.linspace(-0.5, 0.5, 97)).tolist() == [1.0] * 97
        assert sizes == []


class TestCutoff:
    def test_validation(self):
        with pytest.raises(OscError):
            CutoffSpec(levels=0)

    def test_profile_plateau(self):
        assert float(CHI.profile(0.0)) == 1.0
        assert float(CHI.profile(0.5)) == 1.0
        assert float(CHI.profile(-0.49)) == 1.0
        assert float(CHI.profile(1.0)) == 0.0
        assert 0 < float(CHI.profile(0.75)) < 1


class TestQuadratureConfig:
    @pytest.mark.parametrize("field, value", [
        ("order", 1), ("order", math.nan), ("waves_per_panel", 0.0),
        ("waves_per_panel", math.nan), ("waves_per_panel", math.inf),
        ("node_budget", 0), ("node_budget", math.nan), ("node_budget", math.inf)])
    def test_bad_value_is_refused(self, field, value):
        # a NaN or infinite budget must not switch the budget off without a
        # word
        with pytest.raises(OscError, match="bad quadrature configuration"):
            QuadratureConfig(**{field: value})

    @pytest.mark.parametrize("order, waves, why", [
        (16, 6.0, "target exceeds the default rule's"),
        (12, 1.0, "no row for order 12"),
        (40, 4.0, "no row for order 40"),
    ], ids=["coarser", "order-12", "order-40"])
    def test_uncalibrated_rule_is_refused(self, order, waves, why):
        # a whole transition axis's error is read from the default rule's
        # calibrated table: a rule whose panels carry more turns than it
        # checked, or whose axes off the plateau may take an order without
        # a row, would have no honest error estimate there
        with pytest.raises(OscError, match=rf"^rule \({order}, {waves}\): .*{why}"):
            QuadratureConfig(order=order, waves_per_panel=waves)

    @pytest.mark.parametrize("order, waves", [(16, 4.0), (16, 0.37), (16, 0.5), (16, 2.0),
                                              (24, 4.0), (32, 4.0)])
    def test_rules_the_table_vouches_for_are_accepted(self, order, waves):
        quad_cfg = QuadratureConfig(order=order, waves_per_panel=waves)
        assert (quad_cfg.order, quad_cfg.waves_per_panel) == (order, waves)


class TestFactors:
    def test_const(self):
        f = FactorSpec()
        assert f.norm(math.inf) == 1.0
        assert f.norm(Fraction(2)) == pytest.approx(math.sqrt(2.0))

    def test_box(self):
        f = FactorSpec.box(0.25, 0.75)
        assert (f.a, f.b) == (0.25, 0.75)
        assert f.norm(math.inf) == 1.0
        assert f.norm(Fraction(2)) == pytest.approx(math.sqrt(0.5))
        assert FactorSpec.box(-5.0, 5.0).norm(Fraction(1)) == pytest.approx(2.0)
        with pytest.raises(OscError):
            FactorSpec.box(1.0, 1.0)

    def test_box_outside_the_support_has_norm_zero(self):
        # the integrand is 0 there, so every norm bounding it is 0
        for p in (math.inf, Fraction(1), Fraction(2)):
            assert FactorSpec.box(2.0, 3.0).norm(p) == 0

    def test_certified_box_factor(self):
        f = TestFunctionSpec.of(FactorSpec.box(0.0, 0.5), FactorSpec.box(0.0, 0.5))
        q = ExponentQuery.of(["2", "2"])
        p = phase("x1*x2")
        r = evaluate_lambda(p, f, CHI_POS, 64.0, certify=True, query=q)
        expected, = certificate_sum(p, build_polyhedron(p), q,
                                    (math.sqrt(0.5), math.sqrt(0.5)), [64.0])
        assert r.certificate == pytest.approx(expected, rel=1e-15)
        assert 0 < abs(r.value) <= r.certificate

    def test_spec_norms(self):
        f = TestFunctionSpec.of(FactorSpec(), FactorSpec.box(0.0, 0.5))
        q = ExponentQuery.of(["inf", 2])
        assert f.norms(q) == (1.0, pytest.approx(math.sqrt(0.5)))


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
        # a rule above the budget is refused: no value, no error, and its
        # planned node count, the free rule's, as its nodes
        tight = QuadratureConfig(node_budget=2000)
        free = evaluate_lambda(phase("x1*x2"), TestFunctionSpec.ones(2),
                               CHI_POS, 512.0)
        r = evaluate_lambda(phase("x1*x2"), TestFunctionSpec.ones(2), CHI_POS,
                            512.0, quad=tight)
        assert not free.low_confidence
        assert r.low_confidence
        assert (r.value, r.error, r.nodes) == (None, None, free.nodes)
        assert type(r.nodes) is int

    # the free rule, on merged pieces near 0, takes 35,296 nodes
    @pytest.mark.parametrize("budget", [4096, 5000, 20_000, 30_000, 35_000])
    def test_budget_is_a_bound(self, budget, monkeypatch):
        # below the free count no node reaches the kernel; at it, the row
        # is evaluated as without a budget
        p, f = phase("x1*x2"), TestFunctionSpec.ones(2)
        free = evaluate_lambda(p, f, CHI_POS, 512.0)
        calls = kernel_calls(monkeypatch)
        r = evaluate_lambda(p, f, CHI_POS, 512.0, quad=QuadratureConfig(node_budget=budget))
        assert free.nodes > budget and r.low_confidence and r.value is None
        assert calls == []
        at = evaluate_lambda(p, f, CHI_POS, 512.0, quad=QuadratureConfig(node_budget=free.nodes))
        assert fields(at) == fields(free)

    def test_only_rows_in_budget_reach_the_kernel(self, monkeypatch):
        # lam 64 fits 10,000 nodes and 256 and 512 do not: the kernel sees
        # the cells of lam 64 and their rerun, as alone, and nothing else.
        # Every cell evaluated, that is at least the reported nodes; one
        # cell per orbit of the axis swap, fewer
        p, f = phase("x1*x2"), TestFunctionSpec.ones(2)
        quad_cfg = QuadratureConfig(node_budget=10_000)
        calls = kernel_calls(monkeypatch)
        for grouped in (False, True):
            with monkeypatch.context() as m:
                if not grouped:
                    ungrouped(m)
                calls.clear()
                lone = evaluate_lambda(p, f, CHI_POS, 64.0, quad=quad_cfg)
                lone_nodes = sum(b * math.prod(sizes) for b, sizes in calls)
                calls.clear()
                sweep = lambda_sweep(p, f, CHI_POS, (64.0, 256.0, 512.0), quad=quad_cfg)
                assert sum(b * math.prod(sizes) for b, sizes in calls) == lone_nodes > 0
            if grouped:
                assert lone_nodes < lone.nodes
            else:
                assert lone_nodes >= lone.nodes > 0
            assert fields(sweep[0]) == fields(lone) and not lone.low_confidence
            for r in sweep[1:]:
                assert r.low_confidence and r.value is None and r.error is None
                assert r.nodes > 10_000

    def test_default_rule_reaches_lam_4096(self):
        # the top sample of a default verify sweep fits in the node budget
        r = evaluate_lambda(phase("x1^2*x2^2 + x1^5*x2"), TestFunctionSpec.ones(2),
                            CHI_POS, 4096.0)
        assert not r.low_confidence
        assert r.nodes <= QuadratureConfig().node_budget
        assert 0 < r.error <= 1e-4 * abs(r.value)

    def test_axis_rules_shared_across_cells(self, monkeypatch):
        # at lam 256, cut to depth 6, the 343 cells with 3 axes each at two
        # Gauss orders would build 2058 per-axis rules, 147 per order on the
        # transition piece, where the profile is evaluated; only a few
        # (interval, panels, order) differ, and axes share them
        calls = []
        original = CutoffSpec.profile

        def counting(t):
            calls.append(t)
            return original(t)

        monkeypatch.setattr(CutoffSpec, "profile", staticmethod(counting))
        evaluate_lambda(phase("x1*x2*x3", 3), TestFunctionSpec.ones(3),
                        CHI_POS, 256.0)
        assert 0 < len(calls) < 150

    def test_axis_permutation_with_distinct_factors(self):
        # every axis has its own factor and clipping, so a rule cached
        # without its piece would hand one axis's weights to another
        factors = (FactorSpec.box(0.1, 0.7), FactorSpec.box(0.2, 0.9), FactorSpec())
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

    def test_box_outside_the_support(self):
        f = TestFunctionSpec.boxes([(2.0, 3.0), (0.1, 0.5)])
        for quad_cfg in [QuadratureConfig(), QuadratureConfig(node_budget=1)]:
            r, values, nodes = lone_cells(phase("x1*x2"), f, CHI_POS, 50.0, quad_cfg)
            assert (r.value, r.error, r.nodes, r.low_confidence) == (0, 0, 0, False)
            assert values.size == nodes.size == 0

    def test_box_report(self):
        f = TestFunctionSpec.ones(2)
        r, values, nodes = lone_cells(phase("x1*x2"), f, CHI_POS, 8.0)
        assert abs(values.sum() - r.value) < 1e-14
        assert nodes.sum() == r.nodes
        pieces, depths, merged = row_pieces(phase("x1*x2"), f, CHI_POS, 8.0)
        cells = list(product(*pieces))
        assert len(cells) == values.size == nodes.size
        assert all(lo >= 0 for cell in cells for lo, _ in cell)
        # at lam 8 one 16-point panel covers [0, 1/2]: 2 pieces per axis,
        # against 13 when every axis was cut to `levels`
        assert (depths, merged, len(cells)) == ([1, 1], [16, 16], 4)


def lone_cells(p, f, chi, lam, quad=QuadratureConfig()):
    """`evaluate_lambda`'s result at lam, with the value and node count of
    every cell, cells in product order."""
    (r, values, nodes), = _evaluate(p, f, chi, [lam], quad)
    return r, values, nodes


def gauss_remainder(n, turns):
    """Error bound of n-point Gauss on exp(i w x) over a panel of width h,
    w h = 2 pi turns, relative to h: (w h)^(2n) (n!)^4 / ((2n+1) ((2n)!)^3)."""
    return ((2.0 * math.pi * turns) ** (2 * n) * math.factorial(n) ** 4
            / ((2 * n + 1) * math.factorial(2 * n) ** 3))


def most_turns(n, target):
    """The most turns per panel at which gauss_remainder(n, turns) is at most
    `target`, by bisection on the increasing remainder."""
    lo, hi = 0.0, 1.0
    while gauss_remainder(n, hi) <= target:
        lo, hi = hi, 2.0 * hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        lo, hi = (mid, hi) if gauss_remainder(n, mid) <= target else (lo, mid)
    return lo


def panel_rules(p, f, chi, lam, analytic=None, quad=QuadratureConfig(), depths=None):
    """`_panel_counts`'s counts, orders and map exponents at lam on every cell
    of f's plan on the positive orthant cut to `depths` (to chi's `levels`
    on every axis if not given), cells in product order, with the plateau
    mask `analytic` if given."""
    grads = [p.derivative(k).absolute() for k in range(p.dimension)]
    depths = (chi.levels,) * p.dimension if depths is None else depths
    *sizing, own = _sizing(grads, *_plan(f, depths))
    sizing.append(own if analytic is None else analytic)
    return _panel_counts([lam] * len(sizing[3]), sizing, quad)


def reference_panel_counts(lams, sizing, quad):
    """`_panel_counts` one rung at a time: e = 1..E outside, orders
    ascending inside, and an entry takes a rule only with strictly fewer
    nodes than its best so far."""
    bounds, spans, ratios, analytic = sizing
    lam = np.broadcast_to(np.abs(np.asarray(lams, dtype=float))[:, None], ratios.shape)
    orders, exps = (np.ones(ratios.shape, dtype=np.int64) for _ in range(2))
    counts = np.full(ratios.shape, np.iinfo(np.int64).max)
    sized = np.ones(ratios.shape, dtype=bool)
    rungs = oscint._ladder(quad.order, quad.waves_per_panel)[1]
    with np.errstate(over="ignore", invalid="ignore"):
        for e, (bound, span) in enumerate(zip(bounds, spans), 1):
            if e == 2:
                sized = (counts > 1) & np.isfinite(spans[1:]).any(axis=0)
            spread = lam[sized] * bound[sized] * span[sized] / (2.0 * math.pi)
            grow, plateau_ok = ratios[sized] ** e - 1.0 if e > 1 else None, analytic[sized]
            picked = counts[sized], orders[sized], exps[sized]
            best = picked[0] * picked[1]
            for n, most, plateau in rungs:
                need = spread / most
                if e > 1:
                    first = 1 + np.minimum(np.floor(need), 2.0 ** 53)
                    need = spread * (1.0 + grow / first) ** ((e - 1) / e) / most
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


def random_sizing(seed, cells=600, d=3):
    """Per-cell frequencies and a `_sizing`-shaped tuple of random rates:
    turns from below one panel to above 2^53, barred map exponents (inf
    spans), pieces at 0 (inf ratios) and a random plateau mask."""
    rng = np.random.default_rng(seed)
    lams = 10.0 ** rng.uniform(0.0, 3.0, cells)
    lams[rng.random(cells) < 0.05] = 1e19  # 2^53 is about 9e15 turns
    bounds = 10.0 ** rng.uniform(-2.0, 2.0, (5, cells, d))
    spans = 10.0 ** rng.uniform(-3.0, 0.0, (5, cells, d))
    ratios = rng.choice([1.1, 1.5, 2.0, 3.0, math.inf], (cells, d))
    top = rng.integers(1, 6, (cells, d))  # the largest e each entry may take
    e = np.arange(1, 6)[:, None, None]
    spans[(e > top) | ((e > 1) & (ratios == math.inf))] = math.inf
    return lams, (bounds, spans, ratios, rng.random((cells, d)) < 0.5)


def depths_of(p, f, chi, lams, quad=QuadratureConfig()):
    """`_depths` of the rows at `lams`: their depths and merged-piece orders."""
    return _depths([p.derivative(k).absolute() for k in range(p.dimension)], f, chi, lams, quad)


def row_pieces(p, f, chi, lam, quad=QuadratureConfig()):
    """The pieces of each axis of the row at lam, cut to its depths, and the
    depths and merged-piece orders (`_depths`)."""
    (depths,), (merged,) = depths_of(p, f, chi, [lam], quad)
    pieces = [_axis_pieces(fac, depth) for fac, depth in zip(f.factors, depths.tolist())]
    return pieces, depths.tolist(), merged.tolist()


def reference_rule(lo, hi, panels, e, gx, gw):
    """One rule of `_rule_table`, formula by formula: Gauss panel nodes on
    [lo, hi] and their weights times the cutoff; on the plateau the cutoff
    is 1 and is not evaluated.  At map exponent e the panels lie between
    (a^e + j (b^e - a^e) / panels)^(1/e), a < b the magnitudes of the ends,
    mirrored below 0: Gauss in x, no Jacobian."""
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
    if max(abs(lo), abs(hi)) > 0.5:
        weights *= CutoffSpec.profile(nodes)
    return nodes, weights


def reference_boxes(p, f, chi, lam, quad=QuadratureConfig()):
    """Per-cell values with one full np.exp tensor per cell, in cell order;
    the merged piece of an axis takes one panel of its order at e = 1."""
    pieces, depths, merged = row_pieces(p, f, chi, lam, quad)
    analytic = np.array([[max(abs(lo), abs(hi)) <= 0.5
                          for lo, hi in cell] for cell in product(*pieces)])
    counts, orders, exps = panel_rules(p, f, chi, lam, analytic, quad, depths)
    for i, cell in enumerate(product(*pieces)):
        for k, (lo, hi) in enumerate(cell):
            if merged[k] and max(abs(lo), abs(hi)) <= 2.0 ** -depths[k]:
                counts[i, k], orders[i, k], exps[i, k] = 1, merged[k], 1
    values = []
    for cell, cnt, ords, es in zip(product(*pieces), counts.tolist(), orders.tolist(),
                                   exps.tolist()):
        rules = [reference_rule(lo, hi, c, e, *np.polynomial.legendre.leggauss(n))
                 for (lo, hi), c, n, e in zip(cell, cnt, ords, es)]
        grid = np.meshgrid(*[x for x, _ in rules], indexing="ij")
        weight = rules[0][1]
        for _, g in rules[1:]:
            weight = np.multiply.outer(weight, g)
        values.append(np.sum(np.exp(1j * lam * p.evaluate(grid)) * weight))
    return values


class TestKernel:
    def test_half_angle_phasor(self):
        # one node per cell on x1*x2 with x2 = 1 and unit real weights: each
        # cell value is the kernel's exp(i theta) itself
        odd_pi = np.pi * np.array([1.0, 3.0, 101.0, 12345.0, 318309.0])
        theta = np.concatenate([
            [0.0, -0.0], odd_pi, -odd_pi,
            np.linspace(-1e6, 1e6, 20001),
            np.random.default_rng(5).uniform(-50.0, 50.0, 20000)])
        ones = np.ones((theta.size, 1))
        z = _kernel(phase("x1*x2"), 1.0, [theta[:, None], ones], [ones, ones])
        assert np.max(np.abs(z - np.exp(1j * theta))) <= 4.5e-16

    @pytest.mark.parametrize("text, factors, lam", [
        ("x1^2*x2 + x1*x2^3",
         (FactorSpec.box(0.1, 0.7), FactorSpec.box(0.05, 0.8)), 40.0),
        ("x1^2*x2*x3 + x1*x3^2",
         (FactorSpec.box(0.1, 0.7), FactorSpec.box(0.05, 0.8), FactorSpec()), 12.0),
        # both axes on mapped panels in most cells
        ("x1^3*x2^3", (FactorSpec(), FactorSpec()), 2048.0),
    ], ids=["2d", "3d", "2d-mapped"])
    def test_boxes_match_per_cell_exp(self, text, factors, lam):
        p = phase(text, len(factors))
        f = TestFunctionSpec.of(*factors)
        _, values, _ = lone_cells(p, f, CHI_POS, lam)
        ref = reference_boxes(p, f, CHI_POS, lam)
        assert len(values) == len(ref)
        for value, want in zip(values, ref):
            assert abs(value - want) <= 1e-13 * abs(want)

    def test_tiny_block_splits_only_oversized_cells(self, monkeypatch):
        # at lam 128 the largest cells hold 32^3 and 24^3 nodes: at a block
        # of 5000 floats their rows do not fit, and each is cut into runs of
        # axis 0, while cells that fit keep their bits in blocks of several
        # cells.  A cut cell is the sum of its runs, within rounding
        calls, real = [], oscint._kernel

        def spy(p, lam, axes, weights):
            out = real(p, lam, axes, weights)
            calls.append(([x.shape[1] for x in axes], axes[0].shape[0], out))
            return out

        monkeypatch.setattr(oscint, "_kernel", spy)
        args = (phase("x1*x2*x3", 3), TestFunctionSpec.ones(3), CHI_POS, [128.0],
                QuadratureConfig())
        (a, values, nodes), = _evaluate(*args)
        wide = calls[:]
        calls.clear()
        monkeypatch.setattr(oscint, "_BLOCK", 5000)
        (b, tiny_values, tiny_nodes), = _evaluate(*args)
        assert len(calls) == len(wide)
        kinds = set()
        for (sizes, cells, got), (wide_sizes, _, want) in zip(calls, wide):
            assert sizes == wide_sizes
            room, m = 5000 // (2 * (sizes[-1] + 1)), math.prod(sizes[:-1])
            # a cut cell, or whole cells in one block or several
            kinds.add("cut" if m > room else "blocks" if cells * m > room else "one")
            if m > room:
                assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))
            else:
                assert got.tobytes() == want.tobytes()
        assert kinds == {"cut", "blocks", "one"}
        assert fields(b)[:1] + fields(b)[3:] == fields(a)[:1] + fields(a)[3:]
        assert abs(b.value - a.value) <= 1e-14 * abs(a.value)
        assert abs(b.error - a.error) <= 1e-14 * np.abs(values).sum()
        assert np.all(np.abs(tiny_values - values) <= 1e-14 * np.abs(values))
        assert tiny_nodes.tobytes() == nodes.tobytes()

    def test_phase_evaluated_per_batch(self, monkeypatch):
        # per cell, this took about 6,600 evaluations: panel-count bounds and
        # phase tensors for the 2197 cells of the octaves to `levels` at two
        # Gauss orders.  The sizing reads the derivatives' terms without
        # evaluating them, and each kernel call writes its batch's phase
        # tensor in one call
        calls = []
        for name in ("evaluate", "evaluate_tensor"):
            def counting(self, *args, _name=name, _original=getattr(PhasePolynomial, name)):
                calls.append(_name)
                return _original(self, *args)

            monkeypatch.setattr(PhasePolynomial, name, counting)

        def kernel(*args, _original=_kernel):
            calls.append("_kernel")
            return _original(*args)

        monkeypatch.setattr(oscint, "_kernel", kernel)
        evaluate_lambda(phase("x1*x2*x3", 3), TestFunctionSpec.ones(3),
                        CHI_POS, 16.0)
        assert "evaluate" not in calls
        assert 0 < calls.count("evaluate_tensor") == calls.count("_kernel") <= 36

    @pytest.mark.parametrize("text, d", [
        ("x1^3*x2^2", 2),
        ("x1*x2^2*x3^4", 3),
        ("x1^2*x2^2 + x1^5*x2", 2),
        ("x1*x2 + x2*x3^2", 3),
        ("-3/2*x1^3*x2 + x1*x2^4 - 5*x1^2*x2^2", 2),
        ("-x1^2*x2*x3 + 7/3*x1*x3^3 - x2^2*x3", 3),
        ("-2*x1*x3", 3),
    ], ids=["2d-monomial", "3d-monomial", "2d-two-terms", "3d-missing-axis",
            "2d-negative", "3d-negative", "3d-monomial-missing-axis"])
    def test_tensor_evaluation_matches_broadcast(self, text, d):
        p = phase(text, d)
        rng = np.random.default_rng(7)
        b, sizes, scale = 4, [9, 5, 6][:d], 0.5 * 1234.5
        axes = [rng.uniform(-1.0, 1.0, (b, n)) for n in sizes]
        grid = [x.reshape([b] + [n if j == k else 1 for j, n in enumerate(sizes)])
                for k, x in enumerate(axes)]
        want = scale * np.broadcast_to(p.evaluate(grid), [b] + sizes)
        # relative to the size of the terms: with signed coefficients the
        # value itself can cancel to nothing at a node
        size = scale * p.absolute().evaluate([np.abs(x) for x in grid])
        out = np.full([b] + sizes, np.nan)
        got = p.evaluate_tensor(axes, scale, out)
        assert got is out
        assert np.all(np.abs(out - want) <= 1e-13 * size)
        # one scale per grid: each grid bit for bit as if evaluated alone
        scales = scale * np.array([1.0, -0.3, 7.25, 1e-3])
        rows = p.evaluate_tensor(axes, scales, np.full([b] + sizes, np.nan))
        for i in range(b):
            alone = p.evaluate_tensor([x[i:i + 1] for x in axes], float(scales[i]),
                                      np.full([1] + sizes, np.nan))
            assert rows[i].tobytes() == alone[0].tobytes()

    @pytest.mark.parametrize("n", [0, 1, 2, 57, 3000])
    def test_rows_match_numpy_unique(self, n):
        a = np.random.default_rng(n).integers(-3, 4, (n, 3))
        want, inverse = np.unique(a, axis=0, return_inverse=True)
        got, at = _rows(a)
        assert got.tolist() == want.tolist()
        assert at.tolist() == inverse.ravel().tolist()

    @pytest.mark.parametrize("seed", range(4))
    # `_panel_counts` reads a rule's ladder alone: besides the default, the
    # ladders of orders 12 (plateau rungs 4 and 8 only) and 40 (no higher
    # rung), rules `QuadratureConfig` refuses for want of a table row
    @pytest.mark.parametrize("quad", [QuadratureConfig(), SimpleNamespace(order=12,
                                                                          waves_per_panel=1.0),
                                      SimpleNamespace(order=40, waves_per_panel=4.0)],
                             ids=["16", "12", "40"])
    def test_panel_counts_match_reference_loop(self, seed, quad):
        lams, sizing = random_sizing(seed)
        got = _panel_counts(lams, sizing, quad)
        want = reference_panel_counts(lams, sizing, quad)
        assert all(a.dtype == np.int64 and a.tolist() == b.tolist() for a, b in zip(got, want))
        if quad != QuadratureConfig():
            return
        # on the default rule every map exponent is taken, counts reach the
        # 2^53 cap, and some entries have two orders of equal fewest nodes
        # at e = 1
        counts, orders, exps = got
        assert set(exps.ravel().tolist()) == {1, 2, 3, 4, 5}
        assert counts.max() == 2 ** 53 + 1
        bounds, spans, _, analytic = sizing
        turns = lams[:, None] * bounds[0] * spans[0] / (2.0 * math.pi)
        rungs = oscint._ladder(quad.order, quad.waves_per_panel)[1]
        size = np.stack([np.where(analytic | (not plateau), n * (1 + np.floor(turns / most)),
                                  math.inf) for n, most, plateau in rungs])
        assert ((size == size.min(axis=0)).sum(axis=0) > 1).any()

    @pytest.mark.parametrize("seed", range(3))
    def test_rule_table_matches_reference_rules(self, seed, monkeypatch):
        # every order 4..32 at e = 1..5 on octaves, the transition piece
        # whole and clipped by a box, and the merged piece [0, 2^-L] at
        # e = 1, each key drawn several times and [-0.0, 2^-L] beside it
        rng = np.random.default_rng(seed)
        octaves = [(2.0 ** -(l + 1), 2.0 ** -l) for l in range(1, 12)]
        edges = [(0.5, 1.0), (0.5, rng.uniform(0.5, 1.0)), (rng.uniform(0.5, 1.0), 1.0),
                 (0.3, rng.uniform(0.6, 1.0)), (0.25, 0.5)]
        pieces = octaves + edges
        keys = []
        for _ in range(400):
            lo, hi = pieces[rng.integers(len(pieces))]
            keys.append((lo, hi, int(rng.integers(1, 9)), int(rng.integers(4, 33)),
                         int(rng.integers(1, 6))))
        for depth in (1, 5, 12):
            order = int(rng.integers(4, 33))
            for lo, hi in ((0.0, 2.0 ** -depth), (-0.0, 2.0 ** -depth)):
                keys.append((lo, hi, 1, order, 1))
        assert {k[3] for k in keys} == set(range(4, 33)) and {k[4] for k in keys} == {1, 2, 3, 4, 5}
        keys = np.array(keys + keys[::3])
        calls = []
        original = CutoffSpec.profile

        def counting(t):
            calls.append(len(t))
            return original(t)

        monkeypatch.setattr(CutoffSpec, "profile", staticmethod(counting))
        inverse, offset, flat_nodes, flat_weights = _rule_table(keys)
        # one cutoff evaluation for the whole table, and one row per
        # distinct key by value: -0.0 and 0.0 key alike
        assert len(calls) == 1
        assert len(set(inverse.tolist())) == len({tuple(k) for k in keys.tolist()}) < len(keys)
        assert len({inverse[i] for i, k in enumerate(keys.tolist()) if k[0] == 0}) == 3
        assert len(offset) == len(set(inverse.tolist()))
        for key, r in zip(keys.tolist(), inverse.tolist()):
            lo, hi, panels, order, e = key
            at = slice(offset[r], offset[r] + int(panels * order))
            nodes, weights = flat_nodes[at], flat_weights[at]
            want = reference_rule(lo, hi, int(panels), int(e),
                                  *np.polynomial.legendre.leggauss(int(order)))
            assert nodes.tobytes() == want[0].tobytes()
            assert weights.tobytes() == want[1].tobytes()

    @staticmethod
    def clipped_boxes():
        """Awkward clips on the positive orthant: three boxes, then the same
        boxes mirrored, as the full space's reflections see them."""
        boxes = [(-0.33, 0.61), (-0.52, 0.47), (-0.45, 0.123)]
        mirrored = [(-b, -a) for a, b in boxes]
        return [TestFunctionSpec.boxes(boxes), TestFunctionSpec.boxes(mirrored)]

    def test_panel_counts_match_scalar_bounds(self):
        # awkward clips and high powers: the grid evaluation must round
        # exactly like one corner at a time
        chi = CutoffSpec(positive_orthant=True, levels=5)
        p = phase("3*x1^7*x2 + 1/3*x1*x2^5*x3^3 + x2^2*x3^9", 3)
        grads = [p.derivative(k).absolute() for k in range(3)]
        top = [max(a[k] for a in p.terms) for k in range(3)]
        seen, mapped = set(), set()
        for f, quad_cfg in product(self.clipped_boxes(),
                                   [QuadratureConfig(waves_per_panel=0.37), QuadratureConfig()]):
            pieces = [_axis_pieces(fac, chi.levels) for fac in f.factors]
            # on the plateau t <= 1/2 the integrand is analytic
            analytic = np.array([[hi <= 0.5 for _, hi in cell] for cell in product(*pieces)])
            target = gauss_remainder(quad_cfg.order, quad_cfg.waves_per_panel)
            # per order, the most turns per panel whose bound meets the target
            most = {n: most_turns(n, target) for n in (4, 8, 12, 16, 24, 32)}
            # the last two map some axes
            for lam in [3.0, 77.7, 1234.5, 2e4, 1e5]:
                got_counts, got_orders, got_exps = panel_rules(p, f, chi, lam, analytic,
                                                               quad_cfg)
                assert got_counts.dtype == got_orders.dtype == got_exps.dtype == np.int64
                for cell, counts, orders, exps in zip(product(*pieces), got_counts.tolist(),
                                                      got_orders.tolist(), got_exps.tolist()):
                    mags = [hi for _, hi in cell]
                    for k, (lo, hi) in enumerate(cell):
                        turns = (abs(lam) * grads[k].evaluate(mags)
                                 * (hi - lo) / (2.0 * math.pi))
                        # equal panels: the fewest nodes among 16, 24 and 32,
                        # and on the plateau also 4, 8 and 12; ties to the
                        # lower order
                        plateau = hi <= 0.5
                        rules = [(n * (1 + int(turns / most[n])), n, 1 + int(turns / most[n]))
                                 for n in ((4, 8, 12) if plateau else ()) + (16, 24, 32)]
                        size, order, count = min(rules)
                        assert gauss_remainder(order, turns / count) <= target * (1 + 1e-12)
                        if exps[k] == 1:
                            assert (counts[k], orders[k]) == (count, order)
                            continue
                        # a mapped rule takes strictly fewer nodes, away from
                        # 0, at e up to the axis's largest exponent, and
                        # every panel, sized at its top with the other axes
                        # at the cell's maximum, stays within most turns
                        e, count, order = exps[k], counts[k], orders[k]
                        assert count * order < size and 2 <= e <= min(5, top[k])
                        assert plateau or order >= 16
                        a, b = lo, hi
                        assert a > 0
                        ends = [(a ** e + j * (b ** e - a ** e) / count) ** (1 / e)
                                for j in range(count + 1)]
                        for x0, x1 in zip(ends, ends[1:]):
                            at = mags[:k] + [x1] + mags[k + 1:]
                            panel_turns = (abs(lam) * grads[k].evaluate(at)
                                           * (x1 - x0) / (2.0 * math.pi))
                            assert panel_turns <= most[order] * (1 + 1e-12)
                        mapped.add(e)
                    seen.update(orders)
        # every order an axis may take occurs, and every map exponent
        assert seen == {4, 8, 12, 16, 24, 32}
        assert mapped == {2, 3, 4, 5}

    @pytest.mark.parametrize("lo, hi, panels", [
        (0.25, 0.5, 3), (-0.5, -0.25, 7), (0.5, 1.0, 5), (-1.0, -0.5, 2),
        (0.1, 0.123, 4), (0.0, 2.0 ** -12, 1), (-0.33, -0.25, 9)])
    def test_axis_rule_at_map_exponent_one_is_the_uniform_rule(self, lo, hi, panels):
        # bit for bit the equal panels of before the map exponent
        gx, gw = np.polynomial.legendre.leggauss(16)
        width = (hi - lo) / panels
        starts = lo + width * np.arange(panels)
        want_nodes = (starts[:, None] + width * 0.5 * (gx + 1.0)[None, :]).ravel()
        want_weights = np.tile(width * 0.5 * gw, panels)
        if max(abs(lo), abs(hi)) > 0.5:
            want_weights *= CHI.profile(want_nodes)
        nodes, weights = reference_rule(lo, hi, panels, 1, gx, gw)
        assert nodes.tobytes() == want_nodes.tobytes()
        assert weights.tobytes() == want_weights.tobytes()
        if lo == 0.0:  # the piece at 0 keeps equal panels
            return
        # a mapped rule has its Gauss panels between equal steps of |x|^e,
        # mirrored below 0, and integrates x^2 on the piece as exactly
        for e in (2, 5):
            a, b = sorted((abs(lo), abs(hi)))
            ends = [(a ** e + j * (b ** e - a ** e) / panels) ** (1 / e)
                    for j in range(panels + 1)]
            if hi < 0:
                ends = [-x for x in reversed(ends)]
            want = np.concatenate([x0 + (x1 - x0) * 0.5 * (gx + 1.0)
                                   for x0, x1 in zip(ends, ends[1:])])
            nodes, weights = reference_rule(lo, hi, panels, e, gx, gw)
            assert nodes == pytest.approx(want, rel=1e-14)
            if max(abs(lo), abs(hi)) <= 0.5:
                assert weights @ nodes ** 2 == pytest.approx((hi ** 3 - lo ** 3) / 3,
                                                             rel=1e-14)

    def test_axis_with_exponent_one_keeps_equal_panels(self):
        # x1 has exponent 1 in every term: its panels stay equal, while the
        # other axes of the same cells are mapped
        p = phase("x1*x2^4*x3^2 + x1*x2^3 + 2*x1*x3^5", 3)
        f = TestFunctionSpec.ones(3)
        exps = np.stack([panel_rules(p, f, CHI, lam)[2]
                         for lam in lambda_grid(64, 4096, 4)])
        assert np.all(exps[:, :, 0] == 1)
        assert set(np.unique(exps[:, :, 1:]).tolist()) == {1, 2, 3, 4, 5}

    @pytest.mark.parametrize("text", [
        "3*x1^7*x2 + 1/3*x1*x2^5*x3^3 + x2^2*x3^9",
        # largest exponents 1, 4 and 5: some e are barred on every piece
        "x1*x2^4*x3^2 + x1*x2^3 + 2*x1*x3^5",
    ])
    def test_sizing_matches_scalar_terms(self, text):
        # the clipped inputs of test_panel_counts_match_scalar_bounds
        p = phase(text, 3)
        grads = [p.derivative(k).absolute() for k in range(3)]
        top = [max(a[k] for a in p.terms) for k in range(3)]
        for f in self.clipped_boxes():
            self.check_sizing(p, grads, top, *_plan(f, (5,) * 3))

    @staticmethod
    def check_sizing(p, grads, top, pieces, cells):
        bounds, spans, ratios, analytic = _sizing(grads, pieces, cells)
        with np.errstate(invalid="ignore"):
            rates = bounds * spans / (2.0 * math.pi)
        assert rates.shape == (min(5, max(top)), len(cells), 3)
        for i, cell in enumerate(product(*pieces)):
            mags = [hi for _, hi in cell]
            for k, (a, b) in enumerate(cell):
                assert ratios[i, k] == (b / a if a else math.inf)
                assert analytic[i, k] == (b <= 0.5)
                # equal panels: the bound at the corner, scaled by the width
                assert rates[0, i, k] == grads[k].evaluate(mags) * (b - a) / (2.0 * math.pi)
                for e in range(2, len(rates) + 1):
                    if e > top[k] or a == 0:
                        assert rates[e - 1, i, k] == math.inf
                        continue
                    # per term of phi, |c| (a_k / e) x*^(a_k - e) times the
                    # other axes at their largest magnitudes
                    total = 0.0
                    for alpha, c in sorted(p.terms.items()):
                        if alpha[k]:
                            mono = float(abs(c) * alpha[k]) / e
                            for j, aj in enumerate(alpha):
                                x, q = ((a if alpha[k] < e else b), aj - e) if j == k else (mags[j], aj)
                                mono *= x ** q
                            total += mono
                    want = total * (b ** e - a ** e) / (2.0 * math.pi)
                    assert rates[e - 1, i, k] == pytest.approx(want, rel=1e-15, abs=0)


def in_fresh_thread(fn, *args, **kwargs):
    """fn(*args, **kwargs) in a new thread, whose scratch arrays start empty."""
    out = []
    worker = threading.Thread(target=lambda: out.append(fn(*args, **kwargs)))
    worker.start()
    worker.join()
    return out[0]


def reference_cells(p, lam, axes, weights):
    """The cell sums of exp(i lam phi) times the weights, (B, n_k) per axis,
    in complex128 by `np.einsum`, at lam (B,) per cell."""
    theta = p.evaluate_tensor(axes, lam, np.empty([len(lam)] + [x.shape[1] for x in axes]))
    letters = "ijkl"[:len(axes)]
    spec = f"b{letters}," + ",".join("b" + c for c in letters) + "->b"
    return np.einsum(spec, np.exp(1j * theta), *weights)


def kernel_workspace(p, lam, axes, weights):
    """`_kernel`'s cell sums, and the floats of this thread's workspace after it."""
    values = _kernel(p, lam, axes, weights)
    return values, oscint._SCRATCH.floats.size


def same_result(a, b):
    (ra, va, _), (rb, vb, _) = a, b
    return (ra.value == rb.value and ra.error == rb.error and ra.nodes == rb.nodes
            and va.tolist() == vb.tolist())


class TestWorkspace:
    # a large batch shape, a small one, a 3D one, and a 256x256 cell whose
    # rows do not fit one block, all orthant
    CASES = [("x1^3*x2^3", 2, 2048.0), ("x1*x2", 2, 8.0), ("x1*x2*x3", 3, 16.0),
             ("x1*x2", 2, 2048.0)]

    @staticmethod
    def run(text, d, lam):
        return lone_cells(phase(text, d), TestFunctionSpec.ones(d), CHI_POS, lam)

    def test_no_stale_workspace_contents(self):
        # one thread runs the cases back to back in a workspace grown by the
        # first; each reference runs alone in a fresh thread
        seq = in_fresh_thread(lambda: [self.run(*case) for case in self.CASES])
        for case, got in zip(self.CASES, seq):
            assert same_result(got, in_fresh_thread(self.run, *case))

    def test_threads_do_not_share_a_workspace(self):
        cases = [self.CASES[0], self.CASES[2], self.CASES[3]]
        want = [in_fresh_thread(self.run, *case) for case in cases]
        start = threading.Barrier(len(cases))
        got = [[] for _ in cases]

        def work(case, out):
            start.wait()
            for _ in range(3):
                out.append(self.run(*case))

        workers = [threading.Thread(target=work, args=(case, out))
                   for case, out in zip(cases, got)]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        for results, ref in zip(got, want):
            assert len(results) == 3
            assert all(same_result(r, ref) for r in results)

    @pytest.mark.parametrize("text, d, lam", [
        ("x1*x2*x3", 3, 64.0),
        ("x1^2*x2^2*x3^2 + x1^3*x2*x3", 3, 32.0),
        ("x1^3*x2^3", 2, 2048.0),
        ("x1*x2", 2, 2048.0),
    ])
    def test_warm_evaluation_allocates_little(self, text, d, lam):
        # a deterministic count, not a timing: once the workspace has grown,
        # an evaluation's kernel calls and cutoff steps allocate no
        # full-size arrays (the kernel workspace alone is up to 1 MiB, and
        # the largest lone cells hold 2^18 nodes, 4 MiB as two planes)
        args = (phase(text, d), TestFunctionSpec.ones(d), CHI_POS, lam)
        evaluate_lambda(*args)
        tracemalloc.start()
        try:
            evaluate_lambda(*args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2 ** 20

    @pytest.mark.parametrize("text, d, lam", [("x1^3*x2^3", 2, 2048.0), ("x1*x2*x3", 3, 1024.0)])
    def test_cold_workspace_stays_within_a_block(self, text, d, lam):
        # the largest lone cells here hold 2^18 nodes, whose two planes
        # would take 2^19 floats; blocked, the workspace stays within 1 MiB
        def run():
            evaluate_lambda(phase(text, d), TestFunctionSpec.ones(d), CHI_POS, lam)
            return oscint._SCRATCH.floats.size

        assert in_fresh_thread(run) <= 2 ** 17

    @pytest.mark.parametrize("text, shape, block, rows", [
        # `block` cuts every cell into runs, and `rows` are its blocks' rows.
        # At 0 no row fits, so each cell is cut down to single rows, run by
        # run; 2D cells of 20 rows of 48 nodes
        ("x1^3*x2^3", (3, 20, 48), 0, [1] * 60),
        # 3D cells, cut on axis 0 and then on axis 1
        ("x1*x2*x3", (2, 3, 20, 32), 0, [1] * 120),
        # the two-term phase of the cells3d workload, whose phase tensor is
        # contracted by matmuls
        ("x1^2*x2^2*x3^2 + x1^3*x2*x3", (2, 4, 12, 16), 0, [1] * 96),
        # several small cells
        ("x1*x2", (5, 4, 8), 0, [1] * 20),
        # room for 13 rows (1308 // (2 * 49)): 30 rows are cut into three
        # equal runs of 10, a block each, not into 13 + 13 + 4
        ("x1^3*x2^3", (3, 30, 48), 1308, [10] * 9),
    ])
    def test_blocks_equal_one_block(self, monkeypatch, text, shape, block, rows):
        # blocks of whole cells give the bits of one block, wherever a block
        # starts: BLAS runs one GEMV per cell from its first row.  A cell
        # whose rows do not fit is the sum of its runs, within rounding of
        # a complex reference.  No block holds more rows than fit, and the
        # workspace stays within _BLOCK floats, or one row where none fits
        rng = np.random.default_rng(31)
        b, *sizes = shape
        n, m = sizes[-1], math.prod(sizes[:-1])
        axes = [rng.uniform(0.0, 1.0, (b, k)) for k in sizes]
        weights = [rng.uniform(0.0, 0.1, (b, k)) for k in sizes]
        lam = rng.uniform(64.0, 2048.0, b)
        p = phase(text, len(sizes))
        seen = []
        real = PhasePolynomial.evaluate_tensor

        def spy(self, axes, scale, out):
            seen.append(math.prod(out.shape[:-1]))
            return real(self, axes, scale, out)

        monkeypatch.setattr(PhasePolynomial, "evaluate_tensor", spy)
        want = _kernel(p, lam, axes, weights)
        assert seen == [b * m]  # the default block holds the call
        ref = reference_cells(p, lam, axes, weights)
        assert np.all(np.abs(want - ref) <= 1e-14 * np.abs(ref))
        # room for all cells but one: two blocks of whole cells, the second
        # from a cell's first row, in three cases not a multiple of 8 rows in
        fit = 2 * (n + 1) * m * (b - 1)
        monkeypatch.setattr(oscint, "_BLOCK", fit)
        seen.clear()
        got, floats = in_fresh_thread(kernel_workspace, p, lam, axes, weights)
        assert got.tobytes() == want.tobytes()
        assert len(seen) > 1 and sum(seen) == b * m and max(seen) <= fit // (2 * (n + 1))
        assert floats <= fit
        # cut cells: at `block`, at one float short of a single row, and at
        # room for half a cell
        for split in (block, 2 * n + 1, (n + 1) * m):
            monkeypatch.setattr(oscint, "_BLOCK", split)
            seen.clear()
            got, floats = in_fresh_thread(kernel_workspace, p, lam, axes, weights)
            assert np.all(np.abs(got - ref) <= 1e-14 * np.abs(ref))
            assert sum(seen) == b * m and max(seen) <= max(split // (2 * (n + 1)), 1)
            assert floats <= max(split, 2 * (n + 1))
            if split == block:
                assert seen == rows

    def test_four_dimensional_cells_cut_on_two_axes(self, monkeypatch):
        # the kernel has no dimension guard.  Room for 9 rows of 8 nodes:
        # a slab of axis 0 holds 5 * 4 = 20 rows, so axis 0 is cut into
        # single nodes, and then axis 1 into runs of 2, 2 and 1
        rng = np.random.default_rng(42)
        b, sizes = 2, [6, 5, 4, 8]
        axes = [rng.uniform(0.0, 1.0, (b, k)) for k in sizes]
        weights = [rng.uniform(0.0, 0.1, (b, k)) for k in sizes]
        lam = rng.uniform(16.0, 256.0, b)
        p = phase("x1*x2*x3*x4 + x1^2*x4", 4)
        ref = reference_cells(p, lam, axes, weights)
        seen = []
        real = PhasePolynomial.evaluate_tensor

        def spy(self, axes, scale, out):
            seen.append(out.shape)
            return real(self, axes, scale, out)

        monkeypatch.setattr(PhasePolynomial, "evaluate_tensor", spy)
        block = 9 * 2 * 9
        monkeypatch.setattr(oscint, "_BLOCK", block)
        got, floats = in_fresh_thread(kernel_workspace, p, lam, axes, weights)
        assert np.all(np.abs(got - ref) <= 1e-14 * np.abs(ref))
        assert floats <= block
        # per node of axis 0, the runs of 8 rows a cell per block, and the
        # run of 4 rows both cells in one
        assert seen == ([(1, 1, 2, 4, 8)] * 4 + [(2, 1, 1, 4, 8)]) * 6


class TestOracleParity:
    @pytest.mark.slow
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

    @pytest.mark.slow
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
    @given(st.tuples(st.floats(0.05, 0.3), st.floats(0.35, 0.6),
                     st.floats(0.65, 0.9)))
    @settings(max_examples=10, deadline=None)
    def test_adjacent_boxes_add(self, cuts):
        a, b, c = cuts
        p = phase("x1*x2")
        lam = 30.0

        def val(lo, hi):
            f = TestFunctionSpec.of(FactorSpec.box(lo, hi), FactorSpec())
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


class TestErrorEstimate:
    # (phase, dimension, orthant, frequencies): every sample is checked
    # against a rule with 8x the panels, whose own error is far smaller
    CASES = [("x1*x2", 2, True, (64.0, 1024.0)),
             ("x1*x2", 2, False, (64.0, 256.0)),
             ("x1^3*x2^3", 2, True, (64.0, 256.0, 512.0)),
             ("x1^3*x2^3", 2, False, (64.0,)),
             ("x1^2*x2^2 + x1^5*x2", 2, True, (64.0, 256.0)),
             ("x1*x2*x3", 3, True, (16.0, 32.0, 64.0)),
             ("x1*x2*x3", 3, False, (16.0,)),
             ("x1^2*x2^2*x3^2 + x1^3*x2*x3", 3, True, (16.0,))]

    def test_error_bounds_deviation_without_gross_overstatement(self):
        fine = QuadratureConfig(waves_per_panel=0.5)
        ratios = []
        for text, d, orthant, lams in self.CASES:
            p, f = phase(text, d), TestFunctionSpec.ones(d)
            chi = CutoffSpec(positive_orthant=orthant)
            for lam in lams:
                r = evaluate_lambda(p, f, chi, lam)
                dev = abs(r.value - evaluate_lambda(p, f, chi, lam, quad=fine).value)
                assert r.error >= dev, (text, orthant, lam)
                ratios.append(r.error / dev)
        assert np.median(ratios) <= 30

    @pytest.mark.parametrize("lam", [20.0, 40.0, 80.0])
    def test_error_bounds_deviation_with_box_factors(self, lam):
        # the boxes clip the merged piece near 0 of x2 at lam 20 and 40 and
        # leave it out at 80
        p = phase("x1^3*x2 + x1*x2^2")
        f = TestFunctionSpec.boxes([(-0.2, 0.7), (0.05, 0.9)])
        r = evaluate_lambda(p, f, CHI, lam)
        fine = evaluate_lambda(p, f, CHI, lam, quad=QuadratureConfig(waves_per_panel=0.5))
        assert r.error >= abs(r.value - fine.value)


class TestFrozenFineRule:
    def test_error_bounds_deviation_from_frozen_fine_rule(self):
        # the samples of TestErrorEstimate against the frozen values of the
        # 16-point fine rule, which share no panel with the default rule
        samples = [(text, d, orthant, lam) for text, d, orthant, lams in TestErrorEstimate.CASES
                   for lam in lams]
        assert sorted(samples) == sorted(oracle_fine_rule.VALUES)
        ratios = []
        for text, d, orthant, lam in samples:
            r = evaluate_lambda(phase(text, d), TestFunctionSpec.ones(d),
                                CutoffSpec(positive_orthant=orthant), lam)
            dev = abs(r.value - oracle_fine_rule.VALUES[text, d, orthant, lam])
            assert r.error >= dev, (text, orthant, lam)
            ratios.append(r.error / dev)
        assert np.median(ratios) <= 30


class TestMellinOracle:
    # monomials over the orthant against their exact residue expansion,
    # whose remainder has died out from lam 1024 on
    CASES = [("x1*x2", (1, 1)), ("x1*x2^2", (1, 2)), ("x1^2*x2^3", (2, 3)),
             ("x1^3*x2^3", (3, 3)), ("x1^3*x2^4", (3, 4))]

    def test_error_bounds_deviation_from_exact_value(self):
        ratios = []
        for text, a in self.CASES:
            for r in lambda_sweep(phase(text), TestFunctionSpec.ones(2), CHI_POS,
                                  lambda_grid(1024, 16384, 5)):
                dev = abs(r.value - oracle_mellin.orthant(a, 1.0, r.lam))
                assert r.error >= dev, (text, r.lam)
                ratios.append(r.error / dev)
        r = evaluate_lambda(phase("x1*x2*x3", 3), TestFunctionSpec.ones(3), CHI_POS, 1024.0)
        dev = abs(r.value - oracle_mellin.orthant((1, 1, 1), 1.0, 1024.0))
        assert r.error >= dev
        ratios.append(r.error / dev)
        assert np.median(ratios) <= 30

    def test_full_space_product_phase_is_two_pi_over_lam(self):
        # the logarithmic terms of the four orthants cancel
        for r in lambda_sweep(phase("x1*x2"), TestFunctionSpec.ones(2), CHI,
                              (1024.0, 2048.0, 4096.0)):
            exact = 2 * math.pi / r.lam
            assert abs(oracle_mellin.whole_space((1, 1), 1.0, r.lam) - exact) <= 1e-12 * exact
            assert abs(r.value - exact) <= r.error

    def test_oracle_conjugates_negative_coefficients(self):
        a, lam = (2, 3), 2048.0
        assert oracle_mellin.orthant(a, -1.0, lam) == oracle_mellin.orthant(a, 1.0, lam).conjugate()
        r = evaluate_lambda(phase("-x1^2*x2^3"), TestFunctionSpec.ones(2), CHI_POS, lam)
        assert abs(r.value - oracle_mellin.orthant(a, -1.0, lam)) <= r.error


class TestMappedPanelsAgainstMellinOracle:
    # monomials of higher degree, whose axes take map exponents up to 5, over
    # the orthant against their exact residue expansion (x1^5*x2^5 and
    # x1^6*x2^2 are left out: at lam 1024 their remainder has not died out)
    CASES = [("x1^4*x2^4", (4, 4)), ("x1*x2^5", (1, 5)), ("x1^2*x2^5", (2, 5))]

    def test_error_bounds_deviation_from_exact_value(self, monkeypatch):
        calls = count_rule_builds(monkeypatch)
        ratios = []
        for text, a in self.CASES:
            for r in lambda_sweep(phase(text), TestFunctionSpec.ones(2), CHI_POS,
                                  lambda_grid(1024, 16384, 5)):
                dev = abs(r.value - oracle_mellin.orthant(a, 1.0, r.lam))
                assert r.error >= dev, (text, r.lam)
                ratios.append(r.error / dev)
        assert np.median(ratios) <= 30
        assert {args[3] for args in calls} == {1, 2, 3, 4, 5}


class TestTabledTransitionError:
    # samples whose transition axes have fewer than P0(n, e) panels, so each
    # takes its tabled error instead of a rerun, against the rule with 8x
    # the panels, whose own error is far smaller
    CASES = [("x1*x2", 2, True, lambda_grid(8, 64, 4)),
             ("x1*x2", 2, False, lambda_grid(8, 64, 4)),
             ("x1*x2*x3", 3, True, lambda_grid(8, 64, 4)),
             ("x1*x2*x3", 3, False, lambda_grid(8, 64, 4)),
             ("1/2*x1*x2", 2, True, lambda_grid(32, 512, 5))]

    def test_error_bounds_deviation_from_the_fine_rule(self, monkeypatch):
        layouts, real = [], oscint._layout

        def spy(grads, fs, lams, quad, *args):
            out = real(grads, fs, lams, quad, *args)
            layouts.append((out[0], out[-2], out[-1], quad))
            return out

        monkeypatch.setattr(oscint, "_layout", spy)
        fine = QuadratureConfig(waves_per_panel=0.5)
        for text, d, orthant, lams in self.CASES:
            p, f = phase(text, d), TestFunctionSpec.ones(d)
            chi = CutoffSpec(positive_orthant=orthant)
            layouts.clear()
            results = lambda_sweep(p, f, chi, lams)
            (row, rerun, allow, quad), = layouts
            # no cell is rerun, and every sample has a cell whose tabled
            # error exceeds the target on some axis
            target, _ = oscint._ladder(quad.order, quad.waves_per_panel)
            assert not rerun.any()
            assert (np.bincount(row[allow > d * target], minlength=row[-1] + 1) > 0).all()
            for r, s in zip(results, lambda_sweep(p, f, chi, lams, quad=fine)):
                assert r.error >= abs(r.value - s.value), (text, orthant, r.lam)


def box_bound(n, j, q, norms, lam):
    """Reference for one term of `certificate_sum`: the bound on the box with
    corner 2^-j, prod(norms) * 2^-s * min(1, |lam 2^-t|^(-1/2)), where
    t = min over vertices alpha of <alpha, j> and s = <1/p', j>, exactly."""
    t = min(dot(v, j) for v in n.vertices)
    s = float(sum(r * k for r, k in zip(q.dual_reciprocals, j)))
    osc = math.ldexp(abs(lam), -t)
    gain = min(1.0, osc ** -0.5) if osc > 0 else 1.0
    return math.prod(norms) * 2.0 ** -s * gain


class TestMergedPiece:
    def test_one_panel_meets_the_target_at_every_admitted_theta(self):
        # per degree D and ladder order n, up to the largest theta the bound
        # 2 theta^j0 / j0! e^theta (j0 = ceil(2n / D)) admits, one n-point
        # panel on [0, h] errs by at most the target times h on
        # exp(i theta (x/h)^D) and on a two-term polynomial of degree D
        # bounded by theta there, against a 200-point panel
        quad = QuadratureConfig()
        target, _ = oscint._ladder(quad.order, quad.waves_per_panel)
        h = 0.125
        rx, rw = np.polynomial.legendre.leggauss(200)

        def panel(g, gx, gw):
            return h / 2 * (gw * np.exp(1j * g((gx + 1.0) / 2))).sum()

        for degree in range(1, 6):
            reach = _merge_reach(quad.order, quad.waves_per_panel, degree)
            assert [n for n, _ in reach] == [4, 8, 12, 16]
            for n, most in reach:
                j0 = -(-2 * n // degree)

                def bound(theta):
                    return 2.0 * theta ** j0 / math.factorial(j0) * math.exp(theta)

                # the largest theta at which the bound meets the target
                assert bound(most) <= target * (1 + 1e-12) and bound(most * (1 + 1e-9)) > target
                gx, gw = np.polynomial.legendre.leggauss(n)
                for theta in np.linspace(0.0, most, 41)[1:]:
                    for g in (lambda u: theta * u ** degree,
                              lambda u: theta * (0.7 * u ** degree - 0.3 * u ** -(-degree // 2))):
                        err = abs(panel(g, gx, gw) - panel(g, rx, rw))
                        assert err <= target * h, (degree, n, theta)

    def test_product_phase_merges_to_depth_4_at_lam_64(self):
        # theta = 64 * 2^-L: 4 at L = 4 is admitted for 16 points (5.28 is
        # the most), 8 at L = 3 is not
        p, f = phase("x1*x2*x3", 3), TestFunctionSpec.ones(3)
        depths, merged = depths_of(p, f, CHI_POS, [64.0])
        assert depths.tolist() == [[4, 4, 4]] and merged.tolist() == [[16, 16, 16]]
        _, values, _ = lone_cells(p, f, CHI_POS, 64.0)
        assert values.size == 5 ** 3

    def test_rows_take_their_own_depths(self):
        # the frequencies of the sweep cases 3d-depths and clipped-merge
        depths, _ = depths_of(phase("x1*x2*x3", 3), TestFunctionSpec.ones(3), CHI_POS,
                              [16.0, 64.0, 1024.0])
        assert depths[:, 0].tolist() == [2, 4, 8]
        f = TestFunctionSpec.boxes([(0.01, 0.9), (-0.7, 0.002)])
        depths, merged = depths_of(phase("x1^3*x2 + x1*x2^2"), f, CHI, [8.0, 20.0, 40.0, 80.0])
        assert len(set(depths[:, 0].tolist())) == 4 and merged.all()
        # the box clips the merged piece of x1 to [0.01, 2^-L] but at lam 80
        for (level, _), want in zip(depths.tolist(), [True, True, True, False]):
            assert ((0.01, 2.0 ** -level) in _axis_pieces(f.factors[0], level)) == want

    def test_unbounded_theta_is_not_admitted(self):
        # theta = lam 1e20 2^-30L / 30 on x1 overflows at L = 1 and lam
        # 1e300; a level where it is finite and small enough still admits
        # the merged piece, at 36 with 4 points, and at 31 with 16 points at
        # lam 1e250; x2 never merges
        p, f = phase("100000000000000000000*x1^30*x2"), TestFunctionSpec.ones(2)
        chi = CutoffSpec(True, levels=40)
        depths, merged = depths_of(p, f, chi, [1e300, 1e250])
        assert depths.tolist() == [[36, 40], [31, 40]]
        assert merged.tolist() == [[4, 0], [16, 0]]


class TestSingleBoxBound:
    def test_plug_in_example(self):
        n = build_polyhedron(phase("x1*x2"))
        q = ExponentQuery.of([2, 2])
        for k in [2, 3, 5]:
            for lam in [10.0, 1e6, 0.5]:
                got = box_bound(n, (k, k), q, (1.0, 1.0), lam)
                want = min(lam ** -0.5, 2.0 ** -k)
                assert got == pytest.approx(want, rel=1e-12)

    def test_small_lambda_volume_branch(self):
        n = build_polyhedron(phase("x1^2*x2^2 + x1^5*x2"))
        q = ExponentQuery.all_inf(2)
        # |lam eps^alpha| <= 1 for every vertex: bound is the volume factor
        assert box_bound(n, (1, 1), q, (1.0, 1.0), 3.0) == 2.0 ** -2
        assert box_bound(n, (1, 1), q, (1.0, 1.0), 0.0) == 0.25

    def test_norms_scale_linearly(self):
        p = phase("x1*x2")
        n = build_polyhedron(p)
        q = ExponentQuery.all_inf(2)
        one, = certificate_sum(p, n, q, (1.0, 1.0), [9.0])
        two, = certificate_sum(p, n, q, (2.0, 3.0), [9.0])
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
        a, = certificate_sum(p, n, q, (1.0, 1.0), [100.0], constant=1.0)
        b, = certificate_sum(p, n, q, (1.0, 1.0), [100.0], constant=3.0, multiplicity=2)
        assert b == pytest.approx(6 * a, rel=1e-12)

    @pytest.mark.parametrize("text, d, p, lam", [
        ("x1^2*x2^2 + x1^5*x2", 2, (2, 3), 77.0),
        ("x1^2*x2^2*x3^2 + x1^3*x2*x3", 3, (4, "inf", 3), 77.0),
        # |lam 2^-t| <= 1 from t = 2 on: most boxes take the gain = 1 branch
        ("x1*x2*x3", 3, ("inf", "inf", "inf"), 3.0),
    ], ids=["x1^2*x2^2 + x1^5*x2-2-p0", "x1^2*x2^2*x3^2 + x1^3*x2*x3-3-p1",
            "x1*x2*x3-3-p2"])
    def test_certificate_is_sum_of_box_bounds(self, text, d, p, lam):
        ph = phase(text, d)
        n = build_polyhedron(ph)
        q = ExponentQuery.of(p)
        norms = tuple(1.0 + 0.25 * k for k in range(d))
        levels, multiplicity, constant = 12, 2 ** d, 2.0
        total = 0.0
        for j in product(range(levels + 1), repeat=d):
            total += box_bound(n, j, q, norms, lam)
        got, = certificate_sum(ph, n, q, norms, [lam], levels=levels,
                               multiplicity=multiplicity, constant=constant)
        assert got == constant * multiplicity * total


class TestSweep:
    def test_grid_helper(self):
        g = lambda_grid(64, 4096, 13)
        assert len(g) == 13 and g[0] == 64 and g[-1] == pytest.approx(4096)
        assert all(b > a for a, b in zip(g, g[1:]))
        with pytest.raises(OscError):
            lambda_grid(1.0, 10.0, 5)

    def test_one_point_grid_does_not_read_hi(self):
        # a single frequency is lo, at or above hi too; lo itself is still
        # checked
        assert lambda_grid(5000.0, 4096.0, 1) == (5000.0,)
        assert lambda_grid(64, math.nan, 1) == (64.0,)
        for lo in (1.0, math.nan):
            with pytest.raises(OscError):
                lambda_grid(lo, 4096.0, 1)
        with pytest.raises(OscError):
            lambda_grid(64.0, math.nan, 2)

    @pytest.mark.parametrize("lo, hi, count", [
        (64.0, math.inf, 3), (math.inf, 0.0, 1), (math.inf, math.inf, 2), (-math.inf, 64.0, 2),
        # a finite hi whose top point rounds past the float range
        (6e307, sys.float_info.max, 2),
        (64.0, 128.0, 0), (64.0, 128.0, -1), (1.0, 128.0, 3), (1.999, 128.0, 1),
        (64.0, 64.0, 2), (128.0, 64.0, 2),
    ])
    def test_grid_refuses_bad_requests(self, lo, hi, count):
        # an infinite frequency, no points, lo below MIN_LAMBDA, or lo not
        # below hi
        with pytest.raises(OscError, match="bad lambda grid request"):
            lambda_grid(lo, hi, count)

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

    def test_overflow_names_the_first_row_that_overflows(self):
        # lam 1e299 times the bound 1e8 on the small box stays finite; both
        # later rows overflow, and the refusal names the earlier one even
        # though its test function is not the first row's
        box = TestFunctionSpec.boxes([(-0.01, 0.01)] * 2)
        with pytest.raises(OscError, match=r"overflow at lam 1e\+300$"):
            lambda_sweep(phase("10000000000*x1*x2"), [box, TestFunctionSpec.ones(2), box],
                         CHI, (1e299, 1e300, 1e301))

    @pytest.mark.parametrize("lams", [[64.0, math.nan], [64.0, math.inf], [math.nan, 64.0]])
    def test_sweep_refuses_non_finite_frequency(self, lams):
        with pytest.raises(OscError, match="frequency must be finite"):
            lambda_sweep(phase("x1*x2"), TestFunctionSpec.ones(2), CHI_POS, lams)

    @pytest.mark.parametrize("lam", [math.inf, -math.inf, math.nan])
    def test_evaluation_refuses_non_finite_frequency(self, lam):
        with pytest.raises(OscError, match="frequency must be finite"):
            evaluate_lambda(phase("x1*x2"), TestFunctionSpec.ones(2), CHI_POS, lam)

    def test_sweep_is_one_batch_of_cells(self, monkeypatch):
        # cells of one shape from every frequency and both levels share
        # kernel calls: evaluated one frequency at a time, this sweep makes
        # 211 calls
        calls = kernel_calls(monkeypatch)
        lambda_sweep(phase("x1*x2"), TestFunctionSpec.ones(2), CHI_POS,
                     lambda_grid(64, 2048, 11))
        assert 0 < len(calls) <= 80

    @pytest.mark.parametrize("text, most", [("x1*x2", 1_100_000), ("x1^3*x2^3", 5_000_000)])
    def test_sweep_nodes(self, text, most):
        # 16-point panels on at most 4 turns took 1,714,608 and 8,099,952
        # nodes; orders 24 and 32 on wider panels meet the same target with fewer
        results = lambda_sweep(phase(text), TestFunctionSpec.ones(2), CHI_POS,
                               lambda_grid(64, 2048, 11))
        assert sum(r.nodes for r in results) <= most

    def test_rerun_skips_resolved_cells(self, monkeypatch):
        # only cells with a transition axis on too few panels are rerun: a
        # rerun on every cell with an axis at order 16 or above ran 1.76x
        # the reported nodes through the kernel
        calls = kernel_calls(monkeypatch)
        results = lambda_sweep(phase("x1^3*x2^3"), TestFunctionSpec.ones(2), CHI_POS,
                               lambda_grid(64, 2048, 11))
        kernel = sum(b * math.prod(sizes) for b, sizes in calls)
        assert kernel <= 1.05 * sum(r.nodes for r in results)

    @pytest.mark.parametrize("text, d, lams, kernel, grouped", [
        pytest.param("x1*x2", 2, (64.0,), (3_616, 5_072), (2_336, 3_264),
                     id="x1*x2-2-lams0-5072"),
        pytest.param("x1*x2*x3", 3, (16.0, 32.0, 64.0), (295_232, 428_224), (108_032, 151_744),
                     id="x1*x2*x3-3-lams1-428224"),
        pytest.param("x1^2*x2^2*x3^2 + x1^3*x2*x3", 3, (16.0, 32.0), (259_968, 373_056),
                     (180_736, 258_112), id="x1^2*x2^2*x3^2 + x1^3*x2*x3-3-lams2-373056"),
    ])
    def test_rerun_keeps_unresolved_transition_cells(self, monkeypatch, text, d, lams, kernel,
                                                     grouped):
        # at these frequencies no transition axis has P0(n, e) panels.  The
        # shipped table holds each one's error, so no cell is rerun and, with
        # every cell evaluated, the kernel runs the first pass alone (the
        # first of each pair).  Under a table that holds none, it runs
        # exactly the nodes of a rerun on every cell with an axis on
        # [1/2, 1] (and on no other: a merged piece at order 16 lies on the
        # plateau), the second, as the shipped table of P0 alone did; on
        # the octave layout to `levels` that was 8,224, 1,283,776 and
        # 873,088.  One cell per orbit of the axis swaps runs `grouped`
        calls = kernel_calls(monkeypatch)
        for tabled, nodes, orbits in zip((True, False), kernel, grouped):
            if not tabled:
                table_rows_only_at(monkeypatch)
            calls.clear()
            with monkeypatch.context() as m:
                ungrouped(m)
                lambda_sweep(phase(text, d), TestFunctionSpec.ones(d), CHI_POS, lams)
            assert sum(b * math.prod(sizes) for b, sizes in calls) == nodes
            calls.clear()
            lambda_sweep(phase(text, d), TestFunctionSpec.ones(d), CHI_POS, lams)
            assert sum(b * math.prod(sizes) for b, sizes in calls) == orbits

    @pytest.mark.parametrize("text, lams, unresolved", [
        ("x1*x2*x3", (16.0, 32.0, 64.0), 43_712),
        ("x1^2*x2^2*x3^2 + x1^3*x2*x3", (16.0, 32.0), 77_376),
    ], ids=["x1*x2*x3", "two-terms"])
    def test_benchmark_3d_templates_run_no_rerun(self, monkeypatch, text, lams, unresolved):
        # the table holds the error of every transition axis of these
        # sweeps, so the call runs one `_run_level`, the first pass.  The
        # rerun is a second one: under a table that holds none it runs
        # `unresolved` nodes, and it runs where a box factor clips the
        # transition piece
        nodes, real = [], oscint._run_level

        def spy(p, keys, ids, parts, lams):
            panels, order = (keys[:, c].astype(np.int64)[ids] for c in (2, 3))
            nodes.append(np.where(parts < 0, panels * order, order).prod(axis=1).sum())
            return real(p, keys, ids, parts, lams)

        monkeypatch.setattr(oscint, "_run_level", spy)
        p, ones = phase(text, 3), TestFunctionSpec.ones(3)
        lambda_sweep(p, ones, CHI_POS, lams)
        assert len(nodes) == 1
        with monkeypatch.context() as m:
            table_rows_only_at(m)
            nodes.clear()
            lambda_sweep(p, ones, CHI_POS, lams)
            assert len(nodes) == 2 and nodes[1] == unresolved
        nodes.clear()
        lambda_sweep(p, TestFunctionSpec.boxes([(0.0, 0.9)] * 3), CHI_POS, lams)
        assert len(nodes) == 2 and nodes[1] > 0

    @pytest.mark.parametrize("chi, f", [
        (CHI, TestFunctionSpec.boxes([(-0.9, 0.7), (-0.6, 0.95)])),
        (CHI_POS, TestFunctionSpec.of(FactorSpec.box(0.0, 0.9), FactorSpec.box(0.0, 0.8))),
    ])
    def test_rerun_keeps_transition_cells_the_table_was_not_calibrated_for(
            self, monkeypatch, chi, f):
        # the table holds for the whole transition piece [1/2, 1]: on a
        # piece clipped by a factor, on either side of 0, every transition
        # cell is rerun, as if the table resolved no order.  On the whole
        # line the empty table does rerun more, so it took effect
        calls = kernel_calls(monkeypatch)
        kernel = []
        for tabled in (True, False):
            if not tabled:
                table_rows_only_at(monkeypatch)
            for g in (f, TestFunctionSpec.ones(2)):
                calls.clear()
                lambda_sweep(phase("x1*x2"), g, chi, (1024.0, 2048.0))
                kernel.append(sum(b * math.prod(sizes) for b, sizes in calls))
        assert kernel[0] == kernel[2] and kernel[1] < kernel[3]

    def test_rerun_reads_the_table_at_each_axis_map_exponent(self, monkeypatch):
        # at these frequencies some transition axes take e = 2 or 3 with
        # more panels than P0(n, e): the shipped table resolves them, and
        # one without rows for e > 1 reruns their cells
        calls = kernel_calls(monkeypatch)
        kernel = []
        for tabled in (True, False):
            if not tabled:
                table_rows_only_at(monkeypatch, (1,))
            calls.clear()
            lambda_sweep(phase("x1^3*x2^3"), TestFunctionSpec.ones(2), CHI_POS,
                         (2048.0, 4096.0))
            kernel.append(sum(b * math.prod(sizes) for b, sizes in calls))
        assert kernel[0] < kernel[1]

    def test_map_exponents_cut_nodes_of_higher_degree_axes(self):
        # equal panels took 983,984 and 4,407,216 nodes on the octave
        # layout to `levels`, and mapped ones 983,984 (x1*x2, whose
        # exponents are all 1, keeps equal panels) and 2,480,304; merged
        # pieces near 0 take a little off both
        nodes = [sum(r.nodes for r in lambda_sweep(phase(text), TestFunctionSpec.ones(2),
                                                   CHI_POS, lambda_grid(64, 2048, 11)))
                 for text in ("x1*x2", "x1^3*x2^3")]
        assert nodes == [968_400, 2_453_248]

    @staticmethod
    def layout_reruns(monkeypatch):
        """A list that gets, per `_layout` call from now on, its cells' piece
        ends lo and hi, their Gauss orders and whether the error estimate
        reruns each cell."""
        layouts, real = [], oscint._layout

        def spy(*args):
            out = real(*args)
            layouts.append((out[1], out[2], out[4], out[-2]))
            return out

        monkeypatch.setattr(oscint, "_layout", spy)
        return layouts

    @pytest.mark.parametrize("waves", [0.5, 2.0])
    def test_finer_rules_take_the_default_rules_table(self, monkeypatch, waves):
        # a rule whose target is below the default's puts fewer turns on
        # each panel than the calibration checked, so the default rule's
        # table bounds its transition axes, the default's target from P0
        # on: no cell is rerun, and err still bounds the deviation from the
        # exact value
        layouts = self.layout_reruns(monkeypatch)
        quad = QuadratureConfig(waves_per_panel=waves)
        for text, a in (("x1*x2", (1, 1)), ("x1^3*x2^3", (3, 3))):
            for chi, exact in ((CHI_POS, oracle_mellin.orthant), (CHI, oracle_mellin.whole_space)):
                layouts.clear()
                results = lambda_sweep(phase(text), TestFunctionSpec.ones(2), chi,
                                       (1024.0, 2048.0), quad=quad)
                (*_, rerun), = layouts
                assert not rerun.any()
                for r in results:
                    dev = abs(r.value - exact(a, 1.0, r.lam))
                    assert r.error >= dev, (text, chi.positive_orthant, r.lam)

    @pytest.mark.parametrize("text, d, lams", [
        ("x1*x2", 2, lambda_grid(64, 2048, 11)),
        ("x1*x2*x3", 3, (16.0, 32.0, 64.0)),
        ("x1^2*x2^2*x3^2 + x1^3*x2*x3", 3, (16.0, 32.0)),
        # the largest shape group of the default 3D verify, 1,117 cells of
        # 32^3 nodes, was 373 calls of at most 3 cells each
        ("x1*x2*x3", 3, lambda_grid(64, 2048, 11)),
    ], ids=["x1*x2", "x1*x2*x3-cells", "two-terms-cells", "x1*x2*x3"])
    def test_one_kernel_call_per_shape_group(self, monkeypatch, text, d, lams):
        # the pieces' node counts per axis: panels * order for a whole rule,
        # order for one panel; each distinct row is one call on all its pieces
        levels, real = [], oscint._run_level

        def spy(p, keys, ids, parts, lams):
            panels, order = (keys[:, c].astype(np.int64)[ids] for c in (2, 3))
            levels.append(np.where(parts < 0, panels * order, order))
            return real(p, keys, ids, parts, lams)

        monkeypatch.setattr(oscint, "_run_level", spy)
        calls = kernel_calls(monkeypatch)
        lambda_sweep(phase(text, d), TestFunctionSpec.ones(d), CHI_POS, lams)
        (sizes,) = levels
        shapes, group = _rows(sizes)
        groups = [(tuple(s), b) for s, b in zip(shapes.tolist(), np.bincount(group))]
        assert sorted(groups) == sorted((tuple(s), b) for b, s in calls)


def table_rows_only_at(monkeypatch, exponents=()):
    """Make the transition error table hold rows only at the map exponents
    `exponents`, none by default, as if calibrated no further: every
    transition axis at another exponent is then rerun.  The table is
    cached, so it is patched whole, not its literal."""
    table = oscint._transition_errors().copy()
    table[:, [e for e in range(table.shape[1]) if e not in exponents]] = np.inf
    monkeypatch.setattr(oscint, "_transition_errors", lambda: table)


def kernel_calls(monkeypatch):
    """A list that gets (cells, nodes per axis) for every kernel call from now on."""
    calls = []
    real = oscint._kernel

    def spy(p, lam, axes, weights):
        calls.append((axes[0].shape[0], [x.shape[1] for x in axes]))
        return real(p, lam, axes, weights)

    monkeypatch.setattr(oscint, "_kernel", spy)
    return calls


def ungrouped(monkeypatch):
    """From now on every orthant is its own sub-row, one plain copy with the
    identity alone for its group, so every cell is its own orbit and no
    cell is cut into panel cells: `_evaluate` runs every cell of every
    orthant whole."""
    def orthants(p, fs, chi):
        d, terms = p.dimension, sorted(p.terms)
        sigmas = [(1,) * d] if chi.positive_orthant else list(product((1, -1), repeat=d))
        identity = ((tuple(range(d)), False),)
        return {f: tuple((tuple(math.prod(s ** k for s, k in zip(sigma, a)) for a in terms),
                          TestFunctionSpec.of(*(fac if s > 0 else FactorSpec(-fac.b, -fac.a)
                                                for fac, s in zip(f.factors, sigma))),
                          1, 0, identity) for sigma in sigmas)
                for f in fs}

    monkeypatch.setattr(oscint, "_reflections", orthants)


def count_rule_builds(monkeypatch):
    """A list that gets one entry per per-axis rule built from now on: per
    row of each rule table, (lo, hi, panels, e, gx, gw), the arguments of
    `reference_rule`."""
    calls = []
    original = oscint._rule_table

    def counting(keys):
        built = original(keys)
        rows = dict(zip(built[0].tolist(), keys.tolist()))  # one key per table row
        calls.extend((lo, hi, int(panels), int(e), *oscint._gauss(int(order)))
                     for lo, hi, panels, order, e in rows.values())
        return built

    monkeypatch.setattr(oscint, "_rule_table", counting)
    return calls


def fields(r):
    return (r.lam, r.value, r.error, r.nodes, r.low_confidence, r.certificate)


class TestRuleTable:
    @pytest.mark.parametrize("text, d, f, chi, lams, quad, flagged", [
        ("x1*x2", 2, TestFunctionSpec.ones(2), CHI_POS, lambda_grid(64, 2048, 11),
         QuadratureConfig(), 0),
        ("x1*x2*x3 + x1^2*x3", 3, TestFunctionSpec.ones(3), CHI_POS, (8.0, 12.0, 16.0),
         QuadratureConfig(), 0),
        ("x1^3*x2 + x1*x2^2", 2, TestFunctionSpec.boxes([(-0.2, 0.7), (0.05, 0.9)]),
         CHI, (20.0, 40.0, 80.0), QuadratureConfig(), 0),
        # the two upper samples are refused over the budget
        ("x1*x2", 2, TestFunctionSpec.ones(2), CHI_POS, (64.0, 256.0, 512.0),
         QuadratureConfig(node_budget=10_000), 2),
        # every row at its own depth (TestMergedPiece)
        ("x1*x2*x3", 3, TestFunctionSpec.ones(3), CHI_POS, (16.0, 64.0, 1024.0),
         QuadratureConfig(), 0),
        ("x1^3*x2 + x1*x2^2", 2, TestFunctionSpec.boxes([(0.01, 0.9), (-0.7, 0.002)]),
         CHI, (8.0, 20.0, 40.0, 80.0), QuadratureConfig(), 0),
    ], ids=["product-orthant", "3d", "boxes", "budget", "3d-depths", "clipped-merge"])
    def test_sweep_equals_lone_evaluations(self, text, d, f, chi, lams, quad, flagged):
        p = phase(text, d)
        sweep = certify_results(lambda_sweep(p, f, chi, lams, quad=quad), p, f, chi)
        lone = [evaluate_lambda(p, f, chi, lam, quad=quad, certify=True) for lam in lams]
        assert [fields(r) for r in sweep] == [fields(r) for r in lone]
        assert [r.low_confidence for r in sweep] == ([False] * (len(lams) - flagged)
                                                     + [True] * flagged)
        assert all((r.value is None) == r.low_confidence for r in sweep)
        assert all(r.nodes > quad.node_budget for r in sweep if r.low_confidence)

    def test_sweep_shares_rules_across_frequencies(self, monkeypatch):
        # 11 lone evaluations of this sweep build 568 rules, 108 of them distinct
        calls = count_rule_builds(monkeypatch)
        lambda_sweep(phase("x1*x2"), TestFunctionSpec.ones(2), CHI_POS,
                     lambda_grid(64, 2048, 11))
        assert 0 < len(calls) <= 568 // 3

    def test_nothing_survives_a_sweep(self, monkeypatch):
        calls = count_rule_builds(monkeypatch)
        args = (phase("x1^3*x2^3"), TestFunctionSpec.ones(2), CHI_POS, (64.0, 128.0, 256.0))
        lambda_sweep(*args)
        first = len(calls)
        lambda_sweep(*args)
        assert first > 0 and len(calls) == 2 * first

    def test_each_rule_built_once_per_sweep(self, monkeypatch):
        # the sweep's 80 distinct rules, keyed by (lo, hi, panels, order, e),
        # each built once, merged pieces at each depth too; with the rerun of
        # transition axes below P0(n, e) panels there were 97, on the octave
        # layout to `levels` 92, and a rerun on every cell with an axis at
        # order 16 or above built 108
        calls = count_rule_builds(monkeypatch)
        lambda_sweep(phase("x1*x2"), TestFunctionSpec.ones(2), CHI_POS,
                     lambda_grid(64, 2048, 11))
        keys = [(lo, hi, panels, len(gx), e) for lo, hi, panels, e, gx, _ in calls]
        assert len(keys) == len(set(keys)) == 80


class TestBatchedRows:
    # one test function per frequency: distinct boxes, one box twice, and
    # whole lines, on the full cutoff
    BOX = TestFunctionSpec.boxes([(-0.2, 0.7), (0.05, 0.9)])
    FS = (BOX, TestFunctionSpec.ones(2), TestFunctionSpec.boxes([(-0.01, 0.01), (-0.3, 0.002)]),
          BOX, TestFunctionSpec.ones(2))
    LAMS = (8.0, 16.0, 32.0, 64.0, 128.0)

    @pytest.mark.parametrize("quad, flagged", [
        (QuadratureConfig(), False),
        # the upper samples are refused over the budget
        (QuadratureConfig(node_budget=3_000), True),
    ], ids=["default", "budget"])
    def test_rows_equal_lone_evaluations(self, quad, flagged):
        p = phase("x1^3*x2 + x1*x2^2")
        sweep = certify_results(lambda_sweep(p, self.FS, CHI, self.LAMS, quad=quad), p,
                                self.FS, CHI)
        lone = [evaluate_lambda(p, f, CHI, lam, quad=quad, certify=True)
                for f, lam in zip(self.FS, self.LAMS)]
        assert [fields(r) for r in sweep] == [fields(r) for r in lone]
        assert any(r.low_confidence for r in sweep) == flagged
        assert all((r.value is None) == r.low_confidence for r in sweep)
        assert all(r.nodes > quad.node_budget for r in sweep if r.low_confidence)
        # and every cell of every row, bit for bit
        rows = _evaluate(p, self.FS, CHI, self.LAMS, quad)
        for (_, values, nodes), f, lam in zip(rows, self.FS, self.LAMS):
            _, want_values, want_nodes = lone_cells(p, f, CHI, lam, quad)
            assert values.tobytes() == want_values.tobytes()
            assert nodes.tolist() == want_nodes.tolist()

    def test_rows_of_mixed_cutoffs_equal_lone_evaluations(self):
        # orthant rows of the whole line and full-space rows of boxes, out of
        # frequency order, in one call: every cell of every row bit for bit
        # its lone evaluation's under its own cutoff, and the certificates
        # counted over its own orthants
        p = phase("x1^3*x2 + x1*x2^2")
        fs = [TestFunctionSpec.ones(2), self.BOX, TestFunctionSpec.ones(2), self.FS[2], self.BOX]
        chis = [CHI_POS, CHI, CHI_POS, CHI, CHI_POS]
        lams = (64.0, 8.0, 16.0, 32.0, 40.0)
        rows = _evaluate(p, fs, chis, lams, QuadratureConfig())
        for (r, values, nodes), f, chi, lam in zip(rows, fs, chis, lams, strict=True):
            want, want_values, want_nodes = lone_cells(p, f, chi, lam)
            assert fields(r) == fields(want)
            assert values.tobytes() == want_values.tobytes()
            assert nodes.tolist() == want_nodes.tolist()
        sweep = certify_results(lambda_sweep(p, fs, chis, lams), p, fs, chis)
        lone = [evaluate_lambda(p, f, chi, lam, certify=True)
                for f, chi, lam in zip(fs, chis, lams)]
        assert [fields(r) for r in sweep] == [fields(r) for r in lone]

    def test_rows_of_one_call_share_the_levels(self):
        p, ones = phase("x1*x2"), TestFunctionSpec.ones(2)
        with pytest.raises(OscError, match="share the cutoff's levels"):
            lambda_sweep(p, ones, [CHI, CutoffSpec(levels=11)], (8.0, 16.0))
        with pytest.raises(OscError, match="1 cutoffs for 2 frequencies"):
            lambda_sweep(p, ones, [CHI], (8.0, 16.0))

    def test_certificates_of_mixed_levels_equal_lone_ones(self):
        # rows of separate sweeps may meet in one `certify_results` call:
        # each sum is truncated at its own cutoff's levels, where its
        # group's first row's gave the levels-4 row 2.4078 for its 1.9542
        p, ones = phase("x1*x2"), TestFunctionSpec.ones(2)
        chis = [CutoffSpec(positive_orthant=True, levels=levels) for levels in (12, 4)]
        results = [lambda_sweep(p, ones, chi, (64.0,))[0] for chi in chis]
        both = certify_results(results, p, ones, chis)
        lone = [certify_results([r], p, ones, chi)[0] for r, chi in zip(results, chis)]
        assert [r.certificate for r in both] == [r.certificate for r in lone]
        assert round(both[1].certificate, 4) == 1.9542

    def test_grid_holds_at_most_max_lam_count_frequencies(self, monkeypatch):
        # a grid of one test function and one cutoff is refused before any
        # planning; the same frequencies as per-row lists are independent rows
        def never(*args):
            raise AssertionError("the grid was planned")

        p, ones = phase("x1*x2"), TestFunctionSpec.ones(2)
        lams = lambda_grid(64.0, 128.0, oscint.MAX_LAM_COUNT + 1)
        with monkeypatch.context() as m:
            m.setattr(oscint, "_evaluate", never)
            with pytest.raises(OscError, match="at most 1000 frequencies, got 1001"):
                lambda_sweep(p, ones, CHI_POS, lams)
        assert len(lambda_sweep(p, [ones] * 2, CHI_POS, (16.0, 8.0))) == 2

    def test_one_level_run_per_sharpness_test(self, monkeypatch):
        calls = []
        real = oscint._run_level

        def spy(*args):
            calls.append(len(args[2]))
            return real(*args)

        monkeypatch.setattr(oscint, "_run_level", spy)
        p = phase("x1*x2")
        w = (Fraction(1), Fraction(0))
        rep = sharpness_test(p, build_polyhedron(p), ExponentQuery.all_inf(2), w,
                             Fraction(1, 4), dual_lambda_grid(w, count=6, start=6))
        assert len(rep.rows) == 6 and len(calls) == 1 and calls[0] > 0

    def test_bad_per_frequency_list_is_refused(self):
        p, ones = phase("x1*x2"), TestFunctionSpec.ones
        with pytest.raises(OscError, match="2 test functions for 3 frequencies"):
            lambda_sweep(p, [ones(2)] * 2, CHI, (8.0, 16.0, 32.0))
        with pytest.raises(OscError, match="1 test functions for 0 frequencies"):
            lambda_sweep(p, [ones(2)], CHI, ())
        with pytest.raises(OscError, match="dimension mismatch"):
            lambda_sweep(p, [ones(2), ones(3)], CHI, (8.0, 16.0))


def seeded_phase(seed, d, kind):
    """A seeded phase of one or two monomials in d variables, every exponent
    1..3: summed over the axis permutations ("symmetric"), minus its image
    under the swap of x1 and x2 ("antisymmetric"), or as drawn."""
    rng = random.Random(seed)
    terms = {}
    while not any(terms.values()):  # drawn again where the monomials cancel
        terms = {}
        for _ in range(rng.randint(1, 2)):
            a = [rng.randint(1, 3) for _ in range(d)]
            c = Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 3))
            if kind == "symmetric":
                images = [(tuple(a[j] for j in perm), c) for perm in set(permutations(range(d)))]
            elif kind == "antisymmetric":
                a[1] = a[0] % 3 + 1  # a1 != a0, so the swap moves the term
                images = [(tuple(a), c), ((a[1], a[0], *a[2:]), -c)]
            else:
                images = [(tuple(a), c)]
            for b, cb in dict(images).items():
                terms[b] = terms.get(b, 0) + cb
    return PhasePolynomial.from_terms(terms, d, reduced=True)


class TestOrbits:
    # factors fixed by every permutation and reflection; by the permutations
    # alone; by the swap of x1 and x2 with both reflected; and by nothing
    FACTORS = {
        "ones": lambda d: TestFunctionSpec.ones(d),
        "even-boxes": lambda d: TestFunctionSpec.boxes([(-0.7, 0.7)] * d),
        "equal-boxes": lambda d: TestFunctionSpec.boxes([(-0.4, 0.8)] * d),
        "mirrored-boxes": lambda d: TestFunctionSpec.boxes([(-0.4, 0.8), (-0.8, 0.4),
                                                            (-0.6, 0.6)][:d]),
        "distinct-boxes": lambda d: TestFunctionSpec.boxes([(-0.3, 0.9), (0.05, 0.8),
                                                            (-0.6, 0.5)][:d]),
    }

    @staticmethod
    def grouped_and_not(monkeypatch, p, f, chi, lams, quad=QuadratureConfig()):
        with monkeypatch.context() as m:
            ungrouped(m)
            want = lambda_sweep(p, f, chi, lams, quad=quad)
        return lambda_sweep(p, f, chi, lams, quad=quad), want

    @staticmethod
    def assert_same(got, want):
        # rounding apart: a cell takes its image's sum, not its own
        for g, w in zip(got, want, strict=True):
            assert (g.lam, g.nodes, g.low_confidence) == (w.lam, w.nodes, w.low_confidence)
            assert abs(g.value - w.value) <= 1e-12 * abs(w.value)
            assert g.error == pytest.approx(w.error, rel=1e-8)

    @pytest.mark.parametrize("factors", list(FACTORS))
    @pytest.mark.parametrize("chi", [CHI_POS, CHI], ids=["orthant", "full"])
    @pytest.mark.parametrize("kind", ["symmetric", "antisymmetric", "asymmetric"])
    @pytest.mark.parametrize("d, seed", [(2, 11), (2, 12), (3, 13)])
    def test_grouped_values_equal_ungrouped_ones(self, monkeypatch, d, seed, kind, chi,
                                                 factors):
        p, f = seeded_phase(seed, d, kind), self.FACTORS[factors](d)
        lams = (24.0, 96.0) if d == 2 else (8.0, 20.0)
        got, want = self.grouped_and_not(monkeypatch, p, f, chi, lams)
        self.assert_same(got, want)
        if kind != "asymmetric" and factors in ("ones", "even-boxes", "equal-boxes"):
            # the swap of x1 and x2 maps the phase to plus or minus itself
            assert len(oscint._reflections(p, [f], chi)[f][0][4]) > 1

    @given(st.integers(0, 2 ** 16), st.sampled_from([2, 3]),
           st.sampled_from(["symmetric", "antisymmetric", "asymmetric"]),
           st.sampled_from(list(FACTORS)), st.booleans())
    # per-axis allowances summed in axis order gave 85 of 1,710 cells of
    # this one an allowance a bit off their orbit representative's
    @example(0, 3, "symmetric", "ones", False)
    @settings(max_examples=30)
    def test_orbit_shares_rerun_flag_and_allowance(self, seed, d, kind, factors, orthant):
        # a cell's rerun flag and allowance depend only on the multiset of
        # its axis rules, which every cell of its orbit shares: the orbit
        # key needs neither.  No whole-line cell is rerun, and every box
        # factor clips the transition piece of some axis, whose cells are
        p, f = seeded_phase(seed, d, kind), self.FACTORS[factors](d)
        lams = (24.0, 96.0) if d == 2 else (8.0, 20.0)
        seen = {}
        with pytest.MonkeyPatch.context() as m:
            for name in ("_layout", "_orbits"):
                def spy(*args, real=getattr(oscint, name), name=name):
                    seen[name] = real(*args)
                    return seen[name]
                m.setattr(oscint, name, spy)
            lambda_sweep(p, f, CutoffSpec(positive_orthant=orthant), lams)
        *_, rerun, allow = seen["_layout"]
        rep = seen["_orbits"][0]
        assert rerun.any() == (factors != "ones")
        assert rerun[rep].tolist() == rerun.tolist()
        assert allow[rep].tolist() == allow.tolist()

    def test_conjugate_path(self, monkeypatch):
        # swapping the axes negates x1^2*x2 - x1*x2^2: a cell off the
        # diagonal takes the conjugate of its mirror image's sum
        p, f = phase("x1^2*x2 - x1*x2^2"), TestFunctionSpec.ones(2)
        orbits, real = [], oscint._orbits

        def spy(*args):
            orbits.append(real(*args))
            return orbits[-1]

        monkeypatch.setattr(oscint, "_orbits", spy)
        got, want = self.grouped_and_not(monkeypatch, p, f, CHI_POS, (64.0, 256.0, 1024.0))
        self.assert_same(got, want)
        rep, conj, *_ = orbits[-1]  # the grouped run's
        assert conj.any() and (rep[conj] != np.flatnonzero(conj)).all()
        (sub,) = oscint._reflections(p, [f], CHI_POS)[f]
        assert sub[4] == (((0, 1), False), ((1, 0), True))
        # over the full space the reflection of both axes negates the phase
        # and the swap negates it back: one sub-row of two plain copies,
        # whose integral is real; the reflections of one axis give the
        # swap-symmetric x1^2*x2 + x1*x2^2 and its negative
        assert [sub[2:4] for sub in oscint._reflections(p, [f], CHI)[f]] == [(2, 0), (1, 1)]

    @pytest.mark.parametrize("text, chi, group", [
        ("x1*x2", CHI_POS, 2),
        ("x1*x2", CHI, 8),
        ("x1^2*x2^2 + x1^5*x2", CHI_POS, 1),
        # the reflection of both axes alone
        ("x1^2*x2^2 + x1^5*x2", CHI, 2),
        ("x1^3*x2 + x1*x2^2", CHI, 2),
        ("x1*x2*x3", CHI, 48),
        # the swap, and the swap with both axes reflected
        ("x1^2*x2 + x1*x2^2 + x1^2*x2^2", CHI, 2),
    ])
    def test_group_of_the_phase(self, text, chi, group):
        # the signed coordinate permutations that map the phase to plus or
        # minus itself, `group` of them, split: the reflections merge into
        # sub-rows of plain and conjugate copies, and each sub-row keeps the
        # permutations of its own phase, so copies times permutations is
        # the group on every sub-row
        p = phase(text, 3 if "x3" in text else 2)
        f = TestFunctionSpec.ones(p.dimension)
        subs = oscint._reflections(p, [f], chi)[f]
        copies = {
            ("x1*x2", False): [(2, 2)],
            ("x1^2*x2^2 + x1^5*x2", False): [(2, 0), (2, 0)],
            ("x1^3*x2 + x1*x2^2", False): [(1, 1), (1, 1)],
            ("x1*x2*x3", False): [(4, 4)],
            # (-1, 1) is (1, -1) swapped
            ("x1^2*x2 + x1*x2^2 + x1^2*x2^2", False): [(1, 0), (2, 0), (1, 0)],
        }.get((text, chi.positive_orthant), [(1, 0)])
        assert [(plain, conj) for *_, plain, conj, _ in subs] == copies
        assert subs[0][:2] == ((1,) * len(p.terms), f)
        for signs, g, plain, conj, perms in subs:
            assert g == f
            assert perms[0] == (tuple(range(p.dimension)), False)
            assert (plain + conj) * len(perms) == group

    def test_mirrored_boxes_merge_by_a_swap(self):
        # on x1*x2 the reflection of both axes carries the boxes to their
        # swap: one sub-row of two plain copies, whose boxes differ below 0
        # and whose group keeps the swap
        f = TestFunctionSpec.boxes([(-0.4, 0.8), (-0.8, 0.4)])
        subs = oscint._reflections(phase("x1*x2"), [f], CHI)[f]
        assert [sub[2:4] for sub in subs] == [(2, 0), (1, 0), (1, 0)]
        assert [len(sub[4]) for sub in subs] == [1, 2, 2]

    def test_reflections_a_permutation_joins_run_once(self, monkeypatch):
        # (1, -1) and (-1, 1) turn x1^2*x2 + x1*x2^2 + x1^2*x2^2 into each
        # other's swap: one sub-row, evaluated once.  With the two apart
        # the kernel ran 8,851,648 nodes, and with the swap-fixed cells
        # whole, not one panel cell per orbit, 6,496,560; both with the
        # rerun of transition axes below P0(n, e) panels, which took it to
        # 4,795,952
        calls = kernel_calls(monkeypatch)
        lambda_sweep(phase("x1^2*x2 + x1*x2^2 + x1^2*x2^2"), TestFunctionSpec.ones(2), CHI,
                     lambda_grid(64, 1024, 5))
        assert sum(b * math.prod(sizes) for b, sizes in calls) == 4_766_064

    @pytest.mark.parametrize("chi", [CHI_POS, CHI], ids=["orthant", "full"])
    @pytest.mark.parametrize("text, d, lams, moved", [
        ("x1*x2", 2, (512.0, 1024.0), 2),
        # the swap negates the phase: a panel cell off the diagonal takes
        # the conjugate of its mirror image's sum
        ("x1^2*x2 - x1*x2^2", 2, (256.0, 1024.0), 2),
        # every permutation fixes the corner cube
        ("x1*x2*x3", 3, (512.0,), 3),
        # the swap of x2 and x3 alone
        ("x1^2*x2^2*x3^2 + x1^3*x2*x3", 3, (256.0,), 2),
    ])
    def test_panel_cells_equal_whole_cells(self, monkeypatch, text, d, lams, moved, chi):
        # the corner cells here have at least 4 panels on each axis their
        # stabilizer moves: each is cut into one cell per panel of those
        # axes, and one panel cell per orbit is evaluated
        cuts, real = [], oscint._orbits

        def spy(*args):
            out = real(*args)
            cuts.append(out[2:])
            return out

        monkeypatch.setattr(oscint, "_orbits", spy)
        got, want = self.grouped_and_not(monkeypatch, phase(text, d), TestFunctionSpec.ones(d),
                                         chi, lams)
        self.assert_same(got, want)
        # the panel cells of a cut cell, and the pieces that evaluate them
        panels = [np.bincount(cell, weights=plain + conj) for cell, _, plain, conj in cuts]
        pieces = [np.bincount(cell) for cell, *_ in cuts]
        assert max(p.max() for p in panels) >= 4 ** moved
        assert max((p - q).max() for p, q in zip(panels, pieces)) > 0

    @pytest.mark.parametrize("text, d, lams, kernel, count", [
        ("x1*x2", 2, lambda_grid(64, 2048, 11), 522_896, 17),
        ("x1^3*x2^3", 2, lambda_grid(64, 2048, 11), 1_288_960, 14),
        ("x1*x2*x3", 3, lambda_grid(64, 1024, 9), 10_916_736, 22),
        # the two 3D templates of the benchmark, whose cells have too few
        # panels to cut
        ("x1*x2*x3", 3, (16.0, 32.0, 64.0), 108_032, 13),
        ("x1^2*x2^2*x3^2 + x1^3*x2*x3", 3, (16.0, 32.0), 180_736, 19),
    ], ids=["x1*x2", "x1^3*x2^3", "x1*x2*x3", "x1*x2*x3-cells", "two-terms-cells"])
    def test_panel_orbits_cut_kernel_nodes(self, monkeypatch, text, d, lams, kernel, count):
        # orthant sweeps; with each self-symmetric cell evaluated whole the
        # kernel ran 771,744, 2,381,616 and 33,067,968 nodes.  The number
        # of kernel calls is pinned too: each costs about 70 us however few
        # its nodes, so the batching must not split.  Cut into batches of
        # at most 2^18 floats, the first three took 23, 27 and 120 calls.
        # The rerun of transition axes below P0(n, e) panels took them to
        # 543,904, 1,299,952, 11,635,648, 151,744 and 258,112 nodes in 21,
        # 18, 30, 20 and 32 calls
        calls = kernel_calls(monkeypatch)
        lambda_sweep(phase(text, d), TestFunctionSpec.ones(d), CHI_POS, lams)
        assert sum(b * math.prod(sizes) for b, sizes in calls) == kernel
        assert len(calls) == count

    @pytest.mark.parametrize("chi", [CHI_POS, CHI], ids=["orthant", "full"])
    def test_rows_of_other_test_functions_keep_the_orbits(self, monkeypatch, chi):
        # a row of distinct boxes, with no swap, adds rules to each axis
        # that the other axis lacks: a cell's rules must rank across axes,
        # or the swap-fixed row beside it takes wrong images and stabilizers
        fs = [TestFunctionSpec.boxes([(-0.3, 0.9), (0.05, 0.8)]), TestFunctionSpec.ones(2)]
        got, want = self.grouped_and_not(monkeypatch, phase("x1^2*x2 - x1*x2^2"), fs, chi,
                                         (512.0, 1024.0))
        self.assert_same(got, want)

    @pytest.mark.parametrize("chi", [CHI_POS, CHI], ids=["orthant", "full"])
    def test_row_without_cells(self, chi):
        # the swap fixes a box outside the support: its row has no cells,
        # alone or beside another row
        box = TestFunctionSpec.boxes([(2.0, 3.0)] * 2)
        r, other = lambda_sweep(phase("x1*x2"), [box, TestFunctionSpec.ones(2)], chi,
                                (50.0, 60.0))
        assert (r.value, r.error, r.nodes) == (0, 0, 0) and other.nodes > 0
        assert fields(evaluate_lambda(phase("x1*x2"), box, chi, 50.0)) == fields(r)

    def test_each_row_takes_its_own_group(self):
        # x1 -> -x1 negates the phase and fixes only the rows whose first
        # factor is even: their reflections merge in conjugate pairs
        p = phase("x1^3*x2 + x1*x2^2")
        fs = TestBatchedRows.FS
        subs = oscint._reflections(p, fs, CHI)
        assert [[sub[2:4] for sub in subs[f]] for f in fs] == [
            [(1, 0)] * 4, [(1, 1)] * 2, [(1, 1)] * 2, [(1, 0)] * 4, [(1, 1)] * 2]
        # a row's sub-rows are its distinct mirrored test functions
        box = fs[2].factors
        assert [g for _, g, *_ in subs[fs[2]]] == [
            fs[2], TestFunctionSpec.of(box[0], FactorSpec(-box[1].b, -box[1].a))]

    def test_trivial_group_changes_nothing(self, monkeypatch):
        # no swap or reflection maps x1^2*x2^2 + x1^5*x2 to plus or minus
        # itself on the orthant: the same kernel calls and results either
        # way (the kernel nodes of symmetric sweeps are pinned in TestSweep)
        calls = kernel_calls(monkeypatch)
        runs = []
        for grouped in (False, True):
            calls.clear()
            with monkeypatch.context() as m:
                if not grouped:
                    ungrouped(m)
                results = lambda_sweep(phase("x1^2*x2^2 + x1^5*x2"), TestFunctionSpec.ones(2),
                                       CHI_POS, (64.0, 256.0, 1024.0))
            runs.append((list(calls), [fields(r) for r in results]))
        assert runs[0] == runs[1]


class TestReflections:
    def test_axis_pieces_stay_on_the_positive_half(self):
        for fac in (FactorSpec(), FactorSpec.box(-0.7, 0.3), FactorSpec.box(0.2, 3.0)):
            assert all(0.0 <= lo < hi <= 1.0 for lo, hi in _axis_pieces(fac, 5))
        assert _axis_pieces(FactorSpec.box(-0.9, -0.1), 5) == []

    @pytest.mark.parametrize("text, d, lams", [
        ("x1*x2", 2, (64.0, 256.0)),
        ("x1*x2*x3", 3, (16.0, 64.0)),
    ])
    def test_full_space_monomial_plans_its_orthant_twin(self, monkeypatch, text, d, lams):
        # every reflection of a monomial is plus or minus the phase: one
        # sub-row, whose cells and kernel calls are the orthant's, while
        # nodes count every orthant.  Planning each orthant took 2^d times
        # the cells
        planned, real = [], oscint._layout

        def spy(*args):
            out = real(*args)
            planned.append(len(out[1]))
            return out

        monkeypatch.setattr(oscint, "_layout", spy)
        calls = kernel_calls(monkeypatch)
        runs = []
        for chi in (CHI_POS, CHI):
            planned.clear()
            calls.clear()
            results = lambda_sweep(phase(text, d), TestFunctionSpec.ones(d), chi, lams)
            runs.append((list(planned), list(calls), [r.nodes for r in results]))
        (cells, kernel, nodes), (full_cells, full_kernel, full_nodes) = runs
        assert full_cells == cells and full_kernel == kernel
        assert full_nodes == [2 ** d * x for x in nodes]

    @pytest.mark.parametrize("text, d, f, lam", [
        # two term-sign patterns, each a sub-row of one plain and one
        # conjugate copy
        ("x1^2*x2 + x1*x2^3", 2, TestFunctionSpec.ones(2), 96.0),
        # x1 -> -x1 leaves the support: those sub-rows have no cells
        ("x1^2*x2 + x1*x2^3", 2, TestFunctionSpec.boxes([(0.2, 0.9), (-0.7, 0.7)]), 96.0),
        ("x1^2*x2*x3 + x1*x3^2", 3, TestFunctionSpec.ones(3), 12.0),
    ], ids=["2d", "2d-box", "3d"])
    def test_full_space_is_the_sum_of_reflected_orthants(self, text, d, f, lam):
        # each orthant sigma as its own positive-orthant run, with the
        # phase's terms times sigma^a and the factors mirrored where
        # sigma_k = -1: the same depths, so the same rules and, to
        # rounding, the same sum
        p = phase(text, d)
        full = evaluate_lambda(p, f, CHI, lam)
        parts = []
        for sigma in product((1, -1), repeat=d):
            turned = PhasePolynomial.from_terms({a: c * math.prod(s ** k for s, k in zip(sigma, a))
                                                 for a, c in p.terms.items()}, d)
            mirrored = TestFunctionSpec.of(*(fac if s > 0 else FactorSpec(-fac.b, -fac.a)
                                             for fac, s in zip(f.factors, sigma)))
            parts.append(evaluate_lambda(turned, mirrored, CHI_POS, lam))
        assert full.nodes == sum(r.nodes for r in parts)
        want = sum(r.value for r in parts)
        assert abs(full.value - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("text", ["-3/2*x1^3*x2 + x1*x2^4 - 5*x1^2*x2^2", "-2*x1*x2^3"])
    def test_term_scales_are_the_turned_phase(self, text):
        # one scale per grid and term: a grid's term signs give, bit for
        # bit, the phase with those signs on its terms at that grid's scale
        p = phase(text)
        rng = np.random.default_rng(3)
        b, sizes = 4, [9, 5]
        axes = [rng.uniform(0.0, 1.0, (b, n)) for n in sizes]
        signs = rng.choice([-1, 1], (b, len(p.terms)))
        scales = 0.5 * 1234.5 * rng.uniform(0.5, 2.0, (b, 1)) * signs
        rows = p.evaluate_tensor(axes, scales, np.full([b] + sizes, np.nan))
        for i in range(b):
            turned = PhasePolynomial.from_terms(
                {a: c * s for (a, c), s in zip(sorted(p.terms.items()), signs[i].tolist())}, 2)
            alone = turned.evaluate_tensor([x[i:i + 1] for x in axes], abs(float(scales[i, 0])),
                                           np.full([1] + sizes, np.nan))
            assert rows[i].tobytes() == alone[0].tobytes()
