"""Quadrature of the oscillatory form: cutoff, factors, parity, certificates."""
import math
import threading
import tracemalloc
import warnings
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import dblquad, quad

from oscdecay import oscint
from oscdecay.decay import dual_lambda_grid, sharpness_test
from oscdecay.exponent import ExponentQuery
from oscdecay.oscint import (
    _STEP_NORM,
    _STEP_ROWS,
    _STEP_W,
    _STEP_X,
    CutoffSpec,
    FactorSpec,
    OscError,
    QuadratureConfig,
    TestFunctionSpec,
    _axis_pieces,
    _axis_rule,
    _depths,
    _evaluate,
    _kernel,
    _merge_reach,
    _panel_counts,
    _plan,
    _rows,
    _sizing,
    bump,
    certificate_sum,
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
    def unmasked_step(u, matvec=False):
        # the formula without the mask: the bump table runs on every node,
        # and np.where discards the plateau results.  matvec=True contracts
        # the table by a BLAS matvec instead, normalized the same way
        u = np.asarray(u, dtype=float)
        uc = np.clip(u, 0.0, 1.0)
        v = uc[..., None] + (1.0 - uc)[..., None] * _STEP_X
        table = bump(2.0 * v - 1.0)
        if matvec:
            norm = float(bump(2.0 * _STEP_X - 1.0) @ _STEP_W)
            out = (1.0 - uc) * (table @ _STEP_W) / norm
        else:
            out = (1.0 - uc) * (table * _STEP_W).sum(axis=-1) / _STEP_NORM
        return np.where(u <= 0.0, 1.0, np.where(u >= 1.0, 0.0, out))

    def test_masked_step_matches_unmasked_formula(self):
        special = np.array([-np.inf, -1.0, -0.0, 0.0, 5e-324, 0.3, 0.5,
                            1.0 - 2.0 ** -53, 1.0, 2.0, np.inf])
        rng = np.random.default_rng(6)
        for u in (special, rng.uniform(-0.5, 1.5, 10_000)):
            got = smooth_step(u)
            m = (u > 0) & (u < 1)
            # plateau and outside nodes: exactly 1.0 and 0.0, bit for bit
            assert got[~m].tobytes() == self.unmasked_step(u)[~m].tobytes()
            # transition nodes: bit for bit the formula on those nodes, and
            # on the whole batch
            assert got[m].tobytes() == self.unmasked_step(u[m]).tobytes()
            assert got.tobytes() == self.unmasked_step(u).tobytes()
            # the BLAS matvec rounds a row by its position in the batch; the
            # per-row sum stays within 4 ulp of it
            whole = self.unmasked_step(u, matvec=True)
            assert np.all(np.abs(got - whole) <= 4 * np.finfo(float).eps * whole)
        assert np.isnan(smooth_step(np.nan))
        assert np.isnan(smooth_step(np.array([0.3, np.nan, 2.0]))).tolist() == [
            False, True, False]

    def test_batch_equals_single_calls(self):
        # a node's weight does not depend on the other nodes of the call
        u = np.random.default_rng(7).uniform(-0.2, 1.2, 1003)
        single = np.array([smooth_step(np.array([x]))[0] for x in u])
        assert smooth_step(u).tobytes() == single.tobytes()

    def test_blocks_equal_single_calls_near_the_ends(self):
        # three full blocks of the bump table and a partial one, with nodes
        # one ulp inside 0 and 1, where rounding puts 2v - 1 at exactly 1:
        # the masked bump must not divide by zero, and no block may leave
        # stale rows in the shared block buffer
        inside = np.random.default_rng(8).uniform(0.0, 1.0, 3 * _STEP_ROWS + 5)
        u = np.concatenate([inside, [np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0)],
                            [-1.0, 0.0, 1.0, 2.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = smooth_step(u)
            single = np.array([smooth_step(np.array([x]))[0] for x in u])
        assert ((u > 0) & (u < 1)).sum() == 3 * _STEP_ROWS + 7
        assert got.tobytes() == single.tobytes()
        t = np.linspace(-1.5, 1.5, 301)
        assert bump(t, out=t.copy()).tobytes() == bump(t).tobytes()
        same = t.copy()
        assert bump(same, out=same) is same and same.tobytes() == bump(t).tobytes()

    def test_plateau_nodes_skip_the_bump_table(self, monkeypatch):
        sizes = []
        real = bump

        def spy(t, out=None):
            sizes.append(np.size(t))
            return real(t, out)

        monkeypatch.setattr("oscdecay.oscint.bump", spy)
        smooth_step(np.array([-np.inf, -2.0, -0.0, 0.0, 1.0, 3.0, np.inf]))
        assert sum(sizes) == 0
        u = np.array([-1.0, 0.25, 0.5, 2.0, 0.75])
        smooth_step(u)
        assert sum(sizes) == 3 * _STEP_X.size
        # a plateau-only piece of the cutoff sends no work either
        sizes.clear()
        CHI.profile(np.linspace(-0.5, 0.5, 97))
        assert sum(sizes) == 0


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
        expected = certificate_sum(p, build_polyhedron(p), q,
                                   (math.sqrt(0.5), math.sqrt(0.5)), 64.0)
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
        # the cells of lam 64 and their rerun, as alone, and nothing else
        p, f = phase("x1*x2"), TestFunctionSpec.ones(2)
        quad_cfg = QuadratureConfig(node_budget=10_000)
        calls = kernel_calls(monkeypatch)
        lone = evaluate_lambda(p, f, CHI_POS, 64.0, quad=quad_cfg)
        lone_nodes = sum(b * math.prod(sizes) for b, sizes in calls)
        calls.clear()
        sweep = lambda_sweep(p, f, CHI_POS, (64.0, 256.0, 512.0), quad=quad_cfg)
        assert sum(b * math.prod(sizes) for b, sizes in calls) == lone_nodes >= lone.nodes > 0
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

        def counting(self, t):
            calls.append(t)
            return original(self, t)

        monkeypatch.setattr(CutoffSpec, "profile", counting)
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
    of the plan of (f, chi) cut to `depths` (to `levels` on every axis if
    not given), cells in product order, with the plateau mask `analytic` if
    given."""
    grads = [p.derivative(k).absolute() for k in range(p.dimension)]
    depths = (chi.levels,) * p.dimension if depths is None else depths
    *sizing, own = _sizing(grads, *_plan(f, chi, depths))
    sizing.append(own if analytic is None else analytic)
    return _panel_counts([lam] * len(sizing[3]), sizing, quad)


def depths_of(p, f, chi, lams, quad=QuadratureConfig()):
    """`_depths` of the rows at `lams`: their depths and merged-piece orders."""
    return _depths([p.derivative(k).absolute() for k in range(p.dimension)], f, chi, lams, quad)


def row_pieces(p, f, chi, lam, quad=QuadratureConfig()):
    """The pieces of each axis of the row at lam, cut to its depths, and the
    depths and merged-piece orders (`_depths`)."""
    (depths,), (merged,) = depths_of(p, f, chi, [lam], quad)
    pieces = [_axis_pieces(chi, fac, depth) for fac, depth in zip(f.factors, depths.tolist())]
    return pieces, depths.tolist(), merged.tolist()


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
        rules = [_axis_rule(lo, hi, c, e, *np.polynomial.legendre.leggauss(n), chi)
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

    def test_tiny_chunk_batches_and_slices(self, monkeypatch):
        calls = []
        real = _kernel

        def spy(p, lam, axes, weights):
            calls.append((axes[0].shape[0], tuple(x.shape[1] for x in axes)))
            return real(p, lam, axes, weights)

        monkeypatch.setattr("oscdecay.oscint._kernel", spy)
        p = phase("x1*x2*x3", 3)
        f = TestFunctionSpec.ones(3)
        # at lam 128 the largest cells (32^3 and 24^3 nodes) exceed the chunk
        a = evaluate_lambda(p, f, CHI_POS, 128.0)
        wide = len(calls)
        calls.clear()
        monkeypatch.setattr(oscint, "_CHUNK", 5000)
        b = evaluate_lambda(p, f, CHI_POS, 128.0)
        assert len(calls) > wide
        # no call exceeds the chunk, yet some hold several cells
        assert all(batch * math.prod(shape) <= 5000 for batch, shape in calls)
        assert any(batch > 1 for batch, _ in calls)
        # a whole axis has a multiple of 4 nodes (orders 4 to 32 and the
        # rerun orders 12, 20 and 28), so this is a cell above the chunk cut
        # along axis 0
        assert any(shape[0] % 4 for _, shape in calls)
        assert b.nodes == a.nodes
        assert abs(b.value - a.value) <= 1e-13 * abs(a.value)

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

    def test_panel_counts_match_scalar_bounds(self):
        # awkward clips and high powers: the grid evaluation must round
        # exactly like one corner at a time
        chi = CutoffSpec(positive_orthant=False, levels=5)
        f = TestFunctionSpec.of(FactorSpec.box(-0.33, 0.61),
                                FactorSpec.box(-0.52, 0.47),
                                FactorSpec.box(-0.45, 0.123))
        p = phase("3*x1^7*x2 + 1/3*x1*x2^5*x3^3 + x2^2*x3^9", 3)
        pieces = [_axis_pieces(chi, fac, chi.levels) for fac in f.factors]
        grads = [p.derivative(k).absolute() for k in range(3)]
        top = [max(a[k] for a in p.terms) for k in range(3)]
        # on the plateau |t| <= 1/2 the integrand is analytic
        analytic = np.array([[max(abs(lo), abs(hi)) <= 0.5 for lo, hi in cell]
                             for cell in product(*pieces)])
        seen, mapped = set(), set()
        for quad_cfg in [QuadratureConfig(waves_per_panel=0.37), QuadratureConfig()]:
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
                    mags = [max(abs(lo), abs(hi)) for lo, hi in cell]
                    for k, (lo, hi) in enumerate(cell):
                        turns = (abs(lam) * grads[k].evaluate(mags)
                                 * (hi - lo) / (2.0 * math.pi))
                        # equal panels: the fewest nodes among 16, 24 and 32,
                        # and on the plateau also 4, 8 and 12; ties to the
                        # lower order
                        plateau = max(abs(lo), abs(hi)) <= 0.5
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
                        a, b = sorted((abs(lo), abs(hi)))
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
        nodes, weights = _axis_rule(lo, hi, panels, 1, gx, gw, CHI)
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
            nodes, weights = _axis_rule(lo, hi, panels, e, gx, gw, CHI)
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
        chi = CutoffSpec(positive_orthant=False, levels=5)
        f = TestFunctionSpec.of(FactorSpec.box(-0.33, 0.61),
                                FactorSpec.box(-0.52, 0.47),
                                FactorSpec.box(-0.45, 0.123))
        p = phase(text, 3)
        grads = [p.derivative(k).absolute() for k in range(3)]
        top = [max(a[k] for a in p.terms) for k in range(3)]
        pieces, cells = _plan(f, chi, (chi.levels,) * 3)
        bounds, spans, ratios, analytic = _sizing(grads, pieces, cells)
        with np.errstate(invalid="ignore"):
            rates = bounds * spans / (2.0 * math.pi)
        assert rates.shape == (min(5, max(top)), len(cells), 3)
        for i, cell in enumerate(product(*pieces)):
            mags = [max(abs(lo), abs(hi)) for lo, hi in cell]
            for k, (lo, hi) in enumerate(cell):
                a, b = sorted((abs(lo), abs(hi)))
                assert ratios[i, k] == (b / a if a else math.inf)
                assert analytic[i, k] == (b <= 0.5)
                # equal panels: the bound at the corner, scaled by the width
                assert rates[0, i, k] == grads[k].evaluate(mags) * (hi - lo) / (2.0 * math.pi)
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


def same_result(a, b):
    (ra, va, _), (rb, vb, _) = a, b
    return (ra.value == rb.value and ra.error == rb.error and ra.nodes == rb.nodes
            and va.tolist() == vb.tolist())


class TestWorkspace:
    # a large batch shape, a small one and a 3D one, all orthant
    CASES = [("x1^3*x2^3", 2, 2048.0), ("x1*x2", 2, 8.0), ("x1*x2*x3", 3, 16.0)]

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
        cases = [self.CASES[0], self.CASES[2]]
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
        # full-size arrays (one pair of 2^18-node kernel buffers is 4 MiB)
        args = (phase(text, d), TestFunctionSpec.ones(d), CHI_POS, lam)
        evaluate_lambda(*args)
        tracemalloc.start()
        try:
            evaluate_lambda(*args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2 ** 20


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
            assert ((0.01, 2.0 ** -level) in _axis_pieces(CHI, f.factors[0], level)) == want

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
        one = certificate_sum(p, n, q, (1.0, 1.0), 9.0)
        two = certificate_sum(p, n, q, (2.0, 3.0), 9.0)
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

    @pytest.mark.parametrize("text, d, lams, kernel", [
        ("x1*x2", 2, (64.0,), 5_072),
        ("x1*x2*x3", 3, (16.0, 32.0, 64.0), 428_224),
        ("x1^2*x2^2*x3^2 + x1^3*x2*x3", 3, (16.0, 32.0), 373_056),
    ])
    def test_rerun_keeps_unresolved_transition_cells(self, monkeypatch, text, d, lams, kernel):
        # at these frequencies no transition axis has as many panels as the
        # table resolves, so the kernel runs exactly the nodes of a rerun on
        # every cell with an axis on [1/2, 1] (and on no other: a merged
        # piece at order 16 lies on the plateau); on the octave layout to
        # `levels` it ran 8,224, 1,283,776 and 873,088
        calls = kernel_calls(monkeypatch)
        lambda_sweep(phase(text, d), TestFunctionSpec.ones(d), CHI_POS, lams)
        assert sum(b * math.prod(sizes) for b, sizes in calls) == kernel

    @pytest.mark.parametrize("chi, f", [
        (CHI, TestFunctionSpec.boxes([(-0.9, 0.7), (-0.6, 0.95)])),
        (CHI_POS, TestFunctionSpec.of(FactorSpec.box(0.0, 0.9), FactorSpec.box(0.0, 0.8))),
    ])
    def test_rerun_keeps_transition_cells_the_table_was_not_calibrated_for(
            self, monkeypatch, chi, f):
        # the table holds for the whole transition piece [1/2, 1]: on a
        # piece clipped by a factor, on either side of 0, every transition
        # cell is rerun, as if the table resolved no order
        calls = kernel_calls(monkeypatch)
        key = (QuadratureConfig().order, QuadratureConfig().waves_per_panel)
        kernel = []
        for table in (oscint._TRANSITION_PANELS, {key: ()}):
            monkeypatch.setattr(oscint, "_TRANSITION_PANELS", table)
            calls.clear()
            lambda_sweep(phase("x1*x2"), f, chi, (1024.0, 2048.0))
            kernel.append(sum(b * math.prod(sizes) for b, sizes in calls))
        assert kernel[0] == kernel[1]

    def test_rerun_reads_the_table_at_each_axis_map_exponent(self, monkeypatch):
        # at these frequencies some transition axes take e = 2 or 3 with
        # more panels than P0(n, e): the shipped table resolves them, and
        # one without rows for e > 1 reruns their cells
        calls = kernel_calls(monkeypatch)
        key = (QuadratureConfig().order, QuadratureConfig().waves_per_panel)
        shipped = oscint._TRANSITION_PANELS
        kernel = []
        for table in (shipped, {key: shipped[key][:1]}):
            monkeypatch.setattr(oscint, "_TRANSITION_PANELS", table)
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

    @pytest.mark.parametrize("waves, lam, kernel, error", [
        (2.0, 256.0, 49_440, 8.209120413601127e-09),
        (0.5, 64.0, 29_808, 3.485047506192388e-08),
    ])
    def test_rule_without_table_entry_reruns_every_cell_at_order(
            self, monkeypatch, waves, lam, kernel, error):
        # no panel count resolves the transition for these rules, whose
        # targets lie below the float floor: every cell with an axis at
        # order 16 or above keeps its rerun, plateau-only ones too, and err
        # is what that rerun gives
        calls = kernel_calls(monkeypatch)
        r = evaluate_lambda(phase("x1*x2"), TestFunctionSpec.ones(2), CHI_POS, lam,
                            quad=QuadratureConfig(waves_per_panel=waves))
        assert sum(b * math.prod(sizes) for b, sizes in calls) == kernel
        assert r.error == pytest.approx(error, rel=1e-9)

    @pytest.mark.parametrize("text, lams", [
        ("x1*x2*x3", (16.0, 32.0, 64.0)),
        ("x1^2*x2^2*x3^2 + x1^3*x2*x3", (16.0, 32.0)),
    ])
    def test_batches_keep_workspace_within_chunk(self, monkeypatch, text, lams):
        # a call of several cells needs 2*b*m*(n + 1) workspace floats, for
        # n nodes on the last axis and m on the others
        calls = kernel_calls(monkeypatch)
        lambda_sweep(phase(text, 3), TestFunctionSpec.ones(3), CHI_POS, lams)
        chunk = oscint._CHUNK
        several = [2 * b * math.prod(sizes[:-1]) * (sizes[-1] + 1)
                   for b, sizes in calls if b > 1]
        assert several and max(several) <= chunk


def kernel_calls(monkeypatch):
    """A list that gets (cells, nodes per axis) for every kernel call from now on."""
    calls = []
    real = oscint._kernel

    def spy(p, lam, axes, weights):
        calls.append((axes[0].shape[0], [x.shape[1] for x in axes]))
        return real(p, lam, axes, weights)

    monkeypatch.setattr(oscint, "_kernel", spy)
    return calls


def count_rule_builds(monkeypatch):
    """A list that gets one entry per per-axis rule built from now on."""
    calls = []
    original = oscint._axis_rule

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(oscint, "_axis_rule", counting)
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
        sweep = lambda_sweep(p, f, chi, lams, quad=quad, certify=True)
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
        # the sweep's 97 distinct rules, keyed by (lo, hi, panels, order, e),
        # each built once, merged pieces at each depth too; on the octave
        # layout to `levels` there were 92, and a rerun on every cell with an
        # axis at order 16 or above built 108
        calls = count_rule_builds(monkeypatch)
        lambda_sweep(phase("x1*x2"), TestFunctionSpec.ones(2), CHI_POS,
                     lambda_grid(64, 2048, 11))
        keys = [(lo, hi, panels, len(gx), e) for lo, hi, panels, e, gx, _, _ in calls]
        assert len(keys) == len(set(keys)) == 97


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
        sweep = lambda_sweep(p, self.FS, CHI, self.LAMS, quad=quad, certify=True)
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
