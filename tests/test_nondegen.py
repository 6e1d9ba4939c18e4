"""Nondegeneracy verdicts, box floors/ceilings, rescaling, domination."""
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscdecay.nondegen import (
    DyadicBox,
    NondegenError,
    check_nondegeneracy,
    dominant_face,
    max_grid,
    mixed_hessian_floor,
    solve_rescaling,
    subdivide_box,
    sweep_derivative_ceiling,
    sweep_hessian_floor,
)
from oscdecay.phase import parse_phase, reduce_phase
from oscdecay.polytope import build_polyhedron
from oscdecay.ratlin import dot


def phase(text, d=2):
    return reduce_phase(parse_phase(text, d))


class TestDyadicBox:
    def test_fields(self):
        b = DyadicBox((2, 3))
        assert b.eps == (Fraction(1, 4), Fraction(1, 8))
        assert b.lo == (Fraction(1, 4), Fraction(1, 8))
        assert b.hi == (Fraction(2), Fraction(1))
        assert b.scale_exponent((2, 2)) == 10

    def test_validation(self):
        with pytest.raises(NondegenError):
            DyadicBox((-1, 0))
        with pytest.raises(NondegenError):
            DyadicBox(())
        assert DyadicBox.of([1, 2]).j == (1, 2)


class TestNondegeneracyVerdicts:
    def test_plain_product(self):
        rep = check_nondegeneracy(phase("x1*x2"))
        assert rep.verdict == "nondegenerate"
        assert rep.margin == 1.0

    def test_squared_product(self):
        rep = check_nondegeneracy(phase("x1^2*x2^2"))
        assert rep.verdict == "nondegenerate"
        assert rep.margin > 0

    def test_two_vertex_phase(self):
        rep = check_nondegeneracy(phase("x1^2*x2^2 + x1^5*x2"))
        assert rep.verdict == "nondegenerate"
        assert len(rep.faces) == 3
        assert all(f.verdict == "nondegenerate" for f in rep.faces)

    def test_degenerate_edge(self):
        rep = check_nondegeneracy(phase("x1^3*x2 - x1*x2^3"))
        assert rep.verdict == "degenerate"
        by_dim = {f.face_dim: f for f in rep.faces if f.verdict == "degenerate"}
        assert list(by_dim) == [1]
        w = by_dim[1].witness
        assert w is not None and min(w) > 0
        assert abs(w[0] - w[1]) <= 1e-8  # zero set is the diagonal
        assert by_dim[1].witness_value <= 1e-8

    def test_no_refinement_starts_gives_inconclusive(self):
        rep = check_nondegeneracy(phase("x1^3*x2 - x1*x2^3"), starts=0)
        assert rep.verdict == "inconclusive"
        assert rep.witness is None

    def test_three_dim_chain(self):
        rep = check_nondegeneracy(phase("x1*x2 + x2*x3", 3))
        assert rep.verdict == "nondegenerate"

    def test_requires_reduced(self):
        with pytest.raises(NondegenError):
            check_nondegeneracy(parse_phase("x1*x2", 2))

    def test_face_sweep_cap(self):
        # d * (grid - 1)^(d - 1) cells per face: grid 64 fits up to d = 4,
        # grid 32 in d = 5; a larger grid is refused before any sweep
        assert max_grid(4) >= 64 and 32 <= max_grid(5) < 64
        with pytest.raises(NondegenError, match="largest grid that fits is"):
            check_nondegeneracy(phase("x1*x2*x3*x4*x5", 5), grid=64)

    def test_json_shape(self):
        doc = check_nondegeneracy(phase("x1*x2")).to_json_dict()
        assert doc["verdict"] == "nondegenerate"
        assert doc["faces"][0]["face_dim"] == 0


class TestMixedHessianFloor:
    def test_product_exact_on_corner(self):
        p = phase("x1*x2")
        for j in [(0, 0), (2, 3), (5, 1)]:
            fl = mixed_hessian_floor(p, DyadicBox(j))
            assert fl.value == 2.0 ** (-j[0] - j[1])
            assert fl.point == (2.0 ** -j[0], 2.0 ** -j[1])

    def test_squared_product_exact(self):
        fl = mixed_hessian_floor(phase("x1^2*x2^2"), DyadicBox((2, 2)))
        assert fl.value == 4 * 0.25 ** 4

    def test_degenerate_square_box_hits_diagonal(self):
        fl = mixed_hessian_floor(phase("x1^3*x2 - x1*x2^3"), DyadicBox((3, 3)))
        assert fl.value == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(NondegenError):
            mixed_hessian_floor(phase("x1*x2"), DyadicBox((1, 1, 1)))

    @given(st.tuples(st.integers(1, 4), st.integers(1, 4)),
           st.tuples(st.integers(0, 6), st.integers(0, 6)),
           st.tuples(st.integers(0, 6), st.integers(0, 6)))
    def test_monomial_scale_covariance(self, alpha, j1, j2):
        # for a monomial the floor sits at the lower corner, so the ratio of
        # floors across boxes is exactly the ratio of corner monomials
        p = phase(f"x1^{alpha[0]}*x2^{alpha[1]}")
        f1 = mixed_hessian_floor(p, DyadicBox(j1))
        f2 = mixed_hessian_floor(p, DyadicBox(j2))
        expected = 2.0 ** (dot(alpha, j2) - dot(alpha, j1))
        assert f1.value / f2.value == pytest.approx(expected, rel=1e-12)


class TestFloorSweep:
    def test_product_ratio_is_one_everywhere(self):
        sweep = sweep_hessian_floor(phase("x1*x2"), jmax=6)
        assert sweep.floor_constant == 1.0
        assert all(r.ratio == 1.0 for r in sweep.rows)
        assert sweep.verdict == "PASS"

    def test_two_vertex_phase_regression_value(self):
        # worst box j = (10, 0): corner ratio 4 + 5 * 2^-30, exact in floats
        sweep = sweep_hessian_floor(phase("x1^2*x2^2 + x1^5*x2"), jmax=10, grid=16)
        assert sweep.floor_constant == pytest.approx(4 + 5 * 2.0 ** -30, rel=1e-12)
        assert sweep.worst.j == (10, 0)
        assert sweep.verdict == "PASS"

    def test_stability_under_grid_doubling(self):
        p = phase("x1^2*x2^2 + x1^5*x2")
        a = sweep_hessian_floor(p, jmax=10, grid=16).floor_constant
        b = sweep_hessian_floor(p, jmax=10, grid=32).floor_constant
        assert abs(a - b) <= 0.1 * a

    def test_degenerate_phase_fails(self):
        p = phase("x1^3*x2 - x1*x2^3")
        coarse = sweep_hessian_floor(p, jmax=6, grid=16)
        fine = sweep_hessian_floor(p, jmax=6, grid=32)
        assert coarse.verdict == "FAIL"
        assert fine.floor_constant <= coarse.floor_constant / 10


class TestCeilingSweep:
    def test_product_exact(self):
        sweep = sweep_derivative_ceiling(phase("x1*x2"), jmax=6)
        assert sweep.ceiling_constant == 64.0
        assert sweep.verdict == "PASS"

    def test_two_vertex_phase_finite_and_stable(self):
        p = phase("x1^2*x2^2 + x1^5*x2")
        a = sweep_derivative_ceiling(p, jmax=6, grid=8).ceiling_constant
        b = sweep_derivative_ceiling(p, jmax=6, grid=16).ceiling_constant
        assert math.isfinite(a) and math.isfinite(b)
        assert abs(a - b) <= 0.1 * a

    def test_zero_order_included(self):
        sweep = sweep_derivative_ceiling(phase("x1*x2"), jmax=3, order_cap=0)
        assert sweep.ceiling_constant == 64.0


class TestSubdivision:
    def test_product_needs_no_split(self):
        sub = subdivide_box(phase("x1*x2"), DyadicBox((0, 0)), floor_ratio=1.0)
        assert sub.ok and sub.levels == 0
        assert len(sub.cells) == 1 and sub.cells[0].pair == (0, 1)
        assert sub.threshold == 0.5

    def test_two_vertex_phase_small_box(self):
        sub = subdivide_box(phase("x1^2*x2^2 + x1^5*x2"), DyadicBox((4, 4)))
        assert sub.ok and sub.levels <= 3
        assert len(sub.cells) == 4 ** sub.levels

    def test_degenerate_box_inconclusive(self):
        sub = subdivide_box(phase("x1^3*x2 - x1*x2^3"), DyadicBox((3, 3)),
                            max_levels=3)
        assert not sub.ok and sub.levels is None

    def test_three_dim(self):
        sub = subdivide_box(phase("x1*x2 + x2*x3", 3), DyadicBox((1, 1, 1)))
        assert sub.ok
        for cell in sub.cells:
            i, j = cell.pair
            assert 0 <= i < j < 3

    def test_cells_tile_the_box(self):
        box = DyadicBox((2, 2))
        sub = subdivide_box(phase("x1^2*x2^2 + x1^5*x2"), box)
        assert sub.ok
        parts = 2 ** sub.levels
        assert len(sub.cells) == parts ** 2
        for cell in sub.cells:
            for k in range(2):
                width = (box.hi[k] - box.lo[k]) / parts
                assert cell.lo[k] == box.lo[k] + cell.index[k] * width
                assert cell.hi[k] == cell.lo[k] + width


class TestRescaling:
    def test_reference_row_is_identity(self):
        r = solve_rescaling([(2, 2)], (2, 2), DyadicBox((2, 6)), Fraction(1, 256))
        assert r.y == (1.0, 1.0) and r.rho == Fraction(1, 2)

    def test_underdetermined_uses_leading_column(self):
        r = solve_rescaling([(2, 2)], (5, 1), DyadicBox((2, 6)), Fraction(1, 256))
        assert r.basis == (0,)
        assert r.log2_y[1] == 0  # off-basis component pinned to 1

    def test_full_system(self):
        r = solve_rescaling([(2, 2), (5, 1)], (2, 2), DyadicBox((3, 1)),
                            Fraction(1, 256))
        assert r.log2_y == (Fraction(-2), Fraction(2))
        assert r.rho == Fraction(7, 8)
        assert r.bound == pytest.approx(2.0 ** -7)

    def test_error_cases(self):
        box = DyadicBox((1, 1))
        with pytest.raises(NondegenError):
            solve_rescaling([(1, 1), (2, 2)], (1, 1), box, Fraction(1, 4))
        with pytest.raises(NondegenError):
            solve_rescaling([(1, 1)], (1, 1), box, Fraction(3, 2))
        with pytest.raises(NondegenError):
            # eps^(alpha-beta) = 2^2 > 1 violates the sandwich
            solve_rescaling([(1, 1)], (2, 2), DyadicBox((1, 1)), Fraction(1, 4))

    @given(st.data())
    @settings(max_examples=60)
    def test_random_instances_exact(self, data):
        d = data.draw(st.integers(2, 4))
        m = data.draw(st.integers(1, d))
        rows = []
        for _ in range(40):
            cand = tuple(data.draw(st.integers(0, 8)) for _ in range(d))
            from oscdecay.ratlin import rank
            if any(cand) and rank([list(r) for r in rows + [cand]]) == len(rows) + 1:
                rows.append(cand)
            if len(rows) == m:
                break
        if len(rows) < m:
            return
        j = tuple(data.draw(st.integers(0, 6)) for _ in range(d))
        box = DyadicBox(j)
        cands = rows + [tuple(data.draw(st.integers(0, 8)) for _ in range(d))]
        beta = min(cands, key=lambda a: dot(a, j))
        v = [dot(beta, j) - dot(a, j) for a in rows]
        s = max(1, max(-x for x in v)) if v else 1
        kappa = Fraction(1, 2 ** s)
        r = solve_rescaling(rows, beta, box, kappa)
        # the defining equations, exactly, in log2 coordinates
        for a, vk in zip(rows, v):
            assert dot(a, r.log2_y) == vk
        # y in [b, 1/b]^d via |log2 y_i| <= rho * s, checked exactly
        for u in r.log2_y:
            assert abs(u) <= r.rho * s
        # convex-combination consistency on the solved rows
        lam = [data.draw(st.fractions(min_value=0, max_value=1)) for _ in rows]
        tot = sum(lam)
        if tot:
            lam = [x / tot for x in lam]
            mix = [sum(l * a[k] for l, a in zip(lam, rows)) for k in range(d)]
            assert dot(mix, r.log2_y) == sum(l * vk for l, vk in zip(lam, v))


class TestDominantFace:
    def test_single_vertex_always_dominates(self):
        n = build_polyhedron(phase("x1*x2"))
        res = dominant_face(n, DyadicBox((5, 7)))
        assert res.dominated and res.order == 0 and res.gap is None

    def test_edge_domination(self):
        n = build_polyhedron(phase("x1^2*x2^2 + x1^5*x2"))
        res = dominant_face(n, DyadicBox((1, 3)))
        assert res.dominated and res.order == 1
        assert {tuple(v) for v in res.face.vertices} == {(2, 2), (5, 1)}

    def test_vertex_domination_with_gap(self):
        n = build_polyhedron(phase("x1^2*x2^2 + x1^5*x2"))
        res = dominant_face(n, DyadicBox((3, 3)))
        assert res.dominated and res.order == 0 and res.gap == 6
        assert res.face.vertices == ((2, 2),)

    def test_gap_below_threshold_rejected(self):
        n = build_polyhedron(phase("x1^2*x2^2 + x1^5*x2"))
        res = dominant_face(n, DyadicBox((3, 3)),
                            thresholds=[Fraction(1, 128), Fraction(1, 16)])
        assert not res.dominated

    def test_tied_vertices_without_common_face(self):
        n = build_polyhedron(phase("x1^4*x2 + x1^2*x2^2 + x1*x2^4"))
        res = dominant_face(n, DyadicBox((0, 0)))
        assert not res.dominated

    @given(st.tuples(st.integers(0, 8), st.integers(0, 8)))
    def test_permutation_invariance(self, j):
        n1 = build_polyhedron(phase("x1^2*x2^2 + x1^5*x2"))
        n2 = build_polyhedron(phase("x1^2*x2^2 + x1*x2^5"))
        r1 = dominant_face(n1, DyadicBox(j))
        r2 = dominant_face(n2, DyadicBox((j[1], j[0])))
        assert r1.dominated == r2.dominated and r1.order == r2.order
        if r1.dominated:
            swapped = {(v[1], v[0]) for v in r2.face.vertices}
            assert {tuple(v) for v in r1.face.vertices} == swapped
