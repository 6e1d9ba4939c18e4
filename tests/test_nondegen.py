"""Nondegeneracy verdicts, box floors, rescaling."""
import math
import random
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscdecay import nondegen
from oscdecay.nondegen import (
    DyadicBox,
    NondegenError,
    check_nondegeneracy,
    max_grid,
    mixed_hessian_floor,
    solve_rescaling,
    sweep_hessian_floor,
)
from oscdecay.phase import PhasePolynomial, parse_phase, reduce_phase, restrict_to_face
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


class TestMixedPairs:
    @pytest.mark.parametrize("d", range(2, 7))
    def test_face_pairs_equal_the_general_derivative(self, d):
        rng = random.Random(f"pairs:{d}")
        faces = 0
        for _ in range(10):
            terms = {tuple(rng.randint(0, 4) for _ in range(d)):
                     Fraction(rng.choice([-7, -2, -1, 1, 3, 5]), rng.randint(1, 4))
                     for _ in range(rng.randint(2, 7))}
            terms[(1, 1) + (0,) * (d - 2)] = Fraction(1)  # keeps the reduced phase nonzero
            p = reduce_phase(PhasePolynomial.from_terms(terms, d))
            for face in build_polyhedron(p).faces:
                f = restrict_to_face(p, face)
                want = [g for g in (f.derivative(i, j) for i, j in combinations(range(d), 2))
                        if not g.is_zero()]
                got = nondegen._mixed_pairs(f)
                assert got == want
                assert ([g._float_coefficients for g in got]
                        == [g._float_coefficients for g in want])
                faces += 1
        assert faces >= 10


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

    def test_negative_starts_refused(self):
        with pytest.raises(NondegenError, match="starts"):
            check_nondegeneracy(phase("x1^3*x2 - x1*x2^3"), starts=-1)

    @pytest.mark.parametrize("name, value", [
        ("eta", 1.5), ("eta", 1.0), ("eta", 0.0), ("eta", -1e-3), ("eta", math.nan),
        ("degen_tol", 0.0), ("degen_tol", -1e-10), ("degen_tol", math.inf),
        ("degen_tol", math.nan)])
    def test_resolution_and_tolerance_bounds(self, name, value):
        # the bounds the CLI applies: eta in (0, 1), degen_tol in (0, inf).
        # eta 1.5 used to report this degenerate phase nondegenerate, eta 0
        # to raise numpy's ValueError and eta nan to read inconclusive
        with pytest.raises(NondegenError, match=f"{name} must lie in"):
            check_nondegeneracy(phase("x1^3*x2 - x1*x2^3"), **{name: value})

    @pytest.mark.parametrize("text,d", [("x1^2*x2^2 + x1^5*x2", 2),
                                        ("x1*x2 + x2*x3", 3)])
    def test_certified_faces_select_no_starts(self, monkeypatch, text, d):
        def refuse(*args, **kwargs):
            raise AssertionError("witness starts chosen on a certified face")

        monkeypatch.setattr(nondegen.np, "argsort", refuse)
        monkeypatch.setattr(nondegen.np, "argpartition", refuse)
        assert check_nondegeneracy(phase(text, d)).verdict == "nondegenerate"

    @pytest.mark.parametrize("shape", [(5, 7), (3, 4, 5)])
    def test_start_selection_breaks_ties_by_flat_index(self, shape):
        values = np.random.default_rng(7).integers(0, 4, size=shape).astype(float)
        flat = values.ravel()
        for k in range(1, values.size + 1):
            want = sorted(range(values.size), key=lambda i: (flat[i], i))[:k]
            assert nondegen._smallest_cells(values, k).tolist() == want

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
