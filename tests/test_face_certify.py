"""Face certification (sign test, then the full grid) against the frozen
full-grid oracle."""
import itertools
import random

import numpy as np
import pytest

import oracle_nondegen as oracle
from oscdecay import nondegen
from oscdecay.nondegen import check_nondegeneracy
from oscdecay.phase import PhasePolynomial, parse_phase, reduce_phase, restrict_to_face
from oscdecay.polytope import build_polyhedron

ETA = 1e-3

# the seed-0 pass-0 `d4.check` phase of the benchmark's geometry workload
D4_CHECK = ("-63/64*x1^3*x4 - 63/64*x3^2*x4^2 + 63/64*x1*x3^2*x4 + 63/64*x1^2*x3^2"
            " + 63/64*x1*x2*x4^2 + 63/64*x1^3*x2 + 63/64*x2^2*x4^2 + 63/64*x2^2*x3^2")


def shell_phase(rng: random.Random, d: int) -> PhasePolynomial:
    """A signed random subset of a homogeneous shell: faces of several terms
    with mixed signs, so some certify on the grid and some fail."""
    degree = rng.randint(3, 7 if d == 2 else 5)
    shell = [a for a in itertools.product(range(degree + 1), repeat=d)
             if sum(a) == degree and sum(e > 0 for e in a) >= 2]
    support = rng.sample(shell, min(len(shell), rng.randint(2, 8)))
    return reduce_phase(PhasePolynomial(
        d, {a: rng.choice([-3, -2, -1, 1, 2, 3]) for a in support}))


def pairs_of(p, face):
    return nondegen._mixed_pairs(restrict_to_face(p, face))


def single_signed(pairs) -> bool:
    return any(len({c > 0 for c in g.terms.values()}) == 1 for g in pairs)


CASES = [(seed, d) for d in (2, 3, 4) for seed in range(40)]


class TestAgainstFullGrid:
    @pytest.fixture(scope="class")
    def outcomes(self):
        rows = []
        for seed, d in CASES:
            rng = random.Random(f"face-certify:{d}:{seed}")
            p = shell_phase(rng, d)
            grid = rng.randint(8, 64)
            for face in build_polyhedron(p).faces:
                pairs = pairs_of(p, face)
                got = nondegen._check_face(p, face, grid, ETA, 0.0, 1e-10, 8)
                visited = nondegen._certify(pairs, d, grid, ETA, 0.0)[2]
                rows.append((p, face, grid, pairs, got, visited))
        return rows

    def test_verdicts_margins_and_witnesses_equal_the_oracle(self, outcomes):
        compared = 0
        for p, face, grid, pairs, got, visited in outcomes:
            if single_signed(pairs):
                continue
            want = oracle.check_face(p, face, grid, ETA)
            assert (got.verdict, got.margin, got.witness, got.witness_value) == \
                want, (p.terms, face.normal, grid)
            assert visited == p.dimension * (grid - 1) ** (p.dimension - 1)
            compared += 1
        kinds = {row[4].verdict for row in outcomes if not single_signed(row[3])}
        # the sample holds faces that fail as well as faces that certify
        assert compared >= 60 and {"nondegenerate", "degenerate"} <= kinds

    def test_single_signed_faces_are_nondegenerate(self, outcomes):
        signed = [row for row in outcomes if single_signed(row[3])]
        assert signed
        for p, face, grid, pairs, got, visited in signed:
            assert got.verdict == "nondegenerate"
            assert visited == p.dimension

    def test_cell_bounds_are_the_full_grid_bits(self, outcomes):
        compared = 0
        for p, face, grid, pairs, got, _ in outcomes:
            if single_signed(pairs):
                continue  # certified by sign, no bounds taken
            d = p.dimension
            nodes = np.geomspace(ETA, 1.0, grid)
            absgrads = [[g.derivative(k).absolute() for k in range(d)] for g in pairs]
            for m in range(d):
                valmax, bound = nondegen._cell_bounds(pairs, absgrads, nodes, d, m)
                want_val, want_bound = oracle.cell_bounds(pairs, d, grid, ETA, m)
                assert np.array_equal(valmax, want_val)
                assert np.array_equal(bound, want_bound)
            compared += 1
        assert compared >= 60


class TestKnownFaces:
    def test_diagonal_zero_on_the_slice_corner_stays_degenerate(self):
        # d1 d2 = 6 (x2 - x1) vanishes at the slice corner (1, 1), where the
        # Lipschitz bound of the corner cell is tight
        p = reduce_phase(parse_phase("3*x1*x2^2 - 3*x1^2*x2", 2))
        for grid in (8, 31, 39, 64):
            rep = check_nondegeneracy(p, grid=grid)
            assert rep.verdict == "degenerate"

    def test_scale_artifact_monomial_is_certified_by_sign(self):
        p = reduce_phase(parse_phase("x1^12*x2^12", 2))
        face, = build_polyhedron(p).faces
        # the full grid took 144 x1^11 x2^11 ~ 3e-31 at x1 = 0.001 for a zero
        assert oracle.check_face(p, face)[0] == "degenerate"
        assert check_nondegeneracy(p).verdict == "nondegenerate"

    def test_sign_test_does_not_stand_in_for_a_positive_tol(self):
        # one sign proves |g| > 0 only; with tol = 1e-3 the face goes to the
        # grid, where 144 x1^11 x2^11 falls far below tol
        p = reduce_phase(parse_phase("x1^12*x2^12", 2))
        face, = build_polyhedron(p).faces
        got = nondegen._check_face(p, face, 64, ETA, 1e-3, 1e-10, 8)
        assert got.verdict != "nondegenerate"
        assert (got.verdict, got.margin, got.witness, got.witness_value) == \
            oracle.check_face(p, face, tol=1e-3)
        assert check_nondegeneracy(p, tol=1e-3).verdict != "nondegenerate"

    def test_positive_tol_on_a_one_signed_face_is_checked_on_every_cell(self):
        # d1 d2 (x1*x2) = 1 clears tol = 0.5 on every cell of both slices
        p = reduce_phase(parse_phase("x1*x2", 2))
        face, = build_polyhedron(p).faces
        certified, margin, visited = nondegen._certify(pairs_of(p, face), 2, 64,
                                                       ETA, 0.5)
        assert certified and margin == 1.0 and visited == 2 * 63


class TestCost:
    def test_benchmark_d4_faces_visit_at_most_d_boxes(self):
        p = reduce_phase(parse_phase(D4_CHECK, 4))
        faces = build_polyhedron(p).faces
        assert len(faces) == 31
        for face in faces:
            certified, margin, visited = nondegen._certify(pairs_of(p, face), 4, 64,
                                                           ETA, 0.0)
            assert certified and margin > 0 and visited <= 4

    @pytest.mark.parametrize("text,d,grid", [
        ("x1^3*x2 - x1^2*x2^2 + x1*x2^3", 2, 64),
        ("x1*x3^4 + 2*x1^2*x3^3 - 3*x2^4*x3 - x1^2*x2^2*x3 + x2^2*x3^3"
         " - x1^2*x2*x3^2 + 2*x1*x2*x3^3", 3, 48),
    ])
    def test_mixed_sign_face_visits_each_cell_once(self, text, d, grid):
        p = reduce_phase(parse_phase(text, d))
        face = next(f for f in build_polyhedron(p).faces if f.dim == d - 1)
        pairs = pairs_of(p, face)
        assert not single_signed(pairs)
        certified, _, visited = nondegen._certify(pairs, d, grid, ETA, 0.0)
        assert certified
        assert visited == d * (grid - 1) ** (d - 1)
