"""Face certification (sign test, then one sweep per orientation of the
full grid) against the frozen full-grid oracle."""
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


def check_counting_sweeps(p, face, grid, tol=0.0):
    """`_check_face`, and the cells of each slice sweep (`_cell_bounds`) it
    made."""
    sizes = []
    sweep = nondegen._cell_bounds

    def counted(*args):
        valmax, bound = sweep(*args)
        sizes.append(bound.size)
        return valmax, bound

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nondegen, "_cell_bounds", counted)
        got = nondegen._check_face(p, face, grid, ETA, tol, 1e-10, 8)
    return got, sizes


CASES = [(seed, d) for d in (2, 3, 4) for seed in range(40)]

# faces of dimension d - 1 whose pairs have mixed signs and certify on the grid
CERTIFIED_MIXED_SIGN = [
    ("x1^3*x2 - x1^2*x2^2 + x1*x2^3", 2, 64),
    ("x1*x3^4 + 2*x1^2*x3^3 - 3*x2^4*x3 - x1^2*x2^2*x3 + x2^2*x3^3"
     " - x1^2*x2*x3^2 + 2*x1*x2*x3^3", 3, 48),
]


class TestAgainstFullGrid:
    @pytest.fixture(scope="class")
    def outcomes(self):
        rows = []
        for seed, d in CASES:
            rng = random.Random(f"face-certify:{d}:{seed}")
            p = shell_phase(rng, d)
            grid = rng.randint(8, 64)
            for face in build_polyhedron(p).faces:
                got, sizes = check_counting_sweeps(p, face, grid)
                rows.append((p, face, grid, pairs_of(p, face), got, sizes))
        return rows

    def test_verdicts_margins_and_witnesses_equal_the_oracle(self, outcomes):
        compared = 0
        for p, face, grid, pairs, got, sizes in outcomes:
            if single_signed(pairs):
                continue
            want = oracle.check_face(p, face, grid, ETA)
            assert (got.verdict, got.margin, got.witness, got.witness_value) == \
                want, (p.terms, face.normal, grid)
            # one sweep per orientation, each over all (grid - 1)^(d - 1) cells
            assert sizes == [(grid - 1) ** (p.dimension - 1)] * p.dimension
            compared += 1
        kinds = {row[4].verdict for row in outcomes if not single_signed(row[3])}
        # the sample holds faces that fail as well as faces that certify
        assert compared >= 60 and {"nondegenerate", "degenerate"} <= kinds

    def test_single_signed_faces_are_nondegenerate(self, outcomes):
        signed = [row for row in outcomes if single_signed(row[3])]
        assert signed
        for p, face, grid, pairs, got, sizes in signed:
            assert got.verdict == "nondegenerate"
            assert sizes == []

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
        got, sizes = check_counting_sweeps(p, face, 64, tol=0.5)
        assert got.verdict == "nondegenerate" and got.margin == 1.0
        assert sizes == [63, 63]


class TestCost:
    def test_benchmark_d4_faces_visit_at_most_d_boxes(self):
        p = reduce_phase(parse_phase(D4_CHECK, 4))
        faces = build_polyhedron(p).faces
        assert len(faces) == 31
        for face in faces:
            got, sizes = check_counting_sweeps(p, face, 64)
            assert got.verdict == "nondegenerate" and got.margin > 0
            assert sizes == []

    @pytest.mark.parametrize("text,d,grid", CERTIFIED_MIXED_SIGN)
    def test_mixed_sign_face_visits_each_cell_once(self, text, d, grid):
        p = reduce_phase(parse_phase(text, d))
        face = next(f for f in build_polyhedron(p).faces if f.dim == d - 1)
        assert not single_signed(pairs_of(p, face))
        got, sizes = check_counting_sweeps(p, face, grid)
        assert got.verdict == "nondegenerate"
        assert sizes == [(grid - 1) ** (d - 1)] * d

    @pytest.mark.parametrize("text,d,grid", CERTIFIED_MIXED_SIGN)
    def test_certified_mixed_sign_face_runs_no_refinement(self, monkeypatch, text,
                                                           d, grid):
        def refuse(*args, **kwargs):
            raise AssertionError("Gauss-Newton run on a certified face")

        monkeypatch.setattr(nondegen, "_refine_zero", refuse)
        p = reduce_phase(parse_phase(text, d))
        face = next(f for f in build_polyhedron(p).faces if f.dim == d - 1)
        got = nondegen._check_face(p, face, grid, ETA, 0.0, 1e-10, 8)
        assert got.verdict == "nondegenerate"

    def test_failing_face_evaluates_its_slice_grid_once(self, monkeypatch):
        # the edge of x1^3*x2 - x1*x2^3 fails (its pair 3x1^2 - 3x2^2 vanishes
        # on the diagonal): each pair is evaluated on the slice cells once per
        # orientation, and Gauss-Newton takes the face's derivatives as given
        p = reduce_phase(parse_phase("x1^3*x2 - x1*x2^3", 2))
        face = next(f for f in build_polyhedron(p).faces if f.dim == 1)
        pairs = pairs_of(p, face)
        assert not single_signed(pairs)
        keys = {frozenset(g.terms.items()) for g in pairs}
        evaluate, derivative = PhasePolynomial.evaluate, PhasePolynomial.derivative
        refine = nondegen._refine_zero
        count = {"grid": 0, "refine": 0, "refine_derivatives": 0}
        inside = []

        def counted_evaluate(g, x):
            # a slice grid has array coordinates; a Gauss-Newton point has none
            if frozenset(g.terms.items()) in keys and any(np.ndim(v) for v in x):
                count["grid"] += 1
            return evaluate(g, x)

        def counted_derivative(g, *axes):
            count["refine_derivatives"] += bool(inside)
            return derivative(g, *axes)

        def counted_refine(*args, **kwargs):
            count["refine"] += 1
            inside.append(True)
            try:
                return refine(*args, **kwargs)
            finally:
                inside.pop()

        monkeypatch.setattr(PhasePolynomial, "evaluate", counted_evaluate)
        monkeypatch.setattr(PhasePolynomial, "derivative", counted_derivative)
        monkeypatch.setattr(nondegen, "_refine_zero", counted_refine)
        got = nondegen._check_face(p, face, 64, ETA, 0.0, 1e-10, 8)
        assert got.verdict == "degenerate"
        assert count == {"grid": 2 * len(pairs), "refine": 8,
                         "refine_derivatives": 0}
