import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oscdecay.phase import (
    EmptyPhaseError,
    PhaseError,
    PhaseParseError,
    PhasePolynomial,
    parse_phase,
    partial_derivative,
    reduce_phase,
)


def terms(p):
    return dict(p.terms)


class TestParse:
    def test_plain_product(self):
        p = parse_phase("x1*x2", 2)
        assert terms(p) == {(1, 1): Fraction(1)}

    def test_rational_coefficients(self):
        p = parse_phase("x1^2*x2^2 + 3/2*x1^5*x2", 2)
        assert terms(p) == {(2, 2): Fraction(1), (5, 1): Fraction(3, 2)}

    def test_cancellation_is_an_error(self):
        with pytest.raises(EmptyPhaseError):
            parse_phase("x1*x2 - x1*x2", 2)

    def test_whitespace_and_implicit_star(self):
        p = parse_phase(" 3x1 x2  -  x2^4 x1 ", 2)
        assert terms(p) == {(1, 1): Fraction(3), (1, 4): Fraction(-1)}

    def test_repeated_variable_accumulates(self):
        p = parse_phase("x1*x1*x2", 2)
        assert terms(p) == {(2, 1): Fraction(1)}

    def test_leading_minus(self):
        p = parse_phase("-x1*x2 + 2*x1^2*x2", 2)
        assert terms(p) == {(1, 1): Fraction(-1), (2, 1): Fraction(2)}

    def test_variable_out_of_range(self):
        with pytest.raises(PhaseError, match="out of range"):
            parse_phase("x3*x1", 2)

    def test_syntax_error_carries_position(self):
        with pytest.raises(PhaseParseError) as e:
            parse_phase("x1^", 2)
        assert e.value.position == 3

    def test_zero_exponent_rejected(self):
        with pytest.raises(PhaseParseError):
            parse_phase("x1^0*x2", 2)

    def test_bad_character(self):
        with pytest.raises(PhaseParseError):
            parse_phase("x1*y2", 2)

    def test_constant_alone_rejected(self):
        with pytest.raises(PhaseParseError):
            parse_phase("3", 2)


class TestReduce:
    def test_drops_single_variable_terms(self):
        p = PhasePolynomial.from_terms({(3, 0): 1, (1, 1): 1}, 2)
        r = reduce_phase(p)
        assert terms(r) == {(1, 1): Fraction(1)}
        assert r.reduced

    def test_empty_after_reduction(self):
        p = PhasePolynomial.from_terms({(4, 0): 1, (0, 7): 2}, 2)
        with pytest.raises(EmptyPhaseError):
            reduce_phase(p)


class TestDerivative:
    def test_mixed_second(self):
        p = PhasePolynomial.from_terms({(2, 2): 1}, 2)
        d = partial_derivative(p, (1, 1))
        assert terms(d) == {(1, 1): Fraction(4)}

    def test_difference_phase(self):
        p = PhasePolynomial.from_terms({(3, 1): 1, (1, 3): -1}, 2)
        d = partial_derivative(p, (1, 1))
        assert terms(d) == {(2, 0): Fraction(3), (0, 2): Fraction(-3)}

    def test_derivative_can_vanish(self):
        p = PhasePolynomial.from_terms({(1, 1): 1}, 2)
        d = partial_derivative(p, (2, 0))
        assert d.is_zero()

    def test_order_validation(self):
        p = PhasePolynomial.from_terms({(1, 1): 1}, 2)
        with pytest.raises(PhaseError):
            partial_derivative(p, (1,))

    def test_axis_out_of_range(self):
        # axis -1 used to index from the end and give d/dx2, axis 2 to
        # raise IndexError
        p = PhasePolynomial.from_terms({(1, 1): 1}, 2)
        assert terms(p.derivative(1)) == {(1, 0): Fraction(1)}
        for axes in ((-1,), (2,), (0, 2)):
            with pytest.raises(PhaseError, match="outside 0..1"):
                p.derivative(*axes)


# hypothesis strategies for small polynomials; the grammar has no constant
# terms, so the all-zero exponent tuple is excluded
def poly_strategy(dimension: int, max_degree: int = 6):
    mono = st.tuples(*([st.integers(0, max_degree)] * dimension)).filter(any)
    coef = st.fractions(min_value=-5, max_value=5).filter(lambda c: c != 0)
    return st.dictionaries(mono, coef, min_size=1, max_size=6).map(
        lambda t: PhasePolynomial.from_terms(t, dimension))


def phase_text(p):
    """Signed terms in descending exponent order; coefficient 1 and
    exponent 1 are left out."""
    parts = []
    for alpha, c in sorted(p.terms.items(), reverse=True):
        mono = "*".join(f"x{k + 1}" + (f"^{e}" if e > 1 else "")
                        for k, e in enumerate(alpha) if e)
        body = mono if abs(c) == 1 else f"{abs(c)}*{mono}"
        parts.append(f"{'-' if c < 0 else '+'} {body}")
    return " ".join(parts)


class TestProperties:
    @given(poly_strategy(2))
    def test_roundtrip_d2(self, p):
        q = parse_phase(phase_text(p), 2)
        assert terms(q) == terms(p)

    @given(poly_strategy(3, max_degree=4))
    def test_roundtrip_d3(self, p):
        q = parse_phase(phase_text(p), 3)
        assert terms(q) == terms(p)

    @given(poly_strategy(3, max_degree=5), st.integers(0, 2), st.integers(0, 2))
    def test_mixed_partials_commute(self, p, i, j):
        a = [0, 0, 0]
        a[i] += 1
        d1 = partial_derivative(partial_derivative(p, tuple(a)),
                                tuple(int(k == j) for k in range(3)))
        b = [int(k == j) for k in range(3)]
        d2 = partial_derivative(partial_derivative(p, tuple(b)), tuple(a))
        assert terms(d1) == terms(d2)

    @given(poly_strategy(2, max_degree=6),
           st.lists(st.fractions(min_value=Fraction(1, 2), max_value=2), min_size=2, max_size=2))
    def test_exact_and_float_evaluation_agree(self, p, x):
        exact = p.evaluate_exact(x)
        approx = p.evaluate([float(v) for v in x])
        assert math.isclose(float(exact), approx, rel_tol=1e-9, abs_tol=1e-12)


class TestFiniteDifference:
    def test_gradient_matches_central_differences(self, rng):
        for _ in range(25):
            d = rng.choice([2, 3, 4])
            tcount = rng.randint(1, 5)
            tms = {}
            for _ in range(tcount):
                alpha = tuple(rng.randint(0, 6 // 1) for _ in range(d))
                if sum(alpha) > 6:
                    continue
                tms[alpha] = Fraction(rng.randint(-4, 4))
            tms = {a: c for a, c in tms.items() if c != 0}
            if not tms:
                continue
            p = PhasePolynomial.from_terms(tms, d)
            x = [rng.uniform(0.5, 2.0) for _ in range(d)]
            h = 1e-6
            for i in range(d):
                a = tuple(int(k == i) for k in range(d))
                dp = partial_derivative(p, a)
                xp = list(x)
                xm = list(x)
                xp[i] += h
                xm[i] -= h
                fd = (p.evaluate(xp) - p.evaluate(xm)) / (2 * h)
                sym = dp.evaluate(x)
                assert math.isclose(sym, fd, rel_tol=1e-6, abs_tol=1e-6)


class TestRestriction:
    def test_face_restriction_matches_support_intersection(self):
        from oscdecay import polytope as pt
        p = parse_phase("x1^2*x2^2 + x1^5*x2", 2)
        n = pt.build_polyhedron(reduce_phase(p))
        from oscdecay.phase import restrict_to_face
        for face in n.faces:
            r = restrict_to_face(reduce_phase(p), face)
            expected = {a for a in p.terms
                        if sum(w * e for w, e in zip(face.normal, a)) == face.offset}
            assert set(r.terms) == expected

    @given(st.data())
    @settings(max_examples=60)
    def test_restriction_equals_a_fraction_restriction(self, data):
        # integer <normal, alpha> against the face test in exact Fractions
        from oscdecay import polytope as pt
        from oscdecay.phase import restrict_to_face
        d = data.draw(st.integers(2, 4))
        mono = st.tuples(*([st.integers(0, 5)] * d)).filter(
            lambda a: sum(e > 0 for e in a) >= 2)
        coef = st.fractions(min_value=-5, max_value=5).filter(lambda c: c != 0)
        p = reduce_phase(PhasePolynomial.from_terms(
            data.draw(st.dictionaries(mono, coef, min_size=1, max_size=8)), d))
        for face in pt.build_polyhedron(p).faces:
            want = {a: c for a, c in p.terms.items()
                    if sum(Fraction(w) * Fraction(e) for w, e in zip(face.normal, a))
                    == Fraction(face.offset)}
            got = restrict_to_face(p, face)
            assert terms(got) == want and got.reduced

    def test_foreign_face_rejected(self):
        from oscdecay import polytope as pt
        from oscdecay.phase import restrict_to_face
        p = reduce_phase(parse_phase("x1^2*x2^2 + x1^5*x2", 2))
        other = pt.from_support([(7, 7)], 2)
        with pytest.raises(PhaseError):
            restrict_to_face(p, other.faces[0])


class TestTensorMonomial:
    @staticmethod
    def broadcast_monomial(p, axes, scale):
        # the outer product by broadcast multiplies: scale * c, then each
        # axis of nonzero exponent's powers, in axis order
        (alpha, c), = p._float_coefficients
        b, d = axes[0].shape[0], p.dimension
        acc = (np.broadcast_to(scale, (b,)) * c).reshape([b] + [1] * d)
        for k, (e, x) in enumerate(zip(alpha, axes)):
            if e:
                shape = [b] + [1] * d
                shape[k + 1] = x.shape[1]
                acc = acc * (x ** e).reshape(shape)
        return np.ascontiguousarray(np.broadcast_to(acc, [b] + [x.shape[1] for x in axes]))

    @pytest.mark.parametrize("alpha, c", [
        ((1, 1), 1), ((3, 2), Fraction(-3, 2)), ((0, 5), 7), ((4, 0), Fraction(1, 3)),
        ((0, 0), Fraction(-5, 4)),
        ((1, 2, 4), 1), ((0, 3, 1), Fraction(-2, 7)), ((2, 0, 0), 3), ((0, 0, 0), 2),
        ((1, 0, 2, 3), Fraction(9, 8)), ((2, 1, 1, 1, 0, 3), -1),
    ])
    @pytest.mark.parametrize("b", [1, 3])
    @pytest.mark.parametrize("per_row", [False, True], ids=["scalar-scale", "row-scales"])
    def test_equals_broadcast_bit_for_bit(self, alpha, c, b, per_row):
        d = len(alpha)
        p = PhasePolynomial.from_terms({alpha: c}, d)
        rng = np.random.default_rng(sum(alpha) + 10 * d + b)
        sizes = [7, 4, 5, 3, 2, 3][:d]
        axes = [rng.uniform(-1.5, 1.5, (b, n)) for n in sizes]
        scale = 617.25 * rng.uniform(-1.0, 1.0, b) if per_row else 617.25
        out = np.full([b] + sizes, np.nan)
        got = p.evaluate_tensor(axes, scale, out)
        assert got is out
        assert got.tobytes() == self.broadcast_monomial(p, axes, scale).tobytes()

    def test_zero_product_is_positive_zero(self):
        # einsum sums into a zeroed output: a product of exactly zero is
        # +0.0 where a broadcast multiply keeps its sign; every other entry
        # is the same bits
        p = PhasePolynomial.from_terms({(1, 1): -2}, 2)
        axes = [np.array([[0.0, 0.5, -0.25]]), np.array([[0.75, -0.0, 1.0]])]
        got = p.evaluate_tensor(axes, 3.0, np.empty((1, 3, 3)))
        want = self.broadcast_monomial(p, axes, 3.0)
        assert np.array_equal(got, want)
        zero = want == 0.0
        assert np.signbit(want[zero]).any() and not np.signbit(got[zero]).any()
        assert got[~zero].tobytes() == want[~zero].tobytes()
