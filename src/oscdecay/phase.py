"""Polynomial phases with exact rational coefficients.

A phase is a sparse multivariate polynomial over Q: a mapping from exponent
multi-indices (tuples of nonnegative ints, one entry per variable) to nonzero
Fraction coefficients.  All symbolic work (parsing, differentiation, face
restriction, coefficient transforms) is exact and returns another
`PhasePolynomial`.  Floats only appear in one cached float conversion of the
coefficients, which two evaluators share: `evaluate` takes points or
broadcasting arrays and serves the nondegeneracy sweeps, and
`evaluate_tensor` writes a scaled phase on a batch of tensor grids into a
given buffer for the quadrature kernel.  The quadrature's panel sizing
(`oscint._sizing`) reads the conversion term by term too: it rounds as
`evaluate` would at a cell's corner, without calling it.

The *reduced* form drops every term whose exponent has fewer than two
strictly positive entries: such terms never influence the mixed second
derivatives the decay analysis is built on, and discarding them keeps the
Newton polyhedron honest about the oscillation that actually matters.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

MultiIndex = tuple[int, ...]


class PhaseError(ValueError):
    """Base error for phase construction and parsing."""


class PhaseParseError(PhaseError):
    """Syntax error in a phase expression; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class EmptyPhaseError(PhaseError):
    """Raised when an operation would produce the zero polynomial."""


def _check_multiindex(alpha: Sequence[int], dimension: int) -> MultiIndex:
    a = tuple(alpha)
    if len(a) != dimension:
        raise PhaseError(f"multi-index {a} has length {len(a)}, expected {dimension}")
    if any((not isinstance(e, int)) or e < 0 for e in a):
        raise PhaseError(f"multi-index {a} must have nonnegative integer entries")
    return a


@dataclass(frozen=True)
class PhasePolynomial:
    """Immutable sparse polynomial.  Do not mutate `terms` after creation."""

    dimension: int
    terms: Mapping[MultiIndex, Fraction]
    reduced: bool = False

    def __post_init__(self):
        if self.dimension < 2:
            raise PhaseError("dimension must be at least 2")

    # -- construction ------------------------------------------------------

    @classmethod
    def from_terms(cls, terms: Mapping[Sequence[int], Fraction | int | str],
                   dimension: int, *, reduced: bool = False) -> "PhasePolynomial":
        """Build from a {multi-index: coefficient} mapping, dropping zeros."""
        clean: dict[MultiIndex, Fraction] = {}
        for alpha, c in terms.items():
            a = _check_multiindex(alpha, dimension)
            cf = Fraction(c)
            if cf != 0:
                clean[a] = clean.get(a, Fraction(0)) + cf
                if clean[a] == 0:
                    del clean[a]
        if not clean:
            raise EmptyPhaseError("polynomial has no nonzero terms")
        if reduced:
            bad = [a for a in clean if sum(e > 0 for e in a) < 2]
            if bad:
                raise PhaseError(f"term {bad[0]} has fewer than two positive exponents "
                                 "in a polynomial marked reduced")
        return cls(dimension, clean, reduced)

    # -- queries -----------------------------------------------------------

    @property
    def support(self) -> list[MultiIndex]:
        return sorted(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    # -- exact transforms -------------------------------------------------

    def derivative(self, *axes: int) -> "PhasePolynomial":
        """Exact partial derivative, once along each listed axis (0-based)."""
        order = [0] * self.dimension
        for k in axes:
            if not 0 <= k < self.dimension:
                raise PhaseError(f"axis {k} is outside 0..{self.dimension - 1}")
            order[k] += 1
        return partial_derivative(self, order)

    def absolute(self) -> "PhasePolynomial":
        """The same support with every coefficient replaced by its magnitude;
        at a point with nonnegative coordinates it bounds |self| there."""
        return PhasePolynomial(self.dimension,
                               {a: abs(c) for a, c in self.terms.items()},
                               self.reduced)

    # -- evaluation --------------------------------------------------------

    @cached_property
    def _float_coefficients(self) -> tuple[tuple[MultiIndex, float], ...]:
        # converted once per polynomial; sorted, so every caller sums the
        # terms in the same order
        try:
            return tuple((a, float(c)) for a, c in sorted(self.terms.items()))
        except OverflowError:
            a, c = max(self.terms.items(), key=lambda t: abs(t[1]))
        mono = "*".join(f"x{i + 1}" + (f"^{e}" if e > 1 else "")
                        for i, e in enumerate(a) if e) or "1"
        size = math.log10(abs(c.numerator)) - math.log10(c.denominator)
        raise PhaseError(f"coefficient of about 1e{size:.0f} on the term {mono} (of the "
                         "phase or a derivative of it) is beyond the float range")

    def evaluate(self, x: Sequence):
        """Evaluate at float coordinates, one entry per variable.

        Entries may be Python floats or numpy arrays that broadcast against
        each other; the result has the broadcast shape (a float for scalar
        input, 0.0 for the zero polynomial).
        """
        if len(x) != self.dimension:
            raise PhaseError("point has wrong dimension")
        total = 0.0
        for alpha, c in self._float_coefficients:
            mono = c
            for e, xi in zip(alpha, x):
                if e:
                    mono = mono * xi ** e
            total = total + mono
        return total

    def evaluate_tensor(self, axes: Sequence, scale, out):
        """Write scale * self on a batch of tensor grids into `out`.

        axes[k] holds the (B, n_k) nodes of variable k, `scale` one float per
        grid and term of `_float_coefficients` (B, T), per grid (B,), or one
        for all, and `out` a C-contiguous float array of shape (B, n_0, ...,
        n_{d-1}); it is returned.  The scales are folded into the
        coefficients, so no full-size temporary is made.  A monomial is an
        outer product of per-axis powers, the scale folded into the first,
        formed axis by axis by `np.einsum`, whose last product writes `out`.
        A sum of terms contracts the per-axis power tables P_k, (B, n_k, E_k)
        for the E_k distinct exponents of variable k, against the coefficient
        tensor: P_0 @ C @ P_1^T in 2D, one more contraction per axis beyond.
        """
        if len(axes) != self.dimension:
            raise PhaseError("point has wrong dimension")
        b, d = axes[0].shape[0], self.dimension
        coeffs = self._float_coefficients
        scale = np.reshape(scale, (-1, 1)) if np.ndim(scale) < 2 else scale
        scaled = scale * [c for _, c in coeffs]  # (B, T), or (1, T) for one scale for all
        # einsum forms the outer product of a monomial on a 256x1024 cell in
        # about 200 us against 400 us for a broadcast multiply (numpy 2.4).
        # The products keep their order, and exponent 0 multiplies by 1.0
        # exactly; a zero product comes out +0.0, a sign no contraction sees
        if len(coeffs) == 1:
            (alpha, _), = coeffs
            acc = scaled * axes[0] ** alpha[0]
            for k in range(1, d):
                acc = np.einsum("bi,bj->bij", acc.reshape(b, -1), axes[k] ** alpha[k],
                                out=out.reshape(b, -1, axes[k].shape[1]) if k == d - 1 else None)
            return out
        exps = [sorted({alpha[k] for alpha, _ in coeffs}) for k in range(d)]
        tensor = np.zeros([b] + [len(e) for e in exps])
        for (alpha, _), column in zip(coeffs, scaled.T):
            tensor[(slice(None),) + tuple(e.index(a) for e, a in zip(exps, alpha))] = column
        tables = [x[:, :, None] ** np.array(e, dtype=float)
                  for x, e in zip(axes, exps)]
        # contract the leading axes one at a time: t is (B, rows, E_k, rest)
        t = np.matmul(tables[0], tensor.reshape(b, len(exps[0]), -1))
        rows = axes[0].shape[1]
        for k in range(1, d - 1):
            t = np.matmul(tables[k][:, None],
                          t.reshape(b, rows, len(exps[k]), -1))
            rows *= axes[k].shape[1]
        np.matmul(t.reshape(b, rows, len(exps[-1])),
                  tables[-1].transpose(0, 2, 1),
                  out=out.reshape(b, rows, axes[-1].shape[1]))
        return out

    def evaluate_exact(self, x: Sequence[Fraction | int]) -> Fraction:
        """Evaluate at a rational point, exactly."""
        if len(x) != self.dimension:
            raise PhaseError("point has wrong dimension")
        total = Fraction(0)
        for alpha, c in self.terms.items():
            t = c
            for xi, e in zip(x, alpha):
                t *= Fraction(xi) ** e
            total += t
        return total


# ---------------------------------------------------------------------------
# parsing

_TOKEN = re.compile(r"\s*(?:(?P<var>x\d+)|(?P<int>\d+)|(?P<op>[-+*/^]))")


def parse_phase(text: str, dimension: int) -> PhasePolynomial:
    """Parse `3/2*x1^5*x2 - x1*x2` style expressions.

    Grammar: terms joined by + or -; each term is an optional rational
    coefficient followed by one or more variable factors `xK` or `xK^E`
    (E >= 1, K in 1..dimension), separated by optional `*`.  Whitespace is
    ignored.  Purely constant terms are not part of the grammar.
    """
    tokens: list[tuple[str, str, int]] = []  # (kind, text, position)
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise PhaseParseError(f"unexpected character {stripped[0]!r}",
                                  pos + (len(text[pos:]) - len(stripped)))
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()

    terms: dict[MultiIndex, Fraction] = {}
    i = 0
    n = len(tokens)

    def peek(k: int = 0):
        return tokens[i + k] if i + k < n else (None, "", len(text))

    if n == 0:
        raise PhaseParseError("empty expression", 0)

    first = True
    while i < n:
        sign = 1
        kind, tok, tpos = peek()
        if kind == "op" and tok in "+-":
            if tok == "-":
                sign = -1
            i += 1
        elif not first:
            raise PhaseParseError("expected '+' or '-' between terms", tpos)
        first = False

        coef = Fraction(sign)
        kind, tok, tpos = peek()
        if kind == "int":
            num = int(tok)
            i += 1
            kind, tok, tpos = peek()
            if kind == "op" and tok == "/":
                i += 1
                kind, tok, tpos = peek()
                if kind != "int":
                    raise PhaseParseError("expected denominator after '/'", tpos)
                den = int(tok)
                if den == 0:
                    raise PhaseParseError("zero denominator", tpos)
                coef *= Fraction(num, den)
                i += 1
            else:
                coef *= num
            kind, tok, tpos = peek()
            if kind == "op" and tok == "*":
                i += 1
                kind, tok, tpos = peek()

        # one or more variable factors
        alpha = [0] * dimension
        saw_factor = False
        while True:
            kind, tok, tpos = peek()
            if kind != "var":
                break
            idx = int(tok[1:])
            if not 1 <= idx <= dimension:
                raise PhaseError(f"variable {tok} out of range for dimension {dimension}")
            i += 1
            exp = 1
            kind2, tok2, tpos2 = peek()
            if kind2 == "op" and tok2 == "^":
                i += 1
                kind2, tok2, tpos2 = peek()
                if kind2 != "int":
                    raise PhaseParseError("expected integer exponent after '^'", tpos2)
                exp = int(tok2)
                if exp < 1:
                    raise PhaseParseError("exponent must be at least 1", tpos2)
                i += 1
            alpha[idx - 1] += exp
            saw_factor = True
            kind2, tok2, tpos2 = peek()
            if kind2 == "op" and tok2 == "*":
                # '*' must be followed by another factor
                nk, _, npos = peek(1)
                if nk != "var":
                    raise PhaseParseError("expected variable after '*'", npos)
                i += 1
        if not saw_factor:
            raise PhaseParseError("expected a variable factor", tpos)

        key = tuple(alpha)
        terms[key] = terms.get(key, Fraction(0)) + coef
        if terms[key] == 0:
            del terms[key]

    if not terms:
        raise EmptyPhaseError("all terms cancel; the zero polynomial is not a valid phase")
    return PhasePolynomial(dimension, terms)


# ---------------------------------------------------------------------------
# operations

def reduce_phase(p: PhasePolynomial) -> PhasePolynomial:
    """Drop terms with fewer than two strictly positive exponent entries."""
    kept = {a: c for a, c in p.terms.items() if sum(e > 0 for e in a) >= 2}
    if not kept:
        raise EmptyPhaseError("no terms with at least two positive exponents remain")
    return PhasePolynomial(p.dimension, kept, reduced=True)


def partial_derivative(p: PhasePolynomial, order: Sequence[int]) -> PhasePolynomial:
    """Exact partial derivative of multi-order `order`.

    The result may be the zero polynomial (empty terms); callers that need a
    nonzero phase must check `is_zero`.
    """
    a = _check_multiindex(order, p.dimension)
    out: dict[MultiIndex, Fraction] = {}
    for alpha, c in p.terms.items():
        if any(e < o for e, o in zip(alpha, a)):
            continue
        coef = c
        for e, o in zip(alpha, a):
            for k in range(o):
                coef *= (e - k)
        beta = tuple(e - o for e, o in zip(alpha, a))
        out[beta] = out.get(beta, Fraction(0)) + coef
        if out[beta] == 0:
            del out[beta]
    return PhasePolynomial(p.dimension, out)


def restrict_to_face(p: PhasePolynomial, face) -> PhasePolynomial:
    """Keep exactly the terms whose exponents lie on the given face.

    `face` is a polytope face record carrying a supporting normal and offset;
    a support point alpha is on the face iff <normal, alpha> equals the
    offset, compared exactly (in ints for the polyhedron's primitive
    normals).  Raises if the face does not support p's exponent set (e.g. a
    face of some other polynomial's polyhedron).
    """
    w = face.normal
    b = face.offset
    if len(w) != p.dimension:
        raise PhaseError("face dimension mismatch")
    values = {a: sum(wi * ai for wi, ai in zip(w, a)) for a in p.terms}
    lo = min(values.values())
    if lo != b:
        raise PhaseError("face does not belong to this polynomial's polyhedron")
    on_face = {a for a, v in values.items() if v == b}
    vertex_set = {tuple(v) for v in face.vertices}
    if not vertex_set <= on_face:
        raise PhaseError("face vertices are not support points of this polynomial")
    kept = {a: c for a, c in p.terms.items() if a in on_face}
    return PhasePolynomial(p.dimension, kept, reduced=p.reduced)
