"""Frozen exact oracle for monomial phases c x^a under the default cutoff
(radius 1, plateau to 1/2), independent of `src/`.

Over the positive orthant, I(lam) = int exp(i lam c x^a) prod_k chi(x_k) dx
is minus the sum of the residues of the Mellin-Barnes integrand

    Gamma(s) e^(i pi s/2) (c lam)^(-s) prod_k G(1 - a_k s) / (1 - a_k s)

at the distinct s = 1/a_k, plus O(lam^-N) for every N (Bleistein &
Handelsman, Asymptotic Expansions of Integrals, ch. 4).  G(z) = int x^z
(-chi'(x)) dx is entire with G(0) = 1; -chi' is the bump exp(1 - 1/(1 - t^2))
at t = 4x - 3 on the transition octave [1/2, 1], normalized.  Each residue
is the trapezoid rule on a circle a quarter of the gap to the next pole
across.  c < 0 is the conjugate, and the whole space sums the orthants.
The remainder has died out to below 1e-9 relative from lam = 1024 on.
"""
import itertools

import numpy as np
from scipy.special import gamma

_X, _W = np.polynomial.legendre.leggauss(400)
_X = 0.75 + 0.25 * _X
_W = _W * np.exp(1.0 - 1.0 / (1.0 - (4.0 * _X - 3.0) ** 2))
_W /= _W.sum()


def _g(z):
    return np.exp(np.multiply.outer(z, np.log(_X))) @ _W


def orthant(a, c, lam, points=64):
    """I(lam) for c x^a over the positive orthant."""
    if c < 0:
        return np.conj(orthant(a, -c, lam, points))
    poles = sorted({1.0 / ak for ak in a})
    turn = np.exp(2j * np.pi * np.arange(points) / points)
    total = 0.0
    for s0 in poles:
        radius = min(abs(s0 - t) for t in [0.0] + poles if t != s0) / 4
        s = s0 + radius * turn
        f = gamma(s) * np.exp(0.5j * np.pi * s) * (c * lam) ** -s
        for ak in a:
            f = f * _g(1.0 - ak * s) / (1.0 - ak * s)
        total -= radius * np.mean(f * turn)
    return complex(total)


def whole_space(a, c, lam):
    """I(lam) for c x^a over R^d: each orthant is c x^a with c's sign flipped
    by the odd exponents of its negative coordinates."""
    return sum(orthant(a, c * np.prod([sg ** ak for sg, ak in zip(signs, a)]), lam)
               for signs in itertools.product((1, -1), repeat=len(a)))
