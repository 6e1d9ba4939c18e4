"""Derive the transition error table that sizes the allowance of transition axes.

For the default rule (order, waves_per_panel), `oscint._TRANSITION_RULE`,
the only one the table is calibrated for, each map exponent e and each
Gauss order n an axis off the cutoff plateau may take, E(n, P, e) is the
largest error of P n-point panels at map exponent e on the cutoff's
transition piece [1/2, 1] (`oscint._rule_table`) on profile * exp(i w x^e),
relative to the profile's mass on the piece.  The frequencies w, FREQUENCIES of
them, run up to the one at which each panel carries n's most turns per
panel (`oscint._ladder`): the panels split the phase w x^e into equal
shares.  The exact integral is a dense composite Gauss rule on the whole
piece at the same e.  P0(n, e) is the least panel count from which on, up
to MAX_PANELS, E meets the per-panel target.  The row of (n, e) holds
E(n, P, e) for P = 1 .. P0 - 1, each rounded up to 2 significant digits, so
P0 is its length plus 1.  Counts above MAX_PANELS are not checked: on
narrower panels the profile is closer to polynomial, and the error tends
to the oscillation's alone, which the ladder already bounds.  A row with
no P0 up to MAX_PANELS would leave larger counts without a tabled error,
so the script names it and exits 1.  The output is
`oscint._TRANSITION_PANELS`, one line per (e, n), and whether the shipped
table is the same.  `oscint.QuadratureConfig` refuses every rule this
table does not vouch for.

    PYTHONPATH=src python scripts/calibrate_transition.py
"""
import argparse
from decimal import ROUND_CEILING, Decimal
from functools import lru_cache

import numpy as np

from oscdecay.oscint import (_MAX_MAP, _TRANSITION_CHECKED, _TRANSITION_PANELS,
                             _TRANSITION_RULE, PLATEAU, _ladder, _rule_table)

# frequencies checked per panel count, and the largest panel count checked
FREQUENCIES = 400
MAX_PANELS = _TRANSITION_CHECKED
# the exact integral: this many 32-point panels per panel of the checked rule
REFERENCE_SPLIT = 4
LO = float(PLATEAU)
DIGITS = 2  # significant digits of a tabled error, rounded up


def rule(panels, n, e):
    """The nodes and weights of `panels` n-point panels at map exponent e on
    the transition piece, times the cutoff's profile."""
    _, _, nodes, weights = _rule_table(np.array([[LO, 1.0, panels, n, e]]))
    return nodes, weights


def transition_sum(panels, n, e, w):
    """The rule's sums of profile * exp(i w x^e) on the transition piece,
    one per frequency of `w`.  cos and sin come from tan of the half angle,
    as in the quadrature kernel, which is 5x faster than complex exp."""
    x, weights = rule(panels, n, e)
    t = np.tan(np.multiply.outer(0.5 * w, x ** e))
    c = 2.0 / (1.0 + t * t)
    return (c - 1.0) @ weights + 1j * ((c * t) @ weights)


@lru_cache(maxsize=None)
def worst_error(n, panels, most, e=1):
    """The largest error of the panel rule at map exponent e on the piece,
    relative to the profile's mass there, over FREQUENCIES frequencies of up
    to `most` turns per panel; cached, so a check of the table against its
    errors computes each once."""
    w = 2.0 * np.pi * panels / (1.0 - LO ** e) * np.linspace(0.0, most, FREQUENCIES + 1)[1:]
    mass = rule(REFERENCE_SPLIT * panels, 32, e)[1].sum()
    return float(np.abs(transition_sum(panels, n, e, w)
                        - transition_sum(REFERENCE_SPLIT * panels, 32, e, w)).max() / mass)


def round_up(x):
    """The least number of DIGITS significant decimal digits at or above x,
    as a float; rounding to the nearest float cannot take it below x, which
    is a float itself."""
    d = Decimal(x)
    return float(d.quantize(Decimal(1).scaleb(d.adjusted() - DIGITS + 1),
                            rounding=ROUND_CEILING))


def transition_errors(e):
    """((n, (E(n, 1, e), ..., E(n, P0 - 1, e))), ...), each error rounded up,
    for the orders of the default rule that an axis off the plateau may
    take; a row without P0 up to MAX_PANELS exits 1, naming it."""
    target, rungs = _ladder(*_TRANSITION_RULE)
    table = []
    for n, most, plateau in rungs:
        if plateau:
            continue
        errors = [worst_error(n, panels, most, e) for panels in range(1, MAX_PANELS + 1)]
        if errors[-1] > target:
            raise SystemExit(f"rule {_TRANSITION_RULE}: the row of n = {n} at e = {e} "
                             f"has no P0 up to {MAX_PANELS} panels")
        least = MAX_PANELS
        while least > 1 and errors[least - 2] <= target:
            least -= 1
        table.append((n, tuple(round_up(x) for x in errors[:least - 1])))
    return tuple(table)


def transition_table():
    """`oscint._TRANSITION_PANELS` as derived: (e, transition_errors(e)) for
    e = 1.._MAX_MAP."""
    return tuple((e, transition_errors(e)) for e in range(1, _MAX_MAP + 1))


def main() -> None:
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args()
    target, _ = _ladder(*_TRANSITION_RULE)
    table = transition_table()
    print(f"rule {_TRANSITION_RULE}: per-panel target {target:.3g}")
    for e, rows in table:
        for n, errors in rows:
            print(f"    e = {e}, n = {n} (P0 {len(errors) + 1}): {errors}")
    print("shipped: " + ("the same" if _TRANSITION_PANELS == table else
                         f"differs: {_TRANSITION_PANELS}"))


if __name__ == "__main__":
    main()
