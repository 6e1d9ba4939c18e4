"""Derive the transition error table that sizes the allowance of transition axes.

For a rule (order, waves_per_panel), each map exponent e and each Gauss
order n an axis off the cutoff plateau may take, E(n, P, e) is the largest
error of P n-point panels at map exponent e on the cutoff's transition
piece [1/2, 1] (`oscint._rule_table`) on profile * exp(i w x^e), relative
to the profile's mass on the piece.  The frequencies w, FREQUENCIES of
them, run up to the one at which each panel carries n's most turns per
panel (`oscint._ladder`): the panels split the phase w x^e into equal
shares.  The exact integral is a dense composite Gauss rule on the whole
piece at the same e.  P0(n, e) is the least panel count from which on, up
to MAX_PANELS, E meets the per-panel target.  The row of (n, e) holds
E(n, P, e) for P = 1 .. P0 - 1, each rounded up to 2 significant digits, so
P0 is its length plus 1; where no count up to MAX_PANELS starts such a
run, the row holds every count up to MAX_PANELS, and a count past it has
no tabled error.  Counts above MAX_PANELS are not checked: on narrower
panels the profile is closer to polynomial, and the error tends to the
oscillation's alone, which the ladder already bounds.  The output is the
entry of `oscint._TRANSITION_PANELS` for the rule, one line per (e, n).

    python scripts/calibrate_transition.py --order 16 --waves 4
"""
import argparse
from decimal import ROUND_CEILING, Decimal
from functools import lru_cache

import numpy as np

from oscdecay.oscint import (_MAX_MAP, _TRANSITION_CHECKED, _TRANSITION_PANELS, PLATEAU,
                             _ladder, _rule_table)

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


def transition_errors(order, waves, e=1):
    """((n, (E(n, 1, e), ..., E(n, P0 - 1, e))), ...), each error rounded up,
    for the orders of the rule (order, waves) that an axis off the plateau
    may take; a row without P0 up to MAX_PANELS holds every count to it."""
    target, rungs = _ladder(order, waves)
    table = []
    for n, most, plateau in rungs:
        if plateau:
            continue
        errors = [worst_error(n, panels, most, e) for panels in range(1, MAX_PANELS + 1)]
        least = MAX_PANELS + 1
        while least > 1 and errors[least - 2] <= target:
            least -= 1
        table.append((n, tuple(round_up(x) for x in errors[:least - 1])))
    return tuple(table)


def transition_table(order, waves):
    """The entry of `oscint._TRANSITION_PANELS` for the rule (order, waves):
    (e, transition_errors(order, waves, e)) for e = 1.._MAX_MAP."""
    return tuple((e, transition_errors(order, waves, e)) for e in range(1, _MAX_MAP + 1))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--order", type=int, default=16)
    ap.add_argument("--waves", type=float, default=4.0)
    args = ap.parse_args()

    target, _ = _ladder(args.order, args.waves)
    key = (args.order, args.waves)
    table = transition_table(*key)
    print(f"rule {key}: per-panel target {target:.3g}")
    for e, rows in table:
        for n, errors in rows:
            least = f"P0 {len(errors) + 1}" if len(errors) < MAX_PANELS else "no P0"
            print(f"    e = {e}, n = {n} ({least}): {errors}")
    shipped = _TRANSITION_PANELS.get(key)
    print("shipped: " + ("no entry" if shipped is None else
                         "the same" if shipped == table else f"differs: {shipped}"))


if __name__ == "__main__":
    main()
