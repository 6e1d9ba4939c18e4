"""Derive the transition-panel table that decides which cells keep the rerun.

For a rule (order, waves_per_panel), each map exponent e and each Gauss
order n an axis off the cutoff plateau may take, P0(n, e) is the least panel
count from which on, up to MAX_PANELS, n-point panels at map exponent e on
the cutoff's transition piece [1/2, 1] (`oscint._rule_table`) integrate
profile * exp(i w x^e) there within the per-panel target relative to the
profile's mass on the piece.  That mass is the allowance a cell that is not
rerun adds per axis.  The frequencies w, FREQUENCIES of them, run up to the
one at which each panel carries n's most turns per panel (`oscint._ladder`):
the panels split the phase w x^e into equal shares.  The exact integral is
a dense composite Gauss rule on the whole piece at the same e.  An axis
with that many panels meets the target, so its cell needs no rerun; orders
without such a count resolve nothing at that e.  Counts above MAX_PANELS
are not checked: on narrower panels the profile is closer to polynomial,
and the error tends to the oscillation's alone, which the ladder already
bounds.  The output is the entry of `oscint._TRANSITION_PANELS` for the
rule, one row per e.

    python scripts/calibrate_transition.py --order 16 --waves 4
"""
import argparse

import numpy as np

from oscdecay.oscint import (_MAX_MAP, _TRANSITION_PANELS, PLATEAU, CutoffSpec, _ladder,
                             _rule_table)

# frequencies checked per panel count, and the largest panel count checked
FREQUENCIES = 400
MAX_PANELS = 32
# the exact integral: this many 32-point panels per panel of the checked rule
REFERENCE_SPLIT = 4
LO = float(PLATEAU)


def rule(panels, n, e):
    """The nodes and weights of `panels` n-point panels at map exponent e on
    the transition piece, times the cutoff."""
    _, _, nodes, weights = _rule_table(np.array([[LO, 1.0, panels, n, e]]), CutoffSpec())
    return nodes, weights


def transition_sum(panels, n, e, w):
    """The rule's sums of profile * exp(i w x^e) on the transition piece,
    one per frequency of `w`.  cos and sin come from tan of the half angle,
    as in the quadrature kernel, which is 5x faster than complex exp."""
    x, weights = rule(panels, n, e)
    t = np.tan(np.multiply.outer(0.5 * w, x ** e))
    c = 2.0 / (1.0 + t * t)
    return (c - 1.0) @ weights + 1j * ((c * t) @ weights)


def worst_error(n, panels, most, e=1):
    """The largest error of the panel rule at map exponent e on the piece,
    relative to the profile's mass there, over FREQUENCIES frequencies of up
    to `most` turns per panel."""
    w = 2.0 * np.pi * panels / (1.0 - LO ** e) * np.linspace(0.0, most, FREQUENCIES + 1)[1:]
    mass = rule(REFERENCE_SPLIT * panels, 32, e)[1].sum()
    return float(np.abs(transition_sum(panels, n, e, w)
                        - transition_sum(REFERENCE_SPLIT * panels, 32, e, w)).max() / mass)


def transition_panels(order, waves, e=1):
    """((n, P0(n, e)), ...) for the orders of the rule (order, waves) that
    an axis off the plateau may take and that every count from P0 to
    MAX_PANELS resolves at map exponent e."""
    target, rungs = _ladder(order, waves)
    table = []
    for n, most, plateau in rungs:
        if plateau:
            continue
        panels = MAX_PANELS + 1
        while panels > 1 and worst_error(n, panels - 1, most, e) <= target:
            panels -= 1
        if panels <= MAX_PANELS:
            table.append((n, panels))
    return tuple(table)


def transition_table(order, waves):
    """The entry of `oscint._TRANSITION_PANELS` for the rule (order, waves):
    (e, transition_panels(order, waves, e)) for e = 1.._MAX_MAP."""
    return tuple((e, transition_panels(order, waves, e)) for e in range(1, _MAX_MAP + 1))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--order", type=int, default=16)
    ap.add_argument("--waves", type=float, default=4.0)
    args = ap.parse_args()

    target, _ = _ladder(args.order, args.waves)
    key = (args.order, args.waves)
    table = transition_table(*key)
    print(f"rule {key}: per-panel target {target:.3g}")
    for e, row in table:
        print(f"    e = {e}: {row}" if row else f"    e = {e}: no order resolves {key}")
    print(f"shipped: {_TRANSITION_PANELS.get(key, 'no entry')}")


if __name__ == "__main__":
    main()
