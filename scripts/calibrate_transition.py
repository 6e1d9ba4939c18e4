"""Derive the transition-panel table that decides which cells keep the rerun.

For a rule (order, waves_per_panel) and each Gauss order n an axis off the
cutoff plateau may take, P0(n) is the least panel count from which on, up to
MAX_PANELS, n-point panels on the cutoff's transition piece integrate
profile * exp(i w x) there within the per-panel target relative to the
profile's mass on the piece, at each of FREQUENCIES frequencies up to n's
most turns per panel (`oscint._ladder`).  That mass is the allowance a cell
that is not rerun adds per axis.  The exact integral is a dense composite
Gauss rule on the whole piece.  An axis whose panels are that narrow meets
the target, so its cell needs no rerun; orders without such a count resolve
nothing.  Counts above MAX_PANELS are not checked: on narrower panels the
profile is closer to linear, and the error tends to the oscillation's alone,
which the ladder already bounds.  The output is the entry of
`oscint._TRANSITION_PANELS` for the rule.

    python scripts/calibrate_transition.py --order 16 --waves 4
"""
import argparse

import numpy as np

from oscdecay.oscint import _TRANSITION_PANELS, _ladder, smooth_step

# frequencies checked per panel count, and the largest panel count checked
FREQUENCIES = 400
MAX_PANELS = 32
# the exact integral: this many 32-point panels per panel of the checked rule
REFERENCE_SPLIT = 4


def panel_rule(panels, n):
    """Nodes and weights times the profile of n-point Gauss on `panels`
    equal panels of the transition piece, scaled to [0, 1]."""
    gx, gw = np.polynomial.legendre.leggauss(n)
    width = 1.0 / panels
    nodes = (width * np.arange(panels)[:, None] + width * 0.5 * (gx + 1.0)).ravel()
    return nodes, np.tile(width * 0.5 * gw, panels) * smooth_step(nodes)


def worst_error(n, panels, most):
    """The largest error of the panel rule on the piece, relative to the
    profile's mass there, over FREQUENCIES frequencies of up to `most`
    turns per panel."""
    w = 2.0 * np.pi * panels * np.linspace(0.0, most, FREQUENCIES + 1)[1:]
    x, wx = panel_rule(panels, n)
    xr, wr = panel_rule(REFERENCE_SPLIT * panels, 32)
    return float(np.abs(np.exp(1j * np.outer(w, x)) @ wx
                        - np.exp(1j * np.outer(w, xr)) @ wr).max() / wr.sum())


def transition_panels(order, waves):
    """((n, P0(n)), ...) for the orders of the rule (order, waves) that an
    axis off the plateau may take and that every count from P0(n) to
    MAX_PANELS resolves."""
    target, rungs = _ladder(order, waves)
    table = []
    for n, most, plateau in rungs:
        if plateau:
            continue
        panels = MAX_PANELS + 1
        while panels > 1 and worst_error(n, panels - 1, most) <= target:
            panels -= 1
        if panels <= MAX_PANELS:
            table.append((n, panels))
    return tuple(table)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--order", type=int, default=16)
    ap.add_argument("--waves", type=float, default=4.0)
    args = ap.parse_args()

    target, _ = _ladder(args.order, args.waves)
    table = transition_panels(args.order, args.waves)
    key = (args.order, args.waves)
    print(f"rule {key}: per-panel target {target:.3g}")
    print(f"    {key}: {table}" if table else f"    no entry: no order resolves {key}")
    print(f"shipped: {_TRANSITION_PANELS.get(key, 'no entry')}")


if __name__ == "__main__":
    main()
