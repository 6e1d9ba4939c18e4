"""Calibrate the certificate constant against measured sweeps.

Runs the per-box bound sum at constant 1 over two decades of frequency for a
few phases and reports the worst measured/certificate ratio.  The shipped
default doubles the reciprocal headroom seen for the product phase, which
every other tested phase then clears by an order of magnitude.
"""
import argparse

from oscdecay.oscint import (
    DEFAULT_CERT_CONSTANT,
    CutoffSpec,
    TestFunctionSpec,
    certify_results,
    lambda_grid,
    lambda_sweep,
)
from oscdecay.phase import parse_phase, reduce_phase

PHASES = ["x1*x2", "x1^2*x2^2", "x1^2*x2^2 + x1^5*x2", "x1^3*x2^3",
          "x1^3*x2 - x1*x2^3"]


def worst_ratio(text: str, grid, chi) -> float:
    """The largest |value| / certificate at constant 1 over the grid: one
    sweep and one certificate call for the phase."""
    p = reduce_phase(parse_phase(text, 2))
    f = TestFunctionSpec.ones(2)
    worst = 0.0
    for r in certify_results(lambda_sweep(p, f, chi, grid), p, f, chi, constant=1.0):
        if r.value is None:
            raise SystemExit(f"{text} at lam {r.lam:g} is over the node budget")
        worst = max(worst, abs(r.value) / r.certificate)
    return worst


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--lam-lo", type=float, default=64.0)
    ap.add_argument("--lam-hi", type=float, default=6400.0)
    ap.add_argument("--count", type=int, default=9)
    args = ap.parse_args()

    grid = lambda_grid(args.lam_lo, args.lam_hi, args.count)
    chi = CutoffSpec()
    print(f"frequencies {grid[0]:.0f}..{grid[-1]:.0f}, {len(grid)} points, "
          "constant 1")
    overall = 0.0
    for text in PHASES:
        w = worst_ratio(text, grid, chi)
        overall = max(overall, w)
        print(f"  {text:24s} worst measured/certificate = {w:.4f}")
    print(f"overall worst ratio {overall:.4f}; "
          f"shipped constant {DEFAULT_CERT_CONSTANT} leaves "
          f"{DEFAULT_CERT_CONSTANT / overall:.0f}x headroom")


if __name__ == "__main__":
    main()
