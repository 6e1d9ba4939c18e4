"""Sweep a phase over a frequency grid and fit the decay law.

Prints the measured magnitudes against the predicted envelope and the free
and pinned fit results.  Example:

    python scripts/run_decay_sweep.py --phase "x1^3*x2^3" --lam-hi 4096
"""
import argparse
import math

from oscdecay.decay import fit_decay
from oscdecay.exponent import varchenko_exponent
from oscdecay.oscint import (
    CutoffSpec,
    TestFunctionSpec,
    lambda_grid,
    lambda_sweep,
)
from oscdecay.phase import parse_phase, reduce_phase
from oscdecay.polytope import build_polyhedron


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--phase", required=True)
    ap.add_argument("--dim", type=int, default=2)
    ap.add_argument("--lam-lo", type=float, default=64.0)
    ap.add_argument("--lam-hi", type=float, default=4096.0)
    ap.add_argument("--count", type=int, default=13)
    ap.add_argument("--full-cutoff", action="store_true",
                    help="integrate over all orthants, not just the positive one")
    args = ap.parse_args()

    p = reduce_phase(parse_phase(args.phase, args.dim))
    n = build_polyhedron(p)
    predicted = varchenko_exponent(n)
    chi = CutoffSpec(positive_orthant=not args.full_cutoff)
    grid = lambda_grid(args.lam_lo, args.lam_hi, args.count)

    results = lambda_sweep(p, TestFunctionSpec.ones(p.dimension), chi, grid)
    inv = 1.0 / float(predicted.nu)
    print(f"predicted nu = {predicted.nu}, log power m = {predicted.m}")
    print(f"{'lam':>10s} {'|value|':>12s} {'envelope':>12s} {'err':>9s} flag")
    for r in results:
        env = r.lam ** -inv * math.log(2 + r.lam) ** predicted.m
        if r.low_confidence:  # refused: no value to print
            print(f"{r.lam:10.1f} {'':12s} {env:12.4e} {'':9s} over budget")
        else:
            print(f"{r.lam:10.1f} {abs(r.value):12.4e} {env:12.4e} {r.error:9.1e}")

    fit = fit_decay(results, predicted)
    print(f"free fit:   1/nu = {fit.inv_nu_free:.4f}, m = {fit.m_free:.2f}")
    print(f"pinned fit: 1/nu = {fit.inv_nu_pinned:.4f} "
          f"(predicted {fit.inv_nu_predicted:.4f}, "
          f"gap {fit.inv_nu_gap:.4f}, tol {fit.tol})")
    print(f"verdict: {'PASS' if fit.passed else 'FAIL'}")


if __name__ == "__main__":
    main()
