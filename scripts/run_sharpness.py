"""Exercise the sharpness box families at every dual vertex of a phase.

For each vertex w of the dual polyhedron, shrinks the box family until the
phase is flat to 1e-10 on it, then prints measured mass over the L1 norm at
each frequency.  Ratios should sit in [0.9, 1.1] when the decay rate is
attained.
"""
import argparse
from fractions import Fraction

from oscdecay.decay import dual_lambda_grid, sharpness_test
from oscdecay.exponent import ExponentQuery
from oscdecay.phase import parse_phase, reduce_phase
from oscdecay.polytope import build_polyhedron, dual_polyhedron


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--phase", default="x1*x2")
    ap.add_argument("--dim", type=int, default=2)
    ap.add_argument("--count", type=int, default=6, help="frequencies per vertex")
    ap.add_argument("--delta", default="1/4", help="starting half-width")
    args = ap.parse_args()

    p = reduce_phase(parse_phase(args.phase, args.dim))
    n = build_polyhedron(p)
    q = ExponentQuery.all_inf(p.dimension)
    dual = dual_polyhedron(n)

    for w in dual.vertices:
        label = "(" + ", ".join(str(x) for x in w) + ")"
        rep = sharpness_test(p, n, q, w, Fraction(args.delta),
                             dual_lambda_grid(w, count=args.count), dual=dual)
        print(f"w = {label}: delta -> {rep.delta} after {rep.halvings} "
              f"halvings, chain {'ok' if rep.chain_ok else 'BROKEN'}")
        for row in rep.rows:
            ratio = "over budget" if row.ratio is None else f"{row.ratio:.6f}"
            print(f"  lam = {row.lam:10.1f}  measured/L1 = {ratio}  "
                  f"phase bound = {row.phase_bound:.2e}")
        print(f"  verdict: {'PASS' if rep.passed else 'FAIL'}")


if __name__ == "__main__":
    main()
