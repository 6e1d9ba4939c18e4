"""Print a sha256 of each of a fixed list of `oscdecay` runs, and of them all.

Each run is `oscdecay.cli.main` called in-process.  Its hash covers the
report with `config.out_json` blanked, everything written to stderr and
the exit code, so two source trees whose digests agree produced the same
report bytes on every job.  The jobs are the benchmark's four sweep
templates at coefficient scale 1 and its two warm-up sweeps, the three
`verify` rows of ROADMAP's Baseline, `verify --orthant off` on x1*x2,
`integrate` on x1*x2*x3 over the full space, an `integrate` on x1^3*x2^3
over the full space, whose mapped panels (map exponent e > 1) lie below 0
as well as above, an `integrate` whose sample is refused over the node
budget, the default 3D `verify`, whose top two samples are, and
`polyhedron`, `dual`, `exponent` and `check` on three supports: two (d = 3 and 4) where all vertices lie on one facet along a ray,
so a meet of facet vertex sets spans no compact face, and a subset of the
d = 6 degree-3 shell.  Then `check` on the benchmark's signed d = 3 base.
No other job here runs the Gauss-Newton witness refinement; this one runs
it 12 times and finds 2 degenerate witnesses, one of them small only by
scale.  The last job is `check` on a d = 3 phase with a face that one
pair's sign certifies while another pair is a constant.

    PYTHONPATH=src python scripts/report_digest.py
"""
import argparse
import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

from oscdecay import cli

JOBS = (
    # benchmark sweep templates at scale 1, then the warm-up sweeps
    ("verify", "--phase", "x1*x2", "--dim", "2", "--lam-lo", "64.0", "--lam-hi", "2048.0",
     "--lam-count", "11"),
    ("verify", "--phase", "x1^3*x2^3", "--dim", "2", "--lam-lo", "64.0", "--lam-hi", "2048.0",
     "--lam-count", "11", "--sharpness"),
    ("integrate", "--phase", "x1*x2*x3", "--dim", "3", "--lam-lo", "16.0", "--lam-hi", "64.0",
     "--lam-count", "3"),
    ("integrate", "--phase", "x1^2*x2^2*x3^2 + x1^3*x2*x3", "--dim", "3", "--lam-lo", "16.0",
     "--lam-hi", "32.0", "--lam-count", "2"),
    ("verify", "--phase", "1/2*x1*x2", "--dim", "2", "--lam-lo", "32.0", "--lam-hi", "512.0",
     "--lam-count", "8", "--sharpness"),
    ("integrate", "--phase", "1/2*x1*x2*x3", "--dim", "3", "--lam-lo", "16.0", "--lam-hi", "16.0",
     "--lam-count", "1"),
    # `verify` with defaults
    ("verify", "--phase", "x1*x2"),
    ("verify", "--phase", "x1^2*x2^2 + x1^5*x2"),
    ("verify", "--phase", "x1^3*x2^3", "--sharpness"),
    ("verify", "--phase", "x1*x2", "--orthant", "off"),
    # a full-space 3D sweep
    ("integrate", "--phase", "x1*x2*x3", "--dim", "3", "--orthant", "off", "--lam-lo", "16",
     "--lam-hi", "64", "--lam-count", "3"),
    # mapped panels (e > 1) on pieces below 0
    ("integrate", "--phase", "x1^3*x2^3", "--orthant", "off", "--lam-lo", "256", "--lam-hi",
     "1024", "--lam-count", "3"),
    # samples refused over the node budget: one alone, and two of a verify sweep
    ("integrate", "--phase", "x1*x2", "--lam", "1e6"),
    ("verify", "--phase", "x1*x2*x3", "--dim", "3"),
    # exact geometry, no quadrature
    *((cmd, "--phase", phase, "--dim", dim, *(flags if cmd == "check" else ()))
      for phase, dim, flags in (
          ("x1^2*x3^4 + x1^2*x2*x3^2 + x1^3*x2^2", "3", ()),
          ("x1^4*x3^5*x4^3 + x1^4*x2^3*x3^3*x4^2 + x1^5*x2*x3^3*x4^4 + x1^5*x2^4*x3*x4^2",
           "4", ()),
          ("x4*x6^2 + x3*x5^2 + x3*x4^2 + x2*x3*x5 + x1*x3^2 + x1^2*x4", "6",
           ("--grid", "8")))
      for cmd in ("polyhedron", "dual", "exponent", "check")),
    # refined witnesses
    ("check", "--phase", "-x2^2*x3^6 - x2^3*x3^5 - x1*x3^7 - x1*x2^3*x3^4 + x1*x2^7"
     " + x1^2*x3^6 + x1^2*x2^3*x3^3 - x1^2*x2^6 + x1^3*x2^2*x3^3 + x1^3*x2^4*x3"
     " + x1^4*x2^4 - x1^5*x2*x3^2 + x1^6*x2*x3 + x1^7*x2", "--dim", "3"),
    # a face certified by a pair's sign while another pair is a constant
    ("check", "--phase", "3*x2^2*x3 + 3*x1*x2 + 3*x1*x2^4", "--dim", "3"),
)


def run_digest(argv) -> str:
    """The sha256 of one run's blanked report, stderr and exit code."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "report.json"
        with contextlib.redirect_stderr(err):
            code = cli.main([*argv, "--out", str(out)])
        report = json.loads(out.read_text()) if out.exists() else None
    if report is not None:
        report["config"]["out_json"] = ""
    text = json.dumps([report, err.getvalue(), code], indent=2, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def main() -> None:
    argparse.ArgumentParser(description=__doc__,
                            formatter_class=argparse.RawDescriptionHelpFormatter).parse_args()
    digests = []
    for argv in JOBS:
        digests.append(run_digest(argv))
        print(digests[-1], " ".join(argv), flush=True)
    print(hashlib.sha256("".join(digests).encode()).hexdigest(), "all")


if __name__ == "__main__":
    main()
