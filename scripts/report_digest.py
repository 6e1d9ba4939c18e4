"""Print a sha256 of each of a fixed list of `oscdecay` runs, and of them all.

Each run is `oscdecay.cli.main` called in-process.  Its hash covers the
report with `config.out_json` blanked, everything written to stderr and
the exit code, so two source trees whose digests agree produced the same
report bytes on every job.  Each line is a job's digest, the number of
`oscint._kernel` calls the job made, the number of `oscint._evaluate`
calls (each pays the quadrature's set-up once), the number of
`oscint._run_level` calls (one per `_evaluate`, and a second where the
error estimate reruns cells), the kernel nodes (the sum over its `_kernel`
calls of cells times the nodes per axis, B * prod n_k), and its command;
then comes the digest of all the job digests.  The call and node counts
are not hashed: they show how a change to the kernel's batching, grouping
or error estimate moves each job.  The
last line, not hashed either, gives the size of the `oscdecay` package
that ran: its lines (`wc -l`) and its code lines, those outside
docstrings, comments and blanks.

The jobs are the benchmark's four sweep
templates at coefficient scale 1 and its two warm-up sweeps, the three
`verify` rows of ROADMAP's Baseline, `verify --orthant off` on x1*x2,
`integrate` on x1*x2*x3 over the full space, an `integrate` on x1^3*x2^3
over the full space, whose mapped panels (map exponent e > 1) serve all
four orthants, each the positive one reflected, an `integrate` whose
sample is refused over the node budget, the default 3D `verify`, whose
top two samples are, and
`polyhedron`, `dual`, `exponent` and `check` on three supports: two (d = 3 and 4) where all vertices lie on one facet along a ray,
so a meet of facet vertex sets spans no compact face, and a subset of the
d = 6 degree-3 shell.  Then `check` on the benchmark's signed d = 3 base.
No other job here runs the Gauss-Newton witness refinement; this one runs
it 12 times and finds 2 degenerate witnesses, one of them small only by
scale.  Then `check` on a d = 3 phase with a face that one pair's sign
certifies while another pair is a constant.  Last come an `integrate` on
x1*x2 in d = 3, whose third axis has degree 0 in the phase, a
`verify --sharpness` at finite p, whose certificates carry a norm scale
below 1 (exit 1), and four `integrate` sweeps on symmetries of the phase:
x1^2*x2 - x1*x2^2 over the orthant, whose cells fall into orbits of the
axis swap, which negates the phase, so a cell takes the conjugate of its
image's sum; and over the full space, whose 2^d orthants are reflections
of the positive one, x1^2*x2^2 + x1^5*x2, whose four reflections merge
into two sub-rows of two plain copies each, x1^2*x2 + x1*x2^3, whose
reflections give two distinct term-sign patterns, each a sub-row of one
plain and one conjugate copy, and x1^2*x2 + x1*x2^2 + x1^2*x2^2, whose
reflections of one axis are each other's swap, one sub-row of two plain
copies.  Two `integrate` runs cut self-symmetric cells of many panels into
panel cells, one per orbit evaluated: x1^2*x2 - x1*x2^2 at lam 2048, whose
swap negates the phase, so a panel cell off the diagonal takes the
conjugate of its mirror image's sum, and x1*x2*x3 at lam 512, whose corner
cube every permutation fixes.  The three jobs at the end query the
polyhedron at points with denominators other than powers of two:
`exponent` and `dual` on the d = 3 support above at p = (3, 5/2, inf),
whose witness (2, 9/5, 3) lies on an unbounded 2-face, and `exponent` on
x1*x2^3, whose witness lies on an unbounded edge.

    PYTHONPATH=src python scripts/report_digest.py
"""
import argparse
import ast
import contextlib
import hashlib
import io
import json
import math
import tempfile
import tokenize
from pathlib import Path

from oscdecay import cli, oscint

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
    # mapped panels (e > 1), on every orthant's reflection
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
    # an axis whose terms of phi have degree 0 in it (x3), merged at any depth
    ("integrate", "--phase", "x1*x2", "--dim", "3", "--lam", "64"),
    # a certificate scale at finite p (exit 1)
    ("verify", "--phase", "x1^3*x2^3", "--p", "4,4", "--sharpness", "--lam-lo", "64",
     "--lam-hi", "1024", "--lam-count", "9"),
    # orbits of cells under a swap that negates the phase (conjugate sums);
    # reflections that merge into two sub-rows of plain copies, into two of
    # a plain and a conjugate copy each, and by the axis swap
    ("integrate", "--phase", "x1^2*x2 - x1*x2^2", "--lam-lo", "64", "--lam-hi", "1024",
     "--lam-count", "5"),
    ("integrate", "--phase", "x1^2*x2^2 + x1^5*x2", "--orthant", "off", "--lam-lo", "64",
     "--lam-hi", "1024", "--lam-count", "5"),
    ("integrate", "--phase", "x1^2*x2 + x1*x2^3", "--orthant", "off", "--lam-lo", "64",
     "--lam-hi", "1024", "--lam-count", "5"),
    ("integrate", "--phase", "x1^2*x2 + x1*x2^2 + x1^2*x2^2", "--orthant", "off", "--lam-lo",
     "64", "--lam-hi", "1024", "--lam-count", "5"),
    # self-symmetric cells of many panels, one panel cell per orbit: under a
    # swap that negates the phase, and under every permutation in 3D
    ("integrate", "--phase", "x1^2*x2 - x1*x2^2", "--lam", "2048"),
    ("integrate", "--phase", "x1*x2*x3", "--dim", "3", "--lam", "512"),
    # witnesses with non-dyadic denominators, on unbounded faces
    *((cmd, "--phase", "x1^2*x3^4 + x1^2*x2*x3^2 + x1^3*x2^2", "--dim", "3", "--p", "3,5/2,inf")
      for cmd in ("exponent", "dual")),
    ("exponent", "--phase", "x1*x2^3"),
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


def source_size(package: Path) -> tuple[int, int]:
    """The lines of the package's modules (`wc -l`), and its code lines:
    those that hold a token outside docstrings, comments and blanks."""
    lines = code = 0
    for path in sorted(package.glob("*.py")):
        text = path.read_text()
        lines += text.count("\n")
        docs = set()
        for node in ast.walk(ast.parse(text)):
            if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                    and ast.get_docstring(node) is not None):
                docs.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
        used = set()
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            if tok.type not in (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
                                tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER):
                used.update(range(tok.start[0], tok.end[0] + 1))
        code += len(used - docs)
    return lines, code


def main() -> None:
    argparse.ArgumentParser(description=__doc__,
                            formatter_class=argparse.RawDescriptionHelpFormatter).parse_args()
    digests, real = [], {name: getattr(oscint, name)
                         for name in ("_kernel", "_evaluate", "_run_level")}
    calls = {name: [] for name in real}

    def counted(name):
        def spy(*args):
            # per call, its kernel nodes: B cells times the nodes of each of
            # its (B, n_k) axes; 0 for the others
            axes = args[2] if name == "_kernel" else ()
            calls[name].append(math.prod([axes[0].shape[0]] + [x.shape[1] for x in axes])
                               if axes else 0)
            return real[name](*args)
        return spy

    for name in real:
        setattr(oscint, name, counted(name))
    try:
        for argv in JOBS:
            for made in calls.values():
                made.clear()
            digests.append(run_digest(argv))
            print(digests[-1], *(f"{len(made):4d}" for made in calls.values()),
                  f"{sum(calls['_kernel']):11d}", " ".join(argv), flush=True)
    finally:
        for name, fn in real.items():
            setattr(oscint, name, fn)
    print(hashlib.sha256("".join(digests).encode()).hexdigest(), "all")
    lines, code = source_size(Path(cli.__file__).parent)
    print(f"src/oscdecay: {lines} lines, {code} code lines")


if __name__ == "__main__":
    main()
