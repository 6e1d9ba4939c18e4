"""Show that the output checker refuses deliberately perturbed outputs.

Usage, from the root of a checkout:

    python3 perfbench/selftest.py

Runs a few jobs of seed 0 (a 2D `verify`, a `dual`, a `check` and an
`exponent` on permuted shell subsets), confirms that their reports pass the
checker, then perturbs one field at a time in a copy of a report, or the
exit code, and confirms that the checker reports each perturbation.  Exits
1 if a correct output is refused or a perturbed one slips through.
"""
from __future__ import annotations

import copy
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import check
import harness
import workloads


def _bump(x) -> str:
    return str(Fraction(x) + 1)


def perturbations(report: dict, rel_tol: float):
    """(label, perturbed report) pairs for every section the report has."""
    def edit(label, fn):
        r = copy.deepcopy(report)
        fn(r)
        return label, r

    out = []
    poly = report["polyhedron"]
    if poly:
        out.append(edit("primal vertex coordinate",
                        lambda r: r["polyhedron"]["primal"]["vertices"][0].__setitem__(
                            0, _bump(r["polyhedron"]["primal"]["vertices"][0][0]))))
        out.append(edit("facet offset",
                        lambda r: r["polyhedron"]["primal"]["facets"][0].__setitem__(
                            "offset", _bump(r["polyhedron"]["primal"]["facets"][0]["offset"]))))
        out.append(edit("compact face dropped",
                        lambda r: r["polyhedron"]["primal"]["compact_faces"].pop()))
        if poly["dual"]:
            out.append(edit("dual vertex coordinate",
                            lambda r: r["polyhedron"]["dual"]["vertices"][0].__setitem__(
                                0, _bump(r["polyhedron"]["dual"]["vertices"][0][0]))))
            out.append(edit("domination pairing",
                            lambda r: r["polyhedron"]["domination"][0].__setitem__(
                                "pairing", _bump(r["polyhedron"]["domination"][0]["pairing"]))))
    if report["exponent"]:
        out.append(edit("exponent nu", lambda r: r["exponent"].__setitem__(
            "nu", str(Fraction(r["exponent"]["nu"]) + Fraction(1, 2)))))
        out.append(edit("exponent m", lambda r: r["exponent"].__setitem__(
            "m", r["exponent"]["m"] + 1)))
    if report["nondegeneracy"]:
        def flip_face(r):
            face = r["nondegeneracy"]["faces"][0]
            face["verdict"] = ("degenerate" if face["verdict"] == "nondegenerate"
                               else "nondegenerate")
        out.append(edit("per-face nondegeneracy verdict", flip_face))
    if report["verdicts"]:
        def flip_verdict(r):
            v = r["verdicts"][0]
            v["verdict"] = "FAIL" if v["verdict"] == "PASS" else "PASS"
        out.append(edit("verdict", flip_verdict))
    if report["sweep"]:
        def shift_value(r):
            row = r["sweep"][-1]
            row["re"] += 10 * rel_tol * abs(complex(row["re"], row["im"]))
        out.append(edit("sweep value off by 10x the tolerance", shift_value))
        out.append(edit("low_confidence sample", lambda r: r["sweep"][0].__setitem__(
            "low_confidence", True)))
        out.append(edit("NaN sweep value", lambda r: r["sweep"][0].__setitem__(
            "re", float("nan"))))
    return out


def main() -> int:
    cli = harness.boot()
    refs = harness.load_refs()
    jobs = workloads.pass_jobs("verify2d", 0, 0, refs)[:1]
    jobs += [j for j in workloads.pass_jobs("geometry", 0, 1, refs)
             if j.ref in ("d6.dual", "d4.check", "d3.exponent")]
    harness.RUN_DIR.mkdir(exist_ok=True)
    ok = True
    caught = 0
    with tempfile.TemporaryDirectory(dir=harness.RUN_DIR) as tmp:
        for job in jobs:
            rc, path, _ = harness.run_job(cli, job, Path(tmp))
            report = harness.read_report(path)
            ref, tol = refs["jobs"][job.ref], refs["rel_tol"]
            problems, _ = check.check_job(job, rc, report, ref, tol)
            print(f"{job.name} (perm {job.perm}, scale {job.scale}): "
                  f"{'correct' if not problems else problems}")
            ok = ok and not problems
            cases = [(label, rc, bad) for label, bad in perturbations(report, tol)]
            cases += [("exit code", rc + 1, report), ("missing report", rc, None)]
            for label, bad_rc, bad_report in cases:
                found, _ = check.check_job(job, bad_rc, bad_report, ref, tol)
                print(f"  {label}: {'caught: ' + found[0] if found else 'MISSED'}")
                ok = ok and bool(found)
                caught += bool(found)
    print(f"selftest: {caught} perturbations caught; "
          f"{'all outputs judged correctly' if ok else 'FAILURES above'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
