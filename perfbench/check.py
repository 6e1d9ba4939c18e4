"""Output checker: a job's exit code and report against its stored reference.

Exact sections are compared in a canonical form: every vector is mapped
back to the base coordinates through the job's permutation, and lists whose
order is a labelling choice (vertices, facets, faces, dual vertices) are
sorted.  Per-face nondegeneracy verdicts are compared as the sorted list of
(face dimension, verdict) pairs, because a `check` report names faces only
by their index in the polyhedron's face list.  Sweep values are compared at
the effective frequency lam * c with a relative tolerance.
"""
from __future__ import annotations

import math
from fractions import Fraction


def _num(x) -> str:
    return str(Fraction(x))


def _vec(v, perm) -> list[str]:
    out = [""] * len(v)
    for i, x in enumerate(v):
        out[perm[i]] = _num(x)
    return out


def _polyhedron(pd: dict, perm) -> dict:
    verts = [_vec(v, perm) for v in pd["vertices"]]
    out = {
        "vertices": sorted(verts),
        "facets": sorted([_vec(f["normal"], perm), _num(f["offset"]),
                          sorted(verts[i] for i in f["vertex_ids"]),
                          sorted(perm[i] for i in f["rays"])]
                         for f in pd["facets"]),
    }
    if "compact_faces" in pd:
        out["compact_faces"] = sorted(
            [f["dim"], sorted(verts[i] for i in f["vertex_ids"]),
             _vec(f["normal"], perm), _num(f["offset"])]
            for f in pd["compact_faces"])
    return out


def canonical(report: dict, perm=None) -> dict:
    """Labelling-free form of a report's exact sections, in base coordinates."""
    if perm is None:
        perm = tuple(range(report["config"]["dimension"]))
    out = {"command": report["command"],
           "verdicts": [[v["name"], v["verdict"]] for v in report["verdicts"]]}
    poly = report["polyhedron"]
    if poly:
        out["primal"] = _polyhedron(poly["primal"], perm)
        if poly["dual"]:
            out["dual"] = _polyhedron(poly["dual"], perm)
        if poly["domination"] is not None:
            out["domination"] = sorted([_vec(r["w"], perm), _num(r["pairing"])]
                                       for r in poly["domination"])
    e = report["exponent"]
    if e:
        out["exponent"] = {
            "nu": _num(e["nu"]), "m": e["m"], "witness": _vec(e["witness"], perm),
            "face": [e["face"]["dim"],
                     sorted(_vec(v, perm) for v in e["face"]["vertices"]),
                     e["face"]["compact"]],
            "m_is_sharp": e["m_is_sharp"], "flags": e["flags"]}
    nd = report["nondegeneracy"]
    if nd:
        out["nondegeneracy"] = {
            "verdict": nd["verdict"],
            "faces": sorted([f["face_dim"], f["verdict"]] for f in nd["faces"])}
    if report["sharpness"] is not None:
        out["sharpness"] = sorted([_vec(w["w"], perm), w["verdict"]]
                                  for w in report["sharpness"])
    if report["decay_fit"]:
        out["decay_fit"] = report["decay_fit"]["verdict"]
    return out


def check_job(job, rc: int, report: dict | None, ref: dict,
              rel_tol: float) -> tuple[list[str], float | None]:
    """Problems found (empty when the output is correct) and the largest
    relative deviation of a sweep value from its reference."""
    problems = []
    if rc != ref["rc"]:
        problems.append(f"exit code {rc}, expected {ref['rc']}")
    if report is None:
        return problems + ["no report written"], None
    got = canonical(report, job.perm)
    want = ref["canonical"]
    for key in sorted(set(got) | set(want)):
        if got.get(key) != want.get(key):
            problems.append(f"{key} differs from the reference")
    if "values" not in ref:
        return problems, None
    rows = report["sweep"] or []
    if len(rows) != len(ref["values"]):
        return problems + [f"{len(rows)} sweep rows, expected {len(ref['values'])}"], None
    worst = 0.0
    scale = float(job.scale)
    for row, lam, (re, im) in zip(rows, ref["lam"], ref["values"]):
        if row["low_confidence"]:
            problems.append(f"sample at lam {row['lam']} is low_confidence")
        if abs(row["lam"] * scale - lam) > 1e-9 * lam:
            problems.append(f"sample at lam {row['lam']} is off the reference grid")
        exact = complex(re, im)
        dev = abs(complex(row["re"], row["im"]) - exact) / abs(exact)
        if not dev <= rel_tol:  # written this way round so NaN fails too
            problems.append(f"value at lam {row['lam']} deviates by {dev:.3g} "
                            f"(tolerance {rel_tol:g})")
        worst = max(worst, dev if math.isfinite(dev) else math.inf)
    return problems, worst
