"""Regenerate perfbench/refs.json: base supports and the stored references.

Usage, from the root of a checkout:

    python3 perfbench/make_refs.py

Run once, at the commit whose outputs define "correct".  For every job
template it stores the exit code and the canonical exact sections of the
CLI's report on the base input (scale 1, identity permutation).  Sweep
values come from a finer quadrature rule than the CLI's default, through
the library with the CLI's own cutoff and test functions.  Geometry base
supports are drawn from a fixed seed; a base is redrawn when it is a
permutation of an earlier base of the same dimension, or when its dual has
more vertices than the role allows (the `dual` command's double dual costs
C(V + d, d) linear solves for V dual vertices).
"""
from __future__ import annotations

import itertools
import json
import random
import sys
import tempfile
from pathlib import Path

import check
import harness
import workloads

REL_TOL = 1e-5
RULE = {"order": 16, "waves_per_panel": 0.5, "node_budget": 2_000_000_000}


def _orbit_key(support, dim):
    return min(tuple(sorted(tuple(a[p[i]] for i in range(dim)) for a in support))
               for p in itertools.permutations(range(dim)))


def draw_bases() -> dict:
    from oscdecay.polytope import dual_polyhedron, from_support
    bases, seen = {}, set()
    for role in workloads.ROLES + workloads.WARM_ROLES:
        rng = random.Random(f"refs:{role.key}")
        pool = workloads.shell(role.dim, role.degree)
        while True:
            support = sorted(rng.sample(pool, role.size))
            signs = [rng.choice((1, -1)) for _ in support] if role.signed else None
            key = (role.dim, _orbit_key(support, role.dim))
            if key in seen:
                continue
            if role.max_dual_vertices:
                dual = dual_polyhedron(from_support(support, role.dim))
                if len(dual.vertices) > role.max_dual_vertices:
                    continue
            break
        seen.add(key)
        bases[role.key] = {"support": [list(a) for a in support], "signs": signs}
    return bases


def reference_values(sw: workloads.Sweep) -> tuple[list[float], list[list[float]]]:
    from oscdecay.oscint import (CutoffSpec, QuadratureConfig, TestFunctionSpec,
                                 evaluate_lambda, lambda_grid)
    from oscdecay.phase import parse_phase, reduce_phase
    p = reduce_phase(parse_phase(workloads.phase_text(sw.terms), sw.dim))
    lams = ((sw.lam_lo,) if sw.lam_count == 1
            else lambda_grid(sw.lam_lo, sw.lam_hi, sw.lam_count))
    chi = CutoffSpec(positive_orthant=True, levels=12)
    quad = QuadratureConfig(**RULE)
    values = []
    for lam in lams:
        r = evaluate_lambda(p, TestFunctionSpec.ones(sw.dim), chi, lam, quad=quad)
        if r.low_confidence:
            raise SystemExit(f"reference for {sw.key} at lam {lam} is low_confidence")
        values.append([r.value.real, r.value.imag])
        print(f"  {sw.key} lam {lam:.6g}: {r.value} ({r.nodes} nodes)", flush=True)
    return list(lams), values


def main() -> int:
    cli = harness.boot()
    refs = {"rel_tol": REL_TOL, "reference_rule": RULE, "bases": draw_bases(),
            "jobs": {}}
    sweeps = [sw for group in (workloads.SWEEPS, workloads.WARM_SWEEPS)
              for sws in group.values() for sw in sws]
    jobs = [(workloads.sweep_job(sw, 1, f"ref/{sw.key}"), sw) for sw in sweeps]
    jobs += [(workloads.role_job(r, refs["bases"][r.key], tuple(range(r.dim)),
                                 1, f"ref/{r.key}"), None)
             for r in workloads.ROLES + workloads.WARM_ROLES]
    harness.RUN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=harness.RUN_DIR) as tmp:
        for job, sw in jobs:
            rc, path, tb = harness.run_job(cli, job, Path(tmp))
            report = harness.read_report(path)
            if rc is None or report is None:
                raise SystemExit(f"{job.name} produced no report\n{tb}")
            entry = {"rc": rc, "canonical": check.canonical(report)}
            print(f"{job.ref}: exit {rc}", flush=True)
            if sw is not None:
                entry["lam"], entry["values"] = reference_values(sw)
            refs["jobs"][job.ref] = entry
    harness.REFS.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
