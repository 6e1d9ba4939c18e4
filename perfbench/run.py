"""The oscdecay benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload verify2d --seed 0 --seconds 30 --trace 0

Runs passes of one workload (see workloads.py) in a closed loop: a single
caller starts each job only after the previous one has returned.  A pass
is timed from its first job's start to its last report written; passes
repeat, each on fresh inputs, while another one still fits in `--seconds`.
Every report is then checked against the stored references.  Times are
scaled to a reference machine speed, measured while they are taken (see
speed.py).

With `--trace 0` the last line reports the end-to-end metrics: `wall_s` (the
median pass), `setup_s` (the median of several fresh-process set-ups:
interpreter start, imports and the warm-up), `peak_rss_mb` and `ok_frac`.
With `--trace 1` passes alternate untraced and traced, and the last line
reports the per-layer metrics of the traced passes.  Earlier lines print
the environment, every pass and, when traced, each layer's share of job
time.  Results and spans are also written under `.bench_run/`.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import check
import harness
import spans
import speed
import workloads

SETUP_PROBES = 5

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "ok_frac": "frac"}


def per_layer_unit(name: str) -> str:
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "frac"
    if name.endswith(("max_rel_dev", "max_rel_err_est", "fit_gap_max")):
        return "ratio"
    return "count"


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads():
    """Thread count OpenBLAS reports, or None when it cannot be asked."""
    import ctypes
    import numpy
    libdir = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    nproc = len(os.sched_getaffinity(0))
    return {
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads_pinned": harness.BLAS_THREADS,
        "blas_threads": _blas_threads(),
        "caveat": (f"timings are for this {nproc}-core machine only; the "
                   "figures in perfbench/README.md come from a shared "
                   "2-core virtual machine"),
    }


def measure_setup(workload: str) -> tuple[list[float], list[float]]:
    """Set-up times of fresh processes that boot, import and warm up.

    Several probes, because one set-up is a single short sample of a
    drifting machine.  Each probe samples the machine speed itself; its
    time less the sampling is scaled by those samples.  (Samples taken here,
    around a probe, track its speed poorly.)  Returns (scaled, raw) seconds.
    """
    probe = Path(__file__).resolve().parent / "probe.py"
    scaled, raw = [], []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        done = subprocess.run([sys.executable, str(probe), workload],
                              cwd=harness.ROOT, capture_output=True, text=True,
                              timeout=120)
        raw.append(time.perf_counter() - t0)
        if done.returncode != 0:
            raise SystemExit(f"perfbench: set-up probe failed\n{done.stderr}")
        samples = json.loads(done.stdout.splitlines()[-1])["samples"]
        scaled.append((raw[-1] - sum(samples)) * speed.factor(samples))
    return scaled, raw


def run_pass(cli, jobs, outdir: Path, tracer=None):
    """Run jobs back to back; returns (speed.Meter, [(job, rc, path, tb)])."""
    results = []
    with speed.Meter() as meter:
        for job in jobs:
            results.append((job, *harness.run_job(cli, job, outdir, tracer)))
    return meter, results


def claim_inputs(jobs, seen: set) -> None:
    """Enforce one job per generated input within a run."""
    for job in jobs:
        if job.argv in seen:
            raise SystemExit(f"perfbench: input of {job.name} repeats within the run")
        seen.add(job.argv)


def check_results(results, refs, failures: list) -> float:
    """Check every report; append failures; return the worst sweep deviation."""
    worst = 0.0
    for job, rc, path, tb in results:
        problems, dev = check.check_job(job, rc, harness.read_report(path),
                                        refs["jobs"][job.ref], refs["rel_tol"])
        if tb:
            problems.append("exception:\n" + tb)
        if problems:
            failures.append({"job": job.name, "argv": list(job.argv),
                             "problems": problems})
        if dev is not None:
            worst = max(worst, dev)
    return worst


def at_reference_speed(m: dict, factor: float) -> dict:
    """Scale a traced pass's layer times and rates like its wall time."""
    out = {}
    for k, v in m.items():
        if k.endswith("per_s"):
            v /= factor
        elif k.endswith("_s"):
            v *= factor
        out[k] = v
    return out


def layer_shares(m: dict) -> dict[str, float]:
    layers = {
        "phase": m["phase.busy_s"],
        "polytope": m["polytope.build_s"] + m["polytope.dual_s"],
        "exponent": m["exponent.busy_s"],
        "nondegen": m["nondegen.check_s"],
        "oscint": m["oscint.sweep_s"] + m["oscint.cert_s"],
        "decay": m["decay.busy_s"],
        "cli": m["cli.self_s"],
    }
    total = m["trace.job_s"]
    return {k: v / total for k, v in layers.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    cli = harness.boot()
    refs = harness.load_refs()
    harness.RUN_DIR.mkdir(exist_ok=True)
    env = environment()
    print("environment " + json.dumps(env), flush=True)

    setup, setup_raw = ([], []) if args.trace else measure_setup(args.workload)
    tracer = spans.Tracer()
    failures: list = []
    attempted = 0
    walls = {False: [], True: []}      # traced? -> scaled pass wall times
    raw_walls = {False: [], True: []}  # traced? -> measured pass wall times
    traced_metrics = []
    worst_dev = 0.0
    seen: set = set()
    with tempfile.TemporaryDirectory(dir=harness.RUN_DIR) as tmp:
        outdir = Path(tmp)
        warm = workloads.warmup_jobs(args.workload, refs)
        claim_inputs(warm, seen)
        _, results = run_pass(cli, warm, outdir)
        attempted += len(results)
        check_results(results, refs, failures)

        needed = 2 if args.trace else 1   # a traced run needs one pass of each kind
        start = time.perf_counter()
        for index in range(workloads.MAX_PASSES):
            traced = bool(args.trace) and index % 2 == 1
            jobs = workloads.pass_jobs(args.workload, args.seed, index, refs)
            claim_inputs(jobs, seen)
            first_span = len(tracer.spans)
            if traced:
                with tracer.installed():
                    meter, results = run_pass(cli, jobs, outdir, tracer)
                traced_metrics.append(at_reference_speed(
                    spans.layer_metrics(tracer.spans[first_span:]), meter.factor))
            else:
                meter, results = run_pass(cli, jobs, outdir)
            walls[traced].append(meter.scaled)
            raw_walls[traced].append(meter.wall)
            attempted += len(results)
            worst_dev = max(worst_dev, check_results(results, refs, failures))
            print(f"pass {index} {'traced' if traced else 'untraced'} "
                  f"{len(jobs)} jobs {meter.scaled:.3f} s scaled, "
                  f"{meter.wall:.3f} s measured", flush=True)
            elapsed = time.perf_counter() - start
            if (index + 1 >= needed and elapsed + statistics.median(
                    raw_walls[False] + raw_walls[True]) > args.seconds):
                break

    for f in failures:
        print("FAILED " + json.dumps(f), file=sys.stderr)
    failed = len(failures)
    if args.trace:
        metrics = {k: statistics.median(m[k] for m in traced_metrics)
                   for k in traced_metrics[0]}
        metrics["oscint.max_rel_dev"] = worst_dev
        metrics["trace.overhead_frac"] = (statistics.median(walls[True])
                                          / statistics.median(walls[False]) - 1.0)
        metrics["failed_frac"] = failed / attempted
        for layer, share in layer_shares(metrics).items():
            print(f"share {layer:9s} {share:7.2%} of job time", flush=True)
        tracer.write(harness.RUN_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
        units = {k: per_layer_unit(k) for k in metrics}
    else:
        metrics = {
            "wall_s": statistics.median(walls[False]),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": 1.0 - failed / attempted,
        }
        units = END_TO_END_UNITS
    for k, v in metrics.items():
        print(f"metric {k} = {v:.6g} {units[k]}", flush=True)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    record = dict(result, environment=env, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, pass_walls=walls[False],
                  traced_pass_walls=walls[True], measured_pass_walls=raw_walls[False],
                  measured_traced_pass_walls=raw_walls[True], setup_samples=setup,
                  measured_setup_samples=setup_raw, failures=failures)
    (harness.RUN_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
