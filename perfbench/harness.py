"""Start-up and job execution shared by the benchmark, its set-up probe and
its tools.

The program is driven from outside only: each job calls `oscdecay.cli.main`
in-process with the arguments a user would type and writes its report to a
file, which the checker reads afterwards.
"""
from __future__ import annotations

import json
import os
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent  # the checkout under test
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"                  # reports, spans and results
REFS = Path(__file__).resolve().parent / "refs.json"

# One BLAS thread: with the interpreter's own thread the run stays within
# the two cores of the reference machine, and GEMV timings stay steady.
BLAS_THREADS = 1


def boot():
    """Pin BLAS threads, put the checkout's sources first, import the CLI.

    Must run before anything imports numpy, since OpenBLAS reads its thread
    count once, when it loads.  Exits with status 1 when the checkout holds
    no program sources.
    """
    if not (SRC / "oscdecay" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no program sources under {SRC}")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    from oscdecay import cli
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: imported {cli.__file__}, not the checkout's")
    return cli


def load_refs() -> dict:
    return json.loads(REFS.read_text())


def run_job(cli, job, outdir: Path, tracer=None) -> tuple[int | None, Path, str]:
    """Run one job; returns (exit code or None, report path, traceback text)."""
    out = outdir / (job.name.replace("/", "_") + ".json")
    argv = list(job.argv) + ["--out", str(out)]
    try:
        with tracer.job(job.name) if tracer else nullcontext():
            return cli.main(argv), out, ""
    except Exception:  # a crashing job is a failed job, and the run goes on
        return None, out, traceback.format_exc()


def read_report(path: Path) -> dict | None:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None
