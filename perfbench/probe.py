"""Set-up probe: interpreter start, imports and the warm-up of one workload,
in a fresh process.  The benchmark times several of these for `setup_s`.

Usage: python3 perfbench/probe.py WORKLOAD

Prints, as its last line, the machine-speed samples it took (see speed.py):
`SAMPLES` right after the imports, then those of a `speed.Meter` around the
warm-up.  The caller subtracts their time from the probe's and scales the
rest by them.
"""
from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import harness
import speed
import workloads

SAMPLES = 10


def main() -> int:
    cli = harness.boot()
    samples = [speed.sample() for _ in range(SAMPLES)]
    refs = harness.load_refs()
    harness.RUN_DIR.mkdir(exist_ok=True)
    with speed.Meter() as meter, tempfile.TemporaryDirectory(dir=harness.RUN_DIR) as tmp:
        for job in workloads.warmup_jobs(sys.argv[1], refs):
            rc, _, tb = harness.run_job(cli, job, Path(tmp))
            if rc != refs["jobs"][job.ref]["rc"]:
                print(f"probe: {job.name} exited {rc}\n{tb}", file=sys.stderr)
                return 1
    print(json.dumps({"samples": samples + meter.samples}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
