"""Layer spans for the traced run, recorded from outside the program.

`Tracer.installed()` replaces each layer entry point below by a wrapper on
every `oscdecay` module that holds it: the defining module, the names `cli`
imports, and the globals other layers look up at call time (for example
`oscdecay.oscint.certificate_sum` or `oscdecay.decay.evaluate_lambda`).  It
puts the originals back on exit.  Spans stay in memory as
(job, id, parent, name, start, end, counts) and are written out when the
benchmark ends.  Functions of `ratlin` and helpers not listed here count
toward the span of their caller.
"""
from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager

# (module, function, span name)
ENTRY_POINTS = (
    ("phase", "parse_phase", "phase.parse"),
    ("phase", "reduce_phase", "phase.reduce"),
    ("polytope", "build_polyhedron", "polytope.build"),
    ("polytope", "dual_polyhedron", "polytope.dual"),
    ("exponent", "sharp_exponent", "exponent.sharp"),
    ("exponent", "ray_scaling", "exponent.ray"),
    ("nondegen", "check_nondegeneracy", "nondegen.check"),
    ("oscint", "lambda_sweep", "oscint.sweep"),
    ("oscint", "evaluate_lambda", "oscint.eval"),
    ("oscint", "certificate_sum", "oscint.cert"),
    ("decay", "fit_decay", "decay.fit"),
    ("decay", "sharpness_test", "decay.sharpness"),
    ("decay", "check_dual_domination", "decay.domination"),
)

JOB = "cli.job"


def _counts(name: str, args: tuple, result) -> dict | None:
    """Work counts read off a layer call's input and output."""
    if name == "polytope.build":
        return {"support_points": len(args[0].support),
                "facets": len(result.facets), "faces": len(result.faces)}
    if name == "nondegen.check":
        return {"faces": len(result.faces),
                "inconclusive": sum(f.verdict == "inconclusive" for f in result.faces)}
    if name == "oscint.eval":
        mag = abs(result.value)
        return {"nodes": result.nodes, "low_confidence": result.low_confidence,
                "rel_err_est": result.error / mag if mag else float("inf")}
    if name == "decay.fit":
        return {"gap": result.inv_nu_gap}
    return None


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._job = ""

    @contextmanager
    def _span(self, name: str):
        sid = len(self.spans)
        span = [self._job, sid, self._stack[-1] if self._stack else None,
                name, time.perf_counter(), None, None]
        self.spans.append(span)
        self._stack.append(sid)
        try:
            yield span
        finally:
            span[5] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            with self._span(name) as span:
                result = fn(*args, **kwargs)
                span[6] = _counts(name, args, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every binding of every entry point; restore them on exit."""
        mods = [m for n, m in sys.modules.items()
                if n == "oscdecay" or n.startswith("oscdecay.")]
        saved = []
        for mod, fname, name in ENTRY_POINTS:
            orig = getattr(sys.modules["oscdecay." + mod], fname)
            wrapper = self._wrap(orig, name)
            for m in mods:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        saved.append((m, attr, orig))
                        setattr(m, attr, wrapper)
        try:
            yield self
        finally:
            for m, attr, orig in saved:
                setattr(m, attr, orig)

    @contextmanager
    def job(self, job_id: str):
        """Root span of one CLI job; the layer spans inside it carry its id."""
        self._job = job_id
        with self._span(JOB):
            yield

    def write(self, path) -> None:
        keys = ("job", "id", "parent", "name", "start", "end", "counts")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer busy times (span self-time) and counts over a set of spans."""
    child_time: dict[int, float] = {}
    for s in spans:
        if s[2] is not None:
            child_time[s[2]] = child_time.get(s[2], 0.0) + (s[5] - s[4])
    self_time: dict[str, float] = {}
    count: dict[str, int] = {}
    for s in spans:
        t = (s[5] - s[4]) - child_time.get(s[1], 0.0)
        self_time[s[3]] = self_time.get(s[3], 0.0) + t
        count[s[3]] = count.get(s[3], 0) + 1

    def busy(prefix):
        return sum(t for n, t in self_time.items() if n.startswith(prefix))

    def total(name, key):
        return sum(s[6][key] for s in spans if s[3] == name and s[6])

    evals = count.get("oscint.eval", 0)
    nodes = total("oscint.eval", "nodes")
    eval_s = self_time.get("oscint.eval", 0.0)
    faces_checked = total("nondegen.check", "faces")
    sharp_ids = {s[1] for s in spans if s[3] == "decay.sharpness"}
    err_est = [s[6]["rel_err_est"] for s in spans if s[3] == "oscint.eval"]
    gaps = [s[6]["gap"] for s in spans if s[3] == "decay.fit"]
    return {
        "phase.busy_s": busy("phase."),
        "polytope.build_s": self_time.get("polytope.build", 0.0),
        "polytope.dual_s": self_time.get("polytope.dual", 0.0),
        "polytope.build_calls": count.get("polytope.build", 0),
        "polytope.dual_calls": count.get("polytope.dual", 0),
        "polytope.support_points": total("polytope.build", "support_points"),
        "polytope.facets": total("polytope.build", "facets"),
        "polytope.faces": total("polytope.build", "faces"),
        "exponent.busy_s": busy("exponent."),
        "nondegen.check_s": self_time.get("nondegen.check", 0.0),
        "nondegen.faces_checked": faces_checked,
        "nondegen.inconclusive_frac": (total("nondegen.check", "inconclusive")
                                       / faces_checked if faces_checked else 0.0),
        "oscint.sweep_s": busy("oscint.") - self_time.get("oscint.cert", 0.0),
        "oscint.cert_s": self_time.get("oscint.cert", 0.0),
        "oscint.evals": evals,
        "oscint.nodes": nodes,
        "oscint.nodes_per_eval": nodes / evals if evals else 0.0,
        "oscint.nodes_per_s": nodes / eval_s if eval_s else 0.0,
        "oscint.low_conf_frac": (total("oscint.eval", "low_confidence") / evals
                                 if evals else 0.0),
        "oscint.max_rel_err_est": max(err_est, default=0.0),
        "decay.busy_s": busy("decay."),
        "decay.fit_s": self_time.get("decay.fit", 0.0),
        "decay.sharpness_self_s": self_time.get("decay.sharpness", 0.0),
        "decay.sharpness_evals": sum(1 for s in spans if s[3] == "oscint.eval"
                                     and s[2] in sharp_ids),
        "decay.fit_gap_max": max(gaps, default=0.0),
        "cli.self_s": self_time.get(JOB, 0.0),
        "trace.job_s": sum(s[5] - s[4] for s in spans if s[3] == JOB),
    }
