"""Command line front end: subcommands over the library, JSON and CSV reports.

Every run echoes its full configuration into the report, so a report is
reproducible from its own `config` block.  Exit codes: 0 success / all
verdicts PASS, 1 a verdict FAILed or a computation refused, 2 usage.
"""
from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import re
import shutil
import sys
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import get_type_hints

from .decay import (
    MAX_EXPONENT,
    MAX_SHARPNESS_COUNT,
    MAX_SUM_BOXES,
    MIN_FIT_OCTAVES,
    MIN_FIT_SAMPLES,
    box_functions,
    check_dual_domination,
    dual_lambda_grid,
    fit_decay,
    sharpness_boxes,
    sharpness_witness,
    spans_fit_octaves,
    summation_boxes,
    summation_oracle,
)
from .exponent import ExponentQuery, sharp_exponent
from .nondegen import MAX_FACE_CELLS, check_nondegeneracy, max_grid
from .oscint import (MAX_LAM_COUNT, MAX_LEVELS, MIN_LAMBDA, PLATEAU, CutoffSpec, OscError,
                     QuadratureConfig, TestFunctionSpec, certify_results, lambda_grid,
                     lambda_sweep)
from .phase import parse_phase, reduce_phase
from .polytope import (
    MAX_DIMENSION,
    MIN_DIMENSION,
    build_polyhedron,
    dual_polyhedron,
    dual_to_json_dict,
    same_vertex_set,
    to_json_dict,
)


class CliError(ValueError):
    """Configuration or argument problem; maps to exit code 2."""


@dataclass(frozen=True)
class RunConfig:
    """Everything a run depends on, echoed verbatim into every report."""

    phase: str = ""
    dimension: int = 0            # 0 means infer from the expression
    p: tuple[str, ...] = ()       # per-factor integrability, "inf" allowed
    lam_lo: float = 64.0
    lam_hi: float = 4096.0
    lam_count: int = 13
    box_scale: str = "1/4"        # starting half-width for sharpness boxes
    grid: int = 64                # nondegeneracy samples per axis
    eta: float = 1e-3
    starts: int = 8
    levels: int = 12              # deepest cutoff octave, also certificate truncation
    orthant: bool = True          # sweep over the positive orthant only
    sharpness: bool = False       # run the box-family check inside verify
    sharpness_count: int = 6
    fit_tol: float = 0.05
    witness_tol: float = 1e-8
    z: tuple[str, ...] = ()       # summation weights
    e_lo: int = 4                 # summation frequency exponents, powers of 2
    e_hi: int = 24
    e_step: int = 2
    out_json: str = ""
    out_csv: str = ""

    def validate(self) -> None:
        # comparisons are written so that NaN fails them
        if not (0 < self.fit_tol < math.inf and 0 < self.witness_tol < math.inf):
            raise CliError("tolerances must be positive and finite")
        if not 0 < self.eta < 1:
            raise CliError("eta must lie in (0, 1)")
        if not (math.isfinite(self.lam_lo) and math.isfinite(self.lam_hi)):
            raise CliError("frequency range must be finite")
        for name, value, least in (("--lam-count", self.lam_count, 1),
                                   ("sharpness_count", self.sharpness_count, 1),
                                   ("--grid", self.grid, 2)):
            if value < least:
                raise CliError(f"{name} must be at least {least}, got {value}")
        # a sweep plans every frequency at once, and every dual vertex's
        # sharpness grid would pass the largest float
        for name, value, most in (("--lam-count", self.lam_count, MAX_LAM_COUNT),
                                  ("sharpness_count", self.sharpness_count,
                                   MAX_SHARPNESS_COUNT)):
            if value > most:
                raise CliError(f"{name} must be at most {most}, got {value}")
        if self.starts < 0:
            raise CliError(f"starts must be nonnegative, got {self.starts}")
        if not 1 <= self.levels <= MAX_LEVELS:
            raise CliError(f"levels must lie in 1..{MAX_LEVELS}")
        if not (self.lam_lo >= MIN_LAMBDA
                and (self.lam_count == 1 or self.lam_lo < self.lam_hi)):
            raise CliError(f"frequency range needs {MIN_LAMBDA:g} <= lam-lo < lam-hi")
        try:
            lambda_grid(self.lam_lo, self.lam_hi, self.lam_count)
        except OscError:
            # each bound is finite, but the grid's top point rounds past the float range
            raise CliError(f"frequency grid from {self.lam_lo:g} to {self.lam_hi:g} in "
                           f"{self.lam_count} points overflows the float range") from None
        if self.dimension and not MIN_DIMENSION <= self.dimension <= MAX_DIMENSION:
            raise CliError(f"dimension must lie in {MIN_DIMENSION}..{MAX_DIMENSION}, "
                           f"got {self.dimension}")
        try:
            box_scale = Fraction(self.box_scale)
        except (ValueError, ZeroDivisionError):
            raise CliError(f"box scale {self.box_scale!r} is not a rational number") from None
        if not 0 < box_scale <= PLATEAU:
            raise CliError(f"box scale must lie in (0, {PLATEAU}], the cutoff plateau, "
                           f"got {self.box_scale}")
        if not (self.e_step >= 1 and 1 <= self.e_lo <= self.e_hi <= MAX_EXPONENT):
            raise CliError("summation exponents need e-step >= 1 and "
                           f"1 <= e-lo <= e-hi <= {MAX_EXPONENT}")
        try:
            ExponentQuery.of(self.p)
        except (ValueError, ZeroDivisionError):
            raise CliError("--p entries must be rationals in [2, inf] or inf, "
                           f"got {','.join(self.p)}") from None
        self.weights()
        # a report that could never be written is refused before any work
        for flag, path in (("--out", self.out_json), ("--csv", self.out_csv)):
            if path and not Path(path).parent.is_dir():
                raise CliError(f"cannot write {flag} file: "
                               f"{str(Path(path).parent)!r} is not a directory")

    def weights(self) -> tuple[Fraction, ...]:
        """The summation weights `z` as exact rationals."""
        try:
            return tuple(Fraction(x) for x in self.z)
        except (ValueError, ZeroDivisionError):
            raise CliError(f"--z entries must be rationals, got {','.join(self.z)}") from None

    def to_json_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["p"] = list(self.p)
        out["z"] = list(self.z)
        return out


def _parse_tuple(raw: str) -> tuple[str, ...]:
    return tuple(s.strip() for s in raw.split(",") if s.strip())


_BOOLS = dict(zip("1 true yes on 0 false no off".split(), [True] * 4 + [False] * 4))
_PARSERS = {str: str, int: int, float: float, bool: lambda s: _BOOLS[s.lower()],
            tuple[str, ...]: _parse_tuple}
# a config key per RunConfig field, parsed by its type
_COERCE = {name: _PARSERS[kind] for name, kind in get_type_hints(RunConfig).items()}


def load_config_file(path: str) -> dict:
    """key=value lines, # comments; keys are RunConfig field names.  Booleans
    are 1/true/yes/on or 0/false/no/off."""
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise CliError(f"cannot read config file: {e}") from None
    out = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        s = line.strip()
        if not s or s.startswith("#"):
            continue
        if "=" not in s:
            raise CliError(f"{path}:{lineno}: expected key=value")
        key, _, value = s.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _COERCE:
            raise CliError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            out[key] = _COERCE[key](value)
        except (KeyError, ValueError):
            raise CliError(f"{path}:{lineno}: bad value for {key}: {value!r}") from None
    return out


def assemble_config(args: argparse.Namespace) -> RunConfig:
    """Defaults, then config file entries, then explicit flags."""
    defaults = RunConfig()
    values = {f.name: getattr(defaults, f.name) for f in fields(RunConfig)}
    if getattr(args, "config", None):
        values.update(load_config_file(args.config))
    for name in _COERCE:
        got = getattr(args, name, None)
        if got is None:
            continue
        if isinstance(got, str) and not isinstance(values[name], str):
            got = _COERCE[name](got)  # string-valued flags like --orthant on
        values[name] = got
    cfg = RunConfig(**values)
    cfg.validate()
    return cfg


def _infer_dimension(text: str) -> int:
    indices = [int(m) for m in re.findall(r"x(\d+)", text)]
    if not indices:
        raise CliError("cannot infer dimension; pass --dim")
    return max(indices)


def _build_inputs(cfg: RunConfig):
    if not cfg.phase:
        raise CliError("--phase is required")
    dim = cfg.dimension or _infer_dimension(cfg.phase)
    if not MIN_DIMENSION <= dim <= MAX_DIMENSION:
        raise CliError(f"inferred dimension must lie in {MIN_DIMENSION}.."
                       f"{MAX_DIMENSION}, got {dim}")
    p = reduce_phase(parse_phase(cfg.phase, dim))
    n = build_polyhedron(p)
    q = ExponentQuery.of(cfg.p) if cfg.p else ExponentQuery.all_inf(dim)
    if q.dimension != dim:
        raise CliError(f"--p needs {dim} entries")
    return p, n, q


def _report(command: str, cfg: RunConfig, **parts) -> dict:
    empty = ("polyhedron", "exponent", "nondegeneracy", "decay_fit", "sharpness",
             "summation", "sweep")
    return {"schema": "report/2", "command": command, "config": cfg.to_json_dict(),
            **dict.fromkeys(empty), "verdicts": [], **parts}


_encode_scalar = json.JSONEncoder().encode
_CONSTANTS = {None: "null", True: "true", False: "false"}


def _json(o, indent: str = "") -> str:
    """`json.dumps(o, indent=2, sort_keys=True)`, which CPython runs in pure
    Python, byte for byte for data with str keys, nested at `indent`.  Lists
    of plain ints or finite floats are one join; NaN, infinities and
    subclasses go to the C encoder."""
    kind = type(o)
    if kind is str:
        return encode_basestring_ascii(o)
    if kind is int:
        return int.__repr__(o)
    if kind is float and math.isfinite(o):
        return float.__repr__(o)
    if o is None or kind is bool:
        return _CONSTANTS[o]
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        inner = indent + "  "
        kinds = set(map(type, o))
        if kinds == {int}:
            items = map(int.__repr__, o)
        elif kinds == {float} and all(map(math.isfinite, o)):
            items = map(float.__repr__, o)
        else:
            items = (_json(x, inner) for x in o)
        return f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}]"
    if isinstance(o, dict):
        if not o:
            return "{}"
        inner = indent + "  "
        items = (f"{encode_basestring_ascii(k)}: {_json(v, inner)}" for k, v in sorted(o.items()))
        return f"{{\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}}}"
    return _encode_scalar(o)


def _emit(report: dict, cfg: RunConfig) -> int:
    """Write the report as `_json` encodes it to `--out` or stdout; the exit
    code is 0 when every verdict passed."""
    text = _json(report) + "\n"
    if cfg.out_json:
        try:
            Path(cfg.out_json).write_text(text)
        except OSError as e:
            raise CliError(f"cannot write --out file: {e}") from None
    else:
        sys.stdout.write(text)
    return 0 if all(v["verdict"] == "PASS" for v in report["verdicts"]) else 1


def _verdict(name: str, ok: bool, detail: str) -> dict:
    return {"name": name, "verdict": "PASS" if ok else "FAIL", "detail": detail}


def _envelope(exponent_report, lam: float) -> float:
    inv = 1.0 / float(exponent_report.nu)
    return lam ** -inv * math.log(2.0 + lam) ** exponent_report.m


def _sweep_rows(results, exp_rep) -> list[dict]:
    """One row per sample; a refused sample has null value and error."""
    return [{
        "lam": r.lam,
        "re": None if r.value is None else r.value.real,
        "im": None if r.value is None else r.value.imag,
        "abs": None if r.value is None else abs(r.value),
        "err": r.error,
        "nodes": r.nodes,
        "low_confidence": r.low_confidence,
        "certificate": r.certificate,
        "envelope": _envelope(exp_rep, r.lam),
    } for r in results]


def _write_csv(rows: list[dict], path: str) -> None:
    """The rows as CSV, one column per key of a `_sweep_rows` row."""
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
    except OSError as e:
        raise CliError(f"cannot write --csv file: {e}") from None


def _run_sweep(cfg: RunConfig, p, n, q, families=()):
    """The certified sweep on `cfg`'s frequency grid, and the quadrature
    results of each sharpness family of `families` (`sharpness_boxes`
    results), whose boxes take the full cutoff: one `lambda_sweep` call, the
    sweep's rows first, and one certificate per sweep row."""
    grid = lambda_grid(cfg.lam_lo, cfg.lam_hi, cfg.lam_count)
    chi = CutoffSpec(positive_orthant=cfg.orthant, levels=cfg.levels)
    ones = TestFunctionSpec.ones(p.dimension)
    fs, chis, lams = [ones] * len(grid), [chi] * len(grid), list(grid)
    for boxes in families:
        fs += box_functions(boxes)
        chis += [CutoffSpec(levels=cfg.levels)] * len(boxes[3])
        lams += [lam for lam, *_ in boxes[3]]
    results = lambda_sweep(p, fs, chis, lams)
    found, at = [], len(grid)
    for boxes in families:
        found.append(results[at:at + len(boxes[3])])
        at += len(boxes[3])
    return certify_results(results[:len(grid)], p, ones, chi, query=q, n=n), found


# ---------------------------------------------------------------------------
# subcommand handlers

def cmd_polyhedron(args, cfg: RunConfig) -> int:
    _, n, _ = _build_inputs(cfg)
    rep = _report("polyhedron", cfg,
                  polyhedron={"primal": to_json_dict(n), "dual": None,
                              "domination": None})
    return _emit(rep, cfg)


def cmd_dual(args, cfg: RunConfig) -> int:
    _, n, q = _build_inputs(cfg)
    dual = dual_polyhedron(n)
    ok, table = check_dual_domination(n, q, dual)
    dom = [{"w": [str(x) for x in w], "pairing": str(val)} for w, val in table]
    double = same_vertex_set(dual_polyhedron(dual), n)
    rep = _report("dual", cfg,
                  polyhedron={"primal": to_json_dict(n),
                              "dual": dual_to_json_dict(dual),
                              "domination": dom},
                  verdicts=[_verdict("double-dual", double,
                                     "dual of dual equals the primal"),
                            _verdict("dual-domination", ok,
                                     "query point clears every dual vertex")])
    return _emit(rep, cfg)


def cmd_exponent(args, cfg: RunConfig) -> int:
    _, n, q = _build_inputs(cfg)
    er = sharp_exponent(n, q)
    rep = _report("exponent", cfg, exponent=er.to_json_dict())
    return _emit(rep, cfg)


def _nondegeneracy(cfg: RunConfig, p, n):
    """`check_nondegeneracy` of `p` with `cfg`'s grid, refused by name when
    a face's grid would exceed `MAX_FACE_CELLS` cells."""
    if cfg.grid > max_grid(p.dimension):
        raise CliError(f"--grid {cfg.grid} sweeps more than {MAX_FACE_CELLS} cells "
                       f"per face in dimension {p.dimension}; use --grid "
                       f"{max_grid(p.dimension)} or less")
    return check_nondegeneracy(p, n, grid=cfg.grid, eta=cfg.eta,
                               starts=cfg.starts, degen_tol=cfg.witness_tol)


def cmd_check(args, cfg: RunConfig) -> int:
    p, n, _ = _build_inputs(cfg)
    nd = _nondegeneracy(cfg, p, n)
    rep = _report("check", cfg, nondegeneracy=nd.to_json_dict(),
                  verdicts=[_verdict("nondegeneracy",
                                     nd.verdict == "nondegenerate",
                                     nd.verdict)])
    return _emit(rep, cfg)


def cmd_integrate(args, cfg: RunConfig) -> int:
    if args.lam is not None:  # one frequency is the one-point grid
        if not math.isfinite(args.lam):
            raise CliError(f"--lam must be finite, got {args.lam}")
        if not args.lam >= MIN_LAMBDA:
            raise CliError(f"--lam must be at least {MIN_LAMBDA:g}, got {args.lam:g}")
        cfg = replace(cfg, lam_lo=args.lam, lam_hi=args.lam, lam_count=1)
    p, n, q = _build_inputs(cfg)
    results, _ = _run_sweep(cfg, p, n, q)
    er = sharp_exponent(n, q)
    rows = _sweep_rows(results, er)
    if cfg.out_csv:
        _write_csv(rows, cfg.out_csv)
    rep = _report("integrate", cfg, exponent=er.to_json_dict(), sweep=rows)
    code = _emit(rep, cfg)
    refused = [f"lam {r.lam:g} needs {r.nodes:.2g} nodes" for r in results if r.low_confidence]
    if refused:
        print(f"error: samples refused over the node budget of "
              f"{QuadratureConfig().node_budget:.2g} nodes: {', '.join(refused)}",
              file=sys.stderr)
        return 1
    return code


def cmd_verify(args, cfg: RunConfig) -> int:
    # refuse, before any work, a grid the decay fit could never accept
    if cfg.lam_count < MIN_FIT_SAMPLES:
        raise CliError(f"--lam-count must be at least {MIN_FIT_SAMPLES} for the decay fit")
    grid = lambda_grid(cfg.lam_lo, cfg.lam_hi, cfg.lam_count)
    if not spans_fit_octaves(grid):
        raise CliError(f"the grid must span {MIN_FIT_OCTAVES:g} octaves, "
                       f"got {math.log2(grid[-1] / grid[0]):.3g}")
    p, n, q = _build_inputs(cfg)
    nd = _nondegeneracy(cfg, p, n)
    er = sharp_exponent(n, q)
    families = []
    if cfg.sharpness:  # every dual vertex's grid, then boxes, refused before any quadrature
        dual, sharp_chi = dual_polyhedron(n), CutoffSpec(levels=cfg.levels)
        grids = [(w, dual_lambda_grid(w, count=cfg.sharpness_count)) for w in dual.vertices]
        families = [sharpness_boxes(p, n, w, Fraction(cfg.box_scale), lams, chi=sharp_chi,
                                    dual=dual) for w, lams in grids]
    # the sweep and every family's boxes are one quadrature call
    results, found = _run_sweep(cfg, p, n, q, families)
    fit = fit_decay(results, er, tol=cfg.fit_tol)
    rows = _sweep_rows(results, er)
    if cfg.out_csv:
        _write_csv(rows, cfg.out_csv)
    certified = all(abs(r.value) <= r.certificate
                    for r in results if not r.low_confidence)
    verdicts = [
        _verdict("nondegeneracy", nd.verdict == "nondegenerate", nd.verdict),
        _verdict("decay-fit", fit.passed,
                 f"pinned 1/nu gap {fit.inv_nu_gap:.6f} vs tol {fit.tol}"),
        _verdict("certificate", certified,
                 "per-box bound sum dominates every clean sweep point"),
    ]
    sharp_part = None
    if cfg.sharpness:
        sharp_part, refused = [], []
        all_ok = True
        chain_ok, _ = check_dual_domination(n, q, dual)
        for boxes, box_results in zip(families, found):
            wit = sharpness_witness(boxes, box_results, chain_ok)
            sharp_part.append(wit.to_json_dict())
            refused += [f"{r.lam:g}" for r in wit.rows if r.measured is None]
            all_ok = all_ok and wit.passed
        detail = "measured mass in band at every dual vertex"
        if refused:
            detail += f"; boxes refused over the node budget at lam {', '.join(refused)}"
        verdicts.append(_verdict("sharpness", all_ok, detail))
    rep = _report("verify", cfg,
                  polyhedron={"primal": to_json_dict(n), "dual": None,
                              "domination": None},
                  exponent=er.to_json_dict(),
                  nondegeneracy=nd.to_json_dict(),
                  decay_fit=fit.to_json_dict(),
                  sharpness=sharp_part,
                  sweep=rows,
                  verdicts=verdicts)
    return _emit(rep, cfg)


def cmd_sum_oracle(args, cfg: RunConfig) -> int:
    _, n, _ = _build_inputs(cfg)
    if not cfg.z:
        raise CliError("--z is required for sum-oracle")
    z = cfg.weights()
    if len(z) != n.dimension or any(x <= 0 for x in z):
        raise CliError(f"--z needs {n.dimension} positive entries, got {','.join(cfg.z)}")
    lams, boxes = [], 0
    for e in range(cfg.e_lo, cfg.e_hi + 1, cfg.e_step):
        boxes += summation_boxes(n.dimension, z, 2.0 ** e)
        if boxes > MAX_SUM_BOXES:
            fits = (f"use --e-hi {e - cfg.e_step} or less" if lams
                    else f"--e-lo {cfg.e_lo} alone exceeds it")
            raise CliError(f"the box grid up to --e-hi {cfg.e_hi} has more than "
                           f"{MAX_SUM_BOXES} boxes; {fits}")
        lams.append(2.0 ** e)
    sr = summation_oracle(n, z, lams)
    rep = _report("sum-oracle", cfg, summation=sr.to_json_dict(),
                  verdicts=[_verdict(
                      "summation-envelope", sr.passed,
                      f"normalized spread {sr.spread:.6f} vs {sr.bound_factor}")])
    return _emit(rep, cfg)


HANDLERS = {
    "polyhedron": cmd_polyhedron,
    "dual": cmd_dual,
    "exponent": cmd_exponent,
    "check": cmd_check,
    "integrate": cmd_integrate,
    "verify": cmd_verify,
    "sum-oracle": cmd_sum_oracle,
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI's parser.  With no `command` every subcommand is registered,
    for the top-level help and the bad-choice error.  Given a known
    `command`, only that subcommand is; the metavar lists all seven, so
    the usage line every error prints reads the same either way.  The
    terminal's width is read once, as argparse's formatter reads it (its
    columns less 2), not by each of the formatters argparse builds, one
    per argument added."""
    formatter = functools.partial(argparse.HelpFormatter,
                                  width=shutil.get_terminal_size().columns - 2)
    parser = argparse.ArgumentParser(
        prog="oscdecay",
        description="Decay-rate toolkit for separable oscillatory forms.",
        formatter_class=formatter)
    sub = parser.add_subparsers(dest="command", required=True)
    if command is not None:
        sub.metavar = "{" + ",".join(HANDLERS) + "}"
    for name in HANDLERS if command is None else (command,):
        _add_arguments(sub.add_parser(name, formatter_class=formatter), name)
    return parser


def _add_arguments(sp: argparse.ArgumentParser, name: str) -> None:
    sp.add_argument("--phase", help="polynomial, e.g. 'x1^2*x2^2 + x1^5*x2'")
    sp.add_argument("--dim", type=int, dest="dimension")
    sp.add_argument("--p", type=_parse_tuple,
                    help="comma list of integrabilities, e.g. inf,2")
    sp.add_argument("--config", help="key=value file, overridden by flags")
    sp.add_argument("--out", dest="out_json", help="report path (else stdout)")
    if name in ("integrate", "verify"):
        sp.add_argument("--lam-lo", type=float, dest="lam_lo")
        sp.add_argument("--lam-hi", type=float, dest="lam_hi")
        sp.add_argument("--lam-count", type=int, dest="lam_count")
        sp.add_argument("--levels", type=int)
        sp.add_argument("--orthant", choices=["on", "off"])
        sp.add_argument("--csv", dest="out_csv")
    if name == "integrate":
        sp.add_argument("--lam", type=float, help="single frequency")
    if name == "verify":
        sp.add_argument("--sharpness", action="store_const", const=True,
                        default=None)
        sp.add_argument("--fit-tol", type=float, dest="fit_tol")
        sp.add_argument("--box-scale", dest="box_scale")
    if name == "check" or name == "verify":
        sp.add_argument("--grid", type=int)
        sp.add_argument("--eta", type=float)
        sp.add_argument("--starts", type=int)
        sp.add_argument("--witness-tol", type=float, dest="witness_tol")
    if name == "sum-oracle":
        sp.add_argument("--z", type=_parse_tuple,
                        help="comma list of weights, e.g. 1,1")
        sp.add_argument("--e-lo", type=int, dest="e_lo")
        sp.add_argument("--e-hi", type=int, dest="e_hi")
        sp.add_argument("--e-step", type=int, dest="e_step")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # only the invoked subcommand needs its parser
    parser = build_parser(argv[0] if argv and argv[0] in HANDLERS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        cfg = assemble_config(args)
        return HANDLERS[args.command](args, cfg)
    except CliError as e:
        print(f"usage error: {e}", file=sys.stderr)
        print(f"run 'oscdecay {args.command} --help' for the grammar",
              file=sys.stderr)
        return 2
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
