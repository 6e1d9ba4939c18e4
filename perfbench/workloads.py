"""Seeded job generation for the benchmark workloads.

A job is one `oscdecay` command.  Every job of a run gets an input of its
own, and no input repeats within a run, so an in-process memo cannot show
a gain that a CLI user (one process per command) would never see:

- `verify2d` and `cells3d` scale the coefficients of a base phase by a
  positive rational c and divide the frequency grid by c.  The integral
  is the same function of lam * c, so the quadrature does the same work
  for every c and the stored reference at the effective frequency lam * c
  checks every seed.
- `geometry` relabels the coordinates of a fixed base support of a
  homogeneous degree-K shell by a seeded permutation and scales its
  coefficients by c.  A permuted subset of the shell is another subset of
  the same shell with an isomorphic polyhedron, and a common positive
  scale changes no exact output, so every seed costs the same and the
  stored reference, mapped back through the permutation, checks it.

The run's seed chooses c and the permutations; warm-up inputs come from a
disjoint set.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

WORKLOADS = ("verify2d", "cells3d", "geometry")

# coefficient scales c; the warm-up scale lies outside the timed set.  Each
# job template takes a different scale in every pass, so a run holds at most
# len(TIMED_SCALES) passes before some input would repeat.
TIMED_SCALES = tuple(Fraction(k, 64) for k in range(57, 72))
WARM_SCALE = Fraction(1, 2)
MAX_PASSES = len(TIMED_SCALES)


@dataclass(frozen=True)
class Sweep:
    """A frequency-sweep job template: `verify` or `integrate` on one phase."""

    key: str
    command: str
    terms: tuple[tuple[int, tuple[int, ...]], ...]  # (coefficient, exponent)
    lam_lo: float
    lam_hi: float
    lam_count: int
    flags: tuple[str, ...] = ()

    @property
    def dim(self) -> int:
        return len(self.terms[0][1])


@dataclass(frozen=True)
class Role:
    """A geometry job template: one command on one base shell subset."""

    key: str
    command: str
    dim: int
    degree: int
    size: int
    max_dual_vertices: int = 0  # 0: no limit; bounds the double-dual cost
    signed: bool = False        # seeded coefficient signs (check jobs)


SWEEPS = {
    "verify2d": (
        Sweep("x1*x2", "verify", ((1, (1, 1)),), 64.0, 2048.0, 11),
        Sweep("x1^3*x2^3", "verify", ((1, (3, 3)),), 64.0, 2048.0, 11,
              ("--sharpness",)),
    ),
    "cells3d": (
        Sweep("x1*x2*x3", "integrate", ((1, (1, 1, 1)),), 16.0, 64.0, 3),
        Sweep("x1^2*x2^2*x3^2+x1^3*x2*x3", "integrate",
              ((1, (2, 2, 2)), (1, (3, 1, 1))), 16.0, 32.0, 2),
    ),
}

WARM_SWEEPS = {
    "verify2d": (Sweep("warm.x1*x2", "verify", ((1, (1, 1)),), 16.0, 256.0, 8,
                       ("--sharpness",)),),
    "cells3d": (Sweep("warm.x1*x2*x3", "integrate", ((1, (1, 1, 1)),),
                      8.0, 8.0, 1),),
}

ROLES = (
    Role("d3.polyhedron", "polyhedron", 3, 8, 14),
    Role("d3.dual", "dual", 3, 8, 14),
    Role("d3.exponent", "exponent", 3, 8, 14),
    Role("d3.check", "check", 3, 8, 14, signed=True),
    Role("d4.polyhedron", "polyhedron", 4, 4, 8),
    Role("d4.dual", "dual", 4, 4, 8),
    Role("d4.exponent", "exponent", 4, 4, 8),
    Role("d4.check", "check", 4, 4, 8, signed=True),
    Role("d5.polyhedron", "polyhedron", 5, 3, 7),
    Role("d5.exponent", "exponent", 5, 3, 7),
    Role("d6.polyhedron", "polyhedron", 6, 3, 6),
    Role("d6.dual", "dual", 6, 3, 5, max_dual_vertices=7),
    Role("d6.exponent", "exponent", 6, 3, 6),
)

WARM_ROLES = tuple(Role(f"warm.d3.{c}", c, 3, 4, 5, signed=(c == "check"))
                   for c in ("polyhedron", "dual", "exponent", "check"))


@dataclass(frozen=True)
class Job:
    name: str                  # unique within a run, e.g. "pass1/d4.check"
    ref: str                   # key of the stored reference
    argv: tuple[str, ...]      # CLI arguments, without --out
    scale: Fraction = Fraction(1)
    perm: tuple[int, ...] | None = None  # output axis i is base axis perm[i]


def shell(dim: int, degree: int) -> list[tuple[int, ...]]:
    """Exponents of total degree `degree` with at least two positive entries."""
    return [a for a in itertools.product(range(degree + 1), repeat=dim)
            if sum(a) == degree and sum(e > 0 for e in a) >= 2]


def phase_text(terms) -> str:
    """`3/2*x1^5*x2 - x1*x2` style text for (coefficient, exponent) pairs."""
    out = []
    for k, (coef, alpha) in enumerate(terms):
        coef = Fraction(coef)
        mono = "*".join(f"x{i + 1}" + (f"^{e}" if e > 1 else "")
                        for i, e in enumerate(alpha) if e)
        if k == 0:
            out.append("-" if coef < 0 else "")
        else:
            out.append(" - " if coef < 0 else " + ")
        out.append(mono if abs(coef) == 1 else f"{abs(coef)}*{mono}")
    return "".join(out)


def sweep_job(sw: Sweep, scale: Fraction, name: str) -> Job:
    terms = [(scale * c, a) for c, a in sw.terms]
    argv = (sw.command, "--phase", phase_text(terms), "--dim", str(sw.dim),
            "--lam-lo", repr(float(Fraction(sw.lam_lo) / scale)),
            "--lam-hi", repr(float(Fraction(sw.lam_hi) / scale)),
            "--lam-count", str(sw.lam_count)) + sw.flags
    return Job(name, sw.key, argv, scale=scale)


def role_job(role: Role, base: dict, perm: tuple[int, ...], scale: Fraction,
             name: str) -> Job:
    signs = base["signs"] or [1] * len(base["support"])
    terms = [(scale * s, tuple(alpha[perm[i]] for i in range(role.dim)))
             for s, alpha in zip(signs, base["support"])]
    argv = (role.command, "--phase", phase_text(terms), "--dim", str(role.dim))
    return Job(name, role.key, argv, scale=scale, perm=perm)


def _rng(workload: str, seed: int, key: str) -> random.Random:
    return random.Random(f"{workload}:{seed}:{key}")


def warmup_jobs(workload: str, refs: dict) -> list[Job]:
    if workload == "geometry":
        return [role_job(r, refs["bases"][r.key], tuple(range(r.dim)),
                         WARM_SCALE, f"warm/{r.key}") for r in WARM_ROLES]
    return [sweep_job(sw, WARM_SCALE, f"warm/{sw.key}")
            for sw in WARM_SWEEPS[workload]]


def pass_jobs(workload: str, seed: int, index: int, refs: dict) -> list[Job]:
    """The jobs of pass `index` (0-based); no input repeats within a run."""
    if not 0 <= index < MAX_PASSES:
        raise ValueError(f"pass index {index} out of range")
    name = f"pass{index}"
    if workload == "geometry":
        jobs = []
        for r in ROLES:
            rng = _rng(workload, seed, r.key)
            scale = rng.sample(TIMED_SCALES, MAX_PASSES)[index]
            perms = list(itertools.permutations(range(r.dim)))
            rng.shuffle(perms)
            jobs.append(role_job(r, refs["bases"][r.key],
                                 perms[index % len(perms)], scale,
                                 f"{name}/{r.key}"))
        return jobs
    return [sweep_job(sw, _rng(workload, seed, sw.key).sample(
                TIMED_SCALES, MAX_PASSES)[index], f"{name}/{sw.key}")
            for sw in SWEEPS[workload]]
