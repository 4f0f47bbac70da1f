"""The benchmark's workloads.

Each workload builds a round of instances from a seeded random generator,
solves each instance through khovsolve's public entry points, and names the
count a correct solve must find. The program only ever sees the generated
instances; the seed stays in the benchmark.

Functions are looked up as module attributes at call time (``ks.km.km_matrix``
rather than a name bound at import), so that the probe's wrappers see every
call.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import khovsolve as ks
from khovsolve import cli
from khovsolve.fields import GF, QQ

PRIME = 9716633


@dataclass
class Instance:
    label: str
    expected: int
    system: object = None  # StructuredSystem, for in-memory workloads
    path: Path = None  # system file, for the CLI workload
    dreg: int = None  # None: the solver's default degree
    seed: int = 0


@dataclass
class Answer:
    """What the solve phase handed back to its caller."""

    count: int
    coords: tuple = ()  # QQ only: homogeneous solution coordinates
    residuals: tuple = ()  # QQ only


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable  # (random.Random, work directory) -> list[Instance]
    solve: Callable  # Instance -> Answer
    all_real: bool = False  # every solution must be real
    # instances per run; latency percentiles need ten samples beyond p90
    min_instances: int = 1


def _flags(alpha, count, rng, field):
    flags = ks.catalog.random_flags(6, count, seed=rng.randrange(1 << 30), field=field)
    return [ks.catalog.SchubertCondition(alpha, f) for f in flags]


# ---------------------------------------------------------------------------
# solve phases
# ---------------------------------------------------------------------------


def _solve_count(inst: Instance) -> Answer:
    """Count over F_p: KM rows, kernel, multiplication matrices."""
    M = ks.km.km_matrix(inst.system, inst.dreg, reduce=True)
    N = ks.solver.kernel_basis(M)
    ms = ks.solver.multiplication_matrices(inst.system, N, inst.dreg - 1, seed=inst.seed)
    return Answer(count=ms.delta)


def _solve_qq(inst: Instance) -> Answer:
    sols = ks.solver.solve(inst.system, dreg=inst.dreg, seed=inst.seed)
    return Answer(count=len(sols), coords=sols.coords, residuals=sols.residuals)


def _solve_cli(inst: Instance) -> Answer:
    out = inst.path.with_suffix(".out.json")
    argv = ["solve", str(inst.path), "--dreg", str(inst.dreg),
            "--seed", str(inst.seed), "--out", str(out)]
    code = ks.cli.main(argv)
    if code != cli.EXIT_OK:
        raise RuntimeError(f"khovsolve {' '.join(argv)} exited with {code}")
    data = json.loads(out.read_text(encoding="utf-8"))
    sols = data["solutions"]
    return Answer(
        count=data["delta"],
        coords=tuple(tuple(complex(re, im) for re, im in s["coords"]) for s in sols),
        residuals=tuple(s["residual"] for s in sols),
    )


# ---------------------------------------------------------------------------
# instance builders
# ---------------------------------------------------------------------------


def _build_fp_gr36(rng: random.Random, workdir: Path):
    F = GF(PRIME)
    conds = _flags((3, 5, 6), 5, rng, F) + _flags((2, 5, 6), 2, rng, F)
    inst = ks.catalog.schubert_equations(3, 6, conds, field=F)
    return [Instance("gr36-5x356-2x256", 11, system=inst.sys, dreg=3,
                     seed=rng.randrange(1 << 30))]


def _build_qq_gr36(rng: random.Random, workdir: Path):
    out = []
    problems = (
        ("gr36-3x246", 2, lambda: _flags((2, 4, 6), 3, rng, QQ)),
        ("gr36-356-4x256", 3,
         lambda: _flags((3, 5, 6), 1, rng, QQ) + _flags((2, 5, 6), 4, rng, QQ)),
    )
    for label, count, conds in problems:
        inst = ks.catalog.schubert_equations(3, 6, conds())
        out.append(Instance(label, count, system=inst.sys, dreg=2,
                            seed=rng.randrange(1 << 30)))
    return out


def _build_qq_gr25(rng: random.Random, workdir: Path):
    points = rng.sample(range(-4, 5), 6)
    conds = [ks.catalog.SchubertCondition((3, 5), ks.catalog.osculating_flag(s, 5))
             for s in points]
    inst = ks.catalog.schubert_equations(2, 5, conds)
    return [Instance(f"gr25-osculating{tuple(points)}", 5, system=inst.sys,
                     seed=rng.randrange(1 << 30))]


def _duffing_file(rng):
    coeffs = tuple(tuple(rng.randint(1, 50) for _ in range(4)) for _ in range(2))
    inst = ks.catalog.duffing(coeffs=coeffs)
    return "duffing", 5, inst.sys


def _del_pezzo_file(rng):
    inst = ks.catalog.get_instance("delpezzo", seed=rng.randrange(1 << 30))
    return "delpezzo", 5, inst.sys


def _bott_samelson_file(rng):
    # the catalog's fixed equations; only the solve seed varies
    return "bottsamelson", 6, ks.catalog.bott_samelson().sys


SMALL_CLI_PER_FAMILY = 4


def _build_small_cli(rng: random.Random, workdir: Path):
    out = []
    for k in range(SMALL_CLI_PER_FAMILY):
        for make in (_duffing_file, _del_pezzo_file, _bott_samelson_file):
            family, count, system = make(rng)
            path = workdir / f"{family}-{rng.randrange(1 << 40):010x}.json"
            path.write_text(ks.sysfile.dump_system(system.par, system), encoding="utf-8")
            out.append(Instance(f"{family}-{k}", count, path=path, dreg=3,
                                seed=rng.randrange(1 << 30)))
    return out


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "fp-gr36-count",
            "Gr(3,6) 5x(3,5,6)+2x(2,5,6) over F_p at dreg 3, 11 solutions: "
            "mod-p RREF, subduction and multiplication matrices dominate",
            _build_fp_gr36, _solve_count,
        ),
        Workload(
            "qq-gr36-solve",
            "two QQ Gr(3,6) Schubert problems at dreg 2 (2 and 3 solutions): "
            "Bareiss eliminations and Fraction arithmetic dominate",
            _build_qq_gr36, _solve_qq,
        ),
        Workload(
            "qq-gr25-osculating",
            "Gr(2,5) with six osculating flags at the default dreg, 5 real "
            "solutions: Hilbert data and graded supports dominate",
            _build_qq_gr25, _solve_qq, all_real=True,
        ),
        Workload(
            "small-cli",
            "dozens of small QQ solves from system files through the CLI: "
            "per-call overhead and parsing, no large matrices",
            _build_small_cli, _solve_cli, min_instances=100,
        ),
    )
}


def warm_up():
    """Run every code path once on a tiny instance: lazy imports, numpy."""
    for field_ in (QQ, GF(PRIME)):
        inst = ks.catalog.duffing(field=field_)
        M = ks.km.km_matrix(inst.sys, 3, reduce=True)
        N = ks.solver.kernel_basis(M)
        ms = ks.solver.multiplication_matrices(inst.sys, N, 2)
        if field_ == QQ:
            ks.solver.residuals(inst.sys, ks.solver.extract_solutions(ms).coords)
