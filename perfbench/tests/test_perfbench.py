"""Tests of the benchmark itself: its gate, its trace and its workloads.

Run with:  python3 -m pytest perfbench/tests
"""

import dataclasses
from time import perf_counter

import pytest

import clock
import gate
import measure
from khovsolve import catalog, solver
from khovsolve.fields import GF, QQ
from probe import Probe
from workloads import PRIME, WORKLOADS, Answer, Instance


def _solved_duffing(field):
    inst = catalog.duffing(field=field)
    probe = Probe()
    with probe.installed():
        M = solver.km_matrix(inst.sys, 3, reduce=True)
        N = solver.kernel_basis(M)
        ms = solver.multiplication_matrices(inst.sys, N, 2)
    captured = probe.take()
    assert set(captured) == {"km", "kernel", "mult"}
    return Instance("duffing", 5, system=inst.sys, dreg=3), captured, N, ms


def _bump(x, field):
    return field.add(x, field.one)


def _corrupt_kernel(N, field):
    rows = [list(r) for r in N.N]
    rows[0][-1] = _bump(rows[0][-1], field)
    return dataclasses.replace(N, N=tuple(tuple(r) for r in rows))


def _corrupt_mult(ms, field):
    mats = [[list(r) for r in m] for m in ms.mats]
    mats[1][0][0] = _bump(mats[1][0][0], field)
    return dataclasses.replace(ms, mats=tuple(tuple(tuple(r) for r in m) for m in mats))


@pytest.mark.parametrize("field", [QQ, GF(PRIME)], ids=["QQ", "Fp"])
def test_gate_flags_corrupted_kernel_and_multiplication_matrix(field):
    inst, captured, N, ms = _solved_duffing(field)
    answer = Answer(count=5)
    if field == QQ:
        sols = solver.extract_solutions(ms)
        answer = Answer(5, sols.coords, solver.residuals(inst.system, sols.coords))
    problems, sha = gate.check(inst, answer, captured)
    assert problems == [] and len(sha) == 64

    bad_kernel = dict(captured, kernel=(captured["kernel"][0], _corrupt_kernel(N, field)))
    problems, bad_sha = gate.check(inst, answer, bad_kernel)
    assert any("KM . N" in p for p in problems)
    assert bad_sha != sha

    bad_mult = dict(captured, mult=(captured["mult"][0], _corrupt_mult(ms, field)))
    problems, _ = gate.check(inst, answer, bad_mult)
    assert any("identity" in p or "commute" in p for p in problems)


@pytest.mark.parametrize("stage", ["kernel_basis", "multiplication_matrices"])
def test_corrupted_output_counts_in_failed_frac(monkeypatch, tmp_path, stage):
    real = getattr(solver, stage)

    def corrupted(*args, **kwargs):
        out = real(*args, **kwargs)
        field = args[0].par.field if stage == "multiplication_matrices" else args[0].field
        return (_corrupt_mult if stage == "multiplication_matrices" else _corrupt_kernel)(
            out, field)

    monkeypatch.setattr(solver, stage, corrupted)
    rnd = measure.run_round(WORKLOADS["small-cli"], 1, 0, Probe(), tmp_path)
    attempted, failed = measure._tally([rnd])
    assert attempted == 12
    assert failed / attempted == 1.0


def test_traced_self_times_sum_to_traced_wall(tmp_path):
    report = measure.trace("small-cli", 3, tmp_path)
    m = {k: v for k, (v, _) in report.metrics.items()}
    assert report.failed == 0
    assert m["trace.layer_self_s"] <= m["trace.wall_s"]
    assert m["trace.wall_s"] - m["trace.layer_self_s"] <= (
        max(m["trace.overhead_s"], 0.0) + 0.05 * m["trace.wall_s"])
    assert m["linalg.eliminations"] == 2
    assert m["solver.delta"] == 4 * (5 + 5 + 6)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_two_seeds_give_the_same_counts(tmp_path, name):
    wl = WORKLOADS[name]
    counts = []
    for seed in (11, 12):
        rnd = measure.run_round(wl, seed, 0, Probe(), tmp_path)
        assert rnd.failures == []
        counts.append([c for _, c in rnd.counts])
    assert counts[0] == counts[1]
    assert len(counts[0]) == rnd.attempted


def test_reference_clock_rescales_wall_time_by_sampled_speed(monkeypatch):
    # a host at half the reference speed: one wall second is half a reference second
    monkeypatch.setattr(clock, "_loop_seconds", lambda: 2 * clock.REFERENCE_LOOP_S)
    with clock.ReferenceClock() as c:
        w0, r0 = perf_counter(), c.now()
        while perf_counter() - w0 < 0.5:
            pass
        wall, ref = perf_counter() - w0, c.now() - r0
    assert c.samples >= 10
    assert ref == pytest.approx(wall / 2, rel=0.02)
