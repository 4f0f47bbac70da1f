"""Measurement loop: rounds of fresh instances, timed, then gated.

A round builds its instances anew (``Parameterization`` caches graded
supports and bases on the instance, so reusing one would time cache hits),
solves each, and only then runs the exact gate, outside the timed region.
Rounds repeat until the requested seconds have passed (and, for latency
percentiles, until the workload's minimum instance count); set-up is then
repeated until there are MIN_SETUPS samples and MIN_SETUP_SECONDS of them.
"""

from __future__ import annotations

import gc
import json
import math
import random
import resource
import statistics
import sys
import tempfile
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import gate
from clock import ReferenceClock
from probe import HOT, Probe
from workloads import WORKLOADS, warm_up

# set-up is cheap next to solving; repeat it so that its median is steady
MIN_SETUPS = 3
MIN_SETUP_SECONDS = 1.0


@dataclass
class Round:
    setup_s: float
    solve_s: float
    latencies: list
    solve_wall_s: float = 0.0
    attempted: int = 0
    failures: list = field(default_factory=list)  # (instance label, problem)
    digests: list = field(default_factory=list)  # (instance label, sha256)
    counts: list = field(default_factory=list)  # (instance label, count found)


def round_rng(seed: int, r: int) -> random.Random:
    return random.Random(seed * 1_000_003 + r)


def run_round(wl, seed, r, probe, workdir, now=perf_counter) -> Round:
    """Build, solve and gate one round; times are read from `now`."""
    rng = round_rng(seed, r)
    gc.collect()
    solved = []
    with probe.installed():
        with probe.span("bench.setup"):
            t0 = now()
            instances = wl.build(rng, workdir)
            t1 = now()
        latencies = []
        with probe.span("bench.solve"):
            w0 = perf_counter()
            t2 = now()
            for inst in instances:
                probe.instance = inst.label
                t = now()
                try:
                    answer, error = wl.solve(inst), None
                except Exception as err:  # a failed instance, not a failed run
                    answer, error = None, f"{type(err).__name__}: {err}"
                    traceback.print_exc(file=sys.stderr)
                latencies.append(now() - t)
                solved.append((inst, answer, probe.take(), error))
            t3 = now()
            w1 = perf_counter()
    out = Round(t1 - t0, t3 - t2, latencies, w1 - w0, attempted=len(solved))
    probe.forget()
    for inst, answer, captured, error in solved:
        if error is None:
            out.counts.append((inst.label, answer.count))
            try:
                problems, sha = gate.check(inst, answer, captured, wl.all_real)
            except Exception as err:
                problems, sha = [f"gate raised {type(err).__name__}: {err}"], None
            if sha is not None:
                out.digests.append((f"round{r}/{inst.label}", sha))
        else:
            problems = [error]
        out.failures += [(inst.label, p) for p in problems]
    return out


def percentile(values, q):
    """Nearest-rank percentile."""
    xs = sorted(values)
    return xs[max(0, math.ceil(q * len(xs)) - 1)]


@dataclass
class Report:
    metrics: dict  # name -> (value, unit)
    attempted: int
    failed: int
    notes: list  # human-readable lines
    digests: list


def _tally(rounds):
    attempted = sum(r.attempted for r in rounds)
    failed_labels = {(i, lbl) for i, r in enumerate(rounds) for lbl, _ in r.failures}
    return attempted, len(failed_labels)


def measure(name, seed, seconds, workdir) -> Report:
    """End-to-end metrics of one workload, tracing off.

    Times are reference seconds (see clock.py); the run lasts at least
    `seconds` of wall time.
    """
    wl = WORKLOADS[name]
    warm_up()
    probe = Probe(tracing=False)
    rounds = []
    start = perf_counter()
    with ReferenceClock() as clock:
        while (not rounds or perf_counter() - start < seconds
               or sum(r.attempted for r in rounds) < wl.min_instances):
            rounds.append(run_round(wl, seed, len(rounds), probe, workdir, clock.now))
        setups = [r.setup_s for r in rounds]
        while len(setups) < MIN_SETUPS or sum(setups) < MIN_SETUP_SECONDS:
            rng = round_rng(seed, len(setups))
            gc.collect()
            t0 = clock.now()
            wl.build(rng, workdir)
            setups.append(clock.now() - t0)
    solve = [r.solve_s for r in rounds]
    lat = [x for r in rounds for x in r.latencies]
    attempted, failed = _tally(rounds)
    metrics = {
        # a mean over the run's rounds: a median of a few rounds jumps
        # between the host's fast and slow phases
        "solve_s": (statistics.fmean(solve), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "instance_p50_s": (percentile(lat, 0.5), "s"),
        "instance_p90_s": (percentile(lat, 0.9), "s"),
    }
    notes = [
        f"solve_s: mean of {len(solve)} rounds of {rounds[0].attempted} instances"
        f" ({statistics.fmean(r.solve_wall_s for r in rounds):.4g} wall seconds,"
        f" {clock.samples} speed samples)",
        f"setup_s: median of {len(setups)} set-ups",
        f"instance_p50_s, instance_p90_s: {len(lat)} instances"
        f" ({len(lat) - math.ceil(0.9 * len(lat))} beyond p90)",
        f"failed_frac: {failed / attempted:.4g} ({failed}/{attempted})",
    ]
    notes += [f"FAIL {lbl}: {p}" for r in rounds for lbl, p in r.failures]
    return Report(metrics, attempted, failed, notes,
                  [d for r in rounds for d in r.digests])


def trace(name, seed, workdir, spans_path=None) -> Report:
    """Per-layer metrics: an untraced round, then the same round traced.

    Span times are wall seconds; the two rounds are also timed in reference
    seconds, and their difference is the tracing overhead.
    """
    wl = WORKLOADS[name]
    warm_up()
    probe = Probe(tracing=True)
    with ReferenceClock() as clock:
        plain = run_round(wl, seed, 0, Probe(tracing=False), workdir, clock.now)
        traced = run_round(wl, seed, 0, probe, workdir, clock.now)
    metrics = probe.layer_metrics(traced.setup_s + traced.solve_s,
                                  plain.setup_s + plain.solve_s)
    attempted, failed = _tally([plain, traced])
    notes = [f"traced round: {traced.attempted} instances, {len(probe.spans)} spans"]
    notes += [f"FAIL {lbl}: {p}" for r in (plain, traced) for lbl, p in r.failures]
    if spans_path is not None:
        keys = ("id", "parent", "name", "instance", "start_s", "duration_s")
        lines = [dict(zip(keys, s)) for s in probe.spans]
        lines += [{"parent": parent, "name": name, "calls": k, "duration_s": t}
                  for (parent, name), (k, t) in probe.calls_from.items() if name in HOT]
        spans_path.write_text("".join(json.dumps(x) + "\n" for x in lines), encoding="utf-8")
    return Report(metrics, attempted, failed, notes, traced.digests)


def workdir(base: Path):
    """A scratch directory inside the checkout, removed afterwards."""
    base.mkdir(parents=True, exist_ok=True)
    return tempfile.TemporaryDirectory(dir=base)
