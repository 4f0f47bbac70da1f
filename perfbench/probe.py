"""Wrappers around khovsolve's public entry points: capture and tracing.

Modules bind names such as ``subduct`` with ``from .khov import ...``, so
an entry point is replaced in every khovsolve namespace that holds it, and
every namespace is restored on leaving ``Probe.installed()``.

Untraced, only the three calls whose outputs the exact gate needs are
wrapped, and they only record their arguments and result. Traced, every
entry point below records a span: its duration, and its self time, which
is the duration minus the time of the wrapped calls made inside it. Hot
per-element calls (HOT) are aggregated as count and time under their
parent, not kept as one span each.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
from collections import Counter, defaultdict
from dataclasses import dataclass
from time import perf_counter

PACKAGE_MODULES = (
    "khovsolve", "khovsolve.catalog", "khovsolve.sysfile", "khovsolve.cli",
    "khovsolve.hilbert", "khovsolve.khov", "khovsolve.km", "khovsolve.linalg",
    "khovsolve._kernels", "khovsolve.solver",
)

# layer name -> (defining module, traced entry points)
LAYERS = {
    "catalog": ("khovsolve.catalog", (
        "duffing", "del_pezzo", "bott_samelson", "pluecker_chart",
        "schubert_equations", "random_flags", "osculating_flag",
        "random_dense_system", "get_instance")),
    "sysfile": ("khovsolve.sysfile", (
        "load_system", "dump_system", "system_to_dict", "parse_field")),
    "cli": ("khovsolve.cli", ("main",)),
    "hilbert": ("khovsolve.hilbert", (
        "hilbert_numerator", "hilbert_function", "numerator_from_hf",
        "regularity_bound")),
    "khov": ("khovsolve.khov", (
        "graded_support", "graded_basis", "subduct",
        "check_khovanskii_truncated")),
    "km": ("khovsolve.km", ("km_matrix",)),
    "linalg": ("khovsolve.linalg", (
        "kernel", "rank", "independent_rows", "invert", "matmul", "identity",
        "first_independent_columns")),
    "kernels": ("khovsolve._kernels", ("modp_rref", "modp_subduct_batch")),
    "solver": ("khovsolve.solver", (
        "solve", "kernel_basis", "multiplication_matrices",
        "extract_solutions", "residuals", "normalize_solutions")),
}

CAPTURED = {
    "km.km_matrix": "km",
    "solver.kernel_basis": "kernel",
    "solver.multiplication_matrices": "mult",
}

HOT = {"khov.subduct", "khov.graded_support", "khov.graded_basis",
       "hilbert.hilbert_function"}

# full eliminations of a KM matrix, counted when called from these spans
ELIMINATIONS = {"linalg.independent_rows", "linalg.kernel", "linalg.rank"}
KM_SPANS = {"km.km_matrix", "solver.kernel_basis"}


@dataclass
class Stat:
    calls: int = 0
    errors: int = 0
    self_s: float = 0.0


class Probe:
    """Wraps entry points while installed; traced when `tracing` is set."""

    def __init__(self, tracing=False):
        self.tracing = tracing
        self.captured = {}
        self.stats = defaultdict(Stat)
        self.counters = Counter()
        # (parent span name, name) -> [calls, seconds]; hot calls live only here
        self.calls_from = defaultdict(lambda: [0, 0.0])
        self.spans = []  # (id, parent id, name, instance, start, duration)
        self.instance = None
        self._stack = []  # frames [name, child seconds, span id, parent frame]
        self._next_id = 0
        self._paused = False
        self._seen = {}  # (id(par), d) -> (par, result), for cache hits
        self._origin = perf_counter()

    # -- installation -----------------------------------------------------

    def _targets(self):
        names = CAPTURED if not self.tracing else [
            f"{layer}.{fn}" for layer, (_, fns) in LAYERS.items() for fn in fns
        ]
        for name in names:
            layer, fn = name.split(".")
            yield name, getattr(importlib.import_module(LAYERS[layer][0]), fn)

    @contextlib.contextmanager
    def installed(self):
        replace = {id(fn): self._wrap(name, fn) for name, fn in self._targets()}
        restore = []
        try:
            for modname in PACKAGE_MODULES:
                mod = importlib.import_module(modname)
                for attr, value in list(vars(mod).items()):
                    if id(value) in replace:
                        restore.append((mod, attr, value))
                        setattr(mod, attr, replace[id(value)])
            yield self
        finally:
            for mod, attr, value in restore:
                setattr(mod, attr, value)

    def take(self):
        """The captured outputs since the last call, then forget them."""
        captured, self.captured = self.captured, {}
        return captured

    # -- spans ------------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name):
        """A span for the benchmark's own code, e.g. a phase of a round."""
        if not self.tracing:
            yield
            return
        frame, t0 = self._enter(name)
        try:
            yield
        finally:
            self._leave(frame, t0, perf_counter())

    def _enter(self, name):
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        # hot calls keep no span of their own; children name the nearest kept one
        span_id = parent[2] if name in HOT and parent else self._next_id
        frame = [name, 0.0, span_id, parent]
        self._stack.append(frame)
        return frame, perf_counter()

    def _leave(self, frame, t0, t1):
        self._stack.pop()
        name, child_s, span_id, parent = frame
        dur = t1 - t0
        if parent is not None:
            parent[1] += dur
        stat = self.stats[name]
        stat.calls += 1
        stat.self_s += dur - child_s
        under = self.calls_from[(parent[0] if parent else None, name)]
        under[0] += 1
        under[1] += dur
        if name not in HOT:
            self.spans.append((span_id, parent[2] if parent else None, name,
                               self.instance, t0 - self._origin, dur))

    def _wrap(self, name, fn):
        capture = CAPTURED.get(name)
        observe = OBSERVERS.get(name) if self.tracing else None
        probe = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not probe.tracing or probe._paused:
                result = fn(*args, **kwargs)
            else:
                frame, t0 = probe._enter(name)
                try:
                    result = fn(*args, **kwargs)
                except Exception:
                    probe.stats[name].errors += 1
                    raise
                finally:
                    probe._leave(frame, t0, perf_counter())
                if observe is not None:
                    probe._paused = True
                    try:
                        observe(probe, args, result)
                    finally:
                        probe._paused = False
            if capture is not None:
                probe.captured[capture] = (args, result)
            return result

        return wrapper

    def cache_lookup(self, par, d, result):
        """True when this (par, d) request returned the object seen before."""
        key = (id(par), d)
        seen = self._seen.get(key)
        if seen is not None and seen[1] is result:
            return True
        self._seen[key] = (par, result)
        return False

    def forget(self):
        """Drop references kept for cache-hit detection."""
        self._seen.clear()

    # -- per-layer metrics ------------------------------------------------

    def self_s(self, *names):
        return sum(self.stats[n].self_s for n in names)

    def layer_metrics(self, traced_ref_s, untraced_ref_s):
        """Per-layer metrics, from span wall times, plus the tracing overhead
        from the traced and untraced rounds' reference seconds."""
        s, c = self.stats, self.counters
        wall_s = sum(span[5] for span in self.spans if span[1] is None)
        layer_self = sum(
            st.self_s for n, st in s.items() if n.split(".")[0] in LAYERS
        )
        km_calls = s["km.km_matrix"].calls
        eliminations = sum(
            k for (parent, name), (k, _) in self.calls_from.items()
            if name in ELIMINATIONS and parent in KM_SPANS
        )
        rref_s = s["kernels.modp_rref"].self_s
        cache_calls = s["khov.graded_support"].calls + s["khov.graded_basis"].calls
        m = {
            "kernels.rref_s": (rref_s, "s"),
            "kernels.rref_calls": (s["kernels.modp_rref"].calls, "count"),
            "kernels.rref_gops": (c["rref_gops"], "Gop"),
            "kernels.rref_gops_per_s": (c["rref_gops"] / rref_s if rref_s else 0.0, "Gop/s"),
            "kernels.subduct_batch_s": (s["kernels.modp_subduct_batch"].self_s, "s"),
            "linalg.select_s": (self.self_s("linalg.independent_rows"), "s"),
            "linalg.kernel_s": (self.self_s("linalg.kernel"), "s"),
            "linalg.rank_s": (self.self_s("linalg.rank"), "s"),
            "linalg.small_s": (self.self_s(
                "linalg.invert", "linalg.matmul", "linalg.identity",
                "linalg.first_independent_columns"), "s"),
            "linalg.eliminations": (eliminations / km_calls if km_calls else 0.0, "count"),
            "khov.subduct_s": (self.self_s("khov.subduct"), "s"),
            "khov.subduct_calls": (s["khov.subduct"].calls, "count"),
            "khov.support_s": (self.self_s("khov.graded_support"), "s"),
            "khov.support_points": (c["support_points"], "count"),
            "khov.basis_s": (self.self_s("khov.graded_basis"), "s"),
            "khov.cache_hit_ratio": (c["cache_hits"] / cache_calls if cache_calls else 0.0, "ratio"),
            "khov.check_s": (self.self_s("khov.check_khovanskii_truncated"), "s"),
            "hilbert.numerator_s": (sum(
                st.self_s for n, st in s.items() if n.startswith("hilbert.")), "s"),
            "hilbert.calls": (s["hilbert.hilbert_numerator"].calls, "count"),
            "hilbert.max_degree": (c["hilbert_max_degree"], "count"),
            "km.self_s": (self.self_s("km.km_matrix"), "s"),
            "km.rows": (c["km_rows"], "count"),
            "km.cols": (c["km_cols"], "count"),
            "km.kept_rows": (c["km_kept_rows"], "count"),
            "km.kept_ratio": (c["km_kept_rows"] / c["km_rows"] if c["km_rows"] else 0.0, "ratio"),
            "solver.kernel_basis_self_s": (self.self_s("solver.kernel_basis"), "s"),
            "solver.mult_self_s": (self.self_s("solver.multiplication_matrices"), "s"),
            "solver.delta": (c["delta"], "count"),
            "solver.eig_s": (self.self_s("solver.extract_solutions"), "s"),
            "solver.residuals_s": (self.self_s("solver.residuals"), "s"),
            "sysfile.load_s": (self.self_s("sysfile.load_system"), "s"),
            "cli.self_s": (self.self_s("cli.main"), "s"),
            "catalog.build_s": (sum(
                st.self_s for n, st in s.items() if n.startswith("catalog.")), "s"),
        }
        for layer in LAYERS:
            m[f"{layer}.errors"] = (sum(
                st.errors for n, st in s.items() if n.startswith(layer + ".")), "count")
        m.update({
            "trace.wall_s": (wall_s, "s"),
            "trace.ref_s": (traced_ref_s, "s"),
            "trace.untraced_ref_s": (untraced_ref_s, "s"),
            "trace.overhead_s": (traced_ref_s - untraced_ref_s, "s"),
            "trace.overhead_frac": ((traced_ref_s - untraced_ref_s) / untraced_ref_s, "ratio"),
            "trace.layer_self_s": (layer_self, "s"),
            "trace.unattributed_s": (wall_s - layer_self, "s"),
        })
        return m


# -- counters recorded at the boundaries (run with the probe paused) ---------


def _observe_rref(probe, args, pivots):
    A = args[0]
    probe.counters["rref_gops"] += A.shape[0] * A.shape[1] * len(pivots) / 1e9


def _observe_km(probe, args, M):
    from khovsolve.km import km_shape

    probe.counters["km_rows"] += km_shape(args[0], args[1])[0]
    probe.counters["km_kept_rows"] += M.shape[0]
    probe.counters["km_cols"] += M.shape[1]


def _observe_support(probe, args, sup):
    if probe.cache_lookup(args[0], args[1], sup):
        probe.counters["cache_hits"] += 1
    else:
        probe.counters["support_points"] += len(sup.points)


def _observe_basis(probe, args, bas):
    if probe.cache_lookup(args[0], ("basis", args[1]), bas):
        probe.counters["cache_hits"] += 1


def _observe_numerator(probe, args, hd):
    c = probe.counters
    c["hilbert_max_degree"] = max(c["hilbert_max_degree"], len(hd.hf) - 1)


def _observe_mult(probe, args, ms):
    probe.counters["delta"] += ms.delta


OBSERVERS = {
    "kernels.modp_rref": _observe_rref,
    "km.km_matrix": _observe_km,
    "khov.graded_support": _observe_support,
    "khov.graded_basis": _observe_basis,
    "hilbert.hilbert_numerator": _observe_numerator,
    "solver.multiplication_matrices": _observe_mult,
}
