"""Spans around calls into tlfsim's public functions, installed from outside.

The tracer replaces each public function of the layer modules with a wrapper
in every ``tlfsim`` namespace that holds it (so calls the CLI makes through
its own imported names, and calls between modules, are seen too).  Spans stay
in memory until the benchmark asks for them; ``uninstall`` puts the original
functions back, so untraced passes run the unmodified program.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import threading
import time
import types

import numpy as np

LAYERS = ("model", "single_fluctuator", "oracle", "dissipative", "ensemble",
          "microscopic", "cli")
# cli.__all__ omits the writers; they are public names all the same.
CLI_FUNCTIONS = ("main", "run_scenario", "validate_config", "write_csv", "write_manifest")

# Public function -> metric family; functions not listed count only towards
# their layer's totals.
FAMILIES = {
    "ensemble.coherence_exact_ensemble": "ensemble.exact",
    "ensemble.coherence_continuum": "ensemble.continuum",
    "ensemble.coherence_broad_integral": "ensemble.broad",
    "ensemble.sample_uniform_couplings": "ensemble.sample",
    "ensemble.sample_spatial_couplings": "ensemble.sample",
    "ensemble.ensemble_stats": "ensemble.sample",
    "dissipative.integrate_reduced": "dissipative.reduced",
    "dissipative.coherence_weak_damped": "dissipative.closed",
    "dissipative.coherence_strong_damped": "dissipative.closed",
    "oracle.evolve_lindblad": "oracle.lindblad",
    "oracle.evolve_unitary": "oracle.unitary",
    "oracle.build_hamiltonian": "oracle.build",
    "oracle.initial_state": "oracle.build",
    "oracle.coherence_from_state": "oracle.extract",
    "oracle.expect_a": "oracle.extract",
    "microscopic.average_variance_mc": "microscopic.mc",
    "cli.run_scenario": "cli.run",
    "cli.write_csv": "cli.write_csv",
    "cli.write_manifest": "cli.write_manifest",
}


def _size(t) -> int:
    return int(np.size(t))


# Work counts computed from a call's arguments (and, for writers, its output).
def _exact_work(a):
    return {"terms": 2 ** a["ens"].n * _size(a["t"])}


def _unitary_work(a):
    points = _size(a["t_grid"])
    return {"points": points, "point_d2": points * a["h"].shape[0] ** 2}


def _csv_work(a):
    return {"values": len(a["first"]) * (1 + len(a["columns"])),
            "bytes": os.path.getsize(a["path"])}


WORK_BEFORE = {
    "ensemble.coherence_exact_ensemble": _exact_work,
    "ensemble.coherence_continuum": lambda a: {"points": _size(a["t"])},
    "ensemble.coherence_broad_integral": lambda a: {"points": _size(a["t"])},
    "dissipative.integrate_reduced": lambda a: {"points": _size(a["t_grid"])},
    "oracle.evolve_lindblad": lambda a: {"points": _size(a["t_grid"])},
    "oracle.evolve_unitary": _unitary_work,
    "microscopic.average_variance_mc": lambda a: {"samples": int(a["n_samples"])},
}
WORK_AFTER = {
    "cli.write_csv": _csv_work,
    "cli.write_manifest": lambda a: {"bytes": os.path.getsize(a["path"])},
}


TIMED_FAMILIES = ("ensemble.exact", "ensemble.continuum", "ensemble.broad", "ensemble.sample",
                  "dissipative.reduced", "dissipative.closed", "oracle.lindblad",
                  "oracle.unitary", "oracle.build", "oracle.extract", "microscopic.mc")
# family -> (work count, rate metric, scale to its unit)
RATES = {
    "ensemble.exact": ("terms", "ns_per_term", 1e9),
    "ensemble.continuum": ("points", "us_per_point", 1e6),
    "ensemble.broad": ("points", "ms_per_point", 1e3),
    "dissipative.reduced": ("points", "us_per_point", 1e6),
    "oracle.lindblad": ("points", "us_per_point", 1e6),
    "oracle.unitary": ("point_d2", "ns_per_point_d2", 1e9),
    "microscopic.mc": ("samples", "ns_per_sample", 1e9),
}


class Span:
    __slots__ = ("sid", "name", "layer", "family", "start", "end", "parent", "op",
                 "failed", "work", "children")

    def __init__(self, sid, name, layer, parent, op):
        self.sid, self.name, self.layer, self.parent, self.op = sid, name, layer, parent, op
        self.family = FAMILIES.get(name)
        self.failed = False
        self.work: dict = {}
        self.children: list[Span] = []
        self.start = self.end = 0.0

    def as_dict(self) -> dict:
        return {"id": self.sid, "name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent.sid if self.parent else None, "op": self.op,
                "failed": self.failed, "work": self.work}


class Tracer:
    """Records one span per call into a wrapped tlfsim function."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op: str | None = None
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[Span] = []
        self._installed: list[tuple[types.ModuleType, str, object]] = []

    def _stack(self) -> list[Span]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _parent(self, stack: list[Span]) -> Span | None:
        if stack:
            return stack[-1]
        # A pool thread's first span was caused by whatever the main thread
        # is inside (run_scenario's column fan-out).
        main = self._main_stack
        return main[-1] if main else None

    def _wrap(self, name: str, fn):
        layer = name.split(".", 1)[0]
        before, after = WORK_BEFORE.get(name), WORK_AFTER.get(name)
        sig = inspect.signature(fn) if (before or after) else None
        exit_code = name == "cli.main"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            with self._lock:
                span = Span(len(self.spans), name, layer, self._parent(stack), self.op)
                self.spans.append(span)
                if span.parent is not None:
                    span.parent.children.append(span)
            bound = None
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                if before:
                    span.work = before(bound.arguments)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if exit_code and result != 0:
                span.failed = True
            if after:
                span.work = after(bound.arguments)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every public layer function wherever a tlfsim module binds it."""
        if self._installed:
            return
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "tlfsim" or n.startswith("tlfsim."))]
        for layer in LAYERS:
            mod = importlib.import_module(f"tlfsim.{layer}")
            names = CLI_FUNCTIONS if layer == "cli" else mod.__all__
            for attr in names:
                fn = getattr(mod, attr)
                if not isinstance(fn, types.FunctionType):
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is fn:
                            self._installed.append((m, key, fn))
                            setattr(m, key, wrapper)

    def uninstall(self) -> None:
        for m, key, fn in reversed(self._installed):
            setattr(m, key, fn)
        self._installed.clear()

    def reset(self) -> None:
        self.spans = []
        self._main_stack.clear()


def _covered(span: Span) -> float:
    """Length of the part of ``span`` that its children's intervals cover."""
    intervals = sorted((max(c.start, span.start), min(c.end, span.end))
                       for c in span.children)
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in intervals:
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def _outermost(span: Span, key: str) -> bool:
    """True when no ancestor of ``span`` shares its value of ``key``."""
    mine = getattr(span, key)
    p = span.parent
    while p is not None:
        if getattr(p, key) == mine:
            return False
        p = p.parent
    return True


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer numbers for one traced pass (names as in BENCHMARK.json)."""
    m: dict[str, float] = {}
    for layer in LAYERS:
        mine = [s for s in spans if s.layer == layer]
        m[f"{layer}.calls"] = len(mine)
        m[f"{layer}.failed"] = sum(1 for s in mine
                                   if s.failed and not any(c.failed for c in s.children))
        if layer != "cli":
            m[f"{layer}.s"] = sum(s.end - s.start for s in mine if _outermost(s, "layer"))
            m[f"{layer}.self_s"] = sum(s.end - s.start - _covered(s) for s in mine)

    def family(name):
        return [s for s in spans if s.family == name and _outermost(s, "family")]

    def busy(name):
        return sum(s.end - s.start for s in family(name))

    def work(name, key):
        return sum(s.work.get(key, 0) for s in family(name))

    def per(num, den, scale):
        return num / den * scale if den else 0.0

    for name in TIMED_FAMILIES:
        m[f"{name}.s"] = busy(name)
        if name in RATES:
            key, rate, scale = RATES[name]
            m[f"{name}.{rate}"] = per(m[f"{name}.s"], work(name, key), scale)
    m["ensemble.exact.calls"] = len(family("ensemble.exact"))
    m["ensemble.exact.terms"] = work("ensemble.exact", "terms")

    runs = family("cli.run")
    run_s = sum(s.end - s.start for s in runs)
    kernel_s = sum(c.end - c.start for s in runs for c in s.children if c.layer != "cli")
    m["cli.run_s"] = run_s
    m["cli.self_s"] = sum(s.end - s.start - _covered(s) for s in runs)
    m["cli.write_csv_s"] = busy("cli.write_csv")
    m["cli.write_manifest_s"] = busy("cli.write_manifest")
    m["cli.bytes_written"] = work("cli.write_csv", "bytes") + work("cli.write_manifest", "bytes")
    m["cli.values_written"] = work("cli.write_csv", "values")
    m["cli.parallelism"] = per(kernel_s, run_s, 1.0)
    return m
