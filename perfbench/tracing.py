"""Spans around calls into eulergmm's public functions, for the traced run.

`Tracer.install` replaces each target function, in every loaded `eulergmm`
module that binds it, by a wrapper that records a span: name, parent span,
thread, start and end. A target that no longer exists is recorded as absent
and left out. Spans are kept in memory; `layer_metrics` turns them into the
per-layer numbers and `dump` writes them out when the round ends.

A span opened on a thread with no open span of its own (a worker of the
lattice thread pool) takes as parent the innermost open span of the thread
that installed the tracer, so pool work nests under `invert_test`.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

#: (module, attribute, span name). Functions re-exported or imported by name
#: into other modules are patched there too, so calls through any binding count.
TARGETS = (
    ("eulergmm.inference", "s_statistic", "inference.s_statistic"),
    ("eulergmm.inference", "qll_s_statistic", "inference.qll_s_statistic"),
    ("eulergmm.inference", "split_sample_s_statistic", "inference.split_sample_s_statistic"),
    ("eulergmm.inference", "minimize_cue", "inference.minimize_cue"),
    ("eulergmm.inference", "cue_objective", "inference.cue_objective"),
    ("eulergmm.inference", "qll_b_component", "inference.qll_b_component"),
    ("eulergmm.inference", "hac_variance", "hac.hac_variance"),
    ("eulergmm.inference", "chi2_quantile", "quantiles.chi2_quantile"),
    ("eulergmm.grids", "invert_test", "grids.invert_test"),
    ("eulergmm.grids", "export_grid", "grids.export_grid"),
    ("eulergmm.snapshot", "load_snapshot", "snapshot.load_snapshot"),
    ("eulergmm.snapshot", "transform_snapshot", "snapshot.transform_snapshot"),
    ("eulergmm.config", "parse_config", "config.parse_config"),
    ("eulergmm.design", "build_design", "design.build_design"),
    ("eulergmm.misspec", "simulate_dgp", "misspec.simulate_dgp"),
    ("eulergmm.misspec", "lab_report", "misspec.lab_report"),
)

#: Span opened by the benchmark itself around each MomentSystem it builds.
SYSTEM_SPAN = "design.MomentSystem"

EVALUATORS = (
    "inference.s_statistic", "inference.qll_s_statistic", "inference.split_sample_s_statistic",
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, int, float, float]] = []
        self.absent: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._local.stack = self._main_stack
        self._patched: list[tuple[object, str, object]] = []

    def _parent_and_stack(self) -> tuple[int, list[int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        if stack:
            return stack[-1], stack
        main = self._main_stack
        return (main[-1] if main else 0), stack

    def _record(self, name: str, fn, args, kwargs):
        parent, stack = self._parent_and_stack()
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append(
                (sid, parent, name, threading.get_ident(), start, time.perf_counter())
            )
            stack.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._record(name, fn, args, kwargs)

        return traced

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span opened by the benchmark."""
        return self._record(name, fn, args, kwargs)

    def install(self) -> None:
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "eulergmm" or n.startswith("eulergmm."))
        ]
        for module_name, attr, name in TARGETS:
            original = getattr(sys.modules.get(module_name), attr, None)
            if not callable(original):
                self.absent.append(f"{module_name}.{attr}")
                continue
            wrapper = self.wrap(name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)
                        self._patched.append((m, key, original))

    def uninstall(self) -> None:
        for m, key, original in reversed(self._patched):
            setattr(m, key, original)
        self._patched.clear()

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "absent": self.absent,
                "fields": ["id", "parent", "name", "thread", "start", "end"],
                "spans": self.spans,
            }, fh)


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def layer_metrics(tracer: Tracer, import_s: float, export_bytes: int) -> dict[str, float]:
    """Per-layer counts and times of one traced round.

    Self time is a span's duration minus the part of it that its child spans
    cover; children on several threads are merged, so overlap counts once.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    name_of = {}
    for sid, parent, name, _, start, end in tracer.spans:
        children[parent].append((start, end))
        name_of[sid] = name
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    cue_in_minimize = 0
    for sid, parent, name, _, start, end in tracer.spans:
        calls[name] += 1
        total[name] += end - start
        self_s[name] += (end - start) - _covered(children.get(sid, []), start, end)
        if name == "inference.cue_objective" and name_of.get(parent) == "inference.minimize_cue":
            cue_in_minimize += 1

    evals = sum(calls[n] for n in EVALUATORS)
    minimize = calls["inference.minimize_cue"]
    hac = calls["hac.hac_variance"]
    return {
        "cli.import_s": import_s,
        "config.parse_s": total["config.parse_config"],
        "snapshot.load_s": total["snapshot.load_snapshot"],
        "snapshot.transform_s": self_s["snapshot.transform_snapshot"],
        "design.systems": calls["design.build_design"] + calls[SYSTEM_SPAN],
        "design.system_s": total["design.build_design"] + total[SYSTEM_SPAN],
        "inference.evals": evals,
        "inference.minimize_calls": minimize,
        "inference.minimize_self_s": self_s["inference.minimize_cue"],
        "inference.cue_calls": calls["inference.cue_objective"],
        "inference.cue_per_minimize": cue_in_minimize / minimize if minimize else 0.0,
        "inference.cue_self_s": self_s["inference.cue_objective"],
        "inference.qll_b_calls": calls["inference.qll_b_component"],
        "inference.qll_b_self_s": self_s["inference.qll_b_component"],
        "inference.split_self_s": self_s["inference.split_sample_s_statistic"],
        "hac.calls": hac,
        "hac.calls_per_eval": hac / evals if evals else 0.0,
        "hac.self_s": self_s["hac.hac_variance"],
        "quantiles.calls": calls["quantiles.chi2_quantile"],
        "quantiles.self_s": self_s["quantiles.chi2_quantile"],
        "grids.invert_self_s": self_s["grids.invert_test"],
        "grids.export_s": total["grids.export_grid"],
        "grids.export_bytes": export_bytes,
        "misspec.simulate_calls": calls["misspec.simulate_dgp"],
        "misspec.simulate_s": total["misspec.simulate_dgp"],
        "misspec.lab_s": total["misspec.lab_report"],
    }
