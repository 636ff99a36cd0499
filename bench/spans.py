"""Span tracing for the benchmark, installed from outside the package.

The tracer replaces named functions and methods of ``noisygbdt`` with thin
wrappers that record one span (name, start, end, parent) per call, plus
optional counters read from the call's arguments or result. It patches the
binding that each caller looks up: a function imported by name into another
module (``experiment.train``) is patched there as well as at its home. Spans
stay in memory and are written to a JSON file once the run ends. The
package's own sources are never modified.

A span's self time is its duration minus the durations of its direct
children. Calls are strictly nested on one thread, so the children never
overlap and the self times of all spans under a root add up to the root's
duration.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import os
from collections import Counter
from dataclasses import dataclass
from time import perf_counter
from typing import Callable


@dataclass(frozen=True)
class Wrap:
    """One binding to patch.

    ``binding`` is ``"module:attr"`` or ``"module:Class.method"``. ``span`` is
    the span name, or None to count calls without a span. ``before`` sees the
    arguments before the call and returns a context; ``after`` gets that
    context, the arguments and the result, and returns counter increments.
    """

    binding: str
    span: str | None
    before: Callable | None = None
    after: Callable | None = None


def _count(name: str, value_of: Callable):
    def after(ctx, args, kwargs, result):
        return {name: value_of(args, result)}
    return after


def _events_before(args, kwargs):
    state = args[0]
    return len(state.events)


def _removal_after(ctx, args, kwargs, result):
    new = args[0].events[ctx:]
    return {"correct.removed": sum(ev["action"] == "remove" for ev in new)}


def _relabel_after(ctx, args, kwargs, result):
    new = [ev for ev in args[0].events[ctx:] if ev["action"] == "relabel"]
    return {"correct.relabels": len(new),
            "correct.relabels_changed": sum(ev["old_label"] != ev["new_label"]
                                            for ev in new)}


def _report_bytes(ctx, args, kwargs, result):
    return {"metrics_report.bytes_written":
            sum(os.path.getsize(p) for p in result.values())}


def _table_bytes(ctx, args, kwargs, result):
    return {"metrics_report.bytes_written": os.path.getsize(args[1])}


P = "noisygbdt."

# Every layer boundary the benchmark traces. A name that a later version of
# the package no longer has is reported as absent.
WRAPS = (
    Wrap(P + "experiment:prepare_data", "experiment.prepare"),
    Wrap(P + "experiment:run_cell", "experiment.cell"),
    Wrap(P + "experiment:run_stage3", "experiment.stage3"),
    Wrap(P + "datasets:load_builtin", "datasets.load"),
    Wrap(P + "data_ingest:preprocess", "data_ingest.preprocess"),
    # the split is decided and materialised inside prepare(); its self time
    # is everything prepare() does besides preprocess()
    Wrap(P + "experiment:prepare", "data_ingest.split"),
    Wrap(P + "noise:inject", "noise.inject"),
    Wrap(P + "experiment:train", "gbdt.train"),
    Wrap(P + "gbdt:probabilities", "gbdt.objective"),
    Wrap(P + "gbdt:grad_hess", "gbdt.objective"),
    Wrap(P + "gbdt:_fit_tree", "gbdt.grow",
         after=_count("gbdt.trees", lambda a, r: 1)),
    Wrap(P + "gbdt:_TreeGrower.grow_exact", "gbdt.grow"),
    Wrap(P + "gbdt:_TreeGrower.grow_hist", "gbdt.grow"),
    Wrap(P + "gbdt:_ExactSplitter.best_split", "gbdt.exact_split"),
    Wrap(P + "gbdt:_ExactSplitter.partition", "gbdt.partition"),
    Wrap(P + "gbdt:Binner.__init__", "gbdt.binner"),
    Wrap(P + "gbdt:_HistSplitter.node_hists", "gbdt.hist_build",
         after=_count("gbdt.hist_build_rows", lambda a, r: len(a[1]))),
    Wrap(P + "gbdt:_HistSplitter.best_split", "gbdt.hist_split"),
    Wrap(P + "gbdt:_HistSplitter.partition", "gbdt.partition"),
    Wrap(P + "gbdt:Tree.predict", "gbdt.predict",
         after=_count("gbdt.predict_rows", lambda a, r: a[1].shape[0])),
    Wrap(P + "dynamics:DynamicsLog.record", "dynamics.record"),
    Wrap(P + "dynamics:DynamicsLog.window_logits", "dynamics.window"),
    Wrap(P + "dynamics:DynamicsLog.window_probs", "dynamics.window"),
    Wrap(P + "dynamics:DynamicsLog.window_max_abs_gradients",
         "dynamics.window"),
    Wrap(P + "detect:lrt_scores", "detect.lrt"),
    Wrap(P + "detect:aum_scores", "detect.aum"),
    Wrap(P + "detect:confcorr_scores", "detect.confcorr"),
    Wrap(P + "detect:gradient_scores", "detect.gradients"),
    Wrap(P + "detect:fit_gmm_1d", "detect.gmm_fit",
         after=_count("detect.gmm_em_iters",
                      lambda a, r: len(r.log_likelihoods))),
    Wrap(P + "detect:gmm_decision_threshold", "detect.gmm_threshold"),
    Wrap(P + "detect:Gmm1D.posterior_upper", None),
    Wrap(P + "correct:NoiseHandler.__call__", "correct.handler"),
    Wrap(P + "correct:apply_removal", "correct.handler",
         before=_events_before, after=_removal_after),
    Wrap(P + "correct:apply_relabel", "correct.handler",
         before=_events_before, after=_relabel_after),
    Wrap(P + "experiment:write_report", "metrics_report.write",
         after=_report_bytes),
    Wrap(P + "experiment:write_tables_csv", "metrics_report.write",
         after=_table_bytes),
)

# per-layer metric -> (kind, source): "self" sums span self time, "calls"
# counts spans (or counted calls), "counter" reads a counter
LAYER_METRICS = {
    "experiment.prepare_s": ("self", "experiment.prepare"),
    "experiment.prepare_calls": ("calls", "experiment.prepare"),
    "experiment.cells": ("calls", "experiment.cell"),
    "experiment.cell_self_s": ("self", "experiment.cell"),
    "experiment.stage3_s": ("self", "experiment.stage3"),
    "datasets.load_s": ("self", "datasets.load"),
    "data_ingest.preprocess_s": ("self", "data_ingest.preprocess"),
    "data_ingest.split_s": ("self", "data_ingest.split"),
    "noise.inject_s": ("self", "noise.inject"),
    "gbdt.train_self_s": ("self", "gbdt.train"),
    "gbdt.objective_s": ("self", "gbdt.objective"),
    "gbdt.objective_calls": ("calls", "gbdt.objective"),
    "gbdt.trees": ("counter", "gbdt.trees"),
    "gbdt.exact_split_s": ("self", "gbdt.exact_split"),
    "gbdt.exact_split_calls": ("calls", "gbdt.exact_split"),
    "gbdt.binner_s": ("self", "gbdt.binner"),
    "gbdt.binner_calls": ("calls", "gbdt.binner"),
    "gbdt.hist_build_s": ("self", "gbdt.hist_build"),
    "gbdt.hist_build_calls": ("calls", "gbdt.hist_build"),
    "gbdt.hist_build_rows": ("counter", "gbdt.hist_build_rows"),
    "gbdt.hist_split_s": ("self", "gbdt.hist_split"),
    "gbdt.hist_split_calls": ("calls", "gbdt.hist_split"),
    "gbdt.partition_s": ("self", "gbdt.partition"),
    "gbdt.partition_calls": ("calls", "gbdt.partition"),
    "gbdt.grow_self_s": ("self", "gbdt.grow"),
    "gbdt.predict_s": ("self", "gbdt.predict"),
    "gbdt.predict_calls": ("calls", "gbdt.predict"),
    "gbdt.predict_rows": ("counter", "gbdt.predict_rows"),
    "dynamics.record_s": ("self", "dynamics.record"),
    "dynamics.window_s": ("self", "dynamics.window"),
    "detect.lrt_s": ("self", "detect.lrt"),
    "detect.aum_s": ("self", "detect.aum"),
    "detect.confcorr_s": ("self", "detect.confcorr"),
    "detect.gradients_s": ("self", "detect.gradients"),
    "detect.gmm_fit_s": ("self", "detect.gmm_fit"),
    "detect.gmm_fits": ("calls", "detect.gmm_fit"),
    "detect.gmm_em_iters": ("counter", "detect.gmm_em_iters"),
    "detect.gmm_threshold_s": ("self", "detect.gmm_threshold"),
    "detect.gmm_posterior_calls": ("counter",
                                   P + "detect:Gmm1D.posterior_upper"),
    "correct.handler_self_s": ("self", "correct.handler"),
    "correct.removed": ("counter", "correct.removed"),
    "correct.relabels": ("counter", "correct.relabels"),
    "correct.relabels_changed": ("counter", "correct.relabels_changed"),
    "metrics_report.write_s": ("self", "metrics_report.write"),
    "metrics_report.bytes_written": ("counter",
                                     "metrics_report.bytes_written"),
}


def _resolve(binding: str):
    """(owner, attribute name, current value) of a binding, or None."""
    module_name, _, path = binding.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    # class attributes are read from the class dict so that a patch never
    # shadows an inherited method with a copy on the subclass
    if isinstance(owner, type):
        if attr not in vars(owner):
            return None
        return owner, attr, vars(owner)[attr]
    if not hasattr(owner, attr):
        return None
    return owner, attr, getattr(owner, attr)


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index]
        self.counters: Counter = Counter()
        self.absent: list[str] = []
        self.broken: set[str] = set()   # bindings whose counter hook failed
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def root(self, name: str):
        """A root span (one per traced phase)."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    # -- patching ------------------------------------------------------------

    def _wrapper(self, fn, wrap: Wrap):
        tracer = self
        name = wrap.span
        before, after = wrap.before, wrap.after
        if name is None:
            key = wrap.binding

            def counted(*args, **kwargs):
                tracer.counters[key] += 1
                return fn(*args, **kwargs)
            return counted

        def hook(call, *hook_args):
            # a counter that no longer fits the call's arguments is reported,
            # and must not stop the traced run
            try:
                return call(*hook_args)
            except Exception:
                tracer.broken.add(wrap.binding)
                return None

        def traced(*args, **kwargs):
            ctx = hook(before, args, kwargs) if before is not None else None
            index = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if after is not None:
                tracer.counters.update(
                    hook(after, ctx, args, kwargs, result) or {})
            return result
        return traced

    def install(self, wraps=WRAPS) -> None:
        for wrap in wraps:
            found = _resolve(wrap.binding)
            if found is None:
                self.absent.append(wrap.binding)
                continue
            owner, attr, original = found
            setattr(owner, attr, self._wrapper(original, wrap))
            self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- results -------------------------------------------------------------

    def self_times(self) -> list[float]:
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def summary(self) -> dict:
        """Per-layer metrics, the root self time and the traced wall time."""
        own = self.self_times()
        self_by: Counter = Counter()
        calls_by: Counter = Counter()
        residual = wall = 0.0
        for (name, start, end, parent), s in zip(self.spans, own):
            if parent < 0:
                residual += s
                wall += end - start
            else:
                self_by[name] += s
                calls_by[name] += 1
        metrics = {}
        for metric, (kind, source) in LAYER_METRICS.items():
            if kind == "self":
                metrics[metric] = self_by[source]
            elif kind == "calls":
                metrics[metric] = calls_by[source]
            else:
                metrics[metric] = self.counters[source]
        return {"metrics": metrics, "residual_s": residual, "wall_s": wall,
                "self_sum_s": sum(own)}

    def write(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        payload = {"names": names,
                   "spans": [[index[n], start, end, parent]
                             for n, start, end, parent in self.spans],
                   "counters": dict(self.counters),
                   "absent": self.absent,
                   "broken": sorted(self.broken)}
        with open(path, "w") as fh:
            json.dump(payload, fh)
