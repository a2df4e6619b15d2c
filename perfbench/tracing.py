"""Span tracing for the traced benchmark run, installed from outside the package.

Each traced function is replaced by a wrapper at every place a calbound module
holds a reference to it, because modules bind names at import time (for
example ``from ..ece import ece_top_label`` in ``harness/experiments.py``).
Spans are kept in memory and written out when the run ends.

A span is ``(id, name, start, end, parent, op, attrs)``. The parent is the
innermost open span of the same thread; a span opened on a pool thread with
no open span of its own takes the innermost open span of the main thread,
which is the experiment that started the pool.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import statistics
import sys
import threading
import time
from collections import defaultdict


def _family_steps(args, kwargs, result):
    cfg = args[1] if len(args) > 1 else kwargs["cfg"]
    return {"family": cfg.family, "steps": result.steps, "max_iters": cfg.max_iters}


def _binned_bytes(args, kwargs, result):
    data = args[0] if args else kwargs["data"]
    return {"bytes": data.n * data.num_classes * 8}


def _written(args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    fmt = args[2] if len(args) > 2 else kwargs.get("fmt", "csv")
    return {"format": fmt, "bytes": os.path.getsize(path)}


def _loaded(args, kwargs, result):
    return {"format": result.format, "bytes": os.path.getsize(result.source)}


def _cells(args, kwargs, result):
    return {"cells": len(result.cells)}


def _text_bytes(args, kwargs, result):
    return {"bytes": len(result.encode())}


# (defining module, attribute, span name, attribute extractor)
FUNCTIONS = (
    ("calbound.core", "validate_prediction_set", "core.validate", None),
    ("calbound.synthetic", "gen_binary", "synthetic.gen_binary", None),
    ("calbound.synthetic", "gen_multiclass", "synthetic.gen_multiclass", None),
    ("calbound.synthetic", "true_tce", "synthetic.true_tce", None),
    ("calbound.synthetic", "true_ce_k", "synthetic.true_ce_k", None),
    ("calbound.ece", "assign_bins_1d", "ece.assign_bins_1d", None),
    ("calbound.ece", "ece_top_label", "ece.ece_top_label", None),
    ("calbound.ece", "ece_full_k", "ece.ece_full_k", _binned_bytes),
    ("calbound.bounds", "evaluate_bound", "bounds.evaluate_bound", None),
    ("calbound.bounds", "mc_validate_bound", "bounds.mc_validate_bound", None),
    ("calbound.recal", "train_pbr", "recal.train_pbr", _family_steps),
    ("calbound.recal", "temperature_scaling_fit", "recal.temperature_scaling_fit", None),
    ("calbound.recal", "recalibrate_set", "recal.recalibrate_set", None),
    ("calbound.harness.io", "write_dump", "io.write_dump", _written),
    ("calbound.harness.io", "load_dump", "io.load_dump", _loaded),
    ("calbound.harness.stats", "pearson", "stats.pearson", None),
    ("calbound.harness.stats", "kendall_tau", "stats.kendall_tau", None),
    ("calbound.harness.stats", "fit_loglog_slope", "stats.fit_loglog_slope", None),
    ("calbound.harness.experiments", "convergence_experiment",
     "experiments.convergence_experiment", _cells),
    ("calbound.harness.experiments", "kl_gap_experiment", "experiments.kl_gap_experiment", _cells),
    ("calbound.harness.experiments", "compare_methods", "experiments.compare_methods", _cells),
    ("calbound.harness.experiments", "_fit_pbr_with_alpha_selection",
     "experiments.alpha_sweep", None),
    ("calbound.harness.cli", "main", "cli.main", None),
)

# (module, class, method, span name, attribute extractor)
METHODS = (
    ("calbound.core", "PredictionSet", "from_probs", "core.from_probs", None),
    ("calbound.harness.report", "ExperimentReport", "to_json", "report.to_json", _text_bytes),
)

# The ten package modules, by the prefix of their span names.
LAYERS = ("core", "ece", "bounds", "recal", "synthetic", "io", "experiments", "stats",
          "report", "cli")


def rebind(original, replacement) -> list:
    """Point every calbound module name bound to ``original`` at ``replacement``.

    Returns ``(module, attribute, original)`` triples that undo the change.
    """
    undo = []
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "calbound" and not mod_name.startswith("calbound."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                undo.append((mod, attr, original))
    return undo


def restore(undo: list) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


class Tracer:
    """Collects spans from wrapped calbound functions."""

    def __init__(self):
        self.spans: list = []
        self.op = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack = self._stack()
        self._undo: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, attrs=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            outer = stack or self._main_stack
            parent = outer[-1] if outer else None
            sid = next(self._ids)
            stack.append(sid)
            result, ok = None, False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                extra = attrs(args, kwargs, result) if ok and attrs is not None else None
                self.spans.append((sid, name, start, end, parent, self.op, extra))

        return traced

    def install(self) -> None:
        for mod_name, attr, span, attrs in FUNCTIONS:
            original = getattr(importlib.import_module(mod_name), attr)
            self._undo += rebind(original, self.wrap(span, original, attrs))
        for mod_name, cls_name, meth, span, attrs in METHODS:
            cls = getattr(importlib.import_module(mod_name), cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self.wrap(span, raw.__func__, attrs))
            else:
                wrapped = self.wrap(span, raw, attrs)
            setattr(cls, meth, wrapped)
            self._undo.append((cls, meth, raw))

    def uninstall(self) -> None:
        restore(self._undo)
        self._undo.clear()

    def write(self, path) -> None:
        with open(path, "w") as handle:
            for sid, name, start, end, parent, op, attrs in self.spans:
                handle.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                         "parent": parent, "op": op, "attrs": attrs}) + "\n")


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it that child spans cover."""
    children = defaultdict(list)
    for sid, _, start, end, parent, _, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = {}
    for sid, _, start, end, _, _, _ in spans:
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out[sid] = (end - start) - covered
    return out


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one pass, keyed by the names in BENCHMARK.json."""
    own = self_times(spans)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    by_name = defaultdict(list)
    for span in spans:
        calls[span[1]] += 1
        self_s[span[1]] += own[span[0]]
        by_name[span[1]].append(span)

    m = {}
    for name in ("core.from_probs", "core.validate", "ece.ece_top_label", "ece.ece_full_k",
                 "bounds.evaluate_bound", "recal.train_pbr"):
        m[f"{name}.calls"] = calls[name]
    for name in ("core.from_probs", "core.validate", "synthetic.gen_binary",
                 "synthetic.gen_multiclass", "synthetic.true_tce", "synthetic.true_ce_k",
                 "ece.ece_top_label", "ece.assign_bins_1d", "ece.ece_full_k",
                 "bounds.evaluate_bound", "bounds.mc_validate_bound", "recal.train_pbr",
                 "recal.temperature_scaling_fit", "recal.recalibrate_set",
                 "experiments.convergence_experiment", "experiments.kl_gap_experiment",
                 "experiments.compare_methods", "report.to_json", "cli.main"):
        m[f"{name}.self_s"] = self_s[name]
    m["ece.mb_binned"] = sum(s[6]["bytes"] for s in by_name["ece.ece_full_k"] if s[6]) / 1e6

    fits = [s for s in by_name["recal.train_pbr"] if s[6]]
    for family in ("temperature", "vector_scale", "affine"):
        mine = [s for s in fits if s[6]["family"] == family]
        steps = sum(s[6]["steps"] for s in mine)
        m[f"recal.train_pbr.steps.{family}"] = steps
        m[f"recal.step_ms.{family}"] = (
            1000.0 * sum(s[3] - s[2] for s in mine) / steps if steps else 0.0)
    sweeps = {s[0] for s in by_name["experiments.alpha_sweep"]}
    swept = sum(1 for s in fits if s[4] in sweeps)
    m["recal.alpha_sweep.fits"] = swept
    m["recal.alpha_sweep.kept_ratio"] = len(sweeps) / swept if swept else 0.0
    early = sum(1 for s in fits if s[6]["steps"] < s[6]["max_iters"])
    m["recal.patience_stop_ratio"] = early / len(fits) if fits else 0.0

    for op, verb in (("io.write_dump", "write"), ("io.load_dump", "load")):
        done = [s for s in by_name[op] if s[6]]
        mb = sum(s[6]["bytes"] for s in done) / 1e6
        busy = sum(own[s[0]] for s in done)
        for fmt in ("csv", "jsonl"):
            m[f"{op}.self_s.{fmt}"] = sum(own[s[0]] for s in done if s[6]["format"] == fmt)
        m[f"{op}.mb"] = mb
        m[f"io.{verb}_mb_per_s"] = mb / busy if busy else 0.0

    m["experiments.cells"] = sum(
        s[6]["cells"] for name in ("experiments.convergence_experiment",
                                   "experiments.kl_gap_experiment",
                                   "experiments.compare_methods")
        for s in by_name[name] if s[6])
    m["stats.self_s"] = sum(v for k, v in self_s.items() if k.startswith("stats."))
    m["report.bytes"] = sum(s[6]["bytes"] for s in by_name["report.to_json"] if s[6])
    return m


def layers_seen(spans) -> set:
    return {span[1].split(".", 1)[0] for span in spans}


def median_metrics(per_pass: list) -> dict:
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
