"""Desk-scale experiments: estimator convergence, KL-vs-gap, method comparison.

Every experiment derives one independent random stream per grid cell from the
master seed, so results do not depend on execution order and serial and
threaded runs produce identical reports. Reports embed their full config and
can be re-run bit-exactly through :func:`replay`.
"""

from __future__ import annotations

import inspect
import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from functools import partial
from typing import Optional, Sequence, Union

import numpy as np

from ..bounds import _chunks
from ..core import (PredictionSet, Rng, ValidationError, _choice, _count, _keys, _optional, _real,
                    _seed)
from ..ece import (_ece_full_k_sets, _ece_top_label_sets, ece_gap, ece_top_label, optimal_bins_1d,
                   optimal_bins_per_dim)
from ..recal import (
    PbrConfig,
    PbrResult,
    RecalMap,
    brier_score,
    recalibrate_set,
    softmax_cross_entropy,
    temperature_scaling_fit,
    train_pbr,
)
from ..synthetic import (
    BinarySpec,
    MulticlassSpec,
    _gen_sets,
    spec_from_dict,
    true_ce_k,
    true_tce,
    with_n,
)
from .io import PredictionDump, load_dump
from .report import ExperimentReport, make_report
from .stats import fit_loglog_slope, kendall_tau, pearson

# The KL-weight grid swept by the recalibration experiments.
ALPHA_GRID = (0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0)

METHODS = ("uncalibrated", "temperature", "pbr", "pbr_total")

# The PBR methods and the objective each one fits.
PBR_OBJECTIVES = {"pbr": "brier", "pbr_total": "brier_plus_loss"}

# How compare_methods picks the best method on each held-out metric.
_BEST = {"ece": min, "accuracy": max, "brier": min, "cross_entropy": min}

# n_grid must span at least this max/min ratio (1.5 decades) for a slope fit.
_MIN_SPAN = 10.0**1.5

Source = Union[BinarySpec, MulticlassSpec, PredictionSet, PredictionDump]


def _as_source(source: Source) -> tuple[Union[BinarySpec, MulticlassSpec, PredictionSet], dict]:
    """Unwrap a loaded dump; the dict records where the data came from, for replay."""
    if isinstance(source, PredictionDump):
        return source.data, {"dump": source.source}
    if isinstance(source, (BinarySpec, MulticlassSpec)):
        return source, {"spec": source.to_dict()}
    if isinstance(source, PredictionSet):
        return source, {"inline": {"n": source.n, "num_classes": source.num_classes}}
    raise ValidationError("source must be a BinarySpec, MulticlassSpec, PredictionSet or "
                          f"PredictionDump, got {type(source).__name__}")


class ExperimentCellError(RuntimeError):
    """A grid cell failed; carries the cell descriptor for diagnosis."""

    def __init__(self, cell: dict, cause: Exception):
        super().__init__(f"cell {cell} failed: {cause}")
        self.cell = cell
        self.cause = cause


def _run_cells(jobs, workers: int = 1) -> list:
    """Run (descriptor, thunk) jobs; the rows each thunk returns, in job order.

    A job that raises fails as an ExperimentCellError naming its descriptor.
    """

    def run(job):
        descriptor, thunk = job
        try:
            return thunk()
        except Exception as err:
            raise ExperimentCellError(descriptor, err) from err

    if workers <= 1:
        return [row for job in jobs for row in run(job)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return [row for rows in pool.map(run, jobs) for row in rows]


def _cell(descriptor: dict, thunk) -> tuple:
    """A job whose one row is the descriptor plus the dict the thunk returns."""
    return descriptor, lambda: [{**descriptor, **thunk()}]


def _generate(spec: Union[BinarySpec, MulticlassSpec], n: int, rng: Rng) -> PredictionSet:
    return _gen_sets(with_n(spec, n, rng), [rng.generator()], 1)


def convergence_experiment(
    spec: Union[BinarySpec, MulticlassSpec],
    n_grid: Sequence[int],
    seeds: int,
    bin_rule: Union[str, int] = "optimal",
    workers: int = 1,
    oracle_samples: int = 1_000_000,
) -> ExperimentReport:
    """Median |estimate - truth| against n, with a log-log slope fit.

    Binary specs use the quadrature oracle and the top-label estimator;
    multiclass specs use the Monte Carlo oracle and the full L1 estimator
    with bin_rule counting bins per dimension.
    """
    n_grid = [_count(n, "n_grid entry") for n in _sequence(n_grid, "n_grid", 4)]
    if any(b <= a for a, b in zip(n_grid, n_grid[1:])):
        raise ValidationError("n_grid must be strictly ascending")
    if n_grid[-1] < _MIN_SPAN * n_grid[0]:
        raise ValidationError("n_grid must span at least 1.5 decades")
    seeds = _count(seeds, "seeds per n", 20)
    if not (isinstance(bin_rule, str) and bin_rule == "optimal"):
        bin_rule = _count(bin_rule, "bin rule")
    workers = _count(workers, "workers")
    oracle_samples = _count(oracle_samples, "oracle sample count", 2)

    if isinstance(spec, BinarySpec):
        oracle, oracle_stderr = true_tce(spec), 0.0
        estimate, optimal_bins = _ece_top_label_sets, optimal_bins_1d
    else:
        oracle, oracle_stderr = true_ce_k(spec, oracle_samples)
        estimate = _ece_full_k_sets
        optimal_bins = partial(optimal_bins_per_dim, num_classes=spec.num_classes)

    def rows(n: int, bins: int, first: int, score) -> list:
        return [{"n": n, "seed": seed, "bins": bins, "estimate": est, "deviation": abs(est - oracle)}
                for seed, est in enumerate(score().tolist(), first)]

    def jobs():
        # Seed s of grid point i draws from stream(i).stream(s); a job scores a chunk of seeds,
        # drawn into its thread's workspace for the whole grid.
        held = threading.local()
        for i_n, n in enumerate(n_grid):
            bins = optimal_bins(n) if bin_rule == "optimal" else bin_rule
            chunks = _chunks(with_n(spec, n), spec.rng.stream(i_n),
                             partial(estimate, num_bins=bins), seeds, held)
            for first, stop, score in chunks:
                yield ({"n": n, "first_seed": first, "last_seed": stop - 1},
                       partial(rows, n, bins, first, score))

    cells = _run_cells(jobs(), workers)

    medians = []
    for n in n_grid:
        devs = [c["deviation"] for c in cells if c["n"] == n]
        medians.append(float(np.median(devs)))
    fit = fit_loglog_slope(n_grid, medians)
    summary = {
        "oracle": oracle,
        "oracle_stderr": oracle_stderr,
        "median_deviation": dict(zip(map(str, n_grid), medians)),
        "slope": fit.slope,
        "slope_stderr": fit.stderr,
        "intercept": fit.intercept,
    }
    config = {
        "spec": spec.to_dict(),
        "n_grid": n_grid,
        "seeds": seeds,
        "bin_rule": bin_rule,
        "oracle_samples": oracle_samples,
    }
    return make_report("convergence", config, cells, summary)


def _split_source(
    source: Source, n_re: int, n_te: int, fold: int, seed: int
) -> tuple[PredictionSet, PredictionSet]:
    """Fold data: fresh draws for specs, a seeded shuffle-split for fixed sets."""
    if isinstance(source, (BinarySpec, MulticlassSpec)):
        base = source.rng.stream(fold)
        return (
            _generate(source, n_re, base.stream(0)),
            _generate(source, n_te, base.stream(1)),
        )
    if source.n < n_re + n_te:
        raise ValidationError(
            f"dump has {source.n} rows, fewer than n_re + n_te = {n_re + n_te}"
        )
    order = Rng(seed).stream(fold).generator().permutation(source.n)
    return source.subset(order[:n_re]), source.subset(order[n_re : n_re + n_te])


def _sequence(value, what: str, minimum: int):
    """value, when it is a list, a tuple or a 1-D array of at least minimum entries."""
    if not (isinstance(value, (list, tuple)) or isinstance(value, np.ndarray) and value.ndim == 1):
        raise ValidationError(f"{what} must be a list, tuple or 1-D array, got {value!r}")
    if len(value) < minimum:
        raise ValidationError(f"{what} needs at least {minimum} value{'s' * (minimum > 1)}")
    return value


def _alpha_grid(alpha_grid: Sequence[float], minimum: int) -> list[float]:
    """The grid's KL weights as floats, each finite and >= 0; at least minimum of them."""
    return [_real(a, "alpha", ">= 0") for a in _sequence(alpha_grid, "alpha grid", minimum)]


def _fit_at_alpha(
    data_re: PredictionSet, cfg: PbrConfig, seed: int, split: int, ia: int
) -> PbrResult:
    """The fit of cfg, set to alpha_grid[ia], on klgap replicate or compare fold `split`."""
    seed = seed + 100003 * split + 7919 * ia  # one noise stream per fit of an experiment
    return train_pbr(data_re, replace(cfg, seed=seed))


def _fit_pbr_with_alpha_selection(
    data_re: PredictionSet, cfgs: Sequence[PbrConfig], seed: int, split: int
) -> PbrResult:
    """Sweep the KL weight, keep the first fit whose map best calibrates the fit set."""
    bins_re = optimal_bins_1d(data_re.n)
    best = best_score = None
    for ia, cfg in enumerate(cfgs):
        result = _fit_at_alpha(data_re, cfg, seed, split, ia)
        score = ece_top_label(recalibrate_set(result.map, data_re), bins_re)
        if best is None or score < best_score:
            best, best_score = result, score
    return best


def fit_method(
    method: str, data_re: PredictionSet, cfg: Optional[PbrConfig], alpha_grid: Sequence[float],
    seed: int, split: int = 0,
) -> tuple[RecalMap, Optional[PbrResult]]:
    """Fit one of METHODS to data_re; a PBR method also returns the fit it chose.

    A PBR method sweeps cfg (None for the default PbrConfig) over alpha_grid with the method's
    own objective.
    """
    method = _choice(method, "method", METHODS)
    cfg = _optional(cfg, "cfg", PbrConfig) or PbrConfig()
    if method == "uncalibrated":
        return RecalMap.identity("temperature", data_re.num_classes), None
    if method == "temperature":
        return temperature_scaling_fit(data_re), None
    cfgs = [replace(cfg, alpha=a, objective=PBR_OBJECTIVES[method])
            for a in _alpha_grid(alpha_grid, 1)]
    result = _fit_pbr_with_alpha_selection(data_re, cfgs, seed, split)
    return result.map, result


def kl_gap_experiment(
    source: Source,
    alpha_grid: Sequence[float] = ALPHA_GRID,
    replicates: int = 10,
    n_re: int = 1000,
    cfg: Optional[PbrConfig] = None,
    seed: int = 0,
) -> ExperimentReport:
    """Sweep the KL weight and correlate posterior KL with the train/test ECE gap.

    The held-out set matches the recalibration set size, and the gap is the
    absolute ECE difference of the recalibrated model between the two sets at
    floor(n_re^(1/3)) bins. Each fit replaces cfg.alpha and cfg.seed, so the
    recorded cfg is the one passed in, not the one any cell fitted with.
    """
    source, source_config = _as_source(source)
    alpha_grid = _alpha_grid(alpha_grid, 2)
    replicates, n_re = _count(replicates, "replicates"), _count(n_re, "n_re")
    seed = _seed(seed, "seed")
    cfg = _optional(cfg, "cfg", PbrConfig) or PbrConfig()
    cfgs = [replace(cfg, alpha=a) for a in alpha_grid]
    bins = optimal_bins_1d(n_re)

    def fit(data_re, data_te, r: int, ia: int) -> dict:
        result = _fit_at_alpha(data_re, cfgs[ia], seed, r, ia)
        re_cal = recalibrate_set(result.map, data_re)
        te_cal = recalibrate_set(result.map, data_te)
        return {"kl": result.kl, "gap": ece_gap(te_cal, re_cal, bins)}

    def grid():
        for r in range(replicates):
            data_re, data_te = _split_source(source, n_re, n_re, r, seed)
            for ia, alpha_cfg in enumerate(cfgs):
                yield _cell({"replicate": r, "alpha": alpha_cfg.alpha},
                            partial(fit, data_re, data_te, r, ia))

    cells = _run_cells(grid())
    per_replicate = []
    for r in range(replicates):
        kls = [c["kl"] for c in cells if c["replicate"] == r]
        gaps = [c["gap"] for c in cells if c["replicate"] == r]
        per_replicate.append(
            {"replicate": r, "pearson": pearson(kls, gaps), "kendall": kendall_tau(kls, gaps)}
        )

    pearsons = [p["pearson"] for p in per_replicate]
    positive = sum(1 for v in pearsons if not math.isnan(v) and v > 0)
    pooled_p = pearson([c["kl"] for c in cells], [c["gap"] for c in cells])
    summary = {
        "bins": bins,
        "per_replicate": per_replicate,
        "positive_pearson": positive,
        "replicates": replicates,
        "pooled_pearson": pooled_p,
    }
    config = {
        "source": source_config,
        "alpha_grid": alpha_grid,
        "replicates": replicates,
        "n_re": n_re,
        "cfg": cfg.to_dict(),
        "seed": seed,
    }
    return make_report("klgap", config, cells, summary)


def _metrics(data: PredictionSet, bins: int) -> dict:
    return {
        "ece": ece_top_label(data, bins),
        "accuracy": float(data.top_label()[1].mean()),
        "brier": brier_score(data),
        "cross_entropy": softmax_cross_entropy(data),
    }


def _mean_std(values: list) -> dict:
    return {"mean": float(np.mean(values)), "std": float(np.std(values))}


def compare_methods(
    source: Source,
    methods: Sequence[str] = ("uncalibrated", "temperature", "pbr"),
    folds: int = 5,
    n_re: Optional[int] = None,
    n_te: Optional[int] = None,
    cfg: Optional[PbrConfig] = None,
    alpha_grid: Sequence[float] = ALPHA_GRID,
    seed: int = 0,
) -> ExperimentReport:
    """Fit each method per fold and score it on the held-out split.

    The default split keeps 1000 rows for recalibration and 9000 for testing
    when the source is that large, scaling down proportionally otherwise.
    Each PBR fit replaces cfg.alpha, cfg.seed and cfg.objective, so the
    recorded cfg is the one passed in, not the one any cell fitted with.
    """
    source, source_config = _as_source(source)
    folds = _count(folds, "folds", 2)
    seed = _seed(seed, "seed")
    methods = [_choice(m, "method", METHODS) for m in _sequence(methods, "methods", 1)]
    if len(set(methods)) < len(methods):
        raise ValidationError(f"methods repeat: {list(methods)}")
    alpha_grid = _alpha_grid(alpha_grid, 1)  # checked whatever the methods, before any cell
    cfg = _optional(cfg, "cfg", PbrConfig) or PbrConfig()

    if isinstance(source, (BinarySpec, MulticlassSpec)):
        n_re = 1000 if n_re is None else n_re
        n_te = 9000 if n_te is None else n_te
    else:
        n_re = min(1000, max(2, source.n // 5)) if n_re is None else n_re
        n_te = source.n - n_re if n_te is None else n_te
    n_re, n_te = _count(n_re, "n_re", 2), _count(n_te, "n_te", 2)
    bins_te = optimal_bins_1d(n_te)

    def score(data_re, data_te, fold: int, method: str) -> dict:
        fitted, result = fit_method(method, data_re, cfg, alpha_grid, seed, fold)
        extras = {} if result is None else {"alpha": result.cfg.alpha}
        if method != "uncalibrated" and fitted.family == "temperature":
            extras["t"] = fitted.t
        return {**_metrics(recalibrate_set(fitted, data_te), bins_te), **extras}

    def grid():
        for fold in range(folds):
            data_re, data_te = _split_source(source, n_re, n_te, fold, seed)
            for method in methods:
                yield _cell({"fold": fold, "method": method},
                            partial(score, data_re, data_te, fold, method))

    cells = _run_cells(grid())
    by_method = {
        method: {key: _mean_std([c[key] for c in cells if c["method"] == method]) for key in _BEST}
        for method in methods
    }
    best = {key: pick(methods, key=lambda m: by_method[m][key]["mean"])
            for key, pick in _BEST.items()}
    summary = {"n_re": n_re, "n_te": n_te, "bins_te": bins_te,
               "by_method": by_method, "best": best}
    config = {
        "source": source_config,
        "methods": list(methods),
        "folds": folds,
        "n_re": n_re,
        "n_te": n_te,
        "cfg": cfg.to_dict(),
        "alpha_grid": alpha_grid,
        "seed": seed,
    }
    return make_report("compare", config, cells, summary)


def _source_from_config(cfg: dict) -> Source:
    cfg = _keys(cfg, "report source", optional=("spec", "dump", "inline"))
    if len(cfg) != 1:
        raise ValidationError(
            f"report source must hold exactly one of spec, dump or inline, got {sorted(cfg)}")
    if "spec" in cfg:
        return spec_from_dict(cfg["spec"])
    if "dump" in cfg:
        return load_dump(cfg["dump"])
    raise ValidationError("report source was an in-memory set; cannot replay")


def replay(report: Union[ExperimentReport, dict]) -> ExperimentReport:
    """Re-run an experiment with its recorded config, whose keys its signature states."""
    if isinstance(report, dict):
        report = ExperimentReport.from_dict(report)
    experiments = {
        "convergence": convergence_experiment,
        "klgap": kl_gap_experiment,
        "compare": compare_methods,
    }
    run = experiments[_choice(report.kind, "report kind", experiments)]
    params = inspect.signature(run).parameters.values()
    config = dict(_keys(report.config, f"{report.kind} config",
                        [p.name for p in params if p.default is p.empty], [p.name for p in params]))
    if "spec" in config:
        config["spec"] = spec_from_dict(config["spec"])
    if "source" in config:
        config["source"] = _source_from_config(config["source"])
    if "cfg" in config:
        config["cfg"] = PbrConfig.from_dict(config["cfg"])
    return run(**config)
