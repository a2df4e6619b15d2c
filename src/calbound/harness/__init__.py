"""Experiment harness: dump IO, statistics, experiments, reports, CLI."""

from .experiments import (
    ALPHA_GRID,
    ExperimentCellError,
    compare_methods,
    convergence_experiment,
    kl_gap_experiment,
    replay,
)
from .io import PredictionDump, load_dump, write_dump
from .report import REPORT_SCHEMA, ExperimentReport, make_report
from .stats import SlopeFit, fit_loglog_slope, kendall_tau, pearson

__all__ = [
    "ALPHA_GRID",
    "ExperimentCellError",
    "ExperimentReport",
    "PredictionDump",
    "REPORT_SCHEMA",
    "SlopeFit",
    "compare_methods",
    "convergence_experiment",
    "fit_loglog_slope",
    "kendall_tau",
    "kl_gap_experiment",
    "load_dump",
    "make_report",
    "pearson",
    "replay",
    "write_dump",
]
