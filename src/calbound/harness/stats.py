"""Small statistical helpers for experiment summaries."""

from __future__ import annotations

import math
import warnings
from typing import NamedTuple

import numpy as np

from ..core import ValidationError


def _paired(x, y) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or x.shape != y.shape:
        raise ValidationError("inputs must be equal-length vectors")
    if x.size < 2:
        raise ValidationError("need at least 2 points")
    return x, y


def pearson(x, y) -> float:
    """Pearson correlation; NaN when either input is constant."""
    x, y = _paired(x, y)
    if np.ptp(x) == 0.0 or np.ptp(y) == 0.0:
        return math.nan
    # Imported here, not at module level: scipy.stats takes about a second to
    # import, and only the KL-gap summary calls pearson and kendall_tau.
    from scipy import stats as sps
    return float(sps.pearsonr(x, y).statistic)


def kendall_tau(x, y) -> float:
    """Kendall's tau with tie correction; NaN when undefined."""
    x, y = _paired(x, y)
    from scipy import stats as sps  # imported here for the reason given in pearson
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        tau = sps.kendalltau(x, y).statistic
    return float(tau) if tau is not None else math.nan


class SlopeFit(NamedTuple):
    slope: float
    stderr: float
    intercept: float


def fit_loglog_slope(ns, values) -> SlopeFit:
    """Least-squares slope of log(values) against log(ns).

    Both inputs must be positive; the standard error comes from the usual
    residual variance estimate and is 0 for an exact power law.
    """
    x, y = _paired(ns, values)
    if x.size < 3:
        raise ValidationError("need at least 3 points for a slope with stderr")
    if (x <= 0).any() or (y <= 0).any():
        raise ValidationError("log-log fit needs strictly positive inputs")
    lx, ly = np.log(x), np.log(y)
    lx_c = lx - lx.mean()
    sxx = float(np.dot(lx_c, lx_c))
    if sxx == 0.0:
        raise ValidationError("all sample sizes identical; slope undefined")
    slope = float(np.dot(lx_c, ly) / sxx)
    intercept = float(ly.mean() - slope * lx.mean())
    resid = ly - (intercept + slope * lx)
    dof = x.size - 2
    sigma2 = float(np.dot(resid, resid)) / dof
    return SlopeFit(slope, math.sqrt(max(sigma2, 0.0) / sxx), intercept)
