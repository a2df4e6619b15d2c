"""Small statistical helpers for experiment summaries.

:func:`pearson` and :func:`kendall_tau` are numpy only, and each returns
bit for bit the statistic of ``scipy.stats.pearsonr`` or
``scipy.stats.kendalltau`` (scipy 1.17) on the same input.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from ..core import ValidationError, _array


def _paired(x, y) -> tuple[np.ndarray, np.ndarray]:
    x, y = _array(x, "x", 1), _array(y, "y", 1)
    if x.shape != y.shape:
        raise ValidationError("inputs must be equal-length vectors")
    if x.size < 2:
        raise ValidationError("need at least 2 points")
    return x, y


def _scaled_norm(v: np.ndarray) -> np.ndarray:
    """The 2-norm of v, scaled by max|v| first so that squares cannot overflow."""
    vmax = np.abs(v).max()
    return vmax * np.sqrt(np.add.reduce((v / vmax) ** 2))


def pearson(x, y) -> float:
    """Pearson correlation; NaN when either input is constant or holds a NaN.

    The steps are scipy's: centre, scale each side by its norm, take the dot
    product, clip to [-1, 1], and at two points round to exactly -1 or 1.
    """
    x, y = _paired(x, y)
    if (x == x[0]).all() or (y == y[0]).all():
        return math.nan
    with np.errstate(all="ignore"):  # an infinite entry makes the result NaN, quietly
        xm = x - x.mean()
        ym = y - y.mean()
        r = np.clip(np.dot(xm / _scaled_norm(xm), ym / _scaled_norm(ym)), -1.0, 1.0)
    return float(np.round(r) if x.size == 2 else r)


def _signs(v: np.ndarray, k: int) -> np.ndarray:
    """sign(v[i + k] - v[i]) for each i, from comparisons, so that infinities still order."""
    later, earlier = v[k:], v[:-k]
    return (later > earlier).astype(np.int64) - (later < earlier)


def kendall_tau(x, y) -> float:
    """Kendall's tau-b from exact pair counts; NaN when either input holds a NaN or only ties.

    The pairs are visited one offset k at a time, (i, i + k) for every i, so
    memory stays linear in the input length.
    """
    x, y = _paired(x, y)
    if np.isnan(x).any() or np.isnan(y).any():
        return math.nan
    n = x.size
    con_minus_dis = xtie = ytie = 0
    for k in range(1, n):
        sx, sy = _signs(x, k), _signs(y, k)
        con_minus_dis += int(np.dot(sx, sy))
        xtie += n - k - np.count_nonzero(sx)
        ytie += n - k - np.count_nonzero(sy)
    tot = n * (n - 1) // 2
    if xtie == tot or ytie == tot:
        return math.nan
    return float(np.clip(con_minus_dis / np.sqrt(tot - xtie) / np.sqrt(tot - ytie), -1.0, 1.0))


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
