"""Binned calibration-error estimators.

All estimators share one binning convention: B uniform-width bins on [0, 1]
where bin i covers ((i-1)/B, i/B], indexed from 1, and an exact zero joins
bin 1. Empty bins contribute nothing. The top-label and full-K estimators
are one reduction, :func:`_cell_ece`, over one of two cell numberings: the
bin index in 1-D, and in K-D the key of each hypercube cell (each coordinate
binned by the same rule). The reduction keeps occupied cells only, so keys
serve as they are while the (B')^K cells number no more than the rows; past
that, the inverse of ``np.unique`` numbers the occupied keys densely in the
same order. The ``_sets`` forms score equal consecutive blocks of rows, one
prediction set each, in one pass: block t's cells are offset past those of the
blocks before it, and each set's value is the one it has alone.
"""

from __future__ import annotations

import numpy as np

from .core import PredictionSet, ValidationError, _array, _count

# Refuse sparse K-D binning when the nominal cell count exceeds 2**48; the
# cell key must stay an exact int64.
MAX_TOTAL_CELLS = 2**48


def assign_bins_1d(values: np.ndarray, num_bins: int) -> np.ndarray:
    """Bin indices in 1..B for values in [0, 1]; right-closed bins, 0 -> bin 1."""
    b = _count(num_bins, "bin count")
    values = _array(values, "values")
    # min and max propagate NaN, so NaN fails this check too.
    if values.size and not (values.min() >= 0.0 and values.max() <= 1.0):
        bad = values[~((values >= 0.0) & (values <= 1.0))][0]
        raise ValidationError(f"value {bad} outside [0, 1]")
    # Bin i closes at the float i / B, as np.arange(1, B + 1) / B gives it. ceil(p * B)
    # rounds once, so it is at most one bin off; each fix-up compares p with that exact
    # edge, and p exactly at an edge stays in the bin the edge closes.
    idx = np.ceil(values * b, out=np.empty_like(values))  # an array even for 0-d input
    idx -= values <= (idx - 1) / b
    idx += values > idx / b
    np.maximum(idx, 1, out=idx)  # only p = 0 has ceil 0
    return idx.astype(np.int64)


def _cell_ece(cells: np.ndarray, vectors: np.ndarray, labels: np.ndarray,
              sets: int = 1, span: int = 0) -> np.ndarray:
    """Occupancy-weighted L1 gap between each cell's mean vector and mean target, per set.

    The rows are ``sets`` equal consecutive blocks, one prediction set each,
    and the cells of block t lie in [t * span, (t + 1) * span). cells numbers
    the cell of each row and vectors is (rows, d). labels[i] in 0..d names
    row i's target: unit vector labels[i] of length d, or zeros when it is d.
    Each set's value is np.sum over its occupied cells in cell order, as for
    the set alone.
    """
    d = vectors.shape[1]
    # Exact integer counts of each (cell, label) pair; a row of them sums to the cell's count.
    joint = np.bincount(cells * (d + 1) + labels, minlength=(cells.max() + 1) * (d + 1))
    joint = joint.reshape(-1, d + 1)
    counts = joint.sum(axis=1)
    occupied = np.flatnonzero(counts)
    counts = counts[occupied].astype(float)
    sum_tgt = joint[occupied, :d]
    # (cells, d) rows: from d = 8 on, a (d, cells) layout sums over d in another order.
    sum_vec = np.column_stack([np.bincount(cells, weights=col)[occupied] for col in vectors.T])
    gaps = np.abs(sum_vec / counts[:, None] - sum_tgt / counts[:, None]).sum(axis=1)
    terms = counts / (len(cells) // sets) * gaps
    firsts = np.searchsorted(occupied, np.arange(1, sets) * span)
    return np.array([np.sum(t) for t in np.split(terms, firsts)])


def _top_label_bins(data: PredictionSet, num_bins: int):
    """0-based top-label bins, confidences and hits, and the bin count."""
    b = _count(num_bins, "bin count")
    conf, hits = data.top_label()
    return assign_bins_1d(conf, b) - 1, conf, hits, b


def _ece_top_label_sets(data: PredictionSet, num_bins: int, sets: int) -> np.ndarray:
    """Top-label ECE of each of ``sets`` equal consecutive blocks of rows."""
    bins, conf, hits, b = _top_label_bins(data, num_bins)
    bins += np.repeat(np.arange(sets) * b, data.n // sets)  # block t's bins from t * B
    return _cell_ece(bins, conf[:, None], hits == 0, sets, b)  # a hit targets 1, a miss 0


def ece_top_label(data: PredictionSet, num_bins: int) -> float:
    """Expected calibration error of the top label.

    Bins the top-class confidences, then averages |mean confidence - mean hit
    rate| over bins weighted by occupancy.
    """
    return float(_ece_top_label_sets(data, num_bins, 1)[0])


def ece_top_label_reformulated(data: PredictionSet, num_bins: int) -> float:
    """Same quantity computed as sum_i |mean((hit - conf) * 1[conf in bin i])|.

    Folding the occupancy weight into the expectation avoids per-bin
    conditional means; it must agree with :func:`ece_top_label` to floating
    rounding, which the test suite pins at 1e-12.
    """
    bins, conf, hits, b = _top_label_bins(data, num_bins)
    residual_sums = np.bincount(bins, weights=hits - conf, minlength=b)
    return float(np.sum(np.abs(residual_sums)) / data.n)


def _ece_full_k_sets(data: PredictionSet, num_bins: int, sets: int) -> np.ndarray:
    """Full-K ECE at num_bins bins per dimension of each of ``sets`` equal consecutive blocks."""
    n, d = data.probs.shape
    b = _count(num_bins, "bin count")
    if b**d > MAX_TOTAL_CELLS:
        raise ValidationError(
            f"{b}^{d} cells exceeds the {MAX_TOTAL_CELLS} sparse-key limit"
        )
    rows = n // sets
    idx = assign_bins_1d(data.probs.ravel(), b).reshape(n, d) - 1
    keys = (idx @ b ** np.arange(d, dtype=np.int64)).reshape(sets, rows)
    if b**d > rows:  # bincount over every key would outgrow the data; number them densely
        keys, span = np.array([np.unique(row, return_inverse=True)[1] for row in keys]), rows
    else:
        span = b**d
    keys += np.arange(sets)[:, None] * span  # block t's cells from t * span
    return _cell_ece(keys.ravel(), data.probs, data.labels, sets, span)


def ece_full_k(data: PredictionSet, bins_per_dim: int) -> float:
    """L1 calibration error of the full probability vector over occupied hypercube cells."""
    return float(_ece_full_k_sets(data, bins_per_dim, 1)[0])


def _integer_root(n: int, power: int) -> int:
    """Largest b >= 1 with b**power <= n, for a count n >= 1, exact in integer arithmetic."""
    lo, hi = 1, max(2, int(round(n ** (1.0 / power))) + 2)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid**power <= n:
            lo = mid
        else:
            hi = mid - 1
    return lo


def optimal_bins_1d(n: int) -> int:
    """Bin count floor(n^(1/3)) balancing binning bias against noise."""
    return _integer_root(_count(n, "sample count"), 3)


def optimal_bins_per_dim(n: int, num_classes: int) -> int:
    """Per-dimension count floor(n^(1/(K+2))) for the K-dimensional estimator."""
    return _integer_root(_count(n, "sample count"), _count(num_classes, "class count", 2) + 2)


def ece_gap(a: PredictionSet, b: PredictionSet, num_bins: int) -> float:
    """Absolute difference of top-label ECE between two prediction sets."""
    if a.num_classes != b.num_classes:
        raise ValidationError(
            f"class count mismatch: {a.num_classes} vs {b.num_classes}"
        )
    return abs(ece_top_label(a, num_bins) - ece_top_label(b, num_bins))
