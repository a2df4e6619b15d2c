"""Shared value types (prediction sets, seeded RNG streams) and the floored log and softmax."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

# Row sums may drift from 1 by this much before the row is rejected.
SIMPLEX_ATOL = 1e-9

# Probabilities are floored here before taking logs, so log(0) stays finite.
PROB_FLOOR = 1e-12

_MASK64 = (1 << 64) - 1


class ValidationError(ValueError):
    """Raised when inputs violate a documented precondition."""


def _splitmix64(x: int) -> int:
    # Finalizer from the splitmix64 generator; bijective on 64-bit ints.
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


@dataclass(frozen=True)
class Rng:
    """Counter-based random stream keyed by (master_seed, stream_id).

    Two Rng values with the same key always yield identical draws, and
    distinct stream ids give statistically independent streams, so grid
    cells can be seeded without coordination.
    """

    master_seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        key = np.array(
            [self.master_seed & _MASK64, self.stream_id & _MASK64], dtype=np.uint64
        )
        return np.random.Generator(np.random.Philox(key=key))

    def stream(self, index: int) -> "Rng":
        """Derive an independent child stream for a cell index."""
        mixed = _splitmix64((self.stream_id & _MASK64) ^ _splitmix64(index & _MASK64))
        return Rng(self.master_seed, mixed)


def log_probs(probs: np.ndarray) -> np.ndarray:
    """Elementwise log of probabilities floored at PROB_FLOOR."""
    return np.log(np.maximum(probs, PROB_FLOOR))


def softmax(scores: np.ndarray, axis: int = -1) -> np.ndarray:
    """Softmax over one axis (the last by default), shifted by the maximum for stability."""
    e = scores - scores.max(axis=axis, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=axis, keepdims=True)
    return e


class TopPrediction(NamedTuple):
    class_index: int
    confidence: float


def top_prediction(probs: np.ndarray) -> TopPrediction:
    """Most confident class of a single probability row, ties to the lowest index."""
    probs = np.asarray(probs, dtype=float)
    if probs.ndim != 1 or probs.size < 2:
        raise ValidationError("expected a probability vector with K >= 2 entries")
    idx = int(np.argmax(probs))
    return TopPrediction(idx, float(probs[idx]))


def one_hot(label: int, num_classes: int) -> np.ndarray:
    if not 0 <= label < num_classes:
        raise ValidationError(f"label {label} outside [0, {num_classes})")
    e = np.zeros(num_classes)
    e[label] = 1.0
    return e


def validate_prediction_set(probs: np.ndarray, labels: np.ndarray) -> list[str]:
    """Collect human-readable violations; empty list means the pair is valid."""
    problems: list[str] = []
    probs = np.asarray(probs)
    labels = np.asarray(labels)
    if probs.ndim != 2:
        return [f"probs must be 2-D, got shape {probs.shape}"]
    n, k = probs.shape
    if k < 2:
        problems.append(f"need at least 2 classes, got {k}")
    if labels.shape != (n,):
        problems.append(f"labels shape {labels.shape} does not match {n} rows")
        return problems
    if n == 0:
        problems.append("prediction set is empty")
        return problems
    # Written as a negated inclusion so NaN entries fail it as well.
    bad_range = np.where((~((probs >= 0.0) & (probs <= 1.0))).any(axis=1))[0]
    for i in bad_range[:10]:
        problems.append(f"row {i}: entry outside [0, 1] or NaN")
    bad_sum = np.where(np.abs(probs.sum(axis=1) - 1.0) > SIMPLEX_ATOL)[0]
    for i in bad_sum[:10]:
        problems.append(f"row {i}: sums to {probs[i].sum():.12g}, not 1")
    if not np.issubdtype(labels.dtype, np.integer):
        if not np.all(labels == np.floor(labels)):
            problems.append("labels must be integers")
            return problems
    bad_label = np.where((labels < 0) | (labels >= k))[0]
    for i in bad_label[:10]:
        problems.append(f"row {i}: label {labels[i]} outside [0, {k})")
    return problems


@dataclass(frozen=True)
class PredictionSet:
    """Immutable batch of probability rows with integer labels.

    Construct through :meth:`from_probs`, which validates and renormalizes
    rows whose sums drift within ``SIMPLEX_ATOL`` of 1.
    """

    probs: np.ndarray = field(repr=False)
    labels: np.ndarray = field(repr=False)

    @classmethod
    def from_probs(cls, probs, labels) -> "PredictionSet":
        probs = np.asarray(probs, dtype=float)
        labels = np.asarray(labels)
        problems = validate_prediction_set(probs, labels)
        if problems:
            raise ValidationError("; ".join(problems))
        probs = probs / probs.sum(axis=1, keepdims=True)
        labels = labels.astype(np.int64)
        probs.setflags(write=False)
        labels.setflags(write=False)
        return cls(probs, labels)

    @property
    def n(self) -> int:
        return self.probs.shape[0]

    @property
    def num_classes(self) -> int:
        return self.probs.shape[1]

    def top_confidences(self) -> np.ndarray:
        idx = np.argmax(self.probs, axis=1)
        return self.probs[np.arange(self.n), idx]

    def top_hits(self) -> np.ndarray:
        """1.0 where the label equals the argmax class (ties to lowest index)."""
        return (self.labels == np.argmax(self.probs, axis=1)).astype(float)

    def one_hot_labels(self) -> np.ndarray:
        e = np.zeros_like(self.probs)
        e[np.arange(self.n), self.labels] = 1.0
        return e

    def subset(self, rows: np.ndarray) -> "PredictionSet":
        return PredictionSet.from_probs(self.probs[rows], self.labels[rows])
