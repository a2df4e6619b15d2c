import os
from pathlib import Path

import numpy as np
import pytest

from calbound import PredictionSet

# pytest puts src/ on its own import path (pyproject.toml); tests that start
# `python -m calbound` in a fresh interpreter need it on that one's path too.
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


def random_prediction_set(gen: np.random.Generator, n: int, k: int) -> PredictionSet:
    """Dirichlet rows with labels drawn from the rows themselves."""
    probs = gen.dirichlet(np.ones(k), size=n)
    u = gen.uniform(size=n)
    labels = (u[:, None] >= np.cumsum(probs, axis=1)).sum(axis=1)
    labels = np.minimum(labels, k - 1)
    return PredictionSet.from_probs(probs, labels)


def reference_bins(values, b: int) -> np.ndarray:
    """The bin rule as a search over the edges np.arange(1, B + 1) / B: 1-based, right-closed."""
    uppers = np.arange(1, b + 1) / b
    return np.minimum(np.searchsorted(uppers, values, side="left") + 1, b)


def reference_cell_ece(keys, vectors, targets) -> float:
    """Binned L1 gap of one set over the cells np.unique numbers, summed by one np.sum."""
    _, cells = np.unique(keys, return_inverse=True)
    counts = np.bincount(cells).astype(float)
    sum_vec, sum_tgt = [np.column_stack([np.bincount(cells, weights=col) for col in cols.T])
                        for cols in (vectors, targets)]
    gaps = np.abs(sum_vec / counts[:, None] - sum_tgt / counts[:, None]).sum(axis=1)
    return float(np.sum(counts / len(cells) * gaps))


@pytest.fixture
def gen() -> np.random.Generator:
    return np.random.default_rng(20240817)
