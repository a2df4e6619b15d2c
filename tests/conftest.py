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


@pytest.fixture
def gen() -> np.random.Generator:
    return np.random.default_rng(20240817)
