import numpy as np
import pytest

from calbound import (
    PredictionSet,
    Rng,
    ValidationError,
    one_hot,
    top_prediction,
    validate_prediction_set,
)


def test_rng_same_key_is_bit_identical():
    a = Rng(7).generator().uniform(size=100)
    b = Rng(7).generator().uniform(size=100)
    assert np.array_equal(a, b)


def test_rng_streams_differ_and_are_reproducible():
    base = Rng(7)
    s3 = base.stream(3)
    assert s3 == base.stream(3)
    assert s3 != base.stream(4)
    x = s3.generator().uniform(size=10)
    y = base.stream(4).generator().uniform(size=10)
    assert not np.allclose(x, y)


def test_rng_nested_streams_do_not_collide():
    seen = set()
    for i in range(20):
        for j in range(20):
            key = Rng(1).stream(i).stream(j).stream_id
            assert key not in seen
            seen.add(key)


def test_top_prediction_examples():
    assert top_prediction([0.2, 0.7, 0.1]) == (1, 0.7)
    assert top_prediction([0.5, 0.5]) == (0, 0.5)
    assert top_prediction([1.0, 0.0, 0.0]) == (0, 1.0)


def test_top_prediction_ignores_appended_zero_classes():
    assert top_prediction([0.6, 0.4, 0.0, 0.0]) == top_prediction([0.6, 0.4])


def test_top_prediction_rejects_scalar_and_short_rows():
    with pytest.raises(ValidationError):
        top_prediction([1.0])


def test_one_hot_examples():
    assert np.array_equal(one_hot(1, 3), [0.0, 1.0, 0.0])
    assert np.array_equal(one_hot(0, 2), [1.0, 0.0])
    assert np.array_equal(one_hot(4, 5), [0.0, 0.0, 0.0, 0.0, 1.0])
    with pytest.raises(ValidationError):
        one_hot(3, 3)


def test_one_hot_round_trips_through_top_prediction():
    for k in (2, 3, 7):
        for label in range(k):
            e = one_hot(label, k)
            assert e.sum() == 1.0
            assert top_prediction(e) == (label, 1.0)


def test_validate_reports_row_indices():
    probs = np.array([[0.5, 0.5], [0.6, 0.3], [0.4, 0.6]])
    labels = np.array([0, 1, 2])
    problems = validate_prediction_set(probs, labels)
    assert any("row 1" in p and "sums to" in p for p in problems)
    assert any("row 2" in p and "label" in p for p in problems)


def test_validate_accepts_clean_input():
    assert validate_prediction_set(np.array([[0.3, 0.7]]), np.array([1])) == []


def test_from_probs_renormalizes_tiny_drift():
    row = np.array([[0.3 + 1e-12, 0.7]])
    ps = PredictionSet.from_probs(row, [0])
    assert ps.probs.sum() == pytest.approx(1.0, abs=1e-15)


def test_from_probs_rejects_bad_rows():
    with pytest.raises(ValidationError):
        PredictionSet.from_probs([[0.9, 0.2]], [0])
    with pytest.raises(ValidationError):
        PredictionSet.from_probs([[1.2, -0.2]], [0])
    with pytest.raises(ValidationError):
        PredictionSet.from_probs(np.zeros((0, 2)), np.zeros(0, dtype=int))


def test_from_probs_rejects_nan_rows():
    with pytest.raises(ValidationError, match="row 0"):
        PredictionSet.from_probs([[np.nan, np.nan], [0.3, 0.7]], [0, 1])
    with pytest.raises(ValidationError, match="row 1"):
        PredictionSet.from_probs([[0.3, 0.7], [np.nan, 1.0]], [0, 1])


def test_prediction_set_arrays_are_read_only():
    ps = PredictionSet.from_probs([[0.4, 0.6]], [1])
    with pytest.raises(ValueError):
        ps.probs[0, 0] = 0.5
    with pytest.raises(ValueError):
        ps.labels[0] = 0


def test_top_views_and_subset(gen):
    probs = np.array([[0.8, 0.2], [0.3, 0.7], [0.5, 0.5]])
    ps = PredictionSet.from_probs(probs, [0, 0, 1])
    assert np.allclose(ps.top_confidences(), [0.8, 0.7, 0.5])
    # row 2 ties; argmax goes to class 0 so the label-1 row is a miss
    assert np.allclose(ps.top_hits(), [1.0, 0.0, 0.0])
    assert np.array_equal(ps.one_hot_labels()[2], [0.0, 1.0])
    sub = ps.subset(np.array([2, 0]))
    assert sub.n == 2
    assert np.allclose(sub.probs[0], [0.5, 0.5])
