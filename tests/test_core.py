import numpy as np
import pytest

from calbound import (
    BinarySpec,
    ConfidenceLaw,
    MiscalibrationMap1D,
    MiscalibrationMapK,
    MulticlassSpec,
    PredictionSet,
    RecalMap,
    Rng,
    ValidationError,
    gen_binary,
    gen_multiclass,
    recalibrate_set,
    validate_prediction_set,
)


def _multiclass():
    spec = MulticlassSpec(10, (0.3,) * 10, MiscalibrationMapK.temperature(2.0), 2000, Rng(3))
    return gen_multiclass(spec)


# Sets the package derives from valid data; each is built without from_probs.
DERIVED = {
    "gen_binary": lambda: gen_binary(BinarySpec(
        ConfidenceLaw.uniform(0.55, 0.95), MiscalibrationMap1D.sine(0.1, 2.0), 500, Rng(4))),
    "gen_multiclass": _multiclass,
    "subset": lambda: _multiclass().subset(np.arange(0, 2000, 3)),
    "recalibrate_set": lambda: recalibrate_set(RecalMap.temperature(1.7, 10), _multiclass()),
}


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


def test_stream_generators_draw_what_each_child_stream_draws():
    root = Rng(11, 5)
    draws = (
        lambda g: g.integers(0, 2**31, 3, dtype=np.int32),  # 32-bit draws, half a word left over
        lambda g: g.standard_normal(4),
        lambda g: g.uniform(size=5),
    )
    for i, gen in enumerate(root.stream_generators(range(3000))):
        if i in (0, 1, 2999):
            own = root.stream(i).generator()
            for draw in draws:
                assert np.array_equal(draw(gen), draw(own)), i
        else:
            gen.integers(0, 10, 1, dtype=np.int32)


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


def test_from_probs_keeps_rows_within_a_few_ulp():
    # 3/6 + 2/6 + 1/6 sums to 1 - 2**-53; dividing by it would move 0.5 off the B=2 edge
    row = np.array([[3 / 6, 2 / 6, 1 / 6]])
    assert row.sum() != 1.0
    ps = PredictionSet.from_probs(row, [0])
    assert np.array_equal(ps.probs, row)


def test_prediction_set_arrays_are_read_only():
    for make in (lambda: PredictionSet.from_probs([[0.4, 0.6]], [1]), *DERIVED.values()):
        ps = make()
        with pytest.raises(ValueError):
            ps.probs[0, 0] = 0.5
        with pytest.raises(ValueError):
            ps.labels[0] = 0


@pytest.mark.parametrize("make", DERIVED.values(), ids=DERIVED)
def test_from_probs_reproduces_derived_sets_bit_for_bit(make):
    ps = make()
    again = PredictionSet.from_probs(ps.probs, ps.labels)
    assert again.probs.tobytes() == ps.probs.tobytes()
    assert again.labels.dtype == ps.labels.dtype == np.int64
    assert np.array_equal(again.labels, ps.labels)


def test_from_probs_leaves_the_callers_array_writable():
    probs = np.array([[0.4, 0.6]])
    PredictionSet.from_probs(probs, [1])
    probs[0, 0] = 0.5


def test_top_views_and_subset(gen):
    probs = np.array([[0.8, 0.2], [0.3, 0.7], [0.5, 0.5]])
    ps = PredictionSet.from_probs(probs, [0, 0, 1])
    conf, hits = ps.top_label()
    assert np.allclose(conf, [0.8, 0.7, 0.5])
    # row 2 ties; argmax goes to class 0 so the label-1 row is a miss
    assert np.allclose(hits, [1.0, 0.0, 0.0])
    assert np.array_equal(ps.one_hot_labels()[2], [0.0, 1.0])
    sub = ps.subset(np.array([2, 0]))
    assert sub.n == 2
    assert np.allclose(sub.probs[0], [0.5, 0.5])
