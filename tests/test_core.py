import json
import math
import re
import tempfile
from dataclasses import fields, is_dataclass
from pathlib import Path

import numpy as np
import pytest

from calbound import (
    BinarySpec,
    BoundCertificate,
    BoundInputs,
    BoundKind,
    ConfidenceLaw,
    GaussianPosterior,
    MiscalibrationMap1D,
    MiscalibrationMapK,
    MulticlassSpec,
    PbrConfig,
    PredictionSet,
    RecalMap,
    Rng,
    ValidationError,
    apply_recal,
    ece_full_k,
    ece_top_label,
    ece_top_label_reformulated,
    evaluate_bound,
    gen_binary,
    gen_multiclass,
    kl_gaussian_diag,
    mc_validate_bound,
    optimal_bins_1d,
    optimal_bins_per_dim,
    pbr_gradient,
    pbr_objective,
    recalibrate_set,
    train_pbr,
    true_ce_k,
    validate_prediction_set,
)
from calbound.bounds import _BIAS_1D, heuristic_lambda, optimize_lambda
from calbound.core import (PROB_FLOOR, _array, _choice, _count, _real, log_probs, row_sums,
                           softmax)
from calbound.ece import assign_bins_1d
from calbound.harness import (
    ExperimentReport,
    compare_methods,
    convergence_experiment,
    kl_gap_experiment,
    load_dump,
    make_report,
    pearson,
    replay,
    write_dump,
)
from calbound.harness.experiments import fit_method
from calbound.recal import FAMILIES, identity_params, param_dim
from calbound.synthetic import spec_from_dict


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


@pytest.mark.parametrize("dtype", [float, object])
def test_validate_flags_the_rows_the_elementwise_check_flags(dtype):
    ulp_above_1, ulp_below_0 = np.nextafter(1.0, 2.0), np.nextafter(0.0, -1.0)
    rows = [[0.5, 0.5, 0.0], [np.nan, 0.5, 0.5], [0.5, 0.5, np.nan], [-0.0, 1.0, 0.0],
            [ulp_above_1, 0.0, 0.0], [1.0, ulp_below_0, 0.0], [0.0, 0.0, ulp_below_0],
            [np.inf, -np.inf, 1.0], [1.0, 0.0, -0.0], [np.nan] * 3]
    probs = np.array(rows, dtype=dtype)
    with np.errstate(invalid="ignore"):  # the row sums of the inf row
        problems = validate_prediction_set(probs, np.zeros(len(rows), dtype=int))
    floats = np.array(rows)
    flagged = np.where((~((floats >= 0.0) & (floats <= 1.0))).any(axis=1))[0]
    assert flagged.tolist() == [1, 2, 4, 5, 6, 7, 9]
    assert [p for p in problems if "outside" in p] == [
        f"row {i}: entry outside [0, 1] or NaN" for i in flagged]
    assert "row 3" not in " ".join(problems) and "row 8" not in " ".join(problems)
    # each row alone beside a valid one, so a bad row must also fail the whole-array check
    for row in rows:
        pair = np.array([[0.5, 0.5, 0.0], row], dtype=dtype)
        with np.errstate(invalid="ignore"):
            problems = validate_prediction_set(pair, np.zeros(2, dtype=int))
        flagged = not ((np.array(row) >= 0.0) & (np.array(row) <= 1.0)).all()
        assert ("row 1: entry outside [0, 1] or NaN" in problems) == flagged, row


def test_log_probs_is_the_floored_log_in_one_array(gen):
    probs = np.concatenate([gen.dirichlet(np.ones(7), 300), np.zeros((2, 7)),
                            np.full((1, 7), PROB_FLOOR / 2)])
    for x in (probs, probs.T, probs[:, 3], probs.astype(np.float32)):
        got = log_probs(x)
        expect = np.log(np.maximum(x, PROB_FLOOR))
        assert got.dtype == expect.dtype and got.tobytes() == expect.tobytes()
    for x in (np.array(0.25), 0.25, 0.0, np.float32(0.5)):
        got, expect = log_probs(x), np.log(np.maximum(x, PROB_FLOOR))
        assert type(got) is type(expect) and got.tobytes() == expect.tobytes()
    assert log_probs(probs) is not probs and np.array_equal(probs[-1], [PROB_FLOOR / 2] * 7)


def test_softmax_into_out_is_the_softmax_bit_for_bit(gen):
    scores = gen.normal(scale=5.0, size=(400, 9))
    for axis in (0, 1, -1):
        expect = softmax(scores, axis=axis)
        into = np.empty_like(scores)
        assert softmax(scores, axis=axis, out=into) is into
        assert into.tobytes() == expect.tobytes()
        in_place = scores.copy()
        softmax(in_place, axis=axis, out=in_place)
        assert in_place.tobytes() == expect.tobytes()


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


@pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint8])
def test_from_probs_neither_freezes_nor_keeps_integer_labels(dtype):
    labels = np.array([1, 0], dtype=dtype)
    ps = PredictionSet.from_probs([[0.4, 0.6], [0.7, 0.3]], labels)
    assert labels.flags.writeable and not np.shares_memory(labels, ps.labels)
    assert ps.labels.dtype == np.int64 and ps.labels.tolist() == [1, 0]
    assert validate_prediction_set([[0.4, 0.6]], np.array([2], dtype=dtype)) == [
        "row 0: label 2 outside [0, 2)"]


def test_from_probs_copies_the_callers_arrays():
    probs, labels = np.array([[0.4, 0.6], [0.3 + 1e-12, 0.7]]), np.array([1, 0])
    ps = PredictionSet.from_probs(probs, labels)
    kept = ps.probs.copy(), ps.labels.copy()
    assert probs[1, 0] == 0.3 + 1e-12  # the drifting row is rescaled in the copy only
    probs[:] = 0.5
    labels[:] = 7
    assert np.array_equal(ps.probs, kept[0]) and np.array_equal(ps.labels, kept[1])


def test_top_views_and_subset(gen):
    probs = np.array([[0.8, 0.2], [0.3, 0.7], [0.5, 0.5]])
    ps = PredictionSet.from_probs(probs, [0, 0, 1])
    conf, hits = ps.top_label()
    assert np.allclose(conf, [0.8, 0.7, 0.5])
    # row 2 ties; argmax goes to class 0 so the label-1 row is a miss
    assert np.allclose(hits, [1.0, 0.0, 0.0])
    sub = ps.subset(np.array([2, 0]))
    assert sub.n == 2
    assert np.allclose(sub.probs[0], [0.5, 0.5])


@pytest.mark.parametrize("k", [*range(1, 20), 100, 300])
def test_row_sums_is_numpys_row_sum_bit_for_bit(gen, k):
    scale = gen.choice([1.0, 1e300, 1e-300, 5e-324, 1e-310], (400, k))  # 1e-310 is subnormal
    a = gen.standard_normal((400, k)) * scale
    a[:20] = -0.0  # numpy sums from +0.0, so an all -0.0 row sums to +0.0
    a[20:40] = gen.choice([-0.0, 0.0], (20, k))
    a[40:60] = gen.choice([-1e300, 1e300], (20, k))
    a[60:80, 0] = -0.0
    for layout in (a, np.asfortranarray(a)):
        assert row_sums(layout).tobytes() == layout.sum(axis=1).tobytes()


def test_binary_top_label_is_the_argmax_entry_bit_for_bit(gen):
    c = gen.uniform(0.0, 1.0, 500)
    probs = np.column_stack([c, 1.0 - c])
    probs[:50] = 0.5  # exact ties go to class 0
    probs[50:60] = [0.0, 1.0]
    probs[60:70] = [1.0, 0.0]
    probs[70:75] = [-0.0, 0.0]  # equal, so class 0 and its -0.0 come back
    probs[75:80] = [0.0, -0.0]
    probs[80:85] = [-0.0, 1.0]
    ps = PredictionSet(probs, gen.integers(0, 2, 500))
    idx = np.argmax(probs, axis=1)
    conf, hits = ps.top_label()
    assert np.array_equal(conf.view(np.int64), probs[np.arange(500), idx].view(np.int64))
    assert np.array_equal(hits, (ps.labels == idx).astype(float))
    assert hits.dtype == conf.dtype == np.float64


_TWO_ROWS = PredictionSet.from_probs([[0.7, 0.3], [0.4, 0.6]], [0, 1])
_BINARY = BinarySpec(ConfidenceLaw.uniform(0.55, 0.95), MiscalibrationMap1D.sine(0.05, 2.0),
                     50, Rng(1))
_MULTI = MulticlassSpec(3, (1.0, 1.0, 1.0), MiscalibrationMapK.identity(), 50, Rng(1))
_GRID = [100, 300, 1000, 3200]


def _inputs(**changes):
    return BoundInputs(**{"n": 10, "num_bins": 2, "epsilon": 0.05, **changes})


# Each public boundary that takes a count, fed the bad value v.
COUNTS = {
    "BoundInputs.n": lambda v: _inputs(n=v),
    "BoundInputs.num_bins": lambda v: _inputs(num_bins=v),
    "BoundInputs.num_classes": lambda v: _inputs(num_classes=v),
    "mc_validate_bound.trials": lambda v: mc_validate_bound(
        BoundKind.TotalBiasTest, _BINARY, 4, 0.05, v),
    "assign_bins_1d": lambda v: assign_bins_1d(np.array([0.5]), v),
    "ece_top_label": lambda v: ece_top_label(_TWO_ROWS, v),
    "ece_top_label_reformulated": lambda v: ece_top_label_reformulated(_TWO_ROWS, v),
    "ece_full_k": lambda v: ece_full_k(_TWO_ROWS, v),
    "optimal_bins_1d": optimal_bins_1d,
    "optimal_bins_per_dim.n": lambda v: optimal_bins_per_dim(v, 3),
    "optimal_bins_per_dim.num_classes": lambda v: optimal_bins_per_dim(100, v),
    "RecalMap.num_classes": lambda v: RecalMap("temperature", v, [0.0]),
    "RecalMap.from_dict.num_classes": lambda v: RecalMap.from_dict(
        {"family": "temperature", "num_classes": v, "params": [0.0]}),
    "PbrConfig.mc_samples": lambda v: PbrConfig(mc_samples=v),
    "PbrConfig.max_iters": lambda v: PbrConfig(max_iters=v),
    "BinarySpec.n": lambda v: BinarySpec(_BINARY.law, _BINARY.map, v, Rng(1)),
    "MulticlassSpec.num_classes": lambda v: MulticlassSpec(
        v, (1.0, 1.0, 1.0), _MULTI.map, 50, Rng(1)),
    "MulticlassSpec.n": lambda v: MulticlassSpec(3, (1.0, 1.0, 1.0), _MULTI.map, v, Rng(1)),
    "true_ce_k.oracle_samples": lambda v: true_ce_k(_MULTI, v),
    "convergence.n_grid": lambda v: convergence_experiment(_BINARY, [v, *_GRID[1:]], 20),
    "convergence.seeds": lambda v: convergence_experiment(_BINARY, _GRID, v),
    "convergence.bin_rule": lambda v: convergence_experiment(_BINARY, _GRID, 20, bin_rule=v),
    "convergence.workers": lambda v: convergence_experiment(_BINARY, _GRID, 20, workers=v),
    "klgap.replicates": lambda v: kl_gap_experiment(
        _MULTI, alpha_grid=(0.0, 1.0), replicates=v, n_re=50),
    "klgap.n_re": lambda v: kl_gap_experiment(_MULTI, alpha_grid=(0.0, 1.0), n_re=v),
    "compare.folds": lambda v: compare_methods(_MULTI, ("uncalibrated",), folds=v),
    "compare.n_re": lambda v: compare_methods(_MULTI, ("uncalibrated",), n_re=v, n_te=50),
    "compare.n_te": lambda v: compare_methods(_MULTI, ("uncalibrated",), n_re=50, n_te=v),
    "heuristic_lambda.n": lambda v: heuristic_lambda(v, 3),
    "heuristic_lambda.num_bins": lambda v: heuristic_lambda(100, v),
}

# Each public boundary that takes a finite real, fed the bad value v.
REALS = {
    "BoundInputs.epsilon": lambda v: _inputs(epsilon=v),
    "BoundInputs.lipschitz": lambda v: _inputs(lipschitz=v),
    "BoundInputs.lam": lambda v: _inputs(lam=v),
    "BoundInputs.kl": lambda v: _inputs(kl=v),
    "evaluate_bound.empirical_term": lambda v: evaluate_bound(BoundKind.JointAccTce, _inputs(), v),
    "RecalMap.temperature": RecalMap.temperature,
    "PbrConfig.alpha": lambda v: PbrConfig(alpha=v),
    "PbrConfig.step_size": lambda v: PbrConfig(step_size=v),
    "PbrConfig.step_decay": lambda v: PbrConfig(step_decay=v),
    "ConfidenceLaw.lo": lambda v: ConfidenceLaw("beta", v, 1.0, 2.0, 2.0),
    "ConfidenceLaw.hi": lambda v: ConfidenceLaw("beta", 0.5, v, 2.0, 2.0),
    "ConfidenceLaw.a": lambda v: ConfidenceLaw("beta", 0.5, 1.0, v, 2.0),
    "ConfidenceLaw.b": lambda v: ConfidenceLaw("beta", 0.5, 1.0, 2.0, v),
    "MiscalibrationMap1D.params": lambda v: MiscalibrationMap1D("shift", (v,)),
    "MiscalibrationMapK.params": lambda v: MiscalibrationMapK("mixture", (v,)),
    "MiscalibrationMap1D.shift": MiscalibrationMap1D.shift,
    "MiscalibrationMap1D.sine.amplitude": lambda v: MiscalibrationMap1D.sine(v, 2.0),
    "MiscalibrationMap1D.sine.frequency": lambda v: MiscalibrationMap1D.sine(0.05, v),
    "MiscalibrationMap1D.power": MiscalibrationMap1D.power,
    "MiscalibrationMapK.temperature": MiscalibrationMapK.temperature,
    "MiscalibrationMapK.mixture": MiscalibrationMapK.mixture,
    "MulticlassSpec.concentration": lambda v: MulticlassSpec(
        3, (1.0, 1.0, v), _MULTI.map, 50, Rng(1)),
}

# Each public boundary that takes a seed (any integer), fed the bad value v.
SEEDS = {
    "Rng.master_seed": Rng,
    "Rng.stream_id": lambda v: Rng(0, v),
    "Rng.stream": lambda v: Rng(1).stream(v),
    "PbrConfig.seed": lambda v: PbrConfig(seed=v),
    "klgap.seed": lambda v: kl_gap_experiment(_MULTI, alpha_grid=(0.0, 1.0), seed=v),
    "compare.seed": lambda v: compare_methods(_MULTI, ("uncalibrated",), seed=v),
}

_BAD = {"bool": True, "nan": math.nan, "inf": math.inf, "-inf": -math.inf}


@pytest.mark.parametrize("boundary, value", [
    *[pytest.param(COUNTS[b], v, id=f"{b}-{name}")
      for b in COUNTS
      for name, v in {**_BAD, "fraction": 20.5, "string": "3", "2**63": 2**63}.items()],
    *[pytest.param(REALS[b], v, id=f"{b}-{name}")
      for b in REALS for name, v in {**_BAD, "string": "0.5"}.items()],
    *[pytest.param(SEEDS[b], v, id=f"{b}-{name}")
      for b in SEEDS for name, v in {**_BAD, "fraction": 2.5, "string": "3"}.items()],
])
def test_every_number_boundary_refuses_a_bad_value(boundary, value):
    with pytest.raises(ValidationError):
        boundary(value)


def test_number_rules_state_the_rule_they_check():
    assert _count(np.int64(3), "n") == 3 and type(_count(np.int64(3), "n")) is int
    assert _real(np.float32(0.5), "x", "> 0", "< 1") == 0.5
    with pytest.raises(ValidationError, match=r"^alpha must be finite and >= 0, got nan$"):
        _real(math.nan, "alpha", ">= 0")
    with pytest.raises(ValidationError, match=r"^x must be finite and > 0 and <= 1, got 1.5$"):
        _real(1.5, "x", "> 0", "<= 1")
    with pytest.raises(ValidationError, match=r"^x must be finite, got 1000"):
        _real(10**400, "x")  # past the float range
    assert _count(2**63 - 1, "n") == 2**63 - 1
    with pytest.raises(ValidationError, match=r"^n must be an integer >= 2 and < 2\*\*63, got 1$"):
        _count(1, "n", 2)
    with pytest.raises(ValidationError, match=r"^n must be an integer >= 1 and < 2\*\*63, got "):
        _count(np.True_, "n")
    with pytest.raises(ValidationError,
                       match=r"^n must be an integer >= 1 and < 2\*\*63, got 9223372036854775808$"):
        _count(2**63, "n")
    with pytest.raises(ValidationError, match=r"^n must be an integer >= 1 and < 2\*\*63, got "):
        _count(np.uint64(2**63), "n")


def test_seed_rule_holds_any_integer_as_int():
    assert Rng(np.int64(7), np.uint64(2**64 - 1)) == Rng(7, 2**64 - 1)
    assert type(Rng(np.int64(7)).master_seed) is int
    assert np.array_equal(Rng(np.int64(-3)).stream(5).generator().random(4),
                          Rng(-3).stream(5).generator().random(4))
    with pytest.raises(ValidationError, match=r"^seed must be an integer, got True$"):
        Rng(True)
    with pytest.raises(ValidationError, match=r"^stream id must be an integer, got 2.5$"):
        Rng(0, 2.5)
    assert Rng(1).stream(np.int64(3)) == Rng(1).stream(3)
    assert Rng(1).stream(np.uint64(2**64 - 1)) == Rng(1).stream(2**64 - 1)
    with pytest.raises(ValidationError, match=r"^stream index must be an integer, got True$"):
        Rng(1).stream(True)


_CONV_CONFIG = {"spec": _BINARY.to_dict(), "n_grid": _GRID, "seeds": 20, "bin_rule": "optimal",
                "oracle_samples": 1000}
_COMPARE = make_report("compare", {"source": {"spec": _MULTI.to_dict()}}, [], {}).to_dict()

# Each reader of an object from JSON: (read, its name in messages, a valid object, a required
# key or None when every key is optional). Each feeds read a value in place of the object.
KEYS = {
    "spec": (spec_from_dict, "spec", _BINARY.to_dict(), "n"),
    "spec.multiclass": (spec_from_dict, "spec", _MULTI.to_dict(), "concentration"),
    "spec.law": (lambda v: spec_from_dict(_BINARY.to_dict() | {"law": v}), "spec law",
                 _BINARY.to_dict()["law"], "hi"),
    "spec.map": (lambda v: spec_from_dict(_BINARY.to_dict() | {"map": v}), "spec map",
                 _BINARY.to_dict()["map"], "kind"),
    "spec.multiclass.map": (lambda v: spec_from_dict(_MULTI.to_dict() | {"map": v}),
                            "spec map", _MULTI.to_dict()["map"], "params"),
    "RecalMap": (RecalMap.from_dict, "recalibration map", RecalMap.temperature(1.5).to_dict(),
                 "params"),
    "GaussianPosterior": (GaussianPosterior.from_dict, "posterior",
                          GaussianPosterior.at(np.zeros(2)).to_dict(), "mu"),
    "PbrConfig": (PbrConfig.from_dict, "PbrConfig", PbrConfig().to_dict(), None),
    "PbrConfig.prior": (lambda v: PbrConfig.from_dict({"prior": v}), "posterior",
                        GaussianPosterior.at(np.zeros(1)).to_dict(), "log_sigma"),
    "BoundCertificate": (BoundCertificate.from_dict, "certificate",
                         evaluate_bound(BoundKind.JointAccTce, _inputs(), 0.1).to_dict(), "value"),
    "ExperimentReport": (ExperimentReport.from_dict, "report", _COMPARE, "cells"),
    "replay.config": (lambda v: replay(make_report("convergence", v, [], {})),
                      "convergence config", _CONV_CONFIG, "n_grid"),
    "replay.compare.config": (lambda v: replay(_COMPARE | {"config": v}), "compare config",
                              _COMPARE["config"], "source"),
    "replay.source": (lambda v: replay(_COMPARE | {"config": {"source": v}}),
                      "report source", _COMPARE["config"]["source"], None),
}


@pytest.mark.parametrize("read, value, message", [
    *[pytest.param(read, [good], rf"^{what} must be an object, got list$", id=f"{b}-not-object")
      for b, (read, what, good, key) in KEYS.items()],
    *[pytest.param(read, {k: v for k, v in good.items() if k != key},
                   rf"^{what} has no '{key}' key$", id=f"{b}-no-{key}")
      for b, (read, what, good, key) in KEYS.items() if key is not None],
    *[pytest.param(read, good | {"extra": 1}, rf"^unknown {what} key 'extra'$",
                   id=f"{b}-unknown-key")
      for b, (read, what, good, key) in KEYS.items()],
])
def test_every_key_reader_refuses_a_bad_object_by_name(read, value, message):
    with pytest.raises(ValidationError, match=message):
        read(value)


@pytest.mark.parametrize("b", [b for b in KEYS if not b.startswith("replay")])
def test_every_key_reader_reads_its_valid_object(b):
    read, _, good, _ = KEYS[b]
    read(good)


def _value_types(i, r):
    """Every value type, plus a certificate and three reports, with counts made by i and reals
    by r; each real is exact in float32."""
    binary = BinarySpec(ConfidenceLaw.uniform(r(0.5), r(0.75)),
                        MiscalibrationMap1D.sine(r(0.0625), r(2.0)), i(50), Rng(i(1), i(2)))
    multi = MulticlassSpec(i(3), (r(1.0), r(0.5), r(2.0)), MiscalibrationMapK.mixture(r(0.25)),
                           i(50), Rng(i(3)))
    cfg = PbrConfig(alpha=r(0.5), mc_samples=i(2), step_size=r(0.25), step_decay=r(0.5),
                    max_iters=i(3), seed=i(4))
    inputs = BoundInputs(n=i(1000), num_bins=i(10), epsilon=r(0.0625), lipschitz=r(1.5),
                         lam=r(8.0), kl=r(0.5), num_classes=i(3))
    grid = [i(100), i(300), i(1000), i(3200)]
    values = [
        binary, multi, cfg, inputs,
        ConfidenceLaw.beta(r(2.0), r(3.0), r(0.5), r(1.0)),
        MiscalibrationMap1D.shift(r(0.125)), MiscalibrationMap1D.power(r(2.0)),
        MiscalibrationMapK.temperature(r(2.0)),
        RecalMap.from_dict({"family": "temperature", "num_classes": i(3), "params": [0.5]}),
        evaluate_bound(BoundKind.JointAccTce, inputs, r(0.125)),
    ]
    reports = [
        convergence_experiment(binary, grid, i(20), bin_rule=i(4), workers=i(1)),
        convergence_experiment(multi, grid, i(20), oracle_samples=i(1000)),
        kl_gap_experiment(multi, alpha_grid=(r(0.0), r(1.0)), replicates=i(2), n_re=i(50),
                          cfg=cfg, seed=i(5)),
        compare_methods(multi, ("uncalibrated", "pbr"), folds=i(2), n_re=i(50), n_te=i(50),
                        cfg=cfg, alpha_grid=(r(0.5),), seed=i(6)),
    ]
    return values, [json.dumps(values[-1].to_dict())] + [rep.to_json() for rep in reports]


def _numbers(value):
    """The numbers a value type holds, through nested value types and tuples."""
    if is_dataclass(value):
        return [x for f in fields(value) for x in _numbers(getattr(value, f.name))]
    if isinstance(value, (tuple, dict)):
        return [x for v in (value.values() if isinstance(value, dict) else value)
                for x in _numbers(v)]
    return [value] if isinstance(value, (int, float, np.generic)) else []


def test_numpy_scalars_are_held_as_python_numbers_and_serialize_alike():
    values, dumps = _value_types(np.int64, np.float32)
    numbers = [x for v in values for x in _numbers(v)]
    assert len(numbers) > 40
    assert {type(x) for x in numbers} <= {int, float, bool}
    assert dumps == _value_types(int, float)[1]


_ONE_HOT = [[1, 0], [0, 1]]


def _validate(probs, labels):
    """validate_prediction_set, raising its one problem when it finds any."""
    problems = validate_prediction_set(probs, labels)
    if problems:
        (problem,) = problems  # a refused array is the only problem reported
        raise ValidationError(problem)
    return problems


def _npz(probs, labels):
    """The set load_dump reads from an npz archive holding probs and labels."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.npz"
        np.savez(path, probs=probs, labels=labels)
        return load_dump(path).data


# Each public boundary that takes an array, fed the bad value v: (call, the name its
# messages give v, a valid value of whole numbers, the dimension count it requires or None
# for any, whether it refuses NaN by that name).
ARRAYS = {
    "from_probs.probs": (lambda v: PredictionSet.from_probs(v, [0, 1]), "probs", _ONE_HOT, 2,
                         False),
    "from_probs.labels": (lambda v: PredictionSet.from_probs(_ONE_HOT, v), "labels", [0, 1], 1,
                          True),
    "validate_prediction_set.probs": (lambda v: _validate(v, [0, 1]), "probs", _ONE_HOT, 2,
                                      False),
    "validate_prediction_set.labels": (lambda v: _validate(_ONE_HOT, v), "labels", [0, 1], 1,
                                       True),
    "RecalMap.params": (lambda v: RecalMap("vector_scale", 2, v), "vector_scale map params",
                        [1, 2, 0, 1], 1, True),
    "RecalMap.from_dict.params": (lambda v: RecalMap.from_dict(
        {"family": "temperature", "num_classes": 2, "params": v}), "temperature map params", [1],
        1, True),
    "RecalMap.vector_scale.weights": (lambda v: RecalMap.vector_scale(v, [0, 1]), "weights",
                                      [1, 2], 1, False),
    "RecalMap.vector_scale.offsets": (lambda v: RecalMap.vector_scale([1, 2], v), "offsets",
                                      [0, 1], 1, False),
    "RecalMap.affine.matrix": (lambda v: RecalMap.affine(v, [0, 1]), "matrix", [[1, 0], [1, 2]],
                               2, False),
    "RecalMap.affine.offsets": (lambda v: RecalMap.affine(np.eye(2), v), "offsets", [0, 1], 1,
                                False),
    "apply_recal": (lambda v: apply_recal(RecalMap.vector_scale([1, 2], [0, 1]), v), "probs",
                    _ONE_HOT, 2, True),
    "GaussianPosterior.mu": (lambda v: GaussianPosterior(v, np.zeros(2)), "mu", [1, 2], 1, False),
    "GaussianPosterior.log_sigma": (lambda v: GaussianPosterior(np.zeros(2), v), "log_sigma",
                                    [0, 1], 1, False),
    "GaussianPosterior.from_dict": (lambda v: GaussianPosterior.from_dict(
        {"mu": v, "log_sigma": [0, 0]}), "mu", [1, 2], 1, False),
    "PbrConfig.from_dict.prior": (lambda v: PbrConfig.from_dict(
        {"prior": {"mu": [0], "log_sigma": v}}), "log_sigma", [1], 1, False),
    "kl_gaussian_diag.mu_q": (lambda v: kl_gaussian_diag(v, [1, 2], [0, 0], [1, 1]), "means",
                              [1, 2], None, True),
    "kl_gaussian_diag.var_q": (lambda v: kl_gaussian_diag([1, 2], v, [0, 0], [1, 1]),
                               "variances", [1, 2], None, True),
    "kl_gaussian_diag.mu_p": (lambda v: kl_gaussian_diag([0, 0], [1, 1], v, [1, 2]), "means",
                              [1, 2], None, True),
    "kl_gaussian_diag.var_p": (lambda v: kl_gaussian_diag([0, 0], [1, 1], [1, 2], v),
                               "variances", [1, 2], None, True),
    "assign_bins_1d": (lambda v: assign_bins_1d(v, 4), "values", [0, 1], None, False),
    "pearson.x": (lambda v: pearson(v, [3, 1, 2]), "x", [1, 2, 3], 1, False),
    "pearson.y": (lambda v: pearson([1, 2, 3], v), "y", [3, 1, 2], 1, False),
    "load_dump.npz.probs": (lambda v: _npz(v, [0, 1]), "'probs'", _ONE_HOT, 2, True),
    "load_dump.npz.labels": (lambda v: _npz(_ONE_HOT, v), "labels", [0, 1], 1, True),
}

# An npz member is one typed array: it holds Python objects only through pickle, which
# load_dump refuses by file, and a list with one bool in it is saved as floats.
_NOT_IN_NPZ = ("none", "ragged", "dict", "bool-entry", "object")


def _object_with_none(good):
    a = np.array(good, dtype=object)
    a.flat[0] = None
    return a


def _first_entry(good, entry):
    """good as nested lists, with entry in place of its first entry."""
    rows = np.asarray(good).tolist()
    (rows[0] if isinstance(rows[0], list) else rows)[0] = entry
    return rows


def _ragged(good):
    """good with its last row one entry short, or with its last entry in a list of its own."""
    rows = np.asarray(good).tolist()
    rows[-1] = rows[-1][:-1] if isinstance(rows[-1], list) else [rows[-1]]
    return rows


_BAD_ARRAYS = {
    "bool": lambda good: np.ones(np.shape(good), dtype=bool),
    "bool-entry": lambda good: _first_entry(good, True),
    "string": lambda good: np.full(np.shape(good), "1"),
    "complex": lambda good: np.asarray(good) + 0j,
    "none": _object_with_none,
    "ragged": _ragged,
    "dict": lambda good: {"0": good},
}

_GOOD_ARRAYS = {
    "int": lambda good: np.asarray(good, dtype=np.int64),
    "float32": lambda good: np.asarray(good, dtype=np.float32),
    "list": lambda good: np.asarray(good, dtype=float).tolist(),
    "object": lambda good: np.array(np.asarray(good, dtype=float).tolist(), dtype=object),
}


def _skips(b, kind):
    return b.startswith("load_dump.npz") and kind in _NOT_IN_NPZ


@pytest.mark.parametrize("call, value, what", [
    *[pytest.param(call, bad(good), what, id=f"{b}-{kind}")
      for b, (call, what, good, ndim, finite) in ARRAYS.items()
      for kind, bad in _BAD_ARRAYS.items() if not _skips(b, kind)],
    *[pytest.param(call, np.asarray(good)[None], what, id=f"{b}-ndim")
      for b, (call, what, good, ndim, finite) in ARRAYS.items() if ndim is not None],
    *[pytest.param(call, np.full(np.shape(good), np.nan), what, id=f"{b}-nan")
      for b, (call, what, good, ndim, finite) in ARRAYS.items() if finite],
])
def test_every_array_boundary_refuses_a_bad_array_by_name(call, value, what):
    with pytest.raises(ValidationError, match=rf"^(.*: )?{re.escape(what)} "):
        call(value)


def _bits(value):
    """Every array's dtype, shape and bytes, and the repr of every other value, in value; a
    string's repr is that of it as a str, so a numpy string reads as the same str."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if is_dataclass(value):
        return [_bits(getattr(value, f.name)) for f in fields(value)]
    if isinstance(value, (list, tuple)):
        return [_bits(v) for v in value]
    return repr(str(value) if isinstance(value, str) else value)


@pytest.mark.parametrize("b, form", [
    (b, form) for b in ARRAYS for form in _GOOD_ARRAYS if not _skips(b, form)])
def test_every_array_boundary_reads_real_arrays_as_float64_bit_for_bit(b, form):
    call, _, good, _, _ = ARRAYS[b]
    assert _bits(call(_GOOD_ARRAYS[form](good))) == _bits(call(np.asarray(good, dtype=float)))


def test_array_rule_keeps_a_float64_array_and_states_its_rule():
    a = np.array([[0.5, 0.25]])
    assert _array(a, "a", 2, finite=True) is a
    rule = "a must be an array of real numbers, got"
    with pytest.raises(ValidationError, match=rf"^{rule} dtype bool$"):
        _array(np.array([True]), "a")
    for entry, name in ((True, "bool"), ("0.5", "str"), (None, "NoneType"), ([0.5], "list")):
        with pytest.raises(ValidationError, match=rf"^{rule} an entry of type {name}$"):
            _array([0.5, entry], "a")  # numpy alone reads [0.5, True] as two floats
    with pytest.raises(ValidationError, match=r"^a must be 2-D, got shape \(2,\)$"):
        _array([0.5, 0.25], "a", 2)
    with pytest.raises(ValidationError, match=r"^a must be finite$"):
        _array([0.5, -math.inf], "a", finite=True)
    with pytest.raises(ValidationError, match=r"^a must be an array of real numbers: "):
        _array(np.array([0.5, 10**400], dtype=object), "a")  # past the float range


def _named(table, v):
    """table's entry for the name v, or its first entry when v is not one of its names."""
    return table[v] if isinstance(v, str) and v in table else next(iter(table.values()))


def _written(fmt="csv", mode="probs"):
    """The bytes write_dump writes of a two-row set in fmt and mode, to a .csv path."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.csv"
        write_dump(_TWO_ROWS, path, fmt, mode)
        return path.read_bytes()


_FIT = PbrConfig(mc_samples=1, max_iters=2)
_FAMILY_PARAMS = {f: identity_params(f, 2) for f in FAMILIES}
_MAP_1D_PARAMS = {"identity": (), "shift": (0.05,), "sine": (0.05, 2.0), "power": (2.0,)}
_MAP_K_PARAMS = {"identity": (), "temperature": (2.0,), "mixture": (0.2,)}
_SPECS = {"binary": _BINARY.to_dict(), "multiclass": _MULTI.to_dict()}
_REPORTS = {
    "convergence": lambda: convergence_experiment(_BINARY, _GRID, 20),
    "klgap": lambda: kl_gap_experiment(_MULTI, (0.0, 1.0), replicates=1, n_re=20, cfg=_FIT),
    "compare": lambda: compare_methods(_MULTI, ("temperature",), folds=2, n_re=20, n_te=20),
}
_CERTIFICATE = evaluate_bound(BoundKind.JointAccTce, _inputs(), 0.1).to_dict()
_BOUND_KINDS = ", ".join(map(str, BoundKind))
_KIND_VALUES = tuple(k.value for k in BoundKind)
_FAMILY_NAMES = "temperature, vector_scale, affine"
_METHOD_NAMES = "uncalibrated, temperature, pbr, pbr_total"

# Each public boundary that takes a name from a fixed set: (call, its name in messages, the
# choices as messages list them, the names it builds from). Each feeds call v for the name.
CHOICES = {
    "RecalMap": (lambda v: RecalMap(v, 2, _named(_FAMILY_PARAMS, v)), "family", _FAMILY_NAMES,
                 FAMILIES),
    "RecalMap.from_dict": (lambda v: RecalMap.from_dict(
        {"family": v, "num_classes": 2, "params": list(_named(_FAMILY_PARAMS, v))}), "family",
        _FAMILY_NAMES, FAMILIES),
    "RecalMap.identity": (lambda v: RecalMap.identity(v, 3), "family", _FAMILY_NAMES, FAMILIES),
    "param_dim": (lambda v: param_dim(v, 3), "family", _FAMILY_NAMES, FAMILIES),
    "PbrConfig.family": (lambda v: PbrConfig(family=v), "family", _FAMILY_NAMES, FAMILIES),
    "PbrConfig.from_dict.family": (lambda v: PbrConfig.from_dict({"family": v}), "family",
                                   _FAMILY_NAMES, FAMILIES),
    "PbrConfig.objective": (lambda v: PbrConfig(objective=v), "objective",
                            "brier, brier_plus_loss", ("brier", "brier_plus_loss")),
    "MiscalibrationMap1D": (lambda v: MiscalibrationMap1D(v, _named(_MAP_1D_PARAMS, v)),
                            "map kind", "identity, shift, sine, power", tuple(_MAP_1D_PARAMS)),
    "MiscalibrationMapK": (lambda v: MiscalibrationMapK(v, _named(_MAP_K_PARAMS, v)),
                           "map kind", "identity, temperature, mixture", tuple(_MAP_K_PARAMS)),
    "spec.map": (lambda v: spec_from_dict(
        _BINARY.to_dict() | {"map": {"kind": v, "params": list(_named(_MAP_1D_PARAMS, v))}}),
        "map kind", "identity, shift, sine, power", tuple(_MAP_1D_PARAMS)),
    "ConfidenceLaw": (lambda v: ConfidenceLaw(v, 0.55, 0.95, 2.0, 3.0), "confidence law",
                      "uniform, beta", ("uniform", "beta")),
    "spec.law": (lambda v: spec_from_dict(
        _BINARY.to_dict() | {"law": _BINARY.to_dict()["law"] | {"kind": v, "a": 2.0, "b": 3.0}}),
        "confidence law", "uniform, beta", ("uniform", "beta")),
    "spec_from_dict": (lambda v: spec_from_dict(_named(_SPECS, v) | {"kind": v}), "spec kind",
                       "binary, multiclass", tuple(_SPECS)),
    "write_dump.fmt": (lambda v: _written(fmt=v), "dump format", "csv, jsonl, npz",
                       ("csv", "jsonl", "npz")),
    "write_dump.mode": (lambda v: _written(mode=v), "dump mode", "probs, logits",
                        ("probs", "logits")),
    "fit_method": (lambda v: fit_method(v, _TWO_ROWS, _FIT, (0.5,), 0), "method", _METHOD_NAMES,
                   ("uncalibrated", "temperature", "pbr", "pbr_total")),
    "compare_methods": (lambda v: compare_methods(
        _MULTI, (v,), folds=2, n_re=20, n_te=20, cfg=_FIT, alpha_grid=(0.5,)).to_json(),
        "method", _METHOD_NAMES, ("uncalibrated", "temperature", "pbr", "pbr_total")),
    "replay": (lambda v: replay(ExperimentReport(**{
        **_named(_REPORTS, v)().to_dict(), "kind": v})).to_json(), "report kind",
        "convergence, klgap, compare", tuple(_REPORTS)),
    "evaluate_bound": (lambda v: evaluate_bound(v, _inputs(num_classes=3)), "bound kind",
                       _BOUND_KINDS, tuple(BoundKind)),
    "optimize_lambda": (lambda v: optimize_lambda(v, _inputs(num_classes=3)), "bound kind",
                        _BOUND_KINDS, tuple(BoundKind)),
    "mc_validate_bound": (lambda v: mc_validate_bound(v, _BINARY, 4, 0.05, 3), "bound kind",
                          _BOUND_KINDS, _BIAS_1D),
    "BoundCertificate.from_dict": (lambda v: BoundCertificate.from_dict(
        _CERTIFICATE | {"bound_kind": v}), "bound kind", ", ".join(_KIND_VALUES), _KIND_VALUES),
}


# Each public boundary that takes an object of one type or None: (call, its name in
# messages, a valid object). Each feeds call v in place of the object.
_UNIT_T = GaussianPosterior.at(np.zeros(1))  # a temperature posterior
OPTIONALS = {
    "PbrConfig.prior": (lambda v: PbrConfig(prior=v), "prior", GaussianPosterior.at(np.zeros(1))),
    "klgap.cfg": (lambda v: kl_gap_experiment(_MULTI, (0.0, 1.0), replicates=1, n_re=20, cfg=v),
                  "cfg", _FIT),
    "compare.cfg": (lambda v: compare_methods(_MULTI, ("temperature",), folds=2, n_re=20,
                                              n_te=20, cfg=v), "cfg", _FIT),
    "fit_method.cfg": (lambda v: fit_method("pbr", _TWO_ROWS, v, (0.5,), 0), "cfg", _FIT),
    "train_pbr.cfg": (lambda v: train_pbr(_TWO_ROWS, v), "cfg", _FIT),
    "pbr_objective.cfg": (lambda v: pbr_objective(_UNIT_T, None, _TWO_ROWS, v, Rng(0)), "cfg",
                          _FIT),
    "pbr_gradient.cfg": (lambda v: pbr_gradient(_UNIT_T, None, _TWO_ROWS, v, Rng(0)), "cfg",
                         _FIT),
}


@pytest.mark.parametrize("call, value, message", [
    pytest.param(call, bad, rf"^{what} must be a {type(good).__name__} or None, "
                            rf"got {type(bad).__name__}$", id=f"{b}-{kind}")
    for b, (call, what, good) in OPTIONALS.items()
    for kind, bad in {"empty-dict": {}, "string": "x", "its-dict": good.to_dict(),
                      "other-type": _TWO_ROWS}.items()])
def test_every_typed_boundary_refuses_another_type_by_name(call, value, message):
    # the experiments refuse it before any cell, which would raise ExperimentCellError
    with pytest.raises(ValidationError, match=message):
        call(value)


def test_fit_method_fits_the_default_config_for_none():
    fitted, result = fit_method("pbr", _TWO_ROWS, None, (0.5,), 0)
    expect, expect_result = fit_method("pbr", _TWO_ROWS, PbrConfig(), (0.5,), 0)
    assert np.array_equal(fitted.params, expect.params)
    assert result.cfg == expect_result.cfg == PbrConfig(alpha=0.5)


def test_train_pbr_fits_the_default_config_for_none():
    result, expect = train_pbr(_TWO_ROWS, None), train_pbr(_TWO_ROWS, PbrConfig())
    assert result.cfg == expect.cfg == PbrConfig()
    assert np.array_equal(result.posterior.mu, expect.posterior.mu)
    assert np.array_equal(result.map.params, expect.map.params)


@pytest.mark.parametrize("experiment", [
    lambda v: kl_gap_experiment(v, (0.0, 1.0), replicates=1, n_re=20, cfg=_FIT),
    lambda v: compare_methods(v, ("temperature",), folds=2, n_re=20, n_te=20),
], ids=["klgap", "compare"])
@pytest.mark.parametrize("source", [np.eye(2), {"probs": _ONE_HOT}, "spec.json"],
                         ids=["array", "dict", "str"])
def test_experiments_refuse_a_source_of_another_type_by_name(experiment, source):
    message = (r"^source must be a BinarySpec, MulticlassSpec, PredictionSet or PredictionDump, "
               rf"got {type(source).__name__}$")
    with pytest.raises(ValidationError, match=message):
        experiment(source)


def _bad_names(good):
    """Values that are not one of the names, made from the valid name good."""
    text = getattr(good, "value", good)
    bad = {"unknown": "magic", "list": [good], "dict": {"name": good}, "none": None,
           "array-1": np.array([text]), "array-2": np.array([text, "magic"])}
    if isinstance(good, BoundKind):  # its string value where a BoundKind is due
        bad["string-value"] = text
    elif good in _KIND_VALUES:  # a BoundKind where its string value is due
        bad["enum-member"] = BoundKind(good)
    return bad


@pytest.mark.parametrize("call, value, message", [
    pytest.param(call, bad, rf"^unknown {what} {re.escape(repr(bad))}; "
                            rf"choose from {re.escape(listed)}$", id=f"{b}-{kind}")
    for b, (call, what, listed, names) in CHOICES.items()
    for kind, bad in _bad_names(names[0]).items()
    if (b, kind) != ("write_dump.fmt", "none")])  # no format is the one the suffix names
def test_every_name_boundary_refuses_a_bad_name_and_lists_the_choices(call, value, message):
    with pytest.raises(ValidationError, match=message):
        call(value)


@pytest.mark.parametrize("b, name", [
    pytest.param(b, name, id=f"{b}-{name}") for b in CHOICES for name in CHOICES[b][3]])
def test_every_name_boundary_builds_each_name_alike_as_a_numpy_string(b, name):
    call = CHOICES[b][0]
    built = call(name)
    if isinstance(name, str):
        assert _bits(call(np.str_(name))) == _bits(built)


def test_name_rule_keeps_a_name_and_lists_the_choices_as_written():
    assert _choice("b", "letter", ("a", "b")) == "b"
    assert _choice(BoundKind.GenRecal, "bound kind", tuple(BoundKind)) is BoundKind.GenRecal
    with pytest.raises(ValidationError, match=r"^unknown letter 'c'; choose from a, b$"):
        _choice("c", "letter", ("a", "b"))
    with pytest.raises(ValidationError,
                       match=r"^unknown bound kind 'gen_recal'; choose from BoundKind\.Total"):
        _choice("gen_recal", "bound kind", tuple(BoundKind))

