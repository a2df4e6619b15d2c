import json
import math
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from calbound import (
    BinarySpec,
    BoundCertificate,
    BoundInputs,
    BoundKind,
    ConfidenceLaw,
    MiscalibrationMap1D,
    MiscalibrationMapK,
    MulticlassSpec,
    PredictionSet,
    Rng,
    ValidationError,
    ece_top_label,
    evaluate_bound,
    gen_multiclass,
    heuristic_lambda,
    kl_gaussian_diag,
    mc_validate_bound,
    optimize_lambda,
    true_tce,
)
import calbound.bounds as bounds
from calbound.ece import _ece_top_label_sets
from calbound.synthetic import with_n
from tests.conftest import reference_bins, reference_cell_ece

THM1 = BoundInputs(n=1000, num_bins=10, epsilon=0.05, lipschitz=1.0, lam=100.0)


def test_total_bias_worked_example():
    cert = evaluate_bound(BoundKind.TotalBiasTest, THM1)
    assert cert.value == pytest.approx(0.4992720407915345, abs=1e-12)
    assert cert.binning_term == pytest.approx(0.2, abs=1e-12)
    assert cert.lambda_used == 100.0


def test_pac_train_adds_kl_over_lambda():
    cert = evaluate_bound(
        BoundKind.PacBiasTrain,
        BoundInputs(n=1000, num_bins=10, epsilon=0.05, lipschitz=1.0, lam=100.0, kl=10.0)
    )
    assert cert.value == pytest.approx(0.4992720407915345 + 0.1, abs=1e-12)


def test_ce_k_worked_example():
    cert = evaluate_bound(
        BoundKind.CeKBias,
        BoundInputs(
            n=10_000, num_bins=25, epsilon=0.05, lipschitz=1.0, lam=500.0, num_classes=2
        )
    )
    assert cert.value == pytest.approx(0.9753061826031025, abs=1e-12)
    assert cert.binning_term == pytest.approx(0.8, abs=1e-12)


def test_gen_recal_worked_example():
    cert = evaluate_bound(
        BoundKind.GenRecal,
        BoundInputs(n=1000, num_bins=10, epsilon=0.05, lipschitz=1.0, lam=100.0, kl=0.0)
    )
    assert cert.value == pytest.approx(0.4992720407915345, abs=1e-12)
    assert cert.binning_term == 0.0


def test_bias_recal_worked_example():
    cert = evaluate_bound(
        BoundKind.BiasRecal,
        BoundInputs(n=1, num_bins=1, epsilon=math.exp(-1), lipschitz=0.0, lam=1.0)
    )
    assert cert.value == pytest.approx(4.693147180559945, abs=1e-12)


def test_joint_worked_example():
    cert = evaluate_bound(
        BoundKind.JointAccTce,
        BoundInputs(n=1000, num_bins=1, epsilon=0.05, lipschitz=0.0, lam=10.0),
        empirical_term=0.0,
    )
    # components: 2 + (2 ln2 + 65*100/8000 + 3 ln 40) / 10
    expect = 2.0 + (2 * math.log(2) + 0.8125 + 3 * math.log(40.0)) / 10.0
    assert cert.value == pytest.approx(expect, abs=1e-12)
    assert cert.value == pytest.approx(3.32654327234617, abs=1e-12)


def test_density_assumption_halves_the_variance_term():
    loose = evaluate_bound(BoundKind.TotalBiasTest, THM1)
    tight = evaluate_bound(
        BoundKind.TotalBiasTest,
        BoundInputs(
            n=1000, num_bins=10, epsilon=0.05, lipschitz=1.0, lam=100.0, assume_density=True
        )
    )
    stat_gap = loose.statistical_term - tight.statistical_term
    # 2/n vs 1/(2n), scaled by lambda
    assert stat_gap == pytest.approx((2.0 / 1000 - 0.5 / 1000) * 100.0, abs=1e-12)
    assert tight.value < loose.value


def test_epsilon_tightening_raises_every_bound():
    for kind in (BoundKind.TotalBiasTest, BoundKind.GenRecal, BoundKind.BiasRecal):
        loose = evaluate_bound(
            kind, BoundInputs(n=500, num_bins=5, epsilon=0.1, lipschitz=1.0, lam=50.0)
        )
        tight = evaluate_bound(
            kind, BoundInputs(n=500, num_bins=5, epsilon=0.01, lipschitz=1.0, lam=50.0)
        )
        assert tight.value > loose.value


def test_heuristic_lambda_is_root_of_bn():
    assert heuristic_lambda(1000, 10) == pytest.approx(100.0)
    assert heuristic_lambda(10_000, 25) == pytest.approx(500.0)


@pytest.mark.parametrize("n, num_bins, message", [
    (-5, 3, r"^sample count must be an integer >= 1 and < 2\*\*63, got -5$"),
    (0, 3, r"^sample count must be an integer >= 1 and < 2\*\*63, got 0$"),
    (True, 2, r"^sample count must be an integer >= 1 and < 2\*\*63, got True$"),
    (10, 2.5, r"^bin count must be an integer >= 1 and < 2\*\*63, got 2.5$"),
])
def test_heuristic_lambda_refuses_a_count_that_is_not_one(n, num_bins, message):
    with pytest.raises(ValidationError, match=message):
        heuristic_lambda(n, num_bins)


def test_optimize_lambda_beats_any_fixed_choice(gen):
    for _ in range(30):
        inputs = BoundInputs(
            n=int(gen.integers(10, 10**6)),
            num_bins=int(gen.integers(1, 100)),
            epsilon=float(gen.uniform(0.001, 0.5)),
            lipschitz=float(gen.uniform(0.0, 2.0)),
            kl=float(gen.uniform(0.0, 30.0)),
            lam="auto",
        )
        star = optimize_lambda(BoundKind.PacBiasTrain, inputs)
        best = evaluate_bound(BoundKind.PacBiasTrain, inputs).value
        for lam in (star / 7.0, star / 2.0, star * 2.0, star * 7.0):
            trial = BoundInputs(**{**inputs.__dict__, "lam": lam})
            assert best <= evaluate_bound(BoundKind.PacBiasTrain, trial).value + 1e-12


def test_optimized_is_default_and_recorded():
    cert = evaluate_bound(
        BoundKind.TotalBiasTest,
        BoundInputs(n=1000, num_bins=10, epsilon=0.05, lipschitz=1.0)
    )
    star = optimize_lambda(
        BoundKind.TotalBiasTest, BoundInputs(n=1000, num_bins=10, epsilon=0.05, lipschitz=1.0)
    )
    assert cert.lambda_used == pytest.approx(star)
    assert cert.value <= evaluate_bound(BoundKind.TotalBiasTest, THM1).value


def test_input_validation():
    with pytest.raises(ValidationError):
        BoundInputs(n=0, num_bins=10, epsilon=0.05)
    with pytest.raises(ValidationError):
        BoundInputs(n=10, num_bins=0, epsilon=0.05)
    with pytest.raises(ValidationError):
        BoundInputs(n=10, num_bins=2, epsilon=0.0)
    with pytest.raises(ValidationError):
        BoundInputs(n=10, num_bins=2, epsilon=1.0)
    with pytest.raises(ValidationError):
        BoundInputs(n=10, num_bins=2, epsilon=0.05, kl=-1.0)
    with pytest.raises(ValidationError):
        BoundInputs(n=10, num_bins=2, epsilon=0.05, lam=0.0)


def test_non_finite_inputs_rejected():
    for bad in (math.nan, math.inf):
        for name in ("lipschitz", "kl", "lam"):
            with pytest.raises(ValidationError, match="finite"):
                BoundInputs(n=10, num_bins=2, epsilon=0.05, **{name: bad})
        with pytest.raises(ValidationError, match="finite"):
            evaluate_bound(
                BoundKind.JointAccTce, BoundInputs(n=10, num_bins=2, epsilon=0.05),
                empirical_term=bad,
            )


@pytest.mark.parametrize("flag", ["no", "", 1, 0, None])
def test_assume_density_must_be_a_bool(flag):
    # A truthy non-bool would switch on the sharper constant: "no" would halve GenRecal here.
    with pytest.raises(ValidationError, match="assume_density must be a bool"):
        BoundInputs(n=100, num_bins=4, epsilon=0.05, assume_density=flag)


def test_mc_validate_bound_refuses_a_law_without_an_oracle():
    spec = BinarySpec(ConfidenceLaw.beta(0.5, 0.5), MiscalibrationMap1D.power(2.0), 100, Rng(1))
    with pytest.raises(ValidationError, match="beta shapes"):
        mc_validate_bound(BoundKind.TotalBiasTest, spec, 4, 0.05, 10)


def test_overflowing_certificate_rejected():
    inputs = BoundInputs(n=10, num_bins=2, epsilon=0.05, kl=1e308)
    with pytest.raises(ValidationError, match="joint_acc_tce certificate overflows"):
        evaluate_bound(BoundKind.JointAccTce, inputs)

def test_kind_specific_rejections():
    with pytest.raises(ValidationError):
        # the test-split bound has no posterior, so kl must stay 0
        evaluate_bound(
            BoundKind.TotalBiasTest, BoundInputs(n=10, num_bins=2, epsilon=0.05, kl=1.0)
        )
    with pytest.raises(ValidationError):
        # needs num_classes
        evaluate_bound(BoundKind.CeKBias, BoundInputs(n=10, num_bins=2, epsilon=0.05))
    with pytest.raises(ValidationError):
        evaluate_bound(
            BoundKind.GenRecal,
            BoundInputs(n=10, num_bins=2, epsilon=0.05),
            empirical_term=0.5,
        )
    with pytest.raises(ValidationError):
        evaluate_bound(
            BoundKind.JointAccTce, BoundInputs(n=10, num_bins=2, epsilon=0.05),
            empirical_term=-0.1,
        )


def test_certificate_serialization_round_trip():
    cert = evaluate_bound(BoundKind.TotalBiasTest, THM1)
    payload = json.loads(json.dumps(cert.to_dict()))
    assert payload["bound_kind"] == "total_bias_test"
    assert payload["value"] == pytest.approx(cert.value)
    clone = BoundCertificate.from_dict(payload)
    assert clone.value == cert.value and clone.kind == cert.kind


_KIND_VALUES = "total_bias_test, pac_bias_train, ce_k_bias, gen_recal, bias_recal, joint_acc_tce"


@pytest.mark.parametrize("key, value, message", [
    ("bound_kind", "nope", rf"^unknown bound kind 'nope'; choose from {_KIND_VALUES}$"),
    ("bound_kind", ["total_bias_test"],
     rf"^unknown bound kind \['total_bias_test'\]; choose from {_KIND_VALUES}$"),
    ("value", "0.5", r"^certificate value must be finite, got '0.5'$"),
    ("binning_term", None, r"^certificate binning_term must be finite, got None$"),
    ("statistical_term", math.nan, r"^certificate statistical_term must be finite, got nan$"),
    ("lambda_used", math.inf, r"^certificate lambda_used must be finite, got inf$"),
    ("empirical_term", -math.inf, r"^certificate empirical_term must be finite, got -inf$"),
    ("empirical_term", True, r"^certificate empirical_term must be finite, got True$"),
    ("inputs", "abc", r"^certificate inputs must be an object, got str$"),
])
def test_certificate_from_dict_refuses_a_bad_value(key, value, message):
    payload = json.loads(json.dumps(evaluate_bound(BoundKind.TotalBiasTest, THM1).to_dict()))
    with pytest.raises(ValidationError, match=message):
        BoundCertificate.from_dict({**payload, key: value})


def test_certificate_from_dict_reads_terms_as_floats():
    payload = evaluate_bound(BoundKind.TotalBiasTest, THM1).to_dict()
    clone = BoundCertificate.from_dict({**payload, "lambda_used": 100, "value": np.float32(0.5)})
    assert type(clone.lambda_used) is float and type(clone.value) is float
    assert clone.lambda_used == 100.0 and clone.value == 0.5


def test_kl_gaussian_diag_worked_examples():
    assert kl_gaussian_diag(
        np.array([0.0]), np.array([1.0]), np.array([1.0]), np.array([1.0])
    ) == pytest.approx(0.5, abs=1e-12)
    assert kl_gaussian_diag(
        np.array([0.0]), np.array([4.0]), np.array([0.0]), np.array([1.0])
    ) == pytest.approx(0.8068528194400547, abs=1e-12)
    same = kl_gaussian_diag(
        np.array([0.3, -1.0]), np.array([2.0, 0.5]), np.array([0.3, -1.0]), np.array([2.0, 0.5])
    )
    assert same == pytest.approx(0.0, abs=1e-12)


def test_kl_gaussian_diag_is_additive_over_dimensions(gen):
    mu_q, var_q = gen.normal(size=3), gen.uniform(0.2, 2.0, 3)
    mu_p, var_p = gen.normal(size=3), gen.uniform(0.2, 2.0, 3)
    total = kl_gaussian_diag(mu_q, var_q, mu_p, var_p)
    parts = sum(
        kl_gaussian_diag(mu_q[i : i + 1], var_q[i : i + 1], mu_p[i : i + 1], var_p[i : i + 1])
        for i in range(3)
    )
    assert total == pytest.approx(parts, abs=1e-12)


@pytest.mark.parametrize("var_q, var_p", [
    (math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (1.0, math.inf), (0.0, 1.0), (1.0, -1.0),
], ids=["nan-q", "nan-p", "inf-q", "inf-p", "zero-q", "negative-p"])
def test_kl_gaussian_diag_rejects_variances_that_are_not_positive_and_finite(var_q, var_p):
    with pytest.raises(ValidationError, match="variances must be positive"):
        kl_gaussian_diag(0.0, var_q, 0.0, var_p)


@pytest.mark.parametrize("mu_q, mu_p", [
    (math.nan, 0.0), (0.0, math.nan), (math.inf, 0.0), (0.0, -math.inf), (math.inf, math.inf),
], ids=["nan-q", "nan-p", "inf-q", "minus-inf-p", "inf-both"])
def test_kl_gaussian_diag_rejects_means_that_are_not_finite(mu_q, mu_p):
    with pytest.raises(ValidationError, match="means must be finite"):
        kl_gaussian_diag(np.array([0.5, mu_q]), np.ones(2), np.array([0.5, mu_p]), np.ones(2))


def test_mc_validate_only_accepts_single_split_bias_kinds():
    spec = BinarySpec(
        ConfidenceLaw.uniform(0.55, 0.95), MiscalibrationMap1D.sine(0.1, 2.0), 200, Rng(3)
    )
    with pytest.raises(ValidationError):
        mc_validate_bound(BoundKind.GenRecal, spec, 5, 0.05, trials=3)
    res = mc_validate_bound(BoundKind.TotalBiasTest, spec, 5, 0.05, trials=8)
    assert res.deviations.shape == (8,)
    assert 0.0 <= res.coverage <= 1.0
    again = mc_validate_bound(BoundKind.TotalBiasTest, spec, 5, 0.05, trials=8)
    assert np.array_equal(res.deviations, again.deviations)


def test_mc_validate_refuses_a_multiclass_spec():
    spec = MulticlassSpec(3, (1.0,) * 3, MiscalibrationMapK.mixture(0.5), 300, Rng(5))
    with pytest.raises(ValidationError,
                       match=r"^coverage is checked on a BinarySpec, got MulticlassSpec$"):
        mc_validate_bound(BoundKind.TotalBiasTest, spec, 5, 0.05, trials=3)


def _per_trial_coverage(kind, spec, num_bins, epsilon, trials):
    """mc_validate_bound with one generator, one set and one ECE per trial.

    Returns the coverage, the certificate, the deviations and each trial's
    count of occupied bins.
    """
    oracle = true_tce(spec)
    deviations, occupied = [], []
    for t in range(trials):
        gen = spec.rng.stream(t).generator()
        conf = spec.law.sample(gen, spec.n)
        labels = np.where(gen.uniform(0.0, 1.0, spec.n) < spec.map(conf), 0, 1)
        top, hits = PredictionSet(np.column_stack([conf, 1.0 - conf]), labels).top_label()
        bins = reference_bins(top, num_bins)
        deviations.append(abs(oracle - reference_cell_ece(bins, top[:, None], hits[:, None])))
        occupied.append(len(np.unique(bins)))
    certificate = evaluate_bound(kind, BoundInputs(
        n=spec.n, num_bins=num_bins, epsilon=epsilon, lipschitz=spec.map.lipschitz_constant)).value
    deviations = np.array(deviations)
    return float(np.mean(deviations <= certificate)), certificate, deviations, np.array(occupied)


SINE = BinarySpec(ConfidenceLaw.uniform(0.55, 0.95), MiscalibrationMap1D.sine(0.1, 2.0), 1000, Rng(9))
BETA = BinarySpec(ConfidenceLaw.beta(2.0, 3.0), MiscalibrationMap1D.power(2.0), 300, Rng(9, 4))


@pytest.mark.parametrize("spec, num_bins, trials, chunk_rows, occupied", [
    (SINE, 5, 120, None, "<8"),  # chunks of 50 trials: 50, 50, 20
    (SINE, 40, 120, None, ">8"),
    (BETA, 30, 10, 1000, ">8"),  # chunks of 3 trials: 3, 3, 3, 1
    (BETA, 3, 10, 1000, "<8"),
    (replace(SINE, n=1500), 40, 3, 1000, ">8"),  # a trial is larger than a chunk
], ids=["few-bins", "many-bins", "beta-many-bins", "beta-few-bins", "trial-over-chunk"])
def test_mc_validate_bound_matches_the_per_trial_loop(
        monkeypatch, spec, num_bins, trials, chunk_rows, occupied):
    if chunk_rows is not None:
        monkeypatch.setattr(bounds, "COVERAGE_CHUNK_ROWS", chunk_rows)
    kind = BoundKind.TotalBiasTest
    coverage, certificate, deviations, cells = _per_trial_coverage(kind, spec, num_bins, 0.05, trials)
    assert (cells.max() < 8) if occupied == "<8" else (cells.min() > 8)
    res = mc_validate_bound(kind, spec, num_bins, 0.05, trials)
    assert np.array_equal(res.deviations, deviations)
    assert res.coverage == coverage and res.certificate == certificate


def test_chunks_score_multiclass_draws_with_the_callers_estimator(monkeypatch):
    # Chunks of 1000 rows hold 3 draws of 300: draws 0-2, 3-5 and 6.
    monkeypatch.setattr(bounds, "COVERAGE_CHUNK_ROWS", 1000)
    spec = MulticlassSpec(3, (1.0,) * 3, MiscalibrationMapK.mixture(0.5), 300, Rng(5))
    rng = spec.rng.stream(2)
    estimate = partial(_ece_top_label_sets, num_bins=7)
    chunks = [(first, stop, score().tolist()) for first, stop, score in
              bounds._chunks(spec, rng, estimate, 7)]
    expect = [ece_top_label(gen_multiclass(with_n(spec, 300, rng.stream(s))), 7) for s in range(7)]
    assert chunks == [(0, 3, expect[:3]), (3, 6, expect[3:6]), (6, 7, expect[6:])]
