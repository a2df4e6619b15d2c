import json
import math

import numpy as np
import pytest
import jsonschema

from calbound import (
    BinarySpec,
    ConfidenceLaw,
    MiscalibrationMap1D,
    MiscalibrationMapK,
    MulticlassSpec,
    Rng,
    ValidationError,
    gen_multiclass,
)
from calbound.harness import (
    ExperimentCellError,
    ExperimentReport,
    PredictionDump,
    compare_methods,
    convergence_experiment,
    fit_loglog_slope,
    kendall_tau,
    kl_gap_experiment,
    load_dump,
    make_report,
    pearson,
    replay,
    write_dump,
)
from calbound.harness.report import REPORT_SCHEMA
from tests.conftest import random_prediction_set


# ---------------------------------------------------------------- io


def test_csv_probs_round_trip(tmp_path, gen):
    data = random_prediction_set(gen, 25, 3)
    p = tmp_path / "dump.csv"
    write_dump(data, p)
    loaded = load_dump(p)
    assert loaded.mode == "probs" and loaded.format == "csv"
    assert loaded.n == 25 and loaded.num_classes == 3
    assert np.allclose(loaded.data.probs, data.probs, atol=1e-15)
    assert np.array_equal(loaded.data.labels, data.labels)


def test_csv_round_trip_is_bit_exact(tmp_path):
    # at K=1000 a fifth of numpy's raw Dirichlet rows sum to more than 4 eps off 1,
    # so this needs gen_multiclass to divide them by their sum once
    spec = MulticlassSpec(1000, (1.0,) * 1000, MiscalibrationMapK.temperature(2.0), 50, Rng(13))
    data = gen_multiclass(spec)
    p = tmp_path / "dump.csv"
    write_dump(data, p)
    loaded = load_dump(p).data
    assert loaded.probs.tobytes() == data.probs.tobytes()
    assert np.array_equal(loaded.labels, data.labels)


def test_jsonl_logits_round_trip(tmp_path, gen):
    data = random_prediction_set(gen, 30, 4)
    p = tmp_path / "dump.jsonl"
    write_dump(data, p, fmt="jsonl", mode="logits")
    loaded = load_dump(p)
    assert loaded.mode == "logits" and loaded.format == "jsonl"
    assert np.allclose(loaded.data.probs, data.probs, atol=1e-12)


def test_csv_logits_header_detected(tmp_path):
    p = tmp_path / "z.csv"
    p.write_text("z0,z1,label\n2.0,0.0,0\n-1.0,1.0,1\n")
    loaded = load_dump(p)
    assert loaded.mode == "logits"
    expect = np.exp([2.0, 0.0]) / np.exp([2.0, 0.0]).sum()
    assert np.allclose(loaded.data.probs[0], expect, atol=1e-12)


def test_explicit_mode_must_match(tmp_path):
    p = tmp_path / "p.csv"
    p.write_text("p0,p1,label\n0.6,0.4,0\n")
    assert load_dump(p, mode="probs").n == 1
    with pytest.raises(ValidationError):
        load_dump(p, mode="logits")


def test_load_errors_carry_row_numbers(tmp_path):
    bad_field = tmp_path / "a.csv"
    bad_field.write_text("p0,p1,label\n0.6,0.4,0\n0.5,oops,1\n")
    with pytest.raises(ValidationError, match="row 2"):
        load_dump(bad_field)

    ragged = tmp_path / "b.csv"
    ragged.write_text("p0,p1,label\n0.6,0.4,0\n0.5,0.5\n")
    with pytest.raises(ValidationError, match="row 2"):
        load_dump(ragged)

    bad_json = tmp_path / "c.jsonl"
    bad_json.write_text('{"probs": [0.6, 0.4], "label": 0}\nnot json\n')
    with pytest.raises(ValidationError, match="row 2"):
        load_dump(bad_json)

    mixed = tmp_path / "d.jsonl"
    mixed.write_text('{"probs": [0.6, 0.4], "label": 0}\n{"logits": [1.0, 0.0], "label": 0}\n')
    with pytest.raises(ValidationError, match="row 2"):
        load_dump(mixed)

    fractional = tmp_path / "e.csv"
    fractional.write_text("p0,p1,label\n0.6,0.4,0.5\n")
    with pytest.raises(ValidationError, match="label"):
        load_dump(fractional)


def test_load_rejects_non_finite_cells(tmp_path):
    nan_cell = tmp_path / "f.csv"
    nan_cell.write_text("p0,p1,label\n0.6,0.4,0\n0.5,nan,1\n")
    with pytest.raises(ValidationError, match="row 2: non-finite"):
        load_dump(nan_cell)

    inf_logit = tmp_path / "g.jsonl"
    inf_logit.write_text('{"logits": [1.0, 0.0], "label": 0}\n'
                         '{"logits": [Infinity, 0.0], "label": 1}\n')
    with pytest.raises(ValidationError, match="row 2: non-finite"):
        load_dump(inf_logit)

    # int() of a NaN label raises ValueError, of an infinite one OverflowError
    for name, text in [("h.csv", "p0,p1,label\n0.6,0.4,0\n0.5,0.5,nan\n"),
                       ("i.csv", "p0,p1,label\n0.6,0.4,0\n0.5,0.5,inf\n"),
                       ("j.jsonl", '{"probs": [0.6, 0.4], "label": 0}\n'
                                   '{"probs": [0.5, 0.5], "label": 1e400}\n')]:
        bad_label = tmp_path / name
        bad_label.write_text(text)
        with pytest.raises(ValidationError, match="row 2: label"):
            load_dump(bad_label)


def test_unknown_suffix_needs_explicit_format(tmp_path):
    p = tmp_path / "dump.dat"
    p.write_text("p0,p1,label\n0.6,0.4,0\n")
    with pytest.raises(ValidationError):
        load_dump(p)
    assert load_dump(p, fmt="csv").n == 1


def test_missing_file_is_validation_error(tmp_path):
    with pytest.raises(ValidationError):
        load_dump(tmp_path / "absent.csv")


# ---------------------------------------------------------------- stats


def test_pearson_and_kendall_match_known_values():
    x = [1.0, 2.0, 3.0, 4.0]
    assert pearson(x, [2.0, 4.0, 6.0, 8.0]) == pytest.approx(1.0)
    assert pearson(x, [8.0, 6.0, 4.0, 2.0]) == pytest.approx(-1.0)
    assert kendall_tau(x, [1.0, 3.0, 2.0, 4.0]) == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_degenerate_correlations_are_nan():
    assert math.isnan(pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]))
    assert math.isnan(kendall_tau([2.0, 2.0], [1.0, 2.0]))
    with pytest.raises(ValidationError):
        pearson([1.0], [2.0])
    with pytest.raises(ValidationError):
        pearson([1.0, 2.0], [1.0, 2.0, 3.0])


def test_loglog_slope_recovers_exact_power_law():
    ns = np.array([100, 1000, 10_000, 100_000])
    vals = 3.0 * ns ** (-1.0 / 3.0)
    fit = fit_loglog_slope(ns, vals)
    assert fit.slope == pytest.approx(-1.0 / 3.0, abs=1e-12)
    assert fit.stderr == pytest.approx(0.0, abs=1e-10)
    assert math.exp(fit.intercept) == pytest.approx(3.0, rel=1e-10)


def test_loglog_slope_needs_three_positive_points():
    with pytest.raises(ValidationError):
        fit_loglog_slope([10, 100], [1.0, 0.5])
    with pytest.raises(ValidationError):
        fit_loglog_slope([10, 100, 1000], [1.0, 0.0, 0.5])


# ---------------------------------------------------------------- report


def test_report_round_trip_and_schema(tmp_path):
    rep = make_report(
        "convergence",
        {"spec": {"kind": "binary"}},
        [{"n": 10, "seed": 0, "deviation": 0.1}],
        {"slope": -0.3, "oracle": 0.02},
    )
    jsonschema.validate(rep.to_dict(), REPORT_SCHEMA)
    clone = ExperimentReport.from_dict(json.loads(rep.to_json()))
    assert clone.kind == "convergence"
    assert clone.cells == rep.cells

    p = tmp_path / "rep.json"
    rep.write_json(p)
    jsonschema.validate(json.loads(p.read_text()), REPORT_SCHEMA)


def test_report_cleans_nan_to_null():
    rep = make_report("klgap", {}, [{"pearson": float("nan")}], {"x": float("nan")})
    text = rep.to_json()
    assert "NaN" not in text
    assert json.loads(text)["summary"]["x"] is None


def test_report_cells_csv_takes_union_of_keys(tmp_path):
    rep = make_report("compare", {}, [{"a": 1}, {"b": 2.5}], {})
    p = tmp_path / "cells.csv"
    rep.write_cells_csv(p)
    lines = p.read_text().strip().splitlines()
    assert lines[0] == "a,b"
    assert lines[1] == "1,"
    assert lines[2] == ",2.5"


# ---------------------------------------------------------------- experiments


BIN_SPEC = BinarySpec(
    ConfidenceLaw.uniform(0.55, 0.95), MiscalibrationMap1D.sine(0.15, 2.0), 100, Rng(3)
)
MULTI_SPEC = MulticlassSpec(3, (1.0, 1.0, 1.0), MiscalibrationMapK.mixture(0.2), 100, Rng(4))


GRID = [100, 300, 1000, 3200]


def test_convergence_report_shape_and_replay():
    rep = convergence_experiment(BIN_SPEC, GRID, seeds=20)
    jsonschema.validate(rep.to_dict(), REPORT_SCHEMA)
    assert len(rep.cells) == 80
    assert rep.cells == sorted(rep.cells, key=lambda c: (c["n"], c["seed"]))
    s = rep.summary
    assert set(s["median_deviation"]) == {"100", "300", "1000", "3200"}
    assert math.isfinite(s["slope"]) and math.isfinite(s["slope_stderr"])
    assert s["oracle"] > 0.0

    again = replay(rep.to_dict())
    assert again.to_dict() == rep.to_dict()


def test_convergence_multiclass_uses_k_oracle():
    rep = convergence_experiment(MULTI_SPEC, GRID, seeds=20, oracle_samples=50_000)
    assert rep.summary["oracle_stderr"] > 0.0
    assert len(rep.cells) == 80
    jsonschema.validate(rep.to_dict(), REPORT_SCHEMA)


def test_convergence_threaded_matches_serial():
    serial = convergence_experiment(BIN_SPEC, GRID, seeds=20, workers=1)
    threaded = convergence_experiment(BIN_SPEC, GRID, seeds=20, workers=4)
    assert serial.to_dict() == threaded.to_dict()


def test_convergence_validates_grid():
    with pytest.raises(ValidationError):
        convergence_experiment(BIN_SPEC, [200, 400, 20_000], seeds=20)  # too few points
    with pytest.raises(ValidationError):
        convergence_experiment(BIN_SPEC, [200, 400, 300, 20_000], seeds=20)  # not ascending
    with pytest.raises(ValidationError):
        convergence_experiment(BIN_SPEC, [200, 400, 800, 1000], seeds=20)  # span < 10^1.5
    with pytest.raises(ValidationError):
        convergence_experiment(BIN_SPEC, GRID, seeds=19)  # too few seeds


@pytest.mark.parametrize("bin_rule", [0, -3, 2.7, "fixed"])
def test_convergence_rejects_bad_bin_rule_before_any_cell(bin_rule):
    with pytest.raises(ValidationError, match="bin rule"):
        convergence_experiment(BIN_SPEC, GRID, seeds=20, bin_rule=bin_rule)


@pytest.mark.parametrize("workers", [0, -3, 2.5])
def test_convergence_rejects_bad_workers_before_any_cell(workers, monkeypatch):
    def no_cells(*args, **kwargs):
        raise AssertionError("a cell ran")

    monkeypatch.setattr("calbound.harness.experiments._generate", no_cells)
    with pytest.raises(ValidationError, match="workers"):
        convergence_experiment(BIN_SPEC, GRID, seeds=20, workers=workers)


def test_klgap_report_structure():
    rep = kl_gap_experiment(MULTI_SPEC, alpha_grid=(0.0, 0.5, 1.0), replicates=2, n_re=60)
    jsonschema.validate(rep.to_dict(), REPORT_SCHEMA)
    assert len(rep.cells) == 6
    assert {c["alpha"] for c in rep.cells} == {0.0, 0.5, 1.0}
    s = rep.summary
    assert len(s["per_replicate"]) == 2
    assert 0 <= s["positive_pearson"] <= 2
    for cell in rep.cells:
        assert cell["kl"] >= 0.0 and cell["gap"] >= 0.0

    again = replay(rep.to_dict())
    assert again.to_dict() == rep.to_dict()


def test_compare_methods_on_spec_and_replay():
    rep = compare_methods(MULTI_SPEC, folds=2, n_re=80, n_te=200)
    jsonschema.validate(rep.to_dict(), REPORT_SCHEMA)
    assert len(rep.cells) == 6
    by_method = rep.summary["by_method"]
    assert set(by_method) == {"uncalibrated", "temperature", "pbr"}
    for stats in by_method.values():
        assert stats["ece"]["mean"] >= 0.0
        assert stats["accuracy"]["mean"] <= 1.0
    assert set(rep.summary["best"]) == {"ece", "accuracy", "brier", "cross_entropy"}

    again = replay(rep.to_dict())
    assert again.to_dict() == rep.to_dict()


def test_compare_methods_on_dump_uses_leftover_split(tmp_path, gen):
    data = random_prediction_set(gen, 200, 3)
    p = tmp_path / "dump.csv"
    write_dump(data, p)
    dump = load_dump(p)
    rep = compare_methods(dump, methods=("uncalibrated", "temperature"), folds=2)
    assert rep.config["n_re"] == 40  # n // 5
    assert rep.config["n_te"] == 160
    assert rep.config["source"] == {"dump": str(p)}

    again = replay(rep.to_dict())
    assert again.summary["by_method"] == rep.summary["by_method"]


def test_klgap_on_dump_records_path_and_replays(tmp_path, gen):
    data = random_prediction_set(gen, 120, 3)
    p = tmp_path / "dump.csv"
    write_dump(data, p)
    dump = load_dump(p)
    kwargs = {"alpha_grid": (0.0, 1.0), "replicates": 1, "n_re": 50}
    rep = kl_gap_experiment(dump, **kwargs)
    assert rep.config["source"] == {"dump": str(p)}
    assert replay(rep.to_dict()).to_dict() == rep.to_dict()

    # The same rows passed bare carry no file of origin, even after the run above.
    inline = kl_gap_experiment(dump.data, **kwargs)
    assert inline.config["source"] == {"inline": {"n": 120, "num_classes": 3}}
    assert inline.cells == rep.cells
    with pytest.raises(ValidationError):
        replay(inline.to_dict())


def test_compare_methods_rejects_explicit_zero_split(gen):
    dump = random_prediction_set(gen, 200, 3)
    for source in (MULTI_SPEC, dump):
        for split in ({"n_re": 0}, {"n_te": 0}):
            with pytest.raises(ValidationError, match="too small"):
                compare_methods(source, methods=("uncalibrated",), folds=2, **split)


def test_compare_methods_rejects_unknown_method():
    with pytest.raises(ValidationError):
        compare_methods(MULTI_SPEC, methods=("uncalibrated", "magic"))


def test_experiment_cell_error_carries_cell():
    err = ExperimentCellError({"n": 10, "seed": 3}, RuntimeError("boom"))
    assert err.cell == {"n": 10, "seed": 3}
    assert "boom" in str(err)



def _explode(*args, **kwargs):
    raise RuntimeError("boom")


@pytest.mark.parametrize(
    "target, run, cell",
    [
        ("ece_top_label", lambda: convergence_experiment(BIN_SPEC, GRID, seeds=20),
         {"n": 100, "seed": 0}),
        ("train_pbr",
         lambda: kl_gap_experiment(MULTI_SPEC, alpha_grid=(0.0, 1.0), replicates=1, n_re=60),
         {"replicate": 0, "alpha": 0.0}),
        ("ece_top_label", lambda: compare_methods(MULTI_SPEC, folds=2, n_re=80, n_te=200),
         {"fold": 0, "method": "uncalibrated"}),
    ],
    ids=["convergence", "klgap", "compare"],
)
def test_cell_errors_name_their_cell(monkeypatch, target, run, cell):
    monkeypatch.setattr(f"calbound.harness.experiments.{target}", _explode)
    with pytest.raises(ExperimentCellError) as exc:
        run()
    assert exc.value.cell == cell
    assert isinstance(exc.value.cause, RuntimeError)

def test_replay_rejects_unknown_kind():
    rep = make_report("convergence", {"spec": {"kind": "binary"}}, [], {})
    bad = rep.to_dict()
    bad["kind"] = "mystery"
    with pytest.raises(ValidationError):
        replay(bad)
