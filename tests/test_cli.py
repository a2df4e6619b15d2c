"""End-to-end checks of the command-line front end.

Most cases drive main() in-process for speed; a couple go through
`python -m calbound` to make sure the module entry point and exit codes
survive a real interpreter boundary.
"""

import json
import math
import subprocess
import sys

import jsonschema
import numpy as np
import pytest

from calbound import (
    BinarySpec,
    BoundInputs,
    BoundKind,
    ConfidenceLaw,
    MiscalibrationMap1D,
    MiscalibrationMapK,
    MulticlassSpec,
    PbrConfig,
    Rng,
    ece_full_k,
    ece_top_label,
    evaluate_bound,
    gen_binary,
    optimal_bins_1d,
    temperature_scaling_fit,
    train_pbr,
)
from calbound.harness import cli
from calbound.harness.cli import main
from calbound.harness.experiments import (
    ExperimentCellError,
    compare_methods,
    convergence_experiment,
)
from calbound.harness.io import load_dump, write_dump
from calbound.harness.report import REPORT_SCHEMA
from tests.conftest import random_prediction_set

SPEC = BinarySpec(
    law=ConfidenceLaw.uniform(0.55, 0.95),
    map=MiscalibrationMap1D.sine(0.05, 2.0),
    n=80,
    rng=Rng(3),
)


def spec_file(tmp_path):
    p = tmp_path / "spec.json"
    p.write_text(json.dumps(SPEC.to_dict()))
    return p


def dump_file(tmp_path, gen, n=200, k=3):
    data = random_prediction_set(gen, n, k)
    p = tmp_path / "dump.csv"
    write_dump(data, p)
    return p, data


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "calbound" in capsys.readouterr().out


def test_ece_defaults_match_library(tmp_path, gen, capsys):
    p, data = dump_file(tmp_path, gen)
    assert main(["ece", "--dump", str(p)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["estimator"] == "top_label"
    assert payload["bins"] == optimal_bins_1d(data.n)
    assert payload["ece"] == pytest.approx(ece_top_label(data, payload["bins"]), abs=1e-12)
    assert payload["n"] == data.n
    assert payload["num_classes"] == 3


def test_ece_full_k_fixed_bins(tmp_path, gen, capsys):
    p, data = dump_file(tmp_path, gen)
    assert main(["ece", "--dump", str(p), "--full-k", "--bins", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["estimator"] == "full_k"
    assert payload["bins"] == 2
    assert payload["ece"] == pytest.approx(ece_full_k(data, 2), abs=1e-12)


def test_synthesize_writes_deterministic_dump(tmp_path):
    sp = spec_file(tmp_path)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["synthesize", "--spec", str(sp), "--n", "50", "--out", str(a)]) == 0
    assert main(["synthesize", "--spec", str(sp), "--n", "50", "--out", str(b)]) == 0
    assert a.read_text() == b.read_text()
    dump = load_dump(a)
    assert (dump.data.n, dump.data.num_classes) == (50, 2)


def test_synthesize_logit_mode_round_trips(tmp_path):
    sp = spec_file(tmp_path)
    pa = tmp_path / "p.csv"
    za = tmp_path / "z.csv"
    assert main(["synthesize", "--spec", str(sp), "--out", str(pa)]) == 0
    assert main(["synthesize", "--spec", str(sp), "--mode", "logits", "--out", str(za)]) == 0
    probs = load_dump(pa).data.probs
    via_logits = load_dump(za).data.probs
    assert abs(probs - via_logits).max() < 1e-9


def test_synthesize_without_out_is_a_usage_error(tmp_path, capsys):
    sp = spec_file(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["synthesize", "--spec", str(sp)])
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


_GOOD_SPEC = SPEC.to_dict()
_GOOD_K_SPEC = MulticlassSpec(3, (1.0, 1.0, 1.0), MiscalibrationMapK.identity(), 50, Rng(1)).to_dict()


@pytest.mark.parametrize("text", [
    "{not json",
    json.dumps([_GOOD_SPEC]),
    json.dumps({k: v for k, v in _GOOD_SPEC.items() if k != "law"}),
    json.dumps(_GOOD_SPEC | {"seed": 7}),
    json.dumps(_GOOD_SPEC | {"seed": [7, 0.5]}),
    json.dumps(_GOOD_SPEC | {"seed": [True]}),
    json.dumps(_GOOD_SPEC | {"map": {"kind": "sine", "params": [0.05]}}),
    json.dumps(_GOOD_SPEC | {"map": {"kind": "power", "params": []}}),
    json.dumps(_GOOD_SPEC | {"law": 5}),
    json.dumps(_GOOD_SPEC | {"map": {"kind": "shift", "params": 5}}),
    json.dumps(_GOOD_SPEC | {"n": "abc"}),
    json.dumps(_GOOD_SPEC | {"n": 2.5}),
    json.dumps(_GOOD_SPEC | {"law": _GOOD_SPEC["law"] | {"lo": "x"}}),
    json.dumps(_GOOD_SPEC | {"map": {"kind": "power", "params": ["2"]}}),
    json.dumps(_GOOD_K_SPEC | {"concentration": [1, 1, "x"]}),
    json.dumps(_GOOD_SPEC | {"map": {"kind": "sine", "params": ["0.05", 2.0]}}),
    json.dumps(_GOOD_SPEC | {"map": {"kind": "shift", "params": [math.nan]}}),
    json.dumps(_GOOD_K_SPEC | {"concentration": [1, 1, math.inf]}),
    json.dumps(_GOOD_SPEC | {"map": {"kind": "power", "params": [10**400]}}),
    json.dumps(_GOOD_SPEC | {"n": 10**400}),
    json.dumps(_GOOD_SPEC | {"extra": 1}),
    json.dumps(_GOOD_SPEC | {"law": _GOOD_SPEC["law"] | {"c": 1.0}}),
    json.dumps(_GOOD_SPEC | {"map": {"params": [0.05, 2.0]}}),
], ids=["not-json", "array", "no-law", "scalar-seed", "fractional-seed", "bool-seed",
        "sine-one-param", "power-no-param", "scalar-law", "scalar-params", "string-n",
        "fractional-n", "string-lo", "string-exponent", "string-concentration",
        "string-amplitude", "nan-offset", "inf-concentration", "huge-exponent", "huge-n",
        "unknown-key", "unknown-law-key", "map-without-kind"])
def test_malformed_spec_exits_two(tmp_path, capsys, text):
    sp = tmp_path / "spec.json"
    sp.write_text(text)
    out = tmp_path / "d.csv"
    assert main(["synthesize", "--spec", str(sp), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert not out.exists()


def test_synthesize_refuses_a_bad_suffix_before_drawing(tmp_path, capsys, monkeypatch):
    def draw(*args):
        raise AssertionError("drew a set for an output it cannot write")

    monkeypatch.setattr("calbound.harness.cli._generate", draw)
    out = tmp_path / "x.txt"
    assert main(["synthesize", "--spec", str(spec_file(tmp_path)), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: cannot infer dump format from 'x.txt'\n"
    assert not out.exists()


def test_beta_law_below_shape_one_synthesizes_but_has_no_convergence_oracle(tmp_path, capsys):
    sp = tmp_path / "spec.json"
    law = {"kind": "beta", "lo": 0.5, "hi": 1.0, "a": 0.5, "b": 0.5}
    sp.write_text(json.dumps(_GOOD_SPEC | {"law": law}))
    assert main(["synthesize", "--spec", str(sp), "--out", str(tmp_path / "d.csv")]) == 0
    capsys.readouterr()
    argv = ["experiment", "convergence", "--spec", str(sp), "--n-grid", "50,100,400,2000"]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: true_tce needs beta shapes >= 1, got a=0.5, b=0.5\n"


def test_synthesize_format_follows_suffix(tmp_path, capsys):
    sp = spec_file(tmp_path)
    loaded = []
    for name in ("d.csv", "d.jsonl", "d.ndjson", "d.npz"):
        out = tmp_path / name
        assert main(["synthesize", "--spec", str(sp), "--out", str(out)]) == 0
        loaded.append(load_dump(out))
    assert [d.format for d in loaded] == ["csv", "jsonl", "jsonl", "npz"]
    for dump in loaded[1:]:
        assert np.array_equal(dump.data.probs, loaded[0].data.probs)
        assert np.array_equal(dump.data.labels, loaded[0].data.labels)

    txt = tmp_path / "d.txt"
    capsys.readouterr()
    assert main(["synthesize", "--spec", str(sp), "--out", str(txt)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not txt.exists()

def test_bounds_json_matches_library(capsys):
    rc = main(
        ["bounds", "--kind", "total_bias_test", "--n", "1000", "--bins", "10",
         "--epsilon", "0.05", "--lipschitz", "1.0", "--lam", "100"]
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["bound_kind"] == "total_bias_test"
    assert payload["value"] == pytest.approx(0.4992720407915345, abs=1e-12)


def test_bounds_auto_lambda_not_worse_than_fixed(capsys):
    common = ["bounds", "--kind", "total_bias_test", "--n", "1000", "--bins", "10",
              "--epsilon", "0.05", "--lipschitz", "1.0"]
    assert main(common + ["--lam", "auto"]) == 0
    auto = json.loads(capsys.readouterr().out)
    assert main(common + ["--lam", "100"]) == 0
    fixed = json.loads(capsys.readouterr().out)
    assert auto["value"] <= fixed["value"] + 1e-12
    assert auto["lambda_used"] > 0.0


@pytest.mark.parametrize("kind", list(BoundKind), ids=lambda kind: kind.value)
def test_bounds_accepts_the_kind_it_emits(kind, capsys):
    flags = ["--n", "500", "--bins", "8", "--epsilon", "0.1", "--classes", "3"]
    assert main(["bounds", "--kind", kind.value, *flags]) == 0
    emitted = json.loads(capsys.readouterr().out)
    assert emitted["bound_kind"] == kind.value
    assert main(["bounds", "--kind", emitted["bound_kind"], *flags]) == 0
    assert json.loads(capsys.readouterr().out) == emitted


@pytest.mark.parametrize("flag", ["--lipschitz", "--kl", "--lam", "--empirical"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_bounds_rejects_non_finite_flags(flag, value, capsys):
    argv = ["bounds", "--kind", "joint_acc_tce", "--n", "10", "--bins", "2",
            "--epsilon", "0.05", flag, value]
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "finite" in out.err



def test_bounds_overflow_exits_two(capsys):
    argv = ["bounds", "--kind", "joint_acc_tce", "--n", "10", "--bins", "2",
            "--epsilon", "0.05", "--kl", "1e308"]
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "error:" in out.err and "overflows" in out.err

def test_bounds_out_file_is_json(tmp_path):
    out = tmp_path / "cert.json"
    rc = main(
        ["bounds", "--kind", "bias_recal", "--n", "1", "--bins", "1",
         "--epsilon", repr(math.exp(-1)), "--lam", "1", "--out", str(out)]
    )
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["bound_kind"] == "bias_recal"
    assert payload["value"] == pytest.approx(4.693147180559945, abs=1e-12)


def test_recalibrate_temperature(tmp_path, gen, capsys):
    p, _ = dump_file(tmp_path, gen, n=120)
    assert main(["recalibrate", "--dump", str(p)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["method"] == "temperature"
    assert payload["map"]["family"] == "temperature"
    assert payload["map"]["t"] > 0.0


@pytest.mark.parametrize("method, objective",
                         [("pbr", "brier"), ("pbr_total", "brier_plus_loss")])
def test_recalibrate_pbr_prints_a_direct_fit(tmp_path, gen, capsys, method, objective):
    p, _ = dump_file(tmp_path, gen, n=120)
    argv = ["recalibrate", "--dump", str(p), "--method", method, "--family", "vector_scale",
            "--alpha", "0.7", "--seed", "3"]
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    cfg = PbrConfig(family="vector_scale", alpha=0.7, seed=3, objective=objective)
    result = train_pbr(load_dump(p).data, cfg)
    assert payload["method"] == method
    assert payload["map"] == result.map.to_dict()
    assert payload["posterior"] == result.posterior.to_dict()
    assert payload["kl"] == result.kl
    assert payload["final_objective"] == result.final_objective
    assert payload["steps"] == result.steps
    assert payload["stop_reason"] == result.stop_reason
    assert payload["stop_reason"] in ("converged", "stalled", "line_search_failed", "max_iters")
    assert payload["config"] == cfg.to_dict()


@pytest.mark.parametrize("argv", [
    ["recalibrate", "--method", "pbr", "--alpha", "nan"],
    ["recalibrate", "--method", "pbr", "--alpha", "inf"],
    ["experiment", "klgap", "--alpha-grid=-1,1", "--replicates", "1", "--n-re", "40"],
    ["experiment", "klgap", "--alpha-grid=1,inf", "--replicates", "1", "--n-re", "40"],
    ["experiment", "klgap", "--alpha-grid=nan,1", "--replicates", "1", "--n-re", "40"],
], ids=["recalibrate-nan", "recalibrate-inf", "klgap-negative", "klgap-inf", "klgap-nan"])
def test_bad_alpha_exits_two(tmp_path, gen, capsys, argv):
    p, _ = dump_file(tmp_path, gen)
    assert main(argv + ["--dump", str(p)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: alpha must be finite")


def test_missing_dump_exits_two(capsys):
    assert main(["ece", "--dump", "/no/such/file.csv"]) == 2
    assert "error:" in capsys.readouterr().err


def test_malformed_dump_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n")
    assert main(["ece", "--dump", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_missing_required_flag_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "--kind", "total_bias_test"])
    assert exc.value.code == 2


def test_experiment_compare_on_dump(tmp_path, gen):
    p, _ = dump_file(tmp_path, gen)
    out = tmp_path / "report.json"
    rc = main(
        ["experiment", "compare", "--dump", str(p),
         "--methods", "uncalibrated,temperature", "--folds", "2", "--out", str(out)]
    )
    assert rc == 0
    report = json.loads(out.read_text())
    jsonschema.validate(report, REPORT_SCHEMA)
    assert report["config"]["source"] == {"dump": str(p)}


def test_experiment_compare_repeated_method_exits_two(tmp_path, gen, capsys):
    p, _ = dump_file(tmp_path, gen)
    assert main(["experiment", "compare", "--dump", str(p), "--methods", "pbr,pbr"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: methods repeat: ['pbr', 'pbr']")


def test_an_unknown_name_exits_two_and_lists_the_choices(tmp_path, gen, capsys):
    p, _ = dump_file(tmp_path, gen)
    sp = tmp_path / "sinus.json"
    sp.write_text(json.dumps(_GOOD_SPEC | {"map": {"kind": "sinus", "params": [0.05, 2.0]}}))
    for argv, refusal in (
        (["experiment", "compare", "--dump", str(p), "--methods", "pbr,magic"],
         "method 'magic'; choose from uncalibrated, temperature, pbr, pbr_total"),
        (["synthesize", "--spec", str(sp), "--out", str(tmp_path / "d.csv")],
         "map kind 'sinus'; choose from identity, shift, sine, power"),
    ):
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: unknown {refusal}\n"


def test_experiment_needs_exactly_one_source(tmp_path, gen, capsys):
    p, _ = dump_file(tmp_path, gen)
    sp = spec_file(tmp_path)
    for argv in (["experiment", "klgap"],
                 ["experiment", "klgap", "--spec", str(sp), "--dump", str(p)]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err


def test_csv_report_to_stdout_matches_out(tmp_path, capsys):
    sp = spec_file(tmp_path)
    argv = ["experiment", "klgap", "--spec", str(sp), "--alpha-grid", "0,1",
            "--replicates", "1", "--n-re", "40", "--format", "csv"]
    assert main(argv) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "cells.csv"
    assert main(argv + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert printed.encode() == out.read_bytes()
    assert printed.startswith("replicate,")


@pytest.mark.parametrize("argv", [
    ["ece", "--bins", "0"],
    ["ece", "--full-k", "--bins", "0"],
    ["experiment", "compare", "--n-re", "0"],
    ["experiment", "compare", "--n-te", "0"],
], ids=["ece", "ece-full-k", "compare-n-re", "compare-n-te"])
def test_explicit_zero_is_rejected(tmp_path, gen, capsys, argv):
    p, _ = dump_file(tmp_path, gen)
    assert main(argv + ["--dump", str(p)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "error:" in out.err


def test_klgap_bad_alpha_grid_exits_two(tmp_path, capsys):
    sp = spec_file(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["experiment", "klgap", "--spec", str(sp), "--alpha-grid", "0.1,x"])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "argument --alpha-grid: bad list '0.1,x'" in out.err


@pytest.mark.parametrize("argv, flag", [
    (["experiment", "convergence", "--n-grid", "100,abc,1000,5000"], "--n-grid"),
    (["bounds", "--kind", "total_bias_test", "--n", "10", "--bins", "2", "--epsilon", "0.05",
      "--lam", "abc"], "--lam"),
    (["experiment", "klgap", "--alpha-grid", "0.1,x"], "--alpha-grid"),
    (["bounds", "--kind", "ce_k", "--n", "500", "--bins", "8", "--epsilon", "0.1",
      "--classes", "3"], "--kind"),
], ids=["convergence-n-grid", "bounds-lam", "klgap-alpha-grid", "bounds-kind-alias"])
def test_malformed_flag_values_exit_two(tmp_path, capsys, argv, flag):
    if argv[0] == "experiment":
        argv = argv + ["--spec", str(spec_file(tmp_path))]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert f"argument {flag}:" in out.err


# Flags the input file already decides (the dump's suffix and header, the spec's
# seed), a prefix of a flag, which is no longer read as the flag, and the --format
# of the commands whose one output is JSON.
@pytest.mark.parametrize("command, flag", [
    ("ece", ["--full"]),
    ("ece", ["--dump-format", "csv"]),
    ("ece", ["--mode", "probs"]),
    ("synthesize", ["--reseed"]),
    ("synthesize", ["--seed", "1"]),
    ("convergence", ["--reseed"]),
    ("convergence", ["--seed", "1"]),
    ("klgap", ["--reseed"]),
    ("compare", ["--reseed"]),
    ("ece", ["--format", "json"]),
    ("bounds", ["--format", "json"]),
    ("recalibrate", ["--format", "json"]),
], ids=lambda v: v if isinstance(v, str) else v[0])
def test_removed_flags_exit_two(tmp_path, gen, capsys, command, flag):
    p, _ = dump_file(tmp_path, gen)
    sp = str(spec_file(tmp_path))
    argv = {
        "ece": ["ece", "--dump", str(p)],
        "bounds": ["bounds", "--kind", "total_bias_test", "--n", "10", "--bins", "2",
                   "--epsilon", "0.05"],
        "recalibrate": ["recalibrate", "--dump", str(p)],
        "synthesize": ["synthesize", "--spec", sp, "--out", str(tmp_path / "out.csv")],
        "convergence": ["experiment", "convergence", "--spec", sp, "--n-grid", "50,100,400,2000"],
        "klgap": ["experiment", "klgap", "--spec", sp, "--alpha-grid", "0,1",
                  "--replicates", "1", "--n-re", "40"],
        "compare": ["experiment", "compare", "--spec", sp, "--methods", "uncalibrated",
                    "--folds", "2", "--n-re", "20", "--n-te", "20"],
    }[command]
    assert main(argv) == 0  # the command runs without the flag
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(argv + flag)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


def test_convergence_explicit_zero_bins_exits_two(tmp_path, capsys):
    sp = spec_file(tmp_path)
    argv = ["experiment", "convergence", "--spec", str(sp), "--n-grid", "50,100,400,2000",
            "--bins", "0"]
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "error:" in out.err


def test_convergence_zero_workers_exits_two(tmp_path, capsys):
    sp = spec_file(tmp_path)
    argv = ["experiment", "convergence", "--spec", str(sp), "--n-grid", "50,100,400,2000",
            "--workers", "0"]
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "error:" in out.err


def test_non_finite_dump_label_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("p0,p1,label\n0.6,0.4,0\n0.5,0.5,nan\n")
    assert main(["ece", "--dump", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "row 2" in err


@pytest.mark.parametrize("line", ["5", '{"probs": 0.5, "label": 0}', '{"probs": [true, false], "label": 1}'])
def test_malformed_jsonl_row_exits_two(tmp_path, capsys, line):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"probs": [0.6, 0.4], "label": 0}\n' + line + "\n")
    assert main(["ece", "--dump", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "row 2" in err


@pytest.mark.parametrize("name, body", [
    ("bad.csv", b"p0,p1,label\n0.6,0.4,0\n0.5,0.5\xff,1\n"),
    ("bad.jsonl", b'{"probs": [0.6, 0.4], "label": 0}\n{"probs": [0.5, 0.5], "label": 1}\xff'),
], ids=["csv", "jsonl"])
def test_undecodable_dump_exits_two(tmp_path, capsys, name, body):
    # \xff starts no UTF-8 sequence; dumps are read in the locale encoding, assumed UTF-8.
    bad = tmp_path / name
    bad.write_bytes(body)
    assert main(["ece", "--dump", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(bad) in err and "text" in err


def test_malformed_npz_dump_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.npz"
    np.savez(bad, probs=np.array([[0.6, 0.4]]))
    assert main(["ece", "--dump", str(bad)]) == 2
    assert "'labels'" in capsys.readouterr().err


def test_cell_failure_exits_three(tmp_path, gen, capsys, monkeypatch):
    p, _ = dump_file(tmp_path, gen)

    def explode(*args, **kwargs):
        raise ExperimentCellError({"fold": 0}, RuntimeError("boom"))

    monkeypatch.setattr("calbound.harness.cli.compare_methods", explode)
    assert main(["experiment", "compare", "--dump", str(p)]) == 3
    assert "experiment cell failed" in capsys.readouterr().err


def test_module_entry_point(tmp_path):
    rc = subprocess.run(
        [sys.executable, "-m", "calbound", "bounds", "--kind", "ce_k_bias",
         "--n", "1000", "--bins", "10", "--epsilon", "0.05",
         "--lipschitz", "1.0", "--classes", "3", "--lam", "auto"],
        capture_output=True, text=True,
    )
    assert rc.returncode == 0, rc.stderr
    payload = json.loads(rc.stdout)
    assert payload["bound_kind"] == "ce_k_bias"

    bad = subprocess.run(
        [sys.executable, "-m", "calbound", "ece", "--dump", str(tmp_path / "ghost.csv")],
        capture_output=True, text=True,
    )
    assert bad.returncode == 2
    assert "error:" in bad.stderr


# Each optional flag that feeds a library parameter is passed only when given, so
# a command without it prints what the library call without that argument returns.
_BOUND_FLAGS = ["--n", "500", "--bins", "8", "--epsilon", "0.1", "--classes", "3"]


@pytest.mark.parametrize("kind", list(BoundKind), ids=lambda kind: kind.value)
def test_bounds_omitted_flags_take_the_library_defaults(kind, capsys):
    inputs = {"n": 500, "num_bins": 8, "epsilon": 0.1, "num_classes": 3}
    assert main(["bounds", "--kind", kind.value, *_BOUND_FLAGS]) == 0
    expected = evaluate_bound(kind, BoundInputs(**inputs)).to_dict()
    assert json.loads(capsys.readouterr().out) == json.loads(json.dumps(expected))

    kl = 0.0 if kind is BoundKind.TotalBiasTest else 0.3
    empirical = 0.2 if kind is BoundKind.JointAccTce else 0.0
    given = ["--lipschitz", "0.5", "--lam", "7", "--kl", str(kl), "--empirical", str(empirical)]
    assert main(["bounds", "--kind", kind.value, *_BOUND_FLAGS, *given]) == 0
    expected = evaluate_bound(kind, BoundInputs(**inputs, lipschitz=0.5, lam=7.0, kl=kl),
                              empirical_term=empirical).to_dict()
    assert json.loads(capsys.readouterr().out) == json.loads(json.dumps(expected))


def test_recalibrate_omitted_flags_take_the_library_defaults(tmp_path, gen, capsys):
    p, _ = dump_file(tmp_path, gen, n=120)
    data = load_dump(p).data
    assert main(["recalibrate", "--dump", str(p)]) == 0
    assert json.loads(capsys.readouterr().out)["map"] == temperature_scaling_fit(data).to_dict()

    assert main(["recalibrate", "--dump", str(p), "--method", "pbr"]) == 0
    payload = json.loads(capsys.readouterr().out)
    result = train_pbr(data, PbrConfig())  # seed 0, the first fit of the one-alpha grid
    assert payload["config"] == PbrConfig().to_dict()
    assert payload["map"] == result.map.to_dict()
    assert payload["posterior"] == result.posterior.to_dict()


def test_synthesize_omitted_flags_take_the_library_defaults(tmp_path):
    out, expected = tmp_path / "cli.csv", tmp_path / "library.csv"
    assert main(["synthesize", "--spec", str(spec_file(tmp_path)), "--out", str(out)]) == 0
    write_dump(gen_binary(SPEC), expected)
    assert out.read_bytes() == expected.read_bytes()


def test_convergence_and_compare_omitted_flags_take_the_library_defaults(tmp_path, capsys):
    sp = str(spec_file(tmp_path))
    grid = [50, 100, 400, 2000]
    assert main(["experiment", "convergence", "--spec", sp, "--n-grid", "50,100,400,2000"]) == 0
    assert capsys.readouterr().out == convergence_experiment(SPEC, grid, 20).to_json() + "\n"

    assert main(["experiment", "compare", "--spec", sp]) == 0
    assert capsys.readouterr().out == compare_methods(SPEC, cfg=PbrConfig()).to_json() + "\n"


def test_klgap_omitted_flags_take_the_library_defaults(tmp_path, capsys, monkeypatch):
    # The default grid fits 80 maps, so the report is checked against the call the CLI
    # made, after checking that the call passed no optional argument but the config.
    real = cli.kl_gap_experiment
    calls = []

    def spy(*args, **kwargs):
        report = real(*args, **kwargs)
        calls.append((args, kwargs, report))
        return report

    monkeypatch.setattr(cli, "kl_gap_experiment", spy)
    assert main(["experiment", "klgap", "--spec", str(spec_file(tmp_path))]) == 0
    [(args, kwargs, report)] = calls
    assert args == (SPEC,) and kwargs == {"cfg": PbrConfig()}
    assert capsys.readouterr().out == report.to_json() + "\n"
