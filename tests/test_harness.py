import hashlib
import importlib.resources
import json
import math
import re
import tracemalloc
import warnings
import zipfile
from functools import partial
from unittest import mock

import numpy as np
import pytest
import jsonschema
from hypothesis import example, given, settings
from hypothesis import strategies as st

from calbound import (
    BinarySpec,
    ConfidenceLaw,
    MiscalibrationMap1D,
    MiscalibrationMapK,
    MulticlassSpec,
    PbrConfig,
    PredictionSet,
    Rng,
    ValidationError,
    ece_full_k,
    ece_gap,
    ece_top_label,
    gen_multiclass,
    optimal_bins_1d,
    optimal_bins_per_dim,
    recalibrate_set,
    train_pbr,
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
from calbound.harness import io as dio
import calbound.bounds as bounds
from calbound.harness.experiments import PBR_OBJECTIVES, _generate, _split_source, fit_method
from calbound.core import log_probs, softmax
from calbound.harness.report import REPORT_SCHEMA
from tests.conftest import random_prediction_set


# ---------------------------------------------------------------- io


def test_csv_probs_round_trip(tmp_path, gen):
    data = random_prediction_set(gen, 25, 3)
    p = tmp_path / "dump.csv"
    write_dump(data, p)
    loaded = load_dump(p)
    assert loaded.mode == "probs" and loaded.format == "csv"
    assert loaded.data.n == 25 and loaded.data.num_classes == 3
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

    # lines that are not objects, values that are not a list, JSON booleans
    for name, line in [("k.jsonl", "5"), ("l.jsonl", "null"), ("m.jsonl", '"probs"'),
                       ("n.jsonl", '{"probs": 0.5, "label": 0}'),
                       ("o.jsonl", '{"probs": [true, false], "label": 1}'),
                       ("p.jsonl", '{"probs": [0.5, 0.5], "label": true}')]:
        bad = tmp_path / name
        bad.write_text('{"probs": [0.6, 0.4], "label": 0}\n' + line + "\n")
        with pytest.raises(ValidationError, match="row 2"):
            load_dump(bad)


def test_load_rejects_non_finite_cells(tmp_path):
    nan_cell = tmp_path / "f.csv"
    nan_cell.write_text("p0,p1,label\n0.6,0.4,0\n0.5,nan,1\n")
    with pytest.raises(ValidationError, match="row 2: non-finite"):
        load_dump(nan_cell)

    # a bad entry is reported before a malformed line after it
    first = tmp_path / "f.jsonl"
    first.write_text('{"probs": [NaN, 1.0], "label": 0}\n5\n')
    with pytest.raises(ValidationError, match="row 1: non-finite"):
        load_dump(first)

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


def test_csv_field_past_the_csv_module_limit(tmp_path):
    # 200,003 characters, past csv.field_size_limit() (131,072); numpy reads it, and a
    # file numpy refuses goes to csv.reader, whose error must come back as a row number.
    wide = "0.5" + "0" * 200_000
    p = tmp_path / "wide.csv"
    p.write_text(f"p0,p1,label\n{wide},0.5,0\n0.5,0.5,1\n")
    assert load_dump(p).data.n == 2
    p.write_text(f"p0,p1,label\n{wide},0.5,0\n0.5,nan,1\n")
    with pytest.raises(ValidationError, match="row 1: field larger than field limit"):
        load_dump(p)
    p.write_text(f"p0,{wide},label\n0.5,0.5,0\n")
    with pytest.raises(ValidationError, match="header"):
        load_dump(p)


def test_rows_without_entries_are_validation_errors(tmp_path):
    for key in ("probs", "logits"):
        p = tmp_path / f"{key}.jsonl"
        p.write_text(f'{{"{key}": [], "label": 0}}\n')
        with pytest.raises(ValidationError, match="need at least 2 classes, got 0"):
            load_dump(p)


def test_unknown_suffix_is_refused(tmp_path):
    p = tmp_path / "dump.dat"
    p.write_text("p0,p1,label\n0.6,0.4,0\n")
    with pytest.raises(ValidationError, match="cannot infer dump format"):
        load_dump(p)


def test_missing_file_is_validation_error(tmp_path):
    with pytest.raises(ValidationError):
        load_dump(tmp_path / "absent.csv")


@pytest.mark.parametrize("path, message", [
    ("", r"^dump path is empty$"),
    (5, r"^dump path must be a str or path-like, got 5$"),
    (None, r"^dump path must be a str or path-like, got None$"),
    (b"d.csv", r"^dump path must be a str or path-like, got b'd.csv'$"),
])
def test_a_dump_path_that_names_no_file_is_refused(path, message):
    with pytest.raises(ValidationError, match=message):
        load_dump(path)


# A fixed 3x3 set and the exact bytes each text format holds for it.
GOLDEN_SET = ([[0.5, 0.25, 0.25], [0.1, 0.2, 0.7], [0.6, 0.3, 0.1]], [0, 2, 1])
GOLDEN_BYTES = {
    ("csv", "probs"): b"p0,p1,p2,label\r\n0.5,0.25,0.25,0\r\n"
                      b"0.10000000000000001,0.20000000000000001,0.69999999999999996,2\r\n"
                      b"0.59999999999999998,0.29999999999999999,0.10000000000000001,1\r\n",
    ("csv", "logits"): b"z0,z1,z2,label\r\n"
                       b"-0.69314718055994529,-1.3862943611198906,-1.3862943611198906,0\r\n"
                       b"-2.3025850929940455,-1.6094379124341003,-0.35667494393873245,2\r\n"
                       b"-0.51082562376599072,-1.2039728043259361,-2.3025850929940455,1\r\n",
    ("jsonl", "probs"): b'{"probs": [0.5, 0.25, 0.25], "label": 0}\n'
                        b'{"probs": [0.1, 0.2, 0.7], "label": 2}\n'
                        b'{"probs": [0.6, 0.3, 0.1], "label": 1}\n',
    ("jsonl", "logits"): b'{"logits": [-0.6931471805599453, -1.3862943611198906, '
                         b'-1.3862943611198906], "label": 0}\n'
                         b'{"logits": [-2.3025850929940455, -1.6094379124341003, '
                         b'-0.35667494393873245], "label": 2}\n'
                         b'{"logits": [-0.5108256237659907, -1.2039728043259361, '
                         b'-2.3025850929940455], "label": 1}\n',
}


@pytest.mark.parametrize("fmt,mode", list(GOLDEN_BYTES))
def test_write_dump_golden_bytes(tmp_path, fmt, mode):
    p = tmp_path / f"golden.{fmt}"
    write_dump(PredictionSet.from_probs(*GOLDEN_SET), p, fmt=fmt, mode=mode)
    assert p.read_bytes() == GOLDEN_BYTES[fmt, mode]


def _outcome(path):
    """A loaded dump as (mode, probability bytes, label bytes), or its error message."""
    try:
        dump = load_dump(path)
    except ValidationError as err:
        return str(err)
    return dump.mode, dump.data.probs.tobytes(), dump.data.labels.tobytes()


def _row_wise_outcome(path):
    # with the vectorized check refusing everything, every file takes the row-wise parser
    with mock.patch.object(dio, "_checked", lambda values, labels: None):
        return _outcome(path)


# Valid rows by class count, then what a perturbation may put in a cell, a
# label, or a line of its own.
_CSV_ROWS = {2: ["0.5,0.5,1", "1,0,0", "0.25,0.75,1"],
             3: ["0.25,0.25,0.5,2", "1,0,0,0", "0.5,0.25,0.25,1"]}
_CSV_CELLS = ['"0.5"', " 0.5 ", "0.5\t", "1e-400", "nan", "inf", "1e400", "1_000", "０.5",
              "\x1c0.5", "0.5\x1f", "", "oops", '"0,5"']
_CSV_LABELS = ["1.0", '"1"', "-0", "0.5", "nan", "inf", "1e400", "9007199254740992", "1e20"]
_CSV_LINES = ["", "  ", "\t", '""', ","]


@st.composite
def _csv_texts(draw):
    """A valid CSV text with up to three cells, labels or lines made odd."""
    k = draw(st.integers(2, 3))
    prefix = draw(st.sampled_from(["p", "z"]))
    rows = [r.split(",") for r in
            draw(st.lists(st.sampled_from(_CSV_ROWS[k]), min_size=1, max_size=5))]
    labels = [r.pop() for r in rows]
    extra = {}  # row index -> a line of its own before it
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(rows) - 1))
        change = draw(st.sampled_from(["cell", "label", "line", "drop", "add"]))
        if change == "cell" and rows[i]:
            rows[i][draw(st.integers(0, len(rows[i]) - 1))] = draw(st.sampled_from(_CSV_CELLS))
        elif change == "label":
            labels[i] = draw(st.sampled_from(_CSV_LABELS))
        elif change == "line":
            extra[i] = draw(st.sampled_from(_CSV_LINES))
        elif change == "drop":
            rows[i] = rows[i][:-1]
        else:
            rows[i] = rows[i] + [""]
    out = [",".join(f"{prefix}{i}" for i in range(k)) + ",label"]
    for i, (row, label) in enumerate(zip(rows, labels)):
        if i in extra:
            out.append(extra[i])
        out.append(",".join(row + [label]))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(out) + newline


@settings(max_examples=300, deadline=None)
@given(_csv_texts())
# the cases where numpy alone would accept what the row-wise parser refuses
@example("p0,p1,label\n\x1c0.5,0.5,1\n")
@example("p0,p1,label\n0.5,0.5\x1f,1\n")
@example("p0,p1,label\n0.5,0.5,0.5\n")
def test_fast_path_agrees_with_row_wise_parser(tmp_path_factory, text):
    p = tmp_path_factory.getbasetemp() / "agree.csv"
    p.write_bytes(text.encode())
    assert _outcome(p) == _row_wise_outcome(p)


def test_valid_dumps_skip_the_row_wise_parser(tmp_path, gen, monkeypatch):
    data = random_prediction_set(gen, 40, 4)
    paths = []
    for mode in ("probs", "logits"):
        paths.append(tmp_path / f"{mode}.csv")
        write_dump(data, paths[-1], mode=mode)
    expected = [load_dump(p).data.probs for p in paths]

    def refuse(*args):
        raise AssertionError("row-wise parser ran on a valid dump")

    monkeypatch.setattr(dio, "_parse_values", refuse)
    monkeypatch.setattr(dio, "_parse_label", refuse)
    for p, probs in zip(paths, expected):
        assert load_dump(p).data.probs.tobytes() == probs.tobytes()


@pytest.fixture(scope="module")
def wide_set():
    # the benchmark's dump shape
    spec = MulticlassSpec(100, (1.0,) * 100, MiscalibrationMapK.temperature(2.0), 2000, Rng(13))
    return gen_multiclass(spec)


def _traced_peak(call, *args) -> int:
    """The tracemalloc peak of one call, in bytes."""
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_csv_load_does_not_hold_every_field(tmp_path, wide_set):
    # numpy's (n, K + 1) table, then the set's copy of its first K columns; a
    # reader holding each field as a str peaks at about 5x
    p = tmp_path / "wide.csv"
    write_dump(wide_set, p)
    assert _traced_peak(load_dump, p) <= 2.6 * wide_set.probs.nbytes


@pytest.mark.parametrize("mode", ["probs", "logits"])
@pytest.mark.parametrize("fmt", ["jsonl", "npz"])
def test_jsonl_and_npz_loads_hold_the_data_once(tmp_path, wide_set, fmt, mode):
    # the set's own array plus row-sized temporaries and a bool finiteness mask
    p = tmp_path / f"wide.{fmt}"
    write_dump(wide_set, p, fmt=fmt, mode=mode)
    assert _traced_peak(load_dump, p) <= 1.6 * wide_set.probs.nbytes


@pytest.mark.parametrize("fmt", ["csv", "jsonl", "npz"])
def test_logits_write_holds_one_copy_of_the_data(tmp_path, wide_set, fmt):
    # the log-probabilities, written row by row or, for npz, from their own buffer
    peak = _traced_peak(write_dump, wide_set, tmp_path / f"wide.{fmt}", fmt, "logits")
    assert peak <= 1.2 * wide_set.probs.nbytes


def test_npz_probs_write_copies_nothing(tmp_path, wide_set):
    # np.savez copied each member through tobytes, a peak of 1.0x here
    peak = _traced_peak(write_dump, wide_set, tmp_path / "wide.npz", "npz", "probs")
    assert peak <= 0.1 * wide_set.probs.nbytes


@pytest.mark.parametrize("mode", ["probs", "logits"])
def test_npz_members_are_the_bytes_np_savez_writes(tmp_path, gen, mode):
    data = random_prediction_set(gen, 70, 4)
    values = data.probs if mode == "probs" else log_probs(data.probs)
    write_dump(data, tmp_path / "ours.npz", fmt="npz", mode=mode)
    np.savez(tmp_path / "numpy.npz", **{mode: values, "labels": data.labels})
    with np.load(tmp_path / "ours.npz") as archive:
        assert archive.files == [mode, "labels"]
        assert np.array_equal(archive[mode], values)
        assert np.array_equal(archive["labels"], data.labels)
    with zipfile.ZipFile(tmp_path / "ours.npz") as ours, \
            zipfile.ZipFile(tmp_path / "numpy.npz") as theirs:
        assert ours.namelist() == theirs.namelist()
        for name in theirs.namelist():
            assert ours.read(name) == theirs.read(name)


@pytest.mark.parametrize("mode", ["probs", "logits"])
@pytest.mark.parametrize("fmt", ["csv", "jsonl", "npz"])
def test_loaded_probs_are_a_c_contiguous_read_only_array(tmp_path, gen, fmt, mode):
    data = random_prediction_set(gen, 40, 5)
    p = tmp_path / f"d.{fmt}"
    write_dump(data, p, fmt=fmt, mode=mode)
    loaded = load_dump(p).data
    assert loaded.probs.flags.c_contiguous and not loaded.probs.flags.writeable
    # every format holds every bit, so the load is the checked set of the written values
    values = data.probs if mode == "probs" else softmax(log_probs(data.probs))
    assert loaded.probs.tobytes() == PredictionSet.from_probs(values, data.labels).probs.tobytes()
    assert loaded.labels.tobytes() == data.labels.tobytes()


def test_fortran_order_npz_loads_as_c_contiguous(tmp_path, gen):
    logits = np.asfortranarray(gen.normal(size=(30, 4)))
    p = tmp_path / "f.npz"
    np.savez(p, logits=logits, labels=gen.integers(0, 4, 30))
    probs = load_dump(p).data.probs
    assert probs.flags.c_contiguous
    assert probs.tobytes() == softmax(np.ascontiguousarray(logits)).tobytes()


def test_npz_round_trip_is_bit_exact(tmp_path, gen):
    data = random_prediction_set(gen, 50, 6)
    write_dump(data, tmp_path / "p.npz", fmt="npz")
    loaded = load_dump(tmp_path / "p.npz")
    assert (loaded.format, loaded.mode) == ("npz", "probs")
    assert loaded.data.probs.tobytes() == data.probs.tobytes()
    assert loaded.data.labels.tobytes() == data.labels.tobytes()
    # logits hold every bit in both formats, so both loads give the same set
    write_dump(data, tmp_path / "z.npz", fmt="npz", mode="logits")
    write_dump(data, tmp_path / "z.csv", mode="logits")
    from_npz, from_csv = load_dump(tmp_path / "z.npz"), load_dump(tmp_path / "z.csv")
    assert from_npz.mode == "logits"
    assert from_npz.data.probs.tobytes() == from_csv.data.probs.tobytes()
    # an explicit format writes to the path as given
    write_dump(data, tmp_path / "p.dat", fmt="npz")
    with np.load(tmp_path / "p.dat") as archive:
        assert archive["probs"].tobytes() == data.probs.tobytes()
        assert archive["labels"].tobytes() == data.labels.tobytes()


@pytest.mark.parametrize("name, fmt", [("d.csv", "csv"), ("d.NDJSON", "jsonl"), ("d.npz", "npz")])
def test_write_dump_reads_the_format_from_the_suffix(tmp_path, gen, name, fmt):
    data = random_prediction_set(gen, 20, 3)
    write_dump(data, tmp_path / name)
    loaded = load_dump(tmp_path / name)
    assert loaded.format == fmt
    assert loaded.data.probs.tobytes() == data.probs.tobytes()
    with pytest.raises(ValidationError, match=r"cannot infer dump format from 'd.txt'"):
        write_dump(data, tmp_path / "d.txt")
    assert not (tmp_path / "d.txt").exists()


def test_npz_errors_are_validation_errors(tmp_path):
    probs = np.array([[0.6, 0.4], [0.5, 0.5]])
    labels = np.array([0, 1])
    cases = {
        "missing_labels": {"probs": probs},
        "no_values": {"labels": labels},
        "both_values": {"probs": probs, "logits": np.log(probs), "labels": labels},
        "object_values": {"probs": probs.astype(object), "labels": labels},
        "bool_labels": {"probs": probs, "labels": labels.astype(bool)},
        "non_finite": {"logits": np.array([[np.inf, 0.0], [0.0, 0.0]]), "labels": labels},
        "fractional_labels": {"probs": probs, "labels": np.array([0.5, 1.0])},
    }
    for name, arrays in cases.items():
        p = tmp_path / f"{name}.npz"
        np.savez(p, **arrays)
        with pytest.raises(ValidationError):
            load_dump(p)
    text = tmp_path / "text.npz"
    text.write_text("p0,p1,label\n0.6,0.4,0\n")
    single = tmp_path / "single.npz"
    with open(single, "wb") as handle:
        np.save(handle, probs)
    empty = tmp_path / "empty.npz"
    empty.touch()
    for p in (text, single, empty):
        with pytest.raises(ValidationError, match="not an npz archive"):
            load_dump(p)
    # a member whose stored bytes were damaged fails its CRC when read
    damaged = tmp_path / "damaged.npz"
    np.savez(damaged, probs=probs, labels=labels)
    raw = bytearray(damaged.read_bytes())
    raw[raw.index(probs.tobytes()) + 3] ^= 0xFF
    damaged.write_bytes(bytes(raw))
    with pytest.raises(ValidationError, match="damaged.npz"):
        load_dump(damaged)


@pytest.mark.parametrize("member", ["probs", "labels"])
def test_npz_member_that_needs_pickle_is_named(tmp_path, member):
    arrays = {"probs": np.array([[0.6, 0.4], [0.5, 0.5]]), "labels": np.array([0, 1])}
    arrays[member] = arrays[member].astype(object)
    p = tmp_path / "object.npz"
    np.savez(p, **arrays)
    with pytest.raises(ValidationError,
                       match=rf"^{p}: '{member}': Object arrays cannot be loaded when allow_pickle"):
        load_dump(p)


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


def _correlation_inputs(count: int):
    """Seeded pairs: random, heavily tied, two points, constant, near constant, ±inf and NaN."""
    gen = np.random.default_rng(16)
    for i in range(count):
        n = int(gen.integers(2, 40))
        x, y = gen.normal(size=(2, n))
        kind = i % 7
        if kind == 1:
            x, y = gen.integers(0, 3, size=(2, n)).astype(float)
        elif kind == 2:
            x, y = gen.normal(size=(2, 2))
        elif kind == 3:
            (x, y)[i % 2][:] = gen.normal()
        elif kind == 4:  # |x - mean| far below |mean|
            x = 1e6 + 1e-9 * x
        elif kind == 5:
            x[gen.integers(n)] = gen.choice([-math.inf, math.inf])
            y[gen.integers(n)] = gen.choice([-math.inf, math.inf, 0.0])
        elif kind == 6:
            (x, y)[i % 2][gen.integers(n)] = math.nan
        yield x, y
    for ties in (3, 40, 10**9):  # n = 1000, with heavy to no ties
        x, y = gen.integers(0, ties, size=(2, 1000)).astype(float)
        yield x, y
        yield x, -y
        y[gen.integers(1000, size=5)] = math.inf
        yield x, y


@pytest.mark.parametrize("ours, theirs", [(pearson, "pearsonr"), (kendall_tau, "kendalltau")])
def test_correlations_match_scipy_bit_for_bit(ours, theirs):
    sps = pytest.importorskip("scipy.stats")
    mismatches = []
    for x, y in _correlation_inputs(2000):
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("ignore")  # scipy warns on constant and infinite input
            want = float(getattr(sps, theirs)(x, y).statistic)
        got = ours(x, y)
        if not (got == want or math.isnan(got) and math.isnan(want)):
            mismatches.append((x.tolist(), y.tolist(), got, want))
    assert mismatches == []


def test_kendall_tau_orders_infinities_and_needs_no_pair_array():
    assert kendall_tau([-math.inf, 0.0, math.inf], [1.0, 2.0, 3.0]) == 1.0
    tied = kendall_tau([math.inf, math.inf, 0.0], [1.0, 2.0, 3.0])
    assert tied == pytest.approx(-math.sqrt(2 / 3))
    x = np.random.default_rng(0).normal(size=(2, 3000))
    tracemalloc.start()
    try:
        kendall_tau(*x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3000**2  # an n x n array of pairs would take 9 MB even as bytes


def test_klgap_report_is_pinned():
    # The digest of this report as scipy's pearsonr and kendalltau computed its summary:
    # a change to the fits or to either statistic moves it.
    rep = kl_gap_experiment(MULTI_SPEC, alpha_grid=(0.0, 0.5, 1.0), replicates=2, n_re=60)
    digest = hashlib.sha256(rep.to_json().encode()).hexdigest()
    assert digest == "df476aec251f9722f37c868ddc1dd042ddd8a37463317c8880cd44745718ffb0"


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


def test_report_round_trip_and_schema():
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
    jsonschema.validate(json.loads(rep.to_json()), REPORT_SCHEMA)


def test_report_cleans_nan_to_null():
    rep = make_report("klgap", {}, [{"pearson": float("nan")}], {"x": float("nan")})
    text = rep.to_json()
    assert "NaN" not in text
    assert json.loads(text)["summary"]["x"] is None


def test_report_cells_csv_takes_union_of_keys():
    rep = make_report("compare", {}, [{"a": 1}, {"b": 2.5}], {})
    lines = rep.cells_csv().strip().splitlines()
    assert lines[0] == "a,b"
    assert lines[1] == "1,"
    assert lines[2] == ",2.5"


# ---------------------------------------------------------------- experiments


BIN_SPEC = BinarySpec(
    ConfidenceLaw.uniform(0.55, 0.95), MiscalibrationMap1D.sine(0.15, 2.0), 100, Rng(3)
)
EXAMPLE_DUMP = importlib.resources.files("calbound") / "data" / "example_logits.csv"
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
    for spec in (BIN_SPEC, MULTI_SPEC):
        serial = convergence_experiment(spec, GRID, seeds=20, workers=1, oracle_samples=1000)
        threaded = convergence_experiment(spec, GRID, seeds=20, workers=4, oracle_samples=1000)
        assert serial.to_dict() == threaded.to_dict()


def _per_cell_convergence(spec, n_grid, seeds, bin_rule, oracle):
    """The convergence rows one (n, seed) cell at a time, from _generate and the one-set estimators."""
    binary = isinstance(spec, BinarySpec)
    rows = []
    for i_n, n in enumerate(n_grid):
        if bin_rule != "optimal":
            bins = bin_rule
        else:
            bins = optimal_bins_1d(n) if binary else optimal_bins_per_dim(n, spec.num_classes)
        for seed in range(seeds):
            data = _generate(spec, n, spec.rng.stream(i_n).stream(seed))
            est = ece_top_label(data, bins) if binary else ece_full_k(data, bins)
            rows.append({"n": n, "seed": seed, "bins": bins, "estimate": est,
                         "deviation": abs(est - oracle)})
    return rows


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("spec, bin_rule", [
    (BIN_SPEC, "optimal"),
    (MULTI_SPEC, "optimal"),
    (MULTI_SPEC, 15),  # 15^3 cells outnumber the rows of every n: each set's keys are ranked
], ids=["binary", "k3-optimal", "k3-sparse-keys"])
def test_chunked_convergence_matches_the_per_cell_reference(monkeypatch, spec, bin_rule, workers):
    # Chunks of 1000 rows: 10, 10 and 3 seeds at n = 100; 3, 3, ... and 2 at n = 300; then one
    # seed a chunk at n = 1000, and at n = 1200, a set larger than a chunk.
    monkeypatch.setattr(bounds, "COVERAGE_CHUNK_ROWS", 1000)
    n_grid, seeds = [100, 300, 1000, 1200, 3200], 23
    rep = convergence_experiment(spec, n_grid, seeds=seeds, bin_rule=bin_rule, workers=workers,
                                 oracle_samples=1000)
    expect = _per_cell_convergence(spec, n_grid, seeds, bin_rule, rep.summary["oracle"])
    assert rep.cells == expect
    assert [type(c["estimate"]) for c in rep.cells] == [float] * len(expect)
    medians = {str(n): float(np.median([c["deviation"] for c in expect if c["n"] == n]))
               for n in n_grid}
    assert rep.summary["median_deviation"] == medians


def test_convergence_validates_grid():
    with pytest.raises(ValidationError):
        convergence_experiment(BIN_SPEC, [200, 400, 20_000], seeds=20)  # too few points
    with pytest.raises(ValidationError):
        convergence_experiment(BIN_SPEC, [200, 400, 300, 20_000], seeds=20)  # not ascending
    with pytest.raises(ValidationError):
        convergence_experiment(BIN_SPEC, [200, 400, 800, 1000], seeds=20)  # span < 10^1.5
    with pytest.raises(ValidationError):
        convergence_experiment(BIN_SPEC, GRID, seeds=19)  # too few seeds
    for grid in (5, None, np.array(GRID)[None]):
        with pytest.raises(ValidationError, match="^n_grid must be a list, tuple or 1-D array"):
            convergence_experiment(BIN_SPEC, grid, seeds=20)


@pytest.mark.parametrize("spec", [BIN_SPEC, MULTI_SPEC], ids=["binary", "multiclass"])
def test_convergence_fixed_bin_rule_is_used_in_every_cell(spec):
    rep = convergence_experiment(spec, GRID, seeds=20, bin_rule=3, oracle_samples=1000)
    assert [c["bins"] for c in rep.cells] == [3] * 80
    assert rep.config["bin_rule"] == 3


@pytest.mark.parametrize("bin_rule", [0, -3, 2.7, "fixed", np.array(["optimal"])])
def test_convergence_rejects_bad_bin_rule_before_any_cell(bin_rule):
    with pytest.raises(ValidationError, match="bin rule"):
        convergence_experiment(BIN_SPEC, GRID, seeds=20, bin_rule=bin_rule)


@pytest.mark.parametrize("workers", [0, -3, 2.5])
def test_convergence_rejects_bad_workers_before_any_cell(workers, monkeypatch):
    def no_cells(*args, **kwargs):
        raise AssertionError("a cell ran")

    monkeypatch.setattr("calbound.bounds._score_chunk", no_cells)
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


def test_klgap_cell_follows_the_seed_rule():
    # Cell (replicate r, alpha index ia) under master seed s fits with seed s + 100003 r + 7919 ia.
    rep = kl_gap_experiment(MULTI_SPEC, alpha_grid=(0.0, 0.5), replicates=2, n_re=60, seed=3)
    cell = rep.cells[3]
    assert (cell["replicate"], cell["alpha"]) == (1, 0.5)
    data_re, data_te = _split_source(MULTI_SPEC, 60, 60, 1, 3)
    result = train_pbr(data_re, PbrConfig(alpha=0.5, seed=3 + 100003 + 7919))
    assert cell["kl"] == result.kl
    assert cell["gap"] == ece_gap(recalibrate_set(result.map, data_te),
                                  recalibrate_set(result.map, data_re), optimal_bins_1d(60))


@pytest.mark.parametrize("method, objective",
                         [("pbr", "brier"), ("pbr_total", "brier_plus_loss")])
def test_compare_pbr_cell_follows_the_seed_rule(method, objective):
    # Fold f under master seed s fits alpha index ia with seed s + 100003 f + 7919 ia and
    # keeps the first alpha whose map has the lowest ECE on the fit set.
    grid = (0.1, 1.0)
    rep = compare_methods(MULTI_SPEC, methods=(method,), folds=2, n_re=80, n_te=200,
                          alpha_grid=grid, seed=3)
    cell = rep.cells[1]
    assert (cell["fold"], cell["method"]) == (1, method)
    data_re, data_te = _split_source(MULTI_SPEC, 80, 200, 1, 3)
    fits = [train_pbr(data_re, PbrConfig(alpha=a, seed=3 + 100003 + 7919 * ia,
                                         objective=objective))
            for ia, a in enumerate(grid)]
    scores = [ece_top_label(recalibrate_set(r.map, data_re), optimal_bins_1d(80)) for r in fits]
    pick = int(np.argmin(scores))
    best = fits[pick]
    assert cell["alpha"] == grid[pick]
    assert cell["t"] == best.map.t
    assert cell["ece"] == ece_top_label(recalibrate_set(best.map, data_te), optimal_bins_1d(200))


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


@pytest.mark.parametrize("source, message", [
    ({}, r"^report source must hold exactly one of spec, dump or inline, got \[\]$"),
    ({"spec": MULTI_SPEC.to_dict(), "inline": {"n": 120, "num_classes": 3}},
     r"^report source must hold exactly one of spec, dump or inline, got \['inline', 'spec'\]$"),
    ({"dump": ""}, r"^dump path is empty$"),
    ({"dump": 5}, r"^dump path must be a str or path-like, got 5$"),
    ({"dump": ["d.csv"]}, r"^dump path must be a str or path-like, got \['d.csv'\]$"),
    ({"inline": {"n": 120, "num_classes": 3}},
     r"^report source was an in-memory set; cannot replay$"),
])
def test_replay_reads_exactly_one_source(source, message):
    report = make_report("compare", {"source": source, "methods": ["uncalibrated"]}, [], {})
    with pytest.raises(ValidationError, match=message):
        replay(report)


@pytest.mark.parametrize("source, family", [
    ("dump", "vector_scale"), ("spec", "vector_scale"), ("spec", "affine"),
])
def test_pbr_fits_beat_uncalibrated_on_held_out_ece(source, family):
    # The bundled dump (n_re = 100, n_te = 400) and a 10-class spec overconfident
    # by t = 2 (n_re = 1000, n_te = 5000), 3 folds, alpha 0.25. Affine on the dump
    # is left out: with the default prior it overfits 100 rows.
    if source == "dump":
        source, split = load_dump(str(EXAMPLE_DUMP)), {}
    else:
        source = MulticlassSpec(10, (0.3,) * 10, MiscalibrationMapK.temperature(2.0), 1000,
                                Rng(0))
        split = {"n_re": 1000, "n_te": 5000}
    rep = compare_methods(source, methods=("uncalibrated", "pbr", "pbr_total"), folds=3,
                          cfg=PbrConfig(family=family), alpha_grid=(0.25,), seed=0, **split)
    ece = {m: stats["ece"]["mean"] for m, stats in rep.summary["by_method"].items()}
    assert ece["pbr"] < ece["uncalibrated"]
    assert ece["pbr_total"] < ece["uncalibrated"]


def test_compare_methods_rejects_explicit_zero_split(gen):
    dump = random_prediction_set(gen, 200, 3)
    for source in (MULTI_SPEC, dump):
        for split in ({"n_re": 0}, {"n_te": 0}):
            with pytest.raises(ValidationError,
                               match=r"must be an integer >= 2 and < 2\*\*63, got 0"):
                compare_methods(source, methods=("uncalibrated",), folds=2, **split)


def test_compare_methods_rejects_unknown_method():
    with pytest.raises(ValidationError):
        compare_methods(MULTI_SPEC, methods=("uncalibrated", "magic"))


@pytest.mark.parametrize("methods", ["pbr", None, 5, {"pbr"}, ()])
def test_compare_methods_refuses_methods_that_are_not_a_list(methods):
    # a set has no order to give the cells, so it is refused with the others
    message = ("^methods needs at least 1 value$" if methods == () else
               rf"^methods must be a list, tuple or 1-D array, got {re.escape(repr(methods))}$")
    with pytest.raises(ValidationError, match=message):
        compare_methods(MULTI_SPEC, methods=methods)


def test_compare_methods_rejects_a_repeated_method():
    # a repeat refits with the same seeds, so its cells would be copies
    with pytest.raises(ValidationError,
                       match=r"^methods repeat: \['uncalibrated', 'uncalibrated'\]$"):
        compare_methods(MULTI_SPEC, methods=("uncalibrated", "uncalibrated"), folds=2)


@pytest.mark.parametrize("grid, match", [
    pytest.param((-1.0, 1.0), "alpha must be finite", id="negative"),
    pytest.param((1.0, math.inf), "alpha must be finite", id="inf"),
    pytest.param((math.nan, 1.0), "alpha must be finite", id="nan"),
    pytest.param(("0.5", 1.0), "alpha must be finite", id="string"),
    pytest.param((True, 1.0), "alpha must be finite", id="bool"),
    pytest.param((), "alpha grid needs at least", id="empty"),
    pytest.param(0.5, r"^alpha grid must be a list, tuple or 1-D array, got 0.5$", id="float"),
    pytest.param(None, r"^alpha grid must be a list, tuple or 1-D array, got None$", id="none"),
    pytest.param(np.zeros((1, 2)), "alpha grid must be a list, tuple or 1-D array", id="2-d"),
])
@pytest.mark.parametrize("experiment", ["klgap", "compare", "compare-no-pbr"])
def test_bad_alpha_grid_fails_before_any_cell(monkeypatch, experiment, grid, match):
    def no_cells(*args, **kwargs):
        raise AssertionError("a cell ran")

    monkeypatch.setattr("calbound.harness.experiments._split_source", no_cells)
    run = {"klgap": kl_gap_experiment, "compare": compare_methods,
           "compare-no-pbr": partial(compare_methods, methods=("uncalibrated", "temperature"))}
    with pytest.raises(ValidationError, match=match):
        run[experiment](MULTI_SPEC, alpha_grid=grid)


@pytest.mark.parametrize("method", sorted(PBR_OBJECTIVES))
def test_fit_method_refuses_an_empty_alpha_grid(gen, method):
    data = random_prediction_set(gen, 50, 3)
    with pytest.raises(ValidationError, match="alpha grid needs at least 1 value"):
        fit_method(method, data, PbrConfig(), [], 0)


@pytest.mark.parametrize("bad", ["0.5", True, math.nan, -1.0],
                         ids=["string", "bool", "nan", "negative"])
@pytest.mark.parametrize("method", sorted(PBR_OBJECTIVES))
def test_fit_method_refuses_a_bad_alpha_before_any_fit(monkeypatch, gen, method, bad):
    def no_fits(*args, **kwargs):
        raise AssertionError("a fit ran")

    monkeypatch.setattr("calbound.harness.experiments.train_pbr", no_fits)
    data = random_prediction_set(gen, 50, 3)
    with pytest.raises(ValidationError, match="alpha must be finite and >= 0"):
        fit_method(method, data, PbrConfig(max_iters=5), [0.5, bad], 0)


def test_numpy_alpha_grid_entries_give_the_same_reports():
    klgap = partial(kl_gap_experiment, MULTI_SPEC, replicates=1, n_re=60)
    plain, numpy = klgap(alpha_grid=(0.0, 0.5)), klgap(alpha_grid=np.array([0.0, 0.5]))
    assert numpy.to_json() == plain.to_json()
    compare = partial(compare_methods, MULTI_SPEC, methods=("pbr",), folds=2, n_re=60, n_te=100,
                      cfg=PbrConfig(max_iters=20))
    plain = compare(alpha_grid=(0.25, 1.0))
    numpy = compare(alpha_grid=(np.float32(0.25), np.int64(1)))
    assert numpy.to_json() == plain.to_json()
    assert [type(a) for a in numpy.config["alpha_grid"]] == [float, float]


def test_experiment_cell_error_carries_cell():
    err = ExperimentCellError({"n": 10, "seed": 3}, RuntimeError("boom"))
    assert err.cell == {"n": 10, "seed": 3}
    assert "boom" in str(err)



def _explode(*args, **kwargs):
    raise RuntimeError("boom")


@pytest.mark.parametrize(
    "target, run, cell",
    [
        # a convergence job scores a chunk of seeds of one n: here all 20 seeds of n = 100
        ("calbound.bounds._score_chunk", lambda: convergence_experiment(BIN_SPEC, GRID, seeds=20),
         {"n": 100, "first_seed": 0, "last_seed": 19}),
        ("calbound.harness.experiments.train_pbr",
         lambda: kl_gap_experiment(MULTI_SPEC, alpha_grid=(0.0, 1.0), replicates=1, n_re=60),
         {"replicate": 0, "alpha": 0.0}),
        ("calbound.harness.experiments.ece_top_label",
         lambda: compare_methods(MULTI_SPEC, folds=2, n_re=80, n_te=200),
         {"fold": 0, "method": "uncalibrated"}),
    ],
    ids=["convergence", "klgap", "compare"],
)
def test_cell_errors_name_their_cell(monkeypatch, target, run, cell):
    monkeypatch.setattr(target, _explode)
    with pytest.raises(ExperimentCellError) as exc:
        run()
    assert exc.value.cell == cell
    assert isinstance(exc.value.cause, RuntimeError)

@pytest.mark.parametrize("key, value, message", [
    ("kind", ["convergence"], r"^report kind must be a string, got \['convergence'\]$"),
    ("cells", "abc", r"^report cells must be a list of objects$"),
    ("cells", [{"fold": 0}, 3], r"^report cells must be a list of objects$"),
    ("config", "abc", r"^compare config must be an object, got str$"),
    ("summary", [], r"^compare summary must be an object, got list$"),
    ("schema", 99, r"^report schema must be 1, got 99$"),
    ("schema", True, r"^report schema must be 1, got True$"),
    ("schema", "1", r"^report schema must be 1, got '1'$"),
])
def test_report_from_dict_refuses_a_bad_shape(key, value, message):
    good = make_report("compare", {"source": {"spec": MULTI_SPEC.to_dict()}}, [], {}).to_dict()
    with pytest.raises(ValidationError, match=message):
        ExperimentReport.from_dict({**good, key: value})
    with pytest.raises(ValidationError, match=message):
        replay({**good, key: value})


def test_replay_rejects_unknown_kind():
    rep = make_report("convergence", {"spec": {"kind": "binary"}}, [], {})
    bad = rep.to_dict()
    bad["kind"] = "mystery"
    with pytest.raises(ValidationError):
        replay(bad)
    del bad["kind"]
    with pytest.raises(ValidationError, match=r"^report has no 'kind' key$"):
        replay(bad)
