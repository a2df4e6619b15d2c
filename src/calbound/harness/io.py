"""Reading and writing prediction dumps.

Three formats are supported. CSV carries a header of p0..p{K-1},label for
probability rows or z0..z{K-1},label for logit rows. JSON lines carries one
object per line with a "probs" or "logits" array and a "label". An .npz
archive carries a "probs" or "logits" array plus a "labels" array. Logits
are pushed through a softmax on load.

What a text dump may contain is defined by the row-wise parser
(``_parse_values``/``_parse_label``: every entry through ``float()``, errors
numbered by row). JSON lines are parsed row by row, since ``json`` already
makes one Python object per field. A CSV body is first handed whole to
numpy and the result checked in vectorized form; that path only speeds up
files the row-wise parser accepts, and any file it refuses goes through the
row-wise parser, which either raises the row-numbered error or returns its
own result.

A load holds the data about once. JSON lines and the row-wise parser pack
each row into one bytearray of float64 that becomes the set's array (with
``struct``, which numpy has already imported; the ``array`` module would load
one more extension into every process), and an npz member is read into the
set's array, so either peaks near the set plus row-sized temporaries. A CSV load peaks near numpy's (n, K + 1) table plus the set's
copy of its K value columns. Logits become probabilities in place.
"""

from __future__ import annotations

import csv
import json
import math
import os
import struct
import warnings
import zipfile
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from numpy.lib import format as npy_format

from ..core import PredictionSet, ValidationError, _array, _choice, log_probs, softmax

FORMATS = ("csv", "jsonl", "npz")
MODES = ("probs", "logits")


@dataclass(frozen=True)
class PredictionDump:
    source: str
    format: str
    mode: str
    data: PredictionSet = field(repr=False)


def _resolve_format(path: Path) -> str:
    """The dump format a path's suffix names."""
    suffix = path.suffix.lower()
    if suffix in (".csv", ".npz"):
        return suffix[1:]
    if suffix in (".jsonl", ".ndjson"):
        return "jsonl"
    raise ValidationError(f"cannot infer dump format from {path.name!r}")


def _header_mode(header: list[str]) -> tuple[str, int]:
    cols = [c.strip() for c in header]
    if len(cols) < 3 or cols[-1] != "label":
        raise ValidationError(
            "CSV header must be p0..p{K-1},label or z0..z{K-1},label"
        )
    prefix = cols[0][:1]
    if prefix not in ("p", "z"):
        raise ValidationError(f"unknown column prefix {cols[0]!r}")
    k = len(cols) - 1
    expect = [f"{prefix}{i}" for i in range(k)]
    if cols[:-1] != expect:
        raise ValidationError(f"CSV columns {cols[:-1]} do not match {expect}")
    return ("probs" if prefix == "p" else "logits"), k


def _parse_label(raw, row_index: int) -> int:
    # int() raises ValueError on NaN and OverflowError on inf; bool is an int,
    # so the JSON literals true and false are refused by type.
    try:
        value = float(raw)
        label = int(value)
    except (TypeError, ValueError, OverflowError):
        label = None
    if label is None or value != label or isinstance(raw, bool):
        raise ValidationError(f"row {row_index}: label {raw!r} is not an integer")
    return label


def _parse_values(raw, row_index: int) -> list[float]:
    try:
        values = [float(x) for x in raw]
    except (TypeError, ValueError, OverflowError):
        values = None
    if values is None or bool in map(type, raw):
        raise ValidationError(f"row {row_index}: non-numeric entry in {raw}")
    if not all(map(math.isfinite, values)):
        raise ValidationError(f"row {row_index}: non-finite entry in {raw}")
    return values


def _checked(table: np.ndarray, k: int):
    """The K value columns and the label column of a CSV table numpy read, or None unless every
    cell is finite and every label a whole number below 2**53 in magnitude (exact in a float)."""
    try:
        _array(table, "CSV table", finite=True)
    except ValidationError:
        return None
    labels = table[:, k]
    if not ((labels == np.trunc(labels)).all() and (np.abs(labels) < 2.0**53).all()):
        return None
    return table[:, :k], labels


def _numpy_lines(handle):
    # numpy strips \x1c-\x1f around a number as whitespace and float() does
    # not, so a line holding one is left to the row-wise parser.
    for line in handle:
        if "\x1c" in line or "\x1d" in line or "\x1e" in line or "\x1f" in line:
            raise ValueError("information separator in line")
        yield line


def _read_table(handle):
    """The rest of a CSV file as one float array, or None where numpy refuses it."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # a body without rows
            return np.loadtxt(_numpy_lines(handle), delimiter=",", comments=None,
                              ndmin=2, quotechar='"')
    except ValueError:
        return None


def _parse_csv_rows(reader, k: int, path: Path) -> tuple[np.ndarray, np.ndarray]:
    """The row-wise parser over the records after the header."""
    values, labels = bytearray(), []
    i = 0
    try:
        for i, row in enumerate(reader, start=1):
            if not row:
                continue
            if len(row) != k + 1:
                raise ValidationError(f"row {i}: expected {k + 1} fields, got {len(row)}")
            values += struct.pack(f"{k}d", *_parse_values(row[:k], i))
            labels.append(_parse_label(row[k], i))
    except csv.Error as err:  # e.g. a field past csv.field_size_limit()
        raise ValidationError(f"row {i + 1}: {err}")
    if not labels:
        raise ValidationError(f"{path}: dump has a header but no rows")
    return np.frombuffer(values).reshape(len(labels), k), np.array(labels)


def _load_csv(path: Path) -> tuple[str, np.ndarray, np.ndarray]:
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ValidationError(f"{path}: empty dump")
        except csv.Error as err:
            raise ValidationError(f"{path}: header: {err}")
        mode, k = _header_mode(header)
        table = _read_table(handle)
        if table is not None and len(table) and table.shape[1] == k + 1:
            checked = _checked(table, k)
            if checked is not None:
                return mode, *checked
        handle.seek(0)
        reader = csv.reader(handle)
        next(reader)
        return mode, *_parse_csv_rows(reader, k, path)


def _load_jsonl(path: Path) -> tuple[str, np.ndarray, np.ndarray]:
    values, labels = bytearray(), []
    mode = None
    k = None
    with open(path) as handle:
        for i, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as err:
                raise ValidationError(f"row {i}: invalid JSON ({err.msg})")
            if not isinstance(obj, dict):
                raise ValidationError(f"row {i}: expected a JSON object")
            if "probs" in obj:
                row_mode, vec = "probs", obj["probs"]
            elif "logits" in obj:
                row_mode, vec = "logits", obj["logits"]
            else:
                raise ValidationError(f"row {i}: needs a 'probs' or 'logits' key")
            if mode is None:
                mode = row_mode
            elif row_mode != mode:
                raise ValidationError(f"row {i}: mixes {row_mode} into a {mode} dump")
            if "label" not in obj:
                raise ValidationError(f"row {i}: missing 'label'")
            if not isinstance(vec, list):
                raise ValidationError(f"row {i}: '{row_mode}' must be a list")
            if k is None:
                k = len(vec)
            elif len(vec) != k:
                raise ValidationError(f"row {i}: expected {k} entries, got {len(vec)}")
            values += struct.pack(f"{k}d", *_parse_values(vec, i))
            labels.append(_parse_label(obj["label"], i))
    if not labels:
        raise ValidationError(f"{path}: empty dump")
    return mode, np.frombuffer(values).reshape(len(labels), k), np.array(labels)


def _load_npz(path: Path) -> tuple[str, np.ndarray, np.ndarray]:
    try:
        archive = np.load(path, allow_pickle=False)
    except (OSError, EOFError, ValueError, zipfile.BadZipFile) as err:
        raise ValidationError(f"{path}: not an npz archive ({err})")
    if not isinstance(archive, np.lib.npyio.NpzFile):
        raise ValidationError(f"{path}: not an npz archive")
    with archive:
        keys = sorted(archive.files)
        found = [m for m in MODES if m in keys]
        if len(found) != 1 or "labels" not in keys:
            raise ValidationError(
                f"{path}: needs 'labels' and exactly one of 'probs' or 'logits', has {keys}")
        members = []
        for name in (found[0], "labels"):
            try:
                members.append(archive[name])
            # object arrays need pickle; a damaged member fails its CRC or inflation
            except (ValueError, OSError, EOFError, zipfile.BadZipFile, zlib.error) as err:
                raise ValidationError(f"{path}: {name!r}: {err}")
    # the labels are the set's to check, as the labels of from_probs are
    return found[0], _array(members[0], f"{path}: '{found[0]}'", 2, finite=True), members[1]


_LOADERS = {"csv": _load_csv, "jsonl": _load_jsonl, "npz": _load_npz}


def load_dump(path) -> PredictionDump:
    """Load a prediction dump into a validated PredictionDump.

    The suffix picks the format; the header (CSV) or the keys (JSON lines,
    npz) say whether the file holds probabilities or logits.
    """
    if not isinstance(path, (str, os.PathLike)):
        raise ValidationError(f"dump path must be a str or path-like, got {path!r}")
    if os.fspath(path) == "":  # Path("") would name the working directory
        raise ValidationError("dump path is empty")
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"no such dump: {path}")
    fmt = _resolve_format(path)
    try:
        mode, values, labels = _LOADERS[fmt](path)
    except UnicodeDecodeError as err:  # text dumps are read in the locale encoding
        raise ValidationError(f"{path}: not {err.encoding} text ({err.reason})")
    # The set keeps this array: it is the loader's own, so only CSV's strided
    # view of its table (or a Fortran-order npz member) is copied here.
    probs = np.require(values, requirements=["C", "W"])
    # rows without entries have no maximum; the set's check reports the missing classes
    if mode == "logits" and probs.shape[1]:
        softmax(probs, out=probs)
    return PredictionDump(source=str(path), format=fmt, mode=mode,
                          data=PredictionSet._owned(probs, labels))


def write_dump(data: PredictionSet, path, fmt: str | None = None, mode: str = "probs") -> None:
    """Write a prediction set in fmt, by default the format the suffix names (as load_dump
    reads it); logits mode emits log-probabilities."""
    path = Path(path)
    fmt = _choice(_resolve_format(path) if fmt is None else fmt, "dump format", FORMATS)
    _choice(mode, "dump mode", MODES)
    values = data.probs if mode == "probs" else log_probs(data.probs)
    if fmt == "npz":
        # np.savez's members, each written from the array's own buffer in 16 MiB
        # slices: np.savez copies every chunk with tobytes on its way into the zip.
        with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED, allowZip64=True) as archive:
            for name, array in ((mode, values), ("labels", data.labels)):
                array = np.ascontiguousarray(array)
                with archive.open(name + ".npy", "w", force_zip64=True) as member:
                    npy_format.write_array_header_1_0(
                        member, npy_format.header_data_from_array_1_0(array))
                    buffer = memoryview(array).cast("B")
                    for start in range(0, buffer.nbytes, 1 << 24):
                        member.write(buffer[start : start + (1 << 24)])
        return
    labels = data.labels.tolist()
    if fmt == "csv":
        # The bytes csv.writer gives: CRLF rows, no field needs quoting.
        prefix = "p" if mode == "probs" else "z"
        row_format = "{:.17g}," * data.num_classes + "{}\r\n"
        with open(path, "w", newline="") as handle:
            handle.write("".join(f"{prefix}{i}," for i in range(data.num_classes)) + "label\r\n")
            for row, label in zip(values, labels):
                handle.write(row_format.format(*row.tolist(), label))
    else:
        with open(path, "w") as handle:
            for row, label in zip(values, labels):
                handle.write(json.dumps({mode: row.tolist(), "label": label}) + "\n")
