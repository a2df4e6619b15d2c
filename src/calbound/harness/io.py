"""Reading and writing prediction dumps.

Two formats are supported. CSV carries a header of p0..p{K-1},label for
probability rows or z0..z{K-1},label for logit rows. JSON lines carries one
object per line with a "probs" or "logits" array and a "label". Logits are
pushed through a softmax on load.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..core import PredictionSet, ValidationError, log_probs, softmax

FORMATS = ("csv", "jsonl")
MODES = ("probs", "logits")


@dataclass(frozen=True)
class PredictionDump:
    source: str
    format: str
    mode: str
    n: int
    num_classes: int
    data: PredictionSet = field(repr=False)


def _resolve_format(path: Path, fmt: str) -> str:
    if fmt != "auto":
        if fmt not in FORMATS:
            raise ValidationError(f"unknown dump format {fmt!r}")
        return fmt
    suffix = path.suffix.lower()
    if suffix == ".csv":
        return "csv"
    if suffix in (".jsonl", ".ndjson"):
        return "jsonl"
    raise ValidationError(f"cannot infer dump format from {path.name!r}; pass format")


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
    # int() raises ValueError on NaN and OverflowError on inf.
    try:
        value = float(raw)
        label = int(value)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(f"row {row_index}: label {raw!r} is not an integer")
    if value != label:
        raise ValidationError(f"row {row_index}: label {raw!r} is not an integer")
    return label


def _parse_values(raw, row_index: int) -> list[float]:
    try:
        values = [float(x) for x in raw]
    except (TypeError, ValueError):
        raise ValidationError(f"row {row_index}: non-numeric entry in {raw}")
    if not all(map(math.isfinite, values)):
        raise ValidationError(f"row {row_index}: non-finite entry in {raw}")
    return values


def _load_csv(path: Path) -> tuple[str, np.ndarray, np.ndarray]:
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ValidationError(f"{path}: empty dump")
        mode, k = _header_mode(header)
        rows, labels = [], []
        for i, row in enumerate(reader, start=1):
            if not row:
                continue
            if len(row) != k + 1:
                raise ValidationError(f"row {i}: expected {k + 1} fields, got {len(row)}")
            rows.append(_parse_values(row[:k], i))
            labels.append(_parse_label(row[k], i))
    if not rows:
        raise ValidationError(f"{path}: dump has a header but no rows")
    return mode, np.array(rows), np.array(labels)


def _load_jsonl(path: Path) -> tuple[str, np.ndarray, np.ndarray]:
    rows, labels = [], []
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
            if k is None:
                k = len(vec)
            elif len(vec) != k:
                raise ValidationError(f"row {i}: expected {k} entries, got {len(vec)}")
            rows.append(_parse_values(vec, i))
            labels.append(_parse_label(obj["label"], i))
    if not rows:
        raise ValidationError(f"{path}: empty dump")
    return mode, np.array(rows), np.array(labels)


def load_dump(path, fmt: str = "auto", mode: str = "auto") -> PredictionDump:
    """Load a prediction dump into a validated PredictionDump.

    mode may be "auto" (inferred from the header or keys) or an explicit
    "probs"/"logits" that must agree with the file.
    """
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"no such dump: {path}")
    fmt = _resolve_format(path, fmt)
    found_mode, values, labels = (_load_csv if fmt == "csv" else _load_jsonl)(path)
    if mode != "auto":
        if mode not in MODES:
            raise ValidationError(f"unknown mode {mode!r}")
        if mode != found_mode:
            raise ValidationError(f"dump carries {found_mode}, but mode={mode} requested")
    probs = softmax(values) if found_mode == "logits" else values
    data = PredictionSet.from_probs(probs, labels)
    return PredictionDump(
        source=str(path),
        format=fmt,
        mode=found_mode,
        n=data.n,
        num_classes=data.num_classes,
        data=data,
    )


def write_dump(data: PredictionSet, path, fmt: str = "csv", mode: str = "probs") -> None:
    """Write a prediction set; logits mode emits log-probabilities."""
    if fmt not in FORMATS:
        raise ValidationError(f"unknown dump format {fmt!r}")
    if mode not in MODES:
        raise ValidationError(f"unknown mode {mode!r}")
    path = Path(path)
    values = data.probs if mode == "probs" else log_probs(data.probs)
    prefix = "p" if mode == "probs" else "z"
    if fmt == "csv":
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow([f"{prefix}{i}" for i in range(data.num_classes)] + ["label"])
            for row, label in zip(values, data.labels):
                writer.writerow([f"{x:.17g}" for x in row] + [int(label)])
    else:
        key = "probs" if mode == "probs" else "logits"
        with open(path, "w") as handle:
            for row, label in zip(values, data.labels):
                handle.write(json.dumps({key: row.tolist(), "label": int(label)}) + "\n")
