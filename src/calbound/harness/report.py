"""Experiment reports: a JSON document with embedded config for exact replay."""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field

from ..core import ValidationError, _keys

SCHEMA_VERSION = 1

# Shape of every serialized report; tests validate emitted documents with it.
REPORT_SCHEMA = {
    "type": "object",
    "required": ["schema", "kind", "config", "cells", "summary"],
    "properties": {
        "schema": {"const": SCHEMA_VERSION},
        "kind": {"enum": ["convergence", "klgap", "compare"]},
        "config": {"type": "object"},
        "cells": {"type": "array", "items": {"type": "object"}},
        "summary": {"type": "object"},
    },
}


@dataclass(frozen=True)
class ExperimentReport:
    kind: str
    config: dict
    cells: list = field(repr=False)
    summary: dict
    schema: int = SCHEMA_VERSION

    def to_dict(self) -> dict:
        return {
            "schema": self.schema,
            "kind": self.kind,
            "config": self.config,
            "cells": self.cells,
            "summary": self.summary,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, allow_nan=False)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentReport":
        d = _keys(d, "report", ("kind", "config", "cells", "summary", "schema"))
        if isinstance(d["schema"], bool) or d["schema"] != SCHEMA_VERSION:  # as the schema's const
            raise ValidationError(f"report schema must be {SCHEMA_VERSION}, got {d['schema']!r}")
        if not isinstance(d["kind"], str):
            raise ValidationError(f"report kind must be a string, got {d['kind']!r}")
        if not (isinstance(d["cells"], list) and all(isinstance(c, dict) for c in d["cells"])):
            raise ValidationError("report cells must be a list of objects")
        for key in ("config", "summary"):  # objects, of any keys; replay checks the config's
            _keys(d[key], f"{d['kind']} {key}", optional=d[key])
        return cls(**{**d, "cells": list(d["cells"])})

    def cells_csv(self) -> str:
        """The per-cell rows as CSV text, with the union of their keys as columns."""
        keys: list = []
        for cell in self.cells:
            for key in cell:
                if key not in keys:
                    keys.append(key)
        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=keys)
        writer.writeheader()
        writer.writerows(self.cells)
        return buffer.getvalue()


def _clean(value):
    """Replace NaN with None so reports stay strict JSON."""
    if isinstance(value, float) and value != value:
        return None
    if isinstance(value, dict):
        return {k: _clean(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_clean(v) for v in value]
    return value


def make_report(kind: str, config: dict, cells: list, summary: dict) -> ExperimentReport:
    return ExperimentReport(
        kind=kind,
        config=_clean(config),
        cells=_clean(cells),
        summary=_clean(summary),
    )
