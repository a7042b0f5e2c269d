"""Reference oracle for the columnar data layer: the original per-line
parser and per-cell encoder, kept verbatim in behaviour.

Every line is split into 43 Python strings and each numeric cell is
checked with ``float``; encoding walks the matrix cell by cell. Slow on
purpose: property tests compare ``nidkit.dataset`` and
``nidkit.preprocess`` against it byte for byte.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from nidkit.dataset import ConnectionRecord, KddParseError, spell_column
from nidkit.preprocess import LabelCountEncoder
from nidkit.schema import CATEGORICAL_INDICES, NAMES


def _validate_numeric(value: str, feature_name: str, lineno: int) -> None:
    try:
        x = float(value)
    except ValueError:
        raise KddParseError(
            f"line {lineno}: feature {feature_name!r} is not numeric: {value!r}"
        ) from None
    if not math.isfinite(x) or x < 0:
        raise KddParseError(
            f"line {lineno}: feature {feature_name!r} must be finite and non-negative, got {value!r}"
        )


def parse_lines(lines: Iterable[str]) -> tuple[ConnectionRecord, ...]:
    records: list[ConnectionRecord] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.rstrip("\r\n").rstrip()
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != 43:
            raise KddParseError(f"line {lineno}: expected 43 fields, got {len(fields)}")
        for j in range(41):
            if j not in CATEGORICAL_INDICES:
                _validate_numeric(fields[j], NAMES[j], lineno)
        try:
            difficulty = int(fields[42])
        except ValueError:
            raise KddParseError(
                f"line {lineno}: difficulty must be an integer, got {fields[42]!r}"
            ) from None
        if not 0 <= difficulty <= 21:
            raise KddParseError(
                f"line {lineno}: difficulty must be in 0..21, got {difficulty}"
            )
        records.append(
            ConnectionRecord(features=tuple(fields[:41]), label=fields[41], difficulty=difficulty)
        )
    if not records:
        raise KddParseError("no records found")
    return tuple(records)


def fit_encoder(records: tuple[ConnectionRecord, ...]) -> LabelCountEncoder:
    tables: dict[str, dict[str, tuple[int, int]]] = {}
    for j in CATEGORICAL_INDICES:
        counts: dict[str, int] = {}
        for rec in records:
            counts[rec.features[j]] = counts.get(rec.features[j], 0) + 1
        ordered = sorted(counts.items(), key=lambda kv: (kv[1], kv[0]))
        tables[NAMES[j]] = {
            cat: (count, code) for code, (cat, count) in enumerate(ordered, start=1)
        }
    return LabelCountEncoder(tables=tables)


def encode(enc: LabelCountEncoder, records: tuple[ConnectionRecord, ...]) -> np.ndarray:
    n, d = len(records), len(NAMES)
    out = np.empty((n, d), dtype=np.float64)
    for i, rec in enumerate(records):
        f = rec.features
        for j in range(d):
            if j in CATEGORICAL_INDICES:
                out[i, j] = enc.code(NAMES[j], f[j])
            else:
                out[i, j] = float(f[j])
    return out


def field_value(field: str, index: int) -> str | float:
    """A raw feature field's parsed value: verbatim if categorical, else float."""
    return field if index in CATEGORICAL_INDICES else float(field)


def spelled(field: str, index: int) -> str:
    """A raw feature field as the explore exports write it."""
    value = field_value(field, index)
    return value if isinstance(value, str) else spell_column(np.array([value]))[0]


def constant_features(records: tuple[ConnectionRecord, ...]) -> tuple[tuple[str, str], ...]:
    found = []
    for j, name in enumerate(NAMES):
        first = field_value(records[0].features[j], j)
        if all(field_value(rec.features[j], j) == first for rec in records):
            found.append((name, spelled(records[0].features[j], j)))
    return tuple(found)


