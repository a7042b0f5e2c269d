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

from nidkit.dataset import ConnectionRecord, KddParseError
from nidkit.preprocess import LabelCountEncoder
from nidkit.schema import DEFAULT_SCHEMA, FeatureSchema


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


def parse_lines(
    lines: Iterable[str], schema: FeatureSchema = DEFAULT_SCHEMA
) -> tuple[ConnectionRecord, ...]:
    categorical = set(schema.categorical_indices)
    names = schema.names
    records: list[ConnectionRecord] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.rstrip("\r\n").rstrip()
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != 43:
            raise KddParseError(f"line {lineno}: expected 43 fields, got {len(fields)}")
        for j in range(41):
            if j not in categorical:
                _validate_numeric(fields[j], names[j], lineno)
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


def fit_encoder(
    records: tuple[ConnectionRecord, ...], schema: FeatureSchema = DEFAULT_SCHEMA
) -> LabelCountEncoder:
    tables: dict[str, dict[str, tuple[int, int]]] = {}
    for j in schema.categorical_indices:
        counts: dict[str, int] = {}
        for rec in records:
            counts[rec.features[j]] = counts.get(rec.features[j], 0) + 1
        ordered = sorted(counts.items(), key=lambda kv: (kv[1], kv[0]))
        tables[schema.names[j]] = {
            cat: (count, code) for code, (cat, count) in enumerate(ordered, start=1)
        }
    return LabelCountEncoder(tables=tables)


def encode(
    enc: LabelCountEncoder,
    records: tuple[ConnectionRecord, ...],
    schema: FeatureSchema = DEFAULT_SCHEMA,
) -> np.ndarray:
    categorical = set(schema.categorical_indices)
    names = schema.names
    n, d = len(records), len(names)
    out = np.empty((n, d), dtype=np.float64)
    for i, rec in enumerate(records):
        f = rec.features
        for j in range(d):
            if j in categorical:
                out[i, j] = enc.code(names[j], f[j])
            else:
                out[i, j] = float(f[j])
    return out


def constant_features(
    records: tuple[ConnectionRecord, ...], schema: FeatureSchema = DEFAULT_SCHEMA
) -> tuple[tuple[str, str], ...]:
    found = []
    for e in schema.entries:
        first = records[0].features[e.index]
        if all(rec.features[e.index] == first for rec in records):
            found.append((e.name, first))
    return tuple(found)


