"""Fit-on-train feature transforms: LabelCount encoding and z-scoring.

The three categorical features are replaced by integer codes ranked by
training-set frequency (codes 1..K ascending with frequency, 0 reserved
for categories never seen in training). Every column is then
standardized with the population mean/std of the training matrix.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .dataset import LabeledDataset
from .errors import VersionSkewError
from .schema import DEFAULT_SCHEMA, FeatureSchema

PIPELINE_FORMAT_VERSION = 1


@dataclass(frozen=True)
class FeatureMatrix:
    """Dense numeric matrix with a row-aligned label vector."""

    values: np.ndarray           # (n, d) float64
    labels: np.ndarray           # (n,) object

    def __post_init__(self) -> None:
        if self.values.ndim != 2:
            raise ValueError(f"values must be 2-D, got shape {self.values.shape}")
        if len(self.labels) != self.values.shape[0]:
            raise ValueError("row count does not match label count")
        if not np.isfinite(self.values).all():
            raise ValueError("matrix contains non-finite entries")

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    def select(self, mask: np.ndarray) -> "FeatureMatrix":
        return FeatureMatrix(values=self.values[mask], labels=self.labels[mask])


@dataclass(frozen=True)
class LabelCountEncoder:
    """Per categorical feature: category -> (train count, code).

    Codes run 1..K ascending with frequency, so the most frequent
    category gets the largest code; ties go to the lexicographically
    smaller name. Code 0 is reserved for unseen categories.
    """

    tables: dict[str, dict[str, tuple[int, int]]]

    def code(self, feature: str, category: str) -> int:
        return self.tables[feature].get(category, (0, 0))[1]

    def encode_column(self, feature: str, values: np.ndarray) -> np.ndarray:
        """Codes of a string column, looked up once per distinct category."""
        distinct, row_of = np.unique(values, return_inverse=True)
        codes = np.array([self.code(feature, c) for c in distinct.tolist()], dtype=np.float64)
        return codes[row_of]


@dataclass(frozen=True)
class Standardizer:
    mu: np.ndarray      # (d,)
    sigma: np.ndarray   # (d,) population std, >= 0

    def __post_init__(self) -> None:
        if self.mu.shape != self.sigma.shape:
            raise ValueError("mu and sigma shapes differ")
        if (self.sigma < 0).any():
            raise ValueError("negative sigma")


@dataclass(frozen=True)
class FittedPipeline:
    """Frozen preprocessing state; encoder and standardizer must come
    from the same training dataset (use :func:`fit_pipeline`)."""

    schema: FeatureSchema
    encoder: LabelCountEncoder
    standardizer: Standardizer

    def transform(self, ds: LabeledDataset) -> FeatureMatrix:
        """Encode then standardize; pure, never mutates fitted state."""
        raw = encode(self.encoder, ds, self.schema)
        return standardize(self.standardizer, raw, labels=ds.labels())

    def to_json(self) -> str:
        doc = {
            "format_version": PIPELINE_FORMAT_VERSION,
            "kind": "pipeline",
            "features": [
                {"name": name, "mu": float(m), "sigma": float(s)}
                for name, m, s in zip(
                    self.schema.names, self.standardizer.mu, self.standardizer.sigma
                )
            ],
            "encoders": {
                feature: {cat: [int(count), int(code)] for cat, (count, code) in table.items()}
                for feature, table in self.encoder.tables.items()
            },
        }
        return json.dumps(doc, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str, schema: FeatureSchema = DEFAULT_SCHEMA) -> "FittedPipeline":
        doc = json.loads(text)
        version = doc.get("format_version")
        if version != PIPELINE_FORMAT_VERSION:
            raise VersionSkewError(
                f"pipeline format version {version!r} unsupported (expected {PIPELINE_FORMAT_VERSION})"
            )
        names = [f["name"] for f in doc["features"]]
        if list(schema.names) != names:
            raise ValueError("pipeline feature names do not match schema")
        mu = np.array([f["mu"] for f in doc["features"]], dtype=np.float64)
        sigma = np.array([f["sigma"] for f in doc["features"]], dtype=np.float64)
        tables = {
            feature: {cat: (int(c[0]), int(c[1])) for cat, c in table.items()}
            for feature, table in doc["encoders"].items()
        }
        return cls(
            schema=schema,
            encoder=LabelCountEncoder(tables=tables),
            standardizer=Standardizer(mu=mu, sigma=sigma),
        )


def fit_encoder(train: LabeledDataset, schema: FeatureSchema = DEFAULT_SCHEMA) -> LabelCountEncoder:
    """Count categories per categorical feature and assign frequency-ranked codes."""
    tables: dict[str, dict[str, tuple[int, int]]] = {}
    for k, j in enumerate(schema.categorical_indices):
        distinct, counts = np.unique(train.categorical[:, k], return_counts=True)
        # ascending frequency; the stable sort keeps ties in ascending name order
        ordered = np.argsort(counts, kind="stable")
        tables[schema.names[j]] = {
            str(distinct[i]): (int(counts[i]), code) for code, i in enumerate(ordered, start=1)
        }
    return LabelCountEncoder(tables=tables)


def encode(
    enc: LabelCountEncoder, ds: LabeledDataset, schema: FeatureSchema = DEFAULT_SCHEMA
) -> np.ndarray:
    """Dataset columns to a float matrix; unseen categories map to code 0."""
    out = np.empty((len(ds), len(schema.names)), dtype=np.float64)
    out[:, list(schema.numeric_indices)] = ds.numeric
    for k, j in enumerate(schema.categorical_indices):
        out[:, j] = enc.encode_column(schema.names[j], ds.categorical[:, k])
    return out


def fit_standardizer(matrix: np.ndarray) -> Standardizer:
    """Per-column mean and population (divide-by-n) standard deviation."""
    if matrix.ndim != 2 or matrix.shape[0] < 1:
        raise ValueError("need a non-empty 2-D matrix")
    if not np.isfinite(matrix).all():
        raise ValueError("matrix contains non-finite entries")
    mu = matrix.mean(axis=0)
    sigma = matrix.std(axis=0)  # ddof=0
    return Standardizer(mu=mu, sigma=sigma)


def standardize(
    s: Standardizer,
    matrix: np.ndarray,
    labels: np.ndarray | None = None,
) -> FeatureMatrix:
    """Z = (x - mu) / sigma per cell; sigma=0 columns map to 0 everywhere."""
    if matrix.ndim != 2 or matrix.shape[1] != s.mu.shape[0]:
        raise ValueError(
            f"column mismatch: matrix has {matrix.shape[1] if matrix.ndim == 2 else '?'} columns, "
            f"standardizer expects {s.mu.shape[0]}"
        )
    safe = np.where(s.sigma > 0, s.sigma, 1.0)
    z = (matrix - s.mu) / safe
    z[:, s.sigma == 0] = 0.0
    if labels is None:
        labels = np.array([""] * matrix.shape[0], dtype=object)
    return FeatureMatrix(values=z, labels=np.asarray(labels, dtype=object))


def fit_pipeline(train: LabeledDataset, schema: FeatureSchema = DEFAULT_SCHEMA) -> FittedPipeline:
    """Fit encoder and standardizer on the same training dataset; every
    feature is kept, train-constant ones standardize to 0."""
    enc = fit_encoder(train, schema)
    raw = encode(enc, train, schema)
    return FittedPipeline(schema=schema, encoder=enc, standardizer=fit_standardizer(raw))
