"""Fit-on-train feature transforms: LabelCount encoding and z-scoring.

The three categorical features are replaced by integer codes ranked by
training-set frequency (codes 1..K ascending with frequency, 0 reserved
for categories never seen in training), counted and looked up over the
dataset's parse-time codes and vocabularies. Every column is then
standardized with the population mean/std of the training matrix. The
result is a plain (n, 41) float64 array in schema order, checked finite
here; the later stages take its rows as arrays, with each row's label in a
separate integer array.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .dataset import KddParseError, LabeledDataset
from .errors import VersionSkewError, reading
from .schema import CATEGORICAL_INDICES, NAMES

PIPELINE_FORMAT_VERSION = 1


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

    def encode_column(self, feature: str, vocab: np.ndarray, codes: np.ndarray) -> np.ndarray:
        """Label-count codes of the column whose row ``i`` reads
        ``vocab[codes[i]]``, each vocabulary entry looked up once."""
        table = np.array([self.code(feature, c) for c in vocab.tolist()], dtype=np.float64)
        return table[codes]


@dataclass(frozen=True)
class Standardizer:
    mu: np.ndarray      # (d,)
    sigma: np.ndarray   # (d,) population std, >= 0

    def __post_init__(self) -> None:
        if self.mu.shape != self.sigma.shape:
            raise ValueError("mu and sigma shapes differ")
        if (self.sigma < 0).any():
            raise ValueError("negative sigma")
        if not (np.isfinite(self.mu).all() and np.isfinite(self.sigma).all()):
            raise ValueError("non-finite mu or sigma")


@dataclass(frozen=True)
class FittedPipeline:
    """Frozen preprocessing state; encoder and standardizer must come
    from the same training dataset (use :func:`fit_transform`)."""

    encoder: LabelCountEncoder
    standardizer: Standardizer

    def transform(self, ds: LabeledDataset) -> np.ndarray:
        """Encode then standardize; pure, never mutates fitted state."""
        return standardize(self.standardizer, encode(self.encoder, ds))

    def to_json(self) -> str:
        doc = {
            "format_version": PIPELINE_FORMAT_VERSION,
            "kind": "pipeline",
            "features": [
                {"name": name, "mu": float(m), "sigma": float(s)}
                for name, m, s in zip(NAMES, self.standardizer.mu, self.standardizer.sigma)
            ],
            "encoders": {
                feature: {cat: [int(count), int(code)] for cat, (count, code) in table.items()}
                for feature, table in self.encoder.tables.items()
            },
        }
        return json.dumps(doc, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FittedPipeline":
        """Raises VersionSkewError for text that is not a pipeline over the schema."""
        with reading("pipeline"):
            doc = json.loads(text)
            version = doc.get("format_version")
            if version != PIPELINE_FORMAT_VERSION:
                raise VersionSkewError(f"pipeline format version {version!r} unsupported "
                                       f"(expected {PIPELINE_FORMAT_VERSION})")
            names = [f["name"] for f in doc["features"]]
            if list(NAMES) != names:
                raise ValueError("pipeline feature names do not match schema")
            mu = np.array([f["mu"] for f in doc["features"]], dtype=np.float64)
            sigma = np.array([f["sigma"] for f in doc["features"]], dtype=np.float64)
            encoded = [NAMES[j] for j in CATEGORICAL_INDICES]
            if sorted(doc["encoders"]) != sorted(encoded):
                raise ValueError(f"pipeline encoders {sorted(doc['encoders'])} are not {encoded}")
            tables = {
                feature: {cat: (int(c[0]), int(c[1])) for cat, c in table.items()}
                for feature, table in doc["encoders"].items()
            }
            return cls(
                encoder=LabelCountEncoder(tables=tables),
                standardizer=Standardizer(mu=mu, sigma=sigma),
            )


def fit_encoder(train: LabeledDataset) -> LabelCountEncoder:
    """Count categories per categorical feature and assign frequency-ranked codes."""
    tables: dict[str, dict[str, tuple[int, int]]] = {}
    for k, j in enumerate(CATEGORICAL_INDICES):
        vocab = train.vocab[k].tolist()
        counts = np.bincount(train.codes[:, k], minlength=len(vocab))
        # ascending frequency; stable over the sorted vocabulary, so ties go to the smaller name
        ordered = np.argsort(counts, kind="stable")
        tables[NAMES[j]] = {
            vocab[i]: (int(counts[i]), code) for code, i in enumerate(ordered, start=1)
        }
    return LabelCountEncoder(tables=tables)


def encode(enc: LabelCountEncoder, ds: LabeledDataset) -> np.ndarray:
    """Dataset columns to a float matrix; unseen categories map to code 0."""
    out = np.empty((len(ds), len(NAMES)), dtype=np.float64)
    # NUMERIC_INDICES are columns 0 and 4..40: slices copy them several
    # times faster than a scatter by index
    out[:, :1], out[:, 4:] = ds.numeric[:, :1], ds.numeric[:, 1:]
    for k, j in enumerate(CATEGORICAL_INDICES):
        out[:, j] = enc.encode_column(NAMES[j], ds.vocab[k], ds.codes[:, k])
    return out


def fit_standardizer(matrix: np.ndarray) -> Standardizer:
    """Per-column mean and population (divide-by-n) standard deviation of a
    matrix in schema order. Raises KddParseError, naming the feature, when
    a column's values are too large for either to be finite."""
    if matrix.ndim != 2 or matrix.shape[0] < 1:
        raise ValueError("need a non-empty 2-D matrix")
    if not np.isfinite(matrix).all():
        raise ValueError("matrix contains non-finite entries")
    with np.errstate(over="ignore", invalid="ignore"):
        mu = matrix.mean(axis=0)
        sigma = matrix.std(axis=0)  # ddof=0
    bad = np.flatnonzero(~(np.isfinite(mu) & np.isfinite(sigma)))
    if bad.size:
        raise KddParseError(f"training feature {NAMES[bad[0]]!r} is too large to standardize: "
                            "its mean or standard deviation is not finite")
    return Standardizer(mu=mu, sigma=sigma)


def standardize(s: Standardizer, matrix: np.ndarray) -> np.ndarray:
    """Z = (x - mu) / sigma per cell; sigma=0 columns map to 0 everywhere.
    Raises KddParseError, naming the feature, when a cell of the result is
    not finite, as for a cell far outside its training range."""
    if matrix.ndim != 2 or matrix.shape[1] != s.mu.shape[0]:
        raise ValueError(
            f"column mismatch: matrix has {matrix.shape[1] if matrix.ndim == 2 else '?'} columns, "
            f"standardizer expects {s.mu.shape[0]}"
        )
    safe = np.where(s.sigma > 0, s.sigma, 1.0)
    with np.errstate(over="ignore"):
        z = (matrix - s.mu) / safe
    z[:, s.sigma == 0] = 0.0
    bad = np.flatnonzero(~np.isfinite(z).all(axis=0))
    if bad.size:
        raise KddParseError(f"feature {NAMES[bad[0]]!r} is too large to standardize: "
                            "a standardized value is not finite")
    return z


def fit_transform(train: LabeledDataset) -> tuple[FittedPipeline, np.ndarray]:
    """Fit encoder and standardizer on the same training dataset and return
    them with its standardized matrix, encoding the dataset once. Every
    feature is kept; train-constant ones standardize to 0."""
    enc = fit_encoder(train)
    raw = encode(enc, train)
    pipe = FittedPipeline(encoder=enc, standardizer=fit_standardizer(raw))
    return pipe, standardize(pipe.standardizer, raw)


def fit_pipeline(train: LabeledDataset) -> FittedPipeline:
    """The fitted state of :func:`fit_transform` alone."""
    return fit_transform(train)[0]
