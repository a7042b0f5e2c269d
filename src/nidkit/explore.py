"""Data-exploration exports: per-class histograms, Pearson correlations,
scatter pairs, and constant-feature detection. Everything is emitted as
plot-ready CSV/JSON, never rendered images. Rows are labelled by category
id (``dataset.category_ids``); the exports spell each category's name."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .dataset import CATEGORIES, LabeledDataset, spell_column
from .preprocess import encode, fit_encoder, fit_standardizer
from .schema import CATEGORICAL_INDICES, INDEX, NAMES


@dataclass(frozen=True)
class HistogramReport:
    feature: str
    edges: np.ndarray                 # (bins + 1,), strictly increasing
    counts: dict[str, np.ndarray]     # category -> per-bin counts

    def to_csv(self) -> str:
        cats = list(self.counts)
        lines = ["edge_low,edge_high," + ",".join(cats)]
        for i in range(len(self.edges) - 1):
            row = [repr(float(self.edges[i])), repr(float(self.edges[i + 1]))]
            row += [str(int(self.counts[c][i])) for c in cats]
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class CorrelationMatrix:
    values: np.ndarray        # (d, d), exactly symmetric, zeros on masked pairs
    constant_mask: np.ndarray  # (d,) True where correlation is undefined

    def to_csv(self, names: tuple[str, ...]) -> str:
        lines = ["feature," + ",".join(names)]
        for i, name in enumerate(names):
            cells = []
            for j in range(len(names)):
                if self.constant_mask[i] or self.constant_mask[j]:
                    cells.append("")
                else:
                    cells.append(repr(float(self.values[i, j])))
            lines.append(name + "," + ",".join(cells))
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class RedundancyReport:
    constant_features: tuple[tuple[str, str], ...]  # (name, constant value as spelled)

    def to_json(self) -> str:
        return json.dumps(
            {"constant_features": [{"name": n, "value": v} for n, v in self.constant_features]},
            indent=2, sort_keys=True,
        )


def histogram(
    matrix: np.ndarray,
    cats: np.ndarray,
    feature: str,
    bins: int,
) -> HistogramReport:
    """Uniform bins over the pooled [min, max] of ``feature``'s column of
    the encoded matrix; the last bin is right-closed. ``cats`` is the
    per-row category id."""
    if bins < 1:
        raise ValueError("bins must be >= 1")
    values = matrix[:, INDEX[feature]]
    lo, hi = float(values.min()), float(values.max())
    if hi == lo:
        hi = lo + 1.0
    edges = np.linspace(lo, hi, bins + 1)
    scaled = (values - lo) / (hi - lo) * bins
    idx = np.minimum(scaled.astype(np.int64), bins - 1)
    table = np.bincount(cats * bins + idx, minlength=len(CATEGORIES) * bins)
    counts = dict(zip(CATEGORIES, table.reshape(len(CATEGORIES), bins)))
    return HistogramReport(feature=feature, edges=edges, counts=counts)


def pearson_matrix(matrix: np.ndarray) -> CorrelationMatrix:
    """Pearson r per column pair from one product of the centered matrix,
    its upper triangle mirrored so the result is exactly symmetric; constant
    columns are masked as undefined rather than propagating NaN. The column
    moments are the standardizer's, so a column too large for them to be
    finite raises its KddParseError."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] < 2:
        raise ValueError("need at least 2 rows")
    moments = fit_standardizer(matrix)
    centered = matrix - moments.mu
    std = moments.sigma
    mask = std == 0
    # an infinite scale zeroes every pair with a constant column
    scale = np.where(mask, np.inf, std)
    r = (centered.T @ centered) / np.outer(matrix.shape[0] * scale, scale)
    upper = np.triu(np.clip(r, -1.0, 1.0), 1)
    out = upper + upper.T
    kept = np.flatnonzero(~mask)
    out[kept, kept] = 1.0
    return CorrelationMatrix(values=out, constant_mask=mask)


def scatter_rows(
    ds: LabeledDataset,
    feature_x: str,
    feature_y: str,
    cats: np.ndarray,
) -> list[tuple[str, str, str]]:
    """(x, y, category name) per record, each value spelled from its parsed
    column; ``cats`` is the per-row category id."""
    x, y = (spell_column(ds.column(INDEX[f])) for f in (feature_x, feature_y))
    return list(zip(x.tolist(), y.tolist(), np.take(CATEGORIES, cats).tolist()))


def scatter_csv(rows: list[tuple[str, str, str]], feature_x: str, feature_y: str) -> str:
    return "\n".join([f"{feature_x},{feature_y},category", *map(",".join, rows)]) + "\n"


def find_constant_features(ds: LabeledDataset) -> RedundancyReport:
    """Features whose parsed value never varies across the dataset; a
    categorical one is constant when its vocabulary has one entry."""
    found: list[tuple[str, str]] = []
    for j, name in enumerate(NAMES):
        if j in CATEGORICAL_INDICES:
            values = ds.vocab[CATEGORICAL_INDICES.index(j)]
            constant = len(values) == 1
        else:
            values = ds.column(j)
            constant = (values == values[0]).all()
        if constant:
            found.append((name, str(spell_column(values[:1])[0])))
    return RedundancyReport(constant_features=tuple(found))


DEFAULT_HISTOGRAM_FEATURES = (
    "protocol_type", "count", "serror_rate", "dst_host_srv_diff_host_rate",
)
DEFAULT_SCATTER_PAIRS = (
    ("dst_host_rerror_rate", "dst_host_diff_srv_rate"),
    ("count", "serror_rate"),
)


def exploration_files(
    ds: LabeledDataset,
    cats: np.ndarray,
    features: tuple[str, ...],
    scatter_pairs: tuple[tuple[str, str], ...],
    bins: int,
) -> dict[str, str]:
    """histograms/, correlation.csv, scatter_*.csv and redundancy.json, as
    ``{relative path: text}``. ``cats`` is the per-row category id, as from
    ``dataset.category_ids``."""
    # codes are fit on this dataset, which is encoded once for every export
    matrix = encode(fit_encoder(ds), ds)
    files = {f"histograms/{feature}.csv": histogram(matrix, cats, feature, bins=bins).to_csv()
             for feature in features}
    files["correlation.csv"] = pearson_matrix(matrix).to_csv(NAMES)
    for fx, fy in scatter_pairs:
        files[f"scatter_{fx}_{fy}.csv"] = scatter_csv(scatter_rows(ds, fx, fy, cats), fx, fy)
    files["redundancy.json"] = find_constant_features(ds).to_json() + "\n"
    return files
