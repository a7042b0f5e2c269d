"""Data-exploration exports: per-class histograms, Pearson correlations,
scatter pairs, and constant-feature detection. Everything is emitted as
plot-ready CSV/JSON, never rendered images."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import CATEGORIES, AttackTaxonomy, LabeledDataset, categories, spell_column
from .preprocess import fit_encoder, encode
from .schema import DEFAULT_SCHEMA


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


def _numeric_view(ds: LabeledDataset) -> np.ndarray:
    """Encoded matrix for exploration; codes are fit on this dataset."""
    return encode(fit_encoder(ds), ds)


def _feature_view(ds: LabeledDataset, feature: str) -> np.ndarray:
    """One column of the encoded matrix, without encoding the others."""
    j = DEFAULT_SCHEMA.index_of(feature)
    if j not in DEFAULT_SCHEMA.categorical_indices:
        return ds.column(j)
    k = DEFAULT_SCHEMA.categorical_indices.index(j)
    return fit_encoder(ds).encode_column(feature, ds.vocab[k], ds.codes[:, k])


def histogram(
    ds: LabeledDataset,
    cats: np.ndarray,
    feature: str,
    bins: int = 40,
) -> HistogramReport:
    """Uniform bins over the pooled [min, max]; the last bin is right-closed.
    ``cats`` is the per-row category, as from ``dataset.categories``."""
    if bins < 1:
        raise ValueError("bins must be >= 1")
    values = _feature_view(ds, feature)
    if values.size == 0:
        raise ValueError("empty dataset")
    lo, hi = float(values.min()), float(values.max())
    if hi == lo:
        hi = lo + 1.0
    edges = np.linspace(lo, hi, bins + 1)
    scaled = (values - lo) / (hi - lo) * bins
    idx = np.minimum(scaled.astype(np.int64), bins - 1)
    counts = {
        cat: np.bincount(idx[cats == cat], minlength=bins).astype(np.int64)
        for cat in CATEGORIES
    }
    return HistogramReport(feature=feature, edges=edges, counts=counts)


def pearson_matrix(matrix: np.ndarray) -> CorrelationMatrix:
    """Pearson r per column pair from one product of the centered matrix,
    its upper triangle mirrored so the result is exactly symmetric; constant
    columns are masked as undefined rather than propagating NaN."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] < 2:
        raise ValueError("need at least 2 rows")
    centered = matrix - matrix.mean(axis=0)
    std = matrix.std(axis=0)
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
    """(x, y, category) per record, each value spelled from its parsed
    column; ``cats`` is the per-row category."""
    x, y = (spell_column(ds.column(DEFAULT_SCHEMA.index_of(f))) for f in (feature_x, feature_y))
    return list(zip(x.tolist(), y.tolist(), cats.tolist()))


def scatter_csv(rows: list[tuple[str, str, str]], feature_x: str, feature_y: str) -> str:
    lines = [f"{feature_x},{feature_y},category"]
    lines += [",".join(r) for r in rows]
    return "\n".join(lines) + "\n"


def find_constant_features(ds: LabeledDataset) -> RedundancyReport:
    """Features whose parsed value never varies across the dataset."""
    found: list[tuple[str, str]] = []
    for e in DEFAULT_SCHEMA.entries:
        values = ds.column(e.index)
        if (values == values[0]).all():
            found.append((e.name, str(spell_column(values[:1])[0])))
    return RedundancyReport(constant_features=tuple(found))


DEFAULT_HISTOGRAM_FEATURES = (
    "protocol_type", "count", "serror_rate", "dst_host_srv_diff_host_rate",
)
DEFAULT_SCATTER_PAIRS = (
    ("dst_host_rerror_rate", "dst_host_diff_srv_rate"),
    ("count", "serror_rate"),
)


def write_exploration(
    ds: LabeledDataset,
    taxonomy: AttackTaxonomy,
    out_dir: str | Path,
    features: tuple[str, ...] = DEFAULT_HISTOGRAM_FEATURES,
    scatter_pairs: tuple[tuple[str, str], ...] = DEFAULT_SCATTER_PAIRS,
    bins: int = 40,
) -> list[Path]:
    """Emit histograms/, correlation.csv, scatter_*.csv and redundancy.json."""
    cats = categories(ds, taxonomy)
    out = Path(out_dir)
    (out / "histograms").mkdir(parents=True, exist_ok=True)
    written = []
    for feature in features:
        report = histogram(ds, cats, feature, bins=bins)
        path = out / "histograms" / f"{feature}.csv"
        path.write_text(report.to_csv())
        written.append(path)
    corr = pearson_matrix(_numeric_view(ds))
    path = out / "correlation.csv"
    path.write_text(corr.to_csv(DEFAULT_SCHEMA.names))
    written.append(path)
    for fx, fy in scatter_pairs:
        rows = scatter_rows(ds, fx, fy, cats)
        path = out / f"scatter_{fx}_{fy}.csv"
        path.write_text(scatter_csv(rows, fx, fy))
        written.append(path)
    path = out / "redundancy.json"
    path.write_text(find_constant_features(ds).to_json() + "\n")
    written.append(path)
    return written
