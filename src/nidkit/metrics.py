"""Confusion matrices, accuracy/precision/recall/F1, macro and weighted averages.

Degenerate 0/0 ratios resolve to 0 throughout, so absent classes never
inflate a score. ``micro_f1`` here is the support-weighted mean of
per-class F1 scores; for single-label data the conventional pooled-counts
micro-F1 equals :func:`accuracy`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ConfusionMatrix:
    counts: np.ndarray        # (k, k) int64, rows = true, cols = predicted
    classes: tuple[str, ...]

    def __post_init__(self) -> None:
        k = len(self.classes)
        if self.counts.shape != (k, k):
            raise ValueError(f"counts shape {self.counts.shape} does not match {k} classes")
        if (self.counts < 0).any():
            raise ValueError("negative counts")

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def to_csv(self) -> str:
        header = "true\\pred," + ",".join(self.classes)
        rows = [
            f"{cls}," + ",".join(str(int(v)) for v in self.counts[i])
            for i, cls in enumerate(self.classes)
        ]
        return "\n".join([header, *rows]) + "\n"


@dataclass(frozen=True)
class BinaryMetrics:
    accuracy: float
    precision: float
    recall: float
    f1: float
    tp: int
    tn: int
    fp: int
    fn: int

    def to_dict(self) -> dict:
        return {
            "accuracy": self.accuracy, "precision": self.precision,
            "recall": self.recall, "f1": self.f1,
            "tp": self.tp, "tn": self.tn, "fp": self.fp, "fn": self.fn,
        }


@dataclass(frozen=True)
class MulticlassReport:
    confusion: ConfusionMatrix
    per_class_f1: dict[str, float]
    macro_f1: float
    micro_f1: float
    accuracy: float

    def to_dict(self) -> dict:
        return {
            "classes": list(self.confusion.classes),
            "confusion": self.confusion.counts.tolist(),
            "per_class_f1": dict(self.per_class_f1),
            "macro_f1": self.macro_f1,
            "micro_f1": self.micro_f1,
            "accuracy": self.accuracy,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def confusion(true_labels, predicted_labels, class_order) -> ConfusionMatrix:
    true_labels = np.asarray(true_labels, dtype=object)
    predicted_labels = np.asarray(predicted_labels, dtype=object)
    if len(true_labels) != len(predicted_labels):
        raise ValueError("label vectors differ in length")
    if len(true_labels) == 0:
        raise ValueError("empty input")
    classes = np.array(class_order, dtype=object)
    true_hits = true_labels[:, None] == classes
    pred_hits = predicted_labels[:, None] == classes
    bad = ~(true_hits.any(axis=1) & pred_hits.any(axis=1))
    if bad.any():
        row = int(np.argmax(bad))
        if not true_hits[row].any():
            raise ValueError(f"unknown true label {true_labels[row]!r}")
        raise ValueError(f"unknown predicted label {predicted_labels[row]!r}")
    k = len(class_order)
    cells = true_hits.argmax(axis=1) * k + pred_hits.argmax(axis=1)
    counts = np.bincount(cells, minlength=k * k).astype(np.int64).reshape(k, k)
    return ConfusionMatrix(counts=counts, classes=tuple(class_order))


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def f1_score(precision: float, recall: float) -> float:
    """Harmonic mean of precision and recall; 0 when both vanish."""
    return _ratio(2.0 * precision * recall, precision + recall)


def binary_metrics(cm: ConfusionMatrix, positive_class: str) -> BinaryMetrics:
    if len(cm.classes) != 2:
        raise ValueError(f"need a 2x2 confusion matrix, got {len(cm.classes)} classes")
    p = cm.classes.index(positive_class)
    n = 1 - p
    tp = int(cm.counts[p, p])
    tn = int(cm.counts[n, n])
    fp = int(cm.counts[n, p])
    fn = int(cm.counts[p, n])
    precision = _ratio(tp, tp + fp)
    recall = _ratio(tp, tp + fn)
    return BinaryMetrics(
        accuracy=_ratio(tp + tn, tp + tn + fp + fn),
        precision=precision,
        recall=recall,
        f1=f1_score(precision, recall),
        tp=tp, tn=tn, fp=fp, fn=fn,
    )


def per_class_f1(cm: ConfusionMatrix) -> dict[str, float]:
    """One-vs-all F1 per class: TP on the diagonal, FP/FN from column/row sums."""
    if len(cm.classes) < 2:
        raise ValueError("need at least 2 classes")
    col = cm.counts.sum(axis=0)
    row = cm.counts.sum(axis=1)
    out: dict[str, float] = {}
    for i, cls in enumerate(cm.classes):
        tp = int(cm.counts[i, i])
        fp = int(col[i]) - tp
        fn = int(row[i]) - tp
        out[cls] = f1_score(_ratio(tp, tp + fp), _ratio(tp, tp + fn))
    return out


def macro_micro(per_class: dict[str, float], supports: dict[str, int]) -> tuple[float, float]:
    """(unweighted mean, support-weighted mean) of per-class F1 scores."""
    if set(per_class) != set(supports):
        raise ValueError("per-class scores and supports name different classes")
    total = sum(supports.values())
    if total <= 0:
        raise ValueError("zero total support")
    macro = sum(per_class.values()) / len(per_class)
    micro = sum(per_class[c] * supports[c] for c in per_class) / total
    return macro, micro


def accuracy(cm: ConfusionMatrix) -> float:
    return _ratio(float(np.trace(cm.counts)), float(cm.counts.sum()))


def multiclass_report(true_labels, predicted_labels, class_order) -> MulticlassReport:
    cm = confusion(true_labels, predicted_labels, class_order)
    pcf = per_class_f1(cm)
    supports = {c: int(cm.counts[i].sum()) for i, c in enumerate(cm.classes)}
    macro, micro = macro_micro(pcf, supports)
    return MulticlassReport(
        confusion=cm, per_class_f1=pcf, macro_f1=macro, micro_f1=micro, accuracy=accuracy(cm)
    )
