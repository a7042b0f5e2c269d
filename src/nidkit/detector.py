"""Stage 1: autoencoder anomaly detection on reconstruction error.

A 41-15-41 denoising autoencoder is trained on normal traffic only
(noisy forward pass, clean targets). A sample's anomaly score is the
squared Euclidean distance between the input and its reconstruction;
scores strictly above the calibrated threshold are verdicts of attack,
scores at or below it are normal.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import neural
from .dataset import ATTACK, NORMAL
from .errors import VersionSkewError
from .preprocess import FeatureMatrix

DETECTOR_FORMAT_VERSION = 1


@dataclass(frozen=True)
class AutoencoderConfig:
    input_dim: int = 41
    hidden_dim: int = 15
    activation: str = "selu"
    noise_sigma: float = 0.15
    dropout_rate: float = 0.05

    def __post_init__(self) -> None:
        if self.hidden_dim >= self.input_dim:
            raise ValueError("hidden_dim must compress: hidden_dim < input_dim")

    def layers(self) -> list[neural.LayerSpec]:
        # corruption on the encoding side only; linear reconstruction output
        return [
            neural.LayerSpec(
                self.input_dim, self.hidden_dim, self.activation,
                dropout_rate=self.dropout_rate, noise_sigma=self.noise_sigma,
            ),
            neural.LayerSpec(self.hidden_dim, self.input_dim, "identity"),
        ]


@dataclass
class AnomalyDetector:
    model: neural.MlpModel
    alpha: float
    calibration: dict

    def __post_init__(self) -> None:
        if not self.alpha > 0:
            raise ValueError("alpha must be > 0")

    def to_json(self) -> str:
        return json.dumps(
            {
                "format_version": DETECTOR_FORMAT_VERSION,
                "kind": "detector",
                "model": json.loads(self.model.to_json()),
                "alpha": self.alpha,
                "calibration": self.calibration,
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "AnomalyDetector":
        doc = json.loads(text)
        if doc.get("format_version") != DETECTOR_FORMAT_VERSION:
            raise VersionSkewError(
                f"detector format version {doc.get('format_version')!r} unsupported"
            )
        return cls(
            model=neural.MlpModel.from_json(json.dumps(doc["model"])),
            alpha=float(doc["alpha"]),
            calibration=doc["calibration"],
        )


def train_on_normal(
    normals: FeatureMatrix,
    cfg: AutoencoderConfig,
    tcfg: neural.TrainConfig,
    rng: np.random.Generator | None = None,
    validation: FeatureMatrix | None = None,
) -> tuple[neural.MlpModel, neural.TrainHistory]:
    """Train the autoencoder with inputs as targets; rejects attack rows."""
    for fm in (normals,) if validation is None else (normals, validation):
        bad = np.nonzero(fm.labels != NORMAL)[0]
        if bad.size:
            raise ValueError(f"non-normal row at index {bad[0]} (label {fm.labels[bad[0]]!r})")
    if rng is None:
        rng = np.random.default_rng(tcfg.seed)
    model = neural.init_model(cfg.layers(), rng)
    val = None if validation is None else (validation.values, validation.values)
    return neural.train(model, normals.values, normals.values, tcfg, rng, validation=val)


def reconstruction_errors(model: neural.MlpModel, batch: np.ndarray) -> np.ndarray:
    """Per-row squared L2 distance to the (noise- and dropout-free) reconstruction."""
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 2 or batch.shape[1] != model.in_dim:
        raise ValueError(f"batch width {batch.shape} does not match model input {model.in_dim}")
    recon, _ = neural.forward(model, batch)
    diff = batch - recon
    return (diff * diff).sum(axis=1)


def nearest_rank_quantile(values: np.ndarray, q: float) -> float:
    """Empirical quantile by the nearest-rank rule: sorted value at ceil(q*n)."""
    if not 0.0 < q <= 1.0:
        raise ValueError("q must be in (0, 1]")
    ordered = np.sort(np.asarray(values, dtype=np.float64))
    rank = max(1, math.ceil(q * ordered.size))
    return float(ordered[rank - 1])


def _best_f1_threshold(errors: np.ndarray, labels: np.ndarray) -> tuple[float, float]:
    """Scan observed errors as thresholds; return (alpha, f1) with
    positive = attack and the verdict rule error > alpha. Ties in F1 go
    to the smallest alpha."""
    order = np.argsort(errors, kind="stable")
    e = errors[order]
    is_attack = (labels[order] == ATTACK).astype(np.int64)
    total_attack = int(is_attack.sum())
    # after cutting at position i (alpha = e[i]): predictions are rows > i
    attack_up_to = np.cumsum(is_attack)
    n = e.size
    best_alpha, best_f1 = float(e[-1]), -1.0
    last_of_value = np.nonzero(np.r_[e[:-1] != e[1:], True])[0]
    for i in last_of_value:
        alpha = float(e[i])
        pred_attack = n - (i + 1)
        tp = total_attack - int(attack_up_to[i])
        fp = pred_attack - tp
        fn = total_attack - tp
        precision = tp / (tp + fp) if tp + fp > 0 else 0.0
        recall = tp / (tp + fn) if tp + fn > 0 else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
        if f1 > best_f1:
            best_f1, best_alpha = f1, alpha
    return best_alpha, best_f1


def calibrate_threshold(
    model: neural.MlpModel,
    validation: FeatureMatrix,
    method: str = "quantile",
    q: float = 0.95,
) -> tuple[float, dict]:
    """Pick alpha from validation reconstruction errors.

    quantile: alpha is the q-quantile (nearest rank) of the errors of
    the normal validation rows. labeled_f1: alpha maximizes attack-F1
    over the observed validation errors; needs both classes present.
    """
    if validation.n_rows == 0:
        raise ValueError("empty validation set")
    errors = reconstruction_errors(model, validation.values)
    if method == "quantile":
        normal_rows = validation.labels == NORMAL
        use = errors[normal_rows] if normal_rows.any() else errors
        alpha = nearest_rank_quantile(use, q)
        return alpha, {"method": "quantile", "q": q, "n_validation": int(use.size)}
    if method == "labeled_f1":
        present = set(np.unique(validation.labels))
        if not {NORMAL, ATTACK} <= present:
            raise ValueError("labeled_f1 calibration needs both normal and attack rows")
        alpha, f1 = _best_f1_threshold(errors, validation.labels)
        return alpha, {
            "method": "labeled_f1", "validation_f1": f1, "n_validation": int(errors.size),
        }
    raise ValueError(f"unknown calibration method {method!r}")


def verdict_array(det: AnomalyDetector, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(errors, verdicts) per row; strict inequality: error > alpha means attack."""
    errors = reconstruction_errors(det.model, values)
    verdicts = np.where(errors > det.alpha, ATTACK, NORMAL).astype(object)
    return errors, verdicts


def scores_to_csv(errors: np.ndarray, verdicts: np.ndarray) -> str:
    """One CSV row per error; Python float reprs are the shortest decimal
    strings that read back to the same float64."""
    rows = map("{},{!r},{}".format, range(len(errors)), errors.tolist(), verdicts.tolist())
    return "\n".join(["row_index,reconstruction_error,verdict", *rows]) + "\n"
