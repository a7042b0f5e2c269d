"""Stage 1: autoencoder anomaly detection on reconstruction error.

A 41-15-41 denoising autoencoder is trained on normal traffic only
(noisy forward pass, clean targets). A sample's anomaly score is the
squared Euclidean distance between the input and its reconstruction;
scores strictly above the calibrated threshold are verdicts of attack,
scores at or below it are normal. Rows are standardized (n, 41) float64
arrays, and labels and verdicts are arrays of binary ids (see ``dataset``);
``scores.csv`` spells the verdicts.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import neural
from .dataset import ATTACK_ID, BINARY_CLASSES, NORMAL_ID
from .errors import VersionSkewError, reading
from .schema import NAMES

DETECTOR_FORMAT_VERSION = 1

# The paper's encoder: SeLU, with Gaussian input noise and dropout on its input.
ENCODER_ACTIVATION = "selu"
NOISE_SIGMA = 0.15
DROPOUT_RATE = 0.05


@dataclass(frozen=True)
class AutoencoderConfig:
    input_dim: int = 41
    hidden_dim: int = 15

    def __post_init__(self) -> None:
        if self.hidden_dim >= self.input_dim:
            raise ValueError("hidden_dim must compress: hidden_dim < input_dim")

    def layers(self) -> list[neural.LayerSpec]:
        # corruption on the encoding side only; linear reconstruction output
        return [
            neural.LayerSpec(
                self.input_dim, self.hidden_dim, ENCODER_ACTIVATION,
                dropout_rate=DROPOUT_RATE, noise_sigma=NOISE_SIGMA,
            ),
            neural.LayerSpec(self.hidden_dim, self.input_dim, "identity"),
        ]


@dataclass
class AnomalyDetector:
    model: neural.MlpModel
    alpha: float
    calibration: dict

    def __post_init__(self) -> None:
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError(f"alpha must be a finite number > 0, got {self.alpha!r}")

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
        """Raises VersionSkewError unless ``text`` maps 41 features back to 41."""
        with reading("detector"):
            doc = json.loads(text)
            if doc.get("format_version") != DETECTOR_FORMAT_VERSION:
                raise VersionSkewError(
                    f"detector format version {doc.get('format_version')!r} unsupported")
            model = neural.MlpModel.from_json(json.dumps(doc["model"]))
            width = len(NAMES)
            if (model.in_dim, model.out_dim) != (width, width):
                raise ValueError(f"network maps {model.in_dim} inputs to {model.out_dim} "
                                 f"outputs, not {width} to {width}")
            alpha, calibration = doc["alpha"], doc["calibration"]
            if (isinstance(alpha, bool) or not isinstance(alpha, (int, float))
                    or not isinstance(calibration, dict)):
                raise TypeError("alpha must be a number and calibration an object")
            return cls(model=model, alpha=float(alpha), calibration=calibration)


def train_on_normal(
    normals: np.ndarray,
    cfg: AutoencoderConfig,
    tcfg: neural.TrainConfig,
    rng: np.random.Generator,
    validation: np.ndarray,
) -> tuple[neural.MlpModel, neural.TrainHistory]:
    """Train the autoencoder with inputs as targets on the normal rows
    ``normals``, early-stopping on the reconstruction of the normal rows
    ``validation``; the caller selects both by binary id."""
    model = neural.init_model(cfg.layers(), rng)
    return neural.train(model, normals, normals, tcfg, rng, validation=(validation, validation))


def reconstruction_errors(model: neural.MlpModel, batch: np.ndarray) -> np.ndarray:
    """Per-row squared L2 distance to the (noise- and dropout-free)
    reconstruction. A row too far off for its square to be finite scores
    inf, which every threshold calls an attack."""
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 2 or batch.shape[1] != model.in_dim:
        raise ValueError(f"batch width {batch.shape} does not match model input {model.in_dim}")
    recon = neural.forward(model, batch)
    diff = batch - recon
    with np.errstate(over="ignore"):
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
    is_attack = (labels[order] == ATTACK_ID).astype(np.int64)
    total_attack = int(is_attack.sum())
    # cutting at the last position i of each distinct value (alpha = e[i])
    # predicts attack for the rows after i
    last_of_value = np.nonzero(np.r_[e[:-1] != e[1:], True])[0]
    tp = total_attack - np.cumsum(is_attack)[last_of_value]
    fp = (e.size - (last_of_value + 1)) - tp
    fn = total_attack - tp
    precision = np.divide(tp, tp + fp, out=np.zeros(tp.size), where=tp + fp > 0)
    recall = np.divide(tp, tp + fn, out=np.zeros(tp.size), where=tp + fn > 0)
    f1 = np.divide(2 * precision * recall, precision + recall, out=np.zeros(tp.size),
                   where=precision + recall > 0)
    best = int(np.argmax(f1))  # first maximum: the smallest alpha
    return float(e[last_of_value[best]]), float(f1[best])


def calibrate_threshold(
    model: neural.MlpModel,
    values: np.ndarray,
    labels: np.ndarray,
    method: str,
    q: float,
) -> tuple[float, dict]:
    """Pick alpha from the reconstruction errors of the validation rows
    ``values``, whose binary ids are ``labels``.

    quantile: alpha is the q-quantile (nearest rank) of the errors of
    the normal validation rows. labeled_f1: alpha maximizes attack-F1
    over the observed validation errors; needs both classes present.
    """
    if len(values) == 0:
        raise ValueError("empty validation set")
    errors = reconstruction_errors(model, values)
    normal_rows = labels == NORMAL_ID
    if method == "quantile":
        use = errors[normal_rows] if normal_rows.any() else errors
        alpha = nearest_rank_quantile(use, q)
        return alpha, {"method": "quantile", "q": q, "n_validation": int(use.size)}
    if method == "labeled_f1":
        if normal_rows.all() or not normal_rows.any():
            raise ValueError("labeled_f1 calibration needs both normal and attack rows")
        alpha, f1 = _best_f1_threshold(errors, labels)
        return alpha, {
            "method": "labeled_f1", "validation_f1": f1, "n_validation": int(errors.size),
        }
    raise ValueError(f"unknown calibration method {method!r}")


def verdict_array(det: AnomalyDetector, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(errors, verdicts) per row, each verdict a binary id; strict inequality:
    error > alpha means attack."""
    errors = reconstruction_errors(det.model, values)
    return errors, np.where(errors > det.alpha, ATTACK_ID, NORMAL_ID)


def scores_to_csv(errors: np.ndarray, verdicts: np.ndarray) -> str:
    """One CSV row per error and verdict name; Python float reprs are the
    shortest decimal strings that read back to the same float64."""
    names = np.take(BINARY_CLASSES, verdicts).tolist()
    rows = map("{},{!r},{}".format, range(len(errors)), errors.tolist(), names)
    return "\n".join(["row_index,reconstruction_error,verdict", *rows]) + "\n"
