"""Stage 2: supervised 4-way attack typing with an optional SVM-SMOTE step.

The network is 41 -> 80 (ReLU) -> 4 (softmax) with cross-entropy loss.
Class indices are fixed as DoS=0, Probe=1, R2L=2, U2R=3. Oversampling,
when requested, happens strictly after the train/validation split and
only on the training rows. The MLP baseline trains through the same
``train_network`` path and the same ``_stratified_split``, as a
41 -> 80 -> 2 network over the binary ids.
Rows are standardized (n, 41) float64 arrays and labels are arrays of
attack ids (see ``dataset``), row for row; only the training report names them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import neural
from .dataset import ATTACK_CATEGORIES
from .errors import InsufficientDataError, VersionSkewError, reading
from .resample import SvmSmoteConfig, svm_smote
from .schema import NAMES

CLASS_ORDER = ATTACK_CATEGORIES
CLASSIFIER_FORMAT_VERSION = 1


@dataclass(frozen=True)
class DnnConfig:
    input_dim: int = 41
    hidden_dim: int = 80
    output_dim: int = len(CLASS_ORDER)

    def layers(self) -> list[neural.LayerSpec]:
        return [
            neural.LayerSpec(self.input_dim, self.hidden_dim, "relu"),
            neural.LayerSpec(self.hidden_dim, self.output_dim, "softmax"),
        ]


@dataclass
class AttackClassifier:
    """The typer's network; output ``i`` scores attack id ``i``."""

    model: neural.MlpModel
    trained_with_oversampling: bool = False

    def to_json(self) -> str:
        return json.dumps(
            {
                "format_version": CLASSIFIER_FORMAT_VERSION,
                "kind": "classifier",
                "model": json.loads(self.model.to_json()),
                "class_order": list(CLASS_ORDER),
                "trained_with_oversampling": self.trained_with_oversampling,
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "AttackClassifier":
        """Raises VersionSkewError unless ``text`` maps 41 features to CLASS_ORDER."""
        with reading("classifier"):
            doc = json.loads(text)
            if doc.get("format_version") != CLASSIFIER_FORMAT_VERSION:
                raise VersionSkewError(
                    f"classifier format version {doc.get('format_version')!r} unsupported")
            model = neural.MlpModel.from_json(json.dumps(doc["model"]))
            if (model.in_dim, model.out_dim) != (len(NAMES), len(CLASS_ORDER)):
                raise ValueError(f"network maps {model.in_dim} inputs to {model.out_dim} "
                                 f"outputs, not {len(NAMES)} to {len(CLASS_ORDER)}")
            if doc["class_order"] != list(CLASS_ORDER):
                raise ValueError(f"class_order {doc['class_order']!r} is not {list(CLASS_ORDER)}")
            if not isinstance(doc["trained_with_oversampling"], bool):
                raise TypeError("trained_with_oversampling is not true or false")
            return cls(model=model, trained_with_oversampling=doc["trained_with_oversampling"])


def _n_validation(n: int, fraction: float) -> int:
    """Rows of an n-row class that the stratified split sends to validation."""
    return min(int(round(n * fraction)), n - 1)


def check_attack_counts(labels: np.ndarray, val_fraction: float, oversample: bool) -> None:
    """Raises InsufficientDataError unless the attack ids ``labels`` can train
    the typer: every category present and, when oversampling, each category that
    needs synthetics keeps at least 2 rows after the split (ValueError for an id
    outside CLASS_ORDER). The split's per-class sizes do not depend on its rng,
    so this holds before any row is drawn."""
    if ((labels < 0) | (labels >= len(CLASS_ORDER))).any():
        raise ValueError(f"labels outside the attack ids 0..{len(CLASS_ORDER) - 1}")
    counts = np.bincount(labels, minlength=len(CLASS_ORDER)).tolist()
    if not any(counts):
        raise InsufficientDataError("training data has no attack rows")
    missing = [c for c, n in zip(CLASS_ORDER, counts) if n == 0]
    if missing:
        raise InsufficientDataError(f"attack categories absent from training data: {missing}")
    kept = [n - _n_validation(n, val_fraction) for n in counts]
    short = [c for c, k in zip(CLASS_ORDER, kept) if k < min(2, max(kept))]
    if oversample and short:
        raise InsufficientDataError(
            f"attack categories with fewer than 2 training rows to oversample: {short}")


def _stratified_split(
    labels: np.ndarray, fraction: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """(train_idx, val_idx); per class id present, in ascending order, `fraction`
    of its rows go to validation (at least one stays in training)."""
    train_parts, val_parts = [], []
    for cls in np.flatnonzero(np.bincount(labels)):
        rows = np.nonzero(labels == cls)[0]
        perm = rng.permutation(rows.size)
        n_val = _n_validation(rows.size, fraction)
        val_parts.append(rows[perm[:n_val]])
        train_parts.append(rows[perm[n_val:]])
    return np.sort(np.concatenate(train_parts)), np.sort(np.concatenate(val_parts))


def train_network(
    data: np.ndarray,
    labels: np.ndarray,
    dnn: DnnConfig,
    tcfg: neural.TrainConfig,
    rng: np.random.Generator,
    validation: tuple[np.ndarray, np.ndarray],
) -> tuple[neural.MlpModel, neural.TrainHistory]:
    """Initialize the ``dnn`` network from ``rng`` and train it on one-hot
    targets of the class ids ``labels``, early-stopping on ``validation``, a
    (values, ids) pair drawn by ``_stratified_split`` (empty: the training rows)."""
    model = neural.init_model(dnn.layers(), rng)
    one_hot = np.eye(dnn.output_dim)  # row i: the target of class id i
    return neural.train(model, data, one_hot[labels], tcfg, rng,
                        validation=(validation[0], one_hot[validation[1]]))


def train_fourclass(
    values: np.ndarray,
    labels: np.ndarray,
    val_fraction: float,
    tcfg: neural.TrainConfig,
    rng: np.random.Generator,
    oversample: SvmSmoteConfig | None = None,
    dnn: DnnConfig = DnnConfig(),
) -> tuple[AttackClassifier, dict]:
    """Train on the attack rows ``values`` labelled by the attack ids
    ``labels``, ``val_fraction`` of each class held out for early stopping;
    returns (classifier, training info)."""
    check_attack_counts(labels, val_fraction, oversample is not None)

    train_idx, val_idx = _stratified_split(labels, val_fraction, rng)
    train_x, train_labels = values[train_idx], labels[train_idx]
    val_x, val_labels = values[val_idx], labels[val_idx]

    info: dict = {
        "class_counts_before": _named_counts(train_labels),
        "oversampled": oversample is not None,
    }
    if oversample is not None:
        resampled = svm_smote(train_x, train_labels, oversample)
        train_x, train_labels = resampled.values, resampled.labels
        info["class_counts_after"] = _named_counts(train_labels)
        info["resample_log"] = [f"class {CLASS_ORDER[c]}: {line}"
                                for c, line in resampled.log.items()]

    trained, history = train_network(
        train_x, train_labels, dnn, tcfg, rng, validation=(val_x, val_labels)
    )
    info["epochs"] = history.n_epochs
    info["best_epoch"] = history.best_epoch
    info["train_loss"] = history.train_loss
    info["val_loss"] = history.val_loss
    clf = AttackClassifier(model=trained, trained_with_oversampling=oversample is not None)
    return clf, info


def _named_counts(labels: np.ndarray) -> dict[str, int]:
    return dict(zip(CLASS_ORDER, np.bincount(labels, minlength=len(CLASS_ORDER)).tolist()))


def predict(clf: AttackClassifier, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(attack ids, probability matrix); argmax ties go to the lower id."""
    probs = neural.forward(clf.model, values)
    return np.argmax(probs, axis=1), probs
