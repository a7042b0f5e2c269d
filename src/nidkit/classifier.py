"""Stage 2: supervised 4-way attack typing with an optional SVM-SMOTE step.

The network is 41 -> 80 (ReLU) -> 4 (softmax) with cross-entropy loss.
Class indices are fixed as DoS=0, Probe=1, R2L=2, U2R=3. Oversampling,
when requested, happens strictly after the train/validation split and
only on the training rows. The MLP baseline trains through the same
``train_network`` path, as a 41 -> 80 -> 2 network over the binary labels.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import neural
from .errors import VersionSkewError
from .preprocess import FeatureMatrix
from .resample import SvmSmoteConfig, svm_smote

CLASS_ORDER = ("DoS", "Probe", "R2L", "U2R")
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
    model: neural.MlpModel
    class_order: tuple[str, ...] = CLASS_ORDER
    trained_with_oversampling: bool = False

    def to_json(self) -> str:
        return json.dumps(
            {
                "format_version": CLASSIFIER_FORMAT_VERSION,
                "kind": "classifier",
                "model": json.loads(self.model.to_json()),
                "class_order": list(self.class_order),
                "trained_with_oversampling": self.trained_with_oversampling,
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "AttackClassifier":
        doc = json.loads(text)
        if doc.get("format_version") != CLASSIFIER_FORMAT_VERSION:
            raise VersionSkewError(
                f"classifier format version {doc.get('format_version')!r} unsupported"
            )
        return cls(
            model=neural.MlpModel.from_json(json.dumps(doc["model"])),
            class_order=tuple(doc["class_order"]),
            trained_with_oversampling=bool(doc["trained_with_oversampling"]),
        )


def _one_hot(labels: np.ndarray, class_order: tuple[str, ...]) -> np.ndarray:
    """(n, k) float64 indicator of each row's class in ``class_order``."""
    hits = np.asarray(labels, dtype=object)[:, None] == np.array(class_order, dtype=object)
    if not hits.any(axis=1).all():
        raise KeyError(f"label outside {class_order}")
    return hits.astype(np.float64)


def _stratified_split(
    labels: np.ndarray, fraction: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """(train_idx, val_idx); per class, `fraction` of rows go to validation
    (at least one stays in training)."""
    train_parts, val_parts = [], []
    for cls in np.unique(labels):
        rows = np.nonzero(labels == cls)[0]
        perm = rng.permutation(rows.size)
        n_val = min(int(round(rows.size * fraction)), rows.size - 1)
        val_parts.append(rows[perm[:n_val]])
        train_parts.append(rows[perm[n_val:]])
    return np.sort(np.concatenate(train_parts)), np.sort(np.concatenate(val_parts))


def train_network(
    data: np.ndarray,
    labels: np.ndarray,
    class_order: tuple[str, ...],
    dnn: DnnConfig,
    tcfg: neural.TrainConfig,
    rng: np.random.Generator,
    validation: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[neural.MlpModel, neural.TrainHistory]:
    """Initialize the ``dnn`` network from ``rng`` and train it on one-hot
    targets over ``class_order``. ``validation`` is a (values, labels)
    pair; without it ``neural.train`` splits off its own validation rows."""
    model = neural.init_model(dnn.layers(), rng)
    val = None if validation is None else (validation[0], _one_hot(validation[1], class_order))
    return neural.train(model, data, _one_hot(labels, class_order), tcfg, rng, validation=val)


def train_fourclass(
    attacks: FeatureMatrix,
    tcfg: neural.TrainConfig,
    rng: np.random.Generator,
    oversample: SvmSmoteConfig | None = None,
    dnn: DnnConfig = DnnConfig(),
) -> tuple[AttackClassifier, dict]:
    """Train on ground-truth attack rows; returns (classifier, training info)."""
    labels = attacks.labels
    unknown = set(np.unique(labels)) - set(CLASS_ORDER)
    if unknown:
        raise ValueError(f"labels outside the four attack categories: {sorted(unknown)}")
    missing = [c for c in CLASS_ORDER if c not in set(labels)]
    if missing:
        raise ValueError(f"attack categories absent from training data: {missing}")

    train_idx, val_idx = _stratified_split(labels, tcfg.val_fraction, rng)
    train_x, train_labels = attacks.values[train_idx], labels[train_idx]
    if val_idx.size == 0:
        val_x, val_labels = train_x, train_labels
    else:
        val_x, val_labels = attacks.values[val_idx], labels[val_idx]

    info: dict = {
        "class_counts_before": {c: int((train_labels == c).sum()) for c in CLASS_ORDER},
        "oversampled": oversample is not None,
    }
    if oversample is not None:
        resampled = svm_smote(FeatureMatrix(values=train_x, labels=train_labels), oversample)
        train_x = resampled.matrix.values
        train_labels = resampled.matrix.labels
        info["class_counts_after"] = resampled.class_counts()
        info["resample_log"] = list(resampled.log)

    trained, history = train_network(
        train_x, train_labels, CLASS_ORDER, dnn, tcfg, rng, validation=(val_x, val_labels)
    )
    info["epochs"] = history.n_epochs
    info["best_epoch"] = history.best_epoch
    info["train_loss"] = history.train_loss
    info["val_loss"] = history.val_loss
    clf = AttackClassifier(
        model=trained,
        class_order=CLASS_ORDER,
        trained_with_oversampling=oversample is not None,
    )
    return clf, info


def predict(clf: AttackClassifier, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(categories, probability matrix); argmax ties go to the lower class index."""
    probs, _ = neural.forward(clf.model, values)
    cats = np.array(clf.class_order, dtype=object)[np.argmax(probs, axis=1)]
    return cats, probs
