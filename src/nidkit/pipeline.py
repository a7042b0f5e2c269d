"""End-to-end orchestration for the two-stage hierarchy.

Stage 1 screens every connection with the autoencoder detector; rows
flagged as attacks flow into the stage-2 attack typer. Commands write
machine-readable artifacts (JSON/CSV) under one output directory and
are deterministic given (config, seed).
"""

from __future__ import annotations

import hashlib
import json
import logging
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import baselines as bl
from . import classifier as clf_mod
from . import detector as det_mod
from . import explore as explore_mod
from . import metrics as metrics_mod
from . import neural
from .dataset import (
    ATTACK,
    NORMAL,
    AttackTaxonomy,
    LabeledDataset,
    binary_labels,
    binary_of,
    categories,
    load_taxonomy,
    parse_kdd_file,
)
from .errors import InsufficientDataError, StaleArtifactError
from .preprocess import FeatureMatrix, FittedPipeline, fit_transform
from .resample import SmoteConfig, SvmSmoteConfig
from .schema import DEFAULT_SCHEMA

log = logging.getLogger("nidkit")

REPORT_FORMAT_VERSION = 1
BINARY_CLASS_ORDER = (NORMAL, ATTACK)

BASELINE_NAMES = (
    "decision_tree",
    "random_forest",
    "naive_bayes",
    "svm",
    "adaboost",
    "gradient_boosting",
    "mlp",
)

BASELINE_DISPLAY = {
    "decision_tree": "Decision Tree",
    "random_forest": "Random Forest",
    "naive_bayes": "Naive Bayes",
    "svm": "SVM",
    "adaboost": "AdaBoost",
    "gradient_boosting": "Gradient Boosting",
    "mlp": "MLP",
}


@dataclass(frozen=True)
class RunConfig:
    train_path: str | None = None
    test_path: str | None = None
    taxonomy_path: str | None = None
    out_dir: str = "out"
    seed: int = 0
    calibration: str = "quantile"  # quantile | labeled_f1
    calibration_q: float = 0.95
    oversample: str = "on"         # on | off | both
    max_epochs: int = 200
    batch_size: int = 32
    patience: int = 6
    val_fraction: float = 0.15
    baselines: tuple[str, ...] = BASELINE_NAMES
    histogram_bins: int = 40
    histogram_features: tuple[str, ...] = explore_mod.DEFAULT_HISTOGRAM_FEATURES
    scatter_pairs: tuple[tuple[str, str], ...] = explore_mod.DEFAULT_SCATTER_PAIRS

    def __post_init__(self) -> None:
        """Rejects a bad setting before a command reads or writes a file."""
        for name in ("seed", "max_epochs", "batch_size", "patience", "histogram_bins"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.calibration not in ("quantile", "labeled_f1"):
            raise ValueError(f"calibration must be quantile or labeled_f1, "
                             f"got {self.calibration!r}")
        if not 0.0 < self.calibration_q <= 1.0:
            raise ValueError(f"calibration_q must be in (0, 1], got {self.calibration_q!r}")
        if self.oversample not in ("on", "off", "both"):
            raise ValueError(f"oversample must be on, off or both, got {self.oversample!r}")
        if self.histogram_bins < 1:
            raise ValueError(f"histogram_bins must be >= 1, got {self.histogram_bins!r}")
        if any(len(pair) != 2 for pair in self.scatter_pairs):
            raise ValueError(f"each scatter pair names two features, got {self.scatter_pairs!r}")
        for name in (*self.histogram_features, *(f for pair in self.scatter_pairs for f in pair)):
            if name not in DEFAULT_SCHEMA.names:
                raise ValueError(f"unknown feature {name!r}")
        if not (isinstance(self.baselines, tuple)
                and all(name in BASELINE_NAMES for name in self.baselines)):
            raise ValueError(f"baselines must be a list drawn from {', '.join(BASELINE_NAMES)}; "
                             f"got {self.baselines!r}")
        self.train_config()

    def train_config(self) -> neural.TrainConfig:
        return neural.TrainConfig(
            batch_size=self.batch_size,
            val_fraction=self.val_fraction,
            patience=self.patience,
            max_epochs=self.max_epochs,
        )


def _out(cfg: RunConfig) -> Path:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _require(path: str | None, what: str) -> Path:
    if path is None:
        raise FileNotFoundError(f"missing required {what} path")
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"{what} file not found: {p}")
    return p


def _taxonomy(cfg: RunConfig) -> AttackTaxonomy:
    return load_taxonomy(cfg.taxonomy_path)


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _standardized_train(cfg: RunConfig, train_path: Path, train_ds: LabeledDataset) -> np.ndarray:
    """The training matrix through the pipeline.json in the output directory,
    fitting and writing that file first when it is absent.

    ``manifest.json`` beside it records the SHA-256 and row count of the
    train file it was fitted on; a pipeline.json whose manifest is missing
    or names another file is refused, never reused."""
    out = _out(cfg)
    path = out / "pipeline.json"
    manifest = {"train_rows": len(train_ds), "train_sha256": _sha256(train_path)}
    if path.exists():
        try:
            fitted_on = json.loads((out / "manifest.json").read_text())["train_sha256"]
        except (OSError, ValueError, KeyError, TypeError):
            fitted_on = None
        if fitted_on != manifest["train_sha256"]:
            why = "has no readable manifest.json" if fitted_on is None else (
                f"was fitted on a file with sha256 {fitted_on}")
            raise StaleArtifactError(
                f"{path} {why}, not on {train_path} (sha256 {manifest['train_sha256']}); "
                "use a fresh --out"
            )
        log.info("reusing fitted pipeline at %s", path)
        return FittedPipeline.from_json(path.read_text()).transform(train_ds)
    pipe, values = fit_transform(train_ds)
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    path.write_text(pipe.to_json() + "\n")
    log.info("fitted preprocessing pipeline -> %s", path)
    return values


@dataclass(frozen=True)
class TrainingSet:
    """The parsed training file, its per-row categories and its standardized
    matrix, shared by both training stages of one run."""

    ds: LabeledDataset
    categories: np.ndarray
    values: np.ndarray


def _detector_data(cfg: RunConfig, cats: np.ndarray) -> None:
    if not (cats == "Normal").any():
        raise InsufficientDataError("training data has no normal rows; cannot train the detector")


def _typer_data(cfg: RunConfig, cats: np.ndarray) -> None:
    clf_mod.check_attack_counts(cats, cfg.val_fraction, "oversampled" in _variants(cfg))


def load_training_set(cfg: RunConfig,
                      *checks: Callable[[RunConfig, np.ndarray], None]) -> TrainingSet:
    """Parse the train file and run each stage's ``checks`` on its
    categories before anything is written."""
    train_path = _require(cfg.train_path, "train")
    train = parse_kdd_file(train_path, split="train")
    # labels are checked before pipeline.json is written, so a rejected
    # file leaves no fitted state behind
    cats = categories(train, _taxonomy(cfg))
    for check in checks:
        check(cfg, cats)
    return TrainingSet(ds=train, categories=cats,
                       values=_standardized_train(cfg, train_path, train))


# --- commands ------------------------------------------------------------


def run_explore(cfg: RunConfig) -> list[Path]:
    train = parse_kdd_file(_require(cfg.train_path, "train"), split="train")
    taxonomy = _taxonomy(cfg)
    out = _out(cfg) / "explore"
    written = explore_mod.write_exploration(
        train, taxonomy, out,
        features=cfg.histogram_features,
        scatter_pairs=cfg.scatter_pairs,
        bins=cfg.histogram_bins,
    )
    log.info("wrote %d exploration files under %s", len(written), out)
    return written


def run_train_binary(cfg: RunConfig, training: TrainingSet | None = None) -> Path:
    t0 = time.perf_counter()
    if training is None:
        training = load_training_set(cfg, _detector_data)
    bin_labels = binary_of(training.categories)
    fm = FeatureMatrix(values=training.values, labels=bin_labels)

    ss = np.random.SeedSequence(cfg.seed)
    split_rng, ae_rng = [np.random.default_rng(s) for s in ss.spawn(2)]
    train_idx, val_idx = clf_mod._stratified_split(bin_labels, cfg.val_fraction, split_rng)
    train_part = fm.select(train_idx)
    val_part = fm.select(val_idx)
    normals_train = train_part.select(train_part.labels == NORMAL)
    normals_val = val_part.select(val_part.labels == NORMAL)
    if normals_val.n_rows == 0:
        # degenerate tiny input: fall back to the training normals so the
        # early-stopping and calibration sets are never empty
        log.warning("validation split holds no normal rows; calibrating on training normals")
        normals_val = normals_train

    model, history = det_mod.train_on_normal(
        normals_train, det_mod.AutoencoderConfig(), cfg.train_config(), ae_rng,
        validation=normals_val,
    )
    calib_set = normals_val if cfg.calibration == "quantile" else val_part
    alpha, calib = det_mod.calibrate_threshold(
        model, calib_set, method=cfg.calibration, q=cfg.calibration_q
    )
    det = det_mod.AnomalyDetector(model=model, alpha=alpha, calibration=calib)
    out = _out(cfg)
    (out / "detector.json").write_text(det.to_json() + "\n")
    report = {
        "alpha": alpha,
        "calibration": calib,
        "epochs": history.n_epochs,
        "best_epoch": history.best_epoch,
        "final_val_loss": history.val_loss[history.best_epoch],
        "train_loss": history.train_loss,
        "val_loss": history.val_loss,
        "n_train_normals": int(normals_train.n_rows),
        "n_val_rows": int(val_part.n_rows),
        "seconds": time.perf_counter() - t0,
    }
    (out / "train_binary_report.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    log.info("trained detector (alpha=%.6g, %d epochs) -> %s", alpha, history.n_epochs, out)
    return out / "detector.json"


def _variants(cfg: RunConfig) -> list[str]:
    if cfg.oversample == "both":
        return ["plain", "oversampled"]
    return ["oversampled" if cfg.oversample == "on" else "plain"]


def classifier_filename(variant: str) -> str:
    return f"classifier_{variant}.json"


def run_train_multiclass(cfg: RunConfig, training: TrainingSet | None = None) -> list[Path]:
    t0 = time.perf_counter()
    if training is None:
        training = load_training_set(cfg, _typer_data)
    cats = training.categories
    attack_rows = np.nonzero(cats != "Normal")[0]
    attacks = FeatureMatrix(values=training.values[attack_rows], labels=cats[attack_rows])

    out = _out(cfg)
    written: list[Path] = []
    info_all: dict[str, dict] = {}
    for variant in _variants(cfg):
        # same init/shuffle stream for both variants: the only difference
        # between them should be the oversampling step
        rng = np.random.default_rng(cfg.seed + 17)
        oversample = None
        if variant == "oversampled":
            oversample = SvmSmoteConfig(
                smote=SmoteConfig(seed=cfg.seed),
                svm=bl.LinearSvmConfig(seed=cfg.seed),
            )
        clf, info = clf_mod.train_fourclass(
            attacks,
            oversample=oversample,
            tcfg=cfg.train_config(),
            rng=rng,
        )
        path = out / classifier_filename(variant)
        path.write_text(clf.to_json() + "\n")
        info_all[variant] = info
        written.append(path)
        if oversample is not None:
            log.info("oversampled class counts: %s", info.get("class_counts_after"))
        log.info("trained %s classifier (%d epochs) -> %s", variant, info["epochs"], path)
    info_all["seconds"] = {"total": time.perf_counter() - t0}
    (out / "train_multiclass_report.json").write_text(
        json.dumps(info_all, indent=2, sort_keys=True) + "\n"
    )
    return written


def _binary_report(cm: metrics_mod.ConfusionMatrix) -> dict:
    attack_pos = metrics_mod.binary_metrics(cm, positive_class=ATTACK)
    normal_pos = metrics_mod.binary_metrics(cm, positive_class=NORMAL)
    return {
        "classes": list(BINARY_CLASS_ORDER),
        "confusion": cm.counts.tolist(),
        "attack_positive": attack_pos.to_dict(),
        "normal_positive": normal_pos.to_dict(),
    }


def run_evaluate(cfg: RunConfig) -> Path:
    """Score the test file with the artifacts in the output directory. Every
    input is read and checked, and every output computed, before the first
    write, so a refused run leaves the files of an earlier one untouched."""
    out = Path(cfg.out_dir)
    pipe = FittedPipeline.from_json(_require(str(out / "pipeline.json"), "pipeline").read_text())
    det = det_mod.AnomalyDetector.from_json(
        _require(str(out / "detector.json"), "detector").read_text()
    )
    classifiers = {
        variant: clf_mod.AttackClassifier.from_json(
            _require(str(out / classifier_filename(variant)), "classifier").read_text())
        for variant in _variants(cfg)
    }
    test = parse_kdd_file(_require(cfg.test_path, "test"), split="test")

    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    cats = categories(test, _taxonomy(cfg))
    true_bin = binary_of(cats)
    is_attack_true = true_bin == ATTACK
    if not is_attack_true.any():
        raise InsufficientDataError("test data has no attack rows; cannot evaluate stage 2")
    values = pipe.transform(test)
    timings["preprocess"] = time.perf_counter() - t0

    files: dict[str, str] = {}  # name -> text, written in this order at the end
    t0 = time.perf_counter()
    errors, verdicts = det_mod.verdict_array(det, values)
    timings["stage1"] = time.perf_counter() - t0
    files["scores.csv"] = det_mod.scores_to_csv(errors, verdicts)
    cm1 = metrics_mod.confusion(true_bin, verdicts, BINARY_CLASS_ORDER)
    stage1 = _binary_report(cm1)
    stage1["alpha"] = det.alpha
    stage1["calibration"] = det.calibration
    files["stage1_confusion.csv"] = cm1.to_csv()

    report: dict = {
        "format_version": REPORT_FORMAT_VERSION,
        "stage1": stage1,
        "stage2": {},
        "counts": {
            "test_rows": len(values),
            "stage1_predicted_attacks": int((verdicts == ATTACK).sum()),
        },
    }

    is_attack_pred = verdicts == ATTACK
    attack_labels = cats[is_attack_true]
    for variant, clf in classifiers.items():
        t0 = time.perf_counter()
        section: dict = {"trained_with_oversampling": clf.trained_with_oversampling}

        predicted, _ = clf_mod.predict(clf, values[is_attack_true])
        gt_report = metrics_mod.multiclass_report(attack_labels, predicted, clf.class_order)
        section["ground_truth"] = gt_report.to_dict()
        files[f"stage2_{variant}_groundtruth_confusion.csv"] = gt_report.confusion.to_csv()

        survivors = is_attack_true & is_attack_pred
        false_positive_normals = int((is_attack_pred & ~is_attack_true).sum())
        section["false_positive_normals"] = false_positive_normals
        surv_labels = attack_labels[is_attack_pred[is_attack_true]]
        if surv_labels.size:
            surv_pred, _ = clf_mod.predict(clf, values[survivors])
            surv_report = metrics_mod.multiclass_report(surv_labels, surv_pred, clf.class_order)
            section["survivors"] = surv_report.to_dict()
            files[f"stage2_{variant}_survivors_confusion.csv"] = surv_report.confusion.to_csv()
            surv_counts = {
                c: int((surv_pred == c).sum()) for c in clf.class_order
            }
        else:
            section["survivors"] = None
            surv_counts = {c: 0 for c in clf.class_order}
        dispositions = {"normal": int((verdicts == NORMAL).sum()),
                        "false_positive_normal": false_positive_normals, **surv_counts}
        section["dispositions"] = dispositions
        if sum(dispositions.values()) != len(values):
            raise RuntimeError("disposition counts do not conserve the test rows")
        timings[f"stage2_{variant}"] = time.perf_counter() - t0
        report["stage2"][variant] = section

    report["timings_seconds"] = timings
    files["report.json"] = json.dumps(report, indent=2, sort_keys=True) + "\n"
    for name, text in files.items():
        (out / name).write_text(text)
    log.info(
        "stage1 accuracy %.4f / f1 %.4f; %d predicted attacks of %d rows",
        stage1["attack_positive"]["accuracy"], stage1["attack_positive"]["f1"],
        report["counts"]["stage1_predicted_attacks"], len(values),
    )
    return out / "report.json"


def _fit_baseline(name: str, data: np.ndarray, labels: np.ndarray, cfg: RunConfig):
    """Returns a predict(values) -> label array callable; ``name`` is one of
    BASELINE_NAMES (``RunConfig`` checks)."""
    if name == "decision_tree":
        model = bl.fit_tree(data, labels)
        return model.predict
    if name == "random_forest":
        model = bl.fit_forest(data, labels, bl.ForestConfig(seed=cfg.seed))
        return model.predict
    if name == "naive_bayes":
        model = bl.fit_gnb(data, labels)
        return model.predict
    if name == "svm":
        y = np.where(labels == ATTACK, 1.0, -1.0)
        model = bl.fit_linear_svm(data, y, bl.LinearSvmConfig(seed=cfg.seed))

        def svm_predict(values: np.ndarray) -> np.ndarray:
            return np.where(model.predict(values) > 0, ATTACK, NORMAL).astype(object)

        return svm_predict
    if name == "adaboost":
        model = bl.fit_adaboost(data, labels)
        return model.predict
    if name == "gradient_boosting":
        model = bl.fit_gradient_boost(data, labels)
        return model.predict
    if name == "mlp":
        # the stage-2 network, 41-80-2 over the sorted binary labels
        classes = tuple(np.unique(labels))
        model, _ = clf_mod.train_network(
            data, labels, classes,
            clf_mod.DnnConfig(input_dim=data.shape[1], output_dim=len(classes)),
            cfg.train_config(), np.random.default_rng(cfg.seed + 29),
        )
        net = clf_mod.AttackClassifier(model=model, class_order=classes)
        return lambda values: clf_mod.predict(net, values)[0]


def run_baselines(cfg: RunConfig) -> Path:
    train = parse_kdd_file(_require(cfg.train_path, "train"), split="train")
    test = parse_kdd_file(_require(cfg.test_path, "test"), split="test")
    taxonomy = _taxonomy(cfg)
    pipe, train_values = fit_transform(train)
    test_values = pipe.transform(test)
    y_train = binary_labels(train, taxonomy)
    y_test = binary_labels(test, taxonomy)

    rows = []
    details: dict[str, dict] = {}
    for name in cfg.baselines:
        t0 = time.perf_counter()
        predictor = _fit_baseline(name, train_values, y_train, cfg)
        predicted = predictor(test_values)
        seconds = time.perf_counter() - t0
        cm = metrics_mod.confusion(y_test, predicted, BINARY_CLASS_ORDER)
        attack_pos = metrics_mod.binary_metrics(cm, positive_class=ATTACK)
        rows.append(
            (BASELINE_DISPLAY[name], attack_pos.accuracy, attack_pos.precision,
             attack_pos.recall, attack_pos.f1)
        )
        details[name] = _binary_report(cm)
        details[name]["seconds"] = seconds
        log.info("%s: accuracy %.4f f1 %.4f (%.1fs)", BASELINE_DISPLAY[name],
                 attack_pos.accuracy, attack_pos.f1, seconds)

    out = _out(cfg)
    lines = ["model,accuracy,precision,recall,f1"]
    for display, acc, prec, rec, f1 in rows:
        lines.append(f"{display},{acc:.4f},{prec:.4f},{rec:.4f},{f1:.4f}")
    csv_path = out / "baselines.csv"
    csv_path.write_text("\n".join(lines) + "\n")
    (out / "baselines.json").write_text(json.dumps(details, indent=2, sort_keys=True) + "\n")
    return csv_path


def run_pipeline(cfg: RunConfig) -> Path:
    training = load_training_set(cfg, _detector_data, _typer_data)
    run_train_binary(cfg, training)
    run_train_multiclass(cfg, training)
    return run_evaluate(cfg)
