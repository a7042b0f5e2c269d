"""End-to-end orchestration for the two-stage hierarchy.

Stage 1 screens every connection with the autoencoder detector; rows
flagged as attacks flow into the stage-2 attack typer. Commands write
machine-readable artifacts (JSON/CSV) under one output directory and
are deterministic given (config, seed).

Every command loads, checks, computes and writes, in that order. ``_load``
parses one input file and gives each row its category id; labels stay
integer ids (see ``dataset``) up to the files written. Each stage's data
rule is one check on what was loaded, so input a stage cannot use fails
before the first write. ``pipeline`` loads and checks the train and the
test file, then runs the two training stages and evaluate over those
parsed files; evaluate reads the artifacts back from the output directory.
"""

from __future__ import annotations

import hashlib
import json
import logging
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import baselines as bl
from . import classifier as clf_mod
from . import detector as det_mod
from . import explore as explore_mod
from . import metrics as metrics_mod
from . import neural
from .dataset import (ATTACK, ATTACK_ID, BINARY_CLASSES, NORMAL, NORMAL_CATEGORY, NORMAL_ID,
                      LabeledDataset, category_ids, load_taxonomy, parse_kdd_file)
from .errors import InsufficientDataError, StaleArtifactError
from .preprocess import FittedPipeline, fit_transform
from .resample import SmoteConfig, SvmSmoteConfig
from .schema import INDEX

log = logging.getLogger("nidkit")

REPORT_FORMAT_VERSION = 1
BINARY_CLASS_ORDER = BINARY_CLASSES[::-1]  # reports lay the binary classes out normal first

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
        for name in ("calibration_q", "val_fraction"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ValueError(f"{name} must be a number, got {value!r}")
        if not 0.0 < self.val_fraction < 1.0:
            raise ValueError(f"val_fraction must be in (0, 1), got {self.val_fraction!r}")
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
            if name not in INDEX:
                raise ValueError(f"unknown feature {name!r}")
        if not (isinstance(self.baselines, tuple)
                and all(name in BASELINE_NAMES for name in self.baselines)):
            raise ValueError(f"baselines must be a list drawn from {', '.join(BASELINE_NAMES)}; "
                             f"got {self.baselines!r}")
        self.train_config()

    def train_config(self) -> neural.TrainConfig:
        return neural.TrainConfig(
            batch_size=self.batch_size,
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


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _load(cfg: RunConfig, split: str) -> tuple[LabeledDataset, np.ndarray]:
    """The train or test file named in ``cfg``, parsed once, and the category
    id of each of its rows; an unknown attack name fails here."""
    path = _require(cfg.train_path if split == "train" else cfg.test_path, split)
    ds = parse_kdd_file(path, split=split)
    return ds, category_ids(ds, load_taxonomy(cfg.taxonomy_path))


def _binary_ids(cats: np.ndarray) -> np.ndarray:
    """The binary id of each category id: NORMAL_ID for Normal, else ATTACK_ID."""
    return (cats == NORMAL_CATEGORY).astype(np.intp)


def _attack_ids(cats: np.ndarray) -> np.ndarray:
    """The attack id of each attack row, in row order."""
    return cats[cats != NORMAL_CATEGORY] - 1


def _binary_confusion(true: np.ndarray, predicted: np.ndarray) -> metrics_mod.ConfusionMatrix:
    """Confusion of binary ids, laid out as BINARY_CLASS_ORDER, which ``1 - id`` indexes."""
    return metrics_mod.confusion(1 - true, 1 - predicted, BINARY_CLASS_ORDER)


# --- data checks: each stage's rule, run before the command's first write ----


def _detector_data(cats: np.ndarray) -> None:
    if not (cats == NORMAL_CATEGORY).any():
        raise InsufficientDataError("training data has no normal rows; cannot train the detector")


def _typer_data(cfg: RunConfig, cats: np.ndarray) -> None:
    oversample = "oversampled" in _variants(cfg)
    clf_mod.check_attack_counts(_attack_ids(cats), cfg.val_fraction, oversample)


def _test_data(cats: np.ndarray) -> None:
    if (cats == NORMAL_CATEGORY).all():
        raise InsufficientDataError("test data has no attack rows; cannot evaluate stage 2")


def _baseline_data(cats: np.ndarray) -> None:
    normal = cats == NORMAL_CATEGORY
    if normal.all() or not normal.any():
        raise InsufficientDataError(
            "training data needs both normal and attack rows to fit the baselines")


def _explore_data(ds: LabeledDataset) -> None:
    if len(ds) < 2:
        raise InsufficientDataError("training data has fewer than 2 rows; cannot correlate features")


def _standardized_train(cfg: RunConfig, train_ds: LabeledDataset) -> np.ndarray:
    """The training matrix through the pipeline.json in the output directory,
    fitting and writing that file first when it is absent.

    ``manifest.json`` beside it records the SHA-256 and row count of the
    train file it was fitted on; a pipeline.json whose manifest is missing
    or names another file is refused, never reused."""
    train_path = Path(cfg.train_path)
    path = Path(cfg.out_dir) / "pipeline.json"
    manifest = {"train_rows": len(train_ds), "train_sha256": _sha256(train_path)}
    if path.exists():
        try:
            fitted_on = json.loads((path.parent / "manifest.json").read_text())["train_sha256"]
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
    pipe, values = fit_transform(train_ds)  # fitted first: a refused fit writes nothing
    out = _out(cfg)
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    path.write_text(pipe.to_json() + "\n")
    log.info("fitted preprocessing pipeline -> %s", path)
    return values


# --- commands: load, check, compute, write ------------------------------------


def run_explore(cfg: RunConfig) -> list[Path]:
    train, cats = _load(cfg, "train")
    _explore_data(train)
    out = _out(cfg) / "explore"
    written = explore_mod.write_exploration(
        train, cats, out,
        features=cfg.histogram_features,
        scatter_pairs=cfg.scatter_pairs,
        bins=cfg.histogram_bins,
    )
    log.info("wrote %d exploration files under %s", len(written), out)
    return written


def run_train_binary(cfg: RunConfig) -> Path:
    train, cats = _load(cfg, "train")
    _detector_data(cats)
    return _train_binary(cfg, cats, _standardized_train(cfg, train))


def _train_binary(cfg: RunConfig, cats: np.ndarray, values: np.ndarray) -> Path:
    t0 = time.perf_counter()
    bin_ids = _binary_ids(cats)

    ss = np.random.SeedSequence(cfg.seed)
    split_rng, ae_rng = [np.random.default_rng(s) for s in ss.spawn(2)]
    train_idx, val_idx = clf_mod._stratified_split(bin_ids, cfg.val_fraction, split_rng)
    normal_train_idx = train_idx[bin_ids[train_idx] == NORMAL_ID]
    normal_val_idx = val_idx[bin_ids[val_idx] == NORMAL_ID]
    if normal_val_idx.size == 0:
        # degenerate tiny input: fall back to the training normals so the
        # early-stopping and calibration sets are never empty
        log.warning("validation split holds no normal rows; calibrating on training normals")
        normal_val_idx = normal_train_idx
    normals_train, normals_val = values[normal_train_idx], values[normal_val_idx]

    model, history = det_mod.train_on_normal(
        normals_train, det_mod.AutoencoderConfig(), cfg.train_config(), ae_rng,
        validation=normals_val,
    )
    calib_idx = normal_val_idx if cfg.calibration == "quantile" else val_idx
    alpha, calib = det_mod.calibrate_threshold(
        model, values[calib_idx], bin_ids[calib_idx], method=cfg.calibration, q=cfg.calibration_q
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
        "n_train_normals": len(normal_train_idx),
        "n_val_rows": len(val_idx),
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


def run_train_multiclass(cfg: RunConfig) -> list[Path]:
    train, cats = _load(cfg, "train")
    _typer_data(cfg, cats)
    return _train_multiclass(cfg, cats, _standardized_train(cfg, train))


def _train_multiclass(cfg: RunConfig, cats: np.ndarray, values: np.ndarray) -> list[Path]:
    t0 = time.perf_counter()
    attack_values, attack_labels = values[cats != NORMAL_CATEGORY], _attack_ids(cats)

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
            attack_values, attack_labels, cfg.val_fraction,
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


def _artifacts(cfg: RunConfig) -> tuple:
    """pipeline.json, detector.json and each requested classifier in --out."""
    def read(name: str, what: str) -> str:
        return _require(str(Path(cfg.out_dir) / name), what).read_text()

    return (FittedPipeline.from_json(read("pipeline.json", "pipeline")),
            det_mod.AnomalyDetector.from_json(read("detector.json", "detector")),
            {variant: clf_mod.AttackClassifier.from_json(
                read(classifier_filename(variant), "classifier")) for variant in _variants(cfg)})


def run_evaluate(cfg: RunConfig) -> Path:
    """Score the test file with the artifacts in the output directory. Every
    input is read and checked, and every output computed, before the first
    write, so a refused run leaves the files of an earlier one untouched."""
    artifacts = _artifacts(cfg)
    test, cats = _load(cfg, "test")
    _test_data(cats)
    return _evaluate(cfg, test, cats, *artifacts)


def _evaluate(cfg: RunConfig, test: LabeledDataset, cats: np.ndarray, pipe: FittedPipeline,
              det: det_mod.AnomalyDetector, classifiers: dict) -> Path:
    out = Path(cfg.out_dir)
    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    values = pipe.transform(test)
    timings["preprocess"] = time.perf_counter() - t0
    true_bin = _binary_ids(cats)
    is_attack_true = true_bin == ATTACK_ID

    files: dict[str, str] = {}  # name -> text, written in this order at the end
    t0 = time.perf_counter()
    errors, verdicts = det_mod.verdict_array(det, values)
    timings["stage1"] = time.perf_counter() - t0
    files["scores.csv"] = det_mod.scores_to_csv(errors, verdicts)
    cm1 = _binary_confusion(true_bin, verdicts)
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
            "stage1_predicted_attacks": int((verdicts == ATTACK_ID).sum()),
        },
    }

    is_attack_pred = verdicts == ATTACK_ID
    attack_labels = _attack_ids(cats)
    attack_values = values[is_attack_true]
    # survivors: the true attacks that stage 1 flags
    survivors = is_attack_pred[is_attack_true]
    false_positive_normals = int((is_attack_pred & ~is_attack_true).sum())
    for variant, clf in classifiers.items():
        t0 = time.perf_counter()
        section: dict = {"trained_with_oversampling": clf.trained_with_oversampling}

        predicted, _ = clf_mod.predict(clf, attack_values)
        gt_report = metrics_mod.multiclass_report(attack_labels, predicted, clf_mod.CLASS_ORDER)
        section["ground_truth"] = gt_report.to_dict()
        files[f"stage2_{variant}_groundtruth_confusion.csv"] = gt_report.confusion.to_csv()

        section["false_positive_normals"] = false_positive_normals
        surv_pred = predicted[survivors]
        if surv_pred.size:
            surv_report = metrics_mod.multiclass_report(
                attack_labels[survivors], surv_pred, clf_mod.CLASS_ORDER)
            section["survivors"] = surv_report.to_dict()
            files[f"stage2_{variant}_survivors_confusion.csv"] = surv_report.confusion.to_csv()
        else:
            section["survivors"] = None
        typed = np.bincount(surv_pred, minlength=len(clf_mod.CLASS_ORDER)).tolist()
        dispositions = {"normal": int((verdicts == NORMAL_ID).sum()),
                        "false_positive_normal": false_positive_normals,
                        **dict(zip(clf_mod.CLASS_ORDER, typed))}
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
    """Returns a predict(values) -> binary id array callable, fitted on the
    binary ids ``labels``; ``name`` is one of BASELINE_NAMES (``RunConfig``
    checks)."""
    if name == "svm":
        return bl.fit_linear_svm(data, labels, bl.LinearSvmConfig(seed=cfg.seed)).predict
    if name == "mlp":
        # the stage-2 network, 41-80-2 over the binary ids, early-stopping on
        # the one stratified split
        rng = np.random.default_rng(cfg.seed + 29)
        train_idx, val_idx = clf_mod._stratified_split(labels, cfg.val_fraction, rng)
        dnn = clf_mod.DnnConfig(input_dim=data.shape[1], output_dim=len(BINARY_CLASSES))
        model, _ = clf_mod.train_network(data[train_idx], labels[train_idx], dnn,
                                         cfg.train_config(), rng,
                                         validation=(data[val_idx], labels[val_idx]))
        return lambda values: np.argmax(neural.forward(model, values)[0], axis=1)
    if name == "random_forest":
        return bl.fit_forest(data, labels, bl.ForestConfig(seed=cfg.seed)).predict
    fit = {"decision_tree": bl.fit_tree, "naive_bayes": bl.fit_gnb,
           "adaboost": bl.fit_adaboost, "gradient_boosting": bl.fit_gradient_boost}[name]
    return fit(data, labels).predict


def run_baselines(cfg: RunConfig) -> Path:
    train, train_cats = _load(cfg, "train")
    _baseline_data(train_cats)
    test, test_cats = _load(cfg, "test")
    pipe, train_values = fit_transform(train)
    test_values = pipe.transform(test)
    y_train = _binary_ids(train_cats)
    y_test = _binary_ids(test_cats)
    lines = ["model,accuracy,precision,recall,f1"]
    details: dict[str, dict] = {}
    for name in cfg.baselines:
        t0 = time.perf_counter()
        predictor = _fit_baseline(name, train_values, y_train, cfg)
        predicted = predictor(test_values)
        seconds = time.perf_counter() - t0
        cm = _binary_confusion(y_test, predicted)
        attack_pos = metrics_mod.binary_metrics(cm, positive_class=ATTACK)
        lines.append(f"{BASELINE_DISPLAY[name]},{attack_pos.accuracy:.4f},"
                     f"{attack_pos.precision:.4f},{attack_pos.recall:.4f},{attack_pos.f1:.4f}")
        details[name] = _binary_report(cm)
        details[name]["seconds"] = seconds
        log.info("%s: accuracy %.4f f1 %.4f (%.1fs)", BASELINE_DISPLAY[name],
                 attack_pos.accuracy, attack_pos.f1, seconds)

    out = _out(cfg)
    csv_path = out / "baselines.csv"
    csv_path.write_text("\n".join(lines) + "\n")
    (out / "baselines.json").write_text(json.dumps(details, indent=2, sort_keys=True) + "\n")
    return csv_path


def run_pipeline(cfg: RunConfig) -> Path:
    """train-binary, train-multiclass and evaluate over the train and test
    files parsed once, both checked before pipeline.json is fitted."""
    train, train_cats = _load(cfg, "train")
    _detector_data(train_cats)
    _typer_data(cfg, train_cats)
    test, test_cats = _load(cfg, "test")
    _test_data(test_cats)
    values = _standardized_train(cfg, train)
    _train_binary(cfg, train_cats, values)
    _train_multiclass(cfg, train_cats, values)
    return _evaluate(cfg, test, test_cats, *_artifacts(cfg))
