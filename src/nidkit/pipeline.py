"""End-to-end orchestration for the two-stage hierarchy.

Stage 1 screens every connection with the autoencoder detector; rows
flagged as attacks flow into the stage-2 attack typer. Commands write
machine-readable artifacts (JSON/CSV) under one output directory and
are deterministic given (config, seed).

Every command loads, checks, computes and writes, in that order. ``_load``
parses one input file and gives each row its category id; labels stay
integer ids (see ``dataset``) up to the files written. Each stage's data
rule is one check on what was loaded. Each stage returns its outputs as
``{relative path: text}``, and ``_write``, the only code that writes a
file, writes a command's outputs once all of them are computed: a refused
or diverged run leaves the output directory as it found it. Training
never reads a file in the output directory: every training run fits
pipeline.json, and one already there is only checked.
``pipeline`` loads, checks and standardizes the train and the test file,
then runs the two training stages and evaluate over those matrices.

The detector, each typer variant and each baseline are independent jobs
that return their models as text, or a baseline's CSV line and report
section. ``_run_jobs`` runs a command's jobs: on more than one CPU, the
first half of them (rounded up) runs, in order, in one forked worker that
pickles what they return (or its error) back through a pipe, while the
rest run, in order, in the calling process, which starts no further job
once the worker has reported an error. So ``pipeline`` trains the detector
and the plain typer in the worker and the oversampled typer, the longest,
in the caller. On one CPU, or if no process can be forked, all run in the
caller, in order. Either way the models are read back from that text by
the readers ``evaluate`` uses, the jobs' log records are handled in job
order once all have run, and the first job to fail, in job order, raises:
every output and log line is the same on one CPU or two.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import pickle
import select
import signal
import time
from contextlib import suppress
from dataclasses import dataclass
from functools import partial
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
    calibration: str = "quantile"  # quantile | quantile:<q> | labeled_f1 | labeled-f1
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
        """Rejects a field of the wrong type or range, naming it, before a
        command reads or writes a file."""
        def require(name: str, ok: bool, what: str) -> None:
            if not ok:
                raise ValueError(f"{name} must be {what}, got {getattr(self, name)!r}")

        def drawn_from(values, allowed) -> bool:
            return isinstance(values, tuple) and all(
                isinstance(v, str) and v in allowed for v in values)

        for name in ("train_path", "test_path", "taxonomy_path", "out_dir"):
            value = getattr(self, name)
            if value is not None or name == "out_dir":
                require(name, isinstance(value, str) and "\0" not in value, "a path")
        for name in ("seed", "max_epochs", "batch_size", "patience", "histogram_bins"):
            require(name, type(getattr(self, name)) is int, "an integer")  # bool is no integer
        require("val_fraction", type(self.val_fraction) in (int, float)
                and 0.0 < self.val_fraction < 1.0, "a number in (0, 1)")
        require("seed", self.seed >= 0, ">= 0")
        self.calibration_rule()
        require("oversample", self.oversample in ("on", "off", "both"), "on, off or both")
        # a histogram is a plot-ready table; far more bins only exhaust memory
        require("histogram_bins", 1 <= self.histogram_bins <= 10_000, "in 1..10000")
        require("baselines", drawn_from(self.baselines, BASELINE_NAMES),
                f"a list drawn from {', '.join(BASELINE_NAMES)}")
        require("histogram_features", drawn_from(self.histogram_features, INDEX),
                "a list of feature names")
        require("scatter_pairs", isinstance(self.scatter_pairs, tuple) and all(
            drawn_from(pair, INDEX) and len(pair) == 2 for pair in self.scatter_pairs),
            "a list of feature-name pairs")
        self.train_config()

    def calibration_rule(self) -> tuple[str, float]:
        """The calibration spec as (method, q): ``quantile`` takes q = 0.95,
        ``quantile:<q>`` any q in (0, 1], and ``labeled_f1``, also spelled
        ``labeled-f1``, ignores q."""
        spec = self.calibration
        if spec in ("quantile", "labeled_f1", "labeled-f1"):
            return spec.replace("-", "_"), 0.95
        if isinstance(spec, str) and spec.startswith("quantile:"):
            with suppress(ValueError):
                q = float(spec[len("quantile:"):])
                if 0.0 < q <= 1.0:
                    return "quantile", q
        raise ValueError("calibration must be quantile, quantile:<q> with q in (0, 1], "
                         f"labeled_f1 or labeled-f1, got {spec!r}")

    def train_config(self) -> neural.TrainConfig:
        return neural.TrainConfig(
            batch_size=self.batch_size,
            patience=self.patience,
            max_epochs=self.max_epochs,
        )


def _write(cfg: RunConfig, files: dict[str, str]) -> Path:
    """Writes each ``{relative path: text}`` under the output directory, in
    order, and returns that directory; the only code that makes a directory
    or writes a file. Each file is written under a temporary name beside it
    and then renamed over it, so a failed write leaves no partial file."""
    out = Path(cfg.out_dir)
    for name, text in files.items():
        path = out / name
        path.parent.mkdir(parents=True, exist_ok=True)
        temporary = path.with_name(f".{path.name}.tmp")
        try:
            temporary.write_text(text)
            os.replace(temporary, path)
        except BaseException:
            temporary.unlink(missing_ok=True)
            raise
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


def _detector_data(cfg: RunConfig, cats: np.ndarray) -> None:
    n_normal = int((cats == NORMAL_CATEGORY).sum())
    n_attack = len(cats) - n_normal
    if not n_normal:
        raise InsufficientDataError("training data has no normal rows; cannot train the detector")
    # the split's per-class sizes do not depend on its rng
    if cfg.calibration_rule()[0] == "labeled_f1" and min(
            clf_mod._n_validation(n, cfg.val_fraction) for n in (n_normal, n_attack)) < 1:
        raise InsufficientDataError(
            "labeled_f1 calibration needs normal and attack rows in the validation split, "
            f"but a {cfg.val_fraction} share of {n_normal} normal and {n_attack} attack rows "
            "leaves none of one class")


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


def _standardized_train(cfg: RunConfig, train_ds: LabeledDataset
                         ) -> tuple[FittedPipeline, np.ndarray, dict[str, str]]:
    """The pipeline fitted on the train file, its standardized matrix, and
    its files: pipeline.json and ``manifest.json``, which records the
    SHA-256 and row count of the train file it was fitted on.

    A pipeline.json already in the output directory is only checked, never
    read back: one whose manifest is missing or names another file, or
    whose text differs from this fit, is refused, never replaced."""
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
    pipe, values = fit_transform(train_ds)
    log.info("fitted preprocessing pipeline")
    fitted = pipe.to_json() + "\n"
    if path.exists() and path.read_bytes() != fitted.encode():
        raise StaleArtifactError(f"{path} differs from the pipeline fitted on {train_path}; "
                                 "use a fresh --out")
    return pipe, values, {"manifest.json": json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                          "pipeline.json": fitted}


def _standardized_test(pipe: FittedPipeline, test: LabeledDataset) -> tuple[np.ndarray, float]:
    """The test matrix through ``pipe``, and the seconds that took."""
    t0 = time.perf_counter()
    values = pipe.transform(test)
    return values, time.perf_counter() - t0


# --- commands: load, check, compute, write ------------------------------------


def run_explore(cfg: RunConfig) -> list[Path]:
    train, cats = _load(cfg, "train")
    _explore_data(train)
    files = {f"explore/{name}": text for name, text in explore_mod.exploration_files(
        train, cats, cfg.histogram_features, cfg.scatter_pairs, cfg.histogram_bins).items()}
    out = _write(cfg, files)
    log.info("wrote %d exploration files under %s", len(files), out / "explore")
    return [out / name for name in files]


def run_train_binary(cfg: RunConfig) -> Path:
    train, cats = _load(cfg, "train")
    _detector_data(cfg, cats)
    _, values, files = _standardized_train(cfg, train)
    return _write(cfg, {**files, **_train_binary(cfg, cats, values)}) / "detector.json"


def _train_binary(cfg: RunConfig, cats: np.ndarray, values: np.ndarray) -> dict[str, str]:
    """The detector's job: detector.json and train_binary_report.json."""
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
    method, q = cfg.calibration_rule()
    calib_idx = normal_val_idx if method == "quantile" else val_idx
    alpha, calib = det_mod.calibrate_threshold(model, values[calib_idx], bin_ids[calib_idx],
                                               method, q)
    det = det_mod.AnomalyDetector(model=model, alpha=alpha, calibration=calib)
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
    log.info("trained detector (alpha=%.6g, %d epochs)", alpha, history.n_epochs)
    return {"detector.json": det.to_json() + "\n",
            "train_binary_report.json": json.dumps(report, indent=2, sort_keys=True) + "\n"}


def _variants(cfg: RunConfig) -> list[str]:
    if cfg.oversample == "both":
        return ["plain", "oversampled"]
    return ["oversampled" if cfg.oversample == "on" else "plain"]


def run_train_multiclass(cfg: RunConfig) -> list[Path]:
    train, cats = _load(cfg, "train")
    _typer_data(cfg, cats)
    _, values, files = _standardized_train(cfg, train)
    typed = _typer_files(cfg, _run_jobs(_typer_jobs(cfg, cats, values)))
    out = _write(cfg, {**files, **typed})
    return [out / f"classifier_{variant}.json" for variant in _variants(cfg)]


def _typer_jobs(cfg: RunConfig, cats: np.ndarray, values: np.ndarray) -> list:
    """One job per variant, the oversampled one last, as ``_variants`` orders them."""
    attack_values, attack_labels = values[cats != NORMAL_CATEGORY], _attack_ids(cats)
    return [partial(_train_typer, cfg, attack_values, attack_labels, variant)
            for variant in _variants(cfg)]


def _train_typer(cfg: RunConfig, attack_values: np.ndarray, attack_labels: np.ndarray,
                 variant: str) -> tuple[str, dict, float]:
    """One variant's job: its classifier's JSON text, its section of
    train_multiclass_report.json, and its own seconds."""
    t0 = time.perf_counter()
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
    if oversample is not None:
        log.info("oversampled class counts: %s", info.get("class_counts_after"))
    log.info("trained %s classifier (%d epochs)", variant, info["epochs"])
    return clf.to_json() + "\n", info, time.perf_counter() - t0


def _typer_files(cfg: RunConfig, results: list[tuple[str, dict, float]]) -> dict[str, str]:
    """Each variant's classifier file and train_multiclass_report.json, whose
    ``seconds`` holds each variant's own, taken where its job ran, and their
    sum as ``total``."""
    files: dict[str, str] = {}
    report: dict = {"seconds": {}}
    for variant, (text, info, seconds) in zip(_variants(cfg), results):
        files[f"classifier_{variant}.json"] = text
        report[variant] = info
        report["seconds"][variant] = seconds
    report["seconds"]["total"] = sum(report["seconds"].values())
    files["train_multiclass_report.json"] = json.dumps(report, indent=2, sort_keys=True) + "\n"
    return files


# --- jobs: a command's independent stages, on up to two CPUs ------------------


class _Held(logging.Handler):
    """Holds each record, its message formatted, to be handled later."""

    def __init__(self) -> None:
        super().__init__()
        self.records: list[logging.LogRecord] = []

    def emit(self, record: logging.LogRecord) -> None:
        record.msg, record.args = record.getMessage(), None
        self.records.append(record)


def _held(job) -> tuple[object, Exception | None, list[logging.LogRecord]]:
    """Runs ``job`` with the nidkit logger's records held back: (what it
    returned, or None if it raised; what it raised, or None; the records
    it logged)."""
    holder = _Held()
    kept = log.handlers, log.propagate
    log.handlers, log.propagate = [holder], False
    try:
        return job(), None, holder.records
    except Exception as exc:  # noqa: BLE001 - handed to the caller in job order
        return None, exc, holder.records
    finally:
        log.handlers, log.propagate = kept


def _in_order(jobs: list, stop=lambda: False) -> list[tuple]:
    """Each job's ``_held`` outcome, in order, up to the first that raised;
    before each job but the first, a true ``stop()`` ends the run."""
    outcomes = []
    for job in jobs:
        if outcomes and stop():
            break
        outcomes.append(_held(job))
        if outcomes[-1][1] is not None:
            break
    return outcomes


def _sendable(outcomes: list[tuple]) -> bytes:
    """``outcomes`` pickled; an exception that does not survive pickling
    becomes a RuntimeError naming its type."""
    result, error, records = outcomes[-1]
    if error is not None:
        try:
            pickle.loads(pickle.dumps(error))
        except Exception:  # noqa: BLE001 - any failure to pickle or to unpickle
            outcomes[-1] = (result, RuntimeError(
                f"a training job raised {type(error).__name__}, which cannot be pickled: "
                f"{error}"), records)
    return pickle.dumps(outcomes)


def _ends_in_error(payload: bytes) -> bool:
    """Whether a worker's payload holds outcomes that end in an error, or
    no outcomes at all (the worker died before or while writing them)."""
    try:
        return pickle.loads(payload)[-1][1] is not None
    except (EOFError, pickle.UnpicklingError):  # empty, or cut short
        return True


def _forked(jobs: list) -> list[tuple]:
    """The first half of the jobs (rounded up) in one forked worker and the
    rest here, each half in order; their outcomes as ``_in_order`` gives
    them. The worker sends its outcomes through a pipe and exits; once it
    has sent an error, this process starts none of its own jobs that are
    left. The worker is always reaped, and killed first if this process is
    interrupted."""
    half = (len(jobs) + 1) // 2
    read_fd, write_fd = os.pipe()
    try:
        # the only other threads here are OpenBLAS's, which it shuts down
        # around a fork (pthread_atfork) and restarts on demand
        pid = os.fork()
    except OSError:  # no process to spare: the jobs run here
        os.close(read_fd)
        os.close(write_fd)
        return _in_order(jobs)
    if pid == 0:  # the worker: nothing it does returns past this block
        code = 1
        try:
            os.close(read_fd)
            outcomes = _in_order(jobs[:half])
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(_sendable(outcomes))
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    sent: list[bytes] = []  # what the worker wrote, once it has

    def worker_failed() -> bool:
        # the worker writes once, after its last job, so a pipe that polls
        # readable holds all it will ever write
        if not sent and select.select([pipe], [], [], 0)[0]:
            sent.append(pipe.read())
        return bool(sent) and _ends_in_error(sent[0])

    with os.fdopen(read_fd, "rb") as pipe:
        try:
            own = _in_order(jobs[half:], worker_failed)
            payload = sent[0] if sent else pipe.read()
            _, status = os.waitpid(pid, 0)
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
    if status != 0:
        exit_code = os.waitstatus_to_exitcode(status)
        how = f"killed by signal {-exit_code}" if exit_code < 0 else f"exit code {exit_code}"
        raise RuntimeError(f"the training worker ended without a result "
                           f"(wait status {status}: {how})")
    outcomes = pickle.loads(payload)
    return outcomes if outcomes[-1][1] is not None else [*outcomes, *own]


def _run_jobs(jobs: list) -> list:
    """What each job returns, in job order. On more than one CPU the first
    half of the jobs (rounded up) runs in one forked worker and the rest
    here; elsewhere all run here, in order. Either way the records the jobs
    log are handed to the nidkit logger once all have run, in job order,
    and the first job to fail, in job order, raises what it raised."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    outcomes = _forked(jobs) if cpus > 1 and len(jobs) > 1 else _in_order(jobs)
    for _, _, records in outcomes:
        for record in records:
            log.handle(record)
    for _, error, _ in outcomes:
        if error is not None:
            raise error
    return [result for result, _, _ in outcomes]


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
                read(f"classifier_{variant}.json", "classifier")) for variant in _variants(cfg)})


def run_evaluate(cfg: RunConfig) -> Path:
    """Score the test file with the artifacts in the output directory. Every
    input is read and checked, and every output computed, before the first
    write, so a refused run leaves the files of an earlier one untouched."""
    pipe, det, classifiers = _artifacts(cfg)
    test, cats = _load(cfg, "test")
    _test_data(cats)
    values, seconds = _standardized_test(pipe, test)
    return _write(cfg, _evaluate(values, cats, det, classifiers, seconds)) / "report.json"


def _evaluate(values: np.ndarray, cats: np.ndarray, det: det_mod.AnomalyDetector,
              classifiers: dict, preprocess_seconds: float) -> dict[str, str]:
    timings = {"preprocess": preprocess_seconds}
    true_bin = _binary_ids(cats)
    is_attack_true = true_bin == ATTACK_ID

    files: dict[str, str] = {}
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
    log.info(
        "stage1 accuracy %.4f / f1 %.4f; %d predicted attacks of %d rows",
        stage1["attack_positive"]["accuracy"], stage1["attack_positive"]["f1"],
        report["counts"]["stage1_predicted_attacks"], len(values),
    )
    return files


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
        return lambda values: np.argmax(neural.forward(model, values), axis=1)
    if name == "random_forest":
        return bl.fit_forest(data, labels, bl.ForestConfig(seed=cfg.seed)).predict
    fit = {"decision_tree": bl.fit_tree, "naive_bayes": bl.fit_gnb,
           "adaboost": bl.fit_adaboost, "gradient_boosting": bl.fit_gradient_boost}[name]
    return fit(data, labels).predict


def _baseline(cfg: RunConfig, name: str, train_values: np.ndarray, y_train: np.ndarray,
              test_values: np.ndarray, y_test: np.ndarray) -> tuple[str, dict]:
    """One baseline's job: its line of baselines.csv and its section of
    baselines.json, which holds its own seconds, taken where it ran."""
    t0 = time.perf_counter()
    predictor = _fit_baseline(name, train_values, y_train, cfg)
    predicted = predictor(test_values)
    seconds = time.perf_counter() - t0
    cm = _binary_confusion(y_test, predicted)
    attack_pos = metrics_mod.binary_metrics(cm, positive_class=ATTACK)
    line = (f"{BASELINE_DISPLAY[name]},{attack_pos.accuracy:.4f},"
            f"{attack_pos.precision:.4f},{attack_pos.recall:.4f},{attack_pos.f1:.4f}")
    section = {**_binary_report(cm), "seconds": seconds}
    log.info("%s: accuracy %.4f f1 %.4f (%.1fs)", BASELINE_DISPLAY[name],
             attack_pos.accuracy, attack_pos.f1, seconds)
    return line, section


def run_baselines(cfg: RunConfig) -> Path:
    train, train_cats = _load(cfg, "train")
    _baseline_data(train_cats)
    test, test_cats = _load(cfg, "test")
    pipe, train_values = fit_transform(train)
    test_values = pipe.transform(test)
    y_train, y_test = _binary_ids(train_cats), _binary_ids(test_cats)
    results = _run_jobs([partial(_baseline, cfg, name, train_values, y_train, test_values, y_test)
                         for name in cfg.baselines])
    lines = ["model,accuracy,precision,recall,f1", *(line for line, _ in results)]
    details = {name: section for name, (_, section) in zip(cfg.baselines, results)}
    out = _write(cfg, {"baselines.csv": "\n".join(lines) + "\n",
                       "baselines.json": json.dumps(details, indent=2, sort_keys=True) + "\n"})
    return out / "baselines.csv"


def run_pipeline(cfg: RunConfig) -> Path:
    """train-binary, train-multiclass and evaluate over the train and test
    files parsed once, both checked before pipeline.json is fitted and both
    standardized before any model trains, and the outputs of all three
    written together."""
    train, train_cats = _load(cfg, "train")
    _detector_data(cfg, train_cats)
    _typer_data(cfg, train_cats)
    test, test_cats = _load(cfg, "test")
    _test_data(test_cats)
    pipe, values, files = _standardized_train(cfg, train)
    test_values, seconds = _standardized_test(pipe, test)
    trained, *results = _run_jobs([partial(_train_binary, cfg, train_cats, values),
                                   *_typer_jobs(cfg, train_cats, values)])
    typed = _typer_files(cfg, results)
    # the models as evaluate reads them back from these files
    det = det_mod.AnomalyDetector.from_json(trained["detector.json"])
    classifiers = {variant: clf_mod.AttackClassifier.from_json(typed[f"classifier_{variant}.json"])
                   for variant in _variants(cfg)}
    scored = _evaluate(test_values, test_cats, det, classifiers, seconds)
    return _write(cfg, {**files, **trained, **typed, **scored}) / "report.json"
