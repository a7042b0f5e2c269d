"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Criteria that need the real NSL-KDD files skip with an explanatory
message when the data is absent; everything else runs on deterministic
fixtures. See README for the download step.
"""

import json
from collections import Counter

import numpy as np
import pytest

from nidkit import neural
from nidkit.dataset import (
    ATTACK,
    ATTACK_ID,
    binary_labels,
    categories,
    load_taxonomy,
    parse_kdd_file,
)
from nidkit.detector import AnomalyDetector, reconstruction_errors, verdict_array
from nidkit.metrics import confusion, f1_score, macro_micro, multiclass_report
from nidkit.pipeline import (
    BASELINE_NAMES,
    RunConfig,
    run_baselines,
    run_evaluate,
    run_train_binary,
    run_train_multiclass,
)
from nidkit.preprocess import fit_pipeline
from nidkit.resample import _batch_knn, _synthesize
from nidkit.neural import LayerSpec, MlpModel

from .conftest import require_real_data
from .fixtures import make_fixture
from .gradcheck import check_model_gradients, random_small_model

# Attack-type counts for KDDTrain+ (the training-attack census; the
# "jpsweep" typo in some write-ups is NSL-KDD's ipsweep).
TRAIN_ATTACK_COUNTS = {
    "neptune": 41214, "satan": 3633, "ipsweep": 3599, "portsweep": 2931,
    "smurf": 2646, "nmap": 1493, "back": 956, "teardrop": 892,
    "warezclient": 890, "pod": 201, "guess_passwd": 53, "buffer_overflow": 30,
    "warezmaster": 20, "land": 18, "imap": 11, "rootkit": 10,
    "loadmodule": 9, "ftp_write": 8, "multihop": 7, "phf": 4,
    "perl": 3, "spy": 2,
}

# Published binary-task numbers: (accuracy%, precision, recall, f1)
PUBLISHED_BINARY = {
    "Decision Tree": (68.28, 0.6816, 0.8309, 0.7489),
    "Random Forest": (76.00, 0.8734, 0.6765, 0.7624),
    "Naive Bayes": (76.86, 0.9621, 0.5995, 0.7387),
    "SVM": (80.47, 0.9756, 0.6738, 0.7971),
    "AdaBoost": (79.40, 0.8690, 0.7514, 0.8059),
    "Gradient Boosting": (68.12, 0.6504, 0.9513, 0.7726),
    "MLP": (77.90, 0.9582, 0.6396, 0.7671),
    "Autoencoder": (87.52, 0.9320, 0.8422, 0.8848),
}


def _verdict(criterion: str, ok: bool, details: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {details}")


@pytest.fixture(scope="module")
def real_run(tmp_path_factory):
    """Full two-stage pipeline on the real data, labeled-F1 calibration,
    both classifier variants; shared by criteria 1 and 3."""
    train = require_real_data("KDDTrain+.txt")
    test = require_real_data("KDDTest+.txt")
    out = tmp_path_factory.mktemp("acceptance_run")
    cfg = RunConfig(
        train_path=str(train),
        test_path=str(test),
        out_dir=str(out),
        seed=0,
        calibration="labeled_f1",
        oversample="both",
    )
    run_train_binary(cfg)
    run_train_multiclass(cfg)
    run_evaluate(cfg)
    return json.loads((out / "report.json").read_text())


def test_criterion_1_autoencoder_binary(real_run):
    stage1 = real_run["stage1"]["attack_positive"]
    ok = stage1["accuracy"] >= 0.82 and stage1["f1"] >= 0.83
    _verdict(
        "1 (autoencoder binary)", ok,
        f"accuracy={stage1['accuracy']:.4f} (>=0.82), f1={stage1['f1']:.4f} (>=0.83); "
        "published 0.8752 / 0.8848",
    )
    assert ok


def test_criterion_2_published_f1_identity():
    gaps = {
        model: abs(f1_score(precision, recall) - published_f1)
        for model, (_, precision, recall, published_f1) in PUBLISHED_BINARY.items()
    }
    bad = {m: g for m, g in gaps.items() if g > 1e-3}
    ok = not bad
    _verdict(
        "2 (published F1 identity)", ok,
        f"{len(gaps) - len(bad)}/{len(gaps)} rows reproduce published F1 within 0.001 "
        f"(worst gap {max(gaps.values()):.5f})" + (f"; failing: {bad}" if bad else ""),
    )
    assert ok


def test_criterion_3_oversampling_effect(real_run):
    plain = real_run["stage2"]["plain"]["ground_truth"]
    over = real_run["stage2"]["oversampled"]["ground_truth"]
    macro_gain = over["macro_f1"] - plain["macro_f1"]
    u2r_gain = over["per_class_f1"]["U2R"] - plain["per_class_f1"]["U2R"]
    acc_shift = abs(over["accuracy"] - plain["accuracy"])
    ok = macro_gain >= 0.05 and u2r_gain >= 0.15 and acc_shift < 0.03
    _verdict(
        "3 (oversampling effect)", ok,
        f"macro gain {macro_gain:+.4f} (>=0.05), U2R gain {u2r_gain:+.4f} (>=0.15), "
        f"|accuracy shift| {acc_shift:.4f} (<0.03); published 0.0931 / 0.3666 / 0.0011",
    )
    assert ok


def test_criterion_4_train_census_exact():
    train = parse_kdd_file(require_real_data("KDDTrain+.txt"), split="train")
    counts = Counter(r.label for r in train.records)
    mismatches = {
        name: (counts.get(name, 0), expected)
        for name, expected in TRAIN_ATTACK_COUNTS.items()
        if counts.get(name, 0) != expected
    }
    total_attacks = sum(v for k, v in counts.items() if k != "normal")
    ok = not mismatches and total_attacks == sum(TRAIN_ATTACK_COUNTS.values())
    _verdict(
        "4 (attack census)", ok,
        f"{len(TRAIN_ATTACK_COUNTS)} attack types exact, "
        f"{total_attacks} attack rows total" + (f"; mismatches {mismatches}" if mismatches else ""),
    )
    assert ok


def test_criterion_5_imbalance_ratio():
    train = parse_kdd_file(require_real_data("KDDTrain+.txt"), split="train")
    taxonomy = load_taxonomy()
    cats = categories(train, taxonomy)
    counts = Counter(cats[cats != "Normal"])
    u2r = counts["U2R"]
    expected = {"DoS": 920.0, "Probe": 220.0, "R2L": 20.0, "U2R": 1.0}
    ratios = {c: counts[c] / u2r for c in expected}
    ok = all(abs(ratios[c] - t) <= 0.10 * t for c, t in expected.items())
    _verdict(
        "5 (imbalance ratio)", ok,
        "ratios " + ", ".join(f"{c}={ratios[c]:.1f}" for c in expected)
        + " vs 920:220:20:1 (10% per term)",
    )
    assert ok


# --- criterion 6: property suites on fixtures ------------------------------

def test_criterion_6a_gradient_check_100_models():
    rng = np.random.default_rng(20240)
    failures = sum(
        0 if check_model_gradients(random_small_model(rng), rng, rel_tol=1e-4, h=1e-5) else 1
        for _ in range(100)
    )
    _verdict("6a (gradient check)", failures == 0,
             f"100 random models, backprop vs central differences at 1e-4: {failures} failures")
    assert failures == 0


def test_criterion_6b_smote_segment_1000_seeds():
    rng = np.random.default_rng(77)
    bad = 0
    for seed in range(1000):
        a, b = rng.normal(size=(2, 4))
        minority = np.vstack([a, b])
        near = _batch_knn(minority, minority, 1, exclude=np.arange(2))
        out = _synthesize(minority, near, minority, 3, np.random.default_rng(seed))
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        if not ((out >= lo - 1e-12).all() and (out <= hi + 1e-12).all()):
            bad += 1
    _verdict("6b (SMOTE segment)", bad == 0, f"1000 seeds, synthetics on the segment: {bad} escapes")
    assert bad == 0


def test_criterion_6c_standardizer_invariant():
    ds = make_fixture(50, seed=2)
    pipe = fit_pipeline(ds)
    z = pipe.transform(ds)
    live = pipe.standardizer.sigma > 0
    mean_gap = np.abs(z[:, live].mean(axis=0)).max()
    std_gap = np.abs(z[:, live].std(axis=0) - 1.0).max()
    ok = mean_gap < 1e-9 and std_gap < 1e-9
    _verdict("6c (standardizer)", ok, f"max |mean|={mean_gap:.2e}, max |std-1|={std_gap:.2e} (<1e-9)")
    assert ok


def test_criterion_6d_softmax_invariants():
    rng = np.random.default_rng(8)
    z = rng.normal(scale=3.0, size=(500, 9))
    p = neural._apply_activation("softmax", z)
    shift = neural._apply_activation("softmax", z + rng.normal(scale=50.0))
    sum_gap = np.abs(p.sum(axis=1) - 1.0).max()
    shift_gap = np.abs(p - shift).max()
    ok = sum_gap < 1e-9 and shift_gap < 1e-9 and ((p > 0) & (p < 1)).all()
    _verdict("6d (softmax)", ok, f"normalization gap {sum_gap:.2e}, shift gap {shift_gap:.2e} (<1e-9)")
    assert ok


def test_criterion_6e_confusion_conservation_macro_micro():
    rng = np.random.default_rng(9)
    classes = ("DoS", "Probe", "R2L", "U2R")
    true = rng.choice(len(classes), size=400)
    pred = rng.choice(len(classes), size=400)
    cm = confusion(true, pred, classes)
    conserved = cm.total == 400 and (cm.counts.sum(axis=1) == np.array(
        [(true == c).sum() for c in range(len(classes))])).all()
    # equal supports force macro == micro
    true_eq = np.repeat(np.arange(len(classes)), 50)
    pred_eq = rng.choice(len(classes), size=200)
    report = multiclass_report(true_eq, pred_eq, classes)
    macro, micro = report.macro_f1, report.micro_f1
    ok = conserved and abs(macro - micro) < 1e-12
    _verdict("6e (confusion/macro-micro)", ok,
             f"counts conserved={conserved}, |macro-micro|={abs(macro - micro):.2e} at equal supports")
    assert ok


def test_criterion_6f_threshold_monotonicity():
    rng = np.random.default_rng(10)
    model = MlpModel([LayerSpec(3, 3, "identity")], [np.zeros((3, 3))], [np.zeros(3)])
    values = rng.normal(size=(100, 3))
    errors = reconstruction_errors(model, values)
    violations = 0
    for _ in range(20):
        ladder = np.sort(rng.uniform(errors.min(), errors.max() * 1.2, size=8))
        previous = None
        for alpha in ladder:
            det = AnomalyDetector(model=model, alpha=float(alpha), calibration={})
            flagged = set(np.nonzero(verdict_array(det, values)[1] == ATTACK_ID)[0].tolist())
            if previous is not None and not flagged <= previous:
                violations += 1
            previous = flagged
    _verdict("6f (threshold monotonicity)", violations == 0,
             f"20 random alpha ladders: {violations} monotonicity violations")
    assert violations == 0


def test_criterion_6g_end_to_end_determinism(tmp_path):
    from .fixtures import write_kdd_file

    train = tmp_path / "train.txt"
    test = tmp_path / "test.txt"
    write_kdd_file(make_fixture(30, seed=6), train)
    write_kdd_file(make_fixture(10, seed=7), test)
    artifacts = []
    for name in ("r1", "r2"):
        cfg = RunConfig(
            train_path=str(train), test_path=str(test), out_dir=str(tmp_path / name),
            seed=13, oversample="on", max_epochs=6,
        )
        run_train_binary(cfg)
        run_train_multiclass(cfg)
        run_evaluate(cfg)
        out = tmp_path / name
        blob = b"".join(
            (out / f).read_bytes()
            for f in ("detector.json", "classifier_oversampled.json", "scores.csv",
                      "stage1_confusion.csv")
        )
        artifacts.append(blob)
    ok = artifacts[0] == artifacts[1]
    _verdict("6g (determinism)", ok,
             "train/predict artifacts bit-identical across two seeded runs" if ok
             else "artifacts differ between identical runs")
    assert ok


def test_criterion_7_baselines_beat_majority(tmp_path):
    train = require_real_data("KDDTrain+.txt")
    test = require_real_data("KDDTest+.txt")
    cfg = RunConfig(
        train_path=str(train), test_path=str(test), out_dir=str(tmp_path), seed=0,
        baselines=BASELINE_NAMES,
    )
    csv_path = run_baselines(cfg)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "model,accuracy,precision,recall,f1"
    rows = {l.split(",")[0]: float(l.split(",")[1]) for l in lines[1:]}

    test_ds = parse_kdd_file(test, split="test")
    bins = binary_labels(test_ds, load_taxonomy())
    majority = max((bins == ATTACK).mean(), (bins == "normal").mean())
    losers = {m: acc for m, acc in rows.items() if acc <= majority}
    ok = len(rows) == len(BASELINE_NAMES) and not losers
    _verdict(
        "7 (baselines)", ok,
        f"{len(rows)} baselines, majority accuracy {majority:.4f}"
        + (f"; below majority: {losers}" if losers else "; all above"),
    )
    assert ok
