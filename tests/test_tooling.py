"""The benchmark tracer must still find every nidkit name it wraps."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_installs_on_an_empty_plan(tmp_path):
    # installing the tracer looks up each wrapped function and class by
    # name, so a deleted or renamed one fails here with AttributeError
    plan = tmp_path / "plan.json"
    plan.write_text("[]")
    spans = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracer.py"), "--plan", str(plan),
         "--out", str(spans), "--src", str(ROOT / "src")],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(spans.read_text()) == {"exit_codes": [], "spans": []}


def test_tracer_counts_leaves_of_every_tree_model(tmp_path):
    # the tracer walks each tree container it knows (root, trees, stumps,
    # (tree, leaf_values) pairs), so a reshaped container fails here
    from .fixtures import make_fixture, write_kdd_file

    train, test = tmp_path / "train.txt", tmp_path / "test.txt"
    write_kdd_file(make_fixture(20, seed=3), train)
    write_kdd_file(make_fixture(6, seed=4), test)
    models = ("decision_tree", "random_forest", "adaboost", "gradient_boosting")
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps([[
        "baselines", "--train", str(train), "--test", str(test),
        "--out", str(tmp_path / "out"), "--baselines", ",".join(models)]]))
    spans = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracer.py"), "--plan", str(plan),
         "--out", str(spans), "--src", str(ROOT / "src")],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    fits = {s["name"]: s["counts"] for s in json.loads(spans.read_text())["spans"]
            if s["name"].startswith("baselines.fit.")}
    assert sorted(fits) == sorted(f"baselines.fit.{m}" for m in models)
    for counts in fits.values():
        assert counts["leaves"] > 0
    assert fits["baselines.fit.decision_tree"]["trees"] == 1
    assert fits["baselines.fit.random_forest"]["trees"] == 100
    assert fits["baselines.fit.adaboost"]["trees"] >= 1
    assert fits["baselines.fit.gradient_boosting"]["trees"] == 100


def test_tracer_counts_epochs_and_batches_of_every_training_run(tmp_path):
    # the tracer binds neural.train's arguments by name, reads TrainConfig
    # fields, and puts the untraced neural.forward back while neural.train
    # runs; a renamed parameter or field, or a caller that holds its own
    # reference to neural.train (so per-batch forward calls are traced
    # and no train span is recorded), fails here
    from .fixtures import make_fixture, write_kdd_file

    train, test = tmp_path / "train.txt", tmp_path / "test.txt"
    write_kdd_file(make_fixture(20, seed=3), train)
    write_kdd_file(make_fixture(6, seed=4), test)
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps([[
        "pipeline", "--train", str(train), "--test", str(test), "--out", str(tmp_path / "out"),
        "--max-epochs", "2", "--patience", "3", "--oversample", "both"]]))
    spans = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracer.py"), "--plan", str(plan),
         "--out", str(spans), "--src", str(ROOT / "src")],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    recorded = json.loads(spans.read_text())["spans"]
    by_id = {s["id"]: s for s in recorded}
    trains = [s for s in recorded if s["name"] == "neural.train"]
    assert len(trains) == 3  # autoencoder, plain and oversampled classifiers
    for span in trains:
        assert span["counts"]["epochs"] == 2
        assert span["counts"]["batches"] > 0
    forwards = [s for s in recorded if s["name"] == "neural.forward"]
    assert forwards
    for span in forwards:
        parent = span["parent"]
        while parent >= 0:
            assert by_id[parent]["name"] != "neural.train"
            parent = by_id[parent]["parent"]
