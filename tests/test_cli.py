import json
import sys
from collections import Counter

import numpy as np
import pytest

from nidkit import cli, neural, pipeline, preprocess
from nidkit.classifier import DnnConfig
from nidkit.cli import build_parser, build_config, main
from nidkit.dataset import (CATEGORIES, NORMAL_CATEGORY, categorize, category_ids,
                            load_taxonomy, parse_kdd_file)
from nidkit.detector import AutoencoderConfig
from nidkit.errors import TrainingDivergedError
from nidkit.pipeline import RunConfig

from .fixtures import make_fixture, write_kdd_file


@pytest.fixture(scope="module")
def data_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    train = root / "train.txt"
    test = root / "test.txt"
    write_kdd_file(make_fixture(40, seed=3), train)
    write_kdd_file(make_fixture(12, seed=4), test)
    return train, test


def _run(*argv):
    return main([str(a) for a in argv])


FAST = ["--max-epochs", "8"]


def test_explore_command(tmp_path, data_files, capsys):
    train, _ = data_files
    out = tmp_path / "out"
    assert _run("explore", "--train", train, "--out", out) == 0
    corr = out / "explore" / "correlation.csv"
    assert corr.exists()
    assert len(corr.read_text().splitlines()) == 42
    assert capsys.readouterr().out == ""  # stdout stays clean for piping

    before = corr.read_bytes()
    assert _run("explore", "--train", train, "--out", out) == 0
    assert corr.read_bytes() == before


def test_explore_missing_file(tmp_path):
    assert _run("explore", "--train", tmp_path / "nope.txt", "--out", tmp_path) == 2


def test_pipeline_end_to_end(tmp_path, data_files):
    train, test = data_files
    out = tmp_path / "out"
    code = _run("pipeline", "--train", train, "--test", test, "--out", out,
                "--seed", 1, "--oversample", "both", *FAST)
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    n = report["counts"]["test_rows"]
    assert n == 60
    # conservation: every row lands in exactly one disposition
    for variant in ("plain", "oversampled"):
        dispositions = report["stage2"][variant]["dispositions"]
        assert sum(dispositions.values()) == n
        survivors = report["stage2"][variant]["survivors"]
        if survivors is not None:
            survivor_total = int(np.array(survivors["confusion"]).sum())
            fp = report["stage2"][variant]["false_positive_normals"]
            assert survivor_total + fp == report["counts"]["stage1_predicted_attacks"]
    assert (out / "classifier_plain.json").exists()
    assert (out / "classifier_oversampled.json").exists()
    assert (out / "scores.csv").exists()
    assert (out / "stage1_confusion.csv").exists()


def test_train_binary_detector_roundtrip(tmp_path, data_files):
    from nidkit.detector import AnomalyDetector, verdict_array
    from nidkit.preprocess import FittedPipeline
    from nidkit.dataset import parse_kdd_file

    train, test = data_files
    out = tmp_path / "out"
    assert _run("train-binary", "--train", train, "--out", out, "--seed", 2, *FAST) == 0
    det1 = AnomalyDetector.from_json((out / "detector.json").read_text())
    det2 = AnomalyDetector.from_json((out / "detector.json").read_text())
    pipe = FittedPipeline.from_json((out / "pipeline.json").read_text())
    values = pipe.transform(parse_kdd_file(test, split="test"))
    e1, v1 = verdict_array(det1, values)
    e2, v2 = verdict_array(det2, values)
    assert (e1 == e2).all() and (v1 == v2).all()
    report = json.loads((out / "train_binary_report.json").read_text())
    assert report["calibration"]["method"] == "quantile"
    assert report["alpha"] > 0


def test_train_binary_labeled_f1_calibration(tmp_path, data_files):
    train, _ = data_files
    out = tmp_path / "out"
    code = _run("train-binary", "--train", train, "--out", out,
                "--calibration", "labeled-f1", *FAST)
    assert code == 0
    report = json.loads((out / "train_binary_report.json").read_text())
    assert report["calibration"]["method"] == "labeled_f1"


def test_train_binary_deterministic(tmp_path, data_files):
    train, _ = data_files
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert _run("train-binary", "--train", train, "--out", out, "--seed", 5, *FAST) == 0
        outs.append((out / "detector.json").read_bytes())
    assert outs[0] == outs[1]


def test_train_multiclass_both_variants(tmp_path, data_files):
    train, _ = data_files
    out = tmp_path / "out"
    code = _run("train-multiclass", "--train", train, "--out", out,
                "--oversample", "both", *FAST)
    assert code == 0
    assert (out / "classifier_plain.json").exists()
    assert (out / "classifier_oversampled.json").exists()
    report = json.loads((out / "train_multiclass_report.json").read_text())
    after = report["oversampled"]["class_counts_after"]
    assert len(set(after.values())) == 1


def test_baselines_command(tmp_path, data_files):
    train, test = data_files
    out = tmp_path / "out"
    code = _run("baselines", "--train", train, "--test", test, "--out", out,
                "--baselines", "decision_tree,naive_bayes", *FAST)
    assert code == 0
    lines = (out / "baselines.csv").read_text().splitlines()
    assert lines[0] == "model,accuracy,precision,recall,f1"
    assert len(lines) == 3
    assert lines[1].startswith("Decision Tree,")
    assert lines[2].startswith("Naive Bayes,")


def test_baselines_unknown_name(tmp_path, data_files):
    train, test = data_files
    code = _run("baselines", "--train", train, "--test", test, "--out", tmp_path,
                "--baselines", "decision_tree,quantum_fuzzer")
    assert code == 2


def test_evaluate_version_skew(tmp_path, data_files):
    train, test = data_files
    out = tmp_path / "out"
    assert _run("pipeline", "--train", train, "--test", test, "--out", out, *FAST) == 0
    doc = json.loads((out / "detector.json").read_text())
    doc["format_version"] = 99
    (out / "detector.json").write_text(json.dumps(doc))
    assert _run("evaluate", "--test", test, "--out", out) == 3


def test_evaluate_pipeline_version_skew(tmp_path, data_files):
    train, test = data_files
    out = tmp_path / "out"
    assert _run("pipeline", "--train", train, "--test", test, "--out", out, *FAST) == 0
    doc = json.loads((out / "pipeline.json").read_text())
    doc["format_version"] = 99
    (out / "pipeline.json").write_text(json.dumps(doc))
    assert _run("evaluate", "--test", test, "--out", out) == 3


def test_evaluate_malformed_test_data(tmp_path, data_files):
    train, test = data_files
    out = tmp_path / "out"
    assert _run("pipeline", "--train", train, "--test", test, "--out", out, *FAST) == 0
    bad = tmp_path / "bad.txt"
    bad.write_text("1,2,3\n")
    assert _run("evaluate", "--test", bad, "--out", out) == 3


def test_config_file_and_flag_precedence(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"seed": 5, "oversample": "off", "max_epochs": 3}))
    parser = build_parser()
    args = parser.parse_args(["pipeline", "--config", str(cfg_path), "--seed", "7"])
    cfg = build_config(args)
    assert cfg.seed == 7          # flag wins
    assert cfg.oversample == "off"  # file value survives
    assert cfg.max_epochs == 3
    assert cfg.calibration == "quantile" and cfg.calibration_q == 0.95  # defaults


def test_config_rejects_unknown_fields(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"not_a_field": 1}))
    parser = build_parser()
    args = parser.parse_args(["pipeline", "--config", str(cfg_path)])
    with pytest.raises(ValueError, match="unknown config fields"):
        build_config(args)


@pytest.mark.parametrize("command, flags, file_values", [
    ("train-binary", ["--max-epochs", "0"], None),
    ("train-binary", [], {"max_epochs": 6.5}),
    ("pipeline", ["--val-fraction", "1.5"], None),
    ("explore", ["--bins", "0"], None),
    ("train-binary", [], {"calibration_q": 5}),
    ("pipeline", [], {"seed": "abc"}),
    ("train-multiclass", [], {"oversample": "yes"}),
    ("explore", [], {"histogram_features": ["nope"]}),
    ("explore", [], {"scatter_pairs": [["count"]]}),
    ("baselines", [], {"baselines": 5}),
    ("train-binary", [], {"calibration_q": True}),
    ("train-binary", [], {"calibration_q": "0.9"}),
    ("pipeline", [], {"val_fraction": True}),
    ("pipeline", [], {"val_fraction": "0.2"}),
])
def test_invalid_setting_exits_2_before_any_output(tmp_path, data_files, capsys,
                                                    command, flags, file_values):
    train, test = data_files
    out = tmp_path / "out"
    argv = [command, "--train", train, "--test", test, "--out", out, *flags]
    if file_values is not None:
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(file_values))
        argv += ["--config", cfg_path]
    assert _run(*argv) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


def test_calibration_flag_parsing():
    parser = build_parser()
    args = parser.parse_args(["train-binary", "--calibration", "quantile:0.9"])
    cfg = build_config(args)
    assert cfg.calibration == "quantile" and cfg.calibration_q == 0.9
    args = parser.parse_args(["train-binary", "--calibration", "labeled-f1"])
    assert build_config(args).calibration == "labeled_f1"
    args = parser.parse_args(["train-binary", "--calibration", "bogus"])
    assert main(["train-binary", "--calibration", "bogus"]) == 2


def test_default_runconfig_matches_paper_settings():
    cfg = RunConfig()
    tc = cfg.train_config()
    assert tc.batch_size == 32
    assert cfg.val_fraction == 0.15
    assert tc.patience == 6
    assert neural.ADAM_LR == 0.001


def test_training_divergence_exits_3_with_one_line(monkeypatch, capsys):
    def diverge(cfg):
        raise TrainingDivergedError("validation loss is nan at epoch 0")

    monkeypatch.setitem(cli.COMMANDS, "train-binary", diverge)
    assert main(["train-binary"]) == 3
    assert capsys.readouterr().err == (
        "nidkit: training diverged: validation loss is nan at epoch 0\n")


def test_pipeline_parses_and_transforms_each_file_once(tmp_path, data_files, monkeypatch):
    train, test = data_files
    parsed, transformed, encoded = [], [], []
    parse = pipeline.parse_kdd_file
    transform = preprocess.FittedPipeline.transform
    encode = preprocess.encode
    monkeypatch.setattr(pipeline, "parse_kdd_file",
                        lambda path, split: parsed.append(split) or parse(path, split=split))
    monkeypatch.setattr(preprocess.FittedPipeline, "transform",
                        lambda self, ds: transformed.append(ds.split) or transform(self, ds))
    monkeypatch.setattr(preprocess, "encode",
                        lambda enc, ds: encoded.append(ds.split) or encode(enc, ds))

    def run(*argv):
        for calls in (parsed, transformed, encoded):
            calls.clear()
        assert _run(*argv, "--train", train, "--test", test, "--oversample", "both", *FAST) == 0
        assert parsed == ["train", "test"]
        assert encoded == ["train", "test"]

    # a fresh fit standardizes the train matrix it encoded
    run("pipeline", "--out", tmp_path / "one")
    assert transformed == ["test"]
    # a reused pipeline.json transforms the train file
    run("pipeline", "--out", tmp_path / "one")
    assert transformed == ["train", "test"]
    run("baselines", "--baselines", "naive_bayes", "--out", tmp_path / "two")
    assert transformed == ["test"]


def test_pipeline_matches_the_stages_run_one_by_one(tmp_path, data_files):
    train, test = data_files
    common = ["--oversample", "both", "--seed", 2, *FAST]
    whole, staged = tmp_path / "whole", tmp_path / "staged"
    assert _run("pipeline", "--train", train, "--test", test, "--out", whole, *common) == 0
    assert _run("train-binary", "--train", train, "--out", staged, *common) == 0
    assert _run("train-multiclass", "--train", train, "--out", staged, *common) == 0
    assert _run("evaluate", "--test", test, "--out", staged, *common) == 0
    for name in ("pipeline.json", "detector.json", "classifier_plain.json",
                 "classifier_oversampled.json", "scores.csv"):
        assert (whole / name).read_bytes() == (staged / name).read_bytes(), name


@pytest.mark.parametrize("command", ["pipeline", "baselines", "explore"])
def test_unknown_attack_name_exits_3_with_one_line(tmp_path, data_files, command, capsys):
    train, test = data_files
    lines = train.read_text().splitlines()
    fields = lines[5].split(",")
    fields[41] = "zeroday"
    lines[5] = ",".join(fields)
    bad = tmp_path / "train.txt"
    bad.write_text("\n".join(lines) + "\n")
    assert _run(command, "--train", bad, "--test", test, "--out", tmp_path / "out", *FAST) == 3
    assert capsys.readouterr().err == (
        "nidkit: invalid data: attack name not in taxonomy: 'zeroday'\n")
    if command == "pipeline":
        # no fitted state from the rejected file for a rerun to reuse
        assert not (tmp_path / "out" / "pipeline.json").exists()


ALL = {c: 10**6 for c in CATEGORIES}


def _subset(src, dst, counts):
    """Copy of ``src`` keeping the first ``counts[category]`` rows of each category."""
    taxonomy, seen, kept = load_taxonomy(), Counter(), []
    for line in src.read_text().splitlines():
        cat = categorize(line.split(",")[41], taxonomy)
        seen[cat] += 1
        if seen[cat] <= counts.get(cat, 0):
            kept.append(line)
    dst.write_text("\n".join(kept) + "\n")
    return dst


def _sixth_row_reads(src, dst, column, text):
    """Copy of ``src`` whose sixth row reads ``text`` in field ``column``."""
    lines = src.read_text().splitlines()
    fields = lines[5].split(",")
    fields[column] = text
    lines[5] = ",".join(fields)
    dst.write_text("\n".join(lines) + "\n")
    return dst


def _unknown_name(src, dst):
    """Copy of ``src`` whose sixth row names an attack outside the taxonomy."""
    return _sixth_row_reads(src, dst, 41, "zeroday")


def _huge_duration(src, dst):
    """Copy of ``src`` whose sixth row has a finite ``duration`` too large to
    standardize: its square overflows the variance."""
    return _sixth_row_reads(src, dst, 0, "1e200")


HUGE = "training feature 'duration' is too large to standardize"


@pytest.mark.parametrize("command, counts, message, which", [
    ("train-binary", {**ALL, "Normal": 0}, "training data has no normal rows", "train"),
    ("pipeline", {**ALL, "Normal": 0}, "training data has no normal rows", "train"),
    ("train-multiclass", {"Normal": 10**6}, "training data has no attack rows", "train"),
    ("pipeline", {**ALL, "U2R": 0}, "attack categories absent from training data: ['U2R']",
     "train"),
    ("train-multiclass", {**ALL, "U2R": 1},
     "attack categories with fewer than 2 training rows to oversample: ['U2R']", "train"),
    # the test file is read and checked before the first training stage
    ("pipeline", {"Normal": 10**6}, "test data has no attack rows", "test"),
    ("pipeline", None, "attack name not in taxonomy: 'zeroday'", "test"),
    # every baseline fits on both classes, so one-class data fails before any fit
    ("baselines", {"Normal": 10**6}, "needs both normal and attack rows", "train"),
    ("baselines", {**ALL, "Normal": 0}, "needs both normal and attack rows", "train"),
    ("explore", {"Normal": 1}, "training data has fewer than 2 rows", "train"),
    # the standardizer is fitted before the output directory is made
    ("train-binary", _huge_duration, HUGE, "train"),
    ("pipeline", _huge_duration, HUGE, "train"),
    ("baselines", _huge_duration, HUGE, "train"),
])
def test_data_that_cannot_train_a_stage_exits_3_before_any_output(
        tmp_path, data_files, capsys, command, counts, message, which):
    """``counts`` keeps that many rows per category of the ``which`` file;
    None keeps every row and renames one attack, and a function writes its
    own edited copy."""
    files = dict(zip(("train", "test"), data_files))
    part = tmp_path / "part.txt"
    edit = (_unknown_name if counts is None else counts if callable(counts) else
            lambda src, dst: _subset(src, dst, counts))
    files[which] = edit(files[which], part)
    out = tmp_path / "out"
    assert _run(command, "--train", files["train"], "--test", files["test"],
                "--out", out, *FAST) == 3
    err = capsys.readouterr().err
    assert err.startswith("nidkit: invalid data: ") and err.count("\n") == 1
    assert message in err
    assert not out.exists()


@pytest.mark.parametrize("test_name, message", [
    (None, "missing required test path"),
    ("missing.txt", "test file not found"),
])
def test_pipeline_without_a_test_file_exits_2_before_any_output(
        tmp_path, data_files, capsys, test_name, message):
    train, _ = data_files
    out = tmp_path / "out"
    flags = [] if test_name is None else ["--test", tmp_path / test_name]
    assert _run("pipeline", "--train", train, *flags, "--out", out, *FAST) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_refused_evaluate_leaves_a_finished_run_untouched(tmp_path, data_files):
    train, test = data_files
    out = tmp_path / "out"
    assert _run("pipeline", "--train", train, "--test", test, "--out", out, *FAST) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    fewer = _subset(test, tmp_path / "fewer.txt", {c: 3 for c in CATEGORIES})
    normals = _subset(test, tmp_path / "normals.txt", {"Normal": 10**6})
    # the finished run trained no classifier_plain.json
    assert _run("evaluate", "--test", fewer, "--out", out, "--oversample", "both") == 2
    assert _run("evaluate", "--test", normals, "--out", out) == 3
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def _other_train_file(tmp_path):
    path = tmp_path / "other_train.txt"
    write_kdd_file(make_fixture(40, seed=9), path)
    return path


def test_stale_pipeline_from_another_train_file_exits_2(tmp_path, data_files, capsys):
    train, _ = data_files
    out = tmp_path / "out"
    assert _run("train-binary", "--train", train, "--out", out, *FAST) == 0
    fitted = (out / "pipeline.json").read_bytes()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["train_rows"] == len(train.read_text().splitlines())
    assert sorted(manifest) == ["train_rows", "train_sha256"]
    capsys.readouterr()
    assert _run("train-binary", "--train", _other_train_file(tmp_path), "--out", out, *FAST) == 2
    err = capsys.readouterr().err
    assert err.startswith("nidkit: stale artifact: ") and err.count("\n") == 1
    assert (out / "pipeline.json").read_bytes() == fitted


def test_pipeline_without_manifest_is_not_reused(tmp_path, data_files, capsys):
    train, _ = data_files
    out = tmp_path / "out"
    assert _run("train-binary", "--train", train, "--out", out, *FAST) == 0
    (out / "manifest.json").unlink()
    capsys.readouterr()
    assert _run("train-binary", "--train", train, "--out", out, *FAST) == 2
    assert "no readable manifest.json" in capsys.readouterr().err


def test_same_train_file_reuses_pipeline(tmp_path, data_files, caplog):
    train, _ = data_files
    out = tmp_path / "out"
    assert _run("train-binary", "--train", train, "--out", out, *FAST) == 0
    fitted = (out / "pipeline.json").read_bytes()
    caplog.clear()
    with caplog.at_level("INFO", logger="nidkit"):
        assert _run("train-binary", "--train", train, "--out", out, *FAST) == 0
        assert any("reusing fitted pipeline" in r.message for r in caplog.records)
        caplog.clear()
        assert _run("train-multiclass", "--train", train, "--out", out, *FAST) == 0
        assert any("reusing fitted pipeline" in r.message for r in caplog.records)
    assert (out / "pipeline.json").read_bytes() == fitted


def test_reports_hold_per_epoch_loss_curves(tmp_path, data_files):
    train, _ = data_files
    out = tmp_path / "out"
    assert _run("train-binary", "--train", train, "--out", out, *FAST) == 0
    assert _run("train-multiclass", "--train", train, "--out", out,
                "--oversample", "both", *FAST) == 0
    binary = json.loads((out / "train_binary_report.json").read_text())
    multi = json.loads((out / "train_multiclass_report.json").read_text())
    for report in (binary, multi["plain"], multi["oversampled"]):
        assert len(report["train_loss"]) == len(report["val_loss"]) == report["epochs"]
        assert report["val_loss"][report["best_epoch"]] == min(report["val_loss"])


@pytest.fixture(scope="module")
def trained_out(tmp_path_factory, data_files):
    """An --out directory holding the artifacts of one finished pipeline run."""
    train, test = data_files
    out = tmp_path_factory.mktemp("trained") / "out"
    assert _run("pipeline", "--train", train, "--test", test, "--out", out, *FAST) == 0
    return out


def _network(layers):
    return json.loads(neural.init_model(layers, np.random.default_rng(0)).to_json())


# each case: the artifact to damage and its new text, from its parsed JSON
UNREADABLE = {
    "detector-not-json": ("detector.json", lambda doc: "{"),
    "pipeline-not-json": ("pipeline.json", lambda doc: "not json"),
    "detector-without-model": ("detector.json",
                               lambda doc: {k: v for k, v in doc.items() if k != "model"}),
    "classifier-without-model": ("classifier_oversampled.json",
                                 lambda doc: {k: v for k, v in doc.items() if k != "model"}),
    "pipeline-features-mistyped": ("pipeline.json", lambda doc: {**doc, "features": 5}),
    "pipeline-nan-mean": ("pipeline.json", lambda doc: {
        **doc, "features": [{**doc["features"][0], "mu": float("nan")}, *doc["features"][1:]]}),
    "alpha-zero": ("detector.json", lambda doc: {**doc, "alpha": 0}),
    "alpha-text": ("detector.json", lambda doc: {**doc, "alpha": "x"}),
    "alpha-infinite": ("detector.json", lambda doc: {**doc, "alpha": float("inf")}),
    "detector-nan-bias": ("detector.json", lambda doc: {**doc, "model": {
        **doc["model"], "biases": [[float("nan")] * 15, doc["model"]["biases"][1]]}}),
    "detector-narrow-network": ("detector.json", lambda doc: {
        **doc, "model": _network(AutoencoderConfig(input_dim=8, hidden_dim=3).layers())}),
    "classifier-narrow-network": ("classifier_oversampled.json", lambda doc: {
        **doc, "model": _network(DnnConfig(input_dim=8).layers())}),
    "classifier-five-outputs": ("classifier_oversampled.json", lambda doc: {
        **doc, "model": _network(DnnConfig(output_dim=5).layers())}),
    "class-order-of-three": ("classifier_oversampled.json",
                             lambda doc: {**doc, "class_order": ["DoS", "Probe", "R2L"]}),
    "class-order-naming-normal": ("classifier_oversampled.json", lambda doc: {
        **doc, "class_order": ["Normal", "Probe", "R2L", "U2R"]}),
    "class-order-permuted": ("classifier_oversampled.json", lambda doc: {
        **doc, "class_order": ["Probe", "DoS", "R2L", "U2R"]}),
    "oversampling-flag-text": ("classifier_oversampled.json",
                               lambda doc: {**doc, "trained_with_oversampling": "yes"}),
}


@pytest.mark.parametrize("case", list(UNREADABLE))
def test_unreadable_artifact_exits_3_and_leaves_out_unchanged(
        tmp_path, data_files, trained_out, capsys, case):
    _, test = data_files
    out = tmp_path / "out"
    out.mkdir()
    for path in trained_out.iterdir():
        (out / path.name).write_bytes(path.read_bytes())
    name, damage = UNREADABLE[case]
    text = damage(json.loads((out / name).read_text()))
    (out / name).write_text(text if isinstance(text, str) else json.dumps(text))
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    capsys.readouterr()
    assert _run("evaluate", "--test", test, "--out", out) == 3
    err = capsys.readouterr().err
    assert err.startswith("nidkit: invalid data: ") and err.count("\n") == 1, err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_no_label_array_of_objects_reaches_np_unique(tmp_path, data_files, monkeypatch):
    # past the parse, labels are integer ids: no stage sorts labels again, so
    # np.unique runs only where the parser codes and spells columns
    train, test = data_files
    unique = np.unique
    calls = []

    def spy(values, *args, **kwargs):
        # the caller, or the function consuming the caller's generator
        frame = sys._getframe(1)
        callers = (frame.f_code.co_name, frame.f_back.f_code.co_name)
        calls.append((np.asarray(values).dtype, callers))
        return unique(values, *args, **kwargs)

    monkeypatch.setattr(np, "unique", spy)
    out = tmp_path / "out"
    common = ["--train", train, "--test", test, "--out", out, *FAST]
    assert _run("pipeline", *common, "--oversample", "both") == 0
    assert _run("baselines", *common) == 0
    assert _run("evaluate", *common, "--oversample", "both") == 0
    assert _run("explore", *common) == 0
    assert calls
    elsewhere = [(dtype, callers) for dtype, callers in calls
                 if not {"parse_kdd_lines", "spell_column"} & set(callers)]
    assert elsewhere == []


def test_every_network_trains_on_a_validation_pair_from_the_one_split(
        tmp_path, data_files, monkeypatch):
    # neural.train draws no rows of its own: every caller, the MLP baseline
    # included, hands it the validation rows of classifier._stratified_split
    train, test = data_files
    real_train = neural.train
    calls, inputs = [], []

    def recording_train(model, data, targets, cfg, rng, validation=None):
        calls.append(validation)
        inputs.append(data)
        return real_train(model, data, targets, cfg, rng, validation)

    monkeypatch.setattr(neural, "train", recording_train)

    def run(out, command, train_file, *flags):
        calls.clear()
        inputs.clear()
        assert _run(command, "--train", train_file, "--test", test, "--out", tmp_path / out,
                    *FAST, *flags) == 0
        assert calls and all(v is not None and len(v[0]) == len(v[1]) for v in calls)
        return calls

    # the autoencoder, then the plain and the oversampled typer
    assert len(run("pipe", "pipeline", train, "--oversample", "both")) == 3
    # the autoencoder trains and validates on standardized Normal rows of the
    # train file alone, and the two sets share out all of them
    parsed = parse_kdd_file(train, split="train")
    _, standardized = preprocess.fit_transform(parsed)
    normals = standardized[category_ids(parsed, load_taxonomy()) == NORMAL_CATEGORY]
    normal_rows = {row.tobytes() for row in normals}
    ae_train, ae_val = inputs[0], calls[0][0]
    assert len(ae_train) + len(ae_val) == len(normals)
    assert all(row.tobytes() in normal_rows for row in (*ae_train, *ae_val))
    # 160 attack rows (id 0) and 40 normal rows (id 1): 15% of each class,
    # rounded, validates: _n_validation(160, 0.15) and _n_validation(40, 0.15)
    (validation,) = run("mlp", "baselines", train, "--baselines", "mlp")
    assert np.bincount(validation[1].argmax(axis=1)).tolist() == [24, 6]

    # at most 3 rows per class leave no validation rows, so the networks
    # validate on their training rows
    tiny = tmp_path / "tiny.txt"
    write_kdd_file(make_fixture(3, seed=5), tiny)
    assert len(run("tiny-pipe", "pipeline", tiny, "--oversample", "both")) == 3
    few = tmp_path / "few.txt"
    few.write_text("\n".join(tiny.read_text().splitlines()[:6]) + "\n")  # 3 normal, 3 DoS
    (validation,) = run("few-mlp", "baselines", few, "--baselines", "mlp")
    assert len(validation[0]) == 0
