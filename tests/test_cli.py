import contextlib
import io
import json
import logging
import os
import re
import shutil
import signal
import sys
import tempfile
import time
import warnings
from collections import Counter
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from nidkit import baselines, classifier, cli, neural, pipeline, preprocess
from nidkit.classifier import DnnConfig
from nidkit.cli import build_parser, build_config, main
from nidkit.dataset import (CATEGORIES, NORMAL_CATEGORY, categorize, category_ids,
                            load_taxonomy, parse_kdd_file)
from nidkit.detector import AutoencoderConfig
from nidkit.errors import InsufficientDataError, TrainingDivergedError
from nidkit.pipeline import RunConfig
from nidkit.schema import INDEX

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


def _on_cpus(monkeypatch, n):
    """Makes a training command see ``n`` CPUs: on one, every job runs in
    this process, so a spy counts the calls of every job."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


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
    assert cfg.calibration_rule() == ("quantile", 0.95)  # default


def test_config_rejects_unknown_fields(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"not_a_field": 1}))
    parser = build_parser()
    args = parser.parse_args(["pipeline", "--config", str(cfg_path)])
    with pytest.raises(ValueError, match="unknown config fields"):
        build_config(args)
    cfg_path.write_text("[]")  # no key, but not an object either
    with pytest.raises(ValueError, match="one JSON object"):
        build_config(args)


@pytest.mark.parametrize("command, flags, file_values", [
    ("train-binary", ["--max-epochs", "0"], None),
    ("train-binary", [], {"max_epochs": 6.5}),
    ("pipeline", ["--val-fraction", "1.5"], None),
    ("explore", ["--bins", "0"], None),
    ("train-binary", [], {"calibration": "quantile:5"}),
    ("pipeline", [], {"seed": "abc"}),
    ("train-multiclass", [], {"oversample": "yes"}),
    ("explore", [], {"histogram_features": ["nope"]}),
    ("explore", [], {"scatter_pairs": [["count"]]}),
    ("baselines", [], {"baselines": 5}),
    ("train-binary", [], {"calibration": True}),
    ("train-binary", [], {"calibration": 0.9}),
    ("pipeline", [], {"val_fraction": True}),
    ("pipeline", [], {"val_fraction": "0.2"}),
    ("train-binary", ["--calibration", "bogus"], None),
    ("train-binary", [], {"calibration": 5}),
    ("train-binary", [], {"calibration": ["quantile"]}),
    ("train-binary", [], {"calibration": "quantile", "calibration_q": 0.5}),
    ("train-binary", [], {"out_dir": 5}),
    ("train-binary", [], {"train_path": 5}),
    ("evaluate", [], {"test_path": 5}),
    ("explore", [], {"taxonomy_path": 5}),
    ("explore", [], {"taxonomy_path": ["x"]}),
    ("explore", [], {"histogram_features": "count"}),
    ("explore", [], {"histogram_bins": 10_001}),
])
def test_invalid_setting_exits_2_before_any_output(tmp_path, data_files, capsys,
                                                    command, flags, file_values):
    """A file value is checked only when no flag overrides it, so the path
    flags are left out for the path fields the file sets."""
    train, test = data_files
    out = tmp_path / "out"
    argv = [command, *flags]
    for name, flag, path in (("train_path", "--train", train), ("test_path", "--test", test),
                             ("out_dir", "--out", out)):
        if name not in (file_values or {}):
            argv += [flag, path]
    if file_values is not None:
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(file_values))
        argv += ["--config", cfg_path]
    assert _run(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("nidkit: config error: ") and err.count("\n") == 1, err
    assert all(name in err for name in file_values or ())
    assert not out.exists()


def test_calibration_flag_parsing(tmp_path):
    # each spelling, by flag and by file, beside a comma-form baselines and
    # a JSON array of pairs in the file
    parser = build_parser()
    cfg_path = tmp_path / "cfg.json"
    for spec, rule in [("quantile", ("quantile", 0.95)), ("quantile:0.9", ("quantile", 0.9)),
                       ("labeled-f1", ("labeled_f1", 0.95)), ("labeled_f1", ("labeled_f1", 0.95))]:
        cfg_path.write_text(json.dumps({"calibration": spec, "baselines": "svm, mlp",
                                        "scatter_pairs": [["count", "serror_rate"]]}))
        by_flag = build_config(parser.parse_args(["train-binary", "--calibration", spec]))
        by_file = build_config(parser.parse_args(["train-binary", "--config", str(cfg_path)]))
        assert by_flag.calibration_rule() == by_file.calibration_rule() == rule
        assert by_file.baselines == ("svm", "mlp")
        assert by_file.scatter_pairs == (("count", "serror_rate"),)
    args = parser.parse_args(["baselines", "--baselines", "svm,mlp"])
    assert build_config(args).baselines == ("svm", "mlp")


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

    # a fit standardizes the train matrix it encoded
    run("pipeline", "--out", tmp_path / "one")
    assert transformed == ["test"]
    # a pipeline.json already in --out is checked, not read back
    run("pipeline", "--out", tmp_path / "one")
    assert transformed == ["test"]
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
LABELED_F1 = "labeled_f1 calibration needs normal and attack rows in the validation split"


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
    # labeled-f1 calibrates on a validation split that holds both classes
    ("train-binary --calibration labeled-f1", {**ALL, "Normal": 3}, LABELED_F1, "train"),
    ("pipeline --calibration labeled-f1", {"Normal": 10**6}, LABELED_F1, "train"),
    # the standardizer's moments are taken before the output directory is made
    ("train-binary", _huge_duration, HUGE, "train"),
    ("pipeline", _huge_duration, HUGE, "train"),
    ("baselines", _huge_duration, HUGE, "train"),
    ("explore", _huge_duration, HUGE, "train"),
])
def test_data_that_cannot_train_a_stage_exits_3_before_any_output(
        tmp_path, data_files, capsys, command, counts, message, which):
    """``command`` may carry flags; ``counts`` keeps that many rows per
    category of the ``which`` file; None keeps every row and renames one
    attack, and a function writes its own edited copy."""
    files = dict(zip(("train", "test"), data_files))
    part = tmp_path / "part.txt"
    edit = (_unknown_name if counts is None else counts if callable(counts) else
            lambda src, dst: _subset(src, dst, counts))
    files[which] = edit(files[which], part)
    out = tmp_path / "out"
    assert _run(*command.split(), "--train", files["train"], "--test", files["test"],
                "--out", out, *FAST) == 3
    err = capsys.readouterr().err
    assert err.startswith("nidkit: invalid data: ") and err.count("\n") == 1
    assert message in err
    assert not out.exists()


def _not_utf8(src, dst):
    """Copy of ``src`` whose sixth row's service field ends in byte 0xE9,
    which is not UTF-8."""
    lines = src.read_bytes().splitlines()
    fields = lines[5].split(b",")
    fields[2] += b"\xe9"
    lines[5] = b",".join(fields)
    dst.write_bytes(b"\n".join(lines) + b"\n")
    return dst


@pytest.mark.parametrize("command, which", [
    ("explore", "train"), ("train-binary", "train"), ("train-multiclass", "train"),
    ("baselines", "train"), ("pipeline", "train"), ("pipeline", "test"), ("evaluate", "test"),
])
def test_a_file_that_is_not_utf8_exits_3_naming_its_line(
        tmp_path, data_files, trained_out, capsys, command, which):
    files = dict(zip(("train", "test"), data_files))
    files[which] = _not_utf8(files[which], tmp_path / "part.txt")
    out = tmp_path / "out"
    if command == "evaluate":
        shutil.copytree(trained_out, out)
    before = _files_under(out)
    capsys.readouterr()
    assert _run(command, "--train", files["train"], "--test", files["test"],
                "--out", out, *FAST) == 3
    err = capsys.readouterr().err
    assert err.startswith("nidkit: invalid data: line 6: not UTF-8 text: ") and err.count("\n") == 1
    assert "0xe9" in err
    assert _files_under(out) == before and out.exists() == (command == "evaluate")


@pytest.mark.parametrize("content, message", [
    (b"normal,Normal\nneptune,Foo\n",
     "taxonomy line 2: unknown category 'Foo' for 'neptune'\n"),
    (b"normal,Normal\nneptune,DoS\xe9\n", "taxonomy line 2: not UTF-8 text: "),
    (b"normal,DoS\n", "taxonomy must map 'normal' to Normal\n"),
], ids=["unknown_category", "not_utf8", "no_normal"])
def test_a_damaged_taxonomy_file_exits_3(tmp_path, data_files, capsys, content, message):
    train, _ = data_files
    out = tmp_path / "out"
    assert _run("explore", "--train", train, "--out", out) == 0
    before = _files_under(out)
    taxonomy = tmp_path / "taxonomy.csv"
    taxonomy.write_bytes(content)
    capsys.readouterr()
    assert _run("explore", "--train", train, "--taxonomy", taxonomy, "--out", out) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"nidkit: invalid data: {message}") and err.count("\n") == 1
    assert _files_under(out) == before


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


def test_a_directory_as_input_or_a_file_as_out_exits_2(tmp_path, data_files, capsys):
    train, _ = data_files
    out = tmp_path / "out"
    out.write_text("not a directory")
    for argv in (["--train", tmp_path, "--out", tmp_path / "fresh"],
                 ["--train", train, "--taxonomy", tmp_path, "--out", tmp_path / "fresh"],
                 ["--train", train, "--out", out]):
        assert _run("explore", *argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("nidkit: ") and err.count("\n") == 1, err
    assert out.read_text() == "not a directory" and not (tmp_path / "fresh").exists()


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


def _files_under(root):
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def _diverge_on_call(monkeypatch, k):
    """Makes the ``k``-th neural.train call after each ``calls.clear()``
    raise TrainingDivergedError; returns ``calls``."""
    real, calls = neural.train, []

    def train(*args, **kwargs):
        calls.append(None)
        if len(calls) == k:
            raise TrainingDivergedError(f"validation loss is nan at epoch 0 (call {k})")
        return real(*args, **kwargs)

    monkeypatch.setattr(neural, "train", train)
    return calls


@pytest.mark.parametrize("command, k", [
    # the autoencoder, then the plain and the oversampled typer
    ("pipeline", 1), ("pipeline", 2), ("pipeline", 3), ("train-multiclass", 2),
])
def test_a_run_that_fails_mid_way_leaves_out_as_it_found_it(
        tmp_path, data_files, monkeypatch, command, k):
    _on_cpus(monkeypatch, 1)
    train, test = data_files
    finished, fresh = tmp_path / "finished", tmp_path / "fresh"
    common = ["--train", train, "--test", test, "--oversample", "both", *FAST]
    assert _run("pipeline", *common, "--out", finished) == 0
    before = _files_under(finished)
    calls = _diverge_on_call(monkeypatch, k)
    for out in (fresh, finished):
        calls.clear()
        # another seed: a partial write would mix two runs' models
        assert _run(command, *common, "--seed", 2, "--out", out) == 3
        assert len(calls) == k
    assert not fresh.exists()
    assert _files_under(finished) == before


# --- the worker: the later half of the jobs forks off on two CPUs -------------


def _spy_forks(monkeypatch):
    """Records the pid each os.fork call returns here: returns that list."""
    real, forks = os.fork, []

    def fork():
        pid = real()
        forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return forks


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _without_timings(root):
    """Every file under ``root``; each report parsed, its timings removed,
    and each model's seconds removed from baselines.json."""
    files = _files_under(root)
    for name, data in files.items():
        if name.endswith("report.json"):
            files[name] = {key: value for key, value in json.loads(data).items()
                           if key not in ("seconds", "timings_seconds")}
        if name == "baselines.json":
            files[name] = {model: {key: value for key, value in section.items()
                                   if key != "seconds"}
                           for model, section in json.loads(data).items()}
    return files


def _untimed(message):
    """A log message without the seconds a baseline's line ends with."""
    return re.sub(r" \(\d+\.\ds\)$", "", message)


@pytest.mark.parametrize("argv", [
    ["pipeline", "--oversample", "both"], ["pipeline"], ["train-multiclass", "--oversample", "both"],
    ["baselines", "--baselines", ",".join(pipeline.BASELINE_NAMES)],
], ids=["pipeline-both", "pipeline", "train-multiclass-both", "baselines"])
def test_one_and_two_cpus_give_the_same_files_and_log_records(
        tmp_path, data_files, monkeypatch, caplog, argv):
    train, test = data_files
    forks = _spy_forks(monkeypatch)
    runs = []
    for n in (1, 2):
        _on_cpus(monkeypatch, n)
        forks.clear()
        caplog.clear()
        out = tmp_path / f"cpus{n}"
        with caplog.at_level(logging.INFO, logger="nidkit"):
            assert _run(*argv, "--train", train, "--test", test, "--out", out, *FAST) == 0
        runs.append((_without_timings(out), [(r.name, r.levelno, _untimed(r.getMessage()))
                                             for r in caplog.records], len(forks)))
        if argv[0] == "baselines":
            # each model's job timed itself
            details = json.loads((out / "baselines.json").read_text())
            assert sorted(details) == sorted(pipeline.BASELINE_NAMES)
            assert all(section["seconds"] >= 0 for section in details.values())
            continue
        # each variant's job timed itself, beside the total
        seconds = json.loads((out / "train_multiclass_report.json").read_text())["seconds"]
        variants = {name[len("classifier_"):-len(".json")] for name in runs[-1][0]
                    if name.startswith("classifier_")}
        assert set(seconds) == {"total", *variants}
    (one, one_logs, one_forks), (two, two_logs, two_forks) = runs
    assert one == two
    assert one_logs == two_logs and len(one_logs) >= 3
    assert (one_forks, two_forks) == (0, 1)


def test_a_fork_that_fails_runs_every_job_here(tmp_path, data_files, monkeypatch):
    train, test = data_files
    common = ["--train", train, "--test", test, "--oversample", "both", *FAST]
    _on_cpus(monkeypatch, 1)
    assert _run("pipeline", *common, "--out", tmp_path / "one") == 0
    _on_cpus(monkeypatch, 2)
    # no process, or no descriptor for the pipe, to spare
    for refused, error in (("fork", BlockingIOError(11, "Resource temporarily unavailable")),
                           ("pipe", OSError(24, "Too many open files"))):
        def no_process(error=error):
            raise error

        with monkeypatch.context() as patch:
            patch.setattr(os, refused, no_process)
            assert _run("pipeline", *common, "--out", tmp_path / refused) == 0
        assert _without_timings(tmp_path / "one") == _without_timings(tmp_path / refused)


@pytest.mark.parametrize("failing", [
    ["detector"], ["plain"], ["oversampled"],
    ["plain", "oversampled"],  # the earlier job's error, as one CPU raises it
], ids="+".join)
def test_a_failing_job_exits_3_as_on_one_cpu_and_leaves_no_child(
        tmp_path, data_files, monkeypatch, capsys, failing):
    # a spy's count cannot cross the fork, so the failing networks are told
    # apart by their input: the autoencoder's 41 target columns, and the
    # row count of each typer on a file whose attack classes are skewed
    train, test = data_files
    skewed = _subset(train, tmp_path / "skewed.txt",
                     {"Normal": 40, "DoS": 40, "Probe": 24, "R2L": 16, "U2R": 8})
    common = ["--train", skewed, "--test", test, "--oversample", "both", *FAST]
    real_train, shapes = neural.train, []

    def recording_train(model, data, targets, *args, **kwargs):
        shapes.append((targets.shape[1], len(data)))
        return real_train(model, data, targets, *args, **kwargs)

    monkeypatch.setattr(neural, "train", recording_train)
    _on_cpus(monkeypatch, 1)
    finished = tmp_path / "finished"
    assert _run("pipeline", *common, "--out", finished) == 0
    networks = dict(zip(("detector", "plain", "oversampled"), shapes))
    assert len(shapes) == len(set(shapes)) == 3 and networks["detector"][0] == 41
    fail_on = {networks[name]: name for name in failing}

    def diverging_train(model, data, targets, *args, **kwargs):
        name = fail_on.get((targets.shape[1], len(data)))
        if name is not None:
            raise TrainingDivergedError(f"validation loss is nan at epoch 0 ({name})")
        return real_train(model, data, targets, *args, **kwargs)

    monkeypatch.setattr(neural, "train", diverging_train)
    before = _files_under(finished)
    forks = _spy_forks(monkeypatch)
    capsys.readouterr()
    errors = []
    for n in (1, 2):
        _on_cpus(monkeypatch, n)
        # another seed: a partial write would mix two runs' models
        for out in (tmp_path / f"fresh{n}", finished):
            assert _run("pipeline", *common, "--seed", 2, "--out", out) == 3
            errors.append(capsys.readouterr().err)
            _no_child_left()
        assert not (tmp_path / f"fresh{n}").exists()
    assert _files_under(finished) == before
    assert len(forks) == 2
    assert errors == [f"nidkit: training diverged: validation loss is nan at epoch 0 "
                      f"({failing[0]})\n"] * 4


# four models: the caller fits the first two, the worker the last two
FOUR = ("decision_tree", "naive_bayes", "svm", "adaboost")
FITS = {"decision_tree": "fit_tree", "naive_bayes": "fit_gnb", "svm": "fit_linear_svm",
        "adaboost": "fit_adaboost"}


def _failing_fit(monkeypatch, model):
    def refuse(*args, **kwargs):
        raise InsufficientDataError(f"cannot fit {model}")

    monkeypatch.setattr(baselines, FITS[model], refuse)


@pytest.mark.parametrize("failing", [
    ["naive_bayes"], ["svm"],
    ["naive_bayes", "svm"],  # the earlier job's error, as one CPU raises it
], ids="+".join)
def test_a_failing_baseline_exits_as_on_one_cpu_and_leaves_no_child(
        tmp_path, data_files, monkeypatch, capsys, failing):
    train, test = data_files
    common = ["--train", train, "--test", test, "--baselines", ",".join(FOUR)]
    _on_cpus(monkeypatch, 1)
    finished = tmp_path / "finished"
    assert _run("baselines", *common, "--out", finished) == 0
    before = _files_under(finished)
    for model in failing:
        _failing_fit(monkeypatch, model)
    forks = _spy_forks(monkeypatch)
    capsys.readouterr()
    errors = []
    for n in (1, 2):
        _on_cpus(monkeypatch, n)
        for out in (tmp_path / f"fresh{n}", finished):
            assert _run("baselines", *common, "--seed", 2, "--out", out) == 3
            errors.append(capsys.readouterr().err)
            _no_child_left()
        assert not (tmp_path / f"fresh{n}").exists()
    assert _files_under(finished) == before
    assert len(forks) == 2
    assert errors == [f"nidkit: invalid data: cannot fit {failing[0]}\n"] * 4


def _fail_job(monkeypatch, job):
    """Makes one job fail: the detector diverges at epoch 0, SVM-SMOTE (the
    oversampled typer's first step) is refused, or a baseline's fit is."""
    if job == "detector":
        real_train = neural.train

        def train(model, data, targets, *args, **kwargs):
            if targets.shape[1] == len(INDEX):  # the autoencoder reconstructs its input
                raise TrainingDivergedError("validation loss is nan at epoch 0 (detector)")
            return real_train(model, data, targets, *args, **kwargs)

        monkeypatch.setattr(neural, "train", train)
    elif job == "oversampled":
        def refuse(*args, **kwargs):
            raise InsufficientDataError("cannot oversample")

        monkeypatch.setattr(classifier, "svm_smote", refuse)
    else:
        _failing_fit(monkeypatch, job)


PIPELINE_BOTH = ["pipeline", "--oversample", "both", *FAST]
BASELINES_FOUR = ["baselines", "--baselines", ",".join(FOUR)]


@pytest.mark.parametrize("argv, failing", [
    (PIPELINE_BOTH, "detector"), (PIPELINE_BOTH, "oversampled"),
    (BASELINES_FOUR, "naive_bayes"), (BASELINES_FOUR, "adaboost"),
], ids=["pipeline-detector", "pipeline-oversampled", "baselines-naive_bayes",
        "baselines-adaboost"])
def test_a_failing_run_logs_the_same_records_on_one_cpu_and_two(
        tmp_path, data_files, monkeypatch, caplog, argv, failing):
    # the detector and naive Bayes fail in the caller's half of the jobs,
    # the oversampled typer and AdaBoost in the worker's
    train, test = data_files
    _fail_job(monkeypatch, failing)
    runs = []
    for n in (1, 2):
        _on_cpus(monkeypatch, n)
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="nidkit"):
            code = _run(*argv, "--train", train, "--test", test, "--out", tmp_path / "out")
        runs.append((code, [(r.name, r.levelno, _untimed(r.getMessage()))
                            for r in caplog.records]))
        _no_child_left()
    assert runs[0] == runs[1] and runs[0][0] == 3 and runs[0][1]
    assert not (tmp_path / "out").exists()


SLEEP_S = 15.0


def _ends_at_once(tmp_path, monkeypatch, capsys, argv, owner, slow):
    """Runs ``argv`` on one CPU, then on two with ``owner.slow``, a job of
    the worker's half, sleeping SLEEP_S first: the two-CPU run exits 3 with
    the one-CPU error line, leaves no child, and takes well under SLEEP_S."""
    out = tmp_path / "out"
    _on_cpus(monkeypatch, 1)
    capsys.readouterr()
    assert _run(*argv, "--out", out) == 3
    err = capsys.readouterr().err
    real = getattr(owner, slow)

    def sleeping(*args, **kwargs):
        time.sleep(SLEEP_S)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, slow, sleeping)
    _on_cpus(monkeypatch, 2)
    forks = _spy_forks(monkeypatch)
    t0 = time.monotonic()
    assert _run(*argv, "--out", out) == 3
    elapsed = time.monotonic() - t0
    assert capsys.readouterr().err == err and err.count("\n") == 1
    _no_child_left()
    assert len(forks) == 1 and not out.exists()
    assert elapsed < SLEEP_S / 3, elapsed


def test_a_detector_that_diverges_ends_the_run_at_once(tmp_path, data_files, monkeypatch, capsys):
    # stage 1 fails, so the oversampled typer, held in the worker, is moot
    train, test = data_files
    _fail_job(monkeypatch, "detector")
    _ends_at_once(tmp_path, monkeypatch, capsys,
                  [*PIPELINE_BOTH, "--train", train, "--test", test], classifier, "svm_smote")


def test_a_refused_baseline_ends_the_run_at_once(tmp_path, data_files, monkeypatch, capsys):
    train, test = data_files
    _fail_job(monkeypatch, "naive_bayes")
    _ends_at_once(tmp_path, monkeypatch, capsys,
                  [*BASELINES_FOUR, "--train", train, "--test", test], baselines, "fit_linear_svm")


@pytest.mark.parametrize("death", ["unpicklable", "killed"])
def test_a_worker_that_cannot_report_exits_1_and_leaves_no_child(
        tmp_path, data_files, monkeypatch, capsys, death):
    train, test = data_files
    caller, real_train = os.getpid(), neural.train

    class Unpicklable(Exception):  # a local class, which pickle cannot name
        pass

    def train_in_worker(model, data, targets, *args, **kwargs):
        if os.getpid() != caller:
            if death == "killed":
                os.kill(os.getpid(), signal.SIGKILL)
            raise Unpicklable("cannot cross the pipe")
        return real_train(model, data, targets, *args, **kwargs)

    monkeypatch.setattr(neural, "train", train_in_worker)
    _on_cpus(monkeypatch, 2)
    forks = _spy_forks(monkeypatch)
    out = tmp_path / "out"
    capsys.readouterr()
    assert _run("pipeline", "--train", train, "--test", test, "--oversample", "both",
                "--out", out, *FAST) == 1
    err = capsys.readouterr().err
    _no_child_left()
    assert len(forks) == 1 and not out.exists()
    assert err.startswith("nidkit: internal error: ") and err.count("\n") == 1
    assert ("Unpicklable" if death == "unpicklable"
            else f"killed by signal {int(signal.SIGKILL)}") in err


@pytest.mark.parametrize("fails", ["write_text", "replace"])
@pytest.mark.parametrize("k", [1, 2, 4])
@pytest.mark.parametrize("earlier_run", [False, True])
def test_a_failed_write_leaves_whole_files_and_no_temporary_one(
        tmp_path, monkeypatch, fails, k, earlier_run):
    # the k-th file's write fails: files before it hold the new text, it and
    # the files after it hold the earlier run's text (or are absent), and
    # no file is cut short or left under a temporary name
    cfg = RunConfig(out_dir=str(tmp_path / "out"))
    old = {"report.json": "{}\n" * 50, "explore/a.csv": "a\n" * 50,
           "explore/b.csv": "b\n" * 50, "scores.csv": "s\n" * 50}
    new = {name: text.upper() * 2 for name, text in old.items()}
    if earlier_run:
        pipeline._write(cfg, old)
    owner = Path if fails == "write_text" else os
    real, calls = getattr(owner, fails), []

    def failing(*args, **kwargs):
        calls.append(None)
        if len(calls) == k:
            if fails == "write_text":  # the write is cut short
                real(args[0], args[1][:10])
            raise OSError(f"call {k} failed")
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, fails, failing)
    with pytest.raises(OSError, match=f"call {k} failed"):
        pipeline._write(cfg, new)
    names = list(new)
    expected = {name: new[name] for name in names[:k - 1]}
    if earlier_run:
        expected |= {name: old[name] for name in names[k - 1:]}
    assert _files_under(tmp_path / "out") == {n: t.encode() for n, t in expected.items()}


def test_an_overflowing_reconstruction_error_scores_inf_attack(tmp_path, data_files):
    train, test = data_files
    lines = test.read_text().splitlines()
    taxonomy = load_taxonomy()
    row = next(i for i, line in enumerate(lines)
               if categorize(line.split(",")[41], taxonomy) != CATEGORIES[NORMAL_CATEGORY])
    fields = lines[row].split(",")
    fields[0] = "1e308"  # a duration whose squared error is not finite
    lines[row] = ",".join(fields)
    far = tmp_path / "far.txt"
    far.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _run("pipeline", "--train", train, "--test", far, "--out", out, *FAST) == 0
    assert (out / "scores.csv").read_text().splitlines()[1 + row] == f"{row},inf,attack"


@pytest.mark.parametrize("command", ["evaluate", "baselines", "pipeline"])
def test_a_test_cell_too_large_to_standardize_exits_3(
        tmp_path, data_files, trained_out, capsys, monkeypatch, command):
    # unlike the duration above, whose z stays finite and whose squared
    # error overflows, serror_rate's training deviation is below 1, so
    # 1e308 has no finite z
    train, test = data_files
    far = _sixth_row_reads(test, tmp_path / "far.txt", INDEX["serror_rate"], "1e308")
    out = tmp_path / "out"
    if command == "evaluate":
        shutil.copytree(trained_out, out)
    before = _files_under(out) if out.exists() else None
    trained, train_network = [], neural.train
    monkeypatch.setattr(neural, "train",
                        lambda *a, **k: trained.append(1) or train_network(*a, **k))
    capsys.readouterr()
    assert _run(command, "--train", train, "--test", far, "--out", out, *FAST) == 3
    assert capsys.readouterr().err == (
        "nidkit: invalid data: feature 'serror_rate' is too large to standardize: "
        "a standardized value is not finite\n")
    assert (_files_under(out) if out.exists() else None) == before
    # the test file is standardized before any network trains
    assert trained == []


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


def test_same_train_file_refits_identical_pipeline(tmp_path, data_files, monkeypatch):
    train, _ = data_files
    out = tmp_path / "out"
    assert _run("train-binary", "--train", train, "--out", out, *FAST) == 0
    fitted = (out / "pipeline.json").read_bytes()
    written = []
    to_json = preprocess.FittedPipeline.to_json
    monkeypatch.setattr(preprocess.FittedPipeline, "to_json",
                        lambda self: written.append(to_json(self)) or written[-1])
    assert _run("train-binary", "--train", train, "--out", out, *FAST) == 0
    assert _run("train-multiclass", "--train", train, "--out", out, *FAST) == 0
    # each run fits again and gets the same bytes
    assert [(text + "\n").encode() for text in written] == [fitted, fitted]
    assert (out / "pipeline.json").read_bytes() == fitted


def test_a_pipeline_json_that_differs_from_the_fit_exits_2(tmp_path, data_files, capsys):
    train, _ = data_files
    out = tmp_path / "out"
    assert _run("train-binary", "--train", train, "--out", out, *FAST) == 0
    text = (out / "pipeline.json").read_text()
    (out / "pipeline.json").write_text(text.replace('"format_version": 1', '"format_version": 7'))
    before = _files_under(out)
    capsys.readouterr()
    assert _run("train-multiclass", "--train", train, "--out", out, *FAST) == 2
    err = capsys.readouterr().err
    assert err.startswith("nidkit: stale artifact: ") and err.count("\n") == 1
    assert "differs from the pipeline fitted on" in err
    assert _files_under(out) == before


def test_training_never_reads_an_artifact(tmp_path, data_files, trained_out, monkeypatch):
    # pipeline reads back the models its own jobs trained, as evaluate would
    # read them; no training command reads a file it finds in --out
    from nidkit.classifier import AttackClassifier
    from nidkit.detector import AnomalyDetector

    stored = {p.read_text() for p in trained_out.iterdir()}

    def refuse(cls, text):
        raise AssertionError(f"training read a {cls.__name__} artifact")

    def refuse_stored(read):
        def from_json(cls, text):
            if text in stored:
                refuse(cls, text)
            return read(text)
        return classmethod(from_json)

    monkeypatch.setattr(preprocess.FittedPipeline, "from_json", classmethod(refuse))
    for cls in (AnomalyDetector, AttackClassifier):
        monkeypatch.setattr(cls, "from_json", refuse_stored(cls.from_json))
    train, test = data_files
    fitted = (trained_out / "pipeline.json").read_bytes()
    for command in ("train-binary", "train-multiclass", "pipeline"):
        # each command over a fresh copy of the finished run, so every model
        # file in --out is one of the stored ones; another seed than theirs,
        # so this run's own models differ from every one of them
        out = tmp_path / command
        shutil.copytree(trained_out, out)
        assert _run(command, "--train", train, "--test", test, "--out", out, "--seed", 2,
                    *FAST) == 0, command
        assert (out / "pipeline.json").read_bytes() == fitted, command


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
    "pipeline-without-an-encoder": ("pipeline.json", lambda doc: {
        **doc, "encoders": {k: v for k, v in doc["encoders"].items() if k != "service"}}),
    "pipeline-extra-encoder": ("pipeline.json", lambda doc: {
        **doc, "encoders": {**doc["encoders"], "label": {}}}),
    # every test value off its training mean standardizes to an infinite z
    "pipeline-subnormal-deviation": ("pipeline.json", lambda doc: {
        **doc, "features": [{**f, "sigma": 1e-320} for f in doc["features"]]}),
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


# JSON values of every kind, nested a little. The text is a setting's
# spelling or made of "a", "b", "." and ":", so a path drawn from it stays
# inside the parent of the directory a run starts in. An integer is small or
# too large for any array, never a bin count that would allocate gigabytes.
_TEXT = st.sampled_from(["quantile", "quantile:0.5", "labeled-f1", "count", "svm", "svm,mlp",
                         "on"]) | st.text(alphabet="ab.:", max_size=4)
_INTEGERS = st.integers(-20_000, 20_000) | st.sampled_from([-2**63, 2**63, 10**30])
_JSON = st.recursive(
    st.none() | st.booleans() | _INTEGERS | st.floats() | _TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_TEXT, inner, max_size=2),
    max_leaves=6)
_PATH_FIELDS = ("train_path", "test_path", "taxonomy_path", "out_dir")


def _run_in(cwd, argv):
    """(exit code, stderr lines) of ``main(argv)`` run in the directory ``cwd``."""
    err, before = io.StringIO(), os.getcwd()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stderr(err):
            code = main([str(a) for a in argv])
    finally:
        os.chdir(before)
    return code, err.getvalue().splitlines()


@settings(max_examples=50, deadline=None)
@given(name=st.sampled_from([f.name for f in fields(RunConfig)]), value=_JSON)
@example(name="calibration", value=5)
def test_a_generated_config_value_exits_0_or_2(data_files, name, value):
    # one field comes from a --config file alone; explore runs on the rest
    train, _ = data_files
    with tempfile.TemporaryDirectory() as root:
        work = Path(root) / "work"
        work.mkdir()
        cfg_path = Path(root) / "cfg.json"
        cfg_path.write_text(json.dumps({name: value}))
        argv = ["explore", "--config", cfg_path]
        argv += [] if name == "train_path" else ["--train", train]
        argv += [] if name == "out_dir" else ["--out", work / "out"]
        before = _files_under(Path(root))
        code, err = _run_in(work, argv)
        assert code in (0, 2), err
        if code == 2:
            # a path that is null or text may name no file, or a directory
            unchecked = name in _PATH_FIELDS and (value is None or isinstance(value, str))
            prefix = "nidkit: " if unchecked else "nidkit: config error: "
            assert len(err) == 1 and err[0].startswith(prefix), err
            assert _files_under(Path(root)) == before


def _kind(value):
    return "number" if type(value) in (int, float) else type(value).__name__


def _key_path(doc, steps):
    """The path to an object key in ``doc``: each step picks, modulo their
    count, a key of the object or an element of the array it reaches, and
    the path ends at the last key picked."""
    path, node, end = [], doc, 0
    for step in steps:
        if not isinstance(node, (dict, list)) or not node:
            break
        key = sorted(node)[step % len(node)] if isinstance(node, dict) else step % len(node)
        path.append(key)
        node = node[key]
        end = len(path) if isinstance(key, str) else end
    return path[:end]


@settings(max_examples=50, deadline=None)
@given(artifact=st.sampled_from(["pipeline.json", "detector.json", "classifier_oversampled.json"]),
       steps=st.lists(st.integers(0, 1000), min_size=1, max_size=5), delete=st.booleans(),
       replacement=_JSON)
@example(artifact="pipeline.json", steps=[0, 2], delete=True, replacement=None)  # no service
def test_a_generated_artifact_field_exits_0_or_3(data_files, trained_out, artifact, steps,
                                                 delete, replacement):
    _, test = data_files
    doc = json.loads((trained_out / artifact).read_text())
    *parents, key = _key_path(doc, steps)
    owner = doc
    for parent in parents:
        owner = owner[parent]
    if delete:
        del owner[key]
    else:
        assume(_kind(replacement) != _kind(owner[key]))
        owner[key] = replacement
    with tempfile.TemporaryDirectory() as root:
        out = Path(root) / "out"
        shutil.copytree(trained_out, out)
        (out / artifact).write_text(json.dumps(doc))
        before = _files_under(out)
        code, err = _run_in(root, ["evaluate", "--test", test, "--out", out])
        assert code in (0, 3), err
        if code == 3:
            assert len(err) == 1 and err[0].startswith("nidkit: invalid data: "), err
            assert _files_under(out) == before


def test_no_label_array_of_objects_reaches_np_unique(tmp_path, data_files, monkeypatch):
    # past the parse, labels are integer ids: no stage sorts labels again, so
    # np.unique runs only where the parser codes and spells columns
    _on_cpus(monkeypatch, 1)
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
    _on_cpus(monkeypatch, 1)
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
