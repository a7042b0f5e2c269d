"""Metamorphic relations of the commands: how the outputs of ``evaluate``
must move when a valid test file is transformed, checked in process on
fixture files against artifacts trained once, and that ``pipeline`` writes
the same artifacts whatever the BLAS thread count."""

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nidkit.cli import main

from .fixtures import make_fixture, write_kdd_file

N_TEST = 60  # 12 rows per category
# report.json keys whose every number is a count of test rows
COUNT_KEYS = ("confusion", "tp", "tn", "fp", "fn", "counts", "false_positive_normals",
              "dispositions")
OUTPUTS = ("scores.csv", "report.json", "stage1_confusion.csv",
           *(f"stage2_{variant}_{part}_confusion.csv" for variant in ("plain", "oversampled")
             for part in ("groundtruth", "survivors")))


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """The test file's lines, and an --out directory holding the artifacts
    of one finished ``pipeline --oversample both`` run."""
    root = tmp_path_factory.mktemp("metamorphic")
    train, test = root / "train.txt", root / "test.txt"
    write_kdd_file(make_fixture(40, seed=3), train)
    write_kdd_file(make_fixture(N_TEST // 5, seed=4), test)
    out = root / "out"
    assert main(["pipeline", "--train", str(train), "--test", str(test), "--out", str(out),
                 "--oversample", "both", "--max-epochs", "8"]) == 0
    return test.read_text().splitlines(), out


def _evaluate(lines: list[str], trained_out: Path) -> dict:
    """The outputs of ``evaluate`` on a test file of ``lines``, by name;
    report.json loses its timings."""
    with tempfile.TemporaryDirectory() as root:
        test, out = Path(root) / "test.txt", Path(root) / "out"
        test.write_text("\n".join(lines) + "\n")
        shutil.copytree(trained_out, out)
        assert main(["evaluate", "--test", str(test), "--out", str(out),
                     "--oversample", "both"]) == 0
        files = {name: (out / name).read_text() for name in OUTPUTS if (out / name).exists()}
    report = json.loads(files["report.json"])
    del report["timings_seconds"]
    files["report.json"] = report
    return files


def _scaled(value, k: int):
    """``value`` with every number in it multiplied by ``k``."""
    if isinstance(value, dict):
        return {key: _scaled(v, k) for key, v in value.items()}
    if isinstance(value, list):
        return [_scaled(v, k) for v in value]
    return value * k


def _counts_scaled(report, k: int):
    """``report`` with the counts under COUNT_KEYS multiplied by ``k`` and
    every other value, rates included, as it is."""
    if isinstance(report, dict):
        return {key: _scaled(v, k) if key in COUNT_KEYS else _counts_scaled(v, k)
                for key, v in report.items()}
    return report


def _confusion_scaled(text: str, k: int) -> str:
    header, *rows = text.splitlines()
    cells = [row.split(",") for row in rows]
    return "\n".join([header, *(",".join([c[0], *(str(int(v) * k) for v in c[1:])])
                                for c in cells)]) + "\n"


@settings(max_examples=15, deadline=None)
@given(order=st.permutations(range(N_TEST)))
def test_permuting_the_test_rows_permutes_the_scores_and_nothing_else(trained, order):
    lines, out = trained
    base = _evaluate(lines, out)
    permuted = _evaluate([lines[i] for i in order], out)
    header, *rows = base["scores.csv"].splitlines()
    scored = [row.split(",", 1)[1] for row in rows]
    want = [f"{i},{scored[j]}" for i, j in enumerate(order)]
    # the reconstruction errors move with their rows, bit for bit
    assert permuted["scores.csv"].splitlines() == [header, *want]
    assert {n: t for n, t in permuted.items() if n != "scores.csv"} == (
        {n: t for n, t in base.items() if n != "scores.csv"})


def test_a_test_file_concatenated_with_itself_doubles_every_count(trained):
    lines, out = trained
    base = _evaluate(lines, out)
    doubled = _evaluate(lines + lines, out)
    assert set(doubled) == set(base)
    # a reconstruction error depends on the row count of its file in the
    # last bits (BLAS picks its kernel by shape), so only verdicts are pinned
    verdicts = [row.rsplit(",", 1)[1] for row in base["scores.csv"].splitlines()]
    assert [row.rsplit(",", 1)[1] for row in doubled["scores.csv"].splitlines()] == (
        verdicts[:1] + 2 * verdicts[1:])
    assert doubled["report.json"] == _counts_scaled(base["report.json"], 2)
    for name in set(base) - {"scores.csv", "report.json"}:
        assert doubled[name] == _confusion_scaled(base[name], 2), name


def _without_timings(value):
    """``value`` less every ``seconds`` and ``timings_seconds`` entry."""
    if isinstance(value, dict):
        return {key: _without_timings(v) for key, v in value.items()
                if key not in ("seconds", "timings_seconds")}
    if isinstance(value, list):
        return [_without_timings(v) for v in value]
    return value


def test_pipeline_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    # SVM-SMOTE's joint fit and neighbour screen multiply matrices large
    # enough here for BLAS to split them over threads. The minority classes
    # each take some DoS rows under their own names, so every one of them
    # has margin violators and runs the borderline search
    n = 600
    write_kdd_file(make_fixture(n, seed=3), tmp_path / "all.txt")
    blocks = [tmp_path.joinpath("all.txt").read_text().splitlines()[i * n:(i + 1) * n]
              for i in range(5)]  # Normal, DoS, Probe, R2L, U2R
    moved = [line.rsplit(",", 2)[0] for line in blocks[1][-60:]]
    lines = [*blocks[0][:300], *blocks[1][:-60], *blocks[2][:150], *blocks[3][:40],
             *blocks[4][:10],
             *(f"{row},{name},0" for row, name in zip(
                 moved, ["satan"] * 30 + ["guess_passwd"] * 20 + ["rootkit"] * 10))]
    (tmp_path / "train.txt").write_text("\n".join(lines) + "\n")
    write_kdd_file(make_fixture(12, seed=4), tmp_path / "test.txt")
    src = Path(__file__).resolve().parent.parent / "src"
    runs = {}
    for threads in (1, 2):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads), "OMP_NUM_THREADS": str(threads),
               "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
        runs[threads] = subprocess.Popen(
            [sys.executable, "-m", "nidkit.cli", "pipeline", "--train", str(tmp_path / "train.txt"),
             "--test", str(tmp_path / "test.txt"), "--out", str(tmp_path / f"out{threads}"),
             "--oversample", "on", "--max-epochs", "2"],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    for proc in runs.values():
        _, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, err
    one, two = tmp_path / "out1", tmp_path / "out2"
    names = sorted(p.name for p in one.iterdir())
    assert names == sorted(p.name for p in two.iterdir())
    report = json.loads((one / "train_multiclass_report.json").read_text())
    log = report["oversampled"]["resample_log"]
    assert len(log) == 3 and all("borderline seeds" in line for line in log), log
    for name in names:
        if name.endswith("report.json"):
            assert (_without_timings(json.loads((one / name).read_text()))
                    == _without_timings(json.loads((two / name).read_text()))), name
        else:
            assert (one / name).read_bytes() == (two / name).read_bytes(), name
