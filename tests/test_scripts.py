"""The scripts under ``scripts/`` run end to end on local files."""

import importlib.util
import sys
from pathlib import Path

from .fixtures import make_fixture, write_kdd_file

ROOT = Path(__file__).resolve().parent.parent


def _script(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_paper_tables_prints_both_tables(tmp_path, monkeypatch, capsys):
    train, test, out = tmp_path / "train.txt", tmp_path / "test.txt", tmp_path / "out"
    write_kdd_file(make_fixture(20, seed=3), train)
    write_kdd_file(make_fixture(6, seed=4), test)
    monkeypatch.setattr(sys, "argv", ["run_paper_tables.py", "--train", str(train),
                                      "--test", str(test), "--out", str(out),
                                      "--skip-baselines"])
    assert _script("run_paper_tables").main() == 0
    lines = capsys.readouterr().out.splitlines()
    assert "=== Binary detection (attack positive) ===" in lines
    assert any(line.startswith("Autoencoder ") for line in lines)
    assert "=== 4-class attack typing (ground-truth attack rows) ===" in lines
    # one row per metric after the 4-class header: name, then the value
    # without and with oversampling
    table = {line[:12].strip(): line[12:].split() for line in lines[lines.index(
        "=== 4-class attack typing (ground-truth attack rows) ===") + 2:-2]}
    assert list(table) == ["accuracy", "F1_DoS", "F1_Probe", "F1_R2L", "F1_U2R", "macro F1",
                           "micro F1"]
    assert all(len(cells) == 2 and all(0.0 <= float(c) <= 1.0 for c in cells)
               for cells in table.values())
    assert lines[-1] == f"full report: {out / 'report.json'}"
