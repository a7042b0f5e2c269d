"""Smoke test of the benchmark: every workload at the tiny size, untraced and
traced, with its output checks on and no timing gate.

Run from the repository root: python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import tracer  # noqa: E402


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_workload(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "2", "--trace", trace,
                "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= 1
    expected = ({m[0] for m in tracer.LAYER_METRICS} if trace == "1" else set(run.END_TO_END))
    assert set(result["metrics"]) == expected
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], float)


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        m[:3] for m in tracer.LAYER_METRICS]


def test_generator_is_seeded_and_valid(tmp_path):
    import gen_kdd

    sys.path.insert(0, str(ROOT / "src"))
    from nidkit.dataset import categories, load_taxonomy, parse_kdd_file

    a, b, c = (tmp_path / n for n in ("a.txt", "b.txt", "c.txt"))
    gen_kdd.write_split(a, "test", seed=5, scale=0.05)
    gen_kdd.write_split(b, "test", seed=5, scale=0.05)
    gen_kdd.write_split(c, "test", seed=6, scale=0.05)
    assert a.read_bytes() == b.read_bytes() != c.read_bytes()
    ds = parse_kdd_file(a, split="test")
    cats = set(categories(ds, load_taxonomy()))
    assert cats == {"Normal", "DoS", "Probe", "R2L", "U2R"}
    labels = set(ds.labels())
    assert {"apache2", "mscan", "snmpguess", "xterm"} <= labels
    outbound = {r.features[19] for r in ds.records}
    assert outbound == {"0"}


def test_refuses_to_run_without_the_sources(tmp_path):
    proc = _run("--workload", "pipeline", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
