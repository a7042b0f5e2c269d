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
