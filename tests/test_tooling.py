"""The benchmark tracer must still find every nidkit name it wraps, the
count of settable values in ``src/nidkit`` only changes on purpose, the
README lists exactly the settings a config file takes, every public name in
``src/nidkit`` has a caller outside tests, only ``pipeline._write`` writes a
file, and no command starts a process pool or leaves a process running once
it has exited."""

import ast
import json
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

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


def _host_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _one_cpu():
    """A preexec_fn that pins the traced process to one CPU, where every
    job of a command runs, and is traced, in that process."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


ONE_CPU = _one_cpu if hasattr(os, "sched_setaffinity") else None
TREE_MODELS = ("decision_tree", "random_forest", "adaboost", "gradient_boosting")


def _traced_tree_spans(tmp_path, preexec_fn=None) -> tuple[list[dict], Path]:
    """The spans of a traced ``baselines`` run of the four tree models, and
    its train file."""
    from .fixtures import make_fixture, write_kdd_file

    train, test = tmp_path / "train.txt", tmp_path / "test.txt"
    write_kdd_file(make_fixture(20, seed=3), train)
    write_kdd_file(make_fixture(6, seed=4), test)
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps([[
        "baselines", "--train", str(train), "--test", str(test),
        "--out", str(tmp_path / "out"), "--baselines", ",".join(TREE_MODELS)]]))
    spans = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracer.py"), "--plan", str(plan),
         "--out", str(spans), "--src", str(ROOT / "src")],
        cwd=ROOT, capture_output=True, text=True, timeout=300, preexec_fn=preexec_fn,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(spans.read_text())["spans"], train


def _assert_every_tree_counted(recorded: list[dict], train: Path) -> None:
    fits = {s["name"]: s["counts"] for s in recorded if s["name"].startswith("baselines.fit.")}
    assert sorted(fits) == sorted(f"baselines.fit.{m}" for m in TREE_MODELS)
    for counts in fits.values():
        assert counts["leaves"] > 0
    assert fits["baselines.fit.decision_tree"]["trees"] == 1
    assert fits["baselines.fit.adaboost"]["trees"] >= 1
    assert fits["baselines.fit.gradient_boosting"]["trees"] == 100
    # the forest's one span holds every tree and leaf an untraced fit returns
    from nidkit.baselines import ForestConfig, fit_forest
    from nidkit.dataset import category_ids, load_taxonomy, parse_kdd_file
    from nidkit.pipeline import _binary_ids
    from nidkit.preprocess import fit_transform

    forest_spans = [s for s in recorded if s["name"] == "baselines.fit.random_forest"]
    assert len(forest_spans) == 1
    parsed = parse_kdd_file(train, split="train")
    _, values = fit_transform(parsed)
    forest = fit_forest(values, _binary_ids(category_ids(parsed, load_taxonomy())),
                        ForestConfig(seed=0))
    leaves = sum(1 for t in forest.trees for _ in _leaf_nodes(t.root))
    assert forest_spans[0]["counts"] == {"leaves": leaves, "trees": 100}


def test_tracer_counts_leaves_of_every_tree_model(tmp_path):
    # the tracer walks each tree container it knows (root, trees, stumps,
    # (tree, leaf_values) pairs), so a reshaped container fails here. The
    # traced process is pinned to one CPU, where every model fits in it.
    _assert_every_tree_counted(*_traced_tree_spans(tmp_path, ONE_CPU))


@pytest.mark.xfail(_host_cpus() > 1, strict=True, reason=(
    "on more than one CPU the decision tree and the forest fit in a forked worker, "
    "whose spans never reach the tracer (CHANGES.md, FOUND: perfbench/tracer.py)"))
def test_tracer_counts_leaves_of_every_tree_model_on_all_the_hosts_cpus(tmp_path):
    # the benchmark traces on all the host's CPUs; its per-layer baseline
    # metrics are complete only where this passes
    _assert_every_tree_counted(*_traced_tree_spans(tmp_path))


def _leaf_nodes(root):
    stack = [root]
    while stack:
        node = stack.pop()
        if node.is_leaf:
            yield node
        else:
            stack.extend((node.left, node.right))


def _traced_training_spans(tmp_path, preexec_fn=None) -> list[dict]:
    """The spans of a traced ``pipeline --oversample both`` run."""
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
        cwd=ROOT, capture_output=True, text=True, timeout=300, preexec_fn=preexec_fn,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(spans.read_text())["spans"]


def _assert_every_training_run_counted(recorded: list[dict]) -> None:
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


def test_tracer_counts_epochs_and_batches_of_every_training_run(tmp_path):
    # the tracer binds neural.train's arguments by name, reads TrainConfig
    # fields, and puts the untraced neural.forward back while neural.train
    # runs; a renamed parameter or field, or a caller that holds its own
    # reference to neural.train (so per-batch forward calls are traced
    # and no train span is recorded), fails here. The traced process is
    # pinned to one CPU, where every training job runs in it.
    _assert_every_training_run_counted(_traced_training_spans(tmp_path, ONE_CPU))


@pytest.mark.xfail(_host_cpus() > 1, strict=True, reason=(
    "on more than one CPU the detector and the plain typer train in a forked worker, "
    "whose spans never reach the tracer (CHANGES.md, FOUND: perfbench/tracer.py)"))
def test_tracer_counts_every_training_run_on_all_the_hosts_cpus(tmp_path):
    # the benchmark traces on all the host's CPUs; its per-layer training
    # metrics are complete only where this passes
    _assert_every_training_run_counted(_traced_training_spans(tmp_path))


def _settable_values(tree: ast.Module) -> list[str]:
    """Defaulted parameters of public functions and methods (``__init__``
    included) plus defaulted fields of public dataclasses."""

    def defaulted(fn):
        return len(fn.args.defaults) + sum(d is not None for d in fn.args.kw_defaults)

    def is_dataclass(cls):
        for dec in cls.decorator_list:
            target = dec.func if isinstance(dec, ast.Call) else dec
            if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
                return True
        return False

    found = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            found += [node.name] * defaulted(node)
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            dataclass_fields = is_dataclass(node)
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and (
                        item.name == "__init__" or not item.name.startswith("_")):
                    found += [f"{node.name}.{item.name}"] * defaulted(item)
                if dataclass_fields and isinstance(item, ast.AnnAssign) and item.value is not None:
                    found.append(f"{node.name}.{item.target.id}")
    return found


def test_settable_value_count_is_pinned():
    # a new option, keyword default or defaulted dataclass field must change
    # this number in the same diff; so must deleting one
    found = []
    for path in sorted((ROOT / "src" / "nidkit").glob("*.py")):
        found += [f"{path.stem}.{name}" for name in _settable_values(ast.parse(path.read_text()))]
    assert len(found) == 57, found


def test_the_readme_lists_each_config_key():
    # a --config file takes exactly RunConfig's fields, in this order
    from nidkit.pipeline import RunConfig

    text = " ".join((ROOT / "README.md").read_text().split())
    listed = re.search(r"keys are the fields of `nidkit\.pipeline\.RunConfig` \(([^)]*)\)", text)
    assert listed, "the README no longer lists the --config keys"
    assert re.findall(r"`(\w+)`", listed.group(1)) == [f.name for f in fields(RunConfig)]


def _writes_a_file(call: ast.Call) -> bool:
    """A write_text, write_bytes, mkdir or makedirs call, or an open whose
    mode is not a plain read."""
    func = call.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    if name in ("write_text", "write_bytes", "mkdir", "makedirs"):
        return True
    if name != "open":
        return False
    position = 0 if isinstance(func, ast.Attribute) else 1  # Path.open(mode), open(file, mode)
    modes = [kw.value for kw in call.keywords if kw.arg == "mode"]
    modes += call.args[position:position + 1]
    return any(not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                    and not set(mode.value) & set("wax+")) for mode in modes)


def _file_writes(node: ast.AST, owner: str = "") -> list[str]:
    """``owner:line`` of each call in ``node`` that writes, ``owner`` being
    its enclosing function or class."""
    found = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found += _file_writes(child, f"{owner}.{child.name}" if owner else child.name)
            continue
        if isinstance(child, ast.Call) and _writes_a_file(child):
            found.append(f"{owner}:{child.lineno}")
        found += _file_writes(child, owner)
    return found


def test_only_the_write_path_writes_files():
    # every command computes all of its outputs before it hands them to
    # pipeline._write, so a refused or diverged run leaves --out as it was
    found = []
    for path in sorted((ROOT / "src" / "nidkit").glob("*.py")):
        found += [f"{path.stem}.{site}" for site in _file_writes(ast.parse(path.read_text()))]
    assert found and all(site.startswith("pipeline._write:") for site in found), found


def _public_definitions(tree: ast.Module) -> list[tuple[str, str, int]]:
    """(qualified name, bare name, def line) of each public function, class
    and method; dunder methods are left out."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            found.append((node.name, node.name, node.lineno))
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            found += [(f"{node.name}.{item.name}", item.name, item.lineno) for item in node.body
                      if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")]
    return found


def test_every_public_name_in_the_package_has_a_caller():
    # src/nidkit keeps only what a command or the benchmark calls: a name
    # that no other line of the package, scripts/ or perfbench/ mentions
    # belongs in tests/ (as an oracle) or nowhere
    sources = [*sorted((ROOT / "src" / "nidkit").glob("*.py")),
               *sorted((ROOT / "scripts").glob("*.py")), *sorted((ROOT / "perfbench").glob("*.py"))]
    lines = {path: path.read_text().splitlines() for path in sources}
    unused = []
    for path in sorted((ROOT / "src" / "nidkit").glob("*.py")):
        for qualified, name, lineno in _public_definitions(ast.parse(path.read_text())):
            word = re.compile(rf"\b{name}\b")
            if not any(word.search(line) for other, text in lines.items()
                       for i, line in enumerate(text, start=1)
                       if (other, i) != (path, lineno)):
                unused.append(f"{path.stem}.{qualified}")
    assert unused == []


def test_importing_the_cli_loads_no_process_pool():
    # a worker pool and the resource tracker it starts come from these
    # modules; a command that never imports them can leave no worker behind
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    code = ("import sys, nidkit.cli; "
            "print([m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def _live_members(session: int) -> list[str]:
    """Non-zombie processes of ``session``, as listed under /proc."""
    found = []
    for entry in Path("/proc").iterdir():
        try:
            stat = (entry / "stat").read_text()
        except (OSError, ValueError):  # not a process, or it has exited
            continue
        # "pid (comm) state ppid pgrp session ..."; comm may hold spaces
        end = stat.rindex(")")
        state, _, _, sid = stat[end + 2:].split()[:4]
        if int(sid) == session and state != "Z":
            found.append(f"{stat[:end + 1]} {state}")
    return found


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
@pytest.mark.parametrize("command", [
    ["baselines", "--baselines", "random_forest"],
    ["baselines", "--baselines", "decision_tree,random_forest"],
    ["pipeline", "--max-epochs", "2"],
    ["pipeline", "--oversample", "both", "--max-epochs", "2"],
], ids=["baselines", "baselines-forked", "pipeline", "pipeline-both"])
def test_command_leaves_no_process_running(tmp_path, command):
    from .fixtures import make_fixture, write_kdd_file

    train, test = tmp_path / "train.txt", tmp_path / "test.txt"
    write_kdd_file(make_fixture(20, seed=3), train)
    write_kdd_file(make_fixture(6, seed=4), test)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    # its own session, so every process it starts is found by session id
    proc = subprocess.Popen(
        [sys.executable, "-m", "nidkit.cli", *command, "--train", str(train),
         "--test", str(test), "--out", str(tmp_path / "out")],
        cwd=tmp_path, env=env, start_new_session=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    assert proc.wait(timeout=300) == 0
    left = _live_members(proc.pid)
    assert left == [], left
