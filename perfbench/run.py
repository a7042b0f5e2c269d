"""nidkit benchmark: drives the ``nidkit`` CLI from outside, closed loop.

One caller starts each nidkit command as one child process, only after
the previous one has exited, and times it from start to exit. Three
workloads:

* ``pipeline``: ``nidkit pipeline --oversample both`` on synthetic
  KDDTrain+/KDDTest+-sized files, epochs pinned (patience > max epochs);
* ``baselines``: ``nidkit baselines`` with the six classical models on a
  row sample of the train file and the full test file;
* ``ingest``: with artifacts trained once in set-up, ``nidkit evaluate``
  on a test file twice KDDTest+ and ``nidkit explore`` on the
  train file.

Every operation runs in a fresh ``--out`` directory and its outputs are
checked: exit code, artifacts present and parseable, stage-2
dispositions summing to the test rows, and byte-identical outputs
(timing fields removed) across every operation of the run. The last
stdout line is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (end-to-end metrics with ``--trace 0``, per-layer
metrics from an in-process traced run with ``--trace 1``).

Usage, from the repository root:
    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload ingest --seed 1 --seconds 5 --trace 1 --size smoke
"""

from __future__ import annotations

import os
import sys

NPROC = len(os.sched_getaffinity(0))
# One BLAS/OpenMP thread for this process and every child (never more than
# nproc): training multiplies 32-row batches, too small to gain from a pool,
# and idle pool threads spinning on a shared host make timings noisy.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

WORKLOADS = ("pipeline", "baselines", "ingest")
SETUP_REPEATS = 3
ARTIFACT_SEED = 0  # data and model seed of the ingest artifacts
RUN_DEADLINE_S = 170.0  # a run ends well inside 180 s

# End-to-end metrics: name -> (unit, better). Every workload reports each.
END_TO_END = {
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "detect_f1": ("ratio", "higher"),
    "macro_f1": ("ratio", "higher"),
}


@dataclass(frozen=True)
class Size:
    train_scale: float        # train rows as a multiple of KDDTrain+
    test_scale: float         # test rows as a multiple of KDDTest+ (pipeline, baselines)
    ingest_test_scale: float  # evaluate input of the ingest workload
    baseline_rows: int        # train sample for the baselines workload
    epochs: int               # pinned epochs per network in the pipeline workload
    artifact_scale: float     # train rows for the ingest artifacts, as a multiple of KDDTrain+
    artifact_epochs: int


SIZES = {
    "full": Size(1.0, 1.0, 2.0, 3000, 6, 0.08, 2),
    "smoke": Size(0.025, 0.025, 0.1, 600, 2, 0.02, 1),
}

BASELINES = "decision_tree,random_forest,naive_bayes,svm,adaboost,gradient_boosting"


class BenchError(RuntimeError):
    """Set-up or environment failure: the run ends without a result."""


@dataclass
class Child:
    argv: list[str]
    wall_s: float
    rss_mb: float
    code: int
    log: Path

    def last_log_line(self) -> str:
        lines = self.log.read_text(errors="replace").strip().splitlines()
        return lines[-1] if lines else ""


@dataclass
class OpResult:
    children: list[Child]
    problems: list[str] = field(default_factory=list)
    fingerprint: dict[str, str] = field(default_factory=dict)
    quality: dict[str, float] = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return sum(c.wall_s for c in self.children)

    @property
    def rss_mb(self) -> float:
        return max(c.rss_mb for c in self.children)


class Bench:
    def __init__(self, root: Path, workload: str, seed: int, size: Size, work: Path):
        self.src = root / "src"
        self.workload = workload
        self.seed = seed
        self.size = size
        self.work = work
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.env = dict(os.environ, PYTHONPATH=str(self.src))
        self.n_train = self.n_test = 0
        self.data: Path | None = None

    # --- children -------------------------------------------------------------

    def run_child(self, argv: list[str], log: Path) -> Child:
        """Start one child, wait for it to exit; wall time and max RSS of it alone."""
        t0 = time.perf_counter()
        with open(log, "wb") as fh:
            proc = subprocess.Popen(argv, cwd=self.work, env=self.env, stdout=fh,
                                    stderr=subprocess.STDOUT)
            try:
                while True:
                    pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                    if pid:
                        break
                    if time.monotonic() > self.deadline:
                        proc.kill()
                        _, status, usage = os.wait4(proc.pid, 0)
                        break
                    time.sleep(0.002)
            except BaseException:
                proc.kill()
                os.wait4(proc.pid, 0)
                raise
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(argv=argv, wall_s=wall, rss_mb=usage.ru_maxrss / 1024.0,
                     code=proc.returncode, log=log)

    def nidkit(self, args: list[str], log: Path) -> Child:
        return self.run_child([sys.executable, "-m", "nidkit.cli", *args], log)

    # --- set-up ----------------------------------------------------------------

    def setup(self, dest: Path) -> dict[str, str]:
        """Generate the inputs (and, for ingest, train the artifacts) under dest.

        Returns content hashes, so repeated set-ups can be checked for
        determinism."""
        import gen_kdd

        dest.mkdir(parents=True)
        s = self.size
        test_scale = s.ingest_test_scale if self.workload == "ingest" else s.test_scale
        self.n_train = gen_kdd.write_split(dest / "train.txt", "train", self.seed, s.train_scale)
        self.n_test = gen_kdd.write_split(dest / "test.txt", "test", self.seed, test_scale)
        if self.workload == "baselines":
            gen_kdd.subsample(dest / "train.txt", dest / "train_sample.txt",
                              s.baseline_rows, self.seed)
        if self.workload == "ingest":
            # one trained model for every seed: the seed varies the traffic it screens
            gen_kdd.write_split(dest / "artifact_train.txt", "train", ARTIFACT_SEED,
                                s.artifact_scale)
            common = ["--train", str(dest / "artifact_train.txt"), "--out", str(dest / "artifacts"),
                      "--seed", str(ARTIFACT_SEED), "--max-epochs", str(s.artifact_epochs),
                      "--patience", str(s.artifact_epochs + 1)]
            for command in (["train-binary"], ["train-multiclass", "--oversample", "off"]):
                child = self.nidkit(command + common, dest / f"{command[0]}.log")
                if child.code != 0:
                    raise BenchError(f"set-up command {command[0]} exited {child.code}: "
                                     f"{child.last_log_line()}")
        hashes = {p.name: _sha(p.read_bytes()) for p in sorted(dest.glob("*.txt"))}
        for p in sorted((dest / "artifacts").glob("*.json")):
            if not p.name.endswith("_report.json"):  # reports hold timings
                hashes[p.name] = _sha(p.read_bytes())
        return hashes

    # --- operations -------------------------------------------------------------

    def commands(self, out: Path) -> list[list[str]]:
        """The nidkit argv lists of one operation, in order."""
        d, s, seed = self.data, self.size, str(self.seed)
        if self.workload == "pipeline":
            return [["pipeline", "--train", str(d / "train.txt"), "--test", str(d / "test.txt"),
                     "--out", str(out), "--oversample", "both", "--seed", seed,
                     "--max-epochs", str(s.epochs), "--patience", str(s.epochs + 1)]]
        if self.workload == "baselines":
            return [["baselines", "--train", str(d / "train_sample.txt"),
                     "--test", str(d / "test.txt"), "--out", str(out), "--seed", seed,
                     "--baselines", BASELINES]]
        return [["evaluate", "--test", str(d / "test.txt"), "--out", str(out),
                 "--oversample", "off", "--seed", seed],
                ["explore", "--train", str(d / "train.txt"), "--out", str(out), "--seed", seed]]

    def fresh_out(self, name: str) -> Path:
        out = self.work / name
        out.mkdir()
        if self.workload == "ingest":
            for p in (self.data / "artifacts").glob("*.json"):
                shutil.copy(p, out / p.name)
        return out

    def run_op(self, name: str) -> OpResult:
        out = self.fresh_out(name)
        children = [self.nidkit(argv, self.work / f"{name}-{i}.log")
                    for i, argv in enumerate(self.commands(out))]
        result = OpResult(children=children)
        self.check(out, result)
        shutil.rmtree(out)
        return result

    def run_traced(self, name: str) -> tuple[OpResult, dict]:
        """The same operation, run in process under the tracer."""
        out = self.fresh_out(name)
        plan = self.work / f"{name}-plan.json"
        plan.write_text(json.dumps(self.commands(out)))
        spans_path = self.work / f"{name}-spans.json"
        child = self.run_child([sys.executable, str(BENCH_DIR / "tracer.py"), "--plan", str(plan),
                                "--out", str(spans_path), "--src", str(self.src)],
                               self.work / f"{name}.log")
        result = OpResult(children=[child])
        self.check(out, result)
        shutil.rmtree(out)
        trace = json.loads(spans_path.read_text()) if spans_path.exists() else {"spans": []}
        return result, trace

    # --- output checks ----------------------------------------------------------

    def check(self, out: Path, r: OpResult) -> None:
        for c in r.children:
            if c.code != 0:
                r.problems.append(f"{' '.join(c.argv[2:4])} exited {c.code}: {c.last_log_line()}")
        if r.problems:
            return
        try:
            getattr(self, f"_check_{self.workload}")(out, r)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            r.problems.append(f"unreadable output: {exc!r}")

    def _check_report(self, out: Path, r: OpResult, variants: tuple[str, ...]) -> None:
        report = json.loads((out / "report.json").read_text())
        if report["counts"]["test_rows"] != self.n_test:
            r.problems.append(f"report counts {report['counts']['test_rows']} test rows")
        for v in variants:
            total = sum(report["stage2"][v]["dispositions"].values())
            if total != self.n_test:
                r.problems.append(f"stage-2 {v} dispositions sum to {total}, not {self.n_test}")
        scores = (out / "scores.csv").read_bytes()
        if scores.count(b"\n") != self.n_test + 1:
            r.problems.append("scores.csv row count differs from the test rows")
        report.pop("timings_seconds", None)
        r.fingerprint["report.json"] = _sha(json.dumps(report, sort_keys=True).encode())
        r.fingerprint["scores.csv"] = _sha(scores)
        r.quality["stage1_f1"] = report["stage1"]["attack_positive"]["f1"]
        r.quality["stage2_macro_f1"] = report["stage2"][variants[-1]]["ground_truth"]["macro_f1"]

    def _check_pipeline(self, out: Path, r: OpResult) -> None:
        self._check_report(out, r, ("plain", "oversampled"))
        for name in ("pipeline.json", "detector.json", "classifier_plain.json",
                     "classifier_oversampled.json"):
            r.fingerprint[name] = _sha((out / name).read_bytes())
        binary = json.loads((out / "train_binary_report.json").read_text())
        multi = json.loads((out / "train_multiclass_report.json").read_text())
        epochs = [binary["epochs"], multi["plain"]["epochs"], multi["oversampled"]["epochs"]]
        if any(e != self.size.epochs for e in epochs):
            r.problems.append(f"trained {epochs} epochs, pinned {self.size.epochs}")
        r.quality["detect_f1"] = r.quality["stage1_f1"]
        r.quality["macro_f1"] = r.quality["stage2_macro_f1"]

    def _check_baselines(self, out: Path, r: OpResult) -> None:
        csv = (out / "baselines.csv").read_bytes()
        details = json.loads((out / "baselines.json").read_text())
        names = BASELINES.split(",")
        if sorted(details) != sorted(names) or csv.count(b"\n") != len(names) + 1:
            r.problems.append(f"baselines output covers {sorted(details)}")
            return
        attack = [details[n]["attack_positive"]["f1"] for n in names]
        normal = [details[n]["normal_positive"]["f1"] for n in names]
        for n in names:
            details[n].pop("seconds")
        r.fingerprint["baselines.csv"] = _sha(csv)
        r.fingerprint["baselines.json"] = _sha(json.dumps(details, sort_keys=True).encode())
        r.quality["baseline_f1_mean"] = statistics.fmean(attack)
        r.quality["detect_f1"] = r.quality["baseline_f1_mean"]
        r.quality["macro_f1"] = statistics.fmean((a + b) / 2 for a, b in zip(attack, normal))

    def _check_ingest(self, out: Path, r: OpResult) -> None:
        self._check_report(out, r, ("plain",))
        explore = out / "explore"
        for p in sorted(f for f in explore.rglob("*") if f.is_file()):
            r.fingerprint[str(p.relative_to(out))] = _sha(p.read_bytes())
        if not (explore / "correlation.csv").is_file() or not any(
                (explore / "histograms").glob("*.csv")):
            r.problems.append("explore wrote no correlation or histogram files")
        scatters = sorted(explore.glob("scatter_*.csv"))
        if len(scatters) != 2 or any(
                p.read_bytes().count(b"\n") != self.n_train + 1 for p in scatters):
            r.problems.append("scatter exports do not hold one row per train record")
        constant = json.loads((explore / "redundancy.json").read_text())
        if "num_outbound_cmds" not in json.dumps(constant):
            r.problems.append("redundancy.json misses the constant num_outbound_cmds")
        r.quality["detect_f1"] = r.quality["stage1_f1"]
        r.quality["macro_f1"] = r.quality["stage2_macro_f1"]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def host_facts() -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": NPROC,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "omp_threads": int(os.environ["OMP_NUM_THREADS"]),
    }


def _quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} q1={q1:.4g} q3={q3:.4g} max={max(values):.4g}"


def _check_determinism(results: list[OpResult]) -> None:
    """Fail every operation whose outputs differ from the first clean one's."""
    clean = [r for r in results if not r.problems]
    for r in clean[1:]:
        differ = sorted(k for k, v in clean[0].fingerprint.items() if r.fingerprint.get(k) != v)
        if differ:
            r.problems.append(f"outputs differ between operations of one seed: {', '.join(differ)}")


def measure(bench: Bench, seconds: float, trace: bool) -> tuple[dict, list[OpResult], dict]:
    """Set up, run the timed loop (and the traced run); metrics and extras."""
    extras: dict = {}
    setup_times, hashes = [], []
    for i in range(1 if trace else SETUP_REPEATS):
        t0 = time.perf_counter()
        hashes.append(bench.setup(bench.work / f"setup{i}"))
        setup_times.append(time.perf_counter() - t0)
        if i:
            shutil.rmtree(bench.work / f"setup{i}")
    if any(h != hashes[0] for h in hashes[1:]):
        raise BenchError("repeated set-ups produced different inputs for the same seed")
    bench.data = bench.work / "setup0"

    results: list[OpResult] = []
    t_start = time.perf_counter()
    while True:
        results.append(bench.run_op(f"op{len(results)}"))
        elapsed = time.perf_counter() - t_start
        per_op = elapsed / len(results)
        # the operation count closest to the window: at most 1.5x it, at least one
        if (trace or elapsed + per_op / 2 >= seconds
                or time.monotonic() + 2 * per_op > bench.deadline):
            break
    walls = [r.wall_s for r in results]
    extras["wall_s_samples"] = _quartiles(walls)
    extras["setup_s_samples"] = _quartiles(setup_times)

    metrics: dict[str, float] = {}
    if trace:
        import tracer

        traced, spans = bench.run_traced("traced")
        results.append(traced)
        metrics = tracer.layer_metrics(spans["spans"])
        metrics["trace.wall_s"] = traced.wall_s
        metrics["trace.overhead_s"] = traced.wall_s - statistics.median(walls)
        metrics["trace.spans"] = float(len(spans["spans"]))
    else:
        metrics["wall_s"] = statistics.median(walls)
        metrics["setup_s"] = statistics.median(setup_times)
        metrics["peak_rss_mb"] = max(r.rss_mb for r in results)
    ok = [r for r in results if not r.problems]
    for key, value in (ok[0].quality if ok else {}).items():
        if key in END_TO_END and not trace:
            metrics[key] = value
        else:
            extras[key] = value
    if not trace:  # every operation failed: report the metrics, marked incorrect
        metrics.update({k: 0.0 for k in END_TO_END if k not in metrics})
    if bench.workload == "ingest":
        evaluate = [r.children[0].wall_s for r in results[:len(walls)]]
        extras["score_rows_per_s"] = bench.n_test / statistics.median(evaluate)
        extras["explore_s"] = statistics.median(r.children[1].wall_s for r in results[:len(walls)])
    extras["test_rows"] = bench.n_test
    extras["train_rows"] = bench.n_train
    return metrics, results, extras


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="nidkit closed-loop benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="measuring window: runs the whole operations that best fill it")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(SIZES), default="full")
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "nidkit" / "cli.py").is_file():
        print(f"perfbench: no nidkit sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    work_root = root / ".perfbench_work"
    work = work_root / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work.mkdir(parents=True)
    bench = Bench(root, args.workload, args.seed, SIZES[args.size], work)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        metrics, results, extras = measure(bench, args.seconds, bool(args.trace))
        _check_determinism(results)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(1 for r in results if r.problems)
    attempted = len(results)
    extras["error_rate"] = failed / attempted
    correct = failed == 0
    facts = host_facts()

    print(f"workload {args.workload}  seed {args.seed}  size {args.size}  trace {args.trace}")
    print("host " + "  ".join(f"{k}={v}" for k, v in facts.items()))
    for r in results:
        for p in r.problems:
            print(f"FAILED: {p}")
    units = {name: (unit, "") for name, (unit, _) in END_TO_END.items()}
    if args.trace:
        import tracer

        units = {name: (unit, f"  [moves {moves}]")
                 for name, unit, _, moves in tracer.LAYER_METRICS}
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name][0]}{units[name][1]}")
    for name, value in extras.items():
        print(f"  {name} = {value if isinstance(value, str) else format(value, '.6g')}")

    summary = {"workload": args.workload, "seed": args.seed, "size": args.size,
               "trace": args.trace, "host": facts, "extras": extras, "metrics": metrics,
               "problems": [p for r in results for p in r.problems]}
    results_dir = work_root / "results"
    results_dir.mkdir(exist_ok=True)
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k][0]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
