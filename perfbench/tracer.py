"""Traced in-process run of nidkit CLI commands.

Wraps the public functions of every ``src/nidkit`` layer from outside,
where the callers look them up, then calls ``nidkit.cli.main`` in this
process once per argv of the plan. Each call into a wrapped function is
one span (name, start, end, parent id, counts). Spans stay in memory
and are written as JSON when the plan ends; ``layer_metrics`` turns
them into the per-layer numbers.

Usage: python3 perfbench/tracer.py --plan PLAN.json --out SPANS.json --src src
where PLAN.json is a JSON list of argv lists for ``nidkit.cli.main``.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from pathlib import Path

BASELINE_MODELS = (
    "decision_tree", "random_forest", "naive_bayes", "svm", "adaboost", "gradient_boosting",
)
TREE_MODELS = ("decision_tree", "random_forest", "adaboost", "gradient_boosting")
PIPELINE_COMMANDS = ("pipeline", "baselines", "evaluate", "explore")

_DATA = "wall_s on pipeline and baselines; wall_s on ingest (dominant)"
_EXPLORE = "wall_s on ingest (explore_s)"
# Per-layer metrics: (name, unit, better, which end-to-end metric it should
# move, on which workload). A layer that does not run in a workload reports 0.
LAYER_METRICS: tuple[tuple[str, str, str, str], ...] = (
    ("dataset.parse_s", "s", "lower", _DATA),
    ("dataset.parse_calls", "count", "lower", _DATA),
    ("dataset.parse_rows_per_s", "rows/s", "higher", _DATA),
    ("dataset.labels_s", "s", "lower", _DATA),
    ("preprocess.fit_s", "s", "lower", _DATA),
    ("preprocess.transform_s", "s", "lower", _DATA),
    ("preprocess.transform_calls", "count", "lower", _DATA),
    ("preprocess.encode_s", "s", "lower", _DATA),
    ("preprocess.encode_calls", "count", "lower", _DATA),
    ("neural.train_s", "s", "lower", "wall_s on pipeline (dominant)"),
    ("neural.epochs", "count", "lower", "wall_s on pipeline; pinned by the workload"),
    ("neural.batches", "count", "lower", "wall_s on pipeline"),
    ("neural.batch_us", "us", "lower", "wall_s on pipeline"),
    ("neural.kept_epoch_ratio", "ratio", "higher", "wall_s on pipeline"),
    ("neural.forward_rows_per_s", "rows/s", "higher", "wall_s on ingest (score_rows_per_s)"),
    ("detector.train_s", "s", "lower", "wall_s on pipeline"),
    ("detector.calibrate_s", "s", "lower", "wall_s on pipeline"),
    ("detector.score_s", "s", "lower", "wall_s on ingest (score_rows_per_s)"),
    ("detector.scores_csv_s", "s", "lower", "wall_s on ingest (score_rows_per_s)"),
    ("resample.svm_smote_s", "s", "lower", "wall_s on pipeline"),
    ("resample.svm_fit_s", "s", "lower", "wall_s on pipeline"),
    ("resample.synthetic_rows", "count", "lower", "wall_s on pipeline"),
    ("classifier.train_s.plain", "s", "lower", "wall_s on pipeline"),
    ("classifier.train_s.oversampled", "s", "lower", "wall_s on pipeline"),
    ("classifier.predict_s", "s", "lower", "wall_s on pipeline; wall_s on ingest"),
    *((f"baselines.{m}.{part}_s", "s", "lower", "wall_s on baselines")
      for m in BASELINE_MODELS for part in ("fit", "predict")),
    *((f"baselines.{m}.leaves", "count", "lower", "wall_s on baselines")
      for m in TREE_MODELS),
    ("metrics.report_s", "s", "lower", "wall_s on pipeline and baselines; stays negligible"),
    ("explore.histogram_s", "s", "lower", _EXPLORE),
    ("explore.pearson_s", "s", "lower", _EXPLORE),
    ("explore.scatter_s", "s", "lower", _EXPLORE),
    ("explore.constant_s", "s", "lower", _EXPLORE),
    *((f"pipeline.{c}_s", "s", "lower", "wall_s on every workload that runs it")
      for c in PIPELINE_COMMANDS),
    ("pipeline.self_s", "s", "lower", "wall_s on every workload"),
    ("trace.wall_s", "s", "lower", "none: traced wall time of the operation"),
    ("trace.overhead_s", "s", "lower", "none: traced wall time minus untraced wall_s"),
    ("trace.spans", "count", "lower", "none: spans recorded"),
)


class Tracer:
    """In-memory span recorder; one instance per traced process."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._deferred: list[tuple[dict, object]] = []

    def wrap(self, name, fn, counts=None, deferred=None):
        """Span per call. ``counts(result, args, kwargs)`` runs right after the
        call; ``deferred(result)`` runs when the trace is written, so costly
        walks (tree leaves) stay outside every span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "name": name,
                    "parent": self._stack[-1] if self._stack else -1}
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if counts is not None:
                span["counts"] = counts(result, args, kwargs)
            if deferred is not None:
                self._deferred.append((span, (deferred, result)))
            return result

        return traced

    def finish(self) -> list[dict]:
        for span, (fn, result) in self._deferred:
            span["counts"] = fn(result)
        self._deferred.clear()
        return self.spans


def _leaves(model) -> dict:
    """Leaf count of every tree a baseline model holds."""
    from nidkit import baselines as bl

    if isinstance(model, bl.DecisionTree):
        roots = [model.root]
    elif isinstance(model, bl.RandomForest):
        roots = [t.root for t in model.trees]
    elif isinstance(model, bl.AdaBoost):
        roots = [s.root for s in model.stumps]
    elif isinstance(model, bl.GradientBoost):
        roots = [t.root for t, _ in model.trees]
    else:
        return {}
    leaves = 0
    stack = list(roots)
    while stack:
        node = stack.pop()
        if node.is_leaf:
            leaves += 1
        else:
            stack.extend((node.left, node.right))
    return {"leaves": leaves, "trees": len(roots)}


def _train_counts(result, args, kwargs) -> dict:
    """Epochs, kept epoch and batch count of one ``neural.train`` call."""
    from nidkit import neural

    _, history = result
    names = ("model", "data", "targets", "cfg", "rng", "validation")
    bound = dict(zip(names, args), **kwargs)
    n = len(bound["data"])
    cfg: neural.TrainConfig = bound["cfg"]
    if bound.get("validation") is not None or n == 1:
        n_train = n
    else:
        n_train = n - min(max(1, int(round(n * cfg.val_fraction))), n - 1)
    per_epoch = -(-n_train // cfg.batch_size)
    return {"epochs": history.n_epochs, "best_epoch": history.best_epoch,
            "batches": history.n_epochs * per_epoch, "train_rows": n_train}


def install(tracer: Tracer) -> None:
    """Wrap each public layer function where its callers look it up."""
    from nidkit import baselines, classifier, cli, dataset, detector, explore, metrics
    from nidkit import neural, pipeline, preprocess, resample

    w = tracer.wrap

    pipeline.parse_kdd_file = w("dataset.parse", dataset.parse_kdd_file,
                                counts=lambda r, a, k: {"rows": len(r)})
    for fn_name in ("categories", "binary_labels", "fourclass_labels"):
        setattr(pipeline, fn_name, w("dataset.labels", getattr(dataset, fn_name)))
    explore.categories = pipeline.categories

    pipeline.fit_pipeline = w("preprocess.fit", preprocess.fit_pipeline)
    fit_enc = w("preprocess.fit", preprocess.fit_encoder)
    enc = w("preprocess.encode", preprocess.encode)
    for owner in (preprocess, explore):
        setattr(owner, "fit_encoder", fit_enc)
        setattr(owner, "encode", enc)
    preprocess.FittedPipeline.transform = w("preprocess.transform",
                                            preprocess.FittedPipeline.transform)

    # neural.forward is traced only outside training: neural.train puts the
    # plain function back for its own duration, so per-batch calls stay bare
    plain_forward = neural.forward
    traced_forward = w("neural.forward", plain_forward,
                       counts=lambda r, a, k: {"rows": len(a[1])})
    traced_train = w("neural.train", neural.train, counts=_train_counts)

    @functools.wraps(neural.train)
    def train_without_forward_spans(*args, **kwargs):
        neural.forward = plain_forward
        try:
            return traced_train(*args, **kwargs)
        finally:
            neural.forward = traced_forward

    neural.forward = traced_forward
    neural.train = train_without_forward_spans

    for fn_name in ("train_on_normal", "calibrate_threshold", "verdict_array", "scores_to_csv"):
        setattr(detector, fn_name, w(f"detector.{fn_name}", getattr(detector, fn_name)))

    classifier.svm_smote = w(
        "resample.svm_smote", resample.svm_smote,
        counts=lambda r, a, k: {"synthetic_rows": int(r.synthetic_mask.sum())})
    resample.fit_linear_svm = w("resample.fit_linear_svm", resample.fit_linear_svm)

    classifier.train_fourclass = w(
        "classifier.train_fourclass", classifier.train_fourclass,
        counts=lambda r, a, k: {
            "variant": "oversampled" if k.get("oversample") is not None else "plain"})
    classifier.predict = w("classifier.predict", classifier.predict)

    fitters = {"decision_tree": "fit_tree", "random_forest": "fit_forest",
               "naive_bayes": "fit_gnb", "svm": "fit_linear_svm",
               "adaboost": "fit_adaboost", "gradient_boosting": "fit_gradient_boost"}
    for model, fn_name in fitters.items():
        setattr(baselines, fn_name, w(f"baselines.fit.{model}", getattr(baselines, fn_name),
                                     deferred=_leaves))
    classes = {"decision_tree": baselines.DecisionTree, "random_forest": baselines.RandomForest,
               "naive_bayes": baselines.GaussianNB, "svm": baselines.LinearSvm,
               "adaboost": baselines.AdaBoost, "gradient_boosting": baselines.GradientBoost}
    for model, cls in classes.items():
        setattr(cls, "predict", w(f"baselines.predict.{model}", cls.predict))

    for fn_name in ("confusion", "binary_metrics", "multiclass_report"):
        setattr(metrics, fn_name, w("metrics.report", getattr(metrics, fn_name)))

    for fn_name, span in (("histogram", "explore.histogram"), ("pearson_matrix", "explore.pearson"),
                          ("scatter_rows", "explore.scatter"), ("scatter_csv", "explore.scatter"),
                          ("find_constant_features", "explore.constant")):
        setattr(explore, fn_name, w(span, getattr(explore, fn_name)))

    for fn_name in ("run_train_binary", "run_train_multiclass", "run_evaluate"):
        setattr(pipeline, fn_name, w(f"pipeline.{fn_name}", getattr(pipeline, fn_name)))
    for command in list(cli.COMMANDS):
        cli.COMMANDS[command] = w(f"pipeline.command.{command}", cli.COMMANDS[command])


# --- per-layer metrics ----------------------------------------------------------


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def _top(spans: list[dict], prefix: str) -> list[dict]:
    """Spans named ``prefix*`` with no ancestor named ``prefix*``."""
    by_id = {s["id"]: s for s in spans}
    out = []
    for s in spans:
        if not s["name"].startswith(prefix):
            continue
        p = s["parent"]
        while p >= 0 and not by_id[p]["name"].startswith(prefix):
            p = by_id[p]["parent"]
        if p < 0:
            out.append(s)
    return out


def _self_times(spans: list[dict]) -> dict[int, float]:
    child_time: dict[int, float] = {}
    for s in spans:
        if s["parent"] >= 0:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + _duration(s)
    return {s["id"]: _duration(s) - child_time.get(s["id"], 0.0) for s in spans}


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Every per-layer metric; layers that did not run report 0."""
    selft = _self_times(spans)

    def total(prefix: str) -> float:
        return sum(_duration(s) for s in _top(spans, prefix))

    def named(name: str) -> list[dict]:
        return [s for s in spans if s["name"] == name]

    def count(name: str, key: str) -> float:
        return float(sum(s.get("counts", {}).get(key, 0) for s in named(name)))

    m: dict[str, float] = {}
    parse_s = total("dataset.parse")
    m["dataset.parse_s"] = parse_s
    m["dataset.parse_calls"] = float(len(named("dataset.parse")))
    m["dataset.parse_rows_per_s"] = _ratio(count("dataset.parse", "rows"), parse_s)
    m["dataset.labels_s"] = total("dataset.labels")

    m["preprocess.fit_s"] = total("preprocess.fit")
    m["preprocess.transform_s"] = total("preprocess.transform")
    m["preprocess.transform_calls"] = float(len(named("preprocess.transform")))
    m["preprocess.encode_s"] = total("preprocess.encode")
    m["preprocess.encode_calls"] = float(len(named("preprocess.encode")))

    train_self = sum(selft[s["id"]] for s in named("neural.train"))
    epochs = count("neural.train", "epochs")
    batches = count("neural.train", "batches")
    kept = sum(s["counts"]["best_epoch"] + 1 for s in named("neural.train"))
    m["neural.train_s"] = train_self
    m["neural.epochs"] = epochs
    m["neural.batches"] = batches
    m["neural.batch_us"] = _ratio(train_self * 1e6, batches)
    m["neural.kept_epoch_ratio"] = _ratio(kept, epochs)
    m["neural.forward_rows_per_s"] = _ratio(count("neural.forward", "rows"),
                                            total("neural.forward"))

    m["detector.train_s"] = total("detector.train_on_normal")
    m["detector.calibrate_s"] = total("detector.calibrate_threshold")
    m["detector.score_s"] = total("detector.verdict_array")
    m["detector.scores_csv_s"] = total("detector.scores_to_csv")

    m["resample.svm_smote_s"] = total("resample.svm_smote")
    m["resample.svm_fit_s"] = total("resample.fit_linear_svm")
    m["resample.synthetic_rows"] = count("resample.svm_smote", "synthetic_rows")

    for variant in ("plain", "oversampled"):
        m[f"classifier.train_s.{variant}"] = sum(
            selft[s["id"]] for s in named("classifier.train_fourclass")
            if s["counts"]["variant"] == variant)
    m["classifier.predict_s"] = total("classifier.predict")

    # a forest predicts through its trees and AdaBoost fits through stump
    # predictions, so only the outermost baselines span belongs to a model
    outer = _top(spans, "baselines.")
    for model in BASELINE_MODELS:
        for part in ("fit", "predict"):
            m[f"baselines.{model}.{part}_s"] = sum(
                _duration(s) for s in outer if s["name"] == f"baselines.{part}.{model}")
    for model in TREE_MODELS:
        m[f"baselines.{model}.leaves"] = float(sum(
            s["counts"]["leaves"] for s in outer if s["name"] == f"baselines.fit.{model}"))

    m["metrics.report_s"] = total("metrics.report")

    for part in ("histogram", "pearson", "scatter", "constant"):
        m[f"explore.{part}_s"] = total(f"explore.{part}")

    for command in PIPELINE_COMMANDS:
        m[f"pipeline.{command}_s"] = total(f"pipeline.command.{command}")
    m["pipeline.self_s"] = sum(selft[s["id"]] for s in spans if s["name"].startswith("pipeline."))
    return {k: float(v) for k, v in m.items()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--plan", required=True, help="JSON list of nidkit argv lists")
    ap.add_argument("--out", required=True, help="where to write the spans JSON")
    ap.add_argument("--src", required=True, help="directory holding the nidkit package")
    args = ap.parse_args()
    sys.path.insert(0, args.src)
    from nidkit import cli

    tracer = Tracer()
    install(tracer)
    codes = []
    for argv in json.loads(Path(args.plan).read_text()):
        codes.append(cli.main(argv))
    spans = tracer.finish()
    Path(args.out).write_text(json.dumps({"exit_codes": codes, "spans": spans}))
    return 0 if all(c == 0 for c in codes) else 1


if __name__ == "__main__":
    sys.exit(main())
