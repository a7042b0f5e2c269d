"""Command-line entry point.

Subcommands: explore, train-binary, train-multiclass, baselines,
evaluate, pipeline. Every config field can come from a JSON file
(--config) or a flag; precedence is flag > file > default. Logs go to
stderr, machine-readable outputs only to files under --out.

Exit codes: 0 success, 1 internal failure, 2 usage/config error (a bad
setting, before any file is touched, a path naming no file, a directory or,
for --out, a file, or an --out whose pipeline.json was fitted on another
train file or differs from this run's fit), 3 invalid data, a damaged
taxonomy file included, or training that diverges.
Every command parses and checks each input file, and computes every output,
before its first write, so invalid data, data that lacks the rows a stage
needs, or a diverged training run exits 3 and leaves --out as it found it.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import fields

from .dataset import KddParseError, UnknownLabelError
from .errors import (
    InsufficientDataError,
    StaleArtifactError,
    TrainingDivergedError,
    VersionSkewError,
)
from .pipeline import (
    BASELINE_NAMES,
    RunConfig,
    run_baselines,
    run_evaluate,
    run_explore,
    run_pipeline,
    run_train_binary,
    run_train_multiclass,
)

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2
EXIT_DATA = 3


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--train", dest="train_path", help="KDDTrain+ style input file")
    p.add_argument("--test", dest="test_path", help="KDDTest+ style input file")
    p.add_argument("--taxonomy", dest="taxonomy_path", help="name,category mapping file")
    p.add_argument("--out", dest="out_dir", help="output directory (default: out)")
    p.add_argument("--seed", type=int, help="global seed (default: 0)")
    p.add_argument("--config", help="JSON config file; flags override its fields")
    p.add_argument(
        "--calibration",
        help="detector threshold rule: quantile:<q> or labeled-f1 (default quantile:0.95)",
    )
    p.add_argument("--oversample", choices=["on", "off", "both"],
                   help="SVM-SMOTE for the 4-class stage (default: on)")
    p.add_argument("--max-epochs", dest="max_epochs", type=int)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--patience", type=int)
    p.add_argument("--val-fraction", dest="val_fraction", type=float)
    p.add_argument("--baselines", dest="baselines",
                   help=f"comma-separated subset of: {','.join(BASELINE_NAMES)}")
    p.add_argument("--bins", dest="histogram_bins", type=int, help="histogram bin count")


def _tuples(value):
    """A JSON value with each array in it made a tuple, as RunConfig holds lists."""
    return tuple(map(_tuples, value)) if isinstance(value, list) else value


def build_config(args: argparse.Namespace) -> RunConfig:
    """Each RunConfig field by flag > --config file > default; RunConfig checks it."""
    file_values: dict = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            file_values = json.load(fh)
        if not isinstance(file_values, dict):
            raise ValueError("a config file must hold one JSON object")
        unknown = set(file_values) - {f.name for f in fields(RunConfig)}
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")

    merged: dict = {}
    for f in fields(RunConfig):
        flag = getattr(args, f.name, None)
        if flag is not None:
            merged[f.name] = flag
        elif f.name in file_values:
            merged[f.name] = _tuples(file_values[f.name])
    if isinstance(merged.get("baselines"), str):
        merged["baselines"] = tuple(s.strip() for s in merged["baselines"].split(",") if s.strip())
    return RunConfig(**merged)


COMMANDS = {
    "explore": run_explore,
    "train-binary": run_train_binary,
    "train-multiclass": run_train_multiclass,
    "baselines": run_baselines,
    "evaluate": run_evaluate,
    "pipeline": run_pipeline,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nidkit",
        description="Hierarchical NSL-KDD intrusion detection: anomaly screening then attack typing",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        _add_common(p)
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(
        stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(name)s: %(message)s"
    )
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = build_config(args)
    except (ValueError, TypeError, OSError) as exc:
        print(f"nidkit: config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        COMMANDS[args.command](cfg)
    except (FileNotFoundError, NotADirectoryError, IsADirectoryError, FileExistsError) as exc:
        print(f"nidkit: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except StaleArtifactError as exc:
        print(f"nidkit: stale artifact: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (KddParseError, UnknownLabelError, VersionSkewError, InsufficientDataError) as exc:
        print(f"nidkit: invalid data: {exc}", file=sys.stderr)
        return EXIT_DATA
    except TrainingDivergedError as exc:
        print(f"nidkit: training diverged: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # noqa: BLE001 - last-resort exit-code mapping
        logging.getLogger("nidkit").exception("internal failure")
        print(f"nidkit: internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
