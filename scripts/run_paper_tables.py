#!/usr/bin/env python3
"""Reproduce the headline result tables on NSL-KDD train and test files.

Runs the full two-stage pipeline (labeled-F1 threshold calibration,
classifier trained with and without oversampling) plus all seven
supervised baselines, then prints a binary-task table and a 4-class
comparison assembled from the emitted reports.

Usage:
    python scripts/fetch_nsl_kdd.py --dest data
    python scripts/run_paper_tables.py --train data/KDDTrain+.txt \
        --test data/KDDTest+.txt --out runs/paper --seed 0
"""

import argparse
import json
import sys
from pathlib import Path

from nidkit.pipeline import RunConfig, run_baselines, run_pipeline


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--train", default="data/KDDTrain+.txt", help="KDDTrain+ style file")
    parser.add_argument("--test", default="data/KDDTest+.txt", help="KDDTest+ style file")
    parser.add_argument("--out", default="runs/paper", help="output directory")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--skip-baselines", action="store_true")
    args = parser.parse_args()

    cfg = RunConfig(
        train_path=args.train,
        test_path=args.test,
        out_dir=args.out,
        seed=args.seed,
        calibration="labeled_f1",
        oversample="both",
    )
    run_pipeline(cfg)
    if not args.skip_baselines:
        run_baselines(cfg)

    out = Path(args.out)
    report = json.loads((out / "report.json").read_text())

    print("\n=== Binary detection (attack positive) ===")
    print(f"{'model':<20}{'accuracy':>10}{'precision':>11}{'recall':>9}{'f1':>9}")
    if not args.skip_baselines:
        for line in (out / "baselines.csv").read_text().splitlines()[1:]:
            name, acc, prec, rec, f1 = line.split(",")
            print(f"{name:<20}{float(acc):>10.4f}{float(prec):>11.4f}{float(rec):>9.4f}{float(f1):>9.4f}")
    s1 = report["stage1"]["attack_positive"]
    print(f"{'Autoencoder':<20}{s1['accuracy']:>10.4f}{s1['precision']:>11.4f}"
          f"{s1['recall']:>9.4f}{s1['f1']:>9.4f}")

    print("\n=== 4-class attack typing (ground-truth attack rows) ===")
    print(f"{'metric':<12}{'w/o oversampling':>18}{'w/ oversampling':>18}")
    plain = report["stage2"]["plain"]["ground_truth"]
    over = report["stage2"]["oversampled"]["ground_truth"]
    print(f"{'accuracy':<12}{plain['accuracy']:>18.4f}{over['accuracy']:>18.4f}")
    for cls in ("DoS", "Probe", "R2L", "U2R"):
        print(f"{'F1_' + cls:<12}{plain['per_class_f1'][cls]:>18.4f}{over['per_class_f1'][cls]:>18.4f}")
    print(f"{'macro F1':<12}{plain['macro_f1']:>18.4f}{over['macro_f1']:>18.4f}")
    print(f"{'micro F1':<12}{plain['micro_f1']:>18.4f}{over['micro_f1']:>18.4f}")
    print(f"\nfull report: {out / 'report.json'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
