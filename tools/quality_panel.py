"""A detection-quality panel that can fail.

    PYTHONPATH=src python3 tools/quality_panel.py [--seeds 11,12,13]

The default universe scores F1 = 1.0, so it cannot show a loss of quality.
This panel runs a harder universe (more malicious kinds, noise 2.0, tight
stagger, maximum jitter) once per seed, then repeats the stages after
``features`` twice with a block of feature columns zeroed: the 196 path-set
columns, and the 16 address columns.  It prints holdout and train
``f1_early`` / ``f1_consistency`` for each run.

The exit status is 1 when, on any seed, the full model's holdout
``f1_early`` is not above both ablations: then the panel cannot tell the
features' signal from noise, or the model lost it.  Otherwise it is 0.
The program is imported from this checkout's ``src`` directory.
"""
from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from chainsentry import pipeline  # noqa: E402
from chainsentry.features import (ADDRESS_FEATURES, FULL_SCHEMA,  # noqa: E402
                                  read_feature_csv, write_feature_csv)

PANEL_CONFIG = {
    "scenario": {"specs": [{"kind": "ransomware", "count": 25},
                           {"kind": "darknet", "count": 25},
                           {"kind": "gambling", "count": 50},
                           {"kind": "merchant", "count": 50},
                           {"kind": "exchange", "count": 20}],
                 "noise_level": 2.0, "stagger_hours": 24, "jitter_seconds": 300},
    "intention": {"epochs": 20},
}
SEEDS = (11, 12, 13)
N_ADDRESS = len(ADDRESS_FEATURES)
# Variant name -> the feature columns it zeroes.
VARIANTS = {
    "full": None,
    "no-paths": slice(N_ADDRESS, len(FULL_SCHEMA)),
    "no-address": slice(0, N_ADDRESS),
}
MODEL_STAGES = ("select", "segment", "train", "predict", "eval")
COLUMNS = ("holdout f1_early", "holdout f1_consistency",
           "train f1_early", "train f1_consistency")


def zero_columns(feature_file: Path, columns: slice) -> None:
    timelines = read_feature_csv(feature_file)
    for tl in timelines:
        tl.matrix[:, columns] = 0.0
    write_feature_csv(feature_file, timelines)


def run_seed(seed: int, work: Path) -> dict[str, tuple[float, ...]]:
    """Holdout and train scores of every variant on one seed."""
    config = pipeline.load_config({**PANEL_CONFIG, "seed": seed})
    base = work / f"seed{seed}"
    pipeline.run_pipeline(config, base, stages=("synth", "ingest", "features"))
    scores = {}
    for name, columns in VARIANTS.items():
        run_dir = work / f"seed{seed}-{name}"
        shutil.copytree(base, run_dir)
        if columns is not None:
            zero_columns(run_dir / "features" / "features.csv", columns)
        pipeline.run_pipeline(config, run_dir, stages=MODEL_STAGES)
        report = json.loads((run_dir / "eval_report.json").read_text())
        scores[name] = tuple(report[part][metric] for part in ("holdout", "train")
                             for metric in ("f1_early", "f1_consistency"))
    return scores


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default=",".join(map(str, SEEDS)),
                        help="comma-separated universe seeds (default: %(default)s)")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",") if s.strip()]

    print("| seed | variant | " + " | ".join(COLUMNS) + " |")
    print("| --- | --- |" + " --- |" * len(COLUMNS))
    failed = []
    with tempfile.TemporaryDirectory(prefix="quality-panel-") as tmp:
        for seed in seeds:
            scores = run_seed(seed, Path(tmp))
            for name, row in scores.items():
                print(f"| {seed} | {name} | " + " | ".join(f"{v:.4f}" for v in row) + " |",
                      flush=True)
            full = scores["full"][0]
            if not all(full > row[0] for name, row in scores.items() if name != "full"):
                failed.append(seed)
    if failed:
        print(f"FAILED: holdout f1_early of the full model is not above both "
              f"ablations on seed(s) {failed}", file=sys.stderr)
        return 1
    print(f"ok: the full model beats both ablations on seed(s) {seeds}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
