#!/usr/bin/env python3
"""Materialize the synthetic report corpus and a ready-to-run pipeline config.

    python scripts/make_synthetic_corpus.py --out corpus/ [--reports 5000] [--seed 20240801]

Writes quarterly JSON files, manifest.json, and pipeline.ini next to them.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from vetpv.synth import write_corpus

CONFIG_TEMPLATE = """\
[paths]
input_dir = quarters
output_dir = out

[run]
seed = {seed}

[prepare]
correlation_threshold = 0.95
priority = molecular_weight
top_k = 256

[resample]
strategy = none
target_ratio = 1.0

[model]
kind = gbdt
n_rounds = 120
learning_rate = 0.1
max_depth = 4

[ssl]
enabled = true
keep_fraction = 0.3
rounds = 1

[explain]
dataset = test
top_n = 10
top_k = 15
"""


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--reports", type=int, default=5000)
    parser.add_argument("--seed", type=int, default=20240801)
    parser.add_argument("--quarters", type=int, default=4)
    args = parser.parse_args()

    manifest = write_corpus(args.out, n_reports=args.reports, seed=args.seed, quarters=args.quarters)
    (args.out / "pipeline.ini").write_text(CONFIG_TEMPLATE.format(seed=args.seed), encoding="utf-8")
    print(f"wrote {manifest['counts']['reports']} reports to {args.out}")
    print(f"outcome distribution: {manifest['outcome_distribution']}")
    print(f"run the pipeline with: vetpv run --config {args.out / 'pipeline.ini'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
