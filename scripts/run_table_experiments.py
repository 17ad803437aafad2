#!/usr/bin/env python3
"""Model-by-sampling experiment grid on the synthetic corpus.

Trains every configured model under each resampling strategy (plus the
pseudo-labeling variant of tree ensembles), evaluates on the held-out test
split, and prints the aligned results table. Mirrors what `vetpv report`
aggregates from individual runs, but in one process.

    python scripts/run_table_experiments.py --corpus corpus/ [--out results]
"""

import argparse
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from vetpv import pipeline
from vetpv.config import load_config
from vetpv.metrics import evaluate, results_table, write_results_table
from vetpv.models import ModelSpec, VotingEnsemble, fit_model
from vetpv.resample import ResamplePlan, apply_plan
from vetpv.ssl import SslPlan, ssl_train

MODELS = [
    ("logistic", ModelSpec("logistic")),
    ("tree", ModelSpec("tree", {"max_depth": 6})),
    ("knn", ModelSpec("knn", {"k": 9})),
    ("forest", ModelSpec("forest", {"n_trees": 40, "max_depth": 10, "seed": 7})),
    ("gbdt", ModelSpec("gbdt", {"n_rounds": 120, "learning_rate": 0.1, "max_depth": 4})),
    ("vote", ModelSpec("vote", {"seed": 7})),
    ("stack", ModelSpec("stack", {"seed": 7})),
]

SAMPLINGS = [
    ("none", ResamplePlan(strategy="none")),
    ("undersample", ResamplePlan(strategy="undersample", seed=7)),
    ("oversample", ResamplePlan(strategy="oversample", seed=7)),
    ("smote_enn", ResamplePlan(strategy="smote_enn", seed=7)),
]

SSL_MODELS = ("tree", "forest", "gbdt")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--corpus", type=Path, required=True,
                        help="directory produced by make_synthetic_corpus.py")
    parser.add_argument("--out", type=Path, default=None,
                        help="basename for the emitted .csv/.txt table")
    args = parser.parse_args()

    config = load_config(args.corpus / "pipeline.ini")
    with tempfile.TemporaryDirectory() as tmp:
        config.output_dir = Path(tmp)
        _, outputs = pipeline.run(config, ("ingest", "harmonize", "prepare", "split"))
        matrices = outputs["split"]

    train, test, unlabeled = matrices["train"], matrices["test"], matrices["unlabeled"]
    runs = []
    for sampling_name, plan in SAMPLINGS:
        resampled = apply_plan(train, plan)
        stack = fit_model(dict(MODELS)["stack"], resampled)
        for model_name, spec in MODELS:
            if model_name == "vote":  # vote and stack fit the same default_members(7)
                model = VotingEnsemble(stack.members)
            elif model_name == "stack":
                model = stack
            else:
                model = fit_model(spec, resampled)
            report = evaluate(test.labels, model.predict(test.values))
            runs.append((model_name, sampling_name, report))
            print(f"{model_name:10s} {sampling_name:12s} F1={report.weighted_f1:.2f} "
                  f"DR={report.death_recall:.2f} RR={report.recovered_recall:.2f}")
            if model_name in SSL_MODELS:
                ssl_plan = SslPlan(keep_fraction=0.3, base_model=spec)
                ssl_model, _, _ = ssl_train(resampled, unlabeled, ssl_plan, model=model)
                ssl_report = evaluate(test.labels, ssl_model.predict(test.values))
                runs.append((f"{model_name}+ssl", sampling_name, ssl_report))
                print(f"{model_name + '+ssl':10s} {sampling_name:12s} "
                      f"F1={ssl_report.weighted_f1:.2f} DR={ssl_report.death_recall:.2f}")

    aligned = write_results_table(runs, args.out) if args.out else results_table(runs)[1]
    print()
    print(aligned)
    if args.out:
        print(f"wrote {args.out.with_suffix('.csv')} and {args.out.with_suffix('.txt')}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
