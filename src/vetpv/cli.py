"""Command-line entry point.

    vetpv run      --config pipeline.ini        # all stages end-to-end
    vetpv ingest   --config pipeline.ini [--csv]
    vetpv prepare  --config pipeline.ini        # harmonize + prepare + split + resample
    vetpv train    --config pipeline.ini
    vetpv ssl      --config pipeline.ini
    vetpv evaluate --config pipeline.ini
    vetpv explain  --config pipeline.ini
    vetpv report   --runs DIR [DIR ...] --out results

Exit codes: 0 success, 1 configuration/validation error, 2 stage failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
from pathlib import Path
from types import SimpleNamespace

from . import pipeline
from .config import ConfigError, load_config
from .metrics import TABLE_METRICS, write_results_table

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_STAGE = 2

# the stages each per-stage subcommand runs, in order; run runs every enabled stage
COMMAND_STAGES = {
    "ingest": ("ingest",),
    "prepare": ("harmonize", "prepare", "split", "resample"),
    "train": ("train",),
    "ssl": ("ssl",),
    "evaluate": ("evaluate",),
    "explain": ("explain",),
}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vetpv",
        description="Adverse-event outcome modeling pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, type=Path, help="pipeline config file")
        return cmd

    add("run", "run every stage end-to-end")
    ingest_cmd = add("ingest", "parse input files and export bulk-load tables")
    ingest_cmd.add_argument("--csv", action="store_true", help="also export RFC-4180 CSV tables")
    add("prepare", "harmonize, clean, split and resample")
    add("train", "fit the configured model on the resampled training matrix")
    add("ssl", "pseudo-label the unlabeled pool and retrain")
    add("evaluate", "score persisted models on validation and test")
    add("explain", "attribute predictions and write ranking artifacts")

    report_cmd = sub.add_parser("report", help="aggregate metrics from multiple runs")
    report_cmd.add_argument("--runs", nargs="+", type=Path, required=True,
                            help="output directories of completed runs")
    report_cmd.add_argument("--out", type=Path, required=True,
                            help="basename for the emitted .csv/.txt table")
    return parser


def _aggregate_runs(run_dirs: list[Path], out_base: Path) -> str:
    """Collect the test metrics of each run into one table, which has one cell
    per model and sampling, so a pair met twice is refused."""
    rows = []
    seen = {}  # (label, sampling) -> the run directory it came from
    for run_dir in run_dirs:
        if not run_dir.is_dir():  # ArtifactStore would create it
            raise pipeline.MissingArtifactError(f"run directory {run_dir} does not exist")
        store = pipeline.ArtifactStore(run_dir)
        reader = csv.DictReader(io.StringIO(store.get_text("metrics")))
        missing = [key for key in ("dataset", "model", "variant", "sampling",
                                   *(attr for _, attr in TABLE_METRICS))
                   if key not in (reader.fieldnames or ())]
        if missing:
            raise pipeline.StageError(f"{store.path('metrics')}: no column {', '.join(missing)}")
        for record in reader:
            if record["dataset"] != "test":
                continue
            label = record["model"]
            if record["variant"] == "ssl":
                label = f"{record['model']}+ssl"
            try:
                report = SimpleNamespace(**{attr: float(record[attr]) for _, attr in TABLE_METRICS})
            except ValueError as exc:
                where = f"{store.path('metrics')}:{reader.line_num}"
                raise pipeline.StageError(f"{where}: {exc}") from None
            key = (label, record["sampling"])
            if key in seen:
                raise pipeline.StageError(f"{seen[key]} and {run_dir} both hold test metrics of "
                                          f"model {label}, sampling {key[1]}")
            seen[key] = run_dir
            rows.append((*key, report))
    if not rows:
        raise ConfigError("no test metrics found in the given run directories")
    return write_results_table(rows, out_base)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "report":
            print(_aggregate_runs(args.runs, args.out))
            return EXIT_OK
        config = load_config(args.config)
        names = COMMAND_STAGES.get(args.command)
        if args.command == "ingest" and args.csv:
            names += ("csv",)
        report, _ = pipeline.run(config, names)
        if args.command == "run":
            print(f"run complete: {len(report.stages)} stages, hash {report.config_hash}")
        return EXIT_OK
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except pipeline.MissingArtifactError as exc:
        print(f"missing prerequisite: {exc}", file=sys.stderr)
        return EXIT_STAGE
    except Exception as exc:  # stage failure: partial artifacts are retained
        print(f"stage failure: {exc}", file=sys.stderr)
        return EXIT_STAGE


if __name__ == "__main__":
    sys.exit(main())
