"""Stage orchestration: ingest -> harmonize -> prepare -> split -> resample ->
train -> ssl -> evaluate -> explain, each persisting content-hash-named
artifacts under the output directory and appending to a manifest so the
per-stage subcommands can chain off prior runs.

Everything downstream of the inputs is a deterministic function of (inputs,
config, seed); rerunning a config reproduces every artifact byte-for-byte.
The run report (timings included) is the one non-hashed output.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import platform
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import bulkio, explain, harmonize, ingest, matrix as matrix_mod, metrics, prepare, ssl
from .config import PipelineConfig, config_hash, effective_config_text
from .matrix import DEATH, RECOVERED, SPLIT_NAMES, ColumnMeta, FeatureMatrix, csv_rows
from .models import fit_model, parse_model, serialize_model
from .resample import apply_plan

log = logging.getLogger(__name__)

STAGES = (
    "ingest",
    "harmonize",
    "prepare",
    "split",
    "resample",
    "train",
    "ssl",
    "evaluate",
    "explain",
)


class StageError(RuntimeError):
    pass


class MissingArtifactError(StageError):
    pass


def _write_file(partial: Path, chunks, final) -> Path:
    """Write the text chunks to partial, encoding and hashing one chunk at a
    time, then rename it to final(sha256 hex digest of the bytes): a crash
    mid-write leaves the previous file, never a torn one."""
    digest = hashlib.sha256()
    try:
        with open(partial, "wb") as fh:
            for chunk in chunks:
                data = chunk.encode("utf-8")
                digest.update(data)
                fh.write(data)
        path = final(digest.hexdigest())
        os.replace(partial, path)
    finally:
        partial.unlink(missing_ok=True)
    return path


def _replace_file(path: Path, chunks):
    """Replace path whole with the text chunks, through path.partial."""
    _write_file(path.with_name(path.name + ".partial"), chunks, lambda _: path)


class ArtifactStore:
    """Content-hash-named files plus a manifest index under the output dir."""

    def __init__(self, out_dir: Path):
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self._manifest: dict[str, str] = {}
        self._load_manifest()

    @property
    def manifest_path(self) -> Path:
        return self.out_dir / "manifest.tsv"

    def _load_manifest(self):
        if self.manifest_path.exists():
            text = self.manifest_path.read_text(encoding="utf-8")
            for lineno, line in enumerate(text.splitlines(), start=1):
                if not line:
                    continue
                fields = line.split("\t")
                if len(fields) != 2 or not all(fields):
                    raise StageError(
                        f"{self.manifest_path}:{lineno}: malformed manifest line {line!r} "
                        "(expected name<TAB>filename)"
                    )
                self._manifest[fields[0]] = fields[1]

    def _write_manifest(self, name: str, filename: str):
        """Record name -> filename; the manifest on disk is replaced whole."""
        manifest = {**self._manifest, name: filename}
        lines = [f"{key}\t{manifest[key]}\n" for key in sorted(manifest)]
        _replace_file(self.manifest_path, lines)
        self._manifest = manifest

    def put_text(self, name: str, text, ext: str) -> Path:
        """Store text, a str or an iterable of str chunks, as a file named by
        its content hash, and point the manifest's name entry at it."""
        path = _write_file(
            self.out_dir / f"{name}.{ext}.partial",
            [text] if isinstance(text, str) else text,
            lambda digest: self.out_dir / f"{name}-{digest[:12]}.{ext}",
        )
        self._write_manifest(name, path.name)
        return path

    def alias(self, name: str, target: str):
        """Point name at the file artifact target already names."""
        self._write_manifest(name, self._manifest[target])

    def path(self, name: str) -> Path:
        """The file the manifest's name entry points at."""
        filename = self._manifest.get(name)
        if filename is None or not (self.out_dir / filename).exists():
            raise MissingArtifactError(
                f"missing prerequisite artifact {name!r} (expected {self.out_dir / (filename or name + '-*')})"
            )
        return self.out_dir / filename

    def get_text(self, name: str) -> str:
        # newline="" returns the stored bytes' text: universal newlines
        # would turn a CR inside a quoted CSV field into LF
        with open(self.path(name), encoding="utf-8", newline="") as fh:
            return fh.read()


@dataclass
class StageRecord:
    name: str
    seconds: float
    rows_in: int
    rows_out: int
    details: dict = field(default_factory=dict)


@dataclass
class RunReport:
    config_hash: str
    stages: list[StageRecord] = field(default_factory=list)
    failed_stage: str | None = None
    failure: str | None = None

    def add(self, record: StageRecord):
        if any(s.name == record.name for s in self.stages):
            raise StageError(f"stage {record.name} recorded twice")
        self.stages.append(record)

    def to_json(self) -> str:
        return json.dumps(
            {
                "config_hash": self.config_hash,
                # what the timings ran on: forest fits use every CPU allowed
                "environment": {"python": platform.python_version(), "numpy": np.__version__,
                                "cpus": len(os.sched_getaffinity(0))},
                "failed_stage": self.failed_stage,
                "failure": self.failure,
                "stages": [
                    {
                        "name": s.name,
                        "seconds": round(s.seconds, 3),
                        "rows_in": s.rows_in,
                        "rows_out": s.rows_out,
                        "details": s.details,
                    }
                    for s in self.stages
                ],
            },
            indent=1,
            sort_keys=True,
        )


def _columns_to_json(columns: list[ColumnMeta]) -> str:
    return json.dumps([asdict(c) for c in columns], sort_keys=True)


def _columns_from_json(text: str) -> list[ColumnMeta]:
    return [ColumnMeta(**c) for c in json.loads(text)]


# --- reading upstream results -----------------------------------------------------


def load_tables(store: ArtifactStore):
    texts = {name: store.get_text(f"bulk_{name}") for name in bulkio.TABLE_NAMES}
    return bulkio.import_bulk_string(texts)


class SplitMatrices(dict):
    """The split's matrices by name, each parsed from its artifact on first
    lookup, so a stage pays only for the matrices it reads."""

    def __init__(self, store: ArtifactStore):
        super().__init__()
        self.store = store
        self.columns = _columns_from_json(store.get_text("columns"))

    def __missing__(self, name: str) -> FeatureMatrix:
        if name not in SPLIT_NAMES:
            raise KeyError(name)
        text = self.store.get_text(f"matrix_{name}")
        matrix = self[name] = matrix_mod.from_csv(text, self.columns)
        return matrix


def load_resampled(store: ArtifactStore) -> FeatureMatrix:
    columns = _columns_from_json(store.get_text("columns"))
    return matrix_mod.from_csv(store.get_text("matrix_train_resampled"), columns)


# stage name -> its result, read back from the artifacts the stage stored;
# harmonize and prepare run only beside split, in one `vetpv prepare`
LOADERS = {
    "ingest": load_tables,
    "split": SplitMatrices,
    "resample": load_resampled,
    "train": lambda store: parse_model(store.get_text("model")),
    "ssl": lambda store: parse_model(store.get_text("model_ssl")),
}


class StageOutputs(dict):
    """Stage results by stage name. The result of a stage that did not run in
    this process is read back through LOADERS on every lookup and not kept, so
    it lives only as long as the stage that reads it: read each one once."""

    def __init__(self, store: ArtifactStore):
        super().__init__()
        self.store = store

    def __missing__(self, stage: str):
        return LOADERS[stage](self.store)


# --- stages ---------------------------------------------------------------------
#
# stage_<name>(config, store, outputs) reads upstream results only as
# outputs["<stage>"] and returns (result, rows_in, rows_out, details).


def stage_ingest(config: PipelineConfig, store: ArtifactStore, outputs: StageOutputs):
    paths = sorted(
        p for p in Path(config.input_dir).iterdir()
        if p.name.endswith(".json") or p.name.endswith(".json.gz")
    )
    if not paths:
        raise StageError(f"no .json/.json.gz files under {config.input_dir}")
    tables = ingest.RawTables()
    parsed = [ingest.read_quarter_file(p, tables=tables)[1] for p in paths]
    stats = {
        "files": [p.name for p in paths],
        "reports": sum(s.reports for s in parsed),
        "skipped_missing_id": sum(s.skipped_missing_id for s in parsed),
        "invalid_outcome_rows": sum(s.invalid_outcome_rows for s in parsed),
        "invalid_field_rows": sum(s.invalid_field_rows for s in parsed),
        "counts": tables.counts(),
    }
    texts = bulkio.export_bulk_string(tables)
    for name in bulkio.TABLE_NAMES:
        store.put_text(f"bulk_{name}", texts[name], "tsv")
    store.put_text("parse_stats", json.dumps(stats, indent=1, sort_keys=True), "json")
    return tables, 0, len(tables.main), stats


def stage_harmonize(config: PipelineConfig, store: ArtifactStore, outputs: StageOutputs):
    tables = outputs["ingest"]
    veddra = harmonize.VeddraMap.load(config.veddra)
    descriptor_map = ingest.descriptor_table(tables.drugs["ingredient_name"], config.descriptors)
    reports, stats = harmonize.merge_reports(tables, veddra, descriptor_map)
    store.put_text("merged", harmonize.merged_to_csv(reports), "csv")
    details = {
        "reports": len(reports),
        "unmapped_terms": sum(stats.unmapped_terms.values()),
        "distinct_unmapped_terms": len(stats.unmapped_terms),
        "under_specified_codes": stats.under_specified_codes,
        "invalid_codes": stats.invalid_codes,
        "missing_outcome": stats.missing_outcome,
        "ingredients_with_descriptors": len(descriptor_map),
    }
    store.put_text("merge_stats", json.dumps(details, indent=1, sort_keys=True), "json")
    return reports, len(tables.main), len(reports), details


def stage_prepare(config: PipelineConfig, store: ArtifactStore, outputs: StageOutputs):
    reports = outputs["harmonize"]
    normalized, rejects = prepare.normalize_all(reports)
    cleaned, removal_counts = prepare.filter_rows(normalized)
    store.put_text("cleaned", harmonize.merged_to_csv(cleaned), "csv")
    for table in (reports, cleaned):  # no later stage writes report text
        table.cells.clear()
    store.put_text("rejects", csv_rows([("key", "reason"), *rejects], "\n"), "csv")
    details = {"rejected_rows": len(rejects), **removal_counts}
    store.put_text("removal_counts", json.dumps(details, indent=1, sort_keys=True), "json")
    return cleaned, len(reports), len(cleaned), details


def stage_split(config: PipelineConfig, store: ArtifactStore, outputs: StageOutputs):
    cleaned = outputs["prepare"]
    died = cleaned.outcome == harmonize.OUTCOME_CODE[ingest.Outcome.DIED]
    definitive = died | (cleaned.outcome == harmonize.OUTCOME_CODE[ingest.Outcome.RECOVERED])
    labeled_rows = np.flatnonzero(definitive)
    if not len(labeled_rows):
        raise StageError("no labeled (Died/Recovered) rows to split")
    labeled, unlabeled = cleaned.take(labeled_rows), cleaned.take(np.flatnonzero(~definitive))
    outcome_labels = np.where(died[labeled_rows], DEATH, RECOVERED).astype(np.int8)
    assignment = prepare.stratified_assignment(outcome_labels, config.prepare.ratios, config.seed)
    train_reports, val_reports, test_reports = (
        labeled.take(np.flatnonzero(assignment == s)) for s in range(3)
    )

    imputer = prepare.fit_imputer(train_reports)
    imputed_train = prepare.apply_imputer(imputer, train_reports)
    encoder = prepare.fit_encoder(imputed_train, config.prepare.top_k)
    store.put_text("encoder", encoder.to_json(), "json")

    def transform(rows, require_labels):
        return encoder.transform(prepare.apply_imputer(imputer, rows), require_labels)

    train = encoder.transform(imputed_train, True)
    pruned_train, dropped = prepare.prune_correlated(
        train, config.prepare.correlation_threshold, config.prepare.priority
    )
    drop_names = [d.name for d in dropped]
    matrices = {
        "train": pruned_train,
        "validation": transform(val_reports, True).drop_columns(drop_names),
        "test": transform(test_reports, True).drop_columns(drop_names),
        "unlabeled": transform(unlabeled, False).drop_columns(drop_names),
    }
    store.put_text("columns", _columns_to_json(pruned_train.columns), "json")
    for name, m in matrices.items():
        store.put_text(f"matrix_{name}", matrix_mod.to_csv(m), "csv")
    rows = [("name", "reason", "partner", "r"), *(
        (d.name, d.reason, d.partner or "", "" if d.r is None else repr(d.r)) for d in dropped
    )]
    store.put_text("dropped_columns", csv_rows(rows, "\n"), "csv")
    details = {
        "labeled": len(labeled),
        "unlabeled": len(unlabeled),
        "dropped_columns": len(dropped),
        "columns": pruned_train.n_cols,
        **{
            f"{name}_class_counts": (m.class_counts() if m.labels is not None else {"rows": m.n_rows})
            for name, m in matrices.items()
        },
    }
    store.put_text("split_stats", json.dumps(details, indent=1, sort_keys=True), "json")
    return matrices, len(cleaned), sum(m.n_rows for m in matrices.values()), details


def stage_resample(config: PipelineConfig, store: ArtifactStore, outputs: StageOutputs):
    train = outputs["split"]["train"]
    resampled = apply_plan(train, config.resample)
    if resampled is train:  # strategy none: the train matrix is already stored
        store.alias("matrix_train_resampled", "matrix_train")
    else:
        store.put_text("matrix_train_resampled", matrix_mod.to_csv(resampled), "csv")
    details = {
        "strategy": config.resample.strategy,
        "before": train.class_counts(),
        "after": resampled.class_counts(),
    }
    store.put_text("resample_stats", json.dumps(details, indent=1, sort_keys=True), "json")
    return resampled, train.n_rows, resampled.n_rows, details


def stage_train(config: PipelineConfig, store: ArtifactStore, outputs: StageOutputs):
    train = outputs["resample"]
    model = fit_model(config.model, train)
    store.put_text("model", serialize_model(model), "txt")
    details = {"kind": config.model.kind, "train_rows": train.n_rows}
    return model, train.n_rows, train.n_rows, details


def stage_ssl(config: PipelineConfig, store: ArtifactStore, outputs: StageOutputs):
    baseline = outputs["train"]
    unlabeled = outputs["split"]["unlabeled"]
    model, provenance, summary = ssl.ssl_train(
        outputs["resample"], unlabeled, config.ssl, model=baseline
    )
    store.put_text("model_ssl", serialize_model(model), "txt")
    store.put_text("ssl_provenance", ssl.provenance_csv(provenance), "csv")
    details = {**summary, "keep_fraction": config.ssl.keep_fraction}
    store.put_text("ssl_stats", json.dumps(details, indent=1, sort_keys=True), "json")
    return model, unlabeled.n_rows, details["pseudo_rows"], details


_METRIC_COLUMNS = (
    "weighted_f1",
    "weighted_precision",
    "weighted_recall",
    "accuracy",
    "death_recall",
    "recovered_recall",
)


def stage_evaluate(config: PipelineConfig, store: ArtifactStore, outputs: StageOutputs):
    matrices = outputs["split"]
    models = {"supervised": outputs["train"]}
    if config.ssl.enabled:
        models["ssl"] = outputs["ssl"]
    rows = [("model", "variant", "sampling", "dataset", *_METRIC_COLUMNS)]
    details = {}
    for variant, model in models.items():
        for dataset in ("validation", "test"):
            m = matrices[dataset]
            report = metrics.evaluate(m.labels, model.predict(m.values))
            rows.append((config.model.kind, variant, config.resample.strategy, dataset,
                         *(repr(getattr(report, col)) for col in _METRIC_COLUMNS)))
            details[f"{variant}_{dataset}"] = {
                col: round(getattr(report, col), 4) for col in _METRIC_COLUMNS
            }
    store.put_text("metrics", csv_rows(rows), "csv")
    test_rows = matrices["test"].n_rows
    return None, test_rows, test_rows, details


def stage_explain(config: PipelineConfig, store: ArtifactStore, outputs: StageOutputs):
    dataset = outputs["split"][config.explain.dataset]
    model = outputs["ssl" if config.explain.model == "ssl" else "train"]
    rows_in = dataset.n_rows
    if config.explain.max_rows and dataset.n_rows > config.explain.max_rows:
        dataset = dataset.take_rows(np.arange(config.explain.max_rows))
    groups = explain.load_species_groups(config.species_groups)
    phi = explain.tree_shap_batch(model, dataset.values)
    base = explain.base_value(model)
    worst = explain.local_accuracy_error(phi, base, explain.model_margin(model, dataset.values))
    if not worst <= explain.LOCAL_ACCURACY_TOL:
        raise StageError(
            f"attributions miss the model margin by {worst!r} "
            f"(tolerance {explain.LOCAL_ACCURACY_TOL}, non-finite values count as nan)"
        )
    store.put_text("shap_values", explain.shap_values_csv(phi, base, dataset), "csv")

    by_group = explain.group_rows(dataset, groups)
    rankings = {
        scope: explain.aggregate_shap(phi, dataset, by_group, scope)
        for scope in ("ae_term", "ingredient")
    }
    store.put_text("rankings", explain.rankings_csv(rankings, config.explain.top_n), "csv")

    summaries = {
        group: explain.shap_summary(phi, dataset, rows, config.explain.top_k)
        for group, rows in by_group.items()
        if len(rows)
    }
    store.put_text("summary_points", explain.summary_points_csv(summaries), "csv")
    details = {
        "rows_explained": dataset.n_rows,
        "max_local_accuracy_error": worst,
        "groups": {g: int(len(rows)) for g, rows in by_group.items()},
        "notes": "horse is grouped as Livestock by the default map; override via "
                 "the species_groups file if a different placement is wanted",
    }
    return None, rows_in, dataset.n_rows, details


def run_stages(config: PipelineConfig, store: ArtifactStore, names, echo=print):
    """Run the named stages in order and return (report, outputs).

    Each stage is the module attribute stage_<name>, looked up when it runs,
    so a replaced attribute (a test's stub, a tracing wrapper) is what runs.
    A failing stage is recorded in a partial run_report.json before the error
    propagates.
    """
    report = RunReport(config_hash=config_hash(config))
    outputs = StageOutputs(store)
    for name in names:
        start = time.perf_counter()
        try:
            result, rows_in, rows_out, details = globals()[f"stage_{name}"](config, store, outputs)
        except Exception as exc:
            # persist the partial report so the failing stage is on record
            report.failed_stage = name
            report.failure = str(exc)
            _replace_file(config.output_dir / "run_report.json", [report.to_json()])
            raise
        seconds = time.perf_counter() - start
        echo(f"stage {name}: {seconds:.2f}s")
        report.add(StageRecord(name, seconds, rows_in, rows_out, details))
        outputs[name] = result
    return report, outputs


def run(config: PipelineConfig, echo=print) -> RunReport:
    """Execute every enabled stage in order, persisting artifacts and the run report."""
    echo("effective configuration:")
    echo(effective_config_text(config))
    enabled = {"ssl": config.ssl.enabled, "explain": config.explain.enabled}
    names = [name for name in STAGES if enabled.get(name, True)]
    report, _ = run_stages(config, ArtifactStore(config.output_dir), names, echo)
    _replace_file(config.output_dir / "run_report.json", [report.to_json()])
    _replace_file(config.output_dir / "effective_config.txt", [effective_config_text(config)])
    return report
