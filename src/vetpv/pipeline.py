"""Stage orchestration: ingest -> harmonize -> prepare -> split -> resample ->
train -> ssl -> evaluate -> explain, each persisting content-hash-named
artifacts under the output directory and appending to a manifest so the
per-stage subcommands can chain off prior runs.

Everything downstream of the inputs is a deterministic function of (inputs,
config, seed); rerunning a config reproduces every artifact byte-for-byte.
The run report (timings included) is the one non-hashed output.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import logging
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import bulkio, explain, harmonize, ingest, matrix as matrix_mod, metrics, prepare, ssl
from .config import PipelineConfig, config_hash, effective_config_text
from .matrix import DEATH, RECOVERED, ColumnMeta, FeatureMatrix
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

    def get_text(self, name: str) -> str:
        filename = self._manifest.get(name)
        if filename is None or not (self.out_dir / filename).exists():
            raise MissingArtifactError(
                f"missing prerequisite artifact {name!r} (expected {self.out_dir / (filename or name + '-*')})"
            )
        return (self.out_dir / filename).read_text(encoding="utf-8")

    def has(self, name: str) -> bool:
        filename = self._manifest.get(name)
        return filename is not None and (self.out_dir / filename).exists()


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
    return json.dumps(
        [
            {
                "name": c.name,
                "kind": c.kind,
                "category_map": c.category_map,
                "source_vocabulary": list(c.source_vocabulary) if c.source_vocabulary else None,
                "source_field": c.source_field,
            }
            for c in columns
        ],
        sort_keys=True,
    )


def _columns_from_json(text: str) -> list[ColumnMeta]:
    return [
        ColumnMeta(
            name=c["name"],
            kind=c["kind"],
            category_map=c["category_map"],
            source_vocabulary=tuple(c["source_vocabulary"]) if c["source_vocabulary"] else None,
            source_field=c["source_field"],
        )
        for c in json.loads(text)
    ]


# --- stages ---------------------------------------------------------------------


def stage_ingest(config: PipelineConfig, store: ArtifactStore):
    paths = sorted(
        p for p in Path(config.input_dir).iterdir()
        if p.name.endswith(".json") or p.name.endswith(".json.gz")
    )
    if not paths:
        raise StageError(f"no .json/.json.gz files under {config.input_dir}")
    parsed = [ingest.read_quarter_file(p) for p in paths]
    tables = ingest.merge_corpora([t for t, _ in parsed])
    dangling = ingest.check_referential_integrity(tables)
    if dangling:
        raise StageError(f"referential integrity violated for keys {dangling[:5]}")
    stats = {
        "files": [p.name for p in paths],
        "reports": sum(s.reports for _, s in parsed),
        "skipped_missing_id": sum(s.skipped_missing_id for _, s in parsed),
        "invalid_outcome_rows": sum(s.invalid_outcome_rows for _, s in parsed),
        "invalid_field_rows": sum(s.invalid_field_rows for _, s in parsed),
        "counts": tables.counts(),
    }
    texts = bulkio.export_bulk_string(tables)
    for name in bulkio.TABLE_NAMES:
        store.put_text(f"bulk_{name}", texts[name], "tsv")
    store.put_text("parse_stats", json.dumps(stats, indent=1, sort_keys=True), "json")
    return tables, stats


def load_tables(store: ArtifactStore):
    texts = {name: store.get_text(f"bulk_{name}") for name in bulkio.TABLE_NAMES}
    return bulkio.import_bulk_string(texts)


def stage_harmonize(config: PipelineConfig, store: ArtifactStore, tables=None):
    if tables is None:
        tables = load_tables(store)
    veddra = harmonize.VeddraMap.load(config.veddra)
    harmonize.AtcvetIndex.load(config.atcvet)  # validates the snapshot grammar
    provider = ingest.http_provider_from_env() or ingest.TableDescriptorProvider.from_tsv(
        config.descriptors
    )
    names = {d.ingredient_name for d in tables.drugs}
    descriptor_map = ingest.resolve_descriptor_table(names, provider)
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
    return reports, details


def load_merged(store: ArtifactStore):
    return harmonize.merged_from_csv(store.get_text("merged"))


def stage_prepare(config: PipelineConfig, store: ArtifactStore, reports=None):
    if reports is None:
        reports = load_merged(store)
    normalized, rejects = prepare.normalize_all(reports)
    cleaned, removal_counts = prepare.filter_rows(normalized)
    store.put_text("cleaned", harmonize.merged_to_csv(cleaned), "csv")
    rejects_csv = "key,reason\n" + "".join(f"{k},{r}\n" for k, r in rejects)
    store.put_text("rejects", rejects_csv, "csv")
    details = {"rejected_rows": len(rejects), **removal_counts}
    store.put_text("removal_counts", json.dumps(details, indent=1, sort_keys=True), "json")
    return cleaned, details


def load_cleaned(store: ArtifactStore):
    return harmonize.merged_from_csv(store.get_text("cleaned"))


SPLIT_NAMES = ("train", "validation", "test", "unlabeled")


def stage_split(config: PipelineConfig, store: ArtifactStore, cleaned=None):
    if cleaned is None:
        cleaned = load_cleaned(store)
    labeled = [r for r in cleaned if r.outcome in (ingest.Outcome.DIED, ingest.Outcome.RECOVERED)]
    unlabeled = [r for r in cleaned if r.outcome not in (ingest.Outcome.DIED, ingest.Outcome.RECOVERED)]
    if not labeled:
        raise StageError("no labeled (Died/Recovered) rows to split")
    outcome_labels = np.array(
        [DEATH if r.outcome is ingest.Outcome.DIED else RECOVERED for r in labeled],
        dtype=np.int8,
    )
    assignment = prepare.stratified_assignment(outcome_labels, config.ratios, config.seed)
    train_reports = [r for r, a in zip(labeled, assignment) if a == 0]
    val_reports = [r for r, a in zip(labeled, assignment) if a == 1]
    test_reports = [r for r, a in zip(labeled, assignment) if a == 2]

    imputer = prepare.fit_imputer(train_reports)
    spec = prepare.EncodingSpec(top_k=config.top_k, list_encoding=config.list_encoding)
    encoder = prepare.fit_encoder(prepare.apply_imputer(imputer, train_reports), spec)
    store.put_text("encoder", encoder.to_json(), "json")

    def transform(rows, require_labels):
        return encoder.transform(prepare.apply_imputer(imputer, rows), require_labels)

    train = transform(train_reports, True)
    pruned_train, dropped = prepare.prune_correlated(
        train, config.correlation_threshold, config.priority
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
    dropped_csv = "name,reason,partner,r\n" + "".join(
        f"{d.name},{d.reason},{d.partner or ''},{'' if d.r is None else repr(d.r)}\n"
        for d in dropped
    )
    store.put_text("dropped_columns", dropped_csv, "csv")
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
    return matrices, details


def load_split(store: ArtifactStore) -> dict[str, FeatureMatrix]:
    columns = _columns_from_json(store.get_text("columns"))
    return {
        name: matrix_mod.from_csv(store.get_text(f"matrix_{name}"), columns)
        for name in SPLIT_NAMES
    }


def stage_resample(config: PipelineConfig, store: ArtifactStore, matrices=None):
    if matrices is None:
        matrices = load_split(store)
    train = matrices["train"]
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
    return resampled, details


def load_resampled(store: ArtifactStore) -> FeatureMatrix:
    columns = _columns_from_json(store.get_text("columns"))
    return matrix_mod.from_csv(store.get_text("matrix_train_resampled"), columns)


def stage_train(config: PipelineConfig, store: ArtifactStore, train=None):
    if train is None:
        train = load_resampled(store)
    model = fit_model(config.model, train)
    store.put_text("model", serialize_model(model), "txt")
    return model, {"kind": config.model.kind, "train_rows": train.n_rows}


def load_model(store: ArtifactStore, name: str = "model"):
    return parse_model(store.get_text(name))


def stage_ssl(config: PipelineConfig, store: ArtifactStore, matrices=None, train=None,
              model=None):
    if matrices is None:
        matrices = load_split(store)
    if train is None:
        train = load_resampled(store)
    if not store.has("model"):
        raise MissingArtifactError(
            "ssl requires a trained baseline; expected artifact 'model' "
            f"under {store.out_dir} (run the train stage first)"
        )
    if model is None:
        model = load_model(store)
    model, provenance, summary = ssl.ssl_train(
        train, matrices["unlabeled"], config.ssl, model=model
    )
    store.put_text("model_ssl", serialize_model(model), "txt")
    store.put_text("ssl_provenance", ssl.provenance_csv(provenance), "csv")
    details = {**summary, "keep_fraction": config.ssl.keep_fraction}
    store.put_text("ssl_stats", json.dumps(details, indent=1, sort_keys=True), "json")
    return model, details


_METRIC_COLUMNS = (
    "weighted_f1",
    "weighted_precision",
    "weighted_recall",
    "accuracy",
    "death_recall",
    "recovered_recall",
)


def stage_evaluate(config: PipelineConfig, store: ArtifactStore, matrices=None, models=None):
    if matrices is None:
        matrices = load_split(store)
    if models is None:
        models = {"supervised": load_model(store)}
        if store.has("model_ssl"):
            models["ssl"] = load_model(store, "model_ssl")
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["model", "variant", "sampling", "dataset", *_METRIC_COLUMNS])
    details = {}
    for variant, model in models.items():
        for dataset in ("validation", "test"):
            m = matrices[dataset]
            report = metrics.evaluate(m.labels, model.predict(m.values))
            writer.writerow(
                [config.model.kind, variant, config.resample.strategy, dataset]
                + [repr(getattr(report, col)) for col in _METRIC_COLUMNS]
            )
            details[f"{variant}_{dataset}"] = {
                col: round(getattr(report, col), 4) for col in _METRIC_COLUMNS
            }
    store.put_text("metrics", buf.getvalue(), "csv")
    return details


def stage_explain(config: PipelineConfig, store: ArtifactStore, matrices=None, model=None):
    if matrices is None:
        matrices = load_split(store)
    if model is None:
        name = "model_ssl" if config.explain_model == "ssl" else "model"
        model = load_model(store, name)
    dataset = matrices[config.explain_dataset]
    if config.explain_max_rows and dataset.n_rows > config.explain_max_rows:
        dataset = dataset.take_rows(np.arange(config.explain_max_rows))
    groups = explain.SpeciesGroupMap.load(config.species_groups)
    phi = explain.tree_shap_batch(model, dataset.values)
    base = explain.base_value(model)
    worst = explain.local_accuracy_error(phi, base, explain.model_margin(model, dataset.values))
    if not worst <= explain.LOCAL_ACCURACY_TOL:
        raise StageError(
            f"attributions miss the model margin by {worst!r} "
            f"(tolerance {explain.LOCAL_ACCURACY_TOL}, non-finite values count as nan)"
        )
    store.put_text("shap_values", explain.shap_values_csv(phi, base, dataset), "csv")

    all_rankings = {}
    for scope in ("ae_term", "ingredient"):
        rankings = explain.aggregate_shap(phi, dataset, groups, scope)
        all_rankings[scope] = rankings
    buf = []
    for scope, rankings in all_rankings.items():
        buf.append(explain.rankings_csv(rankings, config.top_n))
    header, *rest = buf[0].splitlines(keepends=True)
    merged_rankings = header + "".join(
        "".join(text.splitlines(keepends=True)[1:]) for text in buf
    )
    store.put_text("rankings", merged_rankings, "csv")

    by_group = explain.group_rows(dataset, groups)
    summaries = {
        group: explain.shap_summary(phi, dataset, rows, config.summary_top_k)
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
    return details


def run(config: PipelineConfig, echo=print) -> RunReport:
    """Execute every stage in order, persisting artifacts and the run report."""
    echo("effective configuration:")
    echo(effective_config_text(config))
    store = ArtifactStore(config.output_dir)
    report = RunReport(config_hash=config_hash(config))

    def timed(name, rows_in, fn, *args):
        start = time.perf_counter()
        try:
            result = fn(config, store, *args)
        except Exception as exc:
            # persist the partial report so the failing stage is on record
            report.failed_stage = name
            report.failure = str(exc)
            _replace_file(config.output_dir / "run_report.json", [report.to_json()])
            raise
        seconds = time.perf_counter() - start
        echo(f"stage {name}: {seconds:.2f}s")
        return result, seconds

    (tables, ingest_stats), secs = timed("ingest", 0, stage_ingest)
    report.add(StageRecord("ingest", secs, 0, len(tables.main), ingest_stats))

    (reports, merge_details), secs = timed("harmonize", len(tables.main), stage_harmonize, tables)
    report.add(StageRecord("harmonize", secs, len(tables.main), len(reports), merge_details))

    (cleaned, prep_details), secs = timed("prepare", len(reports), stage_prepare, reports)
    report.add(StageRecord("prepare", secs, len(reports), len(cleaned), prep_details))

    (matrices, split_details), secs = timed("split", len(cleaned), stage_split, cleaned)
    report.add(
        StageRecord(
            "split", secs, len(cleaned),
            sum(m.n_rows for m in matrices.values()), split_details,
        )
    )

    (resampled, resample_details), secs = timed(
        "resample", matrices["train"].n_rows, stage_resample, matrices
    )
    report.add(
        StageRecord(
            "resample", secs, matrices["train"].n_rows, resampled.n_rows, resample_details
        )
    )

    (model, train_details), secs = timed("train", resampled.n_rows, stage_train, resampled)
    report.add(StageRecord("train", secs, resampled.n_rows, resampled.n_rows, train_details))

    models = {"supervised": model}
    if config.ssl_enabled:
        (ssl_model, ssl_details), secs = timed("ssl", matrices["unlabeled"].n_rows,
                                               stage_ssl, matrices, resampled, model)
        report.add(
            StageRecord(
                "ssl", secs, matrices["unlabeled"].n_rows,
                ssl_details.get("pseudo_rows", 0), ssl_details,
            )
        )
        models["ssl"] = ssl_model

    eval_details, secs = timed(
        "evaluate", matrices["test"].n_rows, stage_evaluate, matrices, models
    )
    report.add(
        StageRecord("evaluate", secs, matrices["test"].n_rows, matrices["test"].n_rows, eval_details)
    )

    if config.explain_enabled:
        explain_model = models["ssl"] if config.explain_model == "ssl" else model
        explain_details, secs = timed(
            "explain", matrices[config.explain_dataset].n_rows,
            stage_explain, matrices, explain_model,
        )
        report.add(
            StageRecord(
                "explain", secs, matrices[config.explain_dataset].n_rows,
                explain_details["rows_explained"], explain_details,
            )
        )

    _replace_file(config.output_dir / "run_report.json", [report.to_json()])
    _replace_file(config.output_dir / "effective_config.txt", [effective_config_text(config)])
    return report
