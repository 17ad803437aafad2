"""Span and counter recorder for traced passes.

`install` wraps public functions of `vetpv` at the module attribute each
caller resolves (``pipeline.fit_model``, ``ssl.fit_model``,
``boosting.apply_tree`` ...), so the program itself is not edited.  Every
wrapped call records a span (name, start, end, parent) in memory; counts are
taken from the returned objects.  `layer_metrics` turns the spans into
per-layer self times: a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict


class Recorder:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counters: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, owner, attr: str, span: str, count=None):
        """Replace owner.attr with a traced call; count(counters, result, *args) adds counts."""
        original = getattr(owner, attr)
        spans, stack, counters = self.spans, self._stack, self.counters

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([span, time.perf_counter(), None, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                spans[index][2] = time.perf_counter()
                stack.pop()
            if count is not None:
                count(counters, result, *args)
            return result

        setattr(owner, attr, traced)

    def count_calls(self, owner, attr: str, counter: str):
        """Count calls without a span, for functions called thousands of times."""
        original = getattr(owner, attr)
        counters = self.counters

        @functools.wraps(original)
        def counted(*args, **kwargs):
            counters[counter] += 1
            return original(*args, **kwargs)

        setattr(owner, attr, counted)

    def times(self) -> tuple[dict[str, float], dict[str, float]]:
        """(self seconds, total seconds) per span name."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        total_s: dict[str, float] = defaultdict(float)
        for (name, start, end, _), child_s in zip(self.spans, covered):
            self_s[name] += end - start - child_s
            total_s[name] += end - start
        return self_s, total_s

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as out:
            for name, start, end, parent in self.spans:
                out.write(json.dumps([name, start, end, parent]) + "\n")


def _add(**amounts):
    """A count function that adds fixed amounts."""
    return lambda counters, *_: counters.update(amounts)


def install(rec: Recorder):
    """Wrap every layer boundary the per-layer metrics need."""
    from vetpv import (baselines, boosting, bulkio, cli, explain, forest, harmonize, ingest,
                       matrix, metrics, models, pipeline, prepare, resample, ssl, trees)

    for stage in pipeline.STAGES:
        rec.wrap(pipeline, f"stage_{stage}", f"pipeline.stage_{stage}")
    rec.wrap(pipeline.ArtifactStore, "put_text", "pipeline.put_text",
             lambda c, path, *_: c.update({"pipeline.put_text_calls": 1,
                                           "pipeline.bytes_written": path.stat().st_size}))
    rec.wrap(pipeline.ArtifactStore, "get_text", "pipeline.get_text")
    rec.wrap(cli, "load_config", "config.load_config")

    rec.wrap(ingest, "read_quarter_file", "ingest.read_quarter_file",
             lambda c, result, path: c.update({"ingest.input_bytes": path.stat().st_size,
                                               "ingest.reports": result[1].reports}))
    rec.wrap(bulkio, "export_bulk_string", "bulkio.export",
             lambda c, texts, *_: c.update({"bulkio.bytes": sum(map(len, texts.values()))}))
    rec.wrap(bulkio, "import_bulk_string", "bulkio.import",
             lambda c, _, texts: c.update({"bulkio.bytes": sum(map(len, texts.values()))}))

    rec.wrap(harmonize, "merge_reports", "harmonize.merge_reports",
             lambda c, result, tables, *_: c.update({
                 "harmonize.unmapped_terms": sum(result[1].unmapped_terms.values()),
                 "harmonize.events": len(tables.events)}))
    rec.wrap(harmonize, "merged_to_csv", "harmonize.merged_to_csv")

    rec.wrap(prepare, "normalize_all", "prepare.normalize",
             lambda c, result, reports: c.update({"prepare.rejects": len(result[1]),
                                                  "prepare.reports": len(reports)}))
    rec.wrap(prepare, "fit_encoder", "prepare.encode")
    rec.wrap(prepare.FittedEncoder, "transform", "prepare.encode")
    rec.wrap(prepare, "prune_correlated", "prepare.prune_correlated",
             lambda c, result, *_: c.update({"prepare.columns_kept": result[0].n_cols}))

    rec.wrap(matrix, "to_csv", "matrix.to_csv",
             lambda c, text, *_: c.update({"matrix.csv_bytes": len(text)}))
    rec.wrap(matrix, "from_csv", "matrix.from_csv")

    rec.wrap(resample, "smote", "resample.smote",
             lambda c, out, before, *_: c.update(
                 {"resample.rows_synthesized": out.n_rows - before.n_rows}))
    rec.wrap(resample, "enn", "resample.enn",
             lambda c, out, before, *_: c.update({"resample.enn_rows_in": before.n_rows,
                                                  "resample.enn_rows_kept": out.n_rows}))

    count_cart = lambda c, root, *_: c.update({"trees.fit_cart_calls": 1,  # noqa: E731
                                               "trees.nodes": root.n_nodes()})
    rec.wrap(trees, "fit_cart", "trees.fit_cart", count_cart)
    rec.wrap(forest, "fit_cart", "trees.fit_cart", count_cart)
    count_apply = lambda c, _, flat, X: c.update({"trees.apply_tree_calls": 1,  # noqa: E731
                                                  "trees.apply_tree_rows": len(X)})
    for owner in (trees, forest, boosting):
        rec.wrap(owner, "apply_tree", "trees.apply_tree", count_apply)

    rec.wrap(models, "fit_forest", "forest.fit_forest")
    rec.wrap(forest.RandomForestModel, "staged_proba", "forest.staged_proba")
    rec.wrap(models, "fit_gbdt", "boosting.fit_gbdt",
             lambda c, model, *_: c.update({"boosting.rounds": len(model.trees),
                                            "boosting.nodes": sum(t.n_nodes() for t in model.trees)}))
    rec.wrap(boosting.GradientBoostedModel, "staged_margins", "boosting.staged_margins")
    rec.wrap(models, "fit_logistic", "baselines.fit_logistic",
             lambda c, model, *_: c.update({"baselines.converged": int(model.converged)}))
    rec.count_calls(baselines, "logistic_loss_grad", "baselines.loss_grad_calls")

    rec.wrap(pipeline, "fit_model", "models.fit_model", _add(**{"models.fit_model_calls": 1}))
    rec.wrap(ssl, "fit_model", "models.fit_model",
             _add(**{"models.fit_model_calls": 1, "ssl.refits": 1}))
    rec.wrap(pipeline, "serialize_model", "models.serialize",
             lambda c, text, *_: c.update({"models.model_bytes": len(text)}))
    rec.wrap(pipeline, "parse_model", "models.parse")

    rec.wrap(ssl, "ssl_train", "ssl.ssl_train",
             lambda c, result, labeled, unlabeled, *_: c.update(
                 {"ssl.pseudo_rows": result[2]["pseudo_rows"], "ssl.pool_rows": unlabeled.n_rows}))
    rec.wrap(ssl, "staged_probabilities", "ssl.staged_probabilities",
             lambda c, _, series, *__: c.update({"ssl.checkpoints": len(series.checkpoints)}))

    rec.wrap(metrics, "evaluate", "metrics.evaluate")
    rec.wrap(explain, "tree_shap_batch", "explain.tree_shap_batch",
             lambda c, vectors, *_: c.update({"explain.rows": len(vectors)}))
    rec.wrap(explain, "aggregate_shap", "explain.aggregate")


def _share(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(rec: Recorder) -> dict[str, float]:
    """Per-layer metrics of one traced pass: self times, counters and ratios.

    The runner reports the ones BENCHMARK.json lists; layers that did not run
    are absent here and read 0 there.
    """
    self_s, total_s = rec.times()
    c = rec.counters
    out = {f"{name}_s": seconds for name, seconds in self_s.items()}
    out.update(c)
    out["ingest.reports_per_s"] = _share(c["ingest.reports"], total_s["ingest.read_quarter_file"])
    out["harmonize.unmapped_share"] = _share(c["harmonize.unmapped_terms"], c["harmonize.events"])
    out["prepare.reject_share"] = _share(c["prepare.rejects"], c["prepare.reports"])
    out["resample.enn_keep_share"] = _share(c["resample.enn_rows_kept"], c["resample.enn_rows_in"])
    out["boosting.nodes_per_s"] = _share(c["boosting.nodes"], total_s["boosting.fit_gbdt"])
    out["ssl.kept_share"] = _share(c["ssl.pseudo_rows"], c["ssl.pool_rows"])
    out["explain.rows_per_s"] = _share(c["explain.rows"], total_s["explain.tree_shap_batch"])
    return out
