"""Confusion-matrix metrics with Death as the positive class, and the
model-by-sampling results table emitter.

Weighted metrics are support-weighted means of the per-class values; the 0/0
cases of precision/recall/F1 are defined as 0 and flagged in the report. Text
tables round to 2 decimals with Python's round-half-even formatting; the CSV
keeps full precision.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .matrix import DEATH, RECOVERED, csv_rows


class MetricsError(ValueError):
    pass


@dataclass(frozen=True)
class Confusion:
    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn

    def __post_init__(self):
        if min(self.tp, self.fp, self.tn, self.fn) < 0:
            raise MetricsError("confusion counts must be non-negative")


def confusion(truth, predicted) -> Confusion:
    truth = np.asarray(truth)
    predicted = np.asarray(predicted)
    if truth.shape != predicted.shape:
        raise MetricsError(f"length mismatch: {truth.shape} vs {predicted.shape}")
    if truth.size == 0:
        raise MetricsError("cannot evaluate zero rows")
    return Confusion(
        tp=int(np.sum((truth == DEATH) & (predicted == DEATH))),
        fp=int(np.sum((truth == RECOVERED) & (predicted == DEATH))),
        tn=int(np.sum((truth == RECOVERED) & (predicted == RECOVERED))),
        fn=int(np.sum((truth == DEATH) & (predicted == RECOVERED))),
    )


@dataclass
class MetricsReport:
    weighted_f1: float
    weighted_precision: float
    weighted_recall: float
    accuracy: float
    death_recall: float
    recovered_recall: float
    death_precision: float
    recovered_precision: float
    death_f1: float
    recovered_f1: float
    supports: dict[str, int]
    undefined: list[str] = field(default_factory=list)


def _ratio(num: int, den: int, name: str, undefined: list[str]) -> float:
    if den == 0:
        undefined.append(name)
        return 0.0
    return num / den


def metrics(conf: Confusion) -> MetricsReport:
    if conf.total == 0:
        raise MetricsError("empty confusion matrix")
    undefined: list[str] = []
    death_support = conf.tp + conf.fn
    recovered_support = conf.tn + conf.fp
    total = conf.total

    death_precision = _ratio(conf.tp, conf.tp + conf.fp, "death_precision", undefined)
    death_recall = _ratio(conf.tp, conf.tp + conf.fn, "death_recall", undefined)
    recovered_precision = _ratio(conf.tn, conf.tn + conf.fn, "recovered_precision", undefined)
    recovered_recall = _ratio(conf.tn, conf.tn + conf.fp, "recovered_recall", undefined)

    def f1(p, r, name):
        if p + r == 0:
            undefined.append(name)
            return 0.0
        return 2 * p * r / (p + r)

    death_f1 = f1(death_precision, death_recall, "death_f1")
    recovered_f1 = f1(recovered_precision, recovered_recall, "recovered_f1")

    w_death = death_support / total
    w_recovered = recovered_support / total
    return MetricsReport(
        weighted_f1=w_death * death_f1 + w_recovered * recovered_f1,
        weighted_precision=w_death * death_precision + w_recovered * recovered_precision,
        weighted_recall=w_death * death_recall + w_recovered * recovered_recall,
        accuracy=(conf.tp + conf.tn) / total,
        death_recall=death_recall,
        recovered_recall=recovered_recall,
        death_precision=death_precision,
        recovered_precision=recovered_precision,
        death_f1=death_f1,
        recovered_f1=recovered_f1,
        supports={"Death": death_support, "Recovered": recovered_support},
        undefined=undefined,
    )


def evaluate(truth, predicted) -> MetricsReport:
    return metrics(confusion(truth, predicted))


TABLE_METRICS = (
    ("F1", "weighted_f1"),
    ("P", "weighted_precision"),
    ("R", "weighted_recall"),
    ("DR", "death_recall"),
    ("RR", "recovered_recall"),
)


def results_table(runs: list[tuple[str, str, MetricsReport]]) -> tuple[str, str]:
    """(csv_text, aligned_text) with one row per model and a five-metric column
    block per sampling strategy, in first-appearance order. A report needs
    only the TABLE_METRICS attributes."""
    if not runs:
        raise MetricsError("no runs to tabulate")
    models: list[str] = []
    samplings: list[str] = []
    cell: dict[tuple[str, str], MetricsReport] = {}
    for model, sampling, report in runs:
        if model not in models:
            models.append(model)
        if sampling not in samplings:
            samplings.append(sampling)
        cell[(model, sampling)] = report

    header = ["model"]
    for sampling in samplings:
        header += [f"{sampling}/{short}" for short, _ in TABLE_METRICS]

    csv_table = [header]
    text_rows = []
    for model in models:
        csv_row = [model]
        text_row = [model]
        for sampling in samplings:
            report = cell.get((model, sampling))
            for _, attr in TABLE_METRICS:
                if report is None:
                    csv_row.append("")
                    text_row.append("-")
                else:
                    value = getattr(report, attr)
                    csv_row.append(repr(value))
                    text_row.append(f"{value:.2f}")
        csv_table.append(csv_row)
        text_rows.append(text_row)

    widths = [len(h) for h in header]
    for row in text_rows:
        for j, cell_text in enumerate(row):
            widths[j] = max(widths[j], len(cell_text))
    lines = ["  ".join(h.ljust(widths[j]) for j, h in enumerate(header))]
    for row in text_rows:
        lines.append("  ".join(c.ljust(widths[j]) for j, c in enumerate(row)))
    return "".join(csv_rows(csv_table)), "\n".join(lines) + "\n"


def write_results_table(runs: list[tuple[str, str, MetricsReport]], out_base: Path) -> str:
    """Write results_table(runs) to out_base.csv and .txt; return the aligned text."""
    csv_text, aligned = results_table(runs)
    out_base.parent.mkdir(parents=True, exist_ok=True)
    out_base.with_suffix(".csv").write_text(csv_text, encoding="utf-8")
    out_base.with_suffix(".txt").write_text(aligned, encoding="utf-8")
    return aligned
