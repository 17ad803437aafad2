"""Cleaning, imputation, row filtering, encoding, correlation pruning and
stratified splitting of merged reports into model-ready matrices.

Fit/transform discipline: imputation statistics, category maps, multi-hot
vocabularies and the pruned column set are all fitted on training rows only
and then applied frozen to validation/test/unlabeled rows.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

from .harmonize import MergedReport
from .ingest import AgeUnit, ChemDescriptors, Outcome, WeightUnit
from .matrix import DEATH, RECOVERED, ColumnMeta, FeatureMatrix

DAYS_PER_YEAR = 365.25
# applied as a ratio so e.g. 10 lb gives exactly the double nearest 4.5359237
POUND_TO_KG_NUM = 45359237.0
POUND_TO_KG_DEN = 1e8

ENCODER_FORMAT_VERSION = 2

LACK_OF_EFFICACY_HLT = "lack of efficacy"


class PrepareError(ValueError):
    pass


class UnitError(PrepareError):
    pass


# --- unit normalization -------------------------------------------------------


def normalize_units(report: MergedReport) -> MergedReport:
    """Convert age to years and weight to kilograms.

    Negative values are invalid and raise UnitError; callers batch-routing rows
    should use normalize_all, which collects such rows into a rejects list.
    """
    age_years = None
    if report.age_value is not None:
        if report.age_value < 0:
            raise UnitError(f"report {report.key}: negative age {report.age_value}")
        unit = report.age_unit or AgeUnit.YEAR
        if unit is AgeUnit.DAY:
            age_years = report.age_value / DAYS_PER_YEAR
        elif unit is AgeUnit.WEEK:
            age_years = report.age_value * 7 / DAYS_PER_YEAR
        elif unit is AgeUnit.MONTH:
            age_years = report.age_value / 12
        else:
            age_years = report.age_value
    weight_kg = None
    if report.weight_value is not None:
        if report.weight_value < 0:
            raise UnitError(f"report {report.key}: negative weight {report.weight_value}")
        unit = report.weight_unit or WeightUnit.KILOGRAM
        if unit is WeightUnit.GRAM:
            weight_kg = report.weight_value / 1000
        elif unit is WeightUnit.POUND:
            weight_kg = report.weight_value * POUND_TO_KG_NUM / POUND_TO_KG_DEN
        else:
            weight_kg = report.weight_value
    return replace(report, age_years=age_years, weight_kg=weight_kg)


def normalize_all(reports) -> tuple[list[MergedReport], list[tuple[str, str]]]:
    """Normalize every report; invalid rows are routed to the rejects list."""
    normalized, rejects = [], []
    for report in reports:
        try:
            normalized.append(normalize_units(report))
        except UnitError as exc:
            rejects.append((report.key, str(exc)))
    return normalized, rejects


# --- imputation ---------------------------------------------------------------

_MODE_FIELDS = ("gender", "dosage_forms", "routes")


def _mode(values) -> str | None:
    counts = Counter(values)
    if not counts:
        return None
    # ties broken lexicographically
    return min(counts, key=lambda v: (-counts[v], v))


def _single_value(report: MergedReport, fname: str):
    value = getattr(report, fname)
    if fname in ("dosage_forms", "routes"):
        return value[0] if value else None
    return value


@dataclass
class ImputerStats:
    """Species-conditional means/modes with global fallbacks, fitted on training rows."""

    age_mean: dict[str, float]
    weight_mean: dict[str, float]
    modes: dict[str, dict[str, str]]
    global_age_mean: float
    global_weight_mean: float
    global_modes: dict[str, str]


def fit_imputer(reports) -> ImputerStats:
    if any(not r.species for r in reports):
        raise PrepareError("imputation requires a species on every row")
    ages: dict[str, list[float]] = {}
    weights: dict[str, list[float]] = {}
    cat_values: dict[str, dict[str, list[str]]] = {f: {} for f in _MODE_FIELDS}
    for r in reports:
        if r.age_years is not None:
            ages.setdefault(r.species, []).append(r.age_years)
        if r.weight_kg is not None:
            weights.setdefault(r.species, []).append(r.weight_kg)
        for fname in _MODE_FIELDS:
            value = _single_value(r, fname)
            if value is not None:
                cat_values[fname].setdefault(r.species, []).append(value)

    all_ages = [v for vs in ages.values() for v in vs]
    all_weights = [v for vs in weights.values() for v in vs]
    if not all_ages:
        raise PrepareError("field age_years is absent for all rows")
    if not all_weights:
        raise PrepareError("field weight_kg is absent for all rows")
    global_modes = {}
    for fname in _MODE_FIELDS:
        pooled = [v for vs in cat_values[fname].values() for v in vs]
        if not pooled:
            raise PrepareError(f"field {fname} is absent for all rows")
        global_modes[fname] = _mode(pooled)

    return ImputerStats(
        age_mean={s: float(np.mean(vs)) for s, vs in ages.items()},
        weight_mean={s: float(np.mean(vs)) for s, vs in weights.items()},
        modes={
            fname: {s: _mode(vs) for s, vs in by_species.items()}
            for fname, by_species in cat_values.items()
        },
        global_age_mean=float(np.mean(all_ages)),
        global_weight_mean=float(np.mean(all_weights)),
        global_modes=global_modes,
    )


def apply_imputer(stats: ImputerStats, reports) -> list[MergedReport]:
    out = []
    for r in reports:
        changes = {}
        if r.age_years is None:
            changes["age_years"] = stats.age_mean.get(r.species, stats.global_age_mean)
        if r.weight_kg is None:
            changes["weight_kg"] = stats.weight_mean.get(r.species, stats.global_weight_mean)
        if r.gender is None:
            changes["gender"] = stats.modes["gender"].get(
                r.species, stats.global_modes["gender"]
            )
        if not r.dosage_forms:
            changes["dosage_forms"] = [
                stats.modes["dosage_forms"].get(r.species, stats.global_modes["dosage_forms"])
            ]
        if not r.routes:
            changes["routes"] = [stats.modes["routes"].get(r.species, stats.global_modes["routes"])]
        out.append(replace(r, **changes) if changes else r)
    return out


# --- row filtering --------------------------------------------------------------


def filter_rows(reports) -> tuple[list[MergedReport], dict[str, int]]:
    """Drop euthanized rows and lack-of-efficacy reports; fold sequela recoveries.

    Date/year information never becomes a feature: the encoded fields below
    have no column for it.
    """
    counts = {"euthanized": 0, "lack_of_efficacy": 0, "relabeled_sequela": 0}
    kept: list[MergedReport] = []
    for r in reports:
        if r.outcome is Outcome.EUTHANIZED:
            counts["euthanized"] += 1
            continue
        if any(t.strip().lower() == LACK_OF_EFFICACY_HLT for t in r.ae_terms):
            counts["lack_of_efficacy"] += 1
            continue
        if r.outcome is Outcome.RECOVERED_WITH_SEQUELA:
            counts["relabeled_sequela"] += 1
            r = replace(r, outcome=Outcome.RECOVERED)
        kept.append(r)
    return kept, counts


# --- encoding -------------------------------------------------------------------

NUMERIC_FIELDS = ("age_years", "weight_kg", *ChemDescriptors.FIELDS)
CATEGORICAL_FIELDS = ("species", "breed", "gender")
MULTI_HOT_FIELDS = ("ae_terms", "ingredients", "atcvet_subgroups", "routes", "dosage_forms")

OTHER_TOKEN = "OTHER"


def _field_value(report: MergedReport, name: str):
    if name in ChemDescriptors.FIELDS:
        return getattr(report.descriptors, name)
    return getattr(report, name)


@dataclass
class FittedEncoder:
    top_k: int
    category_maps: dict[str, dict[str, int]]
    vocabularies: dict[str, tuple[str, ...]]
    columns: list[ColumnMeta] = field(init=False)

    def __post_init__(self):
        self.columns = [ColumnMeta(name=n, kind="numeric", source_field=n) for n in NUMERIC_FIELDS]
        for name in CATEGORICAL_FIELDS:
            self.columns.append(
                ColumnMeta(
                    name=name,
                    kind="encoded_categorical",
                    category_map=self.category_maps[name],
                    source_field=name,
                )
            )
        for name in MULTI_HOT_FIELDS:
            for token in (*self.vocabularies[name], OTHER_TOKEN):
                self.columns.append(
                    ColumnMeta(name=f"{name}={token}", kind="multi_hot", source_field=name)
                )

    def transform(self, reports, require_labels: bool = True) -> FeatureMatrix:
        n = len(reports)
        values = np.zeros((n, len(self.columns)), dtype=np.float64)
        col = 0
        for name in NUMERIC_FIELDS:
            for i, r in enumerate(reports):
                value = _field_value(r, name)
                values[i, col] = 0.0 if value is None else float(value)
            col += 1
        for name in CATEGORICAL_FIELDS:
            cmap = self.category_maps[name]
            for i, r in enumerate(reports):
                value = _field_value(r, name)
                values[i, col] = cmap.get(value, 0) if value is not None else 0
            col += 1
        for name in MULTI_HOT_FIELDS:
            vocab = self.vocabularies[name]
            index = {token: j for j, token in enumerate(vocab)}
            width = len(vocab) + 1
            for i, r in enumerate(reports):
                other = 0.0
                for token in _field_value(r, name):
                    j = index.get(token)
                    if j is None:
                        other = 1.0
                    else:
                        values[i, col + j] = 1.0
                values[i, col + width - 1] = other
            col += width

        labels = None
        if require_labels:
            labels = np.empty(n, dtype=np.int8)
            for i, r in enumerate(reports):
                if r.outcome is Outcome.DIED:
                    labels[i] = DEATH
                elif r.outcome is Outcome.RECOVERED:
                    labels[i] = RECOVERED
                else:
                    raise PrepareError(
                        f"report {r.key} has non-definitive outcome {r.outcome.value}"
                    )
        return FeatureMatrix(
            values=values,
            columns=self.columns,
            keys=[r.key for r in reports],
            labels=labels,
        )

    def to_json(self) -> str:
        return json.dumps(
            {
                "version": ENCODER_FORMAT_VERSION,
                "spec": {
                    "numeric": list(NUMERIC_FIELDS),
                    "categorical": list(CATEGORICAL_FIELDS),
                    "multi_hot": list(MULTI_HOT_FIELDS),
                    "top_k": self.top_k,
                },
                "category_maps": self.category_maps,
                "vocabularies": {k: list(v) for k, v in self.vocabularies.items()},
            },
            sort_keys=True,
        )


def fit_encoder(fit_on, top_k: int) -> FittedEncoder:
    """Fit category maps (first-appearance codes, 0 reserved for UNKNOWN) and
    top-K multi-hot vocabularies (by descending training frequency, ties by
    name) on the given rows."""
    category_maps: dict[str, dict[str, int]] = {}
    for name in CATEGORICAL_FIELDS:
        cmap: dict[str, int] = {}
        for r in fit_on:
            value = _field_value(r, name)
            if value is not None and value not in cmap:
                cmap[value] = len(cmap) + 1
        category_maps[name] = cmap
    vocabularies: dict[str, tuple[str, ...]] = {}
    for name in MULTI_HOT_FIELDS:
        counts = Counter()
        for r in fit_on:
            counts.update(_field_value(r, name))
        vocabularies[name] = tuple(sorted(counts, key=lambda t: (-counts[t], t))[:top_k])
    return FittedEncoder(top_k=top_k, category_maps=category_maps, vocabularies=vocabularies)


# --- correlation pruning -----------------------------------------------------


@dataclass(frozen=True)
class DroppedColumn:
    name: str
    reason: str  # "constant" or "correlated"
    partner: str | None = None
    r: float | None = None


def prune_correlated(
    matrix: FeatureMatrix,
    threshold: float,
    priority: tuple[str, ...],
) -> tuple[FeatureMatrix, list[DroppedColumn]]:
    """Drop one column of every numeric pair with |Pearson r| >= threshold.

    The non-priority column of a pair is dropped; between two non-priority
    columns the later one goes. Zero-variance columns are dropped first with
    their own reason code.
    """
    if not (0 < threshold <= 1):
        raise PrepareError(f"correlation threshold must be in (0, 1], got {threshold}")
    numeric = matrix.numeric_indices()
    if len(numeric) < 2:
        raise PrepareError("correlation pruning needs at least two numeric columns")

    dropped: list[DroppedColumn] = []
    names = matrix.column_names()
    values = matrix.values
    variances = {i: float(np.var(values[:, i])) for i in numeric}
    alive = []
    for i in numeric:
        if variances[i] == 0.0:
            dropped.append(DroppedColumn(name=names[i], reason="constant"))
        else:
            alive.append(i)

    priority_set = set(priority)
    removed: set[int] = set()
    for a_pos in range(len(alive)):
        i = alive[a_pos]
        if i in removed:
            continue
        for b_pos in range(a_pos + 1, len(alive)):
            j = alive[b_pos]
            if i in removed:
                break
            if j in removed:
                continue
            xi = values[:, i]
            xj = values[:, j]
            r = float(np.corrcoef(xi, xj)[0, 1])
            if abs(r) < threshold:
                continue
            i_priority = names[i] in priority_set
            j_priority = names[j] in priority_set
            if j_priority and not i_priority:
                victim, keeper = i, j
            else:
                # later column goes, which also keeps the earlier of two
                # priority columns
                victim, keeper = j, i
            removed.add(victim)
            dropped.append(
                DroppedColumn(name=names[victim], reason="correlated", partner=names[keeper], r=r)
            )
    if removed or dropped:
        pruned = matrix.drop_columns([d.name for d in dropped])
    else:
        pruned = matrix
    return pruned, dropped


# --- stratified splitting -------------------------------------------------------


def largest_remainder_quotas(count: int, ratios) -> list[int]:
    """Integer allocation of count across ratios; remainders largest-first."""
    exact = [count * r for r in ratios]
    base = [int(np.floor(q)) for q in exact]
    remaining = count - sum(base)
    order = sorted(range(len(ratios)), key=lambda s: (-(exact[s] - base[s]), s))
    for s in order[:remaining]:
        base[s] += 1
    return base


def stratified_assignment(labels: np.ndarray, ratios, seed: int) -> np.ndarray:
    """Per-class shuffled split assignment (0=train, 1=validation, 2=test)."""
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise PrepareError(f"split ratios must sum to 1, got {ratios}")
    labels = np.asarray(labels)
    rng = np.random.default_rng(seed)
    assignment = np.empty(len(labels), dtype=np.int8)
    for cls in sorted(np.unique(labels)):
        indices = np.flatnonzero(labels == cls)
        if len(indices) < 3:
            raise PrepareError(
                f"class {cls} has {len(indices)} rows; need at least 3 to populate all splits"
            )
        shuffled = rng.permutation(indices)
        quotas = largest_remainder_quotas(len(indices), ratios)
        start = 0
        for split_id, quota in enumerate(quotas):
            assignment[shuffled[start : start + quota]] = split_id
            start += quota
    return assignment
