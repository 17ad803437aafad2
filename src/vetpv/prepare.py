"""Cleaning, imputation, row filtering, encoding, correlation pruning and
stratified splitting of merged reports into model-ready matrices. Every step
works a column of `harmonize.Reports` at a time.

Fit/transform discipline: imputation statistics, category maps, multi-hot
vocabularies and the pruned column set are all fitted on training rows only
and then applied frozen to validation/test/unlabeled rows.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .harmonize import AGE_UNITS, OUTCOME_CODE, OUTCOMES, WEIGHT_UNITS, Reports, Terms
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


# --- unit normalization -------------------------------------------------------


def normalize_all(reports: Reports) -> tuple[Reports, list[tuple[str, str]]]:
    """Convert age to years and weight to kilograms (an absent unit means
    years or kilograms). Rows with a negative age or weight are dropped and
    listed as (key, reason) rejects."""
    age, weight = reports.numbers["age_value"], reports.numbers["weight_value"]
    has_age, has_weight = reports.present["age_value"], reports.present["weight_value"]
    age_unit, weight_unit = reports.age_unit, reports.weight_unit
    with np.errstate(over="ignore"):  # as in Python float arithmetic, overflow gives inf
        years = np.select(
            [age_unit == AGE_UNITS.index(AgeUnit.DAY), age_unit == AGE_UNITS.index(AgeUnit.WEEK),
             age_unit == AGE_UNITS.index(AgeUnit.MONTH)],
            [age / DAYS_PER_YEAR, age * 7 / DAYS_PER_YEAR, age / 12],
            age,
        )
        kg = np.select(
            [weight_unit == WEIGHT_UNITS.index(WeightUnit.GRAM),
             weight_unit == WEIGHT_UNITS.index(WeightUnit.POUND)],
            [weight / 1000, weight * POUND_TO_KG_NUM / POUND_TO_KG_DEN],
            weight,
        )
    normalized = reports.update(age_years=(years, has_age), weight_kg=(kg, has_weight))
    bad_age = has_age & (age < 0)
    bad = bad_age | (has_weight & (weight < 0))
    if not bad.any():
        return normalized, []
    rejects = []
    for i in np.flatnonzero(bad).tolist():
        key = reports.key[i]
        what, value = ("age", age[i]) if bad_age[i] else ("weight", weight[i])
        rejects.append((key, f"report {key}: negative {what} {value.item()}"))
    return normalized.take(np.flatnonzero(~bad)), rejects


# --- imputation ---------------------------------------------------------------


def _codes(values: list) -> tuple[np.ndarray, list]:
    """First-appearance codes of the values, and the distinct values."""
    index: dict = {}
    codes = [index.setdefault(v, len(index)) for v in values]
    return np.array(codes, np.intp), list(index)


def _means(species, names, values, present, fname):
    """Per-species means, and the mean over every value taken species by
    species in order of first appearance, each group in row order."""
    groups, values = species[present], values[present]
    if not len(values):
        raise PrepareError(f"field {fname} is absent for all rows")
    seen, first = np.unique(groups, return_index=True)
    order = seen[np.argsort(first)].tolist()
    by_species = [values[groups == s] for s in order]
    means = {names[s]: float(np.mean(v)) for s, v in zip(order, by_species)}
    return means, float(np.mean(np.concatenate(by_species)))


def _modes(species, names, codes, vocab, fname):
    """Per-species and global modes of the coded values (-1 absent); ties go
    to the lexicographically smallest value."""
    present = codes >= 0
    if not present.any():
        raise PrepareError(f"field {fname} is absent for all rows")
    order = sorted(range(len(vocab)), key=vocab.__getitem__)
    rank = np.empty(len(vocab), np.intp)
    rank[order] = np.arange(len(vocab))
    counts = np.zeros((len(names), len(vocab)), np.int64)
    np.add.at(counts, (species[present], rank[codes[present]]), 1)
    best = counts.argmax(axis=1).tolist()  # the first maximum: the smallest value
    modes = {names[s]: vocab[order[best[s]]] for s in np.flatnonzero(counts.any(axis=1)).tolist()}
    return modes, vocab[order[int(counts.sum(axis=0).argmax())]]


def _first_tokens(terms: Terms) -> np.ndarray:
    """Each report's first token code, -1 for an empty list."""
    first = np.full(len(terms.offsets) - 1, -1, np.intp)
    filled = terms.lengths() > 0
    first[filled] = terms.codes[terms.offsets[:-1][filled]]
    return first


def fit_imputer(reports: Reports) -> dict[str, tuple[dict, object]]:
    """Per imputed field, (value by species, value over all rows), fitted on
    training rows: means of age_years and weight_kg, modes of gender and of
    the first dosage form and route."""
    if not all(reports.species):
        raise PrepareError("imputation requires a species on every row")
    species, names = _codes(reports.species)
    stats = {name: _means(species, names, reports.numbers[name], reports.present[name], name)
             for name in ("age_years", "weight_kg")}
    index: dict[str, int] = {}
    genders = [-1 if g is None else index.setdefault(g, len(index)) for g in reports.gender]
    stats["gender"] = _modes(species, names, np.array(genders, np.intp), list(index), "gender")
    for name in ("dosage_forms", "routes"):
        terms = reports.lists[name]
        stats[name] = _modes(species, names, _first_tokens(terms), terms.vocab, name)
    return stats


def _fill_empty(terms: Terms, tokens: np.ndarray) -> Terms:
    """Give each empty list the one token tokens[row] names."""
    empty = terms.lengths() == 0
    if not empty.any():
        return terms
    index = {t: i for i, t in enumerate(terms.vocab)}
    fills = [index.setdefault(t, len(index)) for t in tokens[empty].tolist()]
    offsets = np.concatenate(([0], np.cumsum(np.maximum(terms.lengths(), 1))))
    filled = np.zeros(offsets[-1], bool)
    filled[offsets[:-1][empty]] = True
    codes = np.empty(offsets[-1], np.intp)
    codes[filled], codes[~filled] = fills, terms.codes
    return Terms(offsets, codes, tuple(index))


def apply_imputer(stats: dict[str, tuple[dict, object]], reports: Reports) -> Reports:
    species, names = _codes(reports.species)

    def fill(name, dtype=object):
        """Each row's species value, or the overall one for a species not fitted."""
        by_species, fallback = stats[name]
        return np.array([by_species.get(s, fallback) for s in names] or [fallback], dtype)[species]

    columns = {name: (np.where(reports.present[name], reports.numbers[name], fill(name, np.float64)),
                      np.ones(len(reports), bool)) for name in ("age_years", "weight_kg")}
    columns["gender"] = [g if g is not None else m for g, m in zip(reports.gender, fill("gender").tolist())]
    for name in ("dosage_forms", "routes"):
        columns[name] = _fill_empty(reports.lists[name], fill(name))
    return reports.update(**columns)


# --- row filtering --------------------------------------------------------------


def filter_rows(reports: Reports) -> tuple[Reports, dict[str, int]]:
    """Drop euthanized rows and lack-of-efficacy reports; fold sequela recoveries.

    Date/year information never becomes a feature: the encoded fields below
    have no column for it.
    """
    outcome = reports.outcome
    euthanized = outcome == OUTCOME_CODE[Outcome.EUTHANIZED]
    terms = reports.lists["ae_terms"]
    flagged = np.array([t.strip().lower() == LACK_OF_EFFICACY_HLT for t in terms.vocab], bool)
    lacking = np.zeros(len(reports), bool)
    lacking[terms.rows()[flagged[terms.codes]]] = True
    lacking &= ~euthanized
    kept = ~(euthanized | lacking)
    sequela = kept & (outcome == OUTCOME_CODE[Outcome.RECOVERED_WITH_SEQUELA])
    counts = {
        "euthanized": int(euthanized.sum()),
        "lack_of_efficacy": int(lacking.sum()),
        "relabeled_sequela": int(sequela.sum()),
    }
    relabeled = np.where(sequela, np.int8(OUTCOME_CODE[Outcome.RECOVERED]), outcome)
    return reports.update(outcome=relabeled).take(np.flatnonzero(kept)), counts


# --- encoding -------------------------------------------------------------------

def outcome_labels(outcome: np.ndarray) -> np.ndarray:
    """int8 labels: DEATH for Died, RECOVERED for Recovered, -1 (unlabeled) otherwise."""
    codes = (OUTCOME_CODE[Outcome.DIED], OUTCOME_CODE[Outcome.RECOVERED])
    return np.select([outcome == code for code in codes], [DEATH, RECOVERED], -1).astype(np.int8)


NUMERIC_FIELDS = ("age_years", "weight_kg", *ChemDescriptors.FIELDS)
CATEGORICAL_FIELDS = ("species", "breed", "gender")
MULTI_HOT_FIELDS = ("ae_terms", "ingredients", "atcvet_subgroups", "routes", "dosage_forms")

OTHER_TOKEN = "OTHER"


@dataclass
class FittedEncoder:
    top_k: int
    category_maps: dict[str, dict[str, int]]
    vocabularies: dict[str, tuple[str, ...]]
    columns: list[ColumnMeta] = field(init=False)

    def __post_init__(self):
        self.columns = [ColumnMeta(name=n, kind="numeric", source_field=n) for n in NUMERIC_FIELDS]
        self.columns += [ColumnMeta(name=n, kind="encoded_categorical", source_field=n,
                                    category_map=self.category_maps[n]) for n in CATEGORICAL_FIELDS]
        self.columns += [ColumnMeta(name=f"{n}={token}", kind="multi_hot", source_field=n)
                         for n in MULTI_HOT_FIELDS for token in (*self.vocabularies[n], OTHER_TOKEN)]

    def transform(self, reports: Reports, require_labels: bool = True) -> FeatureMatrix:
        n = len(reports)
        values = np.zeros((n, len(self.columns)), dtype=np.float64)
        for col, name in enumerate(NUMERIC_FIELDS):
            values[:, col] = np.where(reports.present[name], reports.numbers[name], 0.0)
        col = len(NUMERIC_FIELDS)
        for name in CATEGORICAL_FIELDS:
            cmap = self.category_maps[name]
            values[:, col] = [cmap.get(value, 0) for value in getattr(reports, name)]
            col += 1
        for name in MULTI_HOT_FIELDS:
            vocab = self.vocabularies[name]
            index = {token: j for j, token in enumerate(vocab)}
            terms = reports.lists[name]
            # the column of each token code: its vocabulary slot, else OTHER
            slots = np.array([index.get(t, len(vocab)) for t in terms.vocab], np.intp)
            values[terms.rows(), col + slots[terms.codes]] = 1.0
            col += len(vocab) + 1

        labels = None
        if require_labels:
            labels = outcome_labels(reports.outcome)
            if (labels < 0).any():
                i = int(np.argmax(labels < 0))
                raise PrepareError(f"report {reports.key[i]} has non-definitive outcome "
                                   f"{OUTCOMES[reports.outcome[i]].value}")
        return FeatureMatrix(values=values, columns=self.columns, keys=list(reports.key),
                             labels=labels)

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


def fit_encoder(fit_on: Reports, top_k: int) -> FittedEncoder:
    """Fit category maps (first-appearance codes, 0 reserved for UNKNOWN) and
    top-K multi-hot vocabularies (by descending training frequency, ties by
    name) on the given rows."""
    category_maps = {}
    for name in CATEGORICAL_FIELDS:
        seen = dict.fromkeys(v for v in getattr(fit_on, name) if v is not None)
        category_maps[name] = {value: code for code, value in enumerate(seen, start=1)}
    vocabularies = {}
    for name in MULTI_HOT_FIELDS:
        terms = fit_on.lists[name]
        counts = np.bincount(terms.codes, minlength=len(terms.vocab)).tolist()
        ranked = sorted((-count, token) for token, count in zip(terms.vocab, counts) if count)
        vocabularies[name] = tuple(token for _, token in ranked[:top_k])
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
    with np.errstate(invalid="ignore"):  # a column holding inf has NaN variance
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
            with np.errstate(invalid="ignore"):
                r = float(np.corrcoef(values[:, i], values[:, j])[0, 1])
            if not abs(r) >= threshold:  # a NaN r, from a column holding inf, keeps the pair
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
