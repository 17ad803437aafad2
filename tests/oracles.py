"""Independent brute-force oracles the tests check the fast paths against.

Everything here is deliberately naive: exhaustive enumeration, O(n^2)
neighbor scans, direct per-formula arithmetic. None of it may import the
implementation paths it validates beyond plain data containers.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import itertools
import json
import math
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from vetpv.harmonize import (AGE_UNITS, LIST_FIELDS, NUMBER_FIELDS, OUTCOMES, WEIGHT_UNITS,
                             OntologyError, Reports, Terms, map_atcvet, map_veddra)
from vetpv.ingest import (SCHEMA, AgeUnit, ChemDescriptors, Outcome, RawTables, Table, VeddraLevel,
                          WeightUnit, load_outcome_synonyms)


def gini_of(counts0: float, counts1: float) -> float:
    total = counts0 + counts1
    if total == 0:
        return 0.0
    p0, p1 = counts0 / total, counts1 / total
    return 1.0 - p0 * p0 - p1 * p1


def brute_force_best_split(X: np.ndarray, y: np.ndarray):
    """Exhaustive impurity search over every (feature, midpoint) candidate.

    Returns (gain, feature, threshold) with ties resolved by lowest feature
    then lowest threshold, or None if nothing improves impurity.
    """
    n, d = X.shape
    parent = gini_of(np.sum(y == 0), np.sum(y == 1))
    best = None
    for f in range(d):
        values = np.unique(X[:, f])
        for a, b in zip(values[:-1], values[1:]):
            threshold = (a + b) / 2
            left = X[:, f] < threshold
            nl = int(left.sum())
            if nl == 0 or nl == n:
                continue
            gl = gini_of(np.sum(y[left] == 0), np.sum(y[left] == 1))
            gr = gini_of(np.sum(y[~left] == 0), np.sum(y[~left] == 1))
            gain = parent - (nl * gl + (n - nl) * gr) / n
            if gain > 0 and (best is None or gain > best[0] + 1e-15):
                best = (gain, f, threshold)
    return best


def dense_histogram(X: np.ndarray, rows: np.ndarray, stats: np.ndarray) -> list:
    """Per column of X, an (s + 1, v) array over the column's v distinct
    values in X, ascending: how many of rows hold each value, then the sum
    of each row of stats over them. One plain bincount per column."""
    out = []
    for f in range(X.shape[1]):
        values = np.unique(X[:, f])
        which = np.searchsorted(values, X[rows, f])
        out.append(np.array([np.bincount(which, minlength=len(values))]
                            + [np.bincount(which, stat[rows], len(values)) for stat in stats]))
    return out


def segment_left_sums(bins, rows: list, features, stats: np.ndarray) -> np.ndarray:
    """(s + 1, m) left sums of every candidate split, job by job and column
    by column: a row count, then each row of stats.

    features is a (jobs, k) array of each job's candidate columns, or None
    for every column of bins with more than one value. A column's per-bin
    sums are one np.bincount per statistic over the job's rows in row order;
    a two-valued column's lower bin is the job's total, summed as
    stats[:, rows].sum(axis=1), minus its upper bin. Over the occupied bins
    in order, each statistic's np.cumsum without its last entry are the
    column's candidates.
    """
    width = np.diff(bins.start)
    out = [np.empty((len(stats) + 1, 0))]
    for j, r in enumerate(rows):
        total = np.concatenate(([len(r)], stats[:, r].sum(axis=1)))
        for f in np.flatnonzero(width > 1) if features is None else features[j]:
            which = bins.codes[r, f] - bins.start[f]
            per_bin = np.array([np.bincount(which, minlength=width[f])]
                               + [np.bincount(which, stat[r], width[f]) for stat in stats],
                               dtype=np.float64)
            if width[f] == 2:
                per_bin[:, 0] = total - per_bin[:, 1]
            occupied = per_bin[:, per_bin[0] > 0]
            out.append(np.array([np.cumsum(sums)[:-1] for sums in occupied]))
    return np.concatenate(out, axis=1)


def grow_node_by_node(search, route, make_node, splittable, rows):
    """One tree grown depth-first, one node per search: the reference for
    level-wise growth.

    search(rows) gives a node's best split or None, and route(rows, split)
    its (left rows, right rows, feature, threshold). Returns the nodes in
    pre-order as [left, right, feature, threshold, value, cover] records,
    value 0 at a split.
    """
    nodes = []

    def grow(rows, depth):
        value, cover = make_node(rows)
        node = [-1, -1, -1, 0.0, value, cover]
        nodes.append(node)
        split = search(rows) if splittable(value, rows, depth) else None
        if split is None:
            return
        left, right, feature, threshold = route(rows, split)
        node[2:5] = feature, threshold, 0.0
        node[0] = len(nodes)
        grow(left, depth + 1)
        node[1] = len(nodes)
        grow(right, depth + 1)

    grow(rows, 0)
    return nodes


def brute_force_enn(values: np.ndarray, labels: np.ndarray, k: int, majority_only: bool):
    """O(n^2) Wilson editor over z-scored columns; returns the keep mask.

    Full pairwise distances, per-row stable sort (ties by index), strict
    majority disagreement removes the row.
    """
    space = values.astype(float).copy()
    mean = space.mean(axis=0)
    std = space.std(axis=0)
    std[std == 0] = 1.0
    space = (space - mean) / std
    n = len(labels)
    classes, counts = np.unique(labels, return_counts=True)
    majority = int(classes[np.argmax(counts)])
    if counts.min() == counts.max():
        majority = int(classes[1])
    keep = np.ones(n, dtype=bool)
    for i in range(n):
        if majority_only and labels[i] != majority:
            continue
        deltas = space - space[i]
        dist = np.sqrt((deltas * deltas).sum(axis=1))
        order = [j for j in np.argsort(dist, kind="stable") if j != i]
        neighbors = order[:k]
        disagree = sum(1 for j in neighbors if labels[j] != labels[i])
        if disagree > k - disagree:
            keep[i] = False
    return keep


def brute_force_k_nearest(points: np.ndarray, queries: np.ndarray, k: int, exclude=None):
    """Each query's k nearest points, one query at a time: the plain distance
    formula to every point, a full sort by (distance, row index), the
    excluded row (exclude[i] for query i) dropped, the first k kept.

    Returns (indices, distances), both (queries, k).
    """
    indices = np.empty((len(queries), k), dtype=np.intp)
    distances = np.empty((len(queries), k))
    for i, query in enumerate(queries):
        deltas = points - query
        dist = np.sqrt(np.sum(deltas * deltas, axis=1))
        order = [j for j in np.lexsort((np.arange(len(points)), dist))
                 if exclude is None or j != exclude[i]][:k]
        indices[i] = order
        distances[i] = dist[order]
    return indices, distances


def brute_force_knn_proba(X: np.ndarray, y: np.ndarray, k: int, queries: np.ndarray):
    """Inverse-distance-weighted kNN vote, one query at a time: the k nearest
    training rows by (distance, row index), all of them when k exceeds the
    training set, each vote 1 / max(distance, 1e-12). Returns (queries, 2)
    probabilities of class 0 and class 1."""
    out = np.empty((len(queries), 2))
    for i, query in enumerate(queries):
        deltas = X - query
        dist = np.sqrt(np.sum(deltas * deltas, axis=1))
        order = np.lexsort((np.arange(len(dist)), dist))[:k]
        votes = 1.0 / np.maximum(dist[order], 1e-12)
        out[i, 1] = float(votes[y[order] == 1].sum()) / float(votes.sum())
        out[i, 0] = 1.0 - out[i, 1]
    return out


def subset_expectation(flat, x, subset: frozenset, node: int = 0) -> float:
    """E[f(x_S)] under cover-proportional descent for features outside S."""
    if flat.children_left[node] == -1:
        return float(flat.value[node])
    f = int(flat.feature[node])
    left, right = int(flat.children_left[node]), int(flat.children_right[node])
    if f in subset:
        follow = left if x[f] < flat.threshold[node] else right
        return subset_expectation(flat, x, subset, follow)
    wl, wr = float(flat.cover[left]), float(flat.cover[right])
    return (
        wl * subset_expectation(flat, x, subset, left)
        + wr * subset_expectation(flat, x, subset, right)
    ) / (wl + wr)


def brute_force_shapley(flat, x, n_features: int) -> np.ndarray:
    """Exact Shapley values by enumerating all feature subsets."""
    phi = np.zeros(n_features)
    features = list(range(n_features))
    for j in features:
        rest = [f for f in features if f != j]
        for r in range(len(rest) + 1):
            for subset in itertools.combinations(rest, r):
                s = frozenset(subset)
                weight = (
                    math.factorial(len(s))
                    * math.factorial(n_features - len(s) - 1)
                    / math.factorial(n_features)
                )
                phi[j] += weight * (
                    subset_expectation(flat, x, s | {j}) - subset_expectation(flat, x, s)
                )
    return phi


def pearson_two_pass(x: np.ndarray, y: np.ndarray) -> float:
    """Direct two-pass covariance Pearson correlation."""
    mx, my = x.mean(), y.mean()
    cov = float(np.sum((x - mx) * (y - my)))
    vx = float(np.sum((x - mx) ** 2))
    vy = float(np.sum((y - my) ** 2))
    return cov / math.sqrt(vx * vy)


def plain_metrics(tp: int, fp: int, tn: int, fn: int) -> dict:
    """Formula-by-formula metric recomputation (the spreadsheet oracle)."""
    total = tp + fp + tn + fn
    pd = tp / (tp + fp) if tp + fp else 0.0
    rd = tp / (tp + fn) if tp + fn else 0.0
    pr = tn / (tn + fn) if tn + fn else 0.0
    rr = tn / (tn + fp) if tn + fp else 0.0
    fd = 2 * pd * rd / (pd + rd) if pd + rd else 0.0
    fr = 2 * pr * rr / (pr + rr) if pr + rr else 0.0
    wd, wr = (tp + fn) / total, (tn + fp) / total
    return {
        "weighted_f1": wd * fd + wr * fr,
        "weighted_precision": wd * pd + wr * pr,
        "weighted_recall": wd * rd + wr * rr,
        "accuracy": (tp + tn) / total,
        "death_recall": rd,
        "recovered_recall": rr,
    }


def walk_tree(flat, x):
    """Single-row tree evaluation, node by node over the FlatTree arrays."""
    node = 0
    while flat.children_left[node] != -1:
        if x[flat.feature[node]] < flat.threshold[node]:
            node = flat.children_left[node]
        else:
            node = flat.children_right[node]
    return flat.value[node]


def random_cover_tree(rng, n_features: int, max_depth: int):
    """Random pre-order FlatTree with consistent covers: children split the
    parent's cover.

    Thresholds lie in (0, 1) so rows drawn uniformly exercise both branches;
    features repeat along paths with positive probability.
    """
    from vetpv.trees import FlatTree

    nodes = []  # [left, right, feature, threshold, value, cover]

    def build(depth: int, cover: float):
        node = [-1, -1, -1, 0.0, 0.0, cover]
        nodes.append(node)
        if depth >= max_depth or (depth > 0 and rng.random() < 0.3):
            node[4] = float(rng.normal())
            return
        fraction = float(rng.uniform(0.1, 0.9))
        left_cover = fraction * cover
        node[2] = int(rng.integers(0, n_features))
        node[3] = float(rng.uniform(0.05, 0.95))
        node[0] = len(nodes)
        build(depth + 1, left_cover)
        node[1] = len(nodes)
        build(depth + 1, cover - left_cover)

    build(0, float(rng.uniform(100, 1000)))
    if len(nodes) == 1:  # ensure at least one split
        return random_cover_tree(rng, n_features, max_depth)
    left, right, feature, threshold, value, cover = (np.array(c) for c in zip(*nodes))
    return FlatTree(left, right, feature, threshold, value, cover)


def brute_force_best_gain_split(
    X: np.ndarray,
    g: np.ndarray,
    h: np.ndarray,
    reg_lambda: float = 1.0,
    min_child_weight: float = 0.0,
    rtol: float = 1e-10,
):
    """Exhaustive second-order-gain search over every (feature, threshold).

    The threshold between neighbouring distinct values is their midpoint, or
    the upper value when the midpoint rounds onto the lower one. Returns
    (gain, feature, threshold); gains within rtol of the best are ties,
    resolved by lowest feature then lowest threshold. None if no split with
    both hessian sums >= min_child_weight has a positive gain.
    """
    G, H = g.sum(), h.sum()
    found = []
    for f in range(X.shape[1]):
        values = np.unique(X[:, f])
        for a, b in zip(values[:-1], values[1:]):
            threshold = (a + b) / 2 if (a + b) / 2 > a else b
            left = X[:, f] < threshold
            gl, hl = g[left].sum(), h[left].sum()
            gr, hr = g[~left].sum(), h[~left].sum()
            if hl < min_child_weight or hr < min_child_weight:
                continue
            gain = 0.5 * (
                gl**2 / (hl + reg_lambda) + gr**2 / (hr + reg_lambda) - G**2 / (H + reg_lambda)
            )
            if gain > 0:
                found.append((gain, f, threshold))
    if not found:
        return None
    best = max(gain for gain, _, _ in found)
    return next(c for c in found if c[0] >= best * (1 - rtol))


def gradient_descent_logistic(X, y, loss_grad, step_size=1.0, l2=1e-4, tol=1e-6,
                              max_iter=10_000):
    """Full-batch fixed-step gradient descent on loss_grad's objective over
    train-fitted z-scores (std 0 -> 1), stopping at gradient norm tol or after
    max_iter steps: the reference for the Newton fit of vetpv.baselines.

    Returns (weights, bias, mean, std, final gradient norm).
    """
    y = y.astype(np.float64)
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    std[std == 0] = 1.0
    Xs = (X - mean) / std
    weights = np.zeros(X.shape[1])
    bias = 0.0
    grad_norm = np.inf
    for _ in range(max_iter):
        _, grad_w, grad_b = loss_grad(weights, bias, Xs, y, l2)
        grad_norm = float(np.sqrt(grad_w @ grad_w + grad_b * grad_b))
        if grad_norm <= tol:
            break
        weights -= step_size * grad_w
        bias -= step_size * grad_b
    return weights, bias, mean, std, grad_norm


def unescape_bulk_field(text: str) -> str:
    """Undo the bulk-text escapes one character at a time: \\\\, \\t, \\n and
    \\r map to their characters, any other escaped character to itself, and a
    trailing lone backslash is kept."""
    out = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\\" and i + 1 < len(text):
            nxt = text[i + 1]
            out.append({"\\": "\\", "t": "\t", "n": "\n", "r": "\r"}.get(nxt, nxt))
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def encode_bulk_value(value, kind) -> str:
    """One value as a bulk-text cell of a column of the given kind, escaped
    one character at a time; None is \\N."""
    if value is None:
        return "\\N"
    if kind is str:
        return "".join({"\\": "\\\\", "\t": "\\t", "\n": "\\n", "\r": "\\r"}.get(ch, ch)
                       for ch in value)
    if kind is float:
        return repr(float(value))
    if kind in (int, dt.date):
        return str(value)
    return value.value


def decode_bulk_value(text: str, kind):
    """One bulk-text cell of a column of the given kind, by a type dispatch
    per cell; \\N is an absent value."""
    if text == "\\N":
        return None
    if kind is float:
        return float(unescape_bulk_field(text))
    if kind is int:
        return int(text)
    if kind is dt.date:
        return dt.date.fromisoformat(text)
    if kind is str:
        return unescape_bulk_field(text)
    return kind(text)


# --- the per-row raw tables: one object per table row ---------------------------


@dataclass(frozen=True)
class MainRow:
    key: str
    species: str
    breed: str | None = None
    gender: str | None = None
    age_value: float | None = None
    age_unit: AgeUnit | None = None
    weight_value: float | None = None
    weight_unit: WeightUnit | None = None
    received_date: dt.date | None = None


@dataclass(frozen=True)
class AERow:
    key: str
    term_name: str
    term_code: str | None = None
    veddra_level: VeddraLevel | None = None


@dataclass(frozen=True)
class OutcomeRow:
    key: str
    medical_status: Outcome
    animals_affected: int | None = None


@dataclass(frozen=True)
class DrugRow:
    key: str
    ingredient_name: str
    brand_name: str | None = None
    dosage_form: str | None = None
    route: str | None = None
    atcvet_code: str | None = None


ROW_TYPES = {"main": MainRow, "events": AERow, "outcomes": OutcomeRow, "drugs": DrugRow}


def row_tables(**rows) -> RawTables:
    """The column tables holding the given row lists, by table name; a table
    not named is empty."""
    return RawTables(**{
        name: Table({column: [getattr(r, column) for r in rows.get(name, [])]
                     for column, _ in SCHEMA[name]})
        for name in ROW_TYPES})


def table_rows(tables) -> dict[str, list]:
    """The row list of each column table, by table name."""
    out = {}
    for name, row_type in ROW_TYPES.items():
        columns = getattr(tables, name).columns
        out[name] = [row_type(**dict(zip(columns, values))) for values in zip(*columns.values())]
    return out


def parse_per_row(json_text: str):
    """The rows of one quarter document, report by report, as table name ->
    row list, and (reports, skipped reports, rejected outcome rows, rejected
    field values)."""
    synonyms = load_outcome_synonyms()
    rows = {name: [] for name in ROW_TYPES}
    reports = skipped = bad_outcomes = bad_fields = 0
    seen = set()

    def text(value):
        stripped = None if value is None else str(value).strip()
        return stripped or None

    def member(enum_cls, value):
        found = [m for m in enum_cls if text(value) and m.value.lower() == text(value).lower()]
        return found[0] if found else None

    def obj(value):
        nonlocal bad_fields
        if value and not isinstance(value, dict):
            bad_fields += 1
        return value if isinstance(value, dict) else {}

    def entries(record, name):
        nonlocal bad_fields
        listed = record.get(name) or []
        if not isinstance(listed, list):
            bad_fields += 1
            return []
        bad_fields += sum(not isinstance(entry, dict) for entry in listed)
        return [entry for entry in listed if isinstance(entry, dict)]

    def measurement(entry, enum_cls, what):
        nonlocal bad_fields
        entry = obj(entry)
        raw = entry.get("min")
        if raw is None or raw == "":
            return None, None
        if isinstance(raw, bool):
            bad_fields += 1
            return None, None
        try:
            value = float(raw)
        except (TypeError, ValueError):
            bad_fields += 1
            return None, None
        unit = member(enum_cls, entry.get("unit"))
        if (not math.isfinite(value) or value < 0 or (what == "weight" and value == 0)
                or (text(entry.get("unit")) and not unit)):
            bad_fields += 1
            return None, None
        return value, unit

    for record in json.loads(json_text)["results"]:
        key = text(record.get("unique_aer_id_number")) if isinstance(record, dict) else None
        if key is None or key in seen:
            skipped += 1
            continue
        seen.add(key)
        reports += 1
        animal = obj(record.get("animal"))
        age = measurement(animal.get("age"), AgeUnit, "age")
        weight = measurement(animal.get("weight"), WeightUnit, "weight")
        breed = animal.get("breed")
        breed = breed.get("breed_component") if isinstance(breed, dict) else breed
        digits = (text(record.get("original_receive_date")) or "").replace("-", "")
        received = None
        if len(digits) == 8 and digits.isdigit():
            try:
                received = dt.date(int(digits[:4]), int(digits[4:6]), int(digits[6:]))
            except ValueError:  # a date the calendar does not have
                bad_fields += 1
        rows["main"].append(MainRow(key, text(animal.get("species")) or "", text(breed),
                                    text(animal.get("gender")), *age, *weight, received))
        for reaction in entries(record, "reaction"):
            name = text(reaction.get("veddra_term_name"))
            if name is None:
                bad_fields += 1
                continue
            rows["events"].append(AERow(key, name, text(reaction.get("veddra_term_code")),
                                        member(VeddraLevel, reaction.get("veddra_level"))))
        for outcome in entries(record, "outcome"):
            status = text(outcome.get("medical_status"))
            status = synonyms.get(status.lower()) if status else None
            if status is None:
                bad_outcomes += 1
                continue
            affected = outcome.get("number_of_animals_affected")
            if affected is not None and affected != "":
                try:
                    affected = -1 if isinstance(affected, bool) else int(affected)
                except (TypeError, ValueError, OverflowError):
                    affected = -1
                if affected < 0:
                    bad_fields += 1
                    affected = None
            else:
                affected = None
            rows["outcomes"].append(OutcomeRow(key, status, affected))
        for drug in entries(record, "drug"):
            ingredients = drug.get("active_ingredients")
            ingredients = ingredients if isinstance(ingredients, list) else []
            names = [text(i.get("name")) for i in ingredients if isinstance(i, dict)]
            if not any(names):
                bad_fields += 1
            for name in filter(None, names):
                rows["drugs"].append(DrugRow(key, name, text(drug.get("brand_name")),
                                             text(drug.get("dosage_form")), text(drug.get("route")),
                                             text(drug.get("atc_vet_code"))))
    return rows, (reports, skipped, bad_outcomes, bad_fields)


def bulk_text_per_row(rows, columns) -> str:
    """A table's bulk text written one row, then one value, at a time."""
    return "".join("\t".join(encode_bulk_value(getattr(r, c), kind) for c, kind in columns) + "\n"
                   for r in rows)


def bulk_rows_per_row(text: str, name: str) -> list:
    """The rows of a table's bulk text, read one line, then one cell, at a time."""
    return [ROW_TYPES[name](**{column: decode_bulk_value(cell, kind)
                               for (column, kind), cell in zip(SCHEMA[name], line.split("\t"))})
            for line in text.split("\n") if line]


def csv_per_row(rows, columns) -> str:
    """A table's CSV export written one row at a time: strings as they are,
    None as an empty cell."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow([c for c, _ in columns])
    for r in rows:
        cells = []
        for column, kind in columns:
            value = getattr(r, column)
            if value is None:
                cells.append("")
            else:
                cells.append(value if kind is str else encode_bulk_value(value, kind))
        writer.writerow(cells)
    return buf.getvalue()


# --- the per-report data path: one object per report, one operation per value ---


@dataclass
class MergedReport:
    """One row per report after joining the four tables."""

    key: str
    species: str
    breed: object
    gender: object
    age_value: object
    age_unit: object
    weight_value: object
    weight_unit: object
    outcome: object
    ae_terms: list
    ingredients: list
    atcvet_subgroups: list
    routes: list
    dosage_forms: list
    descriptors: dict  # descriptor field -> float or None
    age_years: object = None
    weight_kg: object = None


def merge_per_report(tables, veddra, descriptors):
    """Join the four tables report by report; (reports, unmapped Counter,
    under-specified codes, invalid codes, missing outcomes). Descriptor
    sums are Python's sum over the ingredients that carry the field."""
    rows = table_rows(tables)
    by_key = {"events": {}, "outcomes": {}, "drugs": {}}
    for table, keyed in by_key.items():
        for row in rows[table]:
            keyed.setdefault(row.key, []).append(row)
    unmapped, under, invalid, missing = Counter(), 0, 0, 0
    merged = []
    for main in rows["main"]:
        ae_terms = []
        for event in by_key["events"].get(main.key, []):
            hlt = map_veddra(event.term_name, event.term_code, event.veddra_level, veddra)
            if hlt.startswith("UNMAPPED:"):
                unmapped[hlt[len("UNMAPPED:"):]] += 1
            ae_terms.append(hlt)
        outcome_rows = by_key["outcomes"].get(main.key, [])
        if not outcome_rows:
            missing += 1
        outcome = outcome_rows[0].medical_status if outcome_rows else Outcome.UNKNOWN
        ingredients, subgroups, routes, forms, found = [], [], [], [], []
        for drug in by_key["drugs"].get(main.key, []):
            ingredients.append(drug.ingredient_name)
            if drug.route:
                routes.append(drug.route)
            if drug.dosage_form:
                forms.append(drug.dosage_form)
            if drug.atcvet_code:
                try:
                    subgroup = map_atcvet(drug.atcvet_code)
                except OntologyError:
                    invalid += 1
                else:
                    under += len(subgroup) < 6
                    subgroups.append(subgroup)
            record = descriptors.get(drug.ingredient_name.strip().lower())
            if record is not None:
                found.append(record)
        sums = {}
        for f in ChemDescriptors.FIELDS:
            present = [getattr(d, f) for d in found if getattr(d, f) is not None]
            sums[f] = sum(present) if present else None
        merged.append(MergedReport(
            key=main.key, species=main.species, breed=main.breed, gender=main.gender,
            age_value=main.age_value, age_unit=main.age_unit, weight_value=main.weight_value,
            weight_unit=main.weight_unit, outcome=outcome, ae_terms=ae_terms,
            ingredients=ingredients, atcvet_subgroups=subgroups, routes=routes,
            dosage_forms=forms, descriptors=sums))
    return merged, unmapped, under, invalid, missing


def merged_csv_per_report(reports, header) -> str:
    """The merged CSV written one value at a time."""
    def num(v):
        return "" if v is None else repr(v)

    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    for r in reports:
        writer.writerow([
            r.key, r.species, r.breed or "", r.gender or "", num(r.age_value),
            r.age_unit.value if r.age_unit else "", num(r.weight_value),
            r.weight_unit.value if r.weight_unit else "", num(r.age_years), num(r.weight_kg),
            r.outcome.value, *("\\".join(getattr(r, name)) for name in
                               ("ae_terms", "ingredients", "atcvet_subgroups", "routes",
                                "dosage_forms")),
            *(num(r.descriptors.get(f)) for f in ChemDescriptors.FIELDS)])
    return buf.getvalue()


def merged_csv_records(text: str) -> list:
    """The per-report records a merged CSV holds, read cell by cell."""
    def number(cell):
        return float(cell) if cell else None

    rows = list(csv.reader(io.StringIO(text)))
    records = []
    for row in rows[1:]:
        cells = dict(zip(rows[0], row))
        records.append(MergedReport(
            key=cells["key"], species=cells["species"], breed=cells["breed"] or None,
            gender=cells["gender"] or None, age_value=number(cells["age_value"]),
            age_unit=AgeUnit(cells["age_unit"]) if cells["age_unit"] else None,
            weight_value=number(cells["weight_value"]),
            weight_unit=WeightUnit(cells["weight_unit"]) if cells["weight_unit"] else None,
            outcome=Outcome(cells["outcome"]),
            **{name: cells[name].split("\\") if cells[name] else [] for name in
               ("ae_terms", "ingredients", "atcvet_subgroups", "routes", "dosage_forms")},
            descriptors={f: number(cells[f]) for f in ChemDescriptors.FIELDS},
            age_years=number(cells["age_years"]), weight_kg=number(cells["weight_kg"])))
    return records


def normalize_per_report(reports):
    """(normalized, rejects): age in years and weight in kg, report by report."""
    out, rejects = [], []
    for r in reports:
        if r.age_value is not None and r.age_value < 0:
            rejects.append((r.key, f"report {r.key}: negative age {r.age_value}"))
            continue
        if r.weight_value is not None and r.weight_value < 0:
            rejects.append((r.key, f"report {r.key}: negative weight {r.weight_value}"))
            continue
        years = kg = None
        if r.age_value is not None:
            unit = r.age_unit.value if r.age_unit else "Year"
            years = {"Day": lambda v: v / 365.25, "Week": lambda v: v * 7 / 365.25,
                     "Month": lambda v: v / 12}.get(unit, lambda v: v)(r.age_value)
        if r.weight_value is not None:
            unit = r.weight_unit.value if r.weight_unit else "Kilogram"
            kg = {"Gram": lambda v: v / 1000,
                  "Pound": lambda v: v * 45359237.0 / 1e8}.get(unit, lambda v: v)(r.weight_value)
        out.append(replace(r, age_years=years, weight_kg=kg))
    return out, rejects


def _mode(values):
    counts = Counter(values)
    return min(counts, key=lambda v: (-counts[v], v))


def impute_per_report(train, rows):
    """Fill rows' missing age, weight, gender, dosage form and route from the
    per-species means and modes of train (global ones for a species train
    lacks); np.mean over values grouped by species in first-appearance order."""
    stats = {}
    for name, pick in (("age_years", lambda r: r.age_years), ("weight_kg", lambda r: r.weight_kg),
                       ("gender", lambda r: r.gender),
                       ("dosage_forms", lambda r: r.dosage_forms[0] if r.dosage_forms else None),
                       ("routes", lambda r: r.routes[0] if r.routes else None)):
        groups = {}
        for r in train:
            if pick(r) is not None:
                groups.setdefault(r.species, []).append(pick(r))
        pooled = [v for vs in groups.values() for v in vs]
        reduce = (lambda vs: float(np.mean(vs))) if name in ("age_years", "weight_kg") else _mode
        stats[name] = ({s: reduce(vs) for s, vs in groups.items()}, reduce(pooled))
    out = []
    for r in rows:
        def fill(name):
            by_species, fallback = stats[name]
            return by_species.get(r.species, fallback)
        out.append(replace(
            r,
            age_years=fill("age_years") if r.age_years is None else r.age_years,
            weight_kg=fill("weight_kg") if r.weight_kg is None else r.weight_kg,
            gender=fill("gender") if r.gender is None else r.gender,
            dosage_forms=r.dosage_forms or [fill("dosage_forms")],
            routes=r.routes or [fill("routes")]))
    return out


def filter_per_report(reports):
    """(kept, counts) with the euthanized and lack-of-efficacy rules and the
    sequela relabel, report by report."""
    counts = {"euthanized": 0, "lack_of_efficacy": 0, "relabeled_sequela": 0}
    kept = []
    for r in reports:
        if r.outcome is Outcome.EUTHANIZED:
            counts["euthanized"] += 1
        elif any(t.strip().lower() == "lack of efficacy" for t in r.ae_terms):
            counts["lack_of_efficacy"] += 1
        else:
            if r.outcome is Outcome.RECOVERED_WITH_SEQUELA:
                counts["relabeled_sequela"] += 1
                r = replace(r, outcome=Outcome.RECOVERED)
            kept.append(r)
    return kept, counts


def encode_per_report(fit_on, rows, top_k, numeric, categorical, multi_hot):
    """(category maps, vocabularies, values) fitted on fit_on and filled
    one value at a time for rows."""
    def value(r, name):
        return r.descriptors.get(name) if name in ChemDescriptors.FIELDS else getattr(r, name)

    maps, vocabularies = {}, {}
    for name in categorical:
        maps[name] = {}
        for r in fit_on:
            v = value(r, name)
            if v is not None and v not in maps[name]:
                maps[name][v] = len(maps[name]) + 1
    for name in multi_hot:
        counts = Counter()
        for r in fit_on:
            counts.update(value(r, name))
        vocabularies[name] = tuple(sorted(counts, key=lambda t: (-counts[t], t))[:top_k])
    width = len(numeric) + len(categorical) + sum(len(v) + 1 for v in vocabularies.values())
    values = np.zeros((len(rows), width))
    for i, r in enumerate(rows):
        col = 0
        for name in numeric:
            v = value(r, name)
            values[i, col] = 0.0 if v is None else float(v)
            col += 1
        for name in categorical:
            v = value(r, name)
            values[i, col] = maps[name].get(v, 0) if v is not None else 0
            col += 1
        for name in multi_hot:
            vocab = vocabularies[name]
            for token in value(r, name):
                j = vocab.index(token) if token in vocab else len(vocab)
                values[i, col + j] = 1.0
            col += len(vocab) + 1
    return maps, vocabularies, values


def matrix_csv_per_row(matrix) -> str:
    """The matrix CSV formatted one value at a time."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["key", "label"] + matrix.column_names())
    labels = [""] * matrix.n_rows if matrix.labels is None else map(str, matrix.labels.tolist())
    writer.writerows([key, label, *map(repr, row.tolist())]
                     for key, label, row in zip(matrix.keys, labels, matrix.values))
    return buf.getvalue()


def as_columns(records):
    """The columnar reports holding the given per-report records."""
    def codes(name, members):
        return np.array([-1 if getattr(r, name) is None else members.index(getattr(r, name))
                         for r in records], np.int8)

    numbers, present = {}, {}
    for name in NUMBER_FIELDS:
        values = [r.descriptors.get(name) if name in ChemDescriptors.FIELDS else getattr(r, name)
                  for r in records]
        present[name] = np.array([v is not None for v in values], bool)
        numbers[name] = np.array([0.0 if v is None else float(v) for v in values])
    return Reports(
        key=[r.key for r in records], species=[r.species for r in records],
        breed=[r.breed for r in records], gender=[r.gender for r in records],
        outcome=codes("outcome", OUTCOMES), age_unit=codes("age_unit", AGE_UNITS),
        weight_unit=codes("weight_unit", WEIGHT_UNITS), numbers=numbers, present=present,
        lists={name: terms([getattr(r, name) for r in records]) for name in LIST_FIELDS})


def terms(lists) -> Terms:
    """The Terms of the token lists, codes numbered by first appearance."""
    index = {}
    codes = [index.setdefault(t, len(index)) for tokens in lists for t in tokens]
    offsets = np.cumsum([0] + [len(tokens) for tokens in lists])
    return Terms(offsets, np.array(codes, np.intp), tuple(index))


def as_records(reports):
    """The per-report records of columnar reports."""
    lists = {name: terms.lists() for name, terms in reports.lists.items()}

    def number(name, i):
        return float(reports.numbers[name][i]) if reports.present[name][i] else None

    def member(members, code):
        return None if code < 0 else members[code]

    return [
        MergedReport(
            key=reports.key[i], species=reports.species[i], breed=reports.breed[i],
            gender=reports.gender[i], age_value=number("age_value", i),
            age_unit=member(AGE_UNITS, reports.age_unit[i]),
            weight_value=number("weight_value", i),
            weight_unit=member(WEIGHT_UNITS, reports.weight_unit[i]),
            outcome=member(OUTCOMES, reports.outcome[i]),
            **{name: tokens[i] for name, tokens in lists.items()},
            descriptors={f: number(f, i) for f in ChemDescriptors.FIELDS},
            age_years=number("age_years", i), weight_kg=number("weight_kg", i))
        for i in range(len(reports))
    ]


# --- the per-row explain path: one species lookup and one CSV row at a time ---


def species_groups_per_row(matrix, path) -> dict:
    """Row indices per species group, each row's species name recovered from
    its code through a reverse map and looked up on its own. Rows of UNKNOWN
    species (code 0, or a code outside the category map) are left out."""
    groups = {}
    with open(path, encoding="utf-8") as fh:
        fh.readline()
        for line in fh:
            if line.rstrip("\n"):
                species, group = line.rstrip("\n").split("\t")[:2]
                groups[species.strip().lower()] = group
    meta = next(c for c in matrix.columns if c.name == "species")
    reverse = {code: name for name, code in meta.category_map.items()}
    column = [c.name for c in matrix.columns].index("species")
    species = [reverse.get(int(code), "UNKNOWN") for code in matrix.values[:, column]]
    missing = sorted({s for s in species if s.strip().lower() not in groups and s != "UNKNOWN"})
    if missing:
        raise ValueError(f"species missing from the group map: {missing}")
    rows = {g: [] for g in ("Companion", "Livestock", "Poultry")}
    for i, name in enumerate(species):
        if name != "UNKNOWN":
            rows[groups[name.strip().lower()]].append(i)
    return {g: np.asarray(r, dtype=np.intp) for g, r in rows.items()}


def shap_values_csv_per_row(phi, base, matrix) -> str:
    """The shap_values CSV written one (row, feature) line at a time."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["key", "feature", "phi", "base_value"])
    names = [c.name for c in matrix.columns]
    for key, row in zip(matrix.keys, phi):
        writer.writerows([key, name, repr(value), repr(float(base))]
                         for name, value in zip(names, row.tolist()))
    return buf.getvalue()


def rankings_csv_per_row(scopes, top_n: int) -> str:
    """The rankings CSV written one entry at a time."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(
        ["scope", "group", "end", "rank", "name", "mean_signed_shap", "mean_abs_shap", "support"])
    for rankings in scopes.values():
        for group in sorted(rankings):
            ranking = rankings[group]
            top, bottom = ranking.entries[:top_n], ranking.entries[-top_n:][::-1]
            for end, entries in (("top", top), ("bottom", bottom)):
                for rank, e in enumerate(entries, start=1):
                    writer.writerow([ranking.scope, group, end, rank, e.name,
                                     repr(e.mean_signed_shap), repr(e.mean_abs_shap), e.support])
    return buf.getvalue()


def summary_points_csv_per_row(phi, matrix, by_group, top_k: int) -> str:
    """The summary_points CSV of the non-empty groups, one point at a time:
    per group the top_k features by mean |phi|, and per feature each row's
    key, phi and value min-max normalized within the group (0.5 for a
    constant feature)."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["group", "feature", "key", "phi", "normalized_value"])
    for group in sorted(by_group):
        rows = by_group[group]
        if not len(rows):
            continue
        group_phi = phi[rows]
        order = np.argsort(-np.abs(group_phi).mean(axis=0), kind="stable")
        for j in order[:top_k]:
            column = matrix.values[rows, j]
            low, high = column.min(), column.max()
            span = high - low
            for pos, i in enumerate(rows):
                norm = 0.5 if span == 0 else (column[pos] - low) / span
                writer.writerow([group, matrix.columns[j].name, matrix.keys[i],
                                 repr(float(group_phi[pos, j])), repr(float(norm))])
    return buf.getvalue()
