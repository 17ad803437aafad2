"""Exact Shapley attributions for tree ensembles, with the aggregation views
used for reporting: per-species-group summaries and top/bottom rankings of
adverse-event terms and active ingredients.

The attribution is path-dependent TreeSHAP (Lundberg et al., arXiv:1905.04610):
conditional expectations are defined by per-node cover proportions, so no
background dataset is needed and the result matches exhaustive subset
enumeration. It is computed in the path formulation of GPUTreeShap (Mitchell
et al., arXiv:2010.13972). Every root-to-leaf path of every tree is enumerated
once; a feature split on more than once along a path becomes one element with
an interval [lo, hi) and one product of cover fractions, and a row follows
the element when lo <= x < hi. The subset weights of a path (EXTEND) and their
unwound sums then run as numpy operations over (rows x paths x elements)
arrays, one group of equal-length paths and one bounded block of rows at a
time, and tree_shap_batch returns one (n, d) array. Explaining every row
(`[explain] max_rows = 0`) therefore costs a handful of array operations per
path length, not a Python recursion per row and tree.

Sign convention: the margin (and therefore every phi) is oriented toward
Recovered; negative attributions push a prediction toward Death. Boosted
ensembles are explained on the raw log-odds margin, forests on the
cover-weighted mean of per-tree Recovered probabilities; base_value(model)
plus a row's phi sum is its margin.
"""

from __future__ import annotations

import csv
import io
import logging
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .boosting import GradientBoostedModel
from .forest import RandomForestModel
from .matrix import FeatureMatrix
from .trees import DecisionTreeModel, FlatTree

log = logging.getLogger(__name__)

_DATA_DIR = Path(__file__).parent / "data"

SPECIES_GROUPS = ("Companion", "Livestock", "Poultry")

UNKNOWN_SPECIES = "UNKNOWN"


LOCAL_ACCURACY_TOL = 1e-9  # |base + sum(phi) - margin| allowed per row


class ExplainError(ValueError):
    pass


# (rows x paths x elements) cells per working array: a block of rows keeps
# the kernel's scratch under a MB however many rows are explained
_BLOCK_CELLS = 1 << 13


def _root_expectation(flat: FlatTree) -> float:
    """Cover-weighted mean of the tree's leaf values: one sweep from the last
    node back, since a pre-order child comes after its parent."""
    left, right = flat.children_left.tolist(), flat.children_right.tolist()
    cover, expect = flat.cover.tolist(), flat.value.tolist()
    for i in range(len(expect) - 1, -1, -1):
        a, b = left[i], right[i]
        if a != -1:
            expect[i] = (cover[a] * expect[a] + cover[b] * expect[b]) / (cover[a] + cover[b])
    return expect[0]


def _model_parts(model) -> tuple[list[FlatTree], np.ndarray, float]:
    """(trees, per-tree weights, additive offset) for the margin output."""
    if isinstance(model, GradientBoostedModel):
        return model.trees, np.full(len(model.trees), model.learning_rate), model.base_score
    if isinstance(model, RandomForestModel):
        covers = np.array([tree.cover[0] for tree in model.trees])
        return model.trees, covers / covers.sum(), 0.0
    if isinstance(model, DecisionTreeModel):
        return [model.tree], np.ones(1), 0.0
    raise ExplainError(f"cannot explain model type {type(model).__name__}")


def model_margin(model, X: np.ndarray) -> np.ndarray:
    """The quantity attributions sum to: log-odds margin for boosted models,
    Recovered probability for forests and single trees."""
    if isinstance(model, GradientBoostedModel):
        return model.raw_margin(X)
    return model.predict_proba(X)[:, 1]


def base_value(model) -> float:
    """The margin's expectation under cover weights; every row's
    base_value + phi.sum() is its margin."""
    flats, weights, base = _model_parts(model)
    for flat, weight in zip(flats, weights):
        base += weight * _root_expectation(flat)
    return float(base)


def _tree_paths(flat: FlatTree, weight: float, paths: dict) -> None:
    """Appends every root-to-leaf path of flat to the group paths[m], m its
    number of distinct features: m features, m (lo, hi, zero) elements and
    the leaf value times the tree weight.

    A row follows the path iff lo <= x[feature] < hi for every element
    (left means x < threshold); zero is the product of the cover fractions
    of the path's splits on that feature.
    """
    split = np.flatnonzero(flat.children_left != -1)
    fraction = np.ones(len(flat.cover))
    for child in (flat.children_left[split], flat.children_right[split]):
        fraction[child] = flat.cover[child] / flat.cover[split]
    left, right = flat.children_left.tolist(), flat.children_right.tolist()
    feature, threshold = flat.feature.tolist(), flat.threshold.tolist()
    fraction, value = fraction.tolist(), (weight * flat.value).tolist()
    stack = [(0, {})]
    while stack:
        node, elements = stack.pop()
        if left[node] == -1:
            if elements:
                features, bounds, values = paths.setdefault(len(elements), ([], [], []))
                features.extend(elements)
                bounds.extend(elements.values())
                values.append(value[node])
            continue
        f, t = feature[node], threshold[node]
        lo, hi, zero = elements.get(f, (-np.inf, np.inf, 1.0))
        for child, interval in ((right[node], (max(lo, t), hi)), (left[node], (lo, min(hi, t)))):
            stack.append((child, {**elements, f: (*interval, zero * fraction[child])}))


def _group_phi(X: np.ndarray, group: tuple, phi: np.ndarray) -> None:
    """Adds the attributions of one group of equal-length paths to phi.

    For each (row, path) the weights of the path's subsets are EXTENDed one
    element at a time and then unwound for every element at once
    (Lundberg et al., Algorithm 2), as array operations over
    (rows x paths x elements).
    """
    value = np.array(group[2])
    n_paths = len(value)
    feature = np.array(group[0], dtype=np.intp).reshape(n_paths, -1)
    lo, hi, zero = np.array(group[1]).reshape(n_paths, -1, 3).transpose(2, 0, 1)
    m = feature.shape[1]
    # 1/zero is read only where a row misses the element. A missed element
    # whose zero fraction is 0 (an empty child) makes every subset weight of
    # the path 0, so its 1/zero is taken as 0 and the path adds exactly 0.
    inv_zero = np.divide(1.0, zero, out=np.zeros_like(zero), where=zero > 0)
    step = max(1, _BLOCK_CELLS // (n_paths * (m + 1)))
    d = phi.shape[1]
    for start in range(0, len(X), step):
        xs = X[start:start + step][:, feature]
        b = len(xs)
        one = (lo <= xs) & (xs < hi)
        pw = np.zeros((b, n_paths, m + 1))
        pw[..., 0] = 1.0
        for k in range(1, m + 1):
            j = np.arange(k)
            head = pw[..., :k]
            up = head * one[..., k - 1, None] * ((j + 1) / (k + 1))
            head *= zero[:, k - 1, None] * ((k - j) / (k + 1))
            pw[..., 1:k + 1] += up
        total_one = np.zeros((b, n_paths, m))
        total_zero = np.zeros((b, n_paths))
        next_one = pw[..., m, None]
        for j in range(m - 1, -1, -1):
            tmp = next_one * ((m + 1) / (j + 1))
            total_one += tmp
            next_one = pw[..., j, None] - tmp * (zero * ((m - j) / (m + 1)))
            total_zero += pw[..., j] * ((m + 1) / (m - j))
        weights = np.where(one, total_one, total_zero[..., None] * inv_zero)
        contrib = weights * (one - zero) * value[:, None]
        index = np.arange(b)[:, None, None] * d + feature
        phi[start:start + b] += np.bincount(
            index.ravel(), weights=contrib.ravel(), minlength=b * d
        ).reshape(b, d)


def tree_shap_batch(model, X: np.ndarray) -> np.ndarray:
    """Exact Shapley attributions of every row of X under cover-weighted
    expectations, as an (n, d) array.

    base_value(model) + phi.sum(axis=1) equals model_margin(model, X) up to
    accumulated float rounding (< 1e-9 at practical tree counts). Each row's
    phi is the same whatever other rows X holds.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != len(model.feature_names):
        raise ExplainError(
            f"expected rows of {len(model.feature_names)} features, got shape {X.shape}"
        )
    flats, weights, _ = _model_parts(model)
    paths: dict[int, tuple] = {}
    for flat, weight in zip(flats, weights):
        _tree_paths(flat, weight, paths)
    phi = np.zeros(X.shape)
    for m in sorted(paths):
        _group_phi(X, paths[m], phi)
    return phi


def local_accuracy_error(phi: np.ndarray, base: float, margins: np.ndarray) -> float:
    """Largest |base + sum(phi) - margin| over the rows; nan if any phi or
    the base value is not finite, whatever the order of the rows."""
    if not (np.isfinite(phi).all() and np.isfinite(base)):
        return float("nan")
    return float(np.max(np.abs(base + phi.sum(axis=1) - margins), initial=0.0))


# --- species groups ------------------------------------------------------------


@dataclass
class SpeciesGroupMap:
    groups: dict[str, str]  # lower-cased species -> group

    @classmethod
    def load(cls, path: Path | None = None) -> "SpeciesGroupMap":
        path = path or _DATA_DIR / "species_groups.tsv"
        groups: dict[str, str] = {}
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().rstrip("\n").split("\t")
            if header[:2] != ["species", "group"]:
                raise ExplainError(f"{path}: expected header 'species<TAB>group'")
            for lineno, line in enumerate(fh, start=2):
                line = line.rstrip("\n")
                if not line:
                    continue
                species, group = line.split("\t")[:2]
                if group not in SPECIES_GROUPS:
                    raise ExplainError(
                        f"{path}:{lineno}: unknown group {group!r} (expected one of {SPECIES_GROUPS})"
                    )
                groups[species.strip().lower()] = group
        return cls(groups=groups)

    def group_of(self, species: str) -> str:
        found = self.groups.get(species.strip().lower())
        if found is None:
            raise ExplainError(f"species {species!r} is not listed in the group map")
        return found

    def validate_covers(self, species_names) -> None:
        missing = sorted(
            {s for s in species_names if s.strip().lower() not in self.groups and s != UNKNOWN_SPECIES}
        )
        if missing:
            raise ExplainError(f"species missing from the group map: {missing}")


def species_of_rows(matrix: FeatureMatrix) -> list[str]:
    """Recover species names from the encoded species column."""
    idx = matrix.column_index("species")
    meta = matrix.columns[idx]
    if meta.category_map is None:
        raise ExplainError("species column carries no category map")
    reverse = {code: name for name, code in meta.category_map.items()}
    return [reverse.get(int(code), UNKNOWN_SPECIES) for code in matrix.values[:, idx]]


def group_rows(matrix: FeatureMatrix, groups: SpeciesGroupMap) -> dict[str, np.ndarray]:
    """Row indices per species group; UNKNOWN species are skipped with a warning."""
    species = species_of_rows(matrix)
    groups.validate_covers(set(species))
    assignment: dict[str, list[int]] = {g: [] for g in SPECIES_GROUPS}
    unknown = 0
    for i, name in enumerate(species):
        if name == UNKNOWN_SPECIES:
            unknown += 1
            continue
        assignment[groups.group_of(name)].append(i)
    if unknown:
        log.warning("%d rows with unknown species codes were left out of all groups", unknown)
    return {g: np.asarray(rows, dtype=np.intp) for g, rows in assignment.items()}


# --- aggregation views -----------------------------------------------------------

SCOPES = ("ae_term", "ingredient", "all")

_SCOPE_FIELDS = {"ae_term": "ae_terms", "ingredient": "ingredients"}


@dataclass(frozen=True)
class RankingEntry:
    name: str
    mean_signed_shap: float
    mean_abs_shap: float
    support: int


@dataclass
class ShapRanking:
    scope: str
    group: str
    entries: list[RankingEntry]  # sorted descending by mean_signed_shap

    def top_bottom(self, n: int = 10) -> tuple[list[RankingEntry], list[RankingEntry]]:
        return self.entries[:n], self.entries[-n:][::-1]


def _scope_columns(matrix: FeatureMatrix, scope: str) -> list[int]:
    if scope == "all":
        return list(range(matrix.n_cols))
    field = _SCOPE_FIELDS.get(scope)
    if field is None:
        raise ExplainError(f"unknown scope {scope!r} (expected one of {SCOPES})")
    from .prepare import OTHER_TOKEN

    cols = [
        j
        for j, meta in enumerate(matrix.columns)
        if meta.kind == "multi_hot"
        and meta.source_field == field
        and meta.name != f"{field}={OTHER_TOKEN}"
    ]
    if not cols:
        raise ExplainError(f"matrix has no multi-hot columns for scope {scope!r}")
    return cols


def _display_name(meta) -> str:
    if meta.kind == "multi_hot" and meta.source_field:
        return meta.name[len(meta.source_field) + 1:]
    return meta.name


def aggregate_shap(
    phi: np.ndarray,
    matrix: FeatureMatrix,
    groups: SpeciesGroupMap,
    scope: str,
) -> dict[str, ShapRanking]:
    """Support-conditioned mean attributions per species group.

    For indicator columns the signed mean runs over rows where the indicator
    is active and such columns need support >= 1 to appear; other columns use
    every group row. The absolute mean always runs over all group rows.
    """
    if phi.shape != (matrix.n_rows, matrix.n_cols):
        raise ExplainError(
            f"attributions of shape {phi.shape} for a {matrix.n_rows} x {matrix.n_cols} matrix"
        )
    columns = _scope_columns(matrix, scope)
    by_group = group_rows(matrix, groups)
    rankings: dict[str, ShapRanking] = {}
    for group, rows in by_group.items():
        if len(rows) == 0:
            log.warning("species group %s has no rows; ranking omitted", group)
            continue
        entries = []
        group_phi = phi[rows]
        group_values = matrix.values[rows]
        for j in columns:
            meta = matrix.columns[j]
            if meta.kind == "multi_hot":
                active = group_values[:, j] == 1.0
                support = int(active.sum())
                if support == 0:
                    continue
                mean_signed = float(group_phi[active, j].mean())
            else:
                support = len(rows)
                mean_signed = float(group_phi[:, j].mean())
            entries.append(
                RankingEntry(
                    name=_display_name(meta),
                    mean_signed_shap=mean_signed,
                    mean_abs_shap=float(np.abs(group_phi[:, j]).mean()),
                    support=support,
                )
            )
        entries.sort(key=lambda e: (-e.mean_signed_shap, e.name))
        rankings[group] = ShapRanking(scope=scope, group=group, entries=entries)
    return rankings


def shap_summary(
    phi: np.ndarray,
    matrix: FeatureMatrix,
    rows: np.ndarray,
    top_k: int = 15,
) -> list[tuple[str, list[tuple[str, float, float]]]]:
    """Beeswarm-style points for the top_k features by mean |phi| in a group.

    Emits, per feature, (row key, phi, feature value min-max normalized within
    the group; constant features sit at 0.5).
    """
    rows = np.asarray(rows, dtype=np.intp)
    if len(rows) < 2:
        log.warning("summary group has fewer than 2 rows; emitting anyway")
    phi = phi[rows]
    order = np.argsort(-np.abs(phi).mean(axis=0), kind="stable") if len(rows) else []
    selected = list(order[: min(top_k, matrix.n_cols)])
    out = []
    for j in selected:
        column = matrix.values[rows, j]
        low, high = (column.min(), column.max()) if len(rows) else (0.0, 0.0)
        span = high - low
        points = []
        for pos, i in enumerate(rows):
            norm = 0.5 if span == 0 else (column[pos] - low) / span
            points.append((matrix.keys[i], float(phi[pos, j]), float(norm)))
        out.append((matrix.columns[j].name, points))
    return out


# --- CSV emitters ---------------------------------------------------------------


def shap_values_csv(phi: np.ndarray, base: float, matrix: FeatureMatrix) -> Iterator[str]:
    """The shap_values CSV as text chunks, the header and then one chunk per
    row, so that the whole text need not be held at once."""

    def text(records) -> str:
        buf = io.StringIO()
        csv.writer(buf).writerows(records)
        return buf.getvalue()

    yield text([["key", "feature", "phi", "base_value"]])
    names = matrix.column_names()
    base_text = repr(float(base))
    for key, row in zip(matrix.keys, phi):
        yield text([key, name, repr(value), base_text] for name, value in zip(names, row.tolist()))


def rankings_csv(rankings: dict[str, ShapRanking], top_n: int = 10) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(
        ["scope", "group", "end", "rank", "name", "mean_signed_shap", "mean_abs_shap", "support"]
    )
    for group in sorted(rankings):
        ranking = rankings[group]
        top, bottom = ranking.top_bottom(top_n)
        for end, entries in (("top", top), ("bottom", bottom)):
            for rank, e in enumerate(entries, start=1):
                writer.writerow(
                    [
                        ranking.scope,
                        group,
                        end,
                        rank,
                        e.name,
                        repr(e.mean_signed_shap),
                        repr(e.mean_abs_shap),
                        e.support,
                    ]
                )
    return buf.getvalue()


def summary_points_csv(summaries: dict[str, list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["group", "feature", "key", "phi", "normalized_value"])
    for group in sorted(summaries):
        for feature, points in summaries[group]:
            for key, phi, norm in points:
                writer.writerow([group, feature, key, repr(phi), repr(norm)])
    return buf.getvalue()
