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
Recovered; negative attributions push a prediction toward Death. Every model
is explained on its margin (`TreeEnsemble.margin`): the raw log-odds for
boosted ensembles, the plain mean of per-tree Recovered probabilities for
forests; base_value(model) plus a row's phi sum is its margin.

The species-group table is read by ingest.read_table. Species groups are
taken by code, each species of the category map looked up once. The three
CSVs are written by column through matrix's codec (FloatText, csv_cells,
csv_lines), so matrix.py holds the one quoting rule.
"""

from __future__ import annotations

import logging
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .ingest import read_table
from .matrix import CSV_BLOCK_ROWS, FeatureMatrix, FloatText, csv_cells, csv_lines
from .trees import FlatTree, TreeEnsemble

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


def _tree_weight(model) -> float:
    """Every tree's weight in the margin: the learning rate, over the tree
    count for a forest."""
    if not isinstance(model, TreeEnsemble):
        raise ExplainError(f"cannot explain model type {type(model).__name__}")
    return model.learning_rate / (len(model.trees) if model.kind == "forest" else 1)


def model_margin(model, X: np.ndarray) -> np.ndarray:
    """The quantity attributions sum to: log-odds margin for boosted models,
    Recovered probability for forests and single trees."""
    return model.margin(X)


def base_value(model) -> float:
    """The margin's expectation under cover weights; every row's
    base_value + phi.sum() is its margin."""
    weight = _tree_weight(model)
    base = model.base_score
    for flat in model.trees:
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
    paths: dict[int, tuple] = {}
    weight = _tree_weight(model)
    for flat in model.trees:
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


def load_species_groups(path: Path | None = None) -> dict[str, str]:
    """Lower-cased species -> group, from the species<TAB>group reference
    table at path (the bundled one by default); a group outside
    SPECIES_GROUPS is an error naming file:line."""
    path = path or _DATA_DIR / "species_groups.tsv"
    groups: dict[str, str] = {}
    for lineno, species, (group,) in read_table(path, ("species", "group"), ExplainError):
        if group not in SPECIES_GROUPS:
            raise ExplainError(
                f"{path}:{lineno}: unknown group {group!r} (expected one of {SPECIES_GROUPS})"
            )
        groups[species] = group
    return groups


def group_rows(matrix: FeatureMatrix, groups: dict[str, str]) -> dict[str, np.ndarray]:
    """Row indices per species group, groups as load_species_groups returns
    them. Each species code of the category map is looked up once; rows of
    UNKNOWN species (code 0, or a code outside the map) are skipped with a
    warning."""
    idx = matrix.column_index("species")
    category_map = matrix.columns[idx].category_map
    if category_map is None:
        raise ExplainError("species column carries no category map")
    codes = matrix.values[:, idx]
    present = set(np.unique(codes).tolist())
    group_of = {name: groups.get(name.strip().lower()) for name, code in category_map.items()
                if code in present and name != UNKNOWN_SPECIES}
    missing = sorted(name for name, group in group_of.items() if group is None)
    if missing:
        raise ExplainError(f"species missing from the group map: {missing}")
    by_group = {
        g: np.flatnonzero(np.isin(codes, [category_map[name] for name, group in group_of.items()
                                          if group == g]))
        for g in SPECIES_GROUPS
    }
    unknown = len(codes) - sum(map(len, by_group.values()))
    if unknown:
        log.warning("%d rows with unknown species codes were left out of all groups", unknown)
    return by_group


# --- aggregation views -----------------------------------------------------------

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


def _scope_columns(matrix: FeatureMatrix, scope: str) -> list[int]:
    field = _SCOPE_FIELDS.get(scope)
    if field is None:
        raise ExplainError(f"unknown scope {scope!r} (expected one of {tuple(_SCOPE_FIELDS)})")
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


def aggregate_shap(
    phi: np.ndarray,
    matrix: FeatureMatrix,
    by_group: dict[str, np.ndarray],
    scope: str,
) -> dict[str, ShapRanking]:
    """Support-conditioned mean attributions per species group, over the row
    indices per group that group_rows returns.

    The scope's columns are indicators: the signed mean runs over rows where
    the indicator is active, and a column needs support >= 1 to appear. The
    absolute mean runs over all group rows.
    """
    if phi.shape != (matrix.n_rows, matrix.n_cols):
        raise ExplainError(
            f"attributions of shape {phi.shape} for a {matrix.n_rows} x {matrix.n_cols} matrix"
        )
    columns = _scope_columns(matrix, scope)
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
            active = group_values[:, j] == 1.0
            support = int(active.sum())
            if support == 0:
                continue
            entries.append(
                RankingEntry(
                    name=meta.name[len(meta.source_field) + 1:],
                    mean_signed_shap=float(group_phi[active, j].mean()),
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
    top_k: int,
) -> tuple[list[str], list[tuple[str, np.ndarray, np.ndarray]]]:
    """Beeswarm-style points for the top_k features by mean |phi| in a
    non-empty group of rows: the rows' keys, and per feature its name, the
    rows' phi and its values min-max normalized within the group (a constant
    feature sits at 0.5)."""
    rows = np.asarray(rows, dtype=np.intp)
    if len(rows) < 2:
        log.warning("summary group has fewer than 2 rows; emitting anyway")
    phi = phi[rows]
    order = np.argsort(-np.abs(phi).mean(axis=0), kind="stable")
    features = []
    for j in order[:top_k]:
        column = matrix.values[rows, j]
        low, span = column.min(), column.max() - column.min()
        norm = np.full(len(rows), 0.5) if span == 0 else (column - low) / span
        features.append((matrix.columns[j].name, phi[:, j], norm))
    return [matrix.keys[i] for i in rows], features


# --- CSV emitters ---------------------------------------------------------------


def shap_values_csv(phi: np.ndarray, base: float, matrix: FeatureMatrix) -> Iterator[str]:
    """The shap_values CSV as text chunks: the header, then one line per
    (row, feature) for a block of rows at a time, so that the whole text
    need not be held at once."""
    yield "key,feature,phi,base_value\r\n"
    d = matrix.n_cols
    keys, names = csv_cells(matrix.keys), csv_cells(matrix.column_names())
    base_text = repr(float(base))
    texts = FloatText(phi.ravel())
    step = CSV_BLOCK_ROWS // 4  # rows of 4d cells: as many cells as a matrix block
    for start in range(0, len(keys), step):
        block = phi[start:start + step]
        yield "".join(csv_lines([
            [key for key in keys[start:start + step] for _ in range(d)],
            names * len(block),
            texts.cells(block.ravel()),
            [base_text] * block.size,
        ]))


def rankings_csv(scopes: dict[str, dict[str, ShapRanking]], top_n: int) -> str:
    """One CSV of every scope's rankings (aggregate_shap results by scope), in
    scope order and then by group."""
    text = ["scope,group,end,rank,name,mean_signed_shap,mean_abs_shap,support\r\n"]
    for rankings in scopes.values():
        for group in sorted(rankings):
            ranking = rankings[group]
            top, bottom = ranking.entries[:top_n], ranking.entries[-top_n:][::-1]
            for end, entries in (("top", top), ("bottom", bottom)):
                k = len(entries)
                text += csv_lines([
                    [ranking.scope] * k, [group] * k, [end] * k, list(map(str, range(1, k + 1))),
                    csv_cells([e.name for e in entries]),
                    [repr(e.mean_signed_shap) for e in entries],
                    [repr(e.mean_abs_shap) for e in entries],
                    [str(e.support) for e in entries],
                ])
    return "".join(text)


def summary_points_csv(summaries: dict[str, tuple]) -> str:
    """One CSV of the shap_summary points of every group, by group."""
    text = ["group,feature,key,phi,normalized_value\r\n"]
    for group in sorted(summaries):
        keys, features = summaries[group]
        keys = csv_cells(keys)
        for name, phi, norm in features:
            text += csv_lines([[group] * len(keys), csv_cells([name]) * len(keys), keys,
                               FloatText(phi).cells(phi), FloatText(norm).cells(norm)])
    return "".join(text)
