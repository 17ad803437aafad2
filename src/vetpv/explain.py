"""Exact Shapley attributions for tree ensembles, with the aggregation views
used for reporting: per-species-group summaries and top/bottom rankings of
adverse-event terms and active ingredients.

The attribution is the classic path-dependent algorithm: conditional
expectations are defined by per-node cover proportions, so no background
dataset is needed and the result matches exhaustive subset enumeration
exactly. Sign convention: the margin (and therefore every phi) is oriented
toward Recovered; negative attributions push a prediction toward Death.
Boosted ensembles are explained on the raw log-odds margin, forests on the
cover-weighted mean of per-tree Recovered probabilities.
"""

from __future__ import annotations

import csv
import io
import logging
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


@dataclass(frozen=True)
class ShapVector:
    key: str
    phi: np.ndarray
    base_value: float


def _node_expectations(flat: FlatTree) -> np.ndarray:
    """Cover-weighted expectation of the tree output at every node."""
    expect = flat.value.astype(np.float64).copy()

    def fill(i: int) -> float:
        left = flat.children_left[i]
        if left == -1:
            return expect[i]
        right = flat.children_right[i]
        vl = fill(left)
        vr = fill(right)
        wl = flat.cover[left]
        wr = flat.cover[right]
        expect[i] = (wl * vl + wr * vr) / (wl + wr)
        return expect[i]

    fill(0)
    return expect


def _tree_depth(flat: FlatTree) -> int:
    def depth(i: int) -> int:
        if flat.children_left[i] == -1:
            return 0
        return 1 + max(depth(flat.children_left[i]), depth(flat.children_right[i]))

    return depth(0)


def _extend(fi, zf, of, pw, unique_depth, zero_fraction, one_fraction, feature_index):
    fi[unique_depth] = feature_index
    zf[unique_depth] = zero_fraction
    of[unique_depth] = one_fraction
    pw[unique_depth] = 1.0 if unique_depth == 0 else 0.0
    for i in range(unique_depth - 1, -1, -1):
        pw[i + 1] += one_fraction * pw[i] * (i + 1) / (unique_depth + 1)
        pw[i] = zero_fraction * pw[i] * (unique_depth - i) / (unique_depth + 1)


def _unwind(fi, zf, of, pw, unique_depth, path_index):
    one_fraction = of[path_index]
    zero_fraction = zf[path_index]
    next_one = pw[unique_depth]
    for i in range(unique_depth - 1, -1, -1):
        if one_fraction != 0.0:
            tmp = pw[i]
            pw[i] = next_one * (unique_depth + 1) / ((i + 1) * one_fraction)
            next_one = tmp - pw[i] * zero_fraction * (unique_depth - i) / (unique_depth + 1)
        else:
            pw[i] = pw[i] * (unique_depth + 1) / (zero_fraction * (unique_depth - i))
    for i in range(path_index, unique_depth):
        fi[i] = fi[i + 1]
        zf[i] = zf[i + 1]
        of[i] = of[i + 1]


def _unwound_sum(zf, of, pw, unique_depth, path_index):
    one_fraction = of[path_index]
    zero_fraction = zf[path_index]
    next_one = pw[unique_depth]
    total = 0.0
    for i in range(unique_depth - 1, -1, -1):
        if one_fraction != 0.0:
            tmp = next_one * (unique_depth + 1) / ((i + 1) * one_fraction)
            total += tmp
            next_one = pw[i] - tmp * zero_fraction * (unique_depth - i) / (unique_depth + 1)
        else:
            total += pw[i] / zero_fraction / ((unique_depth - i) / (unique_depth + 1))
    return total


def _single_tree_shap(flat: FlatTree, expect: np.ndarray, x: np.ndarray, phi: np.ndarray):
    """Adds one tree's attributions to phi; callers add expect[0] as the base."""
    maxd = _tree_depth(flat) + 2
    size = (maxd * (maxd + 1)) // 2
    fi = np.zeros(size, dtype=np.int64)
    zf = np.zeros(size, dtype=np.float64)
    of = np.zeros(size, dtype=np.float64)
    pw = np.zeros(size, dtype=np.float64)

    children_left = flat.children_left
    children_right = flat.children_right
    feature = flat.feature
    threshold = flat.threshold
    cover = flat.cover

    def recurse(node, unique_depth, pfi, pzf, pof, ppw, zero_fraction, one_fraction, feature_index):
        cfi = pfi[unique_depth + 1:]
        cfi[: unique_depth + 1] = pfi[: unique_depth + 1]
        czf = pzf[unique_depth + 1:]
        czf[: unique_depth + 1] = pzf[: unique_depth + 1]
        cof = pof[unique_depth + 1:]
        cof[: unique_depth + 1] = pof[: unique_depth + 1]
        cpw = ppw[unique_depth + 1:]
        cpw[: unique_depth + 1] = ppw[: unique_depth + 1]
        _extend(cfi, czf, cof, cpw, unique_depth, zero_fraction, one_fraction, feature_index)

        if children_left[node] == -1:
            leaf_value = expect[node]
            for i in range(1, unique_depth + 1):
                w = _unwound_sum(czf, cof, cpw, unique_depth, i)
                phi[cfi[i]] += w * (cof[i] - czf[i]) * leaf_value
            return

        split = feature[node]
        hot = children_left[node] if x[split] < threshold[node] else children_right[node]
        cold = children_right[node] if hot == children_left[node] else children_left[node]
        w = cover[node]
        hot_zero = cover[hot] / w
        cold_zero = cover[cold] / w
        incoming_zero = 1.0
        incoming_one = 1.0
        path_index = 0
        while path_index <= unique_depth:
            if cfi[path_index] == split:
                break
            path_index += 1
        if path_index != unique_depth + 1:
            incoming_zero = czf[path_index]
            incoming_one = cof[path_index]
            _unwind(cfi, czf, cof, cpw, unique_depth, path_index)
            unique_depth -= 1

        recurse(hot, unique_depth + 1, cfi, czf, cof, cpw,
                hot_zero * incoming_zero, incoming_one, split)
        recurse(cold, unique_depth + 1, cfi, czf, cof, cpw,
                cold_zero * incoming_zero, 0.0, split)

    recurse(0, 0, fi, zf, of, pw, 1.0, 1.0, -1)


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


def tree_shap(model, row: np.ndarray, key: str = "") -> ShapVector:
    """Exact Shapley attribution of one row under cover-weighted expectations.

    base_value + phi.sum() equals model_margin(model, row) up to accumulated
    float rounding (< 1e-9 at practical tree counts).
    """
    row = np.asarray(row, dtype=np.float64).reshape(-1)
    if len(row) != len(model.feature_names):
        raise ExplainError(f"expected {len(model.feature_names)} features, got {len(row)}")
    flats, weights, offset = _model_parts(model)
    d = len(row)
    phi = np.zeros(d)
    base = offset
    tree_phi = np.zeros(d)
    for flat, weight in zip(flats, weights):
        expect = _expectations_cached(model, flat)
        tree_phi[:] = 0.0
        _single_tree_shap(flat, expect, row, tree_phi)
        phi += weight * tree_phi
        base += weight * expect[0]
    return ShapVector(key=key, phi=phi, base_value=float(base))


def _expectations_cached(model, flat: FlatTree) -> np.ndarray:
    cache = getattr(model, "_shap_expectations", None)
    if cache is None:
        cache = {}
        model._shap_expectations = cache
    found = cache.get(id(flat))
    if found is None:
        found = _node_expectations(flat)
        cache[id(flat)] = found
    return found


def tree_shap_batch(model, matrix: FeatureMatrix) -> list[ShapVector]:
    return [
        tree_shap(model, matrix.values[i], key=matrix.keys[i]) for i in range(matrix.n_rows)
    ]


def local_accuracy_error(vectors: list[ShapVector], margins: np.ndarray) -> float:
    """Largest |base + sum(phi) - margin| over the rows; nan if any phi or
    base value is not finite, whatever the order of the rows."""
    errors = [abs(v.base_value + float(v.phi.sum()) - m) for v, m in zip(vectors, margins)]
    finite = all(np.isfinite(v.phi).all() and np.isfinite(v.base_value) for v in vectors)
    return float(np.max(errors, initial=0.0)) if finite else float("nan")


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
    vectors: list[ShapVector],
    matrix: FeatureMatrix,
    groups: SpeciesGroupMap,
    scope: str,
) -> dict[str, ShapRanking]:
    """Support-conditioned mean attributions per species group.

    For indicator columns the signed mean runs over rows where the indicator
    is active and such columns need support >= 1 to appear; other columns use
    every group row. The absolute mean always runs over all group rows.
    """
    if len(vectors) != matrix.n_rows:
        raise ExplainError(f"{len(vectors)} vectors for {matrix.n_rows} rows")
    phi = np.vstack([v.phi for v in vectors])
    if phi.shape[1] != matrix.n_cols:
        raise ExplainError("attribution width does not match the matrix")
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
    vectors: list[ShapVector],
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
    phi = np.vstack([vectors[i].phi for i in rows]) if len(rows) else np.zeros((0, matrix.n_cols))
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


def shap_values_csv(vectors: list[ShapVector], matrix: FeatureMatrix) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["key", "feature", "phi", "base_value"])
    names = matrix.column_names()
    for v in vectors:
        for j, name in enumerate(names):
            writer.writerow([v.key, name, repr(float(v.phi[j])), repr(v.base_value)])
    return buf.getvalue()


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
