"""Training-set rebalancing: random over/undersampling, SMOTE, Wilson editing
and their composition.

Neighbor searches run in a standardized distance space built from the numeric
columns (z-scores fitted on the input matrix); indicator and categorical
columns do not contribute to distances but are interpolated and then rounded
back to valid values when synthesizing rows.

`k_nearest` is the one exact nearest-neighbour kernel, shared by SMOTE, ENN
and the kNN baseline. It takes queries in blocks whose distance array holds
at most BLOCK_ELEMENTS float64 values, selects each query's k-th distance
with `np.partition` and sorts only the candidates at or below it by
(distance, row index). Its distances are bit-identical to the per-query
`np.sqrt(np.sum(deltas * deltas, axis=1))` of a plain scan, so every tie
resolves as that scan's full sort would: below 8 columns numpy sums left to
right, which the kernel reproduces by adding squared deltas column by
column; from 8 columns numpy sums pairwise, which the kernel reproduces by
reducing a (block, points, columns) array along its last axis. The square
root is taken before selecting, because two different squared distances
can round to one root and must then tie.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matrix import FeatureMatrix

VALID_STRATEGIES = ("none", "oversample", "undersample", "smote", "smote_enn")


class ResampleError(ValueError):
    pass


@dataclass(frozen=True)
class ResamplePlan:
    strategy: str = "none"
    target_ratio: float = 1.0  # minority/majority after resampling
    k_smote: int = 5
    k_enn: int = 3
    seed: int = 0
    enn_mode: str = "majority_only"  # or "all" for classic Wilson editing

    def __post_init__(self):
        if self.strategy not in VALID_STRATEGIES:
            raise ResampleError(f"unknown strategy {self.strategy!r}")
        if not (0 < self.target_ratio <= 1):
            raise ResampleError(f"target_ratio must be in (0, 1], got {self.target_ratio}")
        if self.k_smote < 1 or self.k_enn < 1:
            raise ResampleError(
                f"k_smote and k_enn must be >= 1, got {self.k_smote} and {self.k_enn}"
            )
        if self.enn_mode not in ("majority_only", "all"):
            raise ResampleError(f"unknown enn_mode {self.enn_mode!r}")


def _class_split(matrix: FeatureMatrix) -> tuple[int, int, np.ndarray, np.ndarray]:
    """Returns (minority_class, majority_class, minority_idx, majority_idx)."""
    if matrix.labels is None:
        raise ResampleError("resampling requires labels")
    classes, counts = np.unique(matrix.labels, return_counts=True)
    if len(classes) != 2:
        raise ResampleError(f"binary labels required, found classes {classes.tolist()}")
    if counts.min() == 0:
        raise ResampleError("both classes must be non-empty")
    minority = int(classes[np.argmin(counts)])
    majority = int(classes[np.argmax(counts)])
    if minority == majority:  # tie: lower label is treated as minority
        minority, majority = int(classes[0]), int(classes[1])
    return (
        minority,
        majority,
        np.flatnonzero(matrix.labels == minority),
        np.flatnonzero(matrix.labels == majority),
    )


def random_resample(matrix: FeatureMatrix, plan: ResamplePlan) -> FeatureMatrix:
    """Duplicate minority rows (oversample) or remove majority rows
    (undersample), uniformly at random, until minority/majority reaches the
    plan's target ratio."""
    if plan.strategy not in ("oversample", "undersample"):
        raise ResampleError(f"random_resample cannot run strategy {plan.strategy!r}")
    minority, _, min_idx, maj_idx = _class_split(matrix)
    rng = np.random.default_rng(plan.seed)
    if plan.strategy == "oversample":
        target = int(round(plan.target_ratio * len(maj_idx)))
        deficit = target - len(min_idx)
        if deficit <= 0:
            return matrix
        extra = rng.choice(min_idx, size=deficit, replace=True)
        values = matrix.values[extra]
        keys = [f"{matrix.keys[i]}(dup{n})" for n, i in enumerate(extra)]
        labels = np.full(deficit, minority, dtype=np.int8)
        return matrix.append_rows(values, keys, labels)
    target = int(round(len(min_idx) / plan.target_ratio))
    if target >= len(maj_idx):
        return matrix
    keep_maj = rng.choice(maj_idx, size=target, replace=False)
    keep = np.sort(np.concatenate([min_idx, keep_maj]))
    return matrix.take_rows(keep)


def _distance_space(matrix: FeatureMatrix) -> np.ndarray:
    """Z-scored numeric columns; falls back to all columns if none are numeric."""
    idx = matrix.numeric_indices() or list(range(matrix.n_cols))
    space = matrix.values[:, idx].astype(np.float64)
    mean = space.mean(axis=0)
    std = space.std(axis=0)
    std[std == 0] = 1.0
    return (space - mean) / std


BLOCK_ELEMENTS = 1 << 16  # float64 values in one block's distance array
_PAIRWISE_COLUMNS = 8  # from this many columns np.sum adds pairwise


def _distances(points: np.ndarray, columns: np.ndarray | None, queries: np.ndarray) -> np.ndarray:
    """(queries, points) Euclidean distances, each bit-identical to
    np.sqrt(np.sum((points - q) ** 2, axis=1)) for its query q. columns is
    points.T made contiguous where points has fewer than 8 columns, else None."""
    if columns is not None:
        total = np.square(columns[0] - queries[:, 0, None])
        for j in range(1, len(columns)):
            delta = columns[j] - queries[:, j, None]
            total += np.square(delta, out=delta)
    else:
        deltas = points - queries[:, None, :]
        total = np.sum(np.square(deltas, out=deltas), axis=2)
    return np.sqrt(total, out=total)


def _select(dist: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Each row's k smallest entries, ordered by (distance, column index)."""
    kth = np.partition(dist, k - 1, axis=1)[:, k - 1]
    # not `<=`: where kth is NaN (NaN sorts last) every entry is a candidate,
    # so each row always has at least k
    rows, cols = np.nonzero(~(dist > kth[:, None]))
    order = np.lexsort((cols, dist[rows, cols], rows))
    counts = np.bincount(rows, minlength=len(dist))
    first = np.cumsum(counts) - counts
    take = order[first[:, None] + np.arange(k)]
    return cols[take], dist[rows[take], cols[take]]


def k_nearest(
    points: np.ndarray, queries: np.ndarray, k: int, exclude: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Each query's k nearest rows of points as (indices, distances), both
    (queries, k) and ordered by (distance, row index). exclude[i], if given,
    is a row query i may not pick (itself)."""
    n, d = points.shape
    available = n if exclude is None else n - 1
    if not 1 <= k <= available:
        raise ResampleError(f"cannot take {k} nearest of {available} rows")
    columns = np.ascontiguousarray(points.T) if 0 < d < _PAIRWISE_COLUMNS else None
    step = max(1, BLOCK_ELEMENTS // (n if columns is not None else n * max(d, 1)))
    indices = np.empty((len(queries), k), dtype=np.intp)
    distances = np.empty((len(queries), k))
    for start in range(0, len(queries), step):
        block = slice(start, start + step)
        dist = _distances(points, columns, queries[block])
        if exclude is not None:
            dist[np.arange(len(dist)), exclude[block]] = np.inf
        indices[block], distances[block] = _select(dist, k)
    return indices, distances


def interpolate_rows(
    matrix: FeatureMatrix, origin: np.ndarray, partner: np.ndarray, lam: np.ndarray
) -> np.ndarray:
    """Synthetic rows x_i + lam * (x_nn - x_i) for the rows x_i = origin and
    x_nn = partner of matrix, with indicator columns rounded to 0/1 and
    categorical columns to a valid code. Built column by column, so no
    temporary is larger than one column."""
    rows = np.empty((len(origin), matrix.n_cols))
    for j, meta in enumerate(matrix.columns):
        x_i = matrix.values[origin, j]
        column = matrix.values[partner, j] - x_i
        column *= lam
        column += x_i
        if meta.kind == "multi_hot":
            column = column >= 0.5
        elif meta.kind == "encoded_categorical":
            max_code = max(meta.category_map.values()) if meta.category_map else 0
            column = np.clip(np.floor(column + 0.5), 0.0, float(max_code))
        rows[:, j] = column
    return rows


def smote(matrix: FeatureMatrix, plan: ResamplePlan) -> FeatureMatrix:
    """Synthesize minority rows by interpolating toward minority neighbors."""
    minority, _, min_idx, maj_idx = _class_split(matrix)
    if len(min_idx) <= plan.k_smote:
        raise ResampleError(
            f"minority count {len(min_idx)} must exceed k_smote={plan.k_smote}; "
            "use a smaller k"
        )
    target = int(round(plan.target_ratio * len(maj_idx)))
    n_new = target - len(min_idx)
    if n_new <= 0:
        return matrix
    space = _distance_space(matrix)[min_idx]
    positions, _ = k_nearest(space, space, plan.k_smote, exclude=np.arange(len(min_idx)))
    neighbors = min_idx[positions]
    # one RNG stream per synthetic row, so generation order cannot matter
    streams = np.random.SeedSequence(plan.seed).spawn(n_new)
    origin = np.empty(n_new, dtype=np.intp)
    partner = np.empty(n_new, dtype=np.intp)
    lam = np.empty(n_new)
    for s, stream in enumerate(streams):
        rng = np.random.default_rng(stream)
        i = rng.choice(len(min_idx))  # the position rng.choice(min_idx) would draw
        origin[s] = min_idx[i]
        partner[s] = rng.choice(neighbors[i])
        lam[s] = rng.uniform(0.0, 1.0)
    new_values = interpolate_rows(matrix, origin, partner, lam)
    keys = [f"synthetic-{s}" for s in range(n_new)]
    labels = np.full(n_new, minority, dtype=np.int8)
    return matrix.append_rows(new_values, keys, labels)


def enn(matrix: FeatureMatrix, plan: ResamplePlan) -> FeatureMatrix:
    """Wilson editing, single pass: remove rows whose k nearest neighbors
    majority-vote a different class.

    The default mode only edits majority-class rows; enn_mode="all" edits any
    row (classic Wilson editing).
    """
    if matrix.labels is None:
        raise ResampleError("resampling requires labels")
    n = matrix.n_rows
    if n <= plan.k_enn:
        raise ResampleError(f"need more than k_enn={plan.k_enn} rows, got {n}")
    _, majority, _, _ = _class_split(matrix)
    space = _distance_space(matrix)
    labels = matrix.labels
    edited = np.arange(n) if plan.enn_mode == "all" else np.flatnonzero(labels == majority)
    neighbors, _ = k_nearest(space, space[edited], plan.k_enn, exclude=edited)
    disagree = np.sum(labels[neighbors] != labels[edited, None], axis=1)
    keep = np.ones(n, dtype=bool)
    keep[edited[disagree > plan.k_enn - disagree]] = False
    return matrix.take_rows(np.flatnonzero(keep))


def smote_enn(matrix: FeatureMatrix, plan: ResamplePlan) -> FeatureMatrix:
    """SMOTE followed by Wilson editing, sharing the plan's seed."""
    return enn(smote(matrix, plan), plan)


def apply_plan(matrix: FeatureMatrix, plan: ResamplePlan) -> FeatureMatrix:
    if plan.strategy == "none":
        return matrix
    if plan.strategy in ("oversample", "undersample"):
        return random_resample(matrix, plan)
    if plan.strategy == "smote":
        return smote(matrix, plan)
    return smote_enn(matrix, plan)
