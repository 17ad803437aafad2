"""CART decision trees, the split search they share with boosting, and the
one tree representation: `FlatTree` arrays, grown in pre-order and used as
they are by prediction, attribution and serialization.

Each fit codes its matrix once (`rank_bins`: one bin per distinct value of a
column). `best_split` takes a node's left-child sums from one `np.bincount`
over its rows and candidate columns, so its candidates are exactly the
exact-greedy midpoints between neighbouring distinct values; where a midpoint
rounds onto the lower value (adjacent floats) the upper value is used, so no
child is empty. Gains within TIE_RTOL of the best are ties, whatever order the
sums were taken in, and go to the lowest feature, then the lowest threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TIE_RTOL = 1e-10  # summation order moves a gain by up to about 4e-13 of itself


class FitError(ValueError):
    pass


@dataclass
class FlatTree:
    """One tree as arrays indexed by node; children_left == -1 marks a leaf.

    Internal nodes route x via `x[feature] < threshold`. value is the leaf
    payload: P(Recovered) for classification trees, a raw additive score for
    boosted regression trees; split nodes hold 0. cover is the weighted count
    of training rows that reached the node, so cover[i] == cover[left] +
    cover[right]. Grown trees are in pre-order: node 0 is the root and a
    split node's left child comes right after it.
    """

    children_left: np.ndarray
    children_right: np.ndarray
    feature: np.ndarray
    threshold: np.ndarray
    value: np.ndarray
    cover: np.ndarray

    def n_nodes(self) -> int:
        return len(self.children_left)


@dataclass(frozen=True)
class TreeParams:
    max_depth: int = 6
    min_leaf: int = 1


class Bins:
    """Bin codes of a training matrix: codes[i, f] is the bin of X[i, f].

    Feature f owns bins start[f] to start[f + 1] - 1, one per distinct value
    in ascending order: bin start[f] + b holds the value values[f][b].
    """

    def __init__(self, codes: np.ndarray, start: np.ndarray, values: list):
        self.codes, self.start, self.values = codes, start, values
        self.feature = np.repeat(np.arange(len(start) - 1), np.diff(start))

    def take(self, rows: np.ndarray) -> "Bins":
        return Bins(self.codes[rows], self.start, self.values)

    def threshold(self, f: int, lo: int, hi: int) -> float:
        """Threshold of the split that sends bins <= lo left and bins >= hi right."""
        a, b = self.values[f][lo - self.start[f]], self.values[f][hi - self.start[f]]
        mid = (a + b) / 2
        return float(mid if mid > a else b)


def rank_bins(X: np.ndarray) -> Bins:
    """One bin per distinct value of each column (the np.unique inverse)."""
    columns = [np.unique(X[:, f], return_inverse=True) for f in range(X.shape[1])]
    start = np.cumsum([0] + [len(values) for values, _ in columns])
    codes = np.empty(X.shape, dtype=np.int32)
    for f, (_, inverse) in enumerate(columns):
        codes[:, f] = inverse + start[f]
    return Bins(codes, start, [values for values, _ in columns])


def best_split(bins: Bins, rows: np.ndarray, features, stats: np.ndarray, score):
    """Best split of a node as (feature, lo, hi), or None.

    features (ascending; None for all) are the candidate columns and stats
    an (s, n) array of per-row values to sum. score(left, right, total) maps
    the (s + 1, m) left and right sums of the m candidate splits, row counts
    first, and the node totals to m gains, -inf or NaN where a split is not
    allowed. The split sends bins <= lo left; hi is the next bin holding
    rows of the node. Only positive gains count.
    """
    codes = bins.codes[rows] if features is None else bins.codes[rows[:, None], features]
    flat, size = codes.ravel(), len(bins.feature)
    row_stats = stats[:, rows]
    hist = [np.bincount(flat, minlength=size)]
    hist += [np.bincount(flat, np.repeat(stat, codes.shape[1]), size) for stat in row_stats]
    occupied = np.flatnonzero(hist[0])
    sums = np.array(hist)[:, occupied]
    total = np.concatenate(([len(rows)], row_stats.sum(axis=1)))
    feat = bins.feature[occupied]
    same = feat[:-1] == feat[1:]
    cand = np.flatnonzero(same)
    if len(cand) == 0:
        return None
    last = np.append(np.flatnonzero(~same), len(feat) - 1)
    # Subtracting the total at each feature's last bin restarts the running
    # sum at (about) zero, so one cumsum over all features keeps per-feature
    # precision; sums of integer weights stay exact.
    sums[:, last] -= total[:, None]
    running = np.cumsum(sums, axis=1)
    restart = np.concatenate((np.zeros((len(total), 1)), running[:, last[:-1]]), axis=1)
    left = running[:, cand] - restart[:, np.searchsorted(last, cand)]
    gains = score(left, total[:, None] - left, total)
    best = np.max(gains, initial=0.0, where=gains > 0)
    if best <= 0:
        return None
    k = np.flatnonzero(gains >= best * (1 - TIE_RTOL))[0]
    j = cand[k]
    return int(feat[j]), int(occupied[j]), int(occupied[j + 1])


def _gini(w, w1):
    return 1.0 - ((w - w1) / w) ** 2 - (w1 / w) ** 2


def gini_score(min_leaf: int):
    """Weighted Gini impurity reduction over (count, weight, class-1 weight) sums."""

    def score(left, right, total):
        (nl, wl, w1l), (nr, wr, w1r) = left, right
        with np.errstate(invalid="ignore", divide="ignore"):
            children = wl * _gini(wl, w1l) + wr * _gini(wr, w1r)
        gains = _gini(total[1], total[2]) - children / total[1]
        return np.where((nl >= min_leaf) & (nr >= min_leaf), gains, -np.inf)

    return score


def fit_cart(
    X: np.ndarray,
    y: np.ndarray,
    params: TreeParams = TreeParams(),
    sample_weight: np.ndarray | None = None,
    features_per_split: int | None = None,
    rng: np.random.Generator | None = None,
    bins: Bins | None = None,
) -> FlatTree:
    """Grow a classification tree; stops at max_depth, min_leaf or purity.

    features_per_split, when given, samples that many candidate features at
    every node from the supplied generator (random-forest mode). bins, when
    given, are the codes of X's rows (a forest codes its matrix once).
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    if X.ndim != 2 or len(X) == 0:
        raise FitError("training set is empty")
    if np.isnan(X).any():
        raise FitError("training matrix contains NaN; impute before fitting")
    if len(X) < params.min_leaf:
        raise FitError(f"need at least min_leaf={params.min_leaf} rows, got {len(X)}")
    w = np.ones(len(y)) if sample_weight is None else np.asarray(sample_weight, dtype=np.float64)
    d = X.shape[1]
    if features_per_split is not None and rng is None:
        raise FitError("features_per_split requires an rng")
    bins = rank_bins(X) if bins is None else bins

    def make_node(rows):
        cover, w1 = float(w[rows].sum()), float(w[rows][y[rows] == 1].sum())
        return (w1 / cover if cover > 0 else 0.0), cover

    def splittable(value, rows, depth):
        return (depth < params.max_depth and value not in (0.0, 1.0)
                and len(rows) >= 2 * params.min_leaf)

    def features():  # None: every column
        if features_per_split is not None:
            return np.sort(rng.choice(d, size=min(features_per_split, d), replace=False))

    stats = np.array([w, w * (y == 1)])
    return grow_tree(bins, stats, gini_score(params.min_leaf), make_node, splittable, features)


def grow_tree(bins: Bins, stats, score, make_node, splittable, features=lambda: None) -> FlatTree:
    """Depth-first growth shared by CART and boosting, in pre-order:
    make_node(rows) gives a node's (value, cover); where splittable(value,
    rows, depth), best_split searches the columns features() draws (None
    for all)."""
    nodes = []  # [left, right, feature, threshold, value, cover], in pre-order

    def grow(rows: np.ndarray, depth: int):
        value, cover = make_node(rows)
        node = [-1, -1, -1, 0.0, value, cover]
        nodes.append(node)
        if not splittable(value, rows, depth):
            return
        best = best_split(bins, rows, features(), stats, score)
        if best is None:
            return
        f, lo, hi = best
        node[2:5] = f, bins.threshold(f, lo, hi), 0.0
        go_left = bins.codes[rows, f] <= lo
        node[0] = len(nodes)
        grow(rows[go_left], depth + 1)
        node[1] = len(nodes)
        grow(rows[~go_left], depth + 1)

    grow(np.arange(len(bins.codes)), 0)
    left, right, feature, threshold, value, cover = zip(*nodes)
    return FlatTree(
        np.array(left, dtype=np.int32), np.array(right, dtype=np.int32),
        np.array(feature, dtype=np.int32), np.array(threshold, dtype=np.float64),
        np.array(value, dtype=np.float64), np.array(cover, dtype=np.float64),
    )


def apply_tree(flat: FlatTree, X: np.ndarray) -> np.ndarray:
    """Leaf values for every row, by level-synchronous descent."""
    n = len(X)
    node = np.zeros(n, dtype=np.int32)
    active = flat.children_left[node] != -1
    while np.any(active):
        rows = np.flatnonzero(active)
        current = node[rows]
        go_left = X[rows, flat.feature[current]] < flat.threshold[current]
        node[rows] = np.where(
            go_left, flat.children_left[current], flat.children_right[current]
        )
        active = flat.children_left[node] != -1
    return flat.value[node]


class DecisionTreeModel:
    """Single CART classifier over a feature matrix."""

    kind = "tree"

    def __init__(self, tree: FlatTree, feature_names: list[str], params: TreeParams):
        self.tree = tree
        self.feature_names = list(feature_names)
        self.params = params

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.shape[1] != len(self.feature_names):
            raise FitError(
                f"expected {len(self.feature_names)} features, got {X.shape[1]}"
            )
        p1 = apply_tree(self.tree, X)
        return np.column_stack([1.0 - p1, p1])

    def predict(self, X: np.ndarray) -> np.ndarray:
        return (self.predict_proba(X)[:, 1] > 0.5).astype(np.int8)
