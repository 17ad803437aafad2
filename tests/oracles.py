"""Independent brute-force oracles the tests check the fast paths against.

Everything here is deliberately naive: exhaustive enumeration, O(n^2)
neighbor scans, direct per-formula arithmetic. None of it may import the
implementation paths it validates beyond plain data containers.
"""

from __future__ import annotations

import datetime as dt
import itertools
import math

import numpy as np


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
