"""CART decision trees, the split search and tree growth they share with the
forest and with boosting, and the one tree representation: `FlatTree` arrays,
grown in pre-order and used as they are by prediction, attribution and
serialization.

Each fit codes its matrix once (`rank_bins`: one bin per distinct value of a
column). `grow_trees` grows one tree, or a forest's trees in lockstep: each
step takes the next node of every unfinished tree and `find_splits` searches
them all at once, with one `np.bincount` per summed statistic over the nodes'
rows and candidate columns. The candidates are exactly the exact-greedy
midpoints between neighbouring distinct values; where a midpoint rounds onto
the lower value (adjacent floats) the upper value is used, so no child is
empty. Gains within TIE_RTOL of a node's best are ties, whatever order the
sums were taken in, and go to the lowest feature, then the lowest threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TIE_RTOL = 1e-10  # summation order moves a gain by up to about 4e-13 of itself
SEARCH_ELEMENTS = 1 << 18  # codes one find_splits call gathers; bounds its memory


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


def find_splits(bins: Bins, rows: list, features, stats: np.ndarray, score) -> list:
    """Best split of each of several nodes ("jobs") as (feature, lo, hi), or None.

    rows[j] are job j's rows of bins.codes (at least one; repeats count as
    rows), and
    features a (jobs, k) array of each job's ascending candidate columns, or
    None for every column. stats is an (s, n) array of per-row values to sum.
    score(left, right, total, job) maps the (s + 1, m) left and right sums
    of the m candidate splits, row counts first, to m gains, -inf or NaN
    where a split is not allowed; total[:, job] are the candidates' node
    totals (total has one column per job). A split sends bins <= lo
    left; hi is the next bin holding rows of the job. Only positive gains
    count.

    Each job's candidate columns map to their own range of a compact bin
    axis, so one bincount per statistic serves every job, and one running
    sum restarts at each (job, column) segment. Within a bin the rows are
    summed in job order, as in a search of the job alone; so every sum is
    the same as alone where the sums are integers (a forest's counts),
    while float sums of a job batched after others may differ in the last
    bit, since its running sum restarts from their residue.
    """
    sizes = [len(r) for r in rows]
    every = rows[0] if len(rows) == 1 else np.concatenate(rows)
    row_stats = stats[:, every]
    total = np.empty((len(stats) + 1, len(rows)))
    total[0] = sizes
    end = 0
    for j, n in enumerate(sizes):
        total[1:, j] = row_stats[:, end:end + n].sum(axis=1)
        end += n
    if features is None:
        columns = np.tile(np.arange(len(bins.start) - 1), (len(rows), 1))
        codes = bins.codes[every]
    else:
        columns = features
        # a flat take gathers about twice as fast as codes[every[:, None], ...]
        index = (every * bins.codes.shape[1])[:, None] + np.repeat(features, sizes, axis=0)
        codes = np.take(bins.codes.ravel(), index)
    # Segment s = (job, slot) owns compact bins seg_start[s] to seg_start[s + 1] - 1.
    seg_start = np.concatenate(([0], np.cumsum(np.diff(bins.start)[columns.ravel()])))
    shift = seg_start[:-1].reshape(columns.shape) - bins.start[columns]
    if shift.any():
        codes = codes + np.repeat(shift, sizes, axis=0)
    flat, size, k = codes.ravel(), seg_start[-1], columns.shape[1]
    hist = [np.bincount(flat, minlength=size)]
    hist += [np.bincount(flat, np.repeat(stat, k), size) for stat in row_stats]
    occupied = np.flatnonzero(hist[0])
    sums = np.stack([h[occupied] for h in hist])
    # Every segment holds each row of its job once, so none is empty;
    # ends[s] is one past its last occupied bin, and the others are candidates.
    ends = np.searchsorted(occupied, seg_start[1:])
    last = ends - 1
    per_seg = last - np.concatenate(([0], ends[:-1]))
    cand_seg = np.repeat(np.arange(len(ends)), per_seg)
    cand = np.arange(len(cand_seg)) + cand_seg  # skips one last bin per earlier segment
    # Subtracting its job's total at each segment's last bin restarts the
    # running sum at (about) zero, so one cumsum over all segments keeps
    # per-segment precision; sums of integer weights stay exact.
    sums[:, last] -= np.repeat(total, k, axis=1)
    running = np.cumsum(sums, axis=1)
    restart = np.concatenate((np.zeros((len(total), 1)), running[:, last[:-1]]), axis=1)
    # np.take: a column gather that runs about 3x faster than [:, index]
    left = np.take(running, cand, axis=1) - np.take(restart, cand_seg, axis=1)
    bounds = np.concatenate(([0], np.cumsum(per_seg)))[::k]  # job j: bounds[j] to bounds[j + 1]
    cand_job = cand_seg // k
    gains = score(left, np.repeat(total, np.diff(bounds), axis=1) - left, total, cand_job)
    best = np.zeros(len(rows))
    some = bounds[:-1] < bounds[1:]
    if some.any():
        best[some] = np.fmax.reduceat(gains, bounds[:-1][some])  # NaN gains are skipped
    floor = np.where(best > 0, best * (1 - TIE_RTOL), np.inf)
    hit = np.flatnonzero(gains >= floor[cand_job])
    first, stop = np.searchsorted(hit, bounds[:-1]), np.searchsorted(hit, bounds[1:])
    found = [None] * len(rows)
    for j in np.flatnonzero(first < stop):
        c = hit[first[j]]
        i, s = cand[c], cand_seg[c]
        lo, hi = occupied[i:i + 2] - shift.flat[s]
        found[j] = int(columns.flat[s]), int(lo), int(hi)
    return found


def _gini(w, w1, square=np.square):
    return 1.0 - square((w - w1) / w) - square(w1 / w)


def node_square(x):
    """x ** 2 of each node's total, rounded by C pow as numpy rounds a
    scalar's power; `**` on an array squares exactly, which differs in the
    last bit for about 1 value in 2,000 and could move a near-zero gain."""
    return np.float_power(x, 2)


def gini_score(min_leaf: int):
    """Weighted Gini impurity reduction over (count, weight, class-1 weight) sums."""

    def score(left, right, total, job):
        (nl, wl, w1l), (nr, wr, w1r) = left, right
        with np.errstate(invalid="ignore", divide="ignore"):
            children = wl * _gini(wl, w1l) + wr * _gini(wr, w1r)
        gains = _gini(total[1], total[2], node_square)[job] - children / total[1][job]
        return np.where((nl >= min_leaf) & (nr >= min_leaf), gains, -np.inf)

    return score


def checked_matrix(X, min_leaf: int) -> np.ndarray:
    """X as float64, after the checks every CART fit makes of its input."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or len(X) == 0:
        raise FitError("training set is empty")
    if np.isnan(X).any():
        raise FitError("training matrix contains NaN; impute before fitting")
    if len(X) < min_leaf:
        raise FitError(f"need at least min_leaf={min_leaf} rows, got {len(X)}")
    return X


def grow_cart(bins: Bins, y, w, params: TreeParams, roots: list, draw=None) -> list[FlatTree]:
    """Classification trees on bins from the given roots (see grow_trees);
    each stops at max_depth, min_leaf or purity."""

    def make_node(rows):
        wr = w[rows]
        cover, w1 = float(wr.sum()), float(wr[y[rows] == 1].sum())
        return (w1 / cover if cover > 0 else 0.0), cover

    def splittable(value, rows, depth):
        return (depth < params.max_depth and value not in (0.0, 1.0)
                and len(rows) >= 2 * params.min_leaf)

    stats = np.array([w, w * (y == 1)])
    return grow_trees(bins, stats, gini_score(params.min_leaf), roots, make_node, splittable, draw)


def fit_cart(
    X: np.ndarray,
    y: np.ndarray,
    params: TreeParams = TreeParams(),
    sample_weight: np.ndarray | None = None,
) -> FlatTree:
    """Grow a classification tree over every column of X."""
    X = checked_matrix(X, params.min_leaf)
    y = np.asarray(y)
    w = np.ones(len(y)) if sample_weight is None else np.asarray(sample_weight, dtype=np.float64)
    return grow_cart(rank_bins(X), y, w, params, [np.arange(len(X))])[0]


def grow_trees(bins: Bins, stats, score, roots: list, make_node, splittable,
               draw=None) -> list[FlatTree]:
    """Grow one tree per entry of roots, the rows of bins.codes at its root
    (repeats allowed), in lockstep; the growth shared by CART, forest and
    boosting.

    Every tree grows depth-first in pre-order from its own stack:
    make_node(rows) gives a node's (value, cover), and a node is searched
    where splittable(value, rows, depth). Each step takes the next such node
    of every unfinished tree and searches them together with find_splits,
    over the columns draw(t) picks for tree t (every column without draw),
    in calls of at most SEARCH_ELEMENTS gathered codes. A tree's nodes and
    draws come in the order they would if it grew alone, and so do its sums
    where they are integers or it grows alone (see find_splits).
    """
    nodes = [[] for _ in roots]  # per tree: [left, right, feature, threshold, value, cover]
    stacks = [[(rows, 0, None)] for rows in roots]
    width = len(bins.start) - 1
    while True:
        jobs = []  # (tree, node, rows, depth, columns)
        for t, stack in enumerate(stacks):
            while stack:
                rows, depth, parent = stack.pop()
                value, cover = make_node(rows)
                if parent is not None:
                    parent[0][parent[1]] = len(nodes[t])
                node = [-1, -1, -1, 0.0, value, cover]
                nodes[t].append(node)
                if splittable(value, rows, depth):
                    jobs.append((t, node, rows, depth, None if draw is None else draw(t)))
                    break
        if not jobs:
            break
        k = width if draw is None else len(jobs[0][4])
        for batch in _batches(jobs, k):
            features = None if draw is None else np.array([job[4] for job in batch])
            found = find_splits(bins, [job[2] for job in batch], features, stats, score)
            for (t, node, rows, depth, _), best in zip(batch, found):
                if best is None:
                    continue
                f, lo, hi = best
                node[2:5] = f, bins.threshold(f, lo, hi), 0.0
                go_left = bins.codes[rows, f] <= lo
                stacks[t].append((rows[~go_left], depth + 1, (node, 1)))
                stacks[t].append((rows[go_left], depth + 1, (node, 0)))
    return [_flat_tree(tree) for tree in nodes]


def _batches(jobs: list, k: int):
    """Consecutive runs of jobs gathering at most SEARCH_ELEMENTS codes
    (k per row); a larger job runs alone."""
    batch, elements = [], 0
    for job in jobs:
        size = len(job[2]) * k
        if batch and elements + size > SEARCH_ELEMENTS:
            yield batch
            batch, elements = [], 0
        batch.append(job)
        elements += size
    yield batch


def _flat_tree(nodes: list) -> FlatTree:
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
