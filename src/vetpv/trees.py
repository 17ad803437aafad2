"""CART decision trees, the split search and tree growth they share with the
forest and with boosting, the one tree representation: `FlatTree` arrays,
grown in pre-order and used as they are by prediction, attribution and
serialization, and the one tree model: `TreeEnsemble`.

Each fit codes its matrix once (`rank_bins`: one bin per distinct value of a
column) and holds its columns in two blocks for the histograms: a column
with two values as the list of rows at its upper value (sparse), a column
with more as column-major bins (dense). A node's histogram over its
candidate columns is then one `np.bincount` per summed statistic over its
rows' dense bins and sparse entries, and a sparse column's lower bin is the
node's total minus its upper bin (XGBoost's sparsity-aware search, Chen &
Guestrin 2016). `best_splits` scans the histograms of many nodes ("jobs") at
once. The candidates are exactly the exact-greedy midpoints between
neighbouring distinct values; where a midpoint rounds onto the lower value
(adjacent floats) the upper value is used, so no child is empty. Each
candidate's left sums are an exact running sum over its own column's
occupied bins, so they do not depend on the columns or jobs searched with it.

`grow_trees` grows trees that search every column level by level, all of a
level's nodes in one search, and takes the larger child's histogram as its
parent's minus its sibling's (LightGBM's subtraction, Ke et al. 2017). A
forest's nodes draw their own columns, so its trees grow in lockstep, one
node per tree and step. Gains within TIE_RTOL of a node's best are ties,
whatever order the sums were taken in, and go to the lowest feature, then
the lowest threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Sums taken in another order, a lower bin taken as total minus upper and a
# histogram taken as parent minus sibling move gains only in the last bits.
# Over GBDT fits on the gbdt-2k and forest-5k train matrices and 30 random
# weighted ones, subtraction moved a gain by at most 6.6e-13 of its node's
# best gain (946 nodes), and all rounding together by 5.5e-12 against
# exactly rounded per-bin sums.
TIE_RTOL = 1e-10
SEARCH_ELEMENTS = 1 << 18  # histogram entries (plus bins) of one search; bounds its memory


class FitError(ValueError):
    pass


def at_least(params, **lows):
    """Raise FitError naming the first field of params below its low; NaN is below."""
    for name, low in lows.items():
        value = getattr(params, name)
        if not value >= low:
            raise FitError(f"{name} must be >= {low}, got {value}")


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

    def __post_init__(self):
        at_least(self, max_depth=0, min_leaf=1)


class Bins:
    """Bin codes of a training matrix: codes[i, f] is the bin of X[i, f],
    stored column by column.

    Feature f owns the width[f] bins start[f] to start[f + 1] - 1, one per
    distinct value in ascending order: bin start[f] + b holds values[f][b].
    A two-valued column is sparse: its lower bin is counted as a node's
    total minus its upper bin (counted[b] is False there). A search over
    every column numbers a node's bins on an axis of split_bins compact
    bins, the columns with a split in order (a constant column has none);
    compact[b] is bin b's place there. For that search the columns are also
    held in two blocks of compact bins: row i's sparse upper bins are
    upper[indptr[i]:indptr[i + 1]], and dense_codes[c] are the bins of the
    c-th column of more than two values, row by row.
    """

    def __init__(self, codes: np.ndarray, start: np.ndarray, values: list):
        self.codes, self.start, self.values = codes, start, values
        self.width = np.diff(start)
        split = self.width > 1
        self.split_bins = int(self.width[split].sum())
        self.compact = np.arange(start[-1]) - np.repeat(np.cumsum(~split) - ~split, self.width)
        two, self.dense = np.flatnonzero(self.width == 2), np.flatnonzero(self.width > 2)
        self.counted = np.ones(start[-1], dtype=bool)  # all bins but sparse columns' lower ones
        self.counted[start[two]] = False
        upper = codes[:, two] == self.start[two] + 1
        self.indptr = np.concatenate(([0], np.cumsum(upper.sum(axis=1))))
        self.upper = self.compact[self.start[two] + 1][np.nonzero(upper)[1]]
        self.dense_codes = self.compact[codes.T[self.dense]]
        self.row_cost = len(self.dense) + len(self.upper) / len(codes)  # histogram entries per row
        self.layouts = {}

    def layout(self, n_jobs: int) -> Layout:
        """The Layout of n_jobs jobs that search every column, made once."""
        if n_jobs not in self.layouts:
            self.layouts[n_jobs] = Layout(self, n_jobs)
        return self.layouts[n_jobs]

    def threshold(self, f: int, lo: int, hi: int) -> float:
        """Threshold of the split that sends bins <= lo left and bins >= hi right."""
        a, b = self.values[f][lo - self.start[f]], self.values[f][hi - self.start[f]]
        mid = (a + b) / 2
        return float(mid if mid > a else b)


def rank_bins(X: np.ndarray) -> Bins:
    """One bin per distinct value of each column (the np.unique inverse)."""
    columns = [np.unique(X[:, f], return_inverse=True) for f in range(X.shape[1])]
    start = np.cumsum([0] + [len(values) for values, _ in columns])
    codes = np.empty(X.shape, dtype=np.int32, order="F")
    for f, (_, inverse) in enumerate(columns):
        codes[:, f] = inverse + start[f]
    return Bins(codes, start, [values for values, _ in columns])


class Layout:
    """Where jobs' candidate columns lie on one compact bin axis.

    Segment i is column feature[i] of job job[i], jobs in order: it owns
    compact bins seg_start[i] to seg_start[i + 1] - 1, its column's bins in
    order, so compact bin b is bin b - shift[i] of bins. features is a
    (jobs, k) array of each job's ascending candidate columns, or None for
    every column with a split: then job j owns split_bins bins from
    j * split_bins, numbered as bins.compact numbers them.
    """

    def __init__(self, bins: Bins, n_jobs: int, features=None):
        self.features = features
        if features is None:
            features = np.tile(np.flatnonzero(bins.width > 1), (n_jobs, 1))
        self.feature = features.ravel()
        self.job = np.repeat(np.arange(n_jobs), features.shape[1])
        self.seg_start = np.concatenate(([0], np.cumsum(bins.width[self.feature])))
        self.shift = self.seg_start[:-1] - bins.start[self.feature]


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The concatenated ranges starts[i] to starts[i] + lengths[i] - 1."""
    offsets = np.cumsum(lengths) - lengths
    return np.repeat(starts - offsets, lengths) + np.arange(lengths.sum())


def node_totals(stats: np.ndarray, rows: list) -> np.ndarray:
    """(s + 1, jobs) sums of each job's rows: its row count, then each stat."""
    total = np.empty((len(stats) + 1, len(rows)))
    for j, r in enumerate(rows):
        total[0, j] = len(r)
        total[1:, j] = stats[:, r].sum(axis=1)
    return total


def histograms(bins: Bins, rows: list, layout: Layout, stats: np.ndarray,
               total: np.ndarray) -> np.ndarray:
    """(s + 1, compact bins) sums of each job's rows over layout's bins: row
    counts, then each row of stats; total is node_totals(stats, rows).

    One bincount per statistic takes every job's entries: over every column,
    its rows' dense bins (one contiguous take per dense column) and sparse
    entries, and a sparse column's lower bin is then its job's total minus
    its upper bin; over drawn columns, a contiguous take per (job, column).
    Within a bin the rows are summed in their order in the job, so a job's
    sums do not depend on the jobs beside it.
    """
    sizes = np.array([len(r) for r in rows])
    every = rows[0] if len(rows) == 1 else np.concatenate(rows)
    if layout.features is None:
        base = np.repeat(np.arange(len(rows)) * bins.split_bins, sizes)
        lengths = np.diff(bins.indptr)[every]
        index = np.concatenate(((np.take(bins.dense_codes, every, axis=1) + base).ravel(),
                                bins.upper[_ranges(bins.indptr[every], lengths)]
                                + np.repeat(base, lengths)))

        def spread(weights):
            return np.concatenate((np.tile(weights, len(bins.dense)), np.repeat(weights, lengths)))
    else:
        k = layout.features.shape[1]
        code = np.take(bins.codes.T, np.repeat(layout.features * len(bins.codes), sizes, axis=0)
                       + every[:, None])
        keep = np.flatnonzero(bins.counted[code])
        index = (code + np.repeat(layout.shift.reshape(-1, k), sizes, axis=0)).ravel()[keep]

        def spread(weights):
            return weights[keep // k]
    n_bins = layout.seg_start[-1]
    hist = np.empty((len(stats) + 1, n_bins))
    hist[0] = np.bincount(index, minlength=n_bins)
    for s, stat in enumerate(stats, start=1):
        hist[s] = np.bincount(index, spread(stat[every]), n_bins)
    two = np.flatnonzero(bins.width[layout.feature] == 2)
    lower = layout.seg_start[two]
    hist[:, lower] = total[:, layout.job[two]] - hist[:, lower + 1]
    return hist


def best_splits(bins: Bins, layout: Layout, hist: np.ndarray, total: np.ndarray, score) -> list:
    """Best split of each job from its histogram, as (feature, lo, hi) or None.

    hist and total are as histograms and node_totals give them. score(left,
    right, total, job) maps the (s + 1, m) left and right sums of the m
    candidate splits, row counts first, to m gains, -inf or NaN where a split
    is not allowed; total[:, job] are the candidates' node totals. A split
    sends bins <= lo left; hi is the next bin holding rows of the job. Only
    positive gains count.
    """
    n_jobs, job = total.shape[1], layout.job
    occupied = np.flatnonzero(hist[0])
    sums = np.take(hist, occupied, axis=1)
    # Every segment holds each row of its job once, so none is empty;
    # ends[s] is one past its last occupied bin, and the others are candidates.
    ends = np.searchsorted(occupied, layout.seg_start[1:])
    starts = np.concatenate(([0], ends[:-1]))
    per_seg = ends - starts - 1
    cand_seg = np.repeat(np.arange(len(ends)), per_seg)
    cand = np.arange(len(cand_seg)) + cand_seg  # skips one last bin per earlier segment
    if not len(cand):
        return [None] * n_jobs
    # A candidate's left sums run over its own segment's occupied bins only.
    # A two-bin segment's one candidate, its first bin, is its own running sum.
    wide = per_seg > 1
    for a, b in zip(starts[wide].tolist(), ends[wide].tolist()):
        np.cumsum(sums[:, a:b], axis=1, out=sums[:, a:b])
    left = np.take(sums, cand, axis=1)  # np.take: about 3x faster than [:, cand]
    cand_job = job[cand_seg]
    gains = score(left, np.take(total, cand_job, axis=1) - left, total, cand_job)
    bounds = np.searchsorted(cand_job, np.arange(n_jobs + 1))  # job j: bounds[j] to bounds[j + 1]
    best = np.zeros(n_jobs)
    some = bounds[:-1] < bounds[1:]
    best[some] = np.fmax.reduceat(gains, bounds[:-1][some])  # NaN gains are skipped
    floor = np.where(best > 0, best * (1 - TIE_RTOL), np.inf)
    hit = np.flatnonzero(gains >= floor[cand_job])
    first, stop = np.searchsorted(hit, bounds[:-1]), np.searchsorted(hit, bounds[1:])
    found = [None] * n_jobs
    for j in np.flatnonzero(first < stop):
        c = hit[first[j]]
        i, s = cand[c], cand_seg[c]
        lo, hi = occupied[i:i + 2] - layout.shift[s]
        found[j] = int(layout.feature[s]), int(lo), int(hi)
    return found


def find_splits(bins: Bins, rows: list, features, stats: np.ndarray, score) -> list:
    """Best split of each of several nodes ("jobs") as (feature, lo, hi), or None.

    rows[j] are job j's rows of bins.codes (at least one; repeats count as
    rows), and features a (jobs, k) array of each job's ascending candidate
    columns, or None for every column. stats is an (s, n) array of per-row
    values to sum; score is as in best_splits. A job's sums, and so its
    split, do not depend on the jobs searched with it.
    """
    layout = bins.layout(len(rows)) if features is None else Layout(bins, len(rows), features)
    total = node_totals(stats, rows)
    return best_splits(bins, layout, histograms(bins, rows, layout, stats, total), total, score)


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


def checked_training(X, y, min_leaf: int = 1, sample_weight=None):
    """(X as float64, y, weights: ones when None) after the checks every
    learner makes of its training input: labels present, one per row; a
    non-empty 2-D matrix with no NaN (inf stays: a descriptor sum may
    overflow to it) and at least min_leaf rows; and the weights given."""
    if y is None:
        raise FitError("training matrix has no labels")
    X, y = np.asarray(X, dtype=np.float64), np.asarray(y)
    if X.ndim != 2:
        raise FitError(f"training matrix must be 2-D, got shape {X.shape}")
    n = len(X)
    if n == 0:
        raise FitError("training set is empty")
    if y.shape != (n,):
        raise FitError(f"need one label per row: {n} rows, labels of shape {y.shape}")
    if np.isnan(X).any():
        raise FitError("training matrix contains NaN; impute before fitting")
    if n < min_leaf:
        raise FitError(f"need at least min_leaf={min_leaf} rows, got {n}")
    if sample_weight is None:
        return X, y, np.ones(n)
    w = np.asarray(sample_weight, dtype=np.float64)
    if w.shape != (n,):
        raise FitError(f"sample_weight must have shape ({n},), got {w.shape}")
    if not np.isfinite(w).all() or (w < 0).any():
        raise FitError("sample weights must be finite and non-negative")
    if not w.sum() > 0:
        raise FitError("sample weights sum to 0")
    return X, y, w


def checked_rows(X, width: int) -> np.ndarray:
    """X as float64, after the check every model makes of the rows it
    predicts: a 2-D array of width columns."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != width:
        raise FitError(f"expected rows of {width} features, got an array of shape {X.shape}")
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
    X, y, w = checked_training(X, y, params.min_leaf, sample_weight)
    return grow_cart(rank_bins(X), y, w, params, [np.arange(len(X))])[0]


def grow_trees(bins: Bins, stats, score, roots: list, make_node, splittable,
               draw=None) -> list[FlatTree]:
    """Grow one tree per entry of roots, the rows of bins.codes at its root
    (repeats allowed); the growth shared by CART, forest and boosting.

    make_node(rows) gives a node's (value, cover), and a node is searched
    where splittable(value, rows, depth). Without draw every node searches
    every column, and the trees grow level by level (_grow_levels). A
    forest's tree t searches the columns draw(t) picks at each node, and the
    trees grow in lockstep (_grow_lockstep), so each tree's nodes and draws
    come in the order they would if it grew alone. Either way a search
    takes at most about SEARCH_ELEMENTS histogram entries and bins, and a
    tree's arrays come out in pre-order. A tree's nodes, draws and sums do
    not depend on the other roots, so a forest may grow its trees in
    shares, one call per share and process (`forest.fit_forest`), and get
    the trees of one call.
    """
    nodes = [[] for _ in roots]  # per tree as made: [left, right, feature, threshold, value, cover]
    if draw is None:
        _grow_levels(bins, stats, score, roots, make_node, splittable, nodes)
    else:
        _grow_lockstep(bins, stats, score, roots, make_node, splittable, draw, nodes)
    return [_flat_tree(tree) for tree in nodes]


def _grow_levels(bins, stats, score, roots, make_node, splittable, nodes):
    """Search each level's nodes of every tree together, in as few calls of
    best_splits as SEARCH_ELEMENTS allows.

    Where both children of a split are searched, the one with more rows
    takes its histogram as its parent's minus its sibling's, if that is
    cheaper than building it: when its rows hold more histogram entries
    than there are bins. It is searched in the same call as its sibling.
    """
    width = bins.split_bins
    level = []  # units of jobs (tree, node, rows, depth, parent histogram or None)
    for t, rows in enumerate(roots):
        node = _add_node(nodes[t], None, make_node(rows))
        if splittable(node[4], rows, 0):
            level.append([(t, node, rows, 0, None)])

    def cost(unit):
        return sum(width + (0 if job[4] is not None else len(job[2]) * bins.row_cost)
                   for job in unit)

    while level:
        ahead = []
        for units in _batches(level, cost):
            batch = [job for unit in units for job in unit]
            total = node_totals(stats, [job[2] for job in batch])
            built = [i for i, job in enumerate(batch) if job[4] is None]
            hist = histograms(bins, [batch[i][2] for i in built], bins.layout(len(built)),
                              stats, total[:, built]).reshape(len(total), len(built), width)
            if len(built) < len(batch):
                into = np.empty((len(total), len(batch), width))
                into[:, built] = hist
                for i, job in enumerate(batch):
                    if job[4] is not None:  # its sibling is the job before it
                        into[:, i] = job[4] - into[:, i - 1]
                hist = into
            found = best_splits(bins, bins.layout(len(batch)), hist.reshape(len(total), -1),
                                total, score)
            for i, ((t, node, rows, depth, _), best) in enumerate(zip(batch, found)):
                if best is None:
                    continue
                children = []
                for side, part in enumerate(_split(bins, node, rows, best)):
                    child = _add_node(nodes[t], (node, side), make_node(part))
                    if splittable(child[4], part, depth + 1):
                        children.append((t, child, part, depth + 1, None))
                if len(children) == 2:
                    small, large = sorted(children, key=lambda job: len(job[2]))
                    if len(large[2]) * bins.row_cost > width:
                        ahead.append([small, (*large[:4], hist[:, i].copy())])
                        continue
                ahead += [[child] for child in children]
        level = ahead


def _grow_lockstep(bins, stats, score, roots, make_node, splittable, draw, nodes):
    """Every tree grows depth-first in pre-order from its own stack. Each
    step takes the next splittable node of every unfinished tree and
    searches them together with find_splits, over the columns draw(t) picks
    for tree t."""
    stacks = [[(rows, 0, None)] for rows in roots]

    def cost(job):
        return len(job[2]) * len(job[4])

    while True:
        jobs = []  # (tree, node, rows, depth, columns)
        for t, stack in enumerate(stacks):
            while stack:
                rows, depth, parent = stack.pop()
                node = _add_node(nodes[t], parent, make_node(rows))
                if splittable(node[4], rows, depth):
                    jobs.append((t, node, rows, depth, draw(t)))
                    break
        if not jobs:
            return
        for batch in _batches(jobs, cost):
            features = np.array([job[4] for job in batch])
            found = find_splits(bins, [job[2] for job in batch], features, stats, score)
            for (t, node, rows, depth, _), best in zip(batch, found):
                if best is not None:
                    left, right = _split(bins, node, rows, best)
                    stacks[t].append((right, depth + 1, (node, 1)))
                    stacks[t].append((left, depth + 1, (node, 0)))


def _add_node(nodes: list, parent, made) -> list:
    """Append a leaf of (value, cover) made to a tree, as child parent[1]
    (0 left, 1 right) of node parent[0] if there is a parent."""
    node = [-1, -1, -1, 0.0, *made]
    if parent is not None:
        parent[0][parent[1]] = len(nodes)
    nodes.append(node)
    return node


def _split(bins: Bins, node: list, rows: np.ndarray, best) -> tuple:
    """Make node a split on best = (feature, lo, hi); its rows going left and right."""
    f, lo, hi = best
    node[2:5] = f, bins.threshold(f, lo, hi), 0.0
    go_left = bins.codes[rows, f] <= lo
    return rows[go_left], rows[~go_left]


def _batches(units: list, cost):
    """Consecutive runs of units costing at most SEARCH_ELEMENTS together;
    a costlier unit runs alone."""
    batch, elements = [], 0
    for unit in units:
        size = cost(unit)
        if batch and elements + size > SEARCH_ELEMENTS:
            yield batch
            batch, elements = [], 0
        batch.append(unit)
        elements += size
    yield batch


def _flat_tree(nodes: list) -> FlatTree:
    """The tree of nodes, whose children are numbered in the order made,
    renumbered in pre-order."""
    order, stack = [], [0]
    while stack:
        i = stack.pop()
        order.append(i)
        if nodes[i][0] != -1:
            stack += [nodes[i][1], nodes[i][0]]
    number = np.empty(len(nodes), dtype=np.int32)
    number[order] = np.arange(len(order))
    left, right, feature, threshold, value, cover = zip(*(nodes[i] for i in order))
    left, right = np.array(left), np.array(right)
    split = left != -1
    left[split], right[split] = number[left[split]], number[right[split]]
    return FlatTree(
        left.astype(np.int32), right.astype(np.int32),
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


def sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class TreeEnsemble:
    """Trees plus the rule that combines them into a margin, for every tree
    model: one CART tree ("tree"), a forest ("forest") or a boosted model
    ("gbdt").

    The margin of the first t trees is base_score + learning_rate * (sum of
    their leaf values), divided by t for a forest: the log-odds of Recovered
    for gbdt, P(Recovered) otherwise. A tree or forest keeps base_score 0 and
    learning_rate 1, so its margin is its leaf value or the plain mean of its
    trees' leaf values.
    """

    def __init__(self, kind: str, trees: list[FlatTree], feature_names: list[str],
                 base_score: float = 0.0, learning_rate: float = 1.0):
        self.kind = kind
        self.trees = trees
        self.feature_names = list(feature_names)
        self.base_score = base_score
        self.learning_rate = learning_rate

    def staged_margins(self, X: np.ndarray, checkpoints: list[int]) -> np.ndarray:
        """Margin of each prefix of t trees, t in checkpoints, in one pass."""
        X = checked_rows(X, len(self.feature_names))
        lowest = 1 if self.kind == "forest" else 0  # a forest has no empty prefix
        bad = [t for t in checkpoints if not lowest <= t <= len(self.trees)]
        if bad:
            raise FitError(f"checkpoints out of range: {bad}")
        running = np.full(len(X), self.base_score)
        wanted = set(checkpoints)
        staged = {}
        for t in range(len(self.trees) + 1):
            if t:
                running += self.learning_rate * apply_tree(self.trees[t - 1], X)
            if t in wanted:
                staged[t] = running / t if self.kind == "forest" else running.copy()
        return np.vstack([staged[t] for t in checkpoints])

    def staged_proba(self, X: np.ndarray, checkpoints: list[int]) -> np.ndarray:
        """P(Recovered) of each prefix of t trees, t in checkpoints."""
        margins = self.staged_margins(X, checkpoints)
        return sigmoid(margins) if self.kind == "gbdt" else margins

    def margin(self, X: np.ndarray) -> np.ndarray:
        return self.staged_margins(X, [len(self.trees)])[0]

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        p1 = self.staged_proba(X, [len(self.trees)])[0]
        return np.column_stack([1.0 - p1, p1])

    def predict(self, X: np.ndarray) -> np.ndarray:
        threshold = 0.0 if self.kind == "gbdt" else 0.5
        return (self.margin(X) > threshold).astype(np.int8)
