"""The histogram engine behind the split search, against the oracles.

A node's histogram (sparse two-valued block plus dense columns) and a
larger child's histogram taken as its parent's minus its sibling's are
checked against a plain per-column bincount; trees grown level by level
against a reference that grows one node per find_splits call. Inputs hold
adjacent floats, constant columns, two-valued columns whose lower value is
-1, 0 or 0.5, duplicated rows, integer and real weights and single-row
children.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import dense_histogram, grow_node_by_node
from vetpv import trees
from vetpv.boosting import GbdtParams, fit_gbdt, gain_score
from vetpv.matrix import from_arrays
from vetpv.trees import (Layout, TreeParams, find_splits, gini_score, grow_cart, grow_trees,
                         histograms, node_totals, rank_bins)

KINDS = ("two", "two", "integer", "constant", "adjacent", "real")


@st.composite
def columns_of(draw, n):
    """One column: two-valued, few integers, constant, adjacent floats or real."""
    kind = draw(st.sampled_from(KINDS))
    if kind == "two":
        lower = draw(st.sampled_from([-1.0, 0.0, 0.5]))
        upper = lower + draw(st.sampled_from([1.0, 2.5]))
        bits = np.asarray(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        return np.where(bits, upper, lower)
    if kind == "integer":
        return np.asarray(draw(st.lists(st.integers(0, 5), min_size=n, max_size=n)), dtype=float)
    if kind == "constant":
        return np.full(n, float(draw(st.integers(-3, 3))))
    if kind == "adjacent":
        base = np.asarray(draw(st.lists(st.integers(1, 40), min_size=1, max_size=3))) / 10
        pool = np.concatenate([base, np.nextafter(base, np.inf)])
        return pool[draw(st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n))]
    seed = draw(st.integers(0, 2**16))
    return np.random.default_rng(seed).normal(size=n).round(draw(st.integers(0, 2)))


@st.composite
def engine_cases(draw, max_rows=40):
    """A matrix with some rows duplicated, labels, and per-row weights
    (integers or reals) with real signed gradients."""
    n = draw(st.integers(1, max_rows))
    X = np.column_stack([draw(columns_of(n)) for _ in range(draw(st.integers(1, 6)))])
    X = np.vstack([X, X[draw(st.lists(st.integers(0, n - 1), max_size=n // 2))]])
    n = len(X)
    y = np.asarray(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    if draw(st.booleans()):
        w = rng.integers(1, 4, size=n).astype(float)
    else:
        w = rng.uniform(0.25, 3.0, size=n)
    g = (rng.uniform(0.05, 0.95, size=n) - y) * w
    return X, y, w, g


def some_rows(draw, n):
    return np.asarray(draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n)))


def assert_matches(got, want, rows, stats):
    """Counts exactly; each sum within 1e-12 of the summed magnitudes."""
    assert np.array_equal(got[0], want[0])
    scale = np.abs(stats[:, rows]).sum(axis=1)[:, None]
    assert np.all(np.abs(got[1:] - want[1:]) <= 1e-12 * scale)


def node_histogram(bins, rows, stats):
    return histograms(bins, [rows], Layout(bins, 1), stats, node_totals(stats, [rows]))


def assert_every_column_matches(bins, X, hist, rows, stats):
    """hist is one job's every-column histogram."""
    for f, want in enumerate(dense_histogram(X, rows, stats)):
        if bins.width[f] > 1:
            own = bins.compact[bins.start[f]:bins.start[f + 1]]
            assert_matches(hist[:, own], want, rows, stats)


class TestHistograms:
    @given(engine_cases(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_every_column_histograms_match_the_oracle(self, case, data):
        X, _, w, g = case
        bins, stats = rank_bins(X), np.array([w, g])
        jobs = [some_rows(data.draw, len(X)) for _ in range(data.draw(st.integers(1, 4)))]
        hist = histograms(bins, jobs, Layout(bins, len(jobs)), stats, node_totals(stats, jobs))
        width = bins.split_bins
        for j, rows in enumerate(jobs):
            assert_every_column_matches(bins, X, hist[:, j * width:(j + 1) * width], rows, stats)

    @given(engine_cases(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_drawn_column_histograms_match_the_oracle(self, case, data):
        X, _, w, g = case
        bins, stats, d = rank_bins(X), np.array([w, g]), X.shape[1]
        jobs = [some_rows(data.draw, len(X)) for _ in range(data.draw(st.integers(1, 4)))]
        k = data.draw(st.integers(1, d))
        features = np.array([sorted(data.draw(st.permutations(range(d)))[:k]) for _ in jobs])
        layout = Layout(bins, len(jobs), features)
        hist = histograms(bins, jobs, layout, stats, node_totals(stats, jobs))
        for s, (j, f) in enumerate(zip(layout.job, layout.feature)):
            want = dense_histogram(X, jobs[j], stats)[f]
            own = hist[:, layout.seg_start[s]:layout.seg_start[s + 1]]
            assert_matches(own, want, jobs[j], stats)

    @given(engine_cases(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_subtracted_sibling_matches_the_oracle(self, case, data):
        X, _, w, g = case
        bins, stats = rank_bins(X), np.array([w, g])
        parent = some_rows(data.draw, len(X))
        if len(parent) < 2:
            return
        drawn = np.asarray(data.draw(st.lists(st.booleans(), min_size=len(parent),
                                              max_size=len(parent))))
        if drawn.all() or not drawn.any():
            drawn[0] = not drawn[0]
        first = np.arange(len(parent)) == 0  # a single-row child, built and then taken
        for left in (drawn, first, ~first):
            built, taken = parent[left], parent[~left]
            larger = node_histogram(bins, parent, stats) - node_histogram(bins, built, stats)
            assert_every_column_matches(bins, X, larger, taken, stats)

    @given(engine_cases(), st.data(), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_a_job_sums_the_same_alone(self, case, data, drawn):
        X, _, w, g = case
        bins, stats, d = rank_bins(X), np.array([w, g]), X.shape[1]
        jobs = [some_rows(data.draw, len(X)) for _ in range(data.draw(st.integers(2, 4)))]
        features = np.array([np.arange(d)[:max(1, d // 2)] for _ in jobs]) if drawn else None
        layout = Layout(bins, len(jobs), features)
        together = histograms(bins, jobs, layout, stats, node_totals(stats, jobs))
        for j, rows in enumerate(jobs):
            one = Layout(bins, 1, None if features is None else features[j:j + 1])
            alone = histograms(bins, [rows], one, stats, node_totals(stats, [rows]))
            a, b = layout.seg_start[np.searchsorted(layout.job, [j, j + 1])]
            assert np.array_equal(together[:, a:b], alone)


    @given(engine_cases(), st.data(), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_a_job_scans_the_same_alone(self, case, data, drawn):
        X, _, w, g = case
        bins, stats, d = rank_bins(X), np.array([w, g]), X.shape[1]
        jobs = [some_rows(data.draw, len(X)) for _ in range(data.draw(st.integers(2, 4)))]
        features = np.array([np.arange(d)[:max(1, d // 2)] for _ in jobs]) if drawn else None
        scored = []

        def scan(rows, columns):
            """The (left, right, job) sums a search scores, or None without candidates."""
            scored.clear()
            find_splits(bins, rows, columns, stats, score)
            return scored[0] if scored else None

        def score(left, right, total, job):
            scored.append((left, right, job))
            return gain_score(0.0, 1.0)(left, right, total, job)

        together = scan(jobs, features)
        for j, rows in enumerate(jobs):
            alone = scan([rows], None if features is None else features[j:j + 1])
            if alone is None:
                assert together is None or not (together[2] == j).any()
                continue
            mine = together[2] == j
            assert np.array_equal(together[0][:, mine], alone[0])
            assert np.array_equal(together[1][:, mine], alone[1])


def route_by(bins):
    def route(rows, split):
        feature, lo, hi = split
        left = bins.codes[rows, feature] <= lo
        return rows[left], rows[~left], feature, bins.threshold(feature, lo, hi)

    return route


def search_by(bins, stats, score):
    return lambda rows: find_splits(bins, [rows], None, stats, score)[0]


def assert_same_tree(tree, nodes):
    left, right, feature, threshold, value, cover = (np.array(c) for c in zip(*nodes))
    assert np.array_equal(tree.children_left, left)
    assert np.array_equal(tree.children_right, right)
    assert np.array_equal(tree.feature, feature)
    assert np.array_equal(tree.threshold, threshold)
    assert np.array_equal(tree.value, value)
    assert np.array_equal(tree.cover, cover)


def gbdt_tree_and_reference(X, y, w, g, max_depth, lam=1.0, mcw=0.0):
    bins = rank_bins(X)
    h = np.random.default_rng(len(X)).uniform(0.05, 0.25, size=len(X)) * w
    stats, score = np.array([g, h]), gain_score(mcw, lam)

    def make_node(rows):
        return -float(g[rows].sum()) / (float(h[rows].sum()) + lam), float(w[rows].sum())

    def splittable(value, rows, depth):
        return depth < max_depth and len(rows) >= 2

    root = np.arange(len(X))
    [tree] = grow_trees(bins, stats, score, [root], make_node, splittable)
    nodes = grow_node_by_node(search_by(bins, stats, score), route_by(bins), make_node,
                              splittable, root)
    return tree, nodes


def cart_tree_and_reference(X, y, w, params):
    bins = rank_bins(X)
    stats = np.array([w, w * (y == 1)])

    def make_node(rows):
        cover, w1 = float(w[rows].sum()), float(w[rows][y[rows] == 1].sum())
        return (w1 / cover if cover > 0 else 0.0), cover

    def splittable(value, rows, depth):
        return (depth < params.max_depth and value not in (0.0, 1.0)
                and len(rows) >= 2 * params.min_leaf)

    root = np.arange(len(X))
    [tree] = grow_cart(bins, y, w, params, [root])
    nodes = grow_node_by_node(search_by(bins, stats, gini_score(params.min_leaf)),
                              route_by(bins), make_node, splittable, root)
    return tree, nodes


def wide_case(seed, n=600):
    """Many rows over few distinct values, so larger children are taken by
    subtraction, plus a real column and a constant one."""
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, n)
    X = np.column_stack([
        np.where(rng.random(n) < 0.3 + 0.4 * y, 0.5, -1.0),
        rng.integers(0, 2, n) * 2.5,
        rng.integers(0, 6, n) + y,
        np.full(n, 4.0),
        (rng.normal(size=n) + y).round(1),
        rng.integers(0, 2, n) | y,
    ])
    w = rng.uniform(0.25, 3.0, n)
    g = (rng.uniform(0.05, 0.95, n) - y) * w
    return X, y, w, g


class TestLevelWiseGrowth:
    @given(engine_cases(max_rows=120), st.integers(1, 5))
    @settings(max_examples=100, deadline=None)
    def test_gbdt_tree_equals_node_by_node_growth(self, case, depth):
        X, y, w, g = case
        assert_same_tree(*gbdt_tree_and_reference(X, y, w, g, depth))

    @given(engine_cases(max_rows=120), st.integers(1, 6), st.integers(1, 3))
    @settings(max_examples=100, deadline=None)
    def test_weighted_cart_tree_equals_node_by_node_growth(self, case, depth, min_leaf):
        X, y, w, _ = case
        assert_same_tree(*cart_tree_and_reference(X, y, w, TreeParams(depth, min_leaf)))

    @pytest.mark.parametrize("seed", range(6))
    def test_subtracted_levels_equal_node_by_node_growth(self, seed, monkeypatch):
        built, searched = [], []
        for name, seen, count in ((("histograms", built, lambda a: len(a[1])),
                                   ("best_splits", searched, lambda a: a[3].shape[1]))):
            def counted(*args, _f=getattr(trees, name), _seen=seen, _count=count):
                _seen.append(_count(args))
                return _f(*args)

            monkeypatch.setattr(trees, name, counted)
        X, y, w, g = wide_case(seed)
        assert_same_tree(*gbdt_tree_and_reference(X, y, w, g, 6))
        assert_same_tree(*cart_tree_and_reference(X, y, w, TreeParams(8, 2)))
        assert sum(built) < sum(searched)  # some children were taken by subtraction


@pytest.mark.parametrize("depth", [1, 2, 4, 6])
def test_a_gbdt_tree_searches_once_per_level(depth, monkeypatch):
    X, y, _, _ = wide_case(depth)
    searched = []  # jobs per best_splits call

    def counted(*args):
        searched.append(args[3].shape[1])
        return best_splits(*args)

    best_splits = trees.best_splits
    monkeypatch.setattr(trees, "best_splits", counted)
    fit_gbdt(from_arrays(X, y.astype(np.int8)), GbdtParams(n_rounds=3, max_depth=depth))
    assert len(searched) <= 3 * depth
    assert max(searched) >= min(depth, 2)  # a level's nodes share a call
