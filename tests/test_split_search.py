"""The shared split-search kernel against the brute-force oracles.

CART is checked through fit_cart's root split against brute_force_best_split,
boosting through find_splits with the second-order gain against
brute_force_best_gain_split, and one batched find_splits call over several
nodes against both oracles node by node. Inputs are built to hold the awkward
cases: tied gains, duplicate rows, constant, binary and integer-coded columns,
non-unit weights and min_leaf / min_child_weight exactly at a split's edge.
Values sit on a grid of eighths, so every sum is exact in any order and the
oracles' gains equal the kernel's; adjacent floats have their own tests.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import brute_force_best_gain_split, brute_force_best_split
from vetpv import trees
from vetpv.boosting import GbdtParams, fit_gbdt, gain_score
from vetpv.explain import tree_shap_batch
from vetpv.forest import ForestParams, fit_forest
from vetpv.matrix import from_arrays
from vetpv.models import ModelSpec, fit_model, serialize_model
from vetpv.trees import TreeParams, find_splits, fit_cart, gini_score, rank_bins

COLUMN_KINDS = ("grid", "binary", "integer", "constant", "copy", "mirror")


@st.composite
def matrices(draw, max_rows=20):
    """A small matrix mixing column kinds, with some rows repeated."""
    n = draw(st.integers(2, max_rows))
    columns = []
    for kind in draw(st.lists(st.sampled_from(COLUMN_KINDS), min_size=1, max_size=4)):
        if kind in ("copy", "mirror") and columns:
            source = columns[draw(st.integers(0, len(columns) - 1))]
            columns.append(source.copy() if kind == "copy" else -source)
            continue
        if kind == "binary":
            codes = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
        elif kind == "integer":
            codes = draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
        elif kind == "constant":
            codes = [draw(st.integers(-3, 3))] * n
        else:
            codes = [c / 8 for c in draw(st.lists(st.integers(-80, 80), min_size=n, max_size=n))]
        columns.append(np.asarray(codes, dtype=np.float64))
    X = np.column_stack(columns)
    repeats = draw(st.lists(st.integers(0, len(X) - 1), max_size=len(X) // 2))
    return np.vstack([X, X[repeats]])


def labels_for(draw, n):
    return np.asarray(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), dtype=np.int8)


def root_split(tree):
    return None if tree.children_left[0] == -1 else (tree.feature[0], tree.threshold[0])


def oracle_split(found):
    return None if found is None else (found[1], found[2])


def kernel_gain_split(X, g, h, reg_lambda, min_child_weight):
    bins = rank_bins(X)
    score = gain_score(min_child_weight, reg_lambda)
    [found] = find_splits(bins, [np.arange(len(X))], None, np.array([g, h]), score)
    if found is None:
        return None
    feature, lo, hi = found
    return feature, bins.threshold(feature, lo, hi)


class TestGiniAgainstOracle:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_root_split_matches_exhaustive_search(self, data):
        X = data.draw(matrices())
        y = labels_for(data.draw, len(X))
        tree = fit_cart(X, y, TreeParams(max_depth=1))
        assert root_split(tree) == oracle_split(brute_force_best_split(X, y))

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_integer_weights_match_repeated_rows(self, data):
        X = data.draw(matrices(max_rows=12))
        y = labels_for(data.draw, len(X))
        w = np.asarray(data.draw(st.lists(st.integers(1, 4), min_size=len(X), max_size=len(X))))
        tree = fit_cart(X, y, TreeParams(max_depth=1), sample_weight=w.astype(float))
        oracle = brute_force_best_split(np.repeat(X, w, axis=0), np.repeat(y, w))
        assert root_split(tree) == oracle_split(oracle)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_min_leaf_at_the_edge_of_the_best_split(self, data):
        X = data.draw(matrices())
        y = labels_for(data.draw, len(X))
        oracle = brute_force_best_split(X, y)
        if oracle is None:
            return
        _, feature, threshold = oracle
        smaller = int(min((X[:, feature] < threshold).sum(), (X[:, feature] >= threshold).sum()))
        at_edge = fit_cart(X, y, TreeParams(max_depth=1, min_leaf=smaller))
        assert root_split(at_edge) == (feature, threshold)
        past_edge = fit_cart(X, y, TreeParams(max_depth=1, min_leaf=smaller + 1))
        assert root_split(past_edge) != (feature, threshold)
        if root_split(past_edge) is not None:
            left = X[:, past_edge.feature[0]] < past_edge.threshold[0]
            assert min(left.sum(), (~left).sum()) >= smaller + 1


class TestGainAgainstOracle:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_best_split_matches_exhaustive_search(self, data):
        X = data.draw(matrices())
        n = len(X)
        g = np.asarray(data.draw(st.lists(st.integers(-8, 8), min_size=n, max_size=n))) / 8
        h = np.asarray(data.draw(st.lists(st.integers(1, 8), min_size=n, max_size=n))) / 8
        lam = data.draw(st.sampled_from([0.0, 0.5, 1.0]))
        mcw = data.draw(st.sampled_from([0.0, 0.25, 1.0]))
        oracle = brute_force_best_gain_split(X, g, h, lam, mcw)
        assert kernel_gain_split(X, g, h, lam, mcw) == oracle_split(oracle)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_min_child_weight_at_the_edge_of_the_best_split(self, data):
        X = data.draw(matrices())
        n = len(X)
        g = np.asarray(data.draw(st.lists(st.integers(-8, 8), min_size=n, max_size=n))) / 8
        h = np.asarray(data.draw(st.lists(st.integers(1, 8), min_size=n, max_size=n))) / 8
        oracle = brute_force_best_gain_split(X, g, h, 1.0, 0.0)
        if oracle is None:
            return
        _, feature, threshold = oracle
        left = X[:, feature] < threshold
        edge = float(min(h[left].sum(), h[~left].sum()))
        for mcw in (edge, edge + 0.125):
            expected = oracle_split(brute_force_best_gain_split(X, g, h, 1.0, mcw))
            assert kernel_gain_split(X, g, h, 1.0, mcw) == expected
        assert kernel_gain_split(X, g, h, 1.0, edge) == (feature, threshold)

    def test_random_real_valued_gradients(self):
        rng = np.random.default_rng(2024)
        for _ in range(40):
            n, d = int(rng.integers(5, 60)), int(rng.integers(1, 5))
            X = rng.normal(size=(n, d)).round(int(rng.integers(0, 3)))
            p = rng.uniform(0.05, 0.95, size=n)
            y = rng.integers(0, 2, size=n)
            w = rng.uniform(0.5, 2.0, size=n)
            g, h = (p - y) * w, p * (1 - p) * w
            oracle = brute_force_best_gain_split(X, g, h, 1.0, 0.1)
            assert kernel_gain_split(X, g, h, 1.0, 0.1) == oracle_split(oracle)

    def test_mirrored_column_tie_goes_to_lowest_feature(self):
        rng = np.random.default_rng(8)
        for _ in range(40):
            x = rng.normal(size=60)
            p = rng.uniform(0.05, 0.95, size=60)
            g, h = p - (x > 0), p * (1 - p)
            for X in (np.column_stack([x, -x]), np.column_stack([-x, x])):
                assert kernel_gain_split(X, g, h, 1.0, 0.0)[0] == 0


def adjacent_float_column(draw, n):
    """A column whose values come in pairs a, nextafter(a, +inf)."""
    base = np.asarray(draw(st.lists(st.integers(1, 400), min_size=1, max_size=4))) / 10
    pool = np.concatenate([base, np.nextafter(base, np.inf)])
    return pool[draw(st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n))]


def adjacent_float_matrix(draw):
    n = draw(st.integers(4, 30))
    return np.column_stack([adjacent_float_column(draw, n) for _ in range(draw(st.integers(1, 3)))])


def child_covers(tree):
    split = tree.children_left != -1
    return np.concatenate([tree.cover[tree.children_left[split]],
                           tree.cover[tree.children_right[split]]])


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_adjacent_floats_never_leave_an_empty_child(data):
    X = adjacent_float_matrix(data.draw)
    y = labels_for(data.draw, len(X))
    matrix = from_arrays(X, y)
    tree = fit_model(ModelSpec("tree", {"max_depth": 4}), matrix)
    gbdt = fit_gbdt(matrix, GbdtParams(n_rounds=3, max_depth=3, learning_rate=0.3))
    for flat in [tree.tree, *gbdt.trees]:
        assert all(cover > 0 for cover in child_covers(flat))
    for model in (tree, gbdt):
        assert np.isfinite(tree_shap_batch(model, X)).all()


def test_adjacent_pair_splits_between_its_values():
    low = 3.5999999999999996
    assert (low + 3.6) / 2 == low  # the midpoint rounds onto the lower value
    X = np.array([[low], [low], [3.6], [3.6]])
    tree = fit_cart(X, np.array([0, 0, 1, 1]), TreeParams(max_depth=1))
    assert tree.threshold[0] == 3.6
    assert (tree.cover[tree.children_left[0]], tree.cover[tree.children_right[0]]) == (2.0, 2.0)


def rank_matrix(X):
    """Each column's values replaced by their rank: the same partitions, with
    midpoints that never round onto a value."""
    return np.column_stack([np.unique(c, return_inverse=True)[1] for c in X.T]).astype(np.float64)


@st.composite
def search_jobs(draw):
    """One matrix with labels and eighths-grid gradients, and several jobs on
    its one coding: rows drawn with repeats and two candidate columns each,
    plus a job on two constant columns, a single-class job, a job on an
    adjacent-float column and a job on a column and its exact copy."""
    base = draw(matrices())
    n = len(base)
    y = labels_for(draw, n)
    X = np.column_stack([base, np.full(n, 2.0), np.full(n, -1.0), adjacent_float_column(draw, n),
                         base[:, 0]])
    d = X.shape[1]
    pair = st.lists(st.integers(0, d - 1), min_size=2, max_size=2, unique=True).map(sorted)

    def some_rows():
        return np.asarray(draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n)))

    jobs = [(some_rows(), draw(pair)) for _ in range(draw(st.integers(1, 4)))]
    jobs += [(some_rows(), [d - 4, d - 3]), (np.flatnonzero(y == y[0]), draw(pair)),
             (some_rows(), [0, d - 2]), (some_rows(), [0, d - 1])]
    jobs = [jobs[i] for i in draw(st.permutations(range(len(jobs))))]
    g = np.asarray(draw(st.lists(st.integers(-8, 8), min_size=n, max_size=n))) / 8
    h = np.asarray(draw(st.lists(st.integers(1, 8), min_size=n, max_size=n))) / 8
    return X, y, g, h, jobs


def batched(bins, jobs, stats, score):
    rows, columns = [r for r, _ in jobs], np.array([c for _, c in jobs])
    return find_splits(bins, rows, columns, stats, score)


class TestBatchedSearch:
    @given(search_jobs())
    @settings(max_examples=150, deadline=None)
    def test_every_gini_job_matches_its_oracle(self, case):
        X, y, _, _, jobs = case
        bins = rank_bins(X)
        stats = np.array([np.ones(len(y)), (y == 1).astype(float)])
        found = batched(bins, jobs, stats, gini_score(1))
        for (rows, columns), split in zip(jobs, found):
            ranks = rank_matrix(X[rows][:, columns])
            oracle = brute_force_best_split(ranks, y[rows])
            if oracle is None:
                assert split is None
                continue
            _, f, threshold = oracle
            feature, lo, hi = split
            assert feature == columns[f]
            left = bins.codes[rows, feature] <= lo
            assert np.array_equal(left, ranks[:, f] < threshold)
            assert np.array_equal(left, X[rows, feature] < bins.threshold(feature, lo, hi))
        d = X.shape[1]
        for (rows, columns), split in zip(jobs, found):
            if columns == [d - 4, d - 3] or len(set(y[rows])) == 1:
                assert split is None
            if columns == [0, d - 1] and split is not None:
                assert split[0] == 0

    @given(search_jobs(), st.sampled_from([0.0, 0.5, 1.0]), st.sampled_from([0.0, 0.25, 1.0]))
    @settings(max_examples=150, deadline=None)
    def test_every_gain_job_matches_its_oracle(self, case, lam, mcw):
        X, _, g, h, jobs = case
        bins = rank_bins(X)
        found = batched(bins, jobs, np.array([g, h]), gain_score(mcw, lam))
        for (rows, columns), split in zip(jobs, found):
            oracle = brute_force_best_gain_split(X[rows][:, columns], g[rows], h[rows], lam, mcw)
            expected = None if oracle is None else (columns[oracle[1]], oracle[2])
            got = None if split is None else (split[0], bins.threshold(*split))
            assert got == expected

    @given(search_jobs())
    @settings(max_examples=60, deadline=None)
    def test_a_job_finds_the_same_split_alone(self, case):
        X, y, g, h, jobs = case
        bins = rank_bins(X)
        stats = np.array([np.ones(len(y)), (y == 1).astype(float), g, h])
        score = gini_score(1)
        alone = [batched(bins, [job], stats[:2], score)[0] for job in jobs]
        assert batched(bins, jobs, stats[:2], score) == alone
        score = gain_score(0.0, 1.0)
        alone = [batched(bins, [job], stats[2:], score)[0] for job in jobs]
        assert batched(bins, jobs, stats[2:], score) == alone


@pytest.mark.parametrize("bootstrap", [True, False])
def test_forest_does_not_depend_on_the_batch_bound(bootstrap, separable_matrix, monkeypatch):
    params = ForestParams(n_trees=6, max_depth=5, features_per_split=2, seed=9, bootstrap=bootstrap)
    texts = set()
    for bound in (1, trees.SEARCH_ELEMENTS, 1 << 30):
        monkeypatch.setattr(trees, "SEARCH_ELEMENTS", bound)
        texts.add(serialize_model(fit_forest(separable_matrix, params)))
    assert len(texts) == 1
