import dataclasses
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from oracles import brute_force_best_split, gradient_descent_logistic, walk_tree
from vetpv.baselines import (
    KnnParams,
    LogisticModel,
    LogisticParams,
    fit_knn,
    fit_logistic,
    logistic_loss_grad,
)
from vetpv.boosting import GbdtParams, fit_gbdt, sigmoid
from vetpv.config import _ini_keys
from vetpv.forest import ForestParams, fit_forest
from vetpv.matrix import DEATH, RECOVERED, from_arrays
from vetpv.models import (
    PARAMS,
    Ensemble,
    ModelSpec,
    fit_model,
    oof_fold_assignment,
    parse_model,
    serialize_model,
)
from vetpv.trees import FitError, FlatTree, TreeEnsemble, TreeParams, fit_cart


def matrix_of(X, y):
    return from_arrays(np.asarray(X, float), np.asarray(y, np.int8))


def is_leaf(tree, i=0):
    return tree.children_left[i] == -1


def split_nodes(tree):
    return np.flatnonzero(tree.children_left != -1)


TREE_SPECS = [
    ModelSpec("tree", {"max_depth": 4}),
    ModelSpec("forest", {"n_trees": 4, "max_depth": 4, "seed": 5}),
    ModelSpec("gbdt", {"n_rounds": 6, "max_depth": 3}),
]


@pytest.mark.parametrize("spec", TREE_SPECS, ids=lambda s: s.kind)
def test_fitted_trees_are_in_pre_order(spec, separable_matrix):
    model = fit_model(spec, separable_matrix)
    assert any(len(split_nodes(tree)) for tree in model.trees)
    for tree in model.trees:
        for i in split_nodes(tree):
            assert tree.children_left[i] == i + 1
            assert tree.children_right[i] > i


@pytest.mark.parametrize("spec", TREE_SPECS, ids=lambda s: s.kind)
@pytest.mark.parametrize("weights, message", [
    (np.ones(3), "shape"),
    (np.full(240, -1.0), "non-negative"),
    (np.full(240, np.nan), "finite"),
    (np.r_[np.inf, np.ones(239)], "finite"),
    (np.zeros(240), "sum to 0"),
], ids=["shape", "negative", "nan", "inf", "zero"])
def test_bad_sample_weights_rejected(spec, weights, message, separable_matrix):
    assert separable_matrix.n_rows == 240
    with pytest.raises(FitError, match=message):
        fit_model(spec, separable_matrix, sample_weight=weights)


@pytest.mark.parametrize("kind", ["logistic", "knn", "vote"])
def test_kinds_without_weights_reject_them(kind, separable_matrix):
    with pytest.raises(FitError, match="does not support sample weights"):
        fit_model(ModelSpec(kind), separable_matrix, sample_weight=np.ones(separable_matrix.n_rows))


SMALL_MEMBERS = (ModelSpec("gbdt", {"n_rounds": 3}), ModelSpec("knn"))
# one small spec of each of the seven kinds
EVERY_KIND = [
    *TREE_SPECS,
    ModelSpec("logistic"),
    ModelSpec("knn", {"k": 3}),
    ModelSpec("vote", {"members": SMALL_MEMBERS}),
    ModelSpec("stack", {"members": SMALL_MEMBERS, "n_folds": 2}),
]


def with_nan(matrix):
    values = matrix.values.copy()
    values[7, 2] = np.nan
    return from_arrays(values, matrix.labels)


@pytest.mark.parametrize("spec", EVERY_KIND, ids=lambda s: s.kind)
@pytest.mark.parametrize("bad, message", [
    (lambda m: from_arrays(m.values), "no labels"),
    (lambda m: matrix_of(np.zeros((0, m.n_cols)), np.zeros(0)), "empty"),
    (with_nan, "contains NaN"),
], ids=["unlabeled", "empty", "nan"])
def test_bad_training_matrix_fails_at_fit(spec, bad, message, separable_matrix):
    with pytest.raises(FitError, match=message):
        fit_model(spec, bad(separable_matrix))


@pytest.mark.parametrize("spec", EVERY_KIND, ids=lambda s: s.kind)
def test_bad_prediction_rows_rejected(spec, separable_matrix):
    model = fit_model(spec, separable_matrix)
    X = separable_matrix.values
    assert model.predict_proba(X[:2]).shape == (2, 2)
    for rows in (X[0], X[:2, :-1], np.hstack([X[:2], X[:2]])):
        with pytest.raises(FitError, match="expected rows of 4 features"):
            model.predict_proba(rows)
        with pytest.raises(FitError, match="expected rows of 4 features"):
            model.predict(rows)


class InputChecks:
    """The input checks of a CART-based learner; fit(X, y, min_leaf) fits it."""

    def test_empty_training_set_rejected(self):
        with pytest.raises(FitError):
            self.fit(np.zeros((0, 2)), np.zeros(0))

    def test_nan_rejected(self):
        X = np.array([[0.0], [np.nan]])
        with pytest.raises(FitError):
            self.fit(X, np.array([0, 1]))

    def test_fewer_rows_than_min_leaf_rejected(self):
        X = np.array([[0.0], [1.0], [2.0]])
        with pytest.raises(FitError, match="min_leaf=4"):
            self.fit(X, np.array([0, 1, 1]), min_leaf=4)


class TestCart(InputChecks):
    @staticmethod
    def fit(X, y, min_leaf=1):
        return fit_cart(X, y, TreeParams(min_leaf=min_leaf))

    @pytest.mark.parametrize("take, message", [
        (lambda X, y: (X, y[:10]), "one label per row"),
        (lambda X, y: (X, y[:, None]), "one label per row"),
        (lambda X, y: (X[:, 0], y), "2-D"),
    ], ids=["fewer labels", "2-D labels", "1-D matrix"])
    def test_array_shapes_rejected(self, take, message, separable_matrix):
        # a FeatureMatrix checks these itself; fit_cart takes bare arrays
        X, y = take(separable_matrix.values, separable_matrix.labels)
        with pytest.raises(FitError, match=message):
            fit_cart(X, y)

    def test_pure_labels_yield_single_leaf(self):
        tree = fit_cart(np.array([[0.0], [1.0], [2.0]]), np.array([1, 1, 1]))
        assert tree.n_nodes() == 1
        assert tree.value[0] == 1.0
        assert tree.cover[0] == 3.0

    def test_worked_1d_split_at_midpoint(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([RECOVERED, RECOVERED, DEATH, DEATH])
        tree = fit_cart(X, y, TreeParams(max_depth=3))
        assert tree.feature[0] == 0
        assert tree.threshold[0] == 1.5
        oracle = brute_force_best_split(X, y)
        assert (tree.feature[0], tree.threshold[0]) == (oracle[1], oracle[2])

    def test_max_depth_zero_gives_majority_leaf(self):
        X = np.array([[0.0], [1.0], [2.0]])
        y = np.array([1, 1, 0])
        tree = fit_cart(X, y, TreeParams(max_depth=0))
        assert tree.n_nodes() == 1
        assert tree.value[0] == pytest.approx(2 / 3)

    def test_split_tie_prefers_lowest_feature_index(self):
        # identical feature duplicated: both give the same gain
        X = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        y = np.array([1, 1, 0, 0])
        tree = fit_cart(X, y, TreeParams(max_depth=1))
        assert tree.feature[0] == 0

    def test_chosen_split_matches_exhaustive_search(self, rng):
        for _ in range(25):
            n = int(rng.integers(10, 80))
            d = int(rng.integers(1, 5))
            X = rng.normal(size=(n, d))
            y = (X[:, 0] + rng.normal(scale=0.8, size=n) > 0).astype(np.int8)
            if len(np.unique(y)) < 2:
                continue
            tree = fit_cart(X, y, TreeParams(max_depth=1))
            oracle = brute_force_best_split(X, y)
            if oracle is None:
                assert is_leaf(tree)
            else:
                assert (tree.feature[0], tree.threshold[0]) == (oracle[1], oracle[2])

    def test_cover_adds_up_recursively(self, rng):
        X = rng.normal(size=(60, 3))
        y = (X[:, 1] > 0).astype(np.int8)
        tree = fit_cart(X, y, TreeParams(max_depth=4))
        for i in split_nodes(tree):
            children = tree.cover[tree.children_left[i]] + tree.cover[tree.children_right[i]]
            assert tree.cover[i] == pytest.approx(children)
        assert tree.cover[0] == 60.0

    def test_min_leaf_respected(self, rng):
        X = rng.normal(size=(30, 2))
        y = (X[:, 0] > 0).astype(np.int8)
        tree = fit_cart(X, y, TreeParams(max_depth=6, min_leaf=5))
        assert all(tree.cover[tree.children_left == -1] >= 5)



class TestForest(InputChecks):
    @staticmethod
    def fit(X, y, min_leaf=1):
        return fit_forest(from_arrays(X, y), ForestParams(n_trees=3, max_depth=2, min_leaf=min_leaf))

    def test_degenerate_forest_equals_single_tree(self, separable_matrix):
        params = ForestParams(n_trees=1, max_depth=4, bootstrap=False,
                              features_per_split=separable_matrix.n_cols, seed=0)
        forest = fit_forest(separable_matrix, params)
        tree = fit_model(ModelSpec("tree", {"max_depth": 4}), separable_matrix)
        assert np.array_equal(
            forest.predict_proba(separable_matrix.values),
            tree.predict_proba(separable_matrix.values),
        )

    def test_bootstrap_draws_count_their_row_weight(self, separable_matrix):
        # every node's cover sums its rows' weights once per bootstrap draw, so
        # doubling every weight doubles the covers and changes nothing else
        params = ForestParams(n_trees=4, max_depth=4, seed=3)
        plain = fit_forest(separable_matrix, params)
        doubled = fit_forest(separable_matrix, params, np.full(separable_matrix.n_rows, 2.0))
        for a, b in zip(plain.trees, doubled.trees):
            assert a.cover[0] == separable_matrix.n_rows  # n draws with repeats
            assert np.array_equal(b.cover, 2 * a.cover)
            for name in ("children_left", "feature", "threshold", "value"):
                assert np.array_equal(getattr(a, name), getattr(b, name)), name

    def test_same_seed_reproduces_forest(self, separable_matrix):
        params = ForestParams(n_trees=8, max_depth=4, seed=42)
        a = fit_forest(separable_matrix, params)
        b = fit_forest(separable_matrix, params)
        assert serialize_model(a) == serialize_model(b)

    def test_forest_training_accuracy_at_least_tree(self, separable_matrix):
        y = separable_matrix.labels
        tree = fit_model(ModelSpec("tree", {"max_depth": 3}), separable_matrix)
        forest = fit_forest(separable_matrix, ForestParams(n_trees=25, max_depth=3, seed=1))
        tree_acc = np.mean(tree.predict(separable_matrix.values) == y)
        forest_acc = np.mean(forest.predict(separable_matrix.values) == y)
        assert forest_acc >= tree_acc


class TestGbdt:
    def test_base_score_closed_form(self):
        matrix = matrix_of([[0], [1], [2], [3]], [1, 1, 1, 0])
        model = fit_gbdt(matrix, GbdtParams(n_rounds=1, max_depth=1))
        assert model.base_score == pytest.approx(math.log(3))

    def test_single_leaf_value_closed_form_lambda_zero(self):
        y = np.array([1, 1, 1, 0], dtype=np.int8)
        matrix = matrix_of([[0], [1], [2], [3]], y)
        model = fit_gbdt(matrix, GbdtParams(n_rounds=1, max_depth=0, reg_lambda=0.0))
        p = sigmoid(np.full(4, model.base_score))
        g = p - y
        h = p * (1 - p)
        assert model.trees[0].n_nodes() == 1
        assert model.trees[0].value[0] == pytest.approx(-g.sum() / h.sum())

    def test_leaf_values_satisfy_closed_form_everywhere(self, rng):
        X = rng.normal(size=(80, 3))
        y = (X[:, 0] + 0.5 * X[:, 1] > 0).astype(np.int8)
        params = GbdtParams(n_rounds=5, max_depth=2, reg_lambda=1.3, learning_rate=0.3)
        model = fit_gbdt(matrix_of(X, y), params)
        margins = np.full(len(y), model.base_score)
        for tree in model.trees:
            p = sigmoid(margins)
            g = p - y
            h = p * (1 - p)

            def check(i, rows):
                if is_leaf(tree, i):
                    expected = -g[rows].sum() / (h[rows].sum() + params.reg_lambda)
                    assert tree.value[i] == pytest.approx(expected, abs=1e-12)
                    return
                left = rows[X[rows, tree.feature[i]] < tree.threshold[i]]
                right = rows[X[rows, tree.feature[i]] >= tree.threshold[i]]
                check(tree.children_left[i], left)
                check(tree.children_right[i], right)

            check(0, np.arange(len(y)))
            margins += params.learning_rate * np.array([walk_tree(tree, x) for x in X])

    def test_training_logloss_non_increasing(self, separable_matrix):
        params = GbdtParams(n_rounds=30, learning_rate=0.1, max_depth=3)
        model = fit_gbdt(separable_matrix, params)
        y = separable_matrix.labels.astype(float)
        staged = model.staged_margins(separable_matrix.values, list(range(1, 31)))
        losses = []
        for margins in staged:
            p = np.clip(sigmoid(margins), 1e-12, 1 - 1e-12)
            losses.append(float(-np.mean(y * np.log(p) + (1 - y) * np.log(1 - p))))
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_zero_rounds_rejected(self, separable_matrix):
        with pytest.raises(FitError):
            fit_gbdt(separable_matrix, GbdtParams(n_rounds=0))

    def test_empty_training_set_rejected(self):
        with pytest.raises(FitError):
            fit_gbdt(matrix_of(np.zeros((0, 2)), np.zeros(0)), GbdtParams(n_rounds=2))

    def test_zero_trees_predicts_base_probability(self):
        model = TreeEnsemble("gbdt", [], ["f0"], 0.4, 0.1)
        proba = model.predict_proba(np.array([[0.0], [5.0]]))
        assert np.allclose(proba[:, 1], sigmoid(np.array([0.4, 0.4])))


class TestBaselines:
    def test_logistic_separable_reaches_full_accuracy(self):
        X = np.array([[-2.0], [-1.0], [1.0], [2.0]])
        y = np.array([0, 0, 1, 1], dtype=np.int8)
        model = fit_logistic(matrix_of(X, y))
        assert np.array_equal(model.predict(X), y)

    def test_gradient_matches_central_differences(self, rng):
        X = rng.normal(size=(40, 3))
        y = (X[:, 0] > 0).astype(float)
        w = rng.normal(size=3)
        b = 0.3
        l2 = 0.01
        _, grad_w, grad_b = logistic_loss_grad(w, b, X, y, l2)
        eps = 1e-6

        def loss_at(wv, bv):
            loss, _, _ = logistic_loss_grad(wv, bv, X, y, l2)
            return loss

        for j in range(3):
            dw = np.zeros(3)
            dw[j] = eps
            numeric = (loss_at(w + dw, b) - loss_at(w - dw, b)) / (2 * eps)
            assert grad_w[j] == pytest.approx(numeric, abs=1e-4)
        numeric_b = (loss_at(w, b + eps) - loss_at(w, b - eps)) / (2 * eps)
        assert grad_b == pytest.approx(numeric_b, abs=1e-4)

    def test_non_convergence_warns_but_returns_model(self, separable_matrix, caplog):
        with caplog.at_level("WARNING"):
            model = fit_logistic(separable_matrix, LogisticParams(max_iter=2))
        assert not model.converged
        assert "did not converge" in caplog.text
        assert "gradient norm" in caplog.text
        assert model.predict_proba(separable_matrix.values[:3]).shape == (3, 2)

    def test_gradient_near_zero_at_optimum(self, separable_matrix):
        model = fit_logistic(separable_matrix, LogisticParams(max_iter=20_000))
        Xs = (separable_matrix.values - model.mean) / model.std
        _, grad_w, grad_b = logistic_loss_grad(
            model.weights, model.bias, Xs, separable_matrix.labels.astype(float), 1e-4
        )
        assert float(np.sqrt(grad_w @ grad_w + grad_b**2)) < 1e-5

    def test_newton_fit_matches_gradient_descent_reference(self, separable_matrix):
        X, y = separable_matrix.values, separable_matrix.labels
        model = fit_logistic(separable_matrix)
        weights, bias, mean, std, _ = gradient_descent_logistic(X, y, logistic_loss_grad)
        Xs = (X - mean) / std
        loss, grad_w, grad_b = logistic_loss_grad(model.weights, model.bias, Xs, y, 1e-4)
        reference_loss, _, _ = logistic_loss_grad(weights, bias, Xs, y, 1e-4)
        assert loss <= reference_loss
        assert math.sqrt(grad_w @ grad_w + grad_b**2) <= LogisticParams().tol
        reference = LogisticModel(weights, bias, mean, std, separable_matrix.column_names())
        assert np.array_equal(model.predict(X), reference.predict(X))

    def test_line_search_recovers_from_an_overshooting_newton_step(self):
        # the full Newton step from the sixth iterate raises the loss from 0.19 to 1.97;
        # taken undamped, the weights run off to about 1e5 and the fit never converges
        X = np.array([[-4, -16], [-8, 4], [9, 11], [10, -2], [9, 12]], dtype=float)
        y = np.array([0, 1, 0, 0, 1], dtype=np.int8)
        assert fit_logistic(matrix_of(X, y)).converged

    @given(data=st.data())
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_degenerate_matrices_fit_finite_weights(self, data, caplog):
        n = data.draw(st.integers(2, 12))
        grid = st.lists(st.integers(-8, 8), min_size=n, max_size=n)
        columns = [np.asarray(data.draw(grid)) / 4 for _ in range(data.draw(st.integers(1, 3)))]
        columns.append(np.full(n, data.draw(st.integers(-8, 8)) / 4))  # constant
        columns.append(columns[data.draw(st.integers(0, len(columns) - 2))])  # duplicated
        X = np.column_stack(columns)
        if data.draw(st.booleans()):  # perfectly separable on column 0
            y = X[:, 0] > data.draw(st.sampled_from(sorted(set(X[:, 0]))))
        else:
            y = np.asarray(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        l2 = data.draw(st.sampled_from([0.0, 1e-4]))
        caplog.clear()
        with caplog.at_level("WARNING", logger="vetpv.baselines"):
            model = fit_logistic(matrix_of(X, y), LogisticParams(l2=l2))
        assert np.isfinite(model.weights).all() and math.isfinite(model.bias)
        assert model.converged or "did not converge" in caplog.text

    def test_knn_exact_match_wins(self):
        X = np.array([[0.0, 0.0], [5.0, 5.0], [9.0, 9.0]])
        y = np.array([0, 1, 0], dtype=np.int8)
        model = fit_knn(matrix_of(X, y), KnnParams(k=1))
        assert model.predict(np.array([[5.0, 5.0]]))[0] == 1

    def test_knn_distance_weighted_probabilities_sum_to_one(self, separable_matrix):
        model = fit_knn(separable_matrix, KnnParams(k=5))
        proba = model.predict_proba(separable_matrix.values[:20])
        assert np.allclose(proba.sum(axis=1), 1.0, atol=1e-9)


def predict_proba(model, rows) -> np.ndarray:
    """Class-probability matrix for the given rows; rows sum to 1."""
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim == 1:
        rows = rows.reshape(1, -1)
    return model.predict_proba(rows)


class TestPredictProba:
    def test_rows_sum_to_one_all_models(self, separable_matrix):
        specs = [
            ModelSpec("tree", {"max_depth": 3}),
            ModelSpec("forest", {"n_trees": 5, "max_depth": 3, "seed": 0}),
            ModelSpec("gbdt", {"n_rounds": 10, "max_depth": 2}),
            ModelSpec("logistic"),
            ModelSpec("knn", {"k": 3}),
        ]
        for spec in specs:
            model = fit_model(spec, separable_matrix)
            proba = predict_proba(model, separable_matrix.values[:25])
            assert proba.shape == (25, 2)
            assert np.allclose(proba.sum(axis=1), 1.0, atol=1e-9)
            assert np.all(proba >= 0) and np.all(proba <= 1)

    def test_dimension_mismatch_rejected(self, separable_matrix):
        model = fit_model(ModelSpec("gbdt", {"n_rounds": 3}), separable_matrix)
        with pytest.raises(FitError):
            predict_proba(model, np.zeros((2, separable_matrix.n_cols + 1)))

    def test_forest_of_identical_single_leaf_trees(self):
        leaf = FlatTree(*(np.array([v]) for v in (-1, -1, -1, 0.0, 0.25, 10.0)))
        model = TreeEnsemble("forest", [leaf, leaf, leaf], ["f0"])
        proba = model.predict_proba(np.array([[1.0]]))
        assert np.allclose(proba, [[0.75, 0.25]])

    def test_matches_independent_tree_walk_oracle(self, separable_matrix, rng):
        model = fit_model(
            ModelSpec("gbdt", {"n_rounds": 12, "max_depth": 3, "learning_rate": 0.2}),
            separable_matrix,
        )
        rows = separable_matrix.values[rng.choice(separable_matrix.n_rows, 15, replace=False)]
        got = model.predict_proba(rows)[:, 1]
        for x, p in zip(rows, got):
            margin = model.base_score + model.learning_rate * sum(
                walk_tree(tree, x) for tree in model.trees
            )
            assert p == pytest.approx(float(sigmoid(np.array([margin]))[0]), abs=1e-12)


def stub_member(death_prob):
    """Single-constant model emitting the requested Death probability."""
    p_recovered = 1.0 - death_prob
    base = math.log(p_recovered / (1 - p_recovered))
    return TreeEnsemble("gbdt", [], ["f0"], base, 0.1)


class TestEnsembles:
    def test_soft_vote_is_mean_of_member_probabilities(self):
        members = [stub_member(p) for p in (0.6, 0.8, 0.7)]
        vote = Ensemble(members)
        proba = vote.predict_proba(np.array([[0.0]]))
        assert proba[0, 0] == pytest.approx(0.7)

    def test_identical_members_equal_single_member(self):
        members = [stub_member(0.3)] * 3
        vote = Ensemble(members)
        proba = vote.predict_proba(np.array([[0.0]]))
        assert np.allclose(proba, members[0].predict_proba(np.array([[0.0]])))

    def test_fewer_than_two_members_rejected(self):
        with pytest.raises(FitError):
            Ensemble([stub_member(0.5)])

    @pytest.mark.parametrize("params", [
        {"n_folds": 0},
        {"n_folds": 1},
        {"members": (ModelSpec("gbdt"),)},
    ], ids=["n_folds=0", "n_folds=1", "one member"])
    def test_bad_ensemble_params_fail_when_the_spec_is_made(self, params):
        with pytest.raises(FitError):
            ModelSpec("stack", params)

    def test_stacking_meta_features_match_per_fold_recomputation(self, separable_matrix):
        from vetpv.models import oof_meta_features

        specs = [
            ModelSpec("gbdt", {"n_rounds": 5, "max_depth": 2}),
            ModelSpec("tree", {"max_depth": 3}),
        ]
        got = oof_meta_features(specs, separable_matrix, n_folds=5, seed=17)
        folds = oof_fold_assignment(separable_matrix.labels, 5, 17)
        want = np.zeros_like(got)
        for f in range(5):
            hold = np.flatnonzero(folds == f)
            rest = np.flatnonzero(folds != f)
            part = separable_matrix.take_rows(rest)
            for m, spec in enumerate(specs):
                member = fit_model(spec, part)
                want[hold, m] = member.predict_proba(separable_matrix.values[hold])[:, 1]
        assert np.array_equal(got, want)

    def test_stacking_end_to_end(self, separable_matrix):
        specs = [
            ModelSpec("gbdt", {"n_rounds": 8, "max_depth": 2}),
            ModelSpec("forest", {"n_trees": 5, "max_depth": 3, "seed": 2}),
        ]
        spec = ModelSpec("stack", {"seed": 3, "members": tuple(specs)})
        stack = fit_model(spec, separable_matrix)
        proba = stack.predict_proba(separable_matrix.values)
        assert np.allclose(proba.sum(axis=1), 1.0)
        accuracy = np.mean(stack.predict(separable_matrix.values) == separable_matrix.labels)
        assert accuracy > 0.8
        assert stack.meta.converged


# small params of each kind, so that a fit per [model] key stays fast
SMALL_PARAMS = {
    "tree": {"max_depth": 3},
    "forest": {"n_trees": 3, "max_depth": 3},
    "gbdt": {"n_rounds": 4, "max_depth": 2},
    "logistic": {},
    "knn": {},
    "vote": {"members": SMALL_MEMBERS},
    "stack": {"members": SMALL_MEMBERS},
}

# a value other than its default for every [model] key of every kind
OTHER_VALUES = {
    ("tree", "max_depth"): 1,
    ("tree", "min_leaf"): 30,
    ("forest", "n_trees"): 2,
    ("forest", "max_depth"): 1,
    ("forest", "min_leaf"): 30,
    ("forest", "features_per_split"): 1,
    ("forest", "seed"): 1,
    ("forest", "bootstrap"): False,
    ("gbdt", "n_rounds"): 2,
    ("gbdt", "learning_rate"): 0.5,
    ("gbdt", "max_depth"): 1,
    ("gbdt", "min_child_weight"): 5.0,
    ("gbdt", "reg_lambda"): 10.0,
    ("logistic", "l2"): 1.0,
    ("logistic", "tol"): 1e-2,
    ("logistic", "max_iter"): 1,
    ("knn", "k"): 3,
    ("vote", "seed"): 1,
    ("stack", "seed"): 1,
    ("stack", "n_folds"): 3,
}


@pytest.mark.parametrize("kind, key", [(kind, key) for kind, cls in PARAMS.items()
                                       for key in _ini_keys(cls)])
def test_every_model_key_changes_the_fitted_model(kind, key, separable_matrix):
    """A [model] key that no fit reads would change the config hash and nothing else."""
    assert (kind, key) in OTHER_VALUES, f"no other value listed for {kind}.{key}"
    matrix = separable_matrix.take_rows(np.arange(80))
    # only the default members read vote's seed
    params = {} if (kind, key) == ("vote", "seed") else SMALL_PARAMS[kind]
    texts = [serialize_model(fit_model(ModelSpec(kind, {**params, key: value}), matrix))
             for value in (_ini_keys(PARAMS[kind])[key], OTHER_VALUES[kind, key])]
    assert texts[0] != texts[1]


# one small fitted model of each kind
SERIALIZED_SPECS = {spec.kind: spec for spec in [
    ModelSpec("tree", {"max_depth": 3}),
    ModelSpec("forest", {"n_trees": 4, "max_depth": 3, "seed": 5}),
    ModelSpec("gbdt", {"n_rounds": 6, "max_depth": 2}),
    ModelSpec("logistic"),
    ModelSpec("knn", {"k": 3}),
    ModelSpec("vote", {"seed": 1, "members": (
        ModelSpec("gbdt", {"n_rounds": 3}),
        ModelSpec("tree", {"max_depth": 2}),
    )}),
    ModelSpec("stack", {"seed": 1, "members": (
        ModelSpec("gbdt", {"n_rounds": 3}),
        ModelSpec("tree", {"max_depth": 2}),
    )}),
]}


def edit_line(prefix, edit):
    """A change to a model file: edit applied to its first line starting with prefix."""
    def apply(text):
        lines = text.split("\n")
        i = next(j for j, line in enumerate(lines) if line.startswith(prefix))
        lines[i] = edit(lines[i])
        return "\n".join(lines)
    return apply


def set_cell(position, value):
    """An edit setting one space-separated cell of a line."""
    return lambda line: " ".join(str(value) if j == position else cell
                                 for j, cell in enumerate(line.split(" ")))


def node_count(text):
    return int(text.split("tree nodes=")[1].split("\n")[0])


# node line cells: id, "split", feature, threshold, left, right, cover
DAMAGED_FILES = {
    "child at its node": ("tree", edit_line("0 split ", set_cell(4, 0))),
    "child before its node": ("tree", edit_line("1 split ", set_cell(4, 0))),
    "child past the last node": ("tree", lambda text: edit_line(
        "1 split ", set_cell(5, node_count(text)))(text)),
    "feature -1": ("tree", edit_line("1 split ", set_cell(2, -1))),
    "feature at the width": ("tree", edit_line("1 split ", set_cell(2, 4))),  # 4 features
    "weights too wide": ("logistic", edit_line("weights=", lambda line: line + " 1.0")),
    "one mean": ("logistic", edit_line("mean=", lambda line: line.split(" ")[0])),
    "std too narrow": ("logistic", edit_line("std=", lambda line: line.rsplit(" ", 1)[0])),
    "knn row too narrow": ("knn", edit_line("1 ", lambda line: line.rsplit(" ", 1)[0])),
    "knn row too wide": ("knn", edit_line("0 ", lambda line: line + " 1.0")),
    "unterminated member": ("vote", lambda text: "".join(text.rsplit("end-member\n", 1))),
    "unterminated meta": ("stack", lambda text: text.replace("end-meta\n", "")),
    "members nested 2000 deep": (
        "vote", lambda text: "".join(text.partition("begin-member\n")[:2]) * 2000),
    "a line after the model": ("logistic", lambda text: text + "converged=1\n"),
    "a second model": ("tree", lambda text: text + text),
}


class TestSerialization:
    @pytest.mark.parametrize("spec", SERIALIZED_SPECS.values(), ids=lambda s: s.kind)
    def test_roundtrip_preserves_text_and_predictions(self, spec, separable_matrix):
        model = fit_model(spec, separable_matrix)
        text = serialize_model(model)
        clone = parse_model(text)
        assert serialize_model(clone) == text
        assert np.array_equal(
            model.predict_proba(separable_matrix.values[:10]),
            clone.predict_proba(separable_matrix.values[:10]),
        )

    @pytest.mark.parametrize("spec", SERIALIZED_SPECS.values(), ids=lambda s: s.kind)
    def test_any_deleted_or_duplicated_line_is_refused(self, spec, separable_matrix):
        lines = serialize_model(fit_model(spec, separable_matrix)).splitlines(keepends=True)
        accepted = []
        for i, line in enumerate(lines):
            for how, edited in [("deleted", lines[:i] + lines[i + 1:]),
                                ("duplicated", lines[:i + 1] + lines[i:])]:
                try:
                    parse_model("".join(edited))
                except FitError:
                    continue
                accepted.append((how, i, line))
        assert accepted == []

    @pytest.mark.parametrize("kind, damage", DAMAGED_FILES.values(), ids=list(DAMAGED_FILES))
    def test_damaged_file_is_refused(self, kind, damage, separable_matrix):
        text = serialize_model(fit_model(SERIALIZED_SPECS[kind], separable_matrix))
        damaged = damage(text)
        assert damaged != text
        # parse only: a child that points back makes predict loop for ever
        with pytest.raises(FitError, match="model file line"):
            parse_model(damaged)

    @pytest.mark.parametrize("spec", TREE_SPECS, ids=lambda s: s.kind)
    def test_roundtrip_preserves_tree_arrays(self, spec, separable_matrix):
        model = fit_model(spec, separable_matrix)
        clone = parse_model(serialize_model(model))
        assert len(clone.trees) == len(model.trees)
        for got, want in zip(clone.trees, model.trees):
            for field in dataclasses.fields(FlatTree):
                assert np.array_equal(getattr(got, field.name), getattr(want, field.name))

    def test_node_lines_carry_cover(self, separable_matrix):
        model = fit_model(ModelSpec("tree", {"max_depth": 2}), separable_matrix)
        text = serialize_model(model)
        assert f"{model.trees[0].cover.tolist()[0]!r}" in text
        assert text.splitlines()[3].startswith("tree nodes=")
        assert model.trees[0].n_nodes() == int(text.splitlines()[3].split("=")[1])
