import csv
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_force_shapley, random_cover_tree
from vetpv import explain
from vetpv.boosting import GbdtParams, fit_gbdt
from vetpv.explain import (
    ExplainError,
    SpeciesGroupMap,
    aggregate_shap,
    base_value,
    group_rows,
    local_accuracy_error,
    model_margin,
    shap_summary,
    shap_values_csv,
    species_of_rows,
    tree_shap_batch,
)
from vetpv.forest import ForestParams, fit_forest
from vetpv.matrix import DEATH, RECOVERED, ColumnMeta, FeatureMatrix, from_arrays
from vetpv.trees import DecisionTreeModel, FlatTree, TreeParams


def flat_tree(*nodes):
    """FlatTree from (left, right, feature, threshold, value, cover) node tuples."""
    left, right, feature, threshold, value, cover = (np.array(c) for c in zip(*nodes))
    return FlatTree(left, right, feature, threshold, value, cover)


def single_tree_model(tree, n_features=2):
    return DecisionTreeModel(tree, [f"f{j}" for j in range(n_features)], TreeParams())


def explain_rows(model, X):
    """phi and base value of every row of X."""
    return tree_shap_batch(model, np.atleast_2d(X)), base_value(model)


class TestTreeShap:
    def test_single_leaf_has_zero_attributions(self):
        model = single_tree_model(flat_tree((-1, -1, -1, 0.0, 0.8, 10.0)))
        phi, base = explain_rows(model, [1.0, 2.0])
        assert np.allclose(phi, 0.0)
        assert base == pytest.approx(0.8)

    def test_worked_stump_example(self):
        tree = flat_tree(
            (1, 2, 0, 0.5, 0.0, 100.0),
            (-1, -1, -1, 0.0, 0.0, 50.0),
            (-1, -1, -1, 0.0, 1.0, 50.0),
        )
        model = single_tree_model(tree, n_features=1)
        phi, base = explain_rows(model, [0.7])
        assert base == pytest.approx(0.5)
        assert phi[0, 0] == pytest.approx(0.5)

    def test_matches_exhaustive_subset_oracle_on_random_trees(self, rng):
        for _ in range(40):
            flat = random_cover_tree(rng, n_features=4, max_depth=3)
            model = single_tree_model(flat, n_features=4)
            X = rng.uniform(size=(4, 4))
            phi = tree_shap_batch(model, X)
            for x, got in zip(X, phi):
                assert np.allclose(got, brute_force_shapley(flat, x, 4), atol=1e-9)

    def test_local_accuracy_on_fixture_gbdt(self, separable_matrix):
        model = fit_gbdt(separable_matrix, GbdtParams(n_rounds=30, max_depth=3))
        X = separable_matrix.values[::5]
        phi, base = explain_rows(model, X)
        assert np.allclose(base + phi.sum(axis=1), model_margin(model, X), rtol=0, atol=1e-9)

    def test_local_accuracy_on_forest(self, separable_matrix):
        model = fit_forest(separable_matrix, ForestParams(n_trees=10, max_depth=3, seed=2))
        X = separable_matrix.values[:40:4]
        phi, base = explain_rows(model, X)
        assert np.allclose(base + phi.sum(axis=1), model_margin(model, X), rtol=0, atol=1e-9)

    def test_dummy_feature_gets_zero(self, rng):
        # trees that never split on feature 3
        for _ in range(10):
            tree = random_cover_tree(rng, n_features=3, max_depth=3)
            model = single_tree_model(tree, n_features=4)
            x = rng.uniform(size=4)
            phi, _ = explain_rows(model, x)
            assert phi[0, 3] == 0.0

    def test_repeated_feature_on_path_handled(self, rng):
        flat = flat_tree(
            (1, 4, 0, 0.6, 0.0, 90.0),
            (2, 3, 0, 0.3, 0.0, 60.0),
            (-1, -1, -1, 0.0, 1.0, 20.0),
            (-1, -1, -1, 0.0, 2.0, 40.0),
            (-1, -1, -1, 0.0, 5.0, 30.0),
        )
        model = single_tree_model(flat, n_features=2)
        X = np.array([[x0, 0.5] for x0 in (0.1, 0.45, 0.9)])
        for x, got in zip(X, tree_shap_batch(model, X)):
            assert np.allclose(got, brute_force_shapley(flat, x, 2), atol=1e-12)

    def test_row_width_checked(self, separable_matrix):
        model = fit_gbdt(separable_matrix, GbdtParams(n_rounds=2))
        with pytest.raises(ExplainError):
            tree_shap_batch(model, np.zeros((1, separable_matrix.n_cols + 2)))

    def test_empty_child_matches_oracle(self):
        model = empty_child_model()
        X = TestLocalAccuracyGate.X
        phi = tree_shap_batch(model, X)
        assert np.array_equal(phi, [[-1.0, 0.0], [0.0, 0.0]])
        for x, got in zip(X, phi):
            assert np.array_equal(got, brute_force_shapley(model.tree, x, 2))

    def test_rows_do_not_depend_on_blocking(self, separable_matrix, monkeypatch):
        model = fit_forest(separable_matrix, ForestParams(n_trees=6, max_depth=6, seed=3))
        X = separable_matrix.values[:37]
        whole = tree_shap_batch(model, X)
        by_row = np.vstack([tree_shap_batch(model, x[None]) for x in X])
        assert np.array_equal(whole.view(np.uint64), by_row.view(np.uint64))
        for cells in (1, 500, 1 << 20):
            monkeypatch.setattr(explain, "_BLOCK_CELLS", cells)
            blocked = tree_shap_batch(model, X)
            assert np.array_equal(whole.view(np.uint64), blocked.view(np.uint64))


def threshold_rows(draw, tree, n_features):
    """Rows whose values sit on the tree's thresholds, on their np.nextafter
    neighbours, or anywhere in [0, 1]; column 2 is constant across the rows."""
    split = tree.children_left != -1
    cuts = tree.threshold[split]
    values = [0.0, 1.0, *cuts, *np.nextafter(cuts, -np.inf), *np.nextafter(cuts, np.inf)]
    pick = st.sampled_from(values) | st.floats(0.0, 1.0)
    n_rows = draw(st.integers(1, 6))
    X = np.array([[draw(pick) for _ in range(n_features)] for _ in range(n_rows)])
    X[:, 2] = X[0, 2]
    return X


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_batch_phi_matches_oracle_on_thresholds(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    tree = random_cover_tree(rng, n_features=3, max_depth=4)
    model = single_tree_model(tree, n_features=3)
    X = threshold_rows(data.draw, tree, 3)
    phi = tree_shap_batch(model, X)
    for x, got in zip(X, phi):
        assert np.allclose(got, brute_force_shapley(tree, x, 3), rtol=0, atol=1e-12)
    assert np.allclose(base_value(model) + phi.sum(axis=1), model.predict_proba(X)[:, 1],
                       rtol=0, atol=1e-12)


def grouped_matrix():
    """Matrix with a species categorical and two AE indicator columns."""
    columns = [
        ColumnMeta(name="age_years", kind="numeric", source_field="age_years"),
        ColumnMeta(
            name="species",
            kind="encoded_categorical",
            category_map={"Dog": 1, "Cattle": 2, "Chicken": 3},
            source_field="species",
        ),
        ColumnMeta(name="ae_terms=Heart disorders", kind="multi_hot",
                   source_vocabulary=("Heart disorders", "Rash"), source_field="ae_terms"),
        ColumnMeta(name="ae_terms=Rash", kind="multi_hot",
                   source_vocabulary=("Heart disorders", "Rash"), source_field="ae_terms"),
        ColumnMeta(name="ae_terms=OTHER", kind="multi_hot",
                   source_vocabulary=("Heart disorders", "Rash"), source_field="ae_terms"),
        ColumnMeta(name="ingredients=DrugX", kind="multi_hot",
                   source_vocabulary=("DrugX",), source_field="ingredients"),
        ColumnMeta(name="ingredients=OTHER", kind="multi_hot",
                   source_vocabulary=("DrugX",), source_field="ingredients"),
    ]
    values = np.array(
        [
            # age, species, heart, rash, other, drugx, other
            [2.0, 1, 1, 0, 0, 1, 0],
            [4.0, 1, 0, 1, 0, 0, 0],
            [1.0, 2, 1, 0, 0, 1, 0],
            [3.0, 3, 0, 0, 0, 0, 0],
        ]
    )
    labels = np.array([DEATH, RECOVERED, DEATH, RECOVERED], dtype=np.int8)
    return FeatureMatrix(values=values, columns=columns, keys=["a", "b", "c", "d"], labels=labels)


class TestAggregation:
    def test_worked_single_active_indicator(self):
        matrix = grouped_matrix()
        phis = [
            [0.1, 0.0, -0.4, 0.0, 0.0, 0.2, 0.0],
            [0.2, 0.0, 0.0, 0.3, 0.0, 0.0, 0.0],
            [0.0, 0.0, -0.6, 0.0, 0.0, 0.1, 0.0],
            [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        ]
        groups = SpeciesGroupMap.load()
        rankings = aggregate_shap(np.asarray(phis, dtype=float), matrix, groups, "ae_term")
        companion = rankings["Companion"]
        heart = [e for e in companion.entries if e.name == "Heart disorders"][0]
        assert heart.mean_signed_shap == pytest.approx(-0.4)
        assert heart.support == 1
        rash = [e for e in companion.entries if e.name == "Rash"][0]
        assert rash.mean_signed_shap == pytest.approx(0.3)
        # mean |phi| runs over every group row
        assert heart.mean_abs_shap == pytest.approx(0.2)

    def test_inactive_indicator_excluded(self):
        matrix = grouped_matrix()
        phis = [[0.0] * 7] * 4
        groups = SpeciesGroupMap.load()
        rankings = aggregate_shap(np.asarray(phis, dtype=float), matrix, groups, "ae_term")
        poultry = rankings["Poultry"]  # row d has no active AE indicators
        assert poultry.entries == []

    def test_other_column_left_out_of_term_rankings(self):
        matrix = grouped_matrix()
        phis = [[0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 1.0]] * 4
        groups = SpeciesGroupMap.load()
        rankings = aggregate_shap(np.asarray(phis, dtype=float), matrix, groups, "ingredient")
        names = [e.name for e in rankings["Companion"].entries]
        assert "OTHER" not in names

    def test_matches_group_by_oracle(self, rng):
        matrix = grouped_matrix()
        phis = rng.normal(size=(4, 7))
        groups = SpeciesGroupMap.load()
        rankings = aggregate_shap(np.asarray(phis, dtype=float), matrix, groups, "ae_term")
        # independent recomputation for the Companion group (rows 0 and 1)
        rows = [0, 1]
        heart_active = [i for i in rows if matrix.values[i, 2] == 1.0]
        expected_signed = float(np.mean([phis[i][2] for i in heart_active]))
        expected_abs = float(np.mean([abs(phis[i][2]) for i in rows]))
        heart = [e for e in rankings["Companion"].entries if e.name == "Heart disorders"][0]
        assert heart.mean_signed_shap == pytest.approx(expected_signed)
        assert heart.mean_abs_shap == pytest.approx(expected_abs)
        signed = [e.mean_signed_shap for e in rankings["Companion"].entries]
        assert signed == sorted(signed, reverse=True)

    def test_empty_group_omitted_with_warning(self, caplog):
        matrix = grouped_matrix()
        matrix.values[3, 1] = 1  # move the only poultry row to Dog
        phis = [[0.0] * 6 + [0.0]] * 4
        with caplog.at_level("WARNING"):
            rankings = aggregate_shap(
                np.asarray(phis, dtype=float), matrix, SpeciesGroupMap.load(), "ae_term"
            )
        assert "Poultry" not in rankings
        assert "no rows" in caplog.text

    def test_species_not_in_map_is_an_error(self):
        matrix = grouped_matrix()
        matrix.columns[1].category_map["Llama"] = 4
        matrix.values[3, 1] = 4
        groups = SpeciesGroupMap.load()
        with pytest.raises(ExplainError) as err:
            group_rows(matrix, groups)
        assert "Llama" in str(err.value)

    def test_species_recovery_and_unknown_code(self):
        matrix = grouped_matrix()
        matrix.values[3, 1] = 0  # UNKNOWN code
        names = species_of_rows(matrix)
        assert names == ["Dog", "Dog", "Cattle", "UNKNOWN"]
        by_group = group_rows(matrix, SpeciesGroupMap.load())
        assert list(by_group["Poultry"]) == []


class TestSummary:
    def test_top_k_clamped_and_sorted_by_mean_abs(self, rng):
        matrix = grouped_matrix()
        phis = rng.normal(size=(4, 7))
        rows = np.array([0, 1, 2, 3])
        summary = shap_summary(phis, matrix, rows, top_k=50)
        assert len(summary) == 7  # clamped to the feature count
        means = np.abs(phis).mean(axis=0)
        expected_order = [matrix.columns[j].name for j in np.argsort(-means, kind="stable")]
        assert [name for name, _ in summary] == expected_order

    def test_constant_feature_normalizes_to_midpoint(self):
        matrix = grouped_matrix()
        phis = [[1.0, 0, 0, 0, 0, 0, 0]] * 4
        summary = shap_summary(np.asarray(phis), matrix, np.array([0, 1]), top_k=1)
        name, points = summary[0]
        assert name == "age_years"
        # phi constant across rows
        assert {p[1] for p in points} == {1.0}

    def test_small_group_warns_but_emits(self, caplog):
        matrix = grouped_matrix()
        with caplog.at_level("WARNING"):
            summary = shap_summary(np.zeros((4, 7)), matrix, np.array([0]), top_k=2)
        assert len(summary) == 2
        assert "fewer than 2 rows" in caplog.text


class TestGroupMap:
    def test_bundled_map_loads(self):
        groups = SpeciesGroupMap.load()
        assert groups.group_of("dog") == "Companion"
        assert groups.group_of("Cattle") == "Livestock"
        assert groups.group_of("turkey") == "Poultry"

    def test_unknown_group_name_rejected(self, tmp_path):
        bad = tmp_path / "groups.tsv"
        bad.write_text("species\tgroup\nDog\tMarsupial\n")
        with pytest.raises(ExplainError):
            SpeciesGroupMap.load(bad)

    def test_validate_covers_lists_missing(self):
        groups = SpeciesGroupMap.load()
        with pytest.raises(ExplainError) as err:
            groups.validate_covers(["Dog", "Llama", "Alpaca"])
        assert "Alpaca" in str(err.value) and "Llama" in str(err.value)


def test_batch_explanation_aligns_keys(separable_matrix):
    model = fit_gbdt(separable_matrix, GbdtParams(n_rounds=5, max_depth=2))
    subset = separable_matrix.take_rows(np.arange(7))
    phi, base = explain_rows(model, subset.values)
    records = list(csv.DictReader(io.StringIO("".join(shap_values_csv(phi, base, subset)))))
    assert [r["key"] for r in records[:: subset.n_cols]] == subset.keys
    assert [float(r["phi"]) for r in records] == phi.ravel().tolist()
    assert {r["base_value"] for r in records} == {repr(base)}


def empty_child_model():
    """A split with an empty left child (cover 0), as adjacent-float splits
    made before the threshold fix."""
    tree = flat_tree(
        (1, 2, 0, 0.5, 0.0, 10.0),
        (-1, -1, -1, 0.0, 0.0, 0.0),
        (-1, -1, -1, 0.0, 1.0, 10.0),
    )
    return single_tree_model(tree)


class TestLocalAccuracyGate:
    X = np.array([[0.2, 0.0], [0.7, 0.0]])

    def test_nan_row_counts_whatever_the_row_order(self):
        phi = np.array([[0.5, -0.5], [np.nan, 0.0]])  # a finite row, then a NaN row
        margins = np.zeros(2)
        assert local_accuracy_error(phi[:1], 0.0, margins[:1]) == 0.0
        assert np.isnan(local_accuracy_error(phi[:1], np.nan, margins[:1]))
        for rows in (phi, phi[::-1]):
            assert np.isnan(local_accuracy_error(rows, 0.0, margins))

    def test_explain_stage_fails_on_nan_attributions(self, small_corpus, tmp_path):
        from vetpv import pipeline
        from vetpv.config import load_config

        nan_leaf = single_tree_model(flat_tree(
            (1, 2, 0, 0.5, 0.0, 10.0),
            (-1, -1, -1, 0.0, 0.0, 4.0),
            (-1, -1, -1, 0.0, np.nan, 6.0),
        ))
        config = load_config(small_corpus / "pipeline.ini")
        store = pipeline.ArtifactStore(tmp_path)
        matrices = {config.explain_dataset: from_arrays(self.X, np.array([0, 1]))}
        with pytest.raises(pipeline.StageError, match="nan"):
            pipeline.stage_explain(config, store, matrices, nan_leaf)
        assert not store.has("shap_values")
