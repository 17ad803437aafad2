import csv
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (brute_force_shapley, random_cover_tree, rankings_csv_per_row,
                     shap_values_csv_per_row, species_groups_per_row, summary_points_csv_per_row)
from vetpv import explain
from vetpv.boosting import GbdtParams, fit_gbdt
from vetpv.explain import (
    LOCAL_ACCURACY_TOL,
    ExplainError,
    aggregate_shap,
    base_value,
    group_rows,
    load_species_groups,
    local_accuracy_error,
    model_margin,
    rankings_csv,
    shap_summary,
    shap_values_csv,
    summary_points_csv,
    tree_shap_batch,
)
from vetpv.forest import ForestParams, fit_forest
from vetpv.matrix import DEATH, RECOVERED, ColumnMeta, FeatureMatrix, from_arrays
from vetpv.trees import FlatTree, TreeEnsemble


def flat_tree(*nodes):
    """FlatTree from (left, right, feature, threshold, value, cover) node tuples."""
    left, right, feature, threshold, value, cover = (np.array(c) for c in zip(*nodes))
    return FlatTree(left, right, feature, threshold, value, cover)


def single_tree_model(tree, n_features=2):
    return TreeEnsemble("tree", [tree], [f"f{j}" for j in range(n_features)])


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

    def test_local_accuracy_on_forest_of_unequal_covers(self):
        # the forest margin is the plain mean of its trees, whatever their root covers
        model = TreeEnsemble("forest", [
            flat_tree((1, 2, 0, 0.5, 0.0, 10.0), (-1, -1, -1, 0.0, 0.4, 5.0),
                      (-1, -1, -1, 0.0, 0.6, 5.0)),
            flat_tree((1, 2, 0, 0.5, 0.0, 30.0), (-1, -1, -1, 0.0, 0.2, 15.0),
                      (-1, -1, -1, 0.0, 0.3, 15.0)),
        ], ["f0"])
        X = np.array([[0.0], [1.0]])
        phi, base = explain_rows(model, X)
        assert np.allclose(model_margin(model, X), [0.3, 0.45], rtol=0, atol=1e-15)
        assert local_accuracy_error(phi, base, model_margin(model, X)) <= LOCAL_ACCURACY_TOL

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
            assert np.array_equal(got, brute_force_shapley(model.trees[0], x, 2))

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
        ColumnMeta(name="ae_terms=Heart disorders", kind="multi_hot", source_field="ae_terms"),
        ColumnMeta(name="ae_terms=Rash", kind="multi_hot", source_field="ae_terms"),
        ColumnMeta(name="ae_terms=OTHER", kind="multi_hot", source_field="ae_terms"),
        ColumnMeta(name="ingredients=DrugX", kind="multi_hot", source_field="ingredients"),
        ColumnMeta(name="ingredients=OTHER", kind="multi_hot", source_field="ingredients"),
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
        by_group = group_rows(matrix, load_species_groups())
        rankings = aggregate_shap(np.asarray(phis, dtype=float), matrix, by_group, "ae_term")
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
        by_group = group_rows(matrix, load_species_groups())
        rankings = aggregate_shap(np.asarray(phis, dtype=float), matrix, by_group, "ae_term")
        poultry = rankings["Poultry"]  # row d has no active AE indicators
        assert poultry.entries == []

    def test_other_column_left_out_of_term_rankings(self):
        matrix = grouped_matrix()
        phis = [[0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 1.0]] * 4
        by_group = group_rows(matrix, load_species_groups())
        rankings = aggregate_shap(np.asarray(phis, dtype=float), matrix, by_group, "ingredient")
        names = [e.name for e in rankings["Companion"].entries]
        assert "OTHER" not in names

    def test_matches_group_by_oracle(self, rng):
        matrix = grouped_matrix()
        phis = rng.normal(size=(4, 7))
        by_group = group_rows(matrix, load_species_groups())
        rankings = aggregate_shap(np.asarray(phis, dtype=float), matrix, by_group, "ae_term")
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
                np.asarray(phis, dtype=float), matrix,
                group_rows(matrix, load_species_groups()), "ae_term",
            )
        assert "Poultry" not in rankings
        assert "no rows" in caplog.text

    def test_species_not_in_map_is_an_error(self):
        matrix = grouped_matrix()
        matrix.columns[1].category_map["Llama"] = 4
        matrix.values[3, 1] = 4
        groups = load_species_groups()
        with pytest.raises(ExplainError) as err:
            group_rows(matrix, groups)
        assert "Llama" in str(err.value)

    def test_species_recovery_and_unknown_code(self):
        matrix = grouped_matrix()
        matrix.values[3, 1] = 0  # UNKNOWN code
        by_group = group_rows(matrix, load_species_groups())
        assert {g: rows.tolist() for g, rows in by_group.items()} == {
            "Companion": [0, 1], "Livestock": [2], "Poultry": []}

    def test_explain_stage_warns_once_about_unknown_species(self, small_corpus, tmp_path, caplog):
        from vetpv import pipeline
        from vetpv.config import load_config

        matrix = grouped_matrix()
        matrix.values[3, 1] = 0  # UNKNOWN code
        stump = flat_tree(
            (1, 2, 0, 2.5, 0.0, 4.0),
            (-1, -1, -1, 0.0, -0.3, 2.0),
            (-1, -1, -1, 0.0, 0.4, 2.0),
        )
        config = load_config(small_corpus / "pipeline.ini")
        outputs = pipeline.StageOutputs(pipeline.ArtifactStore(tmp_path))
        outputs["split"] = {config.explain.dataset: matrix}
        outputs["train"] = single_tree_model(stump, n_features=matrix.n_cols)
        with caplog.at_level("WARNING"):
            pipeline.stage_explain(config, outputs.store, outputs)
        unknown = [r for r in caplog.records if "unknown species" in r.getMessage()]
        assert len(unknown) == 1


class TestSummary:
    def test_top_k_clamped_and_sorted_by_mean_abs(self, rng):
        matrix = grouped_matrix()
        phis = rng.normal(size=(4, 7))
        rows = np.array([0, 1, 2, 3])
        keys, summary = shap_summary(phis, matrix, rows, top_k=50)
        assert keys == matrix.keys
        assert len(summary) == 7  # clamped to the feature count
        means = np.abs(phis).mean(axis=0)
        expected_order = [matrix.columns[j].name for j in np.argsort(-means, kind="stable")]
        assert [name for name, _, _ in summary] == expected_order

    def test_constant_feature_normalizes_to_midpoint(self):
        matrix = grouped_matrix()
        phis = [[1.0, 0, 0, 0, 0, 0, 0]] * 4
        _, summary = shap_summary(np.asarray(phis), matrix, np.array([0, 1]), top_k=1)
        name, phi, norm = summary[0]
        assert name == "age_years"
        # phi constant across rows; age 2.0 and 4.0 span the group's range
        assert set(phi.tolist()) == {1.0}
        assert norm.tolist() == [0.0, 1.0]
        # species is Dog in both rows: a constant column sits at the midpoint
        _, summary = shap_summary(np.eye(4, 7, 1), matrix, np.array([0, 1]), top_k=1)
        assert summary[0][0] == "species" and summary[0][2].tolist() == [0.5, 0.5]

    def test_small_group_warns_but_emits(self, caplog):
        matrix = grouped_matrix()
        with caplog.at_level("WARNING"):
            keys, summary = shap_summary(np.zeros((4, 7)), matrix, np.array([0]), top_k=2)
        assert keys == ["a"] and len(summary) == 2
        assert "fewer than 2 rows" in caplog.text


class TestGroupMap:
    def test_bundled_map_loads(self):
        groups = load_species_groups()
        assert groups["dog"] == "Companion"
        assert groups["cattle"] == "Livestock"
        assert groups["turkey"] == "Poultry"

    def test_unknown_group_name_rejected(self, tmp_path):
        bad = tmp_path / "groups.tsv"
        bad.write_text("species\tgroup\nDog\tMarsupial\n")
        with pytest.raises(ExplainError, match=f"{bad}:2: unknown group"):
            load_species_groups(bad)

    def test_validate_covers_lists_missing(self):
        matrix = grouped_matrix()
        matrix.columns[1].category_map.update({"Llama": 4, "Alpaca": 5, "Vicuna": 6})
        matrix.values[1:3, 1] = [4, 5]  # Vicuna has a code but no row
        with pytest.raises(ExplainError) as err:
            group_rows(matrix, load_species_groups())
        assert "['Alpaca', 'Llama']" in str(err.value)

    @pytest.mark.parametrize("rows, message", [
        ("Dog\tCompanion\nCattle\n", ":3: 1 cells, the header has 2"),
        ("Dog\tCompanion\ndog \tLivestock\n", ":3: 'dog' is on line 2 with other cells"),
    ])
    def test_ragged_or_duplicate_row_named(self, tmp_path, rows, message):
        bad = tmp_path / "groups.tsv"
        bad.write_text("species\tgroup\n" + rows)
        with pytest.raises(ExplainError) as err:
            load_species_groups(bad)
        assert str(err.value) == f"{bad}{message}"

    def test_same_group_twice_is_kept(self, tmp_path):
        path = tmp_path / "groups.tsv"
        path.write_text("species\tgroup\nDog\tCompanion\n\nDOG\tCompanion\n")
        assert load_species_groups(path) == {"dog": "Companion"}


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
        outputs = pipeline.StageOutputs(store)
        outputs["split"] = {config.explain.dataset: from_arrays(self.X, np.array([0, 1]))}
        outputs["train"] = nan_leaf
        with pytest.raises(pipeline.StageError, match="nan"):
            pipeline.stage_explain(config, store, outputs)
        with pytest.raises(pipeline.MissingArtifactError):
            store.get_text("shap_values")


def awkward_matrix(rng):
    """Seven rows whose keys hold a comma, a quote, CR or LF, a feature name
    holding a comma, a constant column, a one-row Poultry group, an UNKNOWN
    species code and a code outside the category map."""
    matrix = grouped_matrix()
    columns = [*matrix.columns[:2], ColumnMeta(name="dose,mg", kind="numeric"),
               ColumnMeta(name="constant", kind="numeric"), *matrix.columns[2:],
               ColumnMeta(name='ae_terms=Rash, "severe"', kind="multi_hot",
                          source_field="ae_terms")]
    n = 7
    values = np.column_stack([
        rng.uniform(0, 9, n), [1, 2, 1, 3, 0, 9, 2], rng.normal(size=n).round(1), np.full(n, 4.0),
        *(rng.integers(0, 2, (5, n)) | np.eye(5, n, dtype=np.int64)), [1, 1, 0, 1, 0, 0, 1]])
    keys = ["plain", "co,mma", 'quo"te', "cr\rkey", "lf\nkey", "", "#hash"]
    return FeatureMatrix(values=values, columns=columns, keys=keys)


def awkward_phi(rng, shape):
    """Attributions holding -0.0 beside 0.0, subnormals and repeated values."""
    specials = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072e-309, 0.1, 0.1, -0.3, 1e300]
    phi = rng.normal(size=shape)
    mask = rng.uniform(size=shape) < 0.6
    phi[mask] = rng.choice(specials, size=mask.sum())
    return phi


@pytest.mark.parametrize("seed", range(6))
def test_emitters_match_the_per_row_oracles(seed, monkeypatch):
    rng = np.random.default_rng(seed)
    matrix = awkward_matrix(rng)
    phi = awkward_phi(rng, (matrix.n_rows, matrix.n_cols))
    base = [0.0, -0.0, 5e-324, 0.25, -1.5, 0.1][seed]
    for block_rows in (4, 8, 256):  # one row, two rows and every row per chunk
        monkeypatch.setattr(explain, "CSV_BLOCK_ROWS", block_rows)
        assert "".join(shap_values_csv(phi, base, matrix)) == shap_values_csv_per_row(
            phi, base, matrix)

    by_group = group_rows(matrix, load_species_groups())
    expected = species_groups_per_row(matrix, explain._DATA_DIR / "species_groups.tsv")
    assert {g: rows.tolist() for g, rows in by_group.items()} == {
        g: rows.tolist() for g, rows in expected.items()}
    assert by_group["Poultry"].tolist() == [3]

    scopes = {scope: aggregate_shap(phi, matrix, by_group, scope)
              for scope in ("ae_term", "ingredient")}
    for top_n in (1, 2, 10):
        assert rankings_csv(scopes, top_n) == rankings_csv_per_row(scopes, top_n)

    for top_k in (1, 3, 20):
        summaries = {group: shap_summary(phi, matrix, rows, top_k)
                     for group, rows in by_group.items() if len(rows)}
        assert summary_points_csv(summaries) == summary_points_csv_per_row(
            phi, matrix, by_group, top_k)
