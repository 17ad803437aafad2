import csv
import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vetpv.forest import ForestParams, fit_forest
from vetpv.matrix import DEATH, RECOVERED, FeatureMatrix, from_arrays
from vetpv.models import ModelSpec, fit_model, serialize_model
from vetpv.ssl import (
    CheckpointSeries,
    SslError,
    SslPlan,
    compute_aum,
    evenly_spaced_checkpoints,
    make_checkpoints,
    provenance_csv,
    select_pseudo,
    ssl_train,
    staged_probabilities,
)
from vetpv.trees import TreeEnsemble


@pytest.fixture
def labeled(separable_matrix):
    return separable_matrix


@pytest.fixture
def unlabeled(rng):
    X = np.vstack([rng.normal(-1.0, 1.0, size=(30, 4)), rng.normal(1.0, 1.0, size=(30, 4))])
    return from_arrays(X, None, keys=[f"u{i}" for i in range(60)])


class TestStagedProbabilities:
    def test_boosted_single_checkpoint_equals_full_model(self, labeled):
        model = fit_model(ModelSpec("gbdt", {"n_rounds": 1, "max_depth": 2}), labeled)
        series = CheckpointSeries(model=model, checkpoints=(1,))
        staged = staged_probabilities(series, labeled.values)
        assert staged.shape == (1, labeled.n_rows)
        assert np.allclose(staged[0], model.predict_proba(labeled.values)[:, 0])

    @pytest.mark.parametrize("spec", [
        ModelSpec("gbdt", {"n_rounds": 12, "max_depth": 2}),
        ModelSpec("forest", {"n_trees": 12, "max_depth": 3, "seed": 4}),
    ], ids=lambda s: s.kind)
    def test_incremental_equals_naive_prefix_oracle(self, spec, labeled):
        model = fit_model(spec, labeled)
        checkpoints = (1, 4, 7, 12)
        staged = staged_probabilities(CheckpointSeries(model, checkpoints), labeled.values)
        for row, t in enumerate(checkpoints):
            prefix = TreeEnsemble(model.kind, model.trees[:t], model.feature_names,
                                  model.base_score, model.learning_rate)
            naive = prefix.predict_proba(labeled.values)[:, 0]
            assert np.array_equal(staged[row], naive)

    def test_single_tree_has_one_checkpoint(self, labeled):
        model = fit_model(ModelSpec("tree", {"max_depth": 3}), labeled)
        series = make_checkpoints(model, 50)
        assert series.checkpoints == (1,)
        staged = staged_probabilities(series, labeled.values)
        assert np.array_equal(staged, model.predict_proba(labeled.values)[:, 0][None])

    def test_forest_prefix_equals_full_forest_at_final_checkpoint(self, labeled):
        model = fit_forest(labeled, ForestParams(n_trees=9, max_depth=3, seed=4))
        series = make_checkpoints(model, 50)
        staged = staged_probabilities(series, labeled.values)
        assert series.checkpoints[-1] == 9
        assert np.allclose(staged[-1], model.predict_proba(labeled.values)[:, 0])

    def test_dimension_mismatch_rejected(self, labeled):
        model = fit_model(ModelSpec("gbdt", {"n_rounds": 2}), labeled)
        with pytest.raises(Exception):
            staged_probabilities(CheckpointSeries(model, (1, 2)), np.zeros((3, 99)))

    def test_checkpoint_subsampling_caps_count(self):
        points = evenly_spaced_checkpoints(500, max_checkpoints=50)
        assert len(points) <= 50
        assert points[-1] == 500
        assert points[0] >= 1
        assert list(points) == sorted(set(points))

    def test_one_checkpoint_is_the_whole_model(self):
        assert evenly_spaced_checkpoints(500, max_checkpoints=1) == (500,)


class TestComputeAum:
    def test_worked_three_checkpoint_case(self):
        staged = np.array([[0.9], [0.8], [0.7]])
        aum, labels = compute_aum(staged)
        assert aum[0] == pytest.approx(0.6)
        assert labels[0] == DEATH

    def test_constant_half_gives_zero(self):
        staged = np.full((4, 1), 0.5)
        assert compute_aum(staged)[0][0] == 0.0

    def test_constant_one_gives_one(self):
        staged = np.ones((3, 1))
        aum, labels = compute_aum(staged)
        assert aum[0] == 1.0
        assert labels[0] == DEATH

    def test_pseudo_label_from_final_checkpoint(self):
        staged = np.array([[0.9], [0.2]])
        assert compute_aum(staged)[1][0] == RECOVERED

    @given(
        st.integers(1, 20),
        st.integers(1, 30),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_bounds_and_relabeling_invariance(self, t, n, seed):
        gen = np.random.default_rng(seed)
        staged = gen.uniform(size=(t, n))
        aum, _ = compute_aum(staged)
        flipped, _ = compute_aum(1.0 - staged)
        assert np.all((0.0 <= aum) & (aum <= 1.0))
        assert np.allclose(aum, flipped, rtol=0, atol=1e-12)

    def test_rejects_bad_probabilities(self):
        with pytest.raises(SslError):
            compute_aum(np.array([[1.5]]))


def keys_of(n):
    return [f"k{i}" for i in range(n)]


class TestSelectPseudo:
    def test_keeps_top_fraction_by_score(self):
        aum = np.array([i / 10 for i in range(10)])
        assert select_pseudo(aum, keys_of(10), 0.3) == [9, 8, 7]

    def test_equal_scores_tie_by_key(self):
        assert select_pseudo(np.full(10, 0.5), keys_of(10), 0.3) == [0, 1, 2]

    def test_matches_full_sort_oracle(self, rng):
        aum = rng.uniform(size=40)
        keys = keys_of(40)
        oracle = sorted(zip(aum.tolist(), keys), key=lambda r: (-r[0], r[1]))[:16]
        kept = select_pseudo(aum, keys, 0.4)
        assert [(aum[i], keys[i]) for i in kept] == oracle

    def test_fraction_outside_sweep_range_rejected(self):
        with pytest.raises(SslError):
            SslPlan(keep_fraction=0.1, base_model=ModelSpec("gbdt"))
        with pytest.raises(SslError):
            SslPlan(keep_fraction=0.9, base_model=ModelSpec("gbdt"))

    @pytest.mark.parametrize("allow", [False, True])
    def test_fraction_outside_unit_interval_names_it(self, allow):
        with pytest.raises(SslError, match=r"\[0, 1\]"):
            SslPlan(keep_fraction=1.5, base_model=ModelSpec("gbdt"), allow_any_fraction=allow)

    def test_override_flag_allows_any_fraction(self):
        plan = SslPlan(keep_fraction=0.0, base_model=ModelSpec("gbdt"), allow_any_fraction=True)
        assert select_pseudo(np.array([0.5, 0.7]), keys_of(2), plan.keep_fraction) == []


GBDT = ModelSpec("gbdt", {"n_rounds": 8, "max_depth": 2, "learning_rate": 0.3})


class TestSslTrain:
    def test_zero_fraction_reproduces_supervised_model_bitwise(self, labeled, unlabeled):
        plan = SslPlan(keep_fraction=0.0, base_model=GBDT, allow_any_fraction=True)
        model, provenance, summary = ssl_train(labeled, unlabeled, plan)
        supervised = fit_model(GBDT, labeled)
        assert serialize_model(model) == serialize_model(supervised)
        assert provenance == []
        assert summary["pseudo_rows"] == 0

    def test_pool_grows_by_ceil_fraction(self, labeled, unlabeled):
        plan = SslPlan(keep_fraction=0.3, base_model=GBDT)
        _, provenance, summary = ssl_train(labeled, unlabeled, plan)
        expected = int(np.ceil(0.3 * unlabeled.n_rows))
        assert summary["pseudo_rows"] == expected
        assert summary["final_pool_rows"] == labeled.n_rows + expected
        assert len(provenance) == expected

    def test_pseudo_rows_never_reenter_pool(self, labeled, unlabeled):
        plan = SslPlan(keep_fraction=0.3, rounds=3, base_model=GBDT)
        _, provenance, _ = ssl_train(labeled, unlabeled, plan)
        keys = [key for key, *_ in provenance]
        assert len(keys) == len(set(keys))
        rounds = {round_id for *_, round_id in provenance}
        assert rounds == {1, 2, 3}

    def test_empty_unlabeled_degenerates_with_warning(self, labeled, caplog):
        empty = from_arrays(np.zeros((0, labeled.n_cols)), None, names=labeled.column_names())
        plan = SslPlan(keep_fraction=0.3, base_model=GBDT)
        with caplog.at_level("WARNING"):
            model, provenance, _ = ssl_train(labeled, empty, plan)
        assert provenance == []
        assert "unlabeled pool is empty" in caplog.text
        assert serialize_model(model) == serialize_model(fit_model(GBDT, labeled))

    def test_fitted_model_stands_in_for_first_fit(self, labeled, unlabeled, monkeypatch):
        from vetpv import ssl

        plan = SslPlan(keep_fraction=0.3, base_model=GBDT)
        refitted, provenance, summary = ssl_train(labeled, unlabeled, plan)
        fits = []
        monkeypatch.setattr(ssl, "fit_model", lambda *a, **k: fits.append(a) or fit_model(*a, **k))
        given_model = fit_model(GBDT, labeled)
        model, given_provenance, given_summary = ssl_train(labeled, unlabeled, plan, given_model)
        assert len(fits) == 1  # only the fit on the grown pool
        assert serialize_model(model) == serialize_model(refitted)
        assert (given_provenance, given_summary) == (provenance, summary)

    def test_mismatched_columns_rejected(self, labeled):
        other = from_arrays(np.zeros((2, 2)), None)
        with pytest.raises(SslError):
            ssl_train(labeled, other, SslPlan(keep_fraction=0.3, base_model=GBDT))

    def test_provenance_csv_reads_back_awkward_keys(self, labeled, unlabeled):
        awkward = ["AWK-1,\"quoted\"", "cr\rkey", "lf\nkey", "both\r\n,\"", "\"", ","]
        keys = awkward + unlabeled.keys[len(awkward):]
        unlabeled = FeatureMatrix(values=unlabeled.values, columns=unlabeled.columns, keys=keys)
        plan = SslPlan(keep_fraction=1.0, base_model=GBDT, allow_any_fraction=True)
        _, provenance, _ = ssl_train(labeled, unlabeled, plan)
        rows = list(csv.reader(io.StringIO(provenance_csv(provenance), newline="")))
        assert rows[0] == ["key", "aum", "pseudo_label", "round"]
        assert [row[0] for row in rows[1:]] == [key for key, *_ in provenance]
        assert sorted(key for key, *_ in provenance) == sorted(keys)
        assert all(len(row) == 4 for row in rows)
