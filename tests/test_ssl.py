import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vetpv.forest import ForestParams, fit_forest
from vetpv.matrix import DEATH, RECOVERED, from_arrays
from vetpv.models import ModelSpec, fit_model, serialize_model
from vetpv.ssl import (
    AumRecord,
    CheckpointSeries,
    SslError,
    SslPlan,
    compute_aum,
    evenly_spaced_checkpoints,
    make_checkpoints,
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
        records = compute_aum(staged, ["k"])
        assert records[0].aum == pytest.approx(0.6)
        assert records[0].pseudo_label == DEATH
        assert records[0].final_top_prob == pytest.approx(0.7)

    def test_constant_half_gives_zero(self):
        staged = np.full((4, 1), 0.5)
        assert compute_aum(staged, ["k"])[0].aum == 0.0

    def test_constant_one_gives_one(self):
        staged = np.ones((3, 1))
        record = compute_aum(staged, ["k"])[0]
        assert record.aum == 1.0
        assert record.pseudo_label == DEATH

    def test_pseudo_label_from_final_checkpoint(self):
        staged = np.array([[0.9], [0.2]])
        assert compute_aum(staged, ["k"])[0].pseudo_label == RECOVERED

    @given(
        st.integers(1, 20),
        st.integers(1, 30),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_bounds_and_relabeling_invariance(self, t, n, seed):
        gen = np.random.default_rng(seed)
        staged = gen.uniform(size=(t, n))
        keys = [f"k{i}" for i in range(n)]
        records = compute_aum(staged, keys)
        flipped = compute_aum(1.0 - staged, keys)
        for a, b in zip(records, flipped):
            assert 0.0 <= a.aum <= 1.0
            assert a.aum == pytest.approx(b.aum, abs=1e-12)

    def test_rejects_bad_probabilities(self):
        with pytest.raises(SslError):
            compute_aum(np.array([[1.5]]), ["k"])


def records_of(aums, labels=None):
    labels = labels or [DEATH] * len(aums)
    return [
        AumRecord(key=f"k{i}", aum=a, pseudo_label=lab, final_top_prob=0.9)
        for i, (a, lab) in enumerate(zip(aums, labels))
    ]


class TestSelectPseudo:
    def test_keeps_top_fraction_by_score(self):
        records = records_of([i / 10 for i in range(10)])
        plan = SslPlan(keep_fraction=0.3, base_model=ModelSpec("gbdt"))
        kept, counts = select_pseudo(records, plan)
        assert [r.key for r in kept] == ["k9", "k8", "k7"]
        assert counts == {"Death": 3, "Recovered": 0}

    def test_equal_scores_tie_by_key(self):
        records = records_of([0.5] * 10)
        plan = SslPlan(keep_fraction=0.3, base_model=ModelSpec("gbdt"))
        kept, _ = select_pseudo(records, plan)
        assert [r.key for r in kept] == ["k0", "k1", "k2"]

    def test_matches_full_sort_oracle(self, rng):
        aums = rng.uniform(size=40).tolist()
        records = records_of(aums)
        plan = SslPlan(keep_fraction=0.4, base_model=ModelSpec("gbdt"))
        kept, _ = select_pseudo(records, plan)
        oracle = sorted(records, key=lambda r: (-r.aum, r.key))[:16]
        assert kept == oracle

    def test_fraction_outside_sweep_range_rejected(self):
        with pytest.raises(SslError):
            SslPlan(keep_fraction=0.1, base_model=ModelSpec("gbdt"))
        with pytest.raises(SslError):
            SslPlan(keep_fraction=0.9, base_model=ModelSpec("gbdt"))

    def test_override_flag_allows_any_fraction(self):
        plan = SslPlan(keep_fraction=0.0, base_model=ModelSpec("gbdt"), allow_any_fraction=True)
        kept, _ = select_pseudo(records_of([0.5, 0.7]), plan)
        assert kept == []


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
        keys = [p["key"] for p in provenance]
        assert len(keys) == len(set(keys))
        rounds = {p["round"] for p in provenance}
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
