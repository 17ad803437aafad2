import numpy as np
import pytest

from oracles import brute_force_enn, brute_force_k_nearest
from vetpv.matrix import DEATH, RECOVERED, ColumnMeta, FeatureMatrix, from_arrays
from vetpv.resample import (
    ResampleError,
    ResamplePlan,
    apply_plan,
    enn,
    interpolate_rows,
    random_resample,
    smote,
    smote_enn,
)


def imbalanced_matrix(n_minority=15, n_majority=85, seed=0, d=3):
    gen = np.random.default_rng(seed)
    X = np.vstack(
        [gen.normal(2.0, 1.0, size=(n_minority, d)), gen.normal(-2.0, 1.0, size=(n_majority, d))]
    )
    y = np.array([DEATH] * n_minority + [RECOVERED] * n_majority, dtype=np.int8)
    return from_arrays(X, y)


class TestRandomResample:
    def test_oversample_to_parity(self):
        out = random_resample(imbalanced_matrix(), ResamplePlan(strategy="oversample"))
        assert out.class_counts() == {"Death": 85, "Recovered": 85}

    def test_undersample_to_parity(self):
        out = random_resample(imbalanced_matrix(), ResamplePlan(strategy="undersample"))
        assert out.class_counts() == {"Death": 15, "Recovered": 15}

    def test_undersample_ratio_half(self):
        plan = ResamplePlan(strategy="undersample", target_ratio=0.5)
        out = random_resample(imbalanced_matrix(), plan)
        assert out.class_counts() == {"Death": 15, "Recovered": 30}

    def test_oversampled_rows_are_copies_of_minority_rows(self):
        matrix = imbalanced_matrix()
        out = random_resample(matrix, ResamplePlan(strategy="oversample", seed=3))
        minority_rows = {tuple(row) for row, lab in zip(matrix.values, matrix.labels) if lab == DEATH}
        new_rows = out.values[matrix.n_rows:]
        assert all(tuple(row) in minority_rows for row in new_rows)

    def test_deterministic_given_seed(self):
        plan = ResamplePlan(strategy="undersample", seed=9)
        a = random_resample(imbalanced_matrix(), plan)
        b = random_resample(imbalanced_matrix(), plan)
        assert a.keys == b.keys

    def test_single_class_rejected(self):
        X = np.zeros((5, 2))
        y = np.ones(5, dtype=np.int8)
        with pytest.raises(ResampleError):
            random_resample(from_arrays(X, y), ResamplePlan(strategy="oversample"))


class TestSmote:
    def test_interpolation_formula(self):
        matrix = from_arrays(np.array([[0.0, 0.0], [2.0, 2.0]]),
                             np.array([DEATH, DEATH], dtype=np.int8))
        rows = interpolate_rows(matrix, np.array([0, 1]), np.array([1, 0]), np.array([0.25, 0.5]))
        assert np.allclose(rows, [[0.5, 0.5], [1.0, 1.0]])

    def test_lambda_zero_returns_origin(self):
        matrix = from_arrays(np.array([[1.0, 3.0], [2.0, 2.0]]),
                             np.array([DEATH, DEATH], dtype=np.int8))
        rows = interpolate_rows(matrix, np.array([0]), np.array([1]), np.array([0.0]))
        assert np.array_equal(rows, matrix.values[[0]])

    def test_synthetic_points_inside_minority_bounding_box(self):
        matrix = imbalanced_matrix(n_minority=20, n_majority=60, seed=4)
        out = smote(matrix, ResamplePlan(strategy="smote", seed=5))
        minority = matrix.values[matrix.labels == DEATH]
        lo, hi = minority.min(axis=0), minority.max(axis=0)
        synthetic = out.values[matrix.n_rows:]
        assert len(synthetic) == 40
        assert np.all(synthetic >= lo - 1e-12) and np.all(synthetic <= hi + 1e-12)

    def test_minority_not_larger_than_k_rejected(self):
        matrix = imbalanced_matrix(n_minority=5, n_majority=20)
        with pytest.raises(ResampleError) as err:
            smote(matrix, ResamplePlan(strategy="smote", k_smote=5))
        assert "smaller k" in str(err.value)

    def test_deterministic_given_seed(self):
        matrix = imbalanced_matrix(n_minority=12, n_majority=40, seed=6)
        plan = ResamplePlan(strategy="smote", seed=13)
        assert np.array_equal(smote(matrix, plan).values, smote(matrix, plan).values)


def mixed_matrix(gen, n_minority, n_majority, d, duplicates):
    """d numeric columns (one constant), a categorical and two indicator
    columns; with duplicates, every numeric row is repeated."""
    n = n_minority + n_majority
    numeric = np.vstack([gen.normal(1.0, 1.0, (n_minority, d)), gen.normal(-1.0, 1.0, (n_majority, d))])
    if duplicates:
        numeric = numeric[np.repeat(np.arange(0, n, 3), 3)[:n]]
    numeric[:, -1] = 4.0
    values = np.column_stack([numeric, gen.integers(0, 4, n), gen.random((n, 2)) < 0.3])
    columns = ([ColumnMeta(name=f"n{j}", kind="numeric") for j in range(d)]
               + [ColumnMeta(name="cat", kind="encoded_categorical", category_map={"a": 1, "b": 3})]
               + [ColumnMeta(name=f"h{j}", kind="multi_hot", source_field="f") for j in range(2)])
    labels = np.array([DEATH] * n_minority + [RECOVERED] * n_majority, dtype=np.int8)
    return FeatureMatrix(values, columns, [f"r{i}" for i in range(n)], labels)


def z_scored(values):
    std = values.std(axis=0)
    std[std == 0] = 1.0
    return (values - values.mean(axis=0)) / std


@pytest.mark.parametrize("d, duplicates", [(3, False), (3, True), (7, True), (9, False)])
def test_smote_replays_brute_force_neighbour_lists(d, duplicates):
    """Each synthetic row equals the one a per-row SMOTE makes from the
    oracle's neighbour lists: the same stream picks a row, then a neighbour
    by its position in the (distance, index)-ordered list, then lambda."""
    matrix = mixed_matrix(np.random.default_rng(d), 40, 100, d, duplicates)
    plan = ResamplePlan(strategy="smote", seed=17, k_smote=5)
    out = smote(matrix, plan)
    min_idx = np.flatnonzero(matrix.labels == DEATH)
    space = z_scored(matrix.values[:, :d])[min_idx]
    nearest, _ = brute_force_k_nearest(space, space, 5, exclude=np.arange(len(min_idx)))
    neighbours = {int(i): min_idx[row] for i, row in zip(min_idx, nearest)}
    streams = np.random.SeedSequence(17).spawn(out.n_rows - matrix.n_rows)
    for s, stream in enumerate(streams):
        rng = np.random.default_rng(stream)
        i = int(rng.choice(min_idx))
        nn = int(rng.choice(neighbours[i]))
        lam = float(rng.uniform(0.0, 1.0))
        row = matrix.values[i] + lam * (matrix.values[nn] - matrix.values[i])
        row[d] = min(max(float(np.floor(row[d] + 0.5)), 0.0), 3.0)
        row[d + 1:] = [1.0 if v >= 0.5 else 0.0 for v in row[d + 1:]]
        assert np.array_equal(out.values[matrix.n_rows + s].view(np.uint64), row.view(np.uint64))


class TestEnn:
    def test_majority_point_in_minority_cluster_removed(self):
        # one Recovered row sitting inside a tight Death cluster
        X = np.array([[0.0], [0.1], [0.2], [0.05], [5.0], [5.1], [5.2], [5.3]])
        y = np.array([DEATH, DEATH, DEATH, RECOVERED, RECOVERED, RECOVERED, RECOVERED, RECOVERED],
                     dtype=np.int8)
        out = enn(from_arrays(X, y), ResamplePlan(strategy="smote_enn", k_enn=3))
        assert 5.0 not in out.values or len(out.keys) == 7
        assert "r3" not in out.keys  # the stray majority row

    def test_point_agreeing_with_neighbors_kept(self):
        X = np.array([[0.0], [0.1], [0.2], [5.0], [5.1], [5.2], [5.3]])
        y = np.array([DEATH] * 3 + [RECOVERED] * 4, dtype=np.int8)
        out = enn(from_arrays(X, y), ResamplePlan(strategy="smote_enn", k_enn=3))
        assert out.n_rows == 7

    @pytest.mark.parametrize("mode", ["majority_only", "all"])
    def test_matches_brute_force_oracle(self, mode, rng):
        for trial in range(15):
            n_min = int(rng.integers(8, 20))
            n_maj = int(rng.integers(20, 50))
            X = np.vstack(
                [rng.normal(0.8, 1.0, size=(n_min, 2)), rng.normal(-0.8, 1.0, size=(n_maj, 2))]
            )
            y = np.array([DEATH] * n_min + [RECOVERED] * n_maj, dtype=np.int8)
            matrix = from_arrays(X, y)
            plan = ResamplePlan(strategy="smote_enn", k_enn=3, enn_mode=mode)
            got = enn(matrix, plan)
            keep = brute_force_enn(X, y, k=3, majority_only=(mode == "majority_only"))
            assert got.keys == [matrix.keys[i] for i in np.flatnonzero(keep)]

    @pytest.mark.parametrize("mode", ["majority_only", "all"])
    @pytest.mark.parametrize("d, duplicates", [(2, True), (7, True), (8, False), (12, True)])
    def test_adversarial_spaces_match_brute_force_oracle(self, mode, d, duplicates):
        matrix = mixed_matrix(np.random.default_rng(d), 60, 140, d, duplicates)
        plan = ResamplePlan(strategy="smote_enn", k_enn=3, enn_mode=mode)
        keep = brute_force_enn(matrix.values[:, :d], matrix.labels, 3, mode == "majority_only")
        assert enn(matrix, plan).keys == [matrix.keys[i] for i in np.flatnonzero(keep)]

    @pytest.mark.parametrize("mode", ["majority_only", "all"])
    def test_no_numeric_column_edits_over_every_column(self, mode, rng):
        values = (rng.random((150, 10)) < 0.3).astype(float)  # 10 columns: the pairwise sum
        labels = (rng.random(150) < 0.7).astype(np.int8)
        columns = [ColumnMeta(name=f"h{j}", kind="multi_hot", source_field="f") for j in range(10)]
        matrix = FeatureMatrix(values, columns, [f"r{i}" for i in range(150)], labels)
        plan = ResamplePlan(strategy="smote_enn", k_enn=5, enn_mode=mode)
        keep = brute_force_enn(values, labels, 5, mode == "majority_only")
        assert enn(matrix, plan).keys == [matrix.keys[i] for i in np.flatnonzero(keep)]

    def test_majority_only_mode_never_touches_minority(self):
        matrix = imbalanced_matrix(n_minority=10, n_majority=30, seed=8)
        out = enn(matrix, ResamplePlan(strategy="smote_enn", k_enn=3))
        assert out.class_counts()["Death"] == 10


class TestSmoteEnn:
    def test_equals_composition(self):
        matrix = imbalanced_matrix(n_minority=12, n_majority=48, seed=10)
        plan = ResamplePlan(strategy="smote_enn", seed=21)
        combined = smote_enn(matrix, plan)
        composed = enn(smote(matrix, plan), plan)
        assert combined.keys == composed.keys
        assert np.array_equal(combined.values, composed.values)

    def test_enn_never_increases_rows(self):
        matrix = imbalanced_matrix(n_minority=12, n_majority=48, seed=10)
        plan = ResamplePlan(strategy="smote_enn", seed=2)
        grown = smote(matrix, plan)
        assert smote_enn(matrix, plan).n_rows <= grown.n_rows

    def test_deterministic(self):
        matrix = imbalanced_matrix(n_minority=12, n_majority=48, seed=3)
        plan = ResamplePlan(strategy="smote_enn", seed=5)
        a, b = smote_enn(matrix, plan), smote_enn(matrix, plan)
        assert a.keys == b.keys and np.array_equal(a.values, b.values)


def test_column_meta_unchanged_by_all_strategies():
    matrix = imbalanced_matrix(n_minority=10, n_majority=40)
    for strategy in ("oversample", "undersample", "smote", "smote_enn"):
        out = apply_plan(matrix, ResamplePlan(strategy=strategy, k_smote=3))
        assert out.columns == matrix.columns


def test_plan_validation():
    with pytest.raises(ResampleError):
        ResamplePlan(strategy="bogus")
    with pytest.raises(ResampleError):
        ResamplePlan(target_ratio=0.0)
    with pytest.raises(ResampleError):
        ResamplePlan(k_smote=0)


def test_categorical_dimensions_round_to_valid_codes():
    columns = [
        ColumnMeta(name="num", kind="numeric"),
        ColumnMeta(name="cat", kind="encoded_categorical", category_map={"a": 1, "b": 2}),
        ColumnMeta(name="ind", kind="multi_hot", source_field="f"),
    ]
    matrix = FeatureMatrix(
        values=np.array([[0.0, 1.0, 0.0], [1.0, 2.0, 1.0]]),
        columns=columns,
        keys=["a", "b"],
        labels=np.array([DEATH, DEATH], dtype=np.int8),
    )
    lam = np.array([0.0, 0.2, 0.6, 1.0])
    rows = interpolate_rows(matrix, np.zeros(4, dtype=int), np.ones(4, dtype=int), lam)
    assert np.allclose(rows[:, 0], lam)                     # numeric stays interpolated
    assert np.array_equal(rows[:, 1], [1.0, 1.0, 2.0, 2.0])  # categorical snaps to a valid code
    assert np.array_equal(rows[:, 2], [0.0, 0.0, 1.0, 1.0])  # indicator snaps to 0/1
