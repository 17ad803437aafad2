"""The shared exact nearest-neighbour kernel (resample.k_nearest) and the kNN
baseline on top of it, against the brute-force oracles."""

import numpy as np
import pytest

from oracles import brute_force_k_nearest, brute_force_knn_proba
from vetpv.baselines import KnnParams, fit_knn
from vetpv.matrix import from_arrays
from vetpv.resample import BLOCK_ELEMENTS, ResampleError, k_nearest


def assert_same_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(np.asarray(got, float).view(np.uint64),
                          np.asarray(want, float).view(np.uint64))


def assert_matches_oracle(points, queries, k, exclude=None):
    indices, distances = k_nearest(points, queries, k, exclude)
    want_indices, want_distances = brute_force_k_nearest(points, queries, k, exclude)
    assert np.array_equal(indices, want_indices)
    assert_same_bits(distances, want_distances)


@pytest.mark.parametrize("d", [1, 2, 7, 8, 9, 110])
def test_distances_are_the_plain_formulas_bits(d, rng):
    # scales far apart, so summation order shows in the last bits
    points = rng.normal(size=(120, d)) * rng.uniform(0.01, 100.0, size=d)
    queries = np.vstack([points[:5], rng.normal(size=(15, d)) * 10])
    indices, distances = k_nearest(points, queries, len(points))
    for query, nearest, row in zip(queries, indices, distances):
        deltas = points - query
        assert_same_bits(row, np.sqrt(np.sum(deltas * deltas, axis=1))[nearest])


@pytest.mark.parametrize("d, n", [(7, 300), (8, 300), (110, 100)])
def test_blocks_that_do_not_divide_the_queries(d, n, rng):
    step = max(1, BLOCK_ELEMENTS // (n if d < 8 else n * d))
    n_queries = 2 * step + step // 2 + 1
    points = rng.normal(size=(n, d))
    queries = rng.normal(size=(n_queries, d))
    assert n_queries > 2 * step and n_queries % step
    assert_matches_oracle(points, queries, 4)


@pytest.mark.parametrize("d", [2, 8])
def test_duplicate_rows_tie_by_index(d, rng):
    base = rng.normal(size=(12, d))
    points = base[rng.integers(0, 12, size=60)]  # every row repeated about 5 times
    assert_matches_oracle(points, points, 7, exclude=np.arange(60))
    assert_matches_oracle(points, base, 9)


def test_adjacent_floats(rng):
    x = rng.normal(size=40)
    points = np.column_stack([np.repeat(x, 3), np.zeros(120)])
    points[1::3, 0] = np.nextafter(points[1::3, 0], np.inf)
    points[2::3, 0] = np.nextafter(points[2::3, 0], -np.inf)
    assert_matches_oracle(points, points, 5, exclude=np.arange(120))


def test_constant_columns(rng):
    points = np.column_stack([np.full(50, 3.0), rng.integers(0, 3, 50).astype(float), np.zeros(50)])
    assert_matches_oracle(points, points, 6, exclude=np.arange(50))


def test_k_is_every_other_row(rng):
    points = rng.normal(size=(30, 3))
    assert_matches_oracle(points, points, 29, exclude=np.arange(30))
    assert_matches_oracle(points, points[:4], 30)


def test_queries_excluding_other_rows(rng):
    points = rng.normal(size=(40, 2))
    exclude = rng.integers(0, 40, size=25)
    assert_matches_oracle(points, rng.normal(size=(25, 2)), 3, exclude)


def test_nan_distances_sort_last(rng):
    points = rng.normal(size=(20, 2))
    points[[3, 7], 0] = np.nan
    assert_matches_oracle(points, points[:6], 4)
    assert_matches_oracle(points, points[:6], 20)


def test_k_out_of_range_rejected():
    points = np.zeros((5, 2))
    with pytest.raises(ResampleError):
        k_nearest(points, points, 5, exclude=np.arange(5))
    with pytest.raises(ResampleError):
        k_nearest(points, points, 0)


@pytest.mark.parametrize("k", [1, 9, 40])
def test_knn_probabilities_equal_the_oracle_bit_for_bit(k, rng):
    X = rng.normal(size=(400, 110))
    X[:, 5:] = rng.random(size=(400, 105)) < 0.1  # mostly two-valued, like the real matrix
    X[200:220] = X[:20]  # duplicated rows
    y = (rng.random(400) < 0.6).astype(np.int8)
    queries = np.vstack([X[:30], rng.normal(size=(30, 110))])
    model = fit_knn(from_arrays(X, y), KnnParams(k=k))
    assert_same_bits(model.predict_proba(queries), brute_force_knn_proba(X, y, k, queries))


def test_knn_with_k_beyond_the_training_set_lets_every_row_vote(rng):
    X = rng.normal(size=(7, 3))
    y = np.array([0, 1, 1, 0, 1, 1, 0], dtype=np.int8)
    queries = rng.normal(size=(5, 3))
    model = fit_knn(from_arrays(X, y), KnnParams(k=9))
    assert_same_bits(model.predict_proba(queries), brute_force_knn_proba(X, y, 9, queries))
