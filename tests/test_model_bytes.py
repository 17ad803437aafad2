"""The bytes of fitted tree models, pinned.

Each digest is the sha256 of `serialize_model` for one fit on one fixed
matrix, taken before forest trees grew in lockstep; any change to how trees
are grown, searched or summed that moves a split, a threshold, a leaf value
or a cover changes it.
"""

import hashlib

import numpy as np
import pytest

from vetpv.matrix import from_arrays
from vetpv.models import ModelSpec, fit_model, serialize_model


def pinned_matrix():
    """400 rows: continuous, rounded, binary and integer columns, a constant
    column, an exact copy of a column (tied gains) and 30 duplicated rows."""
    gen = np.random.default_rng(20240801)
    n = 400
    y = gen.integers(0, 2, n).astype(np.int8)
    X = np.column_stack([
        gen.normal(size=n) + y,
        (gen.normal(size=n) - y).round(1),
        gen.integers(0, 2, n) | y * gen.integers(0, 2, n),
        gen.integers(0, 2, n),
        gen.integers(0, 6, n) + y,
        np.full(n, 3.0),
        gen.uniform(size=n) * y,
        gen.integers(0, 2, n),
    ]).astype(np.float64)
    X[:, 7] = X[:, 3]
    X[50:80] = X[:30]
    return from_arrays(X, y)


PINNED = {
    "forest-bootstrap": (
        ModelSpec("forest", {"n_trees": 12, "max_depth": 7, "features_per_split": 3, "seed": 11}),
        False,
        "3d8800f5742ac5460a76389a7a31ba9c4a0f655a0d17dfa915c5c292d907bf7a",
    ),
    "forest-all-rows-all-columns": (
        ModelSpec("forest", {"n_trees": 3, "max_depth": 5, "bootstrap": False,
                             "features_per_split": 8, "seed": 2}),
        False,
        "ffffaeff83050891421bd76084c925892a9bdd4dcd113504b453623a28f39529",
    ),
    "tree-weighted": (
        ModelSpec("tree", {"max_depth": 6, "min_leaf": 2}),
        True,
        "2785e302723e4af05d0a18c74ee8fb1d72aad8fba61251262dfce9a962ae530e",
    ),
    "gbdt": (
        ModelSpec("gbdt", {"n_rounds": 15, "max_depth": 4, "learning_rate": 0.3}),
        False,
        "73a8860c154ab199039d93c9118ccf31efe6ecfc3ab25e64b806e5198c1e8a20",
    ),
}


@pytest.mark.parametrize("name", PINNED)
def test_model_bytes_are_pinned(name):
    spec, weighted, digest = PINNED[name]
    matrix = pinned_matrix()
    weights = np.random.default_rng(5).uniform(0.25, 3.0, matrix.n_rows) if weighted else None
    text = serialize_model(fit_model(spec, matrix, sample_weight=weights))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest
