"""Random forest over the CART learner: bootstrap rows, random feature subset
per split, per-tree RNG streams spawned from the seed. The trees grow in
lockstep on one coding of the matrix (`trees.grow_cart`); each keeps its own
stream and node order, so a tree is the same as if it grew alone."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .matrix import FeatureMatrix
from .trees import (FitError, TreeEnsemble, TreeParams, checked_matrix, checked_weights, grow_cart,
                    rank_bins)
# perfbench/spans.py wraps these names in traced runs
from .trees import TreeEnsemble as RandomForestModel, apply_tree, fit_cart  # noqa: F401


@dataclass(frozen=True)
class ForestParams:
    n_trees: int = 50
    max_depth: int = 8
    min_leaf: int = 1
    features_per_split: int | None = None  # None = round(sqrt(d))
    seed: int = 0
    bootstrap: bool = True

    def __post_init__(self):
        if self.n_trees < 1:
            raise FitError(f"n_trees must be >= 1, got {self.n_trees}")


def fit_forest(
    matrix: FeatureMatrix,
    params: ForestParams = ForestParams(),
    sample_weight: np.ndarray | None = None,
) -> TreeEnsemble:
    if matrix.labels is None:
        raise FitError("training matrix has no labels")
    X = checked_matrix(matrix.values, params.min_leaf)
    y = matrix.labels
    n, d = X.shape
    w = checked_weights(sample_weight, n)
    m = params.features_per_split
    if m is None:
        m = max(1, int(round(math.sqrt(d))))
    streams = np.random.SeedSequence(params.seed).spawn(params.n_trees)
    rngs = [np.random.default_rng(stream) for stream in streams]
    # Bootstraps are row indices into the one coding; a repeat counts as a
    # row, so a row's weight counts once per draw.
    roots = [rng.integers(0, n, size=n) if params.bootstrap else np.arange(n) for rng in rngs]

    def draw(t):
        return np.sort(rngs[t].choice(d, size=m, replace=False))

    tree_params = TreeParams(max_depth=params.max_depth, min_leaf=params.min_leaf)
    trees = grow_cart(rank_bins(X), y, w, tree_params, roots, None if m >= d else draw)
    return TreeEnsemble("forest", trees, matrix.column_names())
