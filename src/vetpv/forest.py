"""Random forest over the CART learner: bootstrap rows, random feature subset
per split, per-tree RNG streams spawned from the seed so results do not depend
on scheduling."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .matrix import FeatureMatrix
from .trees import (
    FitError,
    FlatTree,
    TreeNode,
    TreeParams,
    apply_tree,
    fit_cart,
    flatten_tree,
    rank_bins,
)


@dataclass(frozen=True)
class ForestParams:
    n_trees: int = 50
    max_depth: int = 8
    min_leaf: int = 1
    features_per_split: int | None = None  # None = round(sqrt(d))
    seed: int = 0
    bootstrap: bool = True


class RandomForestModel:
    kind = "forest"

    def __init__(self, trees: list[TreeNode], feature_names: list[str], params: ForestParams):
        self.trees = trees
        self.feature_names = list(feature_names)
        self.params = params
        self._flat: list[FlatTree] | None = None

    @property
    def flat_trees(self) -> list[FlatTree]:
        if self._flat is None:
            self._flat = [flatten_tree(t) for t in self.trees]
        return self._flat

    def _check_width(self, X: np.ndarray):
        if X.shape[1] != len(self.feature_names):
            raise FitError(
                f"expected {len(self.feature_names)} features, got {X.shape[1]}"
            )

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        self._check_width(X)
        p1 = np.zeros(len(X))
        for flat in self.flat_trees:
            p1 += apply_tree(flat, X)
        p1 /= len(self.trees)
        return np.column_stack([1.0 - p1, p1])

    def staged_proba(self, X: np.ndarray, checkpoints: list[int]) -> np.ndarray:
        """Class-1 probability of each prefix ensemble, in one pass."""
        X = np.asarray(X, dtype=np.float64)
        self._check_width(X)
        bad = [t for t in checkpoints if t < 1 or t > len(self.trees)]
        if bad:
            raise FitError(f"checkpoints out of range: {bad}")
        running = np.zeros(len(X))
        wanted = set(checkpoints)
        staged = {}
        for t, flat in enumerate(self.flat_trees, start=1):
            running += apply_tree(flat, X)
            if t in wanted:
                staged[t] = running / t
        return np.vstack([staged[t] for t in checkpoints])

    def predict(self, X: np.ndarray) -> np.ndarray:
        return (self.predict_proba(X)[:, 1] > 0.5).astype(np.int8)


def fit_forest(matrix: FeatureMatrix, params: ForestParams = ForestParams()) -> RandomForestModel:
    if params.n_trees < 1:
        raise FitError(f"n_trees must be >= 1, got {params.n_trees}")
    if matrix.labels is None:
        raise FitError("training matrix has no labels")
    X = matrix.values
    y = matrix.labels
    n, d = X.shape
    m = params.features_per_split
    if m is None:
        m = max(1, int(round(math.sqrt(d))))
    tree_params = TreeParams(max_depth=params.max_depth, min_leaf=params.min_leaf)
    bins = rank_bins(X)  # one coding for every tree; each bootstrap takes its rows

    streams = np.random.SeedSequence(params.seed).spawn(params.n_trees)
    trees = []
    for stream in streams:
        rng = np.random.default_rng(stream)
        rows = rng.integers(0, n, size=n) if params.bootstrap else np.arange(n)
        root = fit_cart(
            X[rows],
            y[rows],
            tree_params,
            features_per_split=None if m >= d else m,
            rng=rng,
            bins=bins.take(rows),
        )
        trees.append(root)
    return RandomForestModel(trees, matrix.column_names(), params)
