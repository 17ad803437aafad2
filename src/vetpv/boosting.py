"""Second-order gradient boosting on logistic loss.

Per round a regression tree is fitted to gradients g = p - y and hessians
h = p (1 - p) by the CART split search (`trees.best_split`) with gain 0.5 *
[G_L^2/(H_L+l) + G_R^2/(H_R+l) - G^2/(H+l)]; leaves are -sum(g)/(sum(h)+l).
The raw margin base_score + eta * sum(trees) is the log-odds of Recovered.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matrix import FeatureMatrix
from .trees import FitError, FlatTree, apply_tree, grow_tree, rank_bins

PREVALENCE_CLIP = 1e-6


@dataclass(frozen=True)
class GbdtParams:
    n_rounds: int = 100
    learning_rate: float = 0.1
    max_depth: int = 4
    min_child_weight: float = 1.0
    reg_lambda: float = 1.0


def sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def gain_score(min_child_weight: float, lam: float):
    """Second-order gain over (count, gradient, hessian) sums."""

    def score(left, right, total):
        (_, gl, hl), (_, gr, hr) = left, right
        gains = 0.5 * (gl**2 / (hl + lam) + gr**2 / (hr + lam) - total[1] ** 2 / (total[2] + lam))
        return np.where((hl >= min_child_weight) & (hr >= min_child_weight), gains, -np.inf)

    return score


def _fit_round_tree(bins, g, h, w, params: GbdtParams, leaf_value) -> FlatTree:
    """Grow one round's tree; leaf_value receives each training row's leaf value."""

    def make_node(rows):
        value = -float(g[rows].sum()) / (float(h[rows].sum()) + params.reg_lambda)
        leaf_value[rows] = value  # a split node's children overwrite it
        return value, float(w[rows].sum())

    def splittable(value, rows, depth):
        return depth < params.max_depth and len(rows) >= 2

    score = gain_score(params.min_child_weight, params.reg_lambda)
    return grow_tree(bins, np.array([g, h]), score, make_node, splittable)


class GradientBoostedModel:
    kind = "gbdt"

    def __init__(
        self,
        base_score: float,
        learning_rate: float,
        trees: list[FlatTree],
        feature_names: list[str],
        params: GbdtParams | None = None,
    ):
        self.base_score = base_score
        self.learning_rate = learning_rate
        self.trees = trees
        self.feature_names = list(feature_names)
        self.params = params

    def _check_width(self, X: np.ndarray):
        if X.shape[1] != len(self.feature_names):
            raise FitError(
                f"expected {len(self.feature_names)} features, got {X.shape[1]}"
            )

    def raw_margin(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        self._check_width(X)
        margin = np.full(len(X), self.base_score)
        for tree in self.trees:
            margin += self.learning_rate * apply_tree(tree, X)
        return margin

    def staged_margins(self, X: np.ndarray, checkpoints: list[int]) -> np.ndarray:
        """Margins after each prefix length in checkpoints, in one pass."""
        X = np.asarray(X, dtype=np.float64)
        self._check_width(X)
        bad = [t for t in checkpoints if t < 0 or t > len(self.trees)]
        if bad:
            raise FitError(f"checkpoints out of range: {bad}")
        margin = np.full(len(X), self.base_score)
        wanted = set(checkpoints)
        staged = {}
        if 0 in wanted:
            staged[0] = margin.copy()
        for t, tree in enumerate(self.trees, start=1):
            margin += self.learning_rate * apply_tree(tree, X)
            if t in wanted:
                staged[t] = margin.copy()
        return np.vstack([staged[t] for t in checkpoints])

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        p1 = sigmoid(self.raw_margin(X))
        return np.column_stack([1.0 - p1, p1])

    def predict(self, X: np.ndarray) -> np.ndarray:
        return (self.raw_margin(X) > 0.0).astype(np.int8)


def fit_gbdt(
    matrix: FeatureMatrix,
    params: GbdtParams = GbdtParams(),
    sample_weight: np.ndarray | None = None,
) -> GradientBoostedModel:
    """Boost params.n_rounds trees on logistic loss.

    base_score is the log-odds of the (weighted) training prevalence, clipped
    away from 0 and 1 so degenerate inputs stay finite.
    """
    if params.n_rounds < 1:
        raise FitError(f"n_rounds must be >= 1, got {params.n_rounds}")
    if matrix.labels is None:
        raise FitError("training matrix has no labels")
    X = matrix.values
    if np.isnan(X).any():
        raise FitError("training matrix contains NaN; impute before fitting")
    y = matrix.labels.astype(np.float64)
    n = len(y)
    w = np.ones(n) if sample_weight is None else np.asarray(sample_weight, dtype=np.float64)
    if w.shape != (n,):
        raise FitError("sample_weight must align with rows")

    prevalence = float(np.clip((w * y).sum() / w.sum(), PREVALENCE_CLIP, 1 - PREVALENCE_CLIP))
    base_score = float(np.log(prevalence / (1.0 - prevalence)))

    bins = rank_bins(X)
    margin = np.full(n, base_score)
    leaf_value = np.empty(n)
    trees: list[FlatTree] = []
    for _ in range(params.n_rounds):
        p = sigmoid(margin)
        g = (p - y) * w
        h = np.maximum(p * (1.0 - p), 1e-16) * w
        trees.append(_fit_round_tree(bins, g, h, w, params, leaf_value))
        margin += params.learning_rate * leaf_value
    return GradientBoostedModel(
        base_score=base_score,
        learning_rate=params.learning_rate,
        trees=trees,
        feature_names=matrix.column_names(),
        params=params,
    )
