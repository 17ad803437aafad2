"""Second-order gradient boosting on logistic loss.

Per round a regression tree is fitted to gradients g = p - y and hessians
h = p (1 - p) by the tree growth CART and the forest use (`trees.grow_trees`,
level by level, with histogram subtraction) with gain 0.5 *
[G_L^2/(H_L+l) + G_R^2/(H_R+l) - G^2/(H+l)]; leaves are -sum(g)/(sum(h)+l).
The raw margin base_score + eta * sum(trees) is the log-odds of Recovered.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matrix import FeatureMatrix
from .trees import (FitError, FlatTree, TreeEnsemble, at_least, checked_training, grow_trees,
                    node_square, rank_bins, sigmoid)
# perfbench/spans.py wraps these names in traced runs
from .trees import TreeEnsemble as GradientBoostedModel, apply_tree  # noqa: F401

PREVALENCE_CLIP = 1e-6


@dataclass(frozen=True)
class GbdtParams:
    n_rounds: int = 100
    learning_rate: float = 0.1
    max_depth: int = 4
    min_child_weight: float = 1.0
    reg_lambda: float = 1.0

    def __post_init__(self):
        at_least(self, n_rounds=1, max_depth=0, min_child_weight=0, reg_lambda=0)
        if not self.learning_rate > 0:
            raise FitError(f"learning_rate must be > 0, got {self.learning_rate}")


def gain_score(min_child_weight: float, lam: float):
    """Second-order gain over (count, gradient, hessian) sums."""

    def score(left, right, total, job):
        (_, gl, hl), (_, gr, hr) = left, right
        parent = (node_square(total[1]) / (total[2] + lam))[job]
        gains = 0.5 * (gl**2 / (hl + lam) + gr**2 / (hr + lam) - parent)
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
    return grow_trees(bins, np.array([g, h]), score, [np.arange(len(g))], make_node, splittable)[0]


def fit_gbdt(
    matrix: FeatureMatrix,
    params: GbdtParams = GbdtParams(),
    sample_weight: np.ndarray | None = None,
) -> TreeEnsemble:
    """Boost params.n_rounds trees on logistic loss.

    base_score is the log-odds of the (weighted) training prevalence, clipped
    away from 0 and 1 so degenerate inputs stay finite.
    """
    X, y, w = checked_training(matrix.values, matrix.labels, sample_weight=sample_weight)
    y = y.astype(np.float64)
    n = len(y)

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
    return TreeEnsemble("gbdt", trees, matrix.column_names(), base_score, params.learning_rate)
