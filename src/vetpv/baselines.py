"""Baseline learners: L2-regularized logistic regression fitted by damped
Newton steps, and a distance-weighted K-nearest-neighbors classifier.

Logistic regression standardizes features internally with train-fitted
z-scores and minimizes the mean log-loss plus 0.5 * l2 * ||w||^2 (bias
unpenalized). Each step solves the Newton system (IRLS) and halves the step
until the Armijo condition holds on the loss; the fit stops at gradient norm
1e-6 or after 10,000 steps, warning (but still returning the model) if the
tolerance was not reached.

KNN finds each row's neighbours with resample.k_nearest, in blocks of rows.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .matrix import FeatureMatrix
from .resample import k_nearest
from .trees import at_least, checked_rows, checked_training, sigmoid

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class LogisticParams:
    l2: float = 1e-4
    tol: float = 1e-6
    max_iter: int = 10_000

    def __post_init__(self):
        at_least(self, l2=0, tol=0, max_iter=1)


def logistic_loss_grad(weights, bias, X, y, l2):
    """Mean regularized logloss and its gradient (bias unpenalized)."""
    z = X @ weights + bias
    p = sigmoid(z)
    eps = 1e-12
    loss = float(
        -np.mean(y * np.log(p + eps) + (1 - y) * np.log(1 - p + eps))
        + 0.5 * l2 * float(weights @ weights)
    )
    residual = p - y
    grad_w = X.T @ residual / len(y) + l2 * weights
    grad_b = float(np.mean(residual))
    return loss, grad_w, grad_b


class LogisticModel:
    kind = "logistic"

    def __init__(self, weights, bias, mean, std, feature_names, converged=True):
        self.weights = np.asarray(weights, dtype=np.float64)
        self.bias = float(bias)
        self.mean = np.asarray(mean, dtype=np.float64)
        self.std = np.asarray(std, dtype=np.float64)
        self.feature_names = list(feature_names)
        self.converged = converged

    def _standardize(self, X: np.ndarray) -> np.ndarray:
        return (checked_rows(X, len(self.weights)) - self.mean) / self.std

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        p1 = sigmoid(self._standardize(X) @ self.weights + self.bias)
        return np.column_stack([1.0 - p1, p1])

    def predict(self, X: np.ndarray) -> np.ndarray:
        return (self.predict_proba(X)[:, 1] > 0.5).astype(np.int8)


_ARMIJO = 1e-4  # sufficient-decrease fraction of the predicted decrease
_MAX_HALVINGS = 60


def _newton_step(Xs, weights, bias, l2, grad, scaled):
    """Solve H @ step = grad for the Hessian over [w, b]:
    H = [Xs' S Xs, Xs' s; s' Xs, sum(s)] / n + diag(l2, ..., l2, 0) with
    s = p(1 - p), built from blocks so Xs is never copied into an augmented
    matrix. lstsq gives the minimum-norm step where H is singular (a constant
    or duplicated column with l2 = 0, or saturated probabilities)."""
    n, d = Xs.shape
    p = sigmoid(Xs @ weights + bias)
    s = p * (1.0 - p)
    np.multiply(Xs, s[:, None], out=scaled)
    hessian = np.empty((d + 1, d + 1))
    hessian[:d, :d] = Xs.T @ scaled
    hessian[:d, d] = hessian[d, :d] = scaled.sum(axis=0)
    hessian[d, d] = s.sum()
    hessian /= n
    hessian[np.arange(d), np.arange(d)] += l2
    return np.linalg.lstsq(hessian, grad, rcond=None)[0]


def fit_logistic(matrix: FeatureMatrix, params: LogisticParams = LogisticParams()) -> LogisticModel:
    X, y, _ = checked_training(matrix.values, matrix.labels)
    y = y.astype(np.float64)
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    std[std == 0] = 1.0
    Xs = (X - mean) / std

    l2 = params.l2
    weights = np.zeros(X.shape[1])
    bias = 0.0
    loss, grad_w, grad_b = logistic_loss_grad(weights, bias, Xs, y, l2)
    grad_norm = float(np.sqrt(grad_w @ grad_w + grad_b * grad_b))
    scaled = np.empty_like(Xs)  # s * Xs, rewritten by every step
    for _ in range(params.max_iter):
        if grad_norm <= params.tol:
            break
        grad = np.append(grad_w, grad_b)
        step = _newton_step(Xs, weights, bias, l2, grad, scaled)
        slope = float(step @ grad)
        if not slope > 0:
            break  # no descent direction left at this precision
        t = 1.0
        for _ in range(_MAX_HALVINGS):
            trial_w = weights - t * step[:-1]
            trial_b = bias - t * step[-1]
            trial = logistic_loss_grad(trial_w, trial_b, Xs, y, l2)
            if trial[0] <= loss - _ARMIJO * t * slope:
                break
            t *= 0.5
        else:
            break  # the loss cannot resolve a decrease along the step
        weights, bias = trial_w, trial_b
        loss, grad_w, grad_b = trial
        grad_norm = float(np.sqrt(grad_w @ grad_w + grad_b * grad_b))
    converged = grad_norm <= params.tol
    if not converged:
        log.warning(
            "logistic regression did not converge: final gradient norm %.3e", grad_norm
        )
    return LogisticModel(weights, bias, mean, std, matrix.column_names(), converged)


@dataclass(frozen=True)
class KnnParams:
    k: int = 5

    def __post_init__(self):
        at_least(self, k=1)


class KnnModel:
    """Stores the training rows; predicts by inverse-distance-weighted vote."""

    kind = "knn"

    def __init__(self, X, y, k, feature_names):
        self.X = np.asarray(X, dtype=np.float64)
        self.y = np.asarray(y, dtype=np.int8)
        self.k = int(k)
        self.feature_names = list(feature_names)

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        X = checked_rows(X, self.X.shape[1])
        nearest, dist = k_nearest(self.X, X, min(self.k, len(self.X)))
        votes = 1.0 / np.maximum(dist, 1e-12)
        is_one = self.y[nearest] == 1
        # each row's class-1 votes moved to its front in order, so a row with
        # c of them sums its first c entries as votes[is_one].sum() would
        front = np.take_along_axis(votes, np.argsort(~is_one, axis=1, kind="stable"), axis=1)
        counts = is_one.sum(axis=1)
        w1 = np.zeros(len(X))
        for c in np.unique(counts[counts > 0]):
            rows = counts == c
            w1[rows] = front[rows, :c].sum(axis=1)
        p1 = w1 / votes.sum(axis=1)
        return np.column_stack([1.0 - p1, p1])

    def predict(self, X: np.ndarray) -> np.ndarray:
        return (self.predict_proba(X)[:, 1] > 0.5).astype(np.int8)


def fit_knn(matrix: FeatureMatrix, params: KnnParams = KnnParams()) -> KnnModel:
    X, y, _ = checked_training(matrix.values, matrix.labels)
    return KnnModel(X, y, params.k, matrix.column_names())
