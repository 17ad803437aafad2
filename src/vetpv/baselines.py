"""Baseline learners: L2-regularized logistic regression fitted by damped
Newton steps, and a distance-weighted K-nearest-neighbors classifier.

Logistic regression standardizes features internally with train-fitted
z-scores and minimizes the mean log-loss plus 0.5 * l2 * ||w||^2 (bias
unpenalized). Each step solves the Newton system (IRLS) and halves the step
until the Armijo condition holds on the loss; the fit stops at gradient norm
1e-6 or after 10,000 steps, warning (but still returning the model) if the
tolerance was not reached.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .boosting import sigmoid
from .matrix import FeatureMatrix
from .trees import FitError

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class LogisticParams:
    l2: float = 1e-4
    tol: float = 1e-6
    max_iter: int = 10_000


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
        X = np.asarray(X, dtype=np.float64)
        if X.shape[1] != len(self.weights):
            raise FitError(f"expected {len(self.weights)} features, got {X.shape[1]}")
        return (X - self.mean) / self.std

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
    if matrix.labels is None:
        raise FitError("training matrix has no labels")
    X = matrix.values
    if np.isnan(X).any():
        raise FitError("training matrix contains NaN; impute before fitting")
    y = matrix.labels.astype(np.float64)
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


class KnnModel:
    """Stores the training rows; predicts by inverse-distance-weighted vote."""

    kind = "knn"

    def __init__(self, X, y, k, feature_names):
        self.X = np.asarray(X, dtype=np.float64)
        self.y = np.asarray(y, dtype=np.int8)
        self.k = int(k)
        self.feature_names = list(feature_names)

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.shape[1] != self.X.shape[1]:
            raise FitError(f"expected {self.X.shape[1]} features, got {X.shape[1]}")
        out = np.empty((len(X), 2))
        for i, row in enumerate(X):
            deltas = self.X - row
            dist = np.sqrt(np.sum(deltas * deltas, axis=1))
            order = np.lexsort((np.arange(len(dist)), dist))[: self.k]
            votes = 1.0 / np.maximum(dist[order], 1e-12)
            w1 = float(votes[self.y[order] == 1].sum())
            total = float(votes.sum())
            out[i, 1] = w1 / total
            out[i, 0] = 1.0 - out[i, 1]
        return out

    def predict(self, X: np.ndarray) -> np.ndarray:
        return (self.predict_proba(X)[:, 1] > 0.5).astype(np.int8)


def fit_knn(matrix: FeatureMatrix, params: KnnParams = KnnParams()) -> KnnModel:
    if matrix.labels is None:
        raise FitError("training matrix has no labels")
    if params.k < 1:
        raise FitError(f"k must be >= 1, got {params.k}")
    return KnnModel(matrix.values, matrix.labels, params.k, matrix.column_names())
