"""Pseudo-labeling of uncertain reports gated by the average margin between
the top two predicted class probabilities across training checkpoints.

Checkpoints for tree ensembles are prefix ensembles: the boosted model after
rounds 1..T, or the forest restricted to its first t trees, subsampled to at
most max_checkpoints evenly spaced prefixes. For binary classes the margin of
checkpoint t reduces to |2 p_t - 1|, so the score is invariant under swapping
the class labels.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .matrix import CLASS_NAMES, DEATH, RECOVERED, FeatureMatrix, csv_rows
from .models import ModelSpec, fit_model
from .trees import TreeEnsemble

log = logging.getLogger(__name__)


class SslError(ValueError):
    pass


@dataclass(frozen=True)
class CheckpointSeries:
    """A predict-capable model plus the ascending prefix lengths to evaluate."""

    model: object
    checkpoints: tuple[int, ...]

    def __post_init__(self):
        if len(self.checkpoints) < 1:
            raise SslError("need at least one checkpoint")
        if list(self.checkpoints) != sorted(set(self.checkpoints)):
            raise SslError("checkpoints must be strictly ascending")
        if self.checkpoints[0] < 1:
            raise SslError("checkpoints start at prefix length 1")


def evenly_spaced_checkpoints(total: int, max_checkpoints: int) -> tuple[int, ...]:
    """Up to max_checkpoints prefix lengths in 1..total, always including total."""
    if total < 1:
        raise SslError("model has no trees to checkpoint")
    if total <= max_checkpoints:
        return tuple(range(1, total + 1))
    if max_checkpoints == 1:
        return (total,)
    points = np.linspace(1, total, max_checkpoints)
    return tuple(sorted(set(int(round(p)) for p in points)))


def make_checkpoints(model, max_checkpoints: int) -> CheckpointSeries:
    """Checkpoints of a tree model; a single tree has only the degenerate T=1 series."""
    if not isinstance(model, TreeEnsemble):
        raise SslError(f"checkpointing supports tree models, not {type(model).__name__}")
    return CheckpointSeries(model, evenly_spaced_checkpoints(len(model.trees), max_checkpoints))


def staged_probabilities(series: CheckpointSeries, rows: np.ndarray) -> np.ndarray:
    """(T, n) matrix of Death probability per checkpoint, computed in one
    pass; series.model is a TreeEnsemble, as make_checkpoints checks."""
    return 1.0 - series.model.staged_proba(rows, list(series.checkpoints))


def compute_aum(staged: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(aum, pseudo_label): the mean top-two probability margin of each
    column of the staged matrix, and its argmax class at the final checkpoint.

    With two classes the margin at checkpoint t is |2 p_t - 1|. Ties at the
    final checkpoint go to Death, the lower class index.
    """
    staged = np.asarray(staged, dtype=np.float64)
    if staged.ndim != 2:
        raise SslError("staged matrix must be T x n")
    if np.any(staged < 0) or np.any(staged > 1):
        raise SslError("staged probabilities must lie in [0, 1]")
    aum = np.abs(2.0 * staged - 1.0).mean(axis=0)
    return aum, np.where(staged[-1] >= 0.5, DEATH, RECOVERED).astype(np.int8)


@dataclass(frozen=True)
class SslPlan:
    enabled: bool = True
    keep_fraction: float = 0.3
    rounds: int = 1
    base_model: ModelSpec = field(default_factory=lambda: ModelSpec("gbdt"))
    max_checkpoints: int = 50
    pseudo_weight: float = 1.0  # sample weight of each pseudo-labeled row in a refit
    allow_any_fraction: bool = False

    def __post_init__(self):
        if self.rounds < 1:
            raise SslError(f"rounds must be >= 1, got {self.rounds}")
        if self.max_checkpoints < 1:
            raise SslError(f"max_checkpoints must be >= 1, got {self.max_checkpoints}")
        if not (0 < self.pseudo_weight < np.inf):
            raise SslError(f"pseudo_weight must be positive and finite, got {self.pseudo_weight}")
        if not (0.0 <= self.keep_fraction <= 1.0):
            raise SslError(f"keep_fraction must lie in [0, 1], got {self.keep_fraction}")
        if not self.allow_any_fraction and not (0.2 <= self.keep_fraction <= 0.8):
            raise SslError(
                f"keep_fraction {self.keep_fraction} outside the supported sweep "
                "range [0.2, 0.8]; set allow_any_fraction to override"
            )


def select_pseudo(aum: np.ndarray, keys: list[str], keep_fraction: float) -> list[int]:
    """Positions of the ceil(fraction * n) highest scores.

    Sorting is descending by score with ties broken by key, so the selection
    is a prefix of a stable deterministic order.
    """
    if not keys:
        raise SslError("no rows to select from")
    scores = aum.tolist()
    order = sorted(range(len(keys)), key=lambda i: (-scores[i], keys[i]))
    return order[: int(np.ceil(keep_fraction * len(keys)))]


def ssl_train(
    labeled: FeatureMatrix,
    unlabeled: FeatureMatrix,
    plan: SslPlan,
    model=None,
) -> tuple[object, list[tuple], dict]:
    """Train, score the unlabeled pool, absorb the most stable predictions,
    retrain; repeat for plan.rounds rounds.

    model, when given, is plan.base_model already fitted on `labeled`; it
    stands in for the first fit, which would reproduce it.

    Returns (final model, provenance, summary). Provenance holds one
    (key, aum, pseudo label, round) tuple per pseudo-labeled row, in the
    order the rows entered the pool; selected rows never return to the
    unlabeled pool.
    """
    if labeled.labels is None:
        raise SslError("labeled matrix must carry labels")
    if unlabeled.column_names() != labeled.column_names():
        raise SslError("labeled and unlabeled matrices must share the same columns")

    pool = labeled
    pool_weights = np.ones(pool.n_rows)
    remaining = unlabeled
    provenance: list[tuple] = []
    rounds_run = 0
    if model is None:
        model = fit_model(plan.base_model, pool, sample_weight=pool_weights)
    if unlabeled.n_rows == 0:
        log.warning("unlabeled pool is empty; returning the supervised model")
    for round_id in range(1, plan.rounds + 1):
        if remaining.n_rows == 0:
            break
        series = make_checkpoints(model, plan.max_checkpoints)
        aum, labels = compute_aum(staged_probabilities(series, remaining.values))
        take = select_pseudo(aum, remaining.keys, plan.keep_fraction)
        if not take:
            break
        rounds_run = round_id
        keys = [remaining.keys[i] for i in take]
        pool = pool.append_rows(remaining.values[take], keys, labels[take])
        pool_weights = np.concatenate([pool_weights, np.full(len(take), plan.pseudo_weight)])
        provenance += zip(keys, aum[take].tolist(), labels[take].tolist(), [round_id] * len(take))
        remaining = remaining.take_rows(np.delete(np.arange(remaining.n_rows), take))
        model = fit_model(plan.base_model, pool, sample_weight=pool_weights)
    summary = {
        "rounds_run": rounds_run,
        "pseudo_rows": len(provenance),
        "final_pool_rows": pool.n_rows,
        "unlabeled_remaining": remaining.n_rows,
    }
    return model, provenance, summary


def provenance_csv(provenance: list[tuple]) -> str:
    """The provenance as CSV, keys quoted as csv.writer quotes them."""
    return "".join(csv_rows([("key", "aum", "pseudo_label", "round"), *(
        (key, repr(aum), CLASS_NAMES[label], str(round_id))
        for key, aum, label, round_id in provenance
    )], "\n"))
