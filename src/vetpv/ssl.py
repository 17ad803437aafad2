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

from .matrix import DEATH, RECOVERED, CLASS_NAMES, FeatureMatrix
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


@dataclass(frozen=True)
class AumRecord:
    key: str
    aum: float
    pseudo_label: int
    final_top_prob: float


def compute_aum(staged: np.ndarray, keys: list[str]) -> list[AumRecord]:
    """Mean top-two probability margin per column of the staged matrix.

    With two classes the margin at checkpoint t is |2 p_t - 1|. The pseudo
    label is the argmax class of the final checkpoint (ties go to Death, the
    lower class index).
    """
    staged = np.asarray(staged, dtype=np.float64)
    if staged.ndim != 2:
        raise SslError("staged matrix must be T x n")
    if staged.shape[1] != len(keys):
        raise SslError(f"{staged.shape[1]} columns but {len(keys)} keys")
    if np.any(staged < 0) or np.any(staged > 1):
        raise SslError("staged probabilities must lie in [0, 1]")
    margins = np.abs(2.0 * staged - 1.0)
    aums = margins.mean(axis=0)
    final_death = staged[-1]
    records = []
    for i, key in enumerate(keys):
        p_death = float(final_death[i])
        pseudo = DEATH if p_death >= 0.5 else RECOVERED
        records.append(
            AumRecord(
                key=key,
                aum=float(aums[i]),
                pseudo_label=pseudo,
                final_top_prob=max(p_death, 1.0 - p_death),
            )
        )
    return records


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
        if not self.allow_any_fraction and not (0.2 <= self.keep_fraction <= 0.8):
            raise SslError(
                f"keep_fraction {self.keep_fraction} outside the supported sweep "
                "range [0.2, 0.8]; set allow_any_fraction to override"
            )
        if not (0.0 <= self.keep_fraction <= 1.0):
            raise SslError(f"keep_fraction must lie in [0, 1], got {self.keep_fraction}")


def select_pseudo(records: list[AumRecord], plan: SslPlan) -> tuple[list[AumRecord], dict[str, int]]:
    """Keep the ceil(fraction * n) records with the highest scores.

    Sorting is descending by score with ties broken by key, so the selection
    is a prefix of a stable deterministic order.
    """
    if not records:
        raise SslError("no records to select from")
    ranked = sorted(records, key=lambda r: (-r.aum, r.key))
    kept = ranked[: int(np.ceil(plan.keep_fraction * len(records)))]
    counts = {
        CLASS_NAMES[DEATH]: sum(1 for r in kept if r.pseudo_label == DEATH),
        CLASS_NAMES[RECOVERED]: sum(1 for r in kept if r.pseudo_label == RECOVERED),
    }
    return kept, counts


def ssl_train(
    labeled: FeatureMatrix,
    unlabeled: FeatureMatrix,
    plan: SslPlan,
    model=None,
) -> tuple[object, list[dict], dict]:
    """Train, score the unlabeled pool, absorb the most stable predictions,
    retrain; repeat for plan.rounds rounds.

    model, when given, is plan.base_model already fitted on `labeled`; it
    stands in for the first fit, which would reproduce it.

    Returns (final model, provenance rows, summary). Provenance lists every
    pseudo-labeled key with its score and the round it entered; selected rows
    never return to the unlabeled pool.
    """
    if labeled.labels is None:
        raise SslError("labeled matrix must carry labels")
    if unlabeled.column_names() != labeled.column_names():
        raise SslError("labeled and unlabeled matrices must share the same columns")

    pool = labeled
    pool_weights = np.ones(pool.n_rows)
    remaining = unlabeled
    provenance: list[dict] = []
    rounds_run = 0
    if model is None:
        model = fit_model(plan.base_model, pool, sample_weight=pool_weights)
    if unlabeled.n_rows == 0:
        log.warning("unlabeled pool is empty; returning the supervised model")
    for round_id in range(1, plan.rounds + 1):
        if remaining.n_rows == 0:
            break
        series = make_checkpoints(model, plan.max_checkpoints)
        staged = staged_probabilities(series, remaining.values)
        records = compute_aum(staged, remaining.keys)
        selected, _ = select_pseudo(records, plan)
        if not selected:
            break
        rounds_run = round_id
        selected_keys = {r.key for r in selected}
        index_of = {key: i for i, key in enumerate(remaining.keys)}
        take = [index_of[r.key] for r in selected]
        pseudo_values = remaining.values[take]
        pseudo_labels = np.array([r.pseudo_label for r in selected], dtype=np.int8)
        pool = pool.append_rows(pseudo_values, [r.key for r in selected], pseudo_labels)
        pool_weights = np.concatenate(
            [pool_weights, np.full(len(selected), plan.pseudo_weight)]
        )
        keep_rows = [i for i, key in enumerate(remaining.keys) if key not in selected_keys]
        remaining = remaining.take_rows(np.asarray(keep_rows, dtype=np.intp))
        for record in selected:
            provenance.append(
                {
                    "key": record.key,
                    "aum": record.aum,
                    "pseudo_label": CLASS_NAMES[record.pseudo_label],
                    "round": round_id,
                }
            )
        model = fit_model(plan.base_model, pool, sample_weight=pool_weights)
    summary = {
        "rounds_run": rounds_run,
        "pseudo_rows": len(provenance),
        "final_pool_rows": pool.n_rows,
        "unlabeled_remaining": remaining.n_rows,
    }
    return model, provenance, summary


def provenance_csv(provenance: list[dict]) -> str:
    lines = ["key,aum,pseudo_label,round"]
    for row in provenance:
        lines.append(f"{row['key']},{row['aum']!r},{row['pseudo_label']},{row['round']}")
    return "\n".join(lines) + "\n"
