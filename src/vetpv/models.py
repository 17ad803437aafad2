"""Model registry: spec-driven fitting, soft-voting and stacking ensembles,
the shared predict_proba surface, and versioned text serialization.

Every fitted model exposes predict_proba(X) -> (n, 2) with columns
[P(Death), P(Recovered)] summing to 1, and predict(X) -> labels.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .baselines import KnnModel, KnnParams, LogisticModel, LogisticParams, fit_knn, fit_logistic
from .boosting import GbdtParams, fit_gbdt
from .forest import ForestParams, fit_forest
from .matrix import FeatureMatrix, from_arrays
from .trees import FitError, FlatTree, TreeEnsemble, TreeParams, at_least, fit_cart

MODEL_FORMAT_VERSION = 1


@dataclass(frozen=True)
class EnsembleParams:
    """The params of vote and stack. members are ModelSpecs, and none means
    default_members(seed); stack fits its meta-learner on n_folds folds."""

    seed: int = 0
    n_folds: int = 5
    members: tuple[ModelSpec, ...] = field(default_factory=tuple)

    def __post_init__(self):
        at_least(self, n_folds=2)
        if len(self.members) == 1:
            raise FitError("ensembles need at least 2 members")


# the params dataclass of each model kind
PARAMS = {
    "tree": TreeParams,
    "forest": ForestParams,
    "gbdt": GbdtParams,
    "logistic": LogisticParams,
    "knn": KnnParams,
    "vote": EnsembleParams,
    "stack": EnsembleParams,
}
MODEL_KINDS = tuple(PARAMS)
TREE_KINDS = ("tree", "forest", "gbdt")  # the kinds fitted as a TreeEnsemble


@dataclass(frozen=True)
class ModelSpec:
    """A model kind and the given keys of its params dataclass, checked by
    building the params, so a bad value fails when the spec is made."""

    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in PARAMS:
            raise FitError(f"unknown model kind {self.kind!r}")
        unknown = sorted(set(self.params) - {f.name for f in fields(PARAMS[self.kind])})
        if unknown:
            raise FitError(f"model kind {self.kind!r} takes no parameter {', '.join(unknown)}")
        PARAMS[self.kind](**self.params)


def default_members(seed: int) -> list[ModelSpec]:
    """The default ensemble trio: two boosted learners with distinct
    hyperparameters around a random forest."""
    return [
        ModelSpec("gbdt", {"n_rounds": 80, "learning_rate": 0.1, "max_depth": 4}),
        ModelSpec("forest", {"n_trees": 40, "max_depth": 10, "seed": seed + 1}),
        ModelSpec("gbdt", {"n_rounds": 150, "learning_rate": 0.05, "max_depth": 3}),
    ]


def fit_model(spec: ModelSpec, matrix: FeatureMatrix, sample_weight=None):
    if sample_weight is not None and spec.kind not in TREE_KINDS:
        raise FitError(f"{spec.kind} fitting does not support sample weights")
    params = PARAMS[spec.kind](**spec.params)
    if spec.kind == "tree":
        tree = fit_cart(matrix.values, matrix.labels, params, sample_weight=sample_weight)
        return TreeEnsemble("tree", [tree], matrix.column_names())
    if spec.kind == "gbdt":
        return fit_gbdt(matrix, params, sample_weight=sample_weight)
    if spec.kind == "forest":
        return fit_forest(matrix, params, sample_weight=sample_weight)
    if spec.kind == "logistic":
        return fit_logistic(matrix, params)
    if spec.kind == "knn":
        return fit_knn(matrix, params)
    # vote and stack fit their members on the full training matrix; stack also
    # fits its logistic meta-learner on out-of-fold member probabilities
    member_specs = list(params.members) or default_members(params.seed)
    members = [fit_model(member, matrix) for member in member_specs]
    if spec.kind == "vote":
        return VotingEnsemble(members)
    meta_X = oof_meta_features(member_specs, matrix, params.n_folds, params.seed)
    names = [f"member{m}" for m in range(len(member_specs))]
    return StackingEnsemble(members, fit_logistic(from_arrays(meta_X, matrix.labels, names=names)))


class VotingEnsemble:
    """Soft vote: the mean of member probability vectors."""

    kind = "vote"

    def __init__(self, members: list):
        if len(members) < 2:
            raise FitError("ensembles need at least 2 members")
        self.members = members
        self.feature_names = list(members[0].feature_names)

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        total = np.zeros((len(X), 2))
        for member in self.members:
            total += member.predict_proba(X)
        return total / len(self.members)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return (self.predict_proba(X)[:, 1] > 0.5).astype(np.int8)


class StackingEnsemble:
    """Members feed class-1 probabilities to a logistic meta-learner."""

    kind = "stack"

    def __init__(self, members: list, meta: LogisticModel):
        if len(members) < 2:
            raise FitError("ensembles need at least 2 members")
        self.members = members
        self.meta = meta
        self.feature_names = list(members[0].feature_names)

    def member_probs(self, X: np.ndarray) -> np.ndarray:
        return np.column_stack([m.predict_proba(X)[:, 1] for m in self.members])

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return self.meta.predict_proba(self.member_probs(X))

    def predict(self, X: np.ndarray) -> np.ndarray:
        return (self.predict_proba(X)[:, 1] > 0.5).astype(np.int8)


def oof_fold_assignment(labels: np.ndarray, n_folds: int, seed: int) -> np.ndarray:
    """Stratified fold ids: per class, shuffled indices dealt round-robin."""
    rng = np.random.default_rng(seed)
    folds = np.empty(len(labels), dtype=np.int32)
    for cls in sorted(np.unique(labels)):
        indices = np.flatnonzero(labels == cls)
        shuffled = rng.permutation(indices)
        folds[shuffled] = np.arange(len(shuffled)) % n_folds
    return folds


def oof_meta_features(
    member_specs: list[ModelSpec], matrix: FeatureMatrix, n_folds: int, seed: int
) -> np.ndarray:
    """Out-of-fold class-1 probabilities, one column per member."""
    folds = oof_fold_assignment(matrix.labels, n_folds, seed)
    meta = np.zeros((matrix.n_rows, len(member_specs)))
    for f in range(n_folds):
        hold = np.flatnonzero(folds == f)
        rest = np.flatnonzero(folds != f)
        if len(hold) == 0:
            continue
        train_part = matrix.take_rows(rest)
        hold_values = matrix.values[hold]
        for m, spec in enumerate(member_specs):
            member = fit_model(spec, train_part)
            meta[hold, m] = member.predict_proba(hold_values)[:, 1]
    return meta


# --- versioned text serialization ------------------------------------------------


def _write_tree(tree: FlatTree, out: list[str]):
    out.append(f"tree nodes={tree.n_nodes()}")
    nodes = zip(tree.children_left.tolist(), tree.children_right.tolist(), tree.feature.tolist(),
                tree.threshold.tolist(), tree.value.tolist(), tree.cover.tolist())
    for i, (left, right, feature, threshold, value, cover) in enumerate(nodes):
        if left == -1:
            out.append(f"{i} leaf {value!r} {cover!r}")
        else:
            out.append(f"{i} split {feature} {threshold!r} {left} {right} {cover!r}")


def _read_tree(lines: list[str], pos: int) -> tuple[FlatTree, int]:
    header = lines[pos]
    if not header.startswith("tree nodes="):
        raise FitError(f"expected tree header, got {header!r}")
    count = int(header.split("=", 1)[1])
    tree = FlatTree(
        children_left=np.full(count, -1, dtype=np.int32),
        children_right=np.full(count, -1, dtype=np.int32),
        feature=np.full(count, -1, dtype=np.int32),
        threshold=np.zeros(count),
        value=np.zeros(count),
        cover=np.zeros(count),
    )
    for line in lines[pos + 1:pos + 1 + count]:
        cells = line.split(" ")
        i = int(cells[0])
        tree.cover[i] = float(cells[-1])
        if cells[1] == "leaf":
            tree.value[i] = float(cells[2])
        else:
            tree.feature[i], tree.threshold[i] = int(cells[2]), float(cells[3])
            tree.children_left[i], tree.children_right[i] = int(cells[4]), int(cells[5])
    return tree, pos + 1 + count


def _vector_line(name: str, values) -> str:
    return f"{name}=" + " ".join(repr(float(v)) for v in values)


def _parse_vector(line: str, name: str) -> np.ndarray:
    prefix = f"{name}="
    if not line.startswith(prefix):
        raise FitError(f"expected {name} line, got {line!r}")
    body = line[len(prefix):]
    return np.array([float(v) for v in body.split(" ")] if body else [], dtype=np.float64)


def serialize_model(model) -> str:
    out: list[str] = [f"vetpv-model {MODEL_FORMAT_VERSION}", f"kind={model.kind}"]
    out.append("features=" + "\t".join(model.feature_names))
    if model.kind in TREE_KINDS:
        if model.kind == "gbdt":
            out.append(f"base_score={model.base_score!r}")
            out.append(f"learning_rate={model.learning_rate!r}")
        if model.kind != "tree":
            out.append(f"n_trees={len(model.trees)}")
        for tree in model.trees:
            _write_tree(tree, out)
    elif model.kind == "logistic":
        out.append(_vector_line("weights", model.weights))
        out.append(f"bias={model.bias!r}")
        out.append(_vector_line("mean", model.mean))
        out.append(_vector_line("std", model.std))
        out.append(f"converged={int(model.converged)}")
    elif model.kind == "knn":
        out.append(f"k={model.k}")
        out.append(f"n_rows={len(model.y)}")
        for label, row in zip(model.y, model.X):
            out.append(f"{int(label)} " + " ".join(repr(float(v)) for v in row))
    elif model.kind in ("vote", "stack"):
        out.append(f"n_members={len(model.members)}")
        for member in model.members:
            out.append("begin-member")
            out.append(serialize_model(member))
            out.append("end-member")
        if model.kind == "stack":
            out.append("begin-meta")
            out.append(serialize_model(model.meta))
            out.append("end-meta")
    else:
        raise FitError(f"cannot serialize model kind {model.kind!r}")
    return "\n".join(out) + "\n"


def _extract_block(lines: list[str], pos: int, begin: str, end: str) -> tuple[str, int]:
    if lines[pos] != begin:
        raise FitError(f"expected {begin!r}, got {lines[pos]!r}")
    depth = 1
    body = []
    pos += 1
    while pos < len(lines):
        line = lines[pos]
        if line == begin:
            depth += 1
        elif line == end:
            depth -= 1
            if depth == 0:
                return "\n".join(body) + "\n", pos + 1
        body.append(line)
        pos += 1
    raise FitError(f"unterminated {begin!r} block")


def parse_model(text: str):
    lines = [line for line in text.split("\n") if line != ""]
    if not lines or not lines[0].startswith("vetpv-model "):
        raise FitError("not a model file")
    version = int(lines[0].split(" ", 1)[1])
    if version != MODEL_FORMAT_VERSION:
        raise FitError(f"unsupported model format version {version}")
    kind = lines[1].split("=", 1)[1]
    feature_line = lines[2]
    if not feature_line.startswith("features="):
        raise FitError("missing features line")
    features = feature_line[len("features="):]
    feature_names = features.split("\t") if features else []
    pos = 3
    if kind in TREE_KINDS:
        base_score, learning_rate, n_trees = 0.0, 1.0, 1
        if kind == "gbdt":
            base_score = float(lines[pos].split("=", 1)[1])
            learning_rate = float(lines[pos + 1].split("=", 1)[1])
            pos += 2
        if kind != "tree":
            n_trees = int(lines[pos].split("=", 1)[1])
            pos += 1
        trees = []
        for _ in range(n_trees):
            tree, pos = _read_tree(lines, pos)
            trees.append(tree)
        return TreeEnsemble(kind, trees, feature_names, base_score, learning_rate)
    if kind == "logistic":
        weights = _parse_vector(lines[pos], "weights")
        bias = float(lines[pos + 1].split("=", 1)[1])
        mean = _parse_vector(lines[pos + 2], "mean")
        std = _parse_vector(lines[pos + 3], "std")
        converged = bool(int(lines[pos + 4].split("=", 1)[1]))
        return LogisticModel(weights, bias, mean, std, feature_names, converged)
    if kind == "knn":
        k = int(lines[pos].split("=", 1)[1])
        n_rows = int(lines[pos + 1].split("=", 1)[1])
        pos += 2
        labels, rows = [], []
        for i in range(n_rows):
            cells = lines[pos + i].split(" ")
            labels.append(int(cells[0]))
            rows.append([float(v) for v in cells[1:]])
        X = np.asarray(rows, dtype=np.float64).reshape(n_rows, len(feature_names))
        return KnnModel(X, np.asarray(labels, dtype=np.int8), k, feature_names)
    if kind in ("vote", "stack"):
        n_members = int(lines[pos].split("=", 1)[1])
        pos += 1
        members = []
        for _ in range(n_members):
            block, pos = _extract_block(lines, pos, "begin-member", "end-member")
            members.append(parse_model(block))
        if kind == "vote":
            return VotingEnsemble(members)
        block, pos = _extract_block(lines, pos, "begin-meta", "end-meta")
        return StackingEnsemble(members, parse_model(block))
    raise FitError(f"unknown model kind {kind!r} in file")
