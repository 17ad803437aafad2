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


def _vector_line(name: str, values) -> str:
    return f"{name}=" + " ".join(repr(float(v)) for v in values)


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
        blocks = [("member", member) for member in model.members]
        if model.kind == "stack":
            blocks.append(("meta", model.meta))
        for block, part in blocks:
            out += [f"begin-{block}", serialize_model(part), f"end-{block}"]
    else:
        raise FitError(f"cannot serialize model kind {model.kind!r}")
    return "\n".join(out) + "\n"


class _Lines:
    """A model file's lines, each read once and in order."""

    def __init__(self, text: str):
        self.lines = text.split("\n")
        self.pos = 0  # lines read so far

    def next(self, prefix: str = "") -> str:
        """The rest of the next line, which must start with prefix."""
        if self.pos == len(self.lines):
            raise FitError("the file ends early")
        line = self.lines[self.pos]
        self.pos += 1
        if not line.startswith(prefix):
            raise FitError(f"expected a line starting {prefix!r}, got {line!r}")
        return line[len(prefix):]

    def expect(self, line: str):
        if self.next(line):
            raise FitError(f"expected {line!r}, got {self.lines[self.pos - 1]!r}")

    def integer(self, prefix: str, low: int, high: float = float("inf")) -> int:
        n = int(self.next(prefix))
        if not low <= n <= high:
            raise FitError(f"{prefix}{n} is out of range")
        return n


def _floats(text: str, width: int) -> np.ndarray:
    values = np.array([float(v) for v in text.split(" ")] if text else [], dtype=np.float64)
    if len(values) != width:
        raise FitError(f"expected {width} values, got {len(values)}")
    return values


def _read_tree(lines: _Lines, width: int) -> FlatTree:
    """A tree whose node i is its i-th node line and whose splits test one of
    the width features and have both children after them, so descent ends."""
    count = lines.integer("tree nodes=", 1)
    nodes = []  # (left, right, feature, threshold, value, cover) per node
    for i in range(count):
        cells = lines.next(f"{i} ").split(" ")
        if cells[0] == "leaf" and len(cells) == 3:
            nodes.append((-1, -1, -1, 0.0, float(cells[1]), float(cells[2])))
        elif cells[0] == "split" and len(cells) == 6:
            feature, left, right = int(cells[1]), int(cells[3]), int(cells[4])
            if not (0 <= feature < width and i < left < count and i < right < count):
                raise FitError(f"node {i}: feature {feature} or child {left}, {right} out of range")
            nodes.append((left, right, feature, float(cells[2]), 0.0, float(cells[5])))
        else:
            raise FitError(f"node {i} is neither a leaf nor a split")
    dtypes = (np.int32,) * 3 + (np.float64,) * 3
    return FlatTree(*(np.array(c, dtype=d) for c, d in zip(zip(*nodes), dtypes)))


def _read_model(lines: _Lines):
    """One model's lines as serialize_model writes them, through the blank line."""
    lines.expect(f"vetpv-model {MODEL_FORMAT_VERSION}")
    kind, features = lines.next("kind="), lines.next("features=")
    feature_names = features.split("\t") if features else []
    width = len(feature_names)
    if kind in TREE_KINDS:
        gbdt = kind == "gbdt"
        base_score = float(lines.next("base_score=")) if gbdt else 0.0
        learning_rate = float(lines.next("learning_rate=")) if gbdt else 1.0
        n_trees = 1 if kind == "tree" else lines.integer("n_trees=", 1)
        trees = [_read_tree(lines, width) for _ in range(n_trees)]
        model = TreeEnsemble(kind, trees, feature_names, base_score, learning_rate)
    elif kind == "logistic":
        weights = _floats(lines.next("weights="), width)
        bias = float(lines.next("bias="))
        mean, std = _floats(lines.next("mean="), width), _floats(lines.next("std="), width)
        converged = bool(lines.integer("converged=", 0, 1))
        model = LogisticModel(weights, bias, mean, std, feature_names, converged)
    elif kind == "knn":
        k = lines.integer("k=", 1)
        labels, rows = [], []
        for _ in range(lines.integer("n_rows=", 1)):
            label, _, row = lines.next().partition(" ")
            if label not in ("0", "1"):
                raise FitError(f"row label {label!r}, expected 0 or 1")
            labels.append(int(label))
            rows.append(_floats(row, width))
        model = KnnModel(rows, labels, k, feature_names)
    elif kind in ("vote", "stack"):
        parts = []
        for block in ["member"] * lines.integer("n_members=", 2) + ["meta"] * (kind == "stack"):
            lines.expect(f"begin-{block}")
            parts.append(_read_model(lines))
            lines.expect(f"end-{block}")
        model = VotingEnsemble(parts) if kind == "vote" else StackingEnsemble(parts[:-1], parts[-1])
    else:
        raise FitError(f"unknown model kind {kind!r}")
    lines.expect("")
    return model


def parse_model(text: str):
    """The model serialize_model wrote; a line out of place raises FitError naming it."""
    lines = _Lines(text)
    try:
        model = _read_model(lines)
        if lines.pos < len(lines.lines):
            raise FitError(f"a line after the model: {lines.next()!r}")
    except ValueError as exc:  # FitError, or a number that does not parse
        raise FitError(f"model file line {lines.pos}: {exc}") from None
    except RecursionError:
        raise FitError(f"model file line {lines.pos}: members nest too deeply") from None
    return model
