"""Random forest over the CART learner: bootstrap rows, random feature subset
per split, per-tree RNG streams spawned from the seed.

The bootstraps are drawn and the matrix coded (`trees.rank_bins`) once. The
trees are then cut into contiguous shares, one per CPU the process may run
on (`os.sched_getaffinity`). Each share's trees grow in lockstep with
`trees.grow_cart`: share 0 in the calling process, every other one in a
child made by `os.fork`, which sends its trees back pickled through a pipe.
Each tree keeps its own stream and node order, and a node's sums do not
depend on the nodes searched with it, so a tree is the same whichever share
grows it and the forest's bytes do not depend on the CPU count. A fit too
small to repay a fork (FORK_ELEMENTS) grows in one share, in the calling
process."""

from __future__ import annotations

import math
import os
import pickle
from dataclasses import dataclass

import numpy as np

from .matrix import FeatureMatrix
from .trees import (FitError, TreeEnsemble, TreeParams, at_least, checked_training, grow_cart,
                    rank_bins)
# perfbench/spans.py wraps these names in traced runs
from .trees import TreeEnsemble as RandomForestModel, apply_tree, fit_cart  # noqa: F401

# A fit forks only when rows x trees reaches this. On a 2-core VM (medians
# of 15 alternating fits of random matrices, inline against two shares), a
# fork, pipe and pickle cost about 6 ms: 3 trees on 60 rows (180) took
# 4.6 ms inline and 10.7 ms in shares. At 20 trees on 500 rows of 40
# columns (10,000) the shares won 10 of 15 at 63.5 against 62.0 ms; at 20
# trees on 1,000 rows (20,000) they won 13-15 of 15, by 30-35%.
FORK_ELEMENTS = 20_000


@dataclass(frozen=True)
class ForestParams:
    n_trees: int = 50
    max_depth: int = 8
    min_leaf: int = 1
    features_per_split: int | None = None  # None = round(sqrt(d))
    seed: int = 0
    bootstrap: bool = True

    def __post_init__(self):
        at_least(self, n_trees=1, max_depth=0, min_leaf=1, seed=0)
        if self.features_per_split is not None:
            at_least(self, features_per_split=1)


def fit_forest(
    matrix: FeatureMatrix,
    params: ForestParams = ForestParams(),
    sample_weight: np.ndarray | None = None,
) -> TreeEnsemble:
    X, y, w = checked_training(matrix.values, matrix.labels, params.min_leaf, sample_weight)
    n, d = X.shape
    m = params.features_per_split
    if m is None:
        m = max(1, int(round(math.sqrt(d))))
    streams = np.random.SeedSequence(params.seed).spawn(params.n_trees)
    rngs = [np.random.default_rng(stream) for stream in streams]
    # Bootstraps are row indices into the one coding; a repeat counts as a
    # row, so a row's weight counts once per draw.
    roots = [rng.integers(0, n, size=n) if params.bootstrap else np.arange(n) for rng in rngs]
    bins = rank_bins(X)
    tree_params = TreeParams(max_depth=params.max_depth, min_leaf=params.min_leaf)

    def grow(lo, hi):
        """Trees lo to hi - 1, each from its own root and stream."""
        def draw(t):
            return np.sort(rngs[lo + t].choice(d, size=m, replace=False))

        return grow_cart(bins, y, w, tree_params, roots[lo:hi], None if m >= d else draw)

    trees = _grow_shares(grow, _shares(params.n_trees, n))
    return TreeEnsemble("forest", trees, matrix.column_names())


def _shares(n_trees: int, rows: int) -> list:
    """(first, end) tree bounds of each share: one per CPU, at most one per
    tree, and one alone when the fit is too small to repay a fork."""
    parts = 1
    if hasattr(os, "sched_setaffinity") and rows * n_trees >= FORK_ELEMENTS:  # Linux: fork too
        parts = min(len(os.sched_getaffinity(0)), n_trees)
    edges = [n_trees * i // parts for i in range(parts + 1)]
    return list(zip(edges, edges[1:]))


def _grow_shares(grow, shares: list) -> list:
    """grow(*share) for every share, concatenated in order: the first in this
    process, each other in a forked child. Share i runs on the i-th CPU this
    process may use: where the kernel does not balance load between CPUs
    (a cpuset with sched_load_balance = 0), a child left unbound stays on
    its parent's CPU and the shares take turns. A child's exception is
    raised here; a child that leaves without sending its trees is a
    FitError. Every child is waited for before this returns or raises."""
    if len(shares) == 1:
        return grow(*shares[0])
    allowed = os.sched_getaffinity(0)
    cpus = sorted(allowed)
    children = []  # (pid, read end of its pipe); a closed pipe's child was waited for
    try:
        for i, share in enumerate(shares[1:], start=1):
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(read)
                _send_share(write, grow, share, cpus[i % len(cpus)])
            os.close(write)
            children.append((pid, os.fdopen(read, "rb")))
        os.sched_setaffinity(0, cpus[:1])
        try:
            trees = grow(*shares[0])
        finally:
            os.sched_setaffinity(0, allowed)
        for pid, pipe in children:
            data = pipe.read()
            status = _wait(pid, pipe)
            if status != 0:
                raise FitError(f"a forest share's process exited with status {status} "
                               "before sending its trees")
            share = pickle.loads(data)  # written by _send_share in this program's child
            if isinstance(share, BaseException):
                raise share
            trees += share
        return trees
    finally:
        for pid, pipe in children:
            if not pipe.closed:
                _wait(pid, pipe)


def _send_share(write: int, grow, share, cpu: int):
    """In a forked child: grow the share on cpu and write its trees, or the
    exception it raised, to the pipe; then leave without returning into the
    caller's stack. Exit status 0 means the pipe holds the whole result."""
    status = 1
    try:
        os.sched_setaffinity(0, [cpu])
        try:
            result = grow(*share)
        except Exception as exc:
            result = exc
        with os.fdopen(write, "wb") as pipe:
            pipe.write(pickle.dumps(result))
        status = 0
    finally:
        os._exit(status)


def _wait(pid: int, pipe) -> int:
    """Close a child's pipe and wait for it; its exit status (-N: signal N)."""
    pipe.close()
    return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
