"""A forest grown in forked shares of its trees is the forest grown in one.

A forked child inherits the test's monkeypatches, so the cases force the
shares by the fork rule (FORK_ELEMENTS = 0: one share per CPU), by a fixed
cut into three shares (forks on any machine) or keep one share (no fork).
"""

import hashlib
import os
import signal

import numpy as np
import pytest

from test_model_bytes import PINNED, pinned_matrix
from vetpv import forest
from vetpv.forest import ForestParams, fit_forest
from vetpv.models import ModelSpec, fit_model, serialize_model
from vetpv.trees import FitError


@pytest.fixture(autouse=True)
def no_child_left():
    """Each case ends with every child waited for, the affinity as it was,
    and fails instead of hanging on a child that never reports."""
    def hang(*_):
        raise TimeoutError("a forest fit waited 60 s")

    allowed = os.sched_getaffinity(0)
    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(60)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert os.sched_getaffinity(0) == allowed


def cut(k):
    """_shares replaced by k contiguous shares (at most one per tree)."""
    def shares(n_trees, rows):
        parts = min(k, n_trees)
        edges = [n_trees * i // parts for i in range(parts + 1)]
        return list(zip(edges, edges[1:]))
    return shares


def grown(monkeypatch, way, spec, weights=None):
    """serialize_model of spec fitted on the pinned matrix in the given way."""
    if way == "one":
        monkeypatch.setattr(forest, "FORK_ELEMENTS", 10 ** 18)
    elif way == "cpus":
        monkeypatch.setattr(forest, "FORK_ELEMENTS", 0)
    else:
        monkeypatch.setattr(forest, "_shares", cut(3))
    return serialize_model(fit_model(spec, pinned_matrix(), sample_weight=weights))


CASES = {
    **{name: spec for name, (spec, _, _) in PINNED.items() if spec.kind == "forest"},
    "no-bootstrap": ModelSpec("forest", {"n_trees": 6, "max_depth": 6, "bootstrap": False,
                                         "seed": 4}),
    "columns-beyond-d": ModelSpec("forest", {"n_trees": 5, "max_depth": 6,
                                             "features_per_split": 11, "seed": 8}),
    "one-tree": ModelSpec("forest", {"n_trees": 1, "max_depth": 6, "seed": 3}),
    "three-trees": ModelSpec("forest", {"n_trees": 3, "max_depth": 6, "seed": 6}),
}


@pytest.mark.parametrize("way", ["cpus", "three"])
@pytest.mark.parametrize("name", CASES)
def test_shares_give_the_bytes_of_one(monkeypatch, name, way):
    one = grown(monkeypatch, "one", CASES[name])
    monkeypatch.undo()
    assert grown(monkeypatch, way, CASES[name]) == one


@pytest.mark.parametrize("way", ["cpus", "three"])
@pytest.mark.parametrize("name", [n for n, (spec, _, _) in PINNED.items() if spec.kind == "forest"])
def test_shares_keep_the_pinned_digest(monkeypatch, name, way):
    spec, _, digest = PINNED[name]
    text = grown(monkeypatch, way, spec)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize("way", ["cpus", "three"])
def test_pseudo_weights_keep_the_bytes(monkeypatch, way):
    """Pseudo-labeled rows refit at weight 0.5 beside labeled rows at 1."""
    weights = np.where(np.arange(pinned_matrix().n_rows) % 3 == 0, 0.5, 1.0)
    spec = ModelSpec("forest", {"n_trees": 8, "max_depth": 7, "seed": 12})
    one = grown(monkeypatch, "one", spec, weights)
    monkeypatch.undo()
    assert grown(monkeypatch, way, spec, weights) == one


def failing_in_last_share(monkeypatch, fail):
    """Seven trees cut into shares of 2, 2 and 3; grow_cart calls fail()
    when it grows the last share, which runs in a child."""
    grow_cart = forest.grow_cart

    def patched(bins, y, w, params, roots, draw=None):
        if len(roots) == 3:
            fail()
        return grow_cart(bins, y, w, params, roots, draw)

    monkeypatch.setattr(forest, "grow_cart", patched)
    monkeypatch.setattr(forest, "_shares", cut(3))
    return ForestParams(n_trees=7, max_depth=4, seed=1)


def test_child_exception_reaches_the_caller(monkeypatch):
    parent = os.getpid()

    def fail():
        assert os.getpid() != parent
        raise ArithmeticError("share 2 failed")

    params = failing_in_last_share(monkeypatch, fail)
    with pytest.raises(ArithmeticError, match="^share 2 failed$"):
        fit_forest(pinned_matrix(), params)


def test_failure_in_own_share_still_waits_for_children(monkeypatch):
    parent = os.getpid()
    grow_cart = forest.grow_cart

    def patched(*args):
        if os.getpid() == parent:
            raise ArithmeticError("share 0 failed")
        return grow_cart(*args)

    monkeypatch.setattr(forest, "grow_cart", patched)
    monkeypatch.setattr(forest, "_shares", cut(3))
    with pytest.raises(ArithmeticError, match="^share 0 failed$"):
        fit_forest(pinned_matrix(), ForestParams(n_trees=7, max_depth=4, seed=1))


def test_child_that_dies_without_trees_is_a_fit_error(monkeypatch):
    params = failing_in_last_share(monkeypatch, lambda: os._exit(3))
    with pytest.raises(FitError, match="exited with status 3 before sending its trees"):
        fit_forest(pinned_matrix(), params)


def test_share_rule(monkeypatch):
    monkeypatch.setattr(forest.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    rows = forest.FORK_ELEMENTS
    assert forest._shares(10, rows) == [(0, 2), (2, 5), (5, 7), (7, 10)]
    assert forest._shares(3, rows) == [(0, 1), (1, 2), (2, 3)]
    assert forest._shares(1, rows) == [(0, 1)]
    assert forest._shares(10, rows // 10 - 1) == [(0, 10)]  # too small to repay a fork
