"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines as they complete. The desk-scale corpus (5,000 reports, documented
noisy-rule signal) is generated once per session from a fixed seed.
"""

import itertools
import math
import shutil
import time
from dataclasses import replace

import numpy as np
import pytest

from oracles import brute_force_best_split, brute_force_enn, random_cover_tree, subset_expectation
from vetpv import pipeline
from vetpv.boosting import GbdtParams, fit_gbdt
from vetpv.bulkio import export_bulk_string, import_bulk_string
from vetpv.config import config_hash, load_config
from vetpv.explain import base_value, model_margin, tree_shap_batch
from vetpv.harmonize import map_atcvet
from vetpv.ingest import AgeUnit, ChemDescriptors, WeightUnit
from vetpv.matrix import DEATH, RECOVERED, from_arrays
from vetpv.metrics import Confusion, evaluate, metrics
from vetpv.models import ModelSpec, fit_model
from vetpv.prepare import normalize_units, stratified_assignment
from vetpv.resample import ResamplePlan, apply_plan, enn, random_resample, smote
from vetpv.ssl import SslPlan, compute_aum, ssl_train
from vetpv.synth import write_corpus
from vetpv.trees import DecisionTreeModel, TreeParams, fit_cart

CORPUS_SEED = 20240801

PIPELINE_INI = """\
[paths]
input_dir = quarters
output_dir = out

[run]
seed = 20240801
threads = 1

[model]
kind = gbdt
n_rounds = 120
learning_rate = 0.1
max_depth = 4

[ssl]
enabled = true
keep_fraction = 0.3

[explain]
dataset = test
"""


def ok(criterion: int, label: str):
    print(f"ACCEPTANCE {criterion} {label}: PASS")


@pytest.fixture(scope="session")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance-corpus")
    write_corpus(root, n_reports=5000, seed=CORPUS_SEED, quarters=4)
    (root / "pipeline.ini").write_text(PIPELINE_INI, encoding="utf-8")
    return root


@pytest.fixture(scope="session")
def prepared(corpus, tmp_path_factory):
    """Cleaned reports ready for per-seed splitting (criterion 8)."""
    out = tmp_path_factory.mktemp("acceptance-prep")
    config = load_config(corpus / "pipeline.ini")
    config = replace(config, output_dir=out)
    store = pipeline.ArtifactStore(out)
    tables, _ = pipeline.stage_ingest(config, store)
    reports, _ = pipeline.stage_harmonize(config, store, tables)
    cleaned, _ = pipeline.stage_prepare(config, store, reports)
    return config, store, cleaned


def all_subset_values(flat, x, n_features):
    features = list(range(n_features))
    return {
        frozenset(s): subset_expectation(flat, x, frozenset(s))
        for r in range(n_features + 1)
        for s in itertools.combinations(features, r)
    }


def shapley_from_subset_values(values, n_features):
    phi = np.zeros(n_features)
    for j in range(n_features):
        for subset, v in values.items():
            if j in subset:
                continue
            weight = (
                math.factorial(len(subset))
                * math.factorial(n_features - len(subset) - 1)
                / math.factorial(n_features)
            )
            phi[j] += weight * (values[subset | {j}] - v)
    return phi


def test_criterion_1_treeshap_oracle_equivalence(separable_matrix):
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    n_features = 4
    for _ in range(200):
        flat = random_cover_tree(rng, n_features=n_features, max_depth=3)
        model = DecisionTreeModel(flat, [f"f{j}" for j in range(n_features)], TreeParams())
        rows = rng.uniform(size=(50, n_features))
        for x, got in zip(rows, tree_shap_batch(model, rows)):
            subsets = all_subset_values(flat, x, n_features)
            want = shapley_from_subset_values(subsets, n_features)
            assert np.allclose(got, want, atol=1e-9)

    gbdt = fit_gbdt(separable_matrix, GbdtParams(n_rounds=40, max_depth=3))
    margins = model_margin(gbdt, separable_matrix.values)
    phi = tree_shap_batch(gbdt, separable_matrix.values)
    assert np.all(np.abs(base_value(gbdt) + phi.sum(axis=1) - margins) <= 1e-9)

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"criterion 1 took {elapsed:.1f}s"
    ok(1, f"TreeSHAP oracle equivalence ({elapsed:.1f}s)")


def test_criterion_2_aum_arithmetic():
    worked = compute_aum(np.array([[0.9], [0.8], [0.7]]), ["k"])[0]
    assert worked.aum == pytest.approx(0.6, abs=1e-15)
    assert compute_aum(np.full((5, 1), 0.5), ["k"])[0].aum == 0.0
    assert compute_aum(np.ones((3, 1)), ["k"])[0].aum == 1.0

    rng = np.random.default_rng(1002)
    total = 0
    while total < 10_000:
        t = int(rng.integers(1, 21))
        n = int(rng.integers(1, 60))
        staged = rng.uniform(size=(t, n))
        keys = [f"k{i}" for i in range(n)]
        records = compute_aum(staged, keys)
        flipped = compute_aum(1.0 - staged, keys)
        for a, b in zip(records, flipped):
            assert 0.0 <= a.aum <= 1.0
            assert abs(a.aum - b.aum) <= 1e-12
        total += n
    ok(2, f"AUM arithmetic and invariance over {total} random series")


def test_criterion_3_resampling_oracles():
    rng = np.random.default_rng(1003)
    # ENN equals the O(n^2) brute-force editor on 100 random datasets
    for trial in range(100):
        n = int(rng.integers(30, 301))
        d = int(rng.integers(2, 5))
        n_min = max(int(0.25 * n), 4)
        X = np.vstack(
            [rng.normal(0.7, 1.0, size=(n_min, d)), rng.normal(-0.7, 1.0, size=(n - n_min, d))]
        )
        y = np.array([DEATH] * n_min + [RECOVERED] * (n - n_min), dtype=np.int8)
        matrix = from_arrays(X, y)
        mode = "majority_only" if trial % 2 == 0 else "all"
        plan = ResamplePlan(strategy="smote_enn", k_enn=3, enn_mode=mode)
        got = enn(matrix, plan)
        keep = brute_force_enn(X, y, k=3, majority_only=(mode == "majority_only"))
        assert got.keys == [matrix.keys[i] for i in np.flatnonzero(keep)]

    # every SMOTE synthetic point is a convex combination of two minority rows
    X = np.vstack([np.random.default_rng(7).normal(1, 1, (25, 3)),
                   np.random.default_rng(8).normal(-1, 1, (75, 3))])
    y = np.array([DEATH] * 25 + [RECOVERED] * 75, dtype=np.int8)
    matrix = from_arrays(X, y)
    grown = smote(matrix, ResamplePlan(strategy="smote", seed=9))
    minority = X[:25]
    for s in grown.values[matrix.n_rows:]:
        deviation = _min_segment_deviation(s, minority)
        assert deviation <= 1e-9

    # random over/under sampling hits exact class counts
    out = random_resample(matrix, ResamplePlan(strategy="oversample"))
    assert out.class_counts() == {"Death": 75, "Recovered": 75}
    out = random_resample(matrix, ResamplePlan(strategy="undersample"))
    assert out.class_counts() == {"Death": 25, "Recovered": 25}
    out = random_resample(matrix, ResamplePlan(strategy="undersample", target_ratio=0.5))
    assert out.class_counts() == {"Death": 25, "Recovered": 50}
    ok(3, "resampling oracles (ENN brute force, SMOTE convexity, exact counts)")


def _min_segment_deviation(point, minority):
    """Distance from `point` to the nearest segment between two minority rows."""
    best = np.inf
    for a in range(len(minority)):
        pa = point - minority[a]
        if np.linalg.norm(pa) <= best:
            best = min(best, float(np.linalg.norm(pa)))
        for b in range(len(minority)):
            if a == b:
                continue
            ab = minority[b] - minority[a]
            denom = float(ab @ ab)
            if denom == 0:
                continue
            lam = float(pa @ ab) / denom
            if -1e-12 <= lam <= 1 + 1e-12:
                residual = pa - lam * ab
                best = min(best, float(np.linalg.norm(residual)))
    return best


def test_criterion_4_split_stratification():
    labels = np.array([DEATH] * 150 + [RECOVERED] * 850, dtype=np.int8)
    ratios = (0.8, 0.1, 0.1)
    for seed in range(1000):
        assignment = stratified_assignment(labels, ratios, seed)
        for cls, count in ((DEATH, 150), (RECOVERED, 850)):
            for split_id, ratio in enumerate(ratios):
                got = int(np.sum((labels == cls) & (assignment == split_id)))
                assert abs(got - count * ratio) <= 1, (seed, cls, split_id)
    ok(4, "split stratification within one sample over 1000 seeds")


def test_criterion_5_tree_split_oracle():
    rng = np.random.default_rng(1005)
    checked = 0
    for _ in range(100):
        n = int(rng.integers(12, 201))
        d = int(rng.integers(1, 7))
        X = rng.normal(size=(n, d))
        y = (X[:, rng.integers(0, d)] + rng.normal(scale=0.7, size=n) > 0).astype(np.int8)
        if len(np.unique(y)) < 2:
            continue
        tree = fit_cart(X, y, TreeParams(max_depth=1))
        oracle = brute_force_best_split(X, y)
        if oracle is None:
            assert tree.children_left[0] == -1
        else:
            assert (tree.feature[0], tree.threshold[0]) == (oracle[1], oracle[2])
            checked += 1
    assert checked >= 90
    ok(5, f"tree split equals exhaustive impurity search on {checked} datasets")


def test_criterion_6_metrics_worked_values():
    report = metrics(Confusion(tp=25, fp=15, tn=225, fn=35))
    assert report.death_f1 == pytest.approx(0.5, abs=1e-12)
    assert report.recovered_f1 == pytest.approx(0.9, abs=1e-12)
    assert report.weighted_f1 == pytest.approx(0.2 * 0.5 + 0.8 * 0.9, abs=1e-12)

    from oracles import plain_metrics

    cases = [
        (1, 0, 1, 0), (5, 5, 5, 5), (10, 0, 0, 10), (0, 10, 10, 0),
        (3, 7, 80, 10), (25, 15, 225, 35), (1, 1, 1, 1), (50, 0, 50, 0),
        (2, 8, 85, 5), (30, 10, 55, 5), (12, 3, 70, 15), (7, 0, 90, 3),
        (0, 0, 10, 5), (5, 0, 10, 0), (9, 9, 1, 1), (40, 5, 50, 5),
        (6, 2, 88, 4), (15, 15, 60, 10), (20, 1, 75, 4), (33, 11, 44, 12),
    ]
    assert len(cases) == 20
    for tp, fp, tn, fn in cases:
        got = metrics(Confusion(tp=tp, fp=fp, tn=tn, fn=fn))
        want = plain_metrics(tp, fp, tn, fn)
        for name, value in want.items():
            assert getattr(got, name) == value, (tp, fp, tn, fn, name)
    ok(6, "metrics match hand-computed values on 20 confusion matrices")


def test_criterion_7_end_to_end_desk_run(corpus, tmp_path):
    config = load_config(corpus / "pipeline.ini")
    out = tmp_path / "out"
    config = replace(config, output_dir=out)

    start = time.perf_counter()
    report = pipeline.run(config, echo=lambda *a: None)
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"pipeline took {elapsed:.0f}s"
    assert [s.name for s in report.stages] == list(pipeline.STAGES)

    evaluate_stage = next(s for s in report.stages if s.name == "evaluate")
    f1 = evaluate_stage.details["supervised_test"]["weighted_f1"]
    assert f1 >= 0.90, f"GBDT test weighted F1 {f1}"

    # ingestion round-trip on the persisted bulk tables
    store = pipeline.ArtifactStore(out)
    tables = pipeline.load_tables(store)
    assert import_roundtrip_holds(tables)

    # byte-identical rerun
    snapshot = tmp_path / "snapshot"
    shutil.copytree(out, snapshot)
    rerun = pipeline.run(config, echo=lambda *a: None)
    assert rerun.config_hash == report.config_hash == config_hash(config)
    for path in sorted(snapshot.iterdir()):
        if path.name == "run_report.json":  # timings differ by design
            continue
        assert (out / path.name).read_bytes() == path.read_bytes(), path.name
    ok(7, f"end-to-end run in {elapsed:.0f}s, test weighted F1 {f1:.3f}, byte-identical rerun")


def import_roundtrip_holds(tables) -> bool:
    texts = export_bulk_string(tables)
    back = import_bulk_string(texts)
    return (
        back.main == tables.main
        and back.events == tables.events
        and back.outcomes == tables.outcomes
        and back.drugs == tables.drugs
        and export_bulk_string(back) == texts
    )


def test_criterion_8_paper_trend_checks(prepared):
    config, store, cleaned = prepared
    trend_up = 0
    ssl_ok = 0
    seeds = (11, 12, 13, 14, 15)
    for seed in seeds:
        cfg = replace(config, seed=seed)
        matrices, _ = pipeline.stage_split(cfg, store, cleaned)
        train, test, unlabeled = matrices["train"], matrices["test"], matrices["unlabeled"]

        dt_spec = ModelSpec("tree", {"max_depth": 6})
        dr_none = evaluate(test.labels, fit_model(dt_spec, train).predict(test.values)).death_recall
        undersampled = apply_plan(train, ResamplePlan(strategy="undersample", seed=seed))
        dr_under = evaluate(
            test.labels, fit_model(dt_spec, undersampled).predict(test.values)
        ).death_recall
        if dr_under > dr_none:
            trend_up += 1

        gb_spec = ModelSpec(
            "gbdt", {"n_rounds": 100, "learning_rate": 0.1, "max_depth": 4, "seed": seed}
        )
        supervised = fit_model(gb_spec, train)
        f1_sup = evaluate(test.labels, supervised.predict(test.values)).weighted_f1
        ssl_model, _, _ = ssl_train(
            train, unlabeled, SslPlan(keep_fraction=0.3, base_model=gb_spec), model=supervised
        )
        f1_ssl = evaluate(test.labels, ssl_model.predict(test.values)).weighted_f1
        if f1_ssl - f1_sup >= -0.02:
            ssl_ok += 1

    assert trend_up > len(seeds) / 2, f"undersampling raised Death recall on {trend_up}/5 seeds"
    assert ssl_ok > len(seeds) / 2, f"pseudo-labeling kept F1 within -0.02 on {ssl_ok}/5 seeds"
    ok(8, f"trend checks: Death-recall lift {trend_up}/5 seeds, pseudo-label F1 held {ssl_ok}/5")


def test_criterion_9_units_and_merging():
    from vetpv.harmonize import MergedReport
    from vetpv.ingest import Outcome

    def report(**kw):
        base = dict(
            key="K", species="Dog", breed=None, gender=None, age_value=None, age_unit=None,
            weight_value=None, weight_unit=None, outcome=Outcome.RECOVERED, ae_terms=[],
            ingredients=[], atcvet_subgroups=[], routes=[], dosage_forms=[],
            descriptors=ChemDescriptors(),
        )
        base.update(kw)
        return MergedReport(**base)

    assert normalize_units(report(age_value=24, age_unit=AgeUnit.MONTH)).age_years == 2.0
    assert (
        normalize_units(report(weight_value=10, weight_unit=WeightUnit.POUND)).weight_kg
        == 4.5359237
    )

    from vetpv.harmonize import _sum_descriptors

    summed = _sum_descriptors(
        [ChemDescriptors(molecular_weight=100.0), ChemDescriptors(molecular_weight=250.5)]
    )
    assert summed.molecular_weight == 350.5

    assert map_atcvet("QJ01CA01") == "QJ01CA"
    ok(9, "unit normalization and merging worked values exact")
