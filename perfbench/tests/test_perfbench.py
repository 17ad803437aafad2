"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.fixture(scope="module", params=[0, 1], ids=["untraced", "traced"])
def tiny_all(request):
    """Every workload at its tiny size, two passes each."""
    proc = _bench("--workload", "all", "--size", "tiny", "--seconds", "0",
                  "--trace", str(request.param))
    assert proc.returncode == 0, proc.stderr
    return request.param, proc.stdout


def test_every_workload_prints_every_metric_with_its_unit(tiny_all):
    trace, stdout = tiny_all
    result = json.loads(stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 2 * len(workloads.WORKLOADS)
    # the names come from BENCHMARK.json, so this also checks its workload list
    listed = run.SPEC["per_layer"] if trace else run.SPEC["end_to_end"]
    expected = {f"{w['name']}.{m['name']}": m["unit"] for w in run.SPEC["workloads"] for m in listed}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name, _ in run.QUALITY:
        assert stdout.count(f"  {name} ") == len(workloads.WORKLOADS)


def _tiny_output(tmp_path, workload: str) -> Path:
    """A copy of the output directory the tiny run of `workload` left behind."""
    out = run.STATE / "work" / f"{workload}-tiny-seed{workloads.DEFAULT_SEED}" / "out"
    if not (out / "manifest.tsv").exists():
        assert _bench("--workload", workload, "--size", "tiny", "--seconds", "0").returncode == 0
    return Path(shutil.copytree(out, tmp_path / "out"))


def test_nan_phi_in_a_copied_artifact_is_a_bad_row(tmp_path):
    out = _tiny_output(tmp_path, "gbdt-2k")
    rows, bad = checks.explain_check(out)
    assert rows > 0 and bad == 0

    manifest = dict(line.split("\t") for line in checks.read_manifest(out).splitlines())
    shap = out / manifest["shap_values"]
    header, first, *rest = shap.read_text(encoding="utf-8").splitlines(keepends=True)
    key, feature, _, base = first.rstrip("\n").split(",")
    shap.write_text(header + f"{key},{feature},nan,{base}\n" + "".join(rest), encoding="utf-8")
    assert checks.explain_check(out) == (rows, 1)


def test_changed_manifest_counts_as_a_failed_pass(monkeypatch, tmp_path):
    manifests = iter(["a\ta-1.csv\n", "a\ta-2.csv\n", "a\ta-1.csv\n"])
    monkeypatch.setattr(run, "MIN_PASSES", 3)
    monkeypatch.setattr(run, "one_pass", lambda *a: {"traced": False, "errors": [], "run_s": 1.0,
                                                     "setup_s": 0.1, "manifest": next(manifests)})
    workload = workloads.BY_NAME["resample-5k"]
    passes = run.run_passes(workload, tmp_path / "x.ini", tmp_path, seconds=0, trace=False)
    assert [bool(p["errors"]) for p in passes] == [False, True, False]
    summary = run.summarize(workload, passes)
    assert (summary["attempted"], summary["failed"], summary["correct"]) == (3, 1, False)
    assert summary["quality"]["failed_pass_share"] == pytest.approx(1 / 3)


def test_a_step_that_exits_non_zero_fails_the_pass(tmp_path):
    data = workloads.BY_NAME["data-8k"]
    corpus = run.ensure_corpus(workloads.DEFAULT_SEED, data.sizes["tiny"][0])
    broken = workloads.Workload(name="train-only", why="", steps=("train",),
                                settings=data.settings, sizes=data.sizes)
    ini = tmp_path / "workload.ini"
    ini.write_text(workloads.render_ini(ROOT, broken, "tiny", 1, corpus / "quarters",
                                        tmp_path / "out"), encoding="utf-8")
    record = run.one_pass(broken, ini, tmp_path, 0, False)
    assert record["errors"], "train without prepared artifacts must fail"
    assert "run_s" in record  # the failed pass is still timed


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _bench("--workload", "gbdt-2k", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
