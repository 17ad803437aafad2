#!/usr/bin/env python3
"""The vetpv pipeline benchmark.

    python3 perfbench/run.py --workload gbdt-2k [--seed 20240801] [--seconds 25] [--trace 0|1]
    python3 perfbench/run.py --workload all           # every workload, one after another

Run it from the root of a checkout.  It generates the workload's corpus from
the seed with `vetpv.synth.write_corpus` (cached under .perfbench/ by seed and
size, so generation is never timed), writes the workload's `.ini`, then runs
passes one at a time, each in a fresh interpreter (child.py), until the run
is as near --seconds long as whole passes allow, and at least two passes have
run.  Load model: a closed loop with one client.

--trace 0 reports the end-to-end metrics as medians over the passes.
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics of the traced ones (medians), plus the tracing overhead.  Metric
names, units and directions are those listed in BENCHMARK.json.

After every pass the outputs are checked: a pass fails when a step raised or
exited non-zero, when its manifest.tsv differs from the first pass's, or when
an artifact a check needs is missing.  Failed passes are counted, not retried.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  A fuller record (machine facts, every pass)
goes to .perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

MIN_PASSES = 2
PASS_TIMEOUT_S = 150.0
# stop starting passes once the next one could end past this (exit within 180 s)
RUN_BUDGET_S = 160.0

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# Reported with every run but not bounded: they are 0 or not defined on some
# workloads.  The traced run reports the three model figures per layer too.
QUALITY = (
    ("test_f1", "ratio"),
    ("ssl_test_f1", "ratio"),
    ("bad_row_share", "ratio"),
    ("failed_pass_share", "ratio"),
)
LIMITS = (
    "Input files are read from a warm page cache: dropping caches needs system privileges "
    "the benchmark does not use, so disk behaviour is not measured. Passes run one at a "
    "time (one client) with "
    "[run] threads = 1; numpy's BLAS keeps its default thread count."
)
# variables that would send the program to the network or elsewhere on disk
_DROP_ENV = ("VETPV_DESCRIPTOR_URL", "VETPV_DESCRIPTOR_CACHE", "VETPV_OUTPUT_DIR")


def child_env() -> dict:
    return {k: v for k, v in os.environ.items() if k not in _DROP_ENV}


def facts(seed: int, reports: int, corpus: Path) -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            cpu = next((l.split(":", 1)[1].strip() for l in info if l.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    sources = sorted((SRC / "vetpv").glob("*.py"))
    digest = hashlib.sha256()
    for path in sources:
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "memory_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2**20,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "src_vetpv_lines": sum(len(p.read_bytes().splitlines()) for p in sources),
        "corpus": {"seed": seed, "reports": reports,
                   "bytes": sum(p.stat().st_size for p in (corpus / "quarters").iterdir())},
        "limits": LIMITS,
    }


def ensure_corpus(seed: int, reports: int) -> Path:
    """The corpus for (seed, reports), generated once and reused."""
    from vetpv.synth import write_corpus

    corpus = STATE / "corpora" / f"seed{seed}-n{reports}"
    if not (corpus / "manifest.json").exists():
        partial = corpus.with_name(corpus.name + ".partial")
        shutil.rmtree(partial, ignore_errors=True)
        write_corpus(partial, n_reports=reports, seed=seed)
        shutil.rmtree(corpus, ignore_errors=True)
        partial.rename(corpus)
    return corpus


def run_child(work: Path, name: str, job: dict) -> tuple[list[str], dict]:
    """Run child.py on one job; (errors, what the child reported)."""
    job_path, result_path = work / f"job-{name}.json", work / f"result-{name}.json"
    result_path.unlink(missing_ok=True)
    job_path.write_text(json.dumps({"src": str(SRC), **job}), encoding="utf-8")
    errors, result = [], {}
    with open(work / f"pass-{name}.log", "w", encoding="utf-8") as log:
        try:
            proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(job_path),
                                   str(result_path)], stdout=log, stderr=subprocess.STDOUT,
                                  env=child_env(), cwd=work, timeout=PASS_TIMEOUT_S)
            if proc.returncode != 0:
                errors.append(f"pass exited with code {proc.returncode}")
        except subprocess.TimeoutExpired:
            errors.append(f"pass killed after {PASS_TIMEOUT_S} s")
    if result_path.exists():
        result = json.loads(result_path.read_text(encoding="utf-8"))
        if result.pop("error"):
            errors.append("a step raised (see the pass log)")
    return errors, result


def one_pass(workload, ini: Path, work: Path, index: int, traced: bool) -> dict:
    import checks

    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    errors, result = run_child(work, str(index), {
        "ini": str(ini), "steps": list(workload.steps), "trace": traced,
        "spans": str(work / f"spans-{index}.jsonl"),
    })
    record = {"traced": traced, "errors": errors, **result}
    try:
        record["manifest"] = checks.read_manifest(out)
        record["artifact_mb"] = checks.directory_bytes(out) / 2**20
        if workload.trains:
            record["f1"] = checks.f1_by_variant(out)
        if workload.explains:
            record["explained_rows"], record["bad_rows"] = checks.explain_check(out)
    except (checks.CheckError, ValueError, OSError) as exc:  # missing or malformed artifacts
        record["errors"].append(f"{type(exc).__name__}: {exc}")
    return record


def run_passes(workload, ini: Path, work: Path, seconds: float, trace: bool) -> list[dict]:
    """Passes until the run is as near `seconds` long as whole passes allow."""
    kinds = itertools.cycle((False, True)) if trace else itertools.repeat(False)
    begin = time.monotonic()
    passes: list[dict] = []
    longest = 0.0
    while len(passes) < MIN_PASSES or time.monotonic() - begin + longest / 2 < seconds:
        if time.monotonic() - begin + longest > RUN_BUDGET_S:
            break
        started = time.monotonic()
        record = one_pass(workload, ini, work, len(passes), next(kinds))
        longest = max(longest, time.monotonic() - started)
        reference = next((p["manifest"] for p in passes if "manifest" in p), None)
        if reference is not None and record.get("manifest", reference) != reference:
            record["errors"].append("manifest.tsv differs from the first pass")
        passes.append(record)
    return passes


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def summarize(workload, passes: list[dict]) -> dict:
    failed = sum(1 for p in passes if p["errors"])
    plain = [p for p in passes if not p["traced"] and "run_s" in p]
    traced = [p for p in passes if p["traced"] and "layers" in p]
    quality = {"failed_pass_share": failed / len(passes)}
    if workload.trains:
        for name, variant in (("test_f1", "supervised"), ("ssl_test_f1", "ssl")):
            values = [p["f1"][variant] for p in passes if variant in p.get("f1", {})]
            if values:
                quality[name] = _median(values)
    if workload.explains:
        rows = sum(p.get("explained_rows", 0) for p in passes)
        if rows:
            quality["bad_row_share"] = sum(p.get("bad_rows", 0) for p in passes) / rows
    end_to_end = {m["name"]: _median(p[m["name"]] for p in plain if m["name"] in p)
                  for m in SPEC["end_to_end"]}

    layers = {}
    if traced:
        layers = {m["name"]: _median(p["layers"].get(m["name"], 0.0) for p in traced)
                  for m in SPEC["per_layer"]}
        layers["metrics.test_f1"] = quality.get("test_f1", 0.0)
        layers["metrics.ssl_test_f1"] = quality.get("ssl_test_f1", 0.0)
        layers["explain.bad_row_share"] = quality.get("bad_row_share", 0.0)
        traced_run = _median(p["run_s"] for p in traced)
        layers["trace.overhead_share"] = traced_run / end_to_end["run_s"] - 1.0 if plain else 0.0
    return {
        "correct": failed == 0,
        "attempted": len(passes),
        "failed": failed,
        "end_to_end": end_to_end,
        "quality": quality,
        "layers": layers,
    }


def run_workload(workload, seed: int, seconds: float, trace: bool, size: str) -> dict:
    reports = workload.sizes[size][0]
    corpus = ensure_corpus(seed, reports)
    work = STATE / "work" / f"{workload.name}-{size}-seed{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ini = work / "workload.ini"
    ini.write_text(workloads.render_ini(ROOT, workload, size, seed, corpus / "quarters",
                                        work / "out"), encoding="utf-8")
    passes = run_passes(workload, ini, work, seconds, trace)
    summary = summarize(workload, passes)
    summary["facts"] = facts(seed, reports, corpus)
    summary["passes"] = [{k: v for k, v in p.items() if k != "manifest"} for p in passes]

    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{workload.name}-{size}-seed{seed}-trace{int(trace)}.json"
    (results / name).write_text(json.dumps(summary, indent=1, sort_keys=True), encoding="utf-8")
    print_summary(workload, summary, trace)
    return summary


def print_summary(workload, summary: dict, trace: bool):
    print(f"workload {workload.name}: {workload.why}")
    print(f"facts: {json.dumps(summary['facts'], sort_keys=True)}")
    print(f"passes: {summary['attempted']} attempted, {summary['failed']} failed")
    for p in summary["passes"]:
        for error in p["errors"]:
            print(f"  failure: {error}")
    for m in SPEC["end_to_end"]:
        print(f"  {m['name']:<20} {summary['end_to_end'][m['name']]:>14.6g} {m['unit']}")
    for name, unit in QUALITY:
        value = summary["quality"].get(name)
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<20} {shown:>14} {unit}")
    if trace:
        for m in SPEC["per_layer"]:
            print(f"  {m['name']:<36} {summary['layers'].get(m['name'], 0.0):>14.6g} {m['unit']}")


def contract_line(summary: dict, trace: bool, prefix: str = "") -> dict:
    listed, values = (SPEC["per_layer"], summary["layers"]) if trace else (
        SPEC["end_to_end"], summary["end_to_end"])
    return {prefix + m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in listed}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.BY_NAME, "all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=workloads.SIZES, default="bench")
    args = parser.parse_args(argv)

    missing = [p for p in (SRC / "vetpv" / "__init__.py", ROOT / "scripts" / "make_synthetic_corpus.py")
               if not p.exists()]
    if missing:
        print(f"perfbench: run from a vetpv checkout; missing {', '.join(map(str, missing))}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    chosen = workloads.WORKLOADS if args.workload == "all" else [workloads.BY_NAME[args.workload]]
    summaries = [run_workload(w, args.seed, args.seconds, bool(args.trace), args.size) for w in chosen]
    prefix = len(chosen) > 1
    metrics = {}
    for w, s in zip(chosen, summaries):
        metrics.update(contract_line(s, bool(args.trace), f"{w.name}." if prefix else ""))
    print(json.dumps({
        "correct": all(s["correct"] for s in summaries),
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
