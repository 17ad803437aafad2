"""One benchmark pass, run in a fresh interpreter by run.py.

    python3 child.py JOB_JSON RESULT_JSON

JOB_JSON names the source tree, the workload's `.ini`, its steps and whether
the pass is traced.  RESULT_JSON receives setup_s (import of vetpv.cli through
load_config), run_s (the steps), peak_rss_mb, the error if a step failed, and
for traced passes the per-layer metrics.  Spans of a traced pass are kept in
memory and written to the job's `spans` file when the pass ends.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path


def run_pass(job: dict) -> dict:
    sys.path.insert(0, job["src"])
    result: dict = {"error": None}
    recorder = None
    start = time.perf_counter()
    import vetpv.cli as cli

    if job["trace"]:
        import spans

        recorder = spans.Recorder()
        spans.install(recorder)
        start = time.perf_counter()  # wrapping is benchmark work, not set-up
    config = cli.load_config(job["ini"])
    result["setup_s"] = time.perf_counter() - start

    start = time.perf_counter()
    try:
        for step in job["steps"]:
            if step == "run":
                cli.pipeline.run(config)
            else:
                code = cli.main([step, "--config", job["ini"]])
                if code != cli.EXIT_OK:
                    raise RuntimeError(f"vetpv {step} exited with code {code}")
    except Exception:  # the pass boundary: record the failure and report it
        result["error"] = traceback.format_exc()
    result["run_s"] = time.perf_counter() - start
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if recorder is not None:
        result["layers"] = spans.layer_metrics(recorder)
        recorder.dump(Path(job["spans"]))
    return result


def main(argv: list[str]) -> int:
    job = json.loads(Path(argv[1]).read_text(encoding="utf-8"))
    result = run_pass(job)
    Path(argv[2]).write_text(json.dumps(result), encoding="utf-8")
    return 0 if result["error"] is None else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
