"""Output checks, recomputed from the artifacts a pass left behind.

The explain check does not trust the stage's own `max_local_accuracy_error`:
`max()` over a list holding NaN depends on element order.  It re-reads the
`shap_values`, `model` and `matrix_<dataset>` artifacts and recomputes, per
explained row, whether every phi is finite and |base + sum(phi) - margin|
stays within the local-accuracy tolerance.
"""

from __future__ import annotations

import csv
import io
import math
from pathlib import Path

import numpy as np

LOCAL_ACCURACY_TOL = 1e-9


class CheckError(RuntimeError):
    """An artifact a check needs is missing or malformed."""


def read_manifest(out_dir: Path) -> str:
    path = Path(out_dir) / "manifest.tsv"
    if not path.exists():
        raise CheckError(f"no manifest under {out_dir}")
    return path.read_text(encoding="utf-8")


def _artifact(out_dir: Path, name: str) -> str:
    for line in read_manifest(out_dir).splitlines():
        key, _, filename = line.partition("\t")
        if key == name:
            return (Path(out_dir) / filename).read_text(encoding="utf-8")
    raise CheckError(f"artifact {name!r} is not in the manifest under {out_dir}")


def directory_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


def f1_by_variant(out_dir: Path) -> dict[str, float]:
    """Weighted F1 on the test split per model variant, from the `metrics` artifact."""
    found = {}
    for record in csv.DictReader(io.StringIO(_artifact(out_dir, "metrics"))):
        if record["dataset"] == "test":
            found[record["variant"]] = float(record["weighted_f1"])
    if "supervised" not in found:
        raise CheckError("metrics artifact has no supervised test row")
    for variant, value in found.items():
        if not 0.0 <= value <= 1.0:
            raise CheckError(f"{variant} test F1 {value} outside [0, 1]")
    return found


def explain_check(out_dir: Path, dataset: str = "test") -> tuple[int, int]:
    """(rows explained, bad rows)."""
    from vetpv.explain import model_margin
    from vetpv.models import parse_model

    phi: dict[str, list[float]] = {}
    base: dict[str, float] = {}
    for record in csv.DictReader(io.StringIO(_artifact(out_dir, "shap_values"))):
        phi.setdefault(record["key"], []).append(float(record["phi"]))
        base[record["key"]] = float(record["base_value"])
    if not phi:
        raise CheckError("shap_values artifact is empty")

    rows = {}
    reader = csv.reader(io.StringIO(_artifact(out_dir, f"matrix_{dataset}")))
    next(reader)
    for row in reader:
        if row[0] in phi:
            rows[row[0]] = [float(v) for v in row[2:]]
    missing = set(phi) - set(rows)
    if missing:
        raise CheckError(f"explained keys not in matrix_{dataset}: {sorted(missing)[:3]}")

    keys = list(phi)
    model = parse_model(_artifact(out_dir, "model"))
    margins = model_margin(model, np.array([rows[k] for k in keys], dtype=np.float64))
    bad = 0
    for key, margin in zip(keys, margins):
        values = np.array(phi[key])
        finite = np.isfinite(values).all() and math.isfinite(base[key])
        if not finite or abs(base[key] + float(values.sum()) - float(margin)) > LOCAL_ACCURACY_TOL:
            bad += 1
    return len(keys), bad
