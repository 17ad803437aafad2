"""Single-document corpora for the parser and bulk-text tests."""

import json

from vetpv.synth import generate_records


def fixture_document(n_reports: int = 1000, seed: int = 777) -> tuple[str, dict]:
    """Single-document fixture with its independently tallied manifest."""
    records, manifest = generate_records(n_reports, seed)
    return json.dumps({"results": records}, indent=1, sort_keys=True), manifest
