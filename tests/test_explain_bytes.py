"""The bytes of the three CSVs the explain stage writes, pinned.

One `vetpv run` of a small gbdt on a fixed `synth.write_corpus` seed plus the
awkward quarter of `test_data_bytes` explains every training row. Any change
to how attributions are computed, grouped by species, ranked, summarized or
written changes a digest.
"""

import hashlib
import json

import pytest

from test_data_bytes import AWKWARD_REPORTS
from vetpv.cli import main
from vetpv.synth import write_corpus

INI = """\
[paths]
input_dir = quarters
output_dir = out

[run]
seed = 8675309

[prepare]
top_k = 12

[model]
kind = gbdt
n_rounds = 6
max_depth = 3

[ssl]
enabled = false

[explain]
dataset = train
top_n = 4
top_k = 5
"""

# sha256 of each explain artifact, recorded before the explain CSVs were
# written by column
DIGESTS = {
    "rankings": "1e118e4a83dceaa21e54b6b3d56b27d4237f5b0ca624a70ff638f6c2b2e5963f",
    "shap_values": "3d265a15bfa4be97aeba8b560e432cc8cbd352a7a74097d5334d810ae01cffab",
    "summary_points": "7906e8da2e3e74afc24aa632a082143702d5fac6193f360a2727a11de07c4a5b",
}


@pytest.fixture(scope="module")
def explained(tmp_path_factory):
    root = tmp_path_factory.mktemp("pinned-explain")
    write_corpus(root, n_reports=300, seed=6060, quarters=1)
    (root / "quarters" / "awkward.json").write_text(
        json.dumps({"results": AWKWARD_REPORTS}, sort_keys=True), encoding="utf-8")
    (root / "pipeline.ini").write_text(INI.replace("= quarters", f"= {root / 'quarters'}")
                                       .replace("= out", f"= {root / 'out'}"), encoding="utf-8")
    assert main(["run", "--config", str(root / "pipeline.ini")]) == 0
    return root / "out"


def test_explain_artifact_bytes_are_pinned(explained):
    manifest = dict(line.split("\t") for line in (explained / "manifest.tsv").read_text().splitlines())
    digests = {name: hashlib.sha256((explained / manifest[name]).read_bytes()).hexdigest()
               for name in DIGESTS}
    assert digests == DIGESTS
