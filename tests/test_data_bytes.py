"""The bytes of every artifact `vetpv ingest` and `vetpv prepare` write, and of
the tables `vetpv ingest --csv` exports, pinned.

The corpus is a fixed `synth.write_corpus` seed plus one hand-written quarter
of awkward reports: keys holding a comma, a quote or a newline, reports with
no events, drugs or outcome, invalid and under-specified ATCvet codes,
ingredients with no descriptors and a drug entry with two ingredients. SMOTE
and ENN run. Any change to how reports are merged, normalized, filtered,
imputed, encoded, pruned, split, resampled or written changes a digest.
"""

import hashlib
import json

import pytest

from vetpv.cli import main
from vetpv.synth import write_corpus

INI = """\
[paths]
input_dir = quarters
output_dir = out

[run]
seed = 31337

[prepare]
top_k = 24

[resample]
strategy = smote_enn

[model]
kind = logistic

[ssl]
enabled = false

[explain]
enabled = false
"""


def _drug(name, atc=None, route="Oral", form="Tablet", more=()):
    entry = {"active_ingredients": [{"name": name}, *({"name": m} for m in more)],
             "route": route, "dosage_form": form}
    if atc is not None:
        entry["atc_vet_code"] = atc
    return entry


AWKWARD_REPORTS = [
    {"unique_aer_id_number": 'AWK-1,"quoted"', "animal": {"species": "Dog", "gender": "Male",
     "age": {"min": "30", "unit": "Month"}, "weight": {"min": "10", "unit": "Pound"}},
     "outcome": [{"medical_status": "Died"}, {"medical_status": "Recovered"}],
     "reaction": [{"veddra_term_name": "Vomiting", "veddra_level": "PT"},
                  {"veddra_term_name": "Spontaneous combustion"}],
     "drug": [_drug("Unlisted compound", "QJ01CA01"), _drug("Amoxicillin", "bogus"),
              _drug("AMOXICILLIN", "QJ01", more=("Clavulanic acid",))]},
    {"unique_aer_id_number": "AWK-2\nline", "animal": {"species": "Cat"},
     "outcome": [{"medical_status": "Recovered"}]},
    {"unique_aer_id_number": "AWK-3", "animal": {"species": "Cat", "breed": "a,b",
     "age": {"min": "400", "unit": "Day"}, "weight": {"min": "2500", "unit": "Gram"}},
     "reaction": [{"veddra_term_name": "Lack of efficacy"}]},
    {"unique_aer_id_number": "AWK-4", "animal": {"species": "Horse",
     "age": {"min": "7", "unit": "Week"}},
     "outcome": [{"medical_status": "Ongoing"}],
     "reaction": [{"veddra_term_name": "Heart disorders", "veddra_level": "HLT"}],
     "drug": [_drug("Ivermectin", "QP54AA01", route=None, form=None)]},
]

# sha256 of each artifact, recorded before the report stages became columnar
DIGESTS = {
    "bulk_drugs": "98d87374cbd0eb1e7c8d96ebd0eb11bd34b5e73152f66da889c7bc587d40ffe7",
    "bulk_events": "262f0ee1a166a3e6c744d395b5cfff1ec4db6d454b4e4c9418774a6194cf4f27",
    "bulk_main": "16cf8ac8aa33ba481436941ba6287c9372eba6af8b1a098b55ad724d87c6a4a5",
    "bulk_outcomes": "661c0f0bd56d2f389cbd90d6837125d64111867f4d3c7d4ad3a3fa5030b8b7fb",
    "cleaned": "5996d67ec14abbdebe6cdc3e2a913204cf9626079d60ddaf492348d6297545d5",
    "columns": "e7844eb2606e58e08439c302ed0e5b35d6eca0e93112a289a5e998f4ac1266f7",
    "dropped_columns": "2b4c641022a923f35cf0659dfb0031fb6953f1f0bb810c07eb9965b6095033bf",
    "encoder": "76d40dc4e41b2c95dc0f2b18c3ad4e1e2e7db705ab9ddaca9e9f666feeaf55dd",
    "matrix_test": "07c356dd845fb3c2da1f8842d245c160394283474b34393caacadfd2462e8582",
    "matrix_train": "2a083c0c1defbee190c3ff2bef456fa2796140baa5508fcff28bacc14b436b64",
    "matrix_train_resampled": "5f0ecac75989bbbe60d180a05e85341758ca7844af77332b03ba750ac3c01512",
    "matrix_unlabeled": "1a8650f79eb769f7c2960d3b7530f3bdfee23403f2621e2e9410d4bc4cfebbac",
    "matrix_validation": "90266b129e58fc6c0aa36284512a0360204db0a143b0c7a776cc9e85b6eeec3c",
    "merge_stats": "389c21ac757cc3c0a7f8a9f86861aa558cfe371ea19f0590a8dca2d981cf290c",
    "merged": "7415f8b4b268e8814dbfb8f98b0181a75357c2c456daf3d0c42257ee1d4373a4",
    "parse_stats": "9b8e5cdb58747ea11fbff8b666667ca0b40c3465705c19316f64ac98c5d405dc",
    "rejects": "9dcfdf55e8e366ffd2dcc504d24acf6deb74a82b73788fc0dcbeb6f1c4e37e6a",
    "removal_counts": "c3b9eeea679c4f64cc9fae3a63b192a0c15e63b115746ab2c50c4b30aec82d4d",
    "resample_stats": "64ea59b8be77ff498b1cb2fa9120552db1a127421938c695f0911e6529bd0b14",
    "split_stats": "8f322cfc86fc6839f5296b804a1322d753e4818ce7933c1b3beb8ad4c027a664",
}

# sha256 of each table `vetpv ingest --csv` writes, recorded before the raw
# tables became columnar
CSV_DIGESTS = {
    "drugs.csv": "cb9e2277a9481a134db7d35261b79d2b9ef585cc00a3a4227291ab31429fad26",
    "events.csv": "8ab34a27878075ff4f3bd90b8cb8ee8d89cd48ac578e24bd428df0fc3e336c78",
    "main.csv": "63709b41aa8b10d22ae448de0fee1589ac4f587f101cfc23e0d028eb6e1d0160",
    "outcomes.csv": "fb60465c61eeb663e3bfd1514a046cdd36787eab622ec0e926de73d9a88cfc42",
}


@pytest.fixture(scope="module")
def prepared(tmp_path_factory):
    root = tmp_path_factory.mktemp("pinned-data")
    write_corpus(root, n_reports=900, seed=5150, quarters=2)
    (root / "quarters" / "awkward.json").write_text(
        json.dumps({"results": AWKWARD_REPORTS}, sort_keys=True), encoding="utf-8")
    (root / "pipeline.ini").write_text(INI.replace("= quarters", f"= {root / 'quarters'}")
                                       .replace("= out", f"= {root / 'out'}"), encoding="utf-8")
    for command in (["ingest", "--csv"], ["prepare"]):
        assert main([*command, "--config", str(root / "pipeline.ini")]) == 0
    return root / "out"


def _digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_data_stage_artifact_bytes_are_pinned(prepared):
    manifest = dict(line.split("\t") for line in (prepared / "manifest.tsv").read_text().splitlines())
    assert {name: _digest(prepared / filename) for name, filename in manifest.items()} == DIGESTS


def test_ingest_csv_bytes_are_pinned(prepared):
    assert {path.name: _digest(path) for path in (prepared / "csv").iterdir()} == CSV_DIGESTS
