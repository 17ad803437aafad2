import gzip
import json
import urllib.error

import pytest

from documents import fixture_document
from vetpv.ingest import (
    ChemDescriptors,
    DescriptorError,
    HttpDescriptorProvider,
    Outcome,
    ParseError,
    TableDescriptorProvider,
    check_referential_integrity,
    fetch_descriptors,
    parse_quarter,
    read_quarter_file,
)


def report(key="R1", species="Dog", reactions=1, drugs=1, outcomes=1, **overrides):
    record = {
        "unique_aer_id_number": key,
        "original_receive_date": "20230215",
        "animal": {
            "species": species,
            "breed": {"breed_component": "Beagle"},
            "gender": "Female",
            "age": {"min": "4", "unit": "Year"},
            "weight": {"min": "11.3", "unit": "Kilogram"},
        },
        "outcome": [
            {"medical_status": "Recovered/Normal", "number_of_animals_affected": "1"}
        ] * outcomes,
        "reaction": [
            {"veddra_term_name": "Vomiting", "veddra_level": "PT", "veddra_term_code": "830"}
        ] * reactions,
        "drug": [
            {
                "active_ingredients": [{"name": "Carprofen"}],
                "brand_name": "Anodyne",
                "dosage_form": "Tablet",
                "route": "Oral",
                "atc_vet_code": "QM01AE91",
            }
        ] * drugs,
    }
    record.update(overrides)
    return record


def document(*records):
    return json.dumps({"results": list(records)})


def test_cardinality_per_report():
    tables, stats = parse_quarter(document(report(drugs=2, reactions=3, outcomes=1)))
    assert len(tables.main) == 1
    assert len(tables.drugs) == 2
    assert len(tables.events) == 3
    assert len(tables.outcomes) == 1
    assert stats.reports == 1


def test_empty_results():
    tables, _ = parse_quarter('{"results": []}')
    assert tables.counts() == {"main": 0, "events": 0, "outcomes": 0, "drugs": 0}


def test_fixture_counts_match_generation_manifest():
    text, manifest = fixture_document(n_reports=1000, seed=777)
    tables, stats = parse_quarter(text)
    assert tables.counts() == {
        "main": manifest["counts"]["reports"],
        "events": manifest["counts"]["events"],
        "outcomes": manifest["counts"]["outcomes"],
        "drugs": manifest["counts"]["drugs"],
    }
    assert stats.skipped_missing_id == 0
    assert stats.invalid_outcome_rows == 0


def test_malformed_json_reports_offset():
    bad = '{"results": [ {"unique_aer_id_number": }]}'
    with pytest.raises(ParseError) as err:
        parse_quarter(bad)
    assert err.value.offset is not None
    assert bad[err.value.offset] == "}"


def test_missing_id_skipped_and_counted():
    record = report()
    record.pop("unique_aer_id_number")
    tables, stats = parse_quarter(document(record, report(key="R2")))
    assert stats.skipped_missing_id == 1
    assert [m.key for m in tables.main] == ["R2"]
    assert any("unique_aer_id_number" in d for d in stats.diagnostics)


def test_unmapped_outcome_rejected_with_diagnostic():
    record = report(outcome=[{"medical_status": "Vaporized"}])
    tables, stats = parse_quarter(document(record))
    assert stats.invalid_outcome_rows == 1
    assert tables.outcomes == []
    assert any("Vaporized" in d for d in stats.diagnostics)


def test_unknown_unit_rejects_the_measurement():
    record = report()
    record["animal"]["age"] = {"min": "4", "unit": "Fortnight"}
    tables, stats = parse_quarter(document(record))
    assert tables.main[0].age_value is None
    assert tables.main[0].age_unit is None
    assert stats.invalid_field_rows == 1
    assert any("Fortnight" in d for d in stats.diagnostics)


def test_missing_unit_defaults_allowed():
    record = report()
    record["animal"]["weight"] = {"min": "12.5"}
    tables, _ = parse_quarter(document(record))
    assert tables.main[0].weight_value == 12.5
    assert tables.main[0].weight_unit is None


def test_outcome_synonyms_normalize():
    record = report(outcome=[{"medical_status": "death"}])
    tables, _ = parse_quarter(document(record))
    assert tables.outcomes[0].medical_status is Outcome.DIED


def test_referential_integrity_on_fixture():
    text, _ = fixture_document(n_reports=200, seed=3)
    tables, _ = parse_quarter(text)
    assert check_referential_integrity(tables) == []


def test_parse_deterministic():
    text, _ = fixture_document(n_reports=50, seed=5)
    first, _ = parse_quarter(text)
    second, _ = parse_quarter(text)
    assert first.main == second.main
    assert first.events == second.events
    assert first.outcomes == second.outcomes
    assert first.drugs == second.drugs


def test_gzip_file_roundtrip(tmp_path):
    text, _ = fixture_document(n_reports=20, seed=6)
    plain = tmp_path / "q.json"
    plain.write_text(text)
    zipped = tmp_path / "q.json.gz"
    zipped.write_bytes(gzip.compress(text.encode("utf-8")))
    t1, _ = read_quarter_file(plain)
    t2, _ = read_quarter_file(zipped)
    assert t1.main == t2.main


class TestTableProvider:
    def test_bundled_aspirin_record(self):
        provider = TableDescriptorProvider.from_tsv()
        found = fetch_descriptors("acetylsalicylic acid", provider)
        assert found.molecular_weight == 180.16
        assert found.h_bond_acceptors == 4
        assert found.xlogp3 == 1.2
        assert found.exact_mass == 180.04225873

    def test_unknown_name_is_absent(self):
        provider = TableDescriptorProvider.from_tsv()
        assert fetch_descriptors("zzzz", provider) is None

    def test_case_insensitive_after_trimming(self):
        provider = TableDescriptorProvider.from_tsv()
        a = fetch_descriptors("  ACETYLSALICYLIC ACID ", provider)
        b = fetch_descriptors("acetylsalicylic acid", provider)
        assert a == b

    def test_missing_name_logged_once(self, caplog):
        provider = TableDescriptorProvider.from_tsv()
        with caplog.at_level("INFO", logger="vetpv.ingest"):
            fetch_descriptors("unobtainium", provider)
            fetch_descriptors("Unobtainium ", provider)
            fetch_descriptors("other-mystery", provider)
        mentions = [r for r in caplog.records if "unobtainium" in r.getMessage().lower()]
        assert len(mentions) == 1
        assert any("other-mystery" in r.getMessage() for r in caplog.records)


PAYLOAD = {
    "PropertyTable": {
        "Properties": [
            {
                "MolecularWeight": "180.16",
                "HBondAcceptorCount": 4,
                "XLogP": 1.2,
                "AtomStereoCount": 0,
                "Charge": 0,
                "CovalentUnitCount": 1,
                "ExactMass": "180.04225873",
            }
        ]
    }
}


class TestHttpProvider:
    def test_caches_responses(self, tmp_path):
        calls = []

        def fetcher(url):
            calls.append(url)
            return json.dumps(PAYLOAD).encode()

        provider = HttpDescriptorProvider("http://x/rest", tmp_path, fetcher, sleeper=lambda s: None)
        first = provider.lookup("aspirin")
        second = provider.lookup("Aspirin")
        assert first == second
        assert first.molecular_weight == 180.16
        assert len(calls) == 1

    def test_retries_transient_failure_with_backoff(self, tmp_path):
        attempts = []
        sleeps = []

        def fetcher(url):
            attempts.append(url)
            if len(attempts) < 3:
                raise ConnectionError("flaky")
            return json.dumps(PAYLOAD).encode()

        provider = HttpDescriptorProvider(
            "http://x/rest", tmp_path, fetcher, sleeper=sleeps.append, backoff=0.25
        )
        assert provider.lookup("aspirin") is not None
        assert len(attempts) == 3
        assert sleeps == [0.25, 0.5]

    def test_not_found_is_absent_not_error(self, tmp_path):
        def fetcher(url):
            raise urllib.error.HTTPError(url, 404, "not found", None, None)

        provider = HttpDescriptorProvider("http://x/rest", tmp_path, fetcher, sleeper=lambda s: None)
        assert provider.lookup("nothing") is None
        # negative result is served from cache afterwards
        assert provider.lookup("nothing") is None

    def test_persistent_failure_raises_descriptor_error(self, tmp_path):
        def fetcher(url):
            raise ConnectionError("down")

        provider = HttpDescriptorProvider(
            "http://x/rest", tmp_path, fetcher, sleeper=lambda s: None, max_attempts=2
        )
        with pytest.raises(DescriptorError):
            provider.lookup("aspirin")


def test_descriptor_fields_tuple_stable():
    assert ChemDescriptors.FIELDS[0] == "molecular_weight"
    assert len(ChemDescriptors.FIELDS) == 7
