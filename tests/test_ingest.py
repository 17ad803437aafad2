import datetime as dt
import gzip
import json

import numpy as np
import pytest

from documents import fixture_document
from oracles import parse_per_row, table_rows
from vetpv import pipeline
from vetpv.config import load_config
from vetpv.explain import SPECIES_GROUPS, ExplainError, load_species_groups
from vetpv.harmonize import MergeError, OntologyError, VeddraMap
from vetpv.ingest import (
    ChemDescriptors,
    Outcome,
    ParseError,
    RawTables,
    descriptor_table,
    load_outcome_synonyms,
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
    assert tables.main["key"] == ["R2"]
    assert any("unique_aer_id_number" in d for d in stats.diagnostics)


def test_unmapped_outcome_rejected_with_diagnostic():
    record = report(outcome=[{"medical_status": "Vaporized"}])
    tables, stats = parse_quarter(document(record))
    assert stats.invalid_outcome_rows == 1
    assert len(tables.outcomes) == 0
    assert any("Vaporized" in d for d in stats.diagnostics)


def test_unknown_unit_rejects_the_measurement():
    record = report()
    record["animal"]["age"] = {"min": "4", "unit": "Fortnight"}
    tables, stats = parse_quarter(document(record))
    assert tables.main["age_value"] == [None]
    assert tables.main["age_unit"] == [None]
    assert stats.invalid_field_rows == 1
    assert any("Fortnight" in d for d in stats.diagnostics)


def test_missing_unit_defaults_allowed():
    record = report()
    record["animal"]["weight"] = {"min": "12.5"}
    tables, _ = parse_quarter(document(record))
    assert tables.main["weight_value"] == [12.5]
    assert tables.main["weight_unit"] == [None]


def animal(**fields):
    """report()'s animal object with fields replaced."""
    return {**report()["animal"], **fields}


@pytest.mark.parametrize("overrides, counts", [
    ({"outcome": [{"medical_status": "Died", "number_of_animals_affected": 1e400}]}, (1, 1, 1)),
    ({"reaction": ["Vomiting"]}, (0, 1, 1)),
    ({"reaction": 5}, (0, 1, 1)),
    ({"outcome": ["Died"]}, (1, 0, 1)),
    ({"drug": ["Carprofen"]}, (1, 1, 0)),
    ({"drug": [{"active_ingredients": 5}]}, (1, 1, 0)),
    ({"animal": "dog"}, (1, 1, 1)),
    ({"animal": animal(age=4)}, (1, 1, 1)),
    ({"animal": animal(weight="heavy")}, (1, 1, 1)),
    ({"animal": animal(age={"min": "NaN", "unit": "Year"})}, (1, 1, 1)),
    ({"animal": animal(weight={"min": "inf", "unit": "Kilogram"})}, (1, 1, 1)),
    ({"animal": animal(age={"min": True, "unit": "Year"})}, (1, 1, 1)),
    ({"animal": animal(age={"min": False, "unit": "Year"})}, (1, 1, 1)),
    ({"animal": animal(weight={"min": True, "unit": "Kilogram"})}, (1, 1, 1)),
    ({"animal": animal(weight={"min": False, "unit": "Kilogram"})}, (1, 1, 1)),
    ({"outcome": [{"medical_status": "Died", "number_of_animals_affected": True}]}, (1, 1, 1)),
    ({"outcome": [{"medical_status": "Died", "number_of_animals_affected": False}]}, (1, 1, 1)),
    ({"original_receive_date": "20230231"}, (1, 1, 1)),
    ({"original_receive_date": "2023-13-01"}, (1, 1, 1)),
], ids=["affected 1e400", "reaction entry", "reaction list", "outcome entry", "drug entry",
        "ingredient list", "animal", "age", "weight", "age NaN", "weight inf", "age true",
        "age false", "weight true", "weight false", "affected true", "affected false",
        "date 20230231", "date 2023-13-01"])
def test_bad_value_is_a_counted_reject(overrides, counts):
    # json.dumps writes the float 1e400 as Infinity; an input file may spell it 1e400
    text = document(report(**overrides)).replace("Infinity", "1e400")
    tables, stats = parse_quarter(text)
    assert (len(tables.main), len(tables.events), len(tables.outcomes), len(tables.drugs)) == (
        1, *counts)
    assert stats.invalid_field_rows == 1
    assert len(stats.diagnostics) == 1 and stats.diagnostics[0].startswith("report R1: ")
    numbers = tables.main["age_value"] + tables.main["weight_value"]
    assert all(v is None or np.isfinite(v) for v in numbers + tables.outcomes["animals_affected"])
    bad_date = "original_receive_date" in overrides
    assert tables.main["received_date"] == [None if bad_date else dt.date(2023, 2, 15)]


def test_outcome_synonyms_normalize():
    record = report(outcome=[{"medical_status": "death"}])
    tables, _ = parse_quarter(document(record))
    assert tables.outcomes["medical_status"] == [Outcome.DIED]


def test_child_keys_are_main_keys_across_files(tmp_path):
    """Two quarter files ingest into one set of tables whose every child key
    is a main key; a report id in both files stays, and fails at harmonize."""
    first, _ = fixture_document(n_reports=120, seed=3)
    repeated = json.loads(first)["results"][7]["unique_aer_id_number"]
    (tmp_path / "quarters").mkdir()
    (tmp_path / "quarters" / "q1.json").write_text(first, encoding="utf-8")
    (tmp_path / "quarters" / "q2.json.gz").write_bytes(gzip.compress(
        document(report(key="ONLY-Q2", drugs=2), report(key=repeated)).encode("utf-8")))
    (tmp_path / "pipeline.ini").write_text(
        "[paths]\ninput_dir = quarters\noutput_dir = out\n[run]\nseed = 1\n", encoding="utf-8")
    config = load_config(tmp_path / "pipeline.ini")
    _, outputs = pipeline.run(config, ["ingest"], echo=lambda *a: None)
    tables = outputs["ingest"]
    assert len(tables.main) == 122
    main_keys = set(tables.main["key"])
    for name in ("events", "outcomes", "drugs"):
        assert set(getattr(tables, name)["key"]) <= main_keys, name
    assert "ONLY-Q2" in tables.drugs["key"]
    with pytest.raises(MergeError, match=repeated):
        pipeline.run(config, ["harmonize"], echo=lambda *a: None)


def test_parse_deterministic():
    text, _ = fixture_document(n_reports=50, seed=5)
    first, _ = parse_quarter(text)
    second, _ = parse_quarter(text)
    assert first == second


def awkward_records(seed: int, n: int = 80) -> list:
    """Reports with missing, blank, numeric and repeated ids, non-object
    reports, animals, measurements and list entries, unreadable, boolean,
    out-of-range or non-finite measurements, unknown units, any-case enums,
    reactions without names, unmapped outcomes, bad, boolean or overflowing
    animal counts and drug entries with zero, one or two ingredient names."""
    gen = np.random.default_rng(seed)

    def pick(options):
        return options[int(gen.integers(len(options)))]

    records = []
    for i in range(n):
        if gen.random() < 0.05:
            records.append(pick(["not a report", 7, None]))
            continue
        record = report(key=pick([f"R{i}", f" R{i} ", "R1", "", None, i, f"K\t{i}"]),
                        reactions=0, drugs=0, outcomes=0)
        if record["unique_aer_id_number"] is None:
            del record["unique_aer_id_number"]
        animal = record["animal"]
        animal["species"] = pick(["Dog", " Cat ", "", None])
        animal["breed"] = pick([{"breed_component": "Beagle"}, "Mixed", {}, None, "  "])
        animal["age"] = {"min": pick(["4", 4, "-1", "x", "", None, "0", "NaN", "inf", True]),
                         "unit": pick(["Year", "MONTH", "week", "Fortnight", None, ""])}
        animal["weight"] = {"min": pick(["11.3", 0, "0", "-2", "1e300", None, "1e400", "-inf",
                                         False]),
                            "unit": pick(["Kilogram", "pound", "Gram", "stone", None])}
        if gen.random() < 0.2:
            del animal["weight"]
        if gen.random() < 0.1:
            animal[pick(["age", "weight"])] = pick([4, "heavy", ["4"]])
        if gen.random() < 0.05:
            record["animal"] = pick(["dog", 3, ["Dog"]])
        record["original_receive_date"] = pick(["20230215", "2023-02-15", "2023", None, "",
                                                "20230231", "2023-13-01"])
        record["reaction"] = [
            {"veddra_term_name": pick(["Vomiting", " Rash ", "", None]),
             "veddra_level": pick(["PT", "hlt", "LLT", "Other", None]),
             "veddra_term_code": pick(["830", " 1001 ", "", None])}
            for _ in range(int(gen.integers(0, 4)))]
        record["outcome"] = [
            {"medical_status": pick(["Died", "death", "Recovered/Normal", "Vaporized", "", None]),
             "number_of_animals_affected": pick(["1", 2, "-3", "many", "", None, [1], 1e400,
                                                 True, False])}
            for _ in range(int(gen.integers(0, 3)))]
        record["drug"] = [
            {"active_ingredients": pick([[{"name": "Carprofen"}], [{"name": "A"}, {"name": " B "}],
                                         [], [{"name": ""}], ["bare"], None, 5]),
             "brand_name": pick(["Anodyne", None, " "]), "dosage_form": pick(["Tablet", None]),
             "route": pick(["Oral", None]), "atc_vet_code": pick(["QM01AE91", " QJ01 ", None])}
            for _ in range(int(gen.integers(0, 3)))]
        for name in ("reaction", "outcome", "drug"):
            if gen.random() < 0.1:
                record[name].insert(int(gen.integers(len(record[name]) + 1)), pick(["x", 7, None]))
            elif gen.random() < 0.03:
                record[name] = pick(["x", 7, {"veddra_term_name": "Rash"}])
        records.append(record)
    return records


@pytest.mark.parametrize("seed", range(8))
def test_parser_matches_per_row_oracle(seed):
    text = json.dumps({"results": awkward_records(seed)})
    tables, stats = parse_quarter(text)
    rows, counts = parse_per_row(text)
    assert table_rows(tables) == rows
    assert (stats.reports, stats.skipped_missing_id, stats.invalid_outcome_rows,
            stats.invalid_field_rows) == counts


def test_parser_matches_per_row_oracle_on_fixture():
    text, _ = fixture_document(n_reports=300, seed=8)
    tables, _ = parse_quarter(text)
    assert table_rows(tables) == parse_per_row(text)[0]


def test_parse_appends_to_given_tables():
    texts = [json.dumps({"results": awkward_records(seed)}) for seed in (20, 21)]
    tables = RawTables()
    for text in texts:
        assert parse_quarter(text, tables)[0] is tables
    expected = [parse_per_row(text)[0] for text in texts]
    assert table_rows(tables) == {name: expected[0][name] + expected[1][name] for name in expected[0]}


def test_gzip_file_roundtrip(tmp_path):
    text, _ = fixture_document(n_reports=20, seed=6)
    plain = tmp_path / "q.json"
    plain.write_text(text)
    zipped = tmp_path / "q.json.gz"
    zipped.write_bytes(gzip.compress(text.encode("utf-8")))
    t1, _ = read_quarter_file(plain)
    t2, _ = read_quarter_file(zipped)
    assert t1 == t2


class TestTableProvider:
    def test_bundled_aspirin_record(self):
        found = descriptor_table(["acetylsalicylic acid"])["acetylsalicylic acid"]
        assert found.molecular_weight == 180.16
        assert found.h_bond_acceptors == 4
        assert found.xlogp3 == 1.2
        assert found.exact_mass == 180.04225873

    def test_unknown_name_is_absent(self):
        assert descriptor_table(["zzzz"]) == {}

    def test_case_insensitive_after_trimming(self):
        a = descriptor_table(["  ACETYLSALICYLIC ACID "])
        b = descriptor_table(["acetylsalicylic acid"])
        assert a == b and len(a) == 1

    def test_missing_name_logged_once(self, caplog):
        with caplog.at_level("INFO", logger="vetpv.ingest"):
            descriptor_table(["unobtainium", "Unobtainium ", "other-mystery"])
        mentions = [r for r in caplog.records if "unobtainium" in r.getMessage().lower()]
        assert len(mentions) == 1
        assert any("other-mystery" in r.getMessage() for r in caplog.records)


    @pytest.mark.parametrize("row, message", [
        ("Amoxicillin\t365.4\t6", "3 cells, the header has 8"),
        ("Amoxicillin" + "\t1" * 8, "9 cells, the header has 8"),
        ("Amoxicillin\t365.4\tsix" + "\t1" * 5, "could not convert string to float: 'six'"),
    ])
    def test_bad_row_named(self, tmp_path, row, message):
        path = tmp_path / "descriptors.tsv"
        path.write_text("\t".join(["ingredient_name", *ChemDescriptors.FIELDS])
                        + "\nCarprofen" + "\t1" * 7 + "\n" + row + "\n")
        with pytest.raises(ParseError) as err:
            descriptor_table(["amoxicillin"], path)
        assert str(err.value) == f"{path}:3: {message}"


# each reference table: its loader, the loader's error, the named columns,
# the columns after them, a row, a row whose value the loader rejects and why
REFERENCE_TABLES = {
    "veddra": (VeddraMap.load, OntologyError, ["term", "hlt"], ["soc"],
               "Vomiting\tGastrointestinal signs\tDigestive tract disorders",
               "Emesis\t \tDigestive tract disorders", "empty HLT for term 'emesis'"),
    "descriptors": (lambda path: descriptor_table(["carprofen"], path), ParseError,
                    ["ingredient_name", *ChemDescriptors.FIELDS], [],
                    "Carprofen\t273.71\t2\t3.9\t1\t0\t1\t", "Meloxicam" + "\t1" * 6 + "\tsix",
                    "could not convert string to float: 'six'"),
    "species_groups": (load_species_groups, ExplainError, ["species", "group"], [],
                       "Dog\tCompanion", "Llama\tMarsupial",
                       f"unknown group 'Marsupial' (expected one of {SPECIES_GROUPS})"),
    "outcome_synonyms": (load_outcome_synonyms, ParseError, ["source", "outcome"], [],
                         "Died\tDied", "Passed\tGone", "'Gone' is not a valid Outcome"),
}


@pytest.mark.parametrize("case", ["ragged", "short", "conflict", "header", "value", "repeat"])
@pytest.mark.parametrize("table", sorted(REFERENCE_TABLES))
def test_reference_table_rules(tmp_path, table, case):
    load, error, columns, later, row, bad, why = REFERENCE_TABLES[table]
    header = "\t".join(columns + later)
    width = len(columns + later)
    first, other = row.split("\t", 1)
    short = row.rsplit("\t", 1)[0]
    conflict = " " + first.upper() + "\t" + bad.split("\t", 1)[1]
    swapped = "\t".join([columns[1], columns[0], *columns[2:], *later])
    text, message = {
        "ragged": (f"{header}\n{row}\n\n{row}\tx\n", f"4: {width + 1} cells, the header has {width}"),
        "short": (f"{header}\n{short}\n", f"2: {width - 1} cells, the header has {width}"),
        "conflict": (f"{header}\n{row}\n{conflict}\n",
                     f"3: {first.lower()!r} is on line 2 with other cells"),
        "header": (f"{swapped}\n{row}\n", f"1: the header must start {'<TAB>'.join(columns)!r}"),
        "value": (f"{header}\n{row}\n{bad}\n", f"3: {why}"),
        "repeat": (f"{header}\n{row}\n\n{first.upper()} \t{other}\n", None),
    }[case]
    path = tmp_path / f"{table}.tsv"
    path.write_text(text)
    if message is None:  # an identical repeat is kept: the table loads as with one row
        once = tmp_path / "once.tsv"
        once.write_text(f"{header}\n{row}\n")
        assert load(path) == load(once) != {}
        return
    with pytest.raises(error) as err:
        load(path)
    assert str(err.value) == f"{path}:{message}"


def test_descriptor_fields_tuple_stable():
    assert ChemDescriptors.FIELDS[0] == "molecular_weight"
    assert len(ChemDescriptors.FIELDS) == 7
