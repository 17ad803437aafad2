import csv
import datetime as dt
import hashlib

import pytest
from hypothesis import given, strategies as st

from documents import fixture_document
from oracles import decode_bulk_value, unescape_bulk_field
from vetpv import bulkio
from vetpv.bulkio import (
    NULL,
    escape_field,
    export_bulk_string,
    export_csv,
    import_bulk_string,
    unescape_field,
)
from vetpv.ingest import (
    AgeUnit,
    DrugRow,
    MainRow,
    Outcome,
    OutcomeRow,
    RawTables,
    VeddraLevel,
    WeightUnit,
    parse_quarter,
)

COLUMN_KINDS = (str, float, int, dt.date, AgeUnit, WeightUnit, VeddraLevel, Outcome)

# backslash runs, known and unknown escapes, \N as NULL and as escaped text
escape_heavy_text = st.text(
    alphabet=st.sampled_from(["\\", "N", "t", "n", "r", "q", "a", "1", " ", "\t", "\n", "\r"])
)


def bulk_cells(kind):
    """Adversarial cells for a column of kind: valid encodings of the kind,
    NULL and NULL-like text, and backslash-heavy text, each possibly with
    a trailing lone backslash."""
    if kind is str:
        valid = st.text().map(escape_field)
    elif kind is float:
        valid = st.floats().map(repr)
    elif kind is int:
        valid = st.integers().map(str)
    elif kind is dt.date:
        valid = st.dates().map(dt.date.isoformat)
    else:
        valid = st.sampled_from([member.value for member in kind])
    cell = st.one_of(valid, st.sampled_from([NULL, "\\\\N", "N", "\\", ""]), escape_heavy_text)
    return st.tuples(cell, st.booleans()).map(lambda pair: pair[0] + "\\" * pair[1])


def decode_outcome(decode):
    """(type, repr) of the decoded value, or the exception type raised."""
    try:
        value = decode()
    except ValueError as exc:
        return type(exc)
    return type(value), repr(value)


def test_absent_field_renders_null_marker():
    row = MainRow(key="K", species="Dog", breed=None)
    text = export_bulk_string(RawTables(main=[row]))["main"]
    fields = text.rstrip("\n").split("\t")
    assert fields[2] == "\\N"


def test_tab_in_field_escaped():
    row = DrugRow(key="K", ingredient_name="a\tb")
    text = export_bulk_string(RawTables(drugs=[row]))["drugs"]
    assert "a\\tb" in text
    assert "a\tb" not in text.split("\t", 1)[1]


@given(st.text())
def test_escape_roundtrip_any_text(text):
    assert unescape_field(escape_field(text)) == text
    escaped = escape_field(text)
    assert "\t" not in escaped and "\n" not in escaped and "\r" not in escaped


@given(escape_heavy_text)
def test_unescape_matches_per_character_oracle(text):
    assert unescape_field(text) == unescape_bulk_field(text)


@pytest.mark.parametrize("kind", COLUMN_KINDS, ids=lambda kind: kind.__name__)
@given(data=st.data())
def test_column_decoder_matches_per_value_oracle(kind, data):
    cells = data.draw(st.lists(bulk_cells(kind), max_size=8))
    decode = bulkio._decoder(kind)
    for cell in cells:
        assert decode_outcome(lambda: decode([cell])[0]) == decode_outcome(
            lambda: decode_bulk_value(cell, kind)
        ), cell
    expected = [decode_outcome(lambda: decode_bulk_value(cell, kind)) for cell in cells]
    if all(isinstance(outcome, tuple) for outcome in expected):
        assert [decode_outcome(lambda: value) for value in decode(cells)] == expected


def test_column_kinds_cover_every_bulk_column():
    assert {kind for columns in bulkio._COLUMNS.values() for _, kind in columns} == set(COLUMN_KINDS)


@pytest.mark.parametrize("kind", COLUMN_KINDS, ids=lambda kind: kind.__name__)
def test_absent_value_round_trips_in_every_column_kind(kind):
    assert bulkio._encoder(kind)([None]) == [NULL]
    assert bulkio._decoder(kind)([NULL]) == [None]


def test_fixture_roundtrip_exact():
    text, _ = fixture_document(n_reports=150, seed=11)
    tables, _ = parse_quarter(text)
    texts = export_bulk_string(tables)
    back = import_bulk_string(texts)
    assert back.main == tables.main
    assert back.events == tables.events
    assert back.outcomes == tables.outcomes
    assert back.drugs == tables.drugs
    # idempotent: re-export of the re-parse is byte-identical
    assert export_bulk_string(back) == texts


def test_nasty_strings_roundtrip():
    tables = RawTables(
        main=[
            MainRow(
                key="K\t1",
                species="Do\ng",
                breed="a\\b",
                gender="F\r",
                age_value=1.5,
                age_unit=AgeUnit.WEEK,
                weight_value=0.25,
                weight_unit=WeightUnit.GRAM,
                received_date=dt.date(2021, 2, 3),
            )
        ],
        outcomes=[OutcomeRow(key="K\t1", medical_status=Outcome.ONGOING, animals_affected=2)],
    )
    back = import_bulk_string(export_bulk_string(tables))
    assert back.main == tables.main
    assert back.outcomes == tables.outcomes


def test_string_round_trip_keeps_row_counts():
    text, _ = fixture_document(n_reports=30, seed=12)
    tables, _ = parse_quarter(text)
    texts = export_bulk_string(tables)
    assert {name: text.count("\n") for name, text in texts.items()} == tables.counts()
    assert import_bulk_string(texts) == tables


# sha256 of each table's bulk text for fixture_document(n_reports=150, seed=11):
# round trip and idempotence cannot see a format change made on both sides
FIXTURE_DIGESTS = {
    "main": "488a4b71ba22258d1eabe7085cc5237308305bc8c8d155099e6300db0a06dca3",
    "events": "8d619be0ac7c69460eed595f76f7d339782d44a088cab77ca65574da5eedb388",
    "outcomes": "e4d9a2b3c53634aa9ef2aa15a38e9f7bb6b469fe9bdffbfe2159bcdde199d56d",
    "drugs": "1e21f7956e3d8f70fc6cdb260803e4a61a07c29b387bebf678cd0fe6c4060647",
}


def test_bulk_text_bytes_are_pinned():
    text, _ = fixture_document(n_reports=150, seed=11)
    tables, _ = parse_quarter(text)
    texts = export_bulk_string(tables)
    digests = {name: hashlib.sha256(t.encode("utf-8")).hexdigest() for name, t in texts.items()}
    assert digests == FIXTURE_DIGESTS


def test_csv_export_is_rfc4180_parseable(tmp_path):
    tables = RawTables(
        main=[MainRow(key="K1", species='Do"g', breed="a,b")],
    )
    counts = export_csv(tables, tmp_path)
    assert counts["main"] == 1
    with open(tmp_path / "main.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "key"
    assert rows[1][1] == 'Do"g'
    assert rows[1][2] == "a,b"
