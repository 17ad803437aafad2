"""Bulk-load text for the four report tables.

The format matches PostgreSQL's COPY text protocol: tab-delimited fields,
newline-delimited rows, absent values as \\N, and literal backslash / tab /
newline / carriage-return escaped. Each table becomes one string;
import_bulk_string reverses the encoding so the round trip is exact.
"""

from __future__ import annotations

import csv
import datetime as dt
import re
from dataclasses import fields
from operator import attrgetter
from pathlib import Path

from .ingest import (
    AERow,
    AgeUnit,
    DrugRow,
    MainRow,
    Outcome,
    OutcomeRow,
    RawTables,
    VeddraLevel,
    WeightUnit,
)

NULL = "\\N"

TABLE_NAMES = ("main", "events", "outcomes", "drugs")

_COLUMNS = {
    "main": (
        ("key", str),
        ("species", str),
        ("breed", str),
        ("gender", str),
        ("age_value", float),
        ("age_unit", AgeUnit),
        ("weight_value", float),
        ("weight_unit", WeightUnit),
        ("received_date", dt.date),
    ),
    "events": (
        ("key", str),
        ("term_code", str),
        ("term_name", str),
        ("veddra_level", VeddraLevel),
    ),
    "outcomes": (
        ("key", str),
        ("medical_status", Outcome),
        ("animals_affected", int),
    ),
    "drugs": (
        ("key", str),
        ("ingredient_name", str),
        ("brand_name", str),
        ("dosage_form", str),
        ("route", str),
        ("atcvet_code", str),
    ),
}

_ROW_TYPES = {"main": MainRow, "events": AERow, "outcomes": OutcomeRow, "drugs": DrugRow}


def escape_field(text: str) -> str:
    return (
        text.replace("\\", "\\\\")
        .replace("\t", "\\t")
        .replace("\n", "\\n")
        .replace("\r", "\\r")
    )


_UNESCAPES = {"\\": "\\", "t": "\t", "n": "\n", "r": "\r"}
_ESCAPE_PAIR = re.compile(r"\\(.)", flags=re.S)


def _unescape_pair(match) -> str:
    ch = match.group(1)
    return _UNESCAPES.get(ch, ch)


def unescape_field(text: str) -> str:
    """Undo escape_field. An unknown escape \\q gives q; a trailing lone
    backslash is kept."""
    if "\\" not in text:
        return text
    return _ESCAPE_PAIR.sub(_unescape_pair, text)


def _decoder(kind):
    """The decoder of one column: bulk cells -> values, None for NULL.
    Cells without a backslash skip unescape_field, as it would return
    them unchanged."""
    if kind is str:
        return lambda cells: [
            c if "\\" not in c else None if c == NULL else unescape_field(c) for c in cells
        ]
    if kind is float:
        return lambda cells: [
            float(c) if "\\" not in c else None if c == NULL else float(unescape_field(c))
            for c in cells
        ]
    if kind is int:
        return lambda cells: [None if c == NULL else int(c) for c in cells]
    if kind is dt.date:
        return lambda cells: [None if c == NULL else dt.date.fromisoformat(c) for c in cells]
    members = {member.value: member for member in kind}
    # kind(c) only raises: it names the enum and the bad value
    return lambda cells: [
        None if c == NULL else members[c] if c in members else kind(c) for c in cells
    ]


def _encoder(kind):
    """The encoder of one column: values -> bulk cells, NULL for None.
    A float's repr never holds a backslash, tab, CR or LF, so it is not
    escaped."""
    if kind is str:
        return lambda values: [NULL if v is None else escape_field(v) for v in values]
    if kind is float:
        return lambda values: [NULL if v is None else repr(float(v)) for v in values]
    if kind is int:
        return lambda values: [NULL if v is None else str(int(v)) for v in values]
    if kind is dt.date:
        return lambda values: [NULL if v is None else v.isoformat() for v in values]
    return lambda values: [NULL if v is None else v.value for v in values]


def export_csv(tables: RawTables, directory) -> dict[str, int]:
    """RFC-4180 CSV export of the same four tables."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    counts = {}
    for name in TABLE_NAMES:
        columns = _COLUMNS[name]
        with open(directory / f"{name}.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow([cname for cname, _ in columns])
            for row in getattr(tables, name):
                cells = []
                for cname, kind in columns:
                    value = getattr(row, cname)
                    if value is None:
                        cells.append("")
                    elif kind is float:
                        cells.append(repr(float(value)))
                    elif isinstance(value, (AgeUnit, WeightUnit, VeddraLevel, Outcome)):
                        cells.append(value.value)
                    elif kind is dt.date:
                        cells.append(value.isoformat())
                    else:
                        cells.append(str(value))
                writer.writerow(cells)
        counts[name] = len(getattr(tables, name))
    return counts


def export_bulk_string(tables: RawTables) -> dict[str, str]:
    """The bulk-load text of each table, keyed by table name."""
    texts = {}
    for name in TABLE_NAMES:
        rows = getattr(tables, name)
        columns = [_encoder(kind)(map(attrgetter(cname), rows)) for cname, kind in _COLUMNS[name]]
        lines = list(map("\t".join, zip(*columns)))
        texts[name] = "\n".join(lines) + "\n" if lines else ""
    return texts


def _parse_table(table_name: str, text: str) -> list:
    columns = _COLUMNS[table_name]
    # the lines stay alive until the rows are built: freeing them before
    # raised the peak RSS of a 5k-report SMOTE+ENN prepare by about 1 MB
    lines = [line for line in text.split("\n") if line != ""]
    cells = [line.split("\t") for line in lines]
    for row in cells:
        if len(row) != len(columns):
            raise ValueError(
                f"{table_name}: expected {len(columns)} fields, got {len(row)}"
            )
    decoded = {
        cname: _decoder(kind)(column) for (cname, kind), column in zip(columns, zip(*cells))
    }
    if not decoded:
        return []
    row_type = _ROW_TYPES[table_name]
    # by field name: a table's columns need not be in its row type's field order
    return list(map(row_type, *[decoded[f.name] for f in fields(row_type)]))


def import_bulk_string(texts: dict[str, str]) -> RawTables:
    """Inverse of export_bulk_string."""
    return RawTables(**{name: _parse_table(name, texts[name]) for name in TABLE_NAMES})
