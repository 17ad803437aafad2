"""Bulk-load text for the four report tables.

The format matches PostgreSQL's COPY text protocol: tab-delimited fields,
newline-delimited rows, absent values as \\N, and literal backslash / tab /
newline / carriage-return escaped. Each table becomes one string;
import_bulk_string reverses the encoding so the round trip is exact.
"""

from __future__ import annotations

import csv
import datetime as dt
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


def unescape_field(text: str) -> str:
    out = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\\" and i + 1 < len(text):
            nxt = text[i + 1]
            out.append({"\\": "\\", "t": "\t", "n": "\n", "r": "\r"}.get(nxt, nxt))
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def _encode_value(value, kind) -> str:
    if value is None:
        return NULL
    if kind is float:
        return escape_field(repr(float(value)))
    if kind is int:
        return str(int(value))
    if kind is dt.date:
        return value.isoformat()
    if isinstance(value, (AgeUnit, WeightUnit, VeddraLevel, Outcome)):
        return value.value
    return escape_field(value)


def _decode_value(text: str, kind):
    if text == NULL:
        return None
    if kind is float:
        return float(unescape_field(text))
    if kind is int:
        return int(text)
    if kind is dt.date:
        return dt.date.fromisoformat(text)
    if kind in (AgeUnit, WeightUnit, VeddraLevel, Outcome):
        return kind(text)
    return unescape_field(text)


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
        columns = _COLUMNS[name]
        lines = ["\t".join([_encode_value(getattr(row, cname), kind) for cname, kind in columns])
                 for row in getattr(tables, name)]
        texts[name] = "\n".join(lines) + "\n" if lines else ""
    return texts


def _parse_table(table_name: str, text: str) -> list:
    columns = _COLUMNS[table_name]
    row_type = _ROW_TYPES[table_name]
    rows = []
    for line in text.split("\n"):
        if line == "":
            continue
        cells = line.split("\t")
        if len(cells) != len(columns):
            raise ValueError(
                f"{table_name}: expected {len(columns)} fields, got {len(cells)}"
            )
        kwargs = {name: _decode_value(cell, kind) for (name, kind), cell in zip(columns, cells)}
        rows.append(row_type(**kwargs))
    return rows


def import_bulk_string(texts: dict[str, str]) -> RawTables:
    """Inverse of export_bulk_string."""
    return RawTables(**{name: _parse_table(name, texts[name]) for name in TABLE_NAMES})
