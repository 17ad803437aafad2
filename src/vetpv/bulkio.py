"""Bulk-load text for the four report tables.

The format matches PostgreSQL's COPY text protocol: tab-delimited fields,
newline-delimited rows, absent values as \\N, and literal backslash / tab /
newline / carriage-return escaped. Each table becomes one string;
import_bulk_string reverses the encoding so the round trip is exact.
"""

from __future__ import annotations

import datetime as dt
import re
from pathlib import Path

from .ingest import SCHEMA, TABLE_NAMES, RawTables, Table
from .matrix import csv_cells, csv_lines

NULL = "\\N"


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


def _encoder(kind, null=NULL, escape=escape_field):
    """The encoder of one column: values -> cells, null for None and strings
    through escape (bulk text by default). A float's repr never holds a
    backslash, tab, CR or LF, so it is not escaped."""
    if kind is str:
        return lambda values: [null if v is None else escape(v) for v in values]
    if kind is float:
        return lambda values: [null if v is None else repr(float(v)) for v in values]
    if kind is int:
        return lambda values: [null if v is None else str(int(v)) for v in values]
    if kind is dt.date:
        return lambda values: [null if v is None else v.isoformat() for v in values]
    return lambda values: [null if v is None else v.value for v in values]


def export_csv(tables: RawTables, directory) -> dict[str, int]:
    """RFC-4180 CSV export of the same four tables: strings as they are, an
    absent value as an empty cell."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    counts = {}
    for name in TABLE_NAMES:
        table = getattr(tables, name)
        columns = [csv_cells([cname, *_encoder(kind, "", str)(table[cname])])
                   for cname, kind in SCHEMA[name]]
        with open(directory / f"{name}.csv", "w", newline="", encoding="utf-8") as fh:
            fh.writelines(csv_lines(columns))
        counts[name] = len(table)
    return counts


def export_bulk_string(tables: RawTables) -> dict[str, str]:
    """The bulk-load text of each table, keyed by table name."""
    texts = {}
    for name in TABLE_NAMES:
        table = getattr(tables, name)
        columns = [_encoder(kind)(table[cname]) for cname, kind in SCHEMA[name]]
        lines = list(map("\t".join, zip(*columns)))
        texts[name] = "\n".join(lines) + "\n" if lines else ""
    return texts


def _parse_table(name: str, text: str) -> Table:
    schema = SCHEMA[name]
    lines = text.split("\n")
    cells = [line.split("\t") for line in lines if line != ""]
    for row in cells:
        if len(row) != len(schema):
            # an equal line earlier in the text would have raised first
            lineno = lines.index("\t".join(row)) + 1
            raise ValueError(f"bulk table {name}, line {lineno}: "
                             f"expected {len(schema)} fields, got {len(row)}")
    columns = zip(*cells) if cells else [()] * len(schema)
    return Table({cname: _decoder(kind)(column) for (cname, kind), column in zip(schema, columns)})


def import_bulk_string(texts: dict[str, str]) -> RawTables:
    """Inverse of export_bulk_string."""
    return RawTables(**{name: _parse_table(name, texts[name]) for name in TABLE_NAMES})
