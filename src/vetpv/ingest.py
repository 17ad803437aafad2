"""Quarterly report ingestion: JSON parsing into four relational tables, held
by column, and the physicochemical descriptor table for active ingredients.

The accepted JSON layout is documented in data/fixture_schema.md. Every report
carries a unique id; reports lacking one are skipped and counted rather than
aborting the whole file.

Every TSV reference table (VeDDRA, descriptors, species groups, outcome
synonyms) is read by read_table, under one rule set; each loader checks
only its own values.
"""

from __future__ import annotations

import datetime as dt
import gzip
import json
import logging
import math
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

log = logging.getLogger(__name__)

_DATA_DIR = Path(__file__).parent / "data"


class ParseError(ValueError):
    """Malformed input document; offset is the character offset into the text."""

    def __init__(self, message: str, offset: int | None = None):
        super().__init__(message if offset is None else f"{message} (offset {offset})")
        self.offset = offset


class AgeUnit(Enum):
    DAY = "Day"
    WEEK = "Week"
    MONTH = "Month"
    YEAR = "Year"


class WeightUnit(Enum):
    GRAM = "Gram"
    KILOGRAM = "Kilogram"
    POUND = "Pound"


class VeddraLevel(Enum):
    LLT = "LLT"
    PT = "PT"
    HLT = "HLT"
    SOC = "SOC"


class Outcome(Enum):
    DIED = "Died"
    EUTHANIZED = "Euthanized"
    RECOVERED = "Recovered"
    RECOVERED_WITH_SEQUELA = "RecoveredWithSequela"
    ONGOING = "Ongoing"
    UNKNOWN = "Unknown"


_DESCRIPTOR_FIELDS = (
    "molecular_weight",
    "h_bond_acceptors",
    "xlogp3",
    "atom_stereocenters",
    "formal_charge",
    "covalent_units",
    "exact_mass",
)


@dataclass(frozen=True)
class ChemDescriptors:
    molecular_weight: float | None = None
    h_bond_acceptors: float | None = None
    xlogp3: float | None = None
    atom_stereocenters: float | None = None
    formal_charge: float | None = None
    covalent_units: float | None = None
    exact_mass: float | None = None

    FIELDS = _DESCRIPTOR_FIELDS


# table name -> its columns in order, each (name, kind): a kind is str, float,
# int, dt.date or an Enum, and every value of a column is of its kind or None
SCHEMA = {
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

TABLE_NAMES = tuple(SCHEMA)


@dataclass
class Table:
    """One relational table by column: `columns` maps each column of the
    table's SCHEMA entry, in order, to a list with one value per row."""

    columns: dict[str, list]

    def __len__(self) -> int:
        return len(self.columns["key"])

    def __getitem__(self, column: str) -> list:
        return self.columns[column]

    def append(self, *row):
        """Add one row, its values in column order."""
        for values, value in zip(self.columns.values(), row):
            values.append(value)


def _empty(name: str):
    return field(default_factory=lambda: Table({column: [] for column, _ in SCHEMA[name]}))


@dataclass
class RawTables:
    """The four relational tables of one parsed corpus, keyed by report id.

    The parser appends to them; no later stage modifies them.
    """

    main: Table = _empty("main")
    events: Table = _empty("events")
    outcomes: Table = _empty("outcomes")
    drugs: Table = _empty("drugs")

    def counts(self) -> dict[str, int]:
        return {name: len(getattr(self, name)) for name in TABLE_NAMES}


@dataclass
class ParseStats:
    reports: int = 0
    skipped_missing_id: int = 0
    invalid_outcome_rows: int = 0
    invalid_field_rows: int = 0
    diagnostics: list[str] = field(default_factory=list)

    _MAX_DIAGNOSTICS = 50

    def note(self, message: str):
        if len(self.diagnostics) < self._MAX_DIAGNOSTICS:
            self.diagnostics.append(message)

    def reject(self, message: str):
        """Count one unreadable field and note why."""
        self.invalid_field_rows += 1
        self.note(message)


def _normalize_name(name: str) -> str:
    return name.strip().lower()


def read_table(path: Path, columns: tuple[str, ...], error: type[Exception]):
    """Yield (line number, key, cells) per row of the TSV reference table at
    path: the key is the first cell trimmed and lower-cased, the cells those
    of the other named columns. The header must start with columns, later
    columns are checked for width only, and every row has as many cells as
    the header; blank lines are skipped. A key repeated with other cells is
    an error, an identical repeat is kept. Every error names file:line and
    is raised as error."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split("\t")
        if header[:len(columns)] != list(columns):
            raise error(f"{path}:1: the header must start {'<TAB>'.join(columns)!r}")
        first: dict[str, tuple[int, list[str]]] = {}
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            cells = line.split("\t")
            if len(cells) != len(header):
                raise error(f"{path}:{lineno}: {len(cells)} cells, the header has {len(header)}")
            key, cells = _normalize_name(cells[0]), cells[1:len(columns)]
            seen, seen_cells = first.setdefault(key, (lineno, cells))
            if seen_cells != cells:
                raise error(f"{path}:{lineno}: {key!r} is on line {seen} with other cells")
            yield lineno, key, cells


def load_outcome_synonyms(path: Path | None = None) -> dict[str, Outcome]:
    """Bundled mapping of source outcome strings onto the closed outcome enum."""
    path = path or _DATA_DIR / "outcome_synonyms.tsv"
    table: dict[str, Outcome] = {}
    for lineno, source, (target,) in read_table(path, ("source", "outcome"), ParseError):
        try:
            table[source] = Outcome(target.strip())
        except ValueError as err:
            raise ParseError(f"{path}:{lineno}: {err}") from None
    return table


_OUTCOME_SYNONYMS: dict[str, Outcome] | None = None


def _outcome_synonyms() -> dict[str, Outcome]:
    global _OUTCOME_SYNONYMS
    if _OUTCOME_SYNONYMS is None:
        _OUTCOME_SYNONYMS = load_outcome_synonyms()
    return _OUTCOME_SYNONYMS


def _as_optional_str(value) -> str | None:
    if value is None:
        return None
    text = str(value).strip()
    return text or None


def _as_optional_float(value, what: str, key: str, stats: ParseStats) -> float | None:
    if value is None or value == "":
        return None
    try:
        if isinstance(value, bool):  # float(True) is 1.0
            raise TypeError
        return float(value)
    except (TypeError, ValueError):
        stats.reject(f"report {key}: unreadable {what} {value!r}")
        return None


def _parse_date(value, key: str, stats: ParseStats) -> dt.date | None:
    """A YYYYMMDD or YYYY-MM-DD date; other text is None, and a date the
    calendar does not have is a counted reject, read as None."""
    text = _as_optional_str(value)
    if text is None:
        return None
    digits = text.replace("-", "")
    if len(digits) == 8 and digits.isdigit():
        try:
            return dt.date(int(digits[:4]), int(digits[4:6]), int(digits[6:8]))
        except ValueError:
            stats.reject(f"report {key}: impossible receive date {text!r}")
    return None


_MEMBERS_BY_LOWER_VALUE = {
    enum_cls: {member.value.lower(): member for member in enum_cls}
    for enum_cls in (AgeUnit, WeightUnit, VeddraLevel, Outcome)
}


def _parse_enum(enum_cls, value):
    """The member whose value matches value case-insensitively, else None."""
    text = _as_optional_str(value)
    if text is None:
        return None
    return _MEMBERS_BY_LOWER_VALUE[enum_cls].get(text.lower())


def _object(value, what: str, key: str, stats: ParseStats) -> dict:
    """value if it is a JSON object, {} if it is absent; anything else is a
    counted reject, read as {}."""
    if isinstance(value, dict) or not value:
        return value or {}
    stats.reject(f"report {key}: {what} is not an object: {value!r}")
    return {}


def _measurement(value, enum_cls, what: str, key: str, stats: ParseStats):
    """(value, unit) for an age/weight object; bad values or units reject the pair."""
    entry = _object(value, what, key, stats)
    value = _as_optional_float(entry.get("min"), what, key, stats)
    if value is None:
        return None, None
    if not math.isfinite(value) or value < 0 or (what == "weight" and value == 0):
        stats.reject(f"report {key}: out-of-range {what} {value}")
        return None, None
    unit_text = _as_optional_str(entry.get("unit"))
    unit = _parse_enum(enum_cls, unit_text)
    if unit_text is not None and unit is None:
        stats.reject(f"report {key}: unknown {what} unit {unit_text!r}")
        return None, None
    return value, unit


def _parse_animal(key: str, animal, received, stats: ParseStats) -> tuple:
    """The report's main-table row, in column order."""
    animal = _object(animal, "animal", key, stats)
    age_value, age_unit = _measurement(animal.get("age"), AgeUnit, "age", key, stats)
    weight_value, weight_unit = _measurement(animal.get("weight"), WeightUnit, "weight", key, stats)
    breed = animal.get("breed")
    if isinstance(breed, dict):
        breed = breed.get("breed_component")
    return (
        key,
        _as_optional_str(animal.get("species")) or "",
        _as_optional_str(breed),
        _as_optional_str(animal.get("gender")),
        age_value,
        age_unit,
        weight_value,
        weight_unit,
        _parse_date(received, key, stats),
    )


def _entries(record: dict, name: str, key: str, stats: ParseStats) -> list[dict]:
    """The object entries of the report's list `name`; any other entry, or a
    value that is not a list, is a counted reject."""
    entries = record.get(name) or []
    if not isinstance(entries, list):
        stats.reject(f"report {key}: {name} is not a list: {entries!r}")
        return []
    kept = []
    for entry in entries:
        if isinstance(entry, dict):
            kept.append(entry)
        else:
            stats.reject(f"report {key}: {name} entry is not an object: {entry!r}")
    return kept


def parse_quarter(
    json_text: str | bytes, tables: RawTables | None = None
) -> tuple[RawTables, ParseStats]:
    """Parse one quarterly JSON document, appending its rows to tables (new
    empty tables by default).

    Reports missing the unique id, or repeating one seen earlier in the
    document, are skipped and counted. Outcome entries whose status string is
    not in the bundled synonym table are rejected row-level with a
    diagnostic. Child rows are only emitted for a report that got a main row.
    """
    if isinstance(json_text, bytes):
        json_text = json_text.decode("utf-8")
    try:
        document = json.loads(json_text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON: {exc.msg}", offset=exc.pos) from exc
    if not isinstance(document, dict) or not isinstance(document.get("results"), list):
        raise ParseError("document must be an object with a 'results' array")

    synonyms = _outcome_synonyms()
    tables = RawTables() if tables is None else tables
    stats = ParseStats()
    seen: set[str] = set()
    for record in document["results"]:
        if not isinstance(record, dict):
            stats.skipped_missing_id += 1
            stats.note("non-object report entry skipped")
            continue
        key = _as_optional_str(record.get("unique_aer_id_number"))
        if key is None:
            stats.skipped_missing_id += 1
            stats.note("report without unique_aer_id_number skipped")
            continue
        if key in seen:
            stats.skipped_missing_id += 1
            stats.note(f"duplicate report id {key} skipped")
            continue
        seen.add(key)
        stats.reports += 1

        tables.main.append(
            *_parse_animal(key, record.get("animal"), record.get("original_receive_date"), stats)
        )
        for reaction in _entries(record, "reaction", key, stats):
            name = _as_optional_str(reaction.get("veddra_term_name"))
            if name is None:
                stats.reject(f"report {key}: reaction without a term name")
                continue
            tables.events.append(
                key,
                _as_optional_str(reaction.get("veddra_term_code")),
                name,
                _parse_enum(VeddraLevel, reaction.get("veddra_level")),
            )
        for outcome in _entries(record, "outcome", key, stats):
            raw_status = _as_optional_str(outcome.get("medical_status"))
            status = synonyms.get(raw_status.lower()) if raw_status else None
            if status is None:
                stats.invalid_outcome_rows += 1
                stats.note(f"report {key}: unmapped outcome {raw_status!r}")
                continue
            affected = outcome.get("number_of_animals_affected")
            try:
                if isinstance(affected, bool):  # int(True) is 1
                    raise TypeError
                affected = int(affected) if affected not in (None, "") else None
                if affected is not None and affected < 0:
                    raise ValueError
            except (TypeError, ValueError, OverflowError):
                stats.reject(f"report {key}: bad animals_affected {affected!r}")
                affected = None
            tables.outcomes.append(key, status, affected)
        for drug in _entries(record, "drug", key, stats):
            ingredients = drug.get("active_ingredients")
            if not isinstance(ingredients, list):
                ingredients = []
            names = [_as_optional_str(i.get("name")) for i in ingredients if isinstance(i, dict)]
            names = [n for n in names if n]
            if not names:
                stats.reject(f"report {key}: drug entry without active ingredient name")
                continue
            # Canonical documents carry one ingredient per drug entry; extra
            # ingredients become additional rows sharing the entry's fields.
            shared = [_as_optional_str(drug.get(k))
                      for k in ("brand_name", "dosage_form", "route", "atc_vet_code")]
            for name in names:
                tables.drugs.append(key, name, *shared)
    return tables, stats


def read_quarter_file(path: Path, tables: RawTables | None = None) -> tuple[RawTables, ParseStats]:
    """Read a plain or gzip-compressed quarterly JSON file into tables, as
    parse_quarter does."""
    path = Path(path)
    raw = path.read_bytes()
    if raw[:2] == b"\x1f\x8b":
        raw = gzip.decompress(raw)
    return parse_quarter(raw, tables)


# --- descriptors -----------------------------------------------------------------


def descriptor_table(names, path: Path | None = None) -> dict[str, ChemDescriptors]:
    """The descriptors of each of names found in the TSV table at path (the
    bundled one by default), keyed by the name trimmed and lower-cased, the
    form in which the table is matched. Each name not found is logged once."""
    path = path or _DATA_DIR / "descriptors.tsv"
    table: dict[str, ChemDescriptors] = {}
    columns = ("ingredient_name", *_DESCRIPTOR_FIELDS)
    for lineno, name, cells in read_table(path, columns, ParseError):
        try:
            table[name] = ChemDescriptors(*(float(cell) if cell != "" else None for cell in cells))
        except ValueError as err:
            raise ParseError(f"{path}:{lineno}: {err}") from None
    found = {}
    for name in sorted({_normalize_name(n) for n in names}):
        if name in table:
            found[name] = table[name]
        else:
            log.info("no descriptors found for ingredient %r", name)
    return found
