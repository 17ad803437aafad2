"""Quarterly report ingestion: JSON parsing into four relational tables and
physicochemical descriptor lookup for active ingredients.

The accepted JSON layout is documented in data/fixture_schema.md. Every report
carries a unique id; reports lacking one are skipped and counted rather than
aborting the whole file.
"""

from __future__ import annotations

import datetime as dt
import gzip
import hashlib
import json
import logging
import os
import time
import urllib.error
import urllib.parse
import urllib.request
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

log = logging.getLogger(__name__)

_DATA_DIR = Path(__file__).parent / "data"

DESCRIPTOR_URL_ENV = "VETPV_DESCRIPTOR_URL"
DESCRIPTOR_CACHE_ENV = "VETPV_DESCRIPTOR_CACHE"


class ParseError(ValueError):
    """Malformed input document; offset is the character offset into the text."""

    def __init__(self, message: str, offset: int | None = None):
        super().__init__(message if offset is None else f"{message} (offset {offset})")
        self.offset = offset


class DescriptorError(RuntimeError):
    """Provider I/O failure, distinct from an ingredient simply not being found."""


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


@dataclass(frozen=True)
class MainRow:
    key: str
    species: str
    breed: str | None = None
    gender: str | None = None
    age_value: float | None = None
    age_unit: AgeUnit | None = None
    weight_value: float | None = None
    weight_unit: WeightUnit | None = None
    received_date: dt.date | None = None


@dataclass(frozen=True)
class AERow:
    key: str
    term_name: str
    term_code: str | None = None
    veddra_level: VeddraLevel | None = None


@dataclass(frozen=True)
class OutcomeRow:
    key: str
    medical_status: Outcome
    animals_affected: int | None = None


@dataclass(frozen=True)
class DrugRow:
    key: str
    ingredient_name: str
    brand_name: str | None = None
    dosage_form: str | None = None
    route: str | None = None
    atcvet_code: str | None = None


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


@dataclass
class RawTables:
    """The four relational tables of one parsed corpus, keyed by report id.

    The parser fills the lists; no later stage modifies them.
    """

    main: list[MainRow] = field(default_factory=list)
    events: list[AERow] = field(default_factory=list)
    outcomes: list[OutcomeRow] = field(default_factory=list)
    drugs: list[DrugRow] = field(default_factory=list)

    def counts(self) -> dict[str, int]:
        return {
            "main": len(self.main),
            "events": len(self.events),
            "outcomes": len(self.outcomes),
            "drugs": len(self.drugs),
        }


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


def load_outcome_synonyms(path: Path | None = None) -> dict[str, Outcome]:
    """Bundled mapping of source outcome strings onto the closed outcome enum."""
    path = path or _DATA_DIR / "outcome_synonyms.tsv"
    table: dict[str, Outcome] = {}
    with open(path, encoding="utf-8") as fh:
        header = fh.readline()
        if not header.strip():
            raise ParseError(f"outcome synonym file {path} is empty")
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            source, target = line.split("\t")
            table[source.strip().lower()] = Outcome(target.strip())
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
        return float(value)
    except (TypeError, ValueError):
        stats.invalid_field_rows += 1
        stats.note(f"report {key}: unreadable {what} {value!r}")
        return None


def _parse_date(value) -> dt.date | None:
    text = _as_optional_str(value)
    if text is None:
        return None
    digits = text.replace("-", "")
    if len(digits) == 8 and digits.isdigit():
        return dt.date(int(digits[:4]), int(digits[4:6]), int(digits[6:8]))
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


def _measurement(entry: dict, enum_cls, what: str, key: str, stats: ParseStats):
    """(value, unit) for an age/weight object; bad values or units reject the pair."""
    value = _as_optional_float(entry.get("min"), what, key, stats)
    if value is None:
        return None, None
    if value < 0 or (what == "weight" and value == 0):
        stats.invalid_field_rows += 1
        stats.note(f"report {key}: out-of-range {what} {value}")
        return None, None
    unit_text = _as_optional_str(entry.get("unit"))
    unit = _parse_enum(enum_cls, unit_text)
    if unit_text is not None and unit is None:
        stats.invalid_field_rows += 1
        stats.note(f"report {key}: unknown {what} unit {unit_text!r}")
        return None, None
    return value, unit


def _parse_animal(key: str, animal: dict, received, stats: ParseStats) -> MainRow:
    age_value, age_unit = _measurement(animal.get("age") or {}, AgeUnit, "age", key, stats)
    weight_value, weight_unit = _measurement(
        animal.get("weight") or {}, WeightUnit, "weight", key, stats
    )
    breed = animal.get("breed")
    if isinstance(breed, dict):
        breed = breed.get("breed_component")
    return MainRow(
        key=key,
        species=_as_optional_str(animal.get("species")) or "",
        breed=_as_optional_str(breed),
        gender=_as_optional_str(animal.get("gender")),
        age_value=age_value,
        age_unit=age_unit,
        weight_value=weight_value,
        weight_unit=weight_unit,
        received_date=_parse_date(received),
    )


def parse_quarter(json_text: str | bytes) -> tuple[RawTables, ParseStats]:
    """Parse one quarterly JSON document into the four tables.

    Reports missing the unique id are skipped and counted. Outcome entries
    whose status string is not in the bundled synonym table are rejected
    row-level with a diagnostic. Referential integrity holds by construction:
    child rows are only emitted for reports that produced a MainRow.
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
    tables = RawTables()
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
            _parse_animal(key, record.get("animal") or {}, record.get("original_receive_date"), stats)
        )
        for reaction in record.get("reaction") or []:
            name = _as_optional_str(reaction.get("veddra_term_name"))
            if name is None:
                stats.invalid_field_rows += 1
                stats.note(f"report {key}: reaction without a term name")
                continue
            tables.events.append(
                AERow(
                    key=key,
                    term_name=name,
                    term_code=_as_optional_str(reaction.get("veddra_term_code")),
                    veddra_level=_parse_enum(VeddraLevel, reaction.get("veddra_level")),
                )
            )
        for outcome in record.get("outcome") or []:
            raw_status = _as_optional_str(outcome.get("medical_status"))
            status = synonyms.get(raw_status.lower()) if raw_status else None
            if status is None:
                stats.invalid_outcome_rows += 1
                stats.note(f"report {key}: unmapped outcome {raw_status!r}")
                continue
            affected = outcome.get("number_of_animals_affected")
            try:
                affected = int(affected) if affected not in (None, "") else None
                if affected is not None and affected < 0:
                    raise ValueError
            except (TypeError, ValueError):
                stats.invalid_field_rows += 1
                stats.note(f"report {key}: bad animals_affected {affected!r}")
                affected = None
            tables.outcomes.append(
                OutcomeRow(key=key, medical_status=status, animals_affected=affected)
            )
        for drug in record.get("drug") or []:
            ingredients = drug.get("active_ingredients") or []
            names = [_as_optional_str(i.get("name")) for i in ingredients if isinstance(i, dict)]
            names = [n for n in names if n]
            if not names:
                stats.invalid_field_rows += 1
                stats.note(f"report {key}: drug entry without active ingredient name")
                continue
            # Canonical documents carry one ingredient per drug entry; extra
            # ingredients become additional rows sharing the entry's fields.
            for name in names:
                tables.drugs.append(
                    DrugRow(
                        key=key,
                        ingredient_name=name,
                        brand_name=_as_optional_str(drug.get("brand_name")),
                        dosage_form=_as_optional_str(drug.get("dosage_form")),
                        route=_as_optional_str(drug.get("route")),
                        atcvet_code=_as_optional_str(drug.get("atc_vet_code")),
                    )
                )
    return tables, stats


def read_quarter_file(path: Path) -> tuple[RawTables, ParseStats]:
    """Read a plain or gzip-compressed quarterly JSON file."""
    path = Path(path)
    raw = path.read_bytes()
    if raw[:2] == b"\x1f\x8b":
        raw = gzip.decompress(raw)
    return parse_quarter(raw)


def merge_corpora(parts: list[RawTables]) -> RawTables:
    merged = RawTables()
    for part in parts:
        merged.main.extend(part.main)
        merged.events.extend(part.events)
        merged.outcomes.extend(part.outcomes)
        merged.drugs.extend(part.drugs)
    return merged


def check_referential_integrity(tables: RawTables) -> list[str]:
    """Return keys referenced by child tables that are absent from main."""
    known = {row.key for row in tables.main}
    dangling = []
    for rows in (tables.events, tables.outcomes, tables.drugs):
        for row in rows:
            if row.key not in known:
                dangling.append(row.key)
    return dangling


# --- descriptor providers ----------------------------------------------------


def _normalize_name(name: str) -> str:
    return name.strip().lower()


class TableDescriptorProvider:
    """Descriptor lookup backed by a bundled TSV table (the default provider)."""

    def __init__(self, table: dict[str, ChemDescriptors]):
        self._table = table

    @classmethod
    def from_tsv(cls, path: Path | None = None) -> "TableDescriptorProvider":
        path = path or _DATA_DIR / "descriptors.tsv"
        table: dict[str, ChemDescriptors] = {}
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().rstrip("\n").split("\t")
            expected = ["ingredient_name", *_DESCRIPTOR_FIELDS]
            if header != expected:
                raise ParseError(f"descriptor table {path}: header must be {expected}")
            for line in fh:
                line = line.rstrip("\n")
                if not line:
                    continue
                cells = line.split("\t")
                name = cells[0]
                fields = {
                    fname: (float(cell) if cell != "" else None)
                    for fname, cell in zip(_DESCRIPTOR_FIELDS, cells[1:])
                }
                table[_normalize_name(name)] = ChemDescriptors(**fields)
        return cls(table)

    def lookup(self, name: str) -> ChemDescriptors | None:
        return self._table.get(_normalize_name(name))


# PubChem-style property names in request order.
_HTTP_PROPERTIES = (
    ("MolecularWeight", "molecular_weight"),
    ("HBondAcceptorCount", "h_bond_acceptors"),
    ("XLogP", "xlogp3"),
    ("AtomStereoCount", "atom_stereocenters"),
    ("Charge", "formal_charge"),
    ("CovalentUnitCount", "covalent_units"),
    ("ExactMass", "exact_mass"),
)


class HttpDescriptorProvider:
    """Optional REST provider with a response cache and retry on transient failure.

    The fetcher returns the response body for a URL, raising
    urllib.error.HTTPError with code 404 for unknown names and any other
    exception for transport failures. Responses (including negative ones) are
    cached per normalized ingredient name under cache_dir.
    """

    def __init__(
        self,
        base_url: str,
        cache_dir: Path,
        fetcher=None,
        sleeper=time.sleep,
        max_attempts: int = 4,
        backoff: float = 0.5,
    ):
        self.base_url = base_url.rstrip("/")
        self.cache_dir = Path(cache_dir)
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        self._fetch = fetcher or self._default_fetcher
        self._sleep = sleeper
        self.max_attempts = max_attempts
        self.backoff = backoff

    @staticmethod
    def _default_fetcher(url: str) -> bytes:
        with urllib.request.urlopen(url, timeout=30) as response:
            return response.read()

    def _cache_path(self, name: str) -> Path:
        digest = hashlib.sha256(name.encode("utf-8")).hexdigest()[:24]
        return self.cache_dir / f"{digest}.json"

    def _request_url(self, name: str) -> str:
        properties = ",".join(p for p, _ in _HTTP_PROPERTIES)
        quoted = urllib.parse.quote(name)
        return f"{self.base_url}/compound/name/{quoted}/property/{properties}/JSON"

    def lookup(self, name: str) -> ChemDescriptors | None:
        normalized = _normalize_name(name)
        cache = self._cache_path(normalized)
        if cache.exists():
            payload = json.loads(cache.read_text(encoding="utf-8"))
        else:
            payload = self._fetch_with_retry(normalized)
            cache.write_text(json.dumps(payload), encoding="utf-8")
        if payload.get("not_found"):
            return None
        return self._decode(payload)

    def _fetch_with_retry(self, normalized: str) -> dict:
        url = self._request_url(normalized)
        delay = self.backoff
        last_error: Exception | None = None
        for attempt in range(self.max_attempts):
            try:
                return json.loads(self._fetch(url))
            except urllib.error.HTTPError as exc:
                if exc.code == 404:
                    return {"not_found": True}
                last_error = exc
            except Exception as exc:  # transport failure: retry
                last_error = exc
            if attempt + 1 < self.max_attempts:
                self._sleep(delay)
                delay *= 2
        raise DescriptorError(f"descriptor request failed for {normalized!r}: {last_error}")

    @staticmethod
    def _decode(payload: dict) -> ChemDescriptors | None:
        try:
            props = payload["PropertyTable"]["Properties"][0]
        except (KeyError, IndexError, TypeError):
            return None
        fields = {}
        for prop_name, field_name in _HTTP_PROPERTIES:
            value = props.get(prop_name)
            if value in (None, ""):
                fields[field_name] = None
            else:
                fields[field_name] = float(value)
        return ChemDescriptors(**fields)


def http_provider_from_env() -> HttpDescriptorProvider | None:
    """HTTP provider configured from the environment, when the URL is set."""
    base_url = os.environ.get(DESCRIPTOR_URL_ENV)
    if not base_url:
        return None
    cache_dir = os.environ.get(DESCRIPTOR_CACHE_ENV, ".vetpv-descriptor-cache")
    return HttpDescriptorProvider(base_url, Path(cache_dir))


def fetch_descriptors(ingredient_name: str, provider) -> ChemDescriptors | None:
    """Resolve descriptors for one ingredient; absent names return None.

    Matching is case-insensitive after trimming. Unknown names are logged once
    per provider instance; provider I/O failures raise DescriptorError.
    """
    result = provider.lookup(ingredient_name)
    if result is None:
        seen = getattr(provider, "_missing_logged", None)
        if seen is None:
            seen = set()
            provider._missing_logged = seen
        normalized = _normalize_name(ingredient_name)
        if normalized not in seen:
            seen.add(normalized)
            log.info("no descriptors found for ingredient %r", ingredient_name)
    return result


def resolve_descriptor_table(names, provider) -> dict[str, ChemDescriptors]:
    """Resolve descriptors for every distinct normalized name with a known record."""
    table: dict[str, ChemDescriptors] = {}
    for name in sorted({_normalize_name(n) for n in names}):
        found = fetch_descriptors(name, provider)
        if found is not None:
            table[name] = found
    return table
