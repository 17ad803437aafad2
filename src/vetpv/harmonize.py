"""Ontology harmonization and report merging.

Adverse-event terms are lifted to high-level terms using a bundled snapshot
table; drug codes are truncated to the chemical-subgroup level of the
five-level veterinary ATC grammar; the four relational tables collapse into
one row per report with list fields kept in source order and numeric
descriptors summed across active ingredients.
"""

from __future__ import annotations

import csv
import io
import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from .ingest import (
    AERow,
    AgeUnit,
    ChemDescriptors,
    Outcome,
    RawTables,
    VeddraLevel,
    WeightUnit,
)

_DATA_DIR = Path(__file__).parent / "data"

UNMAPPED_PREFIX = "UNMAPPED:"

LIST_SEPARATOR = "\\"


class OntologyError(ValueError):
    pass


class MergeError(ValueError):
    pass


@dataclass
class VeddraMap:
    """Term-code-or-name lookup onto the HLT; names matched case-insensitively.
    Columns of the TSV after the HLT (the SOC) are not read."""

    to_hlt: dict[str, str]
    hlt_names: set[str]

    @classmethod
    def load(cls, path: Path | None = None) -> "VeddraMap":
        path = path or _DATA_DIR / "veddra.tsv"
        to_hlt: dict[str, str] = {}
        hlt_names: set[str] = set()
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().rstrip("\n").split("\t")
            if len(header) < 2 or header[0] != "term":
                raise OntologyError(f"{path}: expected header starting 'term<TAB>hlt'")
            for lineno, line in enumerate(fh, start=2):
                line = line.rstrip("\n")
                if not line:
                    continue
                cells = line.split("\t")
                term, hlt = cells[0].strip(), cells[1].strip()
                if not hlt:
                    raise OntologyError(f"{path}:{lineno}: empty HLT for term {term!r}")
                to_hlt[term.lower()] = hlt
                hlt_names.add(hlt.lower())
        return cls(to_hlt=to_hlt, hlt_names=hlt_names)


def map_veddra(term: AERow, table: VeddraMap) -> str:
    """Lift one AE term to its high-level term.

    Terms already at HLT level pass through unchanged; terms absent from the
    table map to the sentinel "UNMAPPED:<name>" so they survive as categories.
    """
    if term.veddra_level is VeddraLevel.HLT:
        return term.term_name
    if term.term_code and term.term_code.lower() in table.to_hlt:
        return table.to_hlt[term.term_code.lower()]
    name = term.term_name.strip()
    if name.lower() in table.to_hlt:
        return table.to_hlt[name.lower()]
    if name.lower() in table.hlt_names:
        return name
    return f"{UNMAPPED_PREFIX}{name}"


# Five levels: Q, anatomical letter, 2-digit therapeutic group, pharmacological
# letter, chemical-subgroup letter, 2-digit substance.
_ATCVET_RE = re.compile(r"Q[A-Z][0-9]{2}(?:[A-Z](?:[A-Z](?:[0-9]{2})?)?)?\Z")

CHEMICAL_SUBGROUP_LEN = 6


def validate_atcvet(code: str) -> str:
    code = code.strip()
    if not _ATCVET_RE.fullmatch(code):
        raise OntologyError(f"invalid veterinary ATC code {code!r}")
    return code


def map_atcvet(code: str) -> str:
    """Truncate a valid code to the level-4 chemical subgroup.

    Codes shorter than level 4 are returned unchanged (under-specified);
    syntactically invalid codes raise OntologyError naming the code.
    """
    code = validate_atcvet(code)
    if len(code) >= CHEMICAL_SUBGROUP_LEN:
        return code[:CHEMICAL_SUBGROUP_LEN]
    return code


@dataclass
class MergedReport:
    """One row per report after joining the four tables."""

    key: str
    species: str
    breed: str | None
    gender: str | None
    age_value: float | None
    age_unit: AgeUnit | None
    weight_value: float | None
    weight_unit: WeightUnit | None
    outcome: Outcome
    ae_terms: list[str]
    ingredients: list[str]
    atcvet_subgroups: list[str]
    routes: list[str]
    dosage_forms: list[str]
    descriptors: ChemDescriptors
    age_years: float | None = None
    weight_kg: float | None = None


@dataclass
class MergeStats:
    unmapped_terms: Counter = field(default_factory=Counter)
    under_specified_codes: int = 0
    invalid_codes: int = 0
    missing_outcome: int = 0


def _sum_descriptors(descriptor_rows: list[ChemDescriptors]) -> ChemDescriptors:
    """Per-field sum over ingredients that carry the field; all-absent stays absent."""
    sums: dict[str, float | None] = {}
    for fname in ChemDescriptors.FIELDS:
        present = [getattr(d, fname) for d in descriptor_rows if getattr(d, fname) is not None]
        sums[fname] = sum(present) if present else None
    return ChemDescriptors(**sums)


def merge_reports(
    tables: RawTables,
    veddra: VeddraMap,
    descriptors: dict[str, ChemDescriptors],
) -> tuple[list[MergedReport], MergeStats]:
    """Join the four tables into one MergedReport per main row, in main order.

    List fields keep source order and duplicates. The descriptor mapping is
    keyed by lower-cased ingredient name. Reports with no parseable outcome
    row fall back to Unknown; outcome rows beyond the first are ignored.
    Duplicate report keys in the main table are a hard error.
    """
    keys = [row.key for row in tables.main]
    duplicates = sorted({k for k, n in Counter(keys).items() if n > 1})
    if duplicates:
        raise MergeError(f"duplicate report keys in main table: {duplicates}")

    events_by_key: dict[str, list[AERow]] = {}
    for row in tables.events:
        events_by_key.setdefault(row.key, []).append(row)
    outcomes_by_key: dict[str, list] = {}
    for row in tables.outcomes:
        outcomes_by_key.setdefault(row.key, []).append(row)
    drugs_by_key: dict[str, list] = {}
    for row in tables.drugs:
        drugs_by_key.setdefault(row.key, []).append(row)

    stats = MergeStats()
    merged: list[MergedReport] = []
    for main in tables.main:
        ae_terms = []
        for event in events_by_key.get(main.key, []):
            hlt = map_veddra(event, veddra)
            if hlt.startswith(UNMAPPED_PREFIX):
                stats.unmapped_terms[hlt[len(UNMAPPED_PREFIX):]] += 1
            ae_terms.append(hlt)

        outcome_rows = outcomes_by_key.get(main.key, [])
        if not outcome_rows:
            stats.missing_outcome += 1
            outcome = Outcome.UNKNOWN
        else:
            outcome = outcome_rows[0].medical_status

        ingredients, subgroups, routes, forms = [], [], [], []
        descriptor_rows = []
        for drug in drugs_by_key.get(main.key, []):
            ingredients.append(drug.ingredient_name)
            if drug.route:
                routes.append(drug.route)
            if drug.dosage_form:
                forms.append(drug.dosage_form)
            if drug.atcvet_code:
                try:
                    subgroup = map_atcvet(drug.atcvet_code)
                except OntologyError:
                    stats.invalid_codes += 1
                else:
                    if len(subgroup) < CHEMICAL_SUBGROUP_LEN:
                        stats.under_specified_codes += 1
                    subgroups.append(subgroup)
            found = descriptors.get(drug.ingredient_name.strip().lower())
            if found is not None:
                descriptor_rows.append(found)

        merged.append(
            MergedReport(
                key=main.key,
                species=main.species,
                breed=main.breed,
                gender=main.gender,
                age_value=main.age_value,
                age_unit=main.age_unit,
                weight_value=main.weight_value,
                weight_unit=main.weight_unit,
                outcome=outcome,
                ae_terms=ae_terms,
                ingredients=ingredients,
                atcvet_subgroups=subgroups,
                routes=routes,
                dosage_forms=forms,
                descriptors=_sum_descriptors(descriptor_rows),
            )
        )
    return merged, stats


_MERGED_CSV_COLUMNS = (
    "key",
    "species",
    "breed",
    "gender",
    "age_value",
    "age_unit",
    "weight_value",
    "weight_unit",
    "age_years",
    "weight_kg",
    "outcome",
    "ae_terms",
    "ingredients",
    "atcvet_subgroups",
    "routes",
    "dosage_forms",
    *ChemDescriptors.FIELDS,
)


def merged_to_csv(reports: list[MergedReport]) -> str:
    """CSV export with list fields joined by the backslash separator."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(_MERGED_CSV_COLUMNS)
    for r in reports:
        row = [
            r.key,
            r.species,
            r.breed or "",
            r.gender or "",
            "" if r.age_value is None else repr(r.age_value),
            r.age_unit.value if r.age_unit else "",
            "" if r.weight_value is None else repr(r.weight_value),
            r.weight_unit.value if r.weight_unit else "",
            "" if r.age_years is None else repr(r.age_years),
            "" if r.weight_kg is None else repr(r.weight_kg),
            r.outcome.value,
            LIST_SEPARATOR.join(r.ae_terms),
            LIST_SEPARATOR.join(r.ingredients),
            LIST_SEPARATOR.join(r.atcvet_subgroups),
            LIST_SEPARATOR.join(r.routes),
            LIST_SEPARATOR.join(r.dosage_forms),
        ]
        for fname in ChemDescriptors.FIELDS:
            value = getattr(r.descriptors, fname)
            row.append("" if value is None else repr(value))
        writer.writerow(row)
    return buf.getvalue()


def merged_from_csv(text: str) -> list[MergedReport]:
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    if tuple(header) != _MERGED_CSV_COLUMNS:
        raise MergeError("merged CSV header does not match the expected columns")

    def opt_float(cell):
        return float(cell) if cell else None

    def split_list(cell):
        return cell.split(LIST_SEPARATOR) if cell else []

    reports = []
    for row in reader:
        cells = dict(zip(_MERGED_CSV_COLUMNS, row))
        descriptors = ChemDescriptors(
            **{f: opt_float(cells[f]) for f in ChemDescriptors.FIELDS}
        )
        reports.append(
            MergedReport(
                key=cells["key"],
                species=cells["species"],
                breed=cells["breed"] or None,
                gender=cells["gender"] or None,
                age_value=opt_float(cells["age_value"]),
                age_unit=AgeUnit(cells["age_unit"]) if cells["age_unit"] else None,
                weight_value=opt_float(cells["weight_value"]),
                weight_unit=WeightUnit(cells["weight_unit"]) if cells["weight_unit"] else None,
                outcome=Outcome(cells["outcome"]),
                ae_terms=split_list(cells["ae_terms"]),
                ingredients=split_list(cells["ingredients"]),
                atcvet_subgroups=split_list(cells["atcvet_subgroups"]),
                routes=split_list(cells["routes"]),
                dosage_forms=split_list(cells["dosage_forms"]),
                descriptors=descriptors,
                age_years=opt_float(cells["age_years"]),
                weight_kg=opt_float(cells["weight_kg"]),
            )
        )
    return reports
