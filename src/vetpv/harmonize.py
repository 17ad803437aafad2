"""Ontology harmonization and report merging.

Adverse-event terms are lifted to high-level terms using a bundled snapshot
table, read by ingest.read_table; drug codes are truncated to the
chemical-subgroup level of the five-level veterinary ATC grammar; the four
relational tables collapse into one column-oriented `Reports` table with list
fields kept in source order and numeric descriptors summed across active
ingredients.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field, replace
from itertools import compress, repeat
from pathlib import Path

import numpy as np

from .ingest import (AgeUnit, ChemDescriptors, Outcome, RawTables, Table, VeddraLevel, WeightUnit,
                     read_table)
from .matrix import FloatText, csv_cells, csv_lines

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
    Columns of the TSV after the HLT (the SOC) are checked for width only."""

    to_hlt: dict[str, str]
    hlt_names: set[str]

    @classmethod
    def load(cls, path: Path | None = None) -> "VeddraMap":
        path = path or _DATA_DIR / "veddra.tsv"
        to_hlt: dict[str, str] = {}
        for lineno, term, (hlt,) in read_table(path, ("term", "hlt"), OntologyError):
            if not hlt.strip():
                raise OntologyError(f"{path}:{lineno}: empty HLT for term {term!r}")
            to_hlt[term] = hlt.strip()
        return cls(to_hlt=to_hlt, hlt_names={hlt.lower() for hlt in to_hlt.values()})


def map_veddra(term_name: str, term_code: str | None, level: VeddraLevel | None,
               table: VeddraMap) -> str:
    """Lift one AE term, given by its name, code and level, to its high-level term.

    Terms already at HLT level pass through unchanged; terms absent from the
    table map to the sentinel "UNMAPPED:<name>" so they survive as categories.
    """
    if level is VeddraLevel.HLT:
        return term_name
    if term_code and term_code.lower() in table.to_hlt:
        return table.to_hlt[term_code.lower()]
    name = term_name.strip()
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


OUTCOMES = tuple(Outcome)
AGE_UNITS = tuple(AgeUnit)
WEIGHT_UNITS = tuple(WeightUnit)
OUTCOME_CODE = {o: i for i, o in enumerate(OUTCOMES)}
_ENUMS = {"age_unit": AGE_UNITS, "weight_unit": WEIGHT_UNITS, "outcome": OUTCOMES}

# float columns, each stored as values (0.0 where absent) plus a presence mask
NUMBER_FIELDS = ("age_value", "weight_value", "age_years", "weight_kg", *ChemDescriptors.FIELDS)
LIST_FIELDS = ("ae_terms", "ingredients", "atcvet_subgroups", "routes", "dosage_forms")


def _pick(values, rows) -> list:
    return list(map(values.__getitem__, rows))


def _offsets(lengths) -> np.ndarray:
    return np.concatenate(([0], np.cumsum(lengths, dtype=np.int64)))


@dataclass(frozen=True)
class Terms:
    """One list field of n reports: report i holds the tokens
    vocab[codes[offsets[i]:offsets[i + 1]]], in source order. The vocabulary
    holds each token once and may hold tokens no report uses."""

    offsets: np.ndarray  # int64, n + 1 entries
    codes: np.ndarray  # intp
    vocab: tuple[str, ...]

    @classmethod
    def group(cls, rows: np.ndarray, codes, n: int, vocab) -> "Terms":
        """From each token's report row and code, tokens in source order."""
        codes = np.asarray(codes, np.intp)[np.argsort(rows, kind="stable")]
        return cls(_offsets(np.bincount(rows, minlength=n)), codes, tuple(vocab))

    def lengths(self) -> np.ndarray:
        return np.diff(self.offsets)

    def rows(self) -> np.ndarray:
        """The report row of every token."""
        return np.repeat(np.arange(len(self.offsets) - 1), self.lengths())

    def take(self, rows) -> "Terms":
        lengths = self.lengths()[rows]
        offsets = _offsets(lengths)
        starts = np.repeat(self.offsets[:-1][rows] - offsets[:-1], lengths)
        return Terms(offsets, self.codes[starts + np.arange(offsets[-1])], self.vocab)

    def lists(self) -> list[list[str]]:
        tokens, bounds = _pick(self.vocab, self.codes.tolist()), self.offsets.tolist()
        return [tokens[a:b] for a, b in zip(bounds[:-1], bounds[1:])]


@dataclass
class Reports:
    """The merged reports, one entry per report in every column.

    Strings are lists (None where absent), enum fields int8 codes into
    OUTCOMES, AGE_UNITS and WEIGHT_UNITS (-1 where absent), NUMBER_FIELDS
    float64 arrays with presence masks, and LIST_FIELDS Terms. `cells`
    caches the merged-CSV cells of columns already written, by column name.
    """

    key: list[str]
    species: list[str]
    breed: list[str | None]
    gender: list[str | None]
    outcome: np.ndarray
    age_unit: np.ndarray
    weight_unit: np.ndarray
    numbers: dict[str, np.ndarray]
    present: dict[str, np.ndarray]
    lists: dict[str, Terms]
    cells: dict[str, list[str]] = field(default_factory=dict, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.key)

    def take(self, rows) -> "Reports":
        rows = np.asarray(rows, np.intp)
        index = rows.tolist()
        return Reports(
            *(_pick(getattr(self, name), index) for name in ("key", "species", "breed", "gender")),
            *(getattr(self, name)[rows] for name in ("outcome", "age_unit", "weight_unit")),
            numbers={k: v[rows] for k, v in self.numbers.items()},
            present={k: v[rows] for k, v in self.present.items()},
            lists={k: v.take(rows) for k, v in self.lists.items()},
            cells={k: _pick(v, index) for k, v in self.cells.items()},
        )

    def update(self, **columns) -> "Reports":
        """A copy with the named columns replaced, a number field by a
        (values, present) pair; their cached cells are dropped."""
        numbers, present, lists, fields = dict(self.numbers), dict(self.present), dict(self.lists), {}
        for name, column in columns.items():
            if name in numbers:
                numbers[name], present[name] = column
            else:
                (lists if name in lists else fields)[name] = column
        cells = {k: v for k, v in self.cells.items() if k not in columns}
        return replace(self, **fields, numbers=numbers, present=present, lists=lists, cells=cells)


@dataclass
class MergeStats:
    unmapped_terms: Counter = field(default_factory=Counter)
    under_specified_codes: int = 0
    invalid_codes: int = 0
    missing_outcome: int = 0


def _children(table: Table, index: dict[str, int]) -> tuple[np.ndarray, dict[str, list]]:
    """Each child row's report row, and the table's columns, without the rows
    whose key is absent from main."""
    at = np.array(list(map(index.get, table["key"], repeat(-1))), np.intp)
    columns = table.columns
    if (at < 0).any():
        columns = {name: list(compress(values, at >= 0)) for name, values in columns.items()}
        at = at[at >= 0]
    return at, columns


def _terms(values: list, at: np.ndarray, n: int, keep=None) -> Terms:
    """The values (the truthy ones unless keep is given) grouped by report row."""
    keep = np.fromiter(map(bool, values), bool, len(values)) if keep is None else keep
    values = list(compress(values, keep))
    index = {v: i for i, v in enumerate(dict.fromkeys(values))}
    return Terms.group(at[keep], list(map(index.__getitem__, values)), n, index)


def _optional_floats(values: list) -> tuple[np.ndarray, np.ndarray]:
    column = np.array(values, dtype=object)
    present = np.not_equal(column, None)
    column[~present] = 0.0
    return column.astype(np.float64), present.astype(bool)


def merge_reports(
    tables: RawTables,
    veddra: VeddraMap,
    descriptors: dict[str, ChemDescriptors],
) -> tuple[Reports, MergeStats]:
    """Join the four tables into one report per main row, in main order.

    List fields keep source order and duplicates. The descriptor mapping is
    keyed by lower-cased ingredient name, and each report's descriptors are
    summed over its ingredients in source order, per field over the
    ingredients that carry it. Reports with no parseable outcome row fall
    back to Unknown; outcome rows beyond the first are ignored. Duplicate
    report keys in the main table are a hard error. VeddraMap, ATCvet and
    descriptor lookups run once per distinct value.
    """
    main = tables.main
    keys = main["key"]
    index = {k: i for i, k in enumerate(keys)}
    if len(index) != len(keys):
        duplicates = sorted(k for k, count in Counter(keys).items() if count > 1)
        raise MergeError(f"duplicate report keys in main table: {duplicates}")
    n = len(keys)
    stats = MergeStats()

    at, events = _children(tables.events, index)
    # an event's HLT depends on its name and level, and on its code only
    # when the table knows the code
    codes = events["term_code"]
    known = {c: c if c and c.lower() in veddra.to_hlt else None for c in set(codes)}
    terms = list(zip(events["term_name"], map(known.__getitem__, codes), events["veddra_level"]))
    hlt_of = {t: map_veddra(*t, veddra) for t in dict.fromkeys(terms)}
    ae_terms = _terms(_pick(hlt_of, terms), at, n, np.ones(len(terms), bool))
    counts = np.bincount(ae_terms.codes, minlength=len(ae_terms.vocab)).tolist()
    for hlt, count in zip(ae_terms.vocab, counts):
        if hlt.startswith(UNMAPPED_PREFIX):
            stats.unmapped_terms[hlt[len(UNMAPPED_PREFIX):]] += count

    at_outcome, outcomes = _children(tables.outcomes, index)
    status = np.array(_pick(OUTCOME_CODE, outcomes["medical_status"]), np.int8)
    reported, first = np.unique(at_outcome, return_index=True)
    outcome = np.full(n, OUTCOME_CODE[Outcome.UNKNOWN], np.int8)
    outcome[reported] = status[first]
    stats.missing_outcome = n - len(reported)

    at, drugs = _children(tables.drugs, index)
    ingredients = _terms(drugs["ingredient_name"], at, n, np.ones(len(at), bool))
    atc = drugs["atcvet_code"]
    subgroup_of = {}
    for code, count in Counter(filter(None, atc)).items():
        try:
            subgroup_of[code] = map_atcvet(code)
        except OntologyError:
            stats.invalid_codes += count
        else:
            stats.under_specified_codes += count * (len(subgroup_of[code]) < CHEMICAL_SUBGROUP_LEN)

    # descriptor sums: one ordered add per present value, in report-then-source order
    width = len(ChemDescriptors.FIELDS)
    table = [descriptors.get(name.strip().lower()) or ChemDescriptors() for name in ingredients.vocab]
    found, has = _optional_floats([getattr(d, f) for d in table for f in ChemDescriptors.FIELDS])
    drug, column = np.nonzero(has.reshape(-1, width)[ingredients.codes])
    report = at[np.argsort(at, kind="stable")][drug]
    sums, carried = np.zeros((n, width)), np.zeros((n, width), bool)
    with np.errstate(over="ignore"):  # as in Python's float sum, overflow gives inf
        np.add.at(sums, (report, column), found.reshape(-1, width)[ingredients.codes[drug], column])
    carried[report, column] = True

    numbers, present = {}, {}
    for name in ("age_value", "weight_value"):
        numbers[name], present[name] = _optional_floats(main[name])
    for name in ("age_years", "weight_kg"):
        numbers[name], present[name] = np.zeros(n), np.zeros(n, bool)
    for j, name in enumerate(ChemDescriptors.FIELDS):
        numbers[name], present[name] = sums[:, j], carried[:, j]
    units = {name: np.array(list(map({u: i for i, u in enumerate(members)}.get,
                                     main[name], repeat(-1))), np.int8)
             for name, members in (("age_unit", AGE_UNITS), ("weight_unit", WEIGHT_UNITS))}
    lists = {
        "ae_terms": ae_terms,
        "ingredients": ingredients,
        "atcvet_subgroups": _terms([subgroup_of.get(code) if code else None for code in atc], at, n),
        "routes": _terms(drugs["route"], at, n),
        "dosage_forms": _terms(drugs["dosage_form"], at, n),
    }
    reports = Reports(key=keys, species=main["species"], breed=main["breed"],
                      gender=main["gender"], outcome=outcome, numbers=numbers,
                      present=present, lists=lists, **units)
    return reports, stats


_MERGED_CSV_COLUMNS = ("key", "species", "breed", "gender", "age_value", "age_unit", "weight_value",
                       "weight_unit", "age_years", "weight_kg", "outcome", *LIST_FIELDS,
                       *ChemDescriptors.FIELDS)


def _format(reports: Reports, name: str) -> list[str]:
    """The CSV cells of one column."""
    if name in reports.numbers:
        values = reports.numbers[name]
        cells = FloatText(values).cells(values)
        return [c if p else "" for c, p in zip(cells, reports.present[name].tolist())]
    if name in _ENUMS:
        text = [member.value for member in _ENUMS[name]] + [""]  # code -1 is absent
        return _pick(text, getattr(reports, name).tolist())
    if name in reports.lists:
        joined: dict[str, str] = {}  # one text object per distinct list
        return csv_cells([joined.setdefault(t, t) for t in
                          map(LIST_SEPARATOR.join, reports.lists[name].lists())])
    return csv_cells([value or "" for value in getattr(reports, name)])


def merged_to_csv(reports: Reports) -> str:
    """CSV export with list fields joined by the backslash separator, built a
    column at a time; the cells of columns in reports.cells are reused, the
    others are formatted and cached there."""
    for name in _MERGED_CSV_COLUMNS:
        if name not in reports.cells:
            reports.cells[name] = _format(reports, name)
    lines = csv_lines([reports.cells[name] for name in _MERGED_CSV_COLUMNS])
    return "".join([",".join(_MERGED_CSV_COLUMNS) + "\r\n", *lines])
