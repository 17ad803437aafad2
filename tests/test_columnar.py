"""The columnar report path against the per-report oracle in `oracles.py`,
value for value and byte for byte, on adversarial tables."""

from collections import Counter

import numpy as np
import pytest

from oracles import (
    AERow,
    DrugRow,
    MainRow,
    MergedReport,
    OutcomeRow,
    as_columns,
    as_records,
    encode_per_report,
    filter_per_report,
    impute_per_report,
    matrix_csv_per_row,
    merge_per_report,
    merged_csv_per_report,
    normalize_per_report,
    row_tables,
)
from vetpv.harmonize import _MERGED_CSV_COLUMNS, VeddraMap, merge_reports, merged_to_csv
from vetpv.ingest import AgeUnit, ChemDescriptors, Outcome, RawTables, VeddraLevel, WeightUnit
from vetpv.matrix import from_arrays, to_csv
from vetpv.prepare import (
    CATEGORICAL_FIELDS,
    MULTI_HOT_FIELDS,
    NUMERIC_FIELDS,
    apply_imputer,
    filter_rows,
    fit_encoder,
    fit_imputer,
    normalize_all,
)

SEEDS = range(12)
TERMS = ["Vomiting", "vomiting", "Heart disorders", "Lack of efficacy", " LACK OF EFFICACY ",
         "Spontaneous combustion", "Rash", "UNMAPPED:odd"]
CODES = ["QJ01CA01", "QJ01CA", "QJ01", "QJ0", "bogus", "", None, "QP54AA01", " QJ01CA01 "]
INGREDIENTS = ["DrugX", "drugx", "DRUGY ", "DrugZ", "Unlisted", "a,b", 'q"t']
DESCRIPTORS = {
    "drugx": ChemDescriptors(molecular_weight=0.1, xlogp3=-0.0, exact_mass=5e-324),
    "drugy": ChemDescriptors(molecular_weight=0.2, h_bond_acceptors=3.0, xlogp3=-0.0),
    "drugz": ChemDescriptors(molecular_weight=float(np.nextafter(0.3, 1.0)), formal_charge=-1.0,
                             covalent_units=1e308, exact_mass=1e308),
    "a,b": ChemDescriptors(),
}
KEYS = ["a,b", 'say "hi"', "k\r1", "k\n1", "#c"]


def pick(gen, options):
    return options[int(gen.integers(len(options)))]


def random_tables(seed: int, n: int = 60) -> RawTables:
    """Child rows for keys in any order; reports with no events, drugs or
    outcome; every unit and none; negative, zero and huge measurements."""
    gen = np.random.default_rng(seed)
    keys = KEYS + [f"R{i}" for i in range(n - len(KEYS))]
    measures = [None, None, 0.0, -0.0, 1.5, 24.0, 7.0, 365.25, 10.0, 1e300, -1.0, 2500.0]
    main = [MainRow(key=k, species=pick(gen, ["Dog", "Cat", "Horse", "Cattle"]),
                    breed=pick(gen, [None, "Beagle", "a,b"]),
                    gender=pick(gen, [None, "Male", "Female", "F", "M"]),
                    age_value=pick(gen, measures), age_unit=pick(gen, [None, *AgeUnit]),
                    weight_value=pick(gen, measures), weight_unit=pick(gen, [None, *WeightUnit]))
            for k in keys]
    events, outcomes, drugs = [], [], []
    for k in keys:
        events += [AERow(key=k, term_name=pick(gen, TERMS),
                         term_code=pick(gen, [None, "1001", "9999"]),
                         veddra_level=pick(gen, [None, *VeddraLevel]))
                   for _ in range(int(gen.integers(0, 4)))]
        outcomes += [OutcomeRow(key=k, medical_status=pick(gen, list(Outcome)))
                     for _ in range(int(gen.integers(0, 3)))]
        drugs += [DrugRow(key=k, ingredient_name=pick(gen, INGREDIENTS),
                          route=pick(gen, [None, "", "Oral", "Topical"]),
                          dosage_form=pick(gen, [None, "Tablet", "Injection"]),
                          atcvet_code=pick(gen, CODES))
                  for _ in range(int(gen.integers(0, 4)))]
    shuffled = [[rows[i] for i in gen.permutation(len(rows))] for rows in (events, outcomes, drugs)]
    return row_tables(main=main, events=shuffled[0], outcomes=shuffled[1], drugs=shuffled[2])


@pytest.fixture(scope="module")
def veddra():
    return VeddraMap.load()


@pytest.mark.parametrize("seed", SEEDS)
def test_merge_and_merged_csv_match_per_report(veddra, seed):
    tables = random_tables(seed)
    merged, stats = merge_reports(tables, veddra, DESCRIPTORS)
    records, unmapped, under, invalid, missing = merge_per_report(tables, veddra, DESCRIPTORS)
    assert merged_to_csv(merged) == merged_csv_per_report(records, _MERGED_CSV_COLUMNS)
    assert as_records(merged) == records
    assert stats.unmapped_terms == unmapped
    assert (stats.under_specified_codes, stats.invalid_codes, stats.missing_outcome) == (
        under, invalid, missing)


def test_merge_of_reports_without_children(veddra):
    tables = row_tables(main=[MainRow(key="A", species="Dog"), MainRow(key="B", species="Cat")])
    merged, stats = merge_reports(tables, veddra, DESCRIPTORS)
    records, *_ = merge_per_report(tables, veddra, DESCRIPTORS)
    assert as_records(merged) == records
    assert stats.missing_outcome == 2
    assert merged_to_csv(merged) == merged_csv_per_report(records, _MERGED_CSV_COLUMNS)


def test_merge_drops_child_rows_of_unknown_reports(veddra):
    rows = {"main": [MainRow(key="A", species="Dog")],
            "events": [AERow(key="Z", term_name="Rash"), AERow(key="A", term_name="Vomiting")],
            "outcomes": [OutcomeRow(key="Z", medical_status=Outcome.DIED)],
            "drugs": [DrugRow(key="A", ingredient_name="DrugX", atcvet_code="QJ01CA01"),
                      DrugRow(key="Z", ingredient_name="DrugY", atcvet_code="bogus")]}
    merged, stats = merge_reports(row_tables(**rows), veddra, DESCRIPTORS)
    records, unmapped, under, invalid, missing = merge_per_report(
        row_tables(**rows), veddra, DESCRIPTORS)
    assert as_records(merged) == records
    assert (stats.unmapped_terms, stats.invalid_codes, stats.missing_outcome) == (
        unmapped, invalid, missing) == (Counter(), 0, 1)


@pytest.mark.parametrize("seed", SEEDS)
def test_prepare_steps_match_per_report(veddra, seed):
    """normalize, filter, impute and encode, each against its oracle."""
    merged, _ = merge_reports(random_tables(seed), veddra, DESCRIPTORS)
    records = as_records(merged)

    normalized, rejects = normalize_all(merged)
    expected, expected_rejects = normalize_per_report(records)
    assert rejects == expected_rejects
    assert merged_to_csv(normalized) == merged_csv_per_report(expected, _MERGED_CSV_COLUMNS)

    cleaned, counts = filter_rows(normalized)
    expected, expected_counts = filter_per_report(expected)
    assert counts == expected_counts
    assert merged_to_csv(cleaned) == merged_csv_per_report(expected, _MERGED_CSV_COLUMNS)

    # train on a half that lacks some species: the rest fall back to global values
    train_rows = [i for i, s in enumerate(cleaned.species) if s != "Cattle" and i % 2 == 0]
    train, rows = cleaned.take(train_rows), cleaned
    filled = apply_imputer(fit_imputer(train), rows)
    expected = impute_per_report([expected[i] for i in train_rows], expected)
    assert merged_to_csv(filled) == merged_csv_per_report(expected, _MERGED_CSV_COLUMNS)

    fitted = apply_imputer(fit_imputer(train), train)
    for top_k in (0, 1, 3, 1000):
        encoder = fit_encoder(fitted, top_k)
        maps, vocabularies, values = encode_per_report(
            as_records(fitted), expected, top_k, NUMERIC_FIELDS, CATEGORICAL_FIELDS,
            MULTI_HOT_FIELDS)
        assert encoder.category_maps == maps
        assert encoder.vocabularies == vocabularies
        got = encoder.transform(filled, require_labels=False).values
        assert got.view(np.uint64).tolist() == values.view(np.uint64).tolist()


def test_mode_ties_go_to_the_smallest_value():
    def report(key, species, gender, form):
        return MergedReport(key=key, species=species, breed=None, gender=gender, age_value=None,
                            age_unit=None, weight_value=None, weight_unit=None,
                            outcome=Outcome.DIED, ae_terms=[], ingredients=[],
                            atcvet_subgroups=[], routes=["b", "a"][: len(key) % 2 + 1],
                            dosage_forms=form, descriptors={}, age_years=1.0, weight_kg=2.0)

    records = [report("1", "Cat", "M", ["Z"]), report("22", "Cat", "F", ["Y"]),
               report("3", "Dog", "F", []), report("44", "Dog", "M", ["X"]),
               report("5", "Eel", None, [])]
    filled = apply_imputer(fit_imputer(as_columns(records)), as_columns(records))
    expected = impute_per_report(records, records)
    assert as_records(filled) == as_records(as_columns(expected))
    assert [r.gender for r in expected] == ["M", "F", "F", "M", "F"]
    assert expected[4].dosage_forms == ["X"]


def test_encoder_empty_lists_and_unseen_tokens():
    def report(key, terms):
        return MergedReport(key=key, species="Dog", breed=None, gender=None, age_value=None,
                            age_unit=None, weight_value=None, weight_unit=None,
                            outcome=Outcome.DIED, ae_terms=terms, ingredients=[],
                            atcvet_subgroups=[], routes=[], dosage_forms=[], descriptors={})

    fit_on = [report("1", []), report("2", ["a", "a", "b"])]
    rows = [report("3", []), report("4", ["c"]), report("5", ["b", "c", "b"])]
    for top_k in (0, 1, 5):
        encoder = fit_encoder(as_columns(fit_on), top_k)
        _, vocabularies, values = encode_per_report(fit_on, rows, top_k, NUMERIC_FIELDS,
                                                    CATEGORICAL_FIELDS, MULTI_HOT_FIELDS)
        assert encoder.vocabularies == vocabularies
        got = encoder.transform(as_columns(rows), require_labels=True)
        assert got.values.view(np.uint64).tolist() == values.view(np.uint64).tolist()
        other = got.column_index("ae_terms=OTHER")
        assert got.values[:, other].tolist() == [0.0, 1.0, 1.0]  # "c" was never fitted


ADVERSARIAL = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1.0,
               np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0), 0.1, 1e-5, 1e16, 123456789.125]


@pytest.mark.parametrize("labeled", [True, False], ids=["labeled", "unlabeled"])
@pytest.mark.parametrize("rows", [0, 1, 7, 5000])
def test_matrix_csv_matches_per_row(labeled, rows, monkeypatch):
    from vetpv import matrix

    if rows < 100:  # many blocks, and a partial last one
        monkeypatch.setattr(matrix, "CSV_BLOCK_ROWS", 3)
    gen = np.random.default_rng(rows)
    values = gen.choice(ADVERSARIAL, size=(rows, 6))
    values[:, 5] = gen.normal(size=rows)
    keys = [pick(gen, ["a,b", 'q"t', "c\rr", "l\nf", "#", "", " k"]) + str(i) for i in range(rows)]
    m = from_arrays(values, gen.integers(0, 2, rows) if labeled else None,
                    names=[f"c,{j}" for j in range(6)], keys=keys)
    assert to_csv(m) == matrix_csv_per_row(m)
