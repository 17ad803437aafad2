import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import MergedReport, as_columns, as_records, pearson_two_pass
from vetpv.ingest import AgeUnit, Outcome, WeightUnit
from vetpv.matrix import DEATH, RECOVERED, from_arrays
from vetpv.prepare import (
    PrepareError,
    filter_rows,
    fit_encoder,
    fit_imputer,
    apply_imputer,
    largest_remainder_quotas,
    normalize_all,
    prune_correlated,
    stratified_assignment,
)


def make_report(key="K", species="Dog", outcome=Outcome.RECOVERED, **overrides):
    base = dict(
        key=key,
        species=species,
        breed="Beagle",
        gender="Female",
        age_value=None,
        age_unit=None,
        weight_value=None,
        weight_unit=None,
        outcome=outcome,
        ae_terms=["Gastrointestinal signs"],
        ingredients=["DrugX"],
        atcvet_subgroups=["QJ01CA"],
        routes=["Oral"],
        dosage_forms=["Tablet"],
        descriptors={"molecular_weight": 100.0},
    )
    base.update(overrides)
    return MergedReport(**base)


def reports(*records):
    return as_columns(records)


def normalized(*records):
    rows, rejects = normalize_all(reports(*records))
    assert rejects == []
    return rows


class TestUnits:
    @pytest.mark.parametrize(
        "value,unit,expected",
        [
            (24, AgeUnit.MONTH, 2.0),
            (365.25, AgeUnit.DAY, 1.0),
            (7, AgeUnit.WEEK, 7 * 7 / 365.25),
            (3, AgeUnit.YEAR, 3.0),
        ],
    )
    def test_age_conversions_exact(self, value, unit, expected):
        rows = normalized(make_report(age_value=value, age_unit=unit))
        assert as_records(rows)[0].age_years == expected

    @pytest.mark.parametrize(
        "value,unit,expected",
        [
            (10, WeightUnit.POUND, 4.5359237),
            (2500, WeightUnit.GRAM, 2.5),
            (12, WeightUnit.KILOGRAM, 12.0),
        ],
    )
    def test_weight_conversions_exact(self, value, unit, expected):
        rows = normalized(make_report(weight_value=value, weight_unit=unit))
        assert as_records(rows)[0].weight_kg == expected

    def test_negative_value_is_rejected(self):
        kept, rejects = normalize_all(reports(make_report(age_value=-1, age_unit=AgeUnit.YEAR)))
        assert len(kept) == 0
        assert rejects == [("K", "report K: negative age -1.0")]

    def test_batch_routes_invalid_rows_to_rejects(self):
        good = make_report(key="G", age_value=1, age_unit=AgeUnit.YEAR)
        bad = make_report(key="B", weight_value=-5, weight_unit=WeightUnit.KILOGRAM)
        kept, rejects = normalize_all(reports(good, bad))
        assert kept.key == ["G"]
        assert rejects[0][0] == "B"


def imputed(rows):
    return as_records(apply_imputer(fit_imputer(rows), rows))


class TestImpute:
    def test_species_mean_for_age(self):
        rows = normalized(
            make_report(key="1", age_value=2, age_unit=AgeUnit.YEAR,
                        weight_value=10, weight_unit=WeightUnit.KILOGRAM),
            make_report(key="2"),
            make_report(key="3", age_value=4, age_unit=AgeUnit.YEAR),
        )
        assert imputed(rows)[1].age_years == 3.0

    def test_mode_ties_break_lexicographically(self):
        rows = normalized(
            make_report(key="1", species="Cat", gender="F", age_value=1, age_unit=AgeUnit.YEAR,
                        weight_value=4, weight_unit=WeightUnit.KILOGRAM),
            make_report(key="2", species="Cat", gender="M"),
            make_report(key="3", species="Cat", gender="F"),
            make_report(key="4", species="Cat", gender="M"),
            make_report(key="5", species="Cat", gender=None),
        )
        assert imputed(rows)[4].gender == "F"

    def test_species_without_values_falls_back_to_global(self):
        rows = normalized(
            make_report(key="1", species="Dog", age_value=5, age_unit=AgeUnit.YEAR,
                        weight_value=10, weight_unit=WeightUnit.KILOGRAM),
            make_report(key="2", species="Turtle"),
        )
        assert imputed(rows)[1].age_years == 5.0

    def test_field_absent_everywhere_errors_with_name(self):
        rows = reports(*(make_report(key=k, gender=None, age_years=1.0, weight_kg=1.0)
                         for k in "12"))
        with pytest.raises(PrepareError) as err:
            fit_imputer(rows)
        assert "gender" in str(err.value)

    def test_statistics_frozen_from_training_rows(self):
        train = normalized(
            make_report(key="1", age_value=2, age_unit=AgeUnit.YEAR,
                        weight_value=10, weight_unit=WeightUnit.KILOGRAM),
            make_report(key="2", age_value=4, age_unit=AgeUnit.YEAR),
        )
        test = normalized(make_report(key="3"))
        filled = as_records(apply_imputer(fit_imputer(train), test))
        assert filled[0].age_years == 3.0  # train mean, not test's own


class TestFilter:
    def test_rules_and_counts(self):
        rows = (
            [make_report(key=f"E{i}", outcome=Outcome.EUTHANIZED) for i in range(2)]
            + [make_report(key="L", ae_terms=["Lack of efficacy"])]
            + [make_report(key=f"R{i}") for i in range(7)]
        )
        kept, counts = filter_rows(reports(*rows))
        assert len(kept) == 7
        assert counts["euthanized"] == 2
        assert counts["lack_of_efficacy"] == 1

    def test_sequela_relabeled_to_recovered(self):
        kept, counts = filter_rows(reports(make_report(outcome=Outcome.RECOVERED_WITH_SEQUELA)))
        assert as_records(kept)[0].outcome is Outcome.RECOVERED
        assert counts["relabeled_sequela"] == 1

    def test_efficacy_match_case_insensitive(self):
        kept, counts = filter_rows(reports(make_report(ae_terms=["LACK OF EFFICACY"])))
        assert len(kept) == 0
        assert counts["lack_of_efficacy"] == 1


class TestEncode:
    def test_category_codes_fit_in_appearance_order(self):
        fit_rows = reports(
            make_report(key="1", species="A", age_value=1, age_unit=AgeUnit.YEAR),
            make_report(key="2", species="B"),
            make_report(key="3", species="A"),
        )
        encoder = fit_encoder(fit_rows, top_k=3)
        assert encoder.category_maps["species"] == {"A": 1, "B": 2}
        matrix = encoder.transform(reports(make_report(key="4", species="C")), require_labels=False)
        col = matrix.column_index("species")
        assert matrix.values[0, col] == 0  # unseen -> UNKNOWN

    def test_multi_hot_with_other_indicator(self):
        fit_rows = reports(
            make_report(key="1", ae_terms=["X", "Y"]),
            make_report(key="2", ae_terms=["X", "Z"]),
        )
        encoder = fit_encoder(fit_rows, top_k=3)
        assert encoder.vocabularies["ae_terms"] == ("X", "Y", "Z")
        matrix = encoder.transform(reports(make_report(key="3", ae_terms=["X", "Y"])),
                                   require_labels=False)
        names = matrix.column_names()
        row = matrix.values[0]
        assert row[names.index("ae_terms=X")] == 1
        assert row[names.index("ae_terms=Y")] == 1
        assert row[names.index("ae_terms=Z")] == 0
        assert row[names.index("ae_terms=OTHER")] == 0
        out = encoder.transform(reports(make_report(key="4", ae_terms=["W"])), require_labels=False)
        assert out.values[0][names.index("ae_terms=OTHER")] == 1

    def test_vocabulary_is_top_k_by_frequency(self):
        fit_rows = [make_report(key=str(i), ae_terms=["common"]) for i in range(5)]
        fit_rows += [make_report(key="r1", ae_terms=["rare1"]), make_report(key="r2", ae_terms=["rare2"])]
        encoder = fit_encoder(reports(*fit_rows), top_k=2)
        assert encoder.vocabularies["ae_terms"] == ("common", "rare1")  # tie by name

    def test_same_fit_applied_twice_identical(self):
        rows = normalized(*(make_report(key=str(i), ae_terms=["X"], age_value=i,
                                        age_unit=AgeUnit.YEAR) for i in range(4)))
        encoder = fit_encoder(rows, top_k=3)
        a = encoder.transform(rows, require_labels=False)
        b = encoder.transform(rows, require_labels=False)
        assert np.array_equal(a.values, b.values)

    def test_labels_require_definitive_outcomes(self):
        encoder = fit_encoder(reports(make_report(key="1")), top_k=3)
        with pytest.raises(PrepareError):
            encoder.transform(reports(make_report(key="2", outcome=Outcome.ONGOING)),
                              require_labels=True)
        got = encoder.transform(
            reports(make_report(key="3", outcome=Outcome.DIED), make_report(key="4")),
            require_labels=True,
        )
        assert list(got.labels) == [DEATH, RECOVERED]


def numeric_matrix(values, names):
    X = np.asarray(values, dtype=float)
    return from_arrays(X, names=names)


class TestPrune:
    def test_exact_linear_dependence_drops_later_column(self):
        x = np.arange(10.0)
        matrix = numeric_matrix(np.column_stack([x, 2 * x]), ["a", "b"])
        pruned, dropped = prune_correlated(matrix, threshold=0.95, priority=())
        assert pruned.column_names() == ["a"]
        assert dropped[0].name == "b" and dropped[0].reason == "correlated"
        assert dropped[0].r == pytest.approx(1.0)

    def test_priority_column_survives(self):
        x = np.arange(10.0)
        matrix = numeric_matrix(
            np.column_stack([x + 0.001, x]), ["exact_mass", "molecular_weight"]
        )
        pruned, dropped = prune_correlated(matrix, threshold=0.95, priority=("molecular_weight",))
        assert pruned.column_names() == ["molecular_weight"]
        assert dropped[0].name == "exact_mass"

    def test_uncorrelated_columns_both_kept_with_oracle_check(self, rng):
        a = rng.normal(size=400)
        b = 0.3 * a + rng.normal(size=400) * np.sqrt(1 - 0.09)
        r = pearson_two_pass(a, b)
        assert abs(r) < 0.5
        matrix = numeric_matrix(np.column_stack([a, b]), ["a", "b"])
        pruned, dropped = prune_correlated(matrix, threshold=0.95, priority=())
        assert pruned.column_names() == ["a", "b"]
        assert dropped == []

    def test_pearson_matches_two_pass_oracle(self, rng):
        a = rng.normal(size=200)
        b = 0.97 * a + 0.03 * rng.normal(size=200)
        matrix = numeric_matrix(np.column_stack([a, b]), ["a", "b"])
        _, dropped = prune_correlated(matrix, threshold=0.9, priority=())
        assert dropped[0].r == pytest.approx(pearson_two_pass(a, b), abs=1e-12)

    def test_constant_column_dropped_with_reason(self):
        matrix = numeric_matrix(
            np.column_stack([np.arange(5.0), np.ones(5)]), ["a", "const"]
        )
        _, dropped = prune_correlated(matrix, threshold=0.95, priority=())
        assert any(d.name == "const" and d.reason == "constant" for d in dropped)

    def test_threshold_validation(self):
        matrix = numeric_matrix(np.ones((3, 2)), ["a", "b"])
        with pytest.raises(PrepareError):
            prune_correlated(matrix, threshold=0.0, priority=())
        with pytest.raises(PrepareError):
            prune_correlated(matrix, threshold=1.5, priority=())

    def test_column_holding_inf_is_not_called_correlated(self, rng):
        X = rng.normal(size=(50, 3))
        X[7, 1] = np.inf  # a descriptor sum may overflow
        pruned, dropped = prune_correlated(numeric_matrix(X, ["f0", "f1", "f2"]), 0.95, ())
        assert pruned.column_names() == ["f0", "f1", "f2"]
        assert dropped == []

    def test_never_drops_priority_when_partner_can_go(self):
        x = np.arange(20.0)
        matrix = numeric_matrix(
            np.column_stack([x, x * 1.0001, 3 * x]), ["molecular_weight", "m2", "m3"]
        )
        pruned, _ = prune_correlated(matrix, threshold=0.95, priority=("molecular_weight",))
        assert "molecular_weight" in pruned.column_names()


def labeled_matrix(n_death, n_recovered, seed=0):
    gen = np.random.default_rng(seed)
    n = n_death + n_recovered
    y = np.array([DEATH] * n_death + [RECOVERED] * n_recovered, dtype=np.int8)
    return from_arrays(gen.normal(size=(n, 3)), y[gen.permutation(n)])


def split(matrix, seed):
    """(train, validation, test) rows of matrix under the 80/10/10 assignment."""
    assignment = stratified_assignment(matrix.labels, (0.8, 0.1, 0.1), seed)
    return [matrix.take_rows(np.flatnonzero(assignment == s)) for s in range(3)]


class TestSplit:
    def test_worked_allocation_200_rows(self):
        train, validation, test = split(labeled_matrix(30, 170), seed=7)
        assert train.class_counts() == {"Death": 24, "Recovered": 136}
        assert validation.class_counts() == {"Death": 3, "Recovered": 17}
        assert test.class_counts() == {"Death": 3, "Recovered": 17}

    def test_worked_allocation_100_rows_85_15(self):
        train, _, _ = split(labeled_matrix(15, 85), seed=3)
        assert train.class_counts() == {"Death": 12, "Recovered": 68}

    def test_same_seed_identical_assignment(self):
        matrix = labeled_matrix(20, 60)
        a = split(matrix, seed=11)
        b = split(matrix, seed=11)
        assert a[0].keys == b[0].keys
        assert a[2].keys == b[2].keys

    def test_splits_partition_the_keys(self):
        matrix = labeled_matrix(25, 75, seed=5)
        combined = sorted(key for part in split(matrix, seed=2) for key in part.keys)
        assert combined == sorted(matrix.keys)

    def test_small_class_rejected(self):
        with pytest.raises(PrepareError):
            split(labeled_matrix(2, 50), seed=0)

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_per_class_deviation_at_most_one(self, seed):
        labels = np.array([DEATH] * 37 + [RECOVERED] * 163, dtype=np.int8)
        assignment = stratified_assignment(labels, (0.8, 0.1, 0.1), seed)
        for cls, count in ((DEATH, 37), (RECOVERED, 163)):
            for split_id, ratio in enumerate((0.8, 0.1, 0.1)):
                got = int(np.sum((labels == cls) & (assignment == split_id)))
                assert abs(got - count * ratio) <= 1

    def test_largest_remainder_exact(self):
        assert largest_remainder_quotas(170, (0.8, 0.1, 0.1)) == [136, 17, 17]
        # 37 rows: quotas 29.6/3.7/3.7; the two 0.7 remainders win the leftovers
        assert largest_remainder_quotas(37, (0.8, 0.1, 0.1)) == [29, 4, 4]
