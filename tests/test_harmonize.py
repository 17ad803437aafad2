import pytest
from hypothesis import given, strategies as st

from oracles import AERow, DrugRow, MainRow, OutcomeRow, as_records, merged_csv_records, row_tables
from vetpv.harmonize import (
    OUTCOMES,
    MergeError,
    OntologyError,
    VeddraMap,
    map_atcvet,
    map_veddra,
    merge_reports,
    merged_to_csv,
)
from vetpv.ingest import ChemDescriptors, Outcome, VeddraLevel


@pytest.fixture(scope="module")
def veddra():
    return VeddraMap.load()


class TestVeddra:
    def test_pt_maps_to_hlt(self, veddra):
        assert map_veddra("Vomiting", None, VeddraLevel.PT, veddra) == "Gastrointestinal signs"

    def test_hlt_passes_through(self, veddra):
        assert map_veddra("Heart disorders", None, VeddraLevel.HLT, veddra) == "Heart disorders"

    def test_known_hlt_name_without_level_is_identity(self, veddra):
        assert map_veddra("Heart disorders", None, None, veddra) == "Heart disorders"

    def test_unknown_term_gets_sentinel(self, veddra):
        assert (map_veddra("Spontaneous combustion", None, None, veddra)
                == "UNMAPPED:Spontaneous combustion")

    def test_lookup_case_insensitive(self, veddra):
        assert map_veddra("vomiting", None, None, veddra) == "Gastrointestinal signs"

    def test_row_without_tab_named(self, tmp_path):
        path = tmp_path / "veddra.tsv"
        path.write_text("term\thlt\nVomiting\tGastrointestinal signs\n\nDiarrhoea\n")
        with pytest.raises(OntologyError) as err:
            VeddraMap.load(path)
        assert str(err.value) == f"{path}:4: 1 cells, the header has 2"


class TestAtcvet:
    def test_level5_truncates_to_chemical_subgroup(self):
        assert map_atcvet("QJ01CA01") == "QJ01CA"

    def test_level4_identity(self):
        assert map_atcvet("QJ01CA") == "QJ01CA"

    def test_missing_q_prefix_rejected(self):
        with pytest.raises(OntologyError) as err:
            map_atcvet("J01CA01")
        assert "J01CA01" in str(err.value)

    @pytest.mark.parametrize("bad", ["Q", "QJ", "QJ0", "QJ011", "QJ01CA0", "QJ01ca01", "qj01ca"])
    def test_grammar_violations_rejected(self, bad):
        with pytest.raises(OntologyError):
            map_atcvet(bad)

    @given(
        st.builds(
            lambda a, b, c, d, e, cut: f"Q{a}{b:02d}{c}{d}{e:02d}"[:cut],
            st.sampled_from("ABCDEFGHIJ"),
            st.integers(0, 99),
            st.sampled_from("ABCDEFGHIJ"),
            st.sampled_from("ABCDEFGHIJ"),
            st.integers(0, 99),
            st.sampled_from([4, 5, 6, 8]),
        )
    )
    def test_idempotent_on_valid_codes(self, code):
        assert map_atcvet(map_atcvet(code)) == map_atcvet(code)


def rows_for_merge():
    return dict(
        main=[MainRow(key="A", species="Dog"), MainRow(key="B", species="Cat")],
        events=[
            AERow(key="A", term_name="Vomiting"),
            AERow(key="A", term_name="Seizure"),
            AERow(key="B", term_name="Rash"),
        ],
        outcomes=[OutcomeRow(key="A", medical_status=Outcome.DIED)],
        drugs=[
            DrugRow(key="A", ingredient_name="DrugX", atcvet_code="QJ01CA01", route="Oral"),
            DrugRow(key="A", ingredient_name="DrugY", atcvet_code="QJ01"),
            DrugRow(key="B", ingredient_name="DrugZ", atcvet_code="bogus"),
        ],
    )


DESCRIPTORS = {
    "drugx": ChemDescriptors(molecular_weight=100.0),
    "drugy": ChemDescriptors(molecular_weight=250.5, xlogp3=1.2),
}


class TestMerge:
    def test_one_row_per_main_row(self, veddra):
        merged, _ = merge_reports(row_tables(**rows_for_merge()), veddra, DESCRIPTORS)
        assert merged.key == ["A", "B"]
        assert len(merged) == 2

    def test_descriptor_summation(self, veddra):
        merged, _ = merge_reports(row_tables(**rows_for_merge()), veddra, DESCRIPTORS)
        descriptors = as_records(merged)[0].descriptors
        assert descriptors["molecular_weight"] == 350.5
        # the field only one ingredient carries is its value, not absent
        assert descriptors["xlogp3"] == 1.2
        # no ingredient carries it at all: stays absent
        assert descriptors["exact_mass"] is None

    def test_list_fields_preserve_order_and_serialize_with_backslash(self, veddra):
        rows = rows_for_merge()
        rows["events"] = [
            AERow(key="A", term_name="A1"),
            AERow(key="A", term_name="B1"),
            AERow(key="A", term_name="C1"),
        ]
        merged, _ = merge_reports(row_tables(**rows), veddra, {})
        assert as_records(merged)[0].ae_terms == ["UNMAPPED:A1", "UNMAPPED:B1", "UNMAPPED:C1"]
        text = merged_to_csv(merged)
        assert "UNMAPPED:A1\\UNMAPPED:B1\\UNMAPPED:C1" in text

    def test_unmapped_and_code_stats(self, veddra):
        merged, stats = merge_reports(row_tables(**rows_for_merge()), veddra, DESCRIPTORS)
        assert stats.under_specified_codes == 1  # QJ01 stays below level 4
        assert stats.invalid_codes == 1  # "bogus"
        assert as_records(merged)[0].atcvet_subgroups == ["QJ01CA", "QJ01"]

    def test_missing_outcome_defaults_unknown(self, veddra):
        merged, stats = merge_reports(row_tables(**rows_for_merge()), veddra, {})
        assert OUTCOMES[merged.outcome[1]] is Outcome.UNKNOWN
        assert stats.missing_outcome == 1

    def test_duplicate_key_is_hard_error(self, veddra):
        rows = rows_for_merge()
        rows["main"].append(MainRow(key="A", species="Dog"))
        with pytest.raises(MergeError) as err:
            merge_reports(row_tables(**rows), veddra, {})
        assert "'A'" in str(err.value) or "A" in str(err.value)

    def test_descriptor_sum_permutation_invariant(self, veddra):
        rows = rows_for_merge()
        merged, _ = merge_reports(row_tables(**rows), veddra, DESCRIPTORS)
        rows["drugs"] = rows["drugs"][::-1]
        flipped, _ = merge_reports(row_tables(**rows), veddra, DESCRIPTORS)
        assert as_records(merged)[0].descriptors == as_records(flipped)[0].descriptors

    def test_term_code_looked_up_before_the_name(self, tmp_path):
        path = tmp_path / "veddra.tsv"
        path.write_text("term\thlt\nV123\tSkin disorders\nVomiting\tGastrointestinal signs\n")
        table = VeddraMap.load(path)
        assert map_veddra("Odd rash", "v123", VeddraLevel.PT, table) == "Skin disorders"
        assert map_veddra("Odd rash", "V999", VeddraLevel.PT, table) == "UNMAPPED:Odd rash"
        assert map_veddra("Vomiting", "V123", None, table) == "Skin disorders"
        rows = rows_for_merge()
        rows["events"] = [
            AERow(key="A", term_name="Odd rash", term_code="V123", veddra_level=VeddraLevel.PT),
            AERow(key="A", term_name="Odd rash", term_code="V999", veddra_level=VeddraLevel.PT),
            AERow(key="B", term_name="Odd rash", veddra_level=VeddraLevel.PT),
        ]
        merged, stats = merge_reports(row_tables(**rows), table, {})
        records = as_records(merged)
        assert records[0].ae_terms == ["Skin disorders", "UNMAPPED:Odd rash"]
        assert records[1].ae_terms == ["UNMAPPED:Odd rash"]
        assert stats.unmapped_terms == {"Odd rash": 2}

    def test_merged_csv_roundtrip(self, veddra):
        merged, _ = merge_reports(row_tables(**rows_for_merge()), veddra, DESCRIPTORS)
        assert merged_csv_records(merged_to_csv(merged)) == as_records(merged)
