import numpy as np
import pytest

from vetpv.matrix import from_arrays, from_csv, to_csv

ADVERSARIAL_KEYS = ["a,b", 'say "hi"', "k\r1", "k\n1", "k\r\n1", "#comment", " lead", ""]
ADVERSARIAL_VALUES = [-0.0, 5e-324, np.nextafter(1.0, 2.0), np.inf, -np.inf, np.nan, 1e308]


def round_trip(matrix):
    back = from_csv(to_csv(matrix), matrix.columns)
    assert back.keys == matrix.keys
    assert back.values.shape == matrix.values.shape
    # bit patterns: nan == nan and -0.0 != 0.0
    assert back.values.view(np.uint64).tolist() == matrix.values.view(np.uint64).tolist()
    if matrix.labels is None:
        assert back.labels is None
    else:
        assert back.labels.tolist() == matrix.labels.tolist()
    return back


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("labeled", [True, False], ids=["labeled", "unlabeled"])
class TestCsvRoundTrip:
    def test_adversarial_keys_and_values(self, labeled):
        n = len(ADVERSARIAL_KEYS)
        values = np.array([np.roll(ADVERSARIAL_VALUES, i) for i in range(n)])
        labels = np.arange(n) % 2 if labeled else None
        round_trip(from_arrays(values, labels, names=[f"c,{j}" for j in range(7)],
                               keys=ADVERSARIAL_KEYS))

    def test_one_column_and_one_row(self, labeled):
        round_trip(from_arrays([[np.nan], [-0.0]], [1, 0] if labeled else None, keys=["#", "\r"]))
        round_trip(from_arrays([ADVERSARIAL_VALUES], [1] if labeled else None, keys=["k\r\n"]))

    def test_zero_rows(self, labeled):
        empty = from_arrays(np.empty((0, 3)), np.empty(0) if labeled else None, keys=[])
        back = from_csv(to_csv(empty), empty.columns)
        assert back.values.shape == (0, 3)
        assert back.keys == [] and back.labels is None
