"""Dense feature matrix shared by the preparation, resampling and model stages.

Label convention used everywhere downstream: DEATH = 0, RECOVERED = 1.
Probability column 1 (and the raw margin of boosted models) is therefore
oriented toward Recovered; a positive margin or attribution pushes a
prediction toward recovery.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

import numpy as np

DEATH = 0
RECOVERED = 1
CLASS_NAMES = ("Death", "Recovered")


class MatrixError(ValueError):
    pass


@dataclass
class ColumnMeta:
    """Metadata for one matrix column.

    kind is one of "numeric", "encoded_categorical", "multi_hot".
    category_map (encoded_categorical only) is a bijection name -> code with
    code 0 reserved for UNKNOWN. source_field names the report field this
    column was derived from.
    """

    name: str
    kind: str
    category_map: dict[str, int] | None = None
    source_field: str | None = None

    def __post_init__(self):
        if self.kind not in ("numeric", "encoded_categorical", "multi_hot"):
            raise MatrixError(f"unknown column kind {self.kind!r} for {self.name!r}")
        if self.category_map is not None:
            codes = list(self.category_map.values())
            if len(set(codes)) != len(codes):
                raise MatrixError(f"category_map for {self.name!r} is not a bijection")
            if 0 in codes:
                raise MatrixError(f"code 0 is reserved for UNKNOWN in {self.name!r}")


@dataclass
class FeatureMatrix:
    """Row-aligned values, column metadata, report keys and optional labels."""

    values: np.ndarray
    columns: list[ColumnMeta]
    keys: list[str]
    labels: np.ndarray | None = None
    _name_index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise MatrixError("values must be 2-dimensional")
        if self.values.shape[1] != len(self.columns):
            raise MatrixError(
                f"{self.values.shape[1]} value columns but {len(self.columns)} column metas"
            )
        if self.values.shape[0] != len(self.keys):
            raise MatrixError(f"{self.values.shape[0]} rows but {len(self.keys)} keys")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int8)
            if self.labels.shape != (self.values.shape[0],):
                raise MatrixError("labels must align with rows")
            bad = set(np.unique(self.labels)) - {DEATH, RECOVERED}
            if bad:
                raise MatrixError(f"labels outside {{DEATH, RECOVERED}}: {sorted(bad)}")
        self._name_index = {c.name: i for i, c in enumerate(self.columns)}
        if len(self._name_index) != len(self.columns):
            raise MatrixError("duplicate column names")

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_cols(self) -> int:
        return self.values.shape[1]

    def column_names(self) -> list[str]:
        return [c.name for c in self.columns]

    def column_index(self, name: str) -> int:
        try:
            return self._name_index[name]
        except KeyError:
            raise MatrixError(f"no column named {name!r}") from None

    def numeric_indices(self) -> list[int]:
        return [i for i, c in enumerate(self.columns) if c.kind == "numeric"]

    def class_counts(self) -> dict[str, int]:
        if self.labels is None:
            raise MatrixError("matrix has no labels")
        return {
            CLASS_NAMES[DEATH]: int(np.sum(self.labels == DEATH)),
            CLASS_NAMES[RECOVERED]: int(np.sum(self.labels == RECOVERED)),
        }

    def take_rows(self, indices) -> "FeatureMatrix":
        indices = np.asarray(indices, dtype=np.intp)
        return FeatureMatrix(
            values=self.values[indices],
            columns=self.columns,
            keys=[self.keys[i] for i in indices],
            labels=None if self.labels is None else self.labels[indices],
        )

    def drop_columns(self, names) -> "FeatureMatrix":
        drop = set(names)
        missing = drop - set(self._name_index)
        if missing:
            raise MatrixError(f"cannot drop unknown columns: {sorted(missing)}")
        keep = [i for i, c in enumerate(self.columns) if c.name not in drop]
        return FeatureMatrix(
            values=self.values[:, keep],
            columns=[self.columns[i] for i in keep],
            keys=list(self.keys),
            labels=self.labels,
        )

    def append_rows(self, values, keys, labels) -> "FeatureMatrix":
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 2 or values.shape[1] != self.n_cols:
            raise MatrixError("appended rows must match column count")
        if self.labels is None:
            raise MatrixError("cannot append labeled rows to an unlabeled matrix")
        return FeatureMatrix(
            values=np.vstack([self.values, values]),
            columns=self.columns,
            keys=list(self.keys) + list(keys),
            labels=np.concatenate([self.labels, np.asarray(labels, dtype=np.int8)]),
        )


def from_arrays(X, y=None, names=None, keys=None) -> FeatureMatrix:
    """Wrap plain arrays as an all-numeric matrix (tests, oracles, synthesis)."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise MatrixError("X must be 2-dimensional")
    d = X.shape[1]
    names = names or [f"f{j}" for j in range(d)]
    columns = [ColumnMeta(name=n, kind="numeric") for n in names]
    keys = keys or [f"r{i}" for i in range(X.shape[0])]
    return FeatureMatrix(values=X, columns=columns, keys=list(keys), labels=y)


def to_csv(matrix: FeatureMatrix) -> str:
    """Serialize with full float precision; round-trips through from_csv."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["key", "label"] + matrix.column_names())
    labels = [""] * matrix.n_rows if matrix.labels is None else map(str, matrix.labels.tolist())
    # one row at a time: a whole-matrix tolist() would hold every value as
    # a Python float at once
    writer.writerows(
        [key, label, *map(repr, row.tolist())]
        for key, label, row in zip(matrix.keys, labels, matrix.values)
    )
    return buf.getvalue()


def _text_stream(data: bytes):
    # decodes a chunk at a time; io.StringIO(text) would hold the whole
    # text at four bytes per character while it is read
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="")


def from_csv(text: str, columns: list[ColumnMeta]) -> FeatureMatrix:
    data = text.encode("utf-8")
    reader = csv.reader(_text_stream(data))
    header = next(reader)
    expected = ["key", "label"] + [c.name for c in columns]
    if header != expected:
        raise MatrixError("matrix CSV header does not match column metadata")
    header_lines = reader.line_num  # as loadtxt counts them: the same stream type
    keys, label_cells = [], []
    for row in reader:
        keys.append(row[0])
        label_cells.append(row[1])
    d = len(columns)
    if keys:
        # comments=None: a key that starts with "#" must keep its row
        values = np.loadtxt(_text_stream(data), delimiter=",", quotechar='"', comments=None,
                            skiprows=header_lines, usecols=range(2, 2 + d), ndmin=2)
    else:
        values = np.empty((0, d))  # loadtxt warns on input with no rows
    labeled = bool(label_cells) and label_cells[0] != ""
    return FeatureMatrix(
        values=values,
        columns=columns,
        keys=keys,
        labels=np.array([int(c) for c in label_cells], dtype=np.int8) if labeled else None,
    )
