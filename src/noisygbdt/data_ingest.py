"""CSV loading, preprocessing, and stratified sampling for tabular classification.

The pipeline is: load a comma-separated file into a :class:`RawTable`, one
column at a time, with each column's kind inferred from one cast of its
present cells; then ``prepare`` it: the stratified train/test split is drawn
first, and ``preprocess`` turns the table into a dense numeric
:class:`Dataset` (median/mode imputation, standardization, one-hot encoding,
contiguous label encoding) with its statistics fit on the training rows only,
so the test partition never leaks into them. Every stratified draw (the test
split, a row subsample, a validation holdout) goes through
``stratified_mask``.
"""

from __future__ import annotations

import csv
import dataclasses
import warnings
from dataclasses import dataclass, field

import numpy as np

DEFAULT_MISSING_MARKERS = ("", "?")


class DataIngestError(ValueError):
    """Raised for unreadable files, malformed tables, or invalid label columns."""


@dataclass
class Column:
    """One loaded column: numeric values are float64 with NaN for missing,
    categorical values are an object array with None for missing."""

    name: str
    kind: str
    values: np.ndarray


@dataclass
class RawTable:
    columns: list[Column]
    n_rows: int

    def column(self, name: str) -> Column:
        for col in self.columns:
            if col.name == name:
                return col
        raise DataIngestError(f"no column named {name!r}")


@dataclass
class Dataset:
    """Preprocessed dataset: dense features plus clean/noisy label bookkeeping.

    The noise mask is derived, never stored: ``noise_mask[i]`` is true exactly
    when ``clean_labels[i] != noisy_labels[i]``. Instance ids are stable
    across splits and subsampling.
    """

    features: np.ndarray        # (n, d) float64, no missing entries
    clean_labels: np.ndarray    # (n,) int64 in [0, class_count)
    noisy_labels: np.ndarray    # (n,) int64 in [0, class_count)
    class_count: int
    instance_ids: np.ndarray    # (n,) int64, unique
    feature_names: list[str] = field(default_factory=list)
    label_names: list[str] = field(default_factory=list)

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def noise_mask(self) -> np.ndarray:
        """(n,) bool: the rows whose noisy label differs from the clean one."""
        return self.clean_labels != self.noisy_labels

    def validate(self) -> None:
        n = len(self)
        if self.clean_labels.shape != (n,) or self.noisy_labels.shape != (n,):
            raise DataIngestError("label arrays must match the feature row count")
        if self.instance_ids.shape != (n,):
            raise DataIngestError("instance_ids must match the feature row count")
        if len(np.unique(self.instance_ids)) != n:
            raise DataIngestError("instance_ids must be unique")
        for arr in (self.clean_labels, self.noisy_labels):
            if n and (arr.min() < 0 or arr.max() >= self.class_count):
                raise DataIngestError("labels must lie in [0, class_count)")
        if not np.isfinite(self.features).all():
            raise DataIngestError("features contain missing or non-finite entries")

    def take(self, rows: np.ndarray) -> "Dataset":
        """Row subset preserving ids and label bookkeeping."""
        return dataclasses.replace(
            self, features=self.features[rows],
            clean_labels=self.clean_labels[rows],
            noisy_labels=self.noisy_labels[rows],
            instance_ids=self.instance_ids[rows])

    def with_noise(self, noisy_labels: np.ndarray) -> "Dataset":
        """Copy with new noisy labels."""
        noisy = np.asarray(noisy_labels, dtype=np.int64)
        if noisy.shape != self.clean_labels.shape:
            raise DataIngestError("noisy label array has the wrong shape")
        if len(noisy) and (noisy.min() < 0 or noisy.max() >= self.class_count):
            raise DataIngestError("noisy labels out of range")
        return dataclasses.replace(self, noisy_labels=noisy)


@dataclass(frozen=True)
class SplitSpec:
    test_fraction: float = 0.2
    seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.test_fraction < 1.0):
            raise DataIngestError("test_fraction must lie in (0, 1)")


def load_csv(path) -> RawTable:
    """Read a comma-separated file with a header row into a RawTable.

    Cells in ``DEFAULT_MISSING_MARKERS`` are missing. A column is inferred
    numeric when at least one cell is present and every present cell parses
    as a real number (Python's ``float``), categorical otherwise. A numeric
    cell spelled ``nan`` is missing; an infinite one fails the load, and so
    does a header that names a column twice.
    """
    try:
        with open(path, "r", newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise DataIngestError(f"cannot read {path}: {exc}") from exc

    rows = [r for r in rows if r]  # drop completely blank lines
    if not rows:
        raise DataIngestError(f"{path}: no rows")
    header = [h.strip() for h in rows[0]]
    for i, name in enumerate(header):
        if name in header[:i]:
            raise DataIngestError(f"{path}: column {name!r} appears twice "
                                  "in the header")
    body = rows[1:]
    if not body:
        raise DataIngestError(f"{path}: no rows")
    width = len(header)
    for i, row in enumerate(body):
        if len(row) != width:
            raise DataIngestError(
                f"{path}: ragged row {i + 2} has {len(row)} cells, expected {width}")

    columns = []
    for name, cells in zip(header, zip(*body)):
        raw = np.array([c.strip() for c in cells], dtype=object)
        present = ~np.isin(raw, DEFAULT_MISSING_MARKERS)
        try:
            # an object-to-float cast calls float() on every cell
            parsed = raw[present].astype(np.float64)
            numeric = parsed.size > 0
        except ValueError:
            numeric = False
        if numeric:
            values = np.full(len(raw), np.nan)
            values[present] = parsed
            inf = np.isinf(values)
            if inf.any():
                raise DataIngestError(f"{path}: column {name!r} has an "
                                      f"infinite value in row {inf.argmax() + 2}")
        else:
            values = np.where(present, raw, None)
        columns.append(Column(name, "numeric" if numeric else "categorical", values))
    return RawTable(columns=columns, n_rows=len(body))


def _factorize(values: np.ndarray) -> tuple[list, np.ndarray]:
    """The sorted distinct values and each value's index among them, in one
    hash pass (``np.unique`` would sort every row by Python comparisons)."""
    distinct = sorted(set(values))
    index = {v: i for i, v in enumerate(distinct)}
    return distinct, np.fromiter(map(index.__getitem__, values), np.int64, len(values))


def _encode_labels(column: Column) -> tuple[np.ndarray, list[str]]:
    """Codes 0..c-1 of a label column in sorted order of its textual class
    tokens, and the tokens; numeric labels must be integers."""
    tokens = column.values
    categorical = column.kind == "categorical"
    if (np.equal(tokens, None) if categorical else np.isnan(tokens)).any():
        raise DataIngestError(f"label column {column.name!r} has missing values")
    if not categorical:
        if not (np.isfinite(tokens) & (tokens == np.round(tokens))).all():
            raise DataIngestError(
                f"label column {column.name!r} must be categorical or integer-coded")
        values, codes = _factorize(tokens)
        tokens = np.array([str(int(v)) for v in values], dtype=object)[codes]
    classes, labels = _factorize(tokens)
    if len(classes) < 2:
        raise DataIngestError("label column has a single class")
    return labels, [str(c) for c in classes]


def preprocess(table: RawTable, label_column: str, *,
               fit_rows: np.ndarray | None = None) -> Dataset:
    """Turn a RawTable into a dense Dataset.

    Numeric columns: impute the median, then standardize to mean 0 and
    population std 1. Categorical columns: impute the mode (ties broken
    lexicographically), then one-hot encode with the full indicator set.
    Labels are mapped to 0..c-1 in lexicographic order of their original
    values. All statistics are computed on the rows of ``fit_rows``, a
    boolean mask of the table's rows (the training portion), when given and
    applied everywhere else.
    """
    labels, label_names = _encode_labels(table.column(label_column))
    n = table.n_rows

    if fit_rows is None:
        fit_mask = np.ones(n, dtype=bool)
    else:
        fit_mask = np.asarray(fit_rows)
        if fit_mask.dtype != bool or fit_mask.shape != (n,):
            raise DataIngestError("fit_rows must be a boolean mask of the table's rows")
        if not fit_mask.any():
            raise DataIngestError("fit_rows selects no rows")

    blocks: list[np.ndarray] = []
    names: list[str] = []
    for col in table.columns:
        if col.name == label_column:
            continue
        if col.kind == "numeric":
            vals = col.values.astype(np.float64)
            finite = vals[fit_mask & ~np.isnan(vals)]
            if finite.size == 0:
                median = 0.0
                warnings.warn(f"column {col.name!r}: no observed values to fit, filled 0")
            else:
                median = float(np.median(finite))
            vals[np.isnan(vals)] = median
            mean = float(vals[fit_mask].mean())
            std = float(vals[fit_mask].std())  # population std
            if std == 0.0:
                warnings.warn(f"column {col.name!r} is constant on the fit rows; "
                              "standardized to zeros")
                vals = np.zeros_like(vals)
            else:
                vals = (vals - mean) / std
            blocks.append(vals[:, None])
            names.append(col.name)
        else:
            present = ~np.equal(col.values, None)
            categories, observed = _factorize(col.values[present])
            codes = np.full(n, -1)
            codes[present] = observed
            counts = np.bincount(codes[fit_mask & present], minlength=len(categories))
            if not counts.any():
                raise DataIngestError(f"categorical column {col.name!r} has no observed values")
            codes[~present] = counts.argmax()  # the first most frequent, in sorted order
            onehot = np.zeros((n, len(categories)))
            onehot[np.arange(n), codes] = 1.0
            blocks.append(onehot)
            names.extend(f"{col.name}={c}" for c in categories)
    if not blocks:
        raise DataIngestError("table has no feature columns")
    features = np.concatenate(blocks, axis=1)

    ds = Dataset(
        features=features,
        clean_labels=labels,
        noisy_labels=labels.copy(),
        class_count=len(label_names),
        instance_ids=np.arange(n, dtype=np.int64),
        feature_names=names,
        label_names=label_names,
    )
    ds.validate()
    return ds


def stratified_mask(labels: np.ndarray, counts: np.ndarray,
                    seed: int) -> np.ndarray:
    """Boolean mask of ``counts[c]`` rows of each class ``c``, drawn in class
    order from one generator; deterministic for a given seed."""
    rng = np.random.default_rng(seed)
    mask = np.zeros(len(labels), dtype=bool)
    for cls, k in enumerate(counts):
        mask[rng.permutation(np.flatnonzero(labels == cls))[:int(k)]] = True
    return mask


def prepare(table: RawTable, label_column: str,
            spec: SplitSpec) -> tuple[Dataset, Dataset]:
    """Disjoint, exhaustive train/test partition stratified by label, with
    split-aware preprocessing: the split is decided first, statistics are fit
    on the training rows only, then both partitions are materialized."""
    labels, _ = _encode_labels(table.column(label_column))
    sizes = np.bincount(labels)
    if (sizes < 2).any():
        cls = int(np.argmax(sizes < 2))
        raise DataIngestError(
            f"class {cls} has {sizes[cls]} instance(s); stratified split needs at least 2")
    counts = np.clip(np.round(spec.test_fraction * sizes), 0, sizes - 1)
    test_mask = stratified_mask(labels, counts, spec.seed)
    dataset = preprocess(table, label_column, fit_rows=~test_mask)
    return dataset.take(~test_mask), dataset.take(test_mask)


def subsample_table(table: RawTable, label_column: str, n: int,
                    seed: int) -> RawTable:
    """Stratified row subsample of a raw table, by label token."""
    if n >= table.n_rows:
        return table
    labels, _ = _encode_labels(table.column(label_column))
    sizes = np.bincount(labels)
    counts = np.maximum(1, np.round(n * sizes / table.n_rows))
    rows = np.flatnonzero(stratified_mask(labels, counts, seed))
    columns = [Column(name=c.name, kind=c.kind, values=c.values[rows])
               for c in table.columns]
    return RawTable(columns=columns, n_rows=len(rows))
