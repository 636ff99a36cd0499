"""CSV loading, preprocessing, and stratified splitting for tabular classification.

The pipeline is: load a comma-separated file into a :class:`RawTable` with
inferred column kinds, then ``prepare`` it: the stratified train/test split
is drawn first, and ``preprocess`` turns the table into a dense numeric
:class:`Dataset` (median/mode imputation, standardization, one-hot encoding,
contiguous label encoding) with its statistics fit on the training rows only,
so the test partition never leaks into them.
"""

from __future__ import annotations

import csv
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

    @property
    def n_missing(self) -> int:
        if self.kind == "numeric":
            return int(np.isnan(self.values).sum())
        return int(sum(v is None for v in self.values))


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

    ``noise_mask[i]`` is true exactly when ``clean_labels[i] != noisy_labels[i]``;
    instance ids are stable across splits and subsampling.
    """

    features: np.ndarray        # (n, d) float64, no missing entries
    clean_labels: np.ndarray    # (n,) int64 in [0, class_count)
    noisy_labels: np.ndarray    # (n,) int64 in [0, class_count)
    noise_mask: np.ndarray      # (n,) bool
    class_count: int
    instance_ids: np.ndarray    # (n,) int64, unique
    feature_names: list[str] = field(default_factory=list)
    label_names: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def __len__(self) -> int:
        return self.features.shape[0]

    def validate(self) -> None:
        n = len(self)
        if self.clean_labels.shape != (n,) or self.noisy_labels.shape != (n,):
            raise DataIngestError("label arrays must match the feature row count")
        if self.noise_mask.shape != (n,):
            raise DataIngestError("noise_mask must match the feature row count")
        if self.instance_ids.shape != (n,):
            raise DataIngestError("instance_ids must match the feature row count")
        if len(np.unique(self.instance_ids)) != n:
            raise DataIngestError("instance_ids must be unique")
        for arr in (self.clean_labels, self.noisy_labels):
            if n and (arr.min() < 0 or arr.max() >= self.class_count):
                raise DataIngestError("labels must lie in [0, class_count)")
        if not np.array_equal(self.noise_mask, self.clean_labels != self.noisy_labels):
            raise DataIngestError("noise_mask inconsistent with label arrays")
        if not np.isfinite(self.features).all():
            raise DataIngestError("features contain missing or non-finite entries")

    def take(self, rows: np.ndarray) -> "Dataset":
        """Row subset preserving ids and label bookkeeping."""
        return Dataset(
            features=self.features[rows],
            clean_labels=self.clean_labels[rows],
            noisy_labels=self.noisy_labels[rows],
            noise_mask=self.noise_mask[rows],
            class_count=self.class_count,
            instance_ids=self.instance_ids[rows],
            feature_names=self.feature_names,
            label_names=self.label_names,
            notes=list(self.notes),
        )

    def with_noise(self, noisy_labels: np.ndarray) -> "Dataset":
        """Copy with new noisy labels; the mask is recomputed."""
        noisy = np.asarray(noisy_labels, dtype=np.int64)
        if noisy.shape != self.clean_labels.shape:
            raise DataIngestError("noisy label array has the wrong shape")
        if len(noisy) and (noisy.min() < 0 or noisy.max() >= self.class_count):
            raise DataIngestError("noisy labels out of range")
        out = Dataset(
            features=self.features,
            clean_labels=self.clean_labels,
            noisy_labels=noisy,
            noise_mask=self.clean_labels != noisy,
            class_count=self.class_count,
            instance_ids=self.instance_ids,
            feature_names=self.feature_names,
            label_names=self.label_names,
            notes=list(self.notes),
        )
        return out


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
    numeric when every non-missing cell parses as a real number, categorical
    otherwise.
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
    body = rows[1:]
    if not body:
        raise DataIngestError(f"{path}: no rows")
    width = len(header)
    for i, row in enumerate(body):
        if len(row) != width:
            raise DataIngestError(
                f"{path}: ragged row {i + 2} has {len(row)} cells, expected {width}")

    columns = []
    for j, name in enumerate(header):
        raw = [body[i][j].strip() for i in range(len(body))]
        missing = [v in DEFAULT_MISSING_MARKERS for v in raw]
        kind = "numeric"
        for v, m in zip(raw, missing):
            if m:
                continue
            try:
                float(v)
            except ValueError:
                kind = "categorical"
                break
        if all(missing):
            kind = "categorical"
        if kind == "numeric":
            vals = np.full(len(raw), np.nan)
            for i, (v, m) in enumerate(zip(raw, missing)):
                if not m:
                    vals[i] = float(v)
        else:
            vals = np.array([None if m else v for v, m in zip(raw, missing)],
                            dtype=object)
        columns.append(Column(name=name, kind=kind, values=vals))
    return RawTable(columns=columns, n_rows=len(body))


def _label_tokens(column: Column) -> list[str]:
    """Textual class tokens of a label column; numeric labels must be integral."""
    if column.kind == "categorical":
        if any(v is None for v in column.values):
            raise DataIngestError(f"label column {column.name!r} has missing values")
        return [str(v) for v in column.values]
    vals = column.values
    if np.isnan(vals).any():
        raise DataIngestError(f"label column {column.name!r} has missing values")
    if not np.allclose(vals, np.round(vals)):
        raise DataIngestError(
            f"label column {column.name!r} must be categorical or integer-coded")
    return [str(int(round(v))) for v in vals]


def _encode_labels(tokens: list[str]) -> tuple[np.ndarray, list[str]]:
    classes = sorted(set(tokens))
    if len(classes) < 2:
        raise DataIngestError("label column has a single class")
    index = {c: i for i, c in enumerate(classes)}
    return np.array([index[t] for t in tokens], dtype=np.int64), classes


def preprocess(table: RawTable, label_column: str, *,
               fit_rows: np.ndarray | None = None) -> Dataset:
    """Turn a RawTable into a dense Dataset.

    Numeric columns: impute the median, then standardize to mean 0 and
    population std 1. Categorical columns: impute the mode (ties broken
    lexicographically), then one-hot encode with the full indicator set.
    Labels are mapped to 0..c-1 in lexicographic order of their original
    values. All statistics are computed on ``fit_rows`` when given (the
    training portion) and applied everywhere else.
    """
    label_col = table.column(label_column)
    labels, label_names = _encode_labels(_label_tokens(label_col))
    n = table.n_rows

    if fit_rows is None:
        fit_mask = np.ones(n, dtype=bool)
    else:
        fit_rows = np.asarray(fit_rows)
        fit_mask = fit_rows if fit_rows.dtype == bool else np.isin(np.arange(n), fit_rows)
        if not fit_mask.any():
            raise DataIngestError("fit_rows selects no rows")

    blocks: list[np.ndarray] = []
    names: list[str] = []
    notes: list[str] = []
    for col in table.columns:
        if col.name == label_column:
            continue
        if col.kind == "numeric":
            vals = col.values.astype(np.float64).copy()
            fit_vals = vals[fit_mask]
            finite = fit_vals[~np.isnan(fit_vals)]
            if finite.size == 0:
                median = 0.0
                notes.append(f"column {col.name!r}: no observed values to fit, filled 0")
            else:
                median = float(np.median(finite))
            vals[np.isnan(vals)] = median
            mean = float(vals[fit_mask].mean())
            std = float(vals[fit_mask].std())  # population std
            if std == 0.0:
                msg = f"column {col.name!r} is constant on the fit rows; standardized to zeros"
                warnings.warn(msg)
                notes.append(msg)
                vals = np.zeros_like(vals)
            else:
                vals = (vals - mean) / std
            blocks.append(vals[:, None])
            names.append(col.name)
        else:
            observed = [v for v in col.values[fit_mask] if v is not None]
            if not observed:
                raise DataIngestError(f"categorical column {col.name!r} has no observed values")
            counts: dict[str, int] = {}
            for v in observed:
                counts[v] = counts.get(v, 0) + 1
            top = max(counts.values())
            mode = sorted(v for v, c in counts.items() if c == top)[0]
            filled = np.array([mode if v is None else v for v in col.values], dtype=object)
            categories = sorted({str(v) for v in col.values if v is not None} | {mode})
            onehot = np.zeros((n, len(categories)))
            cat_index = {c: k for k, c in enumerate(categories)}
            for i, v in enumerate(filled):
                onehot[i, cat_index[str(v)]] = 1.0
            blocks.append(onehot)
            names.extend(f"{col.name}={c}" for c in categories)
    if not blocks:
        raise DataIngestError("table has no feature columns")
    features = np.concatenate(blocks, axis=1)

    ds = Dataset(
        features=features,
        clean_labels=labels,
        noisy_labels=labels.copy(),
        noise_mask=np.zeros(n, dtype=bool),
        class_count=len(label_names),
        instance_ids=np.arange(n, dtype=np.int64),
        feature_names=names,
        label_names=label_names,
        notes=notes,
    )
    ds.validate()
    return ds


def _stratified_test_mask(labels: np.ndarray, class_count: int,
                          spec: SplitSpec) -> np.ndarray:
    """Boolean mask of test rows; deterministic for a given seed."""
    rng = np.random.default_rng(spec.seed)
    mask = np.zeros(len(labels), dtype=bool)
    for cls in range(class_count):
        idx = np.flatnonzero(labels == cls)
        if len(idx) < 2:
            raise DataIngestError(
                f"class {cls} has {len(idx)} instance(s); stratified split needs at least 2")
        n_test = int(round(spec.test_fraction * len(idx)))
        n_test = min(max(n_test, 0), len(idx) - 1)
        chosen = rng.permutation(idx)[:n_test]
        mask[chosen] = True
    return mask


def prepare(table: RawTable, label_column: str,
            spec: SplitSpec) -> tuple[Dataset, Dataset]:
    """Disjoint, exhaustive train/test partition stratified by label, with
    split-aware preprocessing: the split is decided first, statistics are fit
    on the training rows only, then both partitions are materialized."""
    labels, _ = _encode_labels(_label_tokens(table.column(label_column)))
    test_mask = _stratified_test_mask(labels, int(labels.max()) + 1, spec)
    dataset = preprocess(table, label_column, fit_rows=~test_mask)
    return dataset.take(~test_mask), dataset.take(test_mask)


def subsample_table(table: RawTable, label_column: str, n: int,
                    seed: int) -> RawTable:
    """Stratified row subsample of a raw table, by label token."""
    if n >= table.n_rows:
        return table
    tokens = _label_tokens(table.column(label_column))
    classes = sorted(set(tokens))
    token_arr = np.array(tokens)
    rng = np.random.default_rng(seed)
    keep: list[np.ndarray] = []
    for cls in classes:
        idx = np.flatnonzero(token_arr == cls)
        k = max(1, int(round(n * len(idx) / table.n_rows)))
        keep.append(rng.permutation(idx)[:k])
    rows = np.sort(np.concatenate(keep))
    columns = [Column(name=c.name, kind=c.kind, values=c.values[rows])
               for c in table.columns]
    return RawTable(columns=columns, n_rows=len(rows))
