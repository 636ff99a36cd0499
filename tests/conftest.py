import dataclasses

import numpy as np
import pytest

from noisygbdt.data_ingest import Dataset
from noisygbdt.gbdt import Tree


def make_dataset(features, clean_labels, noisy_labels=None,
                 class_count=None) -> Dataset:
    clean = np.asarray(clean_labels, dtype=np.int64)
    noisy = clean.copy() if noisy_labels is None else np.asarray(
        noisy_labels, dtype=np.int64)
    c = int(clean.max()) + 1 if class_count is None else class_count
    ds = Dataset(features=np.asarray(features, dtype=np.float64),
                 clean_labels=clean, noisy_labels=noisy, class_count=c,
                 instance_ids=np.arange(len(clean), dtype=np.int64))
    ds.validate()
    return ds


def as_lists(trees):
    """A Tree, or nested lists of them, with each Tree as a dict of its
    arrays' values, so that ``==`` compares trees field for field."""
    if isinstance(trees, Tree):
        return {f.name: getattr(trees, f.name).tolist()
                for f in dataclasses.fields(Tree)}
    return [as_lists(tree) for tree in trees]


def blob_dataset(n=300, classes=3, n_features=4, seed=0, separation=6.0):
    """Well-separated Gaussian blobs; learnable by a few boosting rounds."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, classes, size=n)
    centers = rng.normal(0.0, 1.0, size=(classes, n_features)) * separation
    features = centers[labels] + rng.normal(0.0, 1.0, size=(n, n_features))
    return make_dataset(features, labels, class_count=classes)


def threshold_dataset(n=200, seed=0):
    """Binary labels decided by the sign of the first feature; a single split
    fits it perfectly, so every same-class instance shares one leaf."""
    rng = np.random.default_rng(seed)
    x0 = np.concatenate([rng.uniform(-2.0, -0.5, n // 2),
                         rng.uniform(0.5, 2.0, n - n // 2)])
    features = np.column_stack([x0, rng.normal(0, 1, n)])
    labels = (x0 > 0).astype(np.int64)
    return make_dataset(features, labels, class_count=2)


@pytest.fixture
def blobs():
    return blob_dataset()


@pytest.fixture
def separable():
    return threshold_dataset()
