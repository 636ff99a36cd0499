"""Label-noise transition matrices and seeded noise injection.

Two corruption processes are supported: symmetric noise spreads a total flip
probability uniformly over the wrong classes, and pair noise sends each
class's flip mass to its cyclic successor. Both are expressed as row-stochastic
transition matrices applied independently per training instance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ROW_SUM_TOL = 1e-12

NOISE_KINDS = ("symmetric", "pair")


class NoiseError(ValueError):
    pass


@dataclass(frozen=True)
class TransitionMatrix:
    """Row-stochastic c x c matrix; entry (i, j) is p(observed=j | true=i)."""

    entries: np.ndarray
    class_count: int

    def __post_init__(self):
        s = self.entries
        if s.shape != (self.class_count, self.class_count):
            raise NoiseError("transition matrix must be square of size class_count")
        if (s < 0).any() or (s > 1).any():
            raise NoiseError("transition probabilities must lie in [0, 1]")
        if np.abs(s.sum(axis=1) - 1.0).max() > ROW_SUM_TOL:
            raise NoiseError("transition matrix rows must sum to 1")


def symmetric_matrix(class_count: int, rate: float) -> TransitionMatrix:
    """Keep probability 1-rate on the diagonal, rate/(c-1) on every off-diagonal."""
    if class_count < 2:
        raise NoiseError("need at least 2 classes")
    if not (0.0 <= rate <= 1.0):
        raise NoiseError(f"noise rate {rate} outside [0, 1]")
    c = class_count
    s = np.full((c, c), rate / (c - 1))
    np.fill_diagonal(s, 1.0 - rate)
    return TransitionMatrix(entries=s, class_count=c)


def pair_matrix(class_count: int, rate: float) -> TransitionMatrix:
    """Keep probability 1-rate; all flip mass goes to the cyclic successor class."""
    if class_count < 2:
        raise NoiseError("need at least 2 classes")
    if not (0.0 <= rate <= 1.0):
        raise NoiseError(f"noise rate {rate} outside [0, 1]")
    c = class_count
    s = np.zeros((c, c))
    np.fill_diagonal(s, 1.0 - rate)
    for i in range(c):
        s[i, (i + 1) % c] += rate
    return TransitionMatrix(entries=s, class_count=c)


def matrix_for(kind: str, rate: float, class_count: int) -> TransitionMatrix:
    """The transition matrix of a noise kind (one of ``NOISE_KINDS``)."""
    if kind == "symmetric":
        return symmetric_matrix(class_count, rate)
    if kind == "pair":
        return pair_matrix(class_count, rate)
    raise NoiseError(f"unknown noise kind {kind!r}")


def inject(labels: np.ndarray, matrix: TransitionMatrix,
           seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Resample each label from its transition-matrix row with one seeded draw.

    Returns (noisy_labels, mask) where mask marks instances whose label changed.
    Deterministic for a fixed (labels, matrix, seed).
    """
    labels = np.asarray(labels, dtype=np.int64)
    c = matrix.class_count
    if len(labels) and (labels.min() < 0 or labels.max() >= c):
        raise NoiseError("label out of range for the transition matrix")
    rng = np.random.default_rng(seed)
    u = rng.random(len(labels))
    cumulative = np.cumsum(matrix.entries, axis=1)
    # index of the first cumulative cell exceeding u; clip guards the case where
    # floating row sums land a hair below 1
    noisy = (u[:, None] >= cumulative[labels]).sum(axis=1)
    noisy = np.minimum(noisy, c - 1).astype(np.int64)
    return noisy, noisy != labels

