"""Per-instance training dynamics: a rolling window of recent rounds plus
incremental accumulators maintained across the whole run.

The window (default 5 rounds) feeds the margin- and gradient-based detectors
and the relabeling window; the incremental sums feed the confidence and
correctness statistics without storing full history.
"""

from __future__ import annotations

import copy
from collections import deque
from dataclasses import dataclass

import numpy as np

DEFAULT_WINDOW = 5


@dataclass
class EpochRecord:
    """Snapshot of one boosting round for every training instance."""

    round: int
    logits: np.ndarray            # (n, c)
    probs: np.ndarray             # (n, c)
    predicted: np.ndarray         # (n,) argmax class, ties -> lowest id
    max_abs_gradient: np.ndarray  # (n,) max over classes of |gradient|


class DynamicsLog:
    """Rolling window of EpochRecords plus running sums for the incremental
    statistics. Records must arrive in consecutive round order; accumulators
    use each instance's label as of recording time, so a mid-run relabel takes
    effect from the next recorded round onward."""

    def __init__(self, n_instances: int, class_count: int,
                 window: int = DEFAULT_WINDOW):
        if window < 1:
            raise ValueError("window must be at least 1")
        self.n_instances = n_instances
        self.class_count = class_count
        self.window_size = window
        self.window: deque[EpochRecord] = deque(maxlen=window)
        self.rounds_recorded = 0
        self.sum_label_prob = np.zeros(n_instances)
        self.sum_correct = np.zeros(n_instances)

    def record(self, record: EpochRecord, labels: np.ndarray) -> None:
        if record.round != self.rounds_recorded:
            raise ValueError(f"out-of-order round {record.round}, "
                             f"expected {self.rounds_recorded}")
        if record.probs.shape != (self.n_instances, self.class_count):
            raise ValueError("record shape does not match the log")
        p_label = record.probs[np.arange(self.n_instances), labels]
        self.sum_label_prob += p_label
        self.sum_correct += (record.predicted == labels)
        self.window.append(record)
        self.rounds_recorded += 1

    def copy(self) -> "DynamicsLog":
        """An independent log that shares the recorded EpochRecords, which
        are never mutated after recording."""
        other = copy.copy(self)
        other.window = deque(self.window, maxlen=self.window_size)
        other.sum_label_prob = self.sum_label_prob.copy()
        other.sum_correct = self.sum_correct.copy()
        return other

    # -- read-only views consumed by the detectors ---------------------------

    def latest(self) -> EpochRecord:
        if not self.window:
            raise ValueError("no rounds recorded")
        return self.window[-1]

    def window_logits(self) -> np.ndarray:
        """(w, n, c) logits of the retained rounds, oldest first."""
        return np.stack([r.logits for r in self.window])

    def window_probs(self) -> np.ndarray:
        return np.stack([r.probs for r in self.window])

    def window_max_abs_gradients(self) -> np.ndarray:
        """(w, n) per-round max-abs gradients of the retained rounds."""
        return np.stack([r.max_abs_gradient for r in self.window])

    def confidence(self) -> np.ndarray:
        """Mean probability assigned to the instance's label across all rounds."""
        self._require_rounds()
        return self.sum_label_prob / self.rounds_recorded

    def correctness(self) -> np.ndarray:
        """Fraction of rounds where the prediction equaled the instance's label."""
        self._require_rounds()
        return self.sum_correct / self.rounds_recorded

    def _require_rounds(self) -> None:
        if self.rounds_recorded == 0:
            raise ValueError("no rounds recorded")
