"""Correction of flagged instances during training: removal or relabeling.

Removal zeroes the instance weight (the instance keeps its id and dynamics
rows) under a cumulative budget measured against the original training size.
Relabeling reassigns a flagged instance to the class with the highest
window-averaged probability, at most once per instance. Both act on detector
flags alone: nothing here knows which labels are truly noisy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import detect

MODES = ("none", "remove", "relabel")

DEFAULT_REMOVAL_BUDGET = 0.8


@dataclass
class CorrectionState:
    """Mutable bookkeeping for one training run.

    ``labels`` and ``weights`` are the trainer-owned arrays; corrections
    mutate them in place so the current round's tree fit sees the change.
    """

    mode: str
    labels: np.ndarray
    weights: np.ndarray
    removal_budget: float = DEFAULT_REMOVAL_BUDGET
    removed: np.ndarray = field(default=None)
    relabeled: np.ndarray = field(default=None)
    events: list = field(default_factory=list)
    budget_hit_rounds: list = field(default_factory=list)

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown correction mode {self.mode!r}")
        if not (0.0 <= self.removal_budget <= 1.0):
            raise ValueError("removal budget must lie in [0, 1]")
        n = len(self.labels)
        if self.removed is None:
            self.removed = np.zeros(n, dtype=bool)
        if self.relabeled is None:
            self.relabeled = np.zeros(n, dtype=bool)
        self.max_removals = int(np.floor(self.removal_budget * n))

    @property
    def removed_count(self) -> int:
        return int(self.removed.sum())

    @property
    def relabeled_count(self) -> int:
        return int(self.relabeled.sum())

    def summary(self) -> dict:
        return {
            "mode": self.mode,
            "removal_budget": self.removal_budget,
            "removed_total": self.removed_count,
            "relabeled_total": self.relabeled_count,
            "budget_hit_rounds": list(self.budget_hit_rounds),
        }


def apply_removal(state: CorrectionState, flagged_ids: np.ndarray,
                  noisiness: np.ndarray,
                  round_index: int = -1) -> CorrectionState:
    """Zero the weights of flagged instances, respecting the cumulative budget.

    ``flagged_ids`` are positions into the training arrays. Instances already
    removed are skipped. When the batch would overrun the budget, the
    most-suspicious instances (by ``noisiness``, larger first; ties by id) are
    admitted up to the budget and a budget-hit event is recorded.
    """
    if state.mode != "remove":
        raise ValueError("state is not in removal mode")
    flagged_ids = np.asarray(flagged_ids, dtype=np.int64)
    candidates = flagged_ids[~state.removed[flagged_ids]]
    candidates = np.unique(candidates)
    budget_left = state.max_removals - state.removed_count
    if len(candidates) > budget_left:
        keys = np.asarray(noisiness, dtype=np.float64)[candidates]
        order = np.lexsort((candidates, -keys))
        candidates = candidates[order[:max(budget_left, 0)]]
        state.budget_hit_rounds.append(round_index)
        state.events.append({"round": round_index, "instance_id": -1,
                             "action": "budget_hit", "old_label": "",
                             "new_label": ""})
    if len(candidates):
        state.weights[candidates] = 0.0
        state.removed[candidates] = True
        for i in candidates:
            state.events.append({"round": round_index,
                                 "instance_id": int(i),
                                 "action": "remove",
                                 "old_label": int(state.labels[i]),
                                 "new_label": ""})
    return state


def apply_relabel(state: CorrectionState, flagged_ids: np.ndarray,
                  window_probs: np.ndarray,
                  round_index: int = -1) -> CorrectionState:
    """Reassign flagged instances to the class with the highest probability
    averaged over the window. Each instance is reassigned at most once;
    already-relabeled instances are skipped (but a flagged instance whose new
    label equals the old one is still marked as relabeled)."""
    if state.mode != "relabel":
        raise ValueError("state is not in relabel mode")
    window_probs = np.asarray(window_probs, dtype=np.float64)
    if window_probs.ndim != 3 or window_probs.shape[0] == 0:
        raise ValueError("expected a non-empty (rounds, instances, classes) window")
    flagged_ids = np.asarray(flagged_ids, dtype=np.int64)
    candidates = np.unique(flagged_ids[~state.relabeled[flagged_ids]])
    if len(candidates) == 0:
        return state
    mean_probs = window_probs[:, candidates, :].mean(axis=0)
    new_labels = mean_probs.argmax(axis=1).astype(np.int64)
    for i, new in zip(candidates, new_labels):
        state.events.append({"round": round_index,
                             "instance_id": int(i),
                             "action": "relabel",
                             "old_label": int(state.labels[i]),
                             "new_label": int(new)})
    state.labels[candidates] = new_labels
    state.relabeled[candidates] = True
    return state


class NoiseHandler:
    """Per-round training callback combining detection and correction.

    One detector drives the correction; any further detectors listed are
    scored for reporting only, each flagging by its own rule (``detect``).
    Every round's flags are kept in ``flag_rounds`` and every correction in
    ``events``, naming rows by their position in the training arrays; the
    handler never sees which labels are truly noisy, so scoring both against
    the injected noise is left to the caller (``detect.detection_report``),
    which also maps the positions to Dataset ids. With mode "none" the
    callback never touches labels or weights, so training output matches an
    uncorrected run.
    """

    def __init__(self, detectors=detect.ALL_METHODS, mode: str = "none",
                 removal_budget: float = DEFAULT_REMOVAL_BUDGET):
        if mode not in MODES:
            raise ValueError(f"unknown correction mode {mode!r}")
        self.detectors = tuple(detectors)
        if mode != "none" and not self.detectors:
            raise ValueError("correction needs at least one detector")
        self.mode = mode
        self.removal_budget = removal_budget
        self.state: CorrectionState | None = None
        self.flag_rounds: list[tuple[int, dict]] = []

    @property
    def events(self) -> list:
        return [] if self.state is None else self.state.events

    def __call__(self, round_index, dynamics, labels, weights) -> bool:
        """Flag and correct one round; returns whether any label changed."""
        if self.state is None:
            self.state = CorrectionState(mode=self.mode, labels=labels,
                                         weights=weights,
                                         removal_budget=self.removal_budget)
        scored = detect.score_all(dynamics, labels, self.detectors)
        self.flag_rounds.append(
            (round_index, {m: s.flagged for m, s in scored.items()}))
        if self.mode == "none":
            return False
        primary = scored[self.detectors[0]]
        flagged_rows = np.flatnonzero(primary.flagged)
        if self.mode == "remove":
            apply_removal(self.state, flagged_rows, primary.noisiness(),
                          round_index=round_index)
            return False
        old_labels = labels[flagged_rows].copy()
        apply_relabel(self.state, flagged_rows, dynamics.window_probs(),
                      round_index=round_index)
        return bool((labels[flagged_rows] != old_labels).any())

    def summary(self) -> dict:
        if self.state is None:
            return {"mode": self.mode, "removal_budget": self.removal_budget,
                    "removed_total": 0, "relabeled_total": 0,
                    "budget_hit_rounds": []}
        return self.state.summary()
