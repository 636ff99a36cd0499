"""Correction of flagged instances during training: removal or relabeling.

A ``NoiseHandler`` edits the labels and weights it is handed in place and
keeps no reference to them. Removal zeroes the instance weight (the instance
keeps its id and dynamics rows) under a cumulative budget measured against
the original training size. Relabeling reassigns a flagged instance to the
class with the highest window-averaged probability, at most once per
instance. Both act on detector flags alone: nothing here knows which labels
are truly noisy (``metrics_report.detection_report`` scores against that).
"""

from __future__ import annotations

import numpy as np

from . import detect

MODES = ("none", "remove", "relabel")

DEFAULT_REMOVAL_BUDGET = 0.8


def apply_removal(handler: NoiseHandler, labels: np.ndarray,
                  weights: np.ndarray, flagged_ids: np.ndarray,
                  noisiness: np.ndarray, round_index: int = -1) -> None:
    """Zero the weights of flagged instances, respecting the cumulative budget.

    ``flagged_ids`` are positions into the training arrays. Instances already
    removed are skipped. When the batch would overrun the budget, the
    most-suspicious instances (by ``noisiness``, larger first; ties by id) are
    admitted up to the budget and a budget-hit event is recorded.
    """
    if handler.mode != "remove":
        raise ValueError("handler is not in removal mode")
    if handler.removed is None:
        handler.removed = np.zeros(len(weights), dtype=bool)
    flagged_ids = np.asarray(flagged_ids, dtype=np.int64)
    candidates = np.unique(flagged_ids[~handler.removed[flagged_ids]])
    budget_left = (int(np.floor(handler.removal_budget * len(weights)))
                   - int(handler.removed.sum()))
    if len(candidates) > budget_left:
        keys = np.asarray(noisiness, dtype=np.float64)[candidates]
        order = np.lexsort((candidates, -keys))
        candidates = candidates[order[:max(budget_left, 0)]]
        handler.events.append({"round": round_index, "instance_id": -1,
                               "action": "budget_hit", "old_label": "",
                               "new_label": ""})
    if len(candidates):
        weights[candidates] = 0.0
        handler.removed[candidates] = True
        for i in candidates:
            handler.events.append({"round": round_index,
                                   "instance_id": int(i),
                                   "action": "remove",
                                   "old_label": int(labels[i]),
                                   "new_label": ""})


def apply_relabel(handler: NoiseHandler, labels: np.ndarray,
                  flagged_ids: np.ndarray, window_probs: np.ndarray,
                  round_index: int = -1) -> None:
    """Reassign flagged instances to the class with the highest probability
    averaged over the window. Each instance is reassigned at most once;
    already-relabeled instances are skipped (but a flagged instance whose new
    label equals the old one is still marked as relabeled)."""
    if handler.mode != "relabel":
        raise ValueError("handler is not in relabel mode")
    window_probs = np.asarray(window_probs, dtype=np.float64)
    if window_probs.ndim != 3 or window_probs.shape[0] == 0:
        raise ValueError("expected a non-empty (rounds, instances, classes) window")
    if handler.relabeled is None:
        handler.relabeled = np.zeros(len(labels), dtype=bool)
    flagged_ids = np.asarray(flagged_ids, dtype=np.int64)
    candidates = np.unique(flagged_ids[~handler.relabeled[flagged_ids]])
    if len(candidates) == 0:
        return
    mean_probs = window_probs[:, candidates, :].mean(axis=0)
    new_labels = mean_probs.argmax(axis=1).astype(np.int64)
    for i, new in zip(candidates, new_labels):
        handler.events.append({"round": round_index,
                               "instance_id": int(i),
                               "action": "relabel",
                               "old_label": int(labels[i]),
                               "new_label": int(new)})
    labels[candidates] = new_labels
    handler.relabeled[candidates] = True


class NoiseHandler:
    """Per-round training callback combining detection and correction.

    One detector drives the correction; any further detectors listed are
    scored for reporting only, each flagging by its own rule (``detect``).
    Every round's flags are kept in ``flag_rounds`` and every correction in
    ``events``, naming rows by their position in the training arrays; the
    handler never sees which labels are truly noisy, so
    ``metrics_report.detection_report`` scores both against the injected
    noise and maps the positions to Dataset ids. ``removed`` and
    ``relabeled`` mark the rows it has corrected. With mode "none" the
    callback never touches labels or weights, so training output matches an
    uncorrected run.
    """

    def __init__(self, detectors=detect.ALL_METHODS, mode: str = "none",
                 removal_budget: float = DEFAULT_REMOVAL_BUDGET):
        if mode not in MODES:
            raise ValueError(f"unknown correction mode {mode!r}")
        if not (0.0 <= removal_budget <= 1.0):
            raise ValueError("removal budget must lie in [0, 1]")
        self.detectors = tuple(detectors)
        if mode != "none" and not self.detectors:
            raise ValueError("correction needs at least one detector")
        self.mode = mode
        self.removal_budget = removal_budget
        self.removed: np.ndarray | None = None
        self.relabeled: np.ndarray | None = None
        self.events: list[dict] = []
        self.flag_rounds: list[tuple[int, dict]] = []

    def __call__(self, round_index, dynamics, labels, weights) -> None:
        """Flag one round and correct ``labels`` or ``weights`` in place."""
        scored = detect.score_all(dynamics, labels, self.detectors)
        self.flag_rounds.append(
            (round_index, {m: s.flagged for m, s in scored.items()}))
        if self.mode == "none":
            return
        primary = scored[self.detectors[0]]
        flagged_rows = np.flatnonzero(primary.flagged)
        if self.mode == "remove":
            apply_removal(self, labels, weights, flagged_rows,
                          primary.noisiness(), round_index=round_index)
        else:
            apply_relabel(self, labels, flagged_rows,
                          dynamics.window_probs(), round_index=round_index)

    def summary(self) -> dict:
        actions = [ev["action"] for ev in self.events]
        return {"mode": self.mode, "removal_budget": self.removal_budget,
                "removed_total": actions.count("remove"),
                "relabeled_total": actions.count("relabel"),
                "budget_hit_rounds": [ev["round"] for ev in self.events
                                      if ev["action"] == "budget_hit"]}
