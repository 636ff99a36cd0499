"""Classification metrics, detection scoring, prediction-type bookkeeping,
and run-report output.

Every comparison with the ground truth is made here, on one precision/recall
core: test predictions against the clean labels, and detector flags and
correction events against the injected noise (``detection_report``).

A RunReport collects everything a single training run produces: per-round
series, detector metrics, the final test metrics at the early-stopped round,
and the correction event trail. Reports serialize to a JSON document plus CSV
companions (per-round series and table rows).
"""

from __future__ import annotations

import csv
import datetime as _dt
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np


def _binary_prf(predictions: np.ndarray, labels: np.ndarray,
                positive: int) -> tuple[float, float, float]:
    """Precision, recall and F1 of one class id, or of True for flags."""
    tp = int(((predictions == positive) & (labels == positive)).sum())
    fp = int(((predictions == positive) & (labels != positive)).sum())
    fn = int(((predictions != positive) & (labels == positive)).sum())
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = (2 * precision * recall / (precision + recall)
          if precision + recall else 0.0)
    return precision, recall, f1


def classification_metrics(predictions: np.ndarray, labels: np.ndarray,
                           class_count: int) -> dict:
    """Accuracy plus precision/recall/F1.

    Binary tasks report the positive class (class id 1); multiclass tasks
    report macro averages over all classes.
    """
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if predictions.shape != labels.shape:
        raise ValueError("predictions and labels must have equal length")
    accuracy = float((predictions == labels).mean()) if len(labels) else 0.0
    if class_count == 2:
        precision, recall, f1 = _binary_prf(predictions, labels, positive=1)
    else:
        per = [_binary_prf(predictions, labels, positive=k)
               for k in range(class_count)]
        precision = float(np.mean([p for p, _, _ in per]))
        recall = float(np.mean([r for _, r, _ in per]))
        f1 = float(np.mean([f for _, _, f in per]))
    return {"accuracy": accuracy, "precision": precision, "recall": recall,
            "f1": f1}


def detection_metrics(flags: np.ndarray, noise_mask: np.ndarray) -> dict:
    """Accuracy of the noisy/clean flags against the ground-truth mask;
    precision and recall treat "noisy" as the positive class."""
    flags = np.asarray(flags, dtype=bool)
    mask = np.asarray(noise_mask, dtype=bool)
    if flags.shape != mask.shape:
        raise ValueError("flags and mask must have equal length")
    precision, recall, _ = _binary_prf(flags, mask, positive=True)
    return {"accuracy": float((flags == mask).mean()),
            "precision": precision, "recall": recall,
            "flagged_fraction": float(flags.mean()),
            "flagged_count": int(flags.sum()),
            "flagged_noisy_count": int((flags & mask).sum())}


def detection_report(flag_rounds: list, events: list, noise_mask: np.ndarray,
                     instance_ids: np.ndarray,
                     best_round: int) -> tuple[dict, dict, dict, list]:
    """Score a run's detector flags and correction events against the
    ground-truth noise mask of the fit set.

    ``flag_rounds`` holds one (round, {method: flags}) pair per detection
    round, in ascending round order (``NoiseHandler.flag_rounds``). Returns
    the per-round series of every method, the evaluation at the first
    detection round and at the early-stopped round, each method's peak
    flagged fraction with its (first) round, which shows a detector that
    floods, and the events with ``was_actually_noisy`` added to each removal
    and relabel. Events name rows by their position in the fit set; the
    returned ones name them by ``instance_ids``, the fit set's Dataset ids.
    Early stopping before the first detection round is
    evaluated at that round; at a round without detection, the next
    detection round is used, or the last one when none follows.
    """
    series: dict[str, dict] = {}
    for round_index, flags in flag_rounds:
        for method, fl in flags.items():
            entry = series.setdefault(method, {"round": []})
            entry["round"].append(round_index)
            for key, value in detection_metrics(fl, noise_mask).items():
                entry.setdefault(key, []).append(value)
    evaluation = {}
    if series:
        first = flag_rounds[0][0]
        for point, round_index in (("first_after_warmup", first),
                                   ("early_stop", max(best_round, first))):
            methods = {}
            for method, entry in series.items():
                rounds = entry["round"]
                i = next((i for i, r in enumerate(rounds) if r >= round_index),
                         len(rounds) - 1)
                methods[method] = {key: entry[key][i]
                                   for key in ("accuracy", "precision",
                                               "recall", "flagged_fraction")}
                methods[method]["round"] = rounds[i]
            evaluation[point] = {"round": round_index, "methods": methods}
    peaks = {}
    for method, entry in series.items():
        fractions = entry["flagged_fraction"]
        i = int(np.argmax(fractions))
        peaks[method] = {"flagged_fraction": fractions[i],
                         "round": entry["round"][i]}
    events = [ev | {"instance_id": int(instance_ids[ev["instance_id"]]),
                    "was_actually_noisy": bool(noise_mask[ev["instance_id"]])}
              if ev["action"] in ("remove", "relabel") else ev
              for ev in events]
    return series, evaluation, peaks, events


def prediction_type_counts(predicted: list, clean_labels: np.ndarray,
                           noisy_labels: np.ndarray) -> dict[str, list[int]]:
    """Per round of ``predicted`` argmaxes, count instances whose clean and
    noisy labels differ by whether their prediction matches the clean label,
    the noisy one, or neither; with no such instance every list is empty."""
    clean, noisy = np.asarray(clean_labels), np.asarray(noisy_labels)
    mask = clean != noisy
    if not mask.any() or not predicted:
        return {"true_match": [], "noisy_match": [], "other": []}
    p = np.stack([round_predicted[mask] for round_predicted in predicted])
    true_match = (p == clean[mask]).sum(axis=1)
    noisy_match = (p == noisy[mask]).sum(axis=1)
    other = int(mask.sum()) - true_match - noisy_match
    return {"true_match": true_match.tolist(),
            "noisy_match": noisy_match.tolist(), "other": other.tolist()}


@dataclass
class RunReport:
    """Everything one training run reports."""

    dataset: str = ""
    noise_kind: str = "none"
    noise_rate: float = 0.0
    detection: str = "none"
    correction: str = "none"
    seed: int | None = None  # the trial seed, when set
    config: dict = field(default_factory=dict)
    rounds_trained: int = 0
    best_round: int = 0
    stopped_early: bool = False
    empirical_noise_rate: float = 0.0
    series: dict = field(default_factory=dict)
    prediction_types: dict = field(default_factory=dict)
    detector_series: dict = field(default_factory=dict)
    detector_peaks: dict = field(default_factory=dict)
    evaluation: dict = field(default_factory=dict)
    final: dict = field(default_factory=dict)
    correction_summary: dict = field(default_factory=dict)
    correction_events: list = field(default_factory=list)
    note: str = ""
    created_at: str = ""

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "RunReport":
        return cls(**payload)


SERIES_COLUMNS = ("train_logloss", "monitor_logloss", "test_logloss",
                  "train_accuracy", "test_accuracy")

TABLE_COLUMNS = ("dataset", "noise_kind", "rate", "detection", "correction",
                 "metric", "value", "evaluated_at", "note", "is_best")


def _pct(value: float) -> float:
    return round(100.0 * value, 2)


def tables_rows(report: RunReport) -> list[dict]:
    """Flatten a report into table rows (values as percentages, two decimals)."""
    base = {
        "dataset": report.dataset,
        "noise_kind": report.noise_kind,
        "rate": report.noise_rate,
        "detection": report.detection,
        "correction": report.correction,
        "note": report.note,
        "is_best": "",
    }
    rows = []
    for metric in ("accuracy", "precision", "recall", "f1"):
        if metric in report.final:
            rows.append({**base, "metric": metric,
                         "value": _pct(report.final[metric]),
                         "evaluated_at": "early_stop"})
    for point, payload in report.evaluation.items():
        for method, metrics in payload.get("methods", {}).items():
            rows.append({**base, "detection": method,
                         "metric": "detection_accuracy",
                         "value": _pct(metrics["accuracy"]),
                         "evaluated_at": point})
            rows.append({**base, "detection": method,
                         "metric": "estimated_noise_rate",
                         "value": _pct(metrics["flagged_fraction"]),
                         "evaluated_at": point})
    return rows


def write_tables_csv(rows: list[dict], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=TABLE_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: row.get(k, "") for k in TABLE_COLUMNS})


def write_report(report: RunReport, directory) -> dict[str, Path]:
    """Write report.json, series.csv, tables.csv, and (when correction events
    exist) corrections.csv into ``directory``. Output is byte-stable for a
    fixed report except the created_at timestamp."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths: dict[str, Path] = {}

    report.created_at = _dt.datetime.now(_dt.timezone.utc).isoformat()
    json_path = directory / "report.json"
    with open(json_path, "w") as fh:
        json.dump(report.to_dict(), fh, sort_keys=True, indent=2)
        fh.write("\n")
    paths["report"] = json_path

    series_path = directory / "series.csv"
    n_rounds = report.rounds_trained
    with open(series_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("round",) + SERIES_COLUMNS)
        for t in range(n_rounds):
            row = [t]
            for key in SERIES_COLUMNS:
                values = report.series.get(key)
                row.append("" if not values else repr(values[t]))
            writer.writerow(row)
    paths["series"] = series_path

    tables_path = directory / "tables.csv"
    write_tables_csv(tables_rows(report), tables_path)
    paths["tables"] = tables_path

    if report.correction_events:
        corr_path = directory / "corrections.csv"
        with open(corr_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["round", "instance_id", "action", "old_label",
                             "new_label", "was_actually_noisy"])
            for ev in report.correction_events:
                writer.writerow([ev["round"], ev["instance_id"], ev["action"],
                                 ev["old_label"],
                                 ev.get("new_label", ""),
                                 ev.get("was_actually_noisy", "")])
        paths["corrections"] = corr_path
    return paths


def load_report(path) -> RunReport:
    with open(Path(path)) as fh:
        return RunReport.from_dict(json.load(fh))
