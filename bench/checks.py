"""Output checks for the benchmark's workloads.

Every check works on plain report dictionaries (``RunReport.to_dict()`` or a
parsed ``report.json``) and returns a list of problems, empty when the check
holds. Each one is derived from the definition of the quantity it checks or
from a property the method must have; none compares against a stored copy of
earlier output.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

TOL = 1e-9
# the workloads inject pair noise at this rate
NOISE_RATE = 0.3
# standard deviations allowed between the realised and the nominal noise rate
BINOMIAL_Z = 4.5


def detector_accuracy_identity(report: dict) -> list[str]:
    """Every detector result satisfies accuracy = 1 - f - rho + 2 R rho.

    With f the flagged fraction, R the recall and rho the realised noise rate,
    true positives are R rho n and false positives f n - R rho n, so the
    agreement rate follows from those three numbers alone.
    """
    rho = report["empirical_noise_rate"]
    problems = []

    def check(where, accuracy, flagged, recall):
        expected = 1.0 - flagged - rho + 2.0 * recall * rho
        if not abs(accuracy - expected) <= TOL:
            problems.append(f"{where}: detection accuracy {accuracy!r} but "
                            f"1 - f - rho + 2 R rho = {expected!r}")

    for method, series in report["detector_series"].items():
        for i, round_index in enumerate(series["round"]):
            check(f"{method} round {round_index}", series["accuracy"][i],
                  series["flagged_fraction"][i], series["recall"][i])
    for point, payload in report["evaluation"].items():
        for method, m in payload.get("methods", {}).items():
            check(f"{method} at {point}", m["accuracy"],
                  m["flagged_fraction"], m["recall"])
    return problems


def noise_rate_plausible(report: dict, n_fit: int) -> list[str]:
    """The realised noise rate lies within a binomial tolerance of 0.30."""
    rho = report["empirical_noise_rate"]
    tol = BINOMIAL_Z * math.sqrt(NOISE_RATE * (1.0 - NOISE_RATE) / n_fit)
    if abs(rho - NOISE_RATE) > tol:
        return [f"empirical noise rate {rho:.4f} is more than {tol:.4f} "
                f"from {NOISE_RATE} over {n_fit} rows"]
    return []


def binary_f1_consistent(report: dict, class_count: int) -> list[str]:
    """On binary tasks the reported F1 is the harmonic mean of P and R."""
    if class_count != 2:
        return []
    final = report["final"]
    p, r = final["precision"], final["recall"]
    expected = 2.0 * p * r / (p + r) if p + r else 0.0
    if not abs(final["f1"] - expected) <= TOL:
        return [f"final F1 {final['f1']!r} but 2PR/(P+R) = {expected!r}"]
    return []


def beats_majority(report: dict, majority_rate: float) -> list[str]:
    """Final test accuracy beats always predicting the clean majority class."""
    accuracy = report["final"]["accuracy"]
    if not accuracy > majority_rate:
        return [f"final test accuracy {accuracy:.4f} does not beat the "
                f"majority-class rate {majority_rate:.4f}"]
    return []


def correction_bookkeeping(report: dict, n_fit: int) -> list[str]:
    """Removals respect the budget and match the event trail; relabel events
    name each instance at most once."""
    problems = []
    summary = report["correction_summary"]
    events = report["correction_events"]
    removed = summary.get("removed_total", 0)
    cap = math.floor(summary.get("removal_budget", 0.0) * n_fit)
    if removed > cap:
        problems.append(f"removed_total {removed} exceeds the budget cap "
                        f"{cap}")
    remove_events = sum(ev["action"] == "remove" for ev in events)
    if removed != remove_events:
        problems.append(f"removed_total {removed} but {remove_events} "
                        "remove events")
    relabeled = [ev["instance_id"] for ev in events
                 if ev["action"] == "relabel"]
    if len(relabeled) != len(set(relabeled)):
        problems.append(f"{len(relabeled) - len(set(relabeled))} relabel "
                        "events repeat an instance")
    return problems


def report_problems(report: dict, *, n_fit: int, class_count: int,
                    majority_rate: float) -> list[str]:
    """All per-report checks, each problem prefixed with the cell."""
    cell = f"{report['correction']}/{report['detection']}"
    problems = (detector_accuracy_identity(report)
                + noise_rate_plausible(report, n_fit)
                + binary_f1_consistent(report, class_count)
                + beats_majority(report, majority_rate)
                + correction_bookkeeping(report, n_fit))
    return [f"{cell}: {p}" for p in problems]


# --------------------------------------------------------------------------
# stage-3 tables
# --------------------------------------------------------------------------

def _mark_best(rows: dict, group_of) -> dict:
    best: dict = {}
    for key, value in rows.items():
        g = group_of(key)
        best[g] = max(best.get(g, -math.inf), value)
    return {key: (value, "yes" if value == best[group_of(key)] else "")
            for key, value in rows.items()}


def expected_tables(reports: list[dict], detectors, rate: float) -> dict:
    """Stage-3 rows rebuilt from stage-2 reports of one trial.

    Detection: per detector, the best early-stop accuracy over the cells the
    detector drove. Classification: per (correction, detector), the final test
    metrics. Both in percent, rounded to two decimals, with the best value per
    rate (detection) or per metric (classification) marked.
    Keys are (table, rate, detection, correction, metric).
    """
    at_rate = [r for r in reports if abs(r["noise_rate"] - rate) < 1e-9]
    detection = {}
    for det in detectors:
        values = [100.0 * r["evaluation"]["early_stop"]["methods"][det]
                  ["accuracy"] for r in at_rate if r["detection"] == det
                  and det in r["evaluation"].get("early_stop", {})
                  .get("methods", {})]
        if values:
            detection[("detection", rate, det, "best",
                       "detection_accuracy")] = round(max(values), 2)
    classification = {}
    for r in at_rate:
        for metric in ("accuracy", "precision", "recall", "f1"):
            classification[("classification", rate, r["detection"],
                            r["correction"], metric)] = round(
                                100.0 * r["final"][metric], 2)
    return {**_mark_best(detection, lambda k: k[1]),
            **_mark_best(classification, lambda k: k[4])}


def _row_key(table: str, row: dict) -> tuple:
    return (table, float(row["rate"]), row["detection"], row["correction"],
            row["metric"])


def tables_match(expected: dict, stage3: dict, csv_dir) -> list[str]:
    """Compare the rows stage 3 returned and wrote with the expected rows."""
    problems = []
    sources = {"returned": {}, "written": {}}
    for table in ("detection", "classification"):
        for row in stage3[table]:
            sources["returned"][_row_key(table, row)] = (row["value"],
                                                         row["is_best"])
        path = Path(csv_dir) / f"{table}_tables.csv"
        with open(path, newline="") as fh:
            for row in csv.DictReader(fh):
                sources["written"][_row_key(table, row)] = (
                    float(row["value"]), row["is_best"])
    for source, got in sources.items():
        for key in sorted(set(expected) | set(got), key=str):
            if expected.get(key) != got.get(key):
                problems.append(f"stage-3 {source} row {key}: "
                                f"{got.get(key)} but the stage-2 reports "
                                f"give {expected.get(key)}")
    return problems


# --------------------------------------------------------------------------
# determinism
# --------------------------------------------------------------------------

def report_digest(reports: list[dict]) -> str:
    """Digest of a run's reports, ignoring the write timestamp and the output
    directory (each run writes to a fresh one)."""
    normal = []
    for report in reports:
        report = dict(report, created_at="")
        config = report.get("config", {})
        if isinstance(config.get("experiment"), dict):
            config = dict(config, experiment=dict(config["experiment"],
                                                  out_dir=""))
            report["config"] = config
        normal.append(report)
    blob = json.dumps(normal, sort_keys=True, default=repr).encode()
    return hashlib.sha256(blob).hexdigest()
