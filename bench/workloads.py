"""The benchmark's two workloads.

Each workload turns a seed into an experiment config, prepares its data (the
set-up the benchmark times apart from the run), runs one operation (a stage-2
grid point plus stage 3, or a single cell) and checks the operation's output.
A run covers ``sub_seeds`` operations, each on its own seed derived from the
run's seed, so that one unusually cheap or costly noise draw moves the run's
medians less. All of them inject pair noise at the paper's comparison rate of
30% and train on a single process.

Early stopping keeps its monitor (the clean test set) but gets a patience as
long as the run, so every cell trains all of its rounds and the work per
operation does not depend on where a seed's loss curve flattens. The reported
model is still truncated to the best monitored round.
"""

from __future__ import annotations

import contextlib
import json
import shutil
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
from noisygbdt import experiment
from noisygbdt.gbdt import BoostConfig

RATE = experiment.COMPARISON_CLASSIFICATION_RATE
KIND = "pair"


@dataclass
class Data:
    """A workload's prepared inputs and the facts the checks need."""

    train: object
    test: object
    n_fit: int
    class_count: int
    majority_rate: float


@dataclass
class Outcome:
    """What one operation produced."""

    wall_s: float
    reports: list            # report dictionaries
    detect_acc: float        # percent
    problems: list = field(default_factory=list)
    kernel_s: float | None = None   # mean host-speed kernel time during it

    @property
    def rounds(self) -> int:
        return sum(r["rounds_trained"] for r in self.reports)

    @property
    def test_f1(self) -> float:
        return statistics.fmean(100.0 * r["final"]["f1"]
                                for r in self.reports)


def sub_seed(seed: int, index: int) -> int:
    """The experiment seed of a run's ``index``-th operation."""
    entropy = np.random.SeedSequence([seed % 2**64, index])
    return int(entropy.generate_state(1)[0])


class Workload:
    name = ""
    cells = 1          # experiment cells per operation
    sub_seeds = 1      # operations per run, each on its own seed
    n_rounds = 30

    def config(self, seed: int,
               out_dir: str = "") -> experiment.ExperimentConfig:
        raise NotImplementedError

    def prepare(self, seed: int) -> Data:
        """Load or generate, preprocess and split, as the experiment does."""
        cfg = self.config(seed)
        train, test = experiment.prepare_data(cfg, seed)
        counts = np.bincount(test.clean_labels, minlength=test.class_count)
        return Data(train=train, test=test, n_fit=len(train),
                    class_count=train.class_count,
                    majority_rate=float(counts.max() / counts.sum()))

    def run(self, seed: int, data: Data, out_dir: Path,
            around=contextlib.nullcontext) -> Outcome:
        """One timed operation; ``around`` is entered inside the timer."""
        raise NotImplementedError

    def _check_reports(self, outcome: Outcome, data: Data) -> None:
        for report in outcome.reports:
            outcome.problems += checks.report_problems(
                report, n_fit=data.n_fit, class_count=data.class_count,
                majority_rate=data.majority_rate)


def _boost(n_rounds: int) -> BoostConfig:
    return BoostConfig(n_rounds=n_rounds, warmup_rounds=15,
                       early_stop_patience=n_rounds)


def _early_stop_accuracy(report: dict) -> float:
    methods = report["evaluation"]["early_stop"]["methods"]
    return statistics.fmean(100.0 * m["accuracy"] for m in methods.values())


class CancerGrid(Workload):
    """One stage-2 grid point on breast_cancer, then stage 3."""

    name = "cancer_grid"
    cells = 1 + len(experiment.detect.ALL_METHODS) * 2
    sub_seeds = 4

    def config(self, seed, out_dir=""):
        return experiment.ExperimentConfig(
            dataset="breast_cancer", noise_kinds=(KIND,), noise_rates=(RATE,),
            boost=_boost(self.n_rounds),
            monitor="clean_test", seed=seed, out_dir=str(out_dir), jobs=1)

    def run(self, seed, data, out_dir, around=contextlib.nullcontext):
        if out_dir.exists():
            shutil.rmtree(out_dir)
        out_dir.mkdir(parents=True)
        cfg = self.config(seed, out_dir)
        started = perf_counter()
        with around():
            experiment.run_stage2(cfg)
            stage3 = experiment.run_stage3(cfg, kind=KIND)
        wall = perf_counter() - started

        paths = sorted((out_dir / "stage2").glob("**/report.json"))
        reports = [json.loads(p.read_text()) for p in paths]
        detection = [row["value"] for row in stage3["detection"]]
        outcome = Outcome(wall_s=wall, reports=reports,
                          detect_acc=statistics.fmean(detection)
                          if detection else float("nan"))
        if len(reports) != self.cells:
            outcome.problems.append(f"{len(reports)} stage-2 reports, "
                                    f"expected {self.cells}")
        self._check_reports(outcome, data)
        expected = checks.expected_tables(reports, cfg.detectors, RATE)
        outcome.problems += checks.tables_match(expected, stage3,
                                                stage3["out_dir"])
        shutil.rmtree(out_dir)
        return outcome


class SingleCell(Workload):
    """One experiment cell on data prepared in set-up."""

    dataset = ""
    subsample = None
    detector = None
    correction = "none"

    def config(self, seed, out_dir=""):
        return experiment.ExperimentConfig(
            dataset=self.dataset, subsample=self.subsample,
            noise_kinds=(KIND,), noise_rates=(RATE,),
            boost=_boost(self.n_rounds),
            monitor="clean_test", seed=seed, out_dir=str(out_dir), jobs=1)

    def run(self, seed, data, out_dir, around=contextlib.nullcontext):
        cfg = self.config(seed)
        started = perf_counter()
        with around():
            report = experiment.run_cell(cfg, data.train, data.test, KIND,
                                         RATE, self.detector,
                                         self.correction, seed)
        wall = perf_counter() - started
        as_dict = report.to_dict()
        outcome = Outcome(wall_s=wall, reports=[as_dict],
                          detect_acc=_early_stop_accuracy(as_dict))
        self._check_reports(outcome, data)
        return outcome


class CovertypeRemove(SingleCell):
    """covertype_like 50k subsample, lrt driving removal."""

    name = "covertype_remove"
    dataset = "covertype_like"
    n_rounds = 25
    sub_seeds = 2
    subsample = 50_000
    detector = "lrt"
    correction = "remove"


WORKLOADS = {w.name: w for w in (CancerGrid(), CovertypeRemove())}
