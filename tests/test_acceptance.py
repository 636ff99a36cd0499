"""Acceptance suite: reproduction targets for the full pipeline.

Each criterion prints one PASS/FAIL line (run with ``pytest -s`` to see them
live). Heavy training runs are shared through session fixtures; the
covertype-style checks train a 50k stratified subsample and are marked slow.
"""

import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from noisygbdt.correct import NoiseHandler
from noisygbdt.experiment import (ExperimentConfig, prepare_data, run_cell,
                                  run_group)
from noisygbdt.gbdt import BoostConfig, train
from noisygbdt.metrics_report import tables_rows

SEED = 7


def report_line(num: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {status}: {detail}")


def detection_at(report, point, method):
    return 100.0 * report.evaluation[point]["methods"][method]["accuracy"]


def flagged_at(report, point, method):
    return 100.0 * report.evaluation[point]["methods"][method]["flagged_fraction"]


# --------------------------------------------------------------------------
# shared runs
# --------------------------------------------------------------------------

@pytest.fixture(scope="session")
def adult_cells():
    cfg = ExperimentConfig(
        dataset="adult_like", noise_kinds=("pair",),
        noise_rates=(0.1, 0.2, 0.3),
        boost=BoostConfig(n_rounds=60, warmup_rounds=15),
        monitor="clean_test", seed=SEED, out_dir="unused")
    train_ds, test_ds = prepare_data(cfg, SEED)
    cells = {}
    for rate in cfg.noise_rates:
        started = time.time()
        for det in ("aum", "lrt"):
            cells[(rate, det)] = run_cell(cfg, train_ds, test_ds, "pair",
                                          rate, det, "remove", SEED)
        cells[(rate, "elapsed")] = time.time() - started
    return cells


@pytest.fixture(scope="session")
def cancer_cells():
    cfg = ExperimentConfig(
        dataset="breast_cancer", noise_kinds=("pair",),
        noise_rates=(0.1, 0.2, 0.3),
        boost=BoostConfig(n_rounds=40, warmup_rounds=15),
        monitor="clean_test", seed=SEED, out_dir="unused")
    train_ds, test_ds = prepare_data(cfg, SEED)
    cells = {}
    for rate in cfg.noise_rates:
        started = time.time()
        for corr in ("remove", "relabel"):
            cells[(rate, "confcorr", corr)] = run_cell(
                cfg, train_ds, test_ds, "pair", rate, "confcorr", corr, SEED)
        cells[(rate, "elapsed")] = time.time() - started
    started = time.time()
    cells[(0.3, "gradients", "remove")] = run_cell(
        cfg, train_ds, test_ds, "pair", 0.3, "gradients", "remove", SEED)
    cells[("gradients", "elapsed")] = time.time() - started
    return cells


@pytest.fixture(scope="session")
def bean_data():
    cfg = ExperimentConfig(dataset="dry_bean_like", seed=SEED,
                           out_dir="unused")
    return prepare_data(cfg, SEED), cfg


@pytest.fixture(scope="session")
def bean_observation_runs(bean_data):
    (train_ds, test_ds), cfg = bean_data
    obs_cfg = ExperimentConfig(
        dataset="dry_bean_like",
        boost=BoostConfig(n_rounds=16, warmup_rounds=15),
        monitor="none", seed=SEED, out_dir="unused")
    runs = {}
    for rate in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6):
        runs[("symmetric", rate)] = run_cell(obs_cfg, train_ds, test_ds,
                                             "symmetric", rate, None, "none",
                                             SEED)
    runs[("pair", 0.5)] = run_cell(obs_cfg, train_ds, test_ds, "pair", 0.5,
                                   None, "none", SEED)
    return runs


# --------------------------------------------------------------------------
# criteria 1-3: detection and classification reproduction targets
# --------------------------------------------------------------------------

class TestCriterion01AdultDetection:
    def test_aum_lrt_accuracy_floor(self, adult_cells):
        ok = True
        details = []
        for rate in (0.1, 0.2, 0.3):
            for det in ("aum", "lrt"):
                acc = detection_at(adult_cells[(rate, det)], "early_stop", det)
                details.append(f"{det}@{rate}={acc:.2f}")
                ok &= acc >= 97.0
            elapsed = adult_cells[(rate, "elapsed")]
            ok &= elapsed < 600.0
            details.append(f"t={elapsed:.0f}s")
        report_line(1, ok, "adult-style detection " + " ".join(details))
        assert ok

    def test_subsample_labeling_absent_for_full_runs(self, adult_cells):
        assert adult_cells[(0.1, "aum")].note == ""


class TestCriterion02CancerConfCorr:
    TARGETS = {0.1: 92.06, 0.2: 90.75, 0.3: 85.25}

    def test_confcorr_within_five_points(self, cancer_cells):
        ok = True
        details = []
        for rate, target in self.TARGETS.items():
            best = max(
                detection_at(cancer_cells[(rate, "confcorr", corr)],
                             "early_stop", "confcorr")
                for corr in ("remove", "relabel"))
            details.append(f"{rate}:{best:.2f} (target {target}±5)")
            ok &= abs(best - target) <= 5.0
            ok &= cancer_cells[(rate, "elapsed")] < 30.0 * 2  # two cells
        report_line(2, ok, "cancer confcorr detection " + "; ".join(details))
        assert ok


class TestCriterion03CancerGradientsClassification:
    def test_remove_run_metrics(self, cancer_cells):
        rep = cancer_cells[(0.3, "gradients", "remove")]
        acc = 100 * rep.final["accuracy"]
        f1 = 100 * rep.final["f1"]
        elapsed = cancer_cells[("gradients", "elapsed")]
        ok = acc >= 89.0 and f1 >= 90.0 and elapsed < 60.0
        report_line(3, ok,
                    f"cancer gradients+remove acc={acc:.2f} f1={f1:.2f} "
                    f"t={elapsed:.0f}s")
        assert ok


# --------------------------------------------------------------------------
# criteria 4-7: dry-bean-style detector behavior
# --------------------------------------------------------------------------

class TestCriterion04DetectorFloor:
    def test_symmetric_floor(self, bean_observation_runs):
        ok = True
        worst = {"lrt": 100.0, "aum": 100.0, "confcorr": 100.0,
                 "gradients": 100.0}
        for rate in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6):
            rep = bean_observation_runs[("symmetric", rate)]
            for method in worst:
                acc = detection_at(rep, "first_after_warmup", method)
                worst[method] = min(worst[method], acc)
        for method, floor in (("lrt", 88.0), ("aum", 88.0),
                              ("confcorr", 65.0), ("gradients", 65.0)):
            ok &= worst[method] >= floor
        report_line(4, ok, "detector floors (worst over rates): "
                    + " ".join(f"{m}={v:.1f}" for m, v in worst.items()))
        assert ok


class TestCriterion05NoiseRateEstimation:
    def test_flagged_fraction_tracks_rate(self, bean_observation_runs):
        ok = True
        details = []
        for rate in (0.1, 0.2, 0.3, 0.4):
            rep = bean_observation_runs[("symmetric", rate)]
            for method in ("lrt", "aum"):
                frac = flagged_at(rep, "first_after_warmup", method)
                details.append(f"{method}@{rate}={frac:.1f}")
                ok &= abs(frac - 100 * rate) <= 5.0
        report_line(5, ok, "estimated rates " + " ".join(details))
        assert ok


class TestCriterion06FiftyPercentPair:
    def test_all_detectors_near_chance(self, bean_observation_runs):
        rep = bean_observation_runs[("pair", 0.5)]
        ok = True
        details = []
        for method in ("lrt", "aum", "confcorr", "gradients"):
            acc = detection_at(rep, "first_after_warmup", method)
            details.append(f"{method}={acc:.1f}")
            ok &= 43.0 <= acc <= 57.0
        report_line(6, ok, "pair 0.5 degeneracy " + " ".join(details))
        assert ok


class TestCriterion07GradientSeparation:
    def test_mean_gradient_ratio(self, bean_data):
        (train_ds, _), _ = bean_data
        from noisygbdt import noise
        from noisygbdt.experiment import derive_seed

        nseed = derive_seed(SEED, "noise", "pair", 0.3)
        noisy, mask = noise.inject(train_ds.clean_labels,
                                   noise.pair_matrix(7, 0.3), nseed)
        res = train(train_ds.with_noise(noisy),
                    BoostConfig(n_rounds=10, warmup_rounds=15))
        grads = res.dynamics.window[-1].max_abs_gradient
        ratio = grads[mask].mean() / grads[~mask].mean()
        ok = ratio >= 1.3
        report_line(7, ok, f"round-10 noisy/clean gradient ratio={ratio:.2f}")
        assert ok


# --------------------------------------------------------------------------
# criterion 8: margin and likelihood-ratio flags coincide at window 1
# --------------------------------------------------------------------------

class TestCriterion08OverlapProperty:
    def test_flags_identical_every_round(self, bean_data):
        (train_ds, _), _ = bean_data
        from noisygbdt import noise
        from noisygbdt.experiment import derive_seed

        nseed = derive_seed(SEED, "noise", "pair", 0.3)
        noisy, _ = noise.inject(train_ds.clean_labels,
                                noise.pair_matrix(7, 0.3), nseed)
        handler = NoiseHandler(detectors=("lrt", "aum"), mode="none")
        train(train_ds.with_noise(noisy),
              BoostConfig(n_rounds=25, warmup_rounds=15, history_window=1),
              handler)
        per_round = [(f["lrt"], f["aum"]) for _, f in handler.flag_rounds]
        assert per_round
        mismatches = sum(int((l != a).sum()) for l, a in per_round)
        ok = mismatches == 0
        report_line(8, ok, f"window-1 flag mismatches across "
                           f"{len(per_round)} rounds: {mismatches}")
        assert ok


# --------------------------------------------------------------------------
# criterion 9: fast property suites stay green inside the CI budget
# --------------------------------------------------------------------------

class TestCriterion09PropertySuites:
    def test_property_marked_tests_green_under_budget(self):
        started = time.time()
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-m", "properties", "-q",
             str(Path(__file__).parent)],
            capture_output=True, text=True)
        elapsed = time.time() - started
        ok = proc.returncode == 0 and elapsed < 120.0
        tail = proc.stdout.strip().splitlines()[-1] if proc.stdout else ""
        report_line(9, ok, f"property suites: {tail} in {elapsed:.0f}s")
        assert proc.returncode == 0, proc.stdout
        assert elapsed < 120.0


# --------------------------------------------------------------------------
# criterion 10: qualitative training curves
# --------------------------------------------------------------------------

class TestCriterion10Curves:
    def test_prediction_type_curves_cross(self, bean_data):
        (train_ds, test_ds), _ = bean_data
        obs_cfg = ExperimentConfig(
            dataset="dry_bean_like",
            boost=BoostConfig(n_rounds=100, warmup_rounds=15),
            monitor="none", seed=SEED, out_dir="unused")
        rep = run_cell(obs_cfg, train_ds, test_ds, "pair", 0.1, None, "none",
                       SEED)
        tm = np.array(rep.prediction_types["true_match"])
        nm = np.array(rep.prediction_types["noisy_match"])
        starts_true = tm[0] > nm[0]
        crossings = np.flatnonzero(nm >= tm)
        ok = starts_true and crossings.size > 0
        report_line(10, ok,
                    f"curves: start true={tm[0]} noisy={nm[0]}, first cross "
                    f"round={crossings[0] + 1 if crossings.size else 'never'}")
        assert ok

    def test_initial_accuracy_gap_tracks_rate(self, bean_data):
        (train_ds, test_ds), _ = bean_data
        obs_cfg = ExperimentConfig(
            dataset="dry_bean_like",
            boost=BoostConfig(n_rounds=30, warmup_rounds=15),
            monitor="none", seed=SEED, out_dir="unused")
        rep = run_cell(obs_cfg, train_ds, test_ds, "symmetric", 0.3, None,
                       "none", SEED)
        gap = (np.array(rep.series["test_accuracy"][:15])
               - np.array(rep.series["train_accuracy"][:15])).max()
        ok = abs(gap - 0.3) <= 0.05
        report_line(10, ok, f"initial accuracy gap={gap:.3f} (target 0.30±0.05)")
        assert ok

    def test_train_up_test_down(self, bean_data):
        (train_ds, test_ds), _ = bean_data
        obs_cfg = ExperimentConfig(
            dataset="dry_bean_like",
            boost=BoostConfig(n_rounds=100, warmup_rounds=15),
            monitor="none", seed=SEED, out_dir="unused")
        rep = run_cell(obs_cfg, train_ds, test_ds, "pair", 0.3, None, "none",
                       SEED)
        train_acc = np.array(rep.series["train_accuracy"])
        test_acc = np.array(rep.series["test_accuracy"])
        assert train_acc[-1] > train_acc[:15].max()
        assert test_acc[-1] < test_acc[:15].max()


# --------------------------------------------------------------------------
# criterion 11: covertype-style tables on a 50k stratified subsample
# --------------------------------------------------------------------------

# reference detection accuracies for the subsampled covertype-style benchmark,
# reproduced within +-8 points at the early-stopped epoch
COVER_DETECTION_TARGETS = {
    0.1: {"aum": 80.94, "confcorr": 83.06, "gradients": 77.20, "lrt": 80.94},
    0.2: {"aum": 80.90, "confcorr": 82.90, "gradients": 79.90, "lrt": 80.90},
    0.3: {"aum": 79.60, "confcorr": 81.00, "gradients": 78.80, "lrt": 79.60},
}

# reference classification metrics (accuracy, precision, recall, f1) at 30%
# pair noise, +-8 points
COVER_CLASSIFICATION_TARGETS = {
    ("none", "none"): (76.94, 78.06, 62.44, 66.06),
    ("relabel", "aum"): (73.75, 76.56, 56.16, 59.44),
    ("relabel", "confcorr"): (74.60, 76.75, 57.34, 61.16),
    ("relabel", "gradients"): (74.50, 76.60, 57.16, 60.72),
    ("relabel", "lrt"): (73.70, 76.30, 56.20, 59.44),
    ("remove", "aum"): (74.44, 78.00, 58.70, 62.90),
    ("remove", "confcorr"): (72.60, 77.06, 52.97, 53.30),
    ("remove", "gradients"): (73.30, 78.80, 52.12, 53.06),
    ("remove", "lrt"): (74.44, 78.00, 58.60, 62.75),
}

COVER_TOLERANCE = 8.0


@pytest.fixture(scope="session")
def cover_grid():
    cfg = ExperimentConfig(
        dataset="covertype_like", subsample=50_000,
        noise_kinds=("pair",), noise_rates=(0.1, 0.2, 0.3),
        boost=BoostConfig(n_rounds=60, warmup_rounds=15),
        monitor="clean_test", seed=SEED, out_dir="unused")
    train_ds, test_ds = prepare_data(cfg, SEED)
    detectors = ("aum", "confcorr", "gradients", "lrt")
    # one group per rate: each trains its warm-up once and forks the cells
    groups = {rate: [(det, "remove") for det in detectors]
              for rate in (0.1, 0.2)}
    groups[0.3] = [(None, "none")] + [(det, corr) for det in detectors
                                      for corr in ("remove", "relabel")]
    cells = {}
    for rate, group in groups.items():
        reports = run_group(cfg, train_ds, test_ds, "pair", rate, group, SEED)
        for (det, corr), report in zip(group, reports):
            if isinstance(report, Exception):
                raise report
            cells[(rate, det, corr)] = report
    return cells


@pytest.mark.slow
class TestCriterion11CovertypeSubsample:
    def test_detection_table_windows(self, cover_grid):
        ok = True
        details = []
        for rate, targets in COVER_DETECTION_TARGETS.items():
            for det, target in targets.items():
                values = [detection_at(cover_grid[key], "early_stop", det)
                          for key in cover_grid
                          if key[0] == rate and key[1] == det]
                got = max(values)
                details.append(f"{det}@{rate}={got:.2f}")
                ok &= abs(got - target) <= COVER_TOLERANCE
        report_line(11, ok, "covertype detection (subsampled) "
                    + " ".join(details))
        assert ok

    def test_classification_table_windows(self, cover_grid):
        ok = True
        details = []
        for (corr, det), targets in COVER_CLASSIFICATION_TARGETS.items():
            key = (0.3, None if det == "none" else det, corr)
            rep = cover_grid[key]
            got = tuple(100 * rep.final[m]
                        for m in ("accuracy", "precision", "recall", "f1"))
            deltas = [abs(g - t) for g, t in zip(got, targets)]
            details.append(f"{corr}/{det}: "
                           + "/".join(f"{g:.1f}" for g in got))
            ok &= max(deltas) <= COVER_TOLERANCE
        report_line(11, ok, "covertype classification (subsampled) "
                    + " | ".join(details))
        assert ok

    def test_reports_labeled_subsampled(self, cover_grid):
        rep = cover_grid[(0.3, None, "none")]
        assert rep.note == "subsampled"
        rows = tables_rows(rep)
        assert all(r["note"] == "subsampled" for r in rows)

    def test_correction_drops_test_logloss_after_warmup(self, cover_grid):
        # every detector+correction run dips below the uncorrected baseline
        # within ten rounds of the first correction
        base = cover_grid[(0.3, None, "none")].series["test_logloss"]
        ok = True
        details = []
        for det in ("aum", "confcorr", "gradients", "lrt"):
            for corr in ("remove", "relabel"):
                series = cover_grid[(0.3, det, corr)].series["test_logloss"]
                window = range(15, min(25, len(series), len(base)))
                dipped = any(series[t] < base[t] for t in window)
                details.append(f"{corr}/{det}={'yes' if dipped else 'no'}")
                ok &= dipped
        report_line(11, ok, "post-warmup loss drop " + " ".join(details))
        assert ok
