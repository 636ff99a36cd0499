"""Tests of the benchmark's own checks and tracer.

    python3 -m pytest -q bench/test_bench.py

Each output check must pass on real reports and fail on a report altered to
break exactly what it checks.
"""

import copy
import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import hostspeed  # noqa: E402
import spans  # noqa: E402
from noisygbdt import experiment, gbdt  # noqa: E402
from noisygbdt.gbdt import BoostConfig  # noqa: E402

SEED = 7
BOOST = BoostConfig(n_rounds=20, warmup_rounds=15, early_stop_patience=20)


def _config(out_dir="", detectors=("lrt", "gradients")):
    return experiment.ExperimentConfig(
        dataset="breast_cancer", noise_kinds=("pair",), noise_rates=(0.3,),
        boost=BOOST, detectors=detectors, monitor="clean_test", seed=SEED,
        out_dir=str(out_dir))


@pytest.fixture(scope="module")
def data():
    return experiment.prepare_data(_config(), SEED)


@pytest.fixture(scope="module")
def cells(data):
    train, test = data
    cfg = _config()
    return {corr: experiment.run_cell(cfg, train, test, "pair", 0.3,
                                      "gradients", corr, SEED).to_dict()
            for corr in ("remove", "relabel")}


@pytest.fixture(scope="module")
def facts(data):
    train, test = data
    counts = np.bincount(test.clean_labels)
    return {"n_fit": len(train), "class_count": 2,
            "majority_rate": counts.max() / counts.sum()}


@pytest.fixture(scope="module")
def grid(tmp_path_factory):
    out = tmp_path_factory.mktemp("grid")
    cfg = _config(out)
    experiment.run_stage2(cfg)
    stage3 = experiment.run_stage3(cfg)
    reports = [json.loads(p.read_text())
               for p in sorted((out / "stage2").glob("**/report.json"))]
    return reports, stage3, cfg


def test_checks_pass_on_real_reports(cells, facts):
    for report in cells.values():
        assert checks.report_problems(report, **facts) == []
    assert any(ev["action"] == "remove"
               for ev in cells["remove"]["correction_events"])
    assert any(ev["action"] == "relabel"
               for ev in cells["relabel"]["correction_events"])


def test_accuracy_identity_fails_on_altered_accuracy(cells):
    report = copy.deepcopy(cells["remove"])
    report["evaluation"]["early_stop"]["methods"]["gradients"]["accuracy"] \
        += 0.01
    assert checks.detector_accuracy_identity(report)
    report = copy.deepcopy(cells["remove"])
    report["detector_series"]["gradients"]["accuracy"][-1] -= 0.01
    assert checks.detector_accuracy_identity(report)


def test_noise_rate_check_fails_far_from_nominal(cells, facts):
    report = copy.deepcopy(cells["remove"])
    report["empirical_noise_rate"] = 0.45
    assert checks.noise_rate_plausible(report, facts["n_fit"])


def test_binary_f1_check_fails_on_altered_f1(cells):
    report = copy.deepcopy(cells["remove"])
    report["final"]["f1"] *= 0.99
    assert checks.binary_f1_consistent(report, 2)
    assert checks.binary_f1_consistent(report, 7) == []


def test_majority_check_fails_at_majority_accuracy(cells, facts):
    report = copy.deepcopy(cells["remove"])
    report["final"]["accuracy"] = facts["majority_rate"]
    assert checks.beats_majority(report, facts["majority_rate"])


def test_removal_checks_fail_over_budget_and_on_lost_events(cells, facts):
    report = copy.deepcopy(cells["remove"])
    report["correction_summary"]["removed_total"] = \
        int(0.8 * facts["n_fit"]) + 1
    assert any("budget" in p for p in
               checks.correction_bookkeeping(report, facts["n_fit"]))
    report = copy.deepcopy(cells["remove"])
    events = report["correction_events"]
    events.remove(next(ev for ev in events if ev["action"] == "remove"))
    assert checks.correction_bookkeeping(report, facts["n_fit"])


def test_relabel_check_fails_on_repeated_instance(cells, facts):
    report = copy.deepcopy(cells["relabel"])
    events = report["correction_events"]
    events.append(dict(next(ev for ev in events
                            if ev["action"] == "relabel"), round=99))
    assert checks.correction_bookkeeping(report, facts["n_fit"])


def test_tables_match_real_stage3(grid):
    reports, stage3, cfg = grid
    expected = checks.expected_tables(reports, cfg.detectors, 0.3)
    assert len(expected) == len(cfg.detectors) + 4 * len(reports)
    assert checks.tables_match(expected, stage3, stage3["out_dir"]) == []


def test_tables_check_fails_on_altered_returned_row(grid):
    reports, stage3, cfg = grid
    expected = checks.expected_tables(reports, cfg.detectors, 0.3)
    altered = copy.deepcopy(stage3)
    altered["classification"][0]["value"] += 0.01
    assert checks.tables_match(expected, altered, stage3["out_dir"])
    altered = copy.deepcopy(stage3)
    altered["detection"][0]["is_best"] = "no"
    assert checks.tables_match(expected, altered, stage3["out_dir"])


def test_tables_check_fails_on_altered_csv(grid, tmp_path):
    reports, stage3, cfg = grid
    expected = checks.expected_tables(reports, cfg.detectors, 0.3)
    for name in ("detection_tables.csv", "classification_tables.csv"):
        shutil.copy(Path(stage3["out_dir"]) / name, tmp_path / name)
    path = tmp_path / "detection_tables.csv"
    lines = path.read_text().splitlines()
    lines.pop()
    path.write_text("\n".join(lines) + "\n")
    assert checks.tables_match(expected, stage3, tmp_path)


def test_digest_ignores_timestamp_and_output_dir_only(grid):
    reports = grid[0]
    moved = copy.deepcopy(reports)
    moved[0]["created_at"] = "later"
    moved[0]["config"]["experiment"]["out_dir"] = "elsewhere"
    assert checks.report_digest(moved) == checks.report_digest(reports)
    moved[0]["final"]["f1"] += 1e-12
    assert checks.report_digest(moved) != checks.report_digest(reports)


def test_tracer_reports_absent_names_without_crashing():
    tracer = spans.Tracer()
    tracer.install((spans.Wrap("noisygbdt.gbdt:no_such_function", "x"),
                    spans.Wrap("noisygbdt.gbdt:NoSuchClass.method", "x"),
                    spans.Wrap("noisygbdt.no_such_module:f", "x"),
                    spans.Wrap("noisygbdt.gbdt:Tree.no_such_method", "x")))
    tracer.uninstall()
    assert len(tracer.absent) == 4
    assert tracer.summary()["metrics"]["gbdt.trees"] == 0


def test_tracer_reports_a_counter_that_no_longer_fits(data):
    train, _ = data
    tracer = spans.Tracer()
    tracer.install((spans.Wrap("noisygbdt.gbdt:Tree.predict", "gbdt.predict",
                               after=lambda ctx, a, k, r: {"x": a[9]}),))
    try:
        tree = gbdt.build_tree(train.features, np.ones(len(train)),
                               np.ones(len(train)), np.ones(len(train)),
                               BOOST)
        with tracer.root("bench.op"):
            assert tree.predict(train.features).shape == (len(train),)
    finally:
        tracer.uninstall()
    assert tracer.broken == {"noisygbdt.gbdt:Tree.predict"}
    assert tracer.summary()["metrics"]["gbdt.predict_calls"] == 1


def test_tracer_patches_caller_bindings_and_restores_them(data, cells):
    train, test = data
    originals = (experiment.train, gbdt.Tree.predict, gbdt._fit_tree)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert tracer.absent == []
        with tracer.root("bench.op"):
            report = experiment.run_cell(_config(), train, test, "pair", 0.3,
                                         "gradients", "remove", SEED)
    finally:
        tracer.uninstall()
    assert (experiment.train, gbdt.Tree.predict, gbdt._fit_tree) == originals
    assert checks.report_digest([report.to_dict()]) == \
        checks.report_digest([cells["remove"]])
    summary = tracer.summary()
    metrics = summary["metrics"]
    assert metrics["gbdt.trees"] == report.rounds_trained
    assert metrics["gbdt.train_self_s"] > 0
    assert metrics["detect.gmm_fits"] == 5
    assert metrics["correct.removed"] == \
        report.correction_summary["removed_total"]
    assert summary["self_sum_s"] == pytest.approx(summary["wall_s"],
                                                  rel=1e-9)
    names = {s[0] for s in tracer.spans}
    assert {"gbdt.train", "gbdt.exact_split", "detect.gmm_fit",
            "correct.handler", "noise.inject"} <= names


def test_host_speed_sampling_leaves_reports_unchanged(data, cells):
    train, test = data
    previous = signal.getsignal(signal.SIGALRM)
    speed = hostspeed.HostSpeed()
    with speed.sampling():
        report = experiment.run_cell(_config(), train, test, "pair", 0.3,
                                     "gradients", "remove", SEED)
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert checks.report_digest([report.to_dict()]) == \
        checks.report_digest([cells["remove"]])
    assert speed.samples and speed.kernel_s() > 0


def test_run_refuses_a_directory_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    child = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cancer_grid",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert child.returncode != 0
    assert child.stdout == ""
