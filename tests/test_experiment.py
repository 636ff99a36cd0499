import csv
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest
import yaml

from noisygbdt import experiment, gbdt, noise
from noisygbdt.correct import NoiseHandler
from noisygbdt.data_ingest import SplitSpec
from noisygbdt.experiment import (ExperimentConfig, ExperimentError,
                                  config_from_dict, derive_seed, load_config,
                                  prepare_data, run_cell, run_group,
                                  run_stage1, run_stage2, run_stage3)
from noisygbdt.gbdt import Booster, BoostConfig, TrainingDivergedError
from noisygbdt.metrics_report import load_report, prediction_type_counts


def tiny_config(tmp_path, **overrides) -> ExperimentConfig:
    base = dict(
        dataset="dry_bean_like", subsample=900,
        noise_kinds=("pair",), noise_rates=(0.0, 0.3),
        boost=BoostConfig(n_rounds=17, warmup_rounds=15),
        out_dir=str(tmp_path / "runs"), seed=11,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_yaml_round_trip(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump({
            "dataset": "dry_bean_like",
            "noise_kinds": ["pair"],
            "noise_rates": [0.1, 0.2],
            "split": {"test_fraction": 0.25, "seed": 4},
            "boost": {"n_rounds": 30, "warmup_rounds": 10},
            "seed": 3,
        }))
        cfg = load_config(path)
        assert cfg.split.test_fraction == 0.25
        assert cfg.boost.n_rounds == 30
        assert cfg.noise_rates == (0.1, 0.2)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ExperimentError, match="unknown config keys"):
            config_from_dict({"datasett": "x"})

    def test_bad_noise_kind_rejected(self):
        with pytest.raises(ExperimentError):
            config_from_dict({"noise_kinds": ["diagonal"]})

    @pytest.mark.parametrize("payload, match", [
        ({"boost": {"n_rounds": 10, "warmup_rounds": 15}}, "warmup_rounds"),
        ({"boost": {"n_round": 10}}, "boost.n_round"),
        ({"removal_budget": 1.5}, "removal_budget"),
        ({"removal_budget": -0.1}, "removal_budget"),
        ({"split": {"test_frac": 0.3}}, "split.test_frac"),
        ({"boost": {"tree_method": "exact", "max_bins": 64}},
         r"^unknown config keys: \['boost.max_bins', 'boost.tree_method'\]$"),
        ({"boost": 5}, "^config key 'boost' must be a mapping$"),
        ({"split": None}, "^config key 'split' must be a mapping$"),
        ([{"boost": {}}], "^a config must be a mapping$"),
        # value types follow the dataclass fields: a list for a tuple, no
        # bool or float for an int
        ({"noise_rates": 0.3}, r"^config key 'noise_rates' must be list"),
        ({"noise_kinds": "pair"}, "^config key 'noise_kinds' must be list"),
        ({"detectors": "lrt"}, "^config key 'detectors' must be list"),
        ({"noise_rates": [0.1, "0.2"]}, "^config key 'noise_rates' must be"),
        ({"trials": "2"}, "^config key 'trials' must be int, got '2'$"),
        ({"boost": {"n_rounds": "30"}}, "^config key 'boost.n_rounds' must"),
        ({"split": {"seed": 1.5}}, "^config key 'split.seed' must be int"),
        ({"seed": 1.5}, "^config key 'seed' must be int, got 1.5$"),
        ({"jobs": "4"}, "^config key 'jobs' must be int"),
        ({"subsample": True}, r"^config key 'subsample' must be int \| None"),
        ({"boost": {"learning_rate": True}}, "^config key 'boost.learning_rate'"),
        ({"label_column": 3}, "^config key 'label_column' must be str"),
        # caught here rather than by the stratified split in every group
        ({"subsample": 0}, "^subsample must be at least 1$"),
        ({"subsample": -5}, "^subsample must be at least 1$"),
        ({"jobs": 0}, "^jobs must be at least 1$"),
        ({"jobs": -4}, "^jobs must be at least 1$"),
        # cells of a repeated entry would write one output directory, and
        # a cell directory names its rate by two decimals
        ({"noise_rates": [0.3, 0.301]},
         r"^noise_rates \(to two decimals\) lists '0.30' twice$"),
        ({"noise_rates": [0.1, 0.2, 0.1]},
         r"^noise_rates \(to two decimals\) lists '0.10' twice$"),
        ({"noise_kinds": ["pair", "pair"]},
         "^noise_kinds lists 'pair' twice$"),
        ({"detectors": ["lrt", "aum", "lrt"]},
         "^detectors lists 'lrt' twice$"),
        ({"corrections": ["remove", "remove"]},
         "^corrections lists 'remove' twice$"),
        # a correction callback scores recorded rounds, and the detectors
        # read a window of at least one round
        ({"boost": {"n_rounds": 17, "warmup_rounds": 0}},
         "^warmup_rounds must be at least 1 "),
        ({"boost": {"n_rounds": 17, "history_window": 0}},
         "^history_window must be at least 1$"),
    ])
    def test_cell_errors_caught_at_load(self, payload, match):
        with pytest.raises(ValueError, match=match):
            config_from_dict(payload)

    def test_ints_fit_floats_and_null_fits_optionals(self):
        cfg = config_from_dict({"boost": {"learning_rate": 1},
                                "removal_budget": 1, "subsample": None,
                                "label_column": None, "noise_rates": [0, 1]})
        assert cfg.boost.learning_rate == 1 and cfg.removal_budget == 1
        assert cfg.subsample is None and cfg.noise_rates == (0, 1)

    def test_int_spelling_of_a_float_gives_the_same_config(self, tmp_path):
        # the report and --print-config write what as_dict holds, and JSON
        # and YAML tell 1 from 1.0
        def config(one, rates):
            return config_from_dict({
                "dataset": "breast_cancer", "noise_kinds": ["pair"],
                "noise_rates": rates, "removal_budget": one,
                "boost": {"learning_rate": one, "n_rounds": 17,
                          "warmup_rounds": 15},
                "out_dir": str(tmp_path)})
        as_int, as_float = config(1, [0, 0.3]), config(1.0, [0.0, 0.3])
        assert type(as_int.boost.learning_rate) is float
        assert [type(r) for r in as_int.noise_rates] == [float, float]
        assert (json.dumps(as_int.as_dict(), sort_keys=True)
                == json.dumps(as_float.as_dict(), sort_keys=True))
        assert (yaml.safe_dump(as_int.as_dict(), sort_keys=True)
                == yaml.safe_dump(as_float.as_dict(), sort_keys=True))
        reports = []
        for cfg in (as_int, as_float):
            train_ds, test_ds = prepare_data(cfg, 5)
            reports.append(run_cell(cfg, train_ds, test_ds, "pair", 0.3,
                                    "aum", "remove", 5).to_dict())
        assert json.dumps(reports[0]) == json.dumps(reports[1])

    def test_csv_dataset_needs_label_column(self):
        with pytest.raises(ExperimentError, match="label_column"):
            config_from_dict({"dataset": "some.csv"})

    def test_derive_seed_stable_and_distinct(self):
        a = derive_seed(7, "noise", "pair", 0.3)
        b = derive_seed(7, "noise", "pair", 0.3)
        c = derive_seed(7, "noise", "pair", 0.2)
        d = derive_seed(8, "noise", "pair", 0.3)
        assert a == b
        assert len({a, c, d}) == 3


class TestStages:
    def test_stage1_grid_count_and_zero_rate(self, tmp_path):
        cfg = tiny_config(tmp_path)
        reports = run_stage1(cfg)
        assert len(reports) == 2  # 1 kind x 2 rates
        zero = [r for r in reports if r.noise_rate == 0.0][0]
        assert zero.empirical_noise_rate == 0.0
        assert zero.prediction_types["true_match"] == []

    def test_stage2_grid_and_shared_noise(self, tmp_path):
        cfg = tiny_config(tmp_path, noise_rates=(0.3,),
                          detectors=("lrt", "aum"),
                          corrections=("remove", "relabel"))
        reports = run_stage2(cfg)
        # baseline + 2 detectors x 2 corrections
        assert len(reports) == 5
        rates = {r.empirical_noise_rate for r in reports}
        assert len(rates) == 1  # identical noise realization in every cell
        seeds = {r.config["noise_seed"] for r in reports}
        assert len(seeds) == 1

    def test_baseline_matches_stage1_bit_identically(self, tmp_path):
        cfg = tiny_config(tmp_path, noise_rates=(0.3,))
        run_stage1(cfg)
        run_stage2(cfg)
        root = tmp_path / "runs"
        p1 = root / "stage1" / cfg.dataset / "pair_0.30" / "none_none" / "report.json"
        p2 = root / "stage2" / cfg.dataset / "pair_0.30" / "none_none" / "report.json"
        d1 = json.loads(p1.read_text())
        d2 = json.loads(p2.read_text())
        d1.pop("created_at")
        d2.pop("created_at")
        assert d1 == d2

    def test_stage3_shapes_and_best_marks(self, tmp_path):
        cfg = tiny_config(tmp_path, noise_rates=(0.1, 0.2, 0.3),
                          boost=BoostConfig(n_rounds=17, warmup_rounds=15))
        run_stage2(cfg)
        tables = run_stage3(cfg)
        det = tables["detection"]
        # 3 rates x 4 detectors
        assert len(det) == 12
        for rate in (0.1, 0.2, 0.3):
            marked = [r for r in det if r["rate"] == rate and r["is_best"]]
            assert marked  # one or more winners per rate
        cls = tables["classification"]
        assert len(cls) == 36  # 9 combos x 4 metrics
        combos = {(r["correction"], r["detection"]) for r in cls}
        assert len(combos) == 9
        for metric in ("accuracy", "precision", "recall", "f1"):
            assert any(r["is_best"] for r in cls if r["metric"] == metric)

    def test_stage3_requires_stage2(self, tmp_path):
        cfg = tiny_config(tmp_path)
        with pytest.raises(ExperimentError, match="stage 2"):
            run_stage3(cfg)

    def test_stage3_respects_rate_window(self, tmp_path):
        cfg = tiny_config(tmp_path, noise_rates=(0.3, 0.5))
        run_stage2(cfg)
        tables = run_stage3(cfg)
        rates = {r["rate"] for r in tables["detection"]}
        assert 0.5 not in rates

    def test_determinism_same_config_same_tables(self, tmp_path):
        cfg1 = tiny_config(tmp_path / "a", noise_rates=(0.3,))
        cfg2 = tiny_config(tmp_path / "b", noise_rates=(0.3,))
        run_stage2(cfg1)
        run_stage2(cfg2)
        t1 = run_stage3(cfg1)
        t2 = run_stage3(cfg2)
        strip = lambda rows: [{k: v for k, v in r.items() if k != "dataset"}
                              for r in rows]
        assert strip(t1["classification"]) == strip(t2["classification"])

    def test_report_bytes_do_not_depend_on_the_output_directory(self,
                                                                tmp_path):
        texts = []
        for out in (tmp_path / "a", tmp_path / "a_longer_directory_name"):
            cfg = tiny_config(out, noise_rates=(0.3,), detectors=("lrt",),
                              corrections=("remove",))
            run_stage2(cfg)
            paths = sorted((out / "runs").glob("**/report.json"))
            assert len(paths) == 2
            texts.append([re.sub(r'"created_at": "[^"]*"', '"created_at": ""',
                                 p.read_text()) for p in paths])
        assert texts[0] == texts[1]
        assert "out_dir" not in texts[0][0]

    def test_detector_order_does_not_change_cells(self, tmp_path):
        cfg1 = tiny_config(tmp_path / "a", noise_rates=(0.3,),
                           detectors=("lrt", "aum"), corrections=("remove",))
        cfg2 = tiny_config(tmp_path / "b", noise_rates=(0.3,),
                           detectors=("aum", "lrt"), corrections=("remove",))
        r1 = {(r.detection, r.correction): r.final for r in run_stage2(cfg1)}
        r2 = {(r.detection, r.correction): r.final for r in run_stage2(cfg2)}
        assert r1 == r2

    def test_corrections_csv_marks_truly_noisy_instances(self, tmp_path):
        cfg = tiny_config(tmp_path, noise_rates=(0.3,),
                          detectors=("gradients",),
                          corrections=("remove", "relabel"))
        reports = run_stage2(cfg)
        train_ds, _ = prepare_data(cfg, cfg.seed)
        noise_seed = reports[0].config["noise_seed"]
        matrix = noise.matrix_for("pair", 0.3, train_ds.class_count)
        noisy, _ = noise.inject(train_ds.clean_labels, matrix, noise_seed)
        mask = noisy != train_ds.clean_labels
        row_of = {int(i): p for p, i in enumerate(train_ds.instance_ids)}
        root = tmp_path / "runs" / "stage2" / cfg.dataset / "pair_0.30"
        for cell in ("remove_gradients", "relabel_gradients"):
            with open(root / cell / "corrections.csv", newline="") as fh:
                events = [row for row in csv.DictReader(fh)
                          if row["action"] in ("remove", "relabel")]
            assert events, cell
            for row in events:
                expected = bool(mask[row_of[int(row["instance_id"])]])
                assert row["was_actually_noisy"] == str(expected), cell

    def test_events_name_dataset_ids(self, tmp_path):
        # corrections act on positions in the fit set; the report names each
        # row by its Dataset id, so that events join back to the data
        cfg = tiny_config(tmp_path, monitor="noisy_val")
        train_ds, test_ds = prepare_data(cfg, cfg.seed)
        fit_ds, _, _ = experiment._noisy_fit_set(cfg, train_ds, "pair", 0.3,
                                                 cfg.seed)
        row_of = {int(i): p for p, i in enumerate(fit_ds.instance_ids)}
        for correction in ("remove", "relabel"):
            report = run_cell(cfg, train_ds, test_ds, "pair", 0.3,
                              "gradients", correction, cfg.seed)
            events = [ev for ev in report.correction_events
                      if ev["action"] == correction]
            assert events, correction
            for ev in events:
                row = row_of[ev["instance_id"]]
                assert ev["old_label"] == fit_ds.noisy_labels[row]
                assert ev["was_actually_noisy"] == fit_ds.noise_mask[row]

    def test_trials_produce_distinct_runs_and_std(self, tmp_path):
        cfg = tiny_config(tmp_path, noise_rates=(0.3,), trials=2,
                          detectors=("lrt",), corrections=("remove",))
        reports = run_stage2(cfg)
        assert len(reports) == 4  # 2 trials x (baseline + 1 cell)
        seeds = {r.seed for r in reports}
        assert len(seeds) == 2
        tables = run_stage3(cfg)
        assert any("std=" in r["note"] for r in tables["classification"])

    def test_stage3_detection_takes_best_mode_per_trial(self, tmp_path):
        cfg = tiny_config(tmp_path, subsample=400, noise_rates=(0.3,),
                          trials=2, detectors=("gradients",),
                          corrections=("remove", "relabel"), monitor="none",
                          boost=BoostConfig(n_rounds=20, warmup_rounds=15))
        per_trial: dict[int, list[float]] = {}
        for r in run_stage2(cfg):
            if r.detection == "gradients":
                methods = r.evaluation["early_stop"]["methods"]
                per_trial.setdefault(r.seed, []).append(
                    100.0 * methods["gradients"]["accuracy"])
        assert len(per_trial) == 2
        # the modes disagree, so the best mode and the mode average differ
        assert any(len(set(v)) > 1 for v in per_trial.values())
        best = [max(v) for v in per_trial.values()]
        (row,) = run_stage3(cfg)["detection"]
        assert row["value"] == round(float(np.mean(best)), 2)
        assert row["note"].endswith(f"std={float(np.std(best)):.2f}")

    def test_stage3_tabulates_the_configured_corrections_only(self, tmp_path):
        # relabel reports left in the stage-2 directory by an earlier run
        # enter no table of a config that lists remove alone
        def config(corrections):
            return tiny_config(tmp_path, subsample=400, noise_rates=(0.3,),
                               detectors=("gradients",),
                               corrections=corrections, monitor="none",
                               boost=BoostConfig(n_rounds=20,
                                                 warmup_rounds=15))
        reports = run_stage2(config(("remove", "relabel")))
        tables = run_stage3(config(("remove",)))
        assert [(r["correction"], r["detection"], r["metric"])
                for r in tables["classification"]] == [
            (correction, detector, metric)
            for correction, detector in (("none", "none"),
                                         ("remove", "gradients"))
            for metric in ("accuracy", "precision", "recall", "f1")]
        (removal,) = [r for r in reports if r.correction == "remove"]
        accuracy = removal.evaluation["early_stop"]["methods"]["gradients"]
        (row,) = tables["detection"]
        assert row["value"] == round(100.0 * accuracy["accuracy"], 2)
        with open(os.path.join(tables["out_dir"],
                               "classification_tables.csv")) as fh:
            assert "relabel" not in fh.read()


def _comparable(report):
    return {k: v for k, v in report.to_dict().items() if k != "created_at"}


# a stage-2 grid point: the baseline, then 4 detectors x 2 corrections
GRID = [(None, "none")] + [(detector, correction)
                           for detector in ("lrt", "aum", "confcorr",
                                            "gradients")
                           for correction in ("remove", "relabel")]
# at seed 7 these remove rows at round 15; the other cells of GRID change
# neither a weight nor a label (lrt and aum flag nothing, and the relabels
# keep each row's label)
DIVERGING = [("confcorr", "remove"), ("gradients", "remove")]
# what a Booster run produces, before the experiment layer adds detection
TRAINED = ("rounds_trained", "best_round", "stopped_early", "series",
           "prediction_types", "final")


def _trained(report) -> dict:
    return {k: getattr(report, k) for k in TRAINED}


def cancer_config(**boost) -> ExperimentConfig:
    """breast_cancer at 30% pair noise, 30 rounds, seed 7. With the default
    patience early stopping fires at round 28."""
    return ExperimentConfig(dataset="breast_cancer", noise_kinds=("pair",),
                            noise_rates=(0.3,), seed=7,
                            boost=BoostConfig(n_rounds=30, warmup_rounds=15,
                                              **boost))


@pytest.fixture(scope="module")
def cancer_data():
    cfg = cancer_config()
    return prepare_data(cfg, cfg.seed)


def assert_cells_run_alone(cfg, data, cells) -> list:
    """Run a group and check each report against its cell run alone: all of
    it against ``run_cell``, and what training produced against one Booster
    that calls the cell's handler every round, as a cell is defined to
    train, with no trunk involved."""
    train_ds, test_ds = data
    group = run_group(cfg, train_ds, test_ds, "pair", 0.3, cells, cfg.seed)
    assert len(group) == len(cells)
    fit_ds, monitor, _ = experiment._noisy_fit_set(cfg, train_ds, "pair",
                                                   0.3, cfg.seed)
    for (det, corr), report in zip(cells, group):
        alone = run_cell(cfg, train_ds, test_ds, "pair", 0.3, det, corr,
                         cfg.seed)
        assert _comparable(report) == _comparable(alone), (det, corr)
        handler = experiment._handler(cfg, det, corr)
        result = Booster(fit_ds, cfg.boost, test=test_ds,
                         monitor=monitor).run(handler).result()
        straight = result.report
        straight.prediction_types = prediction_type_counts(
            result.predicted, fit_ds.clean_labels, fit_ds.noisy_labels)
        assert _trained(report) == _trained(straight), (det, corr)
        assert report.correction_summary == handler.summary(), (det, corr)
    return group


class LateEdit(NoiseHandler):
    """Scores like an uncorrected handler and, at round ``at`` only, zeroes
    row 3's weight or moves its label."""

    def __init__(self, edit: str, at: int):
        super().__init__(detectors=("lrt",))
        self.edit, self.at = edit, at

    def __call__(self, round_index, dynamics, labels, weights) -> None:
        super().__call__(round_index, dynamics, labels, weights)
        if round_index != self.at:
            return
        if self.edit == "weight":
            weights[3] = 0.0
        else:
            labels[3] = 1 - labels[3]


def count_tree_fits(monkeypatch) -> list:
    """Patch ``gbdt._fit_tree`` to append to the returned list per call."""
    fits = []
    real = gbdt._fit_tree

    def counting(*args, **kwargs):
        fits.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(gbdt, "_fit_tree", counting)
    return fits


class TestGroups:
    CELLS = [(None, "none"), ("aum", "relabel"), ("lrt", "remove"),
             ("confcorr", "relabel"), ("gradients", "remove")]

    @pytest.mark.parametrize("monitor", ["clean_test", "noisy_val"])
    def test_forked_cells_equal_independent_cells(self, tmp_path, monitor):
        cfg = tiny_config(tmp_path, monitor=monitor,
                          boost=BoostConfig(n_rounds=22, warmup_rounds=15))
        group = assert_cells_run_alone(cfg, prepare_data(cfg, cfg.seed),
                                       self.CELLS)
        relabeled = [ev for r in group for ev in r.correction_events
                     if ev["action"] == "relabel"
                     and ev["old_label"] != ev["new_label"]]
        assert relabeled

    def test_early_stop_inside_warmup_gives_the_prefix(self, tmp_path):
        cfg = tiny_config(tmp_path, boost=BoostConfig(
            n_rounds=22, warmup_rounds=15, early_stop_patience=1,
            early_stop_min_delta=1e9))
        train_ds, test_ds = prepare_data(cfg, cfg.seed)
        group = run_group(cfg, train_ds, test_ds, "pair", 0.3, self.CELLS,
                          cfg.seed)
        keep = ("series", "final", "rounds_trained", "best_round")
        for report in group:
            assert report.rounds_trained == 2 and report.stopped_early
            assert report.correction_events == []
            assert ({k: getattr(report, k) for k in keep}
                    == {k: getattr(group[0], k) for k in keep})

    def test_prediction_types_count_against_the_original_noisy_labels(
            self, tmp_path):
        cfg = tiny_config(tmp_path, boost=BoostConfig(n_rounds=22,
                                                      warmup_rounds=15))
        train_ds, test_ds = prepare_data(cfg, cfg.seed)
        fit_ds, monitor, _ = experiment._noisy_fit_set(cfg, train_ds, "pair",
                                                       0.3, cfg.seed)
        booster = Booster(fit_ds, cfg.boost, test=test_ds, monitor=monitor)
        booster.run(experiment._handler(cfg, "confcorr", "relabel"))
        assert (booster.labels != fit_ds.noisy_labels).any()
        predicted = booster.result().predicted
        report = run_cell(cfg, train_ds, test_ds, "pair", 0.3, "confcorr",
                          "relabel", cfg.seed)
        assert report.prediction_types == prediction_type_counts(
            predicted, fit_ds.clean_labels, fit_ds.noisy_labels)
        assert report.prediction_types != prediction_type_counts(
            predicted, fit_ds.clean_labels, booster.labels)
        assert len(report.prediction_types["other"]) == 22

    def test_jobs_do_not_change_reports(self, tmp_path):
        one = tiny_config(tmp_path / "a", noise_rates=(0.2, 0.3),
                          detectors=("aum", "confcorr"))
        two = tiny_config(tmp_path / "b", noise_rates=(0.2, 0.3),
                          detectors=("aum", "confcorr"), jobs=2)

        def key(report):
            d = _comparable(report)
            d["config"]["experiment"].update(out_dir="", jobs=0)
            return d
        first = [key(r) for r in run_stage2(one)]
        assert len(first) == 10
        assert first == [key(r) for r in run_stage2(two)]

    def test_failing_cell_leaves_error_and_the_rest(self, tmp_path,
                                                    monkeypatch):
        class Failing(NoiseHandler):
            def __call__(self, round_index, *args):
                if self.detectors == ("aum",) and self.mode == "remove":
                    raise RuntimeError("injected failure")
                return super().__call__(round_index, *args)

        monkeypatch.setattr(experiment, "NoiseHandler", Failing)
        cfg = tiny_config(tmp_path, noise_rates=(0.3,))
        reports = run_stage2(cfg)
        assert len(reports) == 8
        root = tmp_path / "runs" / "stage2" / cfg.dataset / "pair_0.30"
        assert len(list(root.glob("*/report.json"))) == 8
        (error,) = root.glob("*/error.txt")
        assert error.parent.name == "remove_aum"
        assert "RuntimeError: injected failure" in error.read_text()
        # stage 3 tabulates the cells that succeeded
        combos = {(r["correction"], r["detection"])
                  for r in run_stage3(cfg)["classification"]}
        assert len(combos) == 8 and ("remove", "aum") not in combos
        # a later run that succeeds replaces the error with a report
        monkeypatch.setattr(experiment, "NoiseHandler", NoiseHandler)
        assert len(run_stage2(cfg)) == 9
        assert not list(root.glob("*/error.txt"))

    def test_failing_prefix_fails_every_cell_of_its_group(self, tmp_path,
                                                          monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("no warm-up")

        monkeypatch.setattr(experiment, "Booster", broken)
        cfg = tiny_config(tmp_path, noise_rates=(0.3,),
                          detectors=("lrt",), corrections=("remove",))
        assert run_stage2(cfg) == []
        root = tmp_path / "runs" / "stage2" / cfg.dataset / "pair_0.30"
        assert sorted(p.parent.name for p in root.glob("*/error.txt")) == [
            "none_none", "remove_lrt"]
        with pytest.raises(RuntimeError, match="no warm-up"):
            run_cell(cfg, *prepare_data(cfg, cfg.seed), "pair", 0.3, None,
                     "none", cfg.seed)


class TestTrunk:
    """A group trains one trunk that its cells ride until their correction
    first changes a weight or a label."""

    @pytest.mark.parametrize("patience", [30, 10])
    def test_grid_point_equals_cells_run_alone(self, cancer_data, patience):
        cfg = cancer_config(early_stop_patience=patience)
        group = assert_cells_run_alone(cfg, cancer_data, GRID)
        # early stopping fires at round 28 while seven cells ride
        assert group[0].rounds_trained == (30 if patience == 30 else 28)
        # cells that never change a weight or label ride to the end (or to
        # the early stop) and report the baseline's run
        for cell, report in zip(GRID, group):
            assert ((_trained(report) == _trained(group[0]))
                    == (cell not in DIVERGING)), cell

    @pytest.mark.parametrize("edit", ["weight", "label"])
    def test_late_edit_forks_at_its_round(self, cancer_data, monkeypatch,
                                          edit):
        # lrt's cell forks at round 20; aum's, the last rider, takes the
        # trunk at round 25
        at = {"lrt": 20, "aum": 25}
        monkeypatch.setattr(experiment, "_handler",
                            lambda cfg, det, corr: LateEdit(edit, at[det]))
        cfg = cancer_config(early_stop_patience=30)
        first, second = assert_cells_run_alone(
            cfg, cancer_data, [("lrt", "remove"), ("aum", "remove")])
        # round 20's tree already sees lrt's edit
        losses = first.series["train_logloss"], second.series["train_logloss"]
        assert losses[0][:20] == losses[1][:20]
        assert losses[0][20] != losses[1][20]

    def test_riding_cells_fit_no_trees(self, cancer_data, monkeypatch):
        fits = count_tree_fits(monkeypatch)
        cfg = cancer_config(early_stop_patience=30)
        cells = [cell for cell in GRID if cell[0] in (None, "lrt", "aum")]
        group = run_group(cfg, *cancer_data, "pair", 0.3, cells, cfg.seed)
        assert [r.rounds_trained for r in group] == [30] * len(cells)
        assert len(fits) == 30   # the trunk's, one binary tree per round

    @pytest.mark.parametrize("edit", ["weight", "label"])
    def test_cells_with_equal_edits_share_a_fork(self, cancer_data,
                                                 monkeypatch, edit):
        # lrt's and aum's cells make the same edit at round 20 and ride one
        # fork from there; the baseline keeps the trunk
        at = {None: -1, "lrt": 20, "aum": 20}
        monkeypatch.setattr(experiment, "_handler",
                            lambda cfg, det, corr: LateEdit(edit, at[det]))
        cfg = cancer_config(early_stop_patience=30)
        cells = [(None, "none"), ("lrt", "remove"), ("aum", "remove")]
        fits = count_tree_fits(monkeypatch)
        run_group(cfg, *cancer_data, "pair", 0.3, cells, cfg.seed)
        assert len(fits) == 30 + 10
        _, first, second = assert_cells_run_alone(cfg, cancer_data, cells)
        assert _trained(first) == _trained(second)

    @pytest.mark.parametrize("cell", [(None, "none"), ("confcorr", "remove")])
    def test_one_cell_group_never_forks(self, cancer_data, monkeypatch, cell):
        def no_fork(self):
            raise AssertionError("a one-cell group forked its booster")

        monkeypatch.setattr(Booster, "fork", no_fork)
        cfg = cancer_config()
        report = run_cell(cfg, *cancer_data, "pair", 0.3, *cell, cfg.seed)
        assert (report.correction_summary["removed_total"] > 0) == (
            cell in DIVERGING)

    def test_handler_failing_while_riding_fails_its_cell_alone(
            self, cancer_data, monkeypatch):
        cfg = cancer_config()
        expected = run_group(cfg, *cancer_data, "pair", 0.3, GRID, cfg.seed)

        class FailsAt17(NoiseHandler):
            def __call__(self, round_index, *args):
                if (self.detectors, self.mode, round_index) == (
                        ("lrt",), "remove", 17):
                    raise RuntimeError("injected failure")
                return super().__call__(round_index, *args)

        monkeypatch.setattr(experiment, "NoiseHandler", FailsAt17)
        group = run_group(cfg, *cancer_data, "pair", 0.3, GRID, cfg.seed)
        failed = GRID.index(("lrt", "remove"))
        assert len(group) == len(GRID)
        for i, (report, want) in enumerate(zip(group, expected)):
            if i == failed:
                assert isinstance(report, RuntimeError)
            else:
                assert _comparable(report) == _comparable(want), GRID[i]

    def test_trunk_failure_fails_only_riding_cells(self, cancer_data,
                                                   monkeypatch):
        cfg = cancer_config()
        expected = run_group(cfg, *cancer_data, "pair", 0.3, GRID, cfg.seed)
        built = []
        real_init, real_step = Booster.__init__, Booster.step

        def init(self, *args, **kwargs):
            real_init(self, *args, **kwargs)
            built.append(self)

        def step(self):
            # forks are copies, so the one booster built is the trunk
            if self is built[0] and self.rounds_trained == 20:
                raise TrainingDivergedError("injected")
            real_step(self)

        monkeypatch.setattr(Booster, "__init__", init)
        monkeypatch.setattr(Booster, "step", step)
        group = run_group(cfg, *cancer_data, "pair", 0.3, GRID, cfg.seed)
        assert len(group) == len(GRID)
        for cell, report, want in zip(GRID, group, expected):
            if cell in DIVERGING:
                assert _comparable(report) == _comparable(want), cell
            else:
                assert isinstance(report, TrainingDivergedError), cell


class TestPrepareData:
    def test_breast_cancer_builtin(self, tmp_path):
        cfg = ExperimentConfig(dataset="breast_cancer",
                               out_dir=str(tmp_path), seed=1)
        train_ds, test_ds = prepare_data(cfg, cfg.seed)
        assert len(train_ds) + len(test_ds) == 569
        assert train_ds.class_count == 2

    def test_csv_path_dataset(self, tmp_path):
        rows = ["f,label"] + [f"{i},{i % 2}" for i in range(40)]
        path = tmp_path / "data.csv"
        path.write_text("\n".join(rows) + "\n")
        cfg = ExperimentConfig(dataset=str(path), label_column="label",
                               out_dir=str(tmp_path), seed=1)
        train_ds, test_ds = prepare_data(cfg, cfg.seed)
        assert len(train_ds) + len(test_ds) == 40

    def test_subsample_caps_rows(self, tmp_path):
        cfg = ExperimentConfig(dataset="dry_bean_like", subsample=700,
                               out_dir=str(tmp_path), seed=1)
        train_ds, test_ds = prepare_data(cfg, cfg.seed)
        assert len(train_ds) + len(test_ds) <= 710


def run_cli(args, env_extra=None):
    env = os.environ.copy()
    env.update(env_extra or {})
    return subprocess.run([sys.executable, "-m", "noisygbdt.cli"] + args,
                          capture_output=True, text=True, env=env)


class TestCli:
    def write_cfg(self, tmp_path, **overrides):
        payload = {
            "dataset": "dry_bean_like", "subsample": 600,
            "noise_kinds": ["pair"], "noise_rates": [0.2],
            "boost": {"n_rounds": 16, "warmup_rounds": 15},
            "out_dir": str(tmp_path / "runs"), "seed": 5,
        }
        payload.update(overrides)
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(payload))
        return path

    def test_print_config(self, tmp_path):
        cfg = self.write_cfg(tmp_path)
        proc = run_cli(["run", "--config", str(cfg), "--print-config",
                        "--seed", "99"])
        assert proc.returncode == 0
        resolved = yaml.safe_load(proc.stdout)
        assert resolved["seed"] == 99
        assert resolved["dataset"] == "dry_bean_like"

    def test_stage1_writes_reports(self, tmp_path):
        cfg = self.write_cfg(tmp_path)
        proc = run_cli(["run", "--config", str(cfg), "--stage", "1"])
        assert proc.returncode == 0, proc.stderr
        report = (tmp_path / "runs" / "stage1" / "dry_bean_like"
                  / "pair_0.20" / "none_none" / "report.json")
        assert report.exists()
        payload = load_report(report)
        assert payload.noise_kind == "pair"

    def test_invalid_dataset_nonzero_exit(self, tmp_path):
        cfg = self.write_cfg(tmp_path, dataset="missing.csv",
                             label_column="label")
        proc = run_cli(["run", "--config", str(cfg), "--stage", "1"])
        assert proc.returncode != 0
        assert "error:" in proc.stderr

    def test_env_var_overrides_out_dir(self, tmp_path):
        cfg = self.write_cfg(tmp_path)
        alt = tmp_path / "alt_out"
        proc = run_cli(["run", "--config", str(cfg), "--stage", "1"],
                       env_extra={"NOISYGBDT_OUT": str(alt)})
        assert proc.returncode == 0, proc.stderr
        assert (alt / "stage1").exists()

    def test_every_noise_kind_tabulated(self, tmp_path):
        cfg = self.write_cfg(tmp_path, noise_kinds=["pair", "symmetric"],
                             detectors=["lrt"], corrections=["remove"])
        proc = run_cli(["run", "--config", str(cfg)])
        assert proc.returncode == 0, proc.stderr
        stage3 = tmp_path / "runs" / "stage3" / "dry_bean_like"
        for kind in ("pair", "symmetric"):
            with open(stage3 / kind / "detection_tables.csv") as fh:
                rows = list(csv.DictReader(fh))
            assert [r["noise_kind"] for r in rows] == [kind]

    def test_failed_cells_exit_nonzero(self, tmp_path):
        # ten rows leave a class with one row, which only the stratified
        # split, run inside the cell's group, rejects
        cfg = self.write_cfg(tmp_path, subsample=10)
        proc = run_cli(["run", "--config", str(cfg), "--stage", "1"])
        assert proc.returncode == 1
        assert "1 cells failed" in proc.stderr
        error = (tmp_path / "runs" / "stage1" / "dry_bean_like" / "pair_0.20"
                 / "none_none" / "error.txt")
        assert "stratified split needs at least 2" in error.read_text()

    @pytest.mark.parametrize("overrides", [
        {"boost": {"n_round": 10}}, {"split": {"test_frac": 0.3}},
        {"boost": 5}, {"noise_rates": 0.3}, {"boost": {"n_rounds": "30"}},
        {"subsample": 0}, {"noise_rates": [0.3, 0.301]}, {"jobs": -4},
        {"boost": {"n_rounds": 17, "warmup_rounds": 0}},
        {"boost": {"n_rounds": 17, "history_window": 0}}])
    def test_print_config_rejects_bad_sections(self, tmp_path, overrides):
        cfg = self.write_cfg(tmp_path, **overrides)
        proc = run_cli(["run", "--config", str(cfg), "--print-config"])
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ")
        assert proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr

    def test_csv_dataset_by_absolute_path(self, tmp_path):
        data = tmp_path / "data"
        data.mkdir()
        rows = ["f,g,label"] + [f"{i},{(i * 7) % 5},{i % 2}"
                                for i in range(80)]
        (data / "bc.csv").write_text("\n".join(rows) + "\n")
        cfg = self.write_cfg(tmp_path, dataset=str(data / "bc.csv"),
                             label_column="label", subsample=None,
                             noise_rates=[0.3], detectors=["aum"],
                             corrections=["remove"])
        for stage in ("1", "2", "3"):
            proc = run_cli(["run", "--config", str(cfg), "--stage", stage])
            assert proc.returncode == 0, proc.stderr
        runs = tmp_path / "runs"
        assert (runs / "stage1" / "bc.csv" / "pair_0.30" / "none_none"
                / "report.json").exists()
        assert (runs / "stage2" / "bc.csv" / "pair_0.30" / "remove_aum"
                / "report.json").exists()
        with open(runs / "stage3" / "bc.csv" / "pair"
                  / "classification_tables.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert {r["correction"] for r in rows} == {"none", "remove"}
        assert sorted(p.name for p in data.iterdir()) == ["bc.csv"]

    def test_print_config_rejects_what_a_cell_would(self, tmp_path):
        cfg = self.write_cfg(tmp_path, boost={"n_rounds": 10,
                                              "warmup_rounds": 15})
        proc = run_cli(["run", "--config", str(cfg), "--print-config"])
        assert proc.returncode == 2
        assert "warmup_rounds must be below n_rounds" in proc.stderr

    def test_missing_config_errors(self, tmp_path):
        proc = run_cli(["run", "--config", str(tmp_path / "nope.yaml")])
        assert proc.returncode == 2
        assert "error:" in proc.stderr
