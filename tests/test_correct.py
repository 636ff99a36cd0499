import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import as_lists, blob_dataset
from noisygbdt import noise
from noisygbdt.correct import NoiseHandler, apply_relabel, apply_removal
from noisygbdt.experiment import ExperimentConfig, run_cell
from noisygbdt.gbdt import BoostConfig, train
from noisygbdt.metrics_report import detection_report


def make_handler(n=10, mode="remove", budget=0.8, class_count=3):
    """A handler and the labels and weights it corrects."""
    labels = np.arange(n, dtype=np.int64) % class_count
    return (NoiseHandler(detectors=("aum",), mode=mode,
                         removal_budget=budget), labels, np.ones(n))


class TestRemoval:
    def test_basic_removal(self):
        handler, labels, weights = make_handler(10)
        apply_removal(handler, labels, weights, np.array([1, 4, 7]),
                      np.zeros(10), round_index=0)
        assert handler.removed.sum() == 3
        assert weights[[1, 4, 7]].sum() == 0.0
        assert weights.sum() == 7.0

    def test_idempotent_on_already_removed(self):
        handler, labels, weights = make_handler(10)
        apply_removal(handler, labels, weights, np.array([2]), np.zeros(10),
                      round_index=0)
        apply_removal(handler, labels, weights, np.array([2]), np.zeros(10),
                      round_index=1)
        assert handler.removed.sum() == 1
        remove_events = [e for e in handler.events if e["action"] == "remove"]
        assert len(remove_events) == 1

    def test_budget_caps_removal_with_event(self):
        handler, labels, weights = make_handler(100, budget=0.8)
        flagged = np.arange(90)
        apply_removal(handler, labels, weights, flagged, np.zeros(100),
                      round_index=3)
        assert handler.removed.sum() == 80
        assert handler.summary()["budget_hit_rounds"] == [3]

    def test_budget_prioritizes_most_suspicious(self):
        handler, labels, weights = make_handler(10, budget=0.2)  # 2 at most
        noisiness = np.array([0.1, 0.9, 0.2, 0.95, 0.3, 0, 0, 0, 0, 0])
        apply_removal(handler, labels, weights, np.array([0, 1, 2, 3, 4]),
                      noisiness=noisiness, round_index=0)
        assert set(np.flatnonzero(handler.removed)) == {1, 3}

    def test_budget_tie_breaks_by_id(self):
        handler, labels, weights = make_handler(10, budget=0.2)
        noisiness = np.full(10, 0.5)
        apply_removal(handler, labels, weights, np.array([7, 3, 5]),
                      noisiness=noisiness, round_index=0)
        assert set(np.flatnonzero(handler.removed)) == {3, 5}

    def test_wrong_mode_rejected(self):
        handler, labels, weights = make_handler(5, mode="relabel")
        with pytest.raises(ValueError):
            apply_removal(handler, labels, weights, np.array([0]),
                          np.zeros(5))

    @pytest.mark.properties
    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=40, deadline=None)
    def test_weights_never_fall_below_budget_floor(self, seed):
        rng = np.random.default_rng(seed)
        n = 50
        handler, labels, weights = make_handler(n, budget=0.8)
        for r in range(5):
            flagged = np.flatnonzero(rng.random(n) < 0.5)
            apply_removal(handler, labels, weights, flagged,
                          noisiness=rng.random(n), round_index=r)
        assert weights.sum() >= (1 - 0.8) * n
        assert handler.removed.sum() <= int(0.8 * n)


class TestRelabel:
    def window(self, probs):
        return np.asarray(probs, dtype=np.float64)[None, :, :]

    def test_window_mean_argmax(self):
        handler, labels, _ = make_handler(3, mode="relabel")
        w = np.stack([np.array([[0.1, 0.6, 0.3], [0.3, 0.3, 0.4], [1, 0, 0]]),
                      np.array([[0.3, 0.4, 0.3], [0.3, 0.3, 0.4], [1, 0, 0]])])
        apply_relabel(handler, labels, np.array([0]), w, round_index=0)
        assert labels[0] == 1  # mean [0.2, 0.5, 0.3]
        assert handler.relabeled[0]

    def test_once_only(self):
        handler, labels, _ = make_handler(3, mode="relabel")
        w1 = self.window([[0.1, 0.9, 0.0]] * 3)
        apply_relabel(handler, labels, np.array([0]), w1, round_index=0)
        assert labels[0] == 1
        w2 = self.window([[0.0, 0.0, 1.0]] * 3)
        apply_relabel(handler, labels, np.array([0]), w2, round_index=1)
        assert labels[0] == 1  # second flag ignored
        assert handler.relabeled.sum() == 1

    def test_fixed_point_still_marked(self):
        handler, labels, _ = make_handler(3, mode="relabel")
        current = int(labels[1])
        probs = np.zeros((1, 3, 3))
        probs[0, :, current] = 1.0
        apply_relabel(handler, labels, np.array([1]), probs, round_index=0)
        assert labels[1] == current
        assert handler.relabeled[1]

    @pytest.mark.properties
    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=40, deadline=None)
    def test_never_out_of_range(self, seed):
        rng = np.random.default_rng(seed)
        n, c = 30, 4
        handler = NoiseHandler(detectors=("aum",), mode="relabel")
        labels = rng.integers(0, c, n)
        raw = rng.random((3, n, c))
        window = raw / raw.sum(axis=2, keepdims=True)
        flagged = np.flatnonzero(rng.random(n) < 0.5)
        apply_relabel(handler, labels, flagged, window, round_index=0)
        assert labels.min() >= 0 and labels.max() < c

    def test_empty_window_rejected(self):
        handler, labels, _ = make_handler(3, mode="relabel")
        with pytest.raises(ValueError):
            apply_relabel(handler, labels, np.array([0]), np.zeros((0, 3, 3)))


class TestStateInvariants:
    """The handler's correction state: its mode, budget and summary."""

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            make_handler(mode="reweight")

    def test_budget_range(self):
        with pytest.raises(ValueError):
            make_handler(budget=1.5)

    def test_summary_fields(self):
        handler, labels, weights = make_handler(10)
        apply_removal(handler, labels, weights, np.array([0, 1]), np.zeros(10),
                      round_index=2)
        s = handler.summary()
        assert s["removed_total"] == 2
        assert s["mode"] == "remove"


class TestNoiseHandler:
    def noisy_blobs(self, rate=0.3, n=240, seed=0):
        ds = blob_dataset(n=n, classes=3, seed=seed)
        noisy, _ = noise.inject(ds.clean_labels, noise.pair_matrix(3, rate),
                                seed=seed + 1)
        return ds.with_noise(noisy)

    def test_mode_none_training_bit_identical(self):
        ds = self.noisy_blobs()
        cfg = BoostConfig(n_rounds=20, warmup_rounds=15)
        plain = train(ds, cfg)
        observed = train(ds, cfg, NoiseHandler(mode="none"))
        assert as_lists(plain.trees) == as_lists(observed.trees)
        assert (plain.report.series["train_logloss"]
                == observed.report.series["train_logloss"])

    def test_removal_run_reduces_weights(self):
        ds = self.noisy_blobs()
        handler = NoiseHandler(detectors=("aum",), mode="remove")
        train(ds, BoostConfig(n_rounds=20, warmup_rounds=15), handler)
        assert handler.removed.sum() > 0
        series, _, _, _ = detection_report(handler.flag_rounds, handler.events,
                                           ds.noise_mask, ds.instance_ids,
                                           best_round=19)
        assert series["aum"]["flagged_count"][0] > 0

    def test_relabel_run_marks_instances(self):
        ds = self.noisy_blobs()
        handler = NoiseHandler(detectors=("lrt",), mode="relabel")
        train(ds, BoostConfig(n_rounds=20, warmup_rounds=15), handler)
        assert handler.relabeled.sum() > 0
        # once-only: relabels never exceed the instance count
        assert handler.relabeled.sum() <= len(ds)

    def test_events_forwarded_to_report(self):
        ds = blob_dataset(n=300, classes=3, seed=1)
        rows = np.arange(len(ds))
        cfg = ExperimentConfig(detectors=("aum",), monitor="none",
                               boost=BoostConfig(n_rounds=18,
                                                 warmup_rounds=15))
        report = run_cell(cfg, ds.take(rows[:240]), ds.take(rows[240:]),
                          "pair", 0.3, "aum", "remove", trial_seed=0)
        actions = [e for e in report.correction_events
                   if e["action"] == "remove"]
        assert len(actions) == report.correction_summary["removed_total"] > 0

    def test_correction_improves_test_logloss_quickly(self):
        # a corrected run beats the uncorrected baseline within ten rounds
        # of the first correction on noisy, learnable data
        ds = blob_dataset(n=1200, classes=3, seed=5, separation=5.0)
        noisy, _ = noise.inject(ds.clean_labels, noise.pair_matrix(3, 0.3),
                                seed=11)
        ds = ds.with_noise(noisy)
        rows = np.arange(len(ds))
        train_ds, test_ds = ds.take(rows[:900]), ds.take(rows[900:])
        test_ds = test_ds.with_noise(test_ds.clean_labels)
        cfg = BoostConfig(n_rounds=26, warmup_rounds=15)
        base = train(train_ds, cfg, test=test_ds)
        corrected = train(train_ds, cfg,
                          NoiseHandler(detectors=("aum",), mode="remove"),
                          test=test_ds)
        base_tail = base.report.series["test_logloss"][16:26]
        corr_tail = corrected.report.series["test_logloss"][16:26]
        assert any(c < b for c, b in zip(corr_tail, base_tail))
