import numpy as np
import pytest

from noisygbdt.dynamics import DynamicsLog, EpochRecord


def make_record(t, probs, labels=None, predicted=None, grads=None):
    probs = np.asarray(probs, dtype=np.float64)
    n, c = probs.shape
    if predicted is None:
        predicted = probs.argmax(axis=1)
    if grads is None:
        grads = np.abs(probs - 1.0).max(axis=1)
    return EpochRecord(round=t, logits=np.log(np.clip(probs, 1e-9, None)),
                       probs=probs, predicted=np.asarray(predicted),
                       max_abs_gradient=np.asarray(grads, dtype=np.float64))


class TestWindow:
    def test_ring_buffer_keeps_last_five(self):
        log = DynamicsLog(n_instances=2, class_count=2, window=5)
        labels = np.array([0, 1])
        for t in range(6):
            log.record(make_record(t, [[0.6, 0.4], [0.3, 0.7]]), labels)
        rounds = [r.round for r in log.window]
        assert rounds == [1, 2, 3, 4, 5]
        assert log.rounds_recorded == 6

    def test_out_of_order_round_rejected(self):
        log = DynamicsLog(2, 2)
        labels = np.array([0, 1])
        log.record(make_record(0, [[0.5, 0.5], [0.5, 0.5]]), labels)
        with pytest.raises(ValueError, match="out-of-order"):
            log.record(make_record(5, [[0.5, 0.5], [0.5, 0.5]]), labels)

    def test_eviction_does_not_touch_accumulators(self):
        log = DynamicsLog(1, 2, window=2)
        labels = np.array([1])
        for t in range(3):
            log.record(make_record(t, [[0.2, 0.8]]), labels)
        before = log.sum_label_prob.copy()
        log.record(make_record(3, [[0.2, 0.8]]), labels)  # evicts round 1
        assert log.sum_label_prob[0] == pytest.approx(before[0] + 0.8)


class TestAccumulators:
    def test_always_confident_and_correct(self):
        log = DynamicsLog(1, 2)
        labels = np.array([1])
        for t in range(4):
            log.record(make_record(t, [[0.0, 1.0]]), labels)
        assert log.confidence()[0] == pytest.approx(1.0)
        assert log.correctness()[0] == pytest.approx(1.0)

    def test_confidence_values(self):
        # label-probability sequence 0.9, 0.8, 0.7, 0.6, 0.5
        log = DynamicsLog(1, 2)
        labels = np.array([1])
        for t, p in enumerate([0.9, 0.8, 0.7, 0.6, 0.5]):
            log.record(make_record(t, [[1 - p, p]]), labels)
        assert log.confidence()[0] == pytest.approx(0.7)

    def test_correctness_counts_matches(self):
        log = DynamicsLog(1, 2)
        labels = np.array([1])
        preds = [1, 0, 1, 0, 1]
        for t, pr in enumerate(preds):
            log.record(make_record(t, [[0.5, 0.5]], predicted=[pr]), labels)
        assert log.correctness()[0] == pytest.approx(0.6)

    @pytest.mark.properties
    def test_incremental_matches_full_history_replay(self):
        rng = np.random.default_rng(0)
        n, c, rounds = 50, 3, 20
        log = DynamicsLog(n, c)
        labels = rng.integers(0, c, size=n)
        history = []
        for t in range(rounds):
            raw = rng.random((n, c))
            probs = raw / raw.sum(axis=1, keepdims=True)
            rec = make_record(t, probs)
            log.record(rec, labels)
            history.append(rec)
        p_seq = np.stack([r.probs[np.arange(n), labels] for r in history])
        pred_seq = np.stack([r.predicted for r in history])
        mu = p_seq.mean(axis=0)
        gamma = (pred_seq == labels).mean(axis=0)
        assert np.abs(log.confidence() - mu).max() <= 1e-12
        assert np.abs(log.correctness() - gamma).max() <= 1e-12

    def test_label_change_applies_from_that_round_forward(self):
        log = DynamicsLog(1, 2)
        log.record(make_record(0, [[0.9, 0.1]]), np.array([0]))
        log.record(make_record(1, [[0.9, 0.1]]), np.array([1]))  # relabeled
        # round 0 contributed p(class 0) = 0.9, round 1 contributed p(class 1) = 0.1
        assert log.sum_label_prob[0] == pytest.approx(1.0)

    def test_empty_log_errors(self):
        log = DynamicsLog(1, 2)
        with pytest.raises(ValueError):
            log.confidence()
        with pytest.raises(ValueError):
            log.latest()

