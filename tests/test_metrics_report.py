import inspect
import json
from dataclasses import asdict, dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from noisygbdt import correct, detect, dynamics, gbdt
from noisygbdt.metrics_report import (RunReport, classification_metrics,
                                      detection_metrics, load_report,
                                      prediction_type_counts, tables_rows,
                                      write_report)


class TestClassificationMetrics:
    def test_perfect_predictions(self):
        y = np.array([0, 1, 1, 0])
        m = classification_metrics(y, y, 2)
        assert m == {"accuracy": 1, "precision": 1, "recall": 1, "f1": 1}

    def test_binary_confusion_example(self):
        # TP=3, FP=1, FN=2, TN=3
        labels = np.array([1, 1, 1, 1, 1, 0, 0, 0, 0])
        preds = np.array([1, 1, 1, 0, 0, 1, 0, 0, 0])
        m = classification_metrics(preds, labels, 2)
        assert m["precision"] == pytest.approx(0.75)
        assert m["recall"] == pytest.approx(0.6)
        assert m["f1"] == pytest.approx(2 / 3, abs=1e-3)

    def test_degenerate_single_class_predictor(self):
        labels = np.array([0, 0, 1, 1])
        preds = np.zeros(4, dtype=int)
        m = classification_metrics(preds, labels, 2)
        assert m["recall"] == 0.0  # positive class never predicted
        macro = classification_metrics(preds, labels, 3)
        assert macro["f1"] < 0.5

    def test_multiclass_macro_average(self):
        labels = np.array([0, 0, 1, 1, 2, 2])
        preds = np.array([0, 0, 1, 0, 2, 1])
        m = classification_metrics(preds, labels, 3)
        # per-class recall: 1.0, 0.5, 0.5
        assert m["recall"] == pytest.approx((1.0 + 0.5 + 0.5) / 3)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            classification_metrics(np.zeros(3), np.zeros(4), 2)

    @pytest.mark.properties
    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=40, deadline=None)
    def test_macro_f1_below_best_class_f1(self, seed):
        rng = np.random.default_rng(seed)
        c = 4
        labels = rng.integers(0, c, size=60)
        preds = rng.integers(0, c, size=60)
        m = classification_metrics(preds, labels, c)
        assert 0.0 <= m["accuracy"] <= 1.0
        per_class = []
        for k in range(c):
            mk = classification_metrics((preds == k).astype(int),
                                        (labels == k).astype(int), 2)
            per_class.append(mk["f1"])
        assert m["f1"] <= max(per_class) + 1e-12


# The scoring as it was written before flags and classes shared one
# precision/recall core, kept verbatim as the reference for exact equality.

@dataclass
class ReferenceDetectionMetrics:
    accuracy: float
    precision: float
    recall: float
    flagged_fraction: float
    flagged_count: int
    flagged_noisy_count: int


def reference_detection_metrics(flags, noise_mask) -> dict:
    flags = np.asarray(flags, dtype=bool)
    mask = np.asarray(noise_mask, dtype=bool)
    tp = int((flags & mask).sum())
    fp = int((flags & ~mask).sum())
    fn = int((~flags & mask).sum())
    return asdict(ReferenceDetectionMetrics(
        accuracy=float((flags == mask).mean()),
        precision=tp / (tp + fp) if tp + fp else 0.0,
        recall=tp / (tp + fn) if tp + fn else 0.0,
        flagged_fraction=float(flags.mean()),
        flagged_count=int(flags.sum()),
        flagged_noisy_count=tp,
    ))


def reference_binary_prf(predictions, labels, positive):
    tp = int(((predictions == positive) & (labels == positive)).sum())
    fp = int(((predictions == positive) & (labels != positive)).sum())
    fn = int(((predictions != positive) & (labels == positive)).sum())
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = (2 * precision * recall / (precision + recall)
          if precision + recall else 0.0)
    return precision, recall, f1


def reference_classification_metrics(predictions, labels, class_count):
    accuracy = float((predictions == labels).mean()) if len(labels) else 0.0
    if class_count == 2:
        precision, recall, f1 = reference_binary_prf(predictions, labels, 1)
    else:
        per = [reference_binary_prf(predictions, labels, k)
               for k in range(class_count)]
        precision = float(np.mean([p for p, _, _ in per]))
        recall = float(np.mean([r for _, r, _ in per]))
        f1 = float(np.mean([f for _, _, f in per]))
    return {"accuracy": accuracy, "precision": precision, "recall": recall,
            "f1": f1}


def assert_same_dict(got: dict, want: dict):
    # exact values, key order and types: the report's JSON must not change
    assert got == want
    assert list(got) == list(want)
    assert [type(v) for v in got.values()] == [type(v) for v in want.values()]


def bool_arrays(n):
    return st.one_of(st.just([False] * n), st.just([True] * n),
                     st.lists(st.booleans(), min_size=n, max_size=n))


@st.composite
def flags_and_mask(draw):
    n = draw(st.integers(min_value=1, max_value=60))
    return (np.array(draw(bool_arrays(n)), dtype=bool),
            np.array(draw(bool_arrays(n)), dtype=bool))


class TestOneCoreMatchesTheReference:
    @pytest.mark.properties
    @given(flags_and_mask())
    @example((np.zeros(9, bool), np.arange(9) % 3 == 0))   # all-false flags
    @example((np.ones(9, bool), np.arange(9) % 3 == 0))    # all-true flags
    @example((np.arange(9) % 2 == 0, np.zeros(9, bool)))   # all-false mask
    @example((np.ones(4, bool), np.zeros(4, bool)))
    @settings(max_examples=200, deadline=None)
    def test_detection_metrics(self, pair):
        flags, mask = pair
        assert_same_dict(detection_metrics(flags, mask),
                         reference_detection_metrics(flags, mask))

    @pytest.mark.properties
    @given(st.sampled_from([2, 7]), st.integers(min_value=1, max_value=60),
           st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=200, deadline=None)
    def test_classification_metrics(self, class_count, n, seed):
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, class_count, size=n)
        preds = rng.integers(0, class_count, size=n)
        assert_same_dict(classification_metrics(preds, labels, class_count),
                         reference_classification_metrics(preds, labels,
                                                          class_count))


TRUTH_PARAMETERS = {"noise_mask", "clean_labels"}


def public_functions(module):
    """The module's own public functions, and the public methods (with
    ``__init__`` and ``__call__``) of its own classes."""
    for name, obj in vars(module).items():
        if (name.startswith("_")
                or getattr(obj, "__module__", None) != module.__name__):
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if inspect.isfunction(member) and (
                        not attr.startswith("_")
                        or attr in ("__init__", "__call__")):
                    yield f"{name}.{attr}", member


# the trainer feeds detection and correction, so it takes no truth either
@pytest.mark.parametrize("module", [detect, correct, dynamics, gbdt],
                         ids=lambda m: m.__name__)
def test_detection_and_correction_never_see_the_truth(module):
    found = list(public_functions(module))
    assert found
    leaks = [(name, sorted(TRUTH_PARAMETERS
                           & set(inspect.signature(fn).parameters)))
             for name, fn in found]
    assert [leak for leak in leaks if leak[1]] == []


class TestPredictionTypes:
    def test_three_buckets(self):
        clean = np.array([0, 0, 0, 1])
        noisy = np.array([1, 1, 1, 1])  # first three are noise-mask instances
        preds = np.array([0, 1, 2, 0])
        counts = prediction_type_counts([preds, noisy], clean, noisy)
        assert counts == {"true_match": [1, 0], "noisy_match": [1, 3],
                          "other": [1, 0]}

    def test_counts_partition_mask(self):
        rng = np.random.default_rng(0)
        clean = rng.integers(0, 3, 50)
        noisy = clean.copy()
        flip = rng.random(50) < 0.4
        noisy[flip] = (clean[flip] + 1) % 3
        preds = [rng.integers(0, 3, 50).astype(np.uint8) for _ in range(4)]
        counts = prediction_type_counts(preds, clean, noisy)
        for t, p in enumerate(preds):
            assert (sum(v[t] for v in counts.values())
                    == int((clean != noisy).sum()))
            assert counts["true_match"][t] == int(
                ((p == clean) & (clean != noisy)).sum())

    def test_empty_mask(self):
        clean = np.array([0, 1])
        counts = prediction_type_counts([clean, 1 - clean], clean, clean)
        assert counts == {"true_match": [], "noisy_match": [], "other": []}


def sample_report():
    return RunReport(
        dataset="toy", noise_kind="pair", noise_rate=0.3,
        detection="aum", correction="remove", seed=7,
        config={"n_rounds": 3},
        rounds_trained=3, best_round=2, stopped_early=False,
        empirical_noise_rate=0.29,
        series={"train_logloss": [1.0, 0.8, 0.7],
                "test_logloss": [1.1, 0.9, 0.85],
                "train_accuracy": [0.5, 0.6, 0.7],
                "test_accuracy": [0.55, 0.65, 0.72]},
        prediction_types={"true_match": [5, 4, 3],
                          "noisy_match": [1, 2, 3], "other": [1, 1, 1]},
        detector_series={"aum": {"round": [2], "accuracy": [0.9],
                                 "precision": [0.8], "recall": [0.7],
                                 "flagged_fraction": [0.28],
                                 "flagged_count": [28],
                                 "flagged_noisy_count": [22]}},
        evaluation={"early_stop": {"round": 2, "methods": {
            "aum": {"accuracy": 0.9, "precision": 0.8, "recall": 0.7,
                    "flagged_fraction": 0.28, "round": 2}}}},
        final={"accuracy": 0.861, "precision": 0.7844, "recall": 0.5703,
               "f1": 0.6606},
        correction_summary={"mode": "remove", "removed_total": 28,
                            "relabeled_total": 0, "budget_hit_rounds": []},
        correction_events=[{"round": 2, "instance_id": 4, "action": "remove",
                            "old_label": 1, "new_label": "",
                            "was_actually_noisy": 1}],
    )


class TestWriteReport:
    def test_series_row_count(self, tmp_path):
        paths = write_report(sample_report(), tmp_path)
        lines = paths["series"].read_text().strip().splitlines()
        assert len(lines) == 1 + 3

    def test_byte_identical_except_timestamp(self, tmp_path):
        r1 = sample_report()
        r2 = sample_report()
        p1 = write_report(r1, tmp_path / "a")["report"]
        p2 = write_report(r2, tmp_path / "b")["report"]
        d1 = json.loads(p1.read_text())
        d2 = json.loads(p2.read_text())
        d1.pop("created_at")
        d2.pop("created_at")
        assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)

    def test_round_trip(self, tmp_path):
        paths = write_report(sample_report(), tmp_path)
        back = load_report(paths["report"])
        assert back.final["accuracy"] == pytest.approx(0.861)
        assert back.detector_series["aum"]["accuracy"] == [0.9]

    def test_tables_values_are_percent_two_decimals(self, tmp_path):
        rows = tables_rows(sample_report())
        by_metric = {r["metric"]: r for r in rows if r["detection"] == "aum"
                     and r["metric"] in ("accuracy", "precision", "recall", "f1")}
        # classification rows keep the run's own detection column
        acc = [r for r in rows if r["metric"] == "accuracy"][0]
        assert acc["value"] == 86.1
        prec = [r for r in rows if r["metric"] == "precision"][0]
        assert prec["value"] == 78.44
        det = [r for r in rows if r["metric"] == "detection_accuracy"][0]
        assert det["value"] == 90.0
        assert by_metric  # detection rows present

    def test_corrections_csv(self, tmp_path):
        paths = write_report(sample_report(), tmp_path)
        lines = paths["corrections"].read_text().strip().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("round,instance_id,action")
