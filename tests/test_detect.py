import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import threshold_dataset
from noisygbdt import detect, noise
from noisygbdt.detect import (ALL_METHODS, HIGH_IS_NOISY, LOW_IS_NOISY, Gmm1D,
                              _gmm_flags, aum_scores, confcorr_scores,
                              fit_gmm_1d, gmm_decision_threshold,
                              gradient_scores, lrt_scores, score_all)
from noisygbdt.dynamics import DynamicsLog, EpochRecord
from noisygbdt.gbdt import BoostConfig, train
from noisygbdt.metrics_report import detection_metrics, detection_report


class TestLrt:
    def test_label_equals_prediction_not_flagged(self):
        s = lrt_scores(np.array([[0.7, 0.2, 0.1]]), np.array([0]))
        assert s.scores[0] == pytest.approx(1.0)
        assert not s.flagged[0]

    def test_ratio_value_and_flag(self):
        s = lrt_scores(np.array([[0.7, 0.2, 0.1]]), np.array([1]))
        assert s.scores[0] == pytest.approx(0.2 / 0.7)
        assert s.flagged[0]

    @pytest.mark.properties
    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=30, deadline=None)
    def test_unit_epsilon_flags_exactly_disagreements(self, seed):
        rng = np.random.default_rng(seed)
        raw = rng.random((40, 4)) + 1e-6
        probs = raw / raw.sum(axis=1, keepdims=True)
        labels = rng.integers(0, 4, size=40)
        s = lrt_scores(probs, labels)
        disagree = probs.argmax(axis=1) != labels
        # ties between the label and the argmax keep the ratio at exactly 1
        expected = probs[np.arange(40), labels] < probs.max(axis=1)
        assert np.array_equal(s.flagged, expected)
        assert np.array_equal(s.flagged, disagree) or not disagree.any()


class TestAum:
    def test_margin_average(self):
        window = np.array([[[2.0, 1.0, 0.0]], [[0.0, 3.0, 0.0]]])
        s = aum_scores(window, np.array([0]))
        assert s.scores[0] == pytest.approx(-1.0)  # margins 1 and -3
        assert s.flagged[0]

    def test_single_round_argmax_label_positive(self):
        window = np.array([[[3.0, 1.0, 0.5]]])
        s = aum_scores(window, np.array([0]))
        assert s.scores[0] > 0
        assert not s.flagged[0]

    @pytest.mark.properties
    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=30, deadline=None)
    def test_shift_invariance(self, seed):
        rng = np.random.default_rng(seed)
        window = rng.normal(0, 2, size=(3, 10, 4))
        labels = rng.integers(0, 4, size=10)
        shifts = rng.normal(0, 5, size=(3, 10, 1))
        s1 = aum_scores(window, labels)
        s2 = aum_scores(window + shifts, labels)
        assert np.allclose(s1.scores, s2.scores, atol=1e-9)

    def test_needs_two_classes(self):
        with pytest.raises(ValueError):
            aum_scores(np.zeros((1, 3, 1)), np.zeros(3, dtype=int))

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            aum_scores(np.zeros((0, 3, 2)), np.zeros(3, dtype=int))


def fill_log(probs_per_round, labels):
    probs0 = np.asarray(probs_per_round[0], dtype=np.float64)
    n, c = probs0.shape
    log = DynamicsLog(n, c)
    for t, probs in enumerate(probs_per_round):
        probs = np.asarray(probs, dtype=np.float64)
        g = probs.copy()
        g[np.arange(n), labels] -= 1.0
        log.record(EpochRecord(round=t, logits=np.log(np.clip(probs, 1e-12, None)),
                               probs=probs, predicted=probs.argmax(axis=1),
                               max_abs_gradient=np.abs(g).max(axis=1)),
                   labels)
    return log


class TestConfCorr:
    def test_stats_ranges_and_always_correct(self):
        labels = np.array([1, 0])
        rounds = [[[0.0, 1.0], [1.0, 0.0]]] * 5
        log = fill_log(rounds, labels)
        scores = confcorr_scores(log)
        assert np.allclose(log.confidence(), 1.0)
        assert np.allclose(log.correctness(), 1.0)
        assert np.allclose(scores.scores, 1.0)
        assert not scores.flagged.any()  # identical confident scores

    def test_bimodal_population_flags_low_cluster(self):
        rng = np.random.default_rng(0)
        n = 400
        labels = np.zeros(n, dtype=np.int64)
        good = rng.uniform(0.88, 0.98, n // 2)
        bad = rng.uniform(0.02, 0.12, n - n // 2)
        p1 = np.concatenate([good, bad])
        rounds = [np.column_stack([p1, 1 - p1]) for _ in range(6)]
        log = fill_log(rounds, labels)
        scores = confcorr_scores(log)
        assert scores.flagged[n // 2:].all()
        assert not scores.flagged[:n // 2].any()

    @pytest.mark.properties
    def test_stat_ranges_property(self):
        rng = np.random.default_rng(5)
        n, c = 60, 4
        labels = rng.integers(0, c, size=n)
        rounds = []
        for _ in range(11):
            raw = rng.random((n, c))
            rounds.append(raw / raw.sum(axis=1, keepdims=True))
        log = fill_log(rounds, labels)
        confidence = log.confidence()
        assert (confidence >= 0).all() and (confidence <= 1).all()
        gamma_steps = log.correctness() * 11
        assert np.abs(gamma_steps - np.round(gamma_steps)).max() <= 1e-9


class TestGradients:
    def test_identical_scores_flag_none_with_warning(self):
        window = np.full((3, 10), 0.25)
        with pytest.warns(UserWarning, match="degenerate"):
            s = gradient_scores(window)
        assert not s.flagged.any()
        assert "degenerate" in s.note

    def test_bimodal_flags_high_cluster(self):
        rng = np.random.default_rng(1)
        low = rng.normal(0.1, 0.01, 50)
        high = rng.normal(0.9, 0.01, 50)
        window = np.concatenate([low, high])[None, :]
        s = gradient_scores(window)
        assert s.flagged[50:].all()
        assert not s.flagged[:50].any()

    def test_window_max_aggregation(self):
        window = np.array([[0.1, 0.9], [0.8, 0.2]])
        s = gradient_scores(window)
        assert np.allclose(s.scores, [0.8, 0.9])

    def test_compressed_scores_not_flagged(self):
        # a fitted model squeezes every gradient into a sliver; the mixture
        # split inside it is not treated as a noise population
        rng = np.random.default_rng(2)
        window = rng.uniform(0.10, 0.13, size=(3, 200))
        s = gradient_scores(window)
        assert not s.flagged.any()
        assert "indistinguishable" in s.note


class TestGmm:
    def test_recovers_two_clusters(self):
        rng = np.random.default_rng(0)
        x = np.concatenate([rng.normal(0.0, 0.01, 500),
                            rng.normal(10.0, 0.01, 500)])
        gmm = fit_gmm_1d(x)
        assert abs(gmm.means[0] - 0.0) < 0.1
        assert abs(gmm.means[1] - 10.0) < 0.1
        assert abs(gmm.weights[0] - 0.5) < 0.05
        assert abs(gmm.weights[1] - 0.5) < 0.05

    def test_two_atoms_hit_variance_floor(self):
        gmm = fit_gmm_1d(np.array([0.0, 0.0, 10.0, 10.0]))
        assert gmm.means[0] == pytest.approx(0.0, abs=1e-9)
        assert gmm.means[1] == pytest.approx(10.0, abs=1e-9)
        floor = 1e-9 * 100.0
        assert gmm.variances[0] == pytest.approx(floor)
        assert gmm.variances[1] == pytest.approx(floor)

    @pytest.mark.properties
    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=25, deadline=None)
    def test_log_likelihood_monotone(self, seed):
        rng = np.random.default_rng(seed)
        x = np.concatenate([rng.normal(0, 1, 80), rng.normal(4, 2, 40)])
        gmm = fit_gmm_1d(x)
        lls = np.array(gmm.log_likelihoods)
        assert (np.diff(lls) >= -1e-9).all()

    def test_identical_values_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            fit_gmm_1d(np.full(10, 3.0))

    def test_decision_threshold_between_separated_means(self):
        rng = np.random.default_rng(4)
        x = np.concatenate([rng.normal(0, 0.3, 300), rng.normal(5, 0.3, 300)])
        gmm = fit_gmm_1d(x)
        cut = gmm_decision_threshold(gmm)
        assert 1.0 < cut < 4.0


def _reference_fit_gmm_1d(values, max_iter=200, tol=1e-6):
    """EM in the direct form: per iteration an (n, 2) log-density, a
    max-shifted log-sum-exp normaliser, (n, 2) responsibilities and weighted
    (n, 2) sums over the raw, uncentred scores."""
    x = np.asarray(values, dtype=np.float64)
    span = float(x.max() - x.min())
    var_floor = 1e-9 * span * span
    mu = np.array([np.percentile(x, 25.0), np.percentile(x, 75.0)])
    var = np.full(2, max(float(x.var()), var_floor))
    w = np.array([0.5, 0.5])
    lls = []
    prev_ll = -np.inf
    for _ in range(max_iter):
        log_p = (-0.5 * np.log(2.0 * np.pi * var)
                 - (x[:, None] - mu) ** 2 / (2.0 * var)
                 + np.log(w))
        m = log_p.max(axis=1, keepdims=True)
        log_norm = m + np.log(np.exp(log_p - m).sum(axis=1, keepdims=True))
        ll = float(log_norm.sum())
        lls.append(ll)
        if ll - prev_ll < tol and np.isfinite(prev_ll):
            break
        prev_ll = ll
        resp = np.exp(log_p - log_norm)
        nk = np.maximum(resp.sum(axis=0), 1e-12)
        mu = (resp * x[:, None]).sum(axis=0) / nk
        var = (resp * (x[:, None] - mu) ** 2).sum(axis=0) / nk
        var = np.maximum(var, var_floor)
        w = nk / len(x)
    order = np.argsort(mu, kind="stable")
    return Gmm1D(means=mu[order], variances=var[order], weights=w[order],
                 log_likelihoods=lls)


def _confcorr_like(seed, n=456, rounds=40):
    # (mean label probability + fraction of rounds correct) / 2: a
    # continuous half plus a half on the grid k / rounds
    rng = np.random.default_rng(seed)
    beta = np.concatenate([rng.beta(8.0, 2.0, n - n // 4),
                           rng.beta(2.0, 5.0, n // 4)])
    return 0.5 * (beta + rng.binomial(rounds, beta) / rounds)


def _two_clusters(seed):
    rng = np.random.default_rng(seed)
    return np.concatenate([rng.normal(0.0, 1.0, 80), rng.normal(4.0, 2.0, 40)])


def _offset(seed):
    # a spread of about 10 on top of 1e6: raw second moments would cancel
    # in all but the last few digits. A much smaller spread costs the
    # reference its own 1e-9 accuracy, as it subtracts a rounded mean from
    # the raw scores.
    rng = np.random.default_rng(seed)
    return 1e6 + np.concatenate([rng.normal(0.0, 5.0, 150),
                                 rng.normal(25.0, 10.0, 100)])


def _collapse():
    # one far outlier below a 20,000-row cluster: the lower component shrinks
    # onto it, weight 1 / 20,001, floored variance; its sums are the totals
    # minus the upper component's
    rng = np.random.default_rng(3)
    return np.append(rng.normal(0.0, 1.0, 20_000), -1e3)


ORACLE_CASES = {
    **{f"two_clusters_{s}": (lambda s=s: _two_clusters(s)) for s in range(3)},
    **{f"confcorr_{s}": (lambda s=s: _confcorr_like(s)) for s in range(3)},
    **{f"offset_{s}": (lambda s=s: _offset(s)) for s in range(3)},
    "two_atoms": lambda: np.array([0.0, 0.0, 10.0, 10.0]),
    "collapse": _collapse,
}


class TestFusedEmMatchesReference:
    """The one-pass loop of ``fit_gmm_1d`` agrees with the direct (n, 2)
    form: the same iteration count, parameters to 1e-9 and the same flags."""

    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_same_fit_and_flags(self, case, monkeypatch):
        x = ORACLE_CASES[case]()
        got, want = fit_gmm_1d(x), _reference_fit_gmm_1d(x)
        assert len(got.log_likelihoods) == len(want.log_likelihoods)
        for key in ("means", "variances", "weights"):
            np.testing.assert_allclose(getattr(got, key), getattr(want, key),
                                       rtol=1e-9, err_msg=key)
        ours = {p: _gmm_flags(x, p) for p in (LOW_IS_NOISY, HIGH_IS_NOISY)}
        monkeypatch.setattr(detect, "fit_gmm_1d", _reference_fit_gmm_1d)
        for polarity, (flags, _, note) in ours.items():
            ref_flags, _, ref_note = _gmm_flags(x, polarity)
            assert note == ref_note
            assert np.array_equal(flags, ref_flags)

    def test_collapse_reaches_a_single_row(self):
        x = _collapse()
        gmm = fit_gmm_1d(x)
        assert gmm.weights[0] == pytest.approx(1.0 / 20_001, rel=1e-9)
        assert gmm.variances[0] == pytest.approx(1e-9 * np.ptp(x) ** 2,
                                                 rel=1e-12)


def _mixture(means, variances, upper_to_lower_log_ratio):
    w1 = 1.0 / (1.0 + math.exp(-upper_to_lower_log_ratio))
    return Gmm1D(means=np.array(means, dtype=float),
                 variances=np.array(variances, dtype=float),
                 weights=np.array([1.0 - w1, w1]))


def _flags_follow_posterior(gmm, cut, x):
    """Where the posterior of the upper component is clearly on one side of
    one half, ``x > cut`` says which side."""
    post = gmm.posterior_upper(x)
    clear = np.abs(post - 0.5) > 1e-9
    return np.array_equal((x > cut)[clear], (post > 0.5)[clear])


class TestDecisionThreshold:
    def test_equal_variances_cut_halfway(self):
        # two atoms at 0 and 10: equal weights and floored variances
        gmm = fit_gmm_1d(np.repeat([0.0, 10.0], 50))
        assert gmm.variances[0] == gmm.variances[1]
        assert gmm_decision_threshold(gmm) == 5.0

    def test_wide_component_engulfs_the_narrow_mean(self):
        # the heavier, wider upper component wins even at the lower mean, so
        # the crossing lies below both means: the rising root of
        # x^2 + 2x + 4L - 2 log 2 - 1 = 0 with L the log weight ratio
        gmm = _mixture([0.0, 1.0], [1.0, 2.0], 0.7)
        cut = gmm_decision_threshold(gmm)
        assert cut == pytest.approx(-1.0 + math.sqrt(2.0 + 2.0 * math.log(2.0)
                                                      - 4.0 * 0.7), rel=1e-12)
        assert cut < gmm.means[0]
        assert gmm.posterior_upper(cut)[0] == pytest.approx(0.5, abs=1e-12)
        assert _flags_follow_posterior(gmm, cut, np.linspace(cut - 0.5, 3, 301))

    @pytest.mark.parametrize("variances, log_ratio, expected", [
        ([1.0, 2.0], 2.0, -math.inf),    # the wider upper one everywhere
        ([2.0, 1.0], -2.0, math.inf),    # the wider lower one everywhere
    ])
    def test_no_crossing(self, variances, log_ratio, expected):
        gmm = _mixture([0.0, 1.0], variances, log_ratio)
        cut = gmm_decision_threshold(gmm)
        assert cut == expected
        x = np.linspace(-10.0, 10.0, 401)
        assert _flags_follow_posterior(gmm, cut, x)
        # -inf flags every score as the upper component's, +inf none
        assert (x > cut).all() if expected < 0 else not (x > cut).any()

    @pytest.mark.properties
    @given(m0=st.floats(-5.0, 5.0), gap=st.floats(0.1, 5.0),
           v0=st.floats(1e-3, 10.0), v1=st.floats(1e-3, 10.0),
           log_ratio=st.floats(-4.0, 4.0))
    @settings(max_examples=200, deadline=None)
    def test_cut_is_where_the_posterior_crosses_one_half(self, m0, gap, v0,
                                                          v1, log_ratio):
        gmm = _mixture([m0, m0 + gap], [v0, v1], log_ratio)
        cut = gmm_decision_threshold(gmm)
        lo, hi = m0, m0 + gap
        if math.isfinite(cut):
            assert gmm.posterior_upper(cut)[0] == pytest.approx(0.5, abs=1e-6)
            lo, hi = min(lo, cut), max(hi, cut)
        # between the means and the cut there is no second crossing
        assert _flags_follow_posterior(gmm, cut, np.linspace(lo, hi, 257))


class TestThreshold:
    def test_gmm_matches_nearest_mean_when_separated(self):
        rng = np.random.default_rng(2)
        vals = np.concatenate([rng.normal(0.05, 0.02, 200),
                               rng.normal(0.95, 0.02, 100)])
        flags, _, _ = _gmm_flags(vals, HIGH_IS_NOISY)
        nearest_hi = np.abs(vals - 0.95) < np.abs(vals - 0.05)
        assert np.array_equal(flags, nearest_hi)

    @pytest.mark.properties
    @given(a=st.floats(min_value=0.1, max_value=10.0),
           b=st.floats(min_value=-5.0, max_value=5.0))
    @settings(max_examples=25, deadline=None)
    def test_gmm_flags_affine_invariant(self, a, b):
        # the smallest scale keeps the component gap (about 0.07) above
        # MIN_COMPONENT_GAP
        rng = np.random.default_rng(7)
        vals = np.concatenate([rng.normal(0.1, 0.03, 120),
                               rng.normal(0.8, 0.05, 80)])
        base, _, _ = _gmm_flags(vals, HIGH_IS_NOISY)
        scaled, _, _ = _gmm_flags(a * vals + b, HIGH_IS_NOISY)
        assert base.any()
        assert np.array_equal(base, scaled)


class TestDetectionMetrics:
    def test_perfect_flags(self):
        mask = np.array([True, False, True])
        m = detection_metrics(mask, mask)
        assert (m["accuracy"], m["precision"], m["recall"]) == (1.0, 1.0, 1.0)

    def test_no_flags_thirty_percent_noise(self):
        mask = np.zeros(100, bool)
        mask[:30] = True
        m = detection_metrics(np.zeros(100, bool), mask)
        assert m["accuracy"] == pytest.approx(0.7)
        assert m["recall"] == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            detection_metrics(np.zeros(3, bool), np.zeros(4, bool))


class TestDetectionReport:
    MASK = np.array([True, False, False, True])
    IDS = np.array([20, 21, 23, 25])   # the fit set's Dataset ids

    def flag_rounds(self, rounds):
        # round r flags rows 0..(r mod 4): "a" flags, "b" never does
        return [(r, {"a": np.arange(4) <= r % 4, "b": np.zeros(4, bool)})
                for r in rounds]

    def test_series_match_detection_metrics(self):
        flag_rounds = self.flag_rounds([3, 4, 5])
        series, _, _, _ = detection_report(flag_rounds, [], self.MASK,
                                           self.IDS, 5)
        assert list(series) == ["a", "b"]
        assert series["a"]["round"] == [3, 4, 5]
        for i, (_, flags) in enumerate(flag_rounds):
            m = detection_metrics(flags["a"], self.MASK)
            for key in ("accuracy", "precision", "recall",
                        "flagged_fraction", "flagged_count",
                        "flagged_noisy_count"):
                assert series["a"][key][i] == m[key]
        assert series["b"]["flagged_count"] == [0, 0, 0]

    def test_early_stop_inside_detection_rounds(self):
        _, evaluation, _, _ = detection_report(self.flag_rounds([3, 4, 5]), [],
                                            self.MASK, self.IDS, 4)
        first = evaluation["first_after_warmup"]
        assert first["round"] == 3 and first["methods"]["a"]["round"] == 3
        stop = evaluation["early_stop"]
        assert stop["round"] == 4 and stop["methods"]["a"]["round"] == 4
        assert stop["methods"]["a"]["flagged_fraction"] == 0.25
        assert set(stop["methods"]["a"]) == {"accuracy", "precision",
                                             "recall", "flagged_fraction",
                                             "round"}

    def test_early_stop_before_detection_rounds(self):
        # the best round precedes the warm-up's end: evaluate at the first
        # detection round
        _, evaluation, _, _ = detection_report(self.flag_rounds([3, 4, 5]), [],
                                            self.MASK, self.IDS, 1)
        stop = evaluation["early_stop"]
        assert stop["round"] == 3 and stop["methods"]["a"]["round"] == 3

    def test_early_stop_after_detection_rounds(self):
        _, evaluation, _, _ = detection_report(self.flag_rounds([3, 4, 5]), [],
                                            self.MASK, self.IDS, 9)
        stop = evaluation["early_stop"]
        assert stop["round"] == 9 and stop["methods"]["a"]["round"] == 5

    def test_early_stop_between_detection_rounds(self):
        _, evaluation, _, _ = detection_report(self.flag_rounds([3, 6]), [],
                                            self.MASK, self.IDS, 4)
        assert evaluation["early_stop"]["methods"]["a"]["round"] == 6

    def test_peak_flagged_fraction_and_its_round(self):
        _, _, peaks, _ = detection_report(self.flag_rounds([2, 3, 4, 7]), [],
                                          self.MASK, self.IDS, 5)
        # "a" flags 3, 4, 1 and 4 of 4 rows; the first peak round wins
        assert peaks == {"a": {"flagged_fraction": 1.0, "round": 3},
                         "b": {"flagged_fraction": 0.0, "round": 2}}

    def test_no_detectors_no_evaluation(self):
        series, evaluation, _, _ = detection_report([(3, {}), (4, {})], [],
                                                 self.MASK, self.IDS, 4)
        assert series == {} and evaluation == {}

    def test_events_learn_the_ground_truth(self):
        events = [{"round": 3, "instance_id": 0, "action": "remove"},
                  {"round": 3, "instance_id": 1, "action": "relabel"},
                  {"round": 3, "instance_id": -1, "action": "budget_hit"}]
        _, _, _, tagged = detection_report([], events, self.MASK, self.IDS,
                                           3)
        assert [ev.get("was_actually_noisy") for ev in tagged] == [
            True, False, None]
        # positions become Dataset ids; the budget-hit marker stays -1
        assert [ev["instance_id"] for ev in tagged] == [20, 21, -1]
        assert "was_actually_noisy" not in events[0]
        assert events[0]["instance_id"] == 0


class TestCleanSeparableNoFalseAlarms:
    def test_all_detectors_quiet_after_warmup(self):
        # a perfectly fitted, consistently labeled problem must not be flagged
        ds = threshold_dataset(n=200, seed=3)
        res = train(ds, BoostConfig(n_rounds=20, warmup_rounds=5))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            scored = score_all(res.dynamics, ds.noisy_labels, ALL_METHODS)
        for method, s in scored.items():
            acc = detection_metrics(s.flagged, ds.noise_mask)["accuracy"]
            assert acc >= 0.999, f"{method} false alarms on clean data"
