import dataclasses
import gc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import as_lists, blob_dataset, make_dataset, threshold_dataset
from noisygbdt import datasets, gbdt, noise
from noisygbdt.correct import NoiseHandler
from noisygbdt.data_ingest import preprocess
from noisygbdt.experiment import ExperimentConfig, prepare_data
from noisygbdt.metrics_report import classification_metrics
from noisygbdt.gbdt import (Binner, BoostConfig, Booster, EarlyStopper,
                            TrainingDivergedError, _ExactSplitter,
                            _HistSplitter, _fit_tree, _midpoint, _split_gains,
                            _splitter, build_tree, grad_hess, leaf_value,
                            probabilities, train)


def raw_scores(trees, features: np.ndarray) -> np.ndarray:
    """(n, width) raw scores: each column sums its trees' predictions, round
    by round."""
    out = np.zeros((len(features), len(trees[0])))
    for round_trees in trees:
        for k, tree in enumerate(round_trees):
            out[:, k] += tree.predict(features)
    return out


class TestProbabilities:
    def test_equal_logits_uniform(self):
        p = probabilities(np.zeros((3, 4)))
        assert np.allclose(p, 0.25)

    def test_logistic_zero_is_half(self):
        p = probabilities(np.zeros((2, 1)))
        assert p.shape == (2, 2)
        assert np.allclose(p, 0.5)

    def test_softmax_against_direct_exponentiation(self):
        z = np.array([[2.0, 1.0, 0.0]])
        expected = np.exp(z[0]) / np.exp(z[0]).sum()
        p = probabilities(z)[0]
        assert np.allclose(p, expected, atol=1e-12)
        assert np.allclose(p, [0.6652, 0.2447, 0.0900], atol=5e-5)

    def test_non_finite_logit_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            probabilities(np.array([[np.nan, 0.0]]))

    @pytest.mark.properties
    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=30, deadline=None)
    def test_rows_sum_to_one(self, seed):
        rng = np.random.default_rng(seed)
        z = rng.normal(0, 5, size=(20, 5))
        p = probabilities(z)
        assert np.abs(p.sum(axis=1) - 1.0).max() <= 1e-9


class TestGradHess:
    def test_logistic_at_half(self):
        g, h = grad_hess(np.array([[0.5, 0.5]]), np.array([1]))
        assert g.shape == h.shape == (1, 1)
        assert g[0, 0] == pytest.approx(-0.5)
        assert h[0, 0] == pytest.approx(0.25)

    def test_softprob_uniform(self):
        p = np.full((1, 4), 0.25)
        g, h = grad_hess(p, np.array([0]))
        assert np.allclose(g[0], [-0.75, 0.25, 0.25, 0.25])
        assert np.allclose(h[0], 2 * 0.25 * 0.75)

    @pytest.mark.properties
    def test_gradient_matches_finite_differences(self):
        # central differences of the log-loss w.r.t. each logit
        rng = np.random.default_rng(3)
        z = rng.normal(0, 2, size=(10, 4))
        labels = rng.integers(0, 4, size=10)
        g, _ = grad_hess(probabilities(z), labels)
        eps = 1e-5
        for i in range(10):
            for k in range(4):
                zp, zm = z.copy(), z.copy()
                zp[i, k] += eps
                zm[i, k] -= eps
                lp = -np.log(probabilities(zp)[i, labels[i]])
                lm = -np.log(probabilities(zm)[i, labels[i]])
                fd = (lp - lm) / (2 * eps)
                assert abs(fd - g[i, k]) <= 1e-6

    @pytest.mark.properties
    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=30, deadline=None)
    def test_per_instance_gradients_sum_to_zero(self, seed):
        rng = np.random.default_rng(seed)
        z = rng.normal(0, 3, size=(30, 6))
        labels = rng.integers(0, 6, size=30)
        g, h = grad_hess(probabilities(z), labels)
        assert np.abs(g.sum(axis=1)).max() <= 1e-9
        assert (h >= 1e-16).all()


class TestSplitMath:
    def test_gain_formula(self):
        # left (g, h) = (-2, 1), right (2, 1), lambda 1
        gains = _split_gains(np.array([-2.0]), np.array([1.0]), 0.0, 2.0, 1.0)
        assert gains[0] == pytest.approx(2.0)

    def test_leaf_value_formula(self):
        assert leaf_value(-1.0, 1.0, 1.0, 0.3) == pytest.approx(0.15)


class TestBuildTree:
    def test_equal_gradients_single_leaf(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(50, 3))
        g = np.ones(50)
        h = np.ones(50)
        tree = build_tree(x, g, h, np.ones(50), BoostConfig())
        assert len(tree.feature) == 1
        assert tree.feature[0] == -1

    def test_perfect_split_found(self):
        x = np.array([[0.0], [1.0], [2.0], [3.0]])
        g = np.array([-1.0, -1.0, 1.0, 1.0])
        h = np.ones(4)
        tree = build_tree(x, g, h, np.ones(4), BoostConfig(max_depth=1))
        assert tree.feature[0] == 0
        assert tree.threshold[0] == pytest.approx(1.5)  # midpoint of 1 and 2
        leaf_vals = tree.predict(x)
        assert leaf_vals[0] == pytest.approx(leaf_value(-2, 2, 1.0, 0.3))
        assert leaf_vals[3] == pytest.approx(leaf_value(2, 2, 1.0, 0.3))

    def test_all_weights_zero_errors(self):
        x = np.zeros((3, 1))
        with pytest.raises(ValueError, match="zero"):
            build_tree(x, np.ones(3), np.ones(3), np.zeros(3), BoostConfig())

    def test_bad_regularisation_raises_value_error(self):
        x = np.array([[0.0], [1.0], [2.0], [3.0]])
        g = np.array([-1.0, -1.0, 1.0, 1.0])
        with pytest.raises(ValueError, match="l2_reg"):
            build_tree(x, g, np.zeros(4), np.ones(4), BoostConfig(l2_reg=0.0))
        with pytest.raises(ValueError, match="l2_reg"):
            build_tree(x, g, np.ones(4), np.ones(4), BoostConfig(l2_reg=-1.0))

    @pytest.mark.parametrize("n", [200, 3000], ids=["exact", "hist"])
    def test_non_finite_features_rejected(self, n):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(n, 3))
        x[::7, 0] = np.nan
        assert _splitter(x, np.arange(n), BoostConfig()).method == (
            "exact" if n == 200 else "hist")
        with pytest.raises(ValueError, match="finite"):
            build_tree(x, rng.normal(size=n), np.ones(n), np.ones(n),
                       BoostConfig(max_depth=2))

    def test_negative_hessians_rejected(self):
        x = np.array([[0.0], [1.0], [2.0], [3.0]])
        h = np.array([1.0, -1.0, 1.0, 1.0])
        with pytest.raises(ValueError, match="hessians"):
            build_tree(x, np.ones(4), h, np.ones(4), BoostConfig())

    def test_exact_and_hist_agree_on_small_data(self, monkeypatch):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(120, 4))
        g = rng.normal(size=120)
        h = np.abs(rng.normal(size=120)) + 0.1
        cfg = BoostConfig(max_depth=3)
        t_exact = build_tree(x, g, h, np.ones(120), cfg)
        monkeypatch.setattr(gbdt, "_HIST_THRESHOLD", 0)
        t_hist = build_tree(x, g, h, np.ones(120), cfg)
        # with fewer distinct values than bins the cut grids coincide
        assert np.allclose(t_exact.predict(x), t_hist.predict(x))

    @pytest.mark.properties
    def test_zero_weight_equals_deletion(self):
        rng = np.random.default_rng(9)
        n = 150
        x = rng.normal(size=(n, 3))
        g = rng.normal(size=n)
        h = np.abs(rng.normal(size=n)) + 0.1
        drop = rng.random(n) < 0.3
        w = np.where(drop, 0.0, 1.0)
        t_w = build_tree(x, g, h, w, BoostConfig())
        keep = ~drop
        t_d = build_tree(x[keep], g[keep], h[keep], np.ones(keep.sum()),
                         BoostConfig())
        assert as_lists(t_w) == as_lists(t_d)


class TestTreeGrower:
    @pytest.mark.parametrize("method", ["hist", "exact"])
    def test_every_leaf_is_reached_by_a_fitted_row(self, method, monkeypatch):
        # a cut past every fitted row of a node would split off an empty
        # leaf of value 0 that only held-out or zero-weight rows reach
        monkeypatch.setattr(gbdt, "_HIST_THRESHOLD",
                            0 if method == "hist" else 10**9)
        rng = np.random.default_rng(11)
        cfg = BoostConfig()
        for _ in range(300):
            n, d = int(rng.integers(2, 200)), int(rng.integers(1, 5))
            x = np.round(rng.normal(size=(n, d)), 1)
            labels = rng.integers(0, 2, size=n)
            g, h = grad_hess(probabilities(rng.normal(size=(n, 1))), labels)
            rows = np.flatnonzero(rng.random(n) < 0.8)
            if rows.size == 0:
                rows = np.arange(n)
            splitter = _splitter(x, rows, cfg)
            assert splitter.method == method
            tree, leaf_of_row = _fit_tree(splitter, g[:, 0], h[:, 0], rows,
                                          cfg)
            leaves = np.flatnonzero(tree.feature < 0)
            assert set(leaves.tolist()) == set(leaf_of_row[rows].tolist())

    @pytest.mark.parametrize("method", ["hist", "exact"])
    def test_grown_tree_leaves_no_reference_cycle(self, method, monkeypatch):
        # arrays held by a cycle wait for a full garbage collection, and a
        # run's trees then pile up their gradients in memory
        monkeypatch.setattr(gbdt, "_HIST_THRESHOLD",
                            0 if method == "hist" else 10**9)
        rng = np.random.default_rng(3)
        x = rng.normal(size=(300, 3))
        g, h, rows = rng.normal(size=300), np.ones(300), np.arange(300)
        cfg = BoostConfig()
        splitter = _splitter(x, rows, cfg)
        gc.collect()
        gc.disable()
        try:
            tree, _ = _fit_tree(splitter, g, h, rows, cfg)
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert len(tree.feature) > 15


def _reference_best_split(self, rows, g, h, g_total, h_total):
    """The exact split search as a per-feature loop with a per-node stable
    sort: the oracle for the presorted, all-features search."""
    lam = self.lam
    parent = g_total * g_total / (h_total + lam)
    best_gain = -np.inf
    best = None
    gr_ = g[rows]
    hr_ = h[rows]
    for j in range(self.x.shape[1]):
        xv = self.x[rows, j]
        order = np.argsort(xv, kind="stable")
        xs = xv[order]
        if xs[0] == xs[-1]:
            continue
        gl = np.cumsum(gr_[order])[:-1]
        hl = np.cumsum(hr_[order])[:-1]
        grh = g_total - gl
        hrh = h_total - hl
        gains = 0.5 * (gl * gl / (hl + lam) + grh * grh / (hrh + lam) - parent)
        gains[xs[:-1] == xs[1:]] = -np.inf
        k = int(np.argmax(gains))
        if gains[k] > best_gain:
            best_gain = float(gains[k])
            best = (j, _midpoint(float(xs[k]), float(xs[k + 1])))
    if best is None:
        return -np.inf, None, None
    return best_gain, best[0], best[1]


class TestExactSplitterOracle:
    @staticmethod
    def _case(seed):
        """Random node: tie-heavy integer or continuous columns, some constant,
        some zero-weight rows, a row subset down to two rows, 1-6 features."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 60))
        d = int(rng.integers(1, 7))
        if rng.random() < 0.5:
            x = rng.integers(0, int(rng.integers(1, 5)), size=(n, d)) * 1.0
        else:
            x = rng.normal(size=(n, d))
        x[:, rng.random(d) < 0.2] = 3.0
        w = np.where(rng.random(n) < 0.2, 0.0, 1.0)
        g = rng.normal(size=n) * w
        h = (np.abs(rng.normal(size=n)) + 0.05) * w
        m = int(rng.integers(2, n + 1))
        rows = np.sort(rng.choice(n, size=m, replace=False))
        return x, g, h, rows

    @staticmethod
    def _search(splitter, rows, g, h):
        """The search at the grower's seam, and the node's sums."""
        stats = splitter.node_stats(rows, g, h)
        return splitter.best_split(stats, g, h), stats[:2]

    def test_matches_per_feature_loop(self):
        splits = 0
        for seed in range(300):
            x, g, h, rows = self._case(seed)
            # l2_reg 0 only without zero hessians: 0/0 gains are tested apart
            lam = (0.0, 1.0)[seed % 2] if h[rows].min() > 0 else 1.0
            splitter = _ExactSplitter(x, BoostConfig(l2_reg=lam))
            got, totals = self._search(splitter, rows, g, h)
            assert got == _reference_best_split(splitter, rows, g, h,
                                                *totals), seed
            splits += got[1] is not None
        assert 100 < splits < 300   # both outcomes are exercised

    def test_edge_cases_match(self):
        cfg = BoostConfig()
        cases = [
            # two rows, distinct and tied
            (np.array([[1.0], [2.0], [0.0]]), np.array([0, 1])),
            (np.array([[1.0], [1.0], [0.0]]), np.array([0, 1])),
            # constant columns only: no split
            (np.full((5, 3), 2.0), np.arange(5)),
            # no features at all: no split
            (np.zeros((4, 0)), np.arange(4)),
            # a constant column ahead of a tied integer column
            (np.column_stack([np.zeros(6), [0, 0, 1, 1, 1, 2.0]]),
             np.arange(6)),
        ]
        for x, rows in cases:
            g = np.linspace(-1.0, 1.0, len(x))
            h = np.ones(len(x))
            splitter = _ExactSplitter(x, cfg)
            got, totals = self._search(splitter, rows, g, h)
            assert got == _reference_best_split(splitter, rows, g, h, *totals)

    def test_nan_gain_is_no_candidate(self):
        # a zero hessian with l2_reg 0 makes a 0/0 gain; the other cuts count
        x = np.array([[0.0], [1.0], [2.0], [3.0]])
        g = np.array([0.0, -1.0, 1.0, 1.0])
        h = np.array([0.0, 1.0, 1.0, 1.0])
        splitter = _ExactSplitter(x, BoostConfig(l2_reg=0.0))
        (gain, feature, threshold), totals = self._search(
            splitter, np.arange(4), g, h)
        assert totals == (1.0, 3.0)
        assert (feature, threshold) == (0, 1.5)
        assert gain == pytest.approx(4.0 / 3.0)

    def test_breast_cancer_model_matches(self, monkeypatch):
        train_ds, _ = prepare_data(ExperimentConfig(dataset="breast_cancer"),
                                   7)
        noisy, _ = noise.inject(train_ds.clean_labels,
                                noise.pair_matrix(2, 0.3), seed=7)
        ds = train_ds.with_noise(noisy)
        cfg = BoostConfig(n_rounds=12)
        new = as_lists(train(ds, cfg).trees)
        # a node's rows in ascending order: its first sorted block, sorted
        monkeypatch.setattr(
            _ExactSplitter, "best_split",
            lambda self, stats, g, h: _reference_best_split(
                self, np.sort(stats[2][0]), g, h, *stats[:2]))
        assert as_lists(train(ds, cfg).trees) == new

    def test_child_blocks_equal_fresh_node_blocks(self):
        # a child's blocks compacted from its parent's are the presort
        # filtered to the child's rows, element for element
        children = 0
        for seed in range(300):
            x, g, h, rows = self._case(seed)
            splitter = _ExactSplitter(x, BoostConfig())
            stats = splitter.node_stats(rows, g, h)
            _, feat, cut = splitter.best_split(stats, g, h)
            if feat is None:
                # no gain anywhere: cut a random column at its median
                feat = int(np.random.default_rng(seed).integers(x.shape[1]))
                cut = float(np.median(x[rows, feat]))
            left_rows, right_rows = splitter.partition(rows, feat, cut)
            if not (left_rows.size and right_rows.size):
                continue
            got = splitter.child_stats(stats, left_rows, right_rows, g, h,
                                       leaves=False)
            for child, child_rows in zip(got, (left_rows, right_rows)):
                want = splitter.node_stats(child_rows, g, h)
                assert child[:2] == want[:2], seed
                for block, fresh in zip(child[2:], want[2:]):
                    assert block.shape == fresh.shape, seed
                    assert np.array_equal(block, fresh), seed
            children += 1
        assert children > 200

    def test_leaf_children_sums_equal_full_child_stats(self, monkeypatch):
        x, g, h, rows = self._case(4)
        cfg = BoostConfig(max_depth=4)

        def tree():
            tree, leaf_of_row = _fit_tree(_ExactSplitter(x, cfg), g, h,
                                          rows, cfg)
            return as_lists(tree), leaf_of_row.tolist()

        shortcut = tree()
        full = _ExactSplitter.child_stats
        monkeypatch.setattr(
            _ExactSplitter, "child_stats",
            lambda self, *args, leaves: full(self, *args, leaves=False))
        assert tree() == shortcut
        assert len(shortcut[0]["feature"]) > 15   # leaves at max_depth


def _reference_hists(binner, rows, g, h):
    """The stride-256 flat build: every feature gets 256 bins, all of a
    node's codes go through one row-major bincount."""
    codes = binner.codes_T.T.astype(np.int64)
    d = codes.shape[1]
    flat = (codes[rows] + np.arange(d) * 256).ravel()
    gh = np.bincount(flat, np.repeat(g[rows], d), minlength=d * 256)
    hh = np.bincount(flat, np.repeat(h[rows], d), minlength=d * 256)
    return gh.reshape(d, 256), hh.reshape(d, 256)


def _reference_hist_gains(binner, lam, gh, hh, g_total, h_total):
    """One cumsum over every feature's 256 bins, the bins past a feature's
    last cut and non-finite gains masked."""
    gl = np.cumsum(gh, axis=1)[:, :-1]
    hl = np.cumsum(hh, axis=1)[:, :-1]
    gains = _split_gains(gl, hl, g_total, h_total, lam)
    n_cuts = np.array([len(c) for c in binner.cuts])
    gains[np.arange(255) >= n_cuts[:, None]] = -np.inf
    gains[~np.isfinite(gains)] = -np.inf
    return gains


def _reference_hist_split(binner, lam, gh, hh, g_total, h_total):
    """The stride-256 search: one row-major argmax over every gain; the
    best bin is given as its cut."""
    gains = _reference_hist_gains(binner, lam, gh, hh, g_total, h_total)
    j, bin_idx = divmod(int(np.argmax(gains)), 255)
    gain = float(gains[j, bin_idx])
    if gain == -np.inf:
        return -np.inf, None, None
    return gain, j, float(binner.cuts[j][bin_idx])


def _spread(binner, hist):
    """A compact histogram as (d, 256), each feature's bins at the left."""
    out = np.zeros((len(binner.cuts), 256))
    for j, (lo, nb) in enumerate(zip(binner.offsets, binner.n_bins)):
        out[j, :nb] = hist[lo:lo + nb]
    return out


class TestHistSplitterOracle:
    @staticmethod
    def _case(seed):
        """Columns of every bin count: constant (no cut), one-cut, few-valued
        and wide (quantile cuts), plus duplicates of earlier columns. Half the
        cases have dyadic gradients and unit hessians, whose sums are exact,
        so cuts that part the rows alike tie in gain."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(300, 3000))
        kinds = rng.permutation(np.concatenate(
            [np.arange(4), rng.integers(0, 4, size=int(rng.integers(0, 6)))]))
        cols = []
        for kind in kinds:
            if kind == 0:
                cols.append(np.full(n, 1.5))
            elif kind == 1:
                cols.append((rng.random(n) < 0.4) * 1.0)
            elif kind == 2:
                cols.append(rng.integers(0, int(rng.integers(3, 40)), n) * 1.0)
            else:
                cols.append(rng.normal(size=n))
        for j in rng.choice(len(cols), size=2):
            # a duplicate, and a binarised copy that lands in another group
            cols.append(cols[j])
            cols.insert(int(rng.integers(0, len(cols))),
                        (cols[j] > np.median(cols[j])) * 1.0)
        x = np.column_stack(cols)
        if seed % 2:
            g = rng.integers(-4, 5, size=n) / 4.0
            h = np.ones(n)
        else:
            g = rng.normal(size=n)
            h = np.abs(rng.normal(size=n)) + 0.05
        w = np.where(rng.random(n) < 0.2, 0.0, 1.0)
        rows = np.flatnonzero(w > 0)
        return x, g * w, h * w, rows

    @pytest.mark.parametrize("chunk", [1, 97, gbdt._CHUNK_ROWS])
    @pytest.mark.parametrize("crossover", [0, 10**9])
    def test_matches_stride_256_build_and_search(self, crossover, chunk,
                                                 monkeypatch):
        monkeypatch.setattr(gbdt, "_PER_FEATURE_ROWS", crossover)
        monkeypatch.setattr(gbdt, "_CHUNK_ROWS", chunk)
        ties = splits = 0
        for seed in range(60):
            x, g, h, rows = self._case(seed)
            binner = Binner(x, rows)
            splitter = _HistSplitter(binner, BoostConfig())
            node = np.sort(np.random.default_rng(seed).choice(
                rows, size=max(2, len(rows) // 3), replace=False))
            for r in (rows, node):
                gh, hh = splitter.node_hists(r, g, h)
                ref_g, ref_h = _reference_hists(binner, r, g, h)
                assert np.array_equal(_spread(binner, gh), ref_g), seed
                assert np.array_equal(_spread(binner, hh), ref_h), seed
                g_total, h_total = float(g[r].sum()), float(h[r].sum())
                got = splitter.best_split((g_total, h_total, gh, hh), g, h)
                assert got == _reference_hist_split(
                    binner, 1.0, ref_g, ref_h, g_total, h_total), seed
                splits += got[1] is not None
                gains = _reference_hist_gains(binner, 1.0, ref_g, ref_h,
                                              g_total, h_total)
                ties += ((gains.max(axis=1) == got[0]).sum() > 1
                         and got[1] is not None)
        assert splits > 60 and ties > 10   # ties across features are exercised

    @pytest.mark.parametrize("order", [(0, 1, 2), (2, 1, 0)])
    def test_tie_across_groups_goes_to_the_lowest_feature(self, order):
        # a one-cut column and a three-valued column part the rows alike at
        # the best cut; dyadic gradients make the two gains exactly equal
        rng = np.random.default_rng(0)
        binary = (rng.random(400) < 0.5) * 1.0
        tiers = binary * (1.0 + (rng.random(400) < 0.5))
        cols = [tiers, rng.normal(size=400), binary]
        x = np.column_stack([cols[k] for k in order])
        g, h = np.where(binary > 0, 0.5, -1.0), np.ones(400)
        rows = np.arange(400)
        binner = Binner(x, rows)
        assert len({w for _, _, w in binner.blocks}) == 3
        splitter = _HistSplitter(binner, BoostConfig())
        got = splitter.best_split(
            (float(g.sum()), 400.0, *splitter.node_hists(rows, g, h)), g, h)
        assert got == _reference_hist_split(
            binner, 1.0, *_reference_hists(binner, rows, g, h),
            float(g.sum()), 400.0)
        assert got[1:] == (0, binner.cuts[0][0])


    def test_edge_cases_match(self):
        cases = [
            # constant columns only: no split
            (np.full((50, 4), 2.0), np.linspace(-1.0, 1.0, 50)),
            # equal gradients: every cut loses gain, and a three-bin column
            # has an empty padding bin, which must not win the search
            (np.column_stack([np.arange(50) % 3, np.arange(50) % 2]) * 1.0,
             np.ones(50)),
        ]
        got = []
        for x, g in cases:
            rows, h = np.arange(len(x)), np.ones(len(x))
            binner = Binner(x, rows)
            splitter = _HistSplitter(binner, BoostConfig())
            totals = float(g.sum()), float(len(x))
            got.append(splitter.best_split(
                (*totals, *splitter.node_hists(rows, g, h)), g, h))
            assert got[-1] == _reference_hist_split(
                binner, 1.0, *_reference_hists(binner, rows, g, h), *totals)
        assert got[0] == (-np.inf, None, None)
        assert got[1][0] < 0 and got[1][1] is not None

    @staticmethod
    def _tree(x, g, h, rows, cfg):
        tree, leaf_of_row = _fit_tree(
            _HistSplitter(Binner(x, rows), cfg), g, h, rows, cfg)
        return as_lists(tree), leaf_of_row.tolist()

    @pytest.mark.parametrize("chunk", [1, 97, gbdt._CHUNK_ROWS])
    def test_crossover_does_not_change_the_tree(self, chunk, monkeypatch):
        # nodes from several thousand rows down to a few: quantile features
        # per feature or interleaved, in chunks of any size, give one tree
        x, g, h, rows = self._case(3)
        x, g, h = np.vstack([x] * 3), np.tile(g, 3), np.tile(h, 3)
        rows = np.flatnonzero(h > 0)
        assert len(rows) > 2 * gbdt._PER_FEATURE_ROWS
        cfg = BoostConfig(max_depth=7)
        default = self._tree(x, g, h, rows, cfg)
        monkeypatch.setattr(gbdt, "_CHUNK_ROWS", chunk)
        assert self._tree(x, g, h, rows, cfg) == default
        for crossover in (0, 10**9):
            monkeypatch.setattr(gbdt, "_PER_FEATURE_ROWS", crossover)
            assert self._tree(x, g, h, rows, cfg) == default
        assert len(default[0]["feature"]) > 31

    def test_distinct_value_boundary_matches_reference(self):
        # 256 distinct fitted values are cut at every value and built
        # interleaved, 257 are cut at quantiles and built per feature; a
        # one-hot column puts nearly every row in one bin
        rng = np.random.default_rng(11)
        n = 6000
        w = np.where(rng.random(n) < 0.2, 0.0, 1.0)
        rows = np.flatnonzero(w > 0)
        x = np.zeros((n, 3))
        for j, n_values in enumerate((256, 257)):
            x[rows, j] = rng.permutation(np.arange(len(rows)) % n_values)
            x[w == 0, j] = rng.integers(0, n_values, size=n - len(rows))
        x[:, 2] = rng.random(n) < 0.03
        g, h = rng.normal(size=n) * w, (rng.random(n) + 0.05) * w
        binner = Binner(x, rows)
        assert [len(np.unique(x[rows, j])) for j in (0, 1)] == [256, 257]
        # a lone two-valued column forms no bundle
        assert binner.plain.tolist() == [0, 2] and binner.bundles == []
        assert binner.quantile.tolist() == [1] and binner.n_interleaved == 2
        assert gbdt._PER_FEATURE_ROWS <= len(rows)
        assert len(rows) > gbdt._CHUNK_ROWS
        gh, hh = _HistSplitter(binner, BoostConfig()).node_hists(rows, g, h)
        ref_g, ref_h = _reference_hists(binner, rows, g, h)
        assert np.array_equal(_spread(binner, gh), ref_g)
        assert np.array_equal(_spread(binner, hh), ref_h)

    def test_leaf_children_sums_equal_full_child_stats(self, monkeypatch):
        x, g, h, rows = self._case(4)
        cfg = BoostConfig(max_depth=4)
        shortcut = self._tree(x, g, h, rows, cfg)
        full = _HistSplitter.child_stats
        monkeypatch.setattr(
            _HistSplitter, "child_stats",
            lambda self, *args, leaves: full(self, *args, leaves=False))
        assert self._tree(x, g, h, rows, cfg) == shortcut
        assert len(shortcut[0]["feature"]) > 15   # leaves at max_depth

    @pytest.mark.properties
    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=30, deadline=None)
    def test_every_cut_finds_its_own_bin(self, seed):
        # partition maps a threshold back to its bin by searchsorted, which
        # needs each feature's cuts strictly increasing: distinct-value
        # midpoints, down to adjacent floats, and tied quantiles
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 1500))
        cols = [rng.integers(0, int(rng.integers(1, 300)), n) * 0.5,
                1.0 + np.spacing(1.0) * rng.integers(0, 6, n),
                np.round(rng.normal(size=n), int(rng.integers(0, 4))),
                rng.exponential(size=n) * (rng.random(n) < 0.6)]
        x = np.column_stack(cols)
        rows = np.flatnonzero(rng.random(n) < 0.9)
        binner = Binner(x, rows if rows.size else np.arange(n))
        for cuts in binner.cuts:
            assert np.array_equal(np.searchsorted(cuts, cuts),
                                  np.arange(len(cuts)))


class TestBundles:
    @staticmethod
    def _case(seed, dyadic):
        """Feature 0 is the first level of a five-level one-hot group whose
        other levels form a bundle. A 300-level group, more than a bundle
        holds, leaves 2% of rows with no level, and a majority-high column
        is 0 on just those rows; together they fill two bundles. Two
        overlapping two-valued columns, a few-valued and a wide column stay
        plain. Gradients lean on the wide group's first 30 levels; dyadic
        gradients with unit hessians sum exactly."""
        rng = np.random.default_rng(seed)
        n = 6000
        narrow = rng.integers(0, 5, n)
        wide = np.where(rng.random(n) < 0.02, -1, rng.integers(0, 300, n))
        cols = ([wide == k for k in range(300)] + [wide >= 0]
                + [narrow == k for k in range(1, 5)]
                + [rng.random(n) < 0.3, rng.random(n) < 0.3,
                   rng.integers(0, 10, n), rng.normal(size=n)])
        perm = rng.permutation(len(cols))
        x = np.column_stack([narrow == 0] + [cols[k] for k in perm]) * 1.0
        # feature index of each column of ``cols``
        where = np.empty(len(cols), dtype=np.intp)
        where[perm] = np.arange(1, len(cols) + 1)
        roles = {"wide": np.sort(where[:301]), "high": where[300],
                 "narrow": np.sort(where[301:305]),
                 "plain": np.sort(where[305:308]), "quantile": where[308]}
        lean = (wide >= 0) & (wide < 30)
        if dyadic:
            g = rng.integers(-4, 5, size=n) / 4.0 - lean
            h = np.ones(n)
        else:
            g = rng.normal(size=n) - lean
            h = np.abs(rng.normal(size=n)) + 0.05
        w = np.where(rng.random(n) < 0.2, 0.0, 1.0)
        return x, g * w, h * w, np.flatnonzero(w > 0), roles

    def test_exclusive_two_valued_columns_bundle(self):
        x, g, h, rows, roles = self._case(0, dyadic=True)
        binner = Binner(x, rows)
        bundles = sorted((b.tolist() for b in binner.bundles), key=len)
        wide = roles["wide"].tolist()
        # first fit in index order: 255 members fill the first bundle
        assert bundles == [roles["narrow"].tolist(), wide[255:], wide[:255]]
        # feature 0 is never bundled; overlapping columns form no bundle
        assert binner.plain.tolist() == [0, *roles["plain"].tolist()]
        assert binner.quantile.tolist() == [roles["quantile"]]
        assert binner.n_interleaved == 4 + 3
        assert binner.codes.shape == (len(x), 4 + 3 + 1)
        # the majority-high member alone has minority code 0
        members = np.concatenate(binner.bundles)
        low = binner.minority_pos - binner.offsets[members]
        assert members[low == 0].tolist() == [roles["high"]]
        assert np.array_equal(binner.majority_pos - binner.minority_pos,
                              1 - 2 * low)

    @pytest.mark.parametrize("chunk", [1, 97, gbdt._CHUNK_ROWS])
    @pytest.mark.parametrize("crossover", [0, 10**9])
    def test_exact_sums_match_stride_256_build_and_search(self, crossover,
                                                          chunk, monkeypatch):
        # every bin, majority bins filled by subtraction included
        monkeypatch.setattr(gbdt, "_PER_FEATURE_ROWS", crossover)
        monkeypatch.setattr(gbdt, "_CHUNK_ROWS", chunk)
        x, g, h, rows, _ = self._case(1, dyadic=True)
        binner = Binner(x, rows)
        assert len(binner.bundles) == 3
        splitter = _HistSplitter(binner, BoostConfig())
        node = np.sort(np.random.default_rng(1).choice(
            rows, size=len(rows) // 3, replace=False))
        for r in (rows, node):
            gh, hh = splitter.node_hists(r, g, h)
            ref_g, ref_h = _reference_hists(binner, r, g, h)
            assert np.array_equal(_spread(binner, gh), ref_g)
            assert np.array_equal(_spread(binner, hh), ref_h)
            g_total, h_total = float(g[r].sum()), float(h[r].sum())
            got = splitter.best_split((g_total, h_total, gh, hh), g, h)
            assert got == _reference_hist_split(binner, 1.0, ref_g, ref_h,
                                                g_total, h_total)
            assert got[1] in np.concatenate(binner.bundles)

    @pytest.mark.parametrize("crossover", [0, 10**9])
    def test_majority_bins_are_the_total_minus_the_minority(self, crossover,
                                                            monkeypatch):
        monkeypatch.setattr(gbdt, "_PER_FEATURE_ROWS", crossover)
        x, g, h, rows, _ = self._case(2, dyadic=False)
        binner = Binner(x, rows)
        members = np.concatenate(binner.bundles)
        others = np.setdiff1d(np.arange(x.shape[1]), members)
        low = binner.minority_pos - binner.offsets[members]
        splitter = _HistSplitter(binner, BoostConfig())
        node = np.sort(np.random.default_rng(2).choice(
            rows, size=len(rows) // 3, replace=False))
        for r in (rows, node):
            for hist, ref in zip(splitter.node_hists(r, g, h),
                                 _reference_hists(binner, r, g, h)):
                got = _spread(binner, hist)
                assert np.array_equal(got[others], ref[others])
                assert np.array_equal(got[members, low], ref[members, low])
                assert np.array_equal(
                    got[members, 1 - low],
                    hist[binner.totals_row].sum() - got[members, low])

    @pytest.mark.parametrize("chunk", [1, 97, gbdt._CHUNK_ROWS])
    def test_crossover_does_not_change_the_tree(self, chunk, monkeypatch):
        x, g, h, rows, _ = self._case(3, dyadic=True)
        assert len(rows) > 2 * gbdt._PER_FEATURE_ROWS
        cfg = BoostConfig(max_depth=7)
        members = np.concatenate(Binner(x, rows).bundles)
        default = TestHistSplitterOracle._tree(x, g, h, rows, cfg)
        assert set(default[0]["feature"]) & set(members.tolist())
        monkeypatch.setattr(gbdt, "_CHUNK_ROWS", chunk)
        assert TestHistSplitterOracle._tree(x, g, h, rows, cfg) == default
        for crossover in (0, 10**9):
            monkeypatch.setattr(gbdt, "_PER_FEATURE_ROWS", crossover)
            assert TestHistSplitterOracle._tree(x, g, h, rows, cfg) == default
        assert len(default[0]["feature"]) > 31

    @pytest.mark.parametrize("name", ["covertype_like", "dry_bean_like"])
    def test_generated_one_hot_groups_bundle(self, name):
        # covertype's soil (40) and wilderness (4) columns each form one
        # bundle; dry_bean has no categorical column and forms none
        table, label = datasets.load_builtin(name, n=3000, seed=0)
        ds = preprocess(table, label)
        binner = Binner(ds.features, np.arange(len(ds)))
        got = sorted(sorted(ds.feature_names[j] for j in b)
                     for b in binner.bundles)
        groups = [sorted(f for f in ds.feature_names if f.startswith(prefix))
                  for prefix in ("soil_type=", "wilderness_area=")]
        if name == "covertype_like":
            assert got == groups and list(map(len, groups)) == [40, 4]
        else:
            assert got == [] and groups == [[], []]


class TestEarlyStopper:
    def test_small_improvements_stop_with_best_at_start(self):
        stopper = EarlyStopper(min_delta=0.5, patience=10)
        losses = [10.0, 9.6, 9.3, 9.0, 8.8, 8.6, 8.4, 8.2, 8.0, 7.9, 7.8]
        stopped_at = None
        for t, loss in enumerate(losses):
            if stopper.update(t, loss):
                stopped_at = t
                break
        assert stopped_at == 10  # ten consecutive sub-delta rounds
        assert stopper.best_round == 0

    def test_full_improvement_resets_patience(self):
        stopper = EarlyStopper(min_delta=0.5, patience=2)
        assert not stopper.update(0, 10.0)
        assert not stopper.update(1, 9.8)
        assert not stopper.update(2, 9.0)   # -1.0 vs best: new best
        assert stopper.best_round == 2
        assert not stopper.update(3, 8.9)
        assert stopper.update(4, 8.9)

    def test_exact_delta_counts_as_improvement(self):
        stopper = EarlyStopper(min_delta=0.5, patience=1)
        assert not stopper.update(0, 10.0)
        assert not stopper.update(1, 9.5)
        assert stopper.best_round == 1


class TestTrain:
    def test_separable_toy_reaches_full_accuracy(self, blobs):
        res = train(blobs, BoostConfig(n_rounds=20, warmup_rounds=5))
        assert res.report.series["train_accuracy"][-1] == 1.0

    def test_train_logloss_monotone_on_clean_data(self, blobs):
        res = train(blobs, BoostConfig(n_rounds=30, warmup_rounds=5))
        losses = np.array(res.report.series["train_logloss"])
        assert (np.diff(losses) <= 1e-9).all()

    def test_softprob_probabilities_sum_to_one_every_round(self, blobs):
        res = train(blobs, BoostConfig(n_rounds=10, warmup_rounds=5))
        for rec in res.dynamics.window:
            assert np.abs(rec.probs.sum(axis=1) - 1.0).max() <= 1e-9

    def test_warmup_callback_first_round(self, separable):
        calls = []

        def callback(t, dynamics, labels, weights):
            calls.append((t, dynamics.rounds_recorded))

        train(separable, BoostConfig(n_rounds=18, warmup_rounds=15), callback)
        # first invocation in the sixteenth boosting round, with fifteen
        # recorded rounds of history available
        assert calls[0] == (15, 15)

    def test_deterministic_retrain(self, blobs):
        r1 = train(blobs, BoostConfig(n_rounds=8, warmup_rounds=2))
        r2 = train(blobs, BoostConfig(n_rounds=8, warmup_rounds=2))
        assert as_lists(r1.trees) == as_lists(r2.trees)

    @pytest.mark.properties
    def test_zero_weight_training_equals_deletion(self):
        ds = blob_dataset(n=180, classes=3, seed=4)
        rng = np.random.default_rng(1)
        drop = rng.random(len(ds)) < 0.25
        cfg = BoostConfig(n_rounds=6, warmup_rounds=2)
        booster = Booster(ds, cfg)
        booster.weights[drop] = 0.0
        res_w = booster.run().result()
        res_d = train(ds.take(~drop), cfg)
        assert as_lists(res_w.trees) == as_lists(res_d.trees)

    def test_early_stopping_truncates_to_best_round(self):
        ds = blob_dataset(n=400, classes=2, seed=8, separation=1.0)
        noisy, _ = noise.inject(ds.clean_labels, noise.pair_matrix(2, 0.4),
                                seed=0)
        ds = ds.with_noise(noisy)
        train_ds, test_ds = ds.take(np.arange(0, 300)), ds.take(np.arange(300, 400))
        test_ds = make_dataset(test_ds.features, test_ds.clean_labels,
                               class_count=2)
        res = train(train_ds, BoostConfig(n_rounds=60, warmup_rounds=5,
                                          early_stop_min_delta=0.5,
                                          early_stop_patience=5),
                    test=test_ds, monitor="test")
        assert res.report.stopped_early
        assert len(res.trees) == res.report.best_round + 1
        assert len(res.predicted) == res.report.rounds_trained
        assert res.report.rounds_trained > res.report.best_round

    def test_nan_loss_aborts_with_diagnostic(self, separable, monkeypatch):
        from noisygbdt import gbdt as gbdt_mod

        monkeypatch.setattr(gbdt_mod, "_weighted_mean_logloss",
                            lambda *a, **k: float("nan"))
        with pytest.raises(TrainingDivergedError, match="non-finite"):
            train(separable, BoostConfig(n_rounds=3, warmup_rounds=1))

    def test_non_finite_features_rejected(self, separable):
        bad = separable.features.copy()
        bad[0, 0] = np.nan
        ds = separable
        ds.features = bad
        with pytest.raises(ValueError, match="finite"):
            train(ds, BoostConfig(n_rounds=2, warmup_rounds=1))

    def test_monitor_test_equals_explicit_pair(self):
        ds = blob_dataset(n=300, classes=3, seed=2, separation=1.5)
        rows = np.arange(len(ds))
        train_ds, test_ds = ds.take(rows[:200]), ds.take(rows[200:])
        noisy, _ = noise.inject(train_ds.clean_labels,
                                noise.pair_matrix(3, 0.3), seed=3)
        train_ds = train_ds.with_noise(noisy)
        cfg = BoostConfig(n_rounds=25, warmup_rounds=5, early_stop_patience=3)
        by_name = train(train_ds, cfg, test=test_ds, monitor="test")
        by_pair = train(train_ds, cfg, test=test_ds,
                        monitor=(test_ds.features, test_ds.clean_labels))
        assert (by_name.report.series["monitor_logloss"]
                == by_pair.report.series["monitor_logloss"])
        assert as_lists(by_name.trees) == as_lists(by_pair.trees)
        assert by_name.report.stopped_early

    def test_warmup_validation_only_with_callback(self, separable):
        cfg = BoostConfig(n_rounds=10, warmup_rounds=15)
        train(separable, cfg)  # fine without callback
        with pytest.raises(ValueError, match="warmup"):
            train(separable, cfg, lambda *a: False)


    def test_direct_call_leaves_the_seed_unset(self, separable):
        report = train(separable, BoostConfig(n_rounds=3)).report
        assert report.seed is None


def _noisy_blobs(seed=2):
    """A 3-class blob split with 30% pair noise on its training part."""
    ds = blob_dataset(n=300, classes=3, seed=seed, separation=1.5)
    rows = np.arange(len(ds))
    train_ds, test_ds = ds.take(rows[:200]), ds.take(rows[200:])
    noisy, _ = noise.inject(train_ds.clean_labels,
                            noise.pair_matrix(3, 0.3), seed=3)
    return train_ds.with_noise(noisy), test_ds


class TestBooster:
    @pytest.mark.parametrize("method", ["exact", "hist"])
    @pytest.mark.parametrize("classes", [2, 3])
    def test_cached_scores_equal_tree_predict_sums(self, method, classes,
                                                   monkeypatch):
        # weights zeroed before the first round plus a removal each round: the
        # cached training scores must equal summing Tree.predict over the
        # trees, bit for bit
        ds = blob_dataset(n=240, classes=classes, seed=5, separation=1.0)
        if method == "hist":
            monkeypatch.setattr(gbdt, "_HIST_THRESHOLD", 0)
            monkeypatch.setattr(gbdt, "_MAX_BINS", 16)
        cfg = BoostConfig(n_rounds=12, warmup_rounds=3)

        def remove_some(t, dynamics, labels, w):
            w[(np.arange(len(w)) * 7 + t) % 23 == 0] = 0.0

        booster = Booster(ds, cfg)
        booster.weights[::9] = 0.0
        weights = booster.weights.copy()
        assert booster.splitter.method == method
        while not booster.done:
            booster.run(remove_some, until=booster.rounds_trained + 1)
            expected = raw_scores(booster.result().trees, ds.features)
            assert np.array_equal(booster.raw, expected)
        assert (booster.weights == 0).sum() > (weights == 0).sum()

    def test_label_edit_between_steps_refits_gradients(self):
        # labels flipped in place between two steps, with no callback: the
        # next round's trees fit the new labels' gradients
        ds = blob_dataset(n=200, classes=3, seed=3, separation=1.0)
        cfg = BoostConfig(n_rounds=3, warmup_rounds=1)
        booster = Booster(ds, cfg)
        booster.step()
        stale_g, stale_h = booster.g, booster.h
        booster.labels[::5] = (booster.labels[::5] + 1) % 3
        g, h = grad_hess(booster.probs, booster.labels)
        booster.step()
        for k, tree in enumerate(booster.result().trees[1]):
            fresh = build_tree(ds.features, g[:, k], h[:, k],
                               booster.weights, cfg)
            stale = build_tree(ds.features, stale_g[:, k], stale_h[:, k],
                               booster.weights, cfg)
            assert as_lists(tree) == as_lists(fresh) != as_lists(stale)

    def test_final_metrics_read_off_the_best_round(self):
        train_ds, test_ds = _noisy_blobs()
        cfg = BoostConfig(n_rounds=25, warmup_rounds=5, early_stop_patience=3)
        res = train(train_ds, cfg, test=test_ds, monitor="test")
        assert res.report.stopped_early
        assert res.report.best_round < res.report.rounds_trained - 1
        again = classification_metrics(
            probabilities(raw_scores(res.trees, test_ds.features)).argmax(
                axis=1),
            test_ds.clean_labels, 3)
        assert res.report.final == again

    @staticmethod
    def _forked_and_independent(ds, test, cfg, monitor, handlers):
        """Per handler factory: (forked run, independent run), each as
        (trees, report dict, events, flag rounds, training argmaxes)."""
        prefix = Booster(ds, cfg, test=test, monitor=monitor).run(
            until=cfg.warmup_rounds)

        def outcome(res, handler):
            return (as_lists(res.trees), res.report.to_dict(),
                    handler.events,
                    [(t, {m: f.tolist() for m, f in flags.items()})
                     for t, flags in handler.flag_rounds],
                    [p.tolist() for p in res.predicted])

        pairs = []
        for make in handlers:
            handler = make()
            forked = outcome(prefix.fork().run(handler).result(), handler)
            handler = make()
            independent = outcome(train(ds, cfg, handler, test=test,
                                        monitor=monitor), handler)
            pairs.append((forked, independent))
        return pairs

    @pytest.mark.parametrize("monitor", ["test", "pair", None])
    def test_fork_equals_independent_run(self, monitor):
        train_ds, test_ds = _noisy_blobs()
        if monitor == "pair":
            monitor = (test_ds.features, test_ds.clean_labels)
        cfg = BoostConfig(n_rounds=22, warmup_rounds=8, early_stop_patience=6,
                          early_stop_min_delta=0.05)
        handlers = [lambda: NoiseHandler(mode="none"),
                    lambda: NoiseHandler(detectors=("aum",), mode="relabel"),
                    lambda: NoiseHandler(detectors=("lrt",), mode="remove"),
                    lambda: NoiseHandler(detectors=("confcorr",),
                                         mode="relabel")]
        pairs = self._forked_and_independent(train_ds, test_ds, cfg, monitor,
                                             handlers)
        for forked, independent in pairs:
            assert forked == independent
        # the relabel cells really change labels, so the forks diverge
        changed = [sum(ev["old_label"] != ev["new_label"] for ev in f[2]
                       if ev["action"] == "relabel") for f, _ in pairs]
        assert changed[1] > 0 and changed[3] > 0
        assert pairs[1][0][0] != pairs[0][0][0]

    def test_early_stop_inside_warmup_every_fork_is_the_prefix(self):
        train_ds, test_ds = _noisy_blobs()
        cfg = BoostConfig(n_rounds=20, warmup_rounds=10, early_stop_patience=1,
                          early_stop_min_delta=1e9)
        handlers = [lambda: NoiseHandler(mode="none"),
                    lambda: NoiseHandler(detectors=("aum",), mode="relabel")]
        pairs = self._forked_and_independent(train_ds, test_ds, cfg, "test",
                                             handlers)
        (base, base_ind), (relabel, relabel_ind) = pairs
        assert base == base_ind and relabel == relabel_ind
        assert base == relabel
        assert base[1]["rounds_trained"] == 2 and base[1]["stopped_early"]
        assert base[3] == []

    def test_fork_leaves_the_prefix_untouched(self):
        train_ds, test_ds = _noisy_blobs()
        cfg = BoostConfig(n_rounds=12, warmup_rounds=6)
        prefix = Booster(train_ds, cfg, test=test_ds, monitor="test").run(
            until=6)
        before = (prefix.raw.copy(), prefix.raw_test.copy(),
                  prefix.labels.copy(), prefix.dynamics.sum_label_prob.copy(),
                  len(prefix.trees), len(prefix.predicted),
                  len(prefix.dynamics.window))
        fork = prefix.fork().run(NoiseHandler(detectors=("aum",),
                                              mode="relabel"))
        assert np.array_equal(before[0], prefix.raw)
        assert np.array_equal(before[1], prefix.raw_test)
        assert np.array_equal(before[2], prefix.labels)
        assert np.array_equal(before[3], prefix.dynamics.sum_label_prob)
        assert before[4:] == (len(prefix.trees), len(prefix.predicted),
                              len(prefix.dynamics.window))
        assert before[4:6] == (6, 6)
        assert prefix.rounds_trained == 6 and fork.rounds_trained == 12

    @pytest.mark.parametrize("make", [
        lambda: NoiseHandler(detectors=("aum",), mode="relabel"),
        lambda: NoiseHandler(detectors=("lrt",), mode="remove")])
    def test_training_reads_no_clean_training_label(self, make):
        # the fit set's clean labels replaced by its noisy ones: every tree,
        # argmax, recorded round and report field is the same
        train_ds, test_ds = _noisy_blobs()
        blind = dataclasses.replace(train_ds,
                                    clean_labels=train_ds.noisy_labels)
        cfg = BoostConfig(n_rounds=22, warmup_rounds=8, early_stop_patience=6,
                          early_stop_min_delta=0.05)

        def outcome(ds):
            handler = make()
            res = train(ds, cfg, handler, test=test_ds, monitor="test")
            window = [(r.round, r.logits.tolist(), r.probs.tolist(),
                       r.predicted.tolist(), r.max_abs_gradient.tolist())
                      for r in res.dynamics.window]
            return (as_lists(res.trees), [p.tolist() for p in res.predicted],
                    window, res.report.to_dict(), handler.events)

        seen, blinded = outcome(train_ds), outcome(blind)
        assert seen == blinded
        # the handler edited the arrays
        assert [ev for ev in seen[4] if ev["action"] == "remove"
                or ev["action"] == "relabel"
                and ev["old_label"] != ev["new_label"]]

    def test_step_after_the_end_rejected(self, separable):
        booster = Booster(separable, BoostConfig(n_rounds=1))
        booster.step()
        with pytest.raises(RuntimeError, match="finished"):
            booster.step()


class TestPredictAndSerialize:
    """Held-out inputs are checked against the fit set when a run starts."""

    def test_width_mismatch_errors(self, blobs):
        # twice as wide, and one column wide
        for width in (8, 1):
            test = make_dataset(np.zeros((6, width)), np.arange(6) % 3)
            for monitor in (None, "test"):
                with pytest.raises(ValueError, match="test feature width"):
                    train(blobs, BoostConfig(n_rounds=2), test=test,
                          monitor=monitor)

    @pytest.mark.parametrize("features", [np.zeros((6, 8)), np.zeros(6)])
    def test_monitor_pair_width_mismatch_errors(self, blobs, features):
        with pytest.raises(ValueError, match="monitor feature width"):
            train(blobs, BoostConfig(n_rounds=2),
                  monitor=(features, np.zeros(6, dtype=np.int64)))

    def test_monitor_pair_length_mismatch_errors(self, blobs):
        with pytest.raises(ValueError, match="lengths differ"):
            train(blobs, BoostConfig(n_rounds=2),
                  monitor=(blobs.features[:120], blobs.clean_labels[:50]))

    @pytest.mark.parametrize("monitor", ["val", "ab"])
    def test_unknown_monitor_name_errors(self, blobs, monitor):
        with pytest.raises(ValueError, match="monitor must be"):
            train(blobs, BoostConfig(n_rounds=2), test=blobs,
                  monitor=monitor)

    def test_monitor_test_without_a_test_set_errors(self, blobs):
        with pytest.raises(ValueError, match="monitor must be"):
            train(blobs, BoostConfig(n_rounds=2), monitor="test")
