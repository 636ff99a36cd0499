import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisygbdt.experiment import ExperimentError, config_from_dict
from noisygbdt.noise import (NoiseError, inject, matrix_for, pair_matrix,
                             symmetric_matrix)


class TestSymmetricMatrix:
    def test_four_classes_twenty_percent(self):
        m = symmetric_matrix(4, 0.2)
        assert np.allclose(np.diag(m.entries), 0.8)
        off = m.entries[~np.eye(4, dtype=bool)]
        assert np.allclose(off, 0.2 / 3)

    def test_zero_rate_is_identity(self):
        m = symmetric_matrix(5, 0.0)
        assert np.array_equal(m.entries, np.eye(5))

    def test_two_classes_half(self):
        m = symmetric_matrix(2, 0.5)
        assert np.allclose(m.entries, 0.5)

    def test_too_few_classes(self):
        with pytest.raises(NoiseError):
            symmetric_matrix(1, 0.2)

    def test_rate_out_of_range(self):
        with pytest.raises(NoiseError):
            symmetric_matrix(3, 1.2)


class TestPairMatrix:
    def test_four_classes_twenty_percent(self):
        m = pair_matrix(4, 0.2)
        assert np.allclose(np.diag(m.entries), 0.8)
        for i in range(4):
            row = m.entries[i].copy()
            assert row[(i + 1) % 4] == pytest.approx(0.2)
            row[i] = 0.0
            row[(i + 1) % 4] = 0.0
            assert np.all(row == 0.0)

    def test_rate_above_half_still_stochastic(self):
        m = pair_matrix(2, 0.6)
        assert np.allclose(m.entries.sum(axis=1), 1.0)
        assert m.entries[0, 1] == pytest.approx(0.6)
        assert m.entries[0, 0] == pytest.approx(0.4)

    def test_zero_rate_identity(self):
        assert np.array_equal(pair_matrix(3, 0.0).entries, np.eye(3))

    def test_too_few_classes(self):
        with pytest.raises(NoiseError):
            pair_matrix(0, 0.1)


@pytest.mark.properties
@given(c=st.integers(min_value=2, max_value=12),
       rate=st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
@settings(max_examples=60, deadline=None)
def test_row_stochastic_property(c, rate):
    for matrix in (symmetric_matrix(c, rate), pair_matrix(c, rate)):
        assert np.abs(matrix.entries.sum(axis=1) - 1.0).max() <= 1e-12
        assert (matrix.entries >= 0).all() and (matrix.entries <= 1).all()


class TestInject:
    def test_identity_matrix_unchanged(self):
        labels = np.array([0, 1, 2, 1, 0])
        noisy, mask = inject(labels, symmetric_matrix(3, 0.0), seed=0)
        assert np.array_equal(noisy, labels)
        assert not mask.any()

    def test_determinism(self):
        labels = np.arange(1000) % 4
        m = symmetric_matrix(4, 0.4)
        n1, k1 = inject(labels, m, seed=42)
        n2, k2 = inject(labels, m, seed=42)
        assert np.array_equal(n1, n2)
        assert np.array_equal(k1, k2)

    def test_binomial_concentration(self):
        # empirical flip fraction within four standard errors of the rate
        n, rate = 10_000, 0.3
        labels = np.zeros(n, dtype=np.int64)
        _, mask = inject(labels, symmetric_matrix(2, rate), seed=7)
        tol = 4 * np.sqrt(rate * (1 - rate) / n)
        assert abs(mask.mean() - rate) <= tol

    def test_out_of_range_label(self):
        with pytest.raises(NoiseError):
            inject(np.array([0, 5]), symmetric_matrix(3, 0.1), seed=0)

    @pytest.mark.properties
    @given(seed=st.integers(min_value=0, max_value=2**31),
           c=st.integers(min_value=2, max_value=8),
           rate=st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    @settings(max_examples=40, deadline=None)
    def test_shape_and_range_preserved(self, seed, c, rate):
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, c, size=64)
        for m in (symmetric_matrix(c, rate), pair_matrix(c, rate)):
            noisy, mask = inject(labels, m, seed=seed)
            assert noisy.shape == labels.shape
            assert noisy.min() >= 0 and noisy.max() < c
            assert np.array_equal(mask, noisy != labels)

    @pytest.mark.properties
    def test_uniform_flip_destinations_chi_square(self):
        from scipy import stats

        c, n, rate = 5, 100_000, 0.4
        labels = np.zeros(n, dtype=np.int64)
        noisy, mask = inject(labels, symmetric_matrix(c, rate), seed=11)
        flipped_to = noisy[mask]
        counts = np.bincount(flipped_to, minlength=c)[1:]  # classes 1..4
        _, p = stats.chisquare(counts)
        assert p > 0.001

    def test_pair_flips_go_to_successor(self):
        labels = np.full(5000, 2, dtype=np.int64)
        noisy, mask = inject(labels, pair_matrix(4, 0.5), seed=3)
        assert set(np.unique(noisy[mask])) == {3}


class TestEmpiricalRate:
    def test_matches_injection_rate(self):
        labels = np.zeros(50_000, dtype=np.int64)
        _, mask = inject(labels, symmetric_matrix(3, 0.2), seed=9)
        assert abs(mask.mean() - 0.2) <= 0.01


class TestMatrixFor:
    def test_valid(self):
        for kind, build in (("pair", pair_matrix),
                            ("symmetric", symmetric_matrix)):
            got = matrix_for(kind, 0.3, 4)
            assert np.array_equal(got.entries, build(4, 0.3).entries)

    def test_bad_kind(self):
        with pytest.raises(NoiseError, match="unknown noise kind 'weird'"):
            matrix_for("weird", 0.1, 3)
        with pytest.raises(ExperimentError, match="unknown noise kind"):
            config_from_dict({"noise_kinds": ["weird"]})

    def test_bad_rate(self):
        for kind in ("pair", "symmetric"):
            with pytest.raises(NoiseError, match="outside"):
                matrix_for(kind, -0.1, 3)
        with pytest.raises(ExperimentError, match="outside"):
            config_from_dict({"noise_rates": [-0.1]})
