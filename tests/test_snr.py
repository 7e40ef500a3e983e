"""Tests for magnitude SNR analytics and the minimal-SNR constructions."""

import math

import numpy as np
import pytest

from ordrank.model import PatternDistribution
from ordrank.snr import (
    minimal_snr_monotone,
    minimal_snr_unconstrained,
    snr_of_pattern,
)


def simplex_snr(weights: np.ndarray) -> np.ndarray:
    """Vectorized SNR of rows of a (N, K) weight matrix; oracle for the
    search tests."""
    K = weights.shape[1]
    ks = np.arange(1, K + 1, dtype=float)
    mean = weights @ ks
    var = weights @ ks**2 - mean**2
    return mean**2 / var


class TestSnrReport:
    def test_abs_beta_01(self):
        report = snr_of_pattern(PatternDistribution.from_family("abs", 0.1, 4))
        assert report.snr == pytest.approx(4.5523, abs=1e-3)

    def test_abs_beta_09(self):
        report = snr_of_pattern(PatternDistribution.from_family("abs", 0.9, 4))
        assert report.snr == pytest.approx(3.5723, abs=1e-2)

    def test_degenerate_sentinel(self):
        assert snr_of_pattern(PatternDistribution.uniform(1)).snr == math.inf
        one_point = PatternDistribution.from_weights([0, 0, 1])
        assert snr_of_pattern(one_point).snr == math.inf

    def test_moment_identities(self):
        rng = np.random.default_rng(404)
        for _ in range(40):
            K = int(rng.integers(1, 9))
            p = PatternDistribution.from_psi(rng.uniform(-2, 1, K))
            r = snr_of_pattern(p)
            assert r.variance == pytest.approx(r.second_moment - r.mean**2,
                                               abs=1e-12)
            assert r.variance >= -1e-15
            if r.variance > 0:
                assert r.snr == pytest.approx(r.mean**2 / r.variance, rel=1e-12)


class TestUnconstrainedMinimum:
    def test_k2(self):
        value, pattern = minimal_snr_unconstrained(2)
        assert value == pytest.approx(8.0, abs=0.0)
        np.testing.assert_allclose(pattern.weights, [2 / 3, 1 / 3], rtol=1e-15)

    def test_k4(self):
        value, pattern = minimal_snr_unconstrained(4)
        assert value == pytest.approx(16 / 9, rel=1e-15)
        np.testing.assert_allclose(pattern.weights, [0.8, 0.0, 0.0, 0.2],
                                   rtol=1e-15)

    def test_construction_attains_value(self):
        for K in range(2, 65):
            value, pattern = minimal_snr_unconstrained(K)
            assert snr_of_pattern(pattern).snr == pytest.approx(value, abs=1e-12)

    def test_k1_rejected(self):
        with pytest.raises(ValueError):
            minimal_snr_unconstrained(1)

    def test_simplex_search_never_beats_bound(self):
        rng = np.random.default_rng(515)
        value, _ = minimal_snr_unconstrained(4)
        draws = rng.dirichlet(np.ones(4), size=10**4)
        assert simplex_snr(draws).min() >= value - 1e-9


class TestMonotoneMinimum:
    def test_k2_coincides_with_unconstrained(self):
        v_mono, p_mono = minimal_snr_monotone(2)
        v_unc, p_unc = minimal_snr_unconstrained(2)
        assert v_mono == pytest.approx(v_unc, abs=1e-12)
        np.testing.assert_allclose(p_mono.weights, p_unc.weights, atol=1e-15)

    def test_k4_closed_forms(self):
        value, pattern = minimal_snr_monotone(4)
        assert value == pytest.approx(120 / 49, rel=1e-15)
        assert pattern.weights[0] == pytest.approx(38 / 52, rel=1e-14)
        for w in pattern.weights[1:]:
            assert w == pytest.approx(14 / 156, rel=1e-14)
        report = snr_of_pattern(pattern)
        assert report.mean == pytest.approx(20 / 13, rel=1e-13)
        assert report.second_moment == pytest.approx(10 / 3, rel=1e-13)

    def test_construction_attains_value(self):
        for K in range(2, 65):
            value, pattern = minimal_snr_monotone(K)
            assert snr_of_pattern(pattern).snr == pytest.approx(value, abs=1e-12)
            assert all(a >= b for a, b in zip(pattern.weights,
                                              pattern.weights[1:]))

    def test_sorted_simplex_search_never_beats_bound(self):
        rng = np.random.default_rng(616)
        value, _ = minimal_snr_monotone(4)
        draws = np.sort(rng.dirichlet(np.ones(4), size=10**4), axis=1)[:, ::-1]
        assert simplex_snr(draws).min() >= value - 1e-9

    def test_k1_rejected(self):
        with pytest.raises(ValueError):
            minimal_snr_monotone(1)


class TestOrderingAcrossK:
    def test_monotone_bound_dominates(self):
        for K in range(2, 13):
            unc = minimal_snr_unconstrained(K)[0]
            mono = minimal_snr_monotone(K)[0]
            if K == 2:
                assert mono == pytest.approx(unc, abs=1e-12)
            else:
                assert mono > unc
