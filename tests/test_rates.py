"""Tests for the misranking decay rates: closed forms, grid-oracle agreement,
and the binary-beats-ordinal rate ordering."""

import dataclasses
import itertools
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from test_rate_properties import LINKS, gamma_at, log_uniform, patterns

from ordrank.cli import parse_link_spec, parse_pattern_spec
from ordrank.model import OrdinalModel, PatternDistribution, StrengthLink, log_cosh
from ordrank import rates
from ordrank.ranking import PreferenceVector
from ordrank.rates import (
    crossover_rounds,
    error_decay_prediction,
    rate_at_zero_binary,
    rate_at_zero_nitem,
    rate_at_zero_ordinal,
)


def grid_minimum(f, lo: float, hi: float, points: int = 10**4):
    """Two-stage dense-grid minimizer, independent of the library optimizer:
    a coarse pass over [lo, hi], then an equally dense pass around the coarse
    argmin."""
    xs = np.linspace(lo, hi, points)
    vals = f(xs)
    i = int(np.argmin(vals))
    xs2 = np.linspace(xs[max(i - 1, 0)], xs[min(i + 1, points - 1)], points)
    vals2 = f(xs2)
    j = int(np.argmin(vals2))
    return float(xs2[j]), float(vals2[j])


def brute_log_mgf(model: OrdinalModel, gamma: float, lams: np.ndarray) -> np.ndarray:
    """Direct sum log E[e^{lam Y}] over the outcome table; no shared code
    with the library log-MGF."""
    values, probs = model.pmf_table(gamma)
    return np.log(np.exp(np.outer(lams, values)) @ probs)


def nitem_objective(model, theta, i, j, binarized):
    """Literal summed log-MGF of the score-difference summand."""
    sign_model = OrdinalModel(model.link, PatternDistribution((1.0,)))
    mdl = sign_model if binarized else model
    th = theta.theta

    def f(lams):
        lams = np.atleast_1d(np.asarray(lams, dtype=float))
        total = brute_log_mgf(mdl, th[i] - th[j], 2.0 * lams)
        for k in range(theta.n):
            if k in (i, j):
                continue
            total = total + brute_log_mgf(mdl, th[i] - th[k], lams)
            total = total + brute_log_mgf(mdl, th[k] - th[j], lams)
        return total

    return f


# perfbench's rates sweep
SWEEP_LINKS = ("cubic", "identity", "tanhsig", "logitnorm")
SWEEP_PATTERNS = ("abs:0.1,K=4", "abs:0.9,K=4", "sq:0.5,K=5", "min-unconstrained,K=4",
                  "min-monotone,K=5", "uniform,K=3", "uniform,K=1")
SWEEP_GAMMAS = (1e-4, 1e-3, 0.05, 0.15, 0.5, 1.5, 5.0)


def brentq_rate(model: OrdinalModel, gammas, mults) -> tuple[float, float, float]:
    """Reference solve: brentq on the slope over [-B, 0], or [-2B, 0] when
    the slope reads positive at -B, with xtol 1e-12 times that bracket's B;
    gives the rate, the argmin and B."""
    gammas, mults = np.asarray(gammas, dtype=float), np.asarray(mults, dtype=float)

    def slope(lam):
        return float(mults @ model.tilted_moments(gammas, mults * lam)[0])

    B = float(np.max(np.abs(model.link(gammas))))
    b = 2.0 * B if slope(-B) > 0 else B
    lam = brentq(slope, -b, 0.0, xtol=1e-12 * b)
    return -float(np.sum(model.log_mgf(gammas, lam * mults))), lam, B


class TestBinaryRate:
    def test_log_cosh_closed_form(self):
        m = OrdinalModel(StrengthLink("identity"), PatternDistribution.uniform(1))
        res = rate_at_zero_binary(m, 0.5)
        assert res.rate == pytest.approx(math.log(math.cosh(0.5)), rel=1e-12)
        assert res.argmin_lambda == pytest.approx(-0.5, rel=1e-12)
        assert res.converged and res.iterations == 0

    def test_gamma_zero_boundary(self):
        m = OrdinalModel(StrengthLink("identity"), PatternDistribution.uniform(2))
        res = rate_at_zero_binary(m, 0.0)
        assert res.rate == 0.0 and res.boundary

    def test_even_in_gamma(self):
        m = OrdinalModel(StrengthLink("cubic"), PatternDistribution.uniform(3))
        assert rate_at_zero_binary(m, 0.7).rate == rate_at_zero_binary(m, -0.7).rate


class TestOrdinalRate:
    def test_degenerate_pattern_reduces_to_binary(self):
        m = OrdinalModel(StrengthLink("identity"),
                         PatternDistribution.from_weights([1.0]))
        res = rate_at_zero_ordinal(m, 0.6)
        assert res.rate == pytest.approx(rate_at_zero_binary(m, 0.6).rate,
                                         abs=1e-10)

    def test_k2_uniform_strictly_inside(self):
        m = OrdinalModel(StrengthLink("identity"), PatternDistribution.uniform(2))
        res = rate_at_zero_ordinal(m, 0.5)
        cap = math.log(math.cosh(0.5))
        assert 0.0 < res.rate < cap
        # dense lambda grid at step 1e-4 over the optimizer's bracket
        lams = np.arange(-5.5, 5.5, 1e-4)
        oracle = -float(np.min(brute_log_mgf(m, 0.5, lams)))
        assert res.rate == pytest.approx(oracle, abs=1e-6)

    def test_argmin_matches_grid(self):
        m = OrdinalModel(StrengthLink("tanhsig"),
                         PatternDistribution.from_family("abs", 0.4, 4))
        res = rate_at_zero_ordinal(m, 0.8)
        lam, _ = grid_minimum(lambda ls: brute_log_mgf(m, 0.8, ls), -6, 6)
        assert res.argmin_lambda == pytest.approx(lam, abs=1e-6)

    def test_gamma_zero_boundary(self):
        m = OrdinalModel(StrengthLink("identity"), PatternDistribution.uniform(3))
        assert rate_at_zero_ordinal(m, 0.0).boundary

    def test_grid_soundness_fuzz(self):
        rng = np.random.default_rng(808)
        for _ in range(15):
            K = int(rng.integers(2, 6))
            m = OrdinalModel(
                StrengthLink(str(rng.choice(["identity", "cubic", "tanhsig"]))),
                PatternDistribution.from_psi(rng.uniform(-1.5, 1.0, K)))
            gamma = float(rng.uniform(0.05, 1.0))
            res = rate_at_zero_ordinal(m, gamma)
            assert res.converged
            span = abs(m.link(gamma)) + 5.0
            lams = np.linspace(-span, span, 10**4)
            assert -res.rate <= float(np.min(brute_log_mgf(m, gamma, lams))) + 1e-9


class TestRateOrdering:
    def test_fuzz_binary_rate_dominates(self):
        rng = np.random.default_rng(909)
        for _ in range(50):
            K = int(rng.integers(2, 7))
            m = OrdinalModel(
                StrengthLink(str(rng.choice(["identity", "cubic", "tanhsig"])),
                             scale=float(rng.uniform(0.5, 1.5))),
                PatternDistribution.from_psi(rng.uniform(-1.5, 1.0, K)))
            gamma = float(rng.uniform(0.05, 1.0))
            binary = rate_at_zero_binary(m, gamma)
            ordinal = rate_at_zero_ordinal(m, gamma)
            assert ordinal.converged
            assert 0.0 < ordinal.rate < binary.rate


class TestNItemRate:
    def test_two_items_reduce(self):
        m = OrdinalModel(StrengthLink("identity"),
                         PatternDistribution.from_family("abs", 0.3, 3))
        theta = PreferenceVector((0.25, -0.25))
        res = rate_at_zero_nitem(m, theta, 0, 1, binarized=False)
        two = rate_at_zero_ordinal(m, 0.5)
        # the pair term enters at 2*lambda, so the rate matches at half the
        # argmin but the same minimum value
        assert res.rate == pytest.approx(two.rate, abs=1e-9)
        res_b = rate_at_zero_nitem(m, theta, 0, 1, binarized=True)
        assert res_b.rate == pytest.approx(rate_at_zero_binary(m, 0.5).rate,
                                           abs=1e-9)

    def test_matches_grid_oracle(self):
        m = OrdinalModel(StrengthLink("identity"), PatternDistribution.uniform(2))
        theta = PreferenceVector.equally_spaced(3, 0.3)
        for binarized in (False, True):
            res = rate_at_zero_nitem(m, theta, 0, 1, binarized=binarized)
            f = nitem_objective(m, theta, 0, 1, binarized)
            _, fmin = grid_minimum(f, -4.0, 4.0)
            assert res.rate == pytest.approx(-fmin, abs=1e-6)

    def test_ordering_fuzz(self):
        rng = np.random.default_rng(111)
        for _ in range(20):
            n = int(rng.integers(3, 6))
            theta = PreferenceVector(
                tuple(np.sort(rng.uniform(-0.8, 0.8, n))[::-1]))
            if np.any(np.diff(theta.theta) == 0):
                continue
            K = int(rng.integers(2, 5))
            m = OrdinalModel(
                StrengthLink(str(rng.choice(["identity", "tanhsig"]))),
                PatternDistribution.from_psi(rng.uniform(-1.0, 0.5, K)))
            i, j = sorted(rng.choice(n, size=2, replace=False).tolist())
            ordinal = rate_at_zero_nitem(m, theta, i, j, binarized=False)
            binary = rate_at_zero_nitem(m, theta, i, j, binarized=True)
            assert ordinal.converged and binary.converged
            assert 0.0 < ordinal.rate < binary.rate

    def test_swapped_orientation(self):
        m = OrdinalModel(StrengthLink("identity"), PatternDistribution.uniform(2))
        theta = PreferenceVector((0.2, -0.2))
        a = rate_at_zero_nitem(m, theta, 0, 1, binarized=False)
        b = rate_at_zero_nitem(m, theta, 1, 0, binarized=False)
        assert a.rate == pytest.approx(b.rate, abs=1e-12)

    @staticmethod
    def reference_rate(model, theta, i, j, binarized):
        """The solve on the 2n - 3 link arguments built from theta's own
        entries, kept as the reference for the build from ``theta.gaps()``."""
        th = np.asarray(theta.theta)
        if th[i] < th[j]:
            i, j = j, i
        mdl = OrdinalModel(model.link, PatternDistribution((1.0,))) if binarized else model
        others = np.delete(th, [i, j])
        gammas = np.concatenate([[th[i] - th[j]], th[i] - others, others - th[j]])
        mults = np.ones(gammas.size)
        mults[0] = 2.0
        return rates._rate(mdl, gammas, mults)

    @pytest.mark.parametrize("link", LINKS, ids=lambda link: link.spec)
    def test_bit_identical_to_reference(self, link):
        rng = np.random.default_rng(1717)
        m = OrdinalModel(link, PatternDistribution.from_family("abs", 0.4, 4))
        for _ in range(6):
            n = int(rng.integers(2, 7))
            theta = PreferenceVector(tuple(rng.normal(rng.uniform(-50, 50), 0.6, n)))
            for i, j in itertools.permutations(range(n), 2):
                for binarized in (False, True):
                    assert (rate_at_zero_nitem(m, theta, i, j, binarized)
                            == self.reference_rate(m, theta, i, j, binarized))

    def test_input_validation(self):
        m = OrdinalModel(StrengthLink("identity"), PatternDistribution.uniform(2))
        theta = PreferenceVector((0.1, 0.1, -0.2))
        with pytest.raises(ValueError):
            rate_at_zero_nitem(m, theta, 0, 0, binarized=False)
        with pytest.raises(ValueError):
            rate_at_zero_nitem(m, theta, 0, 1, binarized=False)


class TestTinyAndSaturatedLinks:
    def test_tiny_phi_keeps_the_ordering(self):
        # cubic link at gamma = 1e-3: phi = 1e-9, rates of order 1e-19
        m = OrdinalModel(StrengthLink("cubic"),
                         PatternDistribution.from_family("abs", 0.1, 4))
        binary = rate_at_zero_binary(m, 1e-3)
        ordinal = rate_at_zero_ordinal(m, 1e-3)
        assert binary.rate == pytest.approx(0.5e-18, rel=1e-12)
        assert binary.rate > ordinal.rate > 0.0
        assert crossover_rounds(binary, ordinal) is not None

    def test_saturated_degenerate_rates_coincide(self):
        m = OrdinalModel(StrengthLink("cubic"), PatternDistribution.uniform(1))
        binary = rate_at_zero_binary(m, 5.0)
        ordinal = rate_at_zero_ordinal(m, 5.0)
        assert ordinal.converged
        assert ordinal.rate == pytest.approx(binary.rate, rel=1e-12)
        assert ordinal.argmin_lambda == pytest.approx(-125.0, rel=1e-9)

    def test_underflowed_link_gives_zero_rate(self):
        # cubic at gamma = 1e-110: phi = 1e-330 rounds to 0
        m = OrdinalModel(StrengthLink("cubic"), PatternDistribution.uniform(3))
        res = rate_at_zero_ordinal(m, 1e-110)
        assert res.converged and res.rate == 0.0

    def test_bracket_past_float_range_is_refused(self):
        # phi = 1.25e308 at gamma = 5e102: the bracket end -2 phi overflows
        m = OrdinalModel(StrengthLink("cubic"),
                         PatternDistribution.from_family("abs", 0.1, 4))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for gamma in (5e102, -5e102):
                with pytest.raises(ValueError, match=r"^link cubic at \|gamma\|=5e\+102 "
                                                     "is too large for the rate solve"):
                    rate_at_zero_ordinal(m, gamma)
            # phi = 1.5e307: the ordinal bracket reaches 9 phi, but the n-item
            # direct term, at twice lam, reaches 17 phi, past float range
            gamma = 1.5e307 ** (1 / 3)
            assert rate_at_zero_ordinal(m, gamma).converged
            theta = PreferenceVector((gamma, 0.0, -1.0))
            with pytest.raises(ValueError, match="too large for the rate solve"):
                rate_at_zero_nitem(m, theta, 0, 1, binarized=False)

    def test_negative_gamma_mirrors(self):
        m = OrdinalModel(StrengthLink("identity"),
                         PatternDistribution.from_family("abs", 0.4, 3))
        pos = rate_at_zero_ordinal(m, 0.7)
        neg = rate_at_zero_ordinal(m, -0.7)
        assert neg.rate == pos.rate
        assert neg.argmin_lambda == -pos.argmin_lambda

    def test_one_link_call_per_solve(self, monkeypatch):
        # the solve evaluates the link once and reuses its phi-only terms,
        # never going through the public log_mgf or tilted_moments
        calls = []
        original = StrengthLink.__call__

        def counting(self, x):
            calls.append(np.shape(x))
            return original(self, x)

        def refused(*args):
            raise AssertionError("the solve called a public log-MGF method")

        monkeypatch.setattr(StrengthLink, "__call__", counting)
        monkeypatch.setattr(OrdinalModel, "log_mgf", refused)
        monkeypatch.setattr(OrdinalModel, "tilted_moments", refused)
        m = OrdinalModel(StrengthLink("identity"),
                         PatternDistribution.from_family("abs", 1.0, 5))
        for gamma in (0.15, -0.15, 5.0):
            calls.clear()
            assert rate_at_zero_ordinal(m, gamma).converged
            assert calls == [(1,)]
        theta = PreferenceVector.equally_spaced(10, 0.05)
        for binarized in (False, True):
            calls.clear()
            assert rate_at_zero_nitem(m, theta, 2, 7, binarized).converged
            assert calls == [(2 * 10 - 3,)]


def per_call_tilted(self, gamma, lam, moments):
    """``OrdinalModel._tilted`` as it was before the evaluator: every call
    evaluates the link and every phi-only term again.  The same arithmetic
    in the same order, so the same bits."""
    phi, lam = np.broadcast_arrays(np.asarray(self.link(gamma), dtype=float),
                                   np.asarray(lam, dtype=float))
    w = np.asarray(self.pattern.weights)
    ks = self.pattern.magnitudes[w > 0]
    w = w[w > 0]
    near = far = (0.0, 0.0) if moments else (0.0,)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        small = (np.abs(phi) <= 1.0) & (np.abs(lam) * ks[-1] <= 1.0)
        lk = lam[..., None] * ks
        if small.any():
            t = np.tanh(phi)[..., None]
            sh = np.sinh(lk)
            terms = 2.0 * np.sinh(lk / 2.0) ** 2 + t * sh
            excess = (w * terms).sum(axis=-1)
            if moments:
                mean = (w * ks * (sh + t * np.cosh(lk))).sum(axis=-1) / (1.0 + excess)
                square = (w * ks**2 * (1.0 + terms)).sum(axis=-1) / (1.0 + excess)
                near = (mean, square - mean * mean)
            else:
                near = (np.log1p(excess),)
        if not small.all():
            x = phi[..., None] + lk
            top = np.max(np.abs(x), axis=-1, keepdims=True)
            up, down = w * np.exp(x - top), w * np.exp(-x - top)
            total = (up + down).sum(axis=-1)
            if moments:
                mean = (ks * (up - down)).sum(axis=-1) / total
                m = mean[..., None]
                far = (mean, ((ks - m) ** 2 * up + (ks + m) ** 2 * down).sum(axis=-1)
                       / total)
            else:
                far = (top[..., 0] + np.log(total) - math.log(2.0) - log_cosh(phi),)
    out = tuple(np.where(small, a, b) for a, b in zip(near, far))
    if out[0].ndim == 0:
        return tuple(float(v) for v in out)
    return out


def public_call_rate(model: OrdinalModel, gammas: np.ndarray,
                     mults: np.ndarray) -> rates.RateResult:
    """The rate solve as it ran when every step called the public
    ``tilted_moments`` and the rate the public ``log_mgf``: with
    ``per_call_tilted`` behind those, the reference for the solve on one
    link evaluation."""
    def derivatives(lam: float) -> tuple[float, float]:
        mean, var = model.tilted_moments(gammas, mults * lam)
        return float(mults @ mean), float(mults**2 @ var)

    phis = np.abs(model.link(gammas))
    B = float(np.max(phis))
    if B == 0.0:
        return rates.RateResult(0.0, 0.0, 0, True)
    if not math.isfinite(B * (1.0 + 2.0 * float(np.max(mults)) * model.K)):
        raise ValueError("bracket leaves float range")
    lo, hi, lam = -2.0 * B, 0.0, -B
    xtol = 1e-12 * B
    converged = True
    for iterations in range(1, rates._MAX_ITERATIONS + 1):
        s, v = derivatives(lam)
        if s > 0.0:
            hi = lam
        else:
            lo = lam
        step = -s / v if v > 0.0 else math.inf
        if abs(step) <= xtol:
            lam += step
            break
        lam = lam + step if lo < lam + step < hi else 0.5 * (lo + hi)
        if hi - lo <= xtol:
            break
    else:
        converged = False
    rate = -float(np.sum(model.log_mgf(gammas, lam * mults)))
    return rates.RateResult(rate, lam, iterations, converged)


# a saturated link with one theta gap of 0.3 next to gaps of 1e-3: the
# n-item stacks mix near-origin and log-sum-exp terms
MIXED_LINK, MIXED_THETA = "tanhsig:100", (0.3, 0.0, 1e-3, 2e-3, 3e-3)


class TestOneLinkEvaluation:
    """The solve on one link evaluation gives the same bits as the solve
    through the public methods, each call evaluating everything again."""

    @staticmethod
    def reference(monkeypatch, solve, *args):
        with monkeypatch.context() as patched:
            patched.setattr(rates, "_rate", public_call_rate)
            patched.setattr(OrdinalModel, "_tilted", per_call_tilted)
            return solve(*args)

    @pytest.mark.parametrize("link", SWEEP_LINKS)
    def test_sweep_bit_identical(self, monkeypatch, link):
        for pattern in SWEEP_PATTERNS:
            model = OrdinalModel(parse_link_spec(link), parse_pattern_spec(pattern))
            for gamma in SWEEP_GAMMAS + tuple(-g for g in SWEEP_GAMMAS):
                want = self.reference(monkeypatch, rate_at_zero_ordinal, model, gamma)
                assert rate_at_zero_ordinal(model, gamma) == want, (pattern, gamma)

    @pytest.mark.parametrize("pattern", ["abs:1.0,K=5", "sq:0.5,K=5", "uniform,K=3",
                                         "weights:0,1,0,2"])
    def test_mixed_nitem_batches_bit_identical(self, monkeypatch, pattern):
        model = OrdinalModel(parse_link_spec(MIXED_LINK), parse_pattern_spec(pattern))
        theta = PreferenceVector(MIXED_THETA)
        mixed = 0
        for (i, j), binarized in itertools.product(
                itertools.permutations(range(theta.n), 2), (False, True)):
            want = self.reference(monkeypatch, rate_at_zero_nitem, model, theta, i, j,
                                  binarized)
            got = rate_at_zero_nitem(model, theta, i, j, binarized)
            assert got == want, (i, j, binarized)
            # does the rate at the root take both forms?
            hi, lo = (i, j) if MIXED_THETA[i] > MIXED_THETA[j] else (j, i)
            others = np.delete(np.asarray(MIXED_THETA), [i, j])
            stack = np.concatenate([[MIXED_THETA[hi] - MIXED_THETA[lo]],
                                    MIXED_THETA[hi] - others, others - MIXED_THETA[lo]])
            mults = np.ones(stack.size)
            mults[0] = 2.0
            K = 1 if binarized else model.K
            near = ((np.abs(model.link(stack)) <= 1.0)
                    & (np.abs(got.argmin_lambda * mults) * K <= 1.0))
            mixed += bool(near.any() and not near.all())
        assert mixed > 0

    @settings(deadline=None)
    @given(patterns, st.sampled_from(LINKS),
           st.lists(st.tuples(log_uniform(1e-9, 3.0), st.booleans(), st.floats(-3.0, 3.0)),
                    max_size=8))
    def test_mixed_batch_equals_scalar_evaluations(self, pattern, link, points):
        # one point of each form comes first, so every batch is mixed
        points = [(1e-6, False, 0.01), (1e-6, True, 2.0)] + points
        gammas = np.array([-g if neg else g for g, neg, _ in points])
        lams = np.array([lam for _, _, lam in points])
        model = OrdinalModel(link, pattern)
        tilted = model._tilt(model.link(gammas))
        for moments in (True, False):
            batch = tilted(lams, moments)
            assert [list(v) for v in batch] == [
                list(v) for v in per_call_tilted(model, gammas, lams, moments)]
            singles = [model._tilted(float(g), float(lam), moments)
                       for g, lam in zip(gammas, lams)]
            assert np.stack(batch, axis=-1).tolist() == [list(v) for v in singles]


class TestNewtonSolver:
    @settings(deadline=None)
    @given(patterns, st.sampled_from(LINKS), log_uniform(1e-12, 50.0),
           st.floats(-1.5, 0.5))
    def test_tilted_variance_is_the_slope_of_the_mean(self, pattern, link, phi, s):
        model = OrdinalModel(link, pattern)
        gamma = gamma_at(link, phi)
        lam = s * (phi + 1.0)
        mean, var = model.tilted_moments(gamma, lam)
        h = 1e-6 * (1.0 + abs(lam))
        central = (model.tilted_moments(gamma, lam + h)[0]
                   - model.tilted_moments(gamma, lam - h)[0]) / (2.0 * h)
        assert math.isfinite(var) and var >= 0.0
        assert var == pytest.approx(central, rel=1e-6, abs=1e-9)

    def test_matches_brentq_over_the_rates_sweep(self):
        # perfbench's rates workload: the sweep, and all 90 n-item solves at n = 10
        cases = []
        for link, pattern, gamma in itertools.product(SWEEP_LINKS, SWEEP_PATTERNS,
                                                      SWEEP_GAMMAS):
            model = OrdinalModel(parse_link_spec(link), parse_pattern_spec(pattern))
            cases.append((rate_at_zero_ordinal(model, gamma), model, [gamma], [1.0]))
        model = OrdinalModel(StrengthLink("identity"),
                             PatternDistribution.from_family("abs", 1.0, 5))
        theta = PreferenceVector.equally_spaced(10, 0.05)
        th = np.asarray(theta.theta)
        for (i, j), binarized in itertools.product(itertools.combinations(range(10), 2),
                                                   (False, True)):
            res = rate_at_zero_nitem(model, theta, i, j, binarized)
            hi, lo = (i, j) if th[i] > th[j] else (j, i)
            others = np.delete(th, [i, j])
            stack = np.concatenate([[th[hi] - th[lo]], th[hi] - others, others - th[lo]])
            mdl = (OrdinalModel(model.link, PatternDistribution((1.0,))) if binarized
                   else model)
            cases.append((res, mdl, stack, [2.0] + [1.0] * (stack.size - 1)))
        assert len(cases) == 196 + 90
        for res, mdl, stack, mults in cases:
            rate, lam, B = brentq_rate(mdl, stack, mults)
            assert res.converged
            assert res.rate == pytest.approx(rate, rel=1e-13, abs=0.0)
            assert abs(res.argmin_lambda - lam) <= 2e-12 * B

    def test_no_scipy_optimize_in_any_process(self):
        # ordrank owns its one root solve, so no command loads scipy.optimize
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        code = "import sys, ordrank, ordrank.cli; print('scipy.optimize' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


class TestDecayPrediction:
    def test_zero_rate(self):
        m = OrdinalModel(StrengthLink("identity"), PatternDistribution.uniform(2))
        res = rate_at_zero_binary(m, 0.0)
        for L in (1, 10, 1000):
            assert error_decay_prediction(res, L) == 1.0

    def test_ratio_vanishes_monotonically(self):
        m = OrdinalModel(StrengthLink("identity"),
                         PatternDistribution.from_family("abs", 0.1, 4))
        binary = rate_at_zero_binary(m, 0.15)
        ordinal = rate_at_zero_ordinal(m, 0.15)
        ratios = [error_decay_prediction(binary, L) / error_decay_prediction(ordinal, L)
                  for L in (10, 100, 1000, 5000)]
        assert all(a > b for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] < 1e-3

    def test_crossover_heuristic(self):
        m = OrdinalModel(StrengthLink("identity"),
                         PatternDistribution.from_family("abs", 0.1, 4))
        binary = rate_at_zero_binary(m, 0.15)
        ordinal = rate_at_zero_ordinal(m, 0.15)
        L0 = crossover_rounds(binary, ordinal, factor=10.0)
        gap = binary.rate - ordinal.rate
        assert math.exp(-L0 * gap) <= 1.0 / 10.0
        assert math.exp(-(L0 - 1) * gap) > 1.0 / 10.0

    @pytest.mark.parametrize("link", SWEEP_LINKS)
    def test_crossover_over_the_rates_sweep(self, link):
        # the perfbench ``rates`` sweep: a one-point law (uniform,K=1) has
        # equal rates, solved up to 4 ulps apart, so no crossover; every
        # other point keeps ceil(log(factor) / gap)
        for pattern in SWEEP_PATTERNS:
            m = OrdinalModel(parse_link_spec(link), parse_pattern_spec(pattern))
            for gamma in SWEEP_GAMMAS:
                binary = rate_at_zero_binary(m, gamma)
                ordinal = rate_at_zero_ordinal(m, gamma)
                got = crossover_rounds(binary, ordinal)
                if pattern == "uniform,K=1":
                    assert got is None, (pattern, gamma)
                else:
                    gap = binary.rate - ordinal.rate
                    assert got == max(1, math.ceil(math.log(10.0) / gap)), (pattern, gamma)

    def test_to_dict_is_the_fields_in_order(self):
        m = OrdinalModel(StrengthLink("identity"),
                         PatternDistribution.from_family("abs", 0.1, 4))
        for res in (rate_at_zero_ordinal(m, 0.15), rate_at_zero_ordinal(m, 0.0),
                    rate_at_zero_binary(m, -0.5)):
            assert list(res.to_dict().items()) == list(dataclasses.asdict(res).items())

    def test_requires_convergence(self):
        from ordrank.rates import RateResult
        bad = RateResult(0.1, 0.0, 200, converged=False)
        with pytest.raises(ValueError):
            error_decay_prediction(bad, 10)

    def test_negative_rounds_rejected(self):
        m = OrdinalModel(StrengthLink("identity"), PatternDistribution.uniform(2))
        with pytest.raises(ValueError, match="^L must be >= 0$"):
            error_decay_prediction(rate_at_zero_ordinal(m, 0.15), -1)
