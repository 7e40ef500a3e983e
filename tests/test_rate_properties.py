"""Property tests of the log-MGF, its slope and the decay rates over the
whole link range, from tiny phi (where the rates are O(phi^2)) to saturated
phi, for every magnitude count K in 1..6."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from ordrank.model import OrdinalModel, PatternDistribution, StrengthLink
from ordrank.ranking import PreferenceVector
from ordrank.rates import rate_at_zero_binary, rate_at_zero_nitem, rate_at_zero_ordinal

IDENTITY = StrengthLink("identity")  # phi == gamma, so gamma is drawn as phi
# the four link kinds; tanhsig is scaled so that phi reaches 50
LINKS = [StrengthLink.from_spec(s) for s in ("cubic", "identity", "tanhsig:100",
                                             "logitnorm")]


def log_uniform(lo: float, hi: float):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


# each level is absent or carries a weight in [0.05, 1]: laws are either
# degenerate or clearly spread, never within rounding of either
weights = st.lists(st.one_of(st.just(0.0), st.floats(0.05, 1.0)),
                   min_size=1, max_size=6).filter(lambda w: any(w))
patterns = weights.map(PatternDistribution.from_weights)


def gamma_at(link: StrengthLink, phi: float) -> float:
    """A positive gamma at which the (increasing) link reaches phi, to a
    relative 1e-6: the tests need phi only roughly."""
    return brentq(lambda g: link(g) - phi, 0.0, 60.0, xtol=1e-300, rtol=1e-6,
                  maxiter=200)


def series_rates(pattern: PatternDistribution, phi: float) -> tuple[float, float]:
    """Small-phi leading terms: phi^2 / 2 and (tanh phi E|Y|)^2 / (2 E|Y|^2)."""
    mu = math.tanh(phi) * pattern.mean()
    return phi * phi / 2.0, mu * mu / (2.0 * pattern.second_moment())


@settings(deadline=None)
@given(patterns, log_uniform(1e-12, 50.0))
def test_binary_beats_ordinal_beats_zero(pattern, phi):
    model = OrdinalModel(IDENTITY, pattern)
    binary = rate_at_zero_binary(model, phi)
    ordinal = rate_at_zero_ordinal(model, phi)
    assert ordinal.converged
    if pattern.is_degenerate():
        assert ordinal.rate == pytest.approx(binary.rate, rel=1e-9)
        assert ordinal.rate > 0.0
    else:
        assert binary.rate > ordinal.rate > 0.0


@settings(deadline=None)
@given(patterns, st.sampled_from(LINKS), log_uniform(1e-12, 50.0), st.booleans(),
       st.sampled_from([(i, j) for i in range(10) for j in range(i + 1, 10)]),
       st.booleans())
def test_root_lies_in_one_step_bracket(pattern, link, phi, negative, pair, binarized):
    # the solver brackets the argmin by [-2B, 0] for B = max |phi| over the
    # terms; it lies in [-B, 0], up to twice the solver's xtol of 1e-12 * B
    model = OrdinalModel(link, pattern)
    gamma = gamma_at(link, phi)
    ordinal = rate_at_zero_ordinal(model, -gamma if negative else gamma)
    B = abs(link(gamma))
    assert ordinal.converged
    lam = -ordinal.argmin_lambda if negative else ordinal.argmin_lambda
    assert -B * (1 + 2e-12) <= lam <= 0.0
    i, j = pair
    theta = PreferenceVector.equally_spaced(10, gamma / 9.0)  # largest gap: gamma
    th = np.asarray(theta.theta)
    nitem = rate_at_zero_nitem(model, theta, i, j, binarized)
    B = max(np.abs(link(th[i] - th)).max(), np.abs(link(th - th[j])).max())
    assert nitem.converged
    assert -B * (1 + 2e-12) <= nitem.argmin_lambda <= 0.0


@pytest.mark.parametrize("link", LINKS, ids=lambda link: link.spec)
def test_root_at_the_first_bracket_end(link):
    # all weight on magnitude 1 puts the argmin at -phi = -B, where the slope
    # is 0 and may round to a tiny positive number; the doubling covers it
    for weights in ([1.0], [1.0, 0.0, 0.0]):
        model = OrdinalModel(link, PatternDistribution.from_weights(weights))
        for phi in np.geomspace(1e-12, 50.0, 67):
            g = gamma_at(link, phi)
            for gamma in (g, -g):
                res = rate_at_zero_ordinal(model, gamma)
                assert res.converged
                assert res.argmin_lambda == pytest.approx(-link(gamma), rel=1e-9)


@settings(deadline=None)
@given(patterns, log_uniform(1e-12, 1e-4))
def test_small_phi_series(pattern, phi):
    model = OrdinalModel(IDENTITY, pattern)
    want_binary, want_ordinal = series_rates(pattern, phi)
    assert rate_at_zero_binary(model, phi).rate == pytest.approx(want_binary, rel=1e-6)
    assert rate_at_zero_ordinal(model, phi).rate == pytest.approx(want_ordinal, rel=1e-6)


@settings(deadline=None)
@given(patterns,
       st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=8),
       st.floats(-20.0, 20.0))
def test_log_mgf_broadcasts_over_gamma(pattern, gammas, lam):
    model = OrdinalModel(IDENTITY, pattern)
    stacked = model.log_mgf(np.array(gammas), lam)
    assert stacked.shape == (len(gammas),)
    for g, v in zip(gammas, stacked):
        assert v == pytest.approx(model.log_mgf(g, lam), rel=1e-14, abs=1e-300)


@settings(deadline=None)
@given(patterns, log_uniform(1e-12, 50.0), st.floats(-1.5, 0.5))
def test_tilted_mean_is_the_slope(pattern, phi, s):
    model = OrdinalModel(IDENTITY, pattern)
    lam = s * (phi + 1.0)
    h = 1e-6 * (1.0 + abs(lam))
    central = (model.log_mgf(phi, lam + h) - model.log_mgf(phi, lam - h)) / (2.0 * h)
    assert model.tilted_moments(phi, lam)[0] == pytest.approx(central, rel=1e-6, abs=1e-9)
