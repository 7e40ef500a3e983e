"""Tests for the generative comparison model: exact pmf values, moment
formulas, sampling, binarization, and the log-MGF."""

import json
import math
import re
import warnings

import numpy as np
import pytest

from ordrank.harness import ConfigError, default_config
from ordrank.model import (
    LINK_NAMES,
    InvalidPatternError,
    OrdinalModel,
    PatternDistribution,
    StrengthLink,
)

RNG_SEED = 20317


def normal_cdf(x: float) -> float:
    """Independent oracle for the standard normal CDF."""
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def brute_force_pmf(model: OrdinalModel, gamma: float) -> dict[int, float]:
    """Direct normalization of exp(phi(sign(k) gamma) + log w_k) over the
    support, no shared code with the pmf under test."""
    phi = model.link(gamma)
    table = {}
    for k in range(1, model.K + 1):
        w = model.pattern.weights[k - 1]
        table[k] = w * math.exp(phi)
        table[-k] = w * math.exp(-phi)
    total = sum(table.values())
    return {k: v / total for k, v in table.items()}


def pmf(model: OrdinalModel, gamma: float, k: int) -> float:
    """P(Y = k) read from the row of ``pmf_table`` at ``gamma``."""
    support, probs = model.pmf_table(gamma)
    return float(probs[np.flatnonzero(support == k)[0]])


def random_model(rng: np.random.Generator, max_k: int = 6) -> OrdinalModel:
    kind = str(rng.choice(["identity", "cubic", "tanhsig", "logitnorm"]))
    if kind == "logitnorm":  # logit of the logistic or of the normal CDF
        kind = str(rng.choice(["identity", "logitnorm"]))
    link = StrengthLink(kind=kind, scale=float(rng.uniform(0.3, 2.0)))
    K = int(rng.integers(1, max_k + 1))
    pattern = PatternDistribution.from_psi(rng.uniform(-2.0, 1.0, size=K))
    return OrdinalModel(link, pattern)


class TestStrengthLink:
    def test_identity_zero(self):
        assert StrengthLink("identity")(0.0) == 0.0

    def test_logit_of_logistic_is_half_gamma(self):
        link = StrengthLink("identity", scale=0.5)
        for gamma in (-3.0, -0.4, 0.7, 2.5):
            assert link(gamma) == pytest.approx(gamma / 2.0, abs=0.0)

    def test_cubic_antisymmetry(self):
        link = StrengthLink("cubic")
        assert link(2.0) == 8.0
        assert link(-2.0) == -8.0

    @pytest.mark.parametrize("kind,base", [
        ("cubic", None), ("identity", None), ("tanhsig", None),
        ("identity", "logistic"), ("logitnorm", "standard-normal"),
    ])
    def test_monotone_and_odd(self, kind, base):
        """Every link is increasing and odd; a link that is the logit of a
        base CDF F equals log(F / (1 - F))."""
        link = StrengthLink(kind)
        grid = np.linspace(-6.0, 6.0, 241)
        assert np.all(np.diff(link(grid)) > 0)
        assert np.max(np.abs(link(grid) + link(-grid))) <= 1e-12
        assert link(0.0) == 0.0
        if base is not None:
            cdf = {"logistic": lambda x: 1.0 / (1.0 + math.exp(-x)),
                   "standard-normal": normal_cdf}[base]
            for x in (-3.0, -0.4, 0.7, 2.5):
                assert link(x) == pytest.approx(math.log(cdf(x) / (1.0 - cdf(x))),
                                                rel=1e-12)

    def test_normal_logit_far_tail_is_finite_and_odd(self):
        link = StrengthLink("logitnorm")
        for x in (8.0, 20.0, 35.0):
            v = link(x)
            assert math.isfinite(v) and v > 0
            assert link(-x) == -v

    def test_non_finite_input_rejected(self):
        with pytest.raises(ValueError):
            StrengthLink("identity")(math.inf)

    @pytest.mark.parametrize("link,x", [("cubic", 1e200), ("identity:1e+300", -1e10),
                                        ("logitnorm", 1e200)])
    def test_value_past_float_range_names_link_and_gamma(self, link, x):
        message = f"link {link} leaves float range at gamma={x!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            StrengthLink.from_spec(link)(np.array([0.5, x]))

    def test_small_scale_brings_an_overflowing_cube_back(self):
        # x**3 leaves float range at |x| >= 5.7e102; scale * x**3 need not
        link = StrengthLink.from_spec("cubic:1e-300")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = link(np.array([0.5, 1e120, -1e120]))
            assert link(1e120) == got[1]
        assert got[0] == 1e-300 * 0.5**3
        np.testing.assert_allclose(got[1:], [1e60, -1e60], rtol=1e-15)
        with pytest.raises(ValueError, match="^link cubic:1e-200 leaves float range"):
            StrengthLink.from_spec("cubic:1e-200")(1e170)

    @pytest.mark.parametrize("spec", ["cubic", "cubic:3.0", "cubic:1e-300", "cubic:1e+300"])
    def test_cubic_values_in_range_keep_their_bits(self, spec):
        link = StrengthLink.from_spec(spec)
        x = np.concatenate([np.geomspace(1e-110, 1e110, 2001), [0.0, 5.0, 1.5]])
        x = np.concatenate([x, -x])
        with np.errstate(over="ignore", under="ignore"):
            want = link.scale * x**3
        x, want = x[np.isfinite(want)], want[np.isfinite(want)]
        assert link(x).tobytes() == want.tobytes()

    def test_bad_scale(self):
        with pytest.raises(ValueError):
            StrengthLink("identity", scale=0.0)

    @pytest.mark.parametrize("x", [s * x for x in (1e-12, 1e-10, 1e-6, 1e-3, 0.05,
                                                   0.5, 1.0, 3.0, 30.0)
                                   for s in (1.0, -1.0)])
    def test_normal_logit_full_precision(self, x):
        """logitnorm against 50-digit log(F(x) / F(-x)), including tiny |x|,
        where the difference of two log_ndtr values near log(1/2) cancels."""
        mpmath = pytest.importorskip("mpmath")
        link = StrengthLink("logitnorm")
        with mpmath.workdps(50):
            exact = mpmath.log(mpmath.ncdf(x) / mpmath.ncdf(-x))
            assert abs((mpmath.mpf(link(x)) - exact) / exact) <= 1e-15
        assert link(-x) == -link(x)


class TestLinkSpec:
    """``from_spec`` and ``spec`` are inverses over the names of
    ``LINK_NAMES``; the logit of the logistic CDF is the identity link."""

    @pytest.mark.parametrize("name", sorted(LINK_NAMES))
    @pytest.mark.parametrize("scale", [1.0, 0.5, 0.1, 3.0])
    def test_round_trip(self, name, scale):
        s = name if scale == 1.0 else f"{name}:{scale!r}"
        link = StrengthLink.from_spec(s)
        assert link.spec == s
        assert StrengthLink.from_spec(link.spec) == link
        assert link.scale == scale
        assert link.kind == name

    def test_names_cover_every_serializable_kind(self):
        for kind in LINK_NAMES:
            assert StrengthLink(kind).spec == kind
        with pytest.raises(ValueError, match="unknown link"):
            StrengthLink("logit-of-cdf")

    def test_logistic_logit_folds_into_identity(self):
        folded = StrengthLink.from_spec("identity:0.5")
        assert folded == StrengthLink("identity", 0.5)
        assert folded.spec == "identity:0.5"
        grid = np.linspace(-5.0, 5.0, 41)
        assert np.array_equal(folded(grid), 0.5 * grid)

    @pytest.mark.parametrize("name", sorted(LINK_NAMES))
    def test_json_form_round_trips(self, name):
        link = StrengthLink.from_spec(f"{name}:0.5")
        assert StrengthLink.from_spec(json.loads(json.dumps(link.spec))) == link
        cfg = default_config("scenario1", link=link.spec)
        assert cfg.models[0][1].link == link
        assert cfg.to_dict()["link"] == link.spec

    @pytest.mark.parametrize("d", [{"kind": "identity", "scael": 3.0},
                                   {"kind": "cubic", "scale": 2.0, "fn": None}])
    def test_unknown_json_key_rejected(self, d):
        """The old JSON-object form of a link is refused, and the refusal
        shows the object, bad key included."""
        (bad,) = set(d) - {"kind", "scale"}
        with pytest.raises(ValueError, match=bad):
            StrengthLink.from_spec(d)
        with pytest.raises(ConfigError, match=r"name\[:scale\]"):
            default_config("scenario1", link=d)

    @pytest.mark.parametrize("spec", ["quartic", "cubic:x", "cubic:-1",
                                      "identity:inf", "tanhsig:0",
                                      "logitnorm:nan", "logit-of-cdf",
                                      "identity:", "cubic:"])
    def test_bad_specs(self, spec):
        with pytest.raises(ValueError):
            StrengthLink.from_spec(spec)


class TestPatternDistribution:
    def test_uniform_psi(self):
        p = PatternDistribution.from_psi([0.0, 0.0, 0.0])
        np.testing.assert_allclose(p.weights, [1 / 3] * 3, rtol=0, atol=1e-16)

    def test_abs_family_weights(self):
        p = PatternDistribution.from_family("abs", 0.1, 4)
        raw = np.exp(-0.1 * np.arange(1, 5))
        np.testing.assert_allclose(p.weights, raw / raw.sum(), rtol=1e-15)

    @pytest.mark.parametrize("beta,K", [(math.nan, 3), (math.inf, 3), (-math.inf, 2),
                                        (0.1, 0), (0.1, -2)])
    def test_family_refuses_non_finite_beta_and_empty_K(self, beta, K):
        with pytest.raises(InvalidPatternError,
                           match=rf"pattern sq needs a finite beta and K >= 1, "
                                 rf"got beta={beta!r} and K={K}"):
            PatternDistribution.from_family("sq", beta, K)

    @pytest.mark.parametrize("family", ["abs", "sq"])
    @pytest.mark.parametrize("beta,top", [(1e308, 0), (-1e308, 2), (1e200, 0)])
    def test_family_huge_beta_is_one_point_law(self, family, beta, top, recwarn):
        weights = [0.0, 0.0, 0.0]
        weights[top] = 1.0
        assert PatternDistribution.from_family(family, beta, 3).weights == tuple(weights)
        assert not recwarn.list

    def test_spec_builds_what_the_constructors_build(self):
        from ordrank.snr import minimal_snr_monotone
        assert (PatternDistribution.from_spec("sq:0.3,K=4")
                == PatternDistribution.from_family("sq", 0.3, 4))
        assert (PatternDistribution.from_spec("weights:1,3", K=2)
                == PatternDistribution.from_weights([1, 3]))
        assert PatternDistribution.from_spec("uniform", 3) == PatternDistribution.uniform(3)
        assert (PatternDistribution.from_spec("K=5,min-monotone")
                == minimal_snr_monotone(5)[1])

    @pytest.mark.parametrize("spec,parts", [
        ("abs:0.1,K=4", ("abs", ["0.1"], ["4"])), ("uniform", ("uniform", [], [])),
        ("K=3, weights:1,2,3", ("weights", ["1", "2", "3"], ["3"])),
        ("k=2,weights:", ("weights", [""], ["2"])),
    ])
    def test_split_spec(self, spec, parts):
        assert PatternDistribution.split_spec(spec) == parts

    @pytest.mark.parametrize("spec", [{"family": "abs"}, ["abs"], 0.5, None])
    def test_non_string_spec_shows_the_string_form(self, spec):
        with pytest.raises(ValueError, match=r"a pattern is a name\[:args\]\[,K=<k>\] "
                                             r"string such as 'abs:0.5,K=4'"):
            PatternDistribution.from_spec(spec)

    def test_neg_inf_psi_gives_zero_weight(self):
        p = PatternDistribution.from_psi(
            [math.log(4 / 5), -math.inf, -math.inf, math.log(1 / 5)])
        np.testing.assert_allclose(p.weights, [0.8, 0.0, 0.0, 0.2],
                                   rtol=0, atol=1e-15)

    def test_all_neg_inf_invalid(self):
        with pytest.raises(InvalidPatternError):
            PatternDistribution.from_psi([-math.inf, -math.inf])

    def test_shift_invariance_exact_for_dyadic_shifts(self):
        psi = np.array([0.5, -1.25, -3.0])
        base = PatternDistribution.from_psi(psi)
        for c in (2.0, -8.0, 0.25):
            assert PatternDistribution.from_psi(psi + c).weights == base.weights

    def test_shift_invariance_fuzz(self):
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(50):
            psi = rng.uniform(-3, 2, size=int(rng.integers(1, 8)))
            c = float(rng.uniform(-20, 20))
            a = PatternDistribution.from_psi(psi).weights
            b = PatternDistribution.from_psi(psi + c).weights
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("build,match", [
        (lambda: PatternDistribution(()), "weights must be a non-empty 1-d sequence"),
        (lambda: PatternDistribution.from_psi([]), "psi must be a non-empty 1-d sequence"),
        (lambda: PatternDistribution.from_psi([math.nan]), "psi entries must be real or -inf"),
        (lambda: PatternDistribution.from_family("cube", 1.0, 3),
         "unknown pattern family 'cube'"),
    ], ids=["no-weights", "no-psi", "nan-psi", "unknown-family"])
    def test_empty_or_unknown_input_rejected(self, build, match):
        with pytest.raises(ValueError, match=f"^{match}$"):
            build()

    def test_negative_weight_rejected(self):
        with pytest.raises(InvalidPatternError):
            PatternDistribution((1.2, -0.2))

    def test_unnormalized_tuple_rejected(self):
        with pytest.raises(InvalidPatternError):
            PatternDistribution((0.5, 0.4))

    def test_unnormalized_sum_is_named_as_a_float(self):
        with pytest.raises(InvalidPatternError, match=r"^weights sum to 0\.9, expected 1$"):
            PatternDistribution((0.5, 0.4))

    @pytest.mark.filterwarnings("error")
    def test_overflowing_sum_refused_without_a_warning(self):
        with pytest.raises(InvalidPatternError, match=r"^weights sum to inf, expected 1$"):
            PatternDistribution((1e308, 1e308))

    def test_inverse_snr(self):
        p = PatternDistribution.from_family("abs", 0.1, 4)
        assert p.inverse_snr == pytest.approx(p.variance() / p.mean() ** 2,
                                              rel=1e-15)

    def test_inverse_snr_zero_for_degenerate_law(self):
        # a point mass within the 1e-12 normalization slack: the variance
        # keeps a rounding residue, the inverse SNR must not
        p = PatternDistribution((0.0, 1.0 - 1e-13))
        assert p.variance() > 0.0
        assert p.inverse_snr == 0.0


class TestPmf:
    def test_symmetric_at_gamma_zero(self):
        m = OrdinalModel(StrengthLink("identity"), PatternDistribution.uniform(1))
        assert pmf(m, 0.0, 1) == 0.5

    def test_two_outcome_hand_value(self):
        # K=1 uniform, identity link, gamma=1: P(Y=1) = e^2 / (e^2 + 1)
        m = OrdinalModel(StrengthLink("identity"), PatternDistribution.uniform(1))
        expected = math.exp(2.0) / (math.exp(2.0) + 1.0)
        assert pmf(m, 1.0, 1) == pytest.approx(expected, rel=1e-14)

    def test_matches_brute_force_normalization(self):
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(40):
            m = random_model(rng)
            gamma = float(rng.uniform(-2.0, 2.0))
            oracle = brute_force_pmf(m, gamma)
            for k, p in oracle.items():
                assert pmf(m, gamma, k) == pytest.approx(p, rel=1e-12, abs=1e-15)

    def test_normalization_fuzz(self):
        rng = np.random.default_rng(RNG_SEED + 1)
        for _ in range(60):
            m = random_model(rng)
            gamma = float(rng.uniform(-3.0, 3.0))
            _, probs = m.pmf_table(gamma)
            assert abs(probs.sum() - 1.0) < 1e-12

    def test_table_broadcasts_over_gamma(self):
        m = random_model(np.random.default_rng(RNG_SEED + 3))
        gammas = np.array([-2.0, -0.1, 0.0, 0.3, 40.0])
        _, table = m.pmf_table(gammas)
        assert table.shape == (gammas.size, 2 * m.K)
        for g, row in zip(gammas, table):
            np.testing.assert_array_equal(row, m.pmf_table(float(g))[1])

    def test_reflection_exact(self):
        rng = np.random.default_rng(RNG_SEED + 2)
        for _ in range(40):
            m = random_model(rng)
            gamma = float(rng.uniform(-3.0, 3.0))
            for k in m.support:
                assert pmf(m, gamma, int(k)) == pmf(m, -gamma, int(-k))

    def test_cubic_link_large_gamma_no_overflow(self):
        m = OrdinalModel(StrengthLink("cubic"), PatternDistribution.uniform(4))
        _, probs = m.pmf_table(40.0)  # phi = 64000: naive exp would overflow
        assert np.all(np.isfinite(probs))
        assert abs(probs.sum() - 1.0) < 1e-12


class TestProbPositive:
    def test_half_gamma_link(self):
        m = OrdinalModel(StrengthLink("identity", scale=0.5),
                         PatternDistribution.uniform(3))
        assert m.prob_positive(1.0) == pytest.approx(math.e / (1 + math.e),
                                                     rel=1e-14)

    def test_gamma_zero_is_half(self):
        rng = np.random.default_rng(RNG_SEED + 3)
        for _ in range(20):
            assert random_model(rng).prob_positive(0.0) == 0.5

    def test_thurstone_branch_matches_normal_cdf(self):
        link = StrengthLink("logitnorm", scale=0.5)
        m = OrdinalModel(link, PatternDistribution.uniform(2))
        assert m.prob_positive(0.3) == pytest.approx(normal_cdf(0.3), abs=1e-12)

    def test_independent_of_pattern(self):
        rng = np.random.default_rng(RNG_SEED + 4)
        link = StrengthLink("tanhsig")
        for _ in range(30):
            gamma = float(rng.uniform(-2, 2))
            K = int(rng.integers(1, 7))
            a = OrdinalModel(link, PatternDistribution.from_psi(
                rng.uniform(-2, 1, K))).prob_positive(gamma)
            b = OrdinalModel(link, PatternDistribution.from_psi(
                rng.uniform(-2, 1, K))).prob_positive(gamma)
            assert a == pytest.approx(b, abs=1e-12)


class TestKOneReductions:
    """Binary special cases: the logits of the logistic and normal CDFs
    (identity and logitnorm) at scale 1/2 reproduce the classical win
    probabilities."""

    GRID = np.linspace(-4.0, 4.0, 100)

    def test_logistic_branch(self):
        m = OrdinalModel(StrengthLink("identity", 0.5),
                         PatternDistribution.uniform(1))
        for g in self.GRID:
            sigma = 1.0 / (1.0 + math.exp(-g))
            assert m.prob_positive(float(g)) == pytest.approx(sigma, abs=1e-10)

    def test_normal_branch(self):
        m = OrdinalModel(StrengthLink("logitnorm", 0.5),
                         PatternDistribution.uniform(1))
        for g in self.GRID:
            assert m.prob_positive(float(g)) == pytest.approx(normal_cdf(float(g)),
                                                              abs=1e-10)


class TestMoments:
    def test_zero_gamma(self):
        m = OrdinalModel(StrengthLink("identity"), PatternDistribution.uniform(4))
        mom = m.moments(0.0)
        assert mom.mean == 0.0
        assert mom.snr == 0.0

    def test_k1_snr_is_sinh_squared(self):
        m = OrdinalModel(StrengthLink("identity"), PatternDistribution.uniform(1))
        assert m.moments(0.5).snr == pytest.approx(math.sinh(0.5) ** 2, rel=1e-12)

    def test_k2_uniform_mean(self):
        m = OrdinalModel(StrengthLink("identity"), PatternDistribution.uniform(2))
        oracle = sum(k * p for k, p in brute_force_pmf(m, 1.0).items())
        mom = m.moments(1.0)
        assert mom.mean == pytest.approx(oracle, rel=1e-12)
        assert mom.mean == pytest.approx(math.tanh(1.0) * 1.5, rel=1e-12)

    def test_agrees_with_brute_force(self):
        rng = np.random.default_rng(RNG_SEED + 5)
        for _ in range(60):
            m = random_model(rng, max_k=8)
            gamma = float(rng.uniform(-2, 2))
            pmf = brute_force_pmf(m, gamma)
            mean = sum(k * p for k, p in pmf.items())
            var = sum(k * k * p for k, p in pmf.items()) - mean**2
            mom = m.moments(gamma)
            assert mom.mean == pytest.approx(mean, abs=1e-10)
            assert mom.variance == pytest.approx(var, abs=1e-10)

    def test_saturated_snr_sentinel(self):
        m = OrdinalModel(StrengthLink("cubic"),
                         PatternDistribution.from_weights([0, 0, 1.0]))
        assert m.moments(50.0).snr == math.inf

    def test_large_phi_snr_keeps_sech(self):
        # tanh(125) rounds to 1, but sech^2 does not vanish until phi ~ 372
        m = OrdinalModel(StrengthLink("cubic"), PatternDistribution.uniform(1))
        assert m.moments(5.0).snr == pytest.approx(math.sinh(125.0) ** 2, rel=1e-12)


class TestSampling:
    def test_empty(self):
        m = OrdinalModel(StrengthLink("identity"), PatternDistribution.uniform(2))
        assert m.sample(0.3, np.random.default_rng(0), 0).size == 0

    def test_deterministic_under_seed(self):
        m = OrdinalModel(StrengthLink("identity"), PatternDistribution.uniform(3))
        a = m.sample(0.4, np.random.default_rng(99), 1000)
        b = m.sample(0.4, np.random.default_rng(99), 1000)
        np.testing.assert_array_equal(a, b)

    def test_support_and_no_zero(self):
        m = OrdinalModel(StrengthLink("cubic"),
                         PatternDistribution.from_family("sq", 0.3, 5))
        draws = m.sample(0.7, np.random.default_rng(1), 20000)
        assert np.all(draws != 0)
        assert np.all(np.abs(draws) <= 5)

    def test_positive_rate_within_binomial_band(self):
        m = OrdinalModel(StrengthLink("identity"),
                         PatternDistribution.from_family("abs", 0.1, 4))
        n = 10**6
        draws = m.sample(0.5, np.random.default_rng(7), n)
        p = m.prob_positive(0.5)
        band = 3.0 * math.sqrt(p * (1 - p) / n)
        assert abs(np.mean(draws > 0) - p) < band

    def test_empirical_pmf_converges(self):
        m = OrdinalModel(StrengthLink("tanhsig"),
                         PatternDistribution.from_family("abs", 0.4, 3))
        n = 200000
        draws = m.sample(0.8, np.random.default_rng(11), n)
        values, probs = m.pmf_table(0.8)
        for v, p in zip(values, probs):
            freq = np.mean(draws == v)
            assert abs(freq - p) < 4.0 * math.sqrt(p * (1 - p) / n) + 1e-9

    def test_negative_count_rejected(self):
        m = OrdinalModel(StrengthLink("identity"), PatternDistribution.uniform(1))
        with pytest.raises(ValueError):
            m.sample(0.0, np.random.default_rng(0), -1)


class TestBinarize:
    def test_sign_mean_matches_tanh(self):
        m = OrdinalModel(StrengthLink("identity"),
                         PatternDistribution.from_family("abs", 0.2, 4))
        n = 10**5
        signs = np.sign(m.sample(0.2, np.random.default_rng(5), n))
        mu = math.tanh(0.2)
        band = 3.0 * math.sqrt((1 - mu * mu) / n)
        assert abs(signs.mean() - mu) < band


class TestLogMgf:
    def test_non_finite_lam_is_named(self):
        m = OrdinalModel(StrengthLink("identity"), PatternDistribution.uniform(2))
        for call in (m.log_mgf, m.tilted_moments):
            with pytest.raises(ValueError, match="^lam must be finite$"):
                call(0.1, [0.0, math.nan])

    def test_lam_past_float_range_over_the_magnitudes_is_named(self):
        # lam = -1e308 is finite, lam * 4 is not
        m = OrdinalModel(StrengthLink("identity"), PatternDistribution.from_spec("abs:0.1,K=4"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (m.log_mgf, m.tilted_moments):
                with pytest.raises(ValueError, match="^lam times the largest magnitude, 4,"):
                    call(1.0, [0.5, -1e308])
            assert m.log_mgf(1.0, -1e307) == pytest.approx(4e307, rel=1e-15)

    def test_phi_plus_lam_past_float_range_is_named(self):
        # phi and lam * 4 are finite, phi + lam * k is not for k >= 1
        m = OrdinalModel(StrengthLink("identity"), PatternDistribution.from_spec("abs:0.1,K=4"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (m.log_mgf, m.tilted_moments):
                for lam in (4e307, [0.0, 4e307]):
                    with pytest.raises(ValueError, match="^phi plus lam times a magnitude "
                                                         "overflows the float range$"):
                        call(1.7e308, lam)
            # the other sign stays in range: Y is +1 almost surely
            assert m.log_mgf(1.7e308, -4e307) == pytest.approx(-4e307, rel=1e-15)
            assert m.tilted_moments(1.7e308, -4e307) == (1.0, 0.0)

    def test_zero_lambda(self):
        rng = np.random.default_rng(RNG_SEED + 6)
        for _ in range(20):
            m = random_model(rng)
            assert m.log_mgf(float(rng.uniform(-2, 2)), 0.0) == pytest.approx(
                0.0, abs=1e-12)

    def test_k1_closed_form_at_minus_phi(self):
        m = OrdinalModel(StrengthLink("identity"), PatternDistribution.uniform(1))
        phi = 0.8
        assert m.log_mgf(phi, -phi) == pytest.approx(-math.log(math.cosh(phi)),
                                                     rel=1e-12)

    def test_k2_uniform_brute_force(self):
        m = OrdinalModel(StrengthLink("identity"), PatternDistribution.uniform(2))
        gamma, lam = 0.5, 0.1
        oracle = math.log(sum(p * math.exp(lam * k)
                              for k, p in brute_force_pmf(m, gamma).items()))
        assert m.log_mgf(gamma, lam) == pytest.approx(oracle, rel=1e-12)

    def test_convex_in_lambda(self):
        rng = np.random.default_rng(RNG_SEED + 7)
        grid = np.linspace(-4, 4, 161)
        for _ in range(20):
            m = random_model(rng)
            vals = m.log_mgf(float(rng.uniform(-1.5, 1.5)), grid)
            assert np.all(np.diff(vals, 2) >= -1e-8)

    def test_tilted_mean_k1_root_at_minus_phi(self):
        m = OrdinalModel(StrengthLink("identity"), PatternDistribution.uniform(1))
        for phi in (1e-9, 0.8, 30.0):
            assert m.tilted_moments(phi, -phi)[0] == pytest.approx(0.0, abs=1e-15)
            assert m.tilted_moments(phi, 0.0)[0] == pytest.approx(math.tanh(phi), rel=1e-14)

    def test_broadcast_shapes(self):
        m = OrdinalModel(StrengthLink("cubic"),
                         PatternDistribution.from_family("abs", 0.3, 4))
        gammas = np.array([[0.1], [0.6], [2.0]])
        lams = np.linspace(-2, 2, 5)
        assert m.log_mgf(gammas, lams).shape == (3, 5)
        assert m.tilted_moments(gammas, lams)[0].shape == (3, 5)
        assert isinstance(m.log_mgf(0.6, 0.1), float)

    def test_vectorized_matches_scalar(self):
        m = OrdinalModel(StrengthLink("cubic"),
                         PatternDistribution.from_family("abs", 0.3, 4))
        lams = np.linspace(-2, 2, 9)
        vec = m.log_mgf(0.6, lams)
        for lam, v in zip(lams, vec):
            assert m.log_mgf(0.6, float(lam)) == pytest.approx(v, rel=1e-14)


def model_from_descriptor(text: str) -> OrdinalModel:
    """The model of a ``to_dict`` descriptor in JSON."""
    d = json.loads(text)
    return OrdinalModel(StrengthLink.from_spec(d["link"]),
                        PatternDistribution.from_dict(d["pattern"]))


class TestSerialization:
    def test_round_trip_bit_exact(self):
        m = OrdinalModel(
            StrengthLink("logitnorm", scale=0.5),
            PatternDistribution.from_psi([-0.1, -0.7, 0.3]))
        again = model_from_descriptor(json.dumps(m.to_dict()))
        assert again.link == m.link
        assert again.pattern.weights == m.pattern.weights

    def test_psi_descriptor_refused(self):
        # a descriptor carries weights, as to_dict writes them
        with pytest.raises(InvalidPatternError, match="needs 'weights'"):
            model_from_descriptor('{"link": "identity",'
                                  ' "pattern": {"K": 2, "psi": [0.0, -1.0]}}')

    def test_mismatched_k_rejected(self):
        with pytest.raises(InvalidPatternError):
            PatternDistribution.from_dict({"K": 3, "weights": ["0.5", "0.5"]})
