"""Release acceptance gate.

One test per shipping criterion, each at its stated tolerance and runtime
budget; conftest prints a PASS/FAIL line per criterion.  Monte-Carlo checks
run at desk scale with fixed seeds, so green results are reproducible
bit-for-bit.
"""

import itertools
import json
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import binom, norm

from ordrank.cli import parse_and_dispatch
from ordrank.data import (
    build_pair_comparisons,
    evaluate_pair_protocol,
    load_ratings,
    synthetic_ratings,
)
from ordrank.harness import ExperimentConfig, default_config, run_experiment
from ordrank.model import OrdinalModel, PatternDistribution, StrengthLink
from ordrank.ranking import (
    PreferenceVector,
    asymptotic_tau,
    asymptotic_two_item,
    expected_scores,
)
from ordrank.rates import rate_at_zero_binary, rate_at_zero_nitem, rate_at_zero_ordinal
from ordrank.snr import minimal_snr_monotone, minimal_snr_unconstrained, snr_of_pattern


def normal_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


class timer:
    def __init__(self, budget_s: float):
        self.budget = budget_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        if exc[0] is None:
            assert time.perf_counter() - self.t0 < self.budget


def test_criterion_01_snr_fidelity(capsys):
    """CLI SNR reports reproduce the reference magnitude-law values."""
    with timer(1.0):
        assert parse_and_dispatch(["snr", "--K", "4", "--pattern", "abs:0.1"]) == 0
        low_beta = json.loads(capsys.readouterr().out)
        assert parse_and_dispatch(["snr", "--K", "4", "--pattern", "abs:0.9"]) == 0
        high_beta = json.loads(capsys.readouterr().out)
    assert low_beta["snr"] == pytest.approx(4.5523, abs=1e-3)
    assert high_beta["snr"] == pytest.approx(3.572, abs=1e-2)


def test_criterion_02_minimal_snr_bounds():
    """Closed-form minima match their constructed patterns, and seeded
    simplex searches never undercut either bound."""
    rng = np.random.default_rng(20260405)
    ks = np.arange(1, 20, dtype=float)
    with timer(10.0):
        for K in range(2, 11):
            levels = ks[:K]
            for fn, sort_rows in ((minimal_snr_unconstrained, False),
                                  (minimal_snr_monotone, True)):
                value, pattern = fn(K)
                assert snr_of_pattern(pattern).snr == pytest.approx(
                    value, abs=1e-10)
                draws = rng.dirichlet(np.ones(K), size=10**4)
                if sort_rows:
                    draws = np.sort(draws, axis=1)[:, ::-1]
                mean = draws @ levels
                var = draws @ levels**2 - mean**2
                assert np.min(mean**2 / var) >= value - 1e-9


def test_criterion_03_binary_model_reductions():
    """With scale-1/2 logit-of-CDF links at K=1, the win probability is the
    logistic sigmoid (logistic base) or the normal CDF (normal base)."""
    grid = np.linspace(-4.0, 4.0, 100)
    btl = OrdinalModel(StrengthLink("identity", 0.5),
                       PatternDistribution.uniform(1))
    tm = OrdinalModel(StrengthLink("logitnorm", 0.5),
                      PatternDistribution.uniform(1))
    for g in grid:
        g = float(g)
        assert abs(btl.prob_positive(g) - 1.0 / (1.0 + math.exp(-g))) < 1e-10
        assert abs(tm.prob_positive(g) - normal_cdf(g)) < 1e-10


FIXTURES_C4 = [
    # (K, L, gamma, beta)
    (1, 3, 0.3, None),
    (1, 6, 0.2, None),
    (2, 4, 0.4, 0.3),
    (2, 6, 0.15, 0.3),
]


def _two_item_exact(model, gamma, L):
    """Exact (P(raw sum > 0), P(sign sum > 0)) after L rounds: the raw sum's
    law is the L-fold convolution of the outcome pmf, and the sign sum is
    positive when more than L/2 outcomes are."""
    values, probs = model.pmf_table(gamma)
    K = model.K
    step = np.zeros(2 * K + 1)
    step[values + K] = probs
    total = np.ones(1)
    for _ in range(L):
        total = np.convolve(total, step)
    # total[m] is P(raw sum = m - L K)
    p_raw = float(total[L * K + 1:].sum())
    p_sign = float(binom.sf(L // 2, L, model.prob_positive(gamma)))
    return p_raw, p_sign


def test_criterion_04_enumeration_oracle():
    """Harness Monte-Carlo hit rates sit inside 4-sigma binomial bands of
    exhaustive enumeration over all outcome sequences."""
    reps = 10**5
    with timer(60.0):
        for K, L, gamma, beta in FIXTURES_C4:
            pattern = (PatternDistribution.uniform(1) if K == 1
                       else PatternDistribution.from_family("abs", beta, K))
            model = OrdinalModel(StrengthLink("identity"), pattern)
            values, probs = model.pmf_table(gamma)
            exact_raw = exact_sign = 0.0
            for seq in itertools.product(range(values.size), repeat=L):
                prob = math.prod(probs[i] for i in seq)
                if sum(int(values[i]) for i in seq) > 0:
                    exact_raw += prob
                if sum(1 if values[i] > 0 else -1 for i in seq) > 0:
                    exact_sign += prob
            assert _two_item_exact(model, gamma, L) == pytest.approx(
                (exact_raw, exact_sign), rel=0.0, abs=1e-12)
            # the config builds the same law: uniform(1), or abs at beta
            cfg = ExperimentConfig(
                scenario="two_item", link="identity",
                pattern="uniform" if K == 1 else "abs",
                betas=None if K == 1 else (beta,), K=K, L_grid=(L,),
                gammas=(gamma,), replications=reps, base_seed=1404)
            assert cfg.models[0][1].pattern == pattern
            point = run_experiment(cfg).points[0]
            for name, exact in (("p_raw_positive", exact_raw),
                                ("p_sign_positive", exact_sign)):
                band = 4.0 * math.sqrt(exact * (1.0 - exact) / reps)
                assert abs(point.metrics[name].estimate - exact) < band


def test_criterion_05_two_item_crossover():
    """At (beta, gamma) = (0.1, 0.15), K=4, L=500: the sign metric beats the
    raw metric beyond 3 paired-MC sigma, both MC hit rates sit inside 4-sigma
    binomial bands of the exact law, and both normal-limit predictors lie
    within the 99% half-width z*sqrt(p(1-p)/reps) of the exact p."""
    reps = 10**5
    with timer(300.0):
        cfg = default_config("two_item", gammas=(0.15,), betas=(0.1,),
                             L_grid=(500,), replications=reps, K=4,
                             base_seed=505)
        point = run_experiment(cfg).points[0]
    gap = point.metrics["p_sign_minus_raw"]
    assert gap.estimate > 0.0
    assert gap.estimate > 3.0 * gap.se
    model = OrdinalModel(StrengthLink("identity"),
                         PatternDistribution.from_family("abs", 0.1, 4))
    p_sign_pred, p_raw_pred = asymptotic_two_item(model, 0.15, 500)
    exact_raw, exact_sign = _two_item_exact(model, 0.15, 500)
    z = norm.ppf(0.5 + cfg.ci_level / 2.0)
    for name, exact, pred in (("p_sign_positive", exact_sign, p_sign_pred),
                              ("p_raw_positive", exact_raw, p_raw_pred)):
        sd = math.sqrt(exact * (1.0 - exact) / reps)
        assert abs(point.metrics[name].estimate - exact) < 4.0 * sd
        assert abs(pred - exact) <= z * sd


def _grid_minimum(f, lo, hi, points=10**4):
    xs = np.linspace(lo, hi, points)
    vals = f(xs)
    i = int(np.argmin(vals))
    xs2 = np.linspace(xs[max(i - 1, 0)], xs[min(i + 1, points - 1)], points)
    vals2 = f(xs2)
    return float(np.min(vals2))


def _brute_log_mgf(model, gamma, lams):
    values, probs = model.pmf_table(gamma)
    return np.log(np.exp(np.outer(lams, values)) @ probs)


def test_criterion_06_rate_ordering_fuzz():
    """Over randomized links, non-degenerate patterns and positive gaps, the
    misranking rates satisfy binary > ordinal > 0 and the optimizer matches a
    dense lambda-grid oracle within 1e-6; likewise for the n-item rates."""
    rng = np.random.default_rng(606)
    kinds = ["identity", "cubic", "tanhsig", "logitnorm"]
    with timer(120.0):
        for _ in range(50):
            kind = str(rng.choice(kinds))
            link = StrengthLink(kind, scale=float(rng.uniform(0.4, 1.5)))
            K = int(rng.integers(2, 7))
            model = OrdinalModel(link, PatternDistribution.from_psi(
                rng.uniform(-1.5, 1.0, K)))
            gamma = float(rng.uniform(0.05, 1.0))
            binary = rate_at_zero_binary(model, gamma)
            ordinal = rate_at_zero_ordinal(model, gamma)
            assert ordinal.converged
            assert 0.0 < ordinal.rate < binary.rate
            span = abs(model.link(gamma)) + 5.0
            oracle = -_grid_minimum(
                lambda ls: _brute_log_mgf(model, gamma, ls), -span, span)
            assert abs(ordinal.rate - oracle) < 1e-6
        for n in (3, 4, 5):
            for _ in range(4):
                theta = PreferenceVector(tuple(np.sort(
                    rng.uniform(-0.7, 0.7, n))[::-1]))
                model = OrdinalModel(
                    StrengthLink(str(rng.choice(["identity", "tanhsig"]))),
                    PatternDistribution.from_psi(
                        rng.uniform(-1.0, 0.5, int(rng.integers(2, 5)))))
                i, j = sorted(rng.choice(n, 2, replace=False).tolist())
                ordinal = rate_at_zero_nitem(model, theta, i, j, binarized=False)
                binary = rate_at_zero_nitem(model, theta, i, j, binarized=True)
                assert 0.0 < ordinal.rate < binary.rate
                th = theta.theta
                sign_model = OrdinalModel(model.link, PatternDistribution((1.0,)))
                for mdl, res in ((model, ordinal), (sign_model, binary)):
                    def obj(lams, mdl=mdl):
                        total = _brute_log_mgf(mdl, th[i] - th[j], 2.0 * lams)
                        for k in range(n):
                            if k not in (i, j):
                                total = total + _brute_log_mgf(
                                    mdl, th[i] - th[k], lams)
                                total = total + _brute_log_mgf(
                                    mdl, th[k] - th[j], lams)
                        return total
                    oracle = -_grid_minimum(obj, -6.0, 6.0)
                    assert abs(res.rate - oracle) < 1e-6


def test_criterion_07_nitem_dominance_and_ratio_trend():
    """Low-SNR ten-item run: the binarized ranking error is below the ordinal
    one with disjoint 99% intervals, and the error ratio falls as rounds
    grow."""
    with timer(600.0):
        cfg = default_config("scenario1", n=10, K=4, theta_gap=0.05,
                             L_grid=(500,), replications=1000,
                             pattern="abs", betas=(0.9,), base_seed=707)
        point = run_experiment(cfg).points[0]
        tau_ord = point.metrics["tau_ordinal"]
        tau_bin = point.metrics["tau_binary"]
        assert tau_bin.estimate < tau_ord.estimate
        assert tau_bin.ci_hi < tau_ord.ci_lo
        cfg3 = default_config("scenario3", n=10, K=4, theta_gap=0.05,
                              L_grid=tuple(100 * i for i in range(1, 11)),
                              replications=1000,
                              pattern="abs", betas=(0.9,), base_seed=708)
        res3 = run_experiment(cfg3)
    ls, ratios = [], []
    for p in res3.points:
        metric = p.metrics["tau_ratio"]
        if not metric.flagged:
            ls.append(p.params["L"])
            ratios.append(metric.estimate)
    assert len(ls) >= 5
    slope = np.polyfit(ls, ratios, 1)[0]
    assert slope < 0.0


SETTINGS_C8 = [
    ("identity", "abs", 0.1, 5),
    ("identity", "abs", 0.9, 4),
    ("tanhsig", "sq", 0.5, 5),
]


def test_criterion_08_asymptotic_tau_brackets_mc():
    """Closed-form ranking-error limits bracket the Monte-Carlo estimates
    within twice the MC confidence half-width at three link/pattern
    settings (n=10, L=500)."""
    with timer(300.0):
        for link_spec, family, beta, K in SETTINGS_C8:
            cfg = default_config("scenario1", n=10, K=K, theta_gap=0.015,
                                 L_grid=(500,), replications=1000,
                                 link=link_spec, pattern=family, betas=(beta,),
                                 base_seed=808)
            point = run_experiment(cfg).points[0]
            model = OrdinalModel(
                StrengthLink.from_spec(link_spec),
                PatternDistribution.from_family(family, beta, K))
            limits = asymptotic_tau(
                model, PreferenceVector.equally_spaced(10, 0.015), 500)
            for name, limit in zip(("tau_ordinal", "tau_binary"), limits):
                m = point.metrics[name]
                halfwidth = (m.ci_hi - m.ci_lo) / 2.0
                assert abs(m.estimate - limit) <= 2.0 * halfwidth


def test_criterion_09_expected_score_consistency():
    """Expected counting scores order items exactly as the true preferences
    for 200 randomized draws; zero failures allowed."""
    rng = np.random.default_rng(909)
    kinds = ["identity", "cubic", "tanhsig", "logitnorm"]
    failures = 0
    for _ in range(200):
        n = int(rng.integers(2, 12))
        theta = PreferenceVector(tuple(rng.normal(scale=0.8, size=n)))
        kind = str(rng.choice(kinds))
        link = StrengthLink(kind, scale=float(rng.uniform(0.2, 2.0)))
        pattern = PatternDistribution.from_psi(
            rng.uniform(-2.0, 1.0, int(rng.integers(1, 8))))
        raw, signed = expected_scores(OrdinalModel(link, pattern), theta)
        order = np.argsort(np.asarray(theta.theta))
        if not (np.all(np.diff(np.asarray(raw)[order]) > 0)
                and np.all(np.diff(np.asarray(signed)[order]) > 0)):
            failures += 1
    assert failures == 0


def _ratings_source():
    configured = os.environ.get("ORDRANK_MOVIELENS")
    candidates = [configured] if configured else []
    candidates.append(Path(__file__).resolve().parent.parent / "data" / "u.data")
    for path in candidates:
        if path and Path(path).is_file():
            return load_ratings(path, format="movielens-100k-tab"), True
    return synthetic_ratings(seed=7), False


def test_criterion_10_ratings_protocol_direction():
    """On real ratings when available (otherwise the bundled synthetic
    fixture), sign-sum aggregation predicts held-out preferences better than
    raw-sum aggregation, significantly at the 1% level over 100 splits."""
    table, is_real = _ratings_source()
    min_ratings = 200 if is_real else 100
    pairs = build_pair_comparisons(table, min_ratings_per_item=min_ratings)
    report = evaluate_pair_protocol(pairs, train_frac=0.7, repetitions=100,
                                    min_pair_count=10, seed=7)
    assert report.mean_binary > report.mean_ordinal
    assert report.ttest.t > 0.0
    assert report.ttest.p < 0.01


def test_criterion_11_simulate_determinism(tmp_path):
    """A simulate run with fixed config and seed yields byte-identical CSV
    under --threads 1 and --threads 8 (the flag is accepted and ignored)."""
    configs = {
        "two_item.json": default_config(
            "two_item", L_grid=(10, 20), gammas=(0.2,), betas=(0.4,), K=3,
            replications=3000, base_seed=1111),
        "scenario1.json": default_config(
            "scenario1", n=5, L_grid=(30, 60), replications=300,
            base_seed=1112),
    }
    for name, cfg in configs.items():
        cfg_path = tmp_path / name
        cfg_path.write_text(json.dumps(cfg.to_dict()), encoding="utf-8")
        outputs = []
        for threads in ("1", "8"):
            out = tmp_path / f"{name}.{threads}.csv"
            code = parse_and_dispatch([
                "simulate", "--config", str(cfg_path), "--out", str(out),
                "--threads", threads])
            assert code == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
