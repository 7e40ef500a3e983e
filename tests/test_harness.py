"""Tests for the Monte-Carlo harness: config handling, determinism of the
per-grid-point streams, estimator sanity, and agreement with exact
enumeration."""

import hashlib
import itertools
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from ordrank import harness
from ordrank.harness import (
    ConfigError,
    ExperimentConfig,
    default_config,
    run_experiment,
)
from ordrank.model import PatternDistribution, StrengthLink


def small_two_item(**overrides) -> ExperimentConfig:
    base = dict(
        scenario="two_item",
        link="identity",
        pattern="abs",
        K=2,
        L_grid=(4, 6),
        gammas=(0.25,),
        betas=(0.3,),
        replications=2000,
        base_seed=42,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_json_round_trip(self):
        configs = [default_config(sc) for sc in harness.SCENARIOS]
        configs.append(default_config("scenario1", n=3, theta_gap=None,
                                      theta=(0.4, 0, -0.4)))
        for cfg in configs:
            again = ExperimentConfig.from_json(json.dumps(cfg.to_dict()))
            assert again == cfg

    def test_readme_config_example_loads(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("\n## Experiment configs\n", 1)[1]
        block = section.split("```json\n", 1)[1].split("```", 1)[0]
        cfg = ExperimentConfig.from_json(block)
        d = cfg.to_dict()
        assert {k: d[k] for k in json.loads(block)} == json.loads(block)
        assert [beta for beta, _ in cfg.models] == list(cfg.betas)

    def test_optional_keys_may_be_omitted(self):
        cfg = ExperimentConfig.from_dict({
            "scenario": "scenario1", "link": "identity",
            "pattern": "abs", "betas": [1.0], "K": 3.0,
            "L_grid": [10.0], "replications": 5, "base_seed": 1,
            "theta_gap": 1})
        assert (cfg.n, cfg.ci_level, cfg.theta, cfg.gammas) == (2, 0.99, None, None)
        assert cfg.K == 3 and cfg.L_grid == (10,)
        assert isinstance(cfg.theta_gap, float)

    def test_missing_required_key(self):
        d = default_config("scenario1").to_dict()
        del d["K"]
        with pytest.raises(ConfigError, match="K"):
            ExperimentConfig.from_dict(d)

    def test_null_required_value(self):
        d = {**default_config("scenario1").to_dict(), "n": None}
        with pytest.raises(ConfigError, match="n may not be null"):
            ExperimentConfig.from_dict(d)

    @pytest.mark.parametrize("key,value", [
        ("K", 2.7), ("replications", 99.9), ("L_grid", [100.5, 200.9]),
        ("K", True), ("K", math.inf), ("n", math.nan),
    ])
    def test_int_fields_refuse_truncation(self, key, value):
        d = {**default_config("scenario1").to_dict(), key: value}
        with pytest.raises(ConfigError, match=f"config field {key}: "):
            ExperimentConfig.from_dict(d)

    def test_tuples_and_numpy_scalars_are_numbers(self):
        cfg = default_config("scenario1", K=np.int64(5), theta_gap=np.float64(0.05),
                             L_grid=(np.int64(100), 200.0), betas=(np.float32(1.0),))
        assert (cfg.K, cfg.L_grid, cfg.betas) == (5, (100, 200), (1.0,))
        assert type(cfg.K) is int and type(cfg.theta_gap) is float
        assert cfg.to_dict() == default_config("scenario1", L_grid=(100, 200)).to_dict()

    def test_theta_length_must_match_n(self):
        with pytest.raises(ConfigError, match="theta"):
            default_config("scenario1", theta_gap=None,
                           theta=(0.2, 0.0, -0.2))  # n=10

    @pytest.mark.parametrize("overrides", [
        {"theta_gap": 0.0},
        {"n": 3, "theta_gap": None, "theta": (0.4, 0.4, -0.8)},
    ])
    def test_tied_theta_refused_at_load(self, overrides):
        # refused before run_experiment draws any outcome counts
        with pytest.raises(ConfigError, match="theta ties items 0 and 1"):
            default_config("scenario1", **overrides)

    def test_grid_must_increase(self):
        with pytest.raises(ConfigError):
            small_two_item(L_grid=(6, 4))

    def test_positive_gammas_required(self):
        with pytest.raises(ConfigError):
            small_two_item(gammas=(0.2, -0.1))

    @pytest.mark.parametrize("gamma", [math.nan, math.inf])
    def test_non_finite_gammas_refused_at_load(self, gamma):
        with pytest.raises(ConfigError, match="two_item gammas must be positive and finite"):
            default_config("two_item", gammas=(0.05, gamma))

    @pytest.mark.parametrize("scenario,overrides,match", [
        ("two_item", {"gammas": (0.05, 1e200)},
         r"link cubic leaves float range at gamma=1e\+200"),
        ("scenario1", {"theta_gap": 1e150}, "link cubic leaves float range at gamma="),
    ], ids=["two_item-gammas", "scenario1-theta_gap"])
    def test_link_past_float_range_refused_at_load(self, scenario, overrides, match):
        # refused before run_experiment evaluates the link on the grid
        with pytest.raises(ConfigError, match=match):
            default_config(scenario, link="cubic", **overrides)

    def test_ci_level_bounds(self):
        with pytest.raises(ConfigError):
            small_two_item(ci_level=1.0)

    def test_replications_positive(self):
        with pytest.raises(ConfigError):
            small_two_item(replications=0)

    def test_scenario2_needs_betas(self):
        with pytest.raises(ConfigError):
            default_config("scenario2", betas=None)

    def test_unknown_scenario_refused(self):
        with pytest.raises(ConfigError, match="^unknown scenario 'nope'$"):
            default_config("nope")

    @pytest.mark.parametrize("scenario,overrides,match", [
        ("scenario1", {"pattern": "abs:0.9", "betas": None}, "its bare name"),
        ("scenario3", {"pattern": "uniform"}, "no other pattern takes betas"),
        ("two_item", {"n": 7}, "two_item reads no n"),
        ("two_item", {"theta": [0.1, -0.1]}, "two_item reads no n, theta"),
        ("two_item", {"theta_gap": 0.05}, "two_item reads no n, theta"),
        ("scenario1", {"gammas": [0.1]}, "scenario1 reads no gammas"),
        ("scenario2", {"gammas": [0.1]}, "scenario2 reads no gammas"),
        ("two_item", {"pattern": "abs:0.5"}, "beta values in betas"),
        ("scenario2", {"pattern": "sq:0.5"}, "beta values in betas"),
        ("scenario2", {"L_grid": [100, 200]}, "single L"),
        ("scenario1", {"ci_levle": 0.5}, r"config keys \['ci_levle'\] name no field"),
        ("scenario1", {"n": 3, "theta": [0.9, 0.0, -0.9]},
         "exactly one of theta, theta_gap"),
        ("scenario1", {"K": 2, "pattern": "weights:0.5,0.5"},
         r"got pattern 'weights:0.5,0.5' and betas \(1.0,\)"),
        ("scenario1", {"pattern": "abs,K=5"}, "its bare name"),
        ("scenario1", {"pattern": "abs", "betas": None}, "got pattern 'abs' and betas None"),
        ("scenario1", {"pattern": "uniform,K=4", "betas": None},
         r"needs one K \(config field K or ',K=<k>'\), got \[4, 5\]"),
        ("scenario1", {"pattern": "weights:0.2,0.8", "betas": None},
         r"got \[2, 5\]"),
    ])
    def test_fields_the_scenario_does_not_read_rejected(self, scenario,
                                                        overrides, match):
        d = {**default_config(scenario).to_dict(), **overrides}
        with pytest.raises(ConfigError, match=match):
            ExperimentConfig.from_dict(d)

    def test_every_pattern_form_loads(self):
        # every spec that --pattern accepts, with the config's K
        for pattern, betas in (("abs", (1.0,)), ("sq", (0.2, 0.4)),
                               ("weights:0.2,0.2,0.2,0.2,0.2", None),
                               ("weights:1,1,1,1,1,K=5", None), ("uniform", None),
                               ("uniform,K=5", None), ("min-monotone", None),
                               ("min-unconstrained,K=5", None)):
            cfg = default_config("scenario1", pattern=pattern, betas=betas)
            assert [m.pattern.K for _, m in cfg.models] == [5] * len(betas or [0])

    def test_two_item_with_pattern_beta_and_no_grid(self):
        # a family's beta comes only from betas
        with pytest.raises(ConfigError, match="beta values in betas"):
            small_two_item(pattern="abs:0.3", betas=None)

    def test_ranking_scenarios_run_over_a_beta_grid(self):
        cfg = default_config("scenario3", n=4, L_grid=(20, 40), replications=20,
                             betas=(0.3, 0.9))
        points = run_experiment(cfg).points
        assert [(p.params["beta"], p.params["L"]) for p in points] == [
            (0.3, 20), (0.3, 40), (0.9, 20), (0.9, 40)]

    def test_csv_pattern_column_reads_spec_name(self):
        for pattern, betas, label in (("abs", (0.3,), "abs"), ("sq", (0.3,), "sq"),
                                      ("weights:0.5,0.5", None, "weights"),
                                      ("uniform,K=2", None, "uniform"),
                                      ("K=2,min-monotone", None, "min-monotone")):
            cfg = small_two_item(pattern=pattern, betas=betas, replications=10)
            rows = run_experiment(cfg).to_csv().splitlines()[1:]
            assert {row.split(",")[2] for row in rows} == {label}


class TestDeterminism:
    def test_rerun_identical(self):
        cfg = small_two_item(replications=300)
        assert run_experiment(cfg).to_csv() == run_experiment(cfg).to_csv()

    def test_scenario1_rerun_identical(self):
        cfg = default_config("scenario1", n=4, L_grid=(20, 40),
                             replications=100)
        assert run_experiment(cfg).to_csv() == run_experiment(cfg).to_csv()

    @pytest.mark.parametrize("cfg", [
        small_two_item(betas=(0.1, 0.9), gammas=(0.1, 0.2)),
        default_config("scenario1", n=4, L_grid=(20, 40), replications=100),
    ])
    def test_one_generator_per_grid_point(self, monkeypatch, cfg):
        seeds = []
        real = np.random.default_rng

        def counting(seed):
            seeds.append(seed)
            return real(seed)

        monkeypatch.setattr(np.random, "default_rng", counting)
        res = run_experiment(cfg)
        assert seeds == [[cfg.base_seed, g] for g in range(len(res.points))]

    def test_replications_above_block_size(self, monkeypatch):
        reps = harness._BLOCK + 3
        cfg = default_config("scenario1", n=4, L_grid=(20,), replications=reps)
        text = run_experiment(cfg).to_csv()
        rows = text.splitlines()[1:]
        assert rows and all(row.split(",")[-2] == str(reps) for row in rows)
        assert run_experiment(cfg).to_csv() == text
        # blocks continue one stream: the block size does not change output
        monkeypatch.setattr(harness, "_BLOCK", 5)
        assert run_experiment(cfg).to_csv() == text

    def test_ranking_blocks_score_through_count_scores(self, monkeypatch):
        # one count_scores call per grid point per block, on the block's sums
        cfg = default_config("scenario1", n=4, L_grid=(20, 40), replications=12)
        text = run_experiment(cfg).to_csv()
        calls = []
        real = harness.count_scores

        def counting(data):
            calls.append((data.rounds, data.raw.shape))
            return real(data)

        monkeypatch.setattr(harness, "count_scores", counting)
        monkeypatch.setattr(harness, "_BLOCK", 5)
        assert run_experiment(cfg).to_csv() == text
        assert calls == [(L, (size, 6)) for L in (20, 40) for size in (5, 5, 2)]

    def test_seed_changes_output(self):
        a = run_experiment(small_two_item(replications=300))
        b = run_experiment(small_two_item(replications=300, base_seed=43))
        assert a.to_csv() != b.to_csv()


class TestTwoItem:
    def test_saturated_regime(self):
        cfg = small_two_item(gammas=(10.0,), L_grid=(50,), replications=500)
        res = run_experiment(cfg)
        for name in ("p_raw_positive", "p_sign_positive"):
            assert res.points[0].metrics[name].estimate > 0.999

    def test_single_magnitude_gap_is_exactly_zero(self):
        # K=1: the raw sum is the sign sum, so both hit on the same draws
        cfg = small_two_item(pattern="weights:1", K=1, betas=None,
                             replications=500)
        for point in run_experiment(cfg).points:
            assert point.metrics["p_sign_minus_raw"].estimate == 0.0

    def test_matches_enumeration_within_band(self):
        cfg = small_two_item(replications=20000)
        model = dict(cfg.models)[0.3]
        values, probs = model.pmf_table(0.25)
        res = run_experiment(cfg)
        for point in res.points:
            L = point.params["L"]
            exact_raw = exact_sign = 0.0
            for seq in itertools.product(range(values.size), repeat=L):
                prob = math.prod(probs[i] for i in seq)
                if sum(int(values[i]) for i in seq) > 0:
                    exact_raw += prob
                if sum(np.sign(values[i]) for i in seq) > 0:
                    exact_sign += prob
            for name, exact in (("p_raw_positive", exact_raw),
                                ("p_sign_positive", exact_sign)):
                est = point.metrics[name].estimate
                band = 4.0 * math.sqrt(exact * (1 - exact) / cfg.replications)
                assert abs(est - exact) < band

    def test_estimates_in_unit_interval(self):
        res = run_experiment(small_two_item(replications=200))
        for point in res.points:
            for name, m in point.metrics.items():
                if name == "p_sign_minus_raw":  # a difference, not a probability
                    assert -1.0 <= m.estimate <= 1.0
                    continue
                assert 0.0 <= m.ci_lo <= m.estimate <= m.ci_hi <= 1.0

    def test_bernoulli_se_formula(self):
        res = run_experiment(small_two_item(replications=400))
        m = res.points[0].metrics["p_raw_positive"]
        p = m.estimate
        assert m.se == pytest.approx(math.sqrt(p * (1 - p) / 400), rel=1e-12)

    def test_grid_expansion_order(self):
        cfg = small_two_item(betas=(0.1, 0.9), gammas=(0.1, 0.2), L_grid=(4,),
                             replications=10)
        res = run_experiment(cfg)
        combos = [(p.params.get("beta"), p.params["gamma"]) for p in res.points]
        assert combos == [(0.1, 0.1), (0.1, 0.2), (0.9, 0.1), (0.9, 0.2)]


class TestScenario1:
    def test_degenerate_pattern_equalizes_taus(self):
        cfg = default_config(
            "scenario1", n=2, K=3, theta_gap=0.3, L_grid=(30,),
            replications=200, pattern="weights:0,0,1", betas=None)
        res = run_experiment(cfg)
        point = res.points[0]
        assert point.metrics["tau_ordinal"].estimate == pytest.approx(
            point.metrics["tau_binary"].estimate, abs=0.0)

    def test_error_decreases_with_l(self):
        cfg = default_config("scenario1", n=8, L_grid=(50, 400),
                             replications=300, betas=(0.9,), K=4)
        res = run_experiment(cfg)
        first, last = res.points[0], res.points[-1]
        for name in ("tau_ordinal", "tau_binary"):
            assert last.metrics[name].estimate < first.metrics[name].estimate

    def test_binary_beats_ordinal(self):
        cfg = default_config("scenario1", n=10, L_grid=(500,),
                             replications=500, betas=(1.0,), K=5)
        point = run_experiment(cfg).points[0]
        assert (point.metrics["tau_binary"].estimate
                < point.metrics["tau_ordinal"].estimate)


class TestScenario2:
    def test_sq_family_snr_monotone_and_gap_declines(self):
        cfg = default_config(
            "scenario2", n=10, K=5, L_grid=(100,), replications=400,
            pattern="sq", betas=(0.1, 0.4, 0.7, 1.0))
        res = run_experiment(cfg)
        snrs = [p.metrics["snr_exact"].estimate for p in res.points]
        gaps = [p.metrics["tau_gap"].estimate for p in res.points]
        assert all(b > a for a, b in zip(snrs, snrs[1:]))
        # paired-gap estimates track the SNR inversely
        assert gaps[0] > gaps[-1]
        ranks_minus_snr = np.argsort(np.argsort([-s for s in snrs]))
        ranks_gap = np.argsort(np.argsort(gaps))
        rho = np.corrcoef(ranks_minus_snr, ranks_gap)[0, 1]
        assert rho > 0

    def test_single_l_required(self):
        with pytest.raises(ConfigError):
            run_experiment(default_config("scenario2", L_grid=(100, 200)))

    def test_degenerate_endpoint_gap_is_zero(self):
        # K=1 magnitude law: signs carry all information, gap exactly zero
        cfg = default_config("scenario2", n=4, K=1, L_grid=(40,),
                             replications=50, betas=(0.5,), pattern="abs")
        point = run_experiment(cfg).points[0]
        assert point.metrics["tau_gap"].estimate == 0.0
        assert point.metrics["snr_exact"].estimate == math.inf


class TestScenario3:
    def test_ratio_flagged_when_ordinal_error_zero(self):
        cfg = default_config("scenario3", n=4, theta_gap=2.0, K=2,
                             L_grid=(50, 100), replications=50, betas=(0.5,))
        res = run_experiment(cfg)
        for point in res.points:
            assert point.metrics["tau_ratio"].flagged
            assert point.metrics["tau_ratio"].estimate is None

    def test_ratio_declines(self):
        cfg = default_config("scenario3", n=10, K=4, betas=(0.9,),
                             L_grid=(100, 400), replications=300)
        res = run_experiment(cfg)
        first = res.points[0].metrics["tau_ratio"]
        last = res.points[-1].metrics["tau_ratio"]
        assert not first.flagged and not last.flagged
        assert last.estimate < first.estimate
        assert last.ci_hi < 1.0


class TestResultPayloads:
    def test_csv_header_and_rows(self):
        res = run_experiment(small_two_item(replications=50))
        lines = res.to_csv().splitlines()
        assert lines[0] == ("scenario,link,pattern,beta,n,K,L,gamma_or_w,"
                            "metric,estimate,se,ci_lo,ci_hi,reps,seed")
        assert len(lines) == 1 + 3 * len(res.points)

    # sha256 of the default configs' CSV at perfbench's replication counts,
    # taken with numpy 2.x; a change to numpy's multinomial stream moves them
    GOLDEN = {
        ("two_item", 300): "dc4b74df4d4cbc418d959634edc69182efab1226c4a3e4ba3e4e79c85708a9de",
        ("scenario1", 20): "01f288f305750141576b9515116aa74a28dae3389366fb974d29c994cba38ecd",
        ("scenario2", 20): "f707b8defc356cd109f74ffd2873def689ee8dd3f98efefa535718425bb6b34a",
        ("scenario3", 20): "95152fb1398a676953b07ea02feab42c500bca8b49a848c79d1f1aedb1d0aec9",
    }

    @pytest.mark.parametrize("scenario,reps", sorted(GOLDEN))
    def test_default_csv_bytes_pinned(self, scenario, reps):
        csv_text = run_experiment(default_config(scenario, replications=reps)).to_csv()
        digest = hashlib.sha256(csv_text.encode("utf-8")).hexdigest()
        assert digest == self.GOLDEN[scenario, reps]


class TestModelPartsAtConstruction:
    """The link and every grid pattern are built when the config is, so a
    malformed one fails as a ``ConfigError`` before any run."""

    @pytest.mark.parametrize("key,value", [
        ("pattern", 1.0),
        ("pattern", "abs"),
        ("pattern", [1, 2]),
    ])
    def test_non_object_parts_rejected(self, key, value):
        # without betas: a bare family name needs them, and a non-string
        # pattern is refused for not being a spec
        d = {**default_config("scenario1").to_dict(), key: value}
        del d["betas"]
        match = (r"got pattern 'abs' and betas None" if value == "abs" else
                 r"a pattern is a name\[:args\]\[,K=<k>\] string such as .*, "
                 f"not {re.escape(repr(value))}")
        with pytest.raises(ConfigError, match=match):
            ExperimentConfig.from_dict(d)

    @pytest.mark.parametrize("key,value", [
        ("link", "quartic"),
        ("link", ":1.0"),
        ("link", "identity:-1.0"),
        ("pattern", "cube"),
        ("pattern", "weights:0.5,0.4"),  # two weights but K=5
        ("pattern", {"family": "abs", "beta": 1.0}),  # the old object form
        ("link", {"kind": "identity", "scael": 3.0}),  # the old object form
        ("link", "identity:"),  # an empty scale
    ])
    def test_parts_that_do_not_construct_rejected(self, key, value):
        d = {**default_config("scenario1").to_dict(), key: value}
        if key == "pattern":
            del d["betas"]  # so the pattern itself is what fails
        with pytest.raises(ConfigError, match="bad link or pattern"):
            ExperimentConfig.from_dict(d)

    @pytest.mark.parametrize("link", [["identity"], 1.0], ids=["list", "number"])
    def test_non_string_link_rejected(self, link):
        d = {**default_config("scenario1").to_dict(), "link": link}
        with pytest.raises(ConfigError, match="bad link or pattern"):
            ExperimentConfig.from_dict(d)

    def test_weights_pattern_with_beta_grid_rejected(self):
        with pytest.raises(ConfigError, match="no other pattern takes betas"):
            small_two_item(pattern="weights:0.5,0.5")

    def test_grid_patterns_built_once(self, monkeypatch):
        cfg = small_two_item(betas=(0.3, 0.6), L_grid=(4, 6, 8), replications=20)
        calls = []
        real = PatternDistribution.from_family
        monkeypatch.setattr(PatternDistribution, "from_family",
                            lambda *a: calls.append(a) or real(*a))
        run_experiment(cfg)
        assert calls == []
        assert cfg.models[0][1].link is cfg.models[1][1].link

    def test_csv_link_column_reads_spec(self):
        for link, label in [("identity:0.5", "identity:0.5"),
                            ("logitnorm:2", "logitnorm:2.0"),
                            ("tanhsig:1", "tanhsig"), ("cubic:3.0", "cubic:3.0")]:
            cfg = small_two_item(link=link, replications=10)
            rows = run_experiment(cfg).to_csv().splitlines()[1:]
            assert {row.split(",")[1] for row in rows} == {label}
            assert cfg.models[0][1].link == StrengthLink.from_spec(label)
