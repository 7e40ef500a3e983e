"""End-to-end tests of the command-line surface: exit codes, JSON/CSV
payloads, and the ingest/evaluate pipeline."""

import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from ordrank import data as data_mod
from ordrank.cli import _build_parser, parse_and_dispatch, parse_link_spec, parse_pattern_spec
from ordrank.data import build_pair_comparisons, save_pairs, synthetic_ratings
from ordrank.harness import default_config
from ordrank.model import OrdinalModel, PatternDistribution, StrengthLink


def run_cli(*argv) -> int:
    return parse_and_dispatch(list(argv))


def write_ratings_file(path, table) -> None:
    lines = [f"{u}\t{i}\t{int(r)}\t{t}"
             for u, i, r, t in zip(table.users, table.items,
                                   table.ratings, table.timestamps)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestSpecParsers:
    def test_link_specs(self):
        assert parse_link_spec("identity").kind == "identity"
        assert parse_link_spec("cubic:0.5").scale == 0.5
        assert parse_link_spec("tanhsig").kind == "tanhsig"
        link = parse_link_spec("logitnorm:0.5")
        assert (link.kind, link.scale) == ("logitnorm", 0.5)

    def test_bad_link(self):
        from ordrank.cli import UsageError
        with pytest.raises(UsageError):
            parse_link_spec("quartic")

    def test_pattern_families(self):
        p = parse_pattern_spec("abs:0.1,K=4")
        assert p.K == 4
        assert parse_pattern_spec("uniform", K=3).weights == (1 / 3,) * 3

    def test_pattern_weights_list(self):
        p = parse_pattern_spec("weights:0.5,0.3,0.2")
        assert p.K == 3
        assert p.weights[0] == pytest.approx(0.5)

    def test_pattern_minimizers(self):
        p = parse_pattern_spec("min-unconstrained,K=4")
        assert p.weights == (0.8, 0.0, 0.0, 0.2)
        q = parse_pattern_spec("min-monotone", K=4)
        assert q.weights[0] == pytest.approx(38 / 52)

    def test_pattern_errors(self):
        from ordrank.cli import UsageError
        with pytest.raises(UsageError):
            parse_pattern_spec("abs:0.1")  # no K anywhere
        with pytest.raises(UsageError):
            parse_pattern_spec("bogus:1,K=3")


class TestExitCodes:
    def test_no_arguments_usage(self, capsys):
        assert run_cli() == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_flag_lists_usage(self, capsys):
        assert run_cli("snr", "--K", "4", "--pattern", "abs:0.1", "--bogus") == 1
        err = capsys.readouterr().err
        assert "--pattern" in err

    @pytest.mark.parametrize("argv", [
        ("snr", "--K", "x", "--pattern", "abs:0.1"),
        ("snr", "--K", "4", "--pattern", "abs:0.1", "--bogus"),
        ("bogus",),
    ])
    def test_usage_printed_once(self, capsys, argv):
        assert run_cli(*argv) == 1
        assert capsys.readouterr().err.count("usage:") == 1

    def test_missing_config_file(self, capsys):
        assert run_cli("simulate", "--config", "missing.json") == 2
        assert "missing.json" in capsys.readouterr().err

    def test_domain_error_is_exit_2(self, capsys):
        assert run_cli("snr-min", "--K", "1") == 2

    @pytest.mark.parametrize("command", ["evaluate", "histogram"])
    def test_corrupt_pairs_file_is_exit_2(self, tmp_path, capsys, command):
        path = tmp_path / "pairs.npz"
        with open(path, "wb") as fh:
            np.savez(fh, item_i=np.array([0, 1]), item_j=np.array([1, 2]),
                     offsets=np.array([0, 5, 3]), diffs=np.ones(5))
        assert run_cli(command, "--pairs", str(path)) == 2
        assert "offsets" in capsys.readouterr().err

    @pytest.mark.parametrize("dtype", [np.uint32, np.uint64])
    def test_unsigned_offsets_read_as_signed(self, tmp_path, capsys, dtype):
        outputs = []
        for name, offsets in (("signed", np.array([0, 2, 4, 6])),
                              ("unsigned", np.array([0, 2, 4, 6], dtype=dtype))):
            path = tmp_path / f"{name}.npz"
            np.savez(path, item_i=np.array([0, 0, 1]), item_j=np.array([1, 2, 2]),
                     offsets=offsets, diffs=np.array([1.0, -2.0, 3.0, 1.0, -1.0, 2.0]))
            for argv in (("evaluate", "--min-pair-count", "2", "--reps", "5"), ("histogram",)):
                assert run_cli(argv[0], "--pairs", str(path), *argv[1:]) == 0
                outputs.append(capsys.readouterr().out)
        assert outputs[:2] == outputs[2:]

    @pytest.mark.parametrize("command", ["evaluate", "histogram"])
    def test_decreasing_unsigned_offsets_are_exit_2(self, tmp_path, capsys, command):
        # np.diff wraps around on unsigned integers, so [0, 5, 3, 6] looked ordered
        path = tmp_path / "pairs.npz"
        np.savez(path, item_i=np.array([0, 0, 1]), item_j=np.array([1, 2, 2]),
                 offsets=np.array([0, 5, 3, 6], dtype=np.uint64), diffs=np.ones(6))
        assert run_cli(command, "--pairs", str(path)) == 2
        assert ("offsets must hold 4 non-decreasing entries from 0 to 6"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("command", ["evaluate", "histogram"])
    def test_npy_pairs_file_is_exit_2(self, tmp_path, capsys, command):
        path = tmp_path / "pairs.npy"
        np.save(path, np.arange(5))
        assert run_cli(command, "--pairs", str(path)) == 2
        assert f"{path}: one array, not a save_pairs archive" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["evaluate", "histogram"])
    def test_text_pairs_file_is_exit_2(self, tmp_path, capsys, command):
        path = tmp_path / "x.npz"
        path.write_text("hello\n", encoding="utf-8")
        assert run_cli(command, "--pairs", str(path)) == 2
        err = capsys.readouterr().err
        assert f"{path}: unreadable as numpy data, not a save_pairs archive" in err
        assert "pickle" not in err

    @pytest.mark.parametrize("command", ["evaluate", "histogram"])
    def test_pairs_archive_missing_an_array_is_exit_2(self, tmp_path, capsys,
                                                      command):
        path = tmp_path / "pairs.npz"
        with open(path, "wb") as fh:
            np.savez(fh, item_i=np.array([0, 1]))
        assert run_cli(command, "--pairs", str(path)) == 2
        assert (f"{path}: no item_j array, not a save_pairs archive"
                in capsys.readouterr().err)

    def test_corrupt_compressed_pairs_file_is_exit_2(self, tmp_path, capsys):
        path = tmp_path / "pairs.npz"
        np.savez_compressed(path, item_i=np.arange(1000), item_j=np.arange(1000) + 1,
                            offsets=np.arange(1001), diffs=np.ones(1000))
        raw = bytearray(path.read_bytes())
        raw[200:260] = bytes(b ^ 0x55 for b in raw[200:260])  # inside item_i's data
        path.write_bytes(bytes(raw))
        assert run_cli("histogram", "--pairs", str(path)) == 2
        assert (f"{path}: unreadable as numpy data, not a save_pairs archive"
                in capsys.readouterr().err)

    def test_missing_pairs_file_keeps_os_error(self, tmp_path, capsys):
        path = tmp_path / "absent.npz"
        assert run_cli("histogram", "--pairs", str(path)) == 2
        assert f"No such file or directory: '{path}'" in capsys.readouterr().err


class TestSnrCommands:
    def test_snr_value(self, capsys):
        assert run_cli("snr", "--K", "4", "--pattern", "abs:0.1") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["snr"] == pytest.approx(4.5523, abs=1e-3)

    def test_snr_takes_pattern_like_rates(self, capsys):
        # the K may sit in the spec, as on rates and model-info
        assert run_cli("snr", "--pattern", "abs:0.1,K=4") == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["K"], payload["pattern"]) == (4, "abs:0.1,K=4")
        assert "psi" not in payload
        assert run_cli("snr", "--K", "4", "--psi", "abs:0.1") == 1

    def test_weights_summing_past_the_largest_float(self, capsys):
        # 1e308 + 1e308 overflows a float; the law is still (1/2, 1/2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("snr", "--pattern", "weights:1e308,1e308") == 0
            big = capsys.readouterr()
            assert run_cli("snr", "--pattern", "weights:1,1") == 0
        assert big.err == ""
        assert big.out.replace("1e308,1e308", "1,1") == capsys.readouterr().out

    def test_snr_min_monotone(self, capsys):
        assert run_cli("snr-min", "--K", "4", "--monotone") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["value"] == pytest.approx(120 / 49, rel=1e-12)
        weights = [float(w) for w in payload["pattern"]["weights"]]
        assert weights == sorted(weights, reverse=True)

    def test_snr_min_unconstrained(self, capsys):
        assert run_cli("snr-min", "--K", "2") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["value"] == pytest.approx(8.0)


class TestRankCommand:
    THREE_ITEMS = "i,j,l,y\n0,1,1,2\n0,1,2,1\n0,2,1,1\n0,2,2,1\n1,2,1,-3\n1,2,2,1\n"

    @staticmethod
    def rank(tmp_path, csv_text, theta) -> int:
        data = tmp_path / "data.csv"
        data.write_text(csv_text, encoding="utf-8")
        path = tmp_path / "theta.json"
        path.write_text(json.dumps(theta), encoding="utf-8")
        return run_cli("rank", "--input", str(data), "--theta", str(path))

    def test_scores_and_taus(self, tmp_path, capsys):
        assert self.rank(tmp_path, self.THREE_ITEMS, [0.3, 0.2, 0.1]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scores"]["ordinal_scores"][0] == pytest.approx(2.5)
        assert 0.0 <= payload["tau_ordinal"] <= 1.0
        assert 0.0 <= payload["tau_binary"] <= 1.0

    @pytest.mark.parametrize("rows,message", [
        ("0,1,1,2\n1,1,1,2\n", "line 3: self-comparison 1"),
        ("0,1,0,2\n", "line 2: rounds are one-based, got 0"),
        ("0,1,1,2\n1,0,1,-1\n", "line 3: duplicate round 1 for pair (0,1)"),
        ("0,1,1,2\n0,1,2,1\n0,2,1,1\n", "pairs carry unequal round counts: [1, 2]"),
        ("0,1,1,2\n0,1,2,1\n0,2,1,1\n0,2,3,1\n", "pair (0, 2) rounds are not 1..2"),
        ("0,1,1,1\n0,1,2,1_0\n", "line 3: malformed row"),
        ("0,1,1,1\n0,1,2,\u0663\n", "line 3: malformed row"),
        (f'0,1,1,"{"1" * 200_000}"\n', "line 2: field larger than field limit (131072)"),
    ], ids=["self-comparison", "round-0", "duplicate-round", "unequal-rounds",
            "rounds-not-1-to-L", "underscore-digit", "non-ascii-digit", "csv-field-limit"])
    def test_csv_refusals_are_exit_2(self, tmp_path, capsys, rows, message):
        assert self.rank(tmp_path, "i,j,l,y\n" + rows, [0.3, 0.2, 0.1]) == 2
        assert message in capsys.readouterr().err

    def test_scores_exact_past_int64(self, tmp_path, capsys):
        # the raw sum 2**63 leaves int64 and once wrapped to -2**63
        big = 2**62
        assert self.rank(tmp_path, f"i,j,l,y\n0,1,1,{big}\n0,1,2,{big}\n", [0.2, 0.1]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scores"]["ordinal_scores"] == [float(big), -float(big)]
        assert payload["tau_ordinal"] == 0.0

    def test_item_without_comparisons_scores_zero(self, tmp_path, capsys):
        # theta names four items; item 3, the top one, is in no row
        assert self.rank(tmp_path, self.THREE_ITEMS, [0.3, 0.2, 0.1, 0.4]) == 0
        scores = json.loads(capsys.readouterr().out)["scores"]
        assert scores["ordinal_scores"] == [2.5, -2.5, 0.0, 0.0]
        assert scores["binary_scores"] == [2.0, -1.0, -1.0, 0.0]

    def test_theta_shorter_than_items_is_exit_2(self, tmp_path, capsys):
        assert self.rank(tmp_path, self.THREE_ITEMS, [0.3, 0.2]) == 2
        assert "bad pair (0, 2) for n=2" in capsys.readouterr().err

    def test_tied_theta_is_exit_2(self, tmp_path, capsys):
        assert self.rank(tmp_path, self.THREE_ITEMS, [0.3, 0.3, 0.1]) == 2
        assert "theta ties items 0 and 1" in capsys.readouterr().err

    def test_theta_shift_changes_nothing(self, tmp_path, capsys):
        outs = []
        for theta in ([0.5, -0.5], [1.5, 0.5]):
            assert self.rank(tmp_path, "i,j,l,y\n0,1,1,2\n0,1,2,-1\n", theta) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]


class TestRatesCommand:
    def test_rates_payload(self, capsys):
        assert run_cli("rates", "--link", "identity", "--pattern",
                       "abs:0.1,K=4", "--gamma", "0.15") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["binary"]["rate"] == pytest.approx(
            math.log(math.cosh(0.15)), rel=1e-10)
        assert 0.0 < payload["ordinal"]["rate"] < payload["binary"]["rate"]
        gap = payload["binary"]["rate"] - payload["ordinal"]["rate"]
        assert payload["crossover_rounds"] == math.ceil(math.log(10.0) / gap)

    @pytest.mark.parametrize("factor", ["inf", "nan", "-inf", "1", "0.5"])
    def test_factor_not_a_finite_number_above_one(self, capsys, factor):
        # inf overflowed math.ceil, and nan passed the old check
        assert run_cli("rates", "--link", "identity", "--pattern", "abs:0.1,K=4",
                       "--gamma", "0.15", f"--factor={factor}") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert ("crossover factor must be a finite number above 1, got "
                f"{float(factor)!r}") in captured.err

    def test_subnormal_rate_gap_has_no_crossover(self, capsys):
        # both rates are about 5e-321: log(10) / gap overflowed math.ceil
        assert run_cli("rates", "--link", "identity", "--pattern", "abs:0.1,K=4",
                       "--gamma", "1e-160") == 0
        out = capsys.readouterr().out
        assert '"crossover_rounds": null' in out
        binary, ordinal = (json.loads(out)[view]["rate"] for view in ("binary", "ordinal"))
        assert 0.0 < ordinal < binary < 1e-300
        assert not math.isfinite(math.log(10.0) / (binary - ordinal))


class TestSimulateCommand:
    def make_config(self, tmp_path, **overrides):
        cfg = default_config("two_item", L_grid=(4, 6), gammas=(0.3,),
                             betas=(0.5,), K=2, replications=400,
                             **overrides)
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(cfg.to_dict()), encoding="utf-8")
        return path

    def test_csv_output(self, tmp_path):
        cfg = self.make_config(tmp_path)
        out = tmp_path / "results.csv"
        assert run_cli("simulate", "--config", str(cfg), "--out", str(out)) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0].startswith("scenario,link,pattern,beta")
        assert len(lines) == 7  # header + 3 metrics x 2 grid points

    def test_thread_count_does_not_change_bytes(self, tmp_path):
        cfg = self.make_config(tmp_path)
        out1 = tmp_path / "a.csv"
        out8 = tmp_path / "b.csv"
        assert run_cli("simulate", "--config", str(cfg), "--out", str(out1),
                       "--threads", "1") == 0
        assert run_cli("simulate", "--config", str(cfg), "--out", str(out8),
                       "--threads", "8") == 0
        assert out1.read_bytes() == out8.read_bytes()


class TestIngestEvaluateHistogram:
    @pytest.fixture
    def pairs_file(self, tmp_path):
        table = synthetic_ratings(n_items=6, users_per_pair=40, seed=3)
        raw = tmp_path / "u.data"
        write_ratings_file(raw, table)
        out = tmp_path / "pairs.npz"
        code = run_cli("ingest", "--format", "movielens-100k-tab", "--path",
                       str(raw), "--min-item-ratings", "50", "--out", str(out))
        assert code == 0
        return out

    def test_ingest_creates_pairs(self, pairs_file):
        assert pairs_file.exists()

    def test_histogram(self, pairs_file, capsys):
        assert run_cli("histogram", "--pairs", str(pairs_file)) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["magnitudes"][0] == 1.0
        assert sum(payload["counts"]) > 0

    def test_evaluate_report(self, pairs_file, tmp_path):
        out = tmp_path / "report.json"
        assert run_cli("evaluate", "--pairs", str(pairs_file), "--train-frac",
                       "0.7", "--reps", "5", "--seed", "7", "--min-pair-count",
                       "10", "--out", str(out)) == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["repetitions"] == 5
        assert 0.0 <= payload["mean_accuracy"]["binary"] <= 1.0

    # sha256 of stdout on acceptance criterion 10's pairs (synthetic_ratings
    # seed 7, items rated at least 100 times), taken with the two-sort split
    # order; a change to the split order or its scoring moves them
    GOLDEN = {
        ("evaluate", "--seed", "7", "--train-frac", "0.7"):
            "a4e64973265f3e6e390968df9c91a88a88db467c2a4846d7328128e4f628ef43",
        ("evaluate", "--seed", "3", "--train-frac", "0.5", "--pairing", "pair"):
            "9352e47f4121513bd4e3e3d593746cdafcd72c25a806c1181c861e3a8125abb0",
        ("histogram",):
            "f5fbe59e26c1fa0f6edfbd7a55459902573818767841c36352de2a4ecbb0d744",
    }

    @pytest.fixture(scope="class")
    def criterion_10_pairs(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("crit10") / "pairs.npz"
        save_pairs(build_pair_comparisons(synthetic_ratings(seed=7),
                                          min_ratings_per_item=100), path)
        return path

    @pytest.mark.parametrize("argv", sorted(GOLDEN))
    def test_criterion_10_output_bytes_pinned(self, criterion_10_pairs, capsys, argv):
        assert run_cli(argv[0], "--pairs", str(criterion_10_pairs), *argv[1:]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == self.GOLDEN[argv]


class TestNegativeNumbers:
    """A negative number in exponent form is a flag value, not an option."""

    @pytest.mark.parametrize("gamma", ["-1e-4", "-1E-4", "-1.0e-4", "-.1e-3"])
    def test_rates_negative_gamma_exponent(self, gamma, capsys):
        assert run_cli("rates", "--link", "identity", "--pattern", "abs:0.1,K=4",
                       "--gamma", gamma) == 0
        assert json.loads(capsys.readouterr().out)["gamma"] == -1e-4

    def test_model_info_negative_gamma_exponent(self, capsys):
        assert run_cli("model-info", "--link", "identity", "--pattern",
                       "uniform,K=2", "--gamma", "-1e-4") == 0
        at = json.loads(capsys.readouterr().out)["at_gamma"]
        assert at["gamma"] == -1e-4 and at["mean"] < 0

    def test_non_number_still_an_option(self, capsys):
        assert run_cli("rates", "--link", "identity", "--pattern", "abs:0.1,K=4",
                       "--gamma", "-x") == 1
        assert "expected one argument" in capsys.readouterr().err


class TestModelInfo:
    def test_descriptor_reparses(self, capsys):
        assert run_cli("model-info", "--link", "logitnorm:0.5", "--pattern",
                       "abs:0.3,K=3", "--gamma", "0.4") == 0
        out = capsys.readouterr().out
        payload = json.loads(out)
        model = OrdinalModel(StrengthLink.from_spec(payload["link"]),
                             PatternDistribution.from_dict(payload["pattern"]))
        assert model.K == 3
        assert payload["link"] == "logitnorm:0.5"
        assert payload["at_gamma"]["prob_positive"] == pytest.approx(
            0.5 * (1 + math.erf(0.4 / math.sqrt(2))), abs=1e-10)

    def test_default_output_has_no_timestamps(self, capsys):
        assert run_cli("model-info", "--link", "identity", "--pattern",
                       "uniform,K=2") == 0
        assert "annotations" not in json.loads(capsys.readouterr().out)


class TestParserReuse:
    """The parser is built once per process; reusing it leaks no state from
    one call into the next."""

    CALLS = [
        ("snr", "--K", "4", "--pattern", "abs:0.1", "--bogus"),  # usage error
        ("rates", "--link", "identity", "--pattern", "abs:0.1,K=4", "--gamma", "0.15"),
        ("snr-min", "--K", "4", "--monotone"),
        ("snr-min", "--K", "4"),  # the flag of the call before must not leak
    ]

    @staticmethod
    def run_all(capsys, fresh: bool) -> list:
        results = []
        for argv in TestParserReuse.CALLS:
            if fresh:
                _build_parser.cache_clear()
            code = run_cli(*argv)
            captured = capsys.readouterr()
            results.append((code, captured.out, captured.err))
        return results

    def test_reuse_matches_fresh_parser(self, capsys):
        fresh = self.run_all(capsys, fresh=True)
        reused = self.run_all(capsys, fresh=False)
        assert [code for code, _, _ in fresh] == [1, 0, 0, 0]
        assert json.loads(fresh[2][1])["constraint"] == "non-increasing"
        assert json.loads(fresh[3][1])["constraint"] == "none"
        assert reused == fresh
        assert _build_parser() is _build_parser()

    def test_not_built_at_import(self):
        import ordrank

        env = {**os.environ, "PYTHONPATH": str(Path(ordrank.__file__).parents[1])}
        code = ("import ordrank.cli as c; "
                "print(c._build_parser.cache_info().currsize)")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True, env=env).stdout
        assert out.strip() == "0"


class TestSpecRules:
    """Every bad link spec is a usage error, and a pattern spec has one K
    rule: every K given must agree, and a family without an argument
    rejects one."""

    @pytest.mark.parametrize("spec", ["cubic:x", "cubic:-1", "identity:inf",
                                      "tanhsig:0", "identity:"])
    def test_bad_link_spec_exits_1(self, spec, capsys):
        assert run_cli("model-info", "--link", spec, "--pattern", "uniform,K=2") == 1
        assert "scale" in capsys.readouterr().err

    def test_parse_link_spec_is_from_spec(self):
        from ordrank.model import LINK_NAMES
        for name in LINK_NAMES:
            assert parse_link_spec(f"{name}:0.5") == StrengthLink.from_spec(f"{name}:0.5")

    @pytest.mark.parametrize("spec,K", [
        ("uniform:3,K=2", None),  # uniform takes no argument
        ("min-monotone:7,K=4", None),
        ("min-unconstrained:1", 4),
        ("abs:0.1,K=4", 5),  # ,K= disagrees with --K
        ("abs:0.1,K=4,K=5", None),
        ("weights:0.5,0.5", 3),
        ("abs,K=4", None),  # a family argument is missing
        ("sq:0.1,0.2,K=3", None),
        ("weights", None),
        ("abs:x,K=4", None),
        ("abs:0.1,K=x", None),
    ])
    def test_pattern_repros_are_usage_errors(self, spec, K):
        from ordrank.cli import UsageError
        with pytest.raises(UsageError):
            parse_pattern_spec(spec, K)

    def test_agreeing_K_values_accepted(self):
        assert parse_pattern_spec("abs:0.1,K=4", K=4) == parse_pattern_spec("abs:0.1,K=4")
        assert parse_pattern_spec("weights:0.5,0.5,K=2", K=2).K == 2

    def test_snr_rejects_conflicting_K(self, capsys):
        assert run_cli("snr", "--K", "4", "--pattern", "abs:0.1,K=5") == 1
        assert run_cli("snr", "--K", "4", "--pattern", "abs:0.1,K=4") == 0
        assert json.loads(capsys.readouterr().out)["K"] == 4

    @pytest.mark.parametrize("spec,needle", [
        ("abs:nan,K=3", "pattern abs needs a finite beta and K >= 1, got beta=nan and K=3"),
        ("abs:inf,K=3", "got beta=inf and K=3"),
        ("sq:-inf,K=3", "pattern sq needs a finite beta"),
        ("abs:0.1,K=0", "got beta=0.1 and K=0"),
    ])
    def test_family_spec_errors_name_family_beta_and_K(self, spec, needle, capsys):
        assert run_cli("snr", "--pattern", spec) == 2
        assert needle in capsys.readouterr().err

    @pytest.mark.parametrize("spec,code", [
        ("abs:x,K=4", 1), ("weights:-1,2", 2), ("uniform,K=0", 2),
        ("min-monotone,K=1", 2), ("bogus,K=2", 1), ("", 1),
    ])
    def test_pattern_exit_codes(self, spec, code):
        assert run_cli("rates", "--link", "identity", "--pattern", spec,
                       "--gamma", "0.15") == code

    def test_rates_rejects_conflicting_K(self):
        assert run_cli("rates", "--link", "identity", "--pattern", "abs:0.1,K=4",
                       "--K", "5", "--gamma", "0.15") == 1


class TestFlagsWhereTheyAct:
    """``--seed`` goes on ``evaluate`` only; ``--out`` and ``--threads`` on
    every subcommand.  ``OPTIONS`` lists every option each subcommand
    accepts, so a flag is added here in the same change that adds it."""

    OPTIONS = {
        "snr": ("--out", "--threads", "--K", "--pattern"),
        "snr-min": ("--out", "--threads", "--K", "--monotone"),
        "rank": ("--out", "--threads", "--input", "--theta"),
        "rates": ("--out", "--threads", "--link", "--pattern", "--gamma", "--K",
                  "--factor"),
        "simulate": ("--out", "--threads", "--config"),
        "ingest": ("--out", "--threads", "--format", "--path",
                   "--min-item-ratings"),
        "evaluate": ("--out", "--threads", "--pairs", "--train-frac", "--reps",
                     "--min-pair-count", "--pairing", "--seed"),
        "histogram": ("--out", "--threads", "--pairs"),
        "model-info": ("--out", "--threads", "--link", "--pattern", "--K",
                       "--gamma"),
    }

    @staticmethod
    def commands_with(flag) -> set:
        return {name for name, p in _build_parser().subparsers.items()
                if f"[{flag}" in p.format_usage()}

    def test_option_counts(self):
        every = set(_build_parser().subparsers)
        assert len(every) == 9
        assert self.commands_with("--seed") == {"evaluate"}
        assert self.commands_with("--annotate") == set()
        assert self.commands_with("--out") == every
        assert self.commands_with("--threads") == every

    def test_options_table_matches_parser(self):
        parsed = {name: {s for a in p._actions for s in a.option_strings}
                  - {"-h", "--help"}
                  for name, p in _build_parser().subparsers.items()}
        assert parsed == {name: set(opts) for name, opts in self.OPTIONS.items()}
        assert sum(map(len, self.OPTIONS.values())) == 44

    def test_simulate_rejects_seed(self, tmp_path, capsys):
        cfg = default_config("two_item", L_grid=(4,), gammas=(0.3,), betas=(0.5,),
                             K=2, replications=10)
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(cfg.to_dict()), encoding="utf-8")
        assert run_cli("simulate", "--config", str(path), "--seed", "1") == 1
        assert "--seed" in capsys.readouterr().err

    def test_ingest_rejects_annotate(self, tmp_path, capsys):
        assert run_cli("ingest", "--path", str(tmp_path / "u.data"), "--out",
                       str(tmp_path / "pairs.npz"), "--annotate") == 1
        assert "--annotate" in capsys.readouterr().err

    def test_evaluate_reads_seed(self, tmp_path, capsys):
        table = synthetic_ratings(n_items=5, users_per_pair=30, seed=3)
        raw = tmp_path / "u.data"
        write_ratings_file(raw, table)
        pairs = tmp_path / "pairs.npz"
        assert run_cli("ingest", "--path", str(raw), "--min-item-ratings", "10",
                       "--out", str(pairs)) == 0
        outputs = []
        for seed in ("1", "1", "2"):
            assert run_cli("evaluate", "--pairs", str(pairs), "--reps", "4",
                           "--min-pair-count", "5", "--seed", seed) == 0
            outputs.append(json.loads(capsys.readouterr().out))
        assert outputs[0] == outputs[1]
        assert outputs[0] != outputs[2]


class TestInputBoundaries:
    def test_negative_evaluate_seed_is_exit_2(self, tmp_path, capsys):
        pairs = tmp_path / "pairs.npz"
        save_pairs(build_pair_comparisons(
            synthetic_ratings(n_items=4, users_per_pair=20, seed=3),
            min_ratings_per_item=10), pairs)
        assert run_cli("evaluate", "--pairs", str(pairs), "--seed", "-1") == 2
        assert "seed must be >= 0, got -1" in capsys.readouterr().err
        assert run_cli("evaluate", "--pairs", str(pairs), "--seed", "0") == 0

    @pytest.mark.parametrize("text", ["5", "null", '{"theta": 5}', '{"centered": true}',
                                      '[0.3, "a"]', '[0.2, true]', "[1e400, 0]", "[NaN, 0]"])
    def test_malformed_theta_is_exit_2(self, tmp_path, capsys, text):
        data = tmp_path / "data.csv"
        data.write_text("i,j,l,y\n0,1,1,2\n", encoding="utf-8")
        theta = tmp_path / "theta.json"
        theta.write_text(text, encoding="utf-8")
        assert run_cli("rank", "--input", str(data), "--theta", str(theta)) == 2
        # a JSON list of numbers that are not finite reads, then is refused
        want = "a finite 1-d vector" if text in ("[1e400, 0]", "[NaN, 0]") else "a JSON list"
        assert f"theta must be {want}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,code,message", [
        (("ingest", "--path", "{ratings}"), 1, "ingest needs --out for the pairs file"),
        (("ingest", "--path", "{ratings}", "--min-item-ratings", "0", "--out", "{out}"), 2,
         "min_ratings_per_item must be >= 1"),
        (("ingest", "--format", "generic-csv", "--path", "{empty}", "--out", "{out}"), 2,
         "{empty}: empty file"),
        (("evaluate", "--pairs", "{pairs}", "--train-frac", "1"), 2,
         "train_frac must lie in (0, 1)"),
        (("evaluate", "--pairs", "{pairs}", "--reps", "0"), 2, "repetitions must be >= 1"),
    ], ids=["ingest-without-out", "ingest-min-ratings-0", "ingest-empty-csv",
            "evaluate-train-frac-1", "evaluate-reps-0"])
    def test_refused_ingest_and_evaluate_options(self, tmp_path, capsys, argv, code,
                                                 message):
        table = synthetic_ratings(n_items=4, users_per_pair=20, seed=3)
        paths = {name: str(tmp_path / name)
                 for name in ("ratings", "out", "empty", "pairs")}
        write_ratings_file(Path(paths["ratings"]), table)
        Path(paths["empty"]).write_text("", encoding="utf-8")
        save_pairs(build_pair_comparisons(table, min_ratings_per_item=10), paths["pairs"])
        assert run_cli(*(a.format(**paths) for a in argv)) == code
        assert message.format(**paths) in capsys.readouterr().err
        assert not Path(paths["out"]).exists()

    def test_non_finite_rating_is_exit_2(self, tmp_path, capsys):
        raw = tmp_path / "u.data"
        raw.write_text("1\t10\tnan\t100\n1\t20\tinf\t101\n", encoding="utf-8")
        out = tmp_path / "pairs.npz"
        assert run_cli("ingest", "--path", str(raw), "--out", str(out)) == 2
        assert "line 1: rating 'nan' is not finite" in capsys.readouterr().err
        assert not out.exists()

    def test_misread_ratings_row_is_exit_2(self, tmp_path, capsys):
        raw = tmp_path / "u.data"
        raw.write_text("1\t10\t5\t100\n1_0\t20\t4\t101\n", encoding="utf-8")
        out = tmp_path / "pairs.npz"
        assert run_cli("ingest", "--path", str(raw), "--out", str(out)) == 2
        assert "line 2: malformed row '1_0\\t20\\t4\\t101'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text", ["user,item,rating\n1,10,5\n1,20,4,99\n",
                                      "user,item,rating,timestamp\n1,10,5,1\n1,20,4,2,\n"],
                             ids=["extra-value", "trailing-comma"])
    def test_generic_csv_row_wider_than_header_is_exit_2(self, tmp_path, capsys, text):
        raw = tmp_path / "r.csv"
        raw.write_text(text, encoding="utf-8")
        out = tmp_path / "pairs.npz"
        assert run_cli("ingest", "--format", "generic-csv", "--path", str(raw),
                       "--out", str(out)) == 2
        assert "line 3: malformed row" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command,text,line", [
        ("ingest", "1\t10\t5\t100\n\n\n1\tx\t3\t101\n", 4),
        ("ingest-csv", "user,item,rating\n1,10,5\n\n\n1,x,3\n", 5),
        ("ingest-csv", "user,item,rating\r\n1,10,5\r\n\r1,x,3\r\n", 4),
        ("rank", "i,j,l,y\n0,1,1,2\n\n\n0,x,2,1\n", 5),
        ("ingest-csv", 'user,item,rating,genre\n1,10,5,"a\nb"\n2,10,x,c\n', 4),
    ], ids=["tab", "generic-csv", "generic-csv-crlf-cr", "rank", "generic-csv-quoted-line-break"])
    def test_bad_row_after_blank_lines_names_its_physical_line(self, tmp_path, capsys,
                                                               command, text, line):
        path = tmp_path / "input"
        path.write_text(text, encoding="utf-8")
        theta = tmp_path / "theta.json"
        theta.write_text("[0.5, -0.5]", encoding="utf-8")
        args = {"ingest": ("ingest", "--path", str(path), "--out", str(tmp_path / "p.npz")),
                "ingest-csv": ("ingest", "--format", "generic-csv", "--path", str(path),
                               "--out", str(tmp_path / "p.npz")),
                "rank": ("rank", "--input", str(path), "--theta", str(theta))}[command]
        assert run_cli(*args) == 2
        assert f"line {line}: malformed row" in capsys.readouterr().err

    @pytest.mark.parametrize("command,name,text", [
        ("ingest", "u.data", "1\t10\t5\t100\n99999999999999999999\t20\t4\t101\n"),
        ("rank", "data.csv", "i,j,l,y\n0,1,1,99999999999999999999\n"),
        # past float range too: 400 digits
        ("ingest", "u.data", f"1\t10\t5\t100\n1{'0' * 400}\t20\t4\t101\n"),
        ("rank", "data.csv", f"i,j,l,y\n0,1,1,1{'0' * 400}\n"),
    ], ids=["ingest", "rank", "ingest-400-digits", "rank-400-digits"])
    def test_integer_outside_int64_is_exit_2(self, tmp_path, capsys, command,
                                             name, text):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        theta = tmp_path / "theta.json"
        theta.write_text("[0.5, -0.5]", encoding="utf-8")
        args = {"ingest": ("--path", str(path), "--out", str(tmp_path / "p.npz")),
                "rank": ("--input", str(path), "--theta", str(theta))}[command]
        assert run_cli(command, *args) == 2
        assert "outside int64" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ['{"theta": [0.5, -0.5], "centered": true}',
                                      '{"theta": [0.5, 0.4], "centered": "no"}'],
                             ids=["centered", "centered-string"])
    def test_theta_object_is_exit_2(self, tmp_path, capsys, text):
        # only differences of theta enter the model, so a file holds the list alone
        data = tmp_path / "data.csv"
        data.write_text("i,j,l,y\n0,1,1,2\n", encoding="utf-8")
        theta = tmp_path / "theta.json"
        theta.write_text(text, encoding="utf-8")
        assert run_cli("rank", "--input", str(data), "--theta", str(theta)) == 2
        assert ("theta must be a JSON list of numbers, such as [0.3, 0.2, 0.1]"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("command", ["rates", "model-info"])
    def test_overflowing_link_is_exit_2(self, capsys, command):
        # the same refusal in every command that evaluates the link, with no
        # warning from numpy
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli(command, "--link", "cubic", "--pattern", "abs:0.1,K=4",
                           "--gamma", "1e200") == 2
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        captured = capsys.readouterr()
        assert captured.err == "ordrank: link cubic leaves float range at gamma=1e+200\n"
        assert captured.out == ""

    def test_rate_bracket_past_float_range_is_exit_2(self, capsys):
        # phi = 1.25e308: the bracket end -2 phi would overflow, so the solve
        # refuses before it starts, with no warning from numpy
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli("rates", "--link", "cubic", "--pattern", "abs:0.1,K=4",
                           "--gamma", "5e102") == 2
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        captured = capsys.readouterr()
        assert captured.err == ("ordrank: link cubic at |gamma|=5e+102 is too large for "
                                "the rate solve: its bracket leaves float range\n")
        assert captured.out == ""

    def test_rate_at_a_saturated_link_in_range(self, capsys):
        # phi = 1e300: the ordinal rate is the saturated 0.4 phi of abs:0.1,K=4
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli("rates", "--link", "cubic", "--pattern", "abs:0.1,K=4",
                           "--gamma", "1e100") == 0
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        ordinal = json.loads(capsys.readouterr().out)["ordinal"]
        assert ordinal["converged"]
        assert ordinal["rate"] == pytest.approx(0.4e300, rel=1e-9)

    def test_small_cubic_scale_past_an_overflowing_cube_is_exit_0(self, capsys):
        # gamma**3 = 1e360 overflows, the link value 1e-300 * gamma**3 = 1e60 does not
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli("model-info", "--link", "cubic:1e-300", "--pattern",
                           "uniform,K=2", "--gamma", "1e120") == 0
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert json.loads(capsys.readouterr().out)["at_gamma"]["prob_positive"] == 1.0

    def test_ingest_past_the_sort_word_is_exit_2(self, tmp_path, capsys, monkeypatch):
        # 4 items need a 4-bit pair key, 18 two-item users a 5-bit user rank,
        # and 1-5 stars a 5-bit rating pair: 14 bits
        monkeypatch.setattr(data_mod, "_WORD_BITS", 13)
        raw = tmp_path / "u.data"
        write_ratings_file(raw, synthetic_ratings(n_items=4, users_per_pair=3, seed=1))
        out = tmp_path / "pairs.npz"
        assert run_cli("ingest", "--path", str(raw), "--min-item-ratings", "1",
                       "--out", str(out)) == 2
        assert capsys.readouterr().err == (
            "ordrank: 4 items, 18 users and 5 distinct ratings need a 4-bit pair key, "
            "a 5-bit user rank and a 5-bit rating pair, more than 13 bits\n")
        assert not out.exists()

    @pytest.mark.parametrize("key,value", [("pattern", 1.0), ("pattern", "abs"),
                                           ("pattern", [1, 2]), ("scenario", "nope"),
                                           ("scenario", "two_item"), ("gammas", [])])
    def test_malformed_simulate_config_is_exit_2(self, tmp_path, capsys, key, value):
        # without betas: a bare family name needs them, and a non-string
        # pattern is refused for not being a spec; scenario1's dict read as
        # two_item has no gammas, and two_item's own takes an empty list
        d = {**default_config("two_item" if key == "gammas" else "scenario1").to_dict(),
             key: value}
        del d["betas"]
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(d), encoding="utf-8")
        assert run_cli("simulate", "--config", str(path)) == 2
        err = capsys.readouterr().err
        want = {"abs": "beta values in betas", "nope": "unknown scenario 'nope'",
                "two_item": "two_item needs a gamma grid", "[]": "two_item needs a gamma grid"}
        assert want.get(str(value), "a pattern is a name[:args][,K=<k>] string") in err

    @pytest.mark.parametrize("pattern", [
        {"family": "abs", "beta": 1.0}, {"family": "abs"},
        {"weights": [0.2] * 5}, {"psi": [0.0, -1.0, -2.0, -3.0, -4.0]},
    ], ids=["family-beta", "family", "weights", "psi"])
    def test_object_simulate_pattern_is_exit_2(self, tmp_path, capsys, pattern):
        d = {**default_config("scenario1").to_dict(), "pattern": pattern}
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(d), encoding="utf-8")
        assert run_cli("simulate", "--config", str(path)) == 2
        err = capsys.readouterr().err
        assert "a pattern is a name[:args][,K=<k>] string such as" in err
        assert repr(pattern) in err

    @pytest.mark.parametrize("pattern,betas", [
        ("abs:0.3", None), ("abs:0.3", [0.3]), ("abs", None), ("sq", []),
        ("weights:0.5,0.5", [0.3]), ("uniform", [1.0]), ("abs,K=2", [0.3]),
    ])
    def test_betas_go_with_a_bare_family_only(self, tmp_path, capsys, pattern, betas):
        d = {**default_config("two_item", K=2).to_dict(), "pattern": pattern,
             "betas": betas}
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(d), encoding="utf-8")
        assert run_cli("simulate", "--config", str(path)) == 2
        assert "a family pattern is its bare name (abs|sq)" in capsys.readouterr().err

    def test_disagreeing_spec_K_in_config_is_exit_2(self, tmp_path, capsys):
        d = {**default_config("scenario1").to_dict(), "pattern": "uniform,K=4"}
        del d["betas"]
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(d), encoding="utf-8")
        assert run_cli("simulate", "--config", str(path)) == 2
        err = capsys.readouterr().err
        assert "needs one K (config field K or ',K=<k>'), got [4, 5]" in err
        assert "--K" not in err
        path.write_text(json.dumps({**d, "pattern": "uniform,K=5"}), encoding="utf-8")
        assert run_cli("simulate", "--config", str(path), "--out",
                       str(tmp_path / "out.csv")) == 0

    def test_unknown_simulate_config_key_is_exit_2(self, tmp_path, capsys):
        d = {**default_config("scenario1").to_dict(), "ci_levle": 0.5}
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(d), encoding="utf-8")
        assert run_cli("simulate", "--config", str(path)) == 2
        assert "ci_levle" in capsys.readouterr().err

    def test_zero_theta_gap_is_exit_2(self, tmp_path, capsys):
        d = {**default_config("scenario1", replications=5, L_grid=(100,)).to_dict(),
             "theta_gap": 0}
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(d), encoding="utf-8")
        assert run_cli("simulate", "--config", str(path)) == 2
        assert "theta ties items 0 and 1" in capsys.readouterr().err

    def test_unknown_simulate_link_key_is_exit_2(self, tmp_path, capsys):
        d = {**default_config("scenario1").to_dict(),
             "link": {"kind": "identity", "scael": 3.0}}
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(d), encoding="utf-8")
        assert run_cli("simulate", "--config", str(path)) == 2
        assert "scael" in capsys.readouterr().err

    @pytest.mark.parametrize("link", [{"kind": "identity", "scale": 1.0},
                                      ["identity"], 1.0])
    def test_non_string_simulate_link_is_exit_2(self, tmp_path, capsys, link):
        d = {**default_config("scenario1").to_dict(), "link": link}
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(d), encoding="utf-8")
        assert run_cli("simulate", "--config", str(path)) == 2
        err = capsys.readouterr().err
        assert "link" in err and "name[:scale]" in err

    def test_empty_link_scale_in_config_is_exit_2(self, tmp_path, capsys):
        d = {**default_config("scenario1").to_dict(), "link": "identity:"}
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(d), encoding="utf-8")
        assert run_cli("simulate", "--config", str(path)) == 2
        assert "bad link scale ''" in capsys.readouterr().err


def strict_json(text: str):
    """``json.loads`` that refuses the NaN, Infinity and -Infinity tokens."""
    def refuse(token):
        raise ValueError(f"non-standard JSON constant {token}")
    return json.loads(text, parse_constant=refuse)


class TestStrictJson:
    """Numbers in JSON inputs are JSON numbers, and JSON output is valid JSON."""

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("strict")
        save_pairs(build_pair_comparisons(
            synthetic_ratings(n_items=4, users_per_pair=30, seed=3),
            min_ratings_per_item=10), root / "pairs.npz")
        # two pairs whose differences [3, -1, -1] have one mean and sd 0
        # across pairs: the t statistic is infinite
        np.savez(root / "flat.npz", item_i=np.array([0, 0]), item_j=np.array([1, 2]),
                 offsets=np.array([0, 3, 6]), diffs=np.array([3.0, -1, -1] * 2))
        (root / "data.csv").write_text(TestRankCommand.THREE_ITEMS, encoding="utf-8")
        (root / "theta.json").write_text("[0.3, 0.2, 0.1]", encoding="utf-8")
        return root

    JSON_COMMANDS = {
        "snr": ("snr", "--pattern", "abs:0.1", "--K", "4"),
        "snr-one-point": ("snr", "--pattern", "uniform", "--K", "1"),
        "snr-min": ("snr-min", "--K", "4", "--monotone"),
        "rank": ("rank", "--input", "@data.csv", "--theta", "@theta.json"),
        "rates": ("rates", "--link", "identity", "--pattern", "uniform,K=1",
                  "--gamma", "0.15"),
        "evaluate": ("evaluate", "--pairs", "@pairs.npz", "--reps", "3"),
        "evaluate-flat": ("evaluate", "--pairs", "@flat.npz", "--reps", "1",
                          "--pairing", "pair", "--min-pair-count", "3", "--seed", "5"),
        "histogram": ("histogram", "--pairs", "@pairs.npz"),
        "model-info": ("model-info", "--link", "logitnorm:0.5", "--pattern",
                       "uniform,K=1", "--gamma", "0.3"),
    }

    def run(self, files, name) -> int:
        """``JSON_COMMANDS[name]``, with each ``@file`` argument a path."""
        return run_cli(*(str(files / a[1:]) if a.startswith("@") else a
                         for a in self.JSON_COMMANDS[name]))

    @pytest.mark.parametrize("name", sorted(JSON_COMMANDS))
    def test_every_json_command_parses_strictly(self, files, capsys, name):
        assert self.run(files, name) == 0
        strict_json(capsys.readouterr().out)

    def test_infinities_print_null(self, files, capsys):
        assert self.run(files, "snr-one-point") == 0
        assert strict_json(capsys.readouterr().out)["snr"] is None
        assert self.run(files, "evaluate-flat") == 0
        payload = strict_json(capsys.readouterr().out)
        assert payload["t_statistic"] is None and payload["degenerate"] is True

    def test_non_finite_output_is_exit_2(self, monkeypatch, capsys):
        from ordrank import snr
        monkeypatch.setattr(snr, "snr_of_pattern",
                            lambda pattern: snr.SnrReport(math.nan, 1.0, 1.0, 1.0))
        assert run_cli("snr", "--pattern", "abs:0.1", "--K", "4") == 2
        out, err = capsys.readouterr()
        assert out == "" and "not JSON compliant" in err

    @pytest.mark.parametrize("scenario,key,value", [
        ("two_item", "gammas", "12"), ("two_item", "L_grid", "139"),
        ("scenario1", "theta_gap", True), ("scenario1", "replications", "1_0"),
        ("scenario1", "ci_level", "0.9"), ("scenario1", "betas", {"1.0": 1}),
    ])
    def test_config_string_or_bool_is_exit_2(self, tmp_path, capsys, scenario, key, value):
        # int() and float() would read each of these as a number or a list
        d = {**default_config(scenario, replications=5).to_dict(), key: value}
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(d), encoding="utf-8")
        assert run_cli("simulate", "--config", str(path)) == 2
        assert f"config field {key}: " in capsys.readouterr().err

    def test_one_item_theta_is_exit_2(self, tmp_path, capsys):
        d = {**default_config("scenario1", replications=5, L_grid=(10,)).to_dict(),
             "n": 1, "theta": [0.3]}
        del d["theta_gap"]
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(d), encoding="utf-8")
        assert run_cli("simulate", "--config", str(path), "--out",
                       str(tmp_path / "out.csv")) == 2
        assert "need at least two items" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()
