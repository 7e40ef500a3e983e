"""The four workloads: input set-up, one timed pass, and output checks.

A pass is a fixed list of ops; an op is one call into the program (one
subcommand through ``ordrank.cli.parse_and_dispatch``, or one public library
function where no subcommand exists).  Every op's output is kept and checked
after the timed phase; an op that raised, exited non-zero or failed a check
counts as failed.  Statistical checks pool every pass of a run, and a pooled
check that fails marks every op that fed it.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import json
import math
import random
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

import inputs
import oracles

HERE = Path(__file__).resolve().parent


class Op:
    __slots__ = ("kind", "key", "passno", "seconds", "out", "error")

    def __init__(self, kind, key, passno):
        self.kind, self.key, self.passno = kind, key, passno
        self.seconds, self.out, self.error = 0.0, None, None

    def fail(self, why: str) -> None:
        if self.error is None:
            self.error = why


def run_op(ops: list, kind: str, key, passno: int, fn) -> Op:
    op = Op(kind, key, passno)
    t0 = time.perf_counter()
    try:
        op.out = fn()
    except Exception as exc:  # the op failed; the run goes on
        op.error = f"{type(exc).__name__}: {exc}"
    op.seconds = time.perf_counter() - t0
    ops.append(op)
    return op


def dispatch(*argv: str) -> str:
    """One ``ordrank`` subcommand in-process; returns its stdout."""
    from ordrank import cli

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.parse_and_dispatch([*argv, "--threads", "1"])
    if code != 0:
        raise RuntimeError(f"exit {code}: {err.getvalue().strip()}")
    return out.getvalue()


def pass_seed(seed: int, passno: int) -> int:
    return int(np.random.SeedSequence([seed, passno]).generate_state(1)[0])


def guarded(check, *args) -> str | None:
    """Run one output check; output too malformed to check fails it too."""
    try:
        return check(*args)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"


def _close(a: float, b: float, rtol: float = 1e-9, atol: float = 0.0) -> bool:
    return abs(a - b) <= rtol * abs(b) + atol


class Workload:
    name = ""
    work_unit = ""
    latency_kind = ""  # the op kind whose latency percentiles are reported
    rate_name = ""  # what the workload's work per second is called

    def setup(self, workdir: Path, seed: int) -> dict:
        """Build the inputs (files under ``workdir``); returns input sizes."""
        raise NotImplementedError

    def prepare(self, passno: int) -> None:
        """Untimed, before a pass."""

    def run_pass(self, passno: int) -> list[Op]:
        raise NotImplementedError

    def after_pass(self, ops: list[Op]) -> None:
        """Untimed, after a pass."""

    def work(self, ops: list[Op]) -> float:
        raise NotImplementedError

    def check(self, ops: list[Op]) -> None:
        """Mark failed ops; called once, after the timed phase."""
        raise NotImplementedError


# -- simulate ------------------------------------------------------------------

SIM_REPS = {"two_item": 300, "scenario1": 20, "scenario2": 20, "scenario3": 20}
NITEM_PAIRS = 45  # n = 10 items in the ranking scenarios


class Simulate(Workload):
    """``ordrank simulate`` on the four ``default_config`` grids at a fixed
    reduced replication count; every pass runs with fresh base seeds."""

    name = "simulate"
    latency_kind = "simulate"
    rate_name = "sim_outcomes_per_s"
    work_unit = "outcomes"

    def setup(self, workdir, seed):
        from ordrank import harness

        self.dir, self.seed = workdir, seed
        self.configs = {sc: harness.default_config(sc, replications=reps).to_dict()
                        for sc, reps in SIM_REPS.items()}
        self.prepare(0)
        self.draws_per_pass = sum(
            cfg["replications"] * sum(cfg["L_grid"]) * len(cfg.get("gammas") or [1])
            * len(cfg.get("betas") or [1]) * cfg["n"] * (cfg["n"] - 1) // 2
            for cfg in self.configs.values())
        return {"outcome_draws_per_pass": self.draws_per_pass,
                "grid_points": {sc: len(self._grid(sc)) for sc in self.configs},
                "replications": SIM_REPS}

    def _path(self, sc):
        return self.dir / f"{sc}.json"

    def prepare(self, passno):
        for k, (sc, cfg) in enumerate(self.configs.items()):
            cfg = {**cfg, "base_seed": pass_seed(self.seed, 4 * passno + k)}
            self._path(sc).write_text(json.dumps(cfg), encoding="utf-8")

    def run_pass(self, passno):
        ops = []
        for sc in self.configs:
            path = str(self._path(sc))
            run_op(ops, "simulate", sc, passno, lambda: dispatch("simulate", "--config", path))
        return ops

    def work(self, ops):
        return self.draws_per_pass * len(ops) / len(self.configs)

    def check(self, ops):
        refs = json.loads((HERE / "refs_nitem.json").read_text(encoding="utf-8"))
        pooled: dict[tuple, list] = {}
        for op in ops:
            if op.error:
                continue
            rows = list(csv.DictReader(io.StringIO(op.out)))
            points: dict[tuple, dict] = {}
            for r in rows:
                pt = points.setdefault((r["beta"], r["gamma_or_w"], r["L"]), {})
                pt[r["metric"]] = r
            expected = self._grid(op.key)
            if sorted(points) != sorted(expected):
                op.fail(f"grid points {len(points)} != {len(expected)}")
                continue
            for key, pt in points.items():
                why = guarded(self._check_point, op.key, pt)
                if why:
                    op.fail(f"{op.key} {key}: {why}")
                pooled.setdefault((op.key, key), []).append((op, pt))
        two_item = self.configs["two_item"]
        exact = {}
        for beta in two_item["betas"]:
            w = oracles.pattern_weights(f"abs:{beta},K={two_item['K']}")
            for gamma in two_item["gammas"]:
                for L, ps in oracles.two_item_exact(w, gamma, two_item["L_grid"]).items():
                    exact[(repr(beta), repr(gamma), str(L))] = ps
        for (sc, key), group in pooled.items():
            why = (self._pooled_two_item(group, exact[key]) if sc == "two_item"
                   else self._pooled_tau(sc, key, group, refs))
            if why:
                for op, _ in group:
                    op.fail(f"{sc} {key}: {why}")

    def _grid(self, sc):
        cfg = self.configs[sc]
        betas = cfg.get("betas") or [cfg["pattern"].get("beta")]
        gammas = cfg.get("gammas") or [cfg.get("theta_gap")]
        return [("" if b is None else repr(float(b)), repr(float(g)), str(L))
                for b in betas for g in gammas for L in cfg["L_grid"]]

    def _check_point(self, sc, pt) -> str | None:
        names = {"two_item": ("p_raw_positive", "p_sign_positive", "p_sign_minus_raw"),
                 "scenario1": ("tau_binary", "tau_ordinal"),
                 "scenario2": ("snr_exact", "tau_binary", "tau_gap", "tau_ordinal"),
                 "scenario3": ("tau_binary", "tau_ordinal", "tau_ratio")}[sc]
        if sorted(pt) != sorted(names):
            return f"metrics {sorted(pt)}"
        if any(int(r["reps"]) != SIM_REPS[sc] for r in pt.values()):
            return "wrong replication count"
        est = {m: (float(r["estimate"]) if r["estimate"] else None) for m, r in pt.items()}
        for m in ("p_raw_positive", "p_sign_positive", "tau_binary", "tau_ordinal"):
            if m in est and not (est[m] is not None and 0.0 <= est[m] <= 1.0):
                return f"{m}={est[m]} outside [0, 1]"
        if sc == "two_item" and not _close(
                est["p_sign_minus_raw"], est["p_sign_positive"] - est["p_raw_positive"],
                atol=1e-12):
            return "gap is not p_sign - p_raw"
        if sc == "scenario2":
            from ordrank.model import PatternDistribution
            from ordrank.snr import snr_of_pattern

            beta = float(pt["snr_exact"]["beta"])
            ref = snr_of_pattern(PatternDistribution.from_family("abs", beta, 5)).snr
            if not _close(est["snr_exact"], ref, rtol=1e-12):
                return f"snr_exact {est['snr_exact']} != snr_of_pattern {ref}"
            if not _close(est["tau_gap"], est["tau_ordinal"] - est["tau_binary"], atol=1e-12):
                return "tau_gap is not tau_ordinal - tau_binary"
        if sc == "scenario3":
            if est["tau_ordinal"] == 0.0:
                if est["tau_ratio"] is not None or pt["tau_ratio"].get("se"):
                    return "ratio given for a zero ordinal error"
            elif est["tau_ratio"] is None or not _close(
                    est["tau_ratio"], est["tau_binary"] / est["tau_ordinal"]):
                return "tau_ratio is not tau_binary / tau_ordinal"
        return None

    @staticmethod
    def _pooled_two_item(group, exact) -> str | None:
        reps = sum(int(pt["p_raw_positive"]["reps"]) for _, pt in group)
        for m, p in zip(("p_raw_positive", "p_sign_positive"), exact):
            est = sum(float(pt[m]["estimate"]) * int(pt[m]["reps"]) for _, pt in group) / reps
            lo, hi = oracles.binomial_band(p, reps)
            if not lo - 1e-12 <= est <= hi + 1e-12:
                return f"{m}={est:.6f} outside exact band [{lo:.6f}, {hi:.6f}] of p={p:.6f}"
        return None

    @staticmethod
    def _pooled_tau(sc, key, group, refs) -> str | None:
        beta, _, L = key
        ref = refs[sc][f"L={L},beta={float(beta)!r}"]
        checks = ["tau_ordinal", "tau_binary"] + (["tau_gap"] if sc == "scenario2" else [])
        for m in checks:
            vals = [(float(pt[m]["estimate"]), float(pt[m]["se"]), int(pt[m]["reps"]))
                    for _, pt in group]
            n = sum(v[2] for v in vals)
            est = sum(v[0] * v[2] for v in vals) / n
            se = math.sqrt(sum((v[1] * v[2]) ** 2 for v in vals)) / n
            # no smaller than the reference spread, nor than one misordered
            # pair over the pooled replications (rare-error points)
            se = max(se, ref[m]["sd"] / math.sqrt(n), 1.0 / (NITEM_PAIRS * n))
            se_ref = ref[m]["sd"] / math.sqrt(ref["reps"])
            if abs(est - ref[m]["mean"]) > 5.0 * math.hypot(se, se_ref):
                return (f"{m}={est:.5f} vs reference {ref[m]['mean']:.5f} "
                        f"(se {se:.5f}, reference se {se_ref:.5f})")
        return None


# -- ingest ----------------------------------------------------------------------

INGEST_MIN = 100


def _pairs_digest(path) -> str:
    h = hashlib.sha256()
    with np.load(path) as z:
        for name in ("item_i", "item_j", "offsets", "diffs"):
            arr = z[name]
            h.update(name.encode() + arr.dtype.str.encode() + arr.tobytes())
    return h.hexdigest()


def canonical_pairs(item_i, item_j, offsets, diffs):
    """Pairs in (i, j) order with each pair's differences sorted."""
    item_i, item_j = np.asarray(item_i), np.asarray(item_j)
    offsets, diffs = np.asarray(offsets), np.asarray(diffs, dtype=float)
    lengths = np.diff(offsets)
    if (offsets.size != item_i.size + 1 or offsets[0] != 0 or offsets[-1] != diffs.size
            or np.any(lengths < 1)):
        raise ValueError("offsets do not partition diffs")
    if item_j.size != item_i.size or np.any(item_i >= item_j):
        raise ValueError("pairs are not oriented i < j")
    if np.any(diffs == 0):
        raise ValueError("zero difference kept")
    pair_keys = item_i * (int(item_j.max(initial=0)) + 1) + item_j
    if np.unique(pair_keys).size != pair_keys.size:
        raise ValueError("duplicate pair")
    order = np.lexsort((diffs, np.repeat(pair_keys, lengths)))
    pair_order = np.argsort(pair_keys, kind="stable")
    return (item_i[pair_order], item_j[pair_order],
            np.r_[0, np.cumsum(lengths[pair_order])], diffs[order])


class Ingest(Workload):
    """``ordrank ingest --min-item-ratings 100`` on a seeded MovieLens-shaped
    tab file."""

    name = "ingest"
    latency_kind = "ingest"
    rate_name = "ingest_rows_per_s"
    work_unit = "rows"

    def setup(self, workdir, seed):
        self.dir = workdir
        self.ratings = workdir / "ratings.tsv"
        self.rows = inputs.write_ratings_file(self.ratings, seed)
        self.first = None
        return {"rating_rows": self.rows, "min_item_ratings": INGEST_MIN}

    def run_pass(self, passno):
        out = str(self.dir / "pairs.npz")
        ops = []
        run_op(ops, "ingest", "pairs", passno,
               lambda: dispatch("ingest", "--format", "movielens-100k-tab",
                                "--path", str(self.ratings),
                                "--min-item-ratings", str(INGEST_MIN), "--out", out))
        return ops

    def after_pass(self, ops):
        op = ops[0]
        path = self.dir / "pairs.npz"
        if op.error is None:
            try:
                op.out = _pairs_digest(path)
            except (OSError, ValueError, KeyError) as exc:
                op.fail(f"unreadable output: {exc}")
            if self.first is None and op.error is None:
                self.first = (self.dir / "pairs_first.npz", op.out)
                path.rename(self.first[0])
        path.unlink(missing_ok=True)

    def work(self, ops):
        return self.rows * len(ops)

    def check(self, ops):
        if self.first is None:
            return
        users, items, ratings, ts = inputs.read_ratings_file(self.ratings)
        ref = inputs.build_pairs(*inputs.dedup_latest(users, items, ratings, ts), INGEST_MIN)
        why = None
        try:
            with np.load(self.first[0]) as z:
                got = canonical_pairs(z["item_i"], z["item_j"], z["offsets"], z["diffs"])
        except (OSError, ValueError, KeyError) as exc:
            why = f"malformed pairs file: {exc}"
        else:
            names = ("pair set (i)", "pair set (j)", "pair lengths", "sorted differences")
            for name, a, b in zip(names, got, ref):
                if a.shape != b.shape or not np.array_equal(a, b):
                    why = f"{name} differ from the reference"
                    break
        for op in ops:
            if why:
                op.fail(why)
            elif op.out != self.first[1]:
                op.fail("output differs from the first pass")


# -- evaluate --------------------------------------------------------------------

EVAL_FILES = {"dense": (200, 10), "fixture": (100, 100)}  # min ratings, reps
FIXTURE_SEED = 7  # the synthetic_ratings input of acceptance criterion 10
EVAL_REF_REPS = 64
MIN_PAIR_COUNT = 10
TRAIN_FRAC = 0.7


class Evaluate(Workload):
    """``ordrank evaluate`` and ``ordrank histogram`` on two pairs files the
    benchmark writes itself: many short pairs from the seeded ratings file,
    and 190 long pairs from the bundled ``synthetic_ratings`` fixture."""

    name = "evaluate"
    latency_kind = "evaluate"
    rate_name = "eval_splits_per_s"
    work_unit = "splits"

    def setup(self, workdir, seed):
        from ordrank.data import synthetic_ratings

        self.dir, self.seed = workdir, seed
        ratings = workdir / "ratings.tsv"
        inputs.write_ratings_file(ratings, seed)
        tables = {"dense": inputs.dedup_latest(*inputs.read_ratings_file(ratings))}
        fixture = synthetic_ratings(seed=FIXTURE_SEED)
        tables["fixture"] = (fixture.users, fixture.items, fixture.ratings)
        self.pairs, sizes = {}, {}
        for name, (min_ratings, reps) in EVAL_FILES.items():
            pairs = inputs.build_pairs(*tables[name], min_ratings)
            inputs.write_pairs(workdir / f"{name}.npz", *pairs)
            self.pairs[name] = pairs
            lengths = np.diff(pairs[2])
            sizes[name] = {"pairs": int(lengths.size), "comparisons": int(pairs[3].size),
                           "eligible": int((lengths >= MIN_PAIR_COUNT).sum()), "reps": reps}
        self.cells = sum(s["eligible"] * s["reps"] for s in sizes.values())
        return sizes

    def run_pass(self, passno):
        ops = []
        seed = str(pass_seed(self.seed, passno))
        for name, (_, reps) in EVAL_FILES.items():
            path = str(self.dir / f"{name}.npz")
            run_op(ops, "evaluate", name, passno,
                   lambda: dispatch("evaluate", "--pairs", path, "--reps", str(reps),
                                    "--seed", seed, "--train-frac", str(TRAIN_FRAC),
                                    "--min-pair-count", str(MIN_PAIR_COUNT)))
            run_op(ops, "histogram", name, passno,
                   lambda: dispatch("histogram", "--pairs", path))
        return ops

    def work(self, ops):
        return self.cells * sum(op.kind == "evaluate" for op in ops) / len(EVAL_FILES)

    def check(self, ops):
        rng = np.random.default_rng([self.seed, 0xE7A1])
        for name, (_, reps) in EVAL_FILES.items():
            item_i, item_j, offsets, diffs = self.pairs[name]
            ref = oracles.evaluate_reference(offsets, diffs, TRAIN_FRAC, MIN_PAIR_COUNT,
                                             EVAL_REF_REPS, rng)
            mags, counts = np.unique(np.abs(diffs), return_counts=True)
            hist = dict(zip(mags.tolist(), counts.tolist()))
            top = int(mags.max())
            want_hist = {"magnitudes": [float(m) for m in range(1, top + 1)],
                         "counts": [hist.get(float(m), 0) for m in range(1, top + 1)]}
            eligible = ref["eligible"]
            want_pairs = [[int(item_i[p]), int(item_j[p])] for p in eligible]
            want_counts = np.diff(offsets)[eligible].tolist()
            group, rep_ord, rep_bin = [], [], []
            for op in ops:
                if op.key != name or op.error:
                    continue
                try:
                    out = json.loads(op.out)
                except ValueError:
                    op.fail("output is not JSON")
                    continue
                if op.kind == "histogram":
                    if out != want_hist:
                        op.fail("histogram differs from the reference")
                    continue
                why = guarded(self._check_report, out, reps, want_pairs, want_counts)
                if why:
                    op.fail(why)
                    continue
                group.append(op)
                rep_ord += out["per_repetition_accuracy"]["ordinal"]
                rep_bin += out["per_repetition_accuracy"]["binary"]
            if not group:
                continue
            why = None
            if name == "fixture":  # pooled over every pass of the run
                t, p = _paired_t(rep_bin, rep_ord)
                if not (t > 0 and p < 0.01):
                    why = f"sign-sum does not beat raw-sum at p < 0.01 (t={t:.3f}, p={p:.3g})"
            for label, vals, mean, se_ref in (("binary", rep_bin, ref["binary"], 0.0),
                                               ("ordinal", rep_ord, ref["ordinal"],
                                                ref["ordinal_se"])):
                est = float(np.mean(vals))
                se = float(np.std(vals, ddof=1) / math.sqrt(len(vals)))
                if abs(est - mean) > 5.0 * math.hypot(se, se_ref):
                    why = (f"mean {label} accuracy {est:.5f} vs reference {mean:.5f} "
                           f"(se {se:.5f}, reference se {se_ref:.5f})")
            for op in group:
                if why:
                    op.fail(why)

    @staticmethod
    def _check_report(out, reps, want_pairs, want_counts) -> str | None:
        if out["repetitions"] != reps or out["pairs"] != want_pairs \
                or out["pair_counts"] != want_counts:
            return "eligible pairs, counts or repetitions differ from the input"
        accs = [out["mean_accuracy"]["ordinal"], out["mean_accuracy"]["binary"]]
        for block in ("per_repetition_accuracy", "per_pair_accuracy"):
            accs += out[block]["ordinal"] + out[block]["binary"]
        if not all(0.0 <= a <= 1.0 for a in accs):
            return "accuracy outside [0, 1]"
        if len(out["per_repetition_accuracy"]["ordinal"]) != reps:
            return "wrong number of repetition accuracies"
        t, p = _paired_t(out["per_repetition_accuracy"]["binary"],
                         out["per_repetition_accuracy"]["ordinal"])
        if not (_close(out["t_statistic"], t, 1e-6) and _close(out["p_value"], p, 1e-4)):
            return (f"t-test (t={out['t_statistic']}, p={out['p_value']}) "
                    f"!= recomputed (t={t}, p={p})")
        return None


def _paired_t(a, b) -> tuple[float, float]:
    """Two-sided paired t-test of a against b (scipy, not ordrank)."""
    from scipy.stats import ttest_rel

    res = ttest_rel(a, b)
    return float(res.statistic), float(res.pvalue)


# -- rates -----------------------------------------------------------------------

LINKS = ("cubic", "identity", "tanhsig", "logitnorm")
PATTERNS = ("abs:0.1,K=4", "abs:0.9,K=4", "sq:0.5,K=5", "min-unconstrained,K=4",
            "min-monotone,K=5", "uniform,K=3", "uniform,K=1")
GAMMAS = (1e-4, 1e-3, 0.05, 0.15, 0.5, 1.5, 5.0)
RATES_L = 500
NITEM_PATTERN, NITEM_N, NITEM_GAP = "abs:1.0,K=5", 10, 0.05
RATE_RTOL, RATE_ATOL = 1e-6, 1e-15  # optimizer tolerance; float64 log-space floor
PROB_ATOL = 1e-12  # rounding of two normal-limit probabilities near 1


class Rates(Workload):
    """A sweep of ``ordrank rates`` plus ``asymptotic_two_item`` over 196
    (link, pattern, gamma) points, ``rate_at_zero_nitem`` for all 45 pairs of
    n = 10 in both views, and ``asymptotic_tau``; the seed sets the order."""

    name = "rates"
    latency_kind = "sweep"
    rate_name = "rate_solves_per_s"
    work_unit = "solves"

    def setup(self, workdir, seed):
        from ordrank.cli import parse_link_spec, parse_pattern_spec
        from ordrank.model import OrdinalModel
        from ordrank.ranking import PreferenceVector

        order = random.Random(seed)
        self.sweep = [(link, pat, g, OrdinalModel(parse_link_spec(link),
                                                  parse_pattern_spec(pat)))
                      for link, pat, g in itertools.product(LINKS, PATTERNS, GAMMAS)]
        order.shuffle(self.sweep)
        self.nitem_model = OrdinalModel(parse_link_spec("identity"),
                                        parse_pattern_spec(NITEM_PATTERN))
        self.theta = PreferenceVector.equally_spaced(NITEM_N, NITEM_GAP)
        self.nitem = [(i, j, view) for i, j in itertools.combinations(range(NITEM_N), 2)
                      for view in (False, True)]
        order.shuffle(self.nitem)
        return {"sweep_points": len(self.sweep), "nitem_solves": len(self.nitem),
                "solves_per_pass": 2 * len(self.sweep) + len(self.nitem)}

    def run_pass(self, passno):
        from ordrank import ranking, rates

        ops = []
        for link, pat, g, model in self.sweep:
            run_op(ops, "sweep", (link, pat, g), passno,
                   lambda: (dispatch("rates", "--link", link, "--pattern", pat,
                                     "--gamma", repr(g)),
                            ranking.asymptotic_two_item(model, g, RATES_L)))
        for i, j, view in self.nitem:
            run_op(ops, "nitem", (i, j, view), passno,
                   lambda: rates.rate_at_zero_nitem(self.nitem_model, self.theta, i, j, view))
        run_op(ops, "tau", RATES_L, passno,
               lambda: ranking.asymptotic_tau(self.nitem_model, self.theta, RATES_L))
        return ops

    def work(self, ops):
        return sum(2 if op.kind == "sweep" else op.kind == "nitem" for op in ops)

    def check(self, ops):
        oracle = oracles.RatesOracle()
        want: dict = {}
        nitem_rates: dict = {}
        for op in ops:
            if op.kind == "nitem" and op.error is None:
                nitem_rates[(op.passno, op.key)] = op.out.rate
        for op in ops:
            if op.error:
                continue
            if op.key not in want:
                want[op.key] = self._oracle(oracle, op)
            why = guarded(getattr(self, f"_check_{op.kind}"), op, want[op.key], nitem_rates)
            if why:
                op.fail(why)

    def _oracle(self, oracle, op):
        if op.kind == "sweep":
            link, pat, g = op.key
            w = oracles.pattern_weights(pat)
            phi = oracle.phi(link, g)
            return oracle.binary(phi), oracle.ordinal(w, phi), int((w > 0).sum()) == 1
        if op.kind == "nitem":
            i, j, view = op.key
            w = np.ones(1) if view else oracles.pattern_weights(NITEM_PATTERN)
            return oracle.nitem(w, "identity", self.theta.theta, i, j)
        return None

    @staticmethod
    def _rate_ok(got, want) -> bool:
        return math.isfinite(got) and _close(got, want, RATE_RTOL, RATE_ATOL)

    def _check_sweep(self, op, want, _) -> str | None:
        text, (p_b, p_a) = op.out
        out = json.loads(text)
        binary, ordinal = out["binary"]["rate"], out["ordinal"]["rate"]
        want_b, want_o, degenerate = want
        if not (self._rate_ok(binary, want_b) and self._rate_ok(ordinal, want_o)):
            return f"rates ({binary!r}, {ordinal!r}) vs oracle ({want_b!r}, {want_o!r})"
        if degenerate:
            if not (ordinal > 0 and _close(binary, ordinal, RATE_RTOL, RATE_ATOL)):
                return f"degenerate pattern: binary {binary!r} != ordinal {ordinal!r} > 0"
        elif not binary > ordinal > 0:
            return f"binary {binary!r} > ordinal {ordinal!r} > 0 fails"
        if not (0.0 <= p_a <= 1.0 and 0.0 <= p_b <= 1.0 and p_b >= p_a - PROB_ATOL):
            return f"normal limits pB={p_b!r}, pA={p_a!r}"
        return None

    def _check_nitem(self, op, want, nitem_rates) -> str | None:
        rate = op.out.rate
        if not (op.out.converged and rate > 0 and self._rate_ok(rate, want)):
            return f"n-item rate {rate!r} vs oracle {want!r}"
        i, j, view = op.key
        if view:
            ordinal = nitem_rates.get((op.passno, (i, j, False)))
            if ordinal is not None and not rate > ordinal:
                return f"n-item binary rate {rate!r} <= ordinal {ordinal!r}"
        return None

    @staticmethod
    def _check_tau(op, want, _) -> str | None:
        tau_o, tau_b = op.out
        if not (0.0 <= tau_b <= tau_o + PROB_ATOL and tau_o <= 1.0):
            return f"asymptotic taus ordinal {tau_o!r}, binary {tau_b!r}"
        return None


WORKLOADS = {w.name: w for w in (Simulate, Ingest, Evaluate, Rates)}
