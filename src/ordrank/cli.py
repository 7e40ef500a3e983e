"""Command-line entry point.

Every capability is a subcommand.  A command returns its JSON payload, and
``parse_and_dispatch`` encodes it and writes it to stdout or to ``--out``;
``simulate`` writes its CSV the same way, and ``ingest`` its pairs file.
Diagnostics go to stderr.  Exit codes: 0 success, 1 usage error, 2 data or
convergence error.

Spec strings on flags, written the same way in a simulate config (where a
family is a bare name, its betas in ``betas``, and ``K`` stands for --K):
  link:     cubic | identity | tanhsig | logitnorm, optionally ``:scale``
            (read by ``StrengthLink.from_spec``, written by ``.spec``)
  pattern:  abs:<beta> | sq:<beta> | uniform | weights:w1,..,wK |
            min-unconstrained | min-monotone, plus ``,K=<k>`` or ``--K``;
            every K given, weight count included, must agree (read by
            ``PatternDistribution.from_spec``)

``--out`` and ``--threads`` (ignored) go on every subcommand, ``--seed`` on
``evaluate``.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from pathlib import Path

from . import data as data_mod
from . import harness, rates, snr
from .model import InvalidPatternError, OrdinalModel, PatternDistribution, StrengthLink
from .ranking import PreferenceVector, count_scores, kendall_tau

__all__ = ["main", "parse_and_dispatch", "parse_link_spec", "parse_pattern_spec"]


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # before Python 3.13 argparse reads '-1e-4' as an option, not a number
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")

    def error(self, message):  # exit 1, not argparse's default 2
        raise UsageError(message)  # parse_and_dispatch prints one usage


def parse_link_spec(spec: str) -> StrengthLink:
    """``StrengthLink.from_spec``, with a bad spec as a usage error."""
    try:
        return StrengthLink.from_spec(spec)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def parse_pattern_spec(spec: str, K: int | None = None) -> PatternDistribution:
    """``PatternDistribution.from_spec``, with a bad spec as a usage error."""
    try:
        return PatternDistribution.from_spec(spec, K)
    except InvalidPatternError:  # numbers that make no law: a data error
        raise
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _emit(payload: str, out: str | None) -> None:
    if out:
        Path(out).write_text(payload, encoding="utf-8")
    else:
        sys.stdout.write(payload)
        if not payload.endswith("\n"):
            sys.stdout.write("\n")


@functools.cache
def _build_parser() -> _Parser:
    """The parser, built on first use and shared by every later call:
    parsing reads it and never changes it."""
    parser = _Parser(prog="ordrank", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command")
    parser.subparsers = sub.choices  # name -> subparser

    def add(name, run, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(run=run)
        p.add_argument("--out", help="write output to this path instead of stdout")
        p.add_argument("--threads", type=int, default=1,
                       help="accepted and ignored: every command runs in one thread")
        return p

    p = add("snr", _cmd_snr, "signal-to-noise report for a magnitude pattern")
    p.add_argument("--pattern", required=True)
    p.add_argument("--K", type=int)

    p = add("snr-min", _cmd_snr_min, "minimal-SNR value and pattern for a given K")
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--monotone", action="store_true",
                   help="restrict to non-increasing weights")

    p = add("rank", _cmd_rank, "counting scores and ranking errors for a dataset")
    p.add_argument("--input", required=True, help="CSV with header i,j,l,y")
    p.add_argument("--theta", required=True,
                   help="JSON list of the true preferences, such as [0.3, 0.2, 0.1]")

    p = add("rates", _cmd_rates, "misranking decay rates and crossover estimate")
    p.add_argument("--link", required=True)
    p.add_argument("--pattern", required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--K", type=int)
    p.add_argument("--factor", type=float, default=10.0)

    p = add("simulate", _cmd_simulate,
            "run a Monte-Carlo experiment from a config file")
    p.add_argument("--config", required=True)

    p = add("ingest", _cmd_ingest, "parse ratings and write pairwise comparisons")
    p.add_argument("--format", default="movielens-100k-tab",
                   choices=["movielens-100k-tab", "generic-csv"])
    p.add_argument("--path", required=True)
    p.add_argument("--min-item-ratings", type=int, default=200)

    p = add("evaluate", _cmd_evaluate, "split-protocol comparison of sum vs sign-sum")
    p.add_argument("--pairs", required=True)
    p.add_argument("--train-frac", type=float, default=0.7)
    p.add_argument("--reps", type=int, default=100)
    p.add_argument("--min-pair-count", type=int, default=10)
    p.add_argument("--pairing", choices=["repetition", "pair"],
                   default="repetition")
    p.add_argument("--seed", type=int, default=7, help="seed of the random splits")

    p = add("histogram", _cmd_histogram, "magnitude histogram of pairwise comparisons")
    p.add_argument("--pairs", required=True)

    p = add("model-info", _cmd_model_info, "model descriptor and per-gamma statistics")
    p.add_argument("--link", required=True)
    p.add_argument("--pattern", required=True)
    p.add_argument("--K", type=int)
    p.add_argument("--gamma", type=float)

    return parser


def _cmd_snr(args):
    pattern = parse_pattern_spec(args.pattern, args.K)
    report = snr.snr_of_pattern(pattern)
    return {"K": pattern.K, "pattern": args.pattern, **report.to_dict()}


def _cmd_snr_min(args):
    fn = snr.minimal_snr_monotone if args.monotone else snr.minimal_snr_unconstrained
    value, pattern = fn(args.K)
    return {"K": args.K, "constraint": "non-increasing" if args.monotone else "none",
            "value": value, "pattern": pattern.to_dict()}


def _cmd_rank(args):
    text = Path(args.input).read_text(encoding="utf-8")
    values = json.loads(Path(args.theta).read_text(encoding="utf-8"))
    try:
        values = harness._numbers(values)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{args.theta}: theta must be a JSON list of numbers, "
                         "such as [0.3, 0.2, 0.1]") from None
    theta = PreferenceVector(values)
    scores = count_scores(data_mod.dataset_from_csv(text, n=theta.n))
    return {"scores": scores.to_dict(),
            "tau_ordinal": kendall_tau(scores.ordinal_scores, theta),
            "tau_binary": kendall_tau(scores.binary_scores, theta)}


def _cmd_rates(args):
    model = OrdinalModel(parse_link_spec(args.link),
                         parse_pattern_spec(args.pattern, args.K))
    binary = rates.rate_at_zero_binary(model, args.gamma)
    ordinal = rates.rate_at_zero_ordinal(model, args.gamma)
    if not (binary.converged and ordinal.converged):
        raise ValueError("rate optimization did not converge")
    return {"gamma": args.gamma, "binary": binary.to_dict(), "ordinal": ordinal.to_dict(),
            "crossover_factor": args.factor,
            "crossover_rounds": rates.crossover_rounds(binary, ordinal, factor=args.factor)}


def _cmd_simulate(args):
    config = harness.ExperimentConfig.from_json(
        Path(args.config).read_text(encoding="utf-8"))
    _emit(harness.run_experiment(config).to_csv(), args.out)


def _cmd_ingest(args):
    if args.out is None:
        raise UsageError("ingest needs --out for the pairs file")
    table = data_mod.load_ratings(args.path, format=args.format)
    pairs = data_mod.build_pair_comparisons(table, args.min_item_ratings)
    data_mod.save_pairs(pairs, args.out)
    print(f"wrote {pairs.n_pairs()} pairs "
          f"({pairs.total_comparisons()} comparisons)", file=sys.stderr)


def _cmd_evaluate(args):
    pairs = data_mod.load_pairs(args.pairs)
    report = data_mod.evaluate_pair_protocol(
        pairs, train_frac=args.train_frac, repetitions=args.reps,
        min_pair_count=args.min_pair_count, seed=args.seed,
        pairing=args.pairing)
    return report.to_dict()


def _cmd_histogram(args):
    pairs = data_mod.load_pairs(args.pairs)
    hist = data_mod.ordinal_histogram(pairs)
    mags = sorted(hist)
    return {"magnitudes": mags, "counts": [hist[m] for m in mags]}


def _cmd_model_info(args):
    model = OrdinalModel(parse_link_spec(args.link),
                         parse_pattern_spec(args.pattern, args.K))
    payload = model.to_dict()
    if args.gamma is not None:
        m = model.moments(args.gamma)
        payload["at_gamma"] = {
            "gamma": args.gamma,
            "prob_positive": model.prob_positive(args.gamma),
            "mean": m.mean,
            "variance": m.variance,
            "snr": None if m.snr == float("inf") else m.snr,
        }
    return payload


def parse_and_dispatch(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            return 1
        payload = args.run(args)  # None: the command wrote its own output
        if payload is not None:
            _emit(json.dumps(payload, indent=2, allow_nan=False), args.out)
        return 0
    except UsageError as exc:
        print(f"ordrank: {exc}", file=sys.stderr)
        sub = parser.subparsers.get(argv[0]) if argv else None
        (sub or parser).print_usage(sys.stderr)
        return 1
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"ordrank: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(parse_and_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
