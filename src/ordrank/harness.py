"""Deterministic Monte-Carlo harness for the simulation scenarios.

``run_experiment`` runs all four scenarios through one loop over grid points.
A scenario adds only its grid rows (params, beta, pair gaps), a
per-replication statistic and its metrics, and it reads only these fields:

- ``two_item``: both metrics' success probabilities for one pair over
  (beta, gamma, L); ``gammas``;
- ``scenario1``, ``scenario3``: both n-item ranking errors, and in scenario3
  their ratio, over (beta, L);
- ``scenario2``: the ordinal-minus-binary error gap against the magnitude
  SNR over ``betas``, at the single L of ``L_grid``.

The ranking scenarios also read ``n`` and exactly one of ``theta`` and
``theta_gap``.  ``link`` is a ``name[:scale]`` string such as ``"identity"``
or ``"cubic:3.0"``, read by ``StrengthLink.from_spec``.  ``pattern`` is a
``--pattern`` spec such as ``"weights:0.5,0.5"``, read by
``PatternDistribution.from_spec`` with the config's ``K``, or a bare family
name (``"abs"``, ``"sq"``) that runs at each beta of ``betas``, which only a
family takes.  Any other field is refused with a ``ConfigError``.

The counting scores read only each pair's raw sum and sign sum over its L
rounds, and both are linear in the pair's outcome counts.  So a replication
draws one ``multinomial(L, pmf)`` count vector per pair instead of L single
outcomes.  One ``ranking.count_scores`` call scores a ranking scenario's
block of those sums, and ``two_item`` reads its one pair's sums: the
counting algorithm at n = 2.  Grid point g has one generator, seeded with
(base_seed, g), that draws the counts of all replications in blocks of
``_BLOCK``.  The blocks continue one stream, so the block size bounds memory
without changing any output, and reruns give byte-identical results.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import itertools
import json
import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import ndtri

from .model import PATTERN_FAMILIES, OrdinalModel, PatternDistribution, StrengthLink
from .ranking import ComparisonDataset, PreferenceVector, count_scores, kendall_tau
from .snr import snr_of_pattern

__all__ = [
    "ExperimentConfig",
    "MetricEstimate",
    "GridPointResult",
    "ExperimentResult",
    "run_experiment",
    "default_config",
]

SCENARIOS = ("two_item", "scenario1", "scenario2", "scenario3")

# Replications per multinomial draw.  It bounds the count array at any
# replication count: 1024 x 45 pairs x 10 outcomes is 3.7 MB at n=10, K=5.
_BLOCK = 1024

CSV_COLUMNS = ["scenario", "link", "pattern", "beta", "n", "K", "L",
               "gamma_or_w", "metric", "estimate", "se", "ci_lo", "ci_hi",
               "reps", "seed"]


def _number(value, kind: type = float):
    """A JSON number read as ``kind``: a bool or a string is refused rather
    than read as a number, and a non-integral number, for an int ``kind``,
    rather than truncated."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{value!r} is not a number")
    if kind is int and value != int(value):
        raise ValueError(f"{value!r} is not a whole number")
    return kind(value)


def _numbers(values, kind: type = float) -> tuple:
    """A JSON list of numbers, each read by ``_number``; a string or an object
    is refused rather than read as a list of its characters or keys."""
    if isinstance(values, (str, dict)):
        raise ValueError(f"{values!r} is not a list")
    return tuple(_number(v, kind) for v in values)


# Config field types (as annotated) and how JSON values are coerced to them.
_COERCE = {
    "int": lambda v: _number(v, int),
    "float": _number,
    "tuple[int, ...]": lambda v: _numbers(v, int),
    "tuple[float, ...]": _numbers,
}


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    scenario: str
    link: str
    pattern: str
    K: int
    L_grid: tuple[int, ...]
    replications: int
    base_seed: int
    n: int = 2
    theta_gap: float | None = None
    theta: tuple[float, ...] | None = None
    gammas: tuple[float, ...] | None = None
    betas: tuple[float, ...] | None = None
    ci_level: float = 0.99

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            kind = f.type.removesuffix(" | None")
            if value is None:
                if kind == f.type:
                    raise ConfigError(f"config field {f.name} may not be null")
            elif kind in _COERCE:
                try:
                    object.__setattr__(self, f.name, _COERCE[kind](value))
                except (TypeError, ValueError, OverflowError) as exc:
                    raise ConfigError(f"config field {f.name}: {exc}") from None
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"unknown scenario {self.scenario!r}")
        grid = self.L_grid
        if not grid or any(b <= a for a, b in zip(grid, grid[1:])) or grid[0] < 1:
            raise ConfigError("L grid must be strictly increasing and positive")
        if self.replications < 1:
            raise ConfigError("replication count must be >= 1")
        if not 0.0 < self.ci_level < 1.0:
            raise ConfigError("CI level must lie in (0, 1)")
        if self.scenario == "two_item":
            if not self.gammas:
                raise ConfigError("two_item needs a gamma grid")
            if not all(0 < g < math.inf for g in self.gammas):
                raise ConfigError("two_item gammas must be positive and finite")
            if self.n != 2 or self.theta is not None or self.theta_gap is not None:
                raise ConfigError("two_item reads no n, theta or theta_gap")
        else:
            if self.gammas is not None:
                raise ConfigError(f"{self.scenario} reads no gammas")
            if (self.theta is None) == (self.theta_gap is None):
                raise ConfigError("ranking scenarios need exactly one of theta, theta_gap")
            if self.theta is not None and len(self.theta) != self.n:
                raise ConfigError(f"theta has {len(self.theta)} items but n={self.n}")
        if self.scenario == "scenario2":
            if not self.betas:
                raise ConfigError("scenario2 needs a beta grid")
            if len(self.L_grid) != 1:
                raise ConfigError("scenario2 uses a single L")
        # built once, so a malformed config, a tied theta or a link that leaves
        # float range on the grid fails before any run: one model per grid beta
        # (one model at beta None for a pattern that is not a family), and the
        # ranking scenarios' preferences
        try:
            link = StrengthLink.from_spec(self.link)
            if self.scenario == "two_item":
                link(np.array(self.gammas))
            # a family is written as its bare name, and only a family has betas
            family = PatternDistribution.split_spec(self.pattern)[0] in PATTERN_FAMILIES
            if not family == (self.pattern in PATTERN_FAMILIES) == bool(self.betas):
                raise ConfigError(
                    f"a family pattern is its bare name ({'|'.join(PATTERN_FAMILIES)}) with its"
                    " beta values in betas, and no other pattern takes betas; got pattern"
                    f" {self.pattern!r} and betas {self.betas}")
            patterns = ([(b, PatternDistribution.from_family(self.pattern, b, self.K))
                         for b in self.betas] if self.betas
                        else [(None, PatternDistribution.from_spec(
                            self.pattern, self.K, K_from="config field K"))])
        except ValueError as exc:
            raise ConfigError(f"bad link or pattern: {exc}") from None
        object.__setattr__(self, "models", tuple((b, OrdinalModel(link, pattern))
                                                 for b, pattern in patterns))
        theta = None
        if self.scenario != "two_item":
            try:
                theta = (PreferenceVector(self.theta) if self.theta is not None
                         else PreferenceVector.equally_spaced(self.n, self.theta_gap))
                link(theta.pairs()[2])
            except ValueError as exc:
                raise ConfigError(str(exc)) from None
        object.__setattr__(self, "preferences", theta)

    def to_dict(self) -> dict:
        """JSON-ready fields; optional fields left unset are omitted."""
        return {f.name: list(v) if isinstance(v, tuple) else v
                for f in dataclasses.fields(self)
                if (v := getattr(self, f.name)) is not None}

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        """Inverse of ``to_dict``; a key that names no field is refused."""
        try:
            if unknown := sorted(set(d) - {f.name for f in dataclasses.fields(cls)}):
                raise ConfigError(f"config keys {unknown} name no field")
            return cls(**d)
        except TypeError as exc:  # a missing key or a value of the wrong kind
            raise ConfigError(f"bad config: {exc}") from None

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        return cls.from_dict(json.loads(text))


@dataclass(frozen=True)
class MetricEstimate:
    estimate: float | None
    se: float | None
    ci_lo: float | None
    ci_hi: float | None
    flagged: bool = False


@dataclass(frozen=True)
class GridPointResult:
    params: dict
    metrics: dict[str, MetricEstimate]
    reps: int


@dataclass(frozen=True)
class ExperimentResult:
    config: ExperimentConfig
    points: tuple[GridPointResult, ...]

    def to_csv(self) -> str:
        cfg = self.config
        link_label = cfg.models[0][1].link.spec
        pattern_label = PatternDistribution.split_spec(cfg.pattern)[0]
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for point in self.points:
            beta = point.params.get("beta")
            gamma_or_w = point.params.get("gamma", point.params.get("w"))
            for name in sorted(point.metrics):
                m = point.metrics[name]
                writer.writerow([
                    cfg.scenario, link_label, pattern_label,
                    _fmt(beta), cfg.n, cfg.K, point.params.get("L", ""),
                    _fmt(gamma_or_w), name,
                    _fmt(m.estimate), _fmt(m.se), _fmt(m.ci_lo), _fmt(m.ci_hi),
                    point.reps, cfg.base_seed,
                ])
        return buf.getvalue()


def _fmt(v) -> str:
    return "" if v is None else repr(float(v))


def _bernoulli_metric(hits: np.ndarray, z: float) -> MetricEstimate:
    reps = hits.size
    p = float(np.mean(hits))
    se = float(np.sqrt(p * (1.0 - p) / reps))
    return MetricEstimate(p, se, max(0.0, p - z * se), min(1.0, p + z * se))


def _sample_metric(values: np.ndarray, z: float, clip01: bool = True) -> MetricEstimate:
    reps = values.size
    est = float(np.mean(values))
    se = float(np.std(values, ddof=1) / np.sqrt(reps)) if reps > 1 else 0.0
    lo, hi = est - z * se, est + z * se
    if clip01:
        lo, hi = max(0.0, lo), min(1.0, hi)
    return MetricEstimate(est, se, lo, hi)


def _replicate(config: ExperimentConfig, grid_id: int, L: int,
               support: np.ndarray, probs: np.ndarray,
               stat: Callable[[int, np.ndarray, np.ndarray], np.ndarray]) -> np.ndarray:
    """Per-replication statistics of one grid point.

    ``probs`` holds one outcome pmf per pair (P x 2K, ordered as
    ``support``).  ``stat`` maps L and a block's raw and sign sums, each of
    shape (block, P), to one row per replication.
    """
    rng = np.random.default_rng([config.base_seed, grid_id])
    basis = np.stack([support, np.sign(support)], axis=1)
    blocks = []
    for start in range(0, config.replications, _BLOCK):
        size = (min(_BLOCK, config.replications - start), len(probs))
        sums = rng.multinomial(L, probs, size=size) @ basis
        blocks.append(stat(L, sums[..., 0], sums[..., 1]))
    return np.concatenate(blocks)


# -- experiment runner -----------------------------------------------------


# Each scenario's metrics of one grid point, from its per-replication rows.

def _two_item_metrics(hits, pattern: PatternDistribution, z: float) -> dict:
    # the two hit indicators share draws, so the gap gets its own paired
    # standard error
    gap = hits[:, 1].astype(float) - hits[:, 0].astype(float)
    return {"p_raw_positive": _bernoulli_metric(hits[:, 0], z),
            "p_sign_positive": _bernoulli_metric(hits[:, 1], z),
            "p_sign_minus_raw": _sample_metric(gap, z, clip01=False)}


def _scenario1_metrics(taus, pattern: PatternDistribution, z: float) -> dict:
    return {"tau_ordinal": _sample_metric(taus[:, 0], z),
            "tau_binary": _sample_metric(taus[:, 1], z)}


def _scenario2_metrics(taus, pattern: PatternDistribution, z: float) -> dict:
    gap = taus[:, 0] - taus[:, 1]  # paired per replication
    snr = MetricEstimate(snr_of_pattern(pattern).snr, 0.0, None, None)
    return {**_scenario1_metrics(taus, pattern, z),
            "tau_gap": _sample_metric(gap, z, clip01=False), "snr_exact": snr}


def _scenario3_metrics(taus, pattern: PatternDistribution, z: float) -> dict:
    # the ratio is undefined at a finite replication count where the
    # ordinal error estimate is zero, so that point is flagged
    metrics = _scenario1_metrics(taus, pattern, z)
    mean_ord = float(np.mean(taus[:, 0]))
    mean_bin = float(np.mean(taus[:, 1]))
    if mean_ord == 0.0:
        metrics["tau_ratio"] = MetricEstimate(None, None, None, None, flagged=True)
        return metrics
    ratio = mean_bin / mean_ord
    reps = taus.shape[0]
    cov = np.cov(taus[:, 1], taus[:, 0], ddof=1) if reps > 1 else np.zeros((2, 2))
    var = (cov[0, 0] / mean_ord**2
           + mean_bin**2 * cov[1, 1] / mean_ord**4
           - 2.0 * mean_bin * cov[0, 1] / mean_ord**3) / reps
    se = float(np.sqrt(max(var, 0.0)))
    metrics["tau_ratio"] = MetricEstimate(ratio, se, max(0.0, ratio - z * se),
                                          ratio + z * se)
    return metrics


_METRICS = {"two_item": _two_item_metrics, "scenario1": _scenario1_metrics,
            "scenario2": _scenario2_metrics, "scenario3": _scenario3_metrics}


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run every grid point of the config's scenario through one loop."""
    z = float(ndtri(0.5 + config.ci_level / 2.0))
    if config.scenario == "two_item":
        grid = [({"L": L, "gamma": gamma}, beta, model, np.array([gamma]))
                for (beta, model), gamma, L in itertools.product(
                    config.models, config.gammas, config.L_grid)]

        def stat(L, raw, sign):
            return np.column_stack([raw[:, 0] > 0, sign[:, 0] > 0])
    else:
        theta = config.preferences
        first, second, gaps = theta.pairs()
        grid = [({"L": L, "w": config.theta_gap}, beta, model, gaps)
                for (beta, model), L in itertools.product(config.models, config.L_grid)]

        def stat(L, raw, sign):
            scores = count_scores(ComparisonDataset(theta.n, L, first, second, raw, sign))
            return np.column_stack([kendall_tau(scores.ordinal_totals, theta),
                                    kendall_tau(scores.binary_totals, theta)])
    metrics = _METRICS[config.scenario]
    points = []
    for grid_id, (params, beta, model, pair_gaps) in enumerate(grid):
        support, probs = model.pmf_table(pair_gaps)
        values = _replicate(config, grid_id, params["L"], support, probs, stat)
        if beta is not None:
            params["beta"] = beta
        points.append(GridPointResult(params, metrics(values, model.pattern, z),
                                      config.replications))
    return ExperimentResult(config, tuple(points))


def default_config(scenario: str, **overrides) -> ExperimentConfig:
    """Desk-scale defaults for the standard experiment grids, all with the
    abs family under the identity link."""
    ranking = dict(K=5, n=10, theta_gap=0.05, betas=(1.0,), replications=1000)
    grids = {
        "two_item": dict(K=4, L_grid=tuple(range(50, 501, 50)), gammas=(0.05, 0.1, 0.15),
                         betas=(0.1, 0.9), replications=10**5),
        "scenario1": dict(ranking, L_grid=tuple(range(100, 501, 50))),
        "scenario2": dict(ranking, L_grid=(100,),
                          betas=tuple(round(0.1 * i, 1) for i in range(1, 11))),
        "scenario3": dict(ranking, L_grid=tuple(100 * i for i in range(1, 11))),
    }
    if scenario not in grids:
        raise ConfigError(f"unknown scenario {scenario!r}")
    return ExperimentConfig(**{"scenario": scenario, "link": "identity", "pattern": "abs",
                               "base_seed": 12345, **grids[scenario], **overrides})
