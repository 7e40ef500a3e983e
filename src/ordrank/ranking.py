"""Counting-based ranking from paired-comparison outcomes.

Items are scored by summing their comparison outcomes (raw ordinal values,
or their signs after binarization) and ranked by score.  The module also
provides the ranking error (misordered pairs, ties counting as errors), the
expected scores, and the normal-limit predictors of two-item success and
n-item ranking error.  It reads no text: ``data.dataset_from_csv`` turns a
comparison file into a ``ComparisonDataset``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .model import OrdinalModel, sech2

__all__ = [
    "PreferenceVector",
    "ComparisonDataset",
    "ScorePair",
    "count_scores",
    "kendall_tau",
    "expected_scores",
    "asymptotic_two_item",
    "asymptotic_tau",
]


@dataclass(frozen=True)
class PreferenceVector:
    """True item preferences theta.  The model sees them only through the
    pairwise differences theta_i - theta_j, the gammas fed to the comparison
    model, so theta and theta + c are the same preferences."""

    theta: tuple[float, ...]

    def __post_init__(self):
        th = np.asarray(self.theta, dtype=float)
        if th.ndim != 1 or th.size < 1 or not np.all(np.isfinite(th)):
            raise ValueError("theta must be a finite 1-d vector")
        object.__setattr__(self, "theta", tuple(float(v) for v in th))

    @classmethod
    def equally_spaced(cls, n: int, gap: float) -> "PreferenceVector":
        """n items, descending, adjacent difference ``gap``, centered at 0."""
        th = gap * ((n - 1) / 2.0 - np.arange(n))
        # exact centering against float drift (the mean, without its warning
        # on an empty slice: the constructor refuses n < 1); the gaps' last
        # bits depend on it
        th -= th.sum() / max(n, 1)
        return cls(tuple(th))

    @property
    def n(self) -> int:
        return len(self.theta)

    def gaps(self) -> np.ndarray:
        """Antisymmetric matrix of pairwise differences theta_i - theta_j."""
        th = np.asarray(self.theta)
        return th[:, None] - th[None, :]

    def pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Index arrays of the item pairs i < j and their gaps theta_i - theta_j;
        fewer than two items or a tie order no pair, so both are refused."""
        if self.n < 2:
            raise ValueError("need at least two items")
        i, j = np.triu_indices(self.n, k=1)
        gaps = self.gaps()[i, j]
        if not gaps.all():
            k = np.flatnonzero(gaps == 0)[0]
            raise ValueError(f"theta ties items {i[k]} and {j[k]}; "
                             "the ranking error needs strict preferences")
        return i, j, gaps


@dataclass(frozen=True, eq=False)
class ComparisonDataset:
    """The counting algorithm's sufficient statistics: for each observed pair
    ``first[p] < second[p]``, the sum of its ``rounds`` outcomes (``raw``) and
    of their signs (``sign``), oriented first-before-second, with pairs on the
    last axis and replications on any leading ones.  Absent pairs are allowed."""

    n: int
    rounds: int
    first: np.ndarray
    second: np.ndarray
    raw: np.ndarray
    sign: np.ndarray

    def __post_init__(self):
        if self.n < 2 or self.rounds < 1:
            raise ValueError("need n >= 2 items and at least one round")
        for name in ("first", "second", "raw", "sign"):
            object.__setattr__(self, name, np.asarray(getattr(self, name)))
        i, j, raw, sign = self.first, self.second, self.raw, self.sign
        if not (i.ndim == 1 and i.shape == j.shape == raw.shape[-1:] and raw.shape == sign.shape):
            raise ValueError(f"pairs of shapes {i.shape} and {j.shape} do not match "
                             f"sums of shapes {raw.shape} and {sign.shape}")
        bad = np.flatnonzero((i < 0) | (i >= j) | (j >= self.n))
        if bad.size:
            raise ValueError(f"bad pair ({i[bad[0]]}, {j[bad[0]]}) for n={self.n}")


@dataclass(frozen=True, eq=False)
class ScorePair:
    """Per-item counting totals of the raw and the sign sums, exact past int64
    for object sums, and the scores: the totals over the round count."""

    ordinal_totals: np.ndarray
    binary_totals: np.ndarray
    rounds: int

    @property
    def ordinal_scores(self) -> np.ndarray:
        return np.asarray(self.ordinal_totals, dtype=float) / self.rounds

    @property
    def binary_scores(self) -> np.ndarray:
        return np.asarray(self.binary_totals, dtype=float) / self.rounds

    def to_dict(self) -> dict:
        return {
            "rounds": self.rounds,
            "ordinal_scores": list(self.ordinal_scores),
            "binary_scores": list(self.binary_scores),
        }


def count_scores(data: ComparisonDataset) -> ScorePair:
    """The counting algorithm: one scatter-add per replication row adds each
    pair's sums to its first item's totals and subtracts them from its second's.
    Totals keep the sums' leading axes; object sums of Python ints stay exact."""
    sums = np.stack([data.raw, data.sign])
    at = data.n * np.arange(math.prod(sums.shape[:-1]))[:, None]
    totals = np.zeros(at.size * data.n, dtype=sums.dtype)
    np.add.at(totals, (at + data.first).ravel(), sums.ravel())
    np.subtract.at(totals, (at + data.second).ravel(), sums.ravel())
    ordinal, binary = totals.reshape(sums.shape[:-1] + (data.n,))
    return ScorePair(ordinal, binary, data.rounds)


def kendall_tau(scores, theta: PreferenceVector):
    """Fraction of item pairs ordered differently by the scores than by
    theta; pairs with equal scores count as errors.  Theta must order every
    pair: a tie has no right order, so it is refused.

    One score vector gives a float; a (reps, n) array gives one fraction per
    row.
    """
    s = np.asarray(scores, dtype=float)
    if s.ndim not in (1, 2) or s.shape[-1] != theta.n:
        raise ValueError(f"got scores of shape {s.shape} for {theta.n} items")
    i, j, gaps = theta.pairs()
    bad = np.count_nonzero((s[..., i] - s[..., j]) * gaps <= 0, axis=-1)
    tau = 2.0 * bad / (theta.n * (theta.n - 1))
    return float(tau) if s.ndim == 1 else tau


def expected_scores(model: OrdinalModel, theta: PreferenceVector):
    """Expected score vectors under the model: the binarized one is the row
    sum of tanh(phi(theta_i - theta_j)); the ordinal one scales it by the
    mean outcome magnitude.  Both order items exactly as theta does."""
    t = np.tanh(model.link(theta.gaps()))
    np.fill_diagonal(t, 0.0)
    s_tilde = t.sum(axis=1)
    return model.pattern.mean() * s_tilde, s_tilde


def asymptotic_two_item(model: OrdinalModel, gamma: float, L: int) -> tuple[float, float]:
    """Normal-limit probabilities that the binarized and the raw counting
    metric rank a positive-gap pair correctly after L rounds.

    Returns (pB, pA) with pB >= pA; they coincide only for a degenerate
    magnitude law.
    """
    if not gamma > 0:
        raise ValueError("gamma must be positive (orient the pair first)")
    if L < 1:
        raise ValueError("L must be >= 1")
    phi = model.link(gamma)
    root_l = math.sqrt(L)
    with np.errstate(over="ignore", divide="ignore"):
        # sinh overflows, and sech^2 underflows, only where both limits are 1
        p_binary = float(ndtr(root_l * np.sinh(phi)))
        spread = np.sqrt(model.pattern.inverse_snr + sech2(phi))
        p_ordinal = float(ndtr(root_l * math.tanh(phi) / spread))
    return p_binary, p_ordinal


def asymptotic_tau(model: OrdinalModel, theta: PreferenceVector, L: int) -> tuple[float, float]:
    """Limiting expected ranking errors of the ordinal and binarized counting
    scores for n items after L rounds."""
    if L < 1:
        raise ValueError("L must be >= 1")
    i, j, gaps = theta.pairs()
    n = theta.n
    # Pair (i, j)'s drift D_ij = 2 t_ij + sum_{k != i,j} (t_ik - t_jk) collapses
    # to the gap of the binarized expected scores, signed to orient the pair.
    # Its spread 1 - V, for the variance proxy V, likewise collapses to
    # row_s_i + row_s_j + 2 s_ij, summed from sech^2 = 1 - tanh^2 terms so
    # that it does not cancel to 0 where tanh rounds to 1.  Both are over 2n.
    s_tilde = expected_scores(model, theta)[1]
    s = sech2(model.link(theta.gaps()))
    np.fill_diagonal(s, 0.0)
    row_s = s.sum(axis=1)
    d_bar = np.sign(gaps) * (s_tilde[i] - s_tilde[j]) / (2.0 * n)
    spread = (row_s[i] + row_s[j] + 2.0 * s[i, j]) / (2.0 * n)
    scale = math.sqrt(2.0 * n * L)
    inv_snr = model.pattern.inverse_snr
    with np.errstate(divide="ignore"):
        tau_ordinal = float(np.mean(ndtr(-scale * d_bar / np.sqrt(inv_snr + spread))))
        tau_binary = float(np.mean(ndtr(-scale * d_bar / np.sqrt(spread))))
    return tau_ordinal, tau_binary
