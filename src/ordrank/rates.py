"""Exponential decay rates of misranking events.

For a positively-oriented pair, the probability that a counting metric ranks
it wrongly decays like exp(-L * I) in the round count L, where I is the
Cramer rate at zero, i.e. the supremum over lam of -log E[exp(lam * sum)].
For binarized data the rate has the closed form log cosh(phi(gamma)); for
raw ordinal data it is minus the minimum of the convex log-MGF, found as the
root of its analytic slope (the tilted mean): Newton steps use the slope's
derivative, the tilted variance, and fall back on bisection of a proven
bracket.  It is strictly smaller whenever the magnitude law is
non-degenerate, which is what makes binarization win at large L.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .model import OrdinalModel, PatternDistribution, log_cosh
from .ranking import PreferenceVector

__all__ = [
    "RateResult",
    "rate_at_zero_binary",
    "rate_at_zero_ordinal",
    "rate_at_zero_nitem",
    "error_decay_prediction",
    "crossover_rounds",
]

_SIGN_PATTERN = PatternDistribution((1.0,))
# bisection alone narrows [-2B, 0] below 1e-12 B in 41 steps
_MAX_ITERATIONS = 100


@dataclass(frozen=True)
class RateResult:
    rate: float
    argmin_lambda: float
    iterations: int
    converged: bool
    boundary: bool = False  # gamma == 0: the event has probability ~1/2

    def to_dict(self) -> dict:
        return dict(vars(self))  # the fields in order, all scalars: no deep copy


def _rate(model: OrdinalModel, gammas: np.ndarray, mults: np.ndarray) -> RateResult:
    """Rate -min over lam of sum_t log_mgf(gammas[t], mults[t] * lam).

    The objective is convex, with slope and curvature the sums over t of
    mults[t] and mults[t]^2 times ``tilted_moments(gammas[t], mults[t] * lam)``,
    and the slope is positive at lam = 0 for an oriented pair, so the argmin
    is the root of the slope in the bracket below.  Newton steps on the slope
    find it; a step that would leave the bracket bisects it instead, and every
    evaluation narrows it.  The solve stops at a step of at most
    xtol = 1e-12 * B, or a bracket that narrow.  ``iterations`` counts the
    evaluations of slope and curvature, the first one at -B included.  A
    link value so large that the bracket leaves float range raises
    ValueError naming the link and |gamma|.
    """
    phi = model.link(gammas)
    B = float(np.max(np.abs(phi)))
    if B == 0.0:  # the link underflowed: every term is flat at lam = 0
        return RateResult(0.0, 0.0, 0, True)
    # the tilted terms phi_t + mults[t] * lam * k must stay in float range
    # over the whole bracket below, down to lam = -2B
    if not math.isfinite(B * (1.0 + 2.0 * float(np.max(mults)) * model.K)):
        gamma = abs(float(gammas[np.argmax(np.abs(phi))]))
        raise ValueError(f"link {model.link.spec} at |gamma|={gamma!r} is too large "
                         f"for the rate solve: its bracket leaves float range")
    # the one link evaluation: its phi-only terms serve every step and the rate
    tilted = model._tilt(phi)

    def derivatives(lam: float) -> tuple[float, float]:  # slope, curvature
        mean, var = tilted(mults * lam, True)
        return float(mults @ mean), float(mults**2 @ var)

    # With B = max |phi| and every mults[t] * k >= 1, each tilted term
    # phi_t + mults[t] * lam * k is <= 0 at lam = -B, so the slope there is
    # <= 0.  It is 0 only when all weight sits on magnitude 1 and the root
    # is -B itself, where rounding may read it positive; at -2B every term
    # is < 0, so [-2B, 0] always brackets the root, and the first evaluation,
    # at -B, narrows it to [-B, 0] or, in that rounding case, [-2B, -B].
    lo, hi, lam = -2.0 * B, 0.0, -B
    xtol = 1e-12 * B
    converged = True
    for iterations in range(1, _MAX_ITERATIONS + 1):
        s, v = derivatives(lam)
        if s > 0.0:
            hi = lam
        else:
            lo = lam
        step = -s / v if v > 0.0 else math.inf
        if abs(step) <= xtol:  # a step that rounds to lam itself included
            lam += step
            break
        lam = lam + step if lo < lam + step < hi else 0.5 * (lo + hi)
        if hi - lo <= xtol:
            break
    else:
        converged = False
    rate = -float(np.sum(tilted(lam * mults, False)[0]))
    return RateResult(rate, lam, iterations, converged)


def rate_at_zero_binary(model: OrdinalModel, gamma: float) -> RateResult:
    """Closed-form rate log cosh(phi(gamma)) for the binarized metric; the
    log-MGF minimum sits at lambda = -phi(gamma)."""
    phi = model.link(gamma)
    if gamma == 0:
        return RateResult(0.0, 0.0, 0, True, boundary=True)
    return RateResult(log_cosh(phi), -phi, 0, True)


def rate_at_zero_ordinal(model: OrdinalModel, gamma: float) -> RateResult:
    """Rate for the raw ordinal metric: -inf over lambda of the log-MGF.

    Strictly between 0 and the binarized rate when the magnitude law has two
    or more support points.
    """
    if gamma == 0:
        return RateResult(0.0, 0.0, 0, True, boundary=True)
    if gamma < 0:  # the link is odd: log_mgf(-gamma, -lam) == log_mgf(gamma, lam)
        res = rate_at_zero_ordinal(model, -gamma)
        return replace(res, argmin_lambda=-res.argmin_lambda)
    return _rate(model, np.array([gamma], dtype=float), np.ones(1))


def rate_at_zero_nitem(model: OrdinalModel, theta: PreferenceVector,
                       i: int, j: int, binarized: bool) -> RateResult:
    """Rate of the event that item j out-scores item i in the n-item counting
    algorithm, for theta_i > theta_j (i and j are swapped otherwise).

    The score-difference summand is 2*y_ij plus the indirect terms
    y_ik + y_kj over all other items k; by independence its log-MGF is the
    sum of the per-comparison log-MGFs with the direct term taken at
    2*lambda, stacked into one solve over 2n - 3 terms.
    """
    if i == j:
        raise ValueError("need two distinct items")
    gaps = theta.gaps()
    if gaps[i, j] == 0:
        raise ValueError("tied preferences have no misranking rate")
    if gaps[i, j] < 0:
        i, j = j, i
    mdl = OrdinalModel(model.link, _SIGN_PATTERN) if binarized else model
    others = np.delete(np.arange(theta.n), [i, j])
    gammas = np.concatenate([[gaps[i, j]], gaps[i, others], gaps[others, j]])
    mults = np.ones(gammas.size)
    mults[0] = 2.0
    return _rate(mdl, gammas, mults)


def error_decay_prediction(rate: RateResult, L: int) -> float:
    """Leading-order misranking probability scale exp(-L * rate)."""
    if not rate.converged:
        raise ValueError("rate did not converge; no decay prediction")
    if L < 0:
        raise ValueError("L must be >= 0")
    return math.exp(-L * rate.rate)


def crossover_rounds(binary: RateResult, ordinal: RateResult,
                     factor: float = 10.0) -> int | None:
    """Heuristic smallest L at which the binarized error scale undercuts the
    ordinal one by ``factor``, from leading-order decay only.  None when the
    rates do not separate in the right direction, or by a few ulps (equal
    rates of a one-point law are solved that far apart) or a subnormal gap."""
    if not (math.isfinite(factor) and factor > 1.0):
        raise ValueError(f"crossover factor must be a finite number above 1, got {factor!r}")
    gap = binary.rate - ordinal.rate
    if gap <= 4 * math.ulp(binary.rate):
        return None
    rounds = math.log(factor) / gap  # inf when the gap is subnormal
    return max(1, math.ceil(rounds)) if math.isfinite(rounds) else None
