"""Signal-to-noise analytics for magnitude distributions.

The benefit of binarizing ordinal comparisons is driven by the
signal-to-noise ratio SNR = mean^2 / variance of the magnitude law.  Besides
the straightforward report, this module constructs the two magnitude laws
with provably minimal SNR: one over the whole simplex (a two-point law on
{1, K}) and one restricted to non-increasing weights (extra mass on 1, the
rest uniform on {2..K}).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from .model import InvalidPatternError, PatternDistribution

__all__ = [
    "SnrReport",
    "snr_of_pattern",
    "minimal_snr_unconstrained",
    "minimal_snr_monotone",
]


@dataclass(frozen=True)
class SnrReport:
    mean: float
    second_moment: float
    variance: float
    snr: float

    def to_dict(self) -> dict:  # JSON has no infinity: a one-point law's SNR is None
        return {**asdict(self), "snr": None if math.isinf(self.snr) else self.snr}


def snr_of_pattern(pattern: PatternDistribution) -> SnrReport:
    """Exact moments of the magnitude law; a single support point gives the
    +inf sentinel (zero variance)."""
    mean = pattern.mean()
    m2 = pattern.second_moment()
    var = pattern.variance()
    snr = math.inf if var == 0.0 else mean * mean / var
    return SnrReport(mean=mean, second_moment=m2, variance=var, snr=snr)


def minimal_snr_unconstrained(K: int) -> tuple[float, PatternDistribution]:
    """Smallest achievable SNR over all magnitude laws on {1..K}.

    The minimum 4K/(K-1)^2 is attained only by the two-point law with mass
    K/(K+1) on 1 and 1/(K+1) on K.
    """
    K = int(K)
    if K < 2:
        raise InvalidPatternError("minimal SNR needs K >= 2 (K=1 is degenerate)")
    value = 4.0 * K / (K - 1) ** 2
    weights = [0.0] * K
    weights[0] = K / (K + 1.0)
    weights[-1] = 1.0 / (K + 1.0)
    pattern = PatternDistribution.from_weights(weights)
    return value, pattern


def minimal_snr_monotone(K: int) -> tuple[float, PatternDistribution]:
    """Smallest achievable SNR over magnitude laws with non-increasing
    weights on {1..K}.

    The minimum 24(K+1)/(4K^2-4K+1) puts weight (2K^2+K+2)/(2K^2+5K) on 1 and
    spreads 2(2K-1)/(K(K-1)(2K+5)) over each of 2..K.  At K=2 this coincides
    with the unconstrained minimum.
    """
    K = int(K)
    if K < 2:
        raise InvalidPatternError("minimal SNR needs K >= 2 (K=1 is degenerate)")
    value = 24.0 * (K + 1) / (4.0 * K * K - 4.0 * K + 1.0)
    tail = 2.0 * (2 * K - 1) / (K * (K - 1) * (2 * K + 5.0))
    head = (2.0 * K * K + K + 2.0) / (2.0 * K * K + 5.0 * K)
    weights = [head] + [tail] * (K - 1)
    pattern = PatternDistribution.from_weights(weights)
    return value, pattern
