"""Ordinal paired comparisons and counting-based ranking.

Library layout:

- :mod:`ordrank.model`   -- the generative ordinal comparison law
- :mod:`ordrank.snr`     -- magnitude signal-to-noise analytics and minimizers
- :mod:`ordrank.ranking` -- counting scores, ranking error, normal-limit predictors
- :mod:`ordrank.rates`   -- large-deviation decay rates of misranking events
- :mod:`ordrank.harness` -- deterministic Monte-Carlo experiment runner
- :mod:`ordrank.data`    -- text input, ratings ingestion, the split-evaluation protocol
- :mod:`ordrank.cli`     -- ``ordrank`` command-line surface
"""

from .model import (
    CorruptDataError,
    InvalidPatternError,
    ModelMoments,
    OrdinalModel,
    PatternDistribution,
    StrengthLink,
)
from .ranking import (
    ComparisonDataset,
    PreferenceVector,
    ScorePair,
    asymptotic_tau,
    asymptotic_two_item,
    count_scores,
    expected_scores,
    kendall_tau,
)
from .rates import (
    RateResult,
    crossover_rounds,
    error_decay_prediction,
    rate_at_zero_binary,
    rate_at_zero_nitem,
    rate_at_zero_ordinal,
)
from .snr import (
    SnrReport,
    minimal_snr_monotone,
    minimal_snr_unconstrained,
    snr_of_pattern,
)

__version__ = "0.1.0"
