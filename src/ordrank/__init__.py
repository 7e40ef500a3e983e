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

# Each module's ``__all__`` is its one list of public names; the package
# republishes them.
from .model import *  # noqa: F403
from .ranking import *  # noqa: F403
from .rates import *  # noqa: F403
from .snr import *  # noqa: F403

__version__ = "0.1.0"
