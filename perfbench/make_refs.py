"""Record the n-item reference ranking errors in ``refs_nitem.json``.

For every grid point of the three ranking scenarios in
``ordrank.harness.default_config`` this simulates the counting scores from
per-pair multinomial outcome counts (``oracles.nitem_taus``, which does not
use ``ordrank``) at a high replication count and stores the mean and
standard deviation of each error.  Run once from the repository root:

    python3 perfbench/make_refs.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
import oracles  # noqa: E402

REPS = 200_000
SEED = 20250701
K, N, GAP = 5, 10, 0.05
GRIDS = {
    "scenario1": [(L, 1.0) for L in range(100, 501, 50)],
    "scenario2": [(100, round(0.1 * i, 1)) for i in range(1, 11)],
    "scenario3": [(100 * i, 1.0) for i in range(1, 11)],
}


def main() -> None:
    theta = GAP * ((N - 1) / 2.0 - np.arange(N))
    rng = np.random.default_rng(SEED)
    refs: dict = {"reps": REPS, "seed": SEED}
    for scenario, grid in GRIDS.items():
        refs[scenario] = {}
        for L, beta in grid:
            taus = oracles.nitem_taus(oracles.pattern_weights(f"abs:{beta},K={K}"),
                                      theta, L, REPS, rng)
            stats = {"reps": REPS}
            for name, values in (("tau_ordinal", taus[:, 0]), ("tau_binary", taus[:, 1]),
                                 ("tau_gap", taus[:, 0] - taus[:, 1])):
                stats[name] = {"mean": float(values.mean()), "sd": float(values.std(ddof=1))}
            refs[scenario][f"L={L},beta={beta!r}"] = stats
            print(scenario, L, beta, stats["tau_ordinal"]["mean"],
                  stats["tau_binary"]["mean"], flush=True)
    out = Path(__file__).resolve().parent / "refs_nitem.json"
    out.write_text(json.dumps(refs, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
