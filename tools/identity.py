"""Digests of ordrank's outputs, to show that a change keeps them byte-identical.

Every command runs in-process through ``ordrank.cli.parse_and_dispatch``.
For each output family the script prints one line ``family count sha256``:
how many outputs the family holds and the sha256 of all of them in order.
A command's output is its exit code and stdout, a library call's the
``repr`` of its result, and an array's its name, dtype, shape and bytes.  Run it from the root of each checkout and diff::

    PYTHONPATH=src python tools/identity.py > identity.txt

The families:

- ``simulate-<scenario>``: the CSV of each ``default_config`` at the
  replication counts that ``test_default_csv_bytes_pinned`` pins;
- ``rates``: the ``rates`` command on 4 links x 7 patterns x 7 gammas, the
  grid of perfbench's ``rates`` workload;
- ``nitem``: ``rate_at_zero_nitem`` on all 45 pairs of
  ``equally_spaced(10, 0.05)``, in both views;
- ``asymptotic``: ``asymptotic_two_item`` at every point of the ``rates``
  grid, and ``asymptotic_tau`` on that theta for every (link, pattern);
- ``ingest``: the pair arrays that ``ingest`` writes from
  ``synthetic_ratings(seed=7)`` as a tab file, items rated at least 100
  times (acceptance criterion 10's input);
- ``evaluate`` and ``histogram``: those commands on that pairs file, at
  criterion 10's two ``evaluate`` settings;
- ``readme``: the README examples of ``snr``, ``snr-min``, ``model-info``
  and ``rank``.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

from ordrank import cli
from ordrank.data import synthetic_ratings
from ordrank.harness import default_config
from ordrank.model import OrdinalModel, PatternDistribution, StrengthLink
from ordrank.ranking import PreferenceVector, asymptotic_tau, asymptotic_two_item
from ordrank.rates import rate_at_zero_nitem

SIMULATE_REPS = {"two_item": 300, "scenario1": 20, "scenario2": 20, "scenario3": 20}
LINKS = ("cubic", "identity", "tanhsig", "logitnorm")
PATTERNS = ("abs:0.1,K=4", "abs:0.9,K=4", "sq:0.5,K=5", "min-unconstrained,K=4",
            "min-monotone,K=5", "uniform,K=3", "uniform,K=1")
GAMMAS = (1e-4, 1e-3, 0.05, 0.15, 0.5, 1.5, 5.0)
L = 500
NITEM_PATTERN, NITEM_N, NITEM_GAP = "abs:1.0,K=5", 10, 0.05
EVALUATE_SETTINGS = (("--seed", "7", "--train-frac", "0.7"),
                     ("--seed", "3", "--train-frac", "0.5", "--pairing", "pair"))
README_COMMANDS = (("snr", "--pattern", "abs:0.1", "--K", "4"),
                   ("snr-min", "--K", "4", "--monotone"),
                   ("model-info", "--link", "logitnorm:0.5", "--pattern", "uniform,K=1",
                    "--gamma", "0.3"))
RANK_CSV = "i,j,l,y\n0,1,1,2\n0,1,2,-1\n0,2,1,3\n0,2,2,1\n1,2,1,-1\n1,2,2,2\n"
RANK_THETA = "[0.3, 0.2, 0.1]"


def run(*argv: str) -> str:
    """Exit code and stdout of one ``ordrank`` command run in-process."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.parse_and_dispatch(list(argv))
    return f"{code}\n{out.getvalue()}"


def collect(workdir: Path) -> dict[str, list[str | bytes]]:
    """Every family's outputs, in order."""
    families: dict[str, list[str | bytes]] = {}

    def add(family: str, output: str | bytes) -> None:
        families.setdefault(family, []).append(output)

    for scenario, reps in SIMULATE_REPS.items():
        config = workdir / f"{scenario}.json"
        config.write_text(json.dumps(default_config(scenario, replications=reps).to_dict()),
                          encoding="utf-8")
        add(f"simulate-{scenario}", run("simulate", "--config", str(config)))

    for link, pattern, gamma in itertools.product(LINKS, PATTERNS, GAMMAS):
        add("rates", run("rates", "--link", link, "--pattern", pattern,
                         "--gamma", repr(gamma)))

    theta = PreferenceVector.equally_spaced(NITEM_N, NITEM_GAP)
    model = OrdinalModel(StrengthLink("identity"), PatternDistribution.from_spec(NITEM_PATTERN))
    for i, j in itertools.combinations(range(NITEM_N), 2):
        for view in (False, True):
            add("nitem", repr(rate_at_zero_nitem(model, theta, i, j, view)))

    for link, pattern in itertools.product(LINKS, PATTERNS):
        model = OrdinalModel(StrengthLink.from_spec(link), PatternDistribution.from_spec(pattern))
        for gamma in GAMMAS:
            add("asymptotic", repr(asymptotic_two_item(model, gamma, L)))
        add("asymptotic", repr(asymptotic_tau(model, theta, L)))

    table = synthetic_ratings(seed=7)
    ratings = workdir / "u.data"
    ratings.write_text("".join(f"{u}\t{i}\t{int(r)}\t{t}\n" for u, i, r, t in zip(
        table.users, table.items, table.ratings, table.timestamps)), encoding="utf-8")
    pairs = workdir / "pairs.npz"
    add("ingest", run("ingest", "--path", str(ratings), "--min-item-ratings", "100",
                      "--out", str(pairs)))
    with np.load(pairs) as z:
        for name in sorted(z.files):
            a = z[name]
            add("ingest", f"{name} {a.dtype.str} {a.shape}".encode() + a.tobytes())
    for setting in EVALUATE_SETTINGS:
        add("evaluate", run("evaluate", "--pairs", str(pairs), *setting))
    add("histogram", run("histogram", "--pairs", str(pairs)))

    for argv in README_COMMANDS:
        add("readme", run(*argv))
    data, theta_file = workdir / "data.csv", workdir / "theta.json"
    data.write_text(RANK_CSV, encoding="utf-8")
    theta_file.write_text(RANK_THETA, encoding="utf-8")
    add("readme", run("rank", "--input", str(data), "--theta", str(theta_file)))
    return families


def digest(outputs: list[str | bytes]) -> str:
    """sha256 of the outputs, each preceded by its length in bytes."""
    h = hashlib.sha256()
    for output in outputs:
        data = output.encode("utf-8") if isinstance(output, str) else output
        h.update(len(data).to_bytes(8, "little") + data)
    return h.hexdigest()


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        families = collect(Path(tmp))
    for family, outputs in families.items():
        print(family, len(outputs), digest(outputs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
