"""Digests of ordrank's outputs, to show that a change keeps them byte-identical.

Every command runs in-process through ``ordrank.cli.parse_and_dispatch``.
For each output family the script prints one line ``family count sha256``:
how many outputs the family holds and the sha256 of all of them in order.
A command's output is its exit code and stdout (in ``cli``, its stderr and
``--out`` file too), a library call's the ``repr`` of its result, and an
array's its name, dtype, shape and bytes.  Run it from the root of each
checkout and diff::

    PYTHONPATH=src python tools/identity.py > identity.txt

The families:

- ``simulate-<scenario>``: the CSV of each ``default_config`` at the
  replication counts that ``test_default_csv_bytes_pinned`` pins;
- ``rates``: the ``rates`` command on 4 links x 7 patterns x 7 gammas, the
  grid of perfbench's ``rates`` workload;
- ``nitem``: ``rate_at_zero_nitem`` on all 45 pairs of
  ``equally_spaced(10, 0.05)``, in both views;
- ``rates-edge``: the ``rates`` command at gammas 1e-300, 1e-12, 20 and
  50 over the links and patterns of ``rates``, and ``rate_at_zero_nitem``
  on all 10 pairs of a theta with one gap of 0.3 next to gaps of 1e-3
  under the saturated ``tanhsig:100``, in both views, whose stacks mix
  near-origin and log-sum-exp terms;
- ``asymptotic``: ``asymptotic_two_item`` at every point of the ``rates``
  grid, and ``asymptotic_tau`` on that theta for every (link, pattern);
- ``ingest``: the pair arrays that ``ingest`` writes from
  ``synthetic_ratings(seed=7)`` as a tab file, items rated at least 100
  times (acceptance criterion 10's input);
- ``evaluate`` and ``histogram``: those commands on that pairs file, at
  criterion 10's two ``evaluate`` settings;
- ``ingest-movielens``: ``ingest``'s pair arrays and ``histogram`` from a
  seeded MovieLens-shaped tab file: users rate 2 to 80 items with skewed
  item popularity, so many users share a pair, and about 2% of the rows
  repeat a (user, item) with a new rating, some at a tied timestamp;
- ``ingest-csv`` and ``ingest-halves``: the same from seeded ``generic-csv``
  files with ratings in tenths, and in halves from 1.0 to 5.0, and duplicate
  rows, some of them exact copies;
- ``ingest-wide``: ``ingest``'s pair arrays and ``histogram`` from a seeded
  tab file of 800 users as in ``ingest-movielens`` and six who rate 363 to
  480 of its 500 items each, so that each of those six has more index pairs
  than one ``_PAIR_BATCH`` of 2^16 and a few pairs hold over 400
  comparisons;
- ``evaluate-wide``: ``evaluate`` at both of criterion 10's settings on
  those pairs, every pair of at least two comparisons scored.  Pairs of
  over 400 comparisons put each pair's train positives in 9 or more low
  bits of ``_split_accuracy``'s packed int64 sums;
- ``evaluate-movielens``, ``evaluate-csv`` and ``evaluate-halves``:
  ``evaluate`` at both of criterion 10's settings on those pairs files,
  every pair of at least two comparisons scored.  The MovieLens pairs are
  many short runs of integer differences and the halves' differences are
  multiples of 1/2, so their raw sums are exact and may add in any order;
  the tenths' are not, so their raw sums add in split order;
- ``rank``: the ``rank`` command on five items under three theta vectors,
  over hand files (an incomplete graph, rows in reversed orientation, and
  raw sums of 2^62 + 2^62 that leave int64), a seeded file that mixes all
  three, and two refused files (a zero outcome, an item past theta).  Item
  4 appears in no row of any file;
- ``text-edge``: exit code and stdout of ``ingest`` (both formats, the pair
  arrays too where it writes them) and of ``rank`` on small edge files: blank
  lines, CRLF and bare CR line ends, quoted and padded fields, ``1_0`` and
  non-ASCII digits, an unread column, values outside int64 (up to 400
  digits), the field values -2^63 and 2^63 in flipped rows, a repeated
  round, unequal round counts, rounds that are not 1..L, a self-comparison
  before a malformed row, and header-only files.  A ``generic-csv`` row
  wider than its header is left out: it is refused since the readers were
  unified, and before that its extra value was dropped.  int64 is checked
  on each field as written, so ``1,0,1,-9223372036854775808`` reads, with
  the raw sum 2^63 once oriented, and ``1,0,1,9223372036854775808`` exits
  2.  Oriented values were checked before, which refused the first and
  read the second: those two outputs, and no other, moved the family's
  digest from ``0f20558124e2…`` to ``ed9047af5c31…``;
- ``readme``: the README examples of ``snr``, ``snr-min``, ``model-info``
  and ``rank``;
- ``cli``: where each subcommand's output and errors go.  Each output is
  the exit code, stdout, stderr and ``--out`` file of one command
  (``run_all``), with the temporary directory written as ``<tmp>``: the
  bare ``ordrank`` and an unknown command; every subcommand without and
  with ``--out`` (a small ``scenario1`` config for ``simulate``, and
  ``ingest``'s stderr line and pair arrays), and with an unknown flag; and
  input files that do not exist.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import os
import sys
import tempfile
import warnings
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
EDGE_GAMMAS = (1e-300, 1e-12, 20.0, 50.0)
EDGE_LINK, EDGE_THETA = "tanhsig:100", (0.3, 0.0, 1e-3, 2e-3, 3e-3)
EVALUATE_SETTINGS = (("--seed", "7", "--train-frac", "0.7"),
                     ("--seed", "3", "--train-frac", "0.5", "--pairing", "pair"))
README_COMMANDS = (("snr", "--pattern", "abs:0.1", "--K", "4"),
                   ("snr-min", "--K", "4", "--monotone"),
                   ("model-info", "--link", "logitnorm:0.5", "--pattern", "uniform,K=1",
                    "--gamma", "0.3"))
RANK_CSV = "i,j,l,y\n0,1,1,2\n0,1,2,-1\n0,2,1,3\n0,2,2,1\n1,2,1,-1\n1,2,2,2\n"
RANK_THETA = "[0.3, 0.2, 0.1]"
RANK_THETAS = ("[0.5, 0.4, 0.3, 0.2, 0.1]", "[-1, 2, 0.5, 3, 0]", "[0.1, 0.2, 0.3, 0.4, 0.5]")
RANK_FILES = (
    "0,1,1,2\n0,1,2,-1\n0,2,1,3\n0,2,2,1\n1,3,1,-4\n1,3,2,2\n2,3,1,1\n2,3,2,1\n",
    "1,0,1,3\n0,1,2,-1\n3,2,1,2\n3,2,2,-3\n2,0,2,1\n0,2,1,-2\n",
    "0,1,1,4611686018427387904\n0,1,2,4611686018427387904\n"
    "2,1,1,4611686018427387904\n1,2,2,-4611686018427387904\n0,3,1,-1\n0,3,2,-1\n",
    "0,1,1,2\n0,1,2,0\n",
    "0,1,1,2\n0,5,1,1\n",
)
RANK_SEED = 2001
EDGE_TAB = (
    "1\t10\t5\t100\n\n1\t20\t4\t101\r\n2\t10\t3\t102\r2\t20\t5\t103\n",
    " 1\t10\t5\t100\n1\t20 \t4\t101\n2\t10\t3\t102\n2\t20\t5\t103\n",
    "1\t10\t5\t100\n1_0\t20\t4\t101\n",
    "1\t10\t5\t100\n\u0661\t20\t4\t101\n",
    "1\t10\t5\t100\n\n\n1\tx\t3\t101\n",
    "1\t10\t5\t9223372036854775808\n",
    f"1\t10\t5\t100\n1{'0' * 400}\t20\t4\t101\n",
    "",
)
EDGE_CSV = (
    "user,item,rating\n1,10,5\n\n1,20,4\r\n2,10,3\r2,20,5\n",
    'user,item,rating,timestamp\n"1",10,"4.5",100\n1, 20 ,3,101\n2,10,2,102\n2,20,1,103\n',
    "user,item,rating\n1,10,5\n\n\n1,x,3\n",
    "user,item,rating\n1,10,5\n1,2_0,4\n",
    "user,item,rating,timestamp\n1,10,5,\u0667\n",
    "user,item,rating\n99999999999999999999,10,5\n",
    f"user,item,rating\n1,1{'0' * 400},5\n",
    'user,genre,item,rating\n1,drama,10,5\n1,"a,b",20,4\n2,,10,3\n2,x,20,5\n',
    "user,item,rating\n",
)
EDGE_RANK = (
    "i,j,l,y\n0,1,1,2\n\n0,1,2,-1\r\n1,2,1,3\r1,2,2,1\n",
    'i,j,l,y\n"0",1,1, 2\n0,1,2,-3 \n',
    "i,j,l,y\n0,1,1,2\n0,1,2,1_0\n",
    "i,j,l,y\n0,1,1,2\n0,1,2,\u0663\n",
    "i,j,l,y\n1,0,1,-9223372036854775808\n",
    "i,j,l,y\n1,0,1,9223372036854775808\n1,0,2,1\n",
    "i,j,l,y\n0,1,1,2\n1,0,1,-1\n",
    "i,j,l,y\n0,1,1,2\n0,1,2,1\n0,2,1,1\n",
    "i,j,l,y\n0,1,1,2\n0,1,2,1\n0,2,1,1\n0,2,3,1\n",
    "i,j,l,y\n0,1,1,2\n2,2,1,1\n0,1,2,1\n0,1,x,1\n",
    f"i,j,l,y\n0,1,1,-1{'0' * 400}\n",
    f"i,j,l,y\n0,1,1,2\n1{'0' * 400},1{'0' * 400},1,1\n",
    "i,j,l,y\n",
)
MOVIELENS_SEED, MOVIELENS_MIN = 1801, 15
CSV_SEED, CSV_MIN = 1802, 4
HALVES_SEED = 1803
WIDE_SEED, WIDE_MIN = 2601, 5


def run(*argv: str) -> str:
    """Exit code and stdout of one ``ordrank`` command run in-process."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.parse_and_dispatch(list(argv))
    return f"{code}\n{out.getvalue()}"


def ratings_rows(seed: int, n_users: int, n_items: int, max_per_user: int,
                 n_ratings: int) -> np.ndarray:
    """Seeded (user, item, rating index, timestamp) rows: each user rates
    2 to ``max_per_user`` distinct items drawn by Pareto popularity, with a
    rating index below ``n_ratings``; then about 2% of the rows are repeated
    with a new rating, half of them at the same timestamp, and the rows are
    shuffled."""
    rng = np.random.default_rng(seed)
    popularity = rng.pareto(1.2, n_items) + 1.0
    rows = []
    for user in range(n_users):
        size = int(rng.integers(2, max_per_user + 1))
        items = rng.choice(n_items, size, replace=False, p=popularity / popularity.sum())
        rows += [(user * 3 + 1, item, int(rng.integers(n_ratings)),
                  int(rng.integers(10**9))) for item in items.tolist()]
    rows = np.array(rows, dtype=np.int64)
    again = rows[rng.choice(len(rows), len(rows) // 50, replace=False)]
    again[:, 2] = rng.integers(n_ratings, size=len(again))
    later = rng.random(len(again)) < 0.5
    again[later, 3] += rng.integers(1, 1000, size=int(later.sum()))
    return rng.permutation(np.concatenate([rows, again]))


def wide_rows(seed: int) -> np.ndarray:
    """``ratings_rows`` for 800 users of 500 items, and six more users who
    rate 363 to 480 of the items each, more than 2**16 index pairs apiece;
    shuffled together."""
    rows = ratings_rows(seed, 800, 500, 30, 5)
    rng = np.random.default_rng(seed)
    heavy = [(3 * user + 1, item, int(rng.integers(5)), int(rng.integers(10**9)))
             for user in range(800, 806)
             for item in rng.choice(500, int(rng.integers(363, 481)), replace=False).tolist()]
    return rng.permutation(np.concatenate([rows, np.array(heavy, dtype=np.int64)]))


def run_all(workdir: Path, *argv: str) -> bytes:
    """Exit code, stdout, stderr and ``--out`` file of one ``ordrank`` command
    run in-process, with ``workdir`` written as ``<tmp>``.  A warning is
    kept as its category and message, without the source line that raised
    it.  The ``--out`` file is read and removed; a pairs file is read as its
    arrays, because a zip member records the time it was written."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        code = cli.parse_and_dispatch(list(argv))
    err.writelines(f"{w.category.__name__}: {w.message}\n" for w in seen)
    parts = [f"{code}\n--stdout--\n{out.getvalue()}--stderr--\n{err.getvalue()}--out--\n"
             .encode()]
    target = Path(argv[argv.index("--out") + 1]) if "--out" in argv else None
    if target is not None and target.exists():
        parts += pair_arrays(target) if target.suffix == ".npz" else [target.read_bytes()]
        target.unlink()
    return b"\n".join(parts).replace(str(workdir).encode(), b"<tmp>")


def pair_arrays(path: Path) -> list[bytes]:
    """Each array of an .npz archive as its name, dtype, shape and bytes."""
    with np.load(path) as z:
        return [f"{name} {z[name].dtype.str} {z[name].shape}".encode() + z[name].tobytes()
                for name in sorted(z.files)]


def write_tab(path: Path, table) -> None:
    """A ratings table as the tab format that ``ingest`` reads by default."""
    path.write_text("".join(f"{u}\t{i}\t{int(r)}\t{t}\n" for u, i, r, t in zip(
        table.users, table.items, table.ratings, table.timestamps)), encoding="utf-8")


def add_ingest(add, family: str, workdir: Path, ratings: Path, *flags: str) -> Path:
    """Add ``ingest``'s exit code, stdout and the pair arrays it writes;
    return the pairs file."""
    pairs = workdir / f"{ratings.name}.npz"
    add(family, run("ingest", "--path", str(ratings), *flags, "--out", str(pairs)))
    if pairs.exists():
        for array in pair_arrays(pairs):
            add(family, array)
    return pairs


def add_cli(add, workdir: Path) -> None:
    """Add the ``cli`` family: every subcommand's exit code, stdout, stderr
    and ``--out`` file through ``run_all``."""
    cli_dir = workdir / "cli"
    cli_dir.mkdir()
    config, ratings = cli_dir / "config.json", cli_dir / "u.data"
    pairs, data, theta = cli_dir / "pairs.npz", cli_dir / "data.csv", cli_dir / "theta.json"
    config.write_text(json.dumps(default_config(
        "scenario1", replications=20, L_grid=(50, 100)).to_dict()), encoding="utf-8")
    write_tab(ratings, synthetic_ratings(n_items=6, users_per_pair=40, seed=3))
    data.write_text(RANK_CSV, encoding="utf-8")
    theta.write_text(RANK_THETA, encoding="utf-8")
    run("ingest", "--path", str(ratings), "--min-item-ratings", "50", "--out", str(pairs))
    commands = {
        "snr": ("--pattern", "abs:0.1", "--K", "4"),
        "snr-min": ("--K", "4", "--monotone"),
        "rank": ("--input", str(data), "--theta", str(theta)),
        "rates": ("--link", "identity", "--pattern", "abs:0.5,K=4", "--gamma", "0.15"),
        "model-info": ("--link", "cubic", "--pattern", "sq:0.5,K=3", "--gamma", "0.2"),
        "simulate": ("--config", str(config)),
        "ingest": ("--path", str(ratings), "--min-item-ratings", "50"),
        "evaluate": ("--pairs", str(pairs), "--reps", "5", "--min-pair-count", "2"),
        "histogram": ("--pairs", str(pairs)),
    }
    add("cli", run_all(workdir))
    add("cli", run_all(workdir, "no-such-command"))
    for name, flags in commands.items():
        add("cli", run_all(workdir, name, *flags))  # ingest without --out: a usage error
        out = cli_dir / ("out.npz" if name == "ingest" else "out")
        add("cli", run_all(workdir, name, *flags, "--out", str(out)))
        add("cli", run_all(workdir, name, *flags, "--no-such-flag", "1"))
    missing = str(cli_dir / "missing")
    for argv in (("rank", "--input", missing, "--theta", str(theta)),
                 ("rank", "--input", str(data), "--theta", missing),
                 ("simulate", "--config", missing),
                 ("ingest", "--path", missing, "--out", str(cli_dir / "out.npz")),
                 ("evaluate", "--pairs", missing),
                 ("histogram", "--pairs", missing)):
        add("cli", run_all(workdir, *argv))


def add_evaluate(add, family: str, pairs: Path) -> None:
    """Add ``evaluate`` on every pair of ``pairs`` at both criterion 10 settings."""
    for setting in EVALUATE_SETTINGS:
        add(family, run("evaluate", "--pairs", str(pairs), "--min-pair-count", "2", *setting))


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

    for link, pattern, gamma in itertools.product(LINKS, PATTERNS, EDGE_GAMMAS):
        add("rates-edge", run("rates", "--link", link, "--pattern", pattern,
                              "--gamma", repr(gamma)))
    edge = PreferenceVector(EDGE_THETA)
    saturated = OrdinalModel(StrengthLink.from_spec(EDGE_LINK),
                             PatternDistribution.from_spec(NITEM_PATTERN))
    for i, j in itertools.combinations(range(edge.n), 2):
        for view in (False, True):
            add("rates-edge", repr(rate_at_zero_nitem(saturated, edge, i, j, view)))

    for link, pattern in itertools.product(LINKS, PATTERNS):
        model = OrdinalModel(StrengthLink.from_spec(link), PatternDistribution.from_spec(pattern))
        for gamma in GAMMAS:
            add("asymptotic", repr(asymptotic_two_item(model, gamma, L)))
        add("asymptotic", repr(asymptotic_tau(model, theta, L)))

    ratings = workdir / "u.data"
    write_tab(ratings, synthetic_ratings(seed=7))
    pairs = add_ingest(add, "ingest", workdir, ratings, "--min-item-ratings", "100")
    for setting in EVALUATE_SETTINGS:
        add("evaluate", run("evaluate", "--pairs", str(pairs), *setting))
    add("histogram", run("histogram", "--pairs", str(pairs)))

    movielens = workdir / "movielens.data"
    movielens.write_text("".join(
        f"{u}\t{i}\t{r + 1}\t{t}\n"
        for u, i, r, t in ratings_rows(MOVIELENS_SEED, 400, 250, 80, 5).tolist()),
        encoding="utf-8")
    pairs = add_ingest(add, "ingest-movielens", workdir, movielens,
                       "--min-item-ratings", str(MOVIELENS_MIN))
    add("ingest-movielens", run("histogram", "--pairs", str(pairs)))
    add_evaluate(add, "evaluate-movielens", pairs)
    for family, seed, steps in (("csv", CSV_SEED, np.arange(5, 51) / 10.0),
                                ("halves", HALVES_SEED, np.arange(2, 11) / 2.0)):
        generic, steps = workdir / f"{family}.csv", steps.tolist()
        rows = ratings_rows(seed, 80, 40, 12, len(steps))
        generic.write_text("user,item,rating,timestamp\n" + "".join(
            f"{u},{i},{steps[r]!r},{t}\n"
            for u, i, r, t in np.concatenate([rows, rows[:10]]).tolist()), encoding="utf-8")
        pairs = add_ingest(add, f"ingest-{family}", workdir, generic, "--format", "generic-csv",
                           "--min-item-ratings", str(CSV_MIN))
        add(f"ingest-{family}", run("histogram", "--pairs", str(pairs)))
        add_evaluate(add, f"evaluate-{family}", pairs)

    wide = workdir / "wide.data"
    wide.write_text("".join(f"{u}\t{i}\t{r + 1}\t{t}\n"
                            for u, i, r, t in wide_rows(WIDE_SEED).tolist()), encoding="utf-8")
    pairs = add_ingest(add, "ingest-wide", workdir, wide, "--min-item-ratings", str(WIDE_MIN))
    add("ingest-wide", run("histogram", "--pairs", str(pairs)))
    add_evaluate(add, "evaluate-wide", pairs)

    rng = np.random.default_rng(RANK_SEED)
    rows = [(i, j, l, int(rng.choice([-4, -3, -2, -1, 1, 2, 3, 4])))
            for i, j in itertools.combinations(range(4), 2) if rng.random() < 0.7
            for l in range(1, 7)]
    rows = [(j, i, l, -y) if rng.random() < 0.5 else (i, j, l, y)
            for i, j, l, y in rows]
    seeded = "".join(f"{i},{j},{l},{y}\n" for i, j, l, y in rng.permutation(rows).tolist())
    data, theta_file = workdir / "rank.csv", workdir / "rank-theta.json"
    for rows_text, theta in itertools.product((*RANK_FILES, seeded), RANK_THETAS):
        data.write_text("i,j,l,y\n" + rows_text, encoding="utf-8")
        theta_file.write_text(theta, encoding="utf-8")
        add("rank", run("rank", "--input", str(data), "--theta", str(theta_file)))

    theta_file.write_text(RANK_THETAS[0], encoding="utf-8")
    for k, (flags, text) in enumerate(
            [((), t) for t in EDGE_TAB] + [(("--format", "generic-csv"), t) for t in EDGE_CSV]
            + [(None, t) for t in EDGE_RANK]):
        path = workdir / f"edge{k}"
        path.write_bytes(text.encode("utf-8"))  # bytes: CR line ends stay as written
        if flags is None:
            add("text-edge", run("rank", "--input", str(path), "--theta", str(theta_file)))
        else:
            add_ingest(add, "text-edge", workdir, path, *flags, "--min-item-ratings", "1")

    for argv in README_COMMANDS:
        add("readme", run(*argv))
    data, theta_file = workdir / "data.csv", workdir / "theta.json"
    data.write_text(RANK_CSV, encoding="utf-8")
    theta_file.write_text(RANK_THETA, encoding="utf-8")
    add("readme", run("rank", "--input", str(data), "--theta", str(theta_file)))
    add_cli(add, workdir)
    return families


def digest(outputs: list[str | bytes]) -> str:
    """sha256 of the outputs, each preceded by its length in bytes."""
    h = hashlib.sha256()
    for output in outputs:
        data = output.encode("utf-8") if isinstance(output, str) else output
        h.update(len(data).to_bytes(8, "little") + data)
    return h.hexdigest()


def main() -> int:
    os.environ["COLUMNS"] = "80"  # argparse wraps usage lines at the terminal width
    with tempfile.TemporaryDirectory() as tmp:
        families = collect(Path(tmp))
    for family, outputs in families.items():
        print(family, len(outputs), digest(outputs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
