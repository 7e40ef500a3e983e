"""Ratings ingestion and the split-train-predict evaluation protocol.

A ratings table (user, item, rating, optional timestamp) is reduced to
pairwise preference data: for every user and every pair of sufficiently
rated items, the signed rating difference is one ordinal comparison, zeros
dropped.  The evaluation protocol then repeatedly splits each pair's
comparisons, aggregates the training side either as a raw sum or as a sum of
signs, predicts the held-out direction from the aggregate's sign, and
compares the two aggregation schemes with a paired t-test.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import betainc

from .model import CorruptDataError

__all__ = [
    "RatingsTable",
    "PairComparisons",
    "EvaluationReport",
    "TTestResult",
    "load_ratings",
    "build_pair_comparisons",
    "ordinal_histogram",
    "evaluate_pair_protocol",
    "paired_t_test",
    "student_t_cdf",
    "synthetic_ratings",
    "save_pairs",
    "load_pairs",
]


@dataclass(frozen=True)
class RatingsTable:
    """Column-oriented ratings; one row per (user, item) after dedup."""

    users: np.ndarray
    items: np.ndarray
    ratings: np.ndarray
    timestamps: np.ndarray | None = None

    def __post_init__(self):
        n = self.users.size
        if n == 0:
            raise ValueError("ratings table is empty")
        if self.items.size != n or self.ratings.size != n:
            raise ValueError("ragged ratings columns")
        if self.timestamps is not None and self.timestamps.size != n:
            raise ValueError("ragged timestamp column")
        keys = set(zip(self.users.tolist(), self.items.tolist()))
        if len(keys) != n:
            raise ValueError("duplicate (user, item) pair after dedup")

    def __len__(self) -> int:
        return self.users.size


def _dedup_latest(rows: list[tuple[int, int, float, int]]) -> RatingsTable:
    """Keep the latest timestamp per (user, item); ties go to the later row."""
    best: dict[tuple[int, int], tuple[int, int, float, int]] = {}
    for row in rows:
        key = (row[0], row[1])
        if key not in best or row[3] >= best[key][3]:
            best[key] = row
    ordered = sorted(best.values())
    return RatingsTable(
        users=np.array([r[0] for r in ordered], dtype=np.int64),
        items=np.array([r[1] for r in ordered], dtype=np.int64),
        ratings=np.array([r[2] for r in ordered], dtype=float),
        timestamps=np.array([r[3] for r in ordered], dtype=np.int64),
    )


def load_ratings(path, format: str = "movielens-100k-tab") -> RatingsTable:
    """Parse a ratings file.

    ``movielens-100k-tab`` rows are tab-separated ``user item rating
    timestamp`` with integer 1-5 ratings.  ``generic-csv`` expects a header
    with ``user,item,rating`` and an optional ``timestamp`` column; ratings
    may be fractional.  Duplicate (user, item) entries keep the latest
    timestamp (row order breaks ties).
    """
    rows: list[tuple[int, int, float, int]] = []
    if format == "movielens-100k-tab":
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.rstrip("\n")
                if not line:
                    continue
                parts = line.split("\t")
                try:
                    user, item, rating, ts = (int(parts[0]), int(parts[1]),
                                              float(parts[2]), int(parts[3]))
                except (IndexError, ValueError) as exc:
                    raise ValueError(f"{path}: line {lineno}: malformed row "
                                     f"{line!r}") from exc
                rows.append((user, item, rating, ts))
    elif format == "generic-csv":
        with open(path, encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None:
                raise ValueError(f"{path}: empty file")
            required = {"user", "item", "rating"}
            if not required.issubset(reader.fieldnames):
                raise ValueError(f"{path}: header must contain {sorted(required)}")
            has_ts = "timestamp" in reader.fieldnames
            for lineno, rec in enumerate(reader, start=2):
                try:
                    ts = int(rec["timestamp"]) if has_ts else lineno
                    rows.append((int(rec["user"]), int(rec["item"]),
                                 float(rec["rating"]), ts))
                except (TypeError, ValueError) as exc:
                    raise ValueError(f"{path}: line {lineno}: malformed row "
                                     f"{rec!r}") from exc
    else:
        raise ValueError(f"unknown ratings format {format!r}")
    if not rows:
        raise ValueError(f"{path}: no ratings found")
    return _dedup_latest(rows)


@dataclass(frozen=True)
class PairComparisons:
    """Signed rating differences per item pair, oriented i-minus-j for
    i < j; zero differences have already been removed."""

    diffs: dict[tuple[int, int], np.ndarray]

    def __post_init__(self):
        for (i, j), d in self.diffs.items():
            if not i < j:
                raise ValueError(f"pair ({i}, {j}) not oriented i < j")
            if np.any(np.asarray(d) == 0):
                raise CorruptDataError(f"pair ({i}, {j}) holds a zero difference")

    def n_pairs(self) -> int:
        return len(self.diffs)

    def total_comparisons(self) -> int:
        return sum(d.size for d in self.diffs.values())


def build_pair_comparisons(table: RatingsTable,
                           min_ratings_per_item: int = 1) -> PairComparisons:
    """Per-user signed rating differences over all pairs of items rated at
    least ``min_ratings_per_item`` times; zero differences are dropped."""
    if min_ratings_per_item < 1:
        raise ValueError("min_ratings_per_item must be >= 1")
    items, counts = np.unique(table.items, return_counts=True)
    kept = set(items[counts >= min_ratings_per_item].tolist())
    by_user: dict[int, list[tuple[int, float]]] = {}
    for u, it, r in zip(table.users.tolist(), table.items.tolist(),
                        table.ratings.tolist()):
        if it in kept:
            by_user.setdefault(u, []).append((it, r))
    acc: dict[tuple[int, int], list[float]] = {}
    for rated in by_user.values():
        rated.sort()
        for a in range(len(rated)):
            i, ri = rated[a]
            for b in range(a + 1, len(rated)):
                j, rj = rated[b]
                d = ri - rj
                if d != 0:
                    acc.setdefault((i, j), []).append(d)
    return PairComparisons({p: np.asarray(v, dtype=float)
                            for p, v in sorted(acc.items())})


def ordinal_histogram(pairs: PairComparisons, bins=None):
    """Histogram of comparison magnitudes |difference|.

    With ``bins=None`` (the default for integer-valued ratings) the result is
    a dict magnitude -> count, with zero-count integer magnitudes kept up to
    the maximum.  With explicit edges it defers to numpy and returns
    (counts, edges).  An increase of frequency with magnitude is unusual for
    preference data and only warned about.
    """
    if pairs.n_pairs() == 0:
        raise ValueError("no comparisons to histogram")
    mags = np.abs(np.concatenate(list(pairs.diffs.values())))
    if bins is not None:
        counts, edges = np.histogram(mags, bins=bins)
        _warn_if_increasing(counts.astype(float))
        return counts, edges
    values, counts = np.unique(mags, return_counts=True)
    out: dict[float, int] = {}
    if np.all(values == np.round(values)):
        top = int(values.max())
        out = {float(k): 0 for k in range(1, top + 1)}
    for v, c in zip(values.tolist(), counts.tolist()):
        out[float(v)] = int(c)
    _warn_if_increasing(np.array([out[k] for k in sorted(out)]))
    return out


def _warn_if_increasing(counts: np.ndarray) -> None:
    if counts.size >= 2 and np.any(np.diff(counts) > 0):
        warnings.warn("magnitude histogram is not non-increasing",
                      stacklevel=3)


class TTestResult(NamedTuple):
    t: float
    p: float
    degenerate: bool = False


def paired_t_test(a, b) -> TTestResult:
    """Two-sided paired t-test of ``a`` against ``b``.

    Zero-variance differences are flagged degenerate rather than assigned a
    p-value; equal inputs report t = 0.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1 or a.size < 2:
        raise ValueError("need two equal-length sequences of at least 2")
    d = a - b
    n = d.size
    sd = float(np.std(d, ddof=1))
    mean = float(np.mean(d))
    if sd == 0.0:
        t = 0.0 if mean == 0.0 else math.copysign(math.inf, mean)
        return TTestResult(t, math.nan, degenerate=True)
    t = mean / (sd / math.sqrt(n))
    df = n - 1
    p = float(betainc(df / 2.0, 0.5, df / (df + t * t)))
    return TTestResult(t, p)


def student_t_cdf(t: float, df: int) -> float:
    """CDF of Student's t via the regularized incomplete beta function."""
    if df < 1:
        raise ValueError("df must be >= 1")
    if t == 0.0:
        return 0.5
    tail = 0.5 * float(betainc(df / 2.0, 0.5, df / (df + t * t)))
    return 1.0 - tail if t > 0 else tail


@dataclass(frozen=True)
class EvaluationReport:
    """Split-protocol accuracies: rows are repetitions, columns the eligible
    pairs (in ``pair_order``)."""

    pair_order: tuple[tuple[int, int], ...]
    pair_counts: tuple[int, ...]
    ordinal_acc: np.ndarray
    binary_acc: np.ndarray
    pairing: str
    ttest: TTestResult
    seed: int
    train_frac: float

    @property
    def mean_ordinal(self) -> float:
        return float(np.mean(self.ordinal_acc))

    @property
    def mean_binary(self) -> float:
        return float(np.mean(self.binary_acc))

    def rep_means(self) -> tuple[np.ndarray, np.ndarray]:
        return self.ordinal_acc.mean(axis=1), self.binary_acc.mean(axis=1)

    def pair_means(self) -> tuple[np.ndarray, np.ndarray]:
        return self.ordinal_acc.mean(axis=0), self.binary_acc.mean(axis=0)

    def to_dict(self) -> dict:
        rep_ord, rep_bin = self.rep_means()
        pair_ord, pair_bin = self.pair_means()
        return {
            "repetitions": int(self.ordinal_acc.shape[0]),
            "n_pairs": len(self.pair_order),
            "pairing": self.pairing,
            "seed": self.seed,
            "train_frac": self.train_frac,
            "mean_accuracy": {"ordinal": self.mean_ordinal,
                              "binary": self.mean_binary},
            "t_statistic": None if math.isnan(self.ttest.t) else self.ttest.t,
            "p_value": None if math.isnan(self.ttest.p) else self.ttest.p,
            "degenerate": self.ttest.degenerate,
            "per_repetition_accuracy": {"ordinal": rep_ord.tolist(),
                                        "binary": rep_bin.tolist()},
            "per_pair_accuracy": {"ordinal": pair_ord.tolist(),
                                  "binary": pair_bin.tolist()},
            "pairs": [list(p) for p in self.pair_order],
            "pair_counts": list(self.pair_counts),
        }


def _split_accuracy(diffs: np.ndarray, n_train: int,
                    rng: np.random.Generator) -> tuple[float, float]:
    """One random split of a pair's comparisons; returns (ordinal, binary)
    accuracy of predicting the test signs from the train aggregate's sign."""
    perm = rng.permutation(diffs.size)
    train = diffs[perm[:n_train]]
    test_signs = np.sign(diffs[perm[n_train:]])
    out = []
    for aggregate in (float(train.sum()), float(np.sign(train).sum())):
        if aggregate == 0.0:
            out.append(0.5)  # abstain: chance-level credit
        else:
            pred = 1.0 if aggregate > 0 else -1.0
            out.append(float(np.mean(test_signs == pred)))
    return out[0], out[1]


def evaluate_pair_protocol(pairs: PairComparisons, train_frac: float = 0.7,
                           repetitions: int = 100, min_pair_count: int = 10,
                           seed: int = 7, pairing: str = "repetition"
                           ) -> EvaluationReport:
    """Randomized split evaluation of sum versus sign-sum aggregation.

    Pairs with fewer than ``min_pair_count`` comparisons are skipped.  The
    closing paired t-test compares binary against ordinal accuracy; the
    pairing unit is the repetition mean by default, or per-pair means with
    ``pairing='pair'``.
    """
    if not 0.0 < train_frac < 1.0:
        raise ValueError("train_frac must lie in (0, 1)")
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    eligible = [(p, d) for p, d in sorted(pairs.diffs.items())
                if d.size >= max(min_pair_count, 2)]
    if not eligible:
        raise ValueError("no pair has enough comparisons to evaluate")
    n_pairs = len(eligible)
    ord_acc = np.empty((repetitions, n_pairs))
    bin_acc = np.empty((repetitions, n_pairs))
    for rep in range(repetitions):
        for idx, (_, diffs) in enumerate(eligible):
            rng = np.random.default_rng([seed, rep, idx])
            n_train = min(max(int(train_frac * diffs.size), 1), diffs.size - 1)
            ord_acc[rep, idx], bin_acc[rep, idx] = _split_accuracy(
                diffs, n_train, rng)
    if pairing == "repetition":
        binary, ordinal = bin_acc.mean(axis=1), ord_acc.mean(axis=1)
    elif pairing == "pair":
        binary, ordinal = bin_acc.mean(axis=0), ord_acc.mean(axis=0)
    else:
        raise ValueError("pairing must be 'repetition' or 'pair'")
    if binary.size < 2:  # a single pairing unit has no paired variance
        ttest = TTestResult(0.0, math.nan, degenerate=True)
    else:
        ttest = paired_t_test(binary, ordinal)
    return EvaluationReport(
        pair_order=tuple(p for p, _ in eligible),
        pair_counts=tuple(int(d.size) for _, d in eligible),
        ordinal_acc=ord_acc,
        binary_acc=bin_acc,
        pairing=pairing,
        ttest=ttest,
        seed=seed,
        train_frac=train_frac,
    )


def synthetic_ratings(n_items: int = 20, users_per_pair: int = 250,
                      theta_gap: float = 0.025,
                      pattern=None, seed: int = 7) -> RatingsTable:
    """Bundled stand-in for a real ratings dump, with pairwise differences
    drawn exactly from the comparison model.

    Within one user, rating differences are additive (d_ij + d_jk = d_ik),
    so independent model draws per pair can only be realized by giving each
    synthetic user exactly two rated items.  Item preferences are equally
    spaced with gap ``theta_gap``; every unordered pair gets
    ``users_per_pair`` users whose two 1-5 ratings differ by a draw from the
    identity-link model.  The default magnitude law is the minimal-SNR
    non-increasing one at K=4, the regime where binarized aggregation wins
    the most.
    """
    from .model import OrdinalModel, StrengthLink
    from .snr import minimal_snr_monotone

    if pattern is None:
        pattern = minimal_snr_monotone(4)[1]
    if pattern.K > 4:
        raise ValueError("1-5 ratings bound differences by 4")
    model = OrdinalModel(StrengthLink("identity"), pattern)
    theta = theta_gap * ((n_items - 1) / 2.0 - np.arange(n_items))
    rng = np.random.default_rng(seed)
    rows: list[tuple[int, int, float, int]] = []
    user = 0
    ts = 0
    for i in range(n_items):
        for j in range(i + 1, n_items):
            draws = model.sample(float(theta[i] - theta[j]), rng, users_per_pair)
            for y in draws.tolist():
                high = 3 + (y + (1 if y > 0 else 0)) // 2  # 3+ceil(y/2)
                low = high - y
                ts += 2
                rows.append((user, i, float(high), ts - 1))
                rows.append((user, j, float(low), ts))
                user += 1
    return _dedup_latest(rows)


def save_pairs(pairs: PairComparisons, path) -> None:
    """Compact on-disk form: pair index arrays plus one flat diff array with
    offsets (numpy .npz archive, written to ``path`` verbatim)."""
    keys = sorted(pairs.diffs)
    lengths = [pairs.diffs[k].size for k in keys]
    with open(path, "wb") as fh:  # a handle stops savez appending .npz
        np.savez(
            fh,
            item_i=np.array([k[0] for k in keys], dtype=np.int64),
            item_j=np.array([k[1] for k in keys], dtype=np.int64),
            offsets=np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64),
            diffs=(np.concatenate([pairs.diffs[k] for k in keys])
                   if keys else np.empty(0)),
        )


def load_pairs(path) -> PairComparisons:
    """Read a ``save_pairs`` archive; raises CorruptDataError unless the
    offsets partition the differences into one run per pair and no pair is
    listed twice."""
    with np.load(path) as z:
        item_i, item_j = z["item_i"], z["item_j"]
        offsets, diffs = z["offsets"], z["diffs"]
    if not (item_i.ndim == item_j.ndim == offsets.ndim == diffs.ndim == 1
            and item_i.size == item_j.size
            and all(np.issubdtype(a.dtype, np.integer)
                    for a in (item_i, item_j, offsets))):
        raise CorruptDataError(
            f"{path}: item_i, item_j and offsets must be 1-d integer arrays, "
            f"item_i and item_j of equal length")
    if (offsets.size != item_i.size + 1 or offsets[0] != 0
            or np.any(np.diff(offsets) < 0) or offsets[-1] != diffs.size):
        raise CorruptDataError(
            f"{path}: offsets must hold {item_i.size + 1} non-decreasing "
            f"entries from 0 to {diffs.size}")
    out = {}
    for a, (i, j) in enumerate(zip(item_i.tolist(), item_j.tolist())):
        out[(i, j)] = diffs[offsets[a]:offsets[a + 1]]
    if len(out) != item_i.size:
        raise CorruptDataError(f"{path}: an item pair is listed twice")
    return PairComparisons(out)
