"""Text input, ratings ingestion and the split-train-predict protocol.

Ratings files and ``rank``'s comparison CSV share one reader of typed fields:
one ``np.loadtxt`` parse of the text's bytes where it can tell, else a row
loop naming the first bad line; ``rank`` orients and checks its rows as
arrays.  Ratings become pairwise data: per user and pair of sufficiently
rated items, the signed rating difference is one ordinal comparison, zeros
dropped, ordered by one sort of a word each.  The protocol repeatedly splits
each pair's comparisons by random keys, predicts the held-out direction from
the sign of the training side's raw or sign sum, and compares the two with a
paired t-test.  Half-step differences train by each pair's threshold key from
a row sort and sum in file order; others sum in split order, by an argsort.
"""

from __future__ import annotations

import csv
import io
import math
import warnings
import zipfile
import zlib
from dataclasses import dataclass
from itertools import islice, zip_longest
from typing import NamedTuple

import numpy as np
from scipy.special import betainc

from .model import CorruptDataError, OrdinalModel, StrengthLink
from .ranking import ComparisonDataset, PreferenceVector
from .snr import minimal_snr_monotone

__all__ = [
    "RatingsTable",
    "PairComparisons",
    "EvaluationReport",
    "TTestResult",
    "load_ratings",
    "dataset_from_csv",
    "build_pair_comparisons",
    "ordinal_histogram",
    "evaluate_pair_protocol",
    "paired_t_test",
    "synthetic_ratings",
    "save_pairs",
    "load_pairs",
]

_PAIR_ARRAYS = ("item_i", "item_j", "offsets", "diffs")  # the pairs-file layout
_PAIR_BATCH = 1 << 16  # index pairs differenced, or words decoded, at once
_WORD_BITS = 64  # build_pair_comparisons' sort word: pair key, row and offset
_ROW_WIDTH = 16  # _split_accuracy's row sorts: pair sizes round up to a multiple


def _run_starts(*columns: np.ndarray) -> np.ndarray:
    """True where a row of columns sorted by their joint key starts a new key."""
    new = np.zeros(columns[0].size, dtype=bool)
    new[:1] = True
    for c in columns:
        new[1:] |= c[1:] != c[:-1]
    return new


def _increasing(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether the rows (a, b) strictly increase in (a, b) order: sorted, no key twice."""
    return bool(np.all((a[1:] > a[:-1]) | ((a[1:] == a[:-1]) & (b[1:] > b[:-1]))))


@dataclass(frozen=True)
class RatingsTable:
    """Column-oriented ratings, one row per (user, item), in that order.

    Construction sorts the rows into that order unless they already strictly
    increase in it; it refuses non-finite ratings and a repeated (user, item).
    """

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
        if not np.isfinite(self.ratings).all():
            raise ValueError("ratings must be finite")
        if _increasing(self.users, self.items):
            return  # already in order, and no (user, item) twice
        order = np.lexsort((self.items, self.users))
        for name in ("users", "items", "ratings", "timestamps"):
            if (column := getattr(self, name)) is not None:
                object.__setattr__(self, name, column[order])
        if not _run_starts(self.users, self.items).all():
            raise ValueError("duplicate (user, item) pair after dedup")

    def __len__(self) -> int:
        return self.users.size


def _dedup_latest(users, items, ratings, timestamps) -> RatingsTable:
    """Keep the latest timestamp per (user, item), in (user, item) order;
    ties go to the later row."""
    # (user, item) as one int64 key in their order, in one unstable sort: each
    # id's offset to the smallest where the product of the spans fits, else its rank
    wide = math.prod(int(ids.max()) - int(ids.min()) + 1 for ids in (users, items)) >= 2**63
    user, item = (np.unique(ids, return_inverse=True)[1] if wide else ids - ids.min()
                  for ids in (users, items))
    key = user * (int(item.max()) + 1) + item
    del user, item  # 8 bytes a row each, alive to the end otherwise
    order = np.argsort(key)
    key = key[order]
    last = np.r_[key[1:] != key[:-1], True]  # the last row of each key
    # only a repeated key's rows need the timestamp and row order
    runs = np.flatnonzero(~(last & np.r_[True, last[:-1]]))
    rows = order[runs]
    order[runs] = rows[np.lexsort((rows, timestamps[rows], key[runs]))]
    keep = order[last]
    return RatingsTable(users[keep], items[keep], ratings[keep], timestamps[keep])


# the ratings columns and their dtypes
_KINDS = {"user": "i8", "item": "i8", "rating": "f8", "timestamp": "i8"}


def _field(text, kind):
    """``kind(text)`` for a field of delimited text: int() and float() also
    read ``1_0`` and non-ASCII digits, so those are refused first."""
    if not isinstance(text, str) or "_" in text or not text.strip().isascii():
        raise ValueError(f"not an ASCII number: {text!r}")
    return kind(text)


def _lines(text: str):
    """``text``'s lines, split at LF; the first and the rest are each buffered once read."""
    yield from io.StringIO(text[:text.find("\n") + 1])
    yield from io.StringIO(text[text.find("\n") + 1:])


def _read_table(text: str, reader, header: list, kinds: dict, raw, empty: str):
    """(columns, lines, refusal): the records that ``reader``, a csv reader of
    ``_lines(text)`` for LF line ends, holds after ``header``, up to the first
    bad one, as ``kinds`` columns, with the line each record starts on.  Each
    field is read by ``_field``, an integer in int64 as written.  One
    ``np.loadtxt`` parse of the text's bytes reads the file where it reads
    what the row loop would; else the row loop reads it, the only code that
    names a bad line.  No record at all is refused as ``empty``."""
    first = reader.line_num + 1  # the line after the header
    at = sum(map(len, islice(_lines(text), reader.line_num)))  # and its offset
    # loadtxt takes \x1c to \x1f around a number for space, which int() and
    # float() refuse, and it does not unquote a field
    if not any(text.find(mark, at) >= 0 for mark in '"\x1c\x1d\x1e\x1f'):
        try:
            body = text[at:].encode()  # a lone surrogate does not encode
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # an empty file only warns
                # loadtxt refuses every field _field refuses and every row
                # of another width; it reads an unread column as no text.
                # comments=None: the row loop refuses '#' lines
                # decoded by a TextIOWrapper: loadtxt decodes UTF-8 slower
                rows = np.loadtxt(
                    io.TextIOWrapper(io.BytesIO(body), encoding="utf-8"),
                    dtype=[(h, kinds.get(h, "U0")) for h in header],
                    delimiter=reader.dialect.delimiter, comments=None, ndmin=1)
            columns = tuple(rows[name] for name in kinds)
            lines = np.arange(first, first + rows.size)
            if body.count(b"\n") + (not body.endswith(b"\n")) > rows.size:
                # loadtxt skipped blank lines: number the others
                ends = np.flatnonzero(np.frombuffer(b"\n%b\n" % body, np.uint8) == 10)
                lines = np.flatnonzero(np.diff(ends) > 1) + first
        except (ValueError, OverflowError, Warning):
            columns = ()
        if columns and columns[0].size == lines.size > 0 and all(
                np.isfinite(c).all() for c in columns if c.dtype.kind == "f"):
            return columns, lines, None
    # a record as csv.DictReader reads it: a repeated name reads its last
    # column, and a missing field None
    cols = [max(k for k, h in enumerate(header) if h == name) for name in kinds]
    types = [float if kind == "f8" else int for kind in kinds.values()]
    rows, lines, refusal, start = [], [], None, first
    try:
        for fields in reader:
            if fields:  # a blank line holds no record
                # a record wider than the header is malformed
                texts = [fields[k] if k < len(fields) <= len(header) else None
                         for k in cols]
                try:
                    values = tuple(map(_field, texts, types))
                except ValueError as exc:
                    raise ValueError(f"malformed row {raw(fields)!r}") from exc
                for name, t, v in zip(kinds, texts, values):
                    if type(v) is float and not math.isfinite(v):
                        raise ValueError(f"{name} {t!r} is not finite")
                if not all(-2**63 <= v < 2**63 for v in values if type(v) is int):
                    raise ValueError(f"an integer in {raw(fields)!r} lies outside int64")
                rows.append(values)  # a tuple: a list fills a (1, 4) array
                lines.append(start)
            start = reader.line_num + 1  # the next record's first line
    except (ValueError, csv.Error) as exc:
        refusal = ValueError(f"line {start}: {exc}")
    if not rows and refusal is None:
        refusal = ValueError(empty)
    rows = np.array(rows, dtype=list(kinds.items()))
    return tuple(rows[name] for name in kinds), np.array(lines, int), refusal


def load_ratings(path, format: str = "movielens-100k-tab") -> RatingsTable:
    """Parse a ratings file.

    ``movielens-100k-tab`` rows are exactly four tab-separated fields,
    ``user item rating timestamp``.  ``generic-csv`` expects a header with
    ``user,item,rating`` and an optional ``timestamp`` column (else the line
    number), and no row wider than it.  A rating is any finite ASCII number;
    user, item and timestamp are an optional sign and ASCII digits that fit
    in int64.  Duplicate (user, item) entries keep the latest timestamp (row
    order breaks ties).  A bad row raises ValueError naming its line.
    """
    if format not in ("movielens-100k-tab", "generic-csv"):
        raise ValueError(f"unknown ratings format {format!r}")
    tab = format == "movielens-100k-tab"
    with open(path, encoding="utf-8") as fh:
        text = fh.read()  # universal newlines give LF line ends
    reader = csv.reader(_lines(text), delimiter="\t" if tab else ",",
                        quoting=csv.QUOTE_NONE if tab else csv.QUOTE_MINIMAL)
    header = list(_KINDS) if tab else next(reader, None)
    if header is None:
        raise ValueError(f"{path}: empty file")
    if not {"user", "item", "rating"}.issubset(header):
        raise ValueError(f"{path}: header must contain ['item', 'rating', 'user']")
    kinds = {name: kind for name, kind in _KINDS.items() if name in header}
    # the row as its error names it: a tab line, or a csv.DictReader record,
    # with None for a missing field and under None an extra one
    raw = "\t".join if tab else lambda fields: dict(zip_longest(header, fields))
    columns, lines, refusal = _read_table(text, reader, header, kinds, raw,
                                          "no ratings found")
    del text, reader  # the text and any line buffer go before the dedup sorts
    if refusal is not None:
        raise ValueError(f"{path}: {refusal}") from refusal
    stamps = columns[3] if "timestamp" in kinds else lines
    return _dedup_latest(*columns[:3], stamps)


def dataset_from_csv(text: str, n: int) -> ComparisonDataset:
    """The per-pair sums of CSV rows ``i,j,l,y`` among ``n`` items, fields read
    by ``ingest``'s rule: rows oriented i < j (y changes sign) and sorted once
    by (pair, round), so that each pair's L outcomes fill one row of a (pairs,
    L) array.  Raw sums are exact Python ints, sign sums int64.  Every pair
    needs rounds 1..L, one L for all; pairs keep the order of their first row.
    The first row in the file with a fault is refused, for its first of: a
    field the reader refuses, a self-comparison, a round below 1, a zero
    outcome, a repeated round."""
    # LF line ends, as ``rank`` reads a file
    text = text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text
    kinds = dict.fromkeys("ijly", "i8")
    reader = csv.reader(_lines(text))
    if [h.strip() for h in next(reader, [])] != list(kinds):
        raise ValueError("expected CSV header 'i,j,l,y'")
    (i, j, l, y), lines, refusal = _read_table(
        text, reader, list(kinds), kinds, list, "no comparison rows found")
    flip, first, second = 1 - 2 * (i > j), np.minimum(i, j), np.maximum(i, j)
    # stable: a repeated round sorts after its first
    order = np.lexsort((l, second, first))
    first, second, l, y, flip = (a[order] for a in (first, second, l, y, flip))
    bad = np.flatnonzero((first == second) | (l < 1) | (y == 0)
                         | ~_run_starts(first, second, l))
    # the first in file order, and before the refusal, which ends the rows
    for k in bad[np.argsort(order[bad])][:1]:
        line = f"line {lines[order[k]]}:"
        if first[k] == second[k]:
            raise ValueError(f"{line} self-comparison {first[k]}")
        if l[k] < 1:
            raise ValueError(f"{line} rounds are one-based, got {l[k]}")
        if y[k] == 0:
            raise CorruptDataError(f"pair ({first[k]}, {second[k]}) contains a zero outcome")
        raise ValueError(f"{line} duplicate round {l[k]} for pair ({first[k]},{second[k]})")
    if refusal is not None:
        raise refusal
    starts = np.flatnonzero(_run_starts(first, second))
    counts = np.diff(np.r_[starts, y.size])
    if np.any(counts != counts[0]):
        raise ValueError("pairs carry unequal round counts: "
                         f"{np.unique(counts).tolist()}")
    L = int(counts[0])
    listed = np.argsort(order.reshape(-1, L).min(axis=1))  # in file order
    # L distinct rounds, all >= 1, are 1..L when the last of them is L
    for p in starts[listed[l.reshape(-1, L)[listed, -1] != L]][:1]:
        raise ValueError(f"pair {(int(first[p]), int(second[p]))} "
                         f"rounds are not 1..{L}")
    # objects for the raw sums, so that a flipped -2**63 stays exact
    return ComparisonDataset(
        n, L, first[starts[listed]], second[starts[listed]],
        (y.astype(object) * flip).reshape(-1, L).sum(axis=1)[listed],
        (np.sign(y) * flip).reshape(-1, L).sum(axis=1)[listed])


@dataclass(frozen=True)
class PairComparisons:
    """The pairs-file layout: pair p is (item_i[p], item_j[p]), i < j, with
    finite non-zero differences diffs[offsets[p]:offsets[p + 1]] (i minus j).
    Construction checks it (CorruptDataError) and sorts the pairs by (i, j),
    a step it skips when they already strictly increase in that order."""

    item_i: np.ndarray
    item_j: np.ndarray
    offsets: np.ndarray
    diffs: np.ndarray

    def __post_init__(self):
        item_i, item_j, offsets = map(np.asarray, (self.item_i, self.item_j, self.offsets))
        diffs = np.asarray(self.diffs, dtype=float)
        if not (item_i.ndim == item_j.ndim == offsets.ndim == diffs.ndim == 1
                and item_i.size == item_j.size
                and all(a.dtype.kind in "iu" for a in (item_i, item_j, offsets))):
            raise CorruptDataError(
                "item_i, item_j and offsets must be 1-d integer arrays, "
                "item_i and item_j of equal length")
        offsets = offsets.astype(np.int64, copy=False)  # np.diff wraps unsigned offsets
        lengths = np.diff(offsets)
        if (offsets.size != item_i.size + 1 or offsets[0] != 0
                or np.any(lengths < 0) or offsets[-1] != diffs.size):
            raise CorruptDataError(
                f"offsets must hold {item_i.size + 1} non-decreasing entries "
                f"from 0 to {diffs.size}")
        if np.any(item_i >= item_j) or not np.all(np.isfinite(diffs) & (diffs != 0)):
            raise CorruptDataError("pairs need i < j and finite non-zero differences")
        if _increasing(item_i, item_j):  # already in order, and no pair twice
            offsets = np.r_[0, np.cumsum(lengths)]
        else:
            order = np.lexsort((item_j, item_i))
            item_i, item_j, lengths = item_i[order], item_j[order], lengths[order]
            if not _run_starts(item_i, item_j).all():
                raise CorruptDataError("an item pair is listed twice")
            # each pair's run of differences moves with it
            offsets, starts = np.r_[0, np.cumsum(lengths)], offsets[:-1][order]
            diffs = diffs[np.arange(diffs.size)
                          + np.repeat(starts - offsets[:-1], lengths)]
        for name, a in zip(_PAIR_ARRAYS, (item_i, item_j, offsets, diffs)):
            object.__setattr__(self, name, a)

    def n_pairs(self) -> int:
        return self.item_i.size

    def total_comparisons(self) -> int:
        return self.diffs.size


def build_pair_comparisons(table: RatingsTable,
                           min_ratings_per_item: int = 1) -> PairComparisons:
    """Per-user signed rating differences over all pairs of items rated at
    least ``min_ratings_per_item`` times; zero differences are dropped, and
    each pair's differences are in user order.

    Each non-zero comparison is one uint64 word: its pair key above the kept
    row of the first item's rating, above the offset to the second's.  One
    unstable sort orders the words by (pair key, user), and each difference
    is read back from the ratings column.  n kept items, R kept rows and S
    items of the largest user need bits(n² − 1) + bits(R − 1) + bits(S − 1);
    more than 64 raises ValueError naming those sizes.
    """
    if min_ratings_per_item < 1:
        raise ValueError("min_ratings_per_item must be >= 1")
    ids, ranks, counts = np.unique(table.items, return_inverse=True,
                                   return_counts=True)
    often = counts >= min_ratings_per_item  # the kept items, ranked among themselves
    kept, ids, ranks = often[ranks], ids[often], (np.cumsum(often) - 1)[ranks]
    # the table's (user, item) row order puts the kept rows in (user, rank) order
    users, ranks, ratings = table.users[kept], ranks[kept], table.ratings[kept]
    starts = np.flatnonzero(np.r_[True, users[1:] != users[:-1]])
    sizes = np.diff(np.r_[starts, users.size])
    # a pair's key is rank_i * ids.size + rank_j, below ids.size**2 whatever the ids
    key_bits = (ids.size * ids.size - 1).bit_length()
    row_bits = max(users.size - 1, 0).bit_length()
    off_bits = max(int(sizes.max()) - 1, 0).bit_length()
    if key_bits + row_bits + off_bits > _WORD_BITS:
        raise ValueError(f"{ids.size} items and {users.size} rows, at most {sizes.max()} "
                         f"per user, need a {key_bits}-bit pair key, a {row_bits}-bit row "
                         f"and a {off_bits}-bit offset, more than {_WORD_BITS} bits")
    # word = key << low_bits | row_i << off_bits | (row_j - row_i), the sum of
    # first[row_i] and second[row_j]
    low_bits, ranks = row_bits + off_bits, ranks.astype(np.uint64)
    rows = np.arange(users.size, dtype=np.uint64)
    first = ranks * np.uint64(ids.size << low_bits) + (rows << np.uint64(off_bits)) - rows
    second = (ranks << np.uint64(low_bits)) + rows
    # one triangle for every size: a user of s items takes its first
    # s(s - 1)/2 index pairs, those with b < s
    b, a = np.tril_indices(sizes.max(), -1)
    words = np.empty(int((sizes * (sizes - 1) // 2).sum()), dtype=np.uint64)
    filled = 0  # pages past the last word written are never touched
    for s in np.unique(sizes[sizes > 1]).tolist():
        m, of_size = s * (s - 1) // 2, np.flatnonzero(sizes == s)
        step = max(1, _PAIR_BATCH // m)  # a bounded batch of users at a time
        for lo in range(0, of_size.size, step):
            base = starts[of_size[lo:lo + step], None]  # each user's first row
            ia, ib = base + a[:m], base + b[:m]
            # the difference, not equality: a non-finite one must reach
            # PairComparisons' check
            batch = (first[ia] + second[ib])[ratings[ia] - ratings[ib] != 0]
            words[filled:filled + batch.size] = batch
            filled += batch.size
    words = words[:filled]
    words.sort()  # a pair holds each row once, so no two words tie
    diffs = np.empty(filled, dtype=ratings.dtype)
    for lo in range(0, filled, _PAIR_BATCH):
        part = words[lo:lo + _PAIR_BATCH].view(np.int64) & ((1 << low_bits) - 1)
        row = part >> off_bits
        diffs[lo:lo + part.size] = ratings[row] - ratings[row + (part & ((1 << off_bits) - 1))]
    words >>= np.uint64(low_bits)  # the pair keys
    starts = np.flatnonzero(_run_starts(words))
    pair, n = words[starts], np.uint64(ids.size)
    return PairComparisons(ids[pair // n], ids[pair % n], np.r_[starts, filled], diffs)


def ordinal_histogram(pairs: PairComparisons) -> dict[float, int]:
    """Histogram of comparison magnitudes |difference|, as a dict
    magnitude -> count.  When every magnitude is an integer and the largest
    is at most the number of comparisons, the zero-count integer magnitudes
    up to it are kept; otherwise only the magnitudes that occur are listed,
    so the output never outgrows the data.  An increase of frequency with
    magnitude is unusual for preference data and only warned about.
    """
    if pairs.total_comparisons() == 0:
        raise ValueError("no comparisons to histogram")
    values, counts = np.unique(np.abs(pairs.diffs), return_counts=True)
    out: dict[float, int] = {}
    if np.all(values == np.round(values)) and values[-1] <= pairs.diffs.size:
        out = {float(k): 0 for k in range(1, int(values[-1]) + 1)}
    for v, c in zip(values.tolist(), counts.tolist()):
        out[float(v)] = int(c)
    if np.any(np.diff([out[k] for k in sorted(out)]) > 0):
        warnings.warn("magnitude histogram is not non-increasing", stacklevel=2)
    return out


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
            "t_statistic": self.ttest.t if math.isfinite(self.ttest.t) else None,
            "p_value": None if math.isnan(self.ttest.p) else self.ttest.p,
            "degenerate": self.ttest.degenerate,
            "per_repetition_accuracy": {"ordinal": rep_ord.tolist(),
                                        "binary": rep_bin.tolist()},
            "per_pair_accuracy": {"ordinal": pair_ord.tolist(),
                                  "binary": pair_bin.tolist()},
            "pairs": [list(p) for p in self.pair_order],
            "pair_counts": list(self.pair_counts),
        }


def _split_keys(seed: int, repetitions: int, size: int):
    """Per repetition, ``size`` uniform sort keys from its own spawned generator."""
    for child in np.random.SeedSequence(seed).spawn(repetitions):
        yield np.random.default_rng(child).random(size)


def _split_accuracy(diffs: np.ndarray, offsets: np.ndarray,
                    n_train: np.ndarray, key_sets):
    """Per array of split keys (one per comparison, in [0, 1)), rows (ordinal,
    binary) of accuracies: segment ``offsets[p]:offsets[p + 1]`` trains on its
    first ``n_train[p]`` comparisons in ``np.lexsort((keys, pair_id))`` order
    and predicts held-out signs from the sign of its raw or sign sum.  Raw
    sums of multiples of 1/2 whose magnitudes sum below 2**52 are exact in any
    order: a mask trains on keys up to each pair's ``n_train[p]``-th smallest,
    from row sorts.  Others add in split order, by an argsort of ``pair +
    key``.  The lexsort runs only where such a key ties the next, or two sums tie."""
    starts, sizes = offsets[:-1], np.diff(offsets)
    pair_id = np.repeat(np.arange(sizes.size), sizes)
    train = np.arange(diffs.size) < np.repeat(starts + n_train, sizes)
    n_test, total_pos = sizes - n_train, np.add.reduceat(diffs > 0, starts)
    exact = np.abs(diffs).sum() < 2.0**52 and np.array_equal(np.trunc(2 * diffs), 2 * diffs)
    classes, (threshold, above) = [], np.empty((2, sizes.size))
    widths = -(-sizes // _ROW_WIDTH) * _ROW_WIDTH
    for width in np.unique(widths) if exact else ():
        # a block row per pair of this width: its comparisons, then cells set to +inf
        rows = np.flatnonzero(widths == width)
        cells = np.minimum(starts[rows, None] + np.arange(width), diffs.size - 1)
        pad = np.flatnonzero(np.arange(width) >= sizes[rows, None])
        classes.append((rows, cells, pad, np.arange(rows.size) * width + n_train[rows] - 1))
    for keys in key_sets:  # only the raw sums and the train positives change
        if exact:  # each pair's n_train-th smallest key and the next, by row sorts
            for rows, cells, pad, last in classes:
                np.put(block := keys[cells], pad, np.inf)
                block.sort(axis=1)
                threshold[rows], above[rows] = block.ravel()[last], block.ravel()[last + 1]
            order, tied = None, np.any(above == threshold)
        else:
            order = np.argsort(composite := pair_id + keys)
            ranked = composite[order]
            tied = np.any(ranked[1:] == ranked[:-1])
        if tied:
            order = np.lexsort((keys, pair_id))
        if order is None:
            values, chosen = diffs, keys <= np.repeat(threshold, sizes)
        else:
            values, chosen = diffs[order], train
        train_pos = np.add.reduceat(chosen & (values > 0), starts)
        # differences are never 0, so the sign sum is 2 * train_pos - n_train;
        # a held-out difference times False adds a zero of either sign, which
        # can change only the sign of a zero raw sum, never its comparisons
        aggregate = np.array([np.add.reduceat(chosen * values, starts),
                              2 * train_pos - n_train])
        test_pos = total_pos - train_pos
        correct = np.where(aggregate > 0, test_pos, n_test - test_pos)
        # a zero aggregate abstains: chance-level credit
        yield np.where(aggregate == 0.0, 0.5, correct / n_test)


def evaluate_pair_protocol(pairs: PairComparisons, train_frac: float = 0.7,
                           repetitions: int = 100, min_pair_count: int = 10,
                           seed: int = 7, pairing: str = "repetition"
                           ) -> EvaluationReport:
    """Randomized split evaluation of sum versus sign-sum aggregation.

    Pairs with fewer than ``min_pair_count`` comparisons are skipped; each
    repetition splits all others with one generator spawned from ``seed`` (at
    least 0).  It draws one uniform key per comparison; the ``train_frac``
    share of each pair's comparisons with the smallest keys, ties to the
    earlier position, at least one and at most all but one, train
    (``_split_accuracy``).  The closing paired t-test compares binary against
    ordinal accuracy; the pairing unit is the repetition mean by default, or
    per-pair means with ``pairing='pair'``.
    """
    if not 0.0 < train_frac < 1.0:
        raise ValueError("train_frac must lie in (0, 1)")
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    if pairing not in ("repetition", "pair"):
        raise ValueError("pairing must be 'repetition' or 'pair'")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    counts = np.diff(pairs.offsets)
    eligible = counts >= max(min_pair_count, 2)
    if not eligible.any():
        raise ValueError("no pair has enough comparisons to evaluate")
    sizes = counts[eligible]
    diffs = pairs.diffs[np.repeat(eligible, counts)]
    offsets = np.r_[0, np.cumsum(sizes)]
    n_train = np.clip((train_frac * sizes).astype(np.int64), 1, sizes - 1)
    keys = _split_keys(seed, repetitions, diffs.size)
    ord_acc, bin_acc = acc = np.empty((2, repetitions, sizes.size))
    for rep, row in enumerate(_split_accuracy(diffs, offsets, n_train, keys)):
        acc[:, rep] = row
    axis = 1 if pairing == "repetition" else 0
    binary, ordinal = bin_acc.mean(axis=axis), ord_acc.mean(axis=axis)
    if binary.size < 2:  # a single pairing unit has no paired variance
        ttest = TTestResult(0.0, math.nan, degenerate=True)
    else:
        ttest = paired_t_test(binary, ordinal)
    return EvaluationReport(
        pair_order=tuple(zip(pairs.item_i[eligible].tolist(),
                             pairs.item_j[eligible].tolist())),
        pair_counts=tuple(sizes.tolist()),
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
    spaced with non-zero gap ``theta_gap``; every unordered pair gets
    ``users_per_pair`` users whose two 1-5 ratings differ by a draw from the
    identity-link model.  The default magnitude law is the minimal-SNR
    non-increasing one at K=4, the regime where binarized aggregation wins
    the most.
    """
    if pattern is None:
        pattern = minimal_snr_monotone(4)[1]
    if pattern.K > 4:
        raise ValueError("1-5 ratings bound differences by 4")
    model = OrdinalModel(StrengthLink("identity"), pattern)
    theta = PreferenceVector(tuple(theta_gap * ((n_items - 1) / 2.0 - np.arange(n_items))))
    first, second, gaps = theta.pairs()
    rng = np.random.default_rng(seed)
    y = np.concatenate([model.sample(gap, rng, users_per_pair) for gap in gaps.tolist()])
    high = 3 + (y + (y > 0)) // 2  # 3 + ceil(y / 2)
    # user u rates the higher item in row 2u and the lower one in row 2u + 1
    return RatingsTable(
        users=np.repeat(np.arange(y.size), 2),
        items=np.column_stack([np.repeat(first, users_per_pair),
                               np.repeat(second, users_per_pair)]).ravel(),
        ratings=np.column_stack([high, high - y]).ravel().astype(float),
        timestamps=np.arange(1, 2 * y.size + 1),
    )


def save_pairs(pairs: PairComparisons, path) -> None:
    """Write the four pair arrays as a numpy .npz archive to ``path`` verbatim."""
    with open(path, "wb") as fh:  # a handle stops savez appending .npz
        np.savez(fh, **{name: getattr(pairs, name) for name in _PAIR_ARRAYS})


def load_pairs(path) -> PairComparisons:
    """Read a ``save_pairs`` archive, its pairs in any order.  Any other file
    raises CorruptDataError naming ``path``; one that cannot be opened, OSError."""
    try:
        z = np.load(path)
        if isinstance(z, np.ndarray):  # a .npy file holds one bare array
            raise CorruptDataError("one array")
        with z:
            if missing := [name for name in _PAIR_ARRAYS if name not in z.files]:
                raise CorruptDataError(f"no {missing[0]} array")
            arrays = {name: z[name] for name in _PAIR_ARRAYS}
    except (ValueError, EOFError, zipfile.BadZipFile, zlib.error) as exc:
        # text, pickled or object data, an empty file, a broken zip or member
        fault = exc if isinstance(exc, CorruptDataError) else "unreadable as numpy data"
        raise CorruptDataError(f"{path}: {fault}, not a save_pairs archive") from None
    try:
        return PairComparisons(**arrays)
    except ValueError as exc:  # a layout fault, or an archive member of raw bytes
        raise CorruptDataError(f"{path}: {exc}") from None
