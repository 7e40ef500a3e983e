"""Text input, ratings ingestion and the split-train-predict protocol.

Ratings files and ``rank``'s comparison CSV share one reader of typed fields:
one ``np.loadtxt`` parse; past a record it refuses, halving finds the longest
prefix it reads and a re-read of that record names its fault.  ``rank`` checks
its rows as arrays.  Ratings become pairwise data: per user and pair of sufficiently
rated items, the signed rating difference is one ordinal comparison, zeros
dropped, ordered by one sort of a word each (pair key, user rank, the pair
of rating levels) and decoded from the levels.  The protocol repeatedly splits
each pair's comparisons by random keys, predicts the held-out direction from
the sign of the training side's raw or sign sum, and compares the two with a
paired t-test.  Half-step differences train by each pair's threshold key from
a row sort and sum as packed int64 codes while 2·Σ|d| < 2**min(53, 63 - bits
of the largest pair size); others sum in split order, by an argsort.
"""

from __future__ import annotations

import csv
import io
import math
import re
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
_WORD_BITS = 64  # build_pair_comparisons' sort word: pair key, user rank, level pair
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
    bad one, as ``kinds`` columns, with the line each record starts on.  One
    ``np.loadtxt`` parse reads them; past a record it refuses, halving finds
    the longest prefix it reads, and ``_field`` names the next one's fault.  No
    record at all is refused as ``empty``."""
    first = reader.line_num + 1  # the line after the header
    at = sum(map(len, islice(_lines(text), reader.line_num)))  # and its offset
    body = text[at:].encode("utf-8", "surrogatepass")
    # loadtxt reads \x1c to \x1f as space and may read a non-ASCII character
    # as a digit, where int() and float() refuse both: a run of them that is
    # not all other space reads as '_'s
    parsed = body
    if not body.isascii() or any(mark in body for mark in (b"\x1c", b"\x1d", b"\x1e", b"\x1f")):
        parsed = re.sub(rb"[\x1c-\x1f\x80-\xff]+", lambda run: run[0] if min(run[0]) > 31 and (
            run[0].decode("utf-8", "surrogatepass").isspace()) else b"_" * len(run[0]), body)
    # a repeated name reads its last column, and an unread one reads as no text
    cols = {name: max(k for k, h in enumerate(header) if h == name) for name in kinds}
    types = [kinds[h] if cols.get(h) == k else "U0" for k, h in enumerate(header)]
    need = max(cols.values()) + 1  # a record may leave out the unread columns after these
    usecols = None  # every column, and no more

    def parse(begin, end):  # the columns of the records in parsed[begin:end], or None
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # no record at all only warns
                # comments=None: _field refuses '#' lines; decoded by a
                # TextIOWrapper: loadtxt decodes UTF-8 slower
                rows = np.loadtxt(
                    io.TextIOWrapper(io.BytesIO(parsed[begin:end]), encoding="utf-8"),
                    dtype=",".join(types[:need] if usecols else types), usecols=usecols,
                    delimiter=reader.dialect.delimiter, comments=None,
                    quotechar=reader.dialect.quotechar, ndmin=1)
        except (ValueError, OverflowError):
            return None
        columns = tuple(rows[f"f{cols[name]}"] for name in kinds)
        if all(np.isfinite(c).all() for c in columns if c.dtype.kind == "f"):
            return columns

    columns = parse(0, len(body))
    if columns and columns[0].size == body.count(b"\n") + (not body.endswith(b"\n")):
        return columns, np.arange(first, first + columns[0].size), None
    # the records are the lines that are not blank where loadtxt reads as many;
    # else (a quote holds a line break, a record leaves out unread columns, or
    # loadtxt refuses one) they are the csv reader's, up to one it refuses or
    # finds wider than the header, and loadtxt reads them up to column need
    ends = np.flatnonzero(np.frombuffer(b"\n%b\n" % body, np.uint8) == 10)
    lines = np.flatnonzero(np.diff(ends) > 1) + first
    if not (columns and columns[0].size == lines.size):
        lines, start, usecols = [], first, range(need)
        try:
            for fields in reader:
                if len(fields) > len(header):
                    raise csv.Error  # it ends the records as csv's own refusals do
                if fields:  # a blank line holds no record
                    lines.append(start)
                start = reader.line_num + 1  # the next record's first line
            columns = columns or parse(0, len(body))
        except csv.Error:
            lines.append(start)
        lines = np.array(lines, int)
    if columns and columns[0].size == lines.size:
        return columns, lines, None if lines.size else ValueError(empty)
    starts = np.r_[ends[lines - first], len(body)]
    # loadtxt reads the records before lo, as the pieces in read, but not those before hi
    lo, hi, read = 0, lines.size, [parse(0, 0)]
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if (got := parse(starts[lo], starts[mid])) and got[0].size == mid - lo:
            lo = mid
            read.append(got)
        else:
            hi = mid
    columns = tuple(map(np.concatenate, zip(*read)))
    try:  # the record it refuses, as csv.DictReader reads it: a missing field
        # None, and all None where it is wider than the header
        fields = next(csv.reader(io.StringIO(body[starts[lo]:starts[hi]].decode(
            "utf-8", "surrogatepass")), reader.dialect))
        texts = [fields[k] if k < len(fields) <= len(header) else None for k in cols.values()]
        values = [_field(t, float if kinds[name] == "f8" else int)
                  for name, t in zip(kinds, texts)]
        fault = next((f"{name} {t!r} is not finite" for name, t, v in zip(kinds, texts, values)
                      if type(v) is float and not math.isfinite(v)),
                     f"an integer in {raw(fields)!r} lies outside int64")
    except csv.Error as exc:
        fault = exc
    except ValueError:
        fault = f"malformed row {raw(fields)!r}"
    return columns, lines[:lo], ValueError(f"line {lines[lo]}: {fault}")


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
    reader = csv.reader(_lines(text), delimiter="\t", quotechar=None,
                        quoting=csv.QUOTE_NONE) if tab else csv.reader(_lines(text))
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
        if np.any(item_i >= item_j) or not (np.isfinite(diffs).all() and diffs.all()):
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

    Each non-zero comparison is one word: its pair key above the user's rank
    among the kept users, above ``level_i * V + level_j``, the levels of its
    ratings among the V distinct kept ``values``.  One unstable sort orders
    the words by (pair key, user); each difference is ``values[level_i] -
    values[level_j]``, from a V×V table where V² is at most the comparisons.
    n items and U users kept need bits(n² − 1) + bits(U − 1) + bits(V² − 1):
    up to 32 sort as uint32, up to 64 as uint64, more raise ValueError.
    """
    if min_ratings_per_item < 1:
        raise ValueError("min_ratings_per_item must be >= 1")
    ids, ranks, counts = np.unique(table.items, return_inverse=True,
                                   return_counts=True)
    often = counts >= min_ratings_per_item  # the kept items, ranked among themselves
    kept, ids, ranks = often[ranks], ids[often], (np.cumsum(often) - 1)[ranks]
    # the table's (user, item) row order puts the kept rows in (user, rank) order
    users, ranks = table.users[kept], ranks[kept]
    # ratings are finite, so r_i - r_j is 0 just where the levels match (-0.0 is 0.0's)
    values, levels = np.unique(table.ratings[kept], return_inverse=True)
    starts = np.flatnonzero(np.r_[True, users[1:] != users[:-1]])
    sizes = np.diff(np.r_[starts, users.size])
    # a pair's key is rank_i * ids.size + rank_j, below ids.size**2 whatever the ids
    n, v = ids.size, values.size
    key_bits, user_bits = (n * n - 1).bit_length(), (starts.size - 1).bit_length()
    code_bits = max(v * v - 1, 0).bit_length()
    if key_bits + user_bits + code_bits > _WORD_BITS:
        raise ValueError(f"{n} items, {starts.size} users and {v} distinct ratings need a "
                         f"{key_bits}-bit pair key, a {user_bits}-bit user rank and a "
                         f"{code_bits}-bit rating pair, more than {_WORD_BITS} bits")
    # word = key << low_bits | user << code_bits | level_i * v + level_j, the sum
    # of first[row_i] and second[row_j]
    low_bits = user_bits + code_bits
    word = np.uint32 if key_bits + low_bits <= 32 else np.uint64
    ranks, level = ranks.astype(word), levels.astype(word)
    user = np.repeat(np.arange(starts.size, dtype=word), sizes)  # each row's user rank
    first = (ranks * word(n) << word(low_bits)) + (user << word(code_bits)) + level * word(v)
    second = (ranks << word(low_bits)) + level
    # one triangle for every size: a user of s items takes its first
    # s(s - 1)/2 index pairs, those with b < s
    b, a = np.tril_indices(sizes.max(), -1)
    words = np.empty(int((sizes * (sizes - 1) // 2).sum()), dtype=word)
    filled = 0  # pages past the last word written are never touched
    for s in np.unique(sizes[sizes > 1]).tolist():
        m, of_size = s * (s - 1) // 2, np.flatnonzero(sizes == s)
        step = max(1, _PAIR_BATCH // m)  # a bounded batch of users at a time
        for lo in range(0, of_size.size, step):
            base = starts[of_size[lo:lo + step], None]  # each user's first row
            ia, ib = base + a[:m], base + b[:m]
            batch = (first[ia] + second[ib])[levels[ia] != levels[ib]]
            words[filled:filled + batch.size] = batch
            filled += batch.size
    words = words[:filled]
    del users, ranks, levels, level, user, first, second, a, b  # the decode reuses their pages
    words.sort()  # a user rates an item once, so no two words tie
    # the difference table where it is no larger than the output, else the code's quotient
    # and remainder by v
    steps = np.subtract.outer(values, values).ravel() if v * v <= filled else None
    diffs = np.empty(filled, dtype=values.dtype)
    for lo in range(0, filled, _PAIR_BATCH):
        # intp: numpy converts a uint32 index on every gather
        code = words[lo:lo + _PAIR_BATCH].astype(np.intp) & ((1 << code_bits) - 1)
        diffs[lo:lo + code.size] = (values[code // v] - values[code % v] if steps is None
                                    else steps[code])
    words >>= word(low_bits)  # the pair keys
    # the pair keys' run starts through one bool temporary, and none without a word
    starts = np.r_[0, np.flatnonzero(words[1:] != words[:-1]) + 1][:filled]
    pair, n = words[starts], word(n)
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
    and predicts held-out signs from the sign of its raw or sign sum.  Half
    steps with 2·Σ|d| < 2**min(53, 63 - shift), shift the largest size's bit
    length, train by a mask from row sorts and sum ``2d << shift | (d > 0)`` in
    int64.  Others add as floats in split order, by an argsort of ``pair +
    key``.  The lexsort runs only where such a key ties the next, or two sums tie."""
    starts, sizes = offsets[:-1], np.diff(offsets)
    n_test, total_pos = sizes - n_train, np.add.reduceat(diffs > 0, starts)
    shift = int(sizes.max()).bit_length()  # a pair's train positives stay below 2**shift
    twice = 2 * diffs  # the check and the codes read one array, not kept past them
    exact = (np.abs(twice).sum() < 2.0 ** min(53, 63 - shift)
             and np.array_equal(np.trunc(twice), twice))
    code = twice.astype(np.int64) << shift | (diffs > 0) if exact else None
    del twice
    classes, (threshold, above) = [], np.empty((2, sizes.size))
    widths = -(-sizes // _ROW_WIDTH) * _ROW_WIDTH
    for width in np.unique(widths) if exact else ():
        # a block row per pair of this width: its comparisons, then cells set to +inf
        rows = np.flatnonzero(widths == width)
        cells = np.minimum(starts[rows, None] + np.arange(width), diffs.size - 1)
        pad = np.flatnonzero(np.arange(width) >= sizes[rows, None])
        classes.append((rows, cells, pad, np.arange(rows.size) * width + n_train[rows] - 1))
    pair_id = None  # with train, built by the first repetition that orders
    for keys in key_sets:  # only the raw sums and the train positives change
        if exact:  # each pair's n_train-th smallest key and the next, by row sorts
            for rows, cells, pad, last in classes:
                np.put(block := keys[cells], pad, np.inf)
                block.sort(axis=1)
                threshold[rows], above[rows] = block.ravel()[last], block.ravel()[last + 1]
            tied = np.any(above == threshold)
        if exact and not tied:
            packed = np.add.reduceat((keys <= np.repeat(threshold, sizes)) * code, starts)
            # twice the raw sum, whose sign and zeros the rule reads; >> keeps the sign
            raw, train_pos = packed >> shift, packed & ((1 << shift) - 1)
        else:
            if pair_id is None:
                pair_id = np.repeat(np.arange(sizes.size), sizes)
                train = np.arange(diffs.size) < np.repeat(starts + n_train, sizes)
            if not exact:  # split order, unless two sums tie
                order = np.argsort(composite := pair_id + keys)
            if exact or np.any((ranked := composite[order])[1:] == ranked[:-1]):
                order = np.lexsort((keys, pair_id))
            values = diffs[order]
            train_pos = np.add.reduceat(train & (values > 0), starts)
            # a held-out difference times False adds a zero of either sign,
            # which can change only the sign of a zero raw sum
            raw = np.add.reduceat(train * values, starts)
        # differences are never 0, so the sign sum is 2 * train_pos - n_train
        aggregate = np.array([raw, 2 * train_pos - n_train])
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
