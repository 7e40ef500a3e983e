"""Tests for ratings ingestion, pairwise differencing, the split-evaluation
protocol, and the paired t-test."""

import csv
import dataclasses
import io
import math
import re
import tracemalloc
import warnings
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ordrank import data as data_mod
from ordrank.data import (
    PairComparisons,
    RatingsTable,
    build_pair_comparisons,
    dataset_from_csv,
    evaluate_pair_protocol,
    load_pairs,
    load_ratings,
    ordinal_histogram,
    paired_t_test,
    save_pairs,
    synthetic_ratings,
    _ROW_WIDTH,
    _dedup_latest,
    _field,
    _split_accuracy,
    _split_keys,
)
from ordrank.model import CorruptDataError, PatternDistribution
from ordrank.ranking import ComparisonDataset


def make_pairs(runs: dict) -> PairComparisons:
    """PairComparisons from {(i, j): differences}, pairs in dict order."""
    keys = list(runs)
    return PairComparisons(
        item_i=np.array([k[0] for k in keys], dtype=np.int64),
        item_j=np.array([k[1] for k in keys], dtype=np.int64),
        offsets=np.cumsum([0] + [len(runs[k]) for k in keys]),
        diffs=np.concatenate([np.asarray(runs[k], dtype=float) for k in keys]
                             + [np.empty(0)]))


def as_dict(pairs: PairComparisons) -> dict:
    """{(i, j): differences} of a PairComparisons."""
    bounds = zip(pairs.offsets[:-1].tolist(), pairs.offsets[1:].tolist())
    return {(i, j): pairs.diffs[a:b] for i, j, (a, b) in
            zip(pairs.item_i.tolist(), pairs.item_j.tolist(), bounds)}


def reference_pairs(rows, min_ratings: int):
    """Pair arrays from (user, item, rating, timestamp) rows by the plain
    loops: the latest row per (user, item), later rows winning ties, then
    every user's sorted items differenced pair by pair."""
    best = {}
    for row in rows:
        key = (row[0], row[1])
        if key not in best or row[3] >= best[key][3]:
            best[key] = row
    table = sorted(best.values())
    counts = Counter(r[1] for r in table)
    by_user: dict[int, list] = {}
    for u, it, r, _ in table:
        if counts[it] >= min_ratings:
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
    keys = sorted(acc)
    return (np.array([k[0] for k in keys], dtype=np.int64),
            np.array([k[1] for k in keys], dtype=np.int64),
            np.cumsum([0] + [len(acc[k]) for k in keys]),
            np.array([d for k in keys for d in acc[k]], dtype=float))


def per_user_pairs(table: RatingsTable, min_ratings: int):
    """Pair arrays of ``build_pair_comparisons`` by one ``np.triu_indices``
    per user, each user's non-zero differences appended in user order."""
    ids, ranks, counts = np.unique(table.items, return_inverse=True,
                                   return_counts=True)
    kept = counts[ranks] >= min_ratings
    users, ranks, ratings = table.users[kept], ranks[kept], table.ratings[kept]
    order = np.lexsort((ranks, users))
    users, ranks, ratings = users[order], ranks[order], ratings[order]
    starts = np.flatnonzero(np.r_[True, users[1:] != users[:-1]])
    blocks = [(ranks[:0], ratings[:0])]
    for lo, hi in zip(starts.tolist(), np.r_[starts[1:], users.size].tolist()):
        a, b = np.triu_indices(hi - lo, 1)
        d = ratings[lo + a] - ratings[lo + b]
        nz = d != 0
        blocks.append((ranks[lo + a[nz]] * ids.size + ranks[lo + b[nz]], d[nz]))
    keys, diffs = (np.concatenate(c) for c in zip(*blocks))
    order = np.argsort(keys, kind="stable")
    keys, diffs = keys[order], diffs[order]
    starts = np.flatnonzero(np.diff(keys, prepend=-1))
    pair = keys[starts]
    return (ids[pair // ids.size], ids[pair % ids.size],
            np.r_[starts, keys.size], diffs)


def split_accuracy_loop(diffs: np.ndarray, n_train: int) -> tuple[float, float]:
    """One pair's split scored directly: the first ``n_train`` comparisons
    train, the rest are held out."""
    train, test_signs = diffs[:n_train], np.sign(diffs[n_train:])
    out = []
    for aggregate in (float(train.sum()), float(np.sign(train).sum())):
        if aggregate == 0.0:
            out.append(0.5)
        else:
            pred = 1.0 if aggregate > 0 else -1.0
            out.append(float(np.mean(test_signs == pred)))
    return out[0], out[1]


# the one-split form of ``_split_accuracy``, kept verbatim as its reference
def split_accuracy_reference(diffs: np.ndarray, offsets: np.ndarray,
                             n_train: np.ndarray) -> np.ndarray:
    """Rows (ordinal, binary) of per-pair accuracies of one split: segment
    ``diffs[offsets[p]:offsets[p + 1]]`` trains on its first ``n_train[p]``
    comparisons and predicts the held-out signs from the sign of the raw
    sum or the sign sum."""
    starts, sizes = offsets[:-1], np.diff(offsets)
    train = np.arange(diffs.size) < np.repeat(starts + n_train, sizes)
    n_test = sizes - n_train
    test_pos = np.add.reduceat(~train & (diffs > 0), starts)
    aggregate = np.add.reduceat(np.where(train, [diffs, np.sign(diffs)], 0.0),
                                starts, axis=1)
    correct = np.where(aggregate > 0, test_pos, n_test - test_pos)
    # a zero aggregate abstains: chance-level credit
    return np.where(aggregate == 0.0, 0.5, correct / n_test)


def split_once(diffs, offsets, n_train) -> np.ndarray:
    """``_split_accuracy`` of ``diffs`` in the order given: the keys increase
    within each pair, so the split order is the file order."""
    return next(_split_accuracy(diffs, offsets, n_train, [np.arange(diffs.size) / diffs.size]))


# The readers as they were before the one shared reader, verbatim but for
# the names, kept as references: ``reference_read_rows`` is the row loop of
# both ratings formats (``csv.DictReader`` for ``generic-csv``), and
# ``reference_dataset_from_csv`` the ``rank`` reader with its per-pair dict.
def reference_read_rows(path, format: str):
    """The user, item, rating and timestamp columns of a ratings file, read
    row by row; a bad row raises ValueError naming its line."""
    users, items, ratings, stamps = [], [], [], []

    def add(lineno: int, fields, raw) -> None:
        try:
            u, i, r, t = fields  # a tab row has exactly four fields
            user, item, rating, ts = (_field(u, int), _field(i, int),
                                      _field(r, float), _field(t, int))
        except ValueError as exc:
            raise ValueError(f"{path}: line {lineno}: malformed row "
                             f"{raw!r}") from exc
        if not math.isfinite(rating):
            raise ValueError(f"{path}: line {lineno}: rating {r!r} "
                             f"is not finite")
        # chained compares: a min()/max() pair costs about 5x more per row
        if not (-2**63 <= user < 2**63 and -2**63 <= item < 2**63
                and -2**63 <= ts < 2**63):
            raise ValueError(f"{path}: line {lineno}: an integer in {raw!r} "
                             f"lies outside int64")
        users.append(user)
        items.append(item)
        ratings.append(rating)
        stamps.append(ts)

    if format == "movielens-100k-tab":
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                if line := line.rstrip("\n"):
                    add(lineno, line.split("\t"), line)
    else:
        with open(path, encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None:
                raise ValueError(f"{path}: empty file")
            required = {"user", "item", "rating"}
            if not required.issubset(reader.fieldnames):
                raise ValueError(f"{path}: header must contain {sorted(required)}")
            for lineno, rec in enumerate(reader, start=2):
                add(lineno, (rec["user"], rec["item"], rec["rating"],
                             rec.get("timestamp", str(lineno))), rec)
    if not users:
        raise ValueError(f"{path}: no ratings found")
    return (np.array(users, dtype=np.int64), np.array(items, dtype=np.int64),
            np.array(ratings, dtype=float), np.array(stamps, dtype=np.int64))


def reference_dataset_from_csv(text: str, n: int) -> ComparisonDataset:
    """The per-pair sums of CSV rows ``i,j,l,y`` among ``n`` items, each field
    read by ``ingest``'s rule; raw sums are exact Python ints."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header is None or [h.strip() for h in header] != ["i", "j", "l", "y"]:
        raise ValueError("expected CSV header 'i,j,l,y'")
    per_pair: dict[tuple[int, int], list] = {}  # raw sum, sign sum, rounds seen
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        try:
            i, j, l, y = (_field(v, int) for v in row)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"line {lineno}: malformed row {row!r}") from exc
        if not -2**63 <= min(i, j, l, y) <= max(i, j, l, y) < 2**63:
            raise ValueError(f"line {lineno}: an integer in {row!r} lies outside int64")
        if i == j:
            raise ValueError(f"line {lineno}: self-comparison {i}")
        if l < 1:
            raise ValueError(f"line {lineno}: rounds are one-based, got {l}")
        if i > j:
            i, j, y = j, i, -y
        if y == 0:
            raise CorruptDataError(f"pair ({i}, {j}) contains a zero outcome")
        sums = per_pair.setdefault((i, j), [0, 0, set()])
        if l in sums[2]:
            raise ValueError(f"line {lineno}: duplicate round {l} for pair ({i},{j})")
        sums[0] += y
        sums[1] += 1 if y > 0 else -1
        sums[2].add(l)
    if not per_pair:
        raise ValueError("no comparison rows found")
    counts = {len(r) for _, _, r in per_pair.values()}
    if len(counts) != 1:
        raise ValueError(f"pairs carry unequal round counts: {sorted(counts)}")
    L = counts.pop()
    for pair, (_, _, rounds) in per_pair.items():
        if max(rounds) != L:  # L distinct rounds, all >= 1, are 1..L when none exceeds L
            raise ValueError(f"pair {pair} rounds are not 1..{L}")
    first, second = np.array(list(per_pair), dtype=np.int64).T
    raw, sign, _ = zip(*per_pair.values())
    return ComparisonDataset(n, L, first, second, np.array(raw, dtype=object), np.array(sign))


def outcome(call):
    """``call()``'s result, or the type and message of the exception it raises."""
    try:
        return call()
    except Exception as exc:  # noqa: BLE001 -- any refusal is compared
        return type(exc), str(exc)


def both_paths(call):
    """``call()`` as read (the array parse where it can tell), then with
    ``np.loadtxt`` refusing everything, so that the row loop reads it all."""
    first = outcome(call)
    with mock.patch.object(np, "loadtxt", side_effect=ValueError("row loop only")):
        return first, outcome(call)


def assert_same_table(got, want):
    for name in ("users", "items", "ratings", "timestamps"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)


def record_lines(text: str, blank: bool) -> list:
    """The physical line each csv record of ``text`` starts on, blank records
    included or not: where the references count records, the line they name."""
    reader, lines, start = csv.reader(io.StringIO(text, newline="")), [], 1
    for fields in reader:
        if fields or blank:
            lines.append((start, fields))
        start = reader.line_num + 1
    return lines


def renumber(message: str, lines: list) -> str:
    """``message`` with the record number after ``line`` made a physical line."""
    return re.sub(r"line (\d+):", lambda m: f"line {lines[int(m[1]) - 1][0]}:", message, count=1)


# a tab ratings file from tokens: rows of four well-formed fields, plus at
# most one line from tokens that int(), float() or loadtxt read differently
INT_FIELD = st.one_of(st.integers(-3, 3), st.integers(-2**63, 2**63 - 1)).map(str)
RATING_FIELD = st.one_of(st.sampled_from(["1", "2.5", "-0.5", "3.", ".5", "1e3", "+4"]),
                         st.floats(allow_nan=False, allow_infinity=False).map(repr))
PAD = st.sampled_from(["", "", " ", "\xa0"])
TAB_ROW = st.tuples(PAD, INT_FIELD, INT_FIELD, RATING_FIELD, INT_FIELD, PAD).map(
    lambda r: r[0] + "\t".join(r[1:5]) + r[5])
TOKENS = ["0", "7", "-3", "+", "-", "_", "1_0", "\u0661", "\u0663", "\uff15",
          "2.5", "1e3", "nan", "inf", "-inf", "NaN", " ", "\xa0", "\x0b", "#",
          "\ufeff", "9" * 20, "9" * 400, "\x0c", "\x1c", "\x85", "\u2028",
          "\udcff"]  # \udcff writes the byte 0xff
ODD_FIELD = st.lists(st.sampled_from(TOKENS), max_size=3).map("".join)
ODD_LINE = st.one_of(
    st.lists(ODD_FIELD, min_size=1, max_size=6).map("\t".join),
    st.tuples(INT_FIELD, INT_FIELD, ODD_FIELD, INT_FIELD).map("\t".join),
    st.tuples(INT_FIELD, ODD_FIELD, RATING_FIELD, INT_FIELD).map("\t".join),
    st.sampled_from(["", " ", "\t", "#1\t2\t3\t4", "1\t2\t3\t4\t"]))
LINE_END = st.sampled_from(["\n", "\n", "\r\n", "\r", ""])


def restyle(draw, rows: list) -> None:
    """Write up to two fields of ``rows`` as a file may: padded, quoted,
    misread by int() and float() (``1_0``, a non-ASCII digit), or with a
    lone surrogate, which a file writes as a byte that is not UTF-8."""
    for _ in range(draw(st.sampled_from([0, 0, 1, 2])) if rows else 0):
        row = draw(st.sampled_from(rows))
        k = draw(st.integers(0, len(row) - 1))
        text = row[k]
        row[k] = draw(st.sampled_from([f" {text} ", "\xa0" + text, f'"{text}"',
                                       text[:1] + "_" + text[1:], text[:-1] + "\u0663",
                                       text + "\udcff"]))


def lines_to_text(draw, lines) -> str:
    """``lines`` with at most one odd line slipped in, joined by LF, CRLF or
    bare CR ends, perhaps with blank lines between."""
    if draw(st.integers(0, 3)) == 0:
        lines.insert(draw(st.integers(1, len(lines))), draw(ODD_CSV_LINE))
    for at in sorted(draw(st.lists(st.integers(1, len(lines)), max_size=2)), reverse=True):
        lines.insert(at, "")
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(lines),
                         max_size=len(lines)))
    return "".join(map(str.__add__, lines, ends)) + draw(st.sampled_from(["", "\n"]))


CSV_FIELD = {"user": INT_FIELD, "item": INT_FIELD, "rating": RATING_FIELD,
             "timestamp": INT_FIELD, "genre": st.sampled_from(["", "x", "7"])}
ODD_CSV_LINE = st.one_of(
    st.sampled_from([" ", "#1,2,3", "0,1", "0,1,1,1,1,1", "0,1,x,1", "1,2,3,"]),
    st.lists(ODD_FIELD, min_size=1, max_size=6).map(",".join))


@st.composite
def generic_csv(draw):
    """(header, text): a generic-csv file whose header may repeat a name or
    hold an unused column."""
    header = draw(st.permutations(["user", "item", "rating"] + draw(st.lists(
        st.sampled_from(["timestamp", "genre", "user"]), max_size=2, unique=True))))
    rows = [[draw(CSV_FIELD[name]) for name in header] for _ in range(draw(st.integers(0, 5)))]
    restyle(draw, rows)
    return header, lines_to_text(draw, [",".join(header)] + [",".join(row) for row in rows])


@st.composite
def rank_csv(draw):
    """A ``rank`` file: L rounds of up to four pairs among items 0..4, each
    row in either orientation and in any order, after up to two edits: a
    repeated or dropped row, a shifted round, a round below 1, a
    self-comparison, an item outside 0..4, or an outcome of 0 or near or
    past the int64 bounds; an item or outcome may be 400 digits long."""
    L = draw(st.integers(1, 3))
    pairs = draw(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(
        lambda p: p[0] != p[1]), min_size=1, max_size=4, unique=True))
    rows = [[i, j, l, draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))]
            for i, j in pairs for l in range(1, L + 1)]
    for edit in draw(st.lists(st.sampled_from(["repeat", "drop", "shift", "low", "self",
                                               "item", "outcome"]), max_size=2)):
        row = draw(st.sampled_from(rows)) if rows else [0, 1, 1, 1]
        if edit == "repeat":
            rows.append(list(row))
        elif edit == "drop" and row in rows:
            rows.remove(row)
        elif edit == "shift":
            row[2] += L
        elif edit == "low":
            row[2] = draw(st.integers(-1, 0))
        elif edit == "self":
            row[1] = row[0]
        elif edit == "item":
            row[draw(st.integers(0, 1))] = draw(st.sampled_from([-1, 5, 10**400]))
        elif edit == "outcome":
            row[3] = draw(st.sampled_from([0, 2**62, 2**63, -2**63, -2**63 - 1, 10**20,
                                           -10**400]))
    rows = [[str(v) for v in ([j, i, l, -y] if draw(st.booleans()) else [i, j, l, y])]
            for i, j, l, y in draw(st.permutations(rows))]
    restyle(draw, rows)
    header = draw(st.sampled_from(["i,j,l,y"] * 6 + [" i , j,l,y ", '"i",j,l,y', "i,j,l"]))
    return lines_to_text(draw, [header] + [",".join(row) for row in rows])


@pytest.fixture
def movielens_file(tmp_path):
    path = tmp_path / "u.data"
    path.write_text("1\t10\t5\t100\n1\t20\t3\t101\n2\t10\t4\t102\n",
                    encoding="utf-8")
    return path


class TestLoadRatings:
    def test_three_rows(self, movielens_file):
        table = load_ratings(movielens_file)
        assert len(table) == 3
        assert table.ratings.tolist() == [5.0, 3.0, 4.0]

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "u.data"
        path.write_text("1\t10\t5\t100\nnot-a-row\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 2"):
            load_ratings(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "u.data"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ValueError):
            load_ratings(path)

    def test_duplicate_keeps_latest_timestamp(self, tmp_path):
        path = tmp_path / "u.data"
        path.write_text("1\t10\t2\t200\n1\t10\t5\t100\n", encoding="utf-8")
        table = load_ratings(path)
        assert len(table) == 1
        assert table.ratings[0] == 2.0  # ts 200 beats ts 100

    def test_generic_csv_zero_rating_accepted(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("user,item,rating\n1,10,0\n1,20,2.25\n",
                        encoding="utf-8")
        table = load_ratings(path, format="generic-csv")
        assert len(table) == 2
        assert 0.0 in table.ratings.tolist()

    def test_generic_csv_missing_column(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("user,thing\n1,2\n", encoding="utf-8")
        with pytest.raises(ValueError):
            load_ratings(path, format="generic-csv")

    def test_unknown_format(self, movielens_file):
        with pytest.raises(ValueError):
            load_ratings(movielens_file, format="parquet")

    @pytest.mark.parametrize("rating", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("format,text", [
        ("movielens-100k-tab", "1\t10\t5\t100\n1\t20\t{}\t101\n"),
        ("generic-csv", "user,item,rating\n1,20,{}\n1,10,5\n"),
    ], ids=["tab", "csv"])
    def test_non_finite_rating_reports_line(self, tmp_path, format, text,
                                            rating):
        path = tmp_path / "ratings"
        path.write_text(text.format(rating), encoding="utf-8")
        with pytest.raises(ValueError, match="line 2: rating .* not finite"):
            load_ratings(path, format=format)

    @pytest.mark.parametrize("format,text", [
        ("movielens-100k-tab", "1\t10\t5\t100\n99999999999999999999\t20\t4\t101\n"),
        ("movielens-100k-tab", "1\t10\t5\t100\n1\t20\t4\t-9223372036854775809\n"),
        ("generic-csv", "user,item,rating\n1,99999999999999999999,3\n1,10,5\n"),
    ], ids=["tab-user", "tab-timestamp", "csv-item"])
    def test_integer_outside_int64_reports_line(self, tmp_path, format, text):
        path = tmp_path / "ratings"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match="line 2: .* outside int64"):
            load_ratings(path, format=format)

    def test_int64_extremes_accepted(self, tmp_path):
        path = tmp_path / "u.data"
        path.write_text(f"{2**63 - 1}\t{-2**63}\t5\t{2**63 - 1}\n",
                        encoding="utf-8")
        table = load_ratings(path)
        assert table.users.tolist() == [2**63 - 1]
        assert table.items.tolist() == [-2**63]

    @pytest.mark.parametrize("format,text,line", [
        ("movielens-100k-tab", "1\t10\t5\t100\n1_0\t20\t4\t101\n", 2),
        ("movielens-100k-tab", "1\t10\t5\t100\n\u0661\t20\t4\t101\n", 2),
        ("movielens-100k-tab", "1\t10\t5\t100\n1\t20\t4\t101\t7\n", 2),
        ("movielens-100k-tab", "1\t10\t5\t100\n1\t20\t4\t101\t\n", 2),
        ("movielens-100k-tab", "1\t10\t5\t100\n1\t20\t4_0\t101\n", 2),
        ("generic-csv", "user,item,rating\n1,10,5\n1,2_0,4\n", 3),
        ("generic-csv", "user,item,rating,timestamp\n1,10,5,\u0667\n", 2),
    ], ids=["underscore", "arabic-indic-digit", "fifth-field", "trailing-tab",
            "rating-underscore", "csv-underscore", "csv-arabic-indic-digit"])
    def test_misread_field_reports_line(self, tmp_path, format, text, line):
        # int() and float() would read these as numbers; loadtxt refuses them
        path = tmp_path / "ratings"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=f"line {line}: malformed row"):
            load_ratings(path, format=format)

    def test_tab_file_parses_as_one_array(self, movielens_file):
        # the row loop, the only caller of _field, never runs
        with mock.patch.object(data_mod, "_field", side_effect=AssertionError):
            table = load_ratings(movielens_file)
        assert_same_table(table, _dedup_latest(
            *reference_read_rows(movielens_file, "movielens-100k-tab")))

    @pytest.mark.parametrize("text", [
        "user,genre,item,rating\n1,drama,10,5\n1,,20,4\n2,x y,10,3\n",
        "user,item,rating,timestamp\n1,10,5,100\n\n1,20,4,101\n\n\n",
    ], ids=["unread-column", "blank-lines"])
    def test_generic_csv_parses_as_one_array(self, tmp_path, text):
        path = tmp_path / "r.csv"
        path.write_text(text, encoding="utf-8")
        with mock.patch.object(data_mod, "_field", side_effect=AssertionError):
            table = load_ratings(path, format="generic-csv")
        assert_same_table(table, _dedup_latest(
            *reference_read_rows(path, "generic-csv")))

    @pytest.mark.parametrize("text", ["", "\n", "\n\r\n\n"],
                             ids=["empty", "newline", "blank-lines"])
    def test_empty_file_warns_nothing(self, tmp_path, text):
        path = tmp_path / "u.data"
        path.write_bytes(text.encode())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="no ratings found"):
                load_ratings(path)

    @settings(max_examples=300, deadline=None)
    @given(rows=st.lists(TAB_ROW, max_size=6), odd=st.none() | ODD_LINE,
           at=st.integers(0, 6), ends=st.lists(LINE_END, min_size=8, max_size=8))
    def test_array_parse_equals_row_loop(self, tmp_path_factory, rows, odd, at,
                                         ends):
        lines = rows if odd is None else rows[:at] + [odd] + rows[at:]
        path = tmp_path_factory.mktemp("diff") / "u.data"
        path.write_bytes("".join(map(str.__add__, lines, ends)).encode(
            "utf-8", "surrogateescape"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            want = outcome(lambda: _dedup_latest(*reference_read_rows(path, "movielens-100k-tab")))
            for got in both_paths(lambda: load_ratings(path)):
                if isinstance(want, tuple):  # the reference refuses it
                    assert got == want
                else:
                    assert_same_table(got, want)

    @settings(max_examples=300, deadline=None)
    @given(file=generic_csv())
    @example(file=(["user", "item", "rating"], 'user,item,rating\r\n"1\u0663,2,3\r\n4,5,6\r\n'))
    def test_generic_csv_equals_reference(self, tmp_path_factory, file):
        # apart from two declared changes: a line number is the physical line
        # the record starts on, the default timestamp included, and a row wider
        # than the header is refused, so a file reads as its part before it.
        # The reference reads the file with LF ends, as load_ratings does, so
        # that a CRLF inside a quoted field reads alike
        header, text = file
        path = tmp_path_factory.mktemp("csv") / "r.csv"
        physical = io.StringIO(text, newline=None).readlines()
        records = record_lines("".join(physical), blank=False)
        wide = [line for line, fields in records[1:] if len(fields) > len(header)]
        if "\udcff" in text:  # not UTF-8: both refuse the whole file, at one byte
            wide, physical = [], [text]
        path.write_bytes("".join(physical[:wide[0] - 1] if wide else physical).encode(
            "utf-8", "surrogateescape"))

        def reference():
            users, items, ratings, stamps = reference_read_rows(path, "generic-csv")
            if "timestamp" not in header:
                stamps = np.array([records[k - 1][0] for k in stamps.tolist()])
            return _dedup_latest(users, items, ratings, stamps)

        want = outcome(reference)
        if wide and (not isinstance(want, tuple) or want[1].endswith("no ratings found")):
            want = ValueError, f"{path}: line {wide[0]}: malformed row "
        elif isinstance(want, tuple):
            want = want[0], renumber(want[1], records)
        path.write_bytes(text.encode("utf-8", "surrogateescape"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for got in both_paths(lambda: load_ratings(path, format="generic-csv")):
                if not isinstance(want, tuple):
                    assert_same_table(got, want)
                elif wide and want[1].endswith("malformed row "):
                    assert got[0] is want[0] and got[1].startswith(want[1])
                else:
                    assert got == want

    @pytest.mark.parametrize("text", ["user,item,rating\n", "user,item,rating,timestamp"],
                             ids=["header", "header-no-newline"])
    def test_generic_csv_header_only_has_no_ratings(self, tmp_path, text):
        path = tmp_path / "r.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match="no ratings found"):
            load_ratings(path, format="generic-csv")

    def test_default_timestamp_is_the_line_number(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("user,item,rating\n1,10,5\n\n1,20,4\n\n\n2,10,3\n", encoding="utf-8")
        assert load_ratings(path, format="generic-csv").timestamps.tolist() == [2, 4, 7]


class TestDatasetFromCsv:
    @pytest.mark.parametrize("text", ["i,j,l,y\n", "i,j,l,y", "i,j,l,y\n\n\r\n"],
                             ids=["header", "header-no-newline", "blank-lines"])
    def test_header_only_has_no_rows(self, text):
        with pytest.raises(ValueError, match="^no comparison rows found$"):
            dataset_from_csv(text, n=2)

    def test_parses_as_one_array(self):
        # the row loop, the only caller of _field, never runs
        text = "i,j,l,y\n1,0,1,-2\n0,1,2,3\n\n1,2,1,1\n2,1,2,1\n"
        with mock.patch.object(data_mod, "_field", side_effect=AssertionError):
            got = dataset_from_csv(text, n=3)
        want = reference_dataset_from_csv(text, n=3)
        for name in ("first", "second", "raw", "sign"):
            assert getattr(got, name).tolist() == getattr(want, name).tolist()

    @settings(max_examples=400, deadline=None)
    @given(text=rank_csv())
    @example(text='i,j,l,y\r0,1,1,2\r"0,1,2,3\r\n')  # a quote left open spans lines
    def test_equals_reference(self, text):
        # the reference splits lines at LF only, so a bare CR stops its csv
        # reader or hides a line from its count: it reads the text with LF
        # ends, as ``rank`` reads a file (universal newlines)
        lf = io.StringIO(text, newline=None).read()
        want = outcome(lambda: reference_dataset_from_csv(lf, n=5))
        if isinstance(want, tuple):  # it counts records: a quoted line break hides a line
            want = want[0], renumber(want[1], record_lines(lf, blank=True))
        for got in both_paths(lambda: dataset_from_csv(text, n=5)):
            if isinstance(want, tuple):
                assert got == want
                continue
            assert (got.n, got.rounds) == (want.n, want.rounds)
            for name in ("first", "second", "raw", "sign"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype and a.tolist() == b.tolist()


class TestBuildPairComparisons:
    def test_zero_differences_dropped(self, tmp_path):
        path = tmp_path / "u.data"
        path.write_text(
            "1\t0\t5\t1\n1\t1\t3\t2\n2\t0\t4\t3\n2\t1\t4\t4\n",
            encoding="utf-8")
        pairs = build_pair_comparisons(load_ratings(path), 1)
        assert as_dict(pairs)[(0, 1)].tolist() == [2.0]

    def test_threshold_filters_everything(self, movielens_file):
        pairs = build_pair_comparisons(load_ratings(movielens_file), 100)
        assert pairs.n_pairs() == 0

    def test_orientation_flip_negates(self):
        table = synthetic_ratings(n_items=4, users_per_pair=10, seed=3)
        pairs = build_pair_comparisons(table, 1)
        swapped = synthetic_ratings(n_items=4, users_per_pair=10, seed=3)
        relabel = {0: 3, 1: 2, 2: 1, 3: 0}
        flipped_items = np.array([relabel[i] for i in swapped.items.tolist()])
        pairs2 = build_pair_comparisons(
            RatingsTable(swapped.users, flipped_items, swapped.ratings,
                         swapped.timestamps), 1)
        for (i, j), d in as_dict(pairs).items():
            a, b = relabel[i], relabel[j]
            expect = -d if a > b else d
            got = as_dict(pairs2)[(min(a, b), max(a, b))]
            np.testing.assert_array_equal(np.sort(got), np.sort(expect))

    @settings(max_examples=150, deadline=None)
    @given(rows=st.lists(st.tuples(
        st.sampled_from([-7, -1, 0, 2, 3, 2**40]),
        st.sampled_from([-5, -2, 0, 1, 4, 10**12]),
        st.integers(0, 20).map(lambda q: q / 4),
        st.integers(0, 3)), min_size=1, max_size=40),
        min_ratings=st.integers(1, 4))
    def test_equals_reference_loops(self, tmp_path_factory, rows, min_ratings):
        path = tmp_path_factory.mktemp("prop") / "r.csv"
        path.write_text("user,item,rating,timestamp\n" + "".join(
            f"{u},{i},{r!r},{t}\n" for u, i, r, t in rows), encoding="utf-8")
        pairs = build_pair_comparisons(
            load_ratings(path, format="generic-csv"), min_ratings)
        got = (pairs.item_i, pairs.item_j, pairs.offsets, pairs.diffs)
        for a, b in zip(got, reference_pairs(rows, min_ratings)):
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)

    @staticmethod
    def assert_per_user_equal(table, min_ratings):
        pairs = build_pair_comparisons(table, min_ratings)
        got = (pairs.item_i, pairs.item_j, pairs.offsets, pairs.diffs)
        for a, b in zip(got, per_user_pairs(table, min_ratings)):
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("min_ratings", [1, 2])
    def test_movielens_file_equals_per_user_loop(self, movielens_file, min_ratings):
        self.assert_per_user_equal(load_ratings(movielens_file), min_ratings)

    def test_criterion_10_fixture_equals_per_user_loop(self):
        self.assert_per_user_equal(synthetic_ratings(seed=7), 100)

    @pytest.mark.parametrize("min_ratings", [1, 2, 3])
    def test_users_beyond_the_batch_bound(self, monkeypatch, min_ratings):
        # at a bound of 8 index pairs, a 12-item user (66 pairs) is a batch
        # of its own and 3-item users (3 pairs) go two to a batch
        monkeypatch.setattr(data_mod, "_PAIR_BATCH", 8)
        rng = np.random.default_rng(12)
        sizes = [12, 3, 3, 1, 4, 3, 2, 5, 12, 3]
        users = np.repeat(np.arange(len(sizes)) * 7 - 20, sizes)
        items = np.concatenate([rng.choice(15, s, replace=False) * 3 - 9
                                for s in sizes])
        ratings = rng.integers(1, 6, users.size).astype(float)
        self.assert_per_user_equal(
            RatingsTable(users, items, ratings, np.arange(users.size)), min_ratings)

    @pytest.mark.parametrize("min_ratings", [1, 40])
    def test_table_built_in_shuffled_row_order(self, min_ratings):
        # the table stores its rows in (user, item) order, which is all that
        # build_pair_comparisons relies on
        table = synthetic_ratings(n_items=8, users_per_pair=30, seed=11)
        perm = np.random.default_rng(5).permutation(len(table))
        shuffled = RatingsTable(table.users[perm], table.items[perm],
                                table.ratings[perm], table.timestamps[perm])
        for name in ("users", "items", "ratings", "timestamps"):
            np.testing.assert_array_equal(getattr(shuffled, name), getattr(table, name))
        want = build_pair_comparisons(table, min_ratings)
        got = build_pair_comparisons(shuffled, min_ratings)
        for name in ("item_i", "item_j", "offsets", "diffs"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
        self.assert_per_user_equal(shuffled, min_ratings)

    def test_key_field_past_32_bits_equals_per_user_loop(self):
        # 2**16 + 3 items give 33-bit pair keys: 4097 users rate 16 adjacent
        # items each, and 40 more all rate the first item and the last two,
        # so those three pairs, keys at both ends of the field, hold 40 users
        n_items = 2**16 + 3
        assert (n_items * n_items - 1).bit_length() == 33
        rng = np.random.default_rng(18)
        blocks = [np.arange(lo, min(lo + 16, n_items)) for lo in range(0, n_items, 16)]
        blocks += [np.array([0, n_items - 2, n_items - 1])] * 40
        ids = rng.choice(10**9, len(blocks), replace=False) - 5 * 10**8
        users = np.repeat(ids, [b.size for b in blocks])
        items = np.concatenate(blocks) * 3 - 7
        ratings = rng.integers(1, 6, users.size).astype(float)
        table = RatingsTable(users, items, ratings, np.arange(users.size))
        self.assert_per_user_equal(table, 1)
        last = (n_items - 2) * 3 - 7, (n_items - 1) * 3 - 7
        assert as_dict(build_pair_comparisons(table, 1))[last].size > 20

    @pytest.mark.parametrize("spare", [0, -1])
    def test_sort_word_width_bound(self, monkeypatch, spare):
        # 5 items need a 5-bit pair key, 3 users of 4 items hold 12 rows, 4
        # bits, and offsets up to 3, 2 bits: an 11-bit word holds all three,
        # a 10-bit one does not
        monkeypatch.setattr(data_mod, "_WORD_BITS", 11 + spare)
        users = np.repeat([4, 9, 11], 4)
        items = np.array([0, 1, 2, 3, 1, 2, 3, 4, 0, 2, 3, 4])
        ratings = np.array([5, 3, 4, 1, 2, 2, 5, 1, 3, 4, 1, 2], dtype=float)
        table = RatingsTable(users, items, ratings)
        if spare == 0:
            self.assert_per_user_equal(table, 1)
        else:
            with pytest.raises(ValueError, match="^5 items and 12 rows, at most 4 per user, "
                                                 "need a 5-bit pair key, a 4-bit row and a "
                                                 "2-bit offset, more than 10 bits$"):
                build_pair_comparisons(table, 1)

    def test_peak_memory_is_bounded_by_the_comparisons(self):
        # a MovieLens-shaped table: Pareto item popularity and user activity,
        # and 1-5 stars from item quality plus noise, so a quarter of the
        # index pairs are zeros.  The word buffer holds one word per index
        # pair, untouched past the last non-zero one, and tracemalloc counts
        # all of it.  Measured: 3.15x the output differences with one word
        # per non-zero comparison, 6.24x with a word and a difference per
        # index pair
        rng = np.random.default_rng(26)
        n_users, n_items = 300, 300
        popularity = rng.pareto(1.0, n_items) + 1.0
        sizes = np.minimum(20 + rng.pareto(1.2, n_users) * 30, n_items).astype(int)
        users = np.repeat(np.arange(n_users) * 5 + 3, sizes)
        items = np.concatenate([
            rng.choice(n_items, s, replace=False, p=popularity / popularity.sum())
            for s in sizes.tolist()])
        stars = 3.5 + rng.normal(0, 0.7, n_items)[items] + rng.normal(0, 0.9, users.size)
        table = RatingsTable(users, items, np.clip(np.rint(stars), 1, 5))
        tracemalloc.start()
        try:
            pairs = build_pair_comparisons(table, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert pairs.total_comparisons() > 10**6
        assert peak < 3.7 * pairs.diffs.nbytes

    def test_orientation_enforced(self):
        with pytest.raises(ValueError):
            make_pairs({(2, 1): np.array([1.0])})


class TestRatingsTable:
    @pytest.mark.parametrize("users,items,ratings,stamps,match", [
        ([], [], [], None, "ratings table is empty"),
        ([1, 2], [3], [1.0, 2.0], None, "ragged ratings columns"),
        ([1, 2], [3, 4], [1.0, 2.0], [7], "ragged timestamp column"),
    ], ids=["empty", "ragged", "ragged-timestamps"])
    def test_malformed_columns_refused(self, users, items, ratings, stamps, match):
        columns = [None if c is None else np.array(c) for c in (users, items, ratings, stamps)]
        with pytest.raises(ValueError, match=f"^{match}$"):
            RatingsTable(*columns)

    def test_sorted_adjacent_duplicate_refused(self):
        # rows already in order skip the sort, not the duplicate check
        with pytest.raises(ValueError, match="duplicate"):
            RatingsTable(np.array([1, 1, 2]), np.array([3, 3, 4]), np.ones(3))

    def test_rows_in_order_are_kept(self):
        users, items = np.array([1, 1, 2]), np.array([3, 5, 4])
        table = RatingsTable(users, items, np.array([2.0, 1.0, 4.0]))
        assert table.users is users and table.items is items

    @pytest.mark.parametrize("ratings", [[math.inf, math.inf], [math.inf, 3.0],
                                         [math.nan, 3.0]], ids=["inf-inf", "inf", "nan"])
    def test_non_finite_ratings_refused(self, ratings):
        # refused at construction, before numpy can warn about inf - inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^ratings must be finite$"):
                RatingsTable(np.array([1, 1]), np.array([3, 5]), np.array(ratings))


WIDE = st.integers(-(2**63 - 1), 2**63 - 1)
# a few values, extremes among them, so that keys repeat often
FEW = st.sampled_from([-(2**63 - 1), -1, 0, 7, 2**63 - 1])


class TestDedupLatest:
    @staticmethod
    def check(keys, stamps):
        """``_dedup_latest`` on rows (user, item) = ``keys``, rating = row
        number, against a dict loop: per (user, item) the latest timestamp,
        the later row on ties.  Its one ``np.lexsort`` sees only the rows of
        a repeated (user, item); ``np.unique`` ranks the ids only where
        offsets to the smallest would pass int64."""
        best = {}
        for row, (key, stamp) in enumerate(zip(keys, stamps)):
            if key not in best or stamp >= best[key][1]:
                best[key] = (row, stamp)
        repeated = sum(n for n in Counter(keys).values() if n > 1)
        users, items = (np.array(c, dtype=np.int64) for c in zip(*keys))
        with pytest.MonkeyPatch.context() as patch:
            lexsorts = TestSplitOrder.count_calls(patch)
            uniques = TestSplitOrder.count_calls(patch, "unique")
            table = _dedup_latest(users, items, np.arange(len(keys), dtype=float),
                                  np.array(stamps, dtype=np.int64))
        spans = [max(ids) - min(ids) + 1 for ids in zip(*keys)]
        assert len(uniques) == 2 * (spans[0] * spans[1] >= 2**63)
        got = zip(table.users.tolist(), table.items.tolist(),
                  table.ratings.tolist(), table.timestamps.tolist())
        assert list(got) == [(u, i, row, t) for (u, i), (row, t) in sorted(best.items())]
        assert [columns[0].size for (columns,) in lexsorts] == [repeated]

    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(st.tuples(FEW | WIDE, FEW | WIDE, FEW | WIDE), min_size=1,
                         max_size=60))
    @example(rows=[(0, 1, 0), (0, 2**63 - 1, 0), (0, 1, 0)])  # spans 1 and 2**63 - 1
    @example(rows=[(0, 0, 0), (0, 2**63 - 1, 0), (0, 0, 0)])  # spans 1 and 2**63
    def test_equals_dict_loop(self, rows):
        self.check([(u, i) for u, i, _ in rows], [t for _, _, t in rows])

    @settings(max_examples=50, deadline=None)
    @given(rows=st.lists(st.tuples(FEW | WIDE, FEW | WIDE, WIDE), min_size=1, max_size=60,
                         unique_by=lambda row: row[:2]))
    def test_no_repeat_leaves_the_lexsort_nothing(self, rows):
        self.check([(u, i) for u, i, _ in rows], [t for _, _, t in rows])

    @settings(max_examples=50, deadline=None)
    @given(key=st.tuples(WIDE, WIDE), stamps=st.lists(FEW | WIDE, min_size=2, max_size=60))
    def test_all_rows_one_key(self, key, stamps):
        self.check([key] * len(stamps), stamps)


class TestOrdinalHistogram:
    def test_counts(self):
        pairs = make_pairs({(0, 1): np.array([1.0, -1.0, 1.0, 2.0])})
        hist = ordinal_histogram(pairs)
        assert hist == {1.0: 3, 2.0: 1}

    def test_empty_bins_present(self):
        pairs = make_pairs({(0, 1): np.array([1.0, 1.0, 3.0])})
        with pytest.warns(UserWarning):
            hist = ordinal_histogram(pairs)
        assert hist[2.0] == 0

    def test_fill_reaches_the_comparison_count(self):
        pairs = make_pairs({(0, 1): np.array([1.0, -3.0, 3.0])})
        with pytest.warns(UserWarning):
            hist = ordinal_histogram(pairs)
        assert hist == {1.0: 1, 2.0: 0, 3.0: 2}

    def test_fill_beyond_the_comparison_count_lists_only_seen(self):
        pairs = make_pairs({(0, 1): np.array([1.0, -300000.0]),
                            (1, 2): np.array([4.0, 1.0])})
        assert ordinal_histogram(pairs) == {1.0: 2, 4.0: 1, 300000.0: 1}

    def test_no_comparisons_rejected(self):
        with pytest.raises(ValueError, match="no comparisons"):
            ordinal_histogram(make_pairs({(0, 1): []}))

    def test_decreasing_magnitude_law_yields_clean_histogram(self):
        import warnings

        from ordrank.model import PatternDistribution
        table = synthetic_ratings(n_items=6, users_per_pair=80, seed=5,
                                  pattern=PatternDistribution.from_family(
                                      "abs", 0.9, 4))
        pairs = build_pair_comparisons(table, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            hist = ordinal_histogram(pairs)
        values = [hist[k] for k in sorted(hist)]
        assert all(a >= b for a, b in zip(values, values[1:]))


class TestSplitAccuracy:
    def test_abstention_scores_half(self):
        (acc_ord,), (acc_bin,) = split_once(
            np.array([1.0, -1.0, 2.0, -2.0]), np.array([0, 4]), np.array([2]))
        assert acc_ord == 0.5  # train (+1, -1) sums to zero
        assert acc_bin == 0.5

    def test_plain_split(self):
        (acc_ord,), (acc_bin,) = split_once(
            np.array([2.0, 1.0, 1.0, -1.0]), np.array([0, 4]), np.array([2]))
        assert acc_ord == 0.5 and acc_bin == 0.5  # pred +, test (+1, -1)

    def test_batched_equals_per_pair_loop(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            sizes = rng.integers(2, 13, size=int(rng.integers(1, 20)))
            diffs = rng.choice([-3.0, -2.0, -1.0, 1.0, 2.0, 3.0], sizes.sum())
            offsets = np.cumsum(np.r_[0, sizes])
            n_train = rng.integers(1, sizes)
            got = split_once(diffs, offsets, n_train)
            want = [split_accuracy_loop(diffs[a:b], n) for a, b, n in
                    zip(offsets[:-1], offsets[1:], n_train)]
            np.testing.assert_array_equal(np.transpose(got), want)

    @pytest.mark.parametrize("law", ["fractional", "wide", "cauchy"])
    def test_equals_reference_on_real_differences(self, law):
        # raw sums of non-integer differences round, so the same additions
        # must run in the same order as in the one-split body; few distinct
        # magnitudes make near-zero sums, whose sign the rounding decides,
        # common (a sequential sum differs from it on about 4% of splits)
        rng = np.random.default_rng(["fractional", "wide", "cauchy"].index(law))
        for _ in range(200):
            sizes = rng.integers(2, 40, size=int(rng.integers(1, 30)))
            n = int(sizes.sum())
            magnitudes = {"fractional": rng.integers(1, 40, n) / 10,
                          "wide": rng.choice([1e-3, 0.1, 0.7, 1e3], n),
                          "cauchy": rng.choice(rng.standard_cauchy(3), n)}[law]
            diffs = rng.choice([-1.0, 1.0], n) * magnitudes
            offsets = np.cumsum(np.r_[0, sizes])
            n_train = rng.integers(1, sizes)
            pair_id = segment_ids(sizes)
            key_sets = [rng.random(n) for _ in range(3)]
            for keys, got in zip(key_sets, _split_accuracy(diffs, offsets, n_train, key_sets)):
                np.testing.assert_array_equal(got, split_accuracy_reference(
                    diffs[np.lexsort((keys, pair_id))], offsets, n_train))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), sizes=st.lists(st.integers(2, 12), min_size=1, max_size=20),
           grid=st.sampled_from([None, 2, 4]),
           magnitudes=st.sampled_from([[1.0, 2.0, 3.0], [1.0, 2.0**52],
                                       [0.5, 1.5, 2.5], [0.5, 2.0**51]]))
    def test_integer_differences_equal_the_ordered_reference(self, data, sizes, grid,
                                                             magnitudes):
        # coarse keys tie inside a pair, 1 - 2**-53 rounds up to the next
        # pair's sums, and magnitudes of 2**52 (twice 2**51 for half steps)
        # sum past 2**53, where only the split order gives the reference's
        # raw sums; below it, integer and half-step sums need no argsort
        n = sum(sizes)
        if grid is None:
            key = st.one_of(st.floats(0.0, 1.0, exclude_max=True), st.just(1 - 2**-53))
        else:
            key = st.integers(0, grid - 1).map(lambda k: k / grid)
        keys = np.array(data.draw(st.lists(key, min_size=n, max_size=n)), dtype=float)
        diffs = np.array(data.draw(st.lists(st.sampled_from(magnitudes), min_size=n,
                                            max_size=n)))
        diffs *= np.array(data.draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n,
                                             max_size=n)))
        n_train = np.array([data.draw(st.integers(1, size - 1)) for size in sizes])
        offsets = np.cumsum(np.r_[0, sizes])
        with mock.patch.object(np, "argsort", wraps=np.argsort) as argsort:
            got = next(_split_accuracy(diffs, offsets, n_train, [keys]))
        np.testing.assert_array_equal(got, split_accuracy_reference(
            diffs[np.lexsort((keys, segment_ids(sizes)))], offsets, n_train))
        assert argsort.called == (2 * np.abs(diffs).sum() >= 2.0**53)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), large=st.integers(1024, 4200),
           sizes=st.lists(st.integers(2, 6), max_size=6),
           unit=st.sampled_from([1.0, 0.5]), off=st.integers(-3, 2))
    def test_packed_sums_equal_the_ordered_reference(self, seed, large, sizes, unit, off):
        # a pair of 1,024 comparisons or more takes shift = 11 or more low bits
        # for its train positives, so the int64 codes hold doubled sums below
        # 2**(63 - shift), under 2**53; the magnitudes sum to that bound plus
        # off units.  Pair 0 trains on h and -h, a zero sum, and the large pair
        # holds a magnitude r of either sign, so raw sums of every sign occur
        rng = np.random.default_rng(seed)
        sizes, shift = [3, large, *sizes], large.bit_length()
        n, half_bound = sum(sizes), 2.0 ** (62 - shift)
        diffs = rng.choice([-3.0, -2.0, -1.0, 1.0, 2.0, 3.0], n) * unit
        h = half_bound / 4
        diffs[:2] = h, -h
        r = 3 + int(rng.integers(large))
        diffs[r] = 0.0  # then r makes up the rest of the target sum
        diffs[r] = rng.choice([-1.0, 1.0]) * (half_bound + off * unit - np.abs(diffs).sum())
        assert (2 * np.abs(diffs).sum() < 2.0 ** (63 - shift)) == (off < 0)
        offsets, pair_id = np.cumsum(np.r_[0, sizes]), segment_ids(sizes)
        n_train = np.r_[2, [rng.integers(1, size) for size in sizes[1:]]]
        key_sets = [rng.random(n) for _ in range(2)]
        key_sets[0][:3] = 0.1, 0.2, 0.9
        with mock.patch.object(np, "argsort", wraps=np.argsort) as argsort:
            got = list(_split_accuracy(diffs, offsets, n_train, key_sets))
        assert argsort.called == (off >= 0)
        assert got[0][0, 0] == 0.5  # h - h abstains
        for keys, rows in zip(key_sets, got):
            np.testing.assert_array_equal(rows, split_accuracy_reference(
                diffs[np.lexsort((keys, pair_id))], offsets, n_train))

    def test_raw_sums_past_2_to_the_53_add_in_split_order(self):
        # in split order the raw sum rounds to 0, in file order it is -1
        diffs = np.array([-2.0**52, 2.0**52, -2.0**52, 1.0, -1.0, 2.0**52])
        keys = np.array([3, 4, 2, 5, 1, 0]) / 6
        offsets, n_train = np.array([0, 6]), np.array([5])
        train = keys < 5 / 6
        assert np.add.reduceat(np.where(train, diffs, 0.0), [0])[0] == -1.0
        got = next(_split_accuracy(diffs, offsets, n_train, [keys]))
        assert got[0, 0] == 0.5  # the ordinal rule abstains
        np.testing.assert_array_equal(got, split_accuracy_reference(
            diffs[np.argsort(keys)], offsets, n_train))


def segment_ids(sizes) -> np.ndarray:
    return np.repeat(np.arange(len(sizes)), sizes)


class TestSplitOrder:
    """``_split_accuracy`` trains on the ``lexsort((keys, pair_id))`` order,
    tied keys and sums that round together included, whether the raw sums
    add in file order (integer and half-step differences) or in split order
    (tenths)."""

    SCALES = (1.0, 0.5, 0.1)

    @staticmethod
    def check(diffs, keys, sizes, n_train) -> None:
        """One split's accuracies equal the reference's in lexsort order."""
        offsets = np.cumsum(np.r_[0, sizes])
        want = split_accuracy_reference(diffs[np.lexsort((keys, segment_ids(sizes)))],
                                        offsets, n_train)
        np.testing.assert_array_equal(
            next(_split_accuracy(diffs, offsets, n_train, [keys])), want)

    @staticmethod
    def signed(rng, n: int, scale: float) -> np.ndarray:
        return rng.choice([-3.0, -2.0, -1.0, 1.0, 2.0, 3.0], n) * scale

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), sizes=st.lists(st.integers(2, 40), min_size=1,
                                          max_size=30),
           grid=st.sampled_from([None, 2, 4, 16]),
           scale=st.sampled_from(SCALES))
    def test_equals_lexsort(self, data, sizes, grid, scale):
        n = sum(sizes)
        if grid is None:
            keys = data.draw(st.lists(st.floats(0.0, 1.0, exclude_max=True),
                                      min_size=n, max_size=n))
        else:  # a coarse grid makes ties inside a pair likely
            keys = data.draw(st.lists(st.integers(0, grid - 1).map(
                lambda k: k / grid), min_size=n, max_size=n))
        diffs = scale * np.array(data.draw(st.lists(
            st.sampled_from([-3.0, -1.0, 1.0, 2.0]), min_size=n, max_size=n)))
        n_train = np.array([data.draw(st.integers(1, size - 1)) for size in sizes])
        self.check(diffs, np.array(keys, dtype=float), sizes, n_train)

    @pytest.mark.parametrize("n_pairs", [50, 70_000])
    def test_coarse_keys_tie_inside_pairs(self, n_pairs):
        rng = np.random.default_rng(n_pairs)
        sizes = rng.integers(2, 9, n_pairs)
        pair_id = segment_ids(sizes)
        keys = np.round(rng.random(pair_id.size), 1)
        tied = (np.diff(pair_id) == 0) & (np.diff(keys) == 0)
        assert tied.sum() > 0  # ties inside a pair are certain
        for scale in self.SCALES:
            self.check(self.signed(rng, keys.size, scale), keys, sizes,
                       rng.integers(1, sizes))

    def test_uniform_keys_over_many_pairs(self):
        rng = np.random.default_rng(4)
        sizes = rng.integers(2, 6, 70_000)
        keys = rng.random(sizes.sum())
        for scale in self.SCALES:
            self.check(self.signed(rng, keys.size, scale), keys, sizes,
                       rng.integers(1, sizes))

    @staticmethod
    def count_calls(monkeypatch, name: str = "lexsort") -> list:
        """Record each ``np.<name>`` call from here on; by default the
        fallback's sort."""
        calls, function = [], getattr(np, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return function(*args, **kwargs)

        monkeypatch.setattr(np, name, counted)
        return calls

    def check_routes(self, monkeypatch, diffs, keys, sizes, n_train) -> None:
        """``check`` once per scale.  Integer and half-step differences find
        each threshold by a row sort of distinct keys, with no lexsort; only
        tenths argsort ``pair + key``, and its tie takes the one lexsort."""
        for scale in self.SCALES:
            self.check(diffs * scale, keys, sizes, n_train)
            with monkeypatch.context() as patch:
                lexsorts = self.count_calls(patch)
                argsorts = self.count_calls(patch, "argsort")
                next(_split_accuracy(diffs * scale, np.cumsum(np.r_[0, sizes]), n_train, [keys]))
            assert len(lexsorts) == len(argsorts) == (scale == 0.1)

    def test_distinct_keys_rounding_together_take_the_lexsort(self, monkeypatch):
        # next to pair 999 the sums are spaced 2**-43 apart: each pair's keys
        # are distinct and descending, 2**-50 apart, so near 1,000 they round
        # together
        rng = np.random.default_rng(40)
        sizes = np.full(1000, 4)
        keys = np.repeat(rng.random(1000) * 0.99, 4) + np.tile([3, 2, 1, 0], 1000) * 2.0**-50
        assert np.unique(segment_ids(sizes) + keys).size < keys.size
        assert np.unique(keys).size == keys.size
        self.check_routes(monkeypatch, self.signed(rng, keys.size, 1.0), keys, sizes,
                          rng.integers(1, sizes))

    def test_key_rounding_up_to_the_next_pair_takes_the_lexsort(self, monkeypatch):
        # pair 1's last key: 1 + (1 - 2**-53) rounds to 2.0, the sum of
        # pair 2's first key 0.0
        keys = np.array([0.25, 0.5, 0.5, 1 - 2**-53, 0.0, 0.75, 0.5, 0.25])
        pair_id = np.array([0, 0, 1, 1, 2, 2, 3, 3])
        assert pair_id[3] + keys[3] == pair_id[4] + keys[4] == 2.0
        diffs = np.array([1.0, -2.0, -1.0, 3.0, 2.0, -1.0, 1.0, -3.0])
        self.check_routes(monkeypatch, diffs, keys, np.full(4, 2), np.ones(4, dtype=int))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(),
           sizes=st.lists(st.integers(2, 4 * _ROW_WIDTH + 1)
                          | st.integers(1, 4).map(lambda k: k * _ROW_WIDTH),
                          min_size=1, max_size=12),
           grid=st.sampled_from([4, 16, 64, 1024]), scale=st.sampled_from(SCALES[:2]))
    def test_only_boundary_ties_take_the_lexsort(self, data, sizes, grid, scale):
        # coarse keys tie on a pair's boundary (its n_train-th and next smallest
        # key) or inside its train or test side, in rows of several widths
        n = sum(sizes)
        keys = np.array(data.draw(st.lists(st.integers(0, grid - 1), min_size=n,
                                           max_size=n))) / grid
        diffs = self.signed(np.random.default_rng(n), n, scale)
        n_train = np.array([data.draw(st.integers(1, size - 1)) for size in sizes])
        ranked = map(np.sort, np.split(keys, np.cumsum(sizes)[:-1]))
        boundary = any(k[m - 1] == k[m] for k, m in zip(ranked, n_train))
        self.check(diffs, keys, sizes, n_train)
        with mock.patch.object(np, "lexsort", wraps=np.lexsort) as lexsort:
            next(_split_accuracy(diffs, np.cumsum(np.r_[0, sizes]), n_train, [keys]))
        assert lexsort.call_count == boundary

    def test_criterion_10_splits_take_the_float_sort(self, monkeypatch):
        # integer and half-step differences both train by mask on row sorts
        pairs = build_pair_comparisons(synthetic_ratings(seed=7),
                                       min_ratings_per_item=100)
        halves = dataclasses.replace(pairs, diffs=pairs.diffs * 0.5)
        calls = self.count_calls(monkeypatch)
        argsorts = self.count_calls(monkeypatch, "argsort")
        for each in (pairs, halves):
            report = evaluate_pair_protocol(each, train_frac=0.7, repetitions=100,
                                            min_pair_count=10, seed=7)
            assert report.ordinal_acc.shape == (100, 190)
        assert calls == [] and argsorts == []


class TestEvaluateProtocol:
    def test_all_positive_pair_scores_one(self):
        pairs = make_pairs({(0, 1): np.full(10, 2.0)})
        rep = evaluate_pair_protocol(pairs, repetitions=5, min_pair_count=5)
        assert rep.mean_ordinal == 1.0
        assert rep.mean_binary == 1.0
        assert rep.ttest.degenerate

    def test_outlier_flips_ordinal_only(self):
        # one large negative among three positives: the raw sum is negative
        # for every train subset, the sign sum is positive in three of four
        pairs = make_pairs({(0, 1): np.array([1.0, 1.0, 1.0, -4.0])})
        rep = evaluate_pair_protocol(pairs, train_frac=0.75, repetitions=40,
                                     min_pair_count=2, seed=11)
        assert rep.mean_ordinal == 0.0
        assert rep.mean_binary > rep.mean_ordinal

    def test_split_determinism(self):
        table = synthetic_ratings(n_items=5, users_per_pair=40, seed=2)
        pairs = build_pair_comparisons(table, 1)
        a = evaluate_pair_protocol(pairs, repetitions=8, min_pair_count=5, seed=3)
        b = evaluate_pair_protocol(pairs, repetitions=8, min_pair_count=5, seed=3)
        np.testing.assert_array_equal(a.ordinal_acc, b.ordinal_acc)
        np.testing.assert_array_equal(a.binary_acc, b.binary_acc)

    def test_first_repetition_does_not_reuse_the_seed_stream(self):
        # default_rng([7, 0, 0]) is default_rng(7): per-cell keys built that
        # way re-drew the stream that generated criterion 10's input
        keys = next(_split_keys(7, 3, 500))
        assert not np.array_equal(keys, np.random.default_rng(7).random(500))

    def test_keys_are_each_spawned_generators_draw(self):
        children = np.random.SeedSequence(7).spawn(4)
        for child, keys in zip(children, _split_keys(7, 4, 300)):
            np.testing.assert_array_equal(keys, np.random.default_rng(child).random(300))

    def test_negating_differences_preserves_accuracy(self):
        rng = np.random.default_rng(6)
        diffs = rng.choice([-3, -2, -1, 1, 2, 3], size=30).astype(float)
        base = evaluate_pair_protocol(
            make_pairs({(0, 1): diffs}), repetitions=10, min_pair_count=5)
        flipped = evaluate_pair_protocol(
            make_pairs({(0, 1): -diffs}), repetitions=10, min_pair_count=5)
        np.testing.assert_array_equal(base.ordinal_acc, flipped.ordinal_acc)
        np.testing.assert_array_equal(base.binary_acc, flipped.binary_acc)

    def test_small_pairs_skipped(self):
        pairs = make_pairs({
            (0, 1): np.full(20, 1.0),
            (0, 2): np.array([1.0, -1.0]),
        })
        rep = evaluate_pair_protocol(pairs, repetitions=3, min_pair_count=10)
        assert rep.pair_order == ((0, 1),)

    def test_unknown_pairing_rejected(self):
        pairs = make_pairs({(0, 1): np.array([1.0, -1.0, 2.0])})
        with pytest.raises(ValueError, match="^pairing must be 'repetition' or 'pair'$"):
            evaluate_pair_protocol(pairs, min_pair_count=2, pairing="both")

    def test_no_eligible_pairs(self):
        pairs = make_pairs({(0, 1): np.array([1.0, -1.0])})
        with pytest.raises(ValueError):
            evaluate_pair_protocol(pairs, repetitions=3, min_pair_count=10)

    def test_single_repetition_flags_degenerate_ttest(self):
        pairs = make_pairs({(0, 1): np.full(12, 1.0),
                                 (0, 2): np.full(12, -2.0)})
        rep = evaluate_pair_protocol(pairs, repetitions=1, min_pair_count=10)
        assert rep.ttest.degenerate

    def test_pairing_modes(self):
        table = synthetic_ratings(n_items=5, users_per_pair=60, seed=4)
        pairs = build_pair_comparisons(table, 1)
        by_rep = evaluate_pair_protocol(pairs, repetitions=10,
                                        min_pair_count=5, pairing="repetition")
        by_pair = evaluate_pair_protocol(pairs, repetitions=10,
                                         min_pair_count=5, pairing="pair")
        assert by_rep.pairing == "repetition"
        assert by_pair.pairing == "pair"
        np.testing.assert_array_equal(by_rep.ordinal_acc, by_pair.ordinal_acc)

    def test_report_dict_shape(self):
        table = synthetic_ratings(n_items=4, users_per_pair=30, seed=9)
        pairs = build_pair_comparisons(table, 1)
        rep = evaluate_pair_protocol(pairs, repetitions=4, min_pair_count=5)
        d = rep.to_dict()
        assert d["repetitions"] == 4
        assert len(d["per_pair_accuracy"]["ordinal"]) == d["n_pairs"]
        assert len(d["per_repetition_accuracy"]["binary"]) == 4


class TestPairedTTest:
    def test_equal_inputs_degenerate(self):
        res = paired_t_test([0.5, 0.6, 0.7], [0.5, 0.6, 0.7])
        assert res.degenerate and res.t == 0.0

    def test_zero_mean(self):
        res = paired_t_test([1.0, 0.0], [0.0, 1.0])
        assert res.t == 0.0
        assert res.p == pytest.approx(1.0, abs=1e-12)

    def test_hand_value_df2(self):
        # d = (0.1, 0.2, 0.3): t = 2*sqrt(3); for df=2 the two-sided p-value
        # has the closed form 1 - t/sqrt(t^2 + 2)
        res = paired_t_test([0.1, 0.2, 0.3], [0.0, 0.0, 0.0])
        t = 2.0 * math.sqrt(3.0)
        assert res.t == pytest.approx(t, rel=1e-12)
        assert res.p == pytest.approx(1.0 - t / math.sqrt(t * t + 2.0),
                                      rel=1e-12)

    def test_antisymmetry_exact(self):
        rng = np.random.default_rng(12)
        a, b = rng.normal(size=20), rng.normal(size=20)
        assert paired_t_test(a, b).t == -paired_t_test(b, a).t

    def test_length_validation(self):
        with pytest.raises(ValueError):
            paired_t_test([1.0], [2.0])
        with pytest.raises(ValueError):
            paired_t_test([1.0, 2.0], [1.0, 2.0, 3.0])


class TestSyntheticFixture:
    def test_pattern_past_four_levels_refused(self):
        with pytest.raises(ValueError, match="^1-5 ratings bound differences by 4$"):
            synthetic_ratings(pattern=PatternDistribution.uniform(5))

    def test_deterministic(self):
        a = synthetic_ratings(n_items=4, users_per_pair=6, seed=1)
        b = synthetic_ratings(n_items=4, users_per_pair=6, seed=1)
        np.testing.assert_array_equal(a.ratings, b.ratings)

    def test_ratings_in_range(self):
        table = synthetic_ratings(n_items=6, users_per_pair=20, seed=2)
        assert table.ratings.min() >= 1.0
        assert table.ratings.max() <= 5.0

    def test_each_user_rates_two_items(self):
        table = synthetic_ratings(n_items=4, users_per_pair=5, seed=2)
        _, counts = np.unique(table.users, return_counts=True)
        assert np.all(counts == 2)


class TestPairsSerialization:
    @pytest.mark.parametrize("name", ["pairs.npz", "pairs.bin"])
    def test_round_trip(self, tmp_path, name):
        table = synthetic_ratings(n_items=5, users_per_pair=12, seed=8)
        pairs = build_pair_comparisons(table, 1)
        path = tmp_path / name
        save_pairs(pairs, path)
        assert path.exists()  # written verbatim, no .npz suffix surprises
        again = load_pairs(path)
        assert set(as_dict(again)) == set(as_dict(pairs))
        for key, d in as_dict(pairs).items():
            np.testing.assert_array_equal(as_dict(again)[key], d)

    def test_shuffled_archive_loads_equal_to_sorted(self, tmp_path):
        pairs = build_pair_comparisons(
            synthetic_ratings(n_items=5, users_per_pair=12, seed=8), 1)
        runs = as_dict(pairs)
        order = np.random.default_rng(2).permutation(pairs.n_pairs())
        keys = [list(runs)[p] for p in order]
        path = tmp_path / "pairs.npz"
        self.write_archive(path, np.cumsum([0] + [runs[k].size for k in keys]),
                           [k[0] for k in keys], [k[1] for k in keys],
                           np.concatenate([runs[k] for k in keys]))
        again = load_pairs(path)
        for name in ("item_i", "item_j", "offsets", "diffs"):
            np.testing.assert_array_equal(getattr(again, name),
                                          getattr(pairs, name))

    def test_pairs_in_order_and_shuffled_construct_equal(self):
        # the in-order path skips the sort but still gives int64 offsets
        pairs = build_pair_comparisons(
            synthetic_ratings(n_items=5, users_per_pair=12, seed=8), 1)
        lengths = np.diff(pairs.offsets).astype(np.int32)
        order = np.random.default_rng(4).permutation(pairs.n_pairs())
        starts = pairs.offsets[:-1][order]
        shuffled = PairComparisons(
            pairs.item_i[order].astype(np.int32), pairs.item_j[order].astype(np.int32),
            np.r_[0, np.cumsum(lengths[order])].astype(np.int32),
            np.concatenate([pairs.diffs[a:a + n] for a, n in zip(starts, lengths[order])]))
        in_order = PairComparisons(pairs.item_i.astype(np.int32),
                                   pairs.item_j.astype(np.int32),
                                   pairs.offsets.astype(np.int32), pairs.diffs)
        for name in ("item_i", "item_j", "offsets", "diffs"):
            a, b = getattr(in_order, name), getattr(shuffled, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert in_order.offsets.dtype == np.int64

    @staticmethod
    def write_archive(path, offsets, item_i=(0, 1), item_j=(1, 2),
                      diffs=(1.0, -2.0, 3.0, 1.0, 2.0)):
        with open(path, "wb") as fh:
            np.savez(fh, item_i=np.asarray(item_i), item_j=np.asarray(item_j),
                     offsets=np.asarray(offsets), diffs=np.asarray(diffs))

    @pytest.mark.parametrize("kwargs", [
        {"offsets": [0, 5, 3]},  # decreasing: a silently empty pair
        {"offsets": [0, 2]},  # shorter than item_i: an IndexError
        {"offsets": [0, 2, 4]},  # ends before diffs.size: trailing diffs lost
        {"offsets": [1, 2, 5]},  # does not start at 0
        {"offsets": [0, 2, 5], "item_j": (1,)},  # unequal item arrays
        {"offsets": [0, 2, 5], "item_i": (0.0, 1.0)},  # non-integer items
        {"offsets": [0, 2, 5], "item_i": (0, 0), "item_j": (1, 1)},  # duplicate
        {"offsets": [0, 2, 5], "diffs": (1.0, math.nan, 3.0, 1.0, 2.0)},
        {"offsets": [0, 2, 5], "diffs": (1.0, -2.0, 3.0, -math.inf, 2.0)},
        {"offsets": [0, 2, 5], "diffs": (1.0, 0.0, 3.0, 1.0, 2.0)},
        {"offsets": [0, 2, 5], "item_i": (2, 1)},  # not oriented i < j
    ])
    def test_corrupt_archive_rejected(self, tmp_path, kwargs):
        path = tmp_path / "pairs.npz"
        self.write_archive(path, **kwargs)
        with pytest.raises(CorruptDataError, match="pairs.npz: "):
            load_pairs(path)

    def test_valid_archive_loads(self, tmp_path):
        path = tmp_path / "pairs.npz"
        self.write_archive(path, [0, 2, 5])
        pairs = load_pairs(path)
        assert as_dict(pairs)[(1, 2)].tolist() == [3.0, 1.0, 2.0]
