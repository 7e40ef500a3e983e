"""Seeded input generators and the benchmark's own pair builder.

Everything here is independent of ``ordrank``: the ratings file is built
from the workload seed alone, and ``build_pairs`` is the reference that the
``ingest`` output is checked against (and that writes the ``evaluate``
inputs).  Inputs reach the program only as files.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri

N_USERS = 943
N_ITEMS = 1682
MIN_PER_USER = 20
TARGET_ROWS = 100_000
DUP_SHARE = 0.01
MAX_PER_ITEM = 583
POPULARITY_SIGMA = 1.15


def write_ratings_file(path, seed: int) -> int:
    """MovieLens-100K-shaped tab file (user item rating timestamp), 1-based
    ids: log-normal item popularity, at least 20 ratings per user, 1-5 stars
    from item quality plus user bias, and about 1% duplicate (user, item)
    rows, some with tied timestamps.  Returns the row count."""
    rng = np.random.default_rng([seed, 0xDA7A])
    # item rating counts are fixed quantiles of a log-normal, shuffled over
    # the ids, so the items kept at any threshold (and so the amount of
    # work) do not move with the seed; raters are drawn by Pareto activity
    q_items = (np.arange(N_ITEMS) + 0.5) / N_ITEMS
    counts = np.exp(POPULARITY_SIGMA * ndtri(q_items))
    counts = np.clip(np.rint(counts / counts.sum() * TARGET_ROWS), 1, MAX_PER_ITEM)
    counts = rng.permutation(counts.astype(np.int64))
    q_users = (np.arange(N_USERS) + 0.5) / N_USERS
    activity = rng.permutation((1.0 - q_users) ** (-1.0 / 1.6))
    activity /= activity.sum()
    users = [rng.choice(N_USERS, c, replace=False, p=activity) + 1
             for c in counts.tolist()]
    items = [np.full(c, i + 1) for i, c in enumerate(counts.tolist())]
    users = np.concatenate(users)
    items = np.concatenate(items)
    # top up light users with rarely rated items, far below any threshold
    per_user = np.bincount(users, minlength=N_USERS + 1)[1:]
    rare = np.flatnonzero(counts < 40) + 1
    top_u, top_i = [], []
    for u in np.flatnonzero(per_user < MIN_PER_USER).tolist():
        pool = np.setdiff1d(rare, items[users == u + 1])
        top_i.append(rng.choice(pool, MIN_PER_USER - per_user[u], replace=False))
        top_u.append(np.full(top_i[-1].size, u + 1))
    users = np.concatenate([users, *top_u])
    items = np.concatenate([items, *top_i])
    quality = rng.normal(0.0, 0.7, N_ITEMS)
    bias = rng.normal(0.0, 0.45, N_USERS)
    stars = 3.55 + quality[items - 1] + bias[users - 1] + rng.normal(0.0, 0.9, users.size)
    ratings = np.clip(np.rint(stars), 1, 5).astype(np.int64)
    ts = 874_724_710 + rng.integers(0, 20_000_000, users.size)
    n_dup = int(DUP_SHARE * users.size)
    dup = rng.choice(users.size, n_dup, replace=False)
    dup_ts = ts[dup] + rng.integers(-5_000, 5_000, n_dup)
    dup_ts[: n_dup // 10] = ts[dup[: n_dup // 10]]  # exact ties: later row wins
    users = np.concatenate([users, users[dup]])
    items = np.concatenate([items, items[dup]])
    ratings = np.concatenate([ratings, rng.integers(1, 6, n_dup)])
    ts = np.concatenate([ts, dup_ts])
    order = rng.permutation(users.size)
    lines = [f"{u}\t{i}\t{r}\t{t}" for u, i, r, t in
             zip(users[order].tolist(), items[order].tolist(),
                 ratings[order].tolist(), ts[order].tolist())]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return len(lines)


def read_ratings_file(path):
    """Rows of a tab ratings file as int arrays (user, item, rating, ts)."""
    table = np.loadtxt(path, dtype=np.int64, delimiter="\t", ndmin=2)
    return table[:, 0], table[:, 1], table[:, 2], table[:, 3]


def dedup_latest(users, items, ratings, ts):
    """Keep the latest timestamp per (user, item); ties go to the later row."""
    row = np.arange(users.size)
    order = np.lexsort((row, ts, items, users))
    u, i = users[order], items[order]
    last = np.ones(order.size, dtype=bool)
    last[:-1] = (u[1:] != u[:-1]) | (i[1:] != i[:-1])
    keep = order[last]
    return users[keep], items[keep], ratings[keep]


def build_pairs(users, items, ratings, min_ratings: int):
    """Per-user signed differences r_i - r_j over pairs i < j of items rated
    at least ``min_ratings`` times, zeros dropped.  Rows must already be
    deduplicated.  Returns (item_i, item_j, offsets, diffs) with pairs in
    (i, j) order and each pair's differences sorted, the canonical form the
    ingest check compares."""
    ids, counts = np.unique(items, return_counts=True)
    kept = np.isin(items, ids[counts >= min_ratings])
    u, it, r = users[kept], items[kept], ratings[kept].astype(float)
    order = np.lexsort((it, u))
    u, it, r = u[order], it[order], r[order]
    starts = np.flatnonzero(np.r_[True, u[1:] != u[:-1]])
    sizes = np.diff(np.r_[starts, u.size])
    width = int(ids.max()) + 1
    keys, diffs = [np.empty(0, dtype=np.int64)], [np.empty(0)]
    for size in np.unique(sizes[sizes > 1]).tolist():  # users by rating count
        rows = starts[sizes == size][:, None] + np.arange(size)
        a, b = np.triu_indices(size, k=1)
        keys.append((it[rows[:, a]] * width + it[rows[:, b]]).ravel())
        diffs.append((r[rows[:, a]] - r[rows[:, b]]).ravel())
    keys, diffs = np.concatenate(keys), np.concatenate(diffs)
    nz = diffs != 0
    keys, diffs = keys[nz], diffs[nz]
    order = np.lexsort((diffs, keys))
    keys, diffs = keys[order], diffs[order]
    first = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]]) if keys.size else np.empty(0, int)
    offsets = np.r_[first, keys.size].astype(np.int64)
    pair_keys = keys[first]
    return (pair_keys // width).astype(np.int64), (pair_keys % width).astype(np.int64), offsets, diffs


def write_pairs(path, item_i, item_j, offsets, diffs) -> None:
    """The documented ``pairs.npz`` layout read by ``ordrank evaluate``."""
    with open(path, "wb") as fh:
        np.savez(fh, item_i=item_i, item_j=item_j, offsets=offsets, diffs=diffs)
