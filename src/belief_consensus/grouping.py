"""Opinion grouping: keyword tf-idf vectors, seeded k-means, group entropy.

Agents are clustered by the keyword distribution of their opinion text
(reasoning plus answer); each distinct (reasoning, answer) pair is vectorized
and clustered once, weighted by the agents holding it. Clustering is
deterministic for fixed vectors, k and restart draws, and permutation-
equivariant: centroids are seeded from the lexicographically sorted set of
distinct vectors, so reordering agents only relabels groups.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from belief_consensus.core import RoundColumns, modal_code, tally
from belief_consensus.pcg64 import _POOL_SIZE, _doubles, _pcg64_raw, _uint32_words

_TOKEN_CLEAN = re.compile(r"[^\w\s]+")

KMEANS_MAX_ITER = 100
KMEANS_SHIFT_TOL = 1e-6
KMEANS_N_INIT = 10


@dataclass(frozen=True)
class OpinionGroup:
    group_id: int
    members: tuple[str, ...]
    entropy: float
    modal_answer: str


def tokenize(text: str) -> list[str]:
    """Lowercase, strip punctuation, split on whitespace. No stemming, no stop list."""
    return _TOKEN_CLEAN.sub(" ", text.lower()).split()


def vectorize(texts: Sequence[str], counts=None) -> np.ndarray:
    """L2-normalized tf-idf vectors over the corpus vocabulary, one row per text.

    Text i stands for `counts[i]` documents (see `_counts`). idf(t) = ln((1 +
    N) / (1 + df(t))) + 1 (smoothed) over the N = sum(counts) documents; tf is
    the raw in-document count. Empty documents yield zero vectors. Each row is
    divided by its norm, `math.sqrt(row.dot(row))` as `np.linalg.norm` takes it.
    """
    if len(texts) == 0:
        raise ValueError("no opinions to vectorize")
    counts = _counts(counts, len(texts))
    docs = [tokenize(t) for t in texts]
    vocab = sorted({tok for doc in docs for tok in doc})
    index = {tok: j for j, tok in enumerate(vocab)}
    mat = np.zeros((len(docs), max(len(vocab), 1)))
    if vocab:
        cells = [i * len(vocab) + index[tok] for i, doc in enumerate(docs) for tok in doc]
        mat = np.bincount(cells, minlength=mat.size).reshape(mat.shape) * 1.0  # exact counts
        df = (counts[:, None] * (mat > 0)).sum(axis=0)
        mat *= np.log((1.0 + counts.sum()) / (1.0 + df)) + 1.0
        mat /= np.array([math.sqrt(row.dot(row)) or 1.0 for row in mat])[:, None]
    return mat


def _counts(counts, n: int) -> np.ndarray:
    """`counts` as an array, n ones if None; it must hold n positive, finite numbers."""
    counts = np.ones(n) if counts is None else np.asarray(counts)
    if counts.shape != (n,) or not 0 < counts.min() <= counts.max() < math.inf:
        raise ValueError(f"counts must be {n} positive, finite numbers, one per item")
    return counts


def _distinct_rows(vectors: np.ndarray, counts=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`np.unique(vectors, axis=0, return_inverse=True, return_counts=True)`.

    Rows are told apart by their bytes after `+ 0.0` folds -0.0 into 0.0 and
    sorted as float lists (np.unique's order if finite); row i counts counts[i].
    """
    rows = np.ascontiguousarray(vectors + 0.0)
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel().tolist()
    some_row = dict(zip(keys, range(len(keys))))  # one row index per distinct row
    ordered = sorted(some_row.values(), key=rows.tolist().__getitem__)
    rank_of = {keys[i]: rank for rank, i in enumerate(ordered)}
    inverse = np.array([rank_of[key] for key in keys], dtype=np.intp)
    return rows[ordered], inverse, np.bincount(inverse, counts, len(ordered))


def _renumber(labels: np.ndarray) -> np.ndarray:
    """Relabel so labels count up from 0 in order of first appearance."""
    seen = {}
    return np.array([seen.setdefault(x, len(seen)) for x in labels.tolist()], dtype=int)


def _sq_dists(distinct: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Squared distances (R, k, m) from each restart's k centroids to the rows.

    One centroid slot at a time, so no temporary exceeds (R, m, d); each
    entry is the last-axis sum of squared differences, the same reduction
    one centroid against all rows performs.
    """
    out = np.empty((len(centroids), centroids.shape[1], len(distinct)))
    for c in range(centroids.shape[1]):
        ((distinct - centroids[:, c, None, :]) ** 2).sum(-1, out=out[:, c])
    return out


def _restart_draws(seeds: Sequence[int], k: int) -> np.ndarray:
    """(k, len(seeds), R): for seed s and each child of
    `SeedSequence(s).spawn(KMEANS_N_INIT)`, the first k `random()` draws of
    `default_rng(child)`, all in one pass. A child's entropy is the seed's
    words, zero-padded to the pool size when shorter, then its spawn index,
    so the seeds must all be of one word count."""
    words = [_uint32_words(seed) for seed in seeds]
    lengths = sorted({len(w) for w in words})
    if len(lengths) != 1:
        raise ValueError(f"seeds must all have one 32-bit word count, got counts {lengths}")
    rows = max(lengths[0], _POOL_SIZE)
    entropy = np.zeros((rows + 1, len(seeds), KMEANS_N_INIT), np.uint32)
    entropy[:lengths[0]] = np.array(words, np.uint32).T[:, :, None]
    entropy[rows] = np.arange(KMEANS_N_INIT)
    raw = _pcg64_raw(entropy.reshape(rows + 1, -1), k)
    return _doubles(raw).reshape(k, len(seeds), KMEANS_N_INIT)


def _seed_centroids(distinct: np.ndarray, counts: np.ndarray, draws: np.ndarray) -> tuple:
    """k-means++ over the distinct rows, weighted by multiplicity, for every restart.

    Returns (R, k) row indices and the (R, k, m) `_sq_dists` of those rows.
    Pick j of restart r reads draws[j, r] and inverts the pick distribution's
    cdf exactly as `Generator.choice(m, p=p)` does, so each restart's picks
    match drawing them one restart at a time.

    Every pick is one of the m rows, so with m <= R the (m, m) table of
    squared distances between the rows is computed once and each pick reads
    its row: the table's (m, m, d) temporary is then within (R, m, d). Each
    entry is the same last-axis sum of the same squared differences as one
    pick against all rows, which larger m computes per pick.
    """
    k, restarts = draws.shape
    weights = counts / counts.sum()
    picks = np.empty((restarts, k), dtype=np.intp)
    dists = np.empty((restarts, k, len(distinct)))
    table = ((distinct - distinct[:, None, :]) ** 2).sum(-1) if len(distinct) <= restarts else None
    probs = weights  # the first pick's distribution, shared by every restart
    for j in range(k):
        cdf = probs.cumsum(axis=-1)
        cdf /= cdf[..., -1:]
        picks[:, j] = (cdf <= draws[j, :, None]).sum(axis=1)
        if table is None:
            ((distinct - distinct[picks[:, j], None, :]) ** 2).sum(-1, out=dists[:, j])
        else:
            dists[:, j] = table[picks[:, j]]
        if j == k - 1:
            break
        mass = dists[:, :j + 1].min(axis=1) * counts
        total = mass.sum(axis=1)
        flat = total <= 0.0
        probs = mass / np.where(flat, 1.0, total)[:, None]
        probs[flat] = weights
    return picks, dists


def _kmeans(distinct: np.ndarray, counts: np.ndarray, k: int, draws: np.ndarray) -> np.ndarray:
    """Best-of-KMEANS_N_INIT Lloyd k-means over the distinct rows; returns their labels.

    All restarts run as one (R, k, d) batch. A restart stops moving once its
    largest centroid shift falls below KMEANS_SHIFT_TOL; an empty cluster is
    re-seated on the row farthest from its nearest centroid. The first
    restart with the lowest inertia (by more than 1e-12) wins.

    The first pass assigns by the seeding's distances. A pass that repeats
    the previous pass's assignment with no slot empty ends the loop, as its
    update would return the centroids it started from; its distances are
    final. Otherwise the last update's centroids give the final distances.

    One update pass serves all R·k slots: a stable argsort by slot lines up
    each slot's members in row order, and step p adds every slot's p-th
    count-weighted row, or the appended zero row once the slot has run out.
    So each centroid sum is the left fold over its members that np.average
    takes for d > 1 (for d == 1 it pairs up 8 or more members); reduceat
    would pair up a slot's rows. No temporary exceeds (R, m, d).
    """
    restarts, (m, d) = KMEANS_N_INIT, distinct.shape
    slots = restarts * k
    picks, dists = _seed_centroids(distinct, counts, draws)
    centroids, previous = distinct[picks], None
    weighted = np.vstack([distinct * counts[:, None], np.zeros(d)])
    size_weights = np.tile(counts, restarts)
    first_slot = np.arange(0, slots, k)[:, None]
    sorted_at = np.arange(restarts * m)
    moving = np.ones(restarts, dtype=bool)
    for _ in range(KMEANS_MAX_ITER):
        slot = (dists.argmin(axis=1) + first_slot).ravel()  # restart r's slot c is r·k + c
        members = np.bincount(slot, minlength=slots)
        if previous is not None and members.all() and np.array_equal(slot, previous):
            break
        previous = slot
        order = np.argsort(slot, kind="stable")
        by_slot = slot[order]
        at = np.full((members.max(), slots), m)  # row of each slot's p-th member, or m
        at[sorted_at - (members.cumsum() - members)[by_slot], by_slot] = order % m
        sums = weighted[at[0]]
        for step in at[1:]:
            sums += weighted[step]
        size = np.bincount(slot, size_weights, slots)
        updated = sums / np.maximum(size, 1.0)[:, None]
        empty = np.flatnonzero(size == 0)
        if empty.size:
            far = dists.min(axis=1).argmax(axis=1)
            updated[empty] = distinct[far[empty // k]]
        updated = updated.reshape(restarts, k, d)
        shift = np.sqrt(((updated - centroids) ** 2).sum(-1)).max(axis=1)
        centroids[moving] = updated[moving]
        moving &= ~(shift < KMEANS_SHIFT_TOL)
        dists = _sq_dists(distinct, centroids)
        if not moving.any():
            break
    inertia = (dists.min(axis=1) * counts).sum(axis=1)
    best, winner = math.inf, 0
    for r, value in enumerate(inertia.tolist()):
        if value < best - 1e-12:
            best, winner = value, r
    return dists[winner].argmin(axis=0)


def cluster_opinions(vectors: np.ndarray, k: int, draws: np.ndarray, counts=None) -> np.ndarray:
    """Lloyd k-means with k-means++ seeding; returns a label per row.

    Vectors are expected L2-normalized, making squared Euclidean distance
    cosine-equivalent. Row i counts `counts[i]` times (see `_counts`); equal
    rows merge, adding their counts. Seeding restarts KMEANS_N_INIT times,
    restart r's pick j reading `draws[j, r]` (a round's slice of
    `_restart_draws`, shaped (k, KMEANS_N_INIT)), and the lowest-inertia run
    wins. With at most k distinct vectors every restart puts each in its own
    cluster, so that partition is returned directly. Labels are renumbered by
    first appearance.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if draws.shape != (k, KMEANS_N_INIT):
        raise ValueError(f"draws must be shaped {(k, KMEANS_N_INIT)}, got {draws.shape}")
    if vectors.ndim != 2 or len(vectors) == 0:
        raise ValueError("vectors must be a non-empty 2-d array")
    distinct, inverse, counts = _distinct_rows(vectors, _counts(counts, len(vectors)))
    return _renumber(inverse if len(distinct) <= k else _kmeans(distinct, counts, k, draws)[inverse])


def group_entropy(beliefs: Sequence[float]) -> float:
    """Information entropy of a group: -sum(b * ln b) over member beliefs."""
    if len(beliefs) == 0:
        raise ValueError("no beliefs")
    total = 0.0
    for b in beliefs:
        if not (0.0 < b <= 1.0):
            raise ValueError(f"invalid probability: {b!r}")
        total -= b * math.log(b)
    return total


def build_groups(opinions: RoundColumns, k: int, draws: np.ndarray) -> tuple[OpinionGroup, ...]:
    """Cluster opinions into groups and attach entropy and modal answer; `draws`
    are the round's (k, KMEANS_N_INIT) k-means restart draws.

    The distinct (reasoning, answer) pairs, in order of first appearance, are
    formatted, vectorized and clustered once each, weighted by the agents
    holding them. The answers of all groups are tallied at once. Members keep
    the round's row order.
    """
    n_answers, pairs = len(opinions.answers), {}
    inverse = [pairs.setdefault(p, len(pairs))
               for p in (opinions.text_ids * n_answers + opinions.codes).tolist()]
    held = np.bincount(inverse)
    texts = [f"{opinions.texts[p // n_answers]} {opinions.answers[p % n_answers]}" for p in pairs]
    labels = cluster_opinions(vectorize(texts, held), k, draws, held)[inverse]
    sizes = np.bincount(labels).tolist()  # labels count up from 0
    counts, sums = tally(labels * n_answers + opinions.codes, opinions.beliefs,
                         len(sizes) * n_answers)
    order = np.argsort(labels, kind="stable")
    members, beliefs = opinions.ids(order.tolist()), opinions.beliefs[order].tolist()
    groups, start = [], 0
    for gid, size in enumerate(sizes):
        end, span = start + size, slice(gid * n_answers, (gid + 1) * n_answers)
        groups.append(OpinionGroup(gid, members[start:end], group_entropy(beliefs[start:end]),
                                   opinions.answers[modal_code(counts[span], sums[span])]))
        start = end
    return tuple(groups)
