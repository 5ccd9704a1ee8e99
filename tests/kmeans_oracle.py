"""Reference k-means for test use: one restart at a time, one centroid at a time.

This is the loop form `grouping.cluster_opinions` replaced, kept so tests can
require the batched code to return the identical labels. k-means++ seeding
over the distinct rows weighted by multiplicity, Lloyd iterations with
`np.average` per cluster, an empty cluster re-seated on the farthest distinct
row, KMEANS_N_INIT restarts from `SeedSequence(seed).spawn`, and the first
restart with the lowest inertia (by more than 1e-12) wins. Labels are
renumbered by first appearance.

`reseats`, when given, is a list that receives one entry per empty-cluster
re-seat, so a test can show that an input reaches that branch.

`oracle_renumber` is the `np.unique` form of `grouping._renumber`, which a
dict pass replaced.

`oracle_seed_picks` is the k-means++ seeding of `grouping._seed_centroids`
one restart and one pick at a time, each pick's distances computed against
all rows, so a test can require the batched seeding's picks and distances
bit for bit.
"""

import math

import numpy as np

from belief_consensus.grouping import KMEANS_MAX_ITER, KMEANS_N_INIT, KMEANS_SHIFT_TOL


def _seed_centroids(distinct, counts, k, rng):
    """k-means++ over the distinct rows, weighted by multiplicity."""
    weights = counts / counts.sum()
    first = rng.choice(len(distinct), p=weights)
    centroids = [distinct[first]]
    for _ in range(1, k):
        d2 = np.min(
            [np.sum((distinct - c) ** 2, axis=1) for c in centroids], axis=0
        )
        mass = d2 * counts
        total = mass.sum()
        if total <= 0.0:
            probs = weights
        else:
            probs = mass / total
        centroids.append(distinct[rng.choice(len(distinct), p=probs)])
    return np.array(centroids)


def oracle_seed_picks(distinct, counts, draws):
    """(R, k) picks, (R, k, m) squared distances and the (restart, pick) pairs
    whose pick read the flat weights: restart r's pick j inverts its cdf at
    draws[j, r] as `Generator.choice` does."""
    k, restarts = draws.shape
    weights = counts / counts.sum()
    picks = np.empty((restarts, k), dtype=np.intp)
    dists = np.empty((restarts, k, len(distinct)))
    flat = []
    for r in range(restarts):
        probs = weights
        for j in range(k):
            cdf = probs.cumsum()
            cdf /= cdf[-1]
            picks[r, j] = np.searchsorted(cdf, draws[j, r], side="right")
            dists[r, j] = np.sum((distinct - distinct[picks[r, j]]) ** 2, axis=1)
            if j == k - 1:
                break
            mass = dists[r, :j + 1].min(axis=0) * counts
            total = mass.sum()
            if total <= 0.0:
                probs = weights
                flat.append((r, j + 1))
            else:
                probs = mass / total
    return picks, dists, flat


def _lloyd(distinct, counts, k_eff, rng, reseats):
    centroids = _seed_centroids(distinct, counts, k_eff, rng)
    for _ in range(KMEANS_MAX_ITER):
        dists = np.array([np.sum((distinct - c) ** 2, axis=1) for c in centroids])
        assign = np.argmin(dists, axis=0)
        new_centroids = centroids.copy()
        for c in range(k_eff):
            mask = assign == c
            if mask.any():
                new_centroids[c] = np.average(distinct[mask], axis=0, weights=counts[mask])
            else:
                # re-seat an empty cluster on the farthest distinct vector
                far = np.argmax(np.min(dists, axis=0))
                new_centroids[c] = distinct[far]
                reseats.append(far)
        shift = float(np.max(np.linalg.norm(new_centroids - centroids, axis=1)))
        centroids = new_centroids
        if shift < KMEANS_SHIFT_TOL:
            break
    dists = np.array([np.sum((distinct - c) ** 2, axis=1) for c in centroids])
    assign = np.argmin(dists, axis=0)
    inertia = float(np.sum(np.min(dists, axis=0) * counts))
    return assign, inertia


def oracle_cluster(vectors, k, seed, reseats=None):
    reseats = [] if reseats is None else reseats
    distinct, inverse, counts = np.unique(
        vectors, axis=0, return_inverse=True, return_counts=True
    )
    inverse = inverse.ravel()
    k_eff = min(k, len(distinct))
    assign = None
    best = math.inf
    for child in np.random.SeedSequence(seed).spawn(KMEANS_N_INIT):
        candidate, inertia = _lloyd(distinct, counts, k_eff, np.random.default_rng(child),
                                    reseats)
        if inertia < best - 1e-12:
            best = inertia
            assign = candidate
    labels = assign[inverse]
    remap: dict[int, int] = {}
    out = np.empty(len(labels), dtype=int)
    for i, lab in enumerate(labels):
        if lab not in remap:
            remap[lab] = len(remap)
        out[i] = remap[lab]
    return out


def oracle_renumber(labels):
    """Relabel so labels count up from 0 in order of first appearance."""
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    rank = np.empty(len(first), dtype=int)
    rank[np.argsort(first)] = np.arange(len(first))
    return rank[inverse.ravel()]
