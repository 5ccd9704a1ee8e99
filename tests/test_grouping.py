import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from belief_consensus import orchestrator
from belief_consensus.agents import StochasticAgent
from belief_consensus.core import Opinion, RunConfig, ScenarioCase
from belief_consensus.grouping import (
    KMEANS_N_INIT,
    _distinct_rows,
    _renumber,
    _restart_draws,
    _seed_centroids,
    build_groups,
    cluster_opinions,
    group_entropy,
    tokenize,
    vectorize,
)
from kmeans_oracle import oracle_cluster, oracle_renumber, oracle_seed_picks
from round_oracles import columns_of, oracle_build_groups, oracle_vectorize


def draws(seed, k):
    """The k-means restart draws of one clustering seed."""
    return _restart_draws([seed], k)[:, 0]


def partition_of(labels):
    groups = {}
    for i, lab in enumerate(labels):
        groups.setdefault(int(lab), set()).add(i)
    return frozenset(frozenset(g) for g in groups.values())


class TestVectorize:
    def test_identical_texts_identical_vectors(self):
        vecs = vectorize(["prime number theory", "prime number theory"])
        assert np.allclose(vecs[0], vecs[1])

    def test_single_document_reduces_to_normalized_tf(self):
        # with one document every idf is ln(2/2) + 1 = 1
        vecs = vectorize(["alpha alpha beta"])
        expected = np.array([2.0, 1.0]) / math.sqrt(5.0)
        assert np.allclose(sorted(vecs[0], reverse=True), sorted(expected, reverse=True))
        assert np.isclose(np.linalg.norm(vecs[0]), 1.0)

    def test_hand_computed_cosine(self):
        # N=2, df(prime)=2 -> idf 1; df(number)=df(factor)=1 -> idf ln(3/2)+1
        vecs = vectorize(["prime number", "prime factor"])
        cosine = float(vecs[0] @ vecs[1])
        assert cosine == pytest.approx(0.3360969272762574, rel=1e-12)

    def test_empty_text_zero_vector(self):
        vecs = vectorize(["alpha beta", ""])
        assert np.allclose(vecs[1], 0.0)

    def test_tokenize_strips_punctuation_and_case(self):
        assert tokenize("The Answer, is: (B)!") == ["the", "answer", "is", "b"]


WORDS = ("prime", "Prime", "factor", "number_3", "B", "(C)", "the", "answer", "is", "é")
PUNCTUATION = ("", " ", "!!", "...", "?-,", "(--)")


def vectorize_inputs(count, seed):
    """Text lists with repeated, empty, punctuation-only and all-identical texts."""
    rng = np.random.default_rng(seed)
    sizes = (1, 2, 7, 16, 200)
    for i in range(count):
        n = sizes[i % len(sizes)]
        n_texts = 1 if i % 7 == 0 else int(rng.integers(1, min(n, 9) + 1))
        pool = []
        for _ in range(n_texts):
            if rng.random() < 0.25:
                pool.append(str(rng.choice(PUNCTUATION)))
            else:
                words = rng.choice(WORDS, size=int(rng.integers(1, 7)))
                pool.append(" ".join(words) + str(rng.choice(PUNCTUATION)))
        yield [pool[j] for j in rng.integers(len(pool), size=n)]


class TestVectorizeOracle:
    def test_equals_per_document_fill(self):
        # vectorize takes each distinct text once, with the number of
        # documents that read it; the oracle fills every document
        kinds = {"duplicates": 0, "identical": 0, "empty": 0, "punctuation": 0}
        for i, texts in enumerate(vectorize_inputs(2000, seed=20241018)):
            slot = {}
            inverse = [slot.setdefault(t, len(slot)) for t in texts]
            got = vectorize(list(slot), np.bincount(inverse))[inverse]
            want = oracle_vectorize(texts)
            assert got.shape == want.shape and np.array_equal(got, want), f"input {i}"
            kinds["duplicates"] += len(set(texts)) < len(texts)
            kinds["identical"] += len(texts) > 1 and len(set(texts)) == 1
            kinds["empty"] += any(t.strip() == "" for t in texts)
            kinds["punctuation"] += any(not tokenize(t) for t in texts)
        assert all(count >= 100 for count in kinds.values()), kinds


class TestDistinctRows:
    @staticmethod
    def assert_as_np_unique(vectors):
        got = _distinct_rows(vectors)
        want = np.unique(vectors, axis=0, return_inverse=True, return_counts=True)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and np.array_equal(g, w.reshape(g.shape))
        # -0.0 is folded into 0.0, so no sign bit survives a zero
        assert not np.signbit(got[0][got[0] == 0.0]).any()

    def test_seeded_rows_with_repeats_and_signed_zeros(self):
        rng = np.random.default_rng(8)
        for trial in range(400):
            m, d = int(rng.integers(1, 80)), int(rng.integers(1, 7))
            pool = rng.integers(-2, 3, (int(rng.integers(1, 9)), d)).astype(float)
            if trial % 2:
                pool *= rng.random(pool.shape)  # non-integer values
            vectors = pool[rng.integers(0, len(pool), m)]
            vectors[(vectors == 0.0) & (rng.random(vectors.shape) < 0.5)] = -0.0
            self.assert_as_np_unique(vectors)

    def test_edge_shapes(self):
        rows = np.random.default_rng(2).random((6, 25))
        for vectors in (
            np.array([[0.0], [-0.0], [1.0], [0.0], [-1.0]]),  # one column
            rows[:1],  # one row
            np.repeat(rows[:1], 9, axis=0),  # all rows equal
            np.array([[1.0, 0.0, 0.0], [1.0, -0.0, 0.0], [1.0, 0.0, -0.0]]),  # trailing zeros
            vectorize([f"text {i % 4} answer" for i in range(200)]),  # tf-idf rows
        ):
            self.assert_as_np_unique(vectors)

    def test_weighted_counts(self):
        # weighted counts add up per distinct row, in row order, as bincount adds them
        rng = np.random.default_rng(26)
        shapes = [(1, 1), (1, 5), (9, 1), (40, 1)] + [
            (int(rng.integers(1, 60)), int(rng.integers(1, 6))) for _ in range(200)]
        for m, d in shapes:  # one row, one column, and seeded shapes
            pool = rng.integers(-2, 3, (int(rng.integers(1, 6)), d)) * rng.random(d)
            vectors = pool[rng.integers(0, len(pool), m)]
            vectors[(vectors == 0.0) & (rng.random(vectors.shape) < 0.5)] = -0.0
            counts = rng.integers(1, 9, m) if m % 2 else rng.random(m) * 10.0 + 1e-3
            got = _distinct_rows(vectors, counts)
            distinct, inverse = np.unique(vectors, axis=0, return_inverse=True)
            inverse = inverse.ravel()
            want = distinct, inverse, np.bincount(inverse, counts)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and np.array_equal(g, w), (m, d)


class TestRenumber:
    def assert_as_oracle(self, labels):
        got, want = _renumber(labels), oracle_renumber(labels)
        assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_single_label(self):
        for labels in ([0], [5], [3, 3, 3, 3]):
            self.assert_as_oracle(np.array(labels, dtype=np.intp))

    def test_seeded_labels_first_seen_out_of_numeric_order(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            labels = rng.integers(0, int(rng.integers(1, 12)), int(rng.integers(1, 40)))
            self.assert_as_oracle(labels)
        self.assert_as_oracle(np.array([4, 2, 9, 2, 0, 4]))

    def test_at_most_k_distinct_rows(self):
        # the short-circuit renumbers _distinct_rows' inverse, whose ranks
        # follow sorted row order, not first appearance
        rng = np.random.default_rng(3)
        for _ in range(200):
            pool = rng.random((int(rng.integers(1, 4)), 3))
            vectors = pool[rng.integers(0, len(pool), int(rng.integers(1, 12)))]
            inverse = _distinct_rows(vectors)[1]
            self.assert_as_oracle(inverse)
            assert np.array_equal(cluster_opinions(vectors, 3, draws(5, 3)),
                                  oracle_renumber(inverse))


class TestCountsRejected:
    @pytest.mark.parametrize("texts, counts", [
        (["a b", "b c", "c d"], [1]),  # would broadcast to N = 1
        (["a b", "b c"], [0, -1]),  # would give -inf and NaN rows
        (["a b", "b c"], [1, float("nan")]),
        (["a b", "b c"], [1, float("inf")]),
        (["a b"], [[1]]),
    ])
    def test_vectorize(self, texts, counts):
        with pytest.raises(ValueError, match="counts"):
            vectorize(texts, counts)

    @pytest.mark.parametrize("counts", [
        [1, 1, 1],  # one short: numpy would name its weights, not counts
        [1, 1, 1, 0],
        [1, 1, -2, 1],
        [1, float("nan"), 1, 1],
        [1, 1, 1, float("inf")],
    ])
    def test_cluster_opinions(self, counts):
        with pytest.raises(ValueError, match="counts"):
            cluster_opinions(np.eye(4), 3, draws(1, 3), counts=counts)


class TestClusterOpinions:
    def test_identical_vectors_collapse_to_one_group(self):
        vecs = vectorize(["same text here"] * 5)
        labels = cluster_opinions(vecs, 3, draws(7, 3))
        assert set(labels) == {0}

    def test_two_separated_bundles(self):
        texts = (
            ["gyromagnetic ratio planck constant moment"] * 3
            + ["land grants colonial assignment populations"] * 4
        )
        vecs = vectorize(texts)
        labels = cluster_opinions(vecs, 2, draws(11, 2))
        expected = frozenset({frozenset({0, 1, 2}), frozenset({3, 4, 5, 6})})
        assert partition_of(labels) == expected

    def test_separated_bundles_match_exhaustive_two_partition(self):
        # brute-force oracle: the best 2-partition by within-cluster variance
        rng = np.random.default_rng(5)
        base_a = np.array([1.0, 0.0, 0.0, 0.0])
        base_b = np.array([0.0, 0.0, 1.0, 0.0])
        points = []
        for _ in range(3):
            v = base_a + rng.normal(0, 0.02, 4)
            points.append(v / np.linalg.norm(v))
        for _ in range(3):
            v = base_b + rng.normal(0, 0.02, 4)
            points.append(v / np.linalg.norm(v))
        points = np.array(points)

        def sse(index_sets):
            total = 0.0
            for idx in index_sets:
                sub = points[list(idx)]
                total += float(np.sum((sub - sub.mean(axis=0)) ** 2))
            return total

        best = None
        best_sse = math.inf
        n = len(points)
        for mask in range(1, 2 ** (n - 1)):
            left = frozenset(i for i in range(n) if (mask >> i) & 1)
            right = frozenset(range(n)) - left
            if not left or not right:
                continue
            cost = sse([left, right])
            if cost < best_sse:
                best_sse = cost
                best = frozenset({left, right})

        labels = cluster_opinions(points, 2, draws(3, 2))
        assert partition_of(labels) == best

    def test_deterministic_for_fixed_seed(self):
        rng = np.random.default_rng(0)
        vecs = rng.uniform(0, 1, size=(9, 6))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        a = cluster_opinions(vecs, 3, draws(42, 3))
        b = cluster_opinions(vecs, 3, draws(42, 3))
        assert np.array_equal(a, b)

    def test_k_reduced_to_distinct_count(self):
        vecs = vectorize(["one two", "one two", "three four"])
        labels = cluster_opinions(vecs, 3, draws(1, 3))
        assert len(set(labels)) == 2

    def test_k_below_one_rejected(self):
        with pytest.raises(ValueError):
            cluster_opinions(np.ones((2, 2)), 0, draws(1, 1))

    @given(st.integers(min_value=0, max_value=2 ** 31 - 1), st.permutations(list(range(8))))
    @settings(max_examples=25, deadline=None)
    def test_permutation_equivariance(self, seed, perm):
        rng = np.random.default_rng(seed)
        centers = np.eye(3)
        vecs = []
        for i in range(8):
            v = centers[i % 3] + rng.normal(0, 0.05, 3)
            vecs.append(v / np.linalg.norm(v))
        vecs = np.array(vecs)
        labels = cluster_opinions(vecs, 3, draws(seed, 3))
        permuted = cluster_opinions(vecs[perm], 3, draws(seed, 3))
        original_partition = partition_of(labels)
        # map permuted indices back to the original ids before comparing
        back = frozenset(
            frozenset(perm[i] for i in grp) for grp in partition_of(permuted)
        )
        assert back == original_partition


# k = 4 over 17 rows in 2-D: one of the ten restarts leaves a cluster empty,
# re-seats it on the farthest row and ends with the lowest inertia, so its
# labels are the result.
RESEAT_VECTORS = [
    [0.3, 0.8], [0.5, 0.9], [0.7, 0.5], [0.1, 0.4], [0.7, 0.5], [0.7, 0.5],
    [0.3, 0.6], [0.1, 0.4], [0.1, 0.4], [0.1, 0.4], [0.9, 0.3], [0.1, 0.4],
    [0.7, 0.5], [0.7, 0.5], [0.7, 0.5], [0.2, 0.2], [0.7, 0.5],
]
RESEAT_K = 4
RESEAT_SEED = 315076144

# k = 3 over 19 rows in 1-D, 9 distinct. np.average adds each cluster's
# members here in row order; pairing them up instead, as numpy's plain sum
# over the member axis does, moves a centroid by an ulp, which breaks a
# distance tie and changes the labels.
SUM_ORDER_VECTORS = [
    0.5, 0.0, 0.0, 0.6, 0.9, 0.0, 0.1, 0.3, 0.9, 0.1, 0.5, 0.7, 0.2, 0.0, 0.8, 0.0, 0.1, 0.0,
    0.7,
]
SUM_ORDER_K = 3
SUM_ORDER_SEED = 2132435355

# k = 4 over 9 rows in 1-D, built by hand so that a restart's second pass
# leaves slot 1 empty while slot 0 holds only row 0.0, the row farthest from
# its centroid. Slot 1 is re-seated on that row, loses the tie to slot 0, and
# the third pass repeats the second's assignment with slot 1 still empty: the
# loop must re-seat again, where a stop on any repeated assignment would keep
# three clusters and return [0, 1, 2, 2, 2, 3, 3, 3, 3]. Of the seeds 0-60,000,
# this is the one on which that restart decides the labels, found by a search
# against the loop oracle.
RESEAT_REPEAT_VECTORS = [0.0, 2.0, 2.7, 3.0, 3.4, 4.6, 4.7, 4.7, 5.9]
RESEAT_REPEAT_K = 4
RESEAT_REPEAT_SEED = 4069

# Inputs whose update pass leaves a slot empty, found by a seeded search over
# 0.1-rounded rows with repeats; on each the loop oracle re-seats a cluster.
EMPTY_SLOT_INPUTS = {
    # k = 5 over 30 rows in 2-D: restart 2's slot 3 empties between two
    # non-empty slots, and re-seating it on the farthest row of another
    # restart changes the labels
    "middle-slot": ([
        [0.2, 0.4], [0.8, 0.9], [0.4, 0.3], [0.1, 0.6], [1.0, 0.5], [0.1, 0.6], [1.0, 0.5],
        [0.5, 0.3], [0.3, 0.7], [0.1, 0.6], [0.8, 0.5], [0.4, 0.3], [0.1, 0.6], [0.1, 0.6],
        [0.8, 0.5], [1.0, 0.5], [0.1, 0.6], [0.1, 0.6], [0.8, 0.5], [0.8, 0.9], [0.5, 0.3],
        [0.2, 0.4], [0.1, 0.6], [0.5, 0.3], [0.2, 0.4], [0.8, 0.9], [0.1, 0.6], [1.0, 0.5],
        [0.5, 0.3], [0.5, 0.3],
    ], 5, 996991342),
    # k = 3 over 24 rows in 1-D: the last slot of the last restart, the last
    # of all R·k slots, is empty
    "last-slot": ([
        [0.6], [0.5], [0.1], [0.2], [0.1], [0.6], [0.8], [0.5], [0.1], [0.1], [0.2], [0.2],
        [0.1], [0.6], [0.5], [0.8], [0.1], [0.6], [0.2], [0.2], [0.2], [0.1], [0.1], [0.8],
    ], 3, 1187252001),
}
# Inputs in 1-D whose labels change when some cluster's members are added in
# another order than row order, found by the same search: the first when the
# argsort by slot is not stable (on an AVX-512 host), the second when each
# slot's members are added last row first.
MEMBER_ORDER_INPUTS = {
    "unstable-sort": ([0.9, 0.3, 0.6, 0.4, 0.6, 1.0, 0.9, 0.4, 0.8, 0.5, 0.5, 0.3], 4, 2127568982),
    "reversed": ([0.0, 0.0, 0.4, 0.1, 0.3, 0.2, 0.1, 0.3], 3, 2042853791),
}


def oracle_inputs(count, seed):
    """Seeded (vectors, k, seed) triples in 1-5 dimensions.

    Each input mixes, at random, rows drawn with repeats from a small pool,
    all-zero rows, rows rounded to 0.1 and L2-normalized rows. Large n is
    drawn rarely because the loop oracle is slow there.
    """
    rng = np.random.default_rng(seed)
    sizes = [3, 5, 7, 12, 30, 200]
    for _ in range(count):
        n = int(rng.choice(sizes, p=[0.2, 0.2, 0.2, 0.2, 0.17, 0.03]))
        d = int(rng.integers(1, 6))
        vecs = rng.normal(size=(n, d)) if rng.random() < 0.3 else rng.uniform(0, 1, (n, d))
        if rng.random() < 0.5:
            vecs = vecs[rng.integers(0, int(rng.integers(1, n + 1)), n)]
        if rng.random() < 0.5:
            vecs = np.round(vecs, 1)
        if rng.random() < 0.3:
            norms = np.linalg.norm(vecs, axis=1, keepdims=True)
            vecs = np.divide(vecs, norms, out=np.zeros_like(vecs), where=norms > 0)
        if rng.random() < 0.3:
            vecs[rng.random(n) < 0.3] = 0.0
        yield vecs, int(rng.integers(1, 6)), int(rng.integers(0, 2 ** 31))


class TestBatchedKMeansOracle:
    """The batched restarts return exactly the labels of the one-at-a-time loop."""

    def test_labels_equal_loop_oracle(self):
        regimes = {"m <= k": 0, "m > k": 0}
        for i, (vecs, k, seed) in enumerate(oracle_inputs(3000, seed=20240611)):
            distinct = len(np.unique(vecs, axis=0))
            regimes["m <= k" if distinct <= k else "m > k"] += 1
            got = cluster_opinions(vecs, k, draws(seed, k))
            want = oracle_cluster(vecs, k, seed)
            assert np.array_equal(got, want), (i, vecs.shape, k, seed)
        assert min(regimes.values()) >= 500, regimes

    def test_empty_cluster_reseat_input(self):
        # found by a seeded search over 0.1-rounded inputs with repeated rows
        vecs = np.array(RESEAT_VECTORS)
        reseats = []
        want = oracle_cluster(vecs, RESEAT_K, RESEAT_SEED, reseats)
        assert reseats
        got = cluster_opinions(vecs, RESEAT_K, draws(RESEAT_SEED, RESEAT_K))
        assert np.array_equal(got, want)

    def test_reseat_then_repeated_assignment(self):
        vecs, reseats = np.array(RESEAT_REPEAT_VECTORS)[:, None], []
        k, seed = RESEAT_REPEAT_K, RESEAT_REPEAT_SEED
        want = oracle_cluster(vecs, k, seed, reseats)
        assert reseats and want.tolist() == [0, 1, 1, 1, 1, 2, 2, 2, 3]
        assert np.array_equal(cluster_opinions(vecs, k, draws(seed, k)), want)

    def test_one_dimensional_member_sum_order(self):
        vecs = np.array(SUM_ORDER_VECTORS)[:, None]
        want = oracle_cluster(vecs, SUM_ORDER_K, SUM_ORDER_SEED)
        got = cluster_opinions(vecs, SUM_ORDER_K, draws(SUM_ORDER_SEED, SUM_ORDER_K))
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("name", sorted(EMPTY_SLOT_INPUTS))
    def test_empty_slot_edges(self, name):
        vecs, k, seed = EMPTY_SLOT_INPUTS[name]
        vecs, reseats = np.array(vecs), []
        want = oracle_cluster(vecs, k, seed, reseats)
        assert reseats
        assert np.array_equal(cluster_opinions(vecs, k, draws(seed, k)), want)

    @pytest.mark.parametrize("name", sorted(MEMBER_ORDER_INPUTS))
    def test_members_add_in_row_order(self, name):
        vecs, k, seed = MEMBER_ORDER_INPUTS[name]
        vecs = np.array(vecs)[:, None]
        want = oracle_cluster(vecs, k, seed)
        assert np.array_equal(cluster_opinions(vecs, k, draws(seed, k)), want)


def seeding_inputs(m, seed):
    """Seeded (rows, counts, draws) for `_seed_centroids` at m rows, in 1 to
    150 dimensions (so the last-axis sums take numpy's plain, unrolled and
    pairwise paths): random, 0.1-rounded or L2-normalized rows; rows repeated
    from a pool of 1-3, whose masses go flat; and rows of signed zeros and
    ones. Counts go up to 5, and some draws sit at 0 and just below 1."""
    rng = np.random.default_rng(seed)
    for d in (1, 3, 9, 40, 150):
        for kind in ("random", "repeated", "signed zeros"):
            for _ in range(8):
                rows = rng.uniform(-1, 1, (m, d))
                if kind == "random" and rng.random() < 0.5:
                    rows = np.round(rows, 1)
                if kind == "random" and rng.random() < 0.5:
                    norms = np.linalg.norm(rows, axis=1, keepdims=True)
                    rows = np.divide(rows, norms, out=np.zeros_like(rows), where=norms > 0)
                if kind == "repeated":
                    rows = rows[rng.integers(0, int(rng.integers(1, 4)), m)]
                if kind == "signed zeros":
                    rows = rng.choice([-0.0, 0.0, 1.0], (m, d), p=[0.45, 0.45, 0.1])
                draws = rng.random((int(rng.integers(1, 6)), KMEANS_N_INIT))
                draws[rng.random(draws.shape) < 0.1] = 0.0
                draws[rng.random(draws.shape) < 0.1] = 1.0 - 2.0 ** -53
                yield rows, rng.integers(1, 6, m) * 1.0, draws


class TestSeedCentroids:
    """The k-means++ seeding, from the distance table (m <= R) and per pick
    (m > R), equals the per-pick reference bit for bit."""

    @pytest.mark.parametrize("m", [KMEANS_N_INIT, KMEANS_N_INIT + 1],
                             ids=["table", "per-pick"])
    def test_picks_and_distances_equal_per_pick_reference(self, m):
        flat = signed = 0
        for i, (rows, counts, draws) in enumerate(seeding_inputs(m, seed=m)):
            picks, dists = _seed_centroids(rows, counts, draws)
            want_picks, want_dists, flat_picks = oracle_seed_picks(rows, counts, draws)
            assert np.array_equal(picks, want_picks), i
            assert dists.tobytes() == want_dists.tobytes(), i
            flat += bool(flat_picks)
            signed += bool(np.signbit(rows).any() and (rows == 0).all(axis=1).sum() > 1)
        assert flat >= 10 and signed >= 10, (flat, signed)


def spawned_draws(seed, k):
    """(k, KMEANS_N_INIT): the first k random() draws of each spawned child."""
    children = np.random.SeedSequence(seed).spawn(KMEANS_N_INIT)
    rngs = [np.random.default_rng(child) for child in children]
    return [[rng.random() for rng in rngs] for _ in range(k)]


class TestRestartDraws:
    # one to five 32-bit words: SeedSequence pads a spawned child's entropy
    # shorter than its pool of 4 words with zeros, and a longer one not at all
    @pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 + 1, 2**96, 2**128 + 5])
    def test_equal_spawned_generator_draws(self, seed):
        for k in range(1, 6):
            assert np.array_equal(_restart_draws([seed], k)[:, 0], spawned_draws(seed, k))

    @pytest.mark.parametrize("seeds", [
        [0, 1, 2**31 - 1, 2**32 - 1, 7, 7],  # one word each, as a case's rounds have
        [2**32, 2**63 + 9, 2**64 - 1],
        [2**128 + 5, 2**159 + 3],
    ])
    def test_many_seeds_in_one_pass(self, seeds):
        for k in (1, 3, 5):
            got = _restart_draws(seeds, k)
            assert got.shape == (k, len(seeds), KMEANS_N_INIT)
            for s, seed in enumerate(seeds):
                assert np.array_equal(got[:, s], spawned_draws(seed, k))

    def test_seeds_of_different_word_counts_raise(self):
        with pytest.raises(ValueError, match=r"one 32-bit word count, got counts \[1, 2\]"):
            _restart_draws([5, 2**32], 3)
        with pytest.raises(ValueError, match="word count"):
            _restart_draws([], 3)


class TestGroupEntropy:
    def test_certain_belief_zero_entropy(self):
        assert group_entropy([1.0]) == 0.0

    def test_two_halves(self):
        assert group_entropy([0.5, 0.5]) == pytest.approx(0.6931, abs=1e-4)

    def test_single_half(self):
        assert group_entropy([0.5]) == pytest.approx(0.3466, abs=1e-4)

    def test_invalid_belief(self):
        with pytest.raises(ValueError):
            group_entropy([0.5, 0.0])
        with pytest.raises(ValueError):
            group_entropy([])

    @given(st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=2, max_size=10),
           st.integers(min_value=1, max_value=9))
    def test_additive_over_members(self, beliefs, cut):
        cut = min(cut, len(beliefs) - 1)
        whole = group_entropy(beliefs)
        parts = group_entropy(beliefs[:cut]) + group_entropy(beliefs[cut:])
        assert whole == pytest.approx(parts, rel=1e-12, abs=1e-12)


class TestBuildGroups:
    def _opinions(self):
        return [
            Opinion("a1", "gyromagnetic ratio planck constant", "B", 0.4),
            Opinion("a2", "gyromagnetic ratio planck constant", "B", 0.6),
            Opinion("a3", "land grants colonial assignment", "C", 0.5),
            Opinion("a4", "land grants colonial assignment", "C", 0.7),
        ]

    def test_partition_property(self):
        groups = build_groups(columns_of(self._opinions()), 2, draws(9, 2))
        seen = [m for g in groups for m in g.members]
        assert sorted(seen) == ["a1", "a2", "a3", "a4"]

    def test_entropy_matches_recomputation(self):
        ops = self._opinions()
        by_id = {op.agent_id: op for op in ops}
        for g in build_groups(columns_of(ops), 2, draws(9, 2)):
            expected = group_entropy([by_id[m].belief for m in g.members])
            assert g.entropy == pytest.approx(expected, abs=1e-12)

    def test_modal_answers(self):
        groups = build_groups(columns_of(self._opinions()), 2, draws(9, 2))
        by_members = {g.members: g.modal_answer for g in groups}
        assert by_members[("a1", "a2")] == "B"
        assert by_members[("a3", "a4")] == "C"


def stochastic_rounds(monkeypatch, n, cases):
    """Every round of `cases` seeded stochastic cases at n agents, as
    `run_case` hands them to `build_groups`."""
    rounds = []

    def recording(opinions, k, draws):
        rounds.append(opinions)
        return build_groups(opinions, k, draws)

    monkeypatch.setattr(orchestrator, "build_groups", recording)
    words = ("mass", "field", "spin", "charge")
    for c in range(cases):
        question = " ".join(f"{letter}) {c * 7 + i} {words[(c + i) % 4]}"
                            for i, letter in enumerate("ABCD"))
        cfg = RunConfig(n=n, max_rounds=5, seed=n + c, n_clusters=3)
        agent = StochasticAgent(seed=n + c, rounds=cfg.max_rounds)
        orchestrator.run_case(ScenarioCase(f"case-{c}", f"Which value? {question}", "A"), cfg,
                              {f"agent-{i}": agent for i in range(n)})
    return rounds


class TestBuildGroupsOracle:
    """Clustering each distinct (reasoning, answer) pair once, weighted by the
    agents holding it, gives the groups of clustering every agent's text."""

    @pytest.mark.parametrize("n, cases", [(7, 12), (60, 3), (200, 2)])
    def test_equals_per_agent_path_on_stochastic_rounds(self, monkeypatch, n, cases):
        rounds = stochastic_rounds(monkeypatch, n, cases)
        clustered = 0
        for i, round_ in enumerate(rounds):
            pairs = set(zip(round_.text_ids.tolist(), round_.codes.tolist()))
            clustered += len(pairs) > 3
            seed = 1000 * n + i
            assert build_groups(round_, 3, draws(seed, 3)) == oracle_build_groups(round_, 3, seed)
        assert clustered >= len(rounds) // 2, (clustered, len(rounds))

    def test_pairs_that_format_to_one_string(self):
        # ("x y", "z") and ("x", "y z") both read "x y z": two pairs, one row,
        # whose counts add up
        round_ = columns_of([
            Opinion("a1", "x y", "z", 0.5), Opinion("a2", "x", "y z", 0.6),
            Opinion("a3", "p q", "r", 0.7), Opinion("a4", "x y", "w", 0.4),
            Opinion("a5", "s", "t", 0.9), Opinion("a6", "x", "y z", 0.3),
        ])
        for seed in range(40):
            groups = build_groups(round_, 2, draws(seed, 2))
            assert groups == oracle_build_groups(round_, 2, seed)
            assert any({"a1", "a2", "a6"} <= set(g.members) for g in groups)

    def test_strings_with_one_tf_idf_row(self):
        # the same words in another order are two strings with one row
        round_ = columns_of([
            Opinion("b1", "alpha beta", "A", 0.5), Opinion("b2", "beta alpha", "A", 0.8),
            Opinion("b3", "gamma delta", "B", 0.6), Opinion("b4", "alpha gamma", "C", 0.7),
            Opinion("b5", "delta", "A", 0.9), Opinion("b6", "beta alpha", "A", 0.2),
        ])
        vectors = vectorize(["alpha beta A", "beta alpha A"])
        assert np.array_equal(vectors[0], vectors[1])
        for seed in range(40):
            groups = build_groups(round_, 2, draws(seed, 2))
            assert groups == oracle_build_groups(round_, 2, seed)
            assert any({"b1", "b2", "b6"} <= set(g.members) for g in groups)
