"""Seeded property sweeps for the contraction/divergence identities on
random topologies, plus the packaged property suite at reduced seed counts
(the full-strength runs live in the acceptance module) and fault-injection
pins for its batched supportive check."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from belief_consensus.dynamics import (
    DynamicsState,
    DynamicsTopology,
    averaging_increments,
    contrarian_increments,
    leader_increments,
    step_conflicting,
    step_supportive,
)
from belief_consensus.verification import (
    verify_belief_speedup,
    verify_conflict_instability,
    verify_leader_convergence,
    verify_supportive_convergence,
)


def random_sets(rng, n, require_nonempty=False):
    sets = []
    for i in range(n):
        others = [j for j in range(n) if j != i]
        size = rng.integers(1 if require_nonempty else 0, len(others) + 1)
        sets.append(tuple(sorted(rng.choice(others, size=size, replace=False).tolist())))
    return tuple(sets)


def ring_with_chords(rng, n):
    """Undirected connected topology: the ring 0-1-...-(n-1)-0 plus random chords."""
    edges = {frozenset((i, (i + 1) % n)) for i in range(n)}
    for _ in range(int(rng.integers(0, n + 1))):
        edges.add(frozenset(rng.choice(n, size=2, replace=False).tolist()))
    return tuple(tuple(sorted(j for e in edges if i in e for j in e if j != i)) for i in range(n))


@given(st.integers(min_value=2, max_value=10),
       st.integers(min_value=0, max_value=10_000),
       st.floats(min_value=0.01, max_value=4.0))
@settings(max_examples=60, deadline=None)
def test_matrix_step_matches_per_agent_rule(n, seed, step_scale):
    # x_i' = (1 - m*g)*x_i + g*sum_j x_j (averaging) or (1 + m*g)*x_i - g*sum_j x_j
    # (repulsion), to within 1e-15 of the magnitude of the terms
    rng = np.random.default_rng(seed)
    sets = random_sets(rng, n)
    leaders = tuple(sorted(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False).tolist()))
    g = step_scale / n
    topo = DynamicsTopology(sets, alpha=g, beta=g)
    state = DynamicsState(opinions=rng.uniform(-5, 5, n), beliefs=rng.uniform(0, 1, n))
    leader_sets = tuple(tuple(j for j in leaders if j != i) for i in range(n))
    supportive = step_supportive(state, topo)
    conflicting = step_conflicting(state, topo)
    leader = step_supportive(state, DynamicsTopology.with_leaders(n, leaders, alpha=g, beta=g))
    for got, x, collab, sign in (
        (supportive.opinions, state.opinions, sets, -1.0),
        (supportive.beliefs, state.beliefs, sets, -1.0),
        (conflicting.opinions, state.opinions, sets, -1.0),
        (conflicting.beliefs, state.beliefs, sets, 1.0),
        (leader.opinions, state.opinions, leader_sets, -1.0),
        (leader.beliefs, state.beliefs, leader_sets, -1.0),
    ):
        for i, c in enumerate(collab):
            m = len(c)
            want = (1.0 + sign * m * g) * x[i] - sign * g * sum(x[j] for j in c)
            scale = (1.0 + m * g) * abs(x[i]) + g * sum(abs(x[j]) for j in c)
            assert abs(got[i] - want) <= 1e-15 * scale


@given(st.integers(min_value=3, max_value=12),
       st.integers(min_value=0, max_value=10_000),
       st.floats(min_value=0.01, max_value=0.99))
@settings(max_examples=60, deadline=None)
def test_supportive_step_contracts_at_laplacian_rate(n, seed, fraction):
    # On an undirected connected topology with 0 < g < 2/lambda_max, each step
    # shrinks the deviation from the (invariant) mean by at least
    # rho = max|1 - g*lambda_i| over the nonzero Laplacian eigenvalues. The
    # default 2/n on the complete graph sits on that boundary (rho = 1), so
    # the property suite never exercises contraction itself.
    rng = np.random.default_rng(seed)
    sets = ring_with_chords(rng, n)
    laplacian = np.zeros((n, n))
    for i, c in enumerate(sets):
        laplacian[i, i] = len(c)
        laplacian[i, list(c)] = -1.0
    eig = np.linalg.eigvalsh(laplacian)  # ascending; eig[0] = 0 is the consensus direction
    g = fraction * 2.0 / eig[-1]
    rho = np.max(np.abs(1.0 - g * eig[1:]))
    assert rho < 1.0
    topo = DynamicsTopology(sets, alpha=g, beta=g)
    state = DynamicsState(opinions=rng.uniform(-1, 1, n), beliefs=rng.uniform(0, 1, n))
    for _ in range(40):
        nxt = step_supportive(state, topo)
        for before, after in ((state.opinions, nxt.opinions), (state.beliefs, nxt.beliefs)):
            e, e_next = before - before.mean(), after - after.mean()
            # the 1e-14 floor absorbs rounding once e has shrunk to ~1e-17
            assert np.linalg.norm(e_next) <= rho * np.linalg.norm(e) + 1e-14
        state = nxt


@given(st.integers(min_value=3, max_value=10), st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_averaging_increments_nonpositive_on_random_topologies(n, seed):
    rng = np.random.default_rng(seed)
    sets = random_sets(rng, n)
    values = rng.uniform(-5, 5, n)
    gamma = 2.0 / n
    actual, predicted, _ = averaging_increments(values, sets, gamma)
    mask = ~np.isnan(actual)
    assert np.all(actual[mask] <= 1e-10)
    assert np.allclose(actual[mask], predicted[mask], atol=1e-10)


@given(st.integers(min_value=2, max_value=10), st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_contrarian_increments_nonnegative_on_random_topologies(n, seed):
    rng = np.random.default_rng(seed)
    sets = random_sets(rng, n)
    values = rng.uniform(0, 1, n)
    gamma = 2.0 / n
    actual, predicted, _ = contrarian_increments(values, sets, gamma)
    mask = ~np.isnan(actual)
    assert np.all(actual[mask] >= -1e-10)
    assert np.allclose(actual[mask], predicted[mask], atol=1e-10)


@given(st.integers(min_value=3, max_value=10),
       st.integers(min_value=1, max_value=4),
       st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_leader_increments_nonpositive(n, n_leaders, seed):
    n_leaders = min(n_leaders, n - 1)
    rng = np.random.default_rng(seed)
    leaders = tuple(sorted(rng.choice(n, size=n_leaders, replace=False).tolist()))
    values = rng.uniform(-5, 5, n)
    sets = DynamicsTopology.with_leaders(n, leaders).sets
    actual, predicted = leader_increments(values, sets, 2.0 / n)
    mask = ~np.isnan(actual)
    assert np.all(actual[mask] <= 1e-10)
    assert np.allclose(actual[mask], predicted[mask], atol=1e-10)


class TestPropertySuiteSmoke:
    def test_supportive(self):
        result = verify_supportive_convergence(n_values=(3, 5, 7), seeds=10)
        assert result.passed, result.failures

    def test_conflict(self):
        result = verify_conflict_instability(seeds=15)
        assert result.passed, result.failures

    def test_leader(self):
        result = verify_leader_convergence(seeds=15)
        assert result.passed, result.failures

    def test_speedup(self):
        result = verify_belief_speedup(seeds=20, required_pass=19)
        assert result.passed, result.failures


class TestSupportiveFaultInjection:
    """Mutated step sizes through the batched supportive check. The expected
    verdicts and counts were measured on the seed-by-seed loop it replaced."""

    @pytest.mark.parametrize("sizes, passed, trajectories, checks, failures", [
        (lambda n: (2.2 / n, 2.2 / n), False, 1, 2, ["distance grew at n=3 seed=0 step=1"]),
        # not the marginal tie: every seed runs to consensus in run_dynamics
        (lambda n: (1.5 / n, 1.5 / n), True, 800, 40000, []),
        (lambda n: (2.0 / n, 2.2 / n), False, 1, 50,
         ["not converged at n=3 seed=0: belief divergence"]),
        (lambda n: ((2.3 if n >= 6 else 2.0) / n,) * 2, False, 301, 15002,
         ["distance grew at n=6 seed=0 step=1"]),
    ], ids=["2.2/n", "1.5/n", "beta-2.2/n", "2.3/n-from-n6"])
    def test_mutated_step_sizes(self, monkeypatch, sizes, passed, trajectories, checks, failures):
        monkeypatch.setattr(DynamicsTopology, "step_sizes", lambda self: sizes(self.n))
        result = verify_supportive_convergence()
        assert (result.passed, result.trajectories, result.checks, result.failures) == (
            passed, trajectories, checks, failures
        )
