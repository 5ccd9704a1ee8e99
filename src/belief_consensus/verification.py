"""Executable checks for the four convergence properties of the dynamics.

Each check simulates seeded trajectories and verifies the per-step increment
identities algebraically (not just their signs), then the trajectory-level
verdicts. The seeds run as (seeds, n) batches through `dynamics.run_rows`,
each row stepped as it would be alone; the counts and the first failure
reported are those of checking one seed at a time in order. Each state is
stepped once, by the increment helper that checks it; opinions and beliefs
step as one (2, seeds, n) stack where their signs agree. Uniform initial
states come from one PCG64 pass per batch (`uniform_draws`). The identity
comparison is relative to the squared magnitude of the state, which is the
scale floating point can actually support.

These functions are the oracle behind the acceptance suite, and the
`simulate` CLI command runs them.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from belief_consensus.dynamics import (
    DynamicsTopology,
    REASON_DIVERGENCE,
    averaging_increments,
    contrarian_increments,
    laplacian_step,
    leader_increments,
    run_batch,
    run_rows,
    within_tol,
)
# bench/tracer.py wraps these four names here, beside the three increment
# helpers the checks call, and fails on a name that is missing; nothing here
# calls them
from belief_consensus.dynamics import (  # noqa: F401
    run_dynamics,
    step_conflicting,
    step_leader_follow,
    step_supportive,
)
from belief_consensus.pcg64 import _doubles, _pcg64_raw, _uint32_words

IDENTITY_RTOL = 1e-12


@dataclass
class PropertyResult:
    name: str
    trajectories: int
    checks: int
    failures: list[str]
    elapsed: float

    @property
    def passed(self) -> bool:
        return not self.failures

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        msg = (
            f"{status} {self.name}: {self.trajectories} trajectories, "
            f"{self.checks} step checks [{self.elapsed:.1f}s]"
        )
        if self.failures:
            msg += f" first failure: {self.failures[0]}"
        return msg


def _scale_sq(values: np.ndarray):
    """max(1, max|x|)^2 of a vector, or per row of a (seeds, n) batch."""
    return np.maximum(1.0, np.abs(values).max(axis=-1, keepdims=values.ndim > 1)) ** 2


# The checks below reduce over agents: a bool for one vector, one per row of a
# batch. `isolated` marks the agents with no collaborators (degree 0), whose
# increments are NaN by definition and are skipped; any other NaN fails.

def _identity_ok(actual, predicted, scale_sq, isolated):
    ok = np.abs(actual - predicted) <= IDENTITY_RTOL * scale_sq
    return (ok | isolated).all(axis=-1)


def _sign_ok(actual, scale_sq, nonpositive: bool, isolated):
    slack = IDENTITY_RTOL * scale_sq
    ok = actual <= slack if nonpositive else actual >= -slack
    return (ok | isolated).all(axis=-1)


def _walk(outcomes) -> tuple[int, int, list[str]]:
    """Add up per-seed (step checks, failure message or None) in seed order,
    as a seed-by-seed loop would, stopping at the first failing seed. Returns
    the checks added up, the number of seeds walked and the failures."""
    checks = 0
    for s, (step_checks, failure) in enumerate(outcomes, 1):
        checks += step_checks
        if failure is not None:
            return checks, s, [failure]
    return checks, len(outcomes), []


def uniform_draws(master_seed: int, key: int, seeds: int, *bounds) -> list[np.ndarray]:
    """What `default_rng(SeedSequence([master_seed, key, s])).uniform(low,
    high, size)` draws for each (low, high, size) of `bounds` in turn, as one
    (seeds, size) array per bound for s < seeds, from one PCG64 pass."""
    words = np.array(_uint32_words(master_seed) + _uint32_words(key) + [0], np.uint32)
    words = np.repeat(words[:, None], seeds, axis=1)
    words[-1] = np.arange(seeds)
    sizes = [size for _, _, size in bounds]
    unit = _doubles(_pcg64_raw(words, sum(sizes)))
    parts = np.split(unit.T, np.cumsum(sizes)[:-1], axis=1)
    return [low + (high - low) * u for (low, high, _), u in zip(bounds, parts)]


def verify_supportive_convergence(
    n_values: Sequence[int] = tuple(range(3, 11)),
    seeds: int = 100,
    tol: float = 1e-9,
    max_steps: int = 10_000,
    identity_steps: int = 50,
    master_seed: int = 0,
) -> PropertyResult:
    """All-pairs supportive collaboration at step size 2/n.

    Verifies the squared-distance increment identity and its nonpositive sign
    at every checked step, and that every trajectory's verdict is converged.
    At exactly 2/n on the complete topology the deviation map is a pure
    reflection, so trajectories come back flagged as marginal contraction;
    for those the constancy of each agent's distance to its collaborator
    mean is verified explicitly.

    All seeds of one n run as one batch; the first failure and the counts
    reported are those of checking seed by seed in order.
    """
    t0 = time.perf_counter()
    outcomes = []
    for n in n_values:
        topo = DynamicsTopology.all_pairs(n)
        a = topo.adjacency
        gamma = np.array(topo.step_sizes())[:, None, None]
        isolated = a.sum(axis=-1) == 0

        def identity_step(state, carry, k):
            # the identity, its nonpositive sign, then that no distance to the collaborator
            # mean grew (the marginal tie keeps them constant, contraction shrinks them)
            prev_dists, = carry  # infinite before step 0, so nothing grew there
            sc = _scale_sq(state)
            actual, predicted, dist_sq, state = averaging_increments(state, a, gamma)
            dists = np.sqrt(dist_sq[0])
            atol = 1e-12 * np.maximum(1.0, np.max(dists, axis=1, keepdims=True))
            constant = np.all(np.abs(dists - prev_dists) <= atol, axis=1)
            grew = ~constant & np.any(dists > prev_dists + 1e-12, axis=1)
            return state, (dists,), (
                (_identity_ok(actual, predicted, sc, isolated).all(axis=0), "identity violated"),
                (_sign_ok(actual, sc, True, isolated).all(axis=0), "positive increment"),
                (~grew, "distance grew"),
            )

        state = np.stack(uniform_draws(master_seed, n, seeds, (-1.0, 1.0, n), (0.0, 1.0, n)))
        checks, first, _ = run_rows(state, identity_steps, identity_step,
                                    carry=(np.full((seeds, n), np.inf),))
        ok = np.array([f is None for f in first])
        verdict = run_batch(state[:, ok], topo, "supportive", tol=tol, max_steps=max_steps)
        gap = np.ptp(verdict.final[0], axis=1) >= tol
        verdicts = iter(zip(verdict.reasons, verdict.converged, verdict.marginal, gap))
        for s, (c, f) in enumerate(zip(checks.tolist(), first)):
            if f is not None:
                outcomes.append((c, f"{f[1]} at n={n} seed={s} step={f[0]}"))
                continue
            reason, converged, marginal, gap_above = next(verdicts)
            outcomes.append((c, f"not converged at n={n} seed={s}: {reason}" if not converged
                             else f"opinion gap above tol at n={n} seed={s}"
                             if not marginal and gap_above else None))

    checks, trajectories, failures = _walk(outcomes)
    return PropertyResult("supportive convergence (all-pairs averaging)", trajectories, checks,
                          failures, time.perf_counter() - t0)


def verify_conflict_instability(
    seeds: int = 100,
    n_choices: Sequence[int] = (2, 3, 4, 5, 6, 7, 8),
    identity_steps: int = 30,
    master_seed: int = 0,
) -> PropertyResult:
    """Mutual-conflict pairs with unequal beliefs must diverge in belief.

    Checks the nonnegative belief increment identity and the nonpositive
    opinion increment identity at every step, and that the run is flagged
    non-convergent with the belief-divergence reason. The seeds of one n run
    as one batch.
    """
    t0 = time.perf_counter()
    states = []
    for s in range(seeds):
        rng = np.random.default_rng(np.random.SeedSequence([master_seed, 17, s]))
        n = int(rng.choice(n_choices))
        beliefs = rng.uniform(0.0, 1.0, n)
        for i in range(0, n - 1, 2):
            if abs(beliefs[i] - beliefs[i + 1]) < 1e-3:
                beliefs[i] += 0.1  # enforce the unequal-beliefs premise
        states.append((rng.uniform(-1.0, 1.0, n), beliefs))

    outcomes: list = [None] * seeds
    for n in sorted({len(op) for op, _ in states}):
        topo = DynamicsTopology.mutual_conflict_pairs(n)
        alpha, beta = topo.step_sizes()
        a = topo.adjacency
        isolated = a.sum(axis=-1) == 0

        def identity_step(state, carry, k):
            sc_op, sc_be = _scale_sq(state)
            new = np.empty_like(state)
            a_op, p_op, _, new[0] = averaging_increments(state[0], a, alpha)
            a_be, p_be, _, new[1] = contrarian_increments(state[1], a, beta)
            return new, carry, (
                (_identity_ok(a_op, p_op, sc_op, isolated)
                 & _identity_ok(a_be, p_be, sc_be, isolated), "identity violated"),
                (_sign_ok(a_op, sc_op, True, isolated), "opinion increment positive"),
                (_sign_ok(a_be, sc_be, False, isolated), "belief increment negative"),
            )

        idx = [s for s, (op, _) in enumerate(states) if len(op) == n]
        state = np.stack([states[s] for s in idx], axis=1)  # (2, rows, n)
        checks, first, _ = run_rows(state, identity_steps, identity_step)
        ok = np.array([f is None for f in first])
        verdict = run_batch(state[:, ok], topo, "conflicting", max_steps=500)
        verdicts = iter(zip(verdict.reasons, verdict.converged))
        for s, c, f in zip(idx, checks.tolist(), first):
            if f is not None:
                outcomes[s] = (c, f"{f[1]} at seed={s} step={f[0]}")
                continue
            reason, converged = next(verdicts)
            outcomes[s] = (c, None if reason == REASON_DIVERGENCE else (
                f"expected belief divergence at seed={s}, got converged={bool(converged)} "
                f"reason={reason!r}"
            ))

    checks, _, failures = _walk(outcomes)
    return PropertyResult("conflict instability (belief divergence)", seeds, checks, failures,
                          time.perf_counter() - t0)


def verify_leader_convergence(
    seeds: int = 100,
    n: int = 7,
    n_leaders: int = 2,
    tol: float = 1e-9,
    max_steps: int = 10_000,
    master_seed: int = 0,
) -> PropertyResult:
    """Leader-following converges everyone to the leader average.

    The leader average is invariant under the update, so the final state is
    compared against the initial leader mean; the first-power distance
    increments must be nonpositive with their closed form holding exactly.
    Each seed draws its own leader set, so each row of the one batch of all
    seeds steps on its own `with_leaders` graph and step sizes, until it
    converges or fails.
    """
    t0 = time.perf_counter()
    draws = []
    for s in range(seeds):
        rng = np.random.default_rng(np.random.SeedSequence([master_seed, 23, s]))
        leaders = tuple(sorted(rng.choice(n, size=n_leaders, replace=False).tolist()))
        opinions, beliefs = rng.uniform(-1.0, 1.0, n), rng.uniform(0.0, 1.0, n)
        targets = (float(np.mean(opinions[list(leaders)])), float(np.mean(beliefs[list(leaders)])))
        draws.append((DynamicsTopology.with_leaders(n, leaders), (opinions, beliefs), targets))

    def leader_step(state, carry, k):
        adj, gamma = carry
        sc_op, sc_be = _scale_sq(state)
        actual, predicted, _, state = leader_increments(state, adj, gamma.T[:, :, None])
        sc = np.where(sc_be > sc_op, sc_be, sc_op)  # Python's max(sc_op, sc_be)
        isolated = adj.sum(axis=-1) == 0
        return state, carry, (
            (_identity_ok(actual, predicted, sc, isolated).all(axis=0), "leader identity violated"),
            (_sign_ok(actual, sc, True, isolated).all(axis=0), "leader distance grew"),
        )

    topos, initial, targets = zip(*draws)
    carry = (np.stack([t.adjacency for t in topos]), np.array([t.step_sizes() for t in topos]))
    checks, first, final = run_rows(np.stack(initial, axis=1), max_steps, leader_step,
                                    functools.partial(within_tol, tol=tol), carry)
    off = (np.abs(final - np.array(targets).T[:, :, None]).max(axis=2) >= tol).any(axis=0)
    outcomes = [(c, f"{f[1]} at seed={s} step={f[0]}" if f is not None
                 else f"no convergence within budget at seed={s}" if c == max_steps
                 else f"final state off the leader average at seed={s}" if o else None)
                for s, (c, f, o) in enumerate(zip(checks.tolist(), first, off))]
    checks, _, failures = _walk(outcomes)
    return PropertyResult("leader convergence (to the leader average)", seeds, checks, failures,
                          time.perf_counter() - t0)


def verify_belief_speedup(
    seeds: int = 100,
    n: int = 7,
    n_leaders: int = 2,
    tol: float = 1e-9,
    max_steps: int = 10_000,
    required_pass: int = 95,
    master_seed: int = 0,
) -> PropertyResult:
    """Higher-belief leaders move follower beliefs at least as fast.

    Paired trials share followers and opinions; the high trial lifts every
    leader belief by the same positive boost. Per-step follower increments
    must dominate pointwise, and steps to belief-spread tolerance must not
    exceed the low trial's in at least `required_pass` of the pairs (the
    contraction rate is structural, so ties are the expected outcome).
    The trials step as one (2 trials, seeds, n) stack.
    """
    t0 = time.perf_counter()
    leaders = tuple(range(n - n_leaders, n))
    followers = list(range(n - n_leaders))
    topo = DynamicsTopology.with_leaders(n, leaders)
    a = topo.adjacency
    _, beta = topo.step_sizes()

    follower_b, low_lead, boost = uniform_draws(master_seed, 29, seeds, (0.05, 0.35, n - n_leaders),
                                                (0.55, 0.70, n_leaders), (0.002, 0.010, 1))
    trials = np.stack([np.hstack([follower_b, low_lead]),
                       np.hstack([follower_b, low_lead + boost])])

    def dominance_step(pairs, carry, k):
        actual, _, _, pairs = leader_increments(pairs, a, beta)
        low, high = np.abs(actual[:, :, followers])
        return pairs, carry, ((~np.any(high + 1e-15 < low, axis=1),
                               "follower increment smaller under high leaders"),)

    def belief_step(state, carry, k):
        return laplacian_step(state, a, beta)[0], carry, ()

    # per-step dominance; a pair leaves once both trials are within tol
    done = functools.partial(within_tol, tol=tol)
    checks, first, _ = run_rows(trials, 200, dominance_step, done)
    failures_by_seed = [None if f is None else f"{f[1]} at seed={s}" for s, f in enumerate(first)]
    # steps to belief-spread tolerance of every trial, low trials first
    steps = run_rows(trials.reshape(1, 2 * seeds, n), max_steps + 1, belief_step, done)[0]
    checks_sum, walked, failures = _walk(list(zip(checks.tolist(), failures_by_seed)))
    pair_passed = (steps[seeds:] <= steps[:seeds]) & np.equal(failures_by_seed, None)
    passed_pairs = int(pair_passed[:walked].sum())
    if not failures and passed_pairs < required_pass:
        failures.append(f"only {passed_pairs}/{seeds} paired seeds satisfied the step comparison")
    return PropertyResult(f"belief speedup (higher-belief leaders, {passed_pairs}/{seeds} pairs)",
                          2 * seeds, checks_sum, failures, time.perf_counter() - t0)

