"""Executable checks for the four convergence properties of the dynamics.

Each check simulates seeded trajectories and verifies the per-step increment
identities algebraically (not just their signs), then the trajectory-level
verdicts. The identity comparison is relative to the squared magnitude of
the state, which is the scale floating point can actually support.

These functions are the oracle behind the `simulate` CLI command and the
acceptance suite.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from belief_consensus.dynamics import (
    DynamicsState,
    DynamicsTopology,
    REASON_DIVERGENCE,
    averaging_increments,
    contrarian_increments,
    laplacian_step,
    leader_increments,
    run_dynamics,
    step_conflicting,
    step_leader_follow,
    step_supportive,  # noqa: F401 -- not called here; bench/tracer.py wraps it by name
)

IDENTITY_RTOL = 1e-12


@dataclass
class PropertyResult:
    name: str
    passed: bool
    trajectories: int
    checks: int
    failures: list[str] = field(default_factory=list)
    elapsed: float = 0.0

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
# batch. NaN entries (agents with no collaborators) are skipped.

def _identity_ok(actual, predicted, scale_sq):
    ok = np.abs(actual - predicted) <= IDENTITY_RTOL * scale_sq
    return (ok | np.isnan(actual)).all(axis=-1)


def _sign_ok(actual, scale_sq, nonpositive: bool):
    slack = IDENTITY_RTOL * scale_sq
    ok = actual <= slack if nonpositive else actual >= -slack
    return (ok | np.isnan(actual)).all(axis=-1)


def _supportive_identity_failures(
    opinions: np.ndarray, beliefs: np.ndarray, topo: DynamicsTopology, identity_steps: int
) -> list[tuple[int, str] | None]:
    """Per seed, the first failing (step, failure) of the per-step checks, or None.

    `opinions` and `beliefs` are (seeds, n) batches stepped together. At each
    step the increment identity is checked first, then its nonpositive sign,
    then that each agent's distance to its collaborator mean did not grow.
    """
    alpha, beta = topo.step_sizes()
    a = topo.adjacency("supportive")
    first: list[tuple[int, str] | None] = [None] * len(opinions)
    prev_dists = None
    for step in range(identity_steps):
        a_op, p_op, d_op = averaging_increments(opinions, topo.supportive, alpha)
        a_be, p_be, _ = averaging_increments(beliefs, topo.supportive, beta)
        sc_op, sc_be = _scale_sq(opinions), _scale_sq(beliefs)
        identity = _identity_ok(a_op, p_op, sc_op) & _identity_ok(a_be, p_be, sc_be)
        sign = _sign_ok(a_op, sc_op, True) & _sign_ok(a_be, sc_be, True)
        dists = np.sqrt(d_op)
        if prev_dists is None:
            grew = np.zeros(len(dists), dtype=bool)
        else:
            # only the marginal tie case keeps distances constant; a
            # contracting run shrinks them, which is also fine
            atol = 1e-12 * np.maximum(1.0, np.max(dists, axis=1, keepdims=True))
            constant = np.all(np.abs(dists - prev_dists) <= atol, axis=1)
            grew = ~constant & np.any(dists > prev_dists + 1e-12, axis=1)
        for s in np.flatnonzero(~identity | ~sign | grew):
            if first[s] is None:
                kind = ("identity violated" if not identity[s]
                        else "positive increment" if not sign[s] else "distance grew")
                first[s] = (step, kind)
        prev_dists = dists
        opinions = laplacian_step(opinions, a, alpha)[0]
        beliefs = laplacian_step(beliefs, a, beta)[0]
    return first


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

    The per-step checks run on all seeds of one n at once; the first failure
    and the counts reported are those of checking seed by seed in order.
    """
    t0 = time.perf_counter()
    failures: list[str] = []
    checks = 0
    trajectories = 0
    for n in n_values:
        topo = DynamicsTopology.all_pairs(n)
        initial = []
        for s in range(seeds):
            rng = np.random.default_rng(np.random.SeedSequence([master_seed, n, s]))
            initial.append(DynamicsState(
                opinions=rng.uniform(-1.0, 1.0, n), beliefs=rng.uniform(0.0, 1.0, n)
            ))
        first = _supportive_identity_failures(
            np.stack([st.opinions for st in initial]), np.stack([st.beliefs for st in initial]),
            topo, identity_steps,
        )
        for s, state in enumerate(initial):
            trajectories += 1
            if first[s] is not None:
                step, kind = first[s]
                checks += step + 1
                failures.append(f"{kind} at n={n} seed={s} step={step}")
                break
            checks += identity_steps
            result = run_dynamics(state, topo, "supportive", tol=tol, max_steps=max_steps)
            if not result.converged:
                failures.append(f"not converged at n={n} seed={s}: {result.reason}")
                break
            if not result.marginal:
                final = result.final
                if (final.opinions.max() - final.opinions.min()) >= tol:
                    failures.append(f"opinion gap above tol at n={n} seed={s}")
                    break
        if failures:
            break
    return PropertyResult(
        name="supportive convergence (all-pairs averaging)",
        passed=not failures,
        trajectories=trajectories,
        checks=checks,
        failures=failures,
        elapsed=time.perf_counter() - t0,
    )


def verify_conflict_instability(
    seeds: int = 100,
    n_choices: Sequence[int] = (2, 3, 4, 5, 6, 7, 8),
    identity_steps: int = 30,
    master_seed: int = 0,
) -> PropertyResult:
    """Mutual-conflict pairs with unequal beliefs must diverge in belief.

    Checks the nonnegative belief increment identity and the nonpositive
    opinion increment identity at every step, and that the run is flagged
    non-convergent with the belief-divergence reason.
    """
    t0 = time.perf_counter()
    failures: list[str] = []
    checks = 0
    for s in range(seeds):
        rng = np.random.default_rng(np.random.SeedSequence([master_seed, 17, s]))
        n = int(rng.choice(n_choices))
        topo = DynamicsTopology.mutual_conflict_pairs(n)
        alpha, beta = topo.step_sizes()
        beliefs = rng.uniform(0.0, 1.0, n)
        for i in range(0, n - 1, 2):
            if abs(beliefs[i] - beliefs[i + 1]) < 1e-3:
                beliefs[i] += 0.1  # enforce the unequal-beliefs premise
        state = DynamicsState(opinions=rng.uniform(-1.0, 1.0, n), beliefs=beliefs)
        cur = state
        for _ in range(identity_steps):
            a_op, p_op, _ = averaging_increments(cur.opinions, topo.conflicting, alpha)
            a_be, p_be, _ = contrarian_increments(cur.beliefs, topo.conflicting, beta)
            checks += 1
            sc_op = _scale_sq(cur.opinions)
            sc_be = _scale_sq(cur.beliefs)
            if not (_identity_ok(a_op, p_op, sc_op) and _identity_ok(a_be, p_be, sc_be)):
                failures.append(f"identity violated at seed={s} step={cur.step}")
                break
            if not _sign_ok(a_op, sc_op, True):
                failures.append(f"opinion increment positive at seed={s} step={cur.step}")
                break
            if not _sign_ok(a_be, sc_be, False):
                failures.append(f"belief increment negative at seed={s} step={cur.step}")
                break
            cur = step_conflicting(cur, topo)
        if failures:
            break
        result = run_dynamics(state, topo, "conflicting", max_steps=500)
        if result.converged or result.reason != REASON_DIVERGENCE:
            failures.append(
                f"expected belief divergence at seed={s}, got converged={result.converged} "
                f"reason={result.reason!r}"
            )
            break
    return PropertyResult(
        name="conflict instability (belief divergence)",
        passed=not failures,
        trajectories=seeds,
        checks=checks,
        failures=failures,
        elapsed=time.perf_counter() - t0,
    )


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
    """
    t0 = time.perf_counter()
    failures: list[str] = []
    checks = 0
    for s in range(seeds):
        rng = np.random.default_rng(np.random.SeedSequence([master_seed, 23, s]))
        leaders = tuple(sorted(rng.choice(n, size=n_leaders, replace=False).tolist()))
        topo = DynamicsTopology.with_leaders(n, leaders)
        alpha, beta = topo.step_sizes()
        state = DynamicsState(
            opinions=rng.uniform(-1.0, 1.0, n), beliefs=rng.uniform(0.0, 1.0, n)
        )
        op_target = float(np.mean(state.opinions[list(leaders)]))
        be_target = float(np.mean(state.beliefs[list(leaders)]))
        cur = state
        converged_at = None
        for _ in range(max_steps):
            if (
                cur.opinions.max() - cur.opinions.min() < tol
                and cur.beliefs.max() - cur.beliefs.min() < tol
            ):
                converged_at = cur.step
                break
            a_op, p_op = leader_increments(cur.opinions, leaders, alpha)
            a_be, p_be = leader_increments(cur.beliefs, leaders, beta)
            checks += 1
            sc = max(_scale_sq(cur.opinions), _scale_sq(cur.beliefs))
            if not (_identity_ok(a_op, p_op, sc) and _identity_ok(a_be, p_be, sc)):
                failures.append(f"leader identity violated at seed={s} step={cur.step}")
                break
            if not (_sign_ok(a_op, sc, True) and _sign_ok(a_be, sc, True)):
                failures.append(f"leader distance grew at seed={s} step={cur.step}")
                break
            cur = step_leader_follow(cur, leaders, topo)
        if failures:
            break
        if converged_at is None:
            failures.append(f"no convergence within budget at seed={s}")
            break
        if np.max(np.abs(cur.opinions - op_target)) >= tol or np.max(
            np.abs(cur.beliefs - be_target)
        ) >= tol:
            failures.append(f"final state off the leader average at seed={s}")
            break
    return PropertyResult(
        name="leader convergence (to the leader average)",
        passed=not failures,
        trajectories=seeds,
        checks=checks,
        failures=failures,
        elapsed=time.perf_counter() - t0,
    )


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
    """
    t0 = time.perf_counter()
    failures: list[str] = []
    checks = 0
    passed_pairs = 0
    leaders = tuple(range(n - n_leaders, n))
    followers = list(range(n - n_leaders))
    topo = DynamicsTopology.with_leaders(n, leaders)
    a = topo.adjacency("leader")
    _, beta = topo.step_sizes()

    def steps_to_belief_tol(beliefs0: np.ndarray) -> int:
        cur = beliefs0
        for k in range(max_steps + 1):
            if cur.max() - cur.min() < tol:
                return k
            cur = laplacian_step(cur, a, beta)[0]
        return max_steps + 1

    for s in range(seeds):
        rng = np.random.default_rng(np.random.SeedSequence([master_seed, 29, s]))
        follower_b = rng.uniform(0.05, 0.35, n - n_leaders)
        low_lead = rng.uniform(0.55, 0.70, n_leaders)
        boost = float(rng.uniform(0.002, 0.010))
        b_low = np.concatenate([follower_b, low_lead])
        b_high = np.concatenate([follower_b, low_lead + boost])

        pair = np.stack([b_low, b_high])
        for _ in range(200):
            if np.all(pair.max(axis=1) - pair.min(axis=1) < tol):
                break
            a_low, a_high = np.abs(leader_increments(pair, leaders, beta)[0][:, followers])
            checks += 1
            if np.any(a_high + 1e-15 < a_low):
                failures.append(f"follower increment smaller under high leaders at seed={s}")
                break
            pair = laplacian_step(pair, a, beta)[0]
        if failures:
            break
        if steps_to_belief_tol(b_high) <= steps_to_belief_tol(b_low):
            passed_pairs += 1
    if not failures and passed_pairs < required_pass:
        failures.append(f"only {passed_pairs}/{seeds} paired seeds satisfied the step comparison")
    return PropertyResult(
        name=f"belief speedup (higher-belief leaders, {passed_pairs}/{seeds} pairs)",
        passed=not failures,
        trajectories=2 * seeds,
        checks=checks,
        failures=failures,
        elapsed=time.perf_counter() - t0,
    )


def run_property_suite(
    n_values: Sequence[int] = tuple(range(3, 11)),
    seeds: int = 100,
    modes: Sequence[str] = ("supportive", "conflicting", "leader", "speedup"),
    tol: float = 1e-9,
    max_steps: int = 10_000,
    master_seed: int = 0,
) -> list[PropertyResult]:
    results = []
    if "supportive" in modes:
        results.append(
            verify_supportive_convergence(
                n_values=n_values, seeds=seeds, tol=tol, max_steps=max_steps,
                master_seed=master_seed,
            )
        )
    if "conflicting" in modes:
        results.append(verify_conflict_instability(seeds=seeds, master_seed=master_seed))
    if "leader" in modes:
        results.append(
            verify_leader_convergence(
                seeds=seeds, tol=tol, max_steps=max_steps, master_seed=master_seed
            )
        )
    if "speedup" in modes:
        results.append(
            verify_belief_speedup(
                seeds=seeds, tol=tol, max_steps=max_steps,
                required_pass=max(1, int(0.95 * seeds)), master_seed=master_seed,
            )
        )
    return results
