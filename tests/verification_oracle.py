"""Reference forms of the trajectory runner and three property checks, kept
for exact-equality tests.

These are the seed-by-seed versions that `dynamics.run_batch` and the
batched checks in `verification` replaced, and that must report identical
results:

- `run_dynamics`: one trajectory at a time through the `step_*` functions,
  recording every state;
- `verify_conflict_instability`, `verify_leader_convergence` and
  `verify_belief_speedup`: one seed at a time, each seed's per-step checks
  followed by its trajectory verdict, stopping at the first failure.
"""

import time
from typing import Sequence

import numpy as np

from belief_consensus.dynamics import (
    DEFAULT_MAX_STEPS,
    DEFAULT_TOL,
    DIVERGENCE_WINDOW,
    REASON_BUDGET,
    REASON_CONSENSUS,
    REASON_DIVERGENCE,
    REASON_MARGINAL,
    DynamicsResult,
    DynamicsState,
    DynamicsTopology,
    _is_marginal_tie,
    averaging_increments,
    contrarian_increments,
    laplacian_step,
    leader_increments,
    step_conflicting,
    step_supportive,
)
from belief_consensus.verification import PropertyResult, _identity_ok, _scale_sq, _sign_ok


def _spread(vec: np.ndarray) -> float:
    return float(vec.max() - vec.min())


def run_dynamics(
    initial: DynamicsState,
    topo: DynamicsTopology,
    mode: str,
    tol: float = DEFAULT_TOL,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> DynamicsResult:
    """Iterate the chosen step rule until consensus, divergence, or budget.

    Consensus: max pairwise opinion gap and belief gap both below tol.
    Divergence: belief spread strictly increasing for DIVERGENCE_WINDOW steps.
    The all-pairs tie case (see _is_marginal_tie) is verified to oscillate
    with period 2 and reported converged with the marginal flag.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_steps < 1:
        raise ValueError("max_steps must be at least 1")
    if topo.n != len(initial.opinions):
        raise ValueError("topology/state arity: collaborator sets do not match agent count")

    if mode == "supportive":
        advance = lambda s: step_supportive(s, topo)
    elif mode == "conflicting":
        advance = lambda s: step_conflicting(s, topo)
    else:
        raise ValueError(f"unknown dynamics mode: {mode!r}")

    if mode == "supportive" and _is_marginal_tie(topo):
        s1 = advance(initial)
        s2 = advance(s1)
        period_two = np.allclose(s2.opinions, initial.opinions, rtol=0, atol=1e-12) and \
            np.allclose(s2.beliefs, initial.beliefs, rtol=0, atol=1e-12)
        if period_two:
            return DynamicsResult(
                trace=[initial, s1, s2],
                converged=True,
                reason=REASON_MARGINAL,
                marginal=True,
                mode=mode,
            )

    trace = [initial]
    state = initial
    grow_streak = 0
    prev_bspread = _spread(state.beliefs)
    for _ in range(max_steps):
        if _spread(state.opinions) < tol and _spread(state.beliefs) < tol:
            return DynamicsResult(trace, True, REASON_CONSENSUS, False, mode)
        state = advance(state)
        trace.append(state)
        bspread = _spread(state.beliefs)
        grow_streak = grow_streak + 1 if bspread > prev_bspread else 0
        prev_bspread = bspread
        if grow_streak >= DIVERGENCE_WINDOW:
            return DynamicsResult(trace, False, REASON_DIVERGENCE, False, mode)
    if _spread(state.opinions) < tol and _spread(state.beliefs) < tol:
        return DynamicsResult(trace, True, REASON_CONSENSUS, False, mode)
    return DynamicsResult(trace, False, REASON_BUDGET, False, mode)


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
            a_op, p_op, _ = averaging_increments(cur.opinions, topo.sets, alpha)
            a_be, p_be, _ = contrarian_increments(cur.beliefs, topo.sets, beta)
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
            a_op, p_op = leader_increments(cur.opinions, topo.sets, alpha)
            a_be, p_be = leader_increments(cur.beliefs, topo.sets, beta)
            checks += 1
            sc = max(_scale_sq(cur.opinions), _scale_sq(cur.beliefs))
            if not (_identity_ok(a_op, p_op, sc) and _identity_ok(a_be, p_be, sc)):
                failures.append(f"leader identity violated at seed={s} step={cur.step}")
                break
            if not (_sign_ok(a_op, sc, True) and _sign_ok(a_be, sc, True)):
                failures.append(f"leader distance grew at seed={s} step={cur.step}")
                break
            cur = step_supportive(cur, topo)
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
    a = topo.adjacency
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
            a_low, a_high = np.abs(leader_increments(pair, topo.sets, beta)[0][:, followers])
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
