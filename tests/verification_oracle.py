"""Reference forms of the trajectory runner and three property checks, kept
for exact-equality tests.

These are the seed-by-seed versions that `dynamics.run_batch` and the
batched checks in `verification` replaced, and that must report identical
results:

- `run_dynamics`: one (2, n) stack of opinions and beliefs at a time through
  the `step_*` functions, returning its reason and its (steps + 1, 2, n)
  trace;
- the four property checks (`verify_supportive_convergence`,
  `verify_conflict_instability`, `verify_leader_convergence` and
  `verify_belief_speedup`): one seed at a time, each drawing from its own
  `default_rng(SeedSequence(...))`, each seed's per-step checks followed by
  its trajectory verdict, stopping at the first failure.
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
    DynamicsTopology,
    LaplacianStep,
    _is_marginal_tie,
    averaging_increments,
    contrarian_increments,
    leader_increments,
    step_conflicting,
    step_supportive,
)
from belief_consensus.verification import PropertyResult, _increments_ok, _scale_sq


# the identity and the sign check of `_increments_ok`, each alone

def _identity_ok(actual, predicted, scale_sq, isolated):
    return _increments_ok(actual, predicted, scale_sq, True, isolated)[0]


def _sign_ok(actual, scale_sq, nonpositive: bool, isolated):
    return _increments_ok(actual, actual, scale_sq, nonpositive, isolated)[1]


def _isolated(topo: DynamicsTopology) -> np.ndarray:
    """The agents with an empty collaborator set, whose increments are NaN."""
    return np.array([not collaborators for collaborators in topo.sets])


def _spread(vec: np.ndarray) -> float:
    return float(vec.max() - vec.min())


def run_dynamics(
    initial: np.ndarray,
    topo: DynamicsTopology,
    mode: str,
    tol: float = DEFAULT_TOL,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> tuple[str, np.ndarray]:
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
    initial = np.asarray(initial, dtype=float)
    if topo.n != initial.shape[1]:
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
        period_two = np.allclose(s2[0], initial[0], rtol=0, atol=1e-12) and \
            np.allclose(s2[1], initial[1], rtol=0, atol=1e-12)
        if period_two:
            return REASON_MARGINAL, np.stack([initial, s1, s2])

    trace = [initial]
    state = initial
    grow_streak = 0
    prev_bspread = _spread(state[1])
    for _ in range(max_steps):
        if _spread(state[0]) < tol and _spread(state[1]) < tol:
            return REASON_CONSENSUS, np.stack(trace)
        state = advance(state)
        trace.append(state)
        bspread = _spread(state[1])
        grow_streak = grow_streak + 1 if bspread > prev_bspread else 0
        prev_bspread = bspread
        if grow_streak >= DIVERGENCE_WINDOW:
            return REASON_DIVERGENCE, np.stack(trace)
    if _spread(state[0]) < tol and _spread(state[1]) < tol:
        return REASON_CONSENSUS, np.stack(trace)
    return REASON_BUDGET, np.stack(trace)


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
    at every checked step, that no agent's distance to its collaborator mean
    grew (unless all of them stayed constant, as at the marginal tie), and
    that every trajectory's verdict is converged.
    """
    t0 = time.perf_counter()
    failures: list[str] = []
    checks = 0
    trajectories = 0
    for n in n_values:
        topo = DynamicsTopology.all_pairs(n)
        isolated = _isolated(topo)
        alpha, beta = topo.step_sizes()
        for s in range(seeds):
            trajectories += 1
            rng = np.random.default_rng(np.random.SeedSequence([master_seed, n, s]))
            state = np.stack([rng.uniform(-1.0, 1.0, n), rng.uniform(0.0, 1.0, n)])
            cur = state
            prev_dists = None
            for step in range(identity_steps):
                a_op, p_op, d_op = averaging_increments(
                    cur[0], LaplacianStep.of(topo.adjacency, alpha, power=2))[:3]
                a_be, p_be = averaging_increments(
                    cur[1], LaplacianStep.of(topo.adjacency, beta, power=2))[:2]
                checks += 1
                sc_op = _scale_sq(cur[0])
                sc_be = _scale_sq(cur[1])
                dists = np.sqrt(d_op)
                if not (_identity_ok(a_op, p_op, sc_op, isolated)
                        and _identity_ok(a_be, p_be, sc_be, isolated)):
                    failures.append(f"identity violated at n={n} seed={s} step={step}")
                    break
                if not (_sign_ok(a_op, sc_op, True, isolated)
                        and _sign_ok(a_be, sc_be, True, isolated)):
                    failures.append(f"positive increment at n={n} seed={s} step={step}")
                    break
                if prev_dists is not None:
                    atol = 1e-12 * np.maximum(1.0, np.max(dists))
                    constant = np.all(np.abs(dists - prev_dists) <= atol)
                    if not constant and np.any(dists > prev_dists + 1e-12):
                        failures.append(f"distance grew at n={n} seed={s} step={step}")
                        break
                prev_dists = dists
                cur = step_supportive(cur, topo)
            if failures:
                break
            reason, trace = run_dynamics(state, topo, "supportive", tol=tol, max_steps=max_steps)
            if reason not in (REASON_CONSENSUS, REASON_MARGINAL):
                failures.append(f"not converged at n={n} seed={s}: {reason}")
                break
            if reason != REASON_MARGINAL and np.ptp(trace[-1][0]) >= tol:
                failures.append(f"opinion gap above tol at n={n} seed={s}")
                break
        if failures:
            break
    return PropertyResult(
        name="supportive convergence (all-pairs averaging)",
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
        isolated = _isolated(topo)
        alpha, beta = topo.step_sizes()
        beliefs = rng.uniform(0.0, 1.0, n)
        for i in range(0, n - 1, 2):
            if abs(beliefs[i] - beliefs[i + 1]) < 1e-3:
                beliefs[i] += 0.1  # enforce the unequal-beliefs premise
        state = np.stack([rng.uniform(-1.0, 1.0, n), beliefs])
        cur = state
        for step in range(identity_steps):
            a_op, p_op = averaging_increments(
                cur[0], LaplacianStep.of(topo.adjacency, alpha, power=2))[:2]
            a_be, p_be = contrarian_increments(
                cur[1], LaplacianStep.of(topo.adjacency, beta, 1.0, 2))[:2]
            checks += 1
            sc_op = _scale_sq(cur[0])
            sc_be = _scale_sq(cur[1])
            if not (_identity_ok(a_op, p_op, sc_op, isolated)
                    and _identity_ok(a_be, p_be, sc_be, isolated)):
                failures.append(f"identity violated at seed={s} step={step}")
                break
            if not _sign_ok(a_op, sc_op, True, isolated):
                failures.append(f"opinion increment positive at seed={s} step={step}")
                break
            if not _sign_ok(a_be, sc_be, False, isolated):
                failures.append(f"belief increment negative at seed={s} step={step}")
                break
            cur = step_conflicting(cur, topo)
        if failures:
            break
        reason = run_dynamics(state, topo, "conflicting", max_steps=500)[0]
        if reason != REASON_DIVERGENCE:
            converged = reason in (REASON_CONSENSUS, REASON_MARGINAL)
            failures.append(
                f"expected belief divergence at seed={s}, got converged={converged} "
                f"reason={reason!r}"
            )
            break
    return PropertyResult(
        name="conflict instability (belief divergence)",
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
        isolated = _isolated(topo)
        alpha, beta = topo.step_sizes()
        state = np.stack([rng.uniform(-1.0, 1.0, n), rng.uniform(0.0, 1.0, n)])
        op_target = float(np.mean(state[0][list(leaders)]))
        be_target = float(np.mean(state[1][list(leaders)]))
        cur = state
        converged_at = None
        for step in range(max_steps):
            if (
                cur[0].max() - cur[0].min() < tol
                and cur[1].max() - cur[1].min() < tol
            ):
                converged_at = step
                break
            a_op, p_op = leader_increments(
                cur[0], LaplacianStep.of(topo.adjacency, alpha, power=1))[:2]
            a_be, p_be = leader_increments(
                cur[1], LaplacianStep.of(topo.adjacency, beta, power=1))[:2]
            checks += 1
            sc = max(_scale_sq(cur[0]), _scale_sq(cur[1]))
            if not (_identity_ok(a_op, p_op, sc, isolated)
                    and _identity_ok(a_be, p_be, sc, isolated)):
                failures.append(f"leader identity violated at seed={s} step={step}")
                break
            if not (_sign_ok(a_op, sc, True, isolated) and _sign_ok(a_be, sc, True, isolated)):
                failures.append(f"leader distance grew at seed={s} step={step}")
                break
            cur = step_supportive(cur, topo)
        if failures:
            break
        if converged_at is None:
            failures.append(f"no convergence within budget at seed={s}")
            break
        if np.max(np.abs(cur[0] - op_target)) >= tol or np.max(
            np.abs(cur[1] - be_target)
        ) >= tol:
            failures.append(f"final state off the leader average at seed={s}")
            break
    return PropertyResult(
        name="leader convergence (to the leader average)",
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
            cur = LaplacianStep.of(a, beta)(cur)[0]
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
            a_low, a_high = np.abs(leader_increments(
                pair, LaplacianStep.of(topo.adjacency, beta, power=1))[0][:, followers])
            checks += 1
            if np.any(a_high + 1e-15 < a_low):
                failures.append(f"follower increment smaller under high leaders at seed={s}")
                break
            pair = LaplacianStep.of(a, beta)(pair)[0]
        if failures:
            break
        if steps_to_belief_tol(b_high) <= steps_to_belief_tol(b_low):
            passed_pairs += 1
    if not failures and passed_pairs < required_pass:
        failures.append(f"only {passed_pairs}/{seeds} paired seeds satisfied the step comparison")
    return PropertyResult(
        name=f"belief speedup (higher-belief leaders, {passed_pairs}/{seeds} pairs)",
        trajectories=2 * seeds,
        checks=checks,
        failures=failures,
        elapsed=time.perf_counter() - t0,
    )
