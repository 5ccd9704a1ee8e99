"""Executable checks for the four convergence properties of the dynamics.

Each check simulates seeded trajectories and verifies the per-step increment
identities algebraically (not just their signs), then the trajectory-level
verdicts. The seeds run as (seeds, n) batches, each row stepped as it would
be alone; the counts and the first failure reported are those of checking
one seed at a time in order. Each state is stepped once, by the increment
helper that checks it; opinions and beliefs step as one (2, seeds, n) stack
where their signs agree. Uniform initial states come from one PCG64 pass
per batch (`uniform_draws`). The identity comparison is relative to the
squared magnitude of the state, which is the scale floating point can
actually support.

These functions are the oracle behind the `simulate` CLI command and the
acceptance suite.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
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
from belief_consensus.pcg64 import _TWO_POW_M53, _U11, _pcg64_raw, _uint32_words

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
# batch. `isolated` marks the agents with no collaborators (degree 0), whose
# increments are NaN by definition and are skipped; any other NaN fails.

def _identity_ok(actual, predicted, scale_sq, isolated):
    ok = np.abs(actual - predicted) <= IDENTITY_RTOL * scale_sq
    return (ok | isolated).all(axis=-1)


def _sign_ok(actual, scale_sq, nonpositive: bool, isolated):
    slack = IDENTITY_RTOL * scale_sq
    ok = actual <= slack if nonpositive else actual >= -slack
    return (ok | isolated).all(axis=-1)


def _record_first(first: list, step: int, checks, rows=None):
    """Record (step, kind) for each row whose first failed check this is.

    `checks` are (per-row ok mask, kind) pairs in the order the seed-by-seed
    loop tested them, so a row keeps the kind of the earliest one it fails.
    `rows` maps the batch rows onto the entries of `first`.
    """
    for ok, kind in checks:
        if ok.all():
            continue
        for r in np.flatnonzero(~ok):
            r = r if rows is None else rows[r]
            if first[r] is None:
                first[r] = (step, kind)


def _walk_seeds(keys: Sequence, run_group) -> tuple[int, int, list[str]]:
    """Add up per-seed outcomes in seed order, as a seed-by-seed loop would.

    keys[s] names the batch seed s runs in. The first time the walk reaches
    a seed of a key, run_group(key, seeds) runs all of that key's seeds at
    once and returns each one's (step checks, failure message or None), in
    the order given. The walk stops at the first failing seed. Returns the
    checks added up, the number of seeds walked and the failures.
    """
    members: dict = {}
    for s, key in enumerate(keys):
        members.setdefault(key, []).append(s)
    outcomes: dict[int, tuple[int, str | None]] = {}
    checks = 0
    for s, key in enumerate(keys):
        if s not in outcomes:
            outcomes.update(zip(members[key], run_group(key, members[key])))
        step_checks, failure = outcomes[s]
        checks += step_checks
        if failure is not None:
            return checks, s + 1, [failure]
    return checks, len(keys), []


def uniform_draws(master_seed: int, key: int, seeds: int, *bounds) -> list[np.ndarray]:
    """What `default_rng(SeedSequence([master_seed, key, s])).uniform(low,
    high, size)` draws for each (low, high, size) of `bounds` in turn, as one
    (seeds, size) array per bound for s < seeds, from one PCG64 pass."""
    words = np.array(_uint32_words(master_seed) + _uint32_words(key) + [0], np.uint32)
    words = np.repeat(words[:, None], seeds, axis=1)
    words[-1] = np.arange(seeds)
    sizes = [size for _, _, size in bounds]
    unit = (_pcg64_raw(words, sum(sizes)) >> _U11) * _TWO_POW_M53
    parts = np.split(unit.T, np.cumsum(sizes)[:-1], axis=1)
    return [low + (high - low) * u for (low, high, _), u in zip(bounds, parts)]


def _supportive_identity_failures(
    state: np.ndarray, topo: DynamicsTopology, identity_steps: int
) -> list[tuple[int, str] | None]:
    """Per seed, the first failing (step, kind) of the per-step checks, or None.

    `state` is the seeds' opinions and beliefs as one (2, seeds, n) stack. At
    each step the increment identity is checked first, then its nonpositive
    sign, then that each agent's distance to its collaborator mean did not
    grow.
    """
    gamma = np.array(topo.step_sizes())[:, None, None]
    a = topo.adjacency
    isolated = a.sum(axis=-1) == 0
    first: list[tuple[int, str] | None] = [None] * state.shape[1]
    prev_dists = None
    for step in range(identity_steps):
        sc = _scale_sq(state)
        actual, predicted, dist_sq, state = averaging_increments(state, a, gamma)
        dists = np.sqrt(dist_sq[0])
        if prev_dists is None:
            grew = np.zeros(len(dists), dtype=bool)
        else:
            # only the marginal tie case keeps distances constant; a
            # contracting run shrinks them, which is also fine
            atol = 1e-12 * np.maximum(1.0, np.max(dists, axis=1, keepdims=True))
            constant = np.all(np.abs(dists - prev_dists) <= atol, axis=1)
            grew = ~constant & np.any(dists > prev_dists + 1e-12, axis=1)
        _record_first(first, step, (
            (_identity_ok(actual, predicted, sc, isolated).all(axis=0), "identity violated"),
            (_sign_ok(actual, sc, True, isolated).all(axis=0), "positive increment"),
            (~grew, "distance grew"),
        ))
        prev_dists = dists
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

    All seeds of one n run as one batch; the first failure and the counts
    reported are those of checking seed by seed in order.
    """
    t0 = time.perf_counter()

    def run_n(n, _):
        topo = DynamicsTopology.all_pairs(n)
        state = np.stack(uniform_draws(master_seed, n, seeds, (-1.0, 1.0, n), (0.0, 1.0, n)))
        first = _supportive_identity_failures(state, topo, identity_steps)
        ok = np.array([f is None for f in first])
        verdict = run_batch(*state[:, ok], topo, "supportive", tol=tol, max_steps=max_steps)
        gap = np.ptp(verdict.opinions, axis=1) >= tol
        verdicts = iter(zip(verdict.reasons, verdict.converged, verdict.marginal, gap))
        outcomes = []
        for s in range(seeds):
            if first[s] is not None:
                step, kind = first[s]
                outcomes.append((step + 1, f"{kind} at n={n} seed={s} step={step}"))
                continue
            reason, converged, marginal, gap_above = next(verdicts)
            failure = (f"not converged at n={n} seed={s}: {reason}" if not converged
                       else f"opinion gap above tol at n={n} seed={s}"
                       if not marginal and gap_above else None)
            outcomes.append((identity_steps, failure))
        return outcomes

    checks, trajectories, failures = _walk_seeds(
        [n for n in n_values for _ in range(seeds)], run_n
    )
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

    def run_n(n, idx):
        topo = DynamicsTopology.mutual_conflict_pairs(n)
        alpha, beta = topo.step_sizes()
        a = topo.adjacency
        isolated = a.sum(axis=-1) == 0
        opinions, beliefs = (np.stack(x) for x in zip(*(states[s] for s in idx)))
        first: list[tuple[int, str] | None] = [None] * len(idx)
        op, be = opinions, beliefs
        for step in range(identity_steps):
            sc_op, sc_be = _scale_sq(op), _scale_sq(be)
            a_op, p_op, _, op = averaging_increments(op, a, alpha)
            a_be, p_be, _, be = contrarian_increments(be, a, beta)
            _record_first(first, step, (
                (_identity_ok(a_op, p_op, sc_op, isolated)
                 & _identity_ok(a_be, p_be, sc_be, isolated), "identity violated"),
                (_sign_ok(a_op, sc_op, True, isolated), "opinion increment positive"),
                (_sign_ok(a_be, sc_be, False, isolated), "belief increment negative"),
            ))
        ok = np.array([f is None for f in first])
        verdict = run_batch(opinions[ok], beliefs[ok], topo, "conflicting", max_steps=500)
        verdicts = iter(zip(verdict.reasons, verdict.converged))
        outcomes = []
        for s, f in zip(idx, first):
            if f is not None:
                outcomes.append((f[0] + 1, f"{f[1]} at seed={s} step={f[0]}"))
                continue
            reason, converged = next(verdicts)
            outcomes.append((identity_steps, None if reason == REASON_DIVERGENCE else (
                f"expected belief divergence at seed={s}, got converged={bool(converged)} "
                f"reason={reason!r}"
            )))
        return outcomes

    checks, _, failures = _walk_seeds([len(op) for op, _ in states], run_n)
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

    def run_leaders(_, idx):
        adj = np.stack([draws[s][0].adjacency for s in idx])
        gamma = np.array([draws[s][0].step_sizes() for s in idx]).T[:, :, None]
        state = np.stack([draws[s][1] for s in idx], axis=1)  # (2, rows, n)
        target = np.array([draws[s][2] for s in idx]).T
        checks = np.full(len(idx), max_steps)
        first: list[tuple[int, str] | None] = [None] * len(idx)  # per-step check failures
        verdict = ["no convergence within budget"] * len(idx)
        live = np.arange(len(idx))
        for step in range(max_steps):
            done = (np.ptp(state, axis=2) < tol).all(axis=0)
            ended = live[done]
            checks[ended] = step
            off = (np.abs(state[:, done] - target[:, ended, None]).max(axis=2) >= tol).any(axis=0)
            for r, r_off in zip(ended, off):
                verdict[r] = "final state off the leader average" if r_off else None
            keep = ~done
            live, state, adj, gamma = live[keep], state[:, keep], adj[keep], gamma[:, keep]
            if not live.size:
                break
            sc_op, sc_be = _scale_sq(state)
            actual, predicted, state = leader_increments(state, adj, gamma)
            sc = np.where(sc_be > sc_op, sc_be, sc_op)  # Python's max(sc_op, sc_be)
            isolated = adj.sum(axis=-1) == 0
            identity_ok = _identity_ok(actual, predicted, sc, isolated).all(axis=0)
            sign_ok = _sign_ok(actual, sc, True, isolated).all(axis=0)
            _record_first(first, step, ((identity_ok, "leader identity violated"),
                                        (sign_ok, "leader distance grew")), rows=live)
            # a live row has no failure yet, so it fails here exactly when a check does
            keep = identity_ok & sign_ok
            checks[live[~keep]] = step + 1
            live, state, adj, gamma = live[keep], state[:, keep], adj[keep], gamma[:, keep]
        return [(int(c), f"{f[1]} at seed={s} step={f[0]}" if f is not None
                 else None if v is None else f"{v} at seed={s}")
                for s, c, f, v in zip(idx, checks, first, verdict)]

    checks, _, failures = _walk_seeds([None] * seeds, run_leaders)
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
    Every trial runs in one batch: rows 2s and 2s + 1 are seed s's low and
    high trials.
    """
    t0 = time.perf_counter()
    leaders = tuple(range(n - n_leaders, n))
    followers = list(range(n - n_leaders))
    topo = DynamicsTopology.with_leaders(n, leaders)
    a = topo.adjacency
    _, beta = topo.step_sizes()

    follower_b, low_lead, boost = uniform_draws(master_seed, 29, seeds, (0.05, 0.35, n - n_leaders),
                                                (0.55, 0.70, n_leaders), (0.002, 0.010, 1))
    trials = [np.hstack([follower_b, low_lead]), np.hstack([follower_b, low_lead + boost])]
    beliefs = np.stack(trials, axis=1).reshape(2 * seeds, n)

    # per-step dominance; a pair leaves once both trials are within tol
    checks = np.zeros(seeds, dtype=int)
    failures_by_seed: list[str | None] = [None] * seeds
    live, pairs = np.arange(seeds), beliefs.reshape(seeds, 2, n)
    for _ in range(200):
        within = (np.ptp(pairs, axis=2) < tol).all(axis=1)
        live, pairs = live[~within], pairs[~within]
        if not live.size:
            break
        actual, _, stepped = leader_increments(pairs.reshape(-1, n), a, beta)
        increments = np.abs(actual[:, followers])
        checks[live] += 1
        smaller = np.any(increments[1::2] + 1e-15 < increments[0::2], axis=1)
        for s in live[smaller]:
            failures_by_seed[s] = f"follower increment smaller under high leaders at seed={s}"
        live = live[~smaller]
        pairs = stepped.reshape(-1, 2, n)[~smaller]

    # steps to belief-spread tolerance of every trial
    steps = np.full(2 * seeds, max_steps + 1)
    live, cur = np.arange(2 * seeds), beliefs
    for k in range(max_steps + 1):
        within = np.ptp(cur, axis=1) < tol
        steps[live[within]] = k
        live, cur = live[~within], cur[~within]
        if not live.size:
            break
        cur = laplacian_step(cur, a, beta)[0]

    outcomes = list(zip(checks.tolist(), failures_by_seed))
    checks_sum, walked, failures = _walk_seeds([None] * seeds, lambda _, idx: outcomes)
    pair_passed = (steps[1::2] <= steps[0::2]) & np.equal(failures_by_seed, None)
    passed_pairs = int(pair_passed[:walked].sum())
    if not failures and passed_pairs < required_pass:
        failures.append(f"only {passed_pairs}/{seeds} paired seeds satisfied the step comparison")
    return PropertyResult(
        name=f"belief speedup (higher-belief leaders, {passed_pairs}/{seeds} pairs)",
        passed=not failures,
        trajectories=2 * seeds,
        checks=checks_sum,
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
