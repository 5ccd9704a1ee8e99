"""Executable checks for the four convergence properties of the dynamics.

Each check simulates seeded trajectories and verifies the per-step increment
identities algebraically (not just their signs), then the trajectory-level
verdicts. The seeds run as (seeds, n) batches through `dynamics.run_rows`,
each row stepped as it would be alone; the counts and the first failure
reported are those of checking one seed at a time in order. Each state is
stepped once, by the increment helper that checks it; opinions and beliefs
step as one (2, seeds, n) stack where their signs agree, and each batch
builds its `LaplacianStep`s once. Every check draws all its seeds in one
PCG64 pass, bit for bit what one `Generator` per seed would draw: the uniform
initial states (`uniform_draws`), the conflict check's agent counts
(`conflict_states`) and the leader check's leader sets (`leader_states`), the
last two through `pcg64._bounded_draws`. The identity comparison is relative
to the squared magnitude of the state, which is the scale floating point can
actually support.

Every check reads the one `SimulateConfig`, and `CHECKS` names each `simulate`
mode's check and trace topology: a new check is one function of the config and
one `CHECKS` row. The acceptance suite and the `simulate` command run them.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from belief_consensus.dynamics import (
    DEFAULT_MAX_STEPS,
    DEFAULT_TOL,
    DynamicsTopology,
    LaplacianStep,
    REASON_DIVERGENCE,
    averaging_increments,
    contrarian_increments,
    leader_increments,
    run_batch,
    run_rows,
    topology_step,
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
from belief_consensus.pcg64 import _bounded_draws, _doubles, _pcg64_raw, _uint32_words

IDENTITY_RTOL = 1e-12
CONFLICT_SIZES = (2, 3, 4, 5, 6, 7, 8)  # the conflict check's agent counts

# Each `simulate` mode: the name of its check here, and the topology of its
# trace files at n agents (None: no trace). `simulate` looks the check up when
# it runs, where bench/tracer.py wraps it.
CHECKS = {
    "supportive": ("verify_supportive_convergence", DynamicsTopology.all_pairs),
    "conflicting": ("verify_conflict_instability", DynamicsTopology.mutual_conflict_pairs),
    # the leader check is supportive averaging on the leader sets
    "leader": ("verify_leader_convergence",
               lambda n: DynamicsTopology.with_leaders(n, (0,) if n < 3 else (0, 1))),
    "speedup": ("verify_belief_speedup", None),
}


@dataclass(frozen=True)
class SimulateConfig:
    """The `simulate:` section: agent counts, seeds and checks of the property
    suite, its step limits, and the traces it writes per check."""

    n_min: int = 3
    n_max: int = 10
    seeds: int = 100
    modes: list[str] = field(default_factory=lambda: list(CHECKS))
    tol: float = DEFAULT_TOL
    max_steps: int = DEFAULT_MAX_STEPS
    master_seed: int = 0
    trace_seeds: int = 1

    def __post_init__(self):
        if self.seeds < 1:
            raise ValueError("seed count must be at least 1")
        if self.n_min < 2 or self.n_max < self.n_min:
            raise ValueError(f"invalid agent range [{self.n_min}, {self.n_max}]")
        bad = [m for m in self.modes if m not in CHECKS]
        if bad:
            raise ValueError(f"unknown modes: {bad}")
        if len(set(self.modes)) != len(self.modes):
            raise ValueError(f"modes lists a mode twice: {self.modes}")
        if self.trace_seeds < 0:
            raise ValueError(f"trace_seeds must be nonnegative, got {self.trace_seeds}")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be nonnegative, got {self.master_seed}")
        if not (math.isfinite(self.tol) and self.tol > 0) or self.max_steps < 1:
            raise ValueError("tol must be finite and positive and max_steps at least 1")


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

def _increments_ok(actual, predicted, scale_sq, nonpositive: bool, isolated):
    """Whether the closed form holds and whether the increments have their
    sign (nonpositive or nonnegative), both within the one slack
    IDENTITY_RTOL * scale_sq."""
    slack = IDENTITY_RTOL * scale_sq
    identity = np.abs(actual - predicted) <= slack
    sign = actual <= slack if nonpositive else actual >= -slack
    return (identity | isolated).all(axis=-1), (sign | isolated).all(axis=-1)


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


def _seed_words(master_seed: int, key: int, seeds: int) -> np.ndarray:
    """The entropy words of `SeedSequence([master_seed, key, s])` for s < seeds,
    as (words, seeds) uint32."""
    words = np.array(_uint32_words(master_seed) + _uint32_words(key) + [0], np.uint32)
    words = np.repeat(words[:, None], seeds, axis=1)
    words[-1] = np.arange(seeds)
    return words


def _uniforms(raw: np.ndarray, start: np.ndarray, low: float, high: float, size: int):
    """`uniform(low, high, size)` per generator (column) of a raw block, from
    its output `start` on, as (generators, size)."""
    at = start[:, None] + np.arange(size)
    return low + (high - low) * _doubles(raw[at, np.arange(raw.shape[1])[:, None]])


def uniform_draws(master_seed: int, key: int, seeds: int, *bounds) -> list[np.ndarray]:
    """What the `Generator` of `SeedSequence([master_seed, key, s])` draws as
    `uniform(low, high, size)` for each (low, high, size) of `bounds` in turn, as one
    (seeds, size) array per bound for s < seeds, from one PCG64 pass."""
    sizes = [size for _, _, size in bounds]
    unit = _doubles(_pcg64_raw(_seed_words(master_seed, key, seeds), sum(sizes)))
    parts = np.split(unit.T, np.cumsum(sizes)[:-1], axis=1)
    return [low + (high - low) * u for (low, high, _), u in zip(bounds, parts)]


def _extended(raw: np.ndarray, words: np.ndarray, start: np.ndarray, size: int) -> np.ndarray:
    """The raw block, recomputed longer if some generator's `size` outputs from
    its `start` run past it (only after a rejected bounded draw)."""
    need = int(start.max()) + size
    return raw if len(raw) >= need else _pcg64_raw(words, need)


def conflict_states(master_seed: int, seeds: int) -> tuple[np.ndarray, np.ndarray]:
    """The conflict check's agent counts and initial states, from one PCG64 pass.

    For s < seeds, what the `Generator` of `SeedSequence([master_seed, 17,
    s])` draws: n = `choice(CONFLICT_SIZES)` (a bounded draw on a 32-bit half),
    then `uniform(0, 1, n)` beliefs and `uniform(-1, 1, n)` opinions from the
    next whole output on. A pair (i, i + 1), i even, whose beliefs lie within
    1e-3 has 0.1 added to belief i (the unequal-beliefs premise). Returns each
    seed's n and the (2, seeds, max n) stack of opinions and beliefs, NaN past
    the seed's n.
    """
    words, top = _seed_words(master_seed, 17, seeds), CONFLICT_SIZES[-1]
    raw = _pcg64_raw(words, 1 + 2 * top)
    half = np.zeros(seeds, np.intp)
    pick, raw = _bounded_draws(raw, words, half, len(CONFLICT_SIZES))
    n = np.array(CONFLICT_SIZES)[pick.astype(np.intp)]
    start = (half + 1) >> 1
    raw = _extended(raw, words, start, 2 * top)  # opinions end at most 2 * top past it
    beliefs = _uniforms(raw, start, 0.0, 1.0, top)
    opinions = _uniforms(raw, start + n, -1.0, 1.0, top)
    first, second = beliefs[:, 0:-1:2], beliefs[:, 1::2]  # the pairs, a view
    first[(np.abs(first - second) < 1e-3) & (np.arange(1, top, 2) < n[:, None])] += 0.1
    state = np.stack([opinions, beliefs])
    state[:, np.arange(top) >= n[:, None]] = np.nan
    return n, state


def leader_states(master_seed: int, seeds: int, n_leaders: int,
                  n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The leader check's leader sets and initial states, from one PCG64 pass.

    For s < seeds, what the `Generator` of `SeedSequence([master_seed, 23,
    s])` draws: `choice(n, n_leaders, replace=False)`, then `uniform(-1, 1, n)`
    opinions and `uniform(0, 1, n)` beliefs from the next whole output on.
    `choice` is Floyd's sampling (Bentley & Floyd 1987): for j from
    n - n_leaders to n - 1 it draws v in [0, j] and takes v, or j if v is
    taken already; then it shuffles the sample, drawing in [0, i] for i from
    n_leaders - 1 down to 1, which moves only the draws after it. Returns the
    (seeds, n_leaders) sorted leader sets, the (2, seeds, n) stack and the
    (2, seeds) leader means of opinions and beliefs, each `np.mean` of the
    seed's leaders.
    """
    words, rows = _seed_words(master_seed, 23, seeds), np.arange(seeds)
    raw = _pcg64_raw(words, n_leaders + 2 * n)
    half = np.zeros(seeds, np.intp)
    taken = np.zeros((seeds, n), dtype=bool)
    for j in range(n - n_leaders, n):
        v, raw = _bounded_draws(raw, words, half, j + 1)
        v = v.astype(np.intp)
        taken[rows, np.where(taken[rows, v], j, v)] = True
    for i in range(n_leaders - 1, 0, -1):
        raw = _bounded_draws(raw, words, half, i + 1)[1]
    start = (half + 1) >> 1
    raw = _extended(raw, words, start, 2 * n)
    state = np.stack([_uniforms(raw, start, -1.0, 1.0, n), _uniforms(raw, start + n, 0.0, 1.0, n)])
    leaders = np.nonzero(taken)[1].reshape(seeds, n_leaders)
    return leaders, state, np.take_along_axis(state, leaders[None], axis=2).mean(axis=2)


def supportive_states(master_seed: int, n: int, seeds: int) -> np.ndarray:
    """The supportive check's initial (opinions, beliefs) at n agents, as one
    (2, seeds, n) stack."""
    return np.stack(uniform_draws(master_seed, n, seeds, (-1.0, 1.0, n), (0.0, 1.0, n)))


def required_pairs(seeds: int) -> int:
    """Pairs of the speedup check's `seeds` that must pass: 95%, at least one."""
    return max(1, int(0.95 * seeds))


def verify_supportive_convergence(sim: SimulateConfig = SimulateConfig()) -> PropertyResult:
    """All-pairs supportive collaboration at step size 2/n, n from `n_min` to
    `n_max`; reads `seeds`, `tol`, `max_steps` and `master_seed` too.

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
    for n in range(sim.n_min, sim.n_max + 1):
        topo = DynamicsTopology.all_pairs(n)
        state = supportive_states(sim.master_seed, n, sim.seeds)
        average = topology_step(topo, "supportive", state.shape, power=2)
        isolated = average.degree == 0

        def identity_step(state, carry, k):
            # the identity, its nonpositive sign, then that no distance to the collaborator
            # mean grew (the marginal tie keeps them constant, contraction shrinks them)
            prev_dists, = carry  # infinite before step 0, so nothing grew there
            sc = _scale_sq(state)
            actual, predicted, dist_sq, state = averaging_increments(state, average)
            dists = np.sqrt(dist_sq[0])
            atol = 1e-12 * np.maximum(1.0, np.max(dists, axis=1, keepdims=True))
            constant = np.all(np.abs(dists - prev_dists) <= atol, axis=1)
            grew = ~constant & np.any(dists > prev_dists + 1e-12, axis=1)
            identity, sign = _increments_ok(actual, predicted, sc, True, isolated)
            return state, (dists,), (
                (identity.all(axis=0), "identity violated"),
                (sign.all(axis=0), "positive increment"),
                (~grew, "distance grew"),
            )

        checks, first, _ = run_rows(state, 50, identity_step,
                                    carry=(np.full((sim.seeds, n), np.inf),))
        ok = np.array([f is None for f in first])
        verdict = run_batch(state[:, ok], topo, "supportive", tol=sim.tol, max_steps=sim.max_steps)
        gap = np.ptp(verdict.final[0], axis=1) >= sim.tol
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


def verify_conflict_instability(sim: SimulateConfig = SimulateConfig()) -> PropertyResult:
    """Mutual-conflict pairs with unequal beliefs must diverge in belief; reads
    `seeds` and `master_seed` alone (n, tol and the step budget are fixed).

    Checks the nonnegative belief increment identity and the nonpositive
    opinion increment identity at every step, and that the run is flagged
    non-convergent with the belief-divergence reason. The seeds of one n run
    as one batch.
    """
    t0 = time.perf_counter()
    seeds = sim.seeds
    sizes, states = conflict_states(sim.master_seed, seeds)

    outcomes: list = [None] * seeds
    for n in sorted(set(sizes.tolist())):
        topo = DynamicsTopology.mutual_conflict_pairs(n)
        alpha, beta = topo.step_sizes()
        average = LaplacianStep.of(topo.adjacency, alpha, power=2)
        repel = LaplacianStep.of(topo.adjacency, beta, 1.0, 2)
        isolated = average.degree == 0

        def identity_step(state, carry, k):
            sc_op, sc_be = _scale_sq(state)
            new = np.empty_like(state)
            a_op, p_op, _, new[0] = averaging_increments(state[0], average)
            a_be, p_be, _, new[1] = contrarian_increments(state[1], repel)
            identity_op, sign_op = _increments_ok(a_op, p_op, sc_op, True, isolated)
            identity_be, sign_be = _increments_ok(a_be, p_be, sc_be, False, isolated)
            return new, carry, (
                (identity_op & identity_be, "identity violated"),
                (sign_op, "opinion increment positive"),
                (sign_be, "belief increment negative"),
            )

        idx = np.flatnonzero(sizes == n)
        state = np.ascontiguousarray(states[:, idx, :n])
        checks, first, _ = run_rows(state, 30, identity_step)
        ok = np.array([f is None for f in first])
        verdict = run_batch(state[:, ok], topo, "conflicting", max_steps=500)
        verdicts = iter(zip(verdict.reasons, verdict.converged))
        for s, c, f in zip(idx.tolist(), checks.tolist(), first):
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


def verify_leader_convergence(sim: SimulateConfig = SimulateConfig(),
                              n_leaders: int = 2) -> PropertyResult:
    """Leader-following converges all 7 agents to the leader average; reads
    `seeds`, `tol`, `max_steps` and `master_seed`.

    The leader average is invariant under the update, so the final state is
    compared against the initial leader mean; the first-power distance
    increments must be nonpositive with their closed form holding exactly.
    Each seed draws its own leader set, so each row of the one batch of all
    seeds steps on its own `with_leaders` graph and step sizes, until it
    converges or fails.
    """
    seeds, n, tol, max_steps = sim.seeds, 7, sim.tol, sim.max_steps
    if not 1 <= n_leaders <= n:
        raise ValueError(f"n_leaders must be in [1, {n}], got {n_leaders}")
    t0 = time.perf_counter()
    leaders, initial, targets = leader_states(sim.master_seed, seeds, n_leaders, n)
    # one topology per distinct leader set, at most C(7, n_leaders)
    codes = (1 << leaders).sum(axis=1)
    _, first_seed, of_seed = np.unique(codes, return_index=True, return_inverse=True)
    topos = [DynamicsTopology.with_leaders(n, leaders[s].tolist()) for s in first_seed]

    # each seed's step on its leader set's graph, in the carry so that it leaves with its row
    follow = LaplacianStep.of(np.stack([t.adjacency for t in topos]),
                              np.array([t.step_sizes() for t in topos]).T[:, :, None], power=1)

    def leader_step(state, carry, k):
        step, = carry
        sc_op, sc_be = _scale_sq(state)
        actual, predicted, _, state = leader_increments(state, step)
        sc = np.where(sc_be > sc_op, sc_be, sc_op)  # Python's max(sc_op, sc_be)
        identity, sign = _increments_ok(actual, predicted, sc, True, step.degree == 0)
        return state, carry, (
            (identity.all(axis=0), "leader identity violated"),
            (sign.all(axis=0), "leader distance grew"),
        )

    checks, first, final = run_rows(initial, max_steps, leader_step,
                                    functools.partial(within_tol, tol=tol), (follow[of_seed],))
    off = (np.abs(final - targets[:, :, None]).max(axis=2) >= tol).any(axis=0)
    outcomes = [(c, f"{f[1]} at seed={s} step={f[0]}" if f is not None
                 else f"no convergence within budget at seed={s}" if c == max_steps
                 else f"final state off the leader average at seed={s}" if o else None)
                for s, (c, f, o) in enumerate(zip(checks.tolist(), first, off))]
    checks, _, failures = _walk(outcomes)
    return PropertyResult("leader convergence (to the leader average)", seeds, checks, failures,
                          time.perf_counter() - t0)


def verify_belief_speedup(sim: SimulateConfig = SimulateConfig()) -> PropertyResult:
    """Higher-belief leaders (2 of 7 agents) move follower beliefs at least as
    fast; reads `seeds`, `tol`, `max_steps` and `master_seed`.

    Paired trials share followers and opinions; the high trial lifts every
    leader belief by the same positive boost. Per-step follower increments
    must dominate pointwise, and steps to belief-spread tolerance must not
    exceed the low trial's in at least `required_pairs(seeds)` of the pairs
    (the contraction rate is structural, so ties are the expected outcome).
    The trials step as one (2 trials, seeds, n) stack.
    """
    t0 = time.perf_counter()
    seeds, n = sim.seeds, 7
    leaders, followers = (5, 6), list(range(5))
    topo = DynamicsTopology.with_leaders(n, leaders)
    follow = LaplacianStep.of(topo.adjacency, topo.step_sizes()[1], power=1)  # beliefs only

    follower_b, low_lead, boost = uniform_draws(sim.master_seed, 29, seeds, (0.05, 0.35, 5),
                                                (0.55, 0.70, 2), (0.002, 0.010, 1))
    trials = np.stack([np.hstack([follower_b, low_lead]),
                       np.hstack([follower_b, low_lead + boost])])

    def dominance_step(pairs, carry, k):
        actual, _, _, pairs = leader_increments(pairs, follow)
        low, high = np.abs(actual[:, :, followers])
        return pairs, carry, ((~np.any(high + 1e-15 < low, axis=1),
                               "follower increment smaller under high leaders"),)

    def belief_step(state, carry, k):
        return follow(state)[0], carry, ()

    # per-step dominance; a pair leaves once both trials are within tol
    done = functools.partial(within_tol, tol=sim.tol)
    checks, first, _ = run_rows(trials, 200, dominance_step, done)
    failures_by_seed = [None if f is None else f"{f[1]} at seed={s}" for s, f in enumerate(first)]
    # steps to belief-spread tolerance of every trial, low trials first
    steps = run_rows(trials.reshape(1, 2 * seeds, n), sim.max_steps + 1, belief_step, done)[0]
    checks_sum, walked, failures = _walk(list(zip(checks.tolist(), failures_by_seed)))
    pair_passed = (steps[seeds:] <= steps[:seeds]) & np.equal(failures_by_seed, None)
    passed_pairs = int(pair_passed[:walked].sum())
    if not failures and passed_pairs < required_pairs(seeds):
        failures.append(f"only {passed_pairs}/{seeds} paired seeds satisfied the step comparison")
    return PropertyResult(f"belief speedup (higher-belief leaders, {passed_pairs}/{seeds} pairs)",
                          2 * seeds, checks_sum, failures, time.perf_counter() - t0)

