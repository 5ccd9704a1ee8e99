"""Discrete-time opinion/belief dynamics with verifiable contraction identities.

Agents hold scalar opinions and beliefs. A topology is one collaborator
graph: per agent, the set of collaborators it averages with. The dynamics
mode is only the belief sign: supportive collaboration averages both
opinions and beliefs toward the collaborators; conflicting collaboration
averages opinions but pushes beliefs apart. Leader-following is supportive
averaging on the `with_leaders` sets (followers see every leader, leaders
the other leaders). Beliefs here are unclamped reals: the update algebra
treats them as abstract scalars, and divergence must be representable.

Every update is one Laplacian step. With collaborator adjacency A (A[i, j]
counts j among agent i's collaborators) and L = diag(A 1) - A:

    averaging:  x' = x - g*L x        repulsion:  x' = x + g*L x

Per agent with m collaborators this is x_i' = (1 -/+ m*g)*x_i +/- g*sum_j x_j
(DeGroot 1974; Olfati-Saber, Fax & Murray 2007).

Each step admits an exact per-agent increment identity against the frozen
collaborator mean, e.g. for an averaging update with step size g over m
collaborators:

    (v' - mean)^2 - (v - mean)^2 = [(1 - g*m)^2 - 1] * (v - mean)^2

These identities are exposed as helpers so tests and the property suite can
check them algebraically rather than by sign alone.
"""

from __future__ import annotations

import csv
import functools
from dataclasses import dataclass
from typing import IO, Sequence

import numpy as np

DEFAULT_TOL = 1e-9
DEFAULT_MAX_STEPS = 10_000
DIVERGENCE_WINDOW = 10  # belief spread strictly increasing this many steps in a row

REASON_CONSENSUS = "consensus"
REASON_MARGINAL = "marginal contraction"
REASON_DIVERGENCE = "belief divergence"
REASON_BUDGET = "step budget exhausted"


@dataclass(frozen=True)
class DynamicsState:
    opinions: np.ndarray
    beliefs: np.ndarray
    step: int = 0

    def __post_init__(self):
        object.__setattr__(self, "opinions", np.asarray(self.opinions, dtype=float))
        object.__setattr__(self, "beliefs", np.asarray(self.beliefs, dtype=float))
        if self.opinions.shape != self.beliefs.shape or self.opinions.ndim != 1:
            raise ValueError("topology/state arity: opinions and beliefs must be equal-length vectors")
        if len(self.opinions) < 2:
            raise ValueError("need at least 2 agents")


@dataclass(frozen=True)
class DynamicsTopology:
    """Per-agent collaborator sets (one graph) and step sizes (default
    alpha = beta = 2/n)."""

    sets: tuple[tuple[int, ...], ...]
    alpha: float | None = None
    beta: float | None = None

    def __post_init__(self):
        # tuples, so that the cached adjacency builder can key on them
        object.__setattr__(self, "sets", tuple(map(tuple, self.sets)))
        for i, s in enumerate(self.sets):
            if i in s:
                raise ValueError(f"agent {i} appears in its own collaborator set")
            if not all(0 <= j < self.n for j in s):
                raise ValueError(f"agent {i} has a collaborator index outside [0, {self.n})")

    @property
    def n(self) -> int:
        return len(self.sets)

    def step_sizes(self) -> tuple[float, float]:
        default = 2.0 / self.n
        return (
            default if self.alpha is None else self.alpha,
            default if self.beta is None else self.beta,
        )

    @property
    def adjacency(self) -> np.ndarray:
        """Collaborator adjacency A (read-only)."""
        return _adjacency(self.sets)

    @classmethod
    def all_pairs(cls, n: int, alpha: float | None = None, beta: float | None = None):
        return cls(tuple(tuple(j for j in range(n) if j != i) for i in range(n)), alpha, beta)

    @classmethod
    def mutual_conflict_pairs(cls, n: int, alpha: float | None = None, beta: float | None = None):
        """Pair agents (0,1), (2,3), ...; an odd agent out is isolated."""
        partners = (i + 1 if i % 2 == 0 else i - 1 for i in range(n))
        return cls(tuple((p,) if p < n else () for p in partners), alpha, beta)

    @classmethod
    def with_leaders(cls, n: int, leaders: Sequence[int],
                     alpha: float | None = None, beta: float | None = None):
        """Followers collaborate with every leader, leaders with the other
        leaders; a leader listed twice counts once."""
        if not leaders:
            raise ValueError("no leaders")
        leaders = tuple(dict.fromkeys(leaders))
        return cls(tuple(tuple(j for j in leaders if j != i) for i in range(n)), alpha, beta)


# The adjacency builder is cached on its (hashable) sets: the property checks
# step the same few topologies thousands of times. The arrays are shared, so
# they are read-only.

@functools.lru_cache(maxsize=256)
def _adjacency(sets: tuple[tuple[int, ...], ...]) -> np.ndarray:
    a = np.zeros((len(sets), len(sets)))
    for i, collab in enumerate(sets):
        for j in collab:
            a[i, j] += 1.0
    a.flags.writeable = False
    return a


def laplacian_step(values: np.ndarray, adjacency: np.ndarray, gamma: float, sign: float = -1.0):
    """One step x' = x + sign*g*L x with L = diag(A 1) - A.

    sign = -1 averages toward the collaborators, +1 pushes away from them.
    `values` is one (n,) vector or a (seeds, n) batch. Returns x', the
    frozen collaborator mean A x / A 1 (NaN for agents with no
    collaborators) and the collaborator counts A 1.

    einsum rather than matmul: each row of a batch comes out bit for bit as
    it would alone, and these tiny products skip BLAS, whose first call
    costs ~0.4 MB of resident memory.
    """
    degree = adjacency.sum(axis=1)
    sums = np.einsum("...j,ij->...i", values, adjacency)
    new = values + sign * gamma * (degree * values - sums)
    return new, sums / np.where(degree > 0, degree, np.nan), degree


def _advance(state: DynamicsState, topo: DynamicsTopology, belief_sign: float) -> DynamicsState:
    if topo.n != len(state.opinions):
        raise ValueError("topology/state arity: collaborator sets do not match agent count")
    a = topo.adjacency
    alpha, beta = topo.step_sizes()
    return DynamicsState(
        opinions=laplacian_step(state.opinions, a, alpha)[0],
        beliefs=laplacian_step(state.beliefs, a, beta, belief_sign)[0],
        step=state.step + 1,
    )


def step_supportive(state: DynamicsState, topo: DynamicsTopology) -> DynamicsState:
    """Average opinions and beliefs toward each agent's collaborators."""
    return _advance(state, topo, -1.0)


def step_conflicting(state: DynamicsState, topo: DynamicsTopology) -> DynamicsState:
    """Average opinions toward each agent's collaborators but push beliefs apart."""
    return _advance(state, topo, 1.0)


# Leader-following is supportive averaging on `DynamicsTopology.with_leaders`;
# the name stays because bench/tracer.py wraps it.
step_leader_follow = step_supportive


# ---------------------------------------------------------------------------
# increment identities (checked against the frozen step-k collaborator mean);
# each accepts one (n,) vector or a (seeds, n) batch

def _squared_increments(values, sets, gamma: float, sign: float):
    values = np.asarray(values, dtype=float)
    new, mean, m = laplacian_step(values, _adjacency(tuple(map(tuple, sets))), gamma, sign)
    dist_sq = (values - mean) ** 2
    return (new - mean) ** 2 - dist_sq, ((1.0 + sign * gamma * m) ** 2 - 1.0) * dist_sq, dist_sq


def averaging_increments(values: np.ndarray, sets, gamma: float):
    """Squared-distance increments for the averaging update.

    Returns (actual, predicted, dist_sq) arrays; entries are NaN for agents
    with no collaborators. predicted = [(1 - g*m)^2 - 1] * dist_sq.
    """
    return _squared_increments(values, sets, gamma, -1.0)


def contrarian_increments(values: np.ndarray, sets, gamma: float):
    """Squared-distance increments for the belief-repulsion update.

    predicted = [(1 + g*m)^2 - 1] * dist_sq, which is nonnegative.
    """
    return _squared_increments(values, sets, gamma, 1.0)


def leader_increments(values: np.ndarray, sets, gamma: float):
    """First-power distance increments toward the (frozen) collaborator mean.

    For agent i with m collaborators (on `with_leaders` sets, m = |leaders|
    for followers and |leaders|-1 for leaders),
    predicted = (|1 - g*m| - 1) * |v_i - mean_i|.
    """
    values = np.asarray(values, dtype=float)
    new, mean, m = laplacian_step(values, _adjacency(tuple(map(tuple, sets))), gamma)
    dist = np.abs(values - mean)
    return np.abs(new - mean) - dist, (np.abs(1.0 - gamma * m) - 1.0) * dist


# ---------------------------------------------------------------------------
# trajectory runner

@dataclass
class DynamicsResult:
    trace: list[DynamicsState]
    converged: bool
    reason: str
    marginal: bool
    mode: str

    @property
    def final(self) -> DynamicsState:
        return self.trace[-1]

    @property
    def steps(self) -> int:
        return self.trace[-1].step


@dataclass(frozen=True)
class BatchVerdicts:
    """Per-row verdicts of `run_batch`: each row's reason, its step count and
    its final (rows, n) opinions and beliefs."""

    reasons: np.ndarray  # of str
    steps: np.ndarray
    opinions: np.ndarray
    beliefs: np.ndarray

    @property
    def converged(self) -> np.ndarray:
        return np.isin(self.reasons, (REASON_CONSENSUS, REASON_MARGINAL))

    @property
    def marginal(self) -> np.ndarray:
        return self.reasons == REASON_MARGINAL


def _is_marginal_tie(topo: DynamicsTopology) -> bool:
    """True for the exact tie case: all-pairs sets with step size * n == 2.

    The deviation map is then a pure reflection (period-2 oscillation with
    constant distances), which is counted as converged in distance and
    flagged instead of being run to the step budget.
    """
    n = topo.n
    alpha, beta = topo.step_sizes()
    return (
        np.array_equal(topo.adjacency, 1.0 - np.eye(n))
        and abs(alpha * n - 2.0) < 1e-12
        and abs(beta * n - 2.0) < 1e-12
    )


def run_batch(
    opinions: np.ndarray,
    beliefs: np.ndarray,
    topo: DynamicsTopology,
    mode: str,
    tol: float = DEFAULT_TOL,
    max_steps: int = DEFAULT_MAX_STEPS,
    trace: list | None = None,
) -> BatchVerdicts:
    """Iterate the step of `mode` ("supportive" or "conflicting", the belief
    sign) on (rows, n) trajectories, each row until its own consensus,
    divergence, or budget.

    Consensus: max pairwise opinion gap and belief gap both below tol.
    Divergence: belief spread strictly increasing for DIVERGENCE_WINDOW steps.
    In the all-pairs tie case (see _is_marginal_tie) a row that oscillates
    with period 2 is reported converged with the marginal flag after 2 steps.
    A row leaves the batch on its verdict, so it is stepped exactly as it
    would be alone. If `trace` is a list, the (opinions, beliefs) of every
    state of a one-row batch are appended to it.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_steps < 1:
        raise ValueError("max_steps must be at least 1")
    opinions = np.asarray(opinions, dtype=float)
    beliefs = np.asarray(beliefs, dtype=float)
    if opinions.shape != beliefs.shape or opinions.ndim != 2:
        raise ValueError("opinions and beliefs must be (rows, n) batches of one shape")
    if topo.n != opinions.shape[1]:
        raise ValueError("topology/state arity: collaborator sets do not match agent count")
    if mode not in ("supportive", "conflicting"):
        raise ValueError(f"unknown dynamics mode: {mode!r}")
    a = topo.adjacency
    alpha, beta = topo.step_sizes()
    belief_sign = 1.0 if mode == "conflicting" else -1.0

    def advance(op, be):
        return laplacian_step(op, a, alpha)[0], laplacian_step(be, a, beta, belief_sign)[0]

    rows = len(opinions)
    reasons = np.full(rows, REASON_BUDGET, dtype=object)
    steps = np.full(rows, max_steps)
    final_op, final_be = opinions.copy(), beliefs.copy()
    live = np.arange(rows)
    op, be = opinions, beliefs
    prev_bspread = np.ptp(be, axis=1)
    grow_streak = np.zeros(rows, dtype=int)

    def settle(done, reason, step, final_states=None):
        """Record the verdict of the live rows in `done` and drop them."""
        nonlocal live, op, be, prev_bspread, grow_streak
        if not done.any():
            return
        ended = live[done]
        reasons[ended] = reason
        steps[ended] = step
        f_op, f_be = (op, be) if final_states is None else final_states
        final_op[ended], final_be[ended] = f_op[done], f_be[done]
        keep = ~done
        live, op, be = live[keep], op[keep], be[keep]
        prev_bspread, grow_streak = prev_bspread[keep], grow_streak[keep]

    if trace is not None:
        trace.append((op, be))
    if mode == "supportive" and _is_marginal_tie(topo):
        s1 = advance(op, be)
        s2 = advance(*s1)
        period_two = (np.isclose(s2[0], op, rtol=0, atol=1e-12).all(axis=1)
                      & np.isclose(s2[1], be, rtol=0, atol=1e-12).all(axis=1))
        if trace is not None and period_two.all():
            trace += [s1, s2]
        settle(period_two, REASON_MARGINAL, 2, s2)

    for k in range(max_steps):
        settle((np.ptp(op, axis=1) < tol) & (np.ptp(be, axis=1) < tol), REASON_CONSENSUS, k)
        if not live.size:
            break
        op, be = advance(op, be)
        if trace is not None:
            trace.append((op, be))
        bspread = np.ptp(be, axis=1)
        grow_streak = np.where(bspread > prev_bspread, grow_streak + 1, 0)
        prev_bspread = bspread
        settle(grow_streak >= DIVERGENCE_WINDOW, REASON_DIVERGENCE, k + 1)
    else:
        settle((np.ptp(op, axis=1) < tol) & (np.ptp(be, axis=1) < tol), REASON_CONSENSUS, max_steps)
    final_op[live], final_be[live] = op, be
    return BatchVerdicts(reasons, steps, final_op, final_be)


def run_dynamics(
    initial: DynamicsState,
    topo: DynamicsTopology,
    mode: str,
    tol: float = DEFAULT_TOL,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> DynamicsResult:
    """`run_batch` on one trajectory, with every state it passed through."""
    states: list = []
    verdict = run_batch(initial.opinions[None], initial.beliefs[None], topo, mode,
                        tol=tol, max_steps=max_steps, trace=states)
    reason = verdict.reasons[0]
    trace = [DynamicsState(op[0], be[0], step) for step, (op, be) in enumerate(states)]
    return DynamicsResult(trace, bool(verdict.converged[0]), reason,
                          bool(verdict.marginal[0]), mode)


def trace_to_csv(result: DynamicsResult, topo: DynamicsTopology, out: IO[str]):
    """Write the trajectory as CSV with per-agent distances to collaborator means."""
    a = topo.adjacency
    writer = csv.writer(out)
    writer.writerow(
        ["step", "agent_id", "opinion", "belief", "dist_to_mean_opinion", "dist_to_mean_belief"]
    )
    for state in result.trace:
        values = np.stack([state.opinions, state.beliefs])
        _, mean, m = laplacian_step(values, a, 0.0)  # only the collaborator means
        dist = np.abs(values - mean)
        for i in range(len(state.opinions)):
            od, bd = (repr(float(d)) for d in dist[:, i]) if m[i] else ("", "")
            writer.writerow(
                [state.step, i, repr(float(state.opinions[i])), repr(float(state.beliefs[i])), od, bd]
            )
