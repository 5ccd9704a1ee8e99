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
from dataclasses import dataclass, replace
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


_NORMS = {1: np.abs, 2: np.square}  # distance to the collaborator mean by power


@dataclass(frozen=True)
class LaplacianStep:
    """The step x' = x + sign*g*L x with L = diag(A 1) - A: sign -1 averages
    toward the collaborators, +1 pushes away from them. What does not depend
    on x is computed once: the adjacency A, the signed step size sign*g, the
    degree A 1 (collaborator counts) and the collaborator-mean divisor (the
    degree, NaN where it is 0); built with a `power` (1 or 2) for the
    increment helpers, also their closed-form factor |1 + sign*g*m|^power - 1,
    m the degree. A batch that takes many steps builds it once.

    The values stepped are one (n,) vector or a (..., rows, n) batch; A is one
    (n, n) graph for every row or a (rows, n, n) stack, one per row; g and
    sign are scalars or arrays that broadcast against the values, such as
    (rows, 1) per-row step sizes or (2, 1, 1) per-quantity ones for stacked
    opinions and beliefs. einsum rather than matmul: each row of a batch comes
    out bit for bit as it would alone, and these tiny products skip BLAS,
    whose first call costs ~0.4 MB of resident memory.
    """

    adjacency: np.ndarray
    step: np.ndarray | float
    degree: np.ndarray
    divisor: np.ndarray
    sign: np.ndarray | float = -1.0
    power: int | None = None
    factor: np.ndarray | None = None

    @classmethod
    def of(cls, adjacency: np.ndarray, gamma, sign=-1.0, power: int | None = None):
        """The step on `adjacency` with step size `gamma` and `sign`."""
        degree = adjacency.sum(axis=-1)
        step = sign * gamma
        factor = None if power is None else _NORMS[power](1.0 + step * degree) - 1.0
        return cls(adjacency, step, degree, np.where(degree > 0, degree, np.nan), sign, power,
                   factor)

    def __call__(self, values: np.ndarray):
        """x', the frozen collaborator mean A x / A 1 and the degree."""
        sums = np.einsum("...j,...ij->...i", values, self.adjacency)
        return values + self.step * (self.degree * values - sums), sums / self.divisor, self.degree

    def __getitem__(self, rows):
        """The step of `rows` of a step with one graph per row (rows on axis
        -2 of its other arrays), so that it leaves `run_rows`' carry with them."""
        def take(a):
            return None if a is None else a[..., rows, :]
        return replace(self, adjacency=self.adjacency[rows], step=take(self.step),
                       degree=take(self.degree), divisor=take(self.divisor),
                       factor=take(self.factor))


# the belief sign of each dynamics mode; opinions always average
_BELIEF_SIGNS = {"supportive": -1.0, "conflicting": 1.0}


def topology_step(topo: DynamicsTopology, mode: str, shape: tuple[int, ...],
                  power: int | None = None) -> LaplacianStep:
    """The step of a (2, ..., n) stack of opinions and beliefs of `shape`
    under `mode`: opinions with alpha toward the collaborators, beliefs with
    beta and the mode's belief sign (one scalar sign where the two agree)."""
    if len(shape) < 2 or shape[0] != 2 or shape[-1] != topo.n:
        raise ValueError(f"topology/state arity: {shape} is not a (2, ..., {topo.n}) stack")
    if mode not in _BELIEF_SIGNS:
        raise ValueError(f"unknown dynamics mode: {mode!r}")
    axes = (2,) + (1,) * (len(shape) - 1)
    sign = _BELIEF_SIGNS[mode]
    if sign != -1.0:  # opinions average, beliefs do not
        sign = np.reshape((-1.0, sign), axes)
    return LaplacianStep.of(topo.adjacency, np.reshape(topo.step_sizes(), axes), sign, power)


def step_supportive(state: np.ndarray, topo: DynamicsTopology) -> np.ndarray:
    """Average a (2, ..., n) stack of opinions and beliefs toward the collaborators."""
    state = np.asarray(state, dtype=float)
    return topology_step(topo, "supportive", state.shape)(state)[0]


def step_conflicting(state: np.ndarray, topo: DynamicsTopology) -> np.ndarray:
    """Average the opinions of a (2, ..., n) stack but push the beliefs apart."""
    state = np.asarray(state, dtype=float)
    return topology_step(topo, "conflicting", state.shape)(state)[0]


# Leader-following is supportive averaging on `DynamicsTopology.with_leaders`;
# the name stays because bench/tracer.py wraps it.
step_leader_follow = step_supportive


# ---------------------------------------------------------------------------
# increment identities (checked against the frozen step-k collaborator mean);
# each takes the values and a `LaplacianStep` built with the helper's sign
# and power, and returns (actual, predicted, dist, new): the increments of
# each agent's distance to its collaborator mean raised to `power` (NaN for
# agents with no collaborators), their closed form, the distances so raised
# and the stepped values x'

def _increments(values, step: LaplacianStep, sign: float, power: int):
    """predicted = (|1 + sign*g*m|^power - 1) * |v - mean|^power, power 1 or 2."""
    if step.power != power or not (np.isscalar(step.sign) and step.sign == sign):
        raise ValueError(f"a step of sign {step.sign} and power {step.power} where "
                         f"sign {sign} and power {power} were expected")
    values = np.asarray(values, dtype=float)
    new, mean, _ = step(values)
    norm = _NORMS[power]
    dist = norm(values - mean)
    return norm(new - mean) - dist, step.factor * dist, dist, new


def averaging_increments(values: np.ndarray, step: LaplacianStep):
    """Squared distances, averaging: predicted = [(1 - g*m)^2 - 1] * dist^2."""
    return _increments(values, step, -1.0, 2)


def contrarian_increments(values: np.ndarray, step: LaplacianStep):
    """Squared distances, repulsion: predicted = [(1 + g*m)^2 - 1] * dist^2 >= 0."""
    return _increments(values, step, 1.0, 2)


def leader_increments(values: np.ndarray, step: LaplacianStep):
    """First-power distances, averaging: predicted = (|1 - g*m| - 1) * |v - mean|.
    On `with_leaders` sets m = |leaders| for followers, |leaders| - 1 for leaders."""
    return _increments(values, step, -1.0, 1)


# ---------------------------------------------------------------------------
# trajectory runner

@dataclass(frozen=True)
class BatchVerdicts:
    """Per-row verdicts of `run_batch`: each row's reason, its step count and
    the (2, rows, n) stack of the opinions and beliefs it ended in."""

    reasons: np.ndarray  # of str
    steps: np.ndarray
    final: np.ndarray

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


def within_tol(state: np.ndarray, tol: float) -> np.ndarray:
    """Per row of a (q, rows, n) stack: every quantity's spread is below tol."""
    return (np.ptp(state, axis=2) < tol).all(axis=0)


def run_rows(state: np.ndarray, steps: int, step, done=None, carry: tuple = ()):
    """Step the rows of a (q, rows, n) stack together, each until it ends.

    A row for which done(state) holds before step k ends with k steps
    checked. step(state, carry, k) returns the stepped state, the new carry
    and (per-row ok mask, kind) pairs in check order; a row that fails one
    ends with k + 1 steps checked and the first kind it failed, and a row
    still running after `steps` steps ends there. `carry` holds per-row
    arrays (rows on axis 0) or `LaplacianStep`s, which leave with their rows
    (`c[keep]`), so each row steps exactly as it would alone. Returns per row
    the steps checked, the first failed (step, kind) or None, and the
    (q, rows, n) states it ended in.
    """
    rows = state.shape[1]
    checks = np.full(rows, steps)
    first: list[tuple[int, str] | None] = [None] * rows
    final = np.empty_like(state)
    live = np.arange(rows)

    def end(mask, count):
        nonlocal live, state, carry
        if not mask.any():
            return
        checks[live[mask]] = count
        final[:, live[mask]] = state[:, mask]
        keep = ~mask
        live, state, carry = live[keep], state[:, keep], tuple(c[keep] for c in carry)

    for k in range(steps):
        if done is not None:
            end(done(state), k)
        if not live.size:
            break
        state, carry, tests = step(state, carry, k)
        failed = np.zeros(live.size, dtype=bool)
        for ok, kind in tests:
            if ok.all():
                continue
            for r in live[~ok & ~failed]:
                first[r] = (k, kind)
            failed |= ~ok
        end(failed, k + 1)
    final[:, live] = state
    return checks, first, final


def run_batch(
    state: np.ndarray,
    topo: DynamicsTopology,
    mode: str,
    tol: float = DEFAULT_TOL,
    max_steps: int = DEFAULT_MAX_STEPS,
    trace: list | None = None,
) -> BatchVerdicts:
    """Iterate the step of `mode` ("supportive" or "conflicting", the belief
    sign) on a (2, rows, n) stack of opinions and beliefs, each row until its
    own consensus, divergence, or budget.

    Consensus: max pairwise opinion gap and belief gap both below tol.
    Divergence: belief spread strictly increasing for DIVERGENCE_WINDOW steps.
    In the all-pairs tie case (see _is_marginal_tie) a row that oscillates
    with period 2 is reported converged with the marginal flag after 2 steps.
    The other rows step together in `run_rows`. If `trace` is a list, the
    (2, 1, n) stack of every state of a one-row batch is appended to it.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_steps < 1:
        raise ValueError("max_steps must be at least 1")
    state = np.asarray(state, dtype=float)
    if state.ndim != 3 or len(state) != 2:
        raise ValueError("state must be a (2, rows, n) stack of opinions and beliefs")
    laplacian = topology_step(topo, mode, state.shape)
    consensus = functools.partial(within_tol, tol=tol)

    def step(state, carry, k):
        prev_bspread, grow_streak = carry
        state = laplacian(state)[0]
        if trace is not None:
            trace.append(state)
        bspread = np.ptp(state[1], axis=1)
        grow_streak = np.where(bspread > prev_bspread, grow_streak + 1, 0)
        diverged = grow_streak >= DIVERGENCE_WINDOW
        return state, (bspread, grow_streak), ((~diverged, REASON_DIVERGENCE),)

    rows = state.shape[1]
    reasons = np.full(rows, REASON_MARGINAL, dtype=object)
    steps = np.full(rows, 2)
    final = state.copy()
    rest = np.ones(rows, dtype=bool)
    if trace is not None:
        trace.append(state)
    if mode == "supportive" and _is_marginal_tie(topo):
        s1 = laplacian(state)[0]
        s2 = laplacian(s1)[0]
        rest = ~np.isclose(s2, state, rtol=0, atol=1e-12).all(axis=(0, 2))
        if trace is not None and not rest.any():
            trace += [s1, s2]
        final[:, ~rest] = s2[:, ~rest]

    carry = (np.ptp(state[1, rest], axis=1), np.zeros(rest.sum(), dtype=int))
    steps[rest], first, final[:, rest] = run_rows(state[:, rest], max_steps, step, consensus, carry)
    # a row that ran out its budget within tol is consensus too
    ended = np.where(consensus(final[:, rest]), REASON_CONSENSUS, REASON_BUDGET).astype(object)
    ended[[f is not None for f in first]] = REASON_DIVERGENCE
    reasons[rest] = ended
    return BatchVerdicts(reasons, steps, final)


def run_dynamics(
    state: np.ndarray,
    topo: DynamicsTopology,
    mode: str,
    tol: float = DEFAULT_TOL,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> tuple[BatchVerdicts, np.ndarray]:
    """`run_batch` on one (2, n) stack of opinions and beliefs: its one-row
    verdicts and the (steps + 1, 2, n) trace of every state it passed through."""
    states: list = []
    verdict = run_batch(np.asarray(state, dtype=float)[:, None], topo, mode, tol=tol,
                        max_steps=max_steps, trace=states)
    return verdict, np.stack(states)[:, :, 0]


def trace_to_csv(trace: np.ndarray, topo: DynamicsTopology, out: IO[str]):
    """Write a (steps + 1, 2, n) trajectory of opinions and beliefs as CSV,
    with per-agent distances to collaborator means."""
    trace = np.asarray(trace, dtype=float)
    _, mean, m = LaplacianStep.of(topo.adjacency, 0.0)(trace)  # only the collaborator means
    dist = np.abs(trace - mean)
    writer = csv.writer(out)
    writer.writerow(
        ["step", "agent_id", "opinion", "belief", "dist_to_mean_opinion", "dist_to_mean_belief"]
    )
    for step, (values, d) in enumerate(zip(trace, dist)):
        for i in range(topo.n):
            od, bd = (repr(float(x)) for x in d[:, i]) if m[i] else ("", "")
            writer.writerow([step, i, repr(float(values[0, i])), repr(float(values[1, i])), od, bd])
