"""The batched trajectory runner and property checks against the seed-by-seed
forms they replaced (`tests/verification_oracle.py`): the same verdicts,
step counts, final-state bits, trace CSV bytes, and the same
(name, passed, trajectories, checks, failures) under injected faults."""

import io
import re
import warnings

import numpy as np
import pytest

import verification_oracle as oracle
from belief_consensus import verification
from belief_consensus.dynamics import (
    DynamicsState,
    DynamicsTopology,
    run_batch,
    run_dynamics,
    trace_to_csv,
)


def ring(n):
    return tuple(((i - 1) % n, (i + 1) % n) for i in range(n))


def batch_cases():
    """(topology, mode, opinions, beliefs) batches whose rows end on
    different steps and for different reasons."""
    rng = np.random.default_rng(5)
    n = 6
    op, be = rng.uniform(-1, 1, (8, n)), rng.uniform(0, 1, (8, n))
    op[1], be[1] = 0.25, 0.5                  # consensus before the first step
    op[2] *= 1e-6                             # opinions close together already
    be[3, 1::2] = be[3, 0::2]                 # conflict pairs with equal beliefs
    op[4, 0] = np.nan                         # never agrees: runs to the budget
    be[5] *= 1e150                            # overflows under repulsion
    return [
        (DynamicsTopology.all_pairs(n, alpha=1.5 / n, beta=1.2 / n), "supportive", op, be),
        # the marginal tie: rows back within 1e-12 after two steps stop there;
        # the NaN and the 1e150 rows run to the budget
        (DynamicsTopology.all_pairs(n), "supportive", op, be),
        (DynamicsTopology(ring(n)), "supportive", op, be),
        (DynamicsTopology.mutual_conflict_pairs(n), "conflicting", op, be),
        (DynamicsTopology.mutual_conflict_pairs(n, alpha=0.3, beta=0.05), "conflicting", op, be),
        # leader-following: supportive averaging on the leader sets
        (DynamicsTopology.with_leaders(n, (1, 4)), "supportive", op, be),
        (DynamicsTopology.with_leaders(n, (0, 2, 5), alpha=0.05, beta=0.4), "supportive", op, be),
    ]


class TestRunBatchOracle:
    @pytest.mark.parametrize("case", range(7))
    def test_rows_equal_oracle_run_dynamics(self, case):
        topo, mode, op, be = batch_cases()[case]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # the overflowing row
            verdict = run_batch(op, be, topo, mode, max_steps=400)
            expected = [oracle.run_dynamics(DynamicsState(o, b), topo, mode, max_steps=400)
                        for o, b in zip(op, be)]
        got = list(zip(verdict.converged.tolist(), verdict.reasons.tolist(),
                       verdict.marginal.tolist(), verdict.steps.tolist(),
                       (row.tobytes() for row in verdict.opinions),
                       (row.tobytes() for row in verdict.beliefs)))
        want = [(r.converged, r.reason, r.marginal, r.steps,
                 r.final.opinions.tobytes(), r.final.beliefs.tobytes()) for r in expected]
        assert got == want
        if case != 1:  # at the tie every finite row stops at step 2
            assert len(set(verdict.steps.tolist())) > 2

    @pytest.mark.parametrize("case", range(7))
    def test_run_dynamics_trace_csv_bytes(self, case):
        topo, mode, op, be = batch_cases()[case]
        for row in (0, 2, 3):
            state = DynamicsState(op[row], be[row])
            got, want = io.StringIO(), io.StringIO()
            trace_to_csv(run_dynamics(state, topo, mode, max_steps=400), topo, got)
            trace_to_csv(oracle.run_dynamics(state, topo, mode, max_steps=400), topo, want)
            assert got.getvalue() == want.getvalue()

    def test_rejects_mismatched_batches(self):
        topo = DynamicsTopology.all_pairs(3)
        with pytest.raises(ValueError, match="batches"):
            run_batch(np.zeros((2, 3)), np.zeros((3, 3)), topo, "supportive")
        with pytest.raises(ValueError, match="arity"):
            run_batch(np.zeros((2, 4)), np.zeros((2, 4)), topo, "supportive")
        with pytest.raises(ValueError, match="unknown dynamics mode"):
            run_batch(np.zeros((2, 3)), np.zeros((2, 3)),
                      DynamicsTopology.with_leaders(3, (0, 2)), "leader")
        with pytest.raises(ValueError, match="outside"):
            DynamicsTopology.with_leaders(3, (0, 3))


def _leaders_are(leaders):
    return lambda topo: topo.sets == DynamicsTopology.with_leaders(topo.n, leaders).sets


def _only(pick, sizes):
    """Step sizes `sizes` on the topologies `pick` selects, the default elsewhere."""
    return lambda topo: sizes(topo) if pick(topo) else (2.0 / topo.n,) * 2


# name -> (check, keyword arguments, patched DynamicsTopology.step_sizes)
FAULTS = {
    "conflict-1/n": ("verify_conflict_instability", {}, lambda t: (1.0 / t.n,) * 2),
    "conflict-beta0": ("verify_conflict_instability", {}, lambda t: (2.0 / t.n, 0.0)),
    "conflict-beta-negative-n5-only": (
        "verify_conflict_instability", {}, _only(lambda t: t.n == 5, lambda t: (2.0 / t.n, -0.5))),
    "conflict-alpha5-n6-only": (
        "verify_conflict_instability", {}, _only(lambda t: t.n == 6, lambda t: (5.0, 2.0 / t.n))),
    "conflict-overflow": ("verify_conflict_instability", {}, lambda t: (1e150, 1e150)),
    "conflict-overflow-n7-only": (
        "verify_conflict_instability", {}, _only(lambda t: t.n == 7, lambda t: (2.0 / t.n, 1e150))),
    "leader-0.5": ("verify_leader_convergence", {}, lambda t: (0.5, 0.5)),
    "leader-alpha0.7": ("verify_leader_convergence", {}, lambda t: (0.7, 2.0 / t.n)),
    "leader-negative": ("verify_leader_convergence", {}, lambda t: (-0.1, -0.1)),
    "leader-overflow": ("verify_leader_convergence", {}, lambda t: (1e150, 1e150)),
    "leader-overflow-set13-only": (
        "verify_leader_convergence", {}, _only(_leaders_are((1, 3)), lambda t: (1e150,) * 2)),
    # NaN beliefs from step 1: the check's scale is then the opinions' one,
    # as Python's max(x, nan) returns x where np.maximum would give NaN
    "leader-beta-nan": (
        "verify_leader_convergence", {"max_steps": 300}, lambda t: (2.0 / t.n, float("nan"))),
    "leader-0.9-set25-only": (
        "verify_leader_convergence", {}, _only(_leaders_are((2, 5)), lambda t: (0.9, 0.9))),
    "leader-budget-set06-only": (
        "verify_leader_convergence", {"max_steps": 300},
        _only(_leaders_are((0, 6)), lambda t: (1e-4, 1e-4))),
    "speedup-1/n": ("verify_belief_speedup", {}, lambda t: (1.0 / t.n,) * 2),
    "speedup-0.8": ("verify_belief_speedup", {}, lambda t: (0.8, 0.8)),
    "speedup-overflow": (
        "verify_belief_speedup", {"seeds": 10, "max_steps": 300, "required_pass": 9},
        lambda t: (1e150, 1e150)),
}


class TestBatchedChecksOracle:
    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_same_result_as_seed_by_seed(self, monkeypatch, fault):
        check, kwargs, sizes = FAULTS[fault]
        monkeypatch.setattr(DynamicsTopology, "step_sizes", sizes)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # the overflow faults
            got = getattr(verification, check)(**kwargs)
            want = getattr(oracle, check)(**kwargs)
        assert (got.name, got.passed, got.trajectories, got.checks, got.failures) == (
            want.name, want.passed, want.trajectories, want.checks, want.failures
        )

    @pytest.mark.parametrize("fault", ["conflict-beta-negative-n5-only", "conflict-overflow-n7-only",
                                       "leader-overflow-set13-only", "leader-budget-set06-only"])
    def test_fault_first_hits_a_later_seed(self, monkeypatch, fault):
        # so the walk over batches in seed order is exercised
        check, kwargs, sizes = FAULTS[fault]
        monkeypatch.setattr(DynamicsTopology, "step_sizes", sizes)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            result = getattr(verification, check)(**kwargs)
        assert int(re.search(r"seed=(\d+)", result.failures[0]).group(1)) > 0

    def test_unpatched_counts(self):
        # the counts the benchmark's output check pins for the full suite
        assert (verification.verify_conflict_instability().checks,
                verification.verify_leader_convergence().checks,
                verification.verify_belief_speedup().checks) == (3000, 2539, 2400)
