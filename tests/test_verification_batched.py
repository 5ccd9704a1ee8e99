"""The batched trajectory runner and property checks against the seed-by-seed
forms they replaced (`tests/verification_oracle.py`): the same verdicts,
step counts, final-state bits, trace CSV bytes, and the same
(name, passed, trajectories, checks, failures) under injected faults; and
the array-drawn initial states, agent counts and leader sets against the
seeded Generators they replaced."""

import io
import re
import warnings

import numpy as np
import pytest

import verification_oracle as oracle
from belief_consensus import pcg64, verification
from belief_consensus.dynamics import (
    REASON_CONSENSUS,
    REASON_MARGINAL,
    DynamicsTopology,
    run_batch,
    run_dynamics,
    run_rows,
    trace_to_csv,
)
from pcg64_streams import pcg64_at, state_before_output


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
            verdict = run_batch(np.stack([op, be]), topo, mode, max_steps=400)
            expected = [oracle.run_dynamics((o, b), topo, mode, max_steps=400)
                        for o, b in zip(op, be)]
        got = list(zip(verdict.converged.tolist(), verdict.reasons.tolist(),
                       verdict.marginal.tolist(), verdict.steps.tolist(),
                       (row.tobytes() for row in verdict.final[0]),
                       (row.tobytes() for row in verdict.final[1])))
        want = [(reason in (REASON_CONSENSUS, REASON_MARGINAL), reason, reason == REASON_MARGINAL,
                 len(trace) - 1, trace[-1][0].tobytes(), trace[-1][1].tobytes())
                for reason, trace in expected]
        assert got == want
        if case != 1:  # at the tie every finite row stops at step 2
            assert len(set(verdict.steps.tolist())) > 2

    @pytest.mark.parametrize("case", range(7))
    def test_run_dynamics_trace_csv_bytes(self, case):
        topo, mode, op, be = batch_cases()[case]
        for row in range(len(op)):
            state = (op[row], be[row])
            got, want = io.StringIO(), io.StringIO()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)  # the overflowing row
                verdict, trace = run_dynamics(state, topo, mode, max_steps=400)
                reason, oracle_trace = oracle.run_dynamics(state, topo, mode, max_steps=400)
                trace_to_csv(trace, topo, got)
                trace_to_csv(oracle_trace, topo, want)
            assert (verdict.reasons[0], verdict.steps[0]) == (reason, len(trace) - 1)
            assert trace.tobytes() == oracle_trace.tobytes()
            assert got.getvalue() == want.getvalue()

    def test_rejects_mismatched_batches(self):
        topo = DynamicsTopology.all_pairs(3)
        for bad in (np.zeros((3, 2, 3)), np.zeros((2, 3)), np.zeros((2, 1, 2, 3))):
            with pytest.raises(ValueError, match=r"\(2, rows, n\) stack"):
                run_batch(bad, topo, "supportive")
        with pytest.raises(ValueError, match="arity"):
            run_batch(np.zeros((2, 2, 4)), topo, "supportive")
        with pytest.raises(ValueError, match="unknown dynamics mode"):
            run_batch(np.zeros((2, 2, 3)), DynamicsTopology.with_leaders(3, (0, 2)), "leader")
        with pytest.raises(ValueError, match="outside"):
            DynamicsTopology.with_leaders(3, (0, 3))


class TestRunRows:
    """`run_rows` on (1, rows, 1) stacks whose values name their rows."""

    def test_row_done_before_step_0_has_no_checks(self):
        state = np.array([[[0.0, 0.0], [0.0, 1.0]]])  # row 0 has no spread
        checks, first, final = run_rows(state, 5, lambda s, c, k: (s * 0.5, c, ()),
                                        done=lambda s: np.ptp(s[0], axis=1) < 0.1)
        assert checks.tolist() == [0, 4]  # row 1's spread halves to 0.0625 in 4 steps
        assert first == [None, None]
        assert final.tolist() == [[[0.0, 0.0], [0.0, 0.0625]]]

    def test_first_failed_kind_is_recorded(self):
        def step(s, c, k):
            row = s[0, :, 0]
            return s, c, ((~((row == 0) & (k == 1)), "first"),
                          (~((row == 0) & (k == 1) | (row == 1)), "second"))

        checks, first, _ = run_rows(np.arange(3.0).reshape(1, 3, 1), 3, step)
        # row 0 fails both checks at step 1, row 1 the second at step 0
        assert checks.tolist() == [2, 1, 3]
        assert first == [(1, "first"), (0, "second"), None]

    def test_carry_leaves_with_its_rows(self):
        seen = []

        def step(s, c, k):
            ids, pairs = c
            assert (ids == s[0, :, 0]).all() and (pairs == np.stack([ids, -ids], axis=1)).all()
            seen.append(ids.tolist())
            return s, c, (((ids % 2 == 0) | (k == 0), "odd"),)

        ids = np.arange(4.0)
        carry = (ids, np.stack([ids, -ids], axis=1))
        checks, first, _ = run_rows(ids.reshape(1, 4, 1), 4, step, lambda s: s[0, :, 0] == 2, carry)
        assert seen == [[0, 1, 3], [0, 1, 3], [0], [0]]
        assert checks.tolist() == [4, 2, 0, 2]
        assert first == [None, (1, "odd"), None, (1, "odd")]


def _leaders_are(leaders):
    return lambda topo: topo.sets == DynamicsTopology.with_leaders(topo.n, leaders).sets


def _only(pick, sizes):
    """Step sizes `sizes` on the topologies `pick` selects, the default elsewhere."""
    return lambda topo: sizes(topo) if pick(topo) else (2.0 / topo.n,) * 2


# name -> (check, settings, patched DynamicsTopology.step_sizes); the settings
# are `SimulateConfig` keys, and `n_leaders` for the leader check
FAULTS = {
    # the marginal tie, whose rows stop at step 2 in run_batch
    "supportive-2/n": ("verify_supportive_convergence", {"seeds": 20}, DynamicsTopology.step_sizes),
    # contracting: leaves the marginal tie and reaches consensus in one step
    "supportive-1/n": ("verify_supportive_convergence", {"seeds": 25}, lambda t: (1.0 / t.n,) * 2),
    # every increment stays negative, but each agent's distance to its
    # collaborator mean grows from step 1: the first failure is in the n = 6 batch
    "supportive-overshoot-n6-only": (
        "verify_supportive_convergence", {},
        _only(lambda t: t.n == 6, lambda t: (2.2 / t.n,) * 2)),
    # the beliefs diverge, but only the opinions' distances are checked per
    # step, so the run's divergence verdict is what fails
    "supportive-beta-overshoot": (
        "verify_supportive_convergence", {}, lambda t: (2.0 / t.n, 2.2 / t.n)),
    # NaN belief increments of agents with collaborators fail the first step
    "supportive-beta-nan": (
        "verify_supportive_convergence", {"max_steps": 300}, lambda t: (2.0 / t.n, float("nan"))),
    "supportive-overflow": ("verify_supportive_convergence", {}, lambda t: (1e150, 1e150)),
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
    # NaN belief increments from step 0, which fail its identity check
    "leader-beta-nan": (
        "verify_leader_convergence", {"max_steps": 300}, lambda t: (2.0 / t.n, float("nan"))),
    "leader-0.9-set25-only": (
        "verify_leader_convergence", {}, _only(_leaders_are((2, 5)), lambda t: (0.9, 0.9))),
    "leader-budget-set06-only": (
        "verify_leader_convergence", {"max_steps": 300},
        _only(_leaders_are((0, 6)), lambda t: (1e-4, 1e-4))),
    # with 3 leaders the order of each row's sums matters; 1 leader has no
    # collaborators, so its increments are all NaN
    "leader-3-leaders": (
        "verify_leader_convergence", {"n_leaders": 3}, DynamicsTopology.step_sizes),
    "leader-0.9-set025-only": (
        "verify_leader_convergence", {"n_leaders": 3},
        _only(_leaders_are((0, 2, 5)), lambda t: (0.9, 0.9))),
    "leader-1-leader": (
        "verify_leader_convergence", {"n_leaders": 1}, DynamicsTopology.step_sizes),
    # every agent leads: one graph, all pairs
    "leader-7-leaders": (
        "verify_leader_convergence", {"n_leaders": 7}, DynamicsTopology.step_sizes),
    "speedup-1/n": ("verify_belief_speedup", {}, lambda t: (1.0 / t.n,) * 2),
    "speedup-0.8": ("verify_belief_speedup", {}, lambda t: (0.8, 0.8)),
    "speedup-overflow": (
        "verify_belief_speedup", {"seeds": 10, "max_steps": 300},
        lambda t: (1e150, 1e150)),
}


def oracle_keywords(check: str, sim: verification.SimulateConfig) -> dict:
    """The keyword arguments by which the oracle's form of `check` reads `sim`."""
    common = {"seeds": sim.seeds, "master_seed": sim.master_seed}
    steps = {**common, "tol": sim.tol, "max_steps": sim.max_steps}
    return {
        "verify_supportive_convergence": {**steps, "n_values": range(sim.n_min, sim.n_max + 1)},
        "verify_conflict_instability": common,
        "verify_leader_convergence": steps,
        "verify_belief_speedup": {**steps, "required_pass": verification.required_pairs(sim.seeds)},
    }[check]


def run_fault(monkeypatch, fault, form=verification):
    """The check of `fault` under its step sizes, in `form` (`verification` or
    the oracle), with the fault's settings."""
    check, settings, sizes = FAULTS[fault]
    monkeypatch.setattr(DynamicsTopology, "step_sizes", sizes)
    settings = dict(settings)
    extra = {"n_leaders": settings.pop("n_leaders")} if "n_leaders" in settings else {}
    sim = verification.SimulateConfig(**settings)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the overflow faults
        if form is verification:
            return getattr(verification, check)(sim, **extra)
        return getattr(oracle, check)(**oracle_keywords(check, sim), **extra)


class TestBatchedChecksOracle:
    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_same_result_as_seed_by_seed(self, monkeypatch, fault):
        got = run_fault(monkeypatch, fault)
        want = run_fault(monkeypatch, fault, oracle)
        assert (got.name, got.passed, got.trajectories, got.checks, got.failures) == (
            want.name, want.passed, want.trajectories, want.checks, want.failures
        )

    @pytest.mark.parametrize("fault", ["conflict-beta-negative-n5-only", "conflict-overflow-n7-only",
                                       "leader-overflow-set13-only", "leader-budget-set06-only",
                                       "leader-0.9-set025-only"])
    def test_fault_first_hits_a_later_seed(self, monkeypatch, fault):
        # so the walk over batches in seed order is exercised
        result = run_fault(monkeypatch, fault)
        assert int(re.search(r"seed=(\d+)", result.failures[0]).group(1)) > 0

    def test_supportive_fault_first_hits_a_later_n(self, monkeypatch):
        # the walk crosses three whole n batches before the failing one
        result = run_fault(monkeypatch, "supportive-overshoot-n6-only")
        assert (result.trajectories, result.checks) == (301, 3 * 100 * 50 + 2)
        assert result.failures == ["distance grew at n=6 seed=0 step=1"]

    @pytest.mark.parametrize("fault, failure", [
        ("supportive-beta-nan", "identity violated at n=3 seed=0 step=0"),
        ("leader-beta-nan", "leader identity violated at seed=0 step=0"),
    ])
    def test_nan_increments_fail_the_first_step(self, monkeypatch, fault, failure):
        # only agents with no collaborators may have NaN increments; these
        # faults once passed every step check and ran out their step budget
        result = run_fault(monkeypatch, fault)
        assert (result.checks, result.failures) == (1, [failure])

    def test_unpatched_counts(self):
        # the counts the benchmark's output check pins for the full suite
        assert (verification.verify_supportive_convergence().checks,
                verification.verify_conflict_instability().checks,
                verification.verify_leader_convergence().checks,
                verification.verify_belief_speedup().checks) == (40000, 3000, 2539, 2400)

    @pytest.mark.parametrize("seeds, pairs", [(1, 1), (10, 9), (20, 19), (100, 95)])
    def test_speedup_threshold(self, seeds, pairs):
        # 95% of the pairs, at least one
        assert verification.required_pairs(seeds) == pairs


class TestUniformDraws:
    """`uniform_draws` against one seeded Generator per seed, as the checks
    drew before it, bit for bit."""

    @pytest.mark.parametrize("master_seed", [0, 7, 2**32 + 5])
    @pytest.mark.parametrize("n", [2, 3, 10, 64])
    def test_initial_states_equal_generator(self, n, master_seed):
        got = verification.uniform_draws(master_seed, n, 100, (-1.0, 1.0, n), (0.0, 1.0, n))
        want = []
        for s in range(100):
            rng = np.random.default_rng(np.random.SeedSequence([master_seed, n, s]))
            want.append((rng.uniform(-1.0, 1.0, n), rng.uniform(0.0, 1.0, n)))
        assert [x.shape for x in got] == [(100, n)] * 2
        assert [x.tobytes() for x in got] == [np.stack(x).tobytes() for x in zip(*want)]

    @pytest.mark.parametrize("master_seed", [0, 7, 2**32 + 5])
    def test_speedup_trials_equal_generator(self, master_seed):
        follower_b, low_lead, boost = verification.uniform_draws(
            master_seed, 29, 100, (0.05, 0.35, 5), (0.55, 0.70, 2), (0.002, 0.010, 1))
        for s in range(100):
            # as verify_belief_speedup drew them: the boost is a scalar draw
            rng = np.random.default_rng(np.random.SeedSequence([master_seed, 29, s]))
            assert follower_b[s].tobytes() == rng.uniform(0.05, 0.35, 5).tobytes()
            assert low_lead[s].tobytes() == rng.uniform(0.55, 0.70, 2).tobytes()
            assert boost[s].tobytes() == np.float64(rng.uniform(0.002, 0.010)).tobytes()

    def test_no_seeds(self):
        # `simulate.trace_seeds: 0`
        assert [x.shape for x in verification.uniform_draws(0, 3, 0, (0.0, 1.0, 3))] == [(0, 3)]


def generator_conflict_draws(rng):
    """n, opinions, beliefs and the number of nudged pairs, as the conflict
    check drew them from a Generator."""
    n = int(rng.choice(verification.CONFLICT_SIZES))
    beliefs = rng.uniform(0.0, 1.0, n)
    nudged = 0
    for i in range(0, n - 1, 2):
        if abs(beliefs[i] - beliefs[i + 1]) < 1e-3:
            beliefs[i] += 0.1
            nudged += 1
    return n, rng.uniform(-1.0, 1.0, n), beliefs, nudged


def generator_leader_draws(rng, n_leaders):
    """The sorted leaders, opinions, beliefs and leader means as the leader
    check drew them from a Generator."""
    leaders = sorted(rng.choice(7, size=n_leaders, replace=False).tolist())
    opinions, beliefs = rng.uniform(-1.0, 1.0, 7), rng.uniform(0.0, 1.0, 7)
    return leaders, opinions, beliefs, [np.mean(opinions[leaders]), np.mean(beliefs[leaders])]


def seeded(master_seed, key, s):
    return np.random.default_rng(np.random.SeedSequence([master_seed, key, s]))


class TestBoundedDraws:
    """`conflict_states` and `leader_states` against one seeded Generator per
    seed, as the checks drew before them (and `verification_oracle` still
    draws), bit for bit."""

    @pytest.mark.parametrize("master_seed", [0, 7, 2**32 + 5])
    def test_conflict_states_equal_generator(self, master_seed):
        seeds = 1000  # enough for some nudged pairs
        sizes, states = verification.conflict_states(master_seed, seeds)
        assert states.shape == (2, seeds, 8)
        nudged = 0
        for s in range(seeds):
            n, opinions, beliefs, pairs = generator_conflict_draws(seeded(master_seed, 17, s))
            nudged += pairs
            assert sizes[s] == n
            assert states[0, s, :n].tobytes() == opinions.tobytes()
            assert states[1, s, :n].tobytes() == beliefs.tobytes()
            assert np.isnan(states[:, s, n:]).all()
        assert nudged > 0 and set(sizes.tolist()) == set(verification.CONFLICT_SIZES)

    @pytest.mark.parametrize("n_leaders", [1, 2, 3])
    @pytest.mark.parametrize("master_seed", [0, 7, 2**32 + 5])
    def test_leader_states_equal_generator(self, master_seed, n_leaders):
        leaders, states, targets = verification.leader_states(master_seed, 100, n_leaders, 7)
        for s in range(100):
            want = generator_leader_draws(seeded(master_seed, 23, s), n_leaders)
            assert leaders[s].tolist() == want[0]
            assert states[0, s].tobytes() == want[1].tobytes()
            assert states[1, s].tobytes() == want[2].tobytes()
            assert targets[:, s].tobytes() == np.array(want[3]).tobytes()

    @pytest.mark.parametrize("check", ["conflict", "leader"])
    def test_rejected_draw_on_a_crafted_stream(self, monkeypatch, check):
        # seed 3 draws from a PCG64 whose first output is 0, so the first
        # bounded draw rejects both its halves (the product's low word 0 is
        # below 2**32 mod 7 and mod 6) and reads the next output; random
        # inputs get there with probability below 7 / 2**32. The uniforms
        # then start one output later and run past the raw block, which is
        # drawn again, longer
        inc = 0x5851F42D4C957F2D_14057B7EF767814F | 1
        crafted = state_before_output(0, inc)
        real, sizes = pcg64._pcg64_raw, []

        def substituted(words, k):
            sizes.append(k)
            out = real(words, k)
            out[:, 3] = pcg64_at(crafted, inc).random_raw(k)
            return out

        monkeypatch.setattr(pcg64, "_pcg64_raw", substituted)
        monkeypatch.setattr(verification, "_pcg64_raw", substituted)
        streams = [seeded(7, 17 if check == "conflict" else 23, s) for s in range(5)]
        streams[3] = np.random.Generator(pcg64_at(crafted, inc))
        if check == "conflict":
            sizes_, states = verification.conflict_states(7, 5)
            for s, rng in enumerate(streams):
                n, opinions, beliefs, _ = generator_conflict_draws(rng)
                assert (sizes_[s], states[0, s, :n].tobytes(), states[1, s, :n].tobytes()) == (
                    n, opinions.tobytes(), beliefs.tobytes())
            assert sizes == [17, 18]
        else:
            leaders, states, targets = verification.leader_states(7, 5, 2, 7)
            for s, rng in enumerate(streams):
                want = generator_leader_draws(rng, 2)
                assert leaders[s].tolist() == want[0]
                assert states[:, s].tobytes() == np.stack(want[1:3]).tobytes()
                assert targets[:, s].tobytes() == np.array(want[3]).tobytes()
            assert sizes == [16, 17]

    @pytest.mark.parametrize("n_leaders", [0, 8])
    def test_n_leaders_outside_the_population_is_rejected_before_drawing(
            self, monkeypatch, n_leaders):
        def no_draws(*args):
            raise AssertionError("drew leaders")

        monkeypatch.setattr(verification, "leader_states", no_draws)
        with pytest.raises(ValueError, match=r"n_leaders must be in \[1, 7\]"):
            verification.verify_leader_convergence(n_leaders=n_leaders)
