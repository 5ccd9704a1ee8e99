import io

import numpy as np
import pytest

from belief_consensus.dynamics import (
    DynamicsState,
    DynamicsTopology,
    REASON_BUDGET,
    REASON_CONSENSUS,
    REASON_DIVERGENCE,
    REASON_MARGINAL,
    averaging_increments,
    contrarian_increments,
    leader_increments,
    run_batch,
    run_dynamics,
    step_conflicting,
    step_supportive,
    trace_to_csv,
)


class TestStepSupportive:
    def test_equal_opinions_are_fixed(self):
        topo = DynamicsTopology.all_pairs(4)
        state = DynamicsState(opinions=[1.5] * 4, beliefs=[0.3] * 4)
        nxt = step_supportive(state, topo)
        assert np.allclose(nxt.opinions, 1.5)
        assert np.allclose(nxt.beliefs, 0.3)

    def test_three_agent_reflection(self):
        # alpha = 2/3 on the complete triangle maps (0,1,2) to (2,1,0)
        topo = DynamicsTopology.all_pairs(3)
        state = DynamicsState(opinions=[0.0, 1.0, 2.0], beliefs=[0.5, 0.5, 0.5])
        nxt = step_supportive(state, topo)
        assert np.allclose(nxt.opinions, [2.0, 1.0, 0.0])

    def test_increment_identity_hand_value(self):
        # agent 1: collaborator mean 1.5, squared distance 2.25, new distance
        # 0.25; increment -2 equals ((1 - alpha*2)^2 - 1) * 2.25
        topo = DynamicsTopology.all_pairs(3)
        actual, predicted, dist_sq = averaging_increments(
            np.array([0.0, 1.0, 2.0]), topo.sets, 2.0 / 3.0
        )
        assert actual[0] == pytest.approx(0.25 - 2.25, abs=1e-12)
        assert predicted[0] == pytest.approx((1.0 / 9.0 - 1.0) * 2.25, abs=1e-12)
        assert actual[0] == pytest.approx(predicted[0], abs=1e-12)
        assert dist_sq[0] == pytest.approx(2.25)

    def test_arity_mismatch(self):
        topo = DynamicsTopology.all_pairs(3)
        with pytest.raises(ValueError, match="topology/state arity"):
            step_supportive(DynamicsState(opinions=[0.0, 1.0], beliefs=[0.5, 0.5]), topo)

    def test_no_self_collaboration(self):
        with pytest.raises(ValueError, match="own collaborator set"):
            DynamicsTopology(((0,), ()))

    @pytest.mark.parametrize("index", [-1, 3])
    def test_collaborator_index_out_of_range(self, index):
        # -1 once silently meant agent 2; 3 failed later, inside the adjacency
        with pytest.raises(ValueError, match=r"outside \[0, 3\)"):
            DynamicsTopology(((index,), (), ()))


class TestStepConflicting:
    def test_equal_beliefs_unchanged(self):
        topo = DynamicsTopology.mutual_conflict_pairs(2)
        state = DynamicsState(opinions=[0.0, 1.0], beliefs=[0.4, 0.4])
        nxt = step_conflicting(state, topo)
        assert np.allclose(nxt.beliefs, 0.4)

    def test_belief_gap_doubles(self):
        # beta = 1 on a mutual pair: (0.6, 0.4) -> (0.8, 0.2)
        topo = DynamicsTopology.mutual_conflict_pairs(2)
        state = DynamicsState(opinions=[0.0, 0.0], beliefs=[0.6, 0.4])
        nxt = step_conflicting(state, topo)
        assert np.allclose(nxt.beliefs, [0.8, 0.2])

    def test_opinion_swap_at_alpha_one(self):
        topo = DynamicsTopology.mutual_conflict_pairs(2)
        state = DynamicsState(opinions=[0.0, 2.0], beliefs=[0.5, 0.5])
        nxt = step_conflicting(state, topo)
        assert np.allclose(nxt.opinions, [2.0, 0.0])
        # distance to the collaborator is unchanged in magnitude
        assert abs(nxt.opinions[0] - nxt.opinions[1]) == pytest.approx(2.0)

    def test_belief_increment_identity(self):
        topo = DynamicsTopology.mutual_conflict_pairs(2)
        actual, predicted, dist_sq = contrarian_increments(
            np.array([0.6, 0.4]), topo.sets, 1.0
        )
        # factor (1 + beta)^2 - 1 = 3 on squared distance 0.04
        assert predicted[0] == pytest.approx(3.0 * 0.04)
        assert actual[0] == pytest.approx(predicted[0], abs=1e-12)
        assert actual[0] >= 0.0


class TestStepLeaderFollow:
    """Leader-following is supportive averaging on the `with_leaders` sets."""

    def test_leader_sets(self):
        # followers see every leader, leaders the other leaders; a leader
        # listed twice counts once
        topo = DynamicsTopology.with_leaders(4, (2, 0, 2))
        assert topo.sets == ((2,), (2, 0), (0,), (2, 0))
        assert topo.adjacency.tolist() == [[0, 0, 1, 0], [1, 0, 1, 0], [1, 0, 0, 0], [1, 0, 1, 0]]

    def test_all_leaders_is_the_complete_graph(self):
        # at the default step 2/n this is the all-pairs marginal tie
        topo = DynamicsTopology.with_leaders(4, range(4))
        assert topo.sets == DynamicsTopology.all_pairs(4).sets
        rng = np.random.default_rng(3)
        verdict = run_batch(rng.uniform(-1, 1, (2, 4)), rng.uniform(0, 1, (2, 4)), topo, "supportive")
        assert verdict.marginal.all() and verdict.steps.tolist() == [2, 2]

    def test_follower_at_leader_average_is_fixed(self):
        topo = DynamicsTopology.with_leaders(3, (0, 1))
        state = DynamicsState(opinions=[2.0, 4.0, 3.0], beliefs=[0.5, 0.5, 0.5])
        nxt = step_supportive(state, topo)
        assert nxt.opinions[2] == pytest.approx(3.0)

    def test_hand_computed_follower_move(self):
        # alpha = 2/3, leaders at (3, 3), follower at 0 moves to 4; distance
        # to the leader mean shrinks from 3 to 1
        topo = DynamicsTopology.with_leaders(3, (0, 1))
        state = DynamicsState(opinions=[3.0, 3.0, 0.0], beliefs=[0.5, 0.5, 0.5])
        nxt = step_supportive(state, topo)
        assert nxt.opinions[2] == pytest.approx(4.0)
        assert abs(3.0 - nxt.opinions[2]) == pytest.approx(1.0)

    def test_equal_leaders_are_mutual_fixed_points(self):
        topo = DynamicsTopology.with_leaders(4, (0, 1))
        state = DynamicsState(opinions=[5.0, 5.0, 1.0, 2.0], beliefs=[0.5] * 4)
        nxt = step_supportive(state, topo)
        assert nxt.opinions[0] == pytest.approx(5.0)
        assert nxt.opinions[1] == pytest.approx(5.0)

    def test_single_leader_is_fixed_point(self):
        topo = DynamicsTopology.with_leaders(3, (0,))
        state = DynamicsState(opinions=[1.0, 3.0, 4.0], beliefs=[0.9, 0.2, 0.3])
        nxt = step_supportive(state, topo)
        assert nxt.opinions[0] == pytest.approx(1.0)

    def test_empty_leader_set_rejected(self):
        with pytest.raises(ValueError, match="no leaders"):
            DynamicsTopology.with_leaders(3, ())

    def test_increment_identity_hand_value(self):
        sets = DynamicsTopology.with_leaders(3, (0, 1)).sets
        actual, predicted = leader_increments(np.array([3.0, 3.0, 0.0]), sets, 2.0 / 3.0)
        # follower: (|1/2 - 2/3| - 1/2) * |6 - 0| = -2
        assert predicted[2] == pytest.approx(-2.0)
        assert actual[2] == pytest.approx(-2.0, abs=1e-12)


class TestRunDynamics:
    def test_supportive_contraction_reaches_consensus(self):
        # alpha strictly inside the contraction region converges for real
        rng = np.random.default_rng(7)
        n = 5
        topo = DynamicsTopology.all_pairs(n, alpha=1.5 / n, beta=1.5 / n)
        state = DynamicsState(opinions=rng.uniform(-1, 1, n), beliefs=rng.uniform(0, 1, n))
        target = state.opinions.mean()
        result = run_dynamics(state, topo, "supportive", tol=1e-9)
        assert result.converged and result.reason == REASON_CONSENSUS
        assert np.max(np.abs(result.final.opinions - target)) < 1e-8

    def test_all_pairs_tie_case_flagged_marginal(self):
        # at alpha = 2/n the complete topology is a pure period-2 reflection:
        # counted as converged in distance and flagged
        rng = np.random.default_rng(11)
        n = 5
        topo = DynamicsTopology.all_pairs(n)
        state = DynamicsState(opinions=rng.uniform(-1, 1, n), beliefs=rng.uniform(0, 1, n))
        result = run_dynamics(state, topo, "supportive")
        assert result.converged
        assert result.marginal
        assert result.reason == REASON_MARGINAL
        assert np.allclose(result.trace[2].opinions, result.trace[0].opinions, atol=1e-12)

    def test_conflict_flags_belief_divergence(self):
        topo = DynamicsTopology.mutual_conflict_pairs(2)
        state = DynamicsState(opinions=[0.0, 2.0], beliefs=[0.6, 0.4])
        result = run_dynamics(state, topo, "conflicting", max_steps=500)
        assert not result.converged
        assert result.reason == REASON_DIVERGENCE

    def test_leader_mode_converges_to_leader_average(self):
        rng = np.random.default_rng(2)
        n = 7
        topo = DynamicsTopology.with_leaders(n, (0, 1))
        state = DynamicsState(opinions=rng.uniform(-1, 1, n), beliefs=rng.uniform(0, 1, n))
        target = state.opinions[:2].mean()
        result = run_dynamics(state, topo, "supportive")
        assert result.converged
        assert np.max(np.abs(result.final.opinions - target)) < 1e-8

    def test_budget_exhaustion(self):
        # agents with no collaborators never move and never agree
        topo = DynamicsTopology(((), ()))
        state = DynamicsState(opinions=[0.0, 1.0], beliefs=[0.5, 0.5])
        result = run_dynamics(state, topo, "supportive", max_steps=5)
        assert not result.converged
        assert result.reason == REASON_BUDGET

    def test_invalid_mode(self):
        topo = DynamicsTopology.all_pairs(2)
        state = DynamicsState(opinions=[0.0, 1.0], beliefs=[0.5, 0.5])
        # the mode is the belief sign; leader-following is a topology
        for mode in ("sideways", "leader"):
            with pytest.raises(ValueError, match="unknown dynamics mode"):
                run_dynamics(state, topo, mode)

    def test_invalid_tol_and_budget(self):
        topo = DynamicsTopology.all_pairs(2)
        state = DynamicsState(opinions=[0.0, 1.0], beliefs=[0.5, 0.5])
        with pytest.raises(ValueError):
            run_dynamics(state, topo, "supportive", tol=0.0)
        with pytest.raises(ValueError):
            run_dynamics(state, topo, "supportive", max_steps=0)


class TestTraceCsv:
    def test_columns_and_hand_rows(self):
        topo = DynamicsTopology.all_pairs(3)
        state = DynamicsState(opinions=[0.0, 1.0, 2.0], beliefs=[0.5, 0.5, 0.5])
        result = run_dynamics(state, topo, "supportive")
        buf = io.StringIO()
        trace_to_csv(result, topo, buf)
        lines = buf.getvalue().strip().splitlines()
        header = lines[0].split(",")
        assert header == [
            "step", "agent_id", "opinion", "belief",
            "dist_to_mean_opinion", "dist_to_mean_belief",
        ]
        first = lines[1].split(",")
        # agent 0 at step 0: opinion 0, collaborator mean 1.5
        assert first[0] == "0" and first[1] == "0"
        assert float(first[2]) == pytest.approx(0.0)
        assert float(first[4]) == pytest.approx(1.5)
        # step 1 opinions are the reflection (2, 1, 0)
        step1 = [l.split(",") for l in lines[1:] if l.split(",")[0] == "1"]
        assert [float(r[2]) for r in step1] == pytest.approx([2.0, 1.0, 0.0], abs=1e-12)
