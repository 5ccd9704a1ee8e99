import io

import numpy as np
import pytest

from belief_consensus.dynamics import (
    DynamicsTopology,
    REASON_BUDGET,
    REASON_CONSENSUS,
    REASON_DIVERGENCE,
    REASON_MARGINAL,
    LaplacianStep,
    averaging_increments,
    contrarian_increments,
    leader_increments,
    run_batch,
    run_dynamics,
    step_conflicting,
    step_supportive,
    topology_step,
    trace_to_csv,
)

# each increment helper's sign and power, which the step it takes must have
HELPERS = {averaging_increments: (-1.0, 2), contrarian_increments: (1.0, 2),
           leader_increments: (-1.0, 1)}


def helper_step(helper, adjacency, gamma):
    """The `LaplacianStep` `helper` takes on `adjacency` at step size `gamma`."""
    return LaplacianStep.of(adjacency, gamma, *HELPERS[helper])


class TestStepSupportive:
    def test_equal_opinions_are_fixed(self):
        topo = DynamicsTopology.all_pairs(4)
        state = np.array([[1.5] * 4, [0.3] * 4])
        nxt = step_supportive(state, topo)
        assert np.allclose(nxt[0], 1.5)
        assert np.allclose(nxt[1], 0.3)

    def test_three_agent_reflection(self):
        # alpha = 2/3 on the complete triangle maps (0,1,2) to (2,1,0)
        topo = DynamicsTopology.all_pairs(3)
        state = np.array([[0.0, 1.0, 2.0], [0.5, 0.5, 0.5]])
        nxt = step_supportive(state, topo)
        assert np.allclose(nxt[0], [2.0, 1.0, 0.0])

    def test_increment_identity_hand_value(self):
        # agent 1: collaborator mean 1.5, squared distance 2.25, new distance
        # 0.25; increment -2 equals ((1 - alpha*2)^2 - 1) * 2.25
        topo = DynamicsTopology.all_pairs(3)
        actual, predicted, dist_sq, new = averaging_increments(
            np.array([0.0, 1.0, 2.0]), helper_step(averaging_increments, topo.adjacency, 2.0 / 3.0)
        )
        assert actual[0] == pytest.approx(0.25 - 2.25, abs=1e-12)
        assert predicted[0] == pytest.approx((1.0 / 9.0 - 1.0) * 2.25, abs=1e-12)
        assert actual[0] == pytest.approx(predicted[0], abs=1e-12)
        assert dist_sq[0] == pytest.approx(2.25)
        assert np.allclose(new, [2.0, 1.0, 0.0])  # the stepped state

    def test_arity_mismatch(self):
        topo = DynamicsTopology.all_pairs(3)
        with pytest.raises(ValueError, match="topology/state arity"):
            step_supportive(np.array([[0.0, 1.0], [0.5, 0.5]]), topo)
        # a bare vector of opinions is not a (2, ..., n) stack
        with pytest.raises(ValueError, match="topology/state arity"):
            step_conflicting(np.zeros(3), topo)

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
        state = np.array([[0.0, 1.0], [0.4, 0.4]])
        nxt = step_conflicting(state, topo)
        assert np.allclose(nxt[1], 0.4)

    def test_belief_gap_doubles(self):
        # beta = 1 on a mutual pair: (0.6, 0.4) -> (0.8, 0.2)
        topo = DynamicsTopology.mutual_conflict_pairs(2)
        state = np.array([[0.0, 0.0], [0.6, 0.4]])
        nxt = step_conflicting(state, topo)
        assert np.allclose(nxt[1], [0.8, 0.2])

    def test_opinion_swap_at_alpha_one(self):
        topo = DynamicsTopology.mutual_conflict_pairs(2)
        state = np.array([[0.0, 2.0], [0.5, 0.5]])
        nxt = step_conflicting(state, topo)
        assert np.allclose(nxt[0], [2.0, 0.0])
        # distance to the collaborator is unchanged in magnitude
        assert abs(nxt[0][0] - nxt[0][1]) == pytest.approx(2.0)

    def test_belief_increment_identity(self):
        topo = DynamicsTopology.mutual_conflict_pairs(2)
        actual, predicted, dist_sq, new = contrarian_increments(
            np.array([0.6, 0.4]), helper_step(contrarian_increments, topo.adjacency, 1.0)
        )
        # factor (1 + beta)^2 - 1 = 3 on squared distance 0.04
        assert predicted[0] == pytest.approx(3.0 * 0.04)
        assert actual[0] == pytest.approx(predicted[0], abs=1e-12)
        assert actual[0] >= 0.0
        assert np.allclose(new, [0.8, 0.2])


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
        state = np.stack([rng.uniform(-1, 1, (2, 4)), rng.uniform(0, 1, (2, 4))])
        verdict = run_batch(state, topo, "supportive")
        assert verdict.marginal.all() and verdict.steps.tolist() == [2, 2]

    def test_follower_at_leader_average_is_fixed(self):
        topo = DynamicsTopology.with_leaders(3, (0, 1))
        state = np.array([[2.0, 4.0, 3.0], [0.5, 0.5, 0.5]])
        nxt = step_supportive(state, topo)
        assert nxt[0][2] == pytest.approx(3.0)

    def test_hand_computed_follower_move(self):
        # alpha = 2/3, leaders at (3, 3), follower at 0 moves to 4; distance
        # to the leader mean shrinks from 3 to 1
        topo = DynamicsTopology.with_leaders(3, (0, 1))
        state = np.array([[3.0, 3.0, 0.0], [0.5, 0.5, 0.5]])
        nxt = step_supportive(state, topo)
        assert nxt[0][2] == pytest.approx(4.0)
        assert abs(3.0 - nxt[0][2]) == pytest.approx(1.0)

    def test_equal_leaders_are_mutual_fixed_points(self):
        topo = DynamicsTopology.with_leaders(4, (0, 1))
        state = np.array([[5.0, 5.0, 1.0, 2.0], [0.5] * 4])
        nxt = step_supportive(state, topo)
        assert nxt[0][0] == pytest.approx(5.0)
        assert nxt[0][1] == pytest.approx(5.0)

    def test_single_leader_is_fixed_point(self):
        topo = DynamicsTopology.with_leaders(3, (0,))
        state = np.array([[1.0, 3.0, 4.0], [0.9, 0.2, 0.3]])
        nxt = step_supportive(state, topo)
        assert nxt[0][0] == pytest.approx(1.0)

    def test_empty_leader_set_rejected(self):
        with pytest.raises(ValueError, match="no leaders"):
            DynamicsTopology.with_leaders(3, ())

    def test_increment_identity_hand_value(self):
        a = DynamicsTopology.with_leaders(3, (0, 1)).adjacency
        actual, predicted, dist, new = leader_increments(
            np.array([3.0, 3.0, 0.0]), helper_step(leader_increments, a, 2.0 / 3.0))
        # follower: (|1/2 - 2/3| - 1/2) * |6 - 0| = -2
        assert predicted[2] == pytest.approx(-2.0)
        assert actual[2] == pytest.approx(-2.0, abs=1e-12)
        assert new[2] == pytest.approx(4.0)
        assert dist[2] == pytest.approx(3.0)


def _step_alone(x, a, g, sign):
    """One row on one graph, as the Laplacian step was computed before it
    took a stack of graphs."""
    degree = a.sum(axis=1)
    sums = np.einsum("...j,ij->...i", x, a)
    return x + sign * g * (degree * x - sums), sums / np.where(degree > 0, degree, np.nan), degree


class TestPerRowGraphStep:
    """A `LaplacianStep` on a (rows, n, n) stack of graphs with per-row step
    sizes gives each row the bits it gets stepped alone on its own graph."""

    @staticmethod
    def graphs(rng, n):
        yield DynamicsTopology.all_pairs(n).adjacency
        yield DynamicsTopology.mutual_conflict_pairs(n).adjacency
        for k in range(1, min(5, n) + 1):
            leaders = rng.choice(n, size=k, replace=False).tolist()
            yield DynamicsTopology.with_leaders(n, leaders).adjacency
        for _ in range(3):
            a = rng.integers(0, 2, (n, n)).astype(float)
            np.fill_diagonal(a, 0.0)
            yield a

    def batch(self, n, seed):
        """Rows on interleaved graphs at scales 1e-6 to 1e6, with a NaN and
        an inf row, and per-row step sizes around 2/n."""
        rng = np.random.default_rng(seed)
        graphs = list(self.graphs(rng, n))
        adj, values = [], []
        for a in graphs:
            for scale in (1e-6, 1.0, 1e3, 1e6):
                adj.append(a)
                values.append(rng.uniform(-scale, scale, n))
        values[1][0], values[2][-1] = np.nan, np.inf
        order = rng.permutation(len(adj))
        gamma = rng.uniform(0.1, 2.0, (len(adj), 1)) / n
        return np.stack(adj)[order], np.stack(values)[order], gamma

    @pytest.mark.parametrize("sign", [-1.0, 1.0])
    @pytest.mark.parametrize("n", [2, 3, 5, 7, 12, 23, 40])
    def test_rows_equal_stepping_alone(self, n, sign):
        adj, values, gamma = self.batch(n, seed=n)
        with np.errstate(invalid="ignore"):
            got = LaplacianStep.of(adj, gamma, sign)(values)
            want = [_step_alone(x, a, g[0], sign) for x, a, g in zip(values, adj, gamma)]
        for out, expected in zip(got, zip(*want)):
            assert np.array_equal(out, np.stack(expected), equal_nan=True)
        assert np.isnan(got[0]).any() and np.isinf(got[0]).any()

    @pytest.mark.parametrize("n", [2, 7, 40])
    def test_stacked_batch_equals_stepping_alone(self, n):
        # (2, rows, n): opinions and beliefs stepped in one call
        adj, opinions, gamma = self.batch(n, seed=100 + n)
        beliefs = self.batch(n, seed=200 + n)[1]
        with np.errstate(invalid="ignore"):
            new, mean, degree = LaplacianStep.of(adj, gamma)(np.stack([opinions, beliefs]))
            for k, values in enumerate((opinions, beliefs)):
                want = [_step_alone(x, a, g[0], -1.0) for x, a, g in zip(values, adj, gamma)]
                want_new, want_mean, want_degree = (np.stack(x) for x in zip(*want))
                assert np.array_equal(new[k], want_new, equal_nan=True)
                assert np.array_equal(mean[k], want_mean, equal_nan=True)
                assert np.array_equal(degree, want_degree)

    @pytest.mark.parametrize("power", [None, 1, 2])
    def test_rows_of_a_step_step_those_rows(self, power):
        # a per-row step indexed by rows, as it leaves run_rows' carry with them,
        # gives those rows the bits the whole step gives them
        adj, opinions, gamma = self.batch(7, seed=700)
        beliefs = self.batch(7, seed=701)[1]
        step = LaplacianStep.of(adj, np.stack([gamma, 2 * gamma]), power=power)
        values = np.stack([opinions, beliefs])
        keep = np.arange(len(adj)) % 3 != 1
        with np.errstate(invalid="ignore"):
            whole, rows = step(values), step[keep](values[:, keep])
        for got, want in zip(rows, whole):
            assert np.array_equal(got, want[..., keep, :], equal_nan=True)
        if power is not None:
            assert np.array_equal(step[keep].factor, step.factor[:, keep])

    def test_one_graph_for_every_row_is_unchanged(self):
        rng = np.random.default_rng(3)
        a = DynamicsTopology.with_leaders(7, (0, 2, 5)).adjacency
        values = rng.uniform(-1, 1, (2, 9, 7))
        got = LaplacianStep.of(a, 2.0 / 7)(values)
        want = _step_alone(values, a, 2.0 / 7, -1.0)
        assert all(np.array_equal(x, y, equal_nan=True) for x, y in zip(got, want))


class TestStackedQuantities:
    """Opinions and beliefs as one (2, rows, n) stack, with (2, 1, 1) or
    (2, rows, 1) step sizes and signs, give each quantity the bits of its own
    call, on one graph or on a (rows, n, n) stack of graphs."""

    @staticmethod
    def quantities(n, graph_stack, per_row):
        batch = TestPerRowGraphStep().batch
        adj, opinions, gamma_op = batch(n, seed=300 + n)
        beliefs, gamma_be = batch(n, seed=400 + n)[1:]
        if not graph_stack:
            adj = adj[0]
        gammas = (gamma_op, gamma_be) if per_row else (1.5 / n, 0.7 / n)
        gamma = np.stack(gammas) if per_row else np.array(gammas)[:, None, None]
        return adj, (opinions, beliefs), np.stack([opinions, beliefs]), gammas, gamma

    @staticmethod
    def assert_same(stacked, separate):
        for k, outputs in enumerate(separate):
            for got, want in zip(stacked, outputs):
                assert np.array_equal(got if got.ndim < 3 else got[k], want, equal_nan=True)

    @pytest.mark.parametrize("per_row", [False, True])
    @pytest.mark.parametrize("graph_stack", [False, True])
    @pytest.mark.parametrize("n", [2, 7, 40])
    def test_step_and_increments_equal_separate_calls(self, n, graph_stack, per_row):
        adj, values, stack, gammas, gamma = self.quantities(n, graph_stack, per_row)
        signs = (-1.0, 1.0)
        sign = np.array(signs)[:, None, None]
        with np.errstate(invalid="ignore", over="ignore"):
            separate = [LaplacianStep.of(adj, g, sg)(x) for x, g, sg in zip(values, gammas, signs)]
            self.assert_same(LaplacianStep.of(adj, gamma, sign)(stack), separate)
            for helper in HELPERS:
                self.assert_same(helper(stack, helper_step(helper, adj, gamma)),
                                 [helper(x, helper_step(helper, adj, g))
                                  for x, g in zip(values, gammas)])

    @pytest.mark.parametrize("step, belief_sign",
                             [(step_supportive, -1.0), (step_conflicting, 1.0)])
    @pytest.mark.parametrize("n", [2, 7, 40])
    def test_step_functions_equal_per_quantity_calls(self, n, step, belief_sign):
        # a (2, n) or (2, rows, n) stack steps as one Laplacian step per
        # quantity with scalar step sizes and signs, the form they once took
        rng = np.random.default_rng(500 + n)
        sets = tuple(tuple(j for j in range(n) if j != i and rng.random() < 0.5) for i in range(n))
        topo = DynamicsTopology(sets, alpha=1.5 / n, beta=0.7 / n)
        stack = np.stack([rng.uniform(-1, 1, (5, n)), rng.uniform(0, 1, (5, n))])
        for state in (stack, stack[:, 0]):
            want = np.stack([LaplacianStep.of(topo.adjacency, 1.5 / n)(state[0])[0],
                             LaplacianStep.of(topo.adjacency, 0.7 / n, belief_sign)(state[1])[0]])
            assert np.array_equal(step(state, topo), want)


def _written_out_increments(values, adjacency, gamma, sign, squared):
    """The increment formulas as each helper once wrote them out by hand."""
    values = np.asarray(values, dtype=float)
    if squared:
        new, mean, m = LaplacianStep.of(adjacency, gamma, sign)(values)
        dist_sq = (values - mean) ** 2
        return ((new - mean) ** 2 - dist_sq, ((1.0 + sign * gamma * m) ** 2 - 1.0) * dist_sq,
                dist_sq, new)
    new, mean, m = LaplacianStep.of(adjacency, gamma)(values)
    dist = np.abs(values - mean)
    return np.abs(new - mean) - dist, (np.abs(1.0 - gamma * m) - 1.0) * dist, dist, new


class TestIncrementForms:
    """The averaging, contrarian and leader helpers, the squared and first-power
    forms of one helper, give the bits of the formulas they replaced."""

    @pytest.mark.parametrize("n", [2, 3, 7, 40])
    def test_equal_written_out_formulas(self, n):
        adj, values, gamma = TestPerRowGraphStep().batch(n, seed=500 + n)
        values[3:5] = np.linspace(-1e150, 1e150, n)
        values[5] = np.linspace(-1e200, 1e200, n)  # distances whose squares overflow
        values[6] = np.nan
        calls = [
            (values, adj, gamma),  # a graph and a step size per row
            (values[5], adj[5], 2.0 / n),  # one vector
            (np.stack([values, values[::-1]]), adj[0], np.array([1.5 / n, 0.7 / n])[:, None, None]),
        ]
        with np.errstate(invalid="ignore", over="ignore"):
            for values, adjacency, gamma in calls:
                for helper, (sign, power) in HELPERS.items():
                    got = helper(values, helper_step(helper, adjacency, gamma))
                    want = _written_out_increments(values, adjacency, gamma, sign, power == 2)
                    assert len(got) == 4
                    assert all(np.array_equal(g, w, equal_nan=True) for g, w in zip(got, want))
            values, adjacency, gamma = calls[0]
            assert np.isinf(averaging_increments(
                values, helper_step(averaging_increments, adjacency, gamma))[2]).any()

    @pytest.mark.parametrize("n", [2, 7])
    def test_step_built_once_reused_over_states(self, n):
        # one step per helper, built before the loop, over several states
        # (the stepped values of the one before, as the checks feed them)
        # gives the written-out formulas at every state
        adj, values, gamma = TestPerRowGraphStep().batch(n, seed=600 + n)
        values = np.clip(values, -1e3, 1e3)
        for helper, (sign, power) in HELPERS.items():
            step = helper_step(helper, adj, gamma)
            state = values
            with np.errstate(invalid="ignore"):
                for _ in range(4):
                    got = helper(state, step)
                    want = _written_out_increments(state, adj, gamma, sign, power == 2)
                    assert all(np.array_equal(g, w, equal_nan=True) for g, w in zip(got, want))
                    state = got[3]

    @pytest.mark.parametrize("other", ["sign", "power", "no power", "two signs"])
    @pytest.mark.parametrize("helper", list(HELPERS), ids=lambda h: h.__name__)
    def test_helper_rejects_a_step_of_another_sign_or_power(self, helper, other):
        topo = DynamicsTopology.all_pairs(3)
        sign, power = HELPERS[helper]
        if other == "two signs":  # opinions average, beliefs repel
            step = topology_step(topo, "conflicting", (2, 3), power)
        else:
            step = LaplacianStep.of(topo.adjacency, 0.5, *{
                "sign": (-sign, power), "power": (sign, 3 - power), "no power": (sign, None),
            }[other])
        with pytest.raises(ValueError, match="were expected"):
            helper(np.zeros((2, 3)), step)


class TestRunDynamics:
    def test_supportive_contraction_reaches_consensus(self):
        # alpha strictly inside the contraction region converges for real
        rng = np.random.default_rng(7)
        n = 5
        topo = DynamicsTopology.all_pairs(n, alpha=1.5 / n, beta=1.5 / n)
        state = np.array([rng.uniform(-1, 1, n), rng.uniform(0, 1, n)])
        target = state[0].mean()
        verdict, trace = run_dynamics(state, topo, "supportive", tol=1e-9)
        assert verdict.converged[0] and verdict.reasons[0] == REASON_CONSENSUS
        assert np.max(np.abs(trace[-1][0] - target)) < 1e-8

    def test_all_pairs_tie_case_flagged_marginal(self):
        # at alpha = 2/n the complete topology is a pure period-2 reflection:
        # counted as converged in distance and flagged
        rng = np.random.default_rng(11)
        n = 5
        topo = DynamicsTopology.all_pairs(n)
        state = np.array([rng.uniform(-1, 1, n), rng.uniform(0, 1, n)])
        verdict, trace = run_dynamics(state, topo, "supportive")
        assert verdict.converged[0]
        assert verdict.marginal[0]
        assert verdict.reasons[0] == REASON_MARGINAL
        assert trace.shape == (3, 2, n)
        assert np.allclose(trace[2][0], trace[0][0], atol=1e-12)

    def test_conflict_flags_belief_divergence(self):
        topo = DynamicsTopology.mutual_conflict_pairs(2)
        state = np.array([[0.0, 2.0], [0.6, 0.4]])
        verdict = run_dynamics(state, topo, "conflicting", max_steps=500)[0]
        assert not verdict.converged[0]
        assert verdict.reasons[0] == REASON_DIVERGENCE

    def test_leader_mode_converges_to_leader_average(self):
        rng = np.random.default_rng(2)
        n = 7
        topo = DynamicsTopology.with_leaders(n, (0, 1))
        state = np.array([rng.uniform(-1, 1, n), rng.uniform(0, 1, n)])
        target = state[0][:2].mean()
        verdict, trace = run_dynamics(state, topo, "supportive")
        assert verdict.converged[0]
        assert np.max(np.abs(trace[-1][0] - target)) < 1e-8

    def test_budget_exhaustion(self):
        # agents with no collaborators never move and never agree
        topo = DynamicsTopology(((), ()))
        state = np.array([[0.0, 1.0], [0.5, 0.5]])
        verdict, trace = run_dynamics(state, topo, "supportive", max_steps=5)
        assert not verdict.converged[0]
        assert verdict.reasons[0] == REASON_BUDGET
        assert trace.shape == (6, 2, 2)

    def test_invalid_mode(self):
        topo = DynamicsTopology.all_pairs(2)
        state = np.array([[0.0, 1.0], [0.5, 0.5]])
        # the mode is the belief sign; leader-following is a topology
        for mode in ("sideways", "leader"):
            with pytest.raises(ValueError, match="unknown dynamics mode"):
                run_dynamics(state, topo, mode)

    def test_invalid_tol_and_budget(self):
        topo = DynamicsTopology.all_pairs(2)
        state = np.array([[0.0, 1.0], [0.5, 0.5]])
        with pytest.raises(ValueError):
            run_dynamics(state, topo, "supportive", tol=0.0)
        with pytest.raises(ValueError):
            run_dynamics(state, topo, "supportive", max_steps=0)


class TestTraceCsv:
    def test_columns_and_hand_rows(self):
        topo = DynamicsTopology.all_pairs(3)
        state = np.array([[0.0, 1.0, 2.0], [0.5, 0.5, 0.5]])
        trace = run_dynamics(state, topo, "supportive")[1]
        buf = io.StringIO()
        trace_to_csv(trace, topo, buf)
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
