import pytest
from hypothesis import given, strategies as st

from belief_consensus.core import Opinion
from belief_consensus.judgment import (
    FULL,
    NONE,
    PARTIAL,
    judge_byzantine as _judge_byzantine,
    judge_consensus as _judge_consensus,
)
from round_oracles import columns_of


def ops(*specs):
    return [Opinion(f"a{i+1}", "", ans, b) for i, (ans, b) in enumerate(specs)]


def judge_consensus(opinions, n):
    return _judge_consensus(columns_of(opinions), n)


def judge_byzantine(opinions, n):
    return _judge_byzantine(columns_of(opinions), n)


RANK = {NONE: 0, PARTIAL: 1, FULL: 2}


class TestJudgeConsensus:
    def test_reported_no_consensus_round(self):
        # 4 low-belief agents on B vs 3 on C: p_s 0.57, p_b 0.13
        opinions = ops(("B", 0.04), ("B", 0.04), ("B", 0.04), ("B", 0.03),
                       ("C", 0.52), ("C", 0.24), ("C", 0.24))
        verdict = judge_consensus(opinions, 7)
        assert verdict.state == NONE
        assert round(verdict.p_s, 2) == 0.57
        assert round(verdict.p_b, 2) == 0.13

    def test_reported_full_consensus_round(self):
        opinions = ops(("C", 0.97), ("C", 0.97), ("C", 0.97), ("C", 0.97),
                       ("C", 0.97), ("C", 0.97), ("B", 0.18))
        verdict = judge_consensus(opinions, 7)
        assert verdict.state == FULL
        assert round(verdict.p_s, 2) == 0.86
        assert round(verdict.p_b, 2) == 0.97

    def test_unanimous_is_full_with_unit_shares(self):
        opinions = ops(*[("A", 0.3)] * 7)
        verdict = judge_consensus(opinions, 7)
        assert verdict.state == FULL
        assert verdict.p_s == 1.0
        assert verdict.p_b == 1.0
        assert verdict.conflict_members == ()

    def test_partial_by_direct_threshold_evaluation(self):
        opinions = ops(("A", 0.9), ("A", 0.9), ("A", 0.9),
                       ("B", 0.3), ("B", 0.3), ("C", 0.3), ("C", 0.3))
        verdict = judge_consensus(opinions, 7)
        assert verdict.state == PARTIAL
        assert verdict.p_s == pytest.approx(3 / 7)
        assert verdict.p_b == pytest.approx(2.7 / 3.9)

    def test_membership_split(self):
        opinions = ops(("A", 0.9), ("B", 0.2), ("A", 0.8))
        verdict = judge_consensus(opinions, 3)
        assert set(verdict.dominant_members) == {"a1", "a3"}
        assert set(verdict.conflict_members) == {"a2"}

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            judge_consensus([], 0)

    def test_arity_checked(self):
        with pytest.raises(ValueError):
            judge_consensus(ops(("A", 0.5)), 3)


class TestJudgeByzantine:
    def test_six_of_seven(self):
        opinions = ops(*[("B", 0.1)] * 6, ("C", 0.9))
        flag, p_s = judge_byzantine(opinions, 7)
        assert flag is True
        assert round(p_s, 2) == 0.86

    def test_exact_two_thirds_is_not_consensus(self):
        flag, p_s = judge_byzantine(ops(("A", 0.5), ("A", 0.5), ("B", 0.5)), 3)
        assert flag is False
        assert p_s == pytest.approx(2 / 3)

    def test_all_distinct(self):
        flag, p_s = judge_byzantine(ops(("A", 0.5), ("B", 0.5), ("C", 0.5)), 3)
        assert flag is False
        assert p_s == pytest.approx(1 / 3)


def verdict_strategy():
    belief = st.floats(min_value=0.01, max_value=1.0)
    item = st.tuples(st.sampled_from(["A", "B", "C"]), belief)
    return st.lists(item, min_size=2, max_size=9)


class TestProperties:
    @given(verdict_strategy())
    def test_full_implies_byzantine(self, specs):
        opinions = ops(*specs)
        verdict = judge_consensus(opinions, len(opinions))
        flag, _ = judge_byzantine(opinions, len(opinions))
        if verdict.state == FULL:
            assert flag

    @given(verdict_strategy(), st.floats(min_value=0.05, max_value=1.0))
    def test_pb_scale_invariant(self, specs, scale):
        opinions = ops(*specs)
        scaled = [
            Opinion(o.agent_id, o.reasoning, o.answer, max(o.belief * scale, 1e-12))
            for o in opinions
        ]
        a = judge_consensus(opinions, len(opinions))
        b = judge_consensus(scaled, len(scaled))
        assert a.p_b == pytest.approx(b.p_b, rel=1e-9)

    @given(verdict_strategy(), st.data())
    def test_raising_dominant_belief_never_demotes(self, specs, data):
        opinions = ops(*specs)
        before = judge_consensus(opinions, len(opinions))
        member = data.draw(st.sampled_from(sorted(before.dominant_members)))
        raised = [
            Opinion(o.agent_id, o.reasoning, o.answer,
                    min(1.0, o.belief + data.draw(st.floats(min_value=0.0, max_value=1.0)))
                    if o.agent_id == member else o.belief)
            for o in opinions
        ]
        after = judge_consensus(raised, len(raised))
        assert RANK[after.state] >= RANK[before.state]

    @given(verdict_strategy(), st.randoms())
    def test_permutation_invariant(self, specs, rnd):
        opinions = ops(*specs)
        shuffled = opinions[:]
        rnd.shuffle(shuffled)
        a = judge_consensus(opinions, len(opinions))
        b = judge_consensus(shuffled, len(shuffled))
        assert (a.state, a.dominant_answer) == (b.state, b.dominant_answer)
        assert a.p_s == pytest.approx(b.p_s)
        assert a.p_b == pytest.approx(b.p_b)
