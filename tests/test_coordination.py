import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from belief_consensus.coordination import (
    CONFLICTING,
    SUPPORTIVE,
    ConflictReport,
    assign_collaborators,
    conflict_relation,
    pairwise_reports,
    select_leaders,
)
from belief_consensus.core import Opinion
from belief_consensus.grouping import OpinionGroup, group_entropy

from conflict_oracle import oracle_combined
from round_oracles import oracle_assign_collaborators


def member(agent_id, answer, belief):
    return Opinion(agent_id, "", answer, belief)


def group_of(gid, members):
    return OpinionGroup(
        group_id=gid,
        members=tuple(op.agent_id for op in members),
        entropy=group_entropy([op.belief for op in members]),
        modal_answer=max(
            {op.answer for op in members},
            key=lambda a: (sum(1 for op in members if op.answer == a),
                           sum(op.belief for op in members if op.answer == a)),
        ),
    )


def scores(p_members, q_members):
    """The conflict report of two member lists; macro and micro ignore the groups."""
    return conflict_relation(OpinionGroup(0, (), 0.0, ""), OpinionGroup(1, (), 0.0, ""),
                             p_members, q_members)


class TestMacroConflict:
    def test_same_members_zero(self):
        g = [member("a1", "A", 0.5), member("a2", "B", 0.4)]
        assert scores(g, g).macro == 0.0

    def test_fully_disjoint_answers(self):
        p = [member("a1", "A", 0.9), member("a2", "A", 0.8)]
        q = [member("a3", "B", 0.7)]
        assert scores(p, q).macro == pytest.approx(1.0)

    def test_boundary_half(self):
        p = [member("a1", "A", 0.5), member("a2", "B", 0.5)]
        q = [member("a3", "A", 0.5), member("a4", "C", 0.5)]
        assert scores(p, q).macro == pytest.approx(0.5)

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError):
            scores([], [member("a1", "A", 0.5)]).macro


class TestMicroConflict:
    def test_direct_ratio(self):
        p = [member("a1", "A", 0.7), member("a2", "A", 0.6), member("a3", "B", 0.2)]
        q = [member("a4", "C", 0.7), member("a5", "D", 0.1)]
        # supporters 1.3 vs 0.7, dissenters 0.2 vs 0.1
        assert scores(p, q).micro == pytest.approx(6.0)

    def test_identical_groups_convention(self):
        g = [member("a1", "A", 0.5), member("a2", "B", 0.3)]
        assert scores(g, g).micro == 1.0

    def test_unanimous_groups_with_gap_is_infinite(self):
        p = [member("a1", "A", 0.9)]
        q = [member("a2", "B", 0.5)]
        assert math.isinf(scores(p, q).micro)

    def test_accumulation_noise_in_equal_dissent_sums_counts_as_zero(self):
        # 0.3 + 0.6 != 0.9 in binary floats; the gap is noise, not a ratio
        p = [member("a1", "A", 0.5), member("a2", "A", 0.4),
             member("a3", "B", 0.3), member("a4", "C", 0.6)]
        q = [member("a5", "D", 0.2), member("a6", "D", 0.3), member("a7", "E", 0.9)]
        assert math.isinf(scores(p, q).micro)


class TestConflictRelation:
    def test_conflicting_when_product_exceeds_two(self):
        p_members = [member("a1", "A", 0.7), member("a2", "A", 0.6), member("a3", "B", 0.2)]
        q_members = [member("a4", "C", 0.7), member("a5", "D", 0.1)]
        report = conflict_relation(group_of(0, p_members), group_of(1, q_members),
                                   p_members, q_members)
        assert report.macro == pytest.approx(1.0)
        assert report.micro == pytest.approx(6.0)
        assert report.combined == pytest.approx(6.0)
        assert report.relation == CONFLICTING

    def test_zero_macro_overrides_infinite_micro(self):
        p_members = [member("a1", "A", 0.9)]
        q_members = [member("a2", "A", 0.5)]
        report = conflict_relation(group_of(0, p_members), group_of(1, q_members),
                                   p_members, q_members)
        assert report.macro == 0.0
        assert math.isinf(report.micro)
        assert report.combined == 0.0
        assert report.relation == SUPPORTIVE

    def test_boundary_product_is_supportive(self):
        # macro 0.5 with micro 3 gives 1.5, under the conflict threshold
        p_members = [member("a1", "A", 1.0), member("a2", "B", 0.5)]
        q_members = [member("a3", "A", 0.4), member("a4", "C", 0.7)]
        report = conflict_relation(group_of(0, p_members), group_of(1, q_members),
                                   p_members, q_members)
        assert report.combined <= 2.0
        assert report.relation == SUPPORTIVE

    def test_score_of_two_up_to_rounding_is_supportive(self):
        # 1 * (0.4000000000000001 / 0.2) = 2.0000000000000004 in floats, and
        # exactly 2.0 for the same beliefs scaled by 0.75: one relation for both
        for c in (1.0, 0.75):
            p_members = [member("p0", "B", 0.2 * c)]
            q_members = [member("q0", "C", 0.2 * c), member("q1", "A", 0.2 * c),
                         member("q2", "A", 0.4 * c)]
            report = conflict_relation(group_of(0, p_members), group_of(1, q_members),
                                       p_members, q_members)
            assert report.combined == pytest.approx(2.0, rel=1e-12)
            assert report.relation == SUPPORTIVE

    def test_self_pair_forced_supportive(self):
        members = [member("a1", "A", 0.9), member("a2", "B", 0.1)]
        g = group_of(3, members)
        report = conflict_relation(g, g, members, members)
        assert report.relation == SUPPORTIVE

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_symmetry_and_scale_invariance(self, data):
        answers = ["A", "B", "C"]
        belief = st.sampled_from([0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9])
        def draw_members(prefix, k):
            return [
                member(f"{prefix}{i}", data.draw(st.sampled_from(answers)), data.draw(belief))
                for i in range(k)
            ]
        p_members = draw_members("p", data.draw(st.integers(1, 4)))
        q_members = draw_members("q", data.draw(st.integers(1, 4)))
        gp, gq = group_of(0, p_members), group_of(1, q_members)
        fwd = conflict_relation(gp, gq, p_members, q_members)
        rev = conflict_relation(gq, gp, q_members, p_members)
        assert fwd.macro == pytest.approx(rev.macro)
        assert fwd.micro == rev.micro or fwd.micro == pytest.approx(rev.micro)
        assert fwd.relation == rev.relation

        c = data.draw(st.sampled_from([0.25, 0.5, 0.75, 1.0]))
        scaled_p = [member(o.agent_id, o.answer, o.belief * c) for o in p_members]
        scaled_q = [member(o.agent_id, o.answer, o.belief * c) for o in q_members]
        scaled = conflict_relation(group_of(0, scaled_p), group_of(1, scaled_q),
                                   scaled_p, scaled_q)
        assert scaled.macro == pytest.approx(fwd.macro, rel=1e-9)
        if math.isinf(fwd.micro):
            assert math.isinf(scaled.micro)
        else:
            assert scaled.micro == pytest.approx(fwd.micro, rel=1e-9)
        assert scaled.relation == fwd.relation

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force_oracle(self, data):
        answers = ["A", "B", "C"]
        belief = st.sampled_from([round(0.1 * i, 1) for i in range(1, 10)])
        def draw_members(prefix, k):
            return [
                (data.draw(st.sampled_from(answers)), data.draw(belief))
                for _ in range(k)
            ]
        p_raw = draw_members("p", data.draw(st.integers(1, 4)))
        q_raw = draw_members("q", data.draw(st.integers(1, 4)))
        p_members = [member(f"p{i}", a, b) for i, (a, b) in enumerate(p_raw)]
        q_members = [member(f"q{i}", a, b) for i, (a, b) in enumerate(q_raw)]
        report = conflict_relation(group_of(0, p_members), group_of(1, q_members),
                                   p_members, q_members)
        macro, micro, combined = oracle_combined(p_raw, q_raw)
        assert report.macro == pytest.approx(macro, rel=1e-12)
        if math.isinf(micro):
            assert math.isinf(report.micro)
        else:
            assert report.micro == pytest.approx(micro, rel=1e-12)
        if math.isinf(combined):
            assert math.isinf(report.combined)
        else:
            assert report.combined == pytest.approx(combined, rel=1e-12)


def build_round(groups_spec):
    """groups_spec: list of lists of (agent_id, answer, belief)."""
    opinions = []
    groups = []
    for gid, spec in enumerate(groups_spec):
        members = [member(aid, ans, b) for aid, ans, b in spec]
        opinions.extend(members)
        groups.append(group_of(gid, members))
    return groups, opinions


class TestAssignCollaborators:
    def test_single_self_supporting_group(self):
        groups, opinions = build_round(
            [[("a1", "A", 0.9), ("a2", "A", 0.7), ("a3", "A", 0.4)]]
        )
        reports = pairwise_reports(groups, opinions)
        plan = assign_collaborators(groups, reports, opinions)
        assert plan.uncertain_group == 0
        assert plan.least_reliable_agent == "a3"
        assert plan.assignments["a2"] == (("a1", "supportive"),)
        assert plan.assignments["a3"] == (("a1", "supportive"),)
        # the top-belief agent cannot collaborate with itself
        assert plan.assignments["a1"] == (("a2", "supportive"),)

    def test_partial_consensus_walkthrough(self):
        # two conflicting groups; the least reliable agent of the uncertain
        # group receives the other group's top-belief agent
        groups, opinions = build_round([
            [("a1", "B", 0.45), ("a2", "B", 0.4)],
            [("a3", "D", 0.9), ("a4", "D", 0.85)],
        ])
        reports = pairwise_reports(groups, opinions)
        assert reports[(0, 1)].relation == CONFLICTING
        plan = assign_collaborators(groups, reports, opinions)
        assert plan.uncertain_group == 0  # entropy 0.665 vs 0.233
        assert plan.least_reliable_agent == "a2"
        assert plan.assignments["a2"] == (("a3", "conflicting"),)
        assert plan.assignments["a1"] == (("a2", "supportive"),)
        assert plan.assignments["a3"] == (("a4", "supportive"),)
        assert plan.assignments["a4"] == (("a3", "supportive"),)

    def test_mixed_delegates_switch_adds_supportive(self):
        groups, opinions = build_round([
            [("a1", "B", 0.45), ("a2", "B", 0.4)],
            [("a3", "D", 0.9), ("a4", "D", 0.85)],
        ])
        reports = pairwise_reports(groups, opinions)
        plan = assign_collaborators(groups, reports, opinions, mixed_delegates=True)
        assert plan.assignments["a2"] == (("a3", "conflicting"), ("a1", "supportive"))

    def test_singleton_own_group_without_supportive_peers(self):
        groups, opinions = build_round([
            [("a1", "B", 0.45)],
            [("a2", "D", 0.9), ("a3", "D", 0.85), ("a4", "D", 0.2)],
        ])
        reports = pairwise_reports(groups, opinions)
        assert reports[(0, 1)].relation == CONFLICTING
        plan = assign_collaborators(groups, reports, opinions)
        # a1 is alone and most uncertain? entropy(a1)=0.359 < entropy(g1)
        assert plan.uncertain_group == 1
        # g1's least reliable gets the conflicting delegate from g0
        assert plan.least_reliable_agent == "a4"
        assert plan.assignments["a4"] == (("a1", "conflicting"),)
        # a1 keeps only its conflicting-free view: no supportive peers at all
        assert plan.assignments["a1"] == ()

    def test_three_groups_one_conflicting_pair_against_hand_oracle(self):
        groups, opinions = build_round([
            [("a1", "A", 0.6), ("a2", "A", 0.55)],
            [("a3", "A", 0.5), ("a4", "B", 0.45)],
            [("a5", "C", 0.3), ("a6", "C", 0.25)],
        ])
        reports = pairwise_reports(groups, opinions)
        relations = {pair: r.relation for pair, r in reports.items() if pair[0] != pair[1]}
        conflicting_pairs = [p for p, rel in relations.items() if rel == CONFLICTING]
        plan = assign_collaborators(groups, reports, opinions)

        # hand oracle: walk the assignment rules independently
        by_id = {op.agent_id: op for op in opinions}
        members = {g.group_id: [by_id[a] for a in g.members] for g in groups}
        entropy = {g.group_id: g.entropy for g in groups}
        g_u = min(entropy, key=lambda gid: (-entropy[gid], gid))
        least = min(members[g_u], key=lambda o: (o.belief, o.agent_id)).agent_id

        def relation(a, b):
            if a == b:
                return SUPPORTIVE
            key = (a, b) if (a, b) in reports else (b, a)
            return reports[key].relation

        for g in groups:
            for op in members[g.group_id]:
                got = plan.assignments[op.agent_id]
                if op.agent_id == least and any(
                    relation(g.group_id, other.group_id) == CONFLICTING for other in groups
                ):
                    expect = tuple(
                        (min(members[o.group_id],
                             key=lambda m: (-m.belief, m.agent_id)).agent_id, "conflicting")
                        for o in groups
                        if relation(g.group_id, o.group_id) == CONFLICTING
                    )
                else:
                    expect = tuple(
                        (min([m for m in members[o.group_id] if m.agent_id != op.agent_id],
                             key=lambda m: (-m.belief, m.agent_id)).agent_id, "supportive")
                        for o in groups
                        if relation(g.group_id, o.group_id) == SUPPORTIVE
                        and any(m.agent_id != op.agent_id for m in members[o.group_id])
                    )
                assert got == expect, f"agent {op.agent_id}"

        # agents outside the uncertain group never receive conflicting delegates
        for agent_id, delegates in plan.assignments.items():
            if agent_id != plan.least_reliable_agent:
                assert all(tag == "supportive" for _, tag in delegates)
        assert conflicting_pairs  # fixture sanity: at least one conflict exists

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_only_least_reliable_gets_conflicting(self, data):
        n_groups = data.draw(st.integers(2, 3))
        belief = st.sampled_from([round(0.1 * i, 1) for i in range(1, 10)])
        spec = []
        agent = 0
        for gid in range(n_groups):
            size = data.draw(st.integers(1, 3))
            spec.append([
                (f"a{agent + i}", data.draw(st.sampled_from(["A", "B", "C"])), data.draw(belief))
                for i in range(size)
            ])
            agent += size
        groups, opinions = build_round(spec)
        reports = pairwise_reports(groups, opinions)
        plan = assign_collaborators(groups, reports, opinions)
        for agent_id, delegates in plan.assignments.items():
            assert all(cid != agent_id for cid, _ in delegates)
            if agent_id != plan.least_reliable_agent:
                assert all(tag == "supportive" for _, tag in delegates)


def assignment_inputs(count, seed):
    """Rounds with singleton groups, tied beliefs and drawn or real relations.

    Beliefs come from a coarse grid so ties are common, and agent ids are
    shuffled so id order differs from belief order. Every other input draws
    each group pair's relation at random instead of computing it, so the
    least reliable agent often has several conflicting groups.
    """
    rng = np.random.default_rng(seed)
    for i in range(count):
        n_groups = int(rng.integers(1, 5))
        ids = [f"a{j}" for j in rng.permutation(40)]
        spec = []
        for _ in range(n_groups):
            size = 1 if rng.random() < 0.3 else int(rng.integers(2, 9))
            spec.append([
                (ids.pop(), str(rng.choice(["A", "B", "C"])), float(rng.choice([0.2, 0.5, 0.5, 0.9])))
                for _ in range(size)
            ])
        groups, opinions = build_round(spec)
        reports = pairwise_reports(groups, opinions)
        if i % 2:
            reports = {
                pair: ConflictReport(pair, 0.0, 0.0, 0.0,
                                     SUPPORTIVE if pair[0] == pair[1] or rng.random() < 0.5
                                     else CONFLICTING, {})
                for pair in reports
            }
        yield groups, reports, opinions


class TestAssignCollaboratorsOracle:
    def test_plans_equal_rescan_oracle(self):
        seen = {"singleton": 0, "tie": 0, "least_conflicting": 0, "least_supportive_only": 0}
        for i, (groups, reports, opinions) in enumerate(assignment_inputs(2000, seed=41)):
            for mixed in (False, True):
                got = assign_collaborators(groups, reports, opinions, mixed_delegates=mixed)
                want = oracle_assign_collaborators(groups, reports, opinions, mixed_delegates=mixed)
                # dict equality ignores order; the plan's order is part of the output
                assert got == want and list(got.assignments) == list(want.assignments), (
                    f"input {i}, mixed_delegates={mixed}"
                )
            seen["singleton"] += any(len(g.members) == 1 for g in groups)
            beliefs = [op.belief for op in opinions]
            seen["tie"] += len(set(beliefs)) < len(beliefs)
            tags = {tag for _, tag in got.assignments[got.least_reliable_agent]}
            seen["least_conflicting"] += "conflicting" in tags
            seen["least_supportive_only"] += tags == {"supportive"}
        assert all(count >= 200 for count in seen.values()), seen


class TestSelectLeaders:
    def _groups(self, *beliefs_lists):
        spec = []
        agent = 0
        for beliefs in beliefs_lists:
            spec.append([(f"a{agent + i}", "A", b) for i, b in enumerate(beliefs)])
            agent += len(beliefs)
        return build_round(spec)

    def test_top_two(self):
        groups, opinions = self._groups([0.9, 0.7, 0.5])
        leaders = select_leaders(groups, opinions, 2)
        assert leaders.by_group[0].leader_ids == ("a0", "a1")
        assert leaders.by_group[0].all_members is False

    def test_tie_broken_by_agent_id(self):
        groups, opinions = self._groups([0.8, 0.8, 0.5])
        leaders = select_leaders(groups, opinions, 2)
        assert leaders.by_group[0].leader_ids == ("a0", "a1")

    def test_small_group_promotes_everyone(self):
        groups, opinions = self._groups([0.3, 0.2])
        leaders = select_leaders(groups, opinions, 2)
        assert leaders.by_group[0].leader_ids == ("a0", "a1")
        assert leaders.by_group[0].all_members is True

    def test_leader_count_validated(self):
        groups, opinions = self._groups([0.5])
        with pytest.raises(ValueError):
            select_leaders(groups, opinions, 0)
