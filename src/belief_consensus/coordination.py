"""Inter-group coordination: conflict scores, collaborator assignment, leaders.

The conflict score between two opinion groups multiplies a macro component
(belief-weighted complement of the Jaccard overlap of the groups' answers)
with a micro component (ratio contrasting the groups' internal
supporter/dissenter belief sums). Groups are in conflict when the combined
score exceeds 2 by more than rounding; a group is always self-supporting.

Within a group, "supporters" hold the group's modal answer and "dissenters"
are the rest. Degenerate micro ratios use fixed conventions: 0/0 -> 1 and
x/0 -> +inf for x > 0; a zero macro score forces the supportive relation
regardless of the micro value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from belief_consensus.core import Opinion, modal_answer
from belief_consensus.grouping import OpinionGroup

SUPPORTIVE = "Supportive"
CONFLICTING = "Conflicting"

CONFLICT_THRESHOLD = 2.0  # strict, on the combined score

# Belief sums that agree mathematically can differ by accumulation noise;
# gaps below this are the degenerate zero case, not a real ratio. By the same
# rule a combined score within this relative distance of the threshold is
# not above it.
SUM_GAP_EPS = 1e-9


@dataclass(frozen=True)
class ConflictReport:
    group_pair: tuple[int, int]
    macro: float
    micro: float
    combined: float
    relation: str
    components: Mapping[str, float]


@dataclass(frozen=True)
class AssignmentPlan:
    """Per-agent delegate lists of (collaborator agent_id, relation tag)."""

    assignments: Mapping[str, tuple[tuple[str, str], ...]]
    uncertain_group: int
    least_reliable_agent: str


@dataclass(frozen=True)
class GroupLeaders:
    group_id: int
    leader_ids: tuple[str, ...]
    all_members: bool


@dataclass(frozen=True)
class LeaderSet:
    by_group: tuple[GroupLeaders, ...]

    def leaders_of(self, group_id: int) -> GroupLeaders:
        for entry in self.by_group:
            if entry.group_id == group_id:
                return entry
        raise KeyError(f"no leaders recorded for group {group_id}")


def _split_supporters(members: Sequence[Opinion]):
    modal = modal_answer(members)
    support = sum(op.belief for op in members if op.answer == modal)
    dissent = sum(op.belief for op in members if op.answer != modal)
    return support, dissent


def _conflict_components(
    p_members: Sequence[Opinion], q_members: Sequence[Opinion]
) -> dict[str, float]:
    """Belief sums both conflict scores are built from.

    Supporter and dissenter sums of each group, plus the belief of the union
    and of its agents whose answer does not occur in both groups.
    """
    if not p_members or not q_members:
        raise ValueError("empty opinion group")
    p_support, p_dissent = _split_supporters(p_members)
    q_support, q_dissent = _split_supporters(q_members)
    shared = {op.answer for op in p_members} & {op.answer for op in q_members}
    union = list(p_members) + list(q_members)
    return {
        "p_support": p_support,
        "p_dissent": p_dissent,
        "q_support": q_support,
        "q_dissent": q_dissent,
        "sym_diff": sum(op.belief for op in union if op.answer not in shared),
        "union": sum(op.belief for op in union),
    }


def _macro(components: Mapping[str, float]) -> float:
    return components["sym_diff"] / components["union"]


def _micro(components: Mapping[str, float]) -> float:
    num = abs(components["p_support"] - components["q_support"])
    den = abs(components["p_dissent"] - components["q_dissent"])
    if den < SUM_GAP_EPS:
        return 1.0 if num < SUM_GAP_EPS else math.inf
    return num / den


def conflict_relation(
    p_group: OpinionGroup,
    q_group: OpinionGroup,
    p_members: Sequence[Opinion],
    q_members: Sequence[Opinion],
) -> ConflictReport:
    """Full conflict report for a group pair, including the relation verdict."""
    components = _conflict_components(p_members, q_members)
    macro = _macro(components)
    micro = _micro(components)
    if macro == 0.0:
        combined = 0.0
    elif math.isinf(micro):
        combined = math.inf
    else:
        combined = macro * micro
    if p_group.group_id == q_group.group_id:
        relation = SUPPORTIVE
    else:
        above = combined - CONFLICT_THRESHOLD > SUM_GAP_EPS * CONFLICT_THRESHOLD
        relation = CONFLICTING if above else SUPPORTIVE
    return ConflictReport(
        group_pair=(p_group.group_id, q_group.group_id),
        macro=macro,
        micro=micro,
        combined=combined,
        relation=relation,
        components=components,
    )


def _members_by_group(
    groups: Sequence[OpinionGroup], opinions: Sequence[Opinion]
) -> dict[int, list[Opinion]]:
    by_id = {op.agent_id: op for op in opinions}
    return {
        g.group_id: [by_id[aid] for aid in g.members] for g in groups
    }


def pairwise_reports(
    groups: Sequence[OpinionGroup], opinions: Sequence[Opinion]
) -> dict[tuple[int, int], ConflictReport]:
    """Conflict reports for every unordered group pair (and each self pair)."""
    members = _members_by_group(groups, opinions)
    reports: dict[tuple[int, int], ConflictReport] = {}
    for i, gp in enumerate(groups):
        for gq in groups[i:]:
            rep = conflict_relation(gp, gq, members[gp.group_id], members[gq.group_id])
            reports[(gp.group_id, gq.group_id)] = rep
    return reports


def _relation(reports, a: int, b: int) -> str:
    key = (a, b) if (a, b) in reports else (b, a)
    return reports[key].relation


def _rank(op: Opinion) -> tuple[float, str]:
    return (-op.belief, op.agent_id)


def _top_two(members: Sequence[Opinion]) -> list[str]:
    """A group's top-belief agent, then its top agent once that one is left out."""
    if not members:
        return []
    best = min(members, key=_rank).agent_id
    rest = [op for op in members if op.agent_id != best]
    return [best, min(rest, key=_rank).agent_id] if rest else [best]


def _top_agent(top_two: Sequence[str], exclude: str | None = None) -> str | None:
    return next((aid for aid in top_two if aid != exclude), None)


def assign_collaborators(
    groups: Sequence[OpinionGroup],
    reports: Mapping[tuple[int, int], ConflictReport],
    opinions: Sequence[Opinion],
    mixed_delegates: bool = False,
) -> AssignmentPlan:
    """Pick each agent's delegates for the next round.

    The least reliable agent (lowest belief in the most uncertain group)
    receives the top-belief agent from each group conflicting with its own;
    every other agent receives the top-belief agent (self excluded) from
    each group supportive of its own, its own group included.

    Each group's related group ids and its two best members are found once,
    so the cost is O(n·k) for n agents in k groups: leaving one agent out of
    a group leaves its best member, or the runner-up when that agent is the
    best.
    """
    if not groups:
        raise ValueError("no opinion groups")
    members = _members_by_group(groups, opinions)
    uncertain = min(groups, key=lambda g: (-g.entropy, g.group_id))
    least = min(
        members[uncertain.group_id], key=lambda op: (op.belief, op.agent_id)
    ).agent_id

    group_ids = [g.group_id for g in groups]
    top_two = {gid: _top_two(ops) for gid, ops in members.items()}

    def tops(gids, tag, exclude=None):
        return [(top, tag) for top in (_top_agent(top_two[gid], exclude) for gid in gids)
                if top is not None]

    assignments: dict[str, tuple[tuple[str, str], ...]] = {}
    for group in groups:
        relations = [(gid, _relation(reports, group.group_id, gid)) for gid in group_ids]
        conflicting_ids = [gid for gid, rel in relations if rel == CONFLICTING]
        supportive_ids = [gid for gid, rel in relations if rel == SUPPORTIVE]
        # only the group's best member is a top agent it must leave out, so
        # every other member shares one delegate tuple
        assignments.update(dict.fromkeys(group.members, tuple(tops(supportive_ids, "supportive"))))
        for best in top_two[group.group_id][:1]:
            assignments[best] = tuple(tops(supportive_ids, "supportive", exclude=best))
        if group.group_id == uncertain.group_id and conflicting_ids:
            out = tops(conflicting_ids, "conflicting")
            if mixed_delegates:
                out += tops(supportive_ids, "supportive", exclude=least)
            assignments[least] = tuple(out)
    return AssignmentPlan(
        assignments=assignments,
        uncertain_group=uncertain.group_id,
        least_reliable_agent=least,
    )


def select_leaders(
    groups: Sequence[OpinionGroup],
    opinions: Sequence[Opinion],
    n_leaders: int,
) -> LeaderSet:
    """Top-belief agents per group; small groups promote every member."""
    if n_leaders < 1:
        raise ValueError("n_leaders must be at least 1")
    members = _members_by_group(groups, opinions)
    out = []
    for group in groups:
        ranked = sorted(members[group.group_id], key=_rank)
        all_members = len(ranked) <= n_leaders
        chosen = ranked if all_members else ranked[:n_leaders]
        out.append(
            GroupLeaders(
                group_id=group.group_id,
                leader_ids=tuple(op.agent_id for op in chosen),
                all_members=all_members,
            )
        )
    return LeaderSet(by_group=tuple(out))
