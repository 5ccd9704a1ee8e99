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
from collections import namedtuple
from dataclasses import dataclass
from itertools import accumulate
from typing import Mapping, Sequence

import numpy as np

from belief_consensus.core import (TAG_CONFLICTING, TAG_LEADER, TAG_SUPPORTIVE, RoundColumns,
                                   fold, modal_code, tally)
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
    """Each group's leaders, and per-agent delegate lists of (collaborator
    agent_id, TAG_LEADER) in the shape of `AssignmentPlan.assignments`."""

    by_group: tuple[GroupLeaders, ...]
    assignments: Mapping[str, tuple[tuple[str, str], ...]]


# what the conflict scores read of one group: its members' codes and beliefs
# in member order, the codes they hold, and its supporter and dissenter sums
_Side = namedtuple("_Side", "codes beliefs held support dissent")


def _side(opinions: RoundColumns, group: OpinionGroup) -> _Side:
    if not group.members:
        raise ValueError("empty opinion group")
    rows = opinions.rows(group.members)
    codes, beliefs = opinions.codes[rows], opinions.beliefs[rows]
    counts, sums = tally(codes, beliefs, len(opinions.answers))
    modal = modal_code(counts, sums)
    codes, beliefs = codes.tolist(), beliefs.tolist()
    return _Side(codes, beliefs, {c for c, count in enumerate(counts) if count}, sums[modal],
                 fold([b for c, b in zip(codes, beliefs) if c != modal]))


def _conflict_components(p: _Side, q: _Side) -> dict[str, float]:
    """Belief sums both conflict scores are built from.

    Supporter and dissenter sums of each group, plus the belief of the union
    (p's members, then q's) and of its agents whose answer does not occur in
    both groups, each added in that order.
    """
    shared = p.held & q.held
    codes, beliefs = p.codes + q.codes, p.beliefs + q.beliefs
    return {
        "p_support": p.support,
        "p_dissent": p.dissent,
        "q_support": q.support,
        "q_dissent": q.dissent,
        "sym_diff": fold([b for c, b in zip(codes, beliefs) if c not in shared]),
        "union": fold(beliefs),
    }


def _macro(components: Mapping[str, float]) -> float:
    return components["sym_diff"] / components["union"]


def _micro(components: Mapping[str, float]) -> float:
    num = abs(components["p_support"] - components["q_support"])
    den = abs(components["p_dissent"] - components["q_dissent"])
    if den < SUM_GAP_EPS:
        return 1.0 if num < SUM_GAP_EPS else math.inf
    return num / den


def _report(p_id: int, q_id: int, p: _Side, q: _Side) -> ConflictReport:
    components = _conflict_components(p, q)
    macro = _macro(components)
    micro = _micro(components)
    if macro == 0.0:
        combined = 0.0
    elif math.isinf(micro):
        combined = math.inf
    else:
        combined = macro * micro
    if p_id == q_id:
        relation = SUPPORTIVE
    else:
        above = combined - CONFLICT_THRESHOLD > SUM_GAP_EPS * CONFLICT_THRESHOLD
        relation = CONFLICTING if above else SUPPORTIVE
    return ConflictReport(
        group_pair=(p_id, q_id),
        macro=macro,
        micro=micro,
        combined=combined,
        relation=relation,
        components=components,
    )


def pairwise_reports(
    groups: Sequence[OpinionGroup], opinions: RoundColumns
) -> dict[tuple[int, int], ConflictReport]:
    """Conflict reports for every unordered group pair (and each self pair)."""
    sides = [_side(opinions, g) for g in groups]
    reports: dict[tuple[int, int], ConflictReport] = {}
    for i, (gp, p) in enumerate(zip(groups, sides)):
        for gq, q in zip(groups[i:], sides[i:]):
            reports[(gp.group_id, gq.group_id)] = _report(gp.group_id, gq.group_id, p, q)
    return reports


def _relation(reports, a: int, b: int) -> str:
    key = (a, b) if (a, b) in reports else (b, a)
    return reports[key].relation


def _ranked(opinions: RoundColumns, groups: Sequence[OpinionGroup]) -> list[list[int]]:
    """Each group's rows by descending belief, ties by agent id (row order);
    one sort for all groups."""
    sizes = [len(g.members) for g in groups]
    rows = opinions.rows([m for g in groups for m in g.members])
    group = np.repeat(np.arange(len(groups)), sizes)
    ranked = rows[np.lexsort((rows, -opinions.beliefs[rows], group))].tolist()
    return [ranked[end - size:end] for size, end in zip(sizes, accumulate(sizes))]


def _top_agent(top_two: Sequence[str], exclude: str | None = None) -> str | None:
    return next((aid for aid in top_two if aid != exclude), None)


def assign_collaborators(
    groups: Sequence[OpinionGroup],
    reports: Mapping[tuple[int, int], ConflictReport],
    opinions: RoundColumns,
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
    uncertain = min(groups, key=lambda g: (-g.entropy, g.group_id))
    rows = opinions.rows(uncertain.members)
    least = opinions.agent_ids[rows[np.lexsort((rows, opinions.beliefs[rows]))[0]]]

    group_ids = [g.group_id for g in groups]
    top_two = {g.group_id: opinions.ids(ranked[:2])
               for g, ranked in zip(groups, _ranked(opinions, groups))}

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
        shared = tuple(tops(supportive_ids, TAG_SUPPORTIVE))
        assignments.update(dict.fromkeys(group.members, shared))
        for best in top_two[group.group_id][:1]:
            assignments[best] = tuple(tops(supportive_ids, TAG_SUPPORTIVE, exclude=best))
        if group.group_id == uncertain.group_id and conflicting_ids:
            out = tops(conflicting_ids, TAG_CONFLICTING)
            if mixed_delegates:
                out += tops(supportive_ids, TAG_SUPPORTIVE, exclude=least)
            assignments[least] = tuple(out)
    return AssignmentPlan(
        assignments=assignments,
        uncertain_group=uncertain.group_id,
        least_reliable_agent=least,
    )


def select_leaders(
    groups: Sequence[OpinionGroup],
    opinions: RoundColumns,
    n_leaders: int,
) -> LeaderSet:
    """Top-belief agents per group; small groups promote every member.

    A follower sees its group's leaders, a leader the other leaders; in a
    group of leaders only, each member sees the others in member order.
    """
    if n_leaders < 1:
        raise ValueError("n_leaders must be at least 1")
    by_group = []
    assignments: dict[str, tuple[tuple[str, str], ...]] = {}
    for group, ranked in zip(groups, _ranked(opinions, groups)):
        leader_ids = opinions.ids(ranked[:n_leaders])
        all_members = len(ranked) <= n_leaders
        by_group.append(GroupLeaders(group.group_id, leader_ids, all_members))
        seen = group.members if all_members else leader_ids
        # the followers share one delegate tuple; each of `seen` then gets its own
        assignments.update(dict.fromkeys(group.members, tuple((a, TAG_LEADER) for a in seen)))
        for agent_id in seen:
            assignments[agent_id] = tuple((a, TAG_LEADER) for a in seen if a != agent_id)
    return LeaderSet(by_group=tuple(by_group), assignments=assignments)
