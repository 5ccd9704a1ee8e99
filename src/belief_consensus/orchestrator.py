"""Protocol loop: per round, cluster opinions, judge consensus, then either
stop (full consensus), assign collaborators (partial), or select leaders
(none), and dispatch the next round of agent updates.

Runs are deterministic for a fixed (scenario, config, seed) with scripted or
stochastic backends: clustering and noise randomness derive from the run
seed, agent dispatch order is the sorted agent ids, and reports serialize
with sorted keys.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import IO, Mapping, Sequence

import numpy as np

from belief_consensus.agents import (
    AgentContext,
    AgentError,
    Backend,
    TAG_CONFLICTING,
    TAG_LEADER,
    TAG_SUPPORTIVE,
    TEMPLATE_COLLABORATE,
    TEMPLATE_INITIAL,
    TEMPLATE_LEADER,
    TaggedOpinion,
    perturb_one_belief,
)
from belief_consensus.coordination import (
    AssignmentPlan,
    ConflictReport,
    LeaderSet,
    assign_collaborators,
    pairwise_reports,
    select_leaders,
)
from belief_consensus.core import Opinion, RunConfig, ScenarioCase, modal_answer, stable_hash
from belief_consensus.grouping import OpinionGroup, build_groups
from belief_consensus.judgment import FULL, PARTIAL, ConsensusVerdict, judge_consensus

TERMINATED_FULL = "FullConsensus"
TERMINATED_MAX_ROUNDS = "MaxRounds"
TERMINATED_VOTING = "VotingFallback"

VOTING_FALLBACK_BELIEF = 0.5


@dataclass(frozen=True)
class RoundRecord:
    index: int
    opinions: tuple[Opinion, ...]
    groups: tuple[OpinionGroup, ...]
    verdict: ConsensusVerdict
    branch: str
    conflict_reports: tuple[ConflictReport, ...] | None = None
    assignment: AssignmentPlan | None = None
    leaders: LeaderSet | None = None
    noise_victim: str | None = None
    # (agent id, error) of each agent whose call failed this round and whose
    # previous opinion was carried forward in its place
    carried_forward: tuple[tuple[str, str], ...] = ()


@dataclass(frozen=True)
class RunReport:
    case_id: str
    rounds: tuple[RoundRecord, ...]
    final_answer: str
    terminated_by: str
    consensus_count: int
    correct: bool

    @property
    def n_rounds(self) -> int:
        return len(self.rounds)


@dataclass(frozen=True)
class CaseFailure:
    """A case that raised instead of producing a report."""

    case_id: str
    error: str


def _dispatch(
    backends: Mapping[str, Backend],
    case: ScenarioCase,
    contexts: Mapping[str, AgentContext],
    previous: Mapping[str, Opinion] | None,
) -> tuple[list[Opinion], tuple[tuple[str, str], ...]]:
    """One round of opinions, in sorted-agent-id order, and the carried-forward
    agents as sorted (agent id, error) pairs.

    The agents of a backend with `respond_round` answer in one call, the
    others one at a time. A failed call re-raises in round 1 (`previous` is
    None); afterwards its agents carry their previous opinion forward.
    """
    agent_ids = sorted(backends)
    calls: dict[object, tuple[Backend, list[str]]] = {}
    for agent_id in agent_ids:
        backend = backends[agent_id]
        key = id(backend) if hasattr(backend, "respond_round") else agent_id
        calls.setdefault(key, (backend, []))[1].append(agent_id)
    answers = {}
    carried = []
    for backend, ids in calls.values():
        try:
            if hasattr(backend, "respond_round"):
                ops = backend.respond_round(case, ids, [contexts[a] for a in ids])
            else:
                ops = [backend.respond(case, ids[0], contexts[ids[0]])]
        except AgentError as exc:
            if previous is None:
                raise
            ops = [previous[a] for a in ids]  # carry the agents' last opinions forward
            carried.extend((a, str(exc)) for a in ids)
        for agent_id, op in zip(ids, ops):
            if op.agent_id != agent_id:
                op = Opinion(agent_id, op.reasoning, op.answer, op.belief)
            answers[agent_id] = op
    return [answers[a] for a in agent_ids], tuple(sorted(carried))


def _assignment_contexts(
    case: ScenarioCase,
    plan: AssignmentPlan,
    by_id: Mapping[str, Opinion],
    next_round: int,
) -> dict[str, AgentContext]:
    """Each agent's next context; agents with the same delegates share one."""
    shared: dict[tuple[tuple[str, str], ...], AgentContext] = {}
    contexts = {}
    for agent_id, delegates in plan.assignments.items():
        ctx = shared.get(delegates)
        if ctx is None:
            tagged = tuple(
                TaggedOpinion(by_id[cid], TAG_SUPPORTIVE if tag == "supportive" else TAG_CONFLICTING)
                for cid, tag in delegates
            )
            ctx = shared[delegates] = AgentContext(
                question=case.question,
                round=next_round,
                collaborators=tagged,
                template=TEMPLATE_COLLABORATE,
            )
        contexts[agent_id] = ctx
    return contexts


def _leader_contexts(
    case: ScenarioCase,
    leader_set: LeaderSet,
    groups: Sequence[OpinionGroup],
    by_id: Mapping[str, Opinion],
    next_round: int,
) -> dict[str, AgentContext]:
    """Each agent's next context; the followers of a group share one."""

    def context(collab_ids) -> AgentContext:
        return AgentContext(
            question=case.question,
            round=next_round,
            collaborators=tuple(TaggedOpinion(by_id[c], TAG_LEADER) for c in collab_ids),
            template=TEMPLATE_LEADER,
        )

    contexts = {}
    for group in groups:
        entry = leader_set.leaders_of(group.group_id)
        if entry.all_members:
            for agent_id in group.members:
                contexts[agent_id] = context(m for m in group.members if m != agent_id)
            continue
        contexts.update(dict.fromkeys(group.members, context(entry.leader_ids)))
        for leader in entry.leader_ids:
            contexts[leader] = context(l for l in entry.leader_ids if l != leader)
    return contexts


def run_case(
    case: ScenarioCase,
    cfg: RunConfig,
    backends: Mapping[str, Backend],
) -> RunReport:
    """Execute the consensus protocol on one case and return its full trace."""
    if len(backends) != cfg.n:
        raise ValueError(
            f"backend arity mismatch: config says n={cfg.n}, got {len(backends)} backends"
        )
    agent_ids = sorted(backends)
    noise_rng = np.random.default_rng(
        np.random.SeedSequence([cfg.seed & 0x7FFFFFFF, stable_hash(case.case_id), 0xAD])
    )

    contexts = dict.fromkeys(
        agent_ids, AgentContext(question=case.question, round=1, template=TEMPLATE_INITIAL)
    )
    opinions, carried = _dispatch(backends, case, contexts, previous=None)

    records: list[RoundRecord] = []
    reached_full = False
    for round_index in range(1, cfg.max_rounds + 1):
        victim = None
        if cfg.adversarial_noise:
            opinions, victim = perturb_one_belief(opinions, noise_rng)
        cluster_seed = int(
            np.random.SeedSequence(
                [cfg.seed & 0x7FFFFFFF, stable_hash(case.case_id), round_index]
            ).generate_state(1)[0]
        )
        groups = build_groups(opinions, cfg.n_clusters, cluster_seed)
        verdict = judge_consensus(opinions, cfg.n)
        by_id = {op.agent_id: op for op in opinions}

        reports = None
        plan = None
        leader_set = None
        next_contexts: dict[str, AgentContext] | None = None
        if verdict.state == FULL:
            reached_full = True
        elif verdict.state == PARTIAL:
            report_map = pairwise_reports(groups, opinions)
            reports = tuple(report_map[k] for k in sorted(report_map))
            plan = assign_collaborators(
                groups, report_map, opinions, mixed_delegates=cfg.mixed_delegates
            )
            next_contexts = _assignment_contexts(case, plan, by_id, round_index + 1)
        else:
            leader_set = select_leaders(groups, opinions, cfg.n_leaders)
            next_contexts = _leader_contexts(case, leader_set, groups, by_id, round_index + 1)

        records.append(
            RoundRecord(
                index=round_index,
                opinions=tuple(opinions),
                groups=groups,
                verdict=verdict,
                branch=verdict.state,
                conflict_reports=reports,
                assignment=plan,
                leaders=leader_set,
                noise_victim=victim,
                carried_forward=carried,
            )
        )
        if reached_full or round_index == cfg.max_rounds:
            break
        opinions, carried = _dispatch(backends, case, next_contexts, previous=by_id)

    last = records[-1].opinions
    answer = modal_answer(last)
    if reached_full:
        terminated = TERMINATED_FULL
    elif all(op.belief < VOTING_FALLBACK_BELIEF for op in last):
        terminated = TERMINATED_VOTING
    else:
        terminated = TERMINATED_MAX_ROUNDS
    return RunReport(
        case_id=case.case_id,
        rounds=tuple(records),
        final_answer=answer,
        terminated_by=terminated,
        consensus_count=sum(1 for op in last if op.answer == answer),
        correct=answer == case.ground_truth,
    )


# ---------------------------------------------------------------------------
# serialization

def _float_or_inf(x: float):
    return "inf" if math.isinf(x) else x


def report_to_dict(report: RunReport) -> dict:
    rounds = []
    for rec in report.rounds:
        entry = {
            "round": rec.index,
            "opinions": [
                {
                    "agent_id": op.agent_id,
                    "reasoning": op.reasoning,
                    "answer": op.answer,
                    "belief": op.belief,
                }
                for op in rec.opinions
            ],
            "groups": [
                {
                    "group_id": g.group_id,
                    "members": g.members,
                    "entropy": g.entropy,
                    "modal_answer": g.modal_answer,
                }
                for g in rec.groups
            ],
            "verdict": {
                "state": rec.verdict.state,
                "p_s": rec.verdict.p_s,
                "p_b": rec.verdict.p_b,
                "dominant_answer": rec.verdict.dominant_answer,
                "dominant_members": rec.verdict.dominant_members,
                "conflict_members": rec.verdict.conflict_members,
            },
            "branch": rec.branch,
            "noise_victim": rec.noise_victim,
        }
        if rec.carried_forward:
            entry["carried_forward"] = [
                {"agent_id": agent_id, "error": error} for agent_id, error in rec.carried_forward
            ]
        if rec.conflict_reports is not None:
            entry["conflict_reports"] = [
                {
                    "pair": r.group_pair,
                    "macro": r.macro,
                    "micro": _float_or_inf(r.micro),
                    "combined": _float_or_inf(r.combined),
                    "relation": r.relation,
                    "components": dict(r.components),
                }
                for r in rec.conflict_reports
            ]
        if rec.assignment is not None:
            entry["assignment"] = {
                "assignments": dict(rec.assignment.assignments),
                "uncertain_group": rec.assignment.uncertain_group,
                "least_reliable_agent": rec.assignment.least_reliable_agent,
            }
        if rec.leaders is not None:
            entry["leaders"] = [
                {
                    "group_id": gl.group_id,
                    "leader_ids": gl.leader_ids,
                    "all_members": gl.all_members,
                }
                for gl in rec.leaders.by_group
            ]
        rounds.append(entry)
    return {
        "case_id": report.case_id,
        "rounds": rounds,
        "final_answer": report.final_answer,
        "terminated_by": report.terminated_by,
        "consensus_count": report.consensus_count,
        "correct": report.correct,
        "n_rounds": report.n_rounds,
    }


def write_results_jsonl(reports: Sequence[RunReport | CaseFailure], out: IO[str],
                        header: dict | None = None):
    """One JSON object per case, `{"case_id", "error"}` for a failed one; an
    optional config-echo header line first."""
    if header is not None:
        out.write(json.dumps({"config": header}, sort_keys=True) + "\n")
    for report in reports:
        payload = (
            {"case_id": report.case_id, "error": report.error}
            if isinstance(report, CaseFailure) else report_to_dict(report)
        )
        out.write(json.dumps(payload, sort_keys=True) + "\n")


def rounds_to_csv(reports: Sequence[RunReport], out: IO[str]):
    """Flat per-agent-per-round audit rows."""
    import csv as _csv

    writer = _csv.writer(out)
    writer.writerow(
        ["case_id", "round", "agent_id", "group_id", "answer", "belief", "state", "p_s", "p_b"]
    )
    for report in reports:
        for rec in report.rounds:
            group_of = {m: g.group_id for g in rec.groups for m in g.members}
            verdict = (rec.verdict.state, repr(rec.verdict.p_s), repr(rec.verdict.p_b))
            writer.writerows(
                [report.case_id, rec.index, op.agent_id, group_of[op.agent_id], op.answer,
                 repr(op.belief), *verdict]
                for op in rec.opinions
            )
