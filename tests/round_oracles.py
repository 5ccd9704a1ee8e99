"""Reference forms of the per-round layers, kept for exact-equality tests.

These are the straightforward versions the library replaced with cheaper
ones that must return identical results:

- `oracle_vectorize`: tf-idf filled token by token for every document,
  duplicates included;
- `oracle_build_groups`: one text per agent through `oracle_vectorize`, the
  agents' rows clustered by the loop k-means of `kmeans_oracle` (which
  renumbers by first appearance), and each group's entropy and modal answer
  computed from its members' Opinions, where `build_groups` vectorizes and
  clusters each distinct (reasoning, answer) pair once;
- `oracle_assign_collaborators`: rescans a whole group for its top-belief
  member once per agent and related group, and recomputes the related group
  ids once per agent;
- `oracle_respond`: `StochasticAgent.respond` building its own
  `default_rng(SeedSequence(...))` per call, drawing the candidate with
  `Generator.choice` and rounding the belief with `np.round`;
- `oracle_leader_delegates`: each agent's leaders rebuilt per agent from
  the leader set's groups, where `select_leaders` shares one tuple among a
  group's followers;
- `oracle_messages`: the chat messages of an agent assembled from its
  delegates' `Opinion`s, the ask chosen by the branch of the round before,
  where `build_messages` reads their rows of the previous round's columns
  and chooses the ask by their tags;
- `report_to_dict` with `oracle_results_jsonl` / `oracle_rounds_csv`: each
  report as nested dicts through `json.dumps(..., sort_keys=True)`, and one
  `csv.writer` row per agent, where the writers assemble encoded pieces.

`columns_of` builds a round from `Opinion`s and `opinions_of` reads one
back as one `Opinion` per agent. The oracles read collaborators through an
`Opinion` per agent id (`opinions_by_id`), never from columns.
"""

import csv
import json
import math

import numpy as np

from belief_consensus.agents import RoundContext, StochasticAgent
from belief_consensus.coordination import (
    CONFLICTING,
    SUPPORTIVE,
    AssignmentPlan,
    _relation,
)
from belief_consensus.core import (TAG_CONFLICTING, TAG_LEADER, TAG_SUPPORTIVE, Opinion,
                                   RoundColumns, modal_answer, stable_hash)
from belief_consensus.grouping import OpinionGroup, group_entropy, tokenize
from belief_consensus.judgment import NONE
from belief_consensus.orchestrator import CaseFailure
from kmeans_oracle import oracle_cluster


def columns_of(opinions):
    """The round of these opinions, each under the agent it names."""
    return RoundColumns.of([op.agent_id for op in opinions], opinions)


def opinions_of(round_):
    """The round's rows as Opinions, in row order."""
    return [Opinion(agent_id, round_.texts[t], round_.answers[c], b) for agent_id, c, b, t
            in zip(round_.agent_ids, round_.codes.tolist(), round_.beliefs.tolist(),
                   round_.text_ids.tolist())]


def opinions_by_id(round_):
    """Each agent's Opinion in the round, by agent id."""
    return {op.agent_id: op for op in opinions_of(round_)}


def context_of(round_index, tagged):
    """The round's context in which agent `a`'s delegates hold the (Opinion,
    tag) pairs `tagged[a]`, in the round of those opinions; with no pairs at
    all, a context with no previous round."""
    ops = {op.agent_id: op for pairs in tagged.values() for op, _ in pairs}
    previous = columns_of(list(ops.values())) if ops else None
    return RoundContext(round_index, {agent_id: tuple((op.agent_id, tag) for op, tag in pairs)
                                      for agent_id, pairs in tagged.items()}, previous)


def no_delegates(round_index, *agent_ids):
    """The context of a round in which none of the agents has delegates."""
    return RoundContext(round_index, dict.fromkeys(agent_ids, ()))


def oracle_vectorize(texts):
    if len(texts) == 0:
        raise ValueError("no opinions to vectorize")
    docs = [tokenize(t) for t in texts]
    vocab = sorted({tok for doc in docs for tok in doc})
    index = {tok: j for j, tok in enumerate(vocab)}
    n_docs = len(docs)
    mat = np.zeros((n_docs, max(len(vocab), 1)))
    if vocab:
        df = np.zeros(len(vocab))
        for doc in docs:
            for tok in set(doc):
                df[index[tok]] += 1
        idf = np.log((1.0 + n_docs) / (1.0 + df)) + 1.0
        for i, doc in enumerate(docs):
            for tok in doc:
                mat[i, index[tok]] += 1.0
            mat[i] *= idf
            norm = np.linalg.norm(mat[i])
            if norm > 0:
                mat[i] /= norm
    return mat


def oracle_build_groups(round_, k, seed):
    """The groups of `round_` when its agents cluster from clustering seed
    `seed`, whose restart draws are `_restart_draws([seed], k)[:, 0]`."""
    opinions = opinions_of(round_)
    vectors = oracle_vectorize([f"{op.reasoning} {op.answer}" for op in opinions])
    labels = oracle_cluster(vectors, k, seed).tolist()
    groups = []
    for gid in range(max(labels) + 1):
        members = [op for op, label in zip(opinions, labels) if label == gid]
        groups.append(OpinionGroup(gid, tuple(op.agent_id for op in members),
                                   group_entropy([op.belief for op in members]),
                                   modal_answer(columns_of(members))))
    return tuple(groups)


def _top_belief(members, exclude=None):
    pool = [op for op in members if op.agent_id != exclude]
    if not pool:
        return None
    return min(pool, key=lambda op: (-op.belief, op.agent_id))


def _members_by_group(groups, opinions):
    by_id = {op.agent_id: op for op in opinions}
    return {g.group_id: [by_id[aid] for aid in g.members] for g in groups}


def oracle_assign_collaborators(groups, reports, opinions, mixed_delegates=False):
    """`opinions` is a sequence of Opinions."""
    if not groups:
        raise ValueError("no opinion groups")
    members = _members_by_group(groups, opinions)
    uncertain = min(groups, key=lambda g: (-g.entropy, g.group_id))
    least = min(
        members[uncertain.group_id], key=lambda op: (op.belief, op.agent_id)
    ).agent_id

    group_ids = [g.group_id for g in groups]
    assignments = {}
    for group in groups:
        for op in members[group.group_id]:
            out = []
            is_least = op.agent_id == least
            conflicting_ids = [
                gid for gid in group_ids if _relation(reports, group.group_id, gid) == CONFLICTING
            ]
            if is_least and conflicting_ids:
                for gid in conflicting_ids:
                    top = _top_belief(members[gid])
                    if top is not None:
                        out.append((top.agent_id, "conflicting"))
                want_supportive = mixed_delegates
            else:
                want_supportive = True
            if want_supportive:
                for gid in group_ids:
                    if _relation(reports, group.group_id, gid) != SUPPORTIVE:
                        continue
                    top = _top_belief(members[gid], exclude=op.agent_id)
                    if top is not None:
                        out.append((top.agent_id, "supportive"))
            assignments[op.agent_id] = tuple(out)
    return AssignmentPlan(
        assignments=assignments,
        uncertain_group=uncertain.group_id,
        least_reliable_agent=least,
    )


def oracle_respond(agent: StochasticAgent, case, agent_id, ctx):
    rng = np.random.default_rng(
        np.random.SeedSequence(
            [agent.seed, stable_hash(case.case_id), stable_hash(agent_id), ctx.round]
        )
    )
    delegates = ctx.delegates[agent_id]
    if delegates and rng.random() < agent.adopt_prob:
        by_id = opinions_by_id(ctx.previous)
        best = max((by_id[cid] for cid, _ in delegates), key=lambda op: op.belief)
        answer = best.answer
        reasoning = f"Adopting the strongest collaborator view on round {ctx.round}."
    else:
        answer = str(rng.choice(list(agent.candidates)))
        reasoning = f"Independent draw on round {ctx.round} favoring option {answer}."
    belief = float(np.round(rng.uniform(0.3, 0.95), 6))
    return Opinion(agent_id=agent_id, reasoning=reasoning, answer=answer, belief=belief)


def oracle_leader_delegates(leader_set, groups):
    """Each agent's (leader id, TAG_LEADER) pairs, from its group's leaders."""
    delegates = {}
    for group, entry in zip(groups, leader_set.by_group):
        for agent_id in group.members:
            if entry.all_members:
                collab_ids = [m for m in group.members if m != agent_id]
            elif agent_id in entry.leader_ids:
                collab_ids = [l for l in entry.leader_ids if l != agent_id]
            else:
                collab_ids = list(entry.leader_ids)
            delegates[agent_id] = tuple((c, TAG_LEADER) for c in collab_ids)
    return delegates


def oracle_messages(question, branch, delegates, by_id, style):
    """The system and user messages of an agent whose collaborators are the
    (agent id, tag) pairs `delegates`, their opinions those of `by_id`, in a
    round after one whose verdict was `branch`: leaders follow a None round."""
    system = ("Please reason step by step, and put your final answer within \\boxed{}."
              if style == "boxed" else "Please reason step by step, and answer the question.")
    if not delegates:
        user = question
    else:
        labels = {TAG_SUPPORTIVE: "One supporting agent solution",
                  TAG_CONFLICTING: "One conflicting agent solution",
                  TAG_LEADER: "One leader solution"}
        order = {TAG_SUPPORTIVE: 0, TAG_CONFLICTING: 1, TAG_LEADER: 2}
        block = " ".join(
            f"{labels[tag]}: {by_id[cid].reasoning} The answer is {by_id[cid].answer}."
            for cid, tag in sorted(delegates, key=lambda d: order[d[1]]))
        if branch == NONE:
            ask = ("Judging which solutions can lead the trend of thought and using the "
                   "solutions from other agents as additional advice, can you give an "
                   "updated answer? Examine your solution and that of other agents step by step.")
        else:
            ask = ("Judging which solutions are trustable and using the solutions from "
                   "other agents as additional advice, can you give an updated answer? "
                   "Examine your solution and that of other agents step by step.")
        user = (f"Here is the question: {question} "
                f"These are the solutions to the problem from other agents: {block} {ask}")
    if style != "boxed":
        user += (" Put your answer in the form (answer) at the end of your response. "
                 "(answer) represents your chosen option.")
    return [{"role": "system", "content": system}, {"role": "user", "content": user}]


def _float_or_inf(x):
    return "inf" if math.isinf(x) else x


def report_to_dict(report):
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
                for op in opinions_of(rec.opinions)
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
            "branch": rec.verdict.state,
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


def oracle_results_jsonl(reports, out, header=None):
    if header is not None:
        out.write(json.dumps({"config": header}, sort_keys=True) + "\n")
    for report in reports:
        payload = (
            {"case_id": report.case_id, "error": report.error}
            if isinstance(report, CaseFailure) else report_to_dict(report)
        )
        out.write(json.dumps(payload, sort_keys=True) + "\n")


def oracle_rounds_csv(reports, out):
    writer = csv.writer(out)
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
                for op in opinions_of(rec.opinions)
            )
