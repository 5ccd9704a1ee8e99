"""Reference forms of three per-round layers, kept for exact-equality tests.

These are the straightforward versions the library replaced with cheaper
ones that must return identical results:

- `oracle_vectorize`: tf-idf filled token by token for every document,
  duplicates included;
- `oracle_assign_collaborators`: rescans a whole group for its top-belief
  member once per agent and related group, and recomputes the related group
  ids once per agent;
- `oracle_respond`: `StochasticAgent.respond` building its own
  `default_rng(SeedSequence(...))` per call, drawing the candidate with
  `Generator.choice` and rounding the belief with `np.round`;
- `oracle_assignment_contexts` / `oracle_leader_contexts`: a fresh
  `AgentContext` for every agent, where the orchestrator shares one among
  the agents with the same collaborators.
"""

import numpy as np

from belief_consensus.agents import (
    TAG_CONFLICTING,
    TAG_LEADER,
    TAG_SUPPORTIVE,
    TEMPLATE_COLLABORATE,
    TEMPLATE_LEADER,
    AgentContext,
    StochasticAgent,
    TaggedOpinion,
)
from belief_consensus.coordination import (
    CONFLICTING,
    SUPPORTIVE,
    AssignmentPlan,
    _members_by_group,
    _relation,
)
from belief_consensus.core import Opinion, stable_hash
from belief_consensus.grouping import tokenize


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


def _top_belief(members, exclude=None):
    pool = [op for op in members if op.agent_id != exclude]
    if not pool:
        return None
    return min(pool, key=lambda op: (-op.belief, op.agent_id))


def oracle_assign_collaborators(groups, reports, opinions, mixed_delegates=False):
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
    if ctx.collaborators and rng.random() < agent.adopt_prob:
        best = max(ctx.collaborators, key=lambda t: t.opinion.belief)
        answer = best.opinion.answer
        reasoning = f"Adopting the strongest collaborator view on round {ctx.round}."
    else:
        answer = str(rng.choice(list(agent.candidates)))
        reasoning = f"Independent draw on round {ctx.round} favoring option {answer}."
    belief = float(np.round(rng.uniform(0.3, 0.95), 6))
    return Opinion(agent_id=agent_id, reasoning=reasoning, answer=answer, belief=belief)


def oracle_assignment_contexts(case, plan, by_id, next_round):
    contexts = {}
    for agent_id, delegates in plan.assignments.items():
        tagged = tuple(
            TaggedOpinion(by_id[cid], TAG_SUPPORTIVE if tag == "supportive" else TAG_CONFLICTING)
            for cid, tag in delegates
        )
        contexts[agent_id] = AgentContext(
            question=case.question,
            round=next_round,
            collaborators=tagged,
            template=TEMPLATE_COLLABORATE,
        )
    return contexts


def oracle_leader_contexts(case, leader_set, groups, by_id, next_round):
    contexts = {}
    for group in groups:
        entry = leader_set.leaders_of(group.group_id)
        for agent_id in group.members:
            if entry.all_members:
                collab_ids = [m for m in group.members if m != agent_id]
            elif agent_id in entry.leader_ids:
                collab_ids = [l for l in entry.leader_ids if l != agent_id]
            else:
                collab_ids = list(entry.leader_ids)
            tagged = tuple(TaggedOpinion(by_id[c], TAG_LEADER) for c in collab_ids)
            contexts[agent_id] = AgentContext(
                question=case.question,
                round=next_round,
                collaborators=tagged,
                template=TEMPLATE_LEADER,
            )
    return contexts
