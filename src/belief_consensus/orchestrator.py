"""Protocol loop: per round, cluster opinions, judge consensus, then either
stop (full consensus), assign collaborators (partial), or select leaders
(none), and dispatch the next round of agent updates. The delegate map that
assignment or leader selection returns, with this round's opinions, is the
next round's one context; every backend reads it whole. Every HTTP request
of a round is sent before the first reply is read, all on the calling
thread, and the replies are read in agent order.

Runs are deterministic for a fixed (scenario, config, seed) with scripted or
stochastic backends: clustering and noise randomness derive from the run
seed, agent dispatch order is the sorted agent ids, and reports serialize
with sorted keys.
"""

from __future__ import annotations

import csv
import io
import json
import math
from collections import defaultdict
from contextlib import ExitStack
from dataclasses import dataclass
from typing import IO, Mapping, Sequence

import numpy as np

from belief_consensus.agents import AgentError, Backend, RoundContext, perturb_one_belief
from belief_consensus.coordination import (
    AssignmentPlan,
    ConflictReport,
    LeaderSet,
    assign_collaborators,
    pairwise_reports,
    select_leaders,
)
from belief_consensus.core import RoundColumns, RunConfig, ScenarioCase, stable_hash
from belief_consensus.grouping import OpinionGroup, _restart_draws, build_groups
from belief_consensus.judgment import FULL, PARTIAL, ConsensusVerdict, judge_consensus
from belief_consensus.pcg64 import ROUNDS_PER_PASS, _state_words

TERMINATED_FULL = "FullConsensus"
TERMINATED_MAX_ROUNDS = "MaxRounds"
TERMINATED_VOTING = "VotingFallback"

VOTING_FALLBACK_BELIEF = 0.5


@dataclass(frozen=True)
class RoundRecord:
    index: int
    opinions: RoundColumns
    groups: tuple[OpinionGroup, ...]
    verdict: ConsensusVerdict  # its state names the branch taken
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
    ctx: RoundContext,
) -> tuple[RoundColumns, tuple[tuple[str, str], ...]]:
    """One round of opinions, in sorted-agent-id order, and the carried-forward
    agents as sorted (agent id, error) pairs.

    Every backend's `start_round` runs first, so an HTTP backend has sent
    the first attempt of each of its agents before any reply is read, all on
    the calling thread. Then each backend answers its agents in one
    `respond_round` call, in the order of their first agent; an AgentError
    the call raises fails them all. In round 1 (`ctx.previous` is None) the
    first failure is raised and no later reply read; afterwards a failed
    agent keeps its row of the previous round. Whatever was started and not
    read is ended before this returns or raises.
    """
    agent_ids = sorted(backends)
    calls: defaultdict[int, list[str]] = defaultdict(list)
    for agent_id in agent_ids:
        calls[id(backends[agent_id])].append(agent_id)
    parts, failed = [], []
    with ExitStack() as started:
        for ids in calls.values():
            started.enter_context(backends[ids[0]].start_round(case, ids, ctx))
        for ids in calls.values():
            try:
                part, errors = backends[ids[0]].respond_round(case, ids, ctx)
            except AgentError as exc:
                part, errors = RoundColumns.of([], []), [(a, exc) for a in ids]
            if errors and ctx.previous is None:
                raise errors[0][1]
            lost = dict(errors)
            answered = tuple(a for a in ids if a not in lost) if lost else tuple(ids)
            if part.agent_ids != answered:  # the layers rely on sorted rows
                raise ValueError(f"respond_round answered agents {list(part.agent_ids)}, "
                                 f"not {list(answered)}")
            if len(answered) == len(agent_ids):
                return part, ()
            parts.append(part)
            failed.extend((a, str(exc)) for a, exc in errors)
    if failed:
        parts.append(ctx.previous.take(ctx.previous.rows([a for a, _ in failed])))
    return RoundColumns.join(parts), tuple(sorted(failed))


def _cluster_draws(case: ScenarioCase, cfg: RunConfig, rounds: range) -> np.ndarray:
    """The k-means restart draws of `rounds`, (k, len(rounds), KMEANS_N_INIT).

    Round r clusters from the seed `SeedSequence([seed & 0x7FFFFFFF,
    crc(case), r]).generate_state(1)[0]`; the seeds of all the rounds, then
    their restart draws, are each derived in one pass.
    """
    entropy = np.empty((3, len(rounds)), np.uint32)
    entropy[0] = cfg.seed & 0x7FFFFFFF
    entropy[1] = stable_hash(case.case_id)
    entropy[2] = rounds
    return _restart_draws(_state_words(entropy)[0].tolist(), cfg.n_clusters)


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
    ) if cfg.adversarial_noise else None

    delegates, opinions = dict.fromkeys(agent_ids, ()), None
    records: list[RoundRecord] = []
    drawn = range(0)  # the rounds `cluster_draws` holds
    for round_index in range(1, cfg.max_rounds + 1):
        if round_index not in drawn:
            drawn = range(round_index, min(round_index + ROUNDS_PER_PASS, cfg.max_rounds + 1))
            cluster_draws = _cluster_draws(case, cfg, drawn)
        opinions, carried = _dispatch(backends, case,
                                      RoundContext(round_index, delegates, opinions))
        victim = None
        if cfg.adversarial_noise:
            opinions, victim = perturb_one_belief(opinions, noise_rng)
        groups = build_groups(opinions, cfg.n_clusters,
                              cluster_draws[:, round_index - drawn.start])
        verdict = judge_consensus(opinions, cfg.n)

        reports = plan = leader_set = None
        if verdict.state == PARTIAL:
            report_map = pairwise_reports(groups, opinions)
            reports = tuple(report_map[k] for k in sorted(report_map))
            plan = assign_collaborators(
                groups, report_map, opinions, mixed_delegates=cfg.mixed_delegates
            )
            delegates = plan.assignments
        elif verdict.state != FULL:
            leader_set = select_leaders(groups, opinions, cfg.n_leaders)
            delegates = leader_set.assignments

        records.append(RoundRecord(
            index=round_index, opinions=opinions, groups=groups, verdict=verdict,
            conflict_reports=reports, assignment=plan, leaders=leader_set,
            noise_victim=victim, carried_forward=carried,
        ))
        if verdict.state == FULL:
            break

    last = records[-1]  # its verdict's dominant answer is the round's modal answer
    answer = last.verdict.dominant_answer
    if last.verdict.state == FULL:
        terminated = TERMINATED_FULL
    elif (last.opinions.beliefs < VOTING_FALLBACK_BELIEF).all():
        terminated = TERMINATED_VOTING
    else:
        terminated = TERMINATED_MAX_ROUNDS
    return RunReport(
        case_id=case.case_id,
        rounds=tuple(records),
        final_answer=answer,
        terminated_by=terminated,
        consensus_count=len(last.verdict.dominant_members),
        correct=answer == case.ground_truth,
    )


# ---------------------------------------------------------------------------
# serialization
#
# Both writers assemble their text from pieces encoded once per round or per
# set of agent ids: an agent's id, an answer, a reasoning text. The bytes are
# those of `json.dumps(..., sort_keys=True)` over the report as nested dicts
# and of one `csv.writer` row per agent; tests/round_oracles.py keeps those
# forms as the reference.

def _float_or_inf(x: float):
    return "inf" if math.isinf(x) else x


def _encoded_between(before: dict, key: str, encoded: str, after: dict) -> str:
    """`json.dumps({**before, key: value, **after}, sort_keys=True)`, where
    `encoded` is the value's encoding and every key of `before` sorts below
    `key`, every key of `after` above it; both are non-empty."""
    head = json.dumps(before, sort_keys=True)
    tail = json.dumps(after, sort_keys=True)
    return f"{head[:-1]}, {json.dumps(key)}: {encoded}, {tail[1:]}"


def _memo(encode):
    """`encode` remembered per string for one writer call: answers, texts
    and agent ids recur across rounds and cases."""
    done: dict[str, str] = {}

    def encoded(text: str) -> str:
        if text not in done:
            done[text] = encode(text)
        return done[text]
    return encoded


def _csv_cell(text: str) -> str:
    """`text` as a csv.writer row holds it: quoted where it holds a comma,
    quote or line break. Ints and float reprs never need quoting."""
    buf = io.StringIO()
    csv.writer(buf).writerow([text, ""])  # two cells, so never a lone ""
    return buf.getvalue()[:-len(",\r\n")]


def _opinions_json(opinions: RoundColumns, heads: Sequence[str], encode) -> str:
    """The round's opinion objects; `heads[i]` opens row i's, up to its answer."""
    answers = [f'{encode(a)}, "belief": ' for a in opinions.answers]
    tails = [f', "reasoning": {encode(t)}}}' for t in opinions.texts]
    return "[" + ", ".join([
        f"{head}{answers[code]}{belief!r}{tails[text]}"
        for head, code, belief, text in zip(heads, opinions.codes.tolist(),
                                             opinions.beliefs.tolist(),
                                             opinions.text_ids.tolist())
    ]) + "]"


def _round_json(rec: RoundRecord, heads: Sequence[str], encode) -> str:
    # a group's, leader entry's, plan's and verdict's fields are their keys
    before = {  # the keys that sort below "opinions"
        "groups": [vars(g) for g in rec.groups],
        "branch": rec.verdict.state,
        "noise_victim": rec.noise_victim,
    }
    if rec.carried_forward:
        before["carried_forward"] = [
            {"agent_id": agent_id, "error": error} for agent_id, error in rec.carried_forward
        ]
    if rec.conflict_reports is not None:
        before["conflict_reports"] = [
            {
                "pair": r.group_pair,
                "macro": r.macro,
                "micro": _float_or_inf(r.micro),
                "combined": _float_or_inf(r.combined),
                "relation": r.relation,
                "components": r.components,
            }
            for r in rec.conflict_reports
        ]
    if rec.assignment is not None:
        before["assignment"] = vars(rec.assignment)
    if rec.leaders is not None:
        before["leaders"] = [vars(gl) for gl in rec.leaders.by_group]
    after = {"round": rec.index, "verdict": vars(rec.verdict)}
    return _encoded_between(before, "opinions", _opinions_json(rec.opinions, heads, encode), after)


def write_results_jsonl(reports: Sequence[RunReport | CaseFailure], out: IO[str],
                        header: dict | None = None):
    """One JSON object per case, `{"case_id", "error"}` for a failed one; an
    optional config-echo header line first."""
    if header is not None:
        out.write(json.dumps({"config": header}, sort_keys=True) + "\n")
    agent_ids, heads, encode = None, None, _memo(json.dumps)
    for report in reports:
        if isinstance(report, CaseFailure):
            out.write(json.dumps({"case_id": report.case_id, "error": report.error},
                                 sort_keys=True) + "\n")
            continue
        rounds = []
        for rec in report.rounds:
            if rec.opinions.agent_ids != agent_ids:
                agent_ids = rec.opinions.agent_ids
                heads = [f'{{"agent_id": {encode(a)}, "answer": ' for a in agent_ids]
            rounds.append(_round_json(rec, heads, encode))
        before = {
            "case_id": report.case_id,
            "final_answer": report.final_answer,
            "consensus_count": report.consensus_count,
            "correct": report.correct,
            "n_rounds": report.n_rounds,
        }
        after = {"terminated_by": report.terminated_by}
        out.write(_encoded_between(before, "rounds", "[" + ", ".join(rounds) + "]", after) + "\n")


def rounds_to_csv(reports: Sequence[RunReport], out: IO[str]):
    """Flat per-agent-per-round audit rows."""
    csv.writer(out).writerow(
        ["case_id", "round", "agent_id", "group_id", "answer", "belief", "state", "p_s", "p_b"]
    )
    agent_ids, agents, cell = None, None, _memo(_csv_cell)
    for report in reports:
        for rec in report.rounds:
            opinions = rec.opinions
            if opinions.agent_ids != agent_ids:
                agent_ids = opinions.agent_ids
                agents = [cell(a) for a in agent_ids]
            n_answers = len(opinions.answers)
            group = np.empty(len(opinions), np.intp)
            for g in rec.groups:
                group[opinions.rows(g.members)] = g.group_id
            pairs = (group * n_answers + opinions.codes).tolist()
            middle = {p: f",{p // n_answers},{cell(opinions.answers[p % n_answers])},"
                      for p in set(pairs)}
            head = f"{cell(report.case_id)},{rec.index},"
            verdict = rec.verdict
            tail = f",{cell(verdict.state)},{verdict.p_s!r},{verdict.p_b!r}\r\n"
            out.write("".join([f"{head}{agent}{middle[p]}{belief!r}{tail}" for agent, p, belief
                               in zip(agents, pairs, opinions.beliefs.tolist())]))
