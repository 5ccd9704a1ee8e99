"""Protocol loop: per round, cluster opinions, judge consensus, then either
stop (full consensus), assign collaborators (partial), or select leaders
(none), and dispatch the next round of agent updates. The delegate map that
assignment or leader selection returns, with this round's opinions, is the
next round's one context; every backend reads it whole. A case has one
backend per kind, and each answers all of its agents of a round in one
`respond_round` call, on the calling thread.

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
from belief_consensus.grouping import KMEANS_N_INIT, OpinionGroup, _restart_draws, build_groups
from belief_consensus.judgment import FULL, PARTIAL, ConsensusVerdict, judge_consensus
from belief_consensus.pcg64 import ROUNDS_PER_PASS, _passes, _state_words, take_ahead

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


def _backend_calls(backends: Mapping[str, Backend]) -> tuple[tuple[Backend, tuple[str, ...]], ...]:
    """Each distinct backend of `backends` with the sorted ids of its agents,
    in the order of its first agent: the calls of every round of a case."""
    calls: dict[int, tuple[Backend, list[str]]] = {}
    for agent_id in sorted(backends):
        backend = backends[agent_id]
        calls.setdefault(id(backend), (backend, []))[1].append(agent_id)
    return tuple((backend, tuple(ids)) for backend, ids in calls.values())


def _dispatch(
    calls: Sequence[tuple[Backend, tuple[str, ...]]],
    case: ScenarioCase,
    ctx: RoundContext,
) -> tuple[RoundColumns, tuple[tuple[str, str], ...]]:
    """One round of opinions of the agents of `calls` (see `_backend_calls`),
    in sorted-agent-id order, and the carried-forward agents as sorted
    (agent id, error) pairs.

    Each backend answers its agents in one `respond_round` call, in the
    order of their first agent; an AgentError the call raises fails them
    all. In round 1 (`ctx.previous` is None) the first failure is raised and
    no later backend called; afterwards a failed agent keeps its row of the
    previous round.
    """
    parts, failed = [], []
    for backend, ids in calls:
        try:
            part, errors = backend.respond_round(case, ids, ctx)
        except AgentError as exc:
            part, errors = RoundColumns.of([], []), [(a, exc) for a in ids]
        if errors and ctx.previous is None:
            raise errors[0][1]
        lost = dict(errors)
        answered = tuple(a for a in ids if a not in lost) if lost else ids
        if part.agent_ids != answered:  # the layers rely on sorted rows
            raise ValueError(f"respond_round answered agents {list(part.agent_ids)}, "
                             f"not {list(answered)}")
        if len(calls) == 1 and not lost:
            return part, ()
        parts.append(part)
        failed.extend((a, str(exc)) for a, exc in errors)
    if failed:
        parts.append(ctx.previous.take(ctx.previous.rows([a for a, _ in failed])))
    return RoundColumns.join(parts), tuple(sorted(failed))


def _cluster_key(case_id: str, cfg: RunConfig, rounds: range) -> tuple:
    """The `pcg64.drawn_ahead` key of a case's k-means restart draws of `rounds`."""
    return "kmeans", cfg.seed & 0x7FFFFFFF, cfg.n_clusters, case_id, rounds


def _cluster_draws(cases: Sequence[ScenarioCase], cfg: RunConfig,
                   rounds: range) -> list[np.ndarray]:
    """Each case's k-means restart draws of `rounds`, (k, len(rounds),
    KMEANS_N_INIT).

    Round r of a case clusters from the seed `SeedSequence([seed & 0x7FFFFFFF,
    crc(case), r]).generate_state(1)[0]`; the seeds of all the cases' rounds,
    then their restart draws, are derived in passes of COLUMNS_PER_PASS
    generators.
    """
    entropy = np.empty((3, len(cases), len(rounds)), np.uint32)
    entropy[0] = cfg.seed & 0x7FFFFFFF
    entropy[1] = np.array([stable_hash(case.case_id) for case in cases], np.uint32)[:, None]
    entropy[2] = rounds
    entropy = entropy.reshape(3, -1)
    seeds = [seed for cols in _passes(entropy.shape[1])
             for seed in _state_words(entropy[:, cols])[0].tolist()]
    draws = np.empty((cfg.n_clusters, len(seeds), KMEANS_N_INIT))
    for cols in _passes(len(seeds), KMEANS_N_INIT):
        draws[:, cols] = _restart_draws(seeds[cols], cfg.n_clusters)
    return list(draws.reshape(cfg.n_clusters, len(cases), len(rounds), -1).swapaxes(0, 1))


def cluster_draws_ahead(cases: Sequence[ScenarioCase], cfg: RunConfig) -> dict:
    """The `pcg64.drawn_ahead` entries of every case's k-means restart draws
    of its first ROUNDS_PER_PASS rounds, drawn together."""
    rounds = range(1, min(1 + ROUNDS_PER_PASS, cfg.max_rounds + 1))
    return {_cluster_key(case.case_id, cfg, rounds): draws
            for case, draws in zip(cases, _cluster_draws(cases, cfg, rounds))}


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
    calls = _backend_calls(backends)
    noise_rng = np.random.default_rng(
        np.random.SeedSequence([cfg.seed & 0x7FFFFFFF, stable_hash(case.case_id), 0xAD])
    ) if cfg.adversarial_noise else None

    delegates, opinions = dict.fromkeys(sorted(backends), ()), None
    records: list[RoundRecord] = []
    drawn = range(0)  # the rounds `cluster_draws` holds
    for round_index in range(1, cfg.max_rounds + 1):
        if round_index not in drawn:
            drawn = range(round_index, min(round_index + ROUNDS_PER_PASS, cfg.max_rounds + 1))
            cluster_draws = take_ahead(_cluster_key(case.case_id, cfg, drawn))
            if cluster_draws is None:
                cluster_draws = _cluster_draws([case], cfg, drawn)[0]
        opinions, carried = _dispatch(calls, case, RoundContext(round_index, delegates, opinions))
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
# Both writers assemble their text from pieces encoded once: an agent's id,
# an answer or a reasoning text once per writer call, a round's belief texts
# once for both (`RoundColumns.belief_texts`), a delegate tuple once per
# assignment map. A round's per-agent pieces are laid side by side and joined
# in one call. The bytes are those of `json.dumps(..., sort_keys=True)` over
# the report as nested dicts and of one `csv.writer` row per agent;
# tests/round_oracles.py keeps those forms as the reference. Every number
# written with `repr` is a Python int or float.

def _float_or_inf(x: float):
    return "inf" if math.isinf(x) else x


def _memo(encode):
    """`encode` remembered per string for one writer call: answers, texts
    and agent ids recur across rounds and cases."""
    done: dict[str, str] = {}

    def encoded(text: str) -> str:
        if text not in done:
            done[text] = encode(text)
        return done[text]
    return encoded


def _side_by_side(n: int, *columns) -> list[str]:
    """The pieces of `columns`, each `n` long, row by row: row 0's pieces
    in column order, then row 1's, and so on."""
    pieces = [""] * (n * len(columns))
    for i, column in enumerate(columns):
        pieces[i::len(columns)] = column
    return pieces


def _csv_cell(text: str) -> str:
    """`text` as a csv.writer row holds it: quoted where it holds a comma,
    quote or line break. Ints and float reprs never need quoting."""
    buf = io.StringIO()
    csv.writer(buf).writerow([text, ""])  # two cells, so never a lone ""
    return buf.getvalue()[:-len(",\r\n")]


def _id_pieces(agent_ids: Sequence[str], encode) -> tuple[dict[str, str], list[str]]:
    """Each agent id's JSON encoding, and row i's opinion object up to its
    answer, led by the ", " that parts it from row i - 1's."""
    ids = {a: encode(a) for a in agent_ids}
    heads = [f', {{"agent_id": {ids[a]}, "answer": ' for a in agent_ids]
    heads[:1] = [h[2:] for h in heads[:1]]
    return ids, heads


def _id_list(ids: Mapping[str, str], agent_ids: Sequence[str]) -> str:
    return "[" + ", ".join(map(ids.__getitem__, agent_ids)) + "]"


def _json_bool(value: bool) -> str:
    return "true" if value else "false"


def _assignments_json(assignments: Mapping[str, tuple], ids: Mapping[str, str], encode) -> str:
    """The delegate map, keys sorted; each distinct delegate tuple is encoded
    once, as coordination gives all followers of a group one shared tuple."""
    encoded = {id(t): "[" + ", ".join(f"[{encode(a)}, {encode(tag)}]" for a, tag in t) + "]"
               for t in {id(t): t for t in assignments.values()}.values()}
    return "{" + ", ".join([f"{ids[a]}: {encoded[id(assignments[a])]}"
                            for a in sorted(assignments)]) + "}"


def _round_pieces(rec: RoundRecord, ids: Mapping[str, str], heads: Sequence[str],
                  encode) -> list[str]:
    """Round `rec`'s JSON object in pieces, keys in sorted order; `ids` and
    `heads` are the `_id_pieces` of its agents."""
    verdict = rec.verdict
    pieces = ["{"]
    if rec.assignment is not None:
        plan = rec.assignment
        pieces += ['"assignment": {"assignments": ',
                   _assignments_json(plan.assignments, ids, encode),
                   f', "least_reliable_agent": {encode(plan.least_reliable_agent)}, '
                   f'"uncertain_group": {plan.uncertain_group!r}}}, ']
    pieces.append(f'"branch": {encode(verdict.state)}, ')
    if rec.carried_forward:
        pieces += ['"carried_forward": ', json.dumps([
            {"agent_id": agent_id, "error": error} for agent_id, error in rec.carried_forward
        ], sort_keys=True), ", "]
    if rec.conflict_reports is not None:
        pieces += ['"conflict_reports": ', json.dumps([
            {
                "pair": r.group_pair,
                "macro": r.macro,
                "micro": _float_or_inf(r.micro),
                "combined": _float_or_inf(r.combined),
                "relation": r.relation,
                "components": r.components,
            }
            for r in rec.conflict_reports
        ], sort_keys=True), ", "]
    pieces.append('"groups": [' + ", ".join([
        f'{{"entropy": {g.entropy!r}, "group_id": {g.group_id!r}, '
        f'"members": {_id_list(ids, g.members)}, "modal_answer": {encode(g.modal_answer)}}}'
        for g in rec.groups
    ]) + "], ")
    if rec.leaders is not None:
        pieces.append('"leaders": [' + ", ".join([
            f'{{"all_members": {_json_bool(gl.all_members)}, "group_id": {gl.group_id!r}, '
            f'"leader_ids": {_id_list(ids, gl.leader_ids)}}}'
            for gl in rec.leaders.by_group
        ]) + "], ")
    victim = "null" if rec.noise_victim is None else encode(rec.noise_victim)
    pieces.append(f'"noise_victim": {victim}, "opinions": [')
    opinions = rec.opinions
    answers = [f'{encode(a)}, "belief": ' for a in opinions.answers]
    tails = [f', "reasoning": {encode(t)}}}' for t in opinions.texts]
    pieces += _side_by_side(len(opinions), heads,
                            map(answers.__getitem__, opinions.codes.tolist()),
                            opinions.belief_texts,
                            map(tails.__getitem__, opinions.text_ids.tolist()))
    pieces.append(
        f'], "round": {rec.index!r}, "verdict": {{'
        f'"conflict_members": {_id_list(ids, verdict.conflict_members)}, '
        f'"dominant_answer": {encode(verdict.dominant_answer)}, '
        f'"dominant_members": {_id_list(ids, verdict.dominant_members)}, '
        f'"p_b": {verdict.p_b!r}, "p_s": {verdict.p_s!r}, "state": {encode(verdict.state)}}}}}'
    )
    return pieces


def write_results_jsonl(reports: Sequence[RunReport | CaseFailure], out: IO[str],
                        header: dict | None = None):
    """One JSON object per case, `{"case_id", "error"}` for a failed one; an
    optional config-echo header line first."""
    if header is not None:
        out.write(json.dumps({"config": header}, sort_keys=True) + "\n")
    agent_ids, ids, heads, encode = None, None, None, _memo(json.dumps)
    for report in reports:
        if isinstance(report, CaseFailure):
            out.write(json.dumps({"case_id": report.case_id, "error": report.error},
                                 sort_keys=True) + "\n")
            continue
        pieces = [
            f'{{"case_id": {encode(report.case_id)}, '
            f'"consensus_count": {report.consensus_count!r}, '
            f'"correct": {_json_bool(report.correct)}, '
            f'"final_answer": {encode(report.final_answer)}, '
            f'"n_rounds": {report.n_rounds!r}, "rounds": ['
        ]
        for i, rec in enumerate(report.rounds):
            if rec.opinions.agent_ids != agent_ids:
                agent_ids = rec.opinions.agent_ids
                ids, heads = _id_pieces(agent_ids, encode)
            if i:
                pieces.append(", ")
            pieces += _round_pieces(rec, ids, heads, encode)
        pieces.append(f'], "terminated_by": {encode(report.terminated_by)}}}\n')
        out.write("".join(pieces))


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
            n, n_answers = len(opinions), len(opinions.answers)
            group = np.empty(n, np.intp)
            for g in rec.groups:
                group[opinions.rows(g.members)] = g.group_id
            pairs = (group * n_answers + opinions.codes).tolist()
            middle = {p: f",{p // n_answers},{cell(opinions.answers[p % n_answers])},"
                      for p in set(pairs)}
            verdict = rec.verdict
            out.write("".join(_side_by_side(
                n, [f"{cell(report.case_id)},{rec.index},"] * n, agents,
                map(middle.__getitem__, pairs), opinions.belief_texts,
                [f",{cell(verdict.state)},{verdict.p_s!r},{verdict.p_b!r}\r\n"] * n,
            )))
