"""Agent backends: scripted test doubles, seeded stochastic agents, and a
chat-completions HTTP client whose belief is the product of the answer
sentence's token probabilities.

A backend is one method, respond_round(case, agent_ids, ctx), which answers
every agent of one round of a case that the backend serves, and returns their
opinions as the round's columns and the agents that failed. A case has one
backend per kind. The round's one context holds each agent's delegates as
(agent id, tag) pairs, the map coordination returned, and the previous
round's columns, whose rows the backends read: no Opinion is made for a
collaborator. The stochastic backend reads a case's draws, of all its rounds
and decided both ways a round can read them, from one block, which `run`
draws ahead for all its cases in a few batches. The scripted and HTTP
backends answer one agent at a time with respond(case, agent_id, ctx) ->
Opinion, and the HTTP backend sends every agent's first attempt before it
reads the first reply. A backend must never fabricate a belief: the HTTP
client fails the agent when the provider does not report token probabilities
or a reply is malformed.
"""

from __future__ import annotations

import functools
import json
import math
import os
import threading
import time
from dataclasses import dataclass, replace
from typing import Mapping, Sequence
from urllib.parse import urlsplit, urlunsplit

import numpy as np

from belief_consensus.core import (
    TAG_CONFLICTING,
    TAG_LEADER,
    TAG_SUPPORTIVE,
    Opinion,
    RoundColumns,
    ScenarioCase,
    answer_spans,
    belief_from_token_probs,
    canonicalize_answer,
    checked,
    stable_hash,
)
from belief_consensus.pcg64 import (ROUNDS_PER_PASS, _bounded_draws, _doubles, _frozen, _passes,
                                    _pcg64_raw, _uint32_words, take_ahead)

ADVERSARIAL_EPS = 1e-9
_STREAM_OUTPUTS = 3  # random(), one bounded draw and uniform(); more only on a rejection


class AgentError(RuntimeError):
    """A backend could not produce an opinion for (agent, round)."""


class UnanswerableError(AgentError):
    """The model output held no extractable answer; worth a resample."""


@dataclass(frozen=True)
class RoundContext:
    """What one round shows its agents: each agent's delegates as (agent id,
    TAG_*) pairs, and the previous round, whose rows the delegates name."""

    round: int
    delegates: Mapping[str, tuple[tuple[str, str], ...]]
    previous: RoundColumns | None = None  # None in round 1, where no agent has delegates


def _row(columns: RoundColumns, agent_id: str) -> tuple[str, str, float]:
    """The agent's reasoning, answer and belief in `columns`."""
    i = columns.index[agent_id]
    return (columns.texts[columns.text_ids.item(i)], columns.answers[columns.codes.item(i)],
            columns.beliefs.item(i))


BACKEND_KINDS = ("scripted", "stochastic", "http")
PROMPT_STYLES = ("choice", "boxed")


@dataclass(frozen=True)
class BackendConfig:
    kind: str = "scripted"  # one of BACKEND_KINDS
    endpoint: str = ""
    model: str = ""
    temperature: float = 0.7
    timeout: float = 60.0
    retries: int = 2
    api_key_env: str = ""
    prompt_style: str = "choice"  # one of PROMPT_STYLES
    backoff: float = 0.5

    def __post_init__(self):
        if self.kind not in BACKEND_KINDS:
            raise ValueError(f"backend kind must be one of {BACKEND_KINDS}, got {self.kind!r}")
        if self.prompt_style not in PROMPT_STYLES:
            raise ValueError(
                f"prompt_style must be one of {PROMPT_STYLES}, got {self.prompt_style!r}")
        # a bad number here would fail every case later, not the config now
        if not (math.isfinite(self.temperature) and self.temperature >= 0):
            raise ValueError(f"temperature must be finite and nonnegative, got {self.temperature}")
        if not (math.isfinite(self.timeout) and self.timeout > 0):
            raise ValueError(f"timeout must be finite and positive, got {self.timeout}")
        if not (math.isfinite(self.backoff) and self.backoff >= 0):
            raise ValueError(f"backoff must be finite and nonnegative, got {self.backoff}")
        if self.retries < 0:
            raise ValueError("retries must be nonnegative")
        if self.kind == "http":
            parts = urlsplit(self.endpoint)
            if parts.scheme not in ("http", "https") or not parts.hostname:
                raise ValueError(
                    f"http endpoint must be an http:// or https:// URL with a host, "
                    f"got {self.endpoint!r}"
                )


Failures = tuple[tuple[str, AgentError], ...]  # (agent id, error) of each failed agent


class Backend:
    """Answers the agents of one round of a case, in one call."""

    def respond_round(self, case: ScenarioCase, agent_ids: Sequence[str],
                      ctx: RoundContext) -> tuple[RoundColumns, Failures]:
        """The rows of the agents of `agent_ids` (sorted, each in
        `ctx.delegates`) that answered, in that order, and the failures. One
        failed agent fails alone; in round 1 no earlier opinion can stand in
        for a failed one and the case ends, so the first failure there ends
        the call."""
        raise NotImplementedError

    def respond(self, case: ScenarioCase, agent_id: str, ctx: RoundContext) -> Opinion:
        """One agent's opinion; raises the AgentError of a failed agent."""
        columns, failed = self.respond_round(case, [agent_id], ctx)
        if failed:
            raise failed[0][1]
        return Opinion(agent_id, *_row(columns, agent_id))


def _one_by_one(agent_ids: Sequence[str], ctx: RoundContext,
                answer) -> tuple[RoundColumns, Failures]:
    """`respond_round` of a backend whose `answer(agent_id)` gives one
    agent's opinion at a time, or raises its AgentError."""
    answered, opinions, failed = [], [], []
    for agent_id in agent_ids:
        try:
            opinions.append(answer(agent_id))
        except AgentError as exc:
            failed.append((agent_id, exc))
            if ctx.round == 1:
                break
        else:
            answered.append(agent_id)
    return RoundColumns.of(answered, opinions), tuple(failed)


# ---------------------------------------------------------------------------
# prompts

BOXED_SYSTEM_PROMPT = "Please reason step by step, and put your final answer within \\boxed{}."
CHOICE_SYSTEM_PROMPT = "Please reason step by step, and answer the question."
CHOICE_FORMAT_SUFFIX = (
    "Put your answer in the form (answer) at the end of your response. "
    "(answer) represents your chosen option."
)


# in the order a prompt lists them
_SOLUTION_LABELS = {
    TAG_SUPPORTIVE: "One supporting agent solution",
    TAG_CONFLICTING: "One conflicting agent solution",
    TAG_LEADER: "One leader solution",
}


def _solution_block(delegates: tuple[tuple[str, str], ...], previous: RoundColumns) -> str:
    order, parts = list(_SOLUTION_LABELS), []
    for agent_id, tag in sorted(delegates, key=lambda d: order.index(d[1])):
        reasoning, answer, _ = _row(previous, agent_id)
        parts.append(f"{_SOLUTION_LABELS[tag]}: {reasoning} The answer is {answer}.")
    return " ".join(parts)


def build_messages(question: str, delegates: tuple[tuple[str, str], ...],
                   previous: RoundColumns | None, style: str = "choice") -> list[dict]:
    """Assemble the system/user message pair for a chat-completions request:
    the question alone with no delegates, else their solutions from
    `previous` and the leader ask when they are leaders (a leader set tags
    every delegate TAG_LEADER, a plan none), the collaborate ask otherwise."""
    system = BOXED_SYSTEM_PROMPT if style == "boxed" else CHOICE_SYSTEM_PROMPT
    if not delegates:
        user = question
    else:
        block = _solution_block(delegates, previous)
        if delegates[0][1] == TAG_LEADER:
            ask = (
                "Judging which solutions can lead the trend of thought and using the "
                "solutions from other agents as additional advice, can you give an "
                "updated answer? Examine your solution and that of other agents step by step."
            )
        else:
            ask = (
                "Judging which solutions are trustable and using the solutions from "
                "other agents as additional advice, can you give an updated answer? "
                "Examine your solution and that of other agents step by step."
            )
        user = (
            f"Here is the question: {question} "
            f"These are the solutions to the problem from other agents: {block} {ask}"
        )
    if style != "boxed":
        user = f"{user} {CHOICE_FORMAT_SUFFIX}"
    return [
        {"role": "system", "content": system},
        {"role": "user", "content": user},
    ]


# ---------------------------------------------------------------------------
# scripted backend

class ScriptedAgent(Backend):
    """Deterministic playback of a scenario's per-agent script.

    Missing rounds fall back to the script's rule: repeat_previous replays
    the agent's previous opinion; adopt:<leader|supportive|conflicting> and
    adopt:agent:<id> copy a collaborator's answer, optionally with a
    scripted belief.
    """

    def __init__(self):
        self._memory: dict[tuple[str, str], Opinion] = {}
        self._lock = threading.Lock()

    def respond(self, case: ScenarioCase, agent_id: str, ctx: RoundContext) -> Opinion:
        if not case.scripts or agent_id not in case.scripts:
            raise AgentError(f"no script for agent {agent_id!r} in case {case.case_id!r}")
        script = case.scripts[agent_id]
        reply = script.reply_for(ctx.round)
        if reply is not None:
            opinion = Opinion(agent_id, reply.reasoning, canonicalize_answer(reply.answer),
                              reply.belief)
        else:
            opinion = self._fallback(case, script, agent_id, ctx)
        with self._lock:
            self._memory[(case.case_id, agent_id)] = opinion
        return opinion

    def _fallback(self, case, script, agent_id, ctx) -> Opinion:
        rule = script.fallback
        where = f"agent {agent_id!r} round {ctx.round} in case {case.case_id!r}"
        if rule is None:
            raise AgentError(f"no scripted response and no fallback for {where}")
        if rule == "repeat_previous":
            with self._lock:
                prev = self._memory.get((case.case_id, agent_id))
            if prev is None:
                raise AgentError(f"repeat_previous with no prior opinion for {where}")
            return prev
        # AgentScript admits no other rule than these adopt rules
        target = rule.removeprefix("adopt:")
        wanted = target.removeprefix("agent:")  # an agent id, or else a tag
        by = 0 if wanted != target else 1  # the pair's agent id or its tag
        source = next((d[0] for d in ctx.delegates[agent_id] if d[by] == wanted), None)
        if source is None:
            raise AgentError(f"adopt rule {rule!r} found no matching collaborator for {where}")
        reasoning, answer, belief = _row(ctx.previous, source)
        return Opinion(agent_id, reasoning, answer,
                       belief if script.fallback_belief is None else script.fallback_belief)

    def respond_round(self, case: ScenarioCase, agent_ids: Sequence[str],
                      ctx: RoundContext) -> tuple[RoundColumns, Failures]:
        return _one_by_one(agent_ids, ctx, lambda agent_id: self.respond(case, agent_id, ctx))


# ---------------------------------------------------------------------------
# stochastic backend

class StochasticAgent(Backend):
    """Seeded numeric test double; no text model involved.

    Draws an answer from the candidate pool each round, adopting the
    highest-belief collaborator's answer with fixed probability when
    collaborators are present. Fully determined by (seed, case, agent, round):
    each agent's draws are those of `np.random.default_rng(SeedSequence([seed,
    crc(case), crc(agent), round]))`. A case's agents read them from a block
    that holds every round from its first up to `rounds` (the case's round
    limit, at most ROUNDS_PER_PASS rounds), decided both ways a round can read
    them, with collaborators and without. `run` draws each case's first block
    ahead (`draw_ahead`); a call that finds no block for its round draws one
    for its case alone, from that round on, and later rounds of the case pick
    each agent's from its slice.
    """

    def __init__(self, seed: int, candidates: Sequence[str] = ("A", "B", "C", "D"),
                 adopt_prob: float = 0.6, rounds: int = 1):
        self.seed = seed
        self.candidates = tuple(candidates)
        self.adopt_prob = adopt_prob
        self.rounds = rounds
        # (case id and agent ids, rounds covered, text ids, beliefs), replaced
        # whole, so a backend shared by threads reads one block per call
        self._block = None

    def _table_key(self, key: tuple[str, tuple[str, ...]]) -> tuple:
        """The `pcg64.drawn_ahead` key of the first block of a (case id,
        agent ids) pair: every value its draws are a function of."""
        return "stochastic", self.seed, self.candidates, self.adopt_prob, self.rounds, key

    def draw_ahead(self, cases: Sequence[tuple[str, Sequence[str]]]) -> dict:
        """The `pcg64.drawn_ahead` entries of the first block of each (case
        id, sorted agent ids) pair, drawn together."""
        keys = [(case_id, tuple(agent_ids)) for case_id, agent_ids in cases]
        return {self._table_key(key): block for key, block in zip(keys, self._blocks(keys, 1))}

    def _round_streams(self, case_id: str, agent_ids: Sequence[str],
                       round_index: int) -> tuple[np.ndarray, np.ndarray]:
        """The agents' text ids and beliefs (2, m) in round `round_index`, row 0
        as an agent without collaborators draws them and row 1 as one with
        collaborators does, where text id n (the pool size) marks adoption and
        -1 a draw from an empty pool. Sliced from the case's block: its own,
        else the one drawn ahead, else a new one from that round on."""
        key, m = (case_id, tuple(agent_ids)), len(agent_ids)
        block = self._block
        if block is None or block[0] != key or round_index not in block[1]:
            block = take_ahead(self._table_key(key))
            if block is None or round_index not in block[1]:
                block = self._blocks([key], round_index)[0]
            self._block = block
        _, rounds, text_ids, beliefs = block
        at = slice((round_index - rounds.start) * m, (round_index - rounds.start + 1) * m)
        return text_ids[:, at], beliefs[:, at]

    def _blocks(self, keys: Sequence[tuple[str, tuple[str, ...]]], first: int) -> list[tuple]:
        """The blocks, as `_round_streams` keeps them, of the (case id, agent
        ids) pairs `keys` from round `first` up to the round limit, at most
        ROUNDS_PER_PASS rounds.

        Block column `(r - first) * m + j` is agent j's generator in round r.
        The pass computes the generators' raw outputs, COLUMNS_PER_PASS at a
        time, and decides both layouts from them, then keeps only the
        decisions: 32 bytes per agent-round.
        """
        last = min(max(first, self.rounds), first + ROUNDS_PER_PASS - 1)
        rounds = range(first, last + 1)
        round_words = np.array([_uint32_words(r) for r in rounds], np.uint32).T
        entropy = _uint32_words(self.seed)
        rows = {ids: (np.tile(_crc32_row(ids), len(rounds)),
                      np.repeat(round_words, len(ids), axis=1)) for _, ids in keys}
        widths = [len(rounds) * len(ids) for _, ids in keys]
        columns = sum(widths)
        words = np.empty((len(entropy) + 2 + len(round_words), columns), np.uint32)
        words[:len(entropy)] = np.array(entropy, np.uint32)[:, None]
        words[len(entropy)] = np.repeat([stable_hash(case_id) for case_id, _ in keys], widths)
        words[len(entropy) + 1] = np.concatenate([rows[ids][0] for _, ids in keys])
        words[len(entropy) + 2:] = np.concatenate([rows[ids][1] for _, ids in keys], axis=1)
        text_ids, beliefs = np.empty((2, columns), np.intp), np.empty((2, columns))
        for cols in _passes(columns):
            part = words[:, cols]
            text_ids[:, cols], beliefs[:, cols] = self._decide(
                part, _pcg64_raw(part, _STREAM_OUTPUTS))
        text_ids.flags.writeable = beliefs.flags.writeable = False
        ends = np.cumsum(widths)[:-1]
        return [(key, rounds, *block) for key, *block in zip(
            keys, np.split(text_ids, ends, axis=1), np.split(beliefs, ends, axis=1))]

    def _decide(self, words: np.ndarray, raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Text ids and beliefs (2, columns) of the generators of a raw block
        under both layouts, as `_round_streams` returns them.

        Without collaborators a generator draws `integers(n)` and
        `uniform(0.3, 0.95)`; with them `random()` first, and adopts when it
        is below `adopt_prob`, skipping `integers(n)`. `random()` scales an
        output's top 53 bits to [0, 1). `integers(n)` is
        `pcg64._bounded_draws`: an output's low half, then its high half if
        the low one is rejected, then the next output; n = 1 reads nothing.
        `uniform` reads the output after the draw's. Either layout's draw may
        extend the block.
        """
        n, columns = len(self.candidates), raw.shape[1]
        cols = np.arange(columns)
        adopt = _doubles(raw[0]) < self.adopt_prob
        text_ids = np.empty((2, columns), np.intp)
        beliefs = np.empty((2, columns))
        for layout, draw in enumerate((cols, np.flatnonzero(~adopt))):
            half = np.full(columns, 2 * layout, np.intp)  # the 32-bit half a draw reads next
            text_ids[layout], raw = _bounded_draws(raw, words, half, n, draw)
            belief_at = (half + 1) >> 1  # uniform() reads the first output with no half read
            beliefs[layout] = _doubles(raw[belief_at, cols])
        if n < 1:
            text_ids[:] = -1
        text_ids[1, adopt] = n
        beliefs = 0.3 + (0.95 - 0.3) * beliefs
        return text_ids, np.rint(beliefs * 1e6) / 1e6  # np.round(beliefs, 6)

    def respond_round(self, case: ScenarioCase, agent_ids: Sequence[str],
                      ctx: RoundContext) -> tuple[RoundColumns, Failures]:
        """The opinions of several agents of one round of a case, as rows in
        `agent_ids` order; no agent fails.

        Each agent reads its draw and belief from the case's block, in the
        layout its delegates pick: with collaborators, the adopt test was
        decided there too, and an adopter takes its highest-belief
        collaborator's answer.
        """
        round_index = ctx.round
        n, m = len(self.candidates), len(agent_ids)
        delegates = [ctx.delegates[agent_id] for agent_id in agent_ids]
        layout = (np.array([bool(d) for d in delegates], np.intp), np.arange(m))
        text_ids, beliefs = self._round_streams(case.case_id, agent_ids, round_index)
        text_ids, belief = text_ids[layout], beliefs[layout]
        if n < 1 and (text_ids < 0).any():
            raise ValueError("no candidates to draw from")

        adopters = np.flatnonzero(text_ids == n).tolist()
        # by delegate tuple, which coordination hands agents with equal
        # delegates as one object; by identity, as comparing them costs more
        strongest: dict[int, str] = {}
        for i in adopters:
            if id(delegates[i]) not in strongest:  # the first of the highest beliefs
                rows = [_row(ctx.previous, agent_id) for agent_id, _ in delegates[i]]
                strongest[id(delegates[i])] = max(rows, key=lambda row: row[2])[1]
        answers = sorted({*self.candidates, *strongest.values()})
        code = {a: c for c, a in enumerate(answers)}
        codes = np.array([code[c] for c in self.candidates] + [0], np.intp)[text_ids]
        codes[adopters] = [code[strongest[id(delegates[i])]] for i in adopters]
        texts = (*(f"Independent draw on round {round_index} favoring option {c}."
                   for c in self.candidates),
                 f"Adopting the strongest collaborator view on round {round_index}.")
        return RoundColumns(tuple(agent_ids), tuple(answers), codes, belief, texts, text_ids), ()


@functools.lru_cache(maxsize=32)
def _crc32_row(agent_ids: tuple[str, ...]) -> np.ndarray:
    """The agents' `stable_hash` entropy words; a case's agents repeat every round."""
    return _frozen([stable_hash(a) for a in agent_ids], np.uint32, (len(agent_ids),))


# ---------------------------------------------------------------------------
# HTTP chat-completions backend

def _token_probs_for_span(tokens: list[dict], content: str, start: int, end: int) -> list[float]:
    """Probabilities of the tokens overlapping content[start:end].

    Token offsets are found by concatenating the token strings, so they must
    spell out `content` exactly; otherwise the span would pick wrong tokens.
    """
    if "".join(entry.get("token", "") for entry in tokens) != content:
        raise AgentError("logprob tokens do not reproduce the message content")
    probs = []
    offset = 0
    for entry in tokens:
        text = entry.get("token", "")
        tok_start, tok_end = offset, offset + len(text)
        offset = tok_end
        if tok_end <= start or tok_start >= end:
            continue
        logprob = entry.get("logprob")
        if logprob is None:
            raise AgentError("logprobs unavailable")
        probs.append(math.exp(float(logprob)))
    return probs


class _HttpPool:
    """Idle keep-alive connections to one endpoint, the last one returned
    taken first, shared by every agent, case and thread posting to it. The
    proxy setting is read once, here; proxy credentials are not sent."""

    def __init__(self, endpoint: str):
        # imported here, not at module level: only HTTP backends use them, and
        # they cost every other run start-up time
        import http.client
        import ssl
        import urllib.request

        parts = urlsplit(endpoint)
        https = parts.scheme == "https"
        self._target = urlunsplit(("", "", parts.path, parts.query, ""))
        address, self._tunnel = (parts.hostname, parts.port), None
        proxy = urllib.request.getproxies().get(parts.scheme)
        if proxy and not urllib.request.proxy_bypass(parts.hostname):
            proxy = urlsplit(proxy if "://" in proxy else f"http://{proxy}")
            address = (proxy.hostname, proxy.port or 80)
            if https:  # through a CONNECT tunnel
                self._tunnel = (parts.hostname, parts.port or 443)
            else:  # with the endpoint's full URL as the request target
                self._target = endpoint
        # HTTPS is verified against the system CA store
        self._connect = (functools.partial(http.client.HTTPSConnection, *address,
                                           context=ssl.create_default_context()) if https
                         else functools.partial(http.client.HTTPConnection, *address))
        self._idle, self._lock = [], threading.Lock()

    def post(self, body: bytes, headers: dict, timeout: float) -> tuple[int, bytes]:
        """POST `body`; the status and the whole response body. Raises OSError
        or `http.client.HTTPException` when the transport fails."""
        return self.receive(self.send(body, headers, timeout))

    def send(self, body: bytes, headers: dict, timeout: float):
        """Write a POST of `body` on an idle connection or a new one, and
        return the connection, whose reply `receive` reads. Raises as `post`
        does; the caller closes a connection it will not read."""
        import select

        conn = None
        with self._lock:
            while self._idle and conn is None:
                conn = self._idle.pop()
                poller = select.poll()
                poller.register(conn.sock, select.POLLIN)
                if poller.poll(0):  # the server closed it while idle; it would spend a retry
                    conn.close()
                    conn = None
        if conn is None:
            conn = self._connect(timeout=timeout)
            if self._tunnel:
                conn.set_tunnel(*self._tunnel)
        else:
            conn.sock.settimeout(timeout)
        try:
            conn.request("POST", self._target, body, headers)
        except BaseException:
            conn.close()
            raise
        return conn

    def receive(self, conn) -> tuple[int, bytes]:
        """The status and whole body of the reply to the request `send` wrote
        on `conn`; the connection goes back to the idle list if the server
        keeps it open, and is closed if reading fails."""
        try:
            response = conn.getresponse()
            data = response.read()
        except BaseException:
            conn.close()
            raise
        if not response.will_close:
            with self._lock:
                self._idle.append(conn)
        return response.status, data

    def clear(self):
        """Close the idle connections."""
        with self._lock:
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()


_pools = functools.lru_cache(maxsize=16)(_HttpPool)
_pools_lock = threading.Lock()


def _http_pool(endpoint: str) -> _HttpPool:
    """The pool of every agent posting to `endpoint`, one per endpoint and
    process, so keep-alive connections outlive agents and cases. Built under
    a lock, as `--jobs` threads build their cases' agents at once."""
    with _pools_lock:
        return _pools(endpoint)


class ChatCompletionsAgent(Backend):
    """HTTP client for chat-completions endpoints with per-token logprobs,
    serving agents that each have their own `BackendConfig`.

    `respond_round` sends the first attempt of each of its agents' requests,
    each on its own connection from its endpoint's pool, then reads the
    replies through `respond` in agent order: every request of a round is in
    flight at once, with no thread. Retries transient failures (transport
    errors, timeouts, 429, 5xx, an unparseable body, an unanswerable reply)
    with exponential backoff, one request at a time. The number of retries
    consumed by the latest `respond` is kept in `last_retries`.
    """

    def __init__(self, configs: Mapping[str, BackendConfig]):
        if any(cfg.kind != "http" for cfg in configs.values()):
            raise ValueError("ChatCompletionsAgent requires http backend configs")
        self.configs = dict(configs)  # by agent id
        self.pools = {cfg.endpoint: _http_pool(cfg.endpoint) for cfg in self.configs.values()}
        self.last_retries = 0

    @staticmethod
    def _headers(cfg: BackendConfig) -> dict:
        headers = {"Content-Type": "application/json"}
        if cfg.api_key_env:
            key = os.environ.get(cfg.api_key_env)
            if not key:
                raise AgentError(f"API key environment variable {cfg.api_key_env!r} "
                                 "is not set")
            headers["Authorization"] = f"Bearer {key}"
        return headers

    def _body(self, case: ScenarioCase, agent_id: str, ctx: RoundContext) -> bytes:
        cfg = self.configs[agent_id]
        payload = {
            "model": cfg.model,
            "messages": build_messages(case.question, ctx.delegates[agent_id], ctx.previous,
                                       cfg.prompt_style),
            "temperature": cfg.temperature,
            "logprobs": True,
        }
        return json.dumps(payload, allow_nan=False).encode("utf-8")

    def respond_round(self, case: ScenarioCase, agent_ids: Sequence[str],
                      ctx: RoundContext) -> tuple[RoundColumns, Failures]:
        """Send each agent's first attempt, then read each reply through
        `respond`; a connection sent on and not read is closed on return or
        raise."""
        import http.client  # loaded by _http_pool

        sent = {}  # agent id: (body, its connection or the error sending it raised)
        try:
            for agent_id in agent_ids:
                cfg, body = self.configs[agent_id], self._body(case, agent_id, ctx)
                try:
                    sent[agent_id] = body, self.pools[cfg.endpoint].send(
                        body, self._headers(cfg), cfg.timeout)
                except (OSError, http.client.HTTPException, AgentError) as exc:
                    # attempt 0 failed: respond retries a transport error, and
                    # fails the agent at once when its API key is not set
                    sent[agent_id] = body, exc
            return _one_by_one(agent_ids, ctx, lambda agent_id: self.respond(
                case, agent_id, ctx, sent.pop(agent_id, None)))
        finally:
            for _, conn in sent.values():
                if not isinstance(conn, Exception):
                    conn.close()

    def respond(self, case: ScenarioCase, agent_id: str, ctx: RoundContext,
                sent: tuple | None = None) -> Opinion:
        """One agent's opinion. `sent` is the (body, connection) of the first
        attempt `respond_round` sent, whose reply this reads, or (body, the
        error sending it raised), which spends attempt 0 or, an AgentError,
        fails the agent; without it the first attempt is sent here."""
        import http.client  # loaded by _http_pool

        cfg = self.configs[agent_id]
        pool = self.pools[cfg.endpoint]
        request_body, conn = sent or (self._body(case, agent_id, ctx), None)
        attempts = cfg.retries + 1
        self.last_retries = 0
        last_error: Exception | None = None
        for attempt in range(attempts):
            if attempt:
                time.sleep(cfg.backoff * (2 ** (attempt - 1)))
                self.last_retries = attempt
            try:
                if isinstance(conn, Exception):
                    raise conn  # sending attempt 0 failed in respond_round
                status, data = (pool.post(request_body, self._headers(cfg), cfg.timeout)
                                if conn is None else pool.receive(conn))
            except (OSError, http.client.HTTPException) as exc:
                last_error = exc
                continue
            finally:
                conn = None
            if status >= 500:
                last_error = AgentError(f"server error {status}")
                continue
            if status == 429:  # rate limited: as transient as a 5xx
                last_error = AgentError(f"rate limited: HTTP {status}")
                continue
            if status != 200:
                raise AgentError(f"endpoint rejected the request: HTTP {status}")
            try:
                body = json.loads(data)
            except ValueError as exc:
                last_error = exc
                continue
            try:
                return self._parse(body, agent_id)
            except UnanswerableError as exc:
                last_error = exc  # a fresh sample may parse; spend a retry
                continue
        if isinstance(last_error, UnanswerableError):
            raise AgentError(f"unanswerable output after {attempts} attempts") from last_error
        raise AgentError(f"transport failed after {attempts} attempts: {last_error}")

    def _parse(self, body: dict, agent_id: str) -> Opinion:
        try:
            choice = body["choices"][0]
            content = checked("str", choice["message"]["content"], "message.content")
            logprobs = checked("object", choice.get("logprobs") or {}, "logprobs")
            tokens = checked("array", logprobs.get("content") or [], "logprobs.content")
            if not tokens:
                raise AgentError("logprobs unavailable")
            spans = answer_spans(content)
            if spans is None:
                raise UnanswerableError("unanswerable output: no answer sentence found")
            (anchor_start, anchor_end), sentence = spans
            # a token entry of the wrong shape raises AttributeError, TypeError or ValueError
            probs = _token_probs_for_span(tokens, content, *sentence)
        except (KeyError, IndexError, TypeError, AttributeError, ValueError, OverflowError) as exc:
            raise AgentError(f"malformed completion response: {exc}") from exc
        if not probs:
            raise UnanswerableError("unanswerable output: no tokens in the answer sentence")
        try:
            answer = canonicalize_answer(content[anchor_start:anchor_end])
        except ValueError as exc:
            raise UnanswerableError(str(exc)) from exc
        try:
            belief = belief_from_token_probs(probs)
        except ValueError as exc:
            raise AgentError(f"invalid token probabilities: {exc}") from exc
        return Opinion(agent_id=agent_id, reasoning=content, answer=answer, belief=belief)


# ---------------------------------------------------------------------------
# adversarial noise

def perturb_one_belief(opinions: RoundColumns, rng) -> tuple[RoundColumns, str]:
    """Flip one randomly chosen agent's belief to clamp(1 - b, eps, 1).

    Models an adversary misreporting confidence; all other fields are
    preserved. Returns the perturbed round and the victim's agent id.
    """
    idx = int(rng.integers(len(opinions)))
    beliefs = opinions.beliefs.copy()
    beliefs[idx] = min(max(1.0 - beliefs[idx].item(), ADVERSARIAL_EPS), 1.0)
    return replace(opinions, beliefs=beliefs), opinions.agent_ids[idx]


def make_backend(kind: str, configs: Mapping[str, BackendConfig], seed: int = 0,
                 rounds: int = 1) -> Backend:
    """The one backend of a case's agents of `kind`, whose configs `configs`
    holds by agent id; `seed` and `rounds` (the case's round limit) reach the
    stochastic one."""
    if kind == "scripted":
        return ScriptedAgent()
    if kind == "stochastic":
        return StochasticAgent(seed=seed, rounds=rounds)
    return ChatCompletionsAgent(configs)  # BackendConfig admits no other kind
