"""Agent backends: scripted test doubles, seeded stochastic agents, and a
chat-completions HTTP client whose belief is the product of the answer
sentence's token probabilities.

Every backend answers the agents of one round of a case in one call,
respond_round(case, agent_ids, contexts), which returns their opinions as the
round's columns and the agents that failed. The stochastic backend draws the
generators of all rounds of a case as one batch; the scripted and HTTP
backends answer each agent with respond(case, agent_id, ctx) -> Opinion. A
backend must never fabricate a belief: the HTTP client fails loudly when the
provider does not report token probabilities.
"""

from __future__ import annotations

import functools
import json
import math
import os
import re
import threading
import time
from dataclasses import dataclass, replace
from typing import Sequence
from urllib.parse import urlsplit, urlunsplit

import numpy as np

from belief_consensus.core import (
    Opinion,
    RoundColumns,
    ScenarioCase,
    belief_from_token_probs,
    canonicalize_answer,
    last_boxed,
    stable_hash,
)
from belief_consensus.pcg64 import (ROUNDS_PER_PASS, _LOW32, _TWO_POW_M53, _U11, _U32, _frozen,
                                    _pcg64_raw, _uint32_words)

ADVERSARIAL_EPS = 1e-9
_STREAM_OUTPUTS = 3  # random(), one bounded draw and uniform(); more only on a rejection

TEMPLATE_INITIAL = "initial"
TEMPLATE_COLLABORATE = "collaborate"
TEMPLATE_LEADER = "leader"

TAG_SUPPORTIVE = "supportive"
TAG_CONFLICTING = "conflicting"
TAG_LEADER = "leader"


class AgentError(RuntimeError):
    """A backend could not produce an opinion for (agent, round)."""


class UnanswerableError(AgentError):
    """The model output held no extractable answer; worth a resample."""


@dataclass(frozen=True)
class TaggedOpinion:
    opinion: Opinion
    tag: str


@dataclass(frozen=True)
class AgentContext:
    question: str
    round: int
    collaborators: tuple[TaggedOpinion, ...] = ()
    template: str = TEMPLATE_INITIAL


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
    """Answers the agents of one round of a case. A backend class defines
    `respond_round` or `respond`, and each defaults to the other."""

    def respond(self, case: ScenarioCase, agent_id: str, ctx: AgentContext) -> Opinion:
        """One agent's opinion; raises the AgentError of a failed agent."""
        columns, failed = self.respond_round(case, [agent_id], [ctx])
        if failed:
            raise failed[0][1]
        return columns.opinion(agent_id)

    def respond_round(self, case: ScenarioCase, agent_ids: Sequence[str],
                      contexts: Sequence[AgentContext]) -> tuple[RoundColumns, Failures]:
        """The rows of the agents of `agent_ids` (sorted, one context each,
        all of one round) that answered, in that order, and the failures.

        Calls `respond` per agent, so one failed agent fails alone. In round 1
        no earlier opinion can stand in for a failed one and the case ends,
        so the first failure there ends the call.
        """
        answered, opinions, failed = [], [], []
        for agent_id, ctx in zip(agent_ids, contexts):
            try:
                opinions.append(self.respond(case, agent_id, ctx))
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


def _solution_text(tagged: TaggedOpinion) -> str:
    op = tagged.opinion
    return f"{op.reasoning} The answer is {op.answer}."


def _solution_block(collaborators: Sequence[TaggedOpinion]) -> str:
    labels = {
        TAG_SUPPORTIVE: "One supporting agent solution",
        TAG_CONFLICTING: "One conflicting agent solution",
        TAG_LEADER: "One leader solution",
    }
    order = {TAG_SUPPORTIVE: 0, TAG_CONFLICTING: 1, TAG_LEADER: 2}
    parts = [
        f"{labels[t.tag]}: {_solution_text(t)}"
        for t in sorted(collaborators, key=lambda t: order[t.tag])
    ]
    return " ".join(parts)


def build_messages(ctx: AgentContext, style: str = "choice") -> list[dict]:
    """Assemble the system/user message pair for a chat-completions request."""
    system = BOXED_SYSTEM_PROMPT if style == "boxed" else CHOICE_SYSTEM_PROMPT
    if ctx.template == TEMPLATE_INITIAL or not ctx.collaborators:
        user = ctx.question
    else:
        block = _solution_block(ctx.collaborators)
        if ctx.template == TEMPLATE_LEADER:
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
            f"Here is the question: {ctx.question} "
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

    def respond(self, case: ScenarioCase, agent_id: str, ctx: AgentContext) -> Opinion:
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
        key = (lambda t: t.opinion.agent_id) if wanted != target else (lambda t: t.tag)
        source = next((t.opinion for t in ctx.collaborators if key(t) == wanted), None)
        if source is None:
            raise AgentError(f"adopt rule {rule!r} found no matching collaborator for {where}")
        belief = script.fallback_belief if script.fallback_belief is not None else source.belief
        return Opinion(agent_id, source.reasoning, source.answer, belief)


# ---------------------------------------------------------------------------
# stochastic backend

class StochasticAgent(Backend):
    """Seeded numeric test double; no text model involved.

    Draws an answer from the candidate pool each round, adopting the
    highest-belief collaborator's answer with fixed probability when
    collaborators are present. Fully determined by (seed, case, agent, round):
    each agent's draws are those of `np.random.default_rng(SeedSequence([seed,
    crc(case), crc(agent), round]))`. The first call for a case computes them
    for its agents and every round from its own up to `rounds` (the case's
    round limit, at most ROUNDS_PER_PASS rounds) at once; later rounds of the
    case read their slice.
    """

    def __init__(self, seed: int, candidates: Sequence[str] = ("A", "B", "C", "D"),
                 adopt_prob: float = 0.6, rounds: int = 1):
        self.seed = seed
        self.candidates = tuple(candidates)
        self.adopt_prob = adopt_prob
        self.rounds = rounds
        # (case id and agent ids, rounds covered, entropy words, raw outputs),
        # replaced whole, so a backend shared by threads reads one block per call
        self._block = None

    def _round_streams(self, case_id: str, agent_ids: Sequence[str],
                       round_index: int) -> tuple[np.ndarray, np.ndarray]:
        """The agents' entropy words (words, m) and first raw outputs (3, m) in
        round `round_index`, sliced from the case's block; a round the block
        does not cover computes a new one, from that round on.

        Block column `(r - first round) * m + j` is agent j's generator in round r.
        """
        key, m = (case_id, tuple(agent_ids)), len(agent_ids)
        block = self._block
        if block is None or block[0] != key or round_index not in block[1]:
            last = min(max(round_index, self.rounds), round_index + ROUNDS_PER_PASS - 1)
            rounds = range(round_index, last + 1)
            round_words = np.array([_uint32_words(r) for r in rounds], np.uint32).T
            entropy = _uint32_words(self.seed) + [stable_hash(case_id)]
            words = np.empty((len(entropy) + 1 + len(round_words), len(rounds) * m), np.uint32)
            words[:len(entropy)] = np.array(entropy, np.uint32)[:, None]
            words[len(entropy)] = np.tile(_crc32_row(key[1]), len(rounds))
            words[len(entropy) + 1:] = np.repeat(round_words, m, axis=1)
            raw = _pcg64_raw(words, _STREAM_OUTPUTS)
            words.flags.writeable = raw.flags.writeable = False
            block = self._block = (key, rounds, words, raw)
        _, rounds, words, raw = block
        at = slice((round_index - rounds.start) * m, (round_index - rounds.start + 1) * m)
        return words[:, at], raw[:, at]

    def respond_round(self, case: ScenarioCase, agent_ids: Sequence[str],
                      contexts: Sequence[AgentContext]) -> tuple[RoundColumns, Failures]:
        """The opinions of several agents of one round of a case, as rows in
        `agent_ids` order; no agent fails.

        Each agent's draws are numpy's `Generator` draws `random()` (only with
        collaborators), `integers(n)` (unless it adopts) and `uniform(0.3,
        0.95)`, read from its raw outputs as array operations over the round.
        `random()` scales an output's top 53 bits to [0, 1). `integers(n)` is
        Lemire's bounded draw on 32-bit words: an output's low half, then its
        high half if the low one is rejected, then the next output; n = 1
        reads nothing. `uniform` reads the output after the draw's.
        """
        rounds = sorted({ctx.round for ctx in contexts})
        if len(rounds) != 1:
            raise ValueError(f"respond_round takes the agents of one round, got rounds {rounds}")
        round_index = rounds[0]
        n, m = len(self.candidates), len(agent_ids)
        words, raw = self._round_streams(case.case_id, agent_ids, round_index)

        cols = np.arange(m)
        collaborate = np.array([bool(ctx.collaborators) for ctx in contexts])
        adopt = collaborate & ((raw[0] >> _U11) * _TWO_POW_M53 < self.adopt_prob)
        if n < 1 and not adopt.all():
            raise ValueError("no candidates to draw from")
        threshold = (1 << 32) % max(n, 1)  # a product whose low word is below it is rejected
        half = 2 * collaborate.astype(np.intp)  # the 32-bit half each bounded draw reads next
        index = np.zeros(m, np.uint64)
        drawing = np.flatnonzero(~adopt & (n > 1))
        while drawing.size:  # a rejection, probability below n / 2**32, goes round again
            at = half[drawing]
            if len(raw) < (at.max() >> 1) + 2:
                raw = _pcg64_raw(words, 2 * len(raw))
            shift = (at & 1).astype(np.uint64) * _U32
            product = (raw[at >> 1, drawing] >> shift & _LOW32) * np.uint64(n)
            index[drawing] = product >> _U32
            half[drawing] += 1
            drawing = drawing[(product & _LOW32) < threshold]
        belief_at = (half + 1) >> 1  # uniform() reads the first output with no half read
        belief = 0.3 + (0.95 - 0.3) * ((raw[belief_at, cols] >> _U11) * _TWO_POW_M53)
        belief = np.rint(belief * 1e6) / 1e6  # np.round(belief, 6)

        adopters = np.flatnonzero(adopt).tolist()
        strongest: dict[int, str] = {}  # by collaborator tuple; contexts share them
        for i in adopters:
            collaborators = contexts[i].collaborators
            if id(collaborators) not in strongest:
                best = max(collaborators, key=lambda t: t.opinion.belief)
                strongest[id(collaborators)] = best.opinion.answer
        answers = sorted({*self.candidates, *strongest.values()})
        code = {a: c for c, a in enumerate(answers)}
        text_ids = index.astype(np.intp)
        codes = np.empty(m, np.intp)
        drawn = ~adopt  # with no candidates, none
        codes[drawn] = np.array([code[c] for c in self.candidates], np.intp)[text_ids[drawn]]
        codes[adopters] = [code[strongest[id(contexts[i].collaborators)]] for i in adopters]
        text_ids[adopt] = n
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

# a sentence ends at ".", "!" or "?" not followed by a digit, so not at the "." of 1.5
_SENTENCE_END = re.compile(r"[.!?](?!\d)")
# a "the answer is" clause runs to its sentence's end
_ANSWER_CLAUSE = re.compile(r"\bthe answer is\b(?:[^.!?]|[.!?](?=\d))*", re.IGNORECASE)
_CHOICE_LABEL = re.compile(r"\([A-Za-z0-9]{1,3}\)")


def answer_spans(content: str) -> tuple[tuple[int, int], tuple[int, int]] | None:
    """Character spans of the final answer's anchor and of the sentence around
    it, or None if unanswerable.

    The anchor is the last "the answer is" clause or the last balanced
    `\\boxed{...}` (`last_boxed`), which wins over a clause it overlaps. A bare
    choice label such as "(C)" anchors only in a reply with neither, so a
    label after the answer sentence does not take the answer.
    """
    anchors = [m.span() for m in _ANSWER_CLAUSE.finditer(content)]
    boxed = last_boxed(content)
    if boxed:
        anchors = [a for a in anchors if a[1] <= boxed[0] or a[0] >= boxed[1]] + [boxed]
    anchor = max(anchors or [m.span() for m in _CHOICE_LABEL.finditer(content)], default=None)
    if anchor is None:
        return None
    ends = (m.end() for m in _SENTENCE_END.finditer(content) if m.end() <= anchor[0])
    start = max(ends, default=0)
    stop = _SENTENCE_END.search(content, anchor[1])
    end = stop.end() if stop else len(content)
    while start < end and content[start].isspace():
        start += 1
    return anchor, (start, end)


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
    """HTTP client for chat-completions endpoints with per-token logprobs.

    Retries transient failures (transport errors, timeouts, 5xx, an
    unparseable body, an unanswerable reply) with exponential backoff. The
    number of retries consumed by the latest call is kept in `last_retries`.
    """

    def __init__(self, cfg: BackendConfig):
        if cfg.kind != "http":
            raise ValueError("ChatCompletionsAgent requires an http backend config")
        self.cfg = cfg
        self.pool = _http_pool(cfg.endpoint)
        self.last_retries = 0

    def _headers(self) -> dict:
        headers = {"Content-Type": "application/json"}
        if self.cfg.api_key_env:
            key = os.environ.get(self.cfg.api_key_env)
            if not key:
                raise AgentError(f"API key environment variable {self.cfg.api_key_env!r} "
                                 "is not set")
            headers["Authorization"] = f"Bearer {key}"
        return headers

    def respond(self, case: ScenarioCase, agent_id: str, ctx: AgentContext) -> Opinion:
        import http.client  # loaded by _http_pool

        payload = {
            "model": self.cfg.model,
            "messages": build_messages(ctx, self.cfg.prompt_style),
            "temperature": self.cfg.temperature,
            "logprobs": True,
        }
        request_body = json.dumps(payload, allow_nan=False).encode("utf-8")
        headers = self._headers()
        attempts = self.cfg.retries + 1
        self.last_retries = 0
        last_error: Exception | None = None
        for attempt in range(attempts):
            if attempt:
                time.sleep(self.cfg.backoff * (2 ** (attempt - 1)))
                self.last_retries = attempt
            try:
                status, data = self.pool.post(request_body, headers, self.cfg.timeout)
            except (OSError, http.client.HTTPException) as exc:
                last_error = exc
                continue
            if status >= 500:
                last_error = AgentError(f"server error {status}")
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
            content = choice["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise AgentError(f"malformed completion response: {exc}") from exc
        logprobs = (choice.get("logprobs") or {}).get("content")
        if not logprobs:
            raise AgentError("logprobs unavailable")
        spans = answer_spans(content)
        if spans is None:
            raise UnanswerableError("unanswerable output: no answer sentence found")
        (anchor_start, anchor_end), sentence = spans
        probs = _token_probs_for_span(logprobs, content, *sentence)
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


def make_backend(cfg: BackendConfig, seed: int = 0, rounds: int = 1) -> Backend:
    """A backend of `cfg.kind`; `seed` and `rounds` (a case's round limit)
    reach the stochastic one."""
    if cfg.kind == "scripted":
        return ScriptedAgent()
    if cfg.kind == "stochastic":
        return StochasticAgent(seed=seed, rounds=rounds)
    return ChatCompletionsAgent(cfg)  # BackendConfig admits no other kind
