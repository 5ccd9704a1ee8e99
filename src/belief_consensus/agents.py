"""Agent backends: scripted test doubles, seeded stochastic agents, and a
chat-completions HTTP client whose belief is the product of the answer
sentence's token probabilities.

All backends expose respond(case, agent_id, ctx) -> Opinion. A backend may
also expose respond_round(case, agent_ids, contexts) -> RoundColumns, which
answers several agents of one round in one call and returns their opinions
as the round's columns; the stochastic backend does, drawing a whole round's
generators as one batch. A backend must never fabricate a belief: the HTTP
client fails loudly when the provider does not report token probabilities.
"""

from __future__ import annotations

import functools
import json
import math
import operator
import os
import re
import threading
import time
from dataclasses import dataclass, replace
from typing import Protocol, Sequence
from urllib.parse import urlsplit

import numpy as np

from belief_consensus.core import (
    Opinion,
    RoundColumns,
    ScenarioCase,
    belief_from_token_probs,
    canonicalize_answer,
    stable_hash,
)

ADVERSARIAL_EPS = 1e-9

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
        if self.temperature < 0:
            raise ValueError("temperature must be nonnegative")
        if self.retries < 0:
            raise ValueError("retries must be nonnegative")
        if self.kind == "http":
            parts = urlsplit(self.endpoint)
            if parts.scheme not in ("http", "https") or not parts.hostname:
                raise ValueError(
                    f"http endpoint must be an http:// or https:// URL with a host, "
                    f"got {self.endpoint!r}"
                )


class Backend(Protocol):
    """One agent's opinion per call.

    Optionally also `respond_round(case, agent_ids, contexts) -> RoundColumns`:
    the opinions of `agent_ids` (one context each, all of one round) as the
    rows of one round's columns, in that order, equal to calling `respond`
    for each; the orchestrator then makes one call per round for all the
    agents that share the backend.
    """

    def respond(self, case: ScenarioCase, agent_id: str, ctx: AgentContext) -> Opinion: ...


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

class ScriptedAgent:
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
            opinion = Opinion(
                agent_id=agent_id,
                reasoning=reply.reasoning,
                answer=canonicalize_answer(reply.answer),
                belief=reply.belief,
            )
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
        if rule.startswith("adopt:"):
            target = rule.split(":", 1)[1]
            source = None
            if target.startswith("agent:"):
                wanted = target.split(":", 1)[1]
                for t in ctx.collaborators:
                    if t.opinion.agent_id == wanted:
                        source = t.opinion
                        break
            else:
                for t in ctx.collaborators:
                    if t.tag == target:
                        source = t.opinion
                        break
            if source is None:
                raise AgentError(f"adopt rule {rule!r} found no matching collaborator for {where}")
            belief = script.fallback_belief if script.fallback_belief is not None else source.belief
            return Opinion(
                agent_id=agent_id,
                reasoning=source.reasoning,
                answer=source.answer,
                belief=belief,
            )
        raise AgentError(f"unknown fallback rule {rule!r} for {where}")


# ---------------------------------------------------------------------------
# stochastic backend

class StochasticAgent:
    """Seeded numeric test double; no text model involved.

    Draws an answer from the candidate pool each round, adopting the
    highest-belief collaborator's answer with fixed probability when
    collaborators are present. Fully determined by (seed, case, agent, round):
    each agent's draws are those of `np.random.default_rng(SeedSequence([seed,
    crc(case), crc(agent), round]))`, computed for a whole round at once.
    """

    def __init__(self, seed: int, candidates: Sequence[str] = ("A", "B", "C", "D"),
                 adopt_prob: float = 0.6):
        self.seed = seed
        self.candidates = tuple(candidates)
        self.adopt_prob = adopt_prob

    def respond(self, case: ScenarioCase, agent_id: str, ctx: AgentContext) -> Opinion:
        return self.respond_round(case, [agent_id], [ctx]).opinion(agent_id)

    def respond_round(self, case: ScenarioCase, agent_ids: Sequence[str],
                      contexts: Sequence[AgentContext]) -> RoundColumns:
        """The opinions of several agents of one round of a case, as rows in
        `agent_ids` order.

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
        entropy = _uint32_words(self.seed) + [stable_hash(case.case_id)]
        round_words = _uint32_words(round_index)
        words = np.empty((len(entropy) + 1 + len(round_words), m), np.uint32)
        words[:len(entropy)] = np.array(entropy, np.uint32)[:, None]
        words[len(entropy)] = _crc32_row(tuple(agent_ids))
        words[len(entropy) + 1:] = np.array(round_words, np.uint32)[:, None]
        raw = _pcg64_raw(words, _STREAM_OUTPUTS)

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
        return RoundColumns(tuple(agent_ids), tuple(answers), codes, belief, texts, text_ids)


@functools.lru_cache(maxsize=32)
def _crc32_row(agent_ids: tuple[str, ...]) -> np.ndarray:
    """The agents' `stable_hash` entropy words; a case's agents repeat every round."""
    return _frozen([stable_hash(a) for a in agent_ids], np.uint32, (len(agent_ids),))


# ---------------------------------------------------------------------------
# numpy's SeedSequence and PCG64, many generators at once
#
# A stochastic agent's generator is a pure function of its entropy words, and
# numpy seeds and steps it with fixed integer arithmetic, so a round's
# generators are computed together as array operations, bit for bit.

_MASK32 = 0xFFFFFFFF
_LOW32, _U11, _U32 = np.uint64(_MASK32), np.uint64(11), np.uint64(32)
_TWO_POW_M53 = 1.0 / 9007199254740992.0
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
_STREAM_OUTPUTS = 3  # random(), one bounded draw and uniform(); more only on a rejection


def _uint32_words(n: int) -> list[int]:
    """An int as `SeedSequence` reads it: 32-bit words, least significant first."""
    n = operator.index(n)
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _frozen(values, dtype, shape) -> np.ndarray:
    out = np.array(values, dtype=dtype).reshape(shape)
    out.flags.writeable = False
    return out


@functools.lru_cache(maxsize=16)
def _stream_constants(n_words: int, k: int):
    """The constant operands of `_pcg64_raw` for `n_words` words and `k` outputs.

    `SeedSequence`'s hash multiplier advances on every hashmix call, so call t
    xors with the t-th constant and multiplies by the next one; the calls come
    in stages of 4 (filling the pool), 3 per pool word (the all-pairs mix) and
    4 per further entropy word. Output t of PCG64 seeded with (s, inc) is the
    XSL-RR of the 128-bit state M^(t+1)·s + (1 + M + ... + M^(t+1))·inc.
    """
    extra = max(n_words - _POOL_SIZE, 0)
    sizes = [_POOL_SIZE] + [_POOL_SIZE - 1] * _POOL_SIZE + [_POOL_SIZE] * extra
    hash_a, hash_b = [_INIT_A], [_INIT_B]
    while len(hash_a) <= sum(sizes):
        hash_a.append(hash_a[-1] * _MULT_A & _MASK32)
    while len(hash_b) <= 2 * _POOL_SIZE:
        hash_b.append(hash_b[-1] * _MULT_B & _MASK32)
    stages, t = [], 0
    for size in sizes:
        stages.append((_frozen(hash_a[t:t + size], np.uint32, (size, 1)),
                       _frozen(hash_a[t + 1:t + 1 + size], np.uint32, (size, 1))))
        t += size
    factors, power, total = [], _PCG_MULT, 1 + _PCG_MULT
    for _ in range(k):
        power = power * _PCG_MULT % (1 << 128)
        total = (total + power) % (1 << 128)
        factors.append((power, total))
    scale_offset = [f for pair in zip(*factors) for f in pair]  # all scales, then offsets
    low = [f & (1 << 64) - 1 for f in scale_offset]
    return (
        stages,
        _frozen(hash_b[:-1], np.uint32, (2, _POOL_SIZE, 1)),
        _frozen(hash_b[1:], np.uint32, (2, _POOL_SIZE, 1)),
        _frozen([f >> 64 for f in scale_offset], np.uint64, (2, k, 1)),
        _frozen(low, np.uint64, (2, k, 1)),
        _frozen([f & _MASK32 for f in low], np.uint64, (2, k, 1)),
        _frozen([f >> 32 for f in low], np.uint64, (2, k, 1)),
    )


_OTHER_POOL_WORDS = [np.array([d for d in range(_POOL_SIZE) if d != s]) for s in range(_POOL_SIZE)]


def _pcg64_raw(words: np.ndarray, k: int) -> np.ndarray:
    """The first k raw outputs of `PCG64(SeedSequence(words[:, j]))` for each j.

    `words` is a (n_words, m) uint32 array of entropy words; returns (k, m)
    uint64. Reproduces `SeedSequence` (pool of 4, `generate_state(4, uint64)`)
    and PCG64's seeding and XSL-RR output, with 128-bit products assembled
    from 32-bit halves. Every step is one array operation over all m, so a
    batch costs about the same at any m.
    """
    n_words, m = words.shape
    stages, xor_b, mul_b, factor_hi, factor_lo, b0, b1 = _stream_constants(n_words, k)
    u16, u32, low32 = np.uint32(16), np.uint64(32), np.uint64(_MASK32)

    def hashmix(values, stage):  # one hashmix call per row of the stage
        xor, mul = stage
        out = values ^ xor
        out *= mul
        out ^= out >> u16
        return out

    pool = np.zeros((_POOL_SIZE, m), np.uint32)
    pool[:n_words] = words[:_POOL_SIZE]
    pool = hashmix(pool, stages[0])
    for src, dst in enumerate(_OTHER_POOL_WORDS):
        mixed = np.uint32(_MIX_MULT_L) * pool[dst] - np.uint32(_MIX_MULT_R) * hashmix(
            pool[src], stages[1 + src])
        pool[dst] = mixed ^ (mixed >> u16)
    for word, stage in zip(words[_POOL_SIZE:], stages[1 + _POOL_SIZE:]):
        mixed = np.uint32(_MIX_MULT_L) * pool - np.uint32(_MIX_MULT_R) * hashmix(word, stage)
        pool = mixed ^ (mixed >> u16)

    state = pool ^ xor_b  # (2, 4, m): the pool read twice
    state *= mul_b
    state ^= state >> u16
    state = state.reshape(2 * _POOL_SIZE, m).astype(np.uint64)
    seed = state[0::2] | state[1::2] << u32  # s high, s low, inc high, inc low
    seed[2] = seed[2] << np.uint64(1) | seed[3] >> np.uint64(63)
    seed[3] = seed[3] << np.uint64(1) | np.uint64(1)
    # (s, inc) times (scale_t, offset_t) mod 2**128, as one (2, k, m) batch
    x_hi, x_lo = seed[0::2, None], seed[1::2, None]
    a0, a1 = x_lo & low32, x_lo >> u32
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    middle = (p00 >> u32) + (p01 & low32) + (p10 & low32)
    hi = (a1 * b1 + (p01 >> u32) + (p10 >> u32) + (middle >> u32)
          + x_hi * factor_lo + x_lo * factor_hi)
    lo = x_lo * factor_lo
    state_lo = lo[0] + lo[1]
    state_hi = hi[0] + hi[1] + (state_lo < lo[0])
    xored = state_hi ^ state_lo
    rot = state_hi >> np.uint64(58)
    return xored >> rot | xored << (-rot & np.uint64(63))


# ---------------------------------------------------------------------------
# HTTP chat-completions backend

_ANSWER_ANCHOR = re.compile(
    r"(\\boxed\{[^{}]*\})|(\bthe answer is\b[^.!?]*)|(\([A-Za-z0-9]{1,3}\))",
    re.IGNORECASE,
)


def extract_answer_sentence(content: str) -> tuple[int, int] | None:
    """Character span of the final answer sentence, or None if unanswerable."""
    anchors = list(_ANSWER_ANCHOR.finditer(content))
    if not anchors:
        return None
    anchor = anchors[-1]
    start = content.rfind(".", 0, anchor.start())
    start = 0 if start < 0 else start + 1
    end = content.find(".", anchor.end())
    end = len(content) if end < 0 else end + 1
    while start < end and content[start].isspace():
        start += 1
    return start, end


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


@functools.lru_cache(maxsize=16)
def _http_pool(endpoint: str):
    """The connection pool that every agent posting to `endpoint` shares.

    Built once per endpoint and process, so keep-alive connections outlive
    agents and cases, and the environment's proxy setting is read here once.
    `retries=False`: `respond` does its own retrying, and a redirect is
    returned rather than followed.
    """
    # imported here, not at module level: only HTTP backends use them, and
    # they cost every other run start-up time
    import urllib.request

    import urllib3

    parts = urlsplit(endpoint)
    proxy = urllib.request.getproxies().get(parts.scheme)
    if proxy and not urllib.request.proxy_bypass(parts.hostname):
        return urllib3.ProxyManager(proxy, retries=False)
    return urllib3.PoolManager(retries=False)


class ChatCompletionsAgent:
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
                raise AgentError(
                    f"API key environment variable {self.cfg.api_key_env!r} is not set"
                )
            headers["Authorization"] = f"Bearer {key}"
        return headers

    def respond(self, case: ScenarioCase, agent_id: str, ctx: AgentContext) -> Opinion:
        from urllib3.exceptions import HTTPError  # loaded by _http_pool

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
                response = self.pool.request(
                    "POST", self.cfg.endpoint, body=request_body, headers=headers,
                    timeout=self.cfg.timeout,
                )
            except HTTPError as exc:
                last_error = exc
                continue
            if response.status >= 500:
                last_error = AgentError(f"server error {response.status}")
                continue
            if response.status != 200:
                raise AgentError(
                    f"endpoint rejected the request: HTTP {response.status}"
                )
            try:
                body = json.loads(response.data)
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
        span = extract_answer_sentence(content)
        if span is None:
            raise UnanswerableError("unanswerable output: no answer sentence found")
        probs = _token_probs_for_span(logprobs, content, *span)
        if not probs:
            raise UnanswerableError("unanswerable output: no tokens in the answer sentence")
        sentence = content[span[0]:span[1]]
        try:
            answer = canonicalize_answer(sentence)
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


def make_backend(cfg: BackendConfig, seed: int = 0) -> Backend:
    if cfg.kind == "scripted":
        return ScriptedAgent()
    if cfg.kind == "stochastic":
        return StochasticAgent(seed=seed)
    return ChatCompletionsAgent(cfg)  # BackendConfig admits no other kind
