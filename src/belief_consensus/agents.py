"""Agent backends: scripted test doubles, seeded stochastic agents, and a
chat-completions HTTP client whose belief is the product of the answer
sentence's token probabilities.

All backends expose respond(case, agent_id, ctx) -> Opinion. A backend may
also expose respond_round(case, agent_ids, contexts) -> list[Opinion], which
answers several agents of one round in one call; the stochastic backend does,
drawing a whole round's generators as one batch. A backend must never
fabricate a belief: the HTTP client fails loudly when the provider does not
report token probabilities.
"""

from __future__ import annotations

import functools
import math
import operator
import os
import re
import threading
import time
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Protocol, Sequence

import numpy as np

from belief_consensus.core import (
    Opinion,
    ScenarioCase,
    belief_from_token_probs,
    canonicalize_answer,
    stable_hash,
)

if TYPE_CHECKING:
    import requests

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


@dataclass(frozen=True)
class BackendConfig:
    kind: str = "scripted"  # scripted | stochastic | http
    endpoint: str = ""
    model: str = ""
    temperature: float = 0.7
    timeout: float = 60.0
    retries: int = 2
    api_key_env: str = ""
    prompt_style: str = "choice"  # choice | boxed
    backoff: float = 0.5

    def __post_init__(self):
        if self.temperature < 0:
            raise ValueError("temperature must be nonnegative")
        if self.retries < 0:
            raise ValueError("retries must be nonnegative")


class Backend(Protocol):
    """One agent's opinion per call.

    Optionally also `respond_round(case, agent_ids, contexts) -> list[Opinion]`:
    the opinions of `agent_ids` (one context each) in that order, equal to
    calling `respond` for each; the orchestrator then makes one call for all
    the agents that share the backend.
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
        return self.respond_round(case, [agent_id], [ctx])[0]

    def respond_round(self, case: ScenarioCase, agent_ids: Sequence[str],
                      contexts: Sequence[AgentContext]) -> list[Opinion]:
        """The opinions of several agents in one case, in `agent_ids` order.

        Every agent's draws are array operations over the round's raw outputs
        (as `_stochastic_draws` reads them); only an agent whose bounded draw
        rejects the low half of its output, with probability below
        n / 2**32, reads its own stream.
        """
        n = len(self.candidates)
        prefix = _uint32_words(self.seed) + [stable_hash(case.case_id)]
        hashes = _crc32_row(tuple(agent_ids))
        rounds = [ctx.round for ctx in contexts]
        round_words = {r: _uint32_words(r) for r in set(rounds)}
        raw = np.empty((_STREAM_OUTPUTS, len(agent_ids)), np.uint64)
        lengths = np.array([len(round_words[r]) for r in rounds])
        for length in np.unique(lengths).tolist():  # one batch per entropy length
            cols = np.flatnonzero(lengths == length)
            words = np.empty((len(prefix) + 1 + length, len(cols)), np.uint32)
            words[:len(prefix)] = np.array(prefix, np.uint32)[:, None]
            words[len(prefix)] = hashes[cols]
            words[len(prefix) + 1:] = np.array(
                [round_words[rounds[j]] for j in cols.tolist()], np.uint32).T
            raw[:, cols] = _pcg64_raw(words, _STREAM_OUTPUTS)

        cols = np.arange(len(agent_ids))
        collaborate = np.array([bool(ctx.collaborators) for ctx in contexts])
        adopt = collaborate & ((raw[0] >> _U11) * _TWO_POW_M53 < self.adopt_prob)
        if n < 1 and not adopt.all():
            raise ValueError("no candidates to draw from")
        at = collaborate.astype(np.intp)  # the output the bounded draw reads
        product = (raw[at, cols] & _LOW32) * np.uint64(max(n, 1))
        index = product >> _U32
        rejected = ~adopt & ((product & _LOW32) < (1 << 32) % max(n, 1))
        at += ~adopt & (n > 1)  # n = 1 reads nothing for its draw
        belief = 0.3 + (0.95 - 0.3) * ((raw[at, cols] >> _U11) * _TWO_POW_M53)
        belief = np.rint(belief * 1e6) / 1e6  # _round_belief
        index, belief = index.tolist(), belief.tolist()
        for j in np.flatnonzero(rejected).tolist():
            stream = _raw_stream(prefix + [int(hashes[j])] + round_words[rounds[j]],
                                 raw[:, j].tolist())
            index[j], u = _stochastic_draws(stream.__next__, bool(collaborate[j]),
                                            self.adopt_prob, n)
            belief[j] = _round_belief(u)

        strongest: dict[int, str] = {}  # by collaborator tuple; contexts share them
        reasonings: dict[tuple[int, str | None], str] = {}
        opinions = []
        for agent_id, ctx, adopted, i, b in zip(agent_ids, contexts, adopt.tolist(), index, belief):
            if adopted:
                key = id(ctx.collaborators)
                answer = strongest.get(key)
                if answer is None:
                    best = max(ctx.collaborators, key=lambda t: t.opinion.belief)
                    answer = strongest[key] = best.opinion.answer
                text_key = (ctx.round, None)
            else:
                answer = self.candidates[i]
                text_key = (ctx.round, answer)
            reasoning = reasonings.get(text_key)
            if reasoning is None:
                reasoning = reasonings[text_key] = (
                    f"Adopting the strongest collaborator view on round {ctx.round}."
                    if adopted else
                    f"Independent draw on round {ctx.round} favoring option {answer}.")
            opinions.append(Opinion(agent_id, reasoning, answer, b))
        return opinions


@functools.lru_cache(maxsize=32)
def _crc32_row(agent_ids: tuple[str, ...]) -> np.ndarray:
    """The agents' `stable_hash` entropy words; a case's agents repeat every round."""
    return _frozen([stable_hash(a) for a in agent_ids], np.uint32, (len(agent_ids),))


def _stochastic_draws(next_raw, collaborate: bool, adopt_prob: float,
                      n_candidates: int) -> tuple[int | None, float]:
    """The draws of one `StochasticAgent` opinion from its raw PCG64 outputs.

    Returns the candidate index (None when the agent adopts a collaborator's
    answer) and the unrounded belief, drawn as numpy's `Generator` draws
    `random()`, `integers(n_candidates)` and `uniform(0.3, 0.95)`: `random()`
    scales an output's top 53 bits to [0, 1), and `uniform(lo, hi)` is
    lo + (hi - lo) * random().
    """
    if collaborate and (next_raw() >> 11) * _TWO_POW_M53 < adopt_prob:
        index = None
    else:
        index = _bounded_index(next_raw, n_candidates)
    return index, 0.3 + (0.95 - 0.3) * ((next_raw() >> 11) * _TWO_POW_M53)


def _bounded_index(next_raw, n: int) -> int:
    """`Generator.integers(n)`: Lemire's bounded draw on 32-bit words.

    Each output gives its low half first and its high half to a rejected
    draw; n = 1 reads nothing.
    """
    if n < 1:
        raise ValueError("no candidates to draw from")
    if n == 1:
        return 0
    threshold = (1 << 32) % n  # a product whose low word is below it is rejected
    while True:
        raw = next_raw()
        for word in (raw & _MASK32, raw >> 32):
            product = word * n
            if product & _MASK32 >= threshold:
                return product >> 32


def _round_belief(u: float) -> float:
    """`float(np.round(u, 6))` without numpy's call overhead.

    numpy rounds to 6 decimals by multiplying by 1e6, rounding half to even
    and dividing by 1e6; Python's `round` rounds a float half to even, so the
    result is the same float.
    """
    return round(u * 1e6) / 1e6


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


def _raw_stream(entropy: list[int], outputs: list[int]):
    """One generator's raw outputs: its first ones, `outputs`, then more on
    demand (only a rejected bounded draw reads past `_STREAM_OUTPUTS`)."""
    yield from outputs
    while True:
        more = _pcg64_raw(np.array(entropy, np.uint32)[:, None], 2 * len(outputs))
        more = more[:, 0].tolist()
        yield from more[len(outputs):]
        outputs = more


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


class ChatCompletionsAgent:
    """HTTP client for chat-completions endpoints with per-token logprobs.

    Retries transient transport failures (connection errors, timeouts, 5xx)
    with exponential backoff. The number of retries consumed by the latest
    call is kept in `last_retries`.
    """

    def __init__(self, cfg: BackendConfig, session: requests.Session | None = None):
        # imported here, not at module level: only HTTP backends use it, and
        # it costs every other run ~0.1 s of start-up
        import requests

        if cfg.kind != "http":
            raise ValueError("ChatCompletionsAgent requires an http backend config")
        if not cfg.endpoint:
            raise ValueError("http backend requires an endpoint")
        self.cfg = cfg
        self.session = session or requests.Session()
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
        import requests  # loaded by __init__; named here for the except clause

        payload = {
            "model": self.cfg.model,
            "messages": build_messages(ctx, self.cfg.prompt_style),
            "temperature": self.cfg.temperature,
            "logprobs": True,
        }
        headers = self._headers()
        attempts = self.cfg.retries + 1
        self.last_retries = 0
        last_error: Exception | None = None
        for attempt in range(attempts):
            if attempt:
                time.sleep(self.cfg.backoff * (2 ** (attempt - 1)))
                self.last_retries = attempt
            try:
                response = self.session.post(
                    self.cfg.endpoint, json=payload, headers=headers,
                    timeout=self.cfg.timeout,
                )
            except requests.RequestException as exc:
                last_error = exc
                continue
            if response.status_code >= 500:
                last_error = AgentError(f"server error {response.status_code}")
                continue
            if response.status_code != 200:
                raise AgentError(
                    f"endpoint rejected the request: HTTP {response.status_code}"
                )
            try:
                body = response.json()
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

def perturb_one_belief(opinions: Sequence[Opinion], rng) -> tuple[list[Opinion], str]:
    """Flip one randomly chosen agent's belief to clamp(1 - b, eps, 1).

    Models an adversary misreporting confidence; all other fields are
    preserved. Returns the perturbed round and the victim's agent id.
    """
    idx = int(rng.integers(len(opinions)))
    victim = opinions[idx]
    flipped = min(max(1.0 - victim.belief, ADVERSARIAL_EPS), 1.0)
    out = list(opinions)
    out[idx] = replace(victim, belief=flipped)
    return out, victim.agent_id


def make_backend(cfg: BackendConfig, seed: int = 0) -> Backend:
    if cfg.kind == "scripted":
        return ScriptedAgent()
    if cfg.kind == "stochastic":
        return StochasticAgent(seed=seed)
    if cfg.kind == "http":
        return ChatCompletionsAgent(cfg)
    raise ValueError(f"unknown backend kind: {cfg.kind!r}")
