"""Agent backends: scripted test doubles, seeded stochastic agents, and a
chat-completions HTTP client whose belief is the product of the answer
sentence's token probabilities.

All backends expose respond(case, agent_id, ctx) -> Opinion. A backend must
never fabricate a belief: the HTTP client fails loudly when the provider
does not report token probabilities.
"""

from __future__ import annotations

import math
import os
import re
import threading
import time
from dataclasses import dataclass, replace
from typing import Protocol, Sequence

import numpy as np
import requests

from belief_consensus.core import (
    Opinion,
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
    collaborators are present. Fully determined by (seed, case, agent, round).
    """

    def __init__(self, seed: int, candidates: Sequence[str] = ("A", "B", "C", "D"),
                 adopt_prob: float = 0.6):
        self.seed = seed
        self.candidates = tuple(candidates)
        self.adopt_prob = adopt_prob

    def respond(self, case: ScenarioCase, agent_id: str, ctx: AgentContext) -> Opinion:
        rng = np.random.default_rng(
            np.random.SeedSequence(
                [self.seed, stable_hash(case.case_id), stable_hash(agent_id), ctx.round]
            )
        )
        if ctx.collaborators and rng.random() < self.adopt_prob:
            best = max(ctx.collaborators, key=lambda t: t.opinion.belief)
            answer = best.opinion.answer
            reasoning = f"Adopting the strongest collaborator view on round {ctx.round}."
        else:
            # the draw Generator.choice makes for a list of this length
            answer = self.candidates[int(rng.integers(len(self.candidates)))]
            reasoning = f"Independent draw on round {ctx.round} favoring option {answer}."
        belief = _round_belief(rng.uniform(0.3, 0.95))
        return Opinion(agent_id=agent_id, reasoning=reasoning, answer=answer, belief=belief)


def _round_belief(u: float) -> float:
    """`float(np.round(u, 6))` without numpy's call overhead.

    numpy rounds to 6 decimals by multiplying by 1e6, rounding half to even
    and dividing by 1e6; Python's `round` rounds a float half to even, so the
    result is the same float.
    """
    return round(u * 1e6) / 1e6


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
