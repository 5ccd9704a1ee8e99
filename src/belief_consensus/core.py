"""Shared data model: opinions, rounds, scenarios, run configuration, belief math.

Every other module consumes these types. An Opinion is one agent's
(reasoning, answer, belief) triple for a single round; the answer field is
always stored in canonical form so that answer equality is plain byte
equality. A round of a run travels as RoundColumns, every agent's opinion
as one row of columns.
"""

from __future__ import annotations

import json
import re
import zlib
from dataclasses import dataclass, replace
from functools import cached_property, reduce
from operator import add
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

# Beliefs are plain probabilities, not log-space: answer sentences are short,
# so products cannot meaningfully underflow. The floor keeps them positive.
MIN_BELIEF = 1e-300


def stable_hash(text: str) -> int:
    """Process-independent 32-bit hash, used to derive per-entity RNG seeds."""
    return zlib.crc32(text.encode("utf-8"))


@dataclass(frozen=True)
class Opinion:
    """One agent's output for one round: reasoning text, canonical answer, belief."""

    agent_id: str
    reasoning: str
    answer: str
    belief: float

    def __post_init__(self):
        if not (0.0 < self.belief <= 1.0):
            raise ValueError(f"invalid probability: belief {self.belief!r} outside (0, 1]")
        if not self.answer or not self.answer.strip():
            raise ValueError("unanswerable output: empty canonical answer")


def belief_from_token_probs(probs: Sequence[float]) -> float:
    """Belief of an answer = product of its answer-sentence token probabilities."""
    if len(probs) == 0:
        raise ValueError("no answer tokens")
    out = 1.0
    for p in probs:
        if not (0.0 < p <= 1.0):
            raise ValueError(f"invalid probability: {p!r}")
        out *= p
    return max(out, MIN_BELIEF)


# Greedy prefix so the *last* "the answer is" in the text wins; the frame with
# nothing after it leaves no answer.
_ANSWER_SENTENCE = re.compile(r".*\bthe answer is\b[:\s]*(.*)$", re.IGNORECASE | re.DOTALL)
_CHOICE = re.compile(r"^\(([A-Za-z0-9]{1,3})\)$")


def last_boxed(text: str) -> tuple[int, int] | None:
    """Span of the last `\\boxed{...}` in `text` whose braces balance, from
    its backslash to past its closing brace, or None. Braces may nest, as in
    `\\boxed{\\frac{1}{2}}`."""
    start = text.rfind("\\boxed{")
    while start >= 0:
        depth = 0
        for i, ch in enumerate(text[start + 6:], start + 6):
            depth += (ch == "{") - (ch == "}")
            if depth == 0:
                return start, i + 1
        start = text.rfind("\\boxed{", 0, start)
    return None


def canonicalize_answer(raw: str) -> str:
    """Reduce a raw answer (or answer sentence) to its canonical form.

    Strips whitespace runs and the two wrapper forms used by the agent
    prompts: a boxed expression and a parenthesized choice letter, plus the
    "The answer is ..." sentence frame. Case of symbolic content is
    preserved; two answers agree iff their canonical forms are byte-equal.
    """
    if raw is None or not raw.strip():
        raise ValueError("unanswerable output")
    text = " ".join(raw.split())
    boxed = last_boxed(text)
    if boxed:
        text = " ".join(text[boxed[0] + 7:boxed[1] - 1].split())
    else:
        sentence = _ANSWER_SENTENCE.match(text)
        if sentence:
            tail = sentence.group(1).strip()
            # keep only the first sentence of the tail
            tail = tail.split(". ")[0]
            text = tail.rstrip(".!?").strip()
    choice = _CHOICE.match(text)
    if choice:
        text = choice.group(1)
    if not text:
        raise ValueError("unanswerable output")
    return text


@dataclass(frozen=True, eq=False)
class RoundColumns:
    """One round's opinions as columns, row i being agent `agent_ids[i]`'s.

    `answers` lists distinct canonical answers in sorted order, so a code's
    order is its answer's order; row i answers `answers[codes[i]]`, believes
    `beliefs[i]` and reasons `texts[text_ids[i]]`. A table may hold entries
    no row uses. The orchestrator's rounds hold the case's agents in sorted
    id order, so the layers break ties between rows by position. Like an
    Opinion, a round rejects a belief outside (0, 1] and an empty answer.
    """

    agent_ids: tuple[str, ...]
    answers: tuple[str, ...]
    codes: np.ndarray
    beliefs: np.ndarray
    texts: tuple[str, ...]
    text_ids: np.ndarray

    def __post_init__(self):
        for column in (self.codes, self.beliefs, self.text_ids):
            column.flags.writeable = False
        beliefs = self.beliefs
        # NaN fails both comparisons, as it fails Opinion's check
        if not (beliefs.min(initial=1.0) > 0.0 and beliefs.max(initial=1.0) <= 1.0):
            belief = beliefs[~((beliefs > 0.0) & (beliefs <= 1.0))][0].item()
            raise ValueError(f"invalid probability: belief {belief!r} outside (0, 1]")
        if not all(a.strip() for a in self.answers):
            used = np.bincount(self.codes, minlength=len(self.answers)) > 0
            if any(used[c] and not a.strip() for c, a in enumerate(self.answers)):
                raise ValueError("unanswerable output: empty canonical answer")

    @classmethod
    def of(cls, agent_ids: Sequence[str], opinions: Sequence[Opinion]) -> "RoundColumns":
        """The round in which agent `agent_ids[i]` holds `opinions[i]`, whatever
        agent that opinion names; rows sorted by agent id."""
        return cls._of_rows(agent_ids, [op.answer for op in opinions],
                            [op.belief for op in opinions], [op.reasoning for op in opinions])

    @classmethod
    def join(cls, parts: Sequence["RoundColumns"]) -> "RoundColumns":
        """The round `of` makes from the opinions of all the parts' rows, read
        from their columns without making them."""
        ids, answers, beliefs, texts = [], [], [], []
        for part in parts:
            ids += part.agent_ids
            answers += map(part.answers.__getitem__, part.codes.tolist())
            beliefs += part.beliefs.tolist()
            texts += map(part.texts.__getitem__, part.text_ids.tolist())
        return cls._of_rows(ids, answers, beliefs, texts)

    @classmethod
    def _of_rows(cls, agent_ids: Sequence[str], answers: Sequence[str],
                 beliefs: Sequence[float], texts: Sequence[str]) -> "RoundColumns":
        """The round in which agent `agent_ids[i]` answers `answers[i]`, believes
        `beliefs[i]` and reasons `texts[i]`; rows sorted by agent id, the texts
        table in row order."""
        order = sorted(range(len(agent_ids)), key=agent_ids.__getitem__)
        table = sorted(set(answers))
        code = {a: c for c, a in enumerate(table)}
        distinct = {t: i for i, t in enumerate(dict.fromkeys(texts[i] for i in order))}
        return cls(tuple(agent_ids[i] for i in order), tuple(table),
                   np.array([code[answers[i]] for i in order], np.intp),
                   np.array([beliefs[i] for i in order], np.float64),
                   tuple(distinct), np.array([distinct[texts[i]] for i in order], np.intp))

    def __len__(self) -> int:
        return len(self.agent_ids)

    @cached_property
    def index(self) -> dict[str, int]:
        """Row of each agent id."""
        return {agent_id: i for i, agent_id in enumerate(self.agent_ids)}

    def rows(self, agent_ids: Sequence[str]) -> np.ndarray:
        """The rows of the given agents, in their order."""
        return np.fromiter(map(self.index.__getitem__, agent_ids), np.intp, len(agent_ids))

    def ids(self, rows: Sequence[int]) -> tuple[str, ...]:
        """The agent ids of the given rows, in their order."""
        return tuple(map(self.agent_ids.__getitem__, rows))

    def take(self, rows: np.ndarray) -> "RoundColumns":
        """The round of the given rows alone, in their order; tables kept whole."""
        return replace(self, agent_ids=self.ids(rows), codes=self.codes[rows],
                       beliefs=self.beliefs[rows], text_ids=self.text_ids[rows])

    def opinion(self, agent_id: str) -> Opinion:
        """The agent's row as an Opinion, made once per round: contexts hand
        the same collaborators to many agents."""
        made = self._opinions.get(agent_id)
        if made is None:
            row = self.index[agent_id]
            made = self._opinions[agent_id] = Opinion(
                agent_id, self.texts[self.text_ids.item(row)],
                self.answers[self.codes.item(row)], self.beliefs.item(row))
        return made

    @cached_property
    def _opinions(self) -> dict[str, Opinion]:
        return {}


def fold(values: Iterable[float]):
    """Sum of `values` added one at a time in order: not pairwise like
    numpy's sum, and not compensated like `sum` from Python 3.12 on, so every
    Python version gives the same bits. The int 0 when empty, like `sum`."""
    return reduce(add, values, 0)


def tally(codes: np.ndarray, beliefs: np.ndarray, n_answers: int) -> tuple[list, list]:
    """Count and belief sum per answer code; each sum adds its rows in order."""
    return (np.bincount(codes, minlength=n_answers).tolist(),
            np.bincount(codes, weights=beliefs, minlength=n_answers).tolist())


def modal_code(counts: Sequence[int], sums: Sequence[float]) -> int:
    """Most frequent code; ties break by belief sum, then by the lower code,
    which is the lexicographically lower answer."""
    return min(range(len(counts)), key=lambda c: (-counts[c], -sums[c]))


def modal_answer(round_: RoundColumns) -> str:
    """Most frequent canonical answer; ties break by belief sum, then lexicographic."""
    if not len(round_):
        raise ValueError("no opinions")
    return round_.answers[modal_code(*tally(round_.codes, round_.beliefs, len(round_.answers)))]


@dataclass(frozen=True)
class ScriptedReply:
    round: int
    answer: str
    reasoning: str
    belief: float


FALLBACK_RULES = ("repeat_previous", "adopt:leader", "adopt:supportive", "adopt:conflicting")
ADOPT_AGENT = "adopt:agent:"


@dataclass(frozen=True)
class AgentScript:
    """Per-agent scripted replies plus an optional fallback rule.

    Fallback rules: one of FALLBACK_RULES, or "adopt:agent:<id>" naming
    another agent the case scripts; any other rule is an error, and so is a
    second reply for one round. Adopt rules may carry a scripted belief to
    attach to the adopted answer.
    """

    agent_id: str
    replies: tuple[ScriptedReply, ...]
    fallback: str | None = None
    fallback_belief: float | None = None

    def __post_init__(self):
        rule = self.fallback
        adopt_agent = isinstance(rule, str) and rule.startswith(ADOPT_AGENT) and rule != ADOPT_AGENT
        if not (rule is None or rule in FALLBACK_RULES or adopt_agent):
            raise ValueError(f"agent {self.agent_id!r}: unknown fallback rule {rule!r} (rules: "
                             f"{', '.join(FALLBACK_RULES)}, {ADOPT_AGENT}<id>)")
        # no collaborator carries the agent's own id, so this rule could never match
        if rule == ADOPT_AGENT + self.agent_id:
            raise ValueError(f"agent {self.agent_id!r}: fallback rule {rule!r} adopts the "
                             "agent itself")
        rounds = [reply.round for reply in self.replies]
        twice = sorted({r for r in rounds if rounds.count(r) > 1})
        if twice:
            raise ValueError(f"agent {self.agent_id!r}: more than one reply for rounds {twice}")

    def reply_for(self, round_index: int) -> ScriptedReply | None:
        for reply in self.replies:
            if reply.round == round_index:
                return reply
        return None


@dataclass(frozen=True)
class ScenarioCase:
    """One question with its ground truth and optional per-agent scripts."""

    case_id: str
    question: str
    ground_truth: str
    scripts: Mapping[str, AgentScript] | None = None

    def __post_init__(self):
        if self.scripts:
            missing = [aid for aid, s in self.scripts.items() if s.reply_for(1) is None]
            if missing:
                raise ValueError(
                    f"case {self.case_id!r}: scripted agents missing a round-1 reply: {missing}"
                )
            unknown = {aid: s.fallback for aid, s in self.scripts.items()
                       if s.fallback and s.fallback.startswith(ADOPT_AGENT)
                       and s.fallback[len(ADOPT_AGENT):] not in self.scripts}
            if unknown:
                raise ValueError(f"case {self.case_id!r}: fallback rules adopt an agent the case "
                                 f"does not script: {unknown}")


@dataclass(frozen=True)
class RunConfig:
    """Protocol run parameters. Defaults follow the reference experiment setup."""

    n: int = 7
    max_rounds: int = 3
    n_leaders: int = 2
    n_clusters: int = 3
    seed: int = 0
    adversarial_noise: bool = False
    # When set, the least reliable agent also receives supportive delegates
    # alongside conflicting ones (for collaboration-ratio experiments).
    mixed_delegates: bool = False

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("n must be at least 2")
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be at least 1")
        if self.n_leaders < 1:
            raise ValueError("n_leaders must be at least 1")
        if self.n_clusters < 1:
            raise ValueError("n_clusters must be at least 1")


def _script_from_dict(payload: dict) -> AgentScript:
    replies = tuple(
        ScriptedReply(
            round=int(r["round"]),
            answer=canonicalize_answer(str(r["answer"])),
            reasoning=str(r.get("reasoning", "")),
            belief=float(r["belief"]),
        )
        for r in payload.get("rounds", [])
    )
    fallback = payload.get("fallback")
    fallback_belief = None
    if isinstance(fallback, dict):
        fallback_belief = fallback.get("belief")
        fallback = fallback.get("rule")
    return AgentScript(
        agent_id=str(payload["agent_id"]),
        replies=replies,
        fallback=fallback,
        fallback_belief=None if fallback_belief is None else float(fallback_belief),
    )


def scenarios_from_json(path: str | Path) -> list[ScenarioCase]:
    """Load a scenario dataset: {"cases": [{case_id, question, ground_truth, agents}]}."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    cases = []
    seen = set()
    for entry in payload["cases"]:
        case_id = str(entry["case_id"])
        if case_id in seen:
            raise ValueError(f"duplicate case_id {case_id!r} in dataset")
        seen.add(case_id)
        scripts = None
        if entry.get("agents"):
            scripts = {}
            for agent_payload in entry["agents"]:
                try:
                    script = _script_from_dict(agent_payload)
                except ValueError as exc:
                    raise ValueError(f"case {case_id!r}: {exc}") from exc
                if script.agent_id in scripts:
                    raise ValueError(f"case {case_id!r}: agent {script.agent_id!r} listed twice")
                scripts[script.agent_id] = script
        cases.append(
            ScenarioCase(
                case_id=case_id,
                question=str(entry["question"]),
                ground_truth=canonicalize_answer(str(entry["ground_truth"])),
                scripts=scripts,
            )
        )
    return cases
