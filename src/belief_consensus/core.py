"""Shared data model: opinions, rounds, scenarios, run configuration, belief math.

Every other module consumes these types. A round of a run travels as
RoundColumns, every agent's opinion as one row of columns; an Opinion, one
agent's (reasoning, answer, belief) triple, is made only where one reply is
parsed or scripted. Answers are always stored in canonical form so that
answer equality is plain byte equality. Every value a config, dataset or
results file gives is read by `checked`.
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


# a sentence ends at ".", "!" or "?" not followed by a digit, so not at the "." of 1.5
_SENTENCE_END = re.compile(r"[.!?](?!\d)")
# a "the answer is" clause holds what follows it to its sentence's end, or to
# the next "the answer is", which starts a clause of its own
_FRAME = r"\bthe\s+answer\s+is\b"
_ANSWER_CLAUSE = re.compile(rf"{_FRAME}[:\s]*((?:(?!{_FRAME})[^.!?]|[.!?](?=\d))*)",
                            re.IGNORECASE)
_CHOICE_LABEL = re.compile(r"\(([A-Za-z0-9]{1,3})\)")
# an answer written whole as a choice label, in math mode, as \text{...} or
# as an integer with a ".0": the last group it matches holds the answer
_WHOLE = re.compile(_CHOICE_LABEL.pattern + r"|(\$\$?)([^$]+)\2|\\text\{([^{}]*)\}|(-?\d+)\.0+")
# MATH spellings of one answer: the "d" or "t" of \dfrac and \tfrac, \left and
# \right, a \sqrt of one unbraced character, and a \frac one of whose two
# arguments (one character, or a brace group with at most one level nested)
# is unbraced. A \sqrt of a command or with an index ("[3]") stays as it is.
_SPELLING = re.compile(r"(?<=\\)[dt](?=frac(?![A-Za-z]))|\\(?:left|right)(?![A-Za-z])")
_SQRT = re.compile(r"\\sqrt(?![A-Za-z])([^{}\[\\\s])")
_GROUP = r"\{(?:[^{}]|\{[^{}]*\})*\}"
_FRAC = re.compile(r"\\frac(?![A-Za-z])(?=[^{}\\\s]|" + _GROUP + r"[^{}\\\s])"
                   + (r"(" + _GROUP + r"|[^{}\\\s])") * 2)


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


def _answer_anchor(text: str) -> tuple[tuple[int, int], tuple[int, int]] | None:
    """Spans of the last "the answer is" clause or balanced `\\boxed{...}`
    (`last_boxed`), which wins over a clause it overlaps, and of what that
    anchor holds; None if the text has neither."""
    anchors = [(m.span(), m.span(1)) for m in _ANSWER_CLAUSE.finditer(text)]
    boxed = last_boxed(text)
    if boxed:
        anchors = [a for a in anchors if a[0][1] <= boxed[0] or a[0][0] >= boxed[1]]
        anchors.append((boxed, (boxed[0] + 7, boxed[1] - 1)))
    return max(anchors, default=None)


def answer_spans(content: str) -> tuple[tuple[int, int], tuple[int, int]] | None:
    """Character spans of the final answer's anchor and of the sentence around
    it, or None if unanswerable.

    The anchor is that of `_answer_anchor`. A bare choice label such as "(C)"
    anchors only in a reply with neither a clause nor a box, so a label after
    the answer sentence does not take the answer.
    """
    found = _answer_anchor(content)
    labels = (m.span() for m in _CHOICE_LABEL.finditer(content))
    anchor = found[0] if found else max(labels, default=None)
    if anchor is None:
        return None
    ends = (m.end() for m in _SENTENCE_END.finditer(content) if m.end() <= anchor[0])
    start = max(ends, default=0)
    stop = _SENTENCE_END.search(content, anchor[1])
    end = stop.end() if stop else len(content)
    while start < end and content[start].isspace():
        start += 1
    return anchor, (start, end)


def canonicalize_answer(raw: str) -> str:
    """Reduce a raw answer (or a whole reply) to its canonical form.

    Takes what the last "the answer is" clause or `\\boxed{...}` holds (see
    `_answer_anchor`), or the whole text if it has neither, collapses its
    whitespace runs and unwraps a whole parenthesized choice label such as
    "(B)" (a label inside a longer answer, as in "f(2)", stays), an answer
    wrapped whole in `$...$` or `\\text{...}` (with no braces inside), and an
    integer's trailing ".0"; `\\dfrac` and `\\tfrac` become `\\frac`, whose
    one-character arguments get braces, as does a `\\sqrt`'s, and
    `\\left`/`\\right` go. These steps repeat until none changes the text (so
    "\\boxed{the answer is 5}" gives "5"). Case of symbolic content is
    preserved; two answers agree iff their canonical forms are byte-equal, so
    "0.5" and "\\frac{1}{2}" stay two answers: numeric equality is not tested.
    """
    if raw is None or not raw.strip():
        raise ValueError("unanswerable output")
    text, last = raw, None
    while text != last:
        last = text
        found = _answer_anchor(text)
        if found:
            text = text[found[1][0]:found[1][1]]
        text = " ".join(text.split())
        whole = _WHOLE.fullmatch(text)
        if whole:
            text = whole[whole.lastindex]
        text = _FRAC.sub(lambda m: "\\frac" + "".join(a if a[0] == "{" else f"{{{a}}}"
                                                       for a in m.groups()),
                         _SQRT.sub(r"\\sqrt{\1}", _SPELLING.sub("", text)))
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
    id order, so the layers break ties between rows by position. A round
    rejects a column whose length is not the number of agents, a code or
    text id outside its table and, like an Opinion, a belief outside (0, 1]
    and an empty answer.
    """

    agent_ids: tuple[str, ...]
    answers: tuple[str, ...]
    codes: np.ndarray
    beliefs: np.ndarray
    texts: tuple[str, ...]
    text_ids: np.ndarray

    def __post_init__(self):
        columns = (self.codes, self.beliefs, self.text_ids)
        codes = self.codes.tolist()
        ids = ((codes, self.answers), (self.text_ids.tolist(), self.texts))
        if (any(len(c) != len(self.agent_ids) for c in columns)
                or any(i and not 0 <= min(i) <= max(i) < len(table) for i, table in ids)):
            raise ValueError(f"malformed round: {len(self.agent_ids)} agents, column lengths "
                             f"{[len(c) for c in columns]}, ids past a table or negative")
        for column in columns:
            column.flags.writeable = False
        beliefs = self.beliefs
        # NaN fails both comparisons, as it fails Opinion's check
        if not (beliefs.min(initial=1.0) > 0.0 and beliefs.max(initial=1.0) <= 1.0):
            belief = beliefs[~((beliefs > 0.0) & (beliefs <= 1.0))][0].item()
            raise ValueError(f"invalid probability: belief {belief!r} outside (0, 1]")
        if not all(self.answers[c].strip() for c in set(codes)):  # blanks no row uses pass
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

    @cached_property
    def belief_texts(self) -> list[str]:
        """Each row's belief as `repr` and `json` write it, for the writers."""
        return list(map(float.__repr__, self.beliefs.tolist()))

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
    """An agent's scripted reply for one round, from 1 on, believed in (0, 1]."""

    round: int
    answer: str
    reasoning: str
    belief: float

    def __post_init__(self):
        if self.round < 1:
            raise ValueError(f"round must be at least 1, got {self.round}")
        _check_belief("belief", self.belief)


def _check_belief(what: str, belief: float):
    if not 0.0 < belief <= 1.0:  # NaN fails it too
        raise ValueError(f"{what} must lie in (0, 1], got {belief!r}")


# the tag of a delegate, an (agent id, tag) pair: coordination writes them,
# the backends read them
TAG_SUPPORTIVE = "supportive"
TAG_CONFLICTING = "conflicting"
TAG_LEADER = "leader"

FALLBACK_RULES = ("repeat_previous",
                  *(f"adopt:{tag}" for tag in (TAG_LEADER, TAG_SUPPORTIVE, TAG_CONFLICTING)))
ADOPT_AGENT = "adopt:agent:"


@dataclass(frozen=True)
class AgentScript:
    """Per-agent scripted replies plus an optional fallback rule.

    Fallback rules: one of FALLBACK_RULES, or "adopt:agent:<id>" naming
    another agent the case scripts; any other rule is an error, and so is a
    second reply for one round. Adopt rules may carry a scripted belief, in
    (0, 1], to attach to the adopted answer.
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
        if self.fallback_belief is not None:
            _check_belief(f"agent {self.agent_id!r}: fallback.belief", self.fallback_belief)
        rounds = [reply.round for reply in self.replies]
        twice = sorted({r for r in rounds if rounds.count(r) > 1})
        if twice:
            raise ValueError(f"agent {self.agent_id!r}: more than one reply for rounds {twice}")

    def reply_for(self, round_index: int) -> ScriptedReply | None:
        return next((reply for reply in self.replies if reply.round == round_index), None)


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
        for name, least in (("n", 2), ("max_rounds", 1), ("n_leaders", 1), ("n_clusters", 1),
                            ("seed", 0)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be at least {least}")


# the kinds of value a config, dataset or results file may hold: each one's
# Python type and the words an error names it by. "path" is a config path,
# "text" a dataset string, which a number may stand for, and "any" a value
# its reader checks itself
KINDS = {"int": (int, "an integer"), "float": (float, "a number"), "bool": (bool, "true or false"),
         "str": (str, "a string"), "path": (str, "a string"), "text": (str, "a string or a number"),
         "object": (dict, "a mapping"), "array": (list, "a list"), "any": (object, "")}


def checked(kind: str, value, where: str, error: type[Exception] = ValueError):
    """`value` read as a value of `kind`, a key of KINDS or list[<kind>] (a
    non-empty list); one of another kind raises `error` naming `where`. A
    number is an int, a float or a numeric string (YAML reads the JSON number
    1e-09 as one) and reads as a float, and a number given as text reads as
    `str` writes it; true and false are neither, nor integers."""
    if kind.startswith("list["):
        if type(value) is not list or not value:
            raise error(f"{where} must be a non-empty list, got {value!r}")
        return [checked(kind[5:-1], v, where, error) for v in value]
    cls, words = KINDS[kind]
    if type(value) is cls or cls is object:  # type(True) is bool, not int
        return value
    if kind == "text" and type(value) in (int, float):
        return str(value)
    if kind == "float" and type(value) is not bool:
        try:
            return float(value)
        except (TypeError, ValueError, OverflowError):
            pass
    raise error(f"{where} must be {words}, got {value!r}")


def read_fields(record, where: str, *, extra: bool = False, **kinds: str) -> list:
    """The values of mapping `record`'s keys, each read as its kind in
    `kinds`, in that order; a kind ending in "?" marks a key that may be
    missing, which reads as None. A key `kinds` does not name is an error
    naming it, unless `extra`; a value of another kind, one naming
    "<where>: <key>"; missing keys, one listing every one missing."""
    record = checked("object", record, where)
    unknown = [] if extra else [key for key in record if key not in kinds]
    if unknown:
        raise ValueError(f"{where}: unknown key {unknown[0]!r} (keys: {', '.join(kinds)})")
    missing = [key for key, kind in kinds.items() if key not in record and kind[-1] != "?"]
    if missing:
        raise ValueError(f"{where}: {', '.join(missing)} {'are' if missing[1:] else 'is'} missing")
    return [checked(kind.rstrip("?"), record[key], f"{where}: {key}") if key in record else None
            for key, kind in kinds.items()]


def _reply_from_dict(payload, where: str) -> ScriptedReply:
    round_, answer, belief, reasoning = read_fields(payload, where, round="int", answer="text",
                                                    belief="float", reasoning="text?")
    try:
        return ScriptedReply(round_, canonicalize_answer(answer), reasoning or "", belief)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def _script_from_dict(payload, where: str) -> AgentScript:
    agent_id, = read_fields(payload, where, extra=True, agent_id="text")
    where = f"agent {agent_id!r}"
    _, rounds, fallback = read_fields(payload, where, agent_id="text", rounds="array?",
                                      fallback="any?")
    replies = tuple(_reply_from_dict(r, f"{where}: reply {i}")
                    for i, r in enumerate(rounds or (), 1))
    belief = None
    if isinstance(fallback, dict):  # {"rule", "belief"}
        fallback, belief = read_fields(fallback, f"{where}: fallback", rule="any?",
                                       belief="float?")
    return AgentScript(agent_id, replies, fallback, belief)


def scenarios_from_json(path: str | Path) -> list[ScenarioCase]:
    """Load a scenario dataset: {"cases": [{case_id, question, ground_truth, agents}]}.
    A value of the wrong kind, out of range or missing, and a key the format
    does not know, raise ValueError."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    cases = {}
    for number, entry in enumerate(read_fields(payload, "the dataset", cases="array")[0], 1):
        case_id, = read_fields(entry, f"case {number}", extra=True, case_id="text")
        if case_id in cases:
            raise ValueError(f"duplicate case_id {case_id!r} in dataset")
        where = f"case {case_id!r}"
        _, question, ground_truth, agents = read_fields(
            entry, where, case_id="text", question="text", ground_truth="text", agents="array?")
        try:
            ground_truth = canonicalize_answer(ground_truth)
        except ValueError as exc:
            raise ValueError(f"{where}: ground_truth: {exc}") from None
        scripts = None
        if agents:
            scripts = {}
            for i, agent in enumerate(agents, 1):
                try:
                    script = _script_from_dict(agent, f"agent {i}")
                except ValueError as exc:
                    raise ValueError(f"{where}: {exc}") from exc
                if script.agent_id in scripts:
                    raise ValueError(f"{where}: agent {script.agent_id!r} listed twice")
                scripts[script.agent_id] = script
        cases[case_id] = ScenarioCase(case_id, question, ground_truth, scripts)
    return list(cases.values())
