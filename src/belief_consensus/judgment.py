"""Consensus judgment: belief-calibrated three-state verdict and Byzantine baseline.

The dominant group A^s holds the most frequent canonical answer; all other
agents form the conflict group A^c. The verdict combines the dominant-group
proportion p_s with the dominant-group belief share p_b:

    Full     iff p_s > 2/3 and p_b > 0.8
    Partial  iff p_s >= 2/n and p_b > 0.5 (and not Full)
    None     otherwise

The Byzantine baseline uses p_s > 2/3 alone, ignoring beliefs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

from belief_consensus.core import RoundColumns, fold, modal_code, tally

FULL = "Full"
PARTIAL = "Partial"
NONE = "None"

FULL_PS_THRESHOLD = 2.0 / 3.0
FULL_PB_THRESHOLD = 0.8
PARTIAL_PB_THRESHOLD = 0.5


@dataclass(frozen=True)
class ConsensusVerdict:
    state: str
    p_s: float
    p_b: float
    dominant_answer: str
    dominant_members: tuple[str, ...]
    conflict_members: tuple[str, ...]


def judge_consensus(opinions: RoundColumns, n: int) -> ConsensusVerdict:
    """Classify the system state from one round's opinions."""
    if not len(opinions):
        raise ValueError("no opinions to judge")
    if len(opinions) != n:
        raise ValueError(f"expected {n} opinions, got {len(opinions)}")
    counts, sums = tally(opinions.codes, opinions.beliefs, len(opinions.answers))
    code = modal_code(counts, sums)
    dominant = (opinions.codes == code).tolist()
    conflict = [not d for d in dominant]
    p_s = counts[code] / n
    support = sums[code]
    dissent = fold(compress(opinions.beliefs.tolist(), conflict))  # in agent order, as support
    p_b = 1.0 if counts[code] == n else support / (support + dissent)
    if p_s > FULL_PS_THRESHOLD and p_b > FULL_PB_THRESHOLD:
        state = FULL
    elif p_s >= 2.0 / n and p_b > PARTIAL_PB_THRESHOLD:
        state = PARTIAL
    else:
        state = NONE
    return ConsensusVerdict(
        state=state,
        p_s=p_s,
        p_b=p_b,
        dominant_answer=opinions.answers[code],
        dominant_members=tuple(compress(opinions.agent_ids, dominant)),
        conflict_members=tuple(compress(opinions.agent_ids, conflict)),
    )


def judge_byzantine(opinions: RoundColumns, n: int) -> tuple[bool, float]:
    """Baseline: consensus iff strictly more than 2/3 of agents share one answer."""
    p_s = judge_consensus(opinions, n).p_s
    return p_s > FULL_PS_THRESHOLD, p_s
