"""Output checks that gate every benchmark run.

The protocol checks recompute what a report claims from the opinions it
records, using the paper's thresholds rather than the package's own code:
the dominant answer, p_s, p_b, the verdict of each round, the termination
reason and the final answer.
"""

from __future__ import annotations

import hashlib
import math
import re

FULL_PS = 2.0 / 3.0
FULL_PB = 0.8
PARTIAL_PB = 0.5
VOTING_BELIEF = 0.5

# (name, trajectories, step checks) of `simulate` on the full-strength suite
SIMULATE_EXPECTED = (
    ("supportive convergence (all-pairs averaging)", 800, 40000),
    ("conflict instability (belief divergence)", 100, 3000),
    ("leader convergence (to the leader average)", 100, 2539),
    ("belief speedup (higher-belief leaders, 100/100 pairs)", 200, 2400),
)
_PROPERTY_LINE = re.compile(
    r"^(PASS|FAIL) (.+): (\d+) trajectories, (\d+) step checks \[[0-9.]+s\]"
)


def _modal(opinions: list[dict]) -> str:
    tally: dict[str, list] = {}
    for op in opinions:
        entry = tally.setdefault(op["answer"], [0, 0.0])
        entry[0] += 1
        entry[1] += op["belief"]
    return min(tally.items(), key=lambda kv: (-kv[1][0], -kv[1][1], kv[0]))[0]


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-15)


def check_case(case: dict, n: int, max_rounds: int, ground_truth: str) -> list[str]:
    """Problems found in one results.jsonl case object (empty when it is right)."""
    problems = []
    rounds = case["rounds"]
    if not 1 <= len(rounds) <= max_rounds or case["n_rounds"] != len(rounds):
        return [f"{len(rounds)} rounds recorded, budget {max_rounds}"]
    for index, rec in enumerate(rounds, start=1):
        ops = rec["opinions"]
        ids = [op["agent_id"] for op in ops]
        if rec["round"] != index or len(ops) != n or ids != sorted(set(ids)):
            problems.append(f"round {index}: malformed opinions")
            continue
        if not all(0.0 < op["belief"] <= 1.0 for op in ops):
            problems.append(f"round {index}: belief outside (0, 1]")
        members = sorted(m for g in rec["groups"] for m in g["members"])
        if members != ids:
            problems.append(f"round {index}: groups do not partition the agents")
        answer = _modal(ops)
        dominant = [op for op in ops if op["answer"] == answer]
        dissent = [op for op in ops if op["answer"] != answer]
        p_s = len(dominant) / n
        support = sum(op["belief"] for op in dominant)
        p_b = 1.0 if not dissent else support / (support + sum(op["belief"] for op in dissent))
        if p_s > FULL_PS and p_b > FULL_PB:
            state = "Full"
        elif p_s >= 2.0 / n and p_b > PARTIAL_PB:
            state = "Partial"
        else:
            state = "None"
        verdict = rec["verdict"]
        if (verdict["state"], verdict["dominant_answer"], rec["branch"]) != (state, answer, state) \
                or not (_close(verdict["p_s"], p_s) and _close(verdict["p_b"], p_b)):
            problems.append(f"round {index}: verdict {verdict['state']} disagrees with {state}")
        if state == "Full" and index != len(rounds):
            problems.append(f"round {index}: full consensus did not stop the case")
        if state == "Partial" and "assignment" not in rec:
            problems.append(f"round {index}: partial consensus without an assignment")
        if state == "None" and "leaders" not in rec:
            problems.append(f"round {index}: no consensus without leaders")
    if problems:
        return problems
    last = rounds[-1]["opinions"]
    final = _modal(last)
    if rounds[-1]["verdict"]["state"] == "Full":
        terminated = "FullConsensus"
    elif all(op["belief"] < VOTING_BELIEF for op in last):
        terminated = "VotingFallback"
    else:
        terminated = "MaxRounds"
    if terminated != "FullConsensus" and len(rounds) != max_rounds:
        problems.append("stopped before the round budget without full consensus")
    expected = (final, terminated, sum(op["answer"] == final for op in last), final == ground_truth)
    got = (case["final_answer"], case["terminated_by"], case["consensus_count"], case["correct"])
    if got != expected:
        problems.append(f"final state {got} differs from {expected}")
    return problems


def check_replies(case: dict, replies: dict) -> list[str]:
    """Every opinion must carry the answer and belief the endpoint sent."""
    for rec in case["rounds"]:
        for op in rec["opinions"]:
            sent = replies.get(op["reasoning"])
            if sent is None:
                return [f"round {rec['round']}: opinion of {op['agent_id']} matches no reply"]
            if op["answer"] != sent[0] or not _close(op["belief"], sent[1]):
                return [f"round {rec['round']}: {op['agent_id']} parsed "
                        f"({op['answer']}, {op['belief']}) from a reply of ({sent[0]}, {sent[1]})"]
    return []


def digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode("utf-8") if isinstance(line, str) else line)
        h.update(b"\n")
    return h.hexdigest()


def check_simulate(stdout: str) -> tuple[list[bool], list[str], list[str]]:
    """(per-property ok flags, problems, lines without their elapsed seconds)."""
    lines = [line for line in stdout.splitlines() if _PROPERTY_LINE.match(line)]
    ok, problems = [], []
    for i, (name, trajectories, checks) in enumerate(SIMULATE_EXPECTED):
        if i >= len(lines):
            ok.append(False)
            problems.append(f"no verdict for {name}")
            continue
        status, got_name, got_t, got_c = _PROPERTY_LINE.match(lines[i]).groups()
        good = (status, got_name, int(got_t), int(got_c)) == ("PASS", name, trajectories, checks)
        ok.append(good)
        if not good:
            problems.append(f"unexpected verdict: {lines[i]}")
    if len(lines) != len(SIMULATE_EXPECTED):
        problems.append(f"{len(lines)} verdict lines, expected {len(SIMULATE_EXPECTED)}")
    stripped = [re.sub(r" \[[0-9.]+s\]", "", line) for line in lines]
    return ok, problems, stripped
