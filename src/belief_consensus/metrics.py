"""Consensus-quality metrics over a set of run reports.

For case u with n_s consensus agents, r rounds, and correctness c:

    CL  = mean(n_s / n)          consensus level
    SCL = mean(n_s * c / n)      success consensus level
    SCR = mean(n_s * c / r)      success consensus rate

Accuracy is the fraction of correct cases. A case that failed (it carries an
`error`) is counted in `n_failed` and left out of every mean. Multi-seed
experiment groups are summarized as mean +/- standard error of the mean.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Sequence

from belief_consensus.core import checked, fold, read_fields


@dataclass(frozen=True)
class MetricsSummary:
    cl: float
    scl: float
    scr: float
    accuracy: float
    n_cases: int
    n_failed: int = 0


@dataclass(frozen=True)
class MetricsRow:
    """Minimal per-case facts needed by compute_metrics (RunReport quacks too).

    A failed case has an `error` and no other facts.
    """

    case_id: str
    consensus_count: int = 0
    n_rounds: int = 0
    correct: bool = False
    error: str | None = None


def rows_from_results_jsonl(path: str | Path) -> tuple[list[MetricsRow], int | None]:
    """Read a results file back into metric rows; returns (rows, n from header).

    A failed case's `{"case_id", "error"}` row becomes a row with its error.
    A row that is not an object, lacks a fact or holds one of the wrong kind
    raises ValueError naming its line and key.
    """
    rows: list[MetricsRow] = []
    n = None
    with open(path, "r", encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            where = f"line {number}"
            payload = checked("object", json.loads(line), where)
            if "config" in payload and "case_id" not in payload:
                config = checked("object", payload["config"], f"{where}: config")
                n = checked("object", config.get("run", {}), f"{where}: config.run").get("n")
            elif "error" in payload:
                case_id, error = read_fields(payload, where, extra=True, case_id="text",
                                             error="text")
                rows.append(MetricsRow(case_id, error=error))
            else:
                rows.append(MetricsRow(*read_fields(payload, where, extra=True, case_id="text",
                                                    consensus_count="int", n_rounds="int",
                                                    correct="bool")))
    if not rows:
        raise ValueError("results file holds no case rows")
    return rows, n


def compute_metrics(reports: Sequence, n: int) -> MetricsSummary:
    """The metrics over the cases that ran; the failed ones are only counted."""
    done = [rep for rep in reports if getattr(rep, "error", None) is None]
    if not done:
        raise ValueError("no completed cases to aggregate")
    cl = scl = scr = correct = 0.0
    for rep in done:
        if rep.n_rounds < 1:
            raise ValueError(f"case {rep.case_id!r} has no rounds")
        if not 0 <= rep.consensus_count <= n:
            raise ValueError(f"case {rep.case_id!r} has consensus_count "
                             f"{rep.consensus_count} outside [0, {n}]")
        c = 1.0 if rep.correct else 0.0
        cl += rep.consensus_count / n
        scl += rep.consensus_count * c / n
        scr += rep.consensus_count * c / rep.n_rounds
        correct += c
    k = len(done)
    return MetricsSummary(
        cl=cl / k, scl=scl / k, scr=scr / k, accuracy=correct / k, n_cases=k,
        n_failed=len(reports) - k,
    )


def mean_sem(values: Sequence[float]) -> tuple[float, float]:
    """Mean and standard error of the mean (sample stddev / sqrt(count)),
    each sum added in order."""
    k = len(values)
    if k == 0:
        raise ValueError("no values")
    mean = fold(values) / k
    if k == 1:
        return mean, 0.0
    var = fold([(v - mean) ** 2 for v in values]) / (k - 1)
    return mean, math.sqrt(var) / math.sqrt(k)


def metrics_to_csv(summaries: Sequence[tuple[str, MetricsSummary]], out: IO[str],
                   header_comment: str | None = None):
    if header_comment:
        out.write(f"# {header_comment}\n")
    writer = csv.writer(out)
    writer.writerow(
        ["label", "n_cases", "n_failed", "mean", "sem", "cl", "scl", "scr", "accuracy"]
    )
    for label, s in summaries:
        writer.writerow([label, s.n_cases, s.n_failed, "", "", repr(s.cl), repr(s.scl),
                         repr(s.scr), repr(s.accuracy)])
    if len(summaries) > 1:
        # one row per metric across the settings; n_cases counts the settings
        for name in ("cl", "scl", "scr", "accuracy"):
            mean, sem = mean_sem([getattr(s, name) for _, s in summaries])
            writer.writerow([f"{name}_mean_sem", len(summaries), "", repr(mean), repr(sem),
                             "", "", "", ""])


def format_metrics(summaries: Sequence[tuple[str, MetricsSummary]]) -> str:
    lines = [
        f"{'label':<24} {'cases':>5} {'failed':>6} {'CL':>8} {'SCL':>8} {'SCR':>8} {'acc':>6}"
    ]
    for label, s in summaries:
        lines.append(
            f"{label:<24} {s.n_cases:>5} {s.n_failed:>6} {s.cl:>8.4f} {s.scl:>8.4f} "
            f"{s.scr:>8.4f} {s.accuracy:>6.3f}"
        )
    if len(summaries) > 1:
        parts = []
        for name in ("cl", "scl", "scr", "accuracy"):
            mean, sem = mean_sem([getattr(s, name) for _, s in summaries])
            parts.append(f"{name}={mean:.4f}+/-{sem:.4f}")
        lines.append("groups: " + " ".join(parts))
    return "\n".join(lines)
