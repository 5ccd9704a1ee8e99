"""Outside-in tracing: spans around the public functions of each layer.

Each wrapped function is replaced where its caller looks it up, because the
package imports by name: `orchestrator` holds its own reference to
`build_groups`, `verification` to `step_supportive`, and so on. Patching
only the defining module would record nothing.

A span is [name, start, end, parent, case_id, failed, info]. Spans stay in
memory and are written out when the run ends. A layer's self time is its
span's duration minus the durations of its child spans.
"""

from __future__ import annotations

import csv
import functools
import statistics
import threading
import time

NAME, START, END, PARENT, CASE, FAILED, INFO = range(7)

VERIFY = {
    "verify_supportive_convergence": "supportive",
    "verify_conflict_instability": "conflicting",
    "verify_leader_convergence": "leader",
    "verify_belief_speedup": "speedup",
}


def _respond_info(args, result):
    return getattr(args[0], "last_retries", 0), result.reasoning


def _cluster_info(args, result):
    vectors, k = args[0], args[1]
    return len({row.tobytes() for row in vectors}), vectors.shape[1], k


def _pairwise_info(args, result):
    return len(result), sum(1 for r in result.values() if r.relation == "Conflicting")


def _property_info(args, result):
    return result.trajectories, result.checks, result.passed


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.case_id: str | None = None
        self._case_span = -1
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, owner, attr: str, name: str, info=None, is_case=False):
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            parent = stack[-1] if stack else tracer._case_span
            span = [name, 0.0, 0.0, parent, tracer.case_id, False, None]
            index = len(tracer.spans)
            tracer.spans.append(span)
            if is_case:
                tracer.case_id = span[CASE] = args[0].case_id
                tracer._case_span = index
            stack.append(index)
            span[START] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                span[FAILED] = True
                raise
            finally:
                span[END] = time.perf_counter()
                stack.pop()
                if is_case:
                    tracer.case_id, tracer._case_span = None, -1
            if info is not None:
                span[INFO] = info(args, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def install(self):
        """Patch every layer boundary. Imports the package, so call after setup."""
        from belief_consensus import agents, cli, dynamics, grouping, orchestrator, verification

        self._wrap(cli, "run_case", "orchestrator.run_case",
                   info=lambda a, r: r.n_rounds, is_case=True)
        self._wrap(cli, "write_results_jsonl", "orchestrator.serialize")
        self._wrap(cli, "rounds_to_csv", "orchestrator.serialize")
        self._wrap(cli, "scenarios_from_json", "core.load")
        self._wrap(agents.StochasticAgent, "respond", "agents.respond", info=_respond_info)
        self._wrap(agents.ChatCompletionsAgent, "respond", "agents.respond", info=_respond_info)
        self._wrap(orchestrator, "build_groups", "grouping.build_groups")
        self._wrap(grouping, "vectorize", "grouping.vectorize")
        self._wrap(grouping, "cluster_opinions", "grouping.cluster", info=_cluster_info)
        self._wrap(orchestrator, "judge_consensus", "judgment.judge",
                   info=lambda a, r: r.state)
        self._wrap(orchestrator, "pairwise_reports", "coordination.pairwise", info=_pairwise_info)
        self._wrap(orchestrator, "assign_collaborators", "coordination.assign")
        self._wrap(orchestrator, "select_leaders", "coordination.leaders")
        # run_dynamics looks its step functions up in `dynamics`; the property
        # checks look them up in `verification`
        for owner in (verification, dynamics):
            for attr in ("step_supportive", "step_conflicting", "step_leader_follow"):
                self._wrap(owner, attr, "dynamics.step")
        for attr in ("averaging_increments", "contrarian_increments", "leader_increments"):
            self._wrap(verification, attr, "dynamics.increments")
        self._wrap(verification, "run_dynamics", "dynamics.run")
        for attr, prop in VERIFY.items():
            self._wrap(verification, attr, f"verification.{prop}", info=_property_info)
        self._wrap(cli, "run_dynamics", "cli.trace_write")
        self._wrap(cli, "trace_to_csv", "cli.trace_write")

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def take(self) -> list[list]:
        """Hand over the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans


def self_times(spans: list[list]) -> list[float]:
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - c for s, c in zip(spans, child)]


def check_case_spans(spans: list[list], case_ids: list[str]) -> list[str]:
    """Every case has one run_case span, and its children nest inside it
    without overlapping, so self time plus children equals the span."""
    problems = []
    cases = [i for i, s in enumerate(spans) if s[NAME] == "orchestrator.run_case"]
    seen = [spans[i][CASE] for i in cases]
    if seen != list(case_ids):
        problems.append(f"run_case spans cover {len(seen)} cases, expected {len(case_ids)}")
    children: dict[int, list[list]] = {i: [] for i in cases}
    for s in spans:
        if s[PARENT] in children:
            children[s[PARENT]].append(s)
    own = self_times(spans)
    for i in cases:
        parent = spans[i]
        last_end = parent[START]
        for c in sorted(children[i], key=lambda s: s[START]):
            if c[START] < last_end or c[END] > parent[END]:
                problems.append(f"case {parent[CASE]}: span {c[NAME]} escapes or overlaps")
                break
            last_end = c[END]
        if own[i] < 0.0:
            problems.append(f"case {parent[CASE]}: children outlast the span")
    for s in spans:
        if s[NAME].startswith(("agents.", "grouping.", "judgment.", "coordination.")) \
                and s[CASE] is None:
            problems.append(f"span {s[NAME]} outside any case")
            break
    return problems


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(spans: list[list], replies: dict | None = None,
                  server_wait_s: float = 0.0) -> dict[str, float]:
    """Per-layer metrics of one traced pass, keyed by metric name."""
    own = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[NAME], []).append(i)

    def spans_of(name):
        return [spans[i] for i in by_name.get(name, [])]

    def total(name, self_only=False):
        return sum(own[i] if self_only else spans[i][END] - spans[i][START]
                   for i in by_name.get(name, []))

    respond = spans_of("agents.respond")
    respond_ms = [(s[END] - s[START]) * 1e3 for s in respond]
    overhead_ms = []
    for s, ms in zip(respond, respond_ms):
        served = replies.get(s[INFO][1]) if (replies is not None and s[INFO]) else None
        overhead_ms.append(ms - (served[2] * 1e3 if served else 0.0))
    cluster = [s[INFO] for s in spans_of("grouping.cluster") if s[INFO]]
    verdicts = [s[INFO] for s in spans_of("judgment.judge")]
    pairwise = [s[INFO] for s in spans_of("coordination.pairwise") if s[INFO]]
    n_reports = sum(p[0] for p in pairwise)
    properties = [s[INFO] for name in VERIFY.values()
                  for s in spans_of(f"verification.{name}") if s[INFO]]

    return {
        "agents.calls": len(respond),
        "agents.busy_s": total("agents.respond"),
        "agents.respond_ms_p50": _median(respond_ms),
        "agents.errors": sum(1 for s in respond if s[FAILED]),
        "agents.retries": sum(s[INFO][0] for s in respond if s[INFO]),
        "agents.server_wait_s": server_wait_s,
        "agents.client_overhead_ms_p50": _median(overhead_ms),
        "grouping.calls": len(by_name.get("grouping.build_groups", [])),
        "grouping.vectorize_s": total("grouping.vectorize"),
        "grouping.cluster_s": total("grouping.cluster"),
        "grouping.distinct_mean": statistics.fmean(c[0] for c in cluster) if cluster else 0.0,
        "grouping.vocab_mean": statistics.fmean(c[1] for c in cluster) if cluster else 0.0,
        "grouping.trivial_ratio": (sum(1 for c in cluster if c[0] <= c[2]) / len(cluster)
                                   if cluster else 0.0),
        "judgment.s": total("judgment.judge"),
        "judgment.full": verdicts.count("Full"),
        "judgment.partial": verdicts.count("Partial"),
        "judgment.none": verdicts.count("None"),
        "coordination.pairwise_s": total("coordination.pairwise"),
        "coordination.assign_s": total("coordination.assign"),
        "coordination.leaders_s": total("coordination.leaders"),
        "coordination.conflicting_ratio": (sum(p[1] for p in pairwise) / n_reports
                                           if n_reports else 0.0),
        "orchestrator.rounds": sum(s[INFO] for s in spans_of("orchestrator.run_case") if s[INFO]),
        "orchestrator.self_s": total("orchestrator.run_case", self_only=True),
        "orchestrator.serialize_s": total("orchestrator.serialize"),
        "core.load_s": total("core.load"),
        "dynamics.steps": len(by_name.get("dynamics.step", [])),
        "dynamics.step_s": total("dynamics.step"),
        "dynamics.increments_s": total("dynamics.increments"),
        "dynamics.run_s": total("dynamics.run", self_only=True),
        **{f"verification.{name}_s": total(f"verification.{name}", self_only=True)
           for name in VERIFY.values()},
        "verification.checks": sum(p[1] for p in properties),
        "verification.trajectories": sum(p[0] for p in properties),
        "cli.trace_write_s": total("cli.trace_write"),
    }


# Counters that must repeat exactly between passes over the same inputs.
EXACT = (
    "agents.calls", "orchestrator.rounds", "judgment.full", "judgment.partial",
    "judgment.none", "grouping.calls", "grouping.trivial_ratio",
    "verification.checks", "verification.trajectories",
)


def write_spans(path, passes: list[list[list]]):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["pass", "index", "name", "start_s", "end_s", "parent", "case_id", "failed"])
        for p, spans in enumerate(passes):
            t0 = spans[0][START] if spans else 0.0
            for i, s in enumerate(spans):
                writer.writerow([p, i, s[NAME], f"{s[START] - t0:.9f}", f"{s[END] - t0:.9f}",
                                 s[PARENT], "" if s[CASE] is None else s[CASE], int(s[FAILED])])
