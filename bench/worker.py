"""One benchmark process: set a workload up, measure it, check its outputs.

Started by run.py. Prints `ready` right before its first timed operation,
then, after measuring, one JSON object with the metrics and check results.

    worker.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import belief_consensus  # noqa: E402
from belief_consensus import cli  # noqa: E402

import checks  # noqa: E402
import tracer  # noqa: E402
from calibrate import Probe, reference  # noqa: E402
from fake_endpoint import FakeEndpoint  # noqa: E402

NPROC = len(os.sched_getaffinity(0))

# Cases per `run` command: two to three seconds of work each on a 2-core
# machine, so a 25 s run has several commands to take medians over.
WORKLOADS = {
    "stochastic-n7": {"backend": "stochastic", "n": 7, "max_rounds": 5, "cases": 100},
    "stochastic-n200": {"backend": "stochastic", "n": 200, "max_rounds": 5, "cases": 24},
    "http-n16": {"backend": "http", "n": 16, "max_rounds": 3, "cases": 16},
    "simulate-suite": {"backend": None},
}
N_CLUSTERS = 3
N_LEADERS = 2
# configs/simulate.yaml at full strength; its check counts are the output check
SIMULATE_CONFIG = {
    "n_min": 3, "n_max": 10, "seeds": 100, "modes": ["supportive", "conflicting", "leader", "speedup"],
    "tol": 1.0e-9, "max_steps": 10000, "master_seed": 0, "trace_seeds": 1,
}


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _write_yaml(path: Path, payload: dict):
    # JSON is valid YAML, so the config needs no YAML writer
    path.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")


@dataclass
class Pass:
    """What one CLI command did: its calibrated and raw times, and its checks."""

    command_s: float
    op_ms: list[float]
    raw_command_s: float
    raw_op_ms: list[float]
    digest: str
    attempted: int
    failed: int
    problems: list[str]
    layers: dict | None = None


class ProtocolWorkload:
    """`belief-consensus run` over generated question-only datasets."""

    def __init__(self, name: str, seed: int, work: Path, probe: Probe):
        self.spec = WORKLOADS[name]
        self.seed = seed
        self.work = work
        self.probe = probe
        self.endpoint = None
        self._cases: dict[int, list[dict]] = {}
        self._timings: list[tuple[str, tuple, tuple, bool]] = []
        backend = {"kind": self.spec["backend"]}
        config = {
            "run": {"n": self.spec["n"], "max_rounds": self.spec["max_rounds"],
                    "n_leaders": N_LEADERS, "n_clusters": N_CLUSTERS, "seed": seed,
                    "adversarial_noise": False, "jobs": 1},
            "backend": backend,
        }
        if self.spec["backend"] == "http":
            self.endpoint = FakeEndpoint(workers=NPROC).start()
            http = {"kind": "http", "endpoint": self.endpoint.url, "timeout": 10.0,
                    "retries": 2, "backoff": 0.05}
            backend.update(http, model="model-00")
            config["backends"] = [
                {**http, "agent_id": f"agent-{i + 1}", "model": f"model-{i + 1:02d}"}
                for i in range(self.spec["n"])
            ]
        self.config = work / "config.yaml"
        _write_yaml(self.config, config)
        cli.scenarios_from_json(self._dataset(0))
        self._time_cases()

    def _time_cases(self):
        run_case = cli.run_case
        timings = self._timings
        mark = self.probe.mark

        def timed(case, cfg, backends):
            begin = mark()
            try:
                report = run_case(case, cfg, backends)
            except BaseException:
                timings.append((case.case_id, begin, mark(), False))
                raise
            timings.append((case.case_id, begin, mark(), True))
            return report

        cli.run_case = timed

    def _dataset(self, chunk: int) -> Path:
        path = self.work / f"dataset-{chunk}.json"
        if chunk not in self._cases:
            rng = random.Random(f"{self.seed}:{chunk}")
            words = ("mass", "field", "spin", "charge", "decay", "orbit", "phase", "flux")
            cases = []
            for i in range(self.spec["cases"]):
                options = ", ".join(
                    f"{letter}) {rng.randint(1, 999)}.{rng.randint(0, 99):02d} {rng.choice(words)}"
                    for letter in "ABCD"
                )
                cases.append({
                    "case_id": f"s{self.seed}-b{chunk}-q{i}",
                    "question": f"Item {rng.randint(1, 10**6)}: which {rng.choice(words)} "
                                f"value fits the {rng.choice(words)} data? {options}.",
                    "ground_truth": rng.choice("ABCD"),
                })
            path.write_text(json.dumps({"cases": cases}), encoding="utf-8")
            self._cases[chunk] = cases
        return path

    def command(self, chunk: int) -> Pass:
        dataset = self._dataset(chunk)
        cases = self._cases[chunk]
        out = self.work / "out"
        self._timings.clear()
        sink_out, sink_err = io.StringIO(), io.StringIO()
        begin = self.probe.mark()
        with redirect_stdout(sink_out), redirect_stderr(sink_err):
            rc = cli.main(["run", "--config", str(self.config), "--dataset", str(dataset),
                           "--out", str(out)])
        raw_s, command_s = self.probe.calibrated(begin, self.probe.mark())
        ops = [self.probe.calibrated(b, e) for _, b, e, _ in self._timings]

        problems = [] if rc == 0 else [f"run exited {rc}"]
        raised = {cid for cid, _, _, ok in self._timings if not ok}
        lines = (out / "results.jsonl").read_text(encoding="utf-8").splitlines()[1:]
        by_id = {}
        for line in lines:
            case = json.loads(line)
            by_id[case["case_id"]] = case
        failed = 0
        rows = 0
        for spec in cases:
            case = by_id.get(spec["case_id"])
            if spec["case_id"] in raised or case is None:
                failed += 1
                continue
            rows += len(case["rounds"]) * self.spec["n"]
            found = checks.check_case(case, self.spec["n"], self.spec["max_rounds"],
                                      spec["ground_truth"])
            if self.endpoint is not None and not found:
                found = checks.check_replies(case, self.endpoint.replies)
            if found:
                failed += 1
                problems.append(f"{spec['case_id']}: {found[0]}")
        csv_rows = (out / "traces" / "rounds.csv").read_text(encoding="utf-8").count("\n") - 2
        if csv_rows != rows:
            problems.append(f"rounds.csv holds {csv_rows} rows, results imply {rows}")
        if not (out / "metrics.csv").is_file():
            problems.append("no metrics.csv written")
        if raised:
            problems.append(f"{len(raised)} cases raised: {sink_err.getvalue().strip()[:200]}")
        if self.endpoint is not None and self.endpoint.non_200:
            problems.append(f"endpoint answered {self.endpoint.non_200} requests with non-200")
        return Pass(command_s, [c * 1e3 for _, c in ops], raw_s, [w * 1e3 for w, _ in ops],
                    checks.digest(lines), len(cases), failed, problems)

    def case_ids(self, chunk: int) -> list[str]:
        return [c["case_id"] for c in self._cases[chunk]]

    def close(self):
        if self.endpoint is not None:
            self.endpoint.close()


class SimulateWorkload:
    """`belief-consensus simulate` over the full-strength property suite."""

    def __init__(self, name: str, seed: int, work: Path, probe: Probe):
        self.work = work
        self.probe = probe
        self.endpoint = None
        self.config = work / "simulate.yaml"
        _write_yaml(self.config, {"simulate": SIMULATE_CONFIG})

    def command(self, chunk: int) -> Pass:
        out = self.work / "out"
        sink = io.StringIO()
        begin = self.probe.mark()
        with redirect_stdout(sink):
            rc = cli.main(["simulate", "--config", str(self.config), "--out", str(out)])
        raw_s, command_s = self.probe.calibrated(begin, self.probe.mark())
        ok, problems, lines = checks.check_simulate(sink.getvalue())
        if rc != 0:
            problems.insert(0, f"simulate exited {rc}")
        traces = sorted((out / "traces").glob("*.csv"))
        if len(traces) != 3:
            problems.append(f"{len(traces)} trace files written, expected 3")
        digest = checks.digest(lines + [p.read_bytes() for p in traces])
        return Pass(command_s, [command_s * 1e3], raw_s, [raw_s * 1e3], digest, len(ok),
                    ok.count(False), problems)

    def case_ids(self, chunk: int) -> list[str]:
        return []

    def close(self):
        pass


def _reference_ms(repeats: int = 21) -> float:
    took = []
    for _ in range(repeats):
        start = time.perf_counter()
        reference()
        took.append((time.perf_counter() - start) * 1e3)
    return statistics.median(took)


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload, seconds: float) -> dict:
    """Untraced run: commands over distinct inputs until the time is up, then a
    repeat of the first command. `simulate` has a single input, so every
    command after its first is a repeat."""
    simulate = isinstance(workload, SimulateWorkload)
    start = time.perf_counter()
    passes = []
    while True:
        passes.append(workload.command(0 if simulate else len(passes)))
        est = statistics.median(p.raw_command_s for p in passes)
        # a protocol run keeps one command's time for its repeat
        if time.perf_counter() - start + est * (1 if simulate else 2) > seconds \
                and len(passes) >= (2 if simulate else 1):
            break
    repeats = passes[1:] if simulate else [workload.command(0)]
    everything = passes if simulate else passes + repeats
    problems = [q for p in everything for q in p.problems]
    if any(r.digest != passes[0].digest for r in repeats):
        problems.append("results digest changed between repetitions of the same inputs")
    def times(calibrated: bool) -> dict:
        ops = [ms for p in passes for ms in (p.op_ms if calibrated else p.raw_op_ms)]
        return {
            "command_s": statistics.median(p.command_s if calibrated else p.raw_command_s
                                           for p in passes),
            "op_ms_p50": statistics.median(ops),
            # two suites per run leave simulate-suite no tail to measure
            "op_ms_p90": statistics.median(ops) if simulate else percentile(ops, 0.9),
        }

    raw = times(calibrated=False)
    return {
        "e2e": {**times(calibrated=True), "peak_rss_mb": _rss_mb()},
        "info": {
            "commands": len(passes),
            "op_samples": sum(len(p.op_ms) for p in passes),
            **{f"raw_{k}": v for k, v in raw.items()},
            "raw_command_s_each": " ".join(f"{p.raw_command_s:.3f}" for p in everything),
            "raw_ops_per_s": (sum(p.attempted for p in passes)
                              / sum(p.raw_command_s for p in passes)),
            "reference_ms": workload.probe.median_ms(),
            "digest": passes[0].digest,
        },
        "attempted": sum(p.attempted for p in everything),
        "failed": sum(p.failed for p in everything),
        "problems": problems,
    }


def measure_traced(workload, seconds: float, spans_path: Path) -> dict:
    """Alternate untraced and traced commands over the first input set."""
    start = time.perf_counter()
    untraced, traced, installs, span_log = [], [], [], []
    rss_before = None
    while True:
        untraced.append(workload.command(0))
        if rss_before is None:
            rss_before = _rss_mb()
        tr = tracer.Tracer()
        t = time.perf_counter()
        tr.install()
        installs.append(time.perf_counter() - t)
        endpoint = workload.endpoint
        wait0 = endpoint.service_s if endpoint else 0.0
        try:
            p = workload.command(0)
        finally:
            tr.uninstall()
        spans = tr.take()
        span_log.append(spans)
        p.problems += tracer.check_case_spans(spans, workload.case_ids(0))
        p.layers = tracer.layer_metrics(
            spans, endpoint.replies if endpoint else None,
            (endpoint.service_s - wait0) if endpoint else 0.0,
        )
        traced.append(p)
        pair = statistics.median(a.raw_command_s + b.raw_command_s
                                 for a, b in zip(untraced, traced))
        if time.perf_counter() - start + pair > seconds:
            break
    rss_after = _rss_mb()
    tracer.write_spans(spans_path, span_log)

    passes = untraced + traced
    problems = [q for p in passes for q in p.problems]
    if any(p.digest != passes[0].digest for p in passes):
        problems.append("results digest differs between traced and untraced commands")
    for key in tracer.EXACT:
        if len({p.layers[key] for p in traced}) != 1:
            problems.append(f"exact counter {key} changed between repetitions")

    layers = {key: statistics.median(p.layers[key] for p in traced) for key in traced[0].layers}
    for key in tracer.EXACT:
        layers[key] = traced[0].layers[key]
    for name, fn in (("command_s", lambda p: p.command_s),
                     ("op_ms_p50", lambda p: statistics.median(p.op_ms)),
                     ("op_ms_p90", lambda p: percentile(p.op_ms, 0.9))):
        layers[f"trace.overhead_{name}"] = (statistics.median(map(fn, traced))
                                            - statistics.median(map(fn, untraced)))
    layers["trace.overhead_setup_s"] = statistics.median(installs)
    layers["trace.overhead_peak_rss_mb"] = rss_after - rss_before
    return {
        "layers": layers,
        "info": {"commands": len(passes), "traced_commands": len(traced),
                 "spans": sum(len(s) for s in span_log), "digest": passes[0].digest},
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "problems": problems,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    if Path(belief_consensus.__file__).resolve().parent != SRC / "belief_consensus":
        print(f"belief_consensus imported from {belief_consensus.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    work = ROOT / ".bench_out" / args.workload / str(os.getpid())
    work.mkdir(parents=True)
    try:
        kind = SimulateWorkload if WORKLOADS[args.workload]["backend"] is None \
            else ProtocolWorkload
        probe = Probe()
        workload = kind(args.workload, args.seed, work, probe)
        try:
            usage = resource.getrusage(resource.RUSAGE_SELF)
            print("ready", flush=True)
            # calibrates the set-up time the parent measured up to `ready`
            print(f"setup-cpu {usage.ru_utime + usage.ru_stime} {_reference_ms()}", flush=True)
            if args.setup_only:
                return 0
            probe.start()
            try:
                if args.trace:
                    result = measure_traced(workload, args.seconds, work.parent / "spans.csv")
                else:
                    result = measure(workload, args.seconds)
            finally:
                probe.stop()
        finally:
            workload.close()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
