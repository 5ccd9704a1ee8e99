#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --seeds 1-10 [--workloads a,b] [--trace 0] [--trace 1]
                            [--trace-seeds 1-3] [--out FILE]

For every workload and trace setting it runs bench/run.py once per seed, one
run at a time, and reports each metric's median and quartiles
(`statistics.quantiles(values, n=4)`) and the spread (q3 - q1) / median. An
end-to-end metric is steady when its spread is under a third of its bound in
BENCHMARK.json. Output digests of the first input set must agree between all
runs of one seed, traced or not, and so must the exact per-layer counters.
`--out` writes the summary, with machine information, as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from tracer import EXACT  # noqa: E402


def _seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def machine() -> dict:
    import numpy

    cpu = ""
    try:
        cpu = next(line.split(":", 1)[1].strip()
                   for line in Path("/proc/cpuinfo").read_text().splitlines()
                   if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 1,2,5")
    parser.add_argument("--workloads", default="", help="comma-separated; default all")
    parser.add_argument("--trace", type=int, action="append", choices=(0, 1))
    parser.add_argument("--trace-seeds", help="seeds for --trace 1 runs; default --seeds")
    parser.add_argument("--out", help="write the summary JSON here")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    summary = {"machine": machine(), "run_seconds": spec["run_seconds"], "workloads": {}}
    ok = True
    for workload in workloads:
        digests: dict[int, set] = {}
        counters: dict[int, set] = {}
        entry = summary["workloads"].setdefault(workload, {})
        for trace in args.trace or [0]:
            values: dict[str, list[float]] = {}
            for seed in _seeds(args.trace_seeds if trace and args.trace_seeds else args.seeds):
                proc = subprocess.run(
                    [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                     "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                     "--trace", str(trace)],
                    cwd=ROOT, capture_output=True, text=True,
                )
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0 or not lines:
                    print(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}\n"
                          f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
                    ok = False
                    continue
                result = json.loads(lines[-1])
                digest = re.search(r"^  digest: (\w+)$", proc.stdout, re.M).group(1)
                digests.setdefault(seed, set()).add(digest)
                for name, m in result["metrics"].items():
                    values.setdefault(name, []).append(m["value"])
                for name, value in re.findall(r"^  (raw_\w+): ([0-9.]+)$", proc.stdout, re.M):
                    values.setdefault(name, []).append(float(value))
                if trace:
                    counters.setdefault(seed, set()).add(
                        tuple(result["metrics"][k]["value"] for k in EXACT))
                print(f"{workload} seed {seed} trace {trace}: " + ", ".join(
                    f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                    if k in bounds or trace), flush=True)
            table = {}
            for name, vals in values.items():
                med = statistics.median(vals)
                q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
                spread = (q3 - q1) / med if med else 0.0
                row = {"median": med, "q1": q1, "q3": q3, "spread": spread, "runs": len(vals)}
                table[name] = row
                if name in bounds:
                    row["bound"] = bounds[name]
                    row["steady"] = spread <= bounds[name] / 3 or name == "setup_s"
                    note = f"bound {bounds[name]:.0%}" + ("" if row["steady"] else ", NOT STEADY")
                elif name.startswith("raw_"):
                    note = "raw wall time, ungated"
                else:
                    continue
                print(f"  {workload} {name}: median {med:.6g}, q1 {q1:.6g}, q3 {q3:.6g}, "
                      f"spread {spread:.3%} ({note})")
            entry["trace" if trace else "end_to_end"] = table
        for label, seen in (("digest", digests), ("exact counters", counters)):
            for seed, found in seen.items():
                if len(found) != 1:
                    print(f"  {workload} seed {seed}: {label} differ between runs")
                    ok = False
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
