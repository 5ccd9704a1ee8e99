#!/usr/bin/env python3
"""The repository benchmark: one workload, one closed-loop client, one process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. Workloads are listed in BENCHMARK.json
and described in bench/README.md. The workload itself runs in a fresh
worker process (bench/worker.py). With --trace 0 this prints every
end-to-end metric, each time calibrated to a reference speed (calibrate.py);
set-up time is the median over several fresh processes, each timed from its
start to its first timed operation. With --trace 1 it
prints every per-layer metric from a run that alternates untraced and traced
commands. Human-readable lines come first; the last line of standard output
is one JSON object. The exit code is non-zero when an output check fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from calibrate import REFERENCE_MS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_SAMPLES = 5  # four set-up-only processes plus the measuring one
SETUP_TIMEOUT_S = 60.0
SPARE_S = 120.0  # how long past --seconds the measuring process may take


def _start(args, setup_only: bool, live: list) -> tuple[float, float]:
    """Start a worker, wait for its `ready` line and return its set-up time,
    raw and calibrated (see calibrate.py).

    The worker is appended to `live`, so the caller can stop it on failure.
    """
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    live.append(proc)
    watchdog = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        wall = time.perf_counter() - start
        calibration = proc.stdout.readline().split()
    finally:
        watchdog.cancel()
    if ready.strip() != "ready" or len(calibration) != 3:
        raise RuntimeError("worker did not get ready")
    cpu = min(float(calibration[1]), wall)
    return wall, wall - cpu + cpu * REFERENCE_MS / float(calibration[2])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description="belief-consensus benchmark")
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "belief_consensus" / "__init__.py").is_file():
        print(f"no package source under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2

    setups, live = [], []
    try:
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(_start(args, True, live))
                if live[-1].wait(timeout=SETUP_TIMEOUT_S) != 0:
                    raise RuntimeError(f"set-up-only worker exited {live[-1].returncode}")
        setups.append(_start(args, False, live))
        out, _ = live[-1].communicate(timeout=args.seconds + SPARE_S)
        if live[-1].returncode != 0:
            raise RuntimeError(f"worker exited {live[-1].returncode}")
        result = json.loads(out.strip().splitlines()[-1])
    except (RuntimeError, ValueError, IndexError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        for proc in live:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()

    if args.trace:
        values, listed = result["layers"], spec["per_layer"]
    else:
        setup_s = statistics.median(c for _, c in setups)
        values, listed = {"setup_s": setup_s, **result["e2e"]}, spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{result['attempted']} operations, {result['failed']} failed "
          f"(failed_frac {result['failed'] / max(result['attempted'], 1):.4f})")
    for key, value in result["info"].items():
        print(f"  {key}: {value}")
    if setups and not args.trace:
        print(f"  raw_setup_s: {statistics.median(w for w, _ in setups)}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']} {m['unit']}")
    for problem in result["problems"][:20]:
        print(f"CHECK FAILED: {problem}")
    correct = not result["problems"] and result["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
