"""Command-line entry point: protocol runs, dynamics verification, metrics.

    belief-consensus run --config cfg.yaml [overrides]
    belief-consensus simulate --config cfg.yaml
    belief-consensus metrics results.jsonl [more.jsonl ...]

Configuration is a YAML file with nested sections (run / backend / simulate /
sweep); command-line flags override file values. The effective configuration
is echoed into every output file header. Exit codes: 0 success, 1 invalid
configuration (or failed dynamics property), 2 unreadable dataset, 3 a run
in which one or more cases raised (the other cases' outputs are written, and
each failed case is a `{"case_id", "error"}` row of results.jsonl).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict
from pathlib import Path

import yaml

from belief_consensus.agents import BACKEND_KINDS, BackendConfig, make_backend
from belief_consensus.core import RunConfig, ScenarioCase, scenarios_from_json
from belief_consensus.dynamics import (
    DynamicsState,
    DynamicsTopology,
    run_dynamics,
    trace_to_csv,
)
from belief_consensus.metrics import (
    compute_metrics,
    format_metrics,
    metrics_to_csv,
    rows_from_results_jsonl,
)
from belief_consensus.orchestrator import (
    CaseFailure,
    RunReport,
    rounds_to_csv,
    run_case,
    write_results_jsonl,
)
from belief_consensus.verification import run_property_suite, uniform_draws

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATASET = 2
EXIT_CASES_FAILED = 3


class ConfigError(ValueError):
    pass


def _load_config(path: str | None) -> tuple[dict, Path]:
    if path is None:
        return {}, Path.cwd()
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    try:
        with open(p, "r", encoding="utf-8") as fh:
            payload = yaml.safe_load(fh) or {}
    except yaml.YAMLError as exc:
        raise ConfigError(f"config file is not valid YAML: {exc}") from exc
    if not isinstance(payload, dict):
        raise ConfigError("config file must contain a mapping at top level")
    return payload, p.parent


def _resolve(base: Path, value: str) -> Path:
    p = Path(value)
    return p if p.is_absolute() else (base / p)


def _integer(key: str, value) -> int:
    """A config value that must be an integer; `int()` would truncate 3.9."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return value


def _boolean(key: str, value) -> bool:
    """A config value that must be true or false; `bool("false")` is True."""
    if not isinstance(value, bool):
        raise ConfigError(f"{key} must be true or false, got {value!r}")
    return value


def _run_config_from(section: dict, args) -> RunConfig:
    def pick(flag, key, default):
        if flag is not None:
            return flag
        return _integer(f"run.{key}", section.get(key, default))

    try:
        noise = _boolean("run.adversarial_noise", section.get("adversarial_noise", False))
        return RunConfig(
            n=pick(args.agents, "n", 7),
            max_rounds=pick(args.max_rounds, "max_rounds", 3),
            n_leaders=pick(args.leaders, "n_leaders", 2),
            n_clusters=pick(args.clusters, "n_clusters", 3),
            seed=pick(args.seed, "seed", 0),
            adversarial_noise=args.adversarial_noise or noise,
            mixed_delegates=_boolean("run.mixed_delegates", section.get("mixed_delegates", False)),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid run configuration: {exc}") from exc


def _backend_config_from(section: dict, kind_override: str | None,
                         name: str = "backend") -> BackendConfig:
    try:
        return BackendConfig(
            kind=kind_override or section.get("kind", "scripted"),
            endpoint=section.get("endpoint", ""),
            model=section.get("model", ""),
            temperature=float(section.get("temperature", 0.7)),
            timeout=float(section.get("timeout", 60.0)),
            retries=_integer(f"{name}.retries", section.get("retries", 2)),
            api_key_env=section.get("api_key_env", ""),
            prompt_style=section.get("prompt_style", "choice"),
            backoff=float(section.get("backoff", 0.5)),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid backend configuration: {exc}") from exc


def _agent_ids(case: ScenarioCase, cfg: RunConfig, backend_cfg: BackendConfig) -> list[str]:
    if backend_cfg.kind == "scripted":
        if not case.scripts:
            raise ValueError(f"case {case.case_id!r} has no scripts for the scripted backend")
        ids = sorted(case.scripts)
        if len(ids) != cfg.n:
            raise ValueError(
                f"case {case.case_id!r} scripts {len(ids)} agents but config says n={cfg.n}"
            )
        return ids
    return [f"agent-{i + 1}" for i in range(cfg.n)]


def _build_backends(ids, backend_cfg: BackendConfig, per_agent: dict, cfg: RunConfig):
    shared = make_backend(backend_cfg, seed=cfg.seed, rounds=cfg.max_rounds)
    return {aid: make_backend(per_agent[aid], seed=cfg.seed, rounds=cfg.max_rounds)
            if aid in per_agent else shared for aid in ids}


def _execute_run(cases, cfg: RunConfig, backend_cfg: BackendConfig, per_agent: dict,
                 jobs: int, out_dir: Path, effective: dict):
    def one_case(case: ScenarioCase) -> RunReport | CaseFailure:
        try:
            ids = _agent_ids(case, cfg, backend_cfg)
            backends = _build_backends(ids, backend_cfg, per_agent, cfg)
            return run_case(case, cfg, backends)
        except Exception as exc:  # per-case failures are recorded, not fatal
            return CaseFailure(case.case_id, str(exc))

    # jobs 1 stays on the calling thread: bench/calibrate.py counts only the
    # main thread's CPU time
    if jobs == 1:
        outcomes = [one_case(case) for case in cases]  # in dataset order
    else:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(one_case, cases))
    reports = [o for o in outcomes if isinstance(o, RunReport)]
    errors = [o for o in outcomes if isinstance(o, CaseFailure)]

    out_dir.mkdir(parents=True, exist_ok=True)
    traces_dir = out_dir / "traces"
    traces_dir.mkdir(exist_ok=True)
    with open(out_dir / "results.jsonl", "w", encoding="utf-8") as fh:
        write_results_jsonl(outcomes, fh, header=effective)
    with open(traces_dir / "rounds.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# config: {json.dumps(effective, sort_keys=True)}\n")
        rounds_to_csv(reports, fh)
    summary = None
    if reports:
        summary = compute_metrics(outcomes, cfg.n)
        with open(out_dir / "metrics.csv", "w", encoding="utf-8", newline="") as fh:
            metrics_to_csv(
                [("all", summary)], fh,
                header_comment=f"config: {json.dumps(effective, sort_keys=True)}",
            )
        for rep in reports:
            mark = "ok" if rep.correct else "WRONG"
            print(
                f"{rep.case_id}: answer={rep.final_answer!r} rounds={rep.n_rounds} "
                f"consensus={rep.consensus_count} terminated_by={rep.terminated_by} [{mark}]"
            )
        print(format_metrics([("all", summary)]))
    for failure in errors:
        print(f"case error: {failure.case_id}: {failure.error}", file=sys.stderr)
    if errors:
        print(f"{len(errors)} of {len(cases)} cases failed", file=sys.stderr)
    print(f"wrote {out_dir / 'results.jsonl'}")
    return summary, len(errors)


SWEEPABLE = ("n", "max_rounds", "n_leaders", "seed")


def _sweep_combos(sweep_section: dict):
    import itertools

    keys = [k for k in SWEEPABLE if k in sweep_section]
    value_lists = []
    for k in keys:
        values = sweep_section[k]
        if not isinstance(values, list) or not values:
            raise ConfigError(f"sweep.{k} must be a non-empty list")
        value_lists.append([_integer(f"sweep.{k}", v) for v in values])
    return [dict(zip(keys, combo)) for combo in itertools.product(*value_lists)]


def cmd_run(args) -> int:
    try:
        config, base = _load_config(args.config)
        run_section = config.get("run", {})
        cfg = _run_config_from(run_section, args)
        backend_cfg = _backend_config_from(config.get("backend", {}), args.backend)
        per_agent = {}
        for entry in config.get("backends", []) or []:
            if "agent_id" not in entry:
                raise ConfigError("per-agent backend entries need an agent_id")
            agent_id = str(entry["agent_id"])
            if agent_id in per_agent:
                raise ConfigError(f"backends lists agent_id {agent_id!r} twice")
            per_agent[agent_id] = _backend_config_from(entry, None, "backends")
        jobs = args.jobs if args.jobs is not None else _integer("run.jobs",
                                                                run_section.get("jobs", 1))
        if jobs < 1:
            raise ConfigError("jobs must be at least 1")
        out_dir = Path(
            args.out if args.out is not None else _resolve(base, run_section.get("out", "results"))
        )
        dataset = args.dataset if args.dataset is not None else run_section.get("dataset")
        if dataset is None:
            raise ConfigError("no dataset given (flag --dataset or run.dataset)")
        dataset_path = _resolve(base, str(dataset)) if args.dataset is None else Path(args.dataset)
        combos = _sweep_combos(config.get("sweep", {}) or {})
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        cases = scenarios_from_json(dataset_path)
    except (OSError, ValueError, KeyError) as exc:
        print(f"dataset error: {exc}", file=sys.stderr)
        return EXIT_DATASET
    if backend_cfg.kind == "scripted":
        run_ids = {agent_id for case in cases for agent_id in case.scripts or ()}
    else:
        run_ids = {f"agent-{i + 1}" for i in range(max(c.get("n", cfg.n) for c in combos))}
    unknown = sorted(set(per_agent) - run_ids)
    if unknown:
        print(f"config error: backends name no agent of the run: {unknown}", file=sys.stderr)
        return EXIT_CONFIG

    def effective_for(run_cfg: RunConfig) -> dict:
        return {
            "run": asdict(run_cfg),
            "backend": asdict(backend_cfg),
            "dataset": str(dataset_path),
            "jobs": jobs,
        }

    if not combos or combos == [{}]:
        _, failed = _execute_run(
            cases, cfg, backend_cfg, per_agent, jobs, out_dir, effective_for(cfg)
        )
        return EXIT_CASES_FAILED if failed else EXIT_OK

    labeled = []
    failed = 0
    for combo in combos:
        try:
            combo_cfg = RunConfig(**{**asdict(cfg), **combo})
        except ValueError as exc:
            print(f"config error: sweep combination {combo}: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        label = "_".join(f"{k}{v}" for k, v in combo.items())
        print(f"-- sweep {label}")
        summary, combo_failed = _execute_run(
            cases, combo_cfg, backend_cfg, per_agent, jobs,
            out_dir / label, effective_for(combo_cfg),
        )
        failed += combo_failed
        if summary is not None:
            labeled.append((label, summary))
    if labeled:
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(out_dir / "metrics.csv", "w", encoding="utf-8", newline="") as fh:
            metrics_to_csv(labeled, fh, header_comment=f"sweep over {len(labeled)} settings")
        print(format_metrics(labeled))
    return EXIT_CASES_FAILED if failed else EXIT_OK


def cmd_simulate(args) -> int:
    try:
        config, base = _load_config(args.config)
        section = config.get("simulate", {})
        n_min = _integer("simulate.n_min", section.get("n_min", 3))
        n_max = _integer("simulate.n_max", section.get("n_max", 10))
        seeds = _integer("simulate.seeds", section.get("seeds", 100))
        modes = section.get("modes", ["supportive", "conflicting", "leader", "speedup"])
        tol = float(section.get("tol", 1e-9))
        max_steps = _integer("simulate.max_steps", section.get("max_steps", 10_000))
        master_seed = _integer("simulate.master_seed", section.get("master_seed", 0))
        trace_seeds = _integer("simulate.trace_seeds", section.get("trace_seeds", 1))
        out_dir = Path(args.out) if args.out else _resolve(base, section.get("out", "results/simulate"))
        if seeds < 1:
            raise ConfigError("seed count must be at least 1")
        if n_min < 2 or n_max < n_min:
            raise ConfigError(f"invalid agent range [{n_min}, {n_max}]")
        if not isinstance(modes, list) or not modes:
            raise ConfigError(f"simulate.modes must be a non-empty list, got {modes!r}")
        known = {"supportive", "conflicting", "leader", "speedup"}
        bad = [m for m in modes if m not in known]
        if bad:
            raise ConfigError(f"unknown simulate modes: {bad}")
        if len(set(modes)) != len(modes):
            raise ConfigError(f"simulate.modes lists a mode twice: {modes}")
        if trace_seeds < 0:
            raise ConfigError(f"simulate.trace_seeds must be nonnegative, got {trace_seeds}")
        if master_seed < 0:
            raise ConfigError(f"simulate.master_seed must be nonnegative, got {master_seed}")
        if not (math.isfinite(tol) and tol > 0) or max_steps < 1:
            raise ConfigError("tol must be finite and positive and max_steps at least 1")
    except (ConfigError, TypeError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    effective = {
        "n_range": [n_min, n_max], "seeds": seeds, "modes": modes,
        "tol": tol, "max_steps": max_steps, "master_seed": master_seed,
    }
    results = run_property_suite(
        n_values=tuple(range(n_min, n_max + 1)), seeds=seeds, modes=modes,
        tol=tol, max_steps=max_steps, master_seed=master_seed,
    )

    out_dir.mkdir(parents=True, exist_ok=True)
    traces_dir = out_dir / "traces"
    traces_dir.mkdir(exist_ok=True)
    # the supportive check's initial states at n_min
    initial = uniform_draws(master_seed, n_min, trace_seeds, (-1.0, 1.0, n_min), (0.0, 1.0, n_min))
    for mode in modes:
        if mode == "speedup":
            continue
        if mode == "supportive":
            topo = DynamicsTopology.all_pairs(n_min)
        elif mode == "conflicting":
            topo = DynamicsTopology.mutual_conflict_pairs(n_min)
        else:  # the leader check: supportive averaging on the leader sets
            topo = DynamicsTopology.with_leaders(n_min, (0,) if n_min < 3 else (0, 1))
        step_mode = "conflicting" if mode == "conflicting" else "supportive"
        for s, (opinions, beliefs) in enumerate(zip(*initial)):
            state = DynamicsState(opinions, beliefs)
            result = run_dynamics(state, topo, step_mode, tol=tol, max_steps=max_steps)
            with open(traces_dir / f"{mode}_n{n_min}_seed{s}.csv", "w", newline="") as fh:
                fh.write(f"# config: {json.dumps(effective, sort_keys=True)}\n")
                trace_to_csv(result, topo, fh)

    report_lines = [r.line() for r in results]
    with open(out_dir / "properties.txt", "w", encoding="utf-8") as fh:
        fh.write(f"# config: {json.dumps(effective, sort_keys=True)}\n")
        fh.write("\n".join(report_lines) + "\n")
    for line in report_lines:
        print(line)
    return EXIT_OK if all(r.passed for r in results) else EXIT_CONFIG


def cmd_metrics(args) -> int:
    summaries = []
    for path in args.results:
        try:
            rows, n = rows_from_results_jsonl(path)
            if n is None:
                n = args.agents
            if n is None:
                print(f"config error: {path} has no agent count; pass --agents", file=sys.stderr)
                return EXIT_CONFIG
            # failed cases are counted, not averaged; a file of failures only raises
            summaries.append((Path(path).name, compute_metrics(rows, int(n))))
        except (OSError, ValueError) as exc:
            print(f"dataset error: {path}: {exc}", file=sys.stderr)
            return EXIT_DATASET
    print(format_metrics(summaries))
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(out_dir / "metrics.csv", "w", encoding="utf-8", newline="") as fh:
            metrics_to_csv(summaries, fh, header_comment=f"inputs: {list(args.results)}")
        print(f"wrote {out_dir / 'metrics.csv'}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="belief-consensus",
        description="Belief-calibrated consensus runs, dynamics verification, metrics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run the consensus protocol over a dataset")
    run_p.add_argument("--config", help="YAML config file")
    run_p.add_argument("--dataset", help="scenario JSON (overrides config)")
    run_p.add_argument("--backend", choices=BACKEND_KINDS)
    run_p.add_argument("--agents", type=int, help="agent count n")
    run_p.add_argument("--max-rounds", dest="max_rounds", type=int)
    run_p.add_argument("--leaders", type=int, help="leaders per group")
    run_p.add_argument("--clusters", type=int, help="k for opinion clustering")
    run_p.add_argument("--seed", type=int)
    run_p.add_argument("--jobs", type=int, help="case-level parallelism (default 1)")
    run_p.add_argument("--adversarial-noise", dest="adversarial_noise", action="store_true")
    run_p.add_argument("--out", help="output directory")
    run_p.set_defaults(func=cmd_run)

    sim_p = sub.add_parser("simulate", help="run the dynamics property suite")
    sim_p.add_argument("--config", help="YAML config file")
    sim_p.add_argument("--out", help="output directory")
    sim_p.set_defaults(func=cmd_simulate)

    met_p = sub.add_parser("metrics", help="aggregate metrics from results files")
    met_p.add_argument("results", nargs="+", help="results.jsonl paths")
    met_p.add_argument("--agents", type=int, help="agent count when not in the file header")
    met_p.add_argument("--out", help="output directory for metrics.csv")
    met_p.set_defaults(func=cmd_metrics)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
