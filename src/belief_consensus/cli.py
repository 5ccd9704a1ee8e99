"""Command-line entry point: protocol runs, dynamics verification, metrics.

    belief-consensus run --config cfg.yaml [overrides]
    belief-consensus simulate --config cfg.yaml
    belief-consensus metrics results.jsonl [more.jsonl ...]

Configuration is a YAML file whose sections' keys are the fields of config
dataclasses; each command checks every section, an unknown key in any is an
error, and a flag overrides the key it is named after. A path is relative to
the config's directory when the file gives it, to the working directory when
a flag does; an empty one is an error. `simulate` runs the checks of
`verification.CHECKS` on the one `SimulateConfig` its section builds. Each
command makes its output directories before any work; the effective
configuration heads every output file. Exit codes: 0 success, 1 a
`ConfigError` or a failed dynamics property, 2 a `DatasetError` (unreadable
dataset or results file), 3 a run in which one or more cases raised (the
other cases' outputs are written, and each failed case is a
`{"case_id", "error"}` row of results.jsonl).
`main` alone prints the two errors and maps them to their codes.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, fields, replace
from pathlib import Path

import yaml

from belief_consensus import verification
from belief_consensus.agents import BACKEND_KINDS, BackendConfig, make_backend
from belief_consensus.core import RunConfig, ScenarioCase, checked, scenarios_from_json
from belief_consensus.dynamics import run_dynamics, trace_to_csv
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
from belief_consensus.verification import CHECKS, SimulateConfig

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATASET = 2
EXIT_CASES_FAILED = 3


TOP_LEVEL_KEYS = ("run", "backend", "backends", "sweep", "simulate")


# libyaml's parser when PyYAML was built with it; both resolve tags with the
# same Python resolver, so they read a file as the same payload
_YAML_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader


class ConfigError(ValueError):
    pass


class DatasetError(Exception):
    """An input file that cannot be read or holds malformed data."""


def _load_config(path: str | None) -> tuple[dict, Path]:
    if path is None:
        return {}, Path.cwd()
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    try:
        with open(p, "r", encoding="utf-8") as fh:
            payload = yaml.load(fh, Loader=_YAML_LOADER) or {}
    except yaml.YAMLError as exc:
        raise ConfigError(f"config file is not valid YAML: {exc}") from exc
    _known_keys("at the top level", checked("object", payload, "the config file", ConfigError),
                TOP_LEVEL_KEYS)
    return payload, p.parent


def _known_keys(where: str, section: dict, allowed):
    for key in section:
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r} {where} (keys: {', '.join(allowed)})")


def _typed_section(name: str, section, kinds: dict[str, str]) -> dict:
    """Config section `name` with each value checked as its key's type in
    `kinds`, in `kinds` order; a key not in `kinds` is an error."""
    if section is None:  # a section left empty in YAML
        return {}
    _known_keys(f"in {name}", checked("object", section, name, ConfigError), kinds)
    return {k: checked(kind, section[k], f"{name}.{k}", ConfigError) for k, kind in kinds.items()
            if k in section}


def _path(value: str, where: str, base: Path = Path()) -> Path:
    """`value` as a path relative to `base`; `where` names it if it is empty."""
    if not value:
        raise ConfigError(f"{where} is an empty path")
    return base / value


def _make_dirs(*dirs: Path):
    """Make output directories before any work; one that cannot be is a config error."""
    for d in dirs:
        try:
            d.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot make output directory {d}: {exc.strerror}") from exc


def _read(cls, name: str, section, args=None, base: Path | None = None, **extra: str):
    """Config dataclass `cls` from section `name`, and the section's `extra`
    keys (name=type) apart. The other keys are `cls`'s fields, with their
    types and defaults. A flag of `args` named after a key overrides it; a
    path is relative to `base` when the section gives it and to the working
    directory when a flag does; an empty one is an error."""
    kinds = {**{f.name: f.type for f in fields(cls)}, **extra}
    values = _typed_section(name, section, kinds)
    for key, kind in kinds.items():
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
        if kind == "path" and key in values:
            values[key] = (_path(flag, f"--{key}") if flag is not None
                           else _path(values[key], f"{name}.{key}", base))
    rest = {k: values.pop(k) for k in extra if k in values}
    try:
        return cls(**values), rest
    except ValueError as exc:
        raise ConfigError(f"invalid {name} configuration: {exc}") from exc


def _sweep(cfg: RunConfig, section) -> list[tuple[str, RunConfig]]:
    """(label, config) of every setting of a `sweep:` section: each key a
    RunConfig field with a list of values, combined in field order. Without a
    sweep, the one setting is `cfg`, labeled ''."""
    kinds = {f.name: f"list[{f.type}]" for f in fields(RunConfig)}
    lists = _typed_section("sweep", section, kinds)
    settings = []
    for values in itertools.product(*lists.values()):
        combo = dict(zip(lists, values))
        try:
            settings.append(("_".join(f"{k}{v}" for k, v in combo.items()), replace(cfg, **combo)))
        except ValueError as exc:
            raise ConfigError(f"sweep combination {combo}: {exc}") from exc
    return settings


def _unscripted_ids(n: int) -> list[str]:  # the agents that no script names
    return [f"agent-{i + 1}" for i in range(n)]


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
    return _unscripted_ids(cfg.n)


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

    echo = f"config: {json.dumps(effective, sort_keys=True)}"
    with open(out_dir / "results.jsonl", "w", encoding="utf-8") as fh:
        write_results_jsonl(outcomes, fh, header=effective)
    with open(out_dir / "traces" / "rounds.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# {echo}\n")
        rounds_to_csv(reports, fh)
    summary = None
    if reports:
        summary = compute_metrics(outcomes, cfg.n)
        with open(out_dir / "metrics.csv", "w", encoding="utf-8", newline="") as fh:
            metrics_to_csv([("all", summary)], fh, header_comment=echo)
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


def _read_sections(args) -> tuple:
    """Every section of the `--config` file, read and checked whichever
    command runs, with the command's flags applied: the run section's jobs,
    dataset and out, the backend, the per-agent backends, the sweep's
    settings, and the simulate config and its out."""
    config, base = _load_config(args.config)
    cfg, run = _read(RunConfig, "run", config.get("run"), args, base,
                     jobs="int", dataset="path", out="path")
    backend_cfg, _ = _read(BackendConfig, "backend", config.get("backend"), args)
    entries = config.get("backends")
    entries = [] if entries is None else checked("array", entries, "backends", ConfigError)
    per_agent = {}
    for i, entry in enumerate(entries):  # no flags: --backend would override each kind
        entry_cfg, extra = _read(BackendConfig, f"backends[{i}]", entry, agent_id="str")
        if "agent_id" not in extra:
            raise ConfigError("per-agent backend entries need an agent_id")
        if extra["agent_id"] in per_agent:
            raise ConfigError(f"backends lists agent_id {extra['agent_id']!r} twice")
        per_agent[extra["agent_id"]] = entry_cfg
    settings = _sweep(cfg, config.get("sweep"))
    sim, sim_out = _read(SimulateConfig, "simulate", config.get("simulate"), args, base, out="path")
    return ({"jobs": 1, "out": base / "results", **run}, backend_cfg, per_agent, settings, sim,
            sim_out.get("out", base / "results/simulate"))


def cmd_run(args) -> int:
    run, backend_cfg, per_agent, settings, _, _ = _read_sections(args)
    if run["jobs"] < 1:
        raise ConfigError("jobs must be at least 1")
    if "dataset" not in run:
        raise ConfigError("no dataset given (flag --dataset or run.dataset)")
    try:
        cases = scenarios_from_json(run["dataset"])
    except (OSError, ValueError) as exc:
        raise DatasetError(exc) from exc
    if backend_cfg.kind == "scripted":
        run_ids = {agent_id for case in cases for agent_id in case.scripts or ()}
    else:
        run_ids = set(_unscripted_ids(max(c.n for _, c in settings)))
    unknown = sorted(set(per_agent) - run_ids)
    if unknown:
        raise ConfigError(f"backends name no agent of the run: {unknown}")
    _make_dirs(*(run["out"] / label / "traces" for label, _ in settings))

    labeled = []
    failed = 0
    for label, run_cfg in settings:  # one setting, labeled '', without a sweep
        if label:
            print(f"-- sweep {label}")
        effective = {"run": asdict(run_cfg), "backend": asdict(backend_cfg),
                     "dataset": str(run["dataset"]), "jobs": run["jobs"]}
        summary, n_failed = _execute_run(
            cases, run_cfg, backend_cfg, per_agent, run["jobs"], run["out"] / label, effective
        )
        failed += n_failed
        if label and summary is not None:
            labeled.append((label, summary))
    if labeled:
        with open(run["out"] / "metrics.csv", "w", encoding="utf-8", newline="") as fh:
            metrics_to_csv(labeled, fh, header_comment=f"sweep over {len(labeled)} settings")
        print(format_metrics(labeled))
    return EXIT_CASES_FAILED if failed else EXIT_OK


def cmd_simulate(args) -> int:
    *_, sim, out_dir = _read_sections(args)
    echo = "# config: " + json.dumps({
        "n_range": [sim.n_min, sim.n_max], "seeds": sim.seeds, "modes": sim.modes,
        "tol": sim.tol, "max_steps": sim.max_steps, "master_seed": sim.master_seed,
    }, sort_keys=True) + "\n"
    traces_dir = out_dir / "traces"
    _make_dirs(traces_dir)
    modes = [m for m in CHECKS if m in sim.modes]
    results = [getattr(verification, CHECKS[mode][0])(sim) for mode in modes]

    n_min = sim.n_min
    initial = verification.supportive_states(sim.master_seed, n_min, sim.trace_seeds)
    for mode in [m for m in modes if CHECKS[m][1] is not None]:
        topo = CHECKS[mode][1](n_min)
        step_mode = "conflicting" if mode == "conflicting" else "supportive"
        for s in range(sim.trace_seeds):
            trace = run_dynamics(initial[:, s], topo, step_mode, tol=sim.tol,
                                 max_steps=sim.max_steps)[1]
            with open(traces_dir / f"{mode}_n{n_min}_seed{s}.csv", "w", newline="") as fh:
                fh.write(echo)
                trace_to_csv(trace, topo, fh)

    report_lines = [r.line() for r in results]
    with open(out_dir / "properties.txt", "w", encoding="utf-8") as fh:
        fh.write(echo)
        fh.write("\n".join(report_lines) + "\n")
    for line in report_lines:
        print(line)
    return EXIT_OK if all(r.passed for r in results) else EXIT_CONFIG


def _positive_int(value, what: str) -> int:
    if type(value) is not int or value < 1:
        raise ConfigError(f"{what} must be a positive integer, got {value!r}")
    return value


def cmd_metrics(args) -> int:
    summaries = []
    agents = args.agents  # the flag's text: only decimal digits make an int
    if agents is not None:
        agents = _positive_int(int(agents) if agents.isdecimal() else agents, "--agents")
    out_dir = None if args.out is None else _path(args.out, "--out")
    if out_dir is not None:
        _make_dirs(out_dir)
    for path in args.results:
        try:
            rows, n = rows_from_results_jsonl(path)
        except (OSError, ValueError) as exc:
            raise DatasetError(f"{path}: {exc}") from exc
        if n is None and agents is None:
            raise ConfigError(f"{path} has no agent count; pass --agents")
        n = agents if n is None else _positive_int(n, f"{path}: header n")
        try:  # failed cases are counted, not averaged; a file of failures only raises
            summaries.append((Path(path).name, compute_metrics(rows, n)))
        except ValueError as exc:
            raise DatasetError(f"{path}: {exc}") from exc
    print(format_metrics(summaries))
    if out_dir is not None:
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
    # a flag's dest is the config field it overrides
    run_p.add_argument("--backend", dest="kind", choices=BACKEND_KINDS)
    run_p.add_argument("--agents", dest="n", type=int, help="agent count n")
    run_p.add_argument("--max-rounds", dest="max_rounds", type=int)
    run_p.add_argument("--leaders", dest="n_leaders", type=int, help="leaders per group")
    run_p.add_argument("--clusters", dest="n_clusters", type=int, help="k for opinion clustering")
    run_p.add_argument("--seed", type=int)
    run_p.add_argument("--jobs", type=int, help="case-level parallelism (default 1)")
    run_p.add_argument("--adversarial-noise", dest="adversarial_noise", action="store_true",
                       default=None)
    run_p.add_argument("--out", help="output directory")
    run_p.set_defaults(func=cmd_run)

    sim_p = sub.add_parser("simulate", help="run the dynamics property suite")
    sim_p.add_argument("--config", help="YAML config file")
    sim_p.add_argument("--out", help="output directory")
    sim_p.set_defaults(func=cmd_simulate)

    met_p = sub.add_parser("metrics", help="aggregate metrics from results files")
    met_p.add_argument("results", nargs="+", help="results.jsonl paths")
    met_p.add_argument("--agents", help="agent count when not in the file header")
    met_p.add_argument("--out", help="output directory for metrics.csv")
    met_p.set_defaults(func=cmd_metrics)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DatasetError as exc:
        print(f"dataset error: {exc}", file=sys.stderr)
        return EXIT_DATASET


if __name__ == "__main__":
    raise SystemExit(main())
