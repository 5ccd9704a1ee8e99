import csv
import json
import math
import shutil
import socket
from pathlib import Path

import pytest
import yaml

from belief_consensus import agents, cli, grouping, verification
from belief_consensus.agents import BackendConfig
from belief_consensus.cli import _build_backends, main
from belief_consensus.core import RunConfig
from belief_consensus.grouping import KMEANS_N_INIT
from belief_consensus.pcg64 import COLUMNS_PER_PASS

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def write_config(tmp_path, corpus_path, **run_overrides):
    cfg = {
        "run": {
            "n": 7, "max_rounds": 3, "n_leaders": 2, "n_clusters": 3,
            "seed": 0, "dataset": str(corpus_path), "out": str(tmp_path / "out"),
            **run_overrides,
        },
        "backend": {"kind": "scripted"},
    }
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(cfg))
    return path


def read_results(out_dir):
    header = None
    rows = []
    for line in (Path(out_dir) / "results.jsonl").read_text().splitlines():
        payload = json.loads(line)
        if "config" in payload and "case_id" not in payload:
            header = payload["config"]
        else:
            rows.append(payload)
    return header, rows


class TestCmdRun:
    def test_corpus_run_is_green(self, tmp_path, corpus_path, capsys):
        cfg = write_config(tmp_path, corpus_path)
        assert main(["run", "--config", str(cfg)]) == 0
        out_dir = tmp_path / "out"
        header, rows = read_results(out_dir)
        assert header["run"]["n"] == 7
        assert len(rows) == 3
        assert all(r["correct"] for r in rows)
        metrics = (out_dir / "metrics.csv").read_text()
        assert metrics.splitlines()[0].startswith("# config:")
        last = metrics.strip().splitlines()[-1].split(",")
        assert float(last[-1]) == 1.0  # accuracy
        assert (out_dir / "traces" / "rounds.csv").exists()
        printed = capsys.readouterr().out
        assert "judgment-tl205" in printed

    def test_missing_dataset_exits_2(self, tmp_path, corpus_path):
        cfg = write_config(tmp_path, tmp_path / "nope.json")
        assert main(["run", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("rule", ["adopt:leadr", "adopt:agent:a9", "adopt:agent:a1"])
    def test_bad_fallback_rule_exits_2(self, tmp_path, corpus_path, capsys, rule):
        # a misspelt rule once exited 0, every agent carried forward after round 1
        payload = json.loads(corpus_path.read_text())
        payload["cases"][0]["agents"][0]["fallback"] = rule
        dataset = tmp_path / "bad.json"
        dataset.write_text(json.dumps(payload))
        cfg = write_config(tmp_path, dataset)
        assert main(["run", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("dataset error: case 'judgment-tl205'") and repr(rule) in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("defect, message", [
        ("agent", "agent 'a1' listed twice"),
        ("round", "agent 'a1': more than one reply for rounds [1]"),
    ], ids=["agent", "round"])
    def test_duplicate_agent_or_round_exits_2(self, tmp_path, corpus_path, capsys, defect,
                                              message):
        # the later agent entry, or the first reply of a round, once won silently
        payload = json.loads(corpus_path.read_text())
        agents = payload["cases"][0]["agents"]
        first = agents[0]
        changed = {**first["rounds"][0], "answer": "Z"}
        if defect == "agent":
            agents.append({**first, "rounds": [changed]})
        else:
            first["rounds"].append(changed)
        dataset = tmp_path / "bad.json"
        dataset.write_text(json.dumps(payload))
        cfg = write_config(tmp_path, dataset)
        assert main(["run", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("dataset error: case 'judgment-tl205'") and message in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("shape, message", [
        ("top-level-list", "the dataset must be a mapping, got []"),
        ("case-string", "case 1 must be a mapping, got 'oops'"),
        ("belief-null",
         "case 'judgment-tl205': agent 'a1': reply 1: belief must be a number, got None"),
    ], ids=["top-level-list", "case-string", "belief-null"])
    def test_bad_dataset_shape_exits_2(self, tmp_path, corpus_path, capsys, shape, message):
        # each once exited 1 with a TypeError traceback
        payload = json.loads(corpus_path.read_text())
        if shape == "top-level-list":
            payload = []
        elif shape == "case-string":
            payload["cases"][0] = "oops"
        else:
            payload["cases"][0]["agents"][0]["rounds"][0]["belief"] = None
        dataset = tmp_path / "bad.json"
        dataset.write_text(json.dumps(payload))
        cfg = write_config(tmp_path, dataset)
        assert main(["run", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"dataset error: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("where, key, message", [
        ("top", "version", "the dataset: unknown key 'version' (keys: cases)"),
        ("case", "questoin", "case 'judgment-tl205': unknown key 'questoin' "
                             "(keys: case_id, question, ground_truth, agents)"),
        ("agent", "fallbak", "case 'judgment-tl205': agent 'a1': unknown key 'fallbak' "
                             "(keys: agent_id, rounds, fallback)"),
        ("reply", "reasonning", "case 'judgment-tl205': agent 'a1': reply 2: unknown key "
                                "'reasonning' (keys: round, answer, belief, reasoning)"),
        ("fallback", "belef", "case 'judgment-tl205': agent 'a1': fallback: unknown key "
                              "'belef' (keys: rule, belief)"),
    ], ids=["top", "case", "agent", "reply", "fallback"])
    def test_unknown_dataset_key_exits_2(self, tmp_path, corpus_path, capsys, where, key,
                                         message):
        # a misspelt reasoning once loaded as "", a misspelt fallback as none
        payload = json.loads(corpus_path.read_text())
        case = payload["cases"][0]
        agent = case["agents"][0]
        if where == "fallback":
            agent["fallback"] = {"rule": "adopt:leader", key: 0.9}
        else:
            record = {"top": payload, "case": case, "agent": agent,
                      "reply": agent["rounds"][1]}[where]
            record[key] = "repeat_previous"
        dataset = tmp_path / "bad.json"
        dataset.write_text(json.dumps(payload))
        cfg = write_config(tmp_path, dataset)
        assert main(["run", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"dataset error: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value, message", [
        # each of these once loaded: null as the text "None", a round of 1.7,
        # true, "2" or 2.0 as an integer, a belief of true as 1.0
        ("ground_truth", None, "ground_truth must be a string or a number, got None"),
        ("ground_truth", " ", "ground_truth: unanswerable output"),  # once named no case
        ("question", None, "question must be a string or a number, got None"),
        ("question", "missing", "question is missing"),
        ("answer", None, "agent 'a1': reply 2: answer must be a string or a number, got None"),
        ("round", 1.7, "agent 'a1': reply 2: round must be an integer, got 1.7"),
        ("round", True, "agent 'a1': reply 2: round must be an integer, got True"),
        ("round", "2", "agent 'a1': reply 2: round must be an integer, got '2'"),
        ("round", 2.0, "agent 'a1': reply 2: round must be an integer, got 2.0"),
        ("round", 0, "agent 'a1': reply 2: round must be at least 1, got 0"),
        ("belief", True, "agent 'a1': reply 2: belief must be a number, got True"),
        ("belief", 1.5, "agent 'a1': reply 2: belief must lie in (0, 1], got 1.5"),
        ("fallback", 2.0, "agent 'a1': fallback.belief must lie in (0, 1], got 2.0"),
    ], ids=["ground-truth-null", "ground-truth-blank", "question-null", "question-missing",
            "answer-null", "round-1.7", "round-true", "round-string", "round-2.0", "round-0",
            "belief-true", "belief-1.5", "fallback-belief-2.0"])
    def test_bad_dataset_value_names_where_it_sits(self, tmp_path, corpus_path, capsys, key,
                                                   value, message):
        payload = json.loads(corpus_path.read_text())
        case = payload["cases"][0]
        agent = case["agents"][0]
        if key == "fallback":
            agent["fallback"] = {"rule": "adopt:leader", "belief": value}
        elif key in ("answer", "round", "belief"):
            agent["rounds"][1][key] = value
        elif value == "missing":
            del case[key]
        else:
            case[key] = value
        dataset = tmp_path / "bad.json"
        dataset.write_text(json.dumps(payload))
        cfg = write_config(tmp_path, dataset)
        assert main(["run", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"dataset error: case 'judgment-tl205': {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("where", ["flag", "sweep"])
    def test_negative_seed_exits_1_before_any_directory(self, tmp_path, corpus_path, capsys,
                                                        where):
        # the stochastic backend once failed every case on it (exit 3), and the
        # scripted one masked it to a nonnegative seed
        cfg = write_config(tmp_path, corpus_path)
        argv = ["run", "--config", str(cfg), "--backend", "stochastic"]
        if where == "flag":
            argv += ["--seed", "-1"]
        else:
            payload = yaml.safe_load(cfg.read_text())
            payload["sweep"] = {"seed": [0, -1]}
            cfg.write_text(yaml.safe_dump(payload))
        assert main(argv) == 1
        assert "seed must be at least 0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_dataset_flag_overrides_config(self, tmp_path, corpus_path):
        cfg = write_config(tmp_path, tmp_path / "nope.json")
        assert main(["run", "--config", str(cfg), "--dataset", str(corpus_path)]) == 0

    @pytest.mark.parametrize("argv", [
        ["run", "--agents", "seven"], ["run", "--seed", "1.5"], ["run", "--jobs", "x"],
        ["run", "--max-rounds", ""], ["run", "--no-such-flag"], ["run", "--backend", "gpt"],
        ["metrics", "results.jsonl", "--agents", "seven"], [],
    ], ids=["agents", "seed", "jobs", "max-rounds", "unknown-flag", "backend", "metrics-agents",
            "no-command"])
    def test_usage_error_is_a_config_error(self, capsys, argv):
        # argparse exited 2, the code of a dataset error, before any config was read
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and len(err.splitlines()) == 1

    def test_invalid_config_exits_1(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("run: [this is a list, not a mapping\n")
        assert main(["run", "--config", str(bad)]) == 1

    def test_invalid_run_values_exit_1(self, tmp_path, corpus_path):
        cfg = write_config(tmp_path, corpus_path, n=1)
        assert main(["run", "--config", str(cfg)]) == 1

    @pytest.mark.parametrize("section, key", [
        ({"run": {"n": 3.9}}, "run.n"),
        ({"sweep": {"max_rounds": [1.7]}}, "sweep.max_rounds"),
        ({"run": {"jobs": 1.5}}, "run.jobs"),
        ({"backend": {"retries": 2.5}}, "backend.retries"),
        ({"run": {"adversarial_noise": "false"}}, "run.adversarial_noise"),
        ({"run": {"mixed_delegates": "false"}}, "run.mixed_delegates"),
    ])
    def test_non_integer_or_non_boolean_value_exits_1(self, tmp_path, corpus_path, capsys,
                                                      section, key):
        # n: 3.9 with a max_rounds sweep of [1.7] once ran n = 3 and one round;
        # "false" once read as true
        payload = yaml.safe_load(write_config(tmp_path, corpus_path).read_text())
        for name, values in section.items():
            payload.setdefault(name, {}).update(values)
        cfg = tmp_path / "config.yaml"
        cfg.write_text(yaml.safe_dump(payload))
        assert main(["run", "--config", str(cfg)]) == 1
        assert "config error: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_non_integer_value_names_its_key(self, tmp_path, corpus_path, capsys):
        cfg = write_config(tmp_path, corpus_path, n=3.9)
        assert main(["run", "--config", str(cfg)]) == 1
        assert "run.n must be an integer, got 3.9" in capsys.readouterr().err

    @pytest.mark.parametrize("sections, message", [
        # each misspelt key once ran at the defaults (or without the sweep) and exited 0
        ({"run": {"max_round": 9}}, "unknown key 'max_round' in run"),
        ({"run": {"adversarial_nosie": True}}, "unknown key 'adversarial_nosie' in run"),
        ({"backend": {"temprature": 0.1}}, "unknown key 'temprature' in backend"),
        ({"sweep": {"seeds": [1, 2]}}, "unknown key 'seeds' in sweep"),
        ({"backends": [{"agent_id": "a7", "kind": "stochastic", "modle": "m"}]},
         "unknown key 'modle' in backends[0]"),
        ({"sweeps": {"seed": [1, 2]}}, "unknown key 'sweeps' at the top level"),
        # these once raised a TypeError traceback, or ran and echoed 7 as the model
        ({"backends": [5]}, "backends[0] must be a mapping, got 5"),
        ({"sweep": ["n"]}, "sweep must be a mapping, got ['n']"),
        ({"run": {"out": 5}}, "run.out must be a string, got 5"),
        ({"backend": {"model": 7}}, "backend.model must be a string, got 7"),
        ({"backend": {"temperature": True}}, "backend.temperature must be a number, got True"),
        ({"backends": [{"agent_id": "a7", "kind": "stochastic", "retries": 1.5}]},
         "backends[0].retries must be an integer, got 1.5"),
        ({"simulate": {"tol": True}}, "simulate.tol must be a number, got True"),
        # the n = 3 setting once ran and wrote out/n3 before n = 1 failed
        ({"sweep": {"n": [3, 1]}}, "sweep combination {'n': 1}: n must be at least 2"),
    ])
    def test_bad_key_or_shape_exits_1_before_any_case(self, tmp_path, corpus_path, capsys,
                                                      sections, message):
        payload = yaml.safe_load(write_config(tmp_path, corpus_path).read_text())
        for name, value in sections.items():
            if isinstance(value, dict) and isinstance(payload.get(name), dict):
                payload[name].update(value)
            else:
                payload[name] = value
        cfg = tmp_path / "config.yaml"
        cfg.write_text(yaml.safe_dump(payload))
        assert main(["run", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith(f"config error: {message}")
        assert not (tmp_path / "out").exists()

    def test_no_dataset_anywhere_exits_1(self, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(yaml.safe_dump({"run": {"out": str(tmp_path / "o")}}))
        assert main(["run", "--config", str(cfg)]) == 1

    def test_max_rounds_flag_truncates_protocol(self, tmp_path, corpus_path):
        cfg = write_config(tmp_path, corpus_path)
        assert main(["run", "--config", str(cfg), "--max-rounds", "1"]) == 0
        _, rows = read_results(tmp_path / "out")
        bccj = next(r for r in rows if r["case_id"] == "judgment-tl205")
        assert bccj["terminated_by"] == "MaxRounds"
        assert bccj["final_answer"] == "B"
        assert bccj["correct"] is False

    def test_flag_overrides_are_echoed(self, tmp_path, corpus_path):
        cfg = write_config(tmp_path, corpus_path)
        assert main(["run", "--config", str(cfg), "--seed", "5"]) == 0
        header, _ = read_results(tmp_path / "out")
        assert header["run"]["seed"] == 5

    def test_each_run_flag_overrides_its_field(self, tmp_path, corpus_path):
        cfg = write_config(tmp_path, corpus_path, adversarial_noise=True, mixed_delegates=True)
        # without its flag, the file's adversarial_noise stays on
        assert main(["run", "--config", str(cfg), "--backend", "stochastic", "--agents", "3",
                     "--max-rounds", "2", "--leaders", "1", "--clusters", "2", "--seed", "5",
                     "--jobs", "2"]) == 0
        header, _ = read_results(tmp_path / "out")
        assert header["run"] == {"n": 3, "max_rounds": 2, "n_leaders": 1, "n_clusters": 2,
                                 "seed": 5, "adversarial_noise": True, "mixed_delegates": True}
        assert (header["backend"]["kind"], header["jobs"]) == ("stochastic", 2)

    def test_byte_identical_reruns(self, tmp_path, corpus_path):
        cfg1 = write_config(tmp_path, corpus_path, out=str(tmp_path / "o1"))
        assert main(["run", "--config", str(cfg1), "--out", str(tmp_path / "o1")]) == 0
        assert main(["run", "--config", str(cfg1), "--out", str(tmp_path / "o2")]) == 0
        one = (tmp_path / "o1" / "results.jsonl").read_bytes()
        two = (tmp_path / "o2" / "results.jsonl").read_bytes()
        assert one == two

    def test_stochastic_backend_and_jobs(self, tmp_path, corpus_path):
        cfg = write_config(tmp_path, corpus_path)
        rc = main(["run", "--config", str(cfg), "--backend", "stochastic",
                   "--jobs", "2", "--out", str(tmp_path / "s1")])
        assert rc == 0
        rc = main(["run", "--config", str(cfg), "--backend", "stochastic",
                   "--jobs", "1", "--out", str(tmp_path / "s2")])
        assert rc == 0
        # case-level parallelism must not change case results (the header
        # echoes the jobs value, so compare the case rows)
        _, rows1 = read_results(tmp_path / "s1")
        _, rows2 = read_results(tmp_path / "s2")
        assert rows1 == rows2

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_run_draws_its_cases_in_passes(self, tmp_path, monkeypatch, jobs):
        # 100 cases of 7 stochastic agents and 5 rounds: before its first
        # case the run draws every case's block (3,500 generators) and its
        # k-means restarts (5,000) in passes of COLUMNS_PER_PASS, not two
        # passes a case, and no case draws its own, on the pool's threads too
        passes = {"stochastic": [], "kmeans": []}
        for module, kind in ((agents, "stochastic"), (grouping, "kmeans")):
            def counted(words, k, real=module._pcg64_raw, sizes=passes[kind]):
                sizes.append(words.shape[1])
                return real(words, k)
            monkeypatch.setattr(module, "_pcg64_raw", counted)
        dataset = tmp_path / "n7.json"
        dataset.write_text(json.dumps({"cases": [
            {"case_id": f"q{i}", "question": "q", "ground_truth": "A"} for i in range(100)]}))
        assert main(["run", "--dataset", str(dataset), "--backend", "stochastic",
                     "--agents", "7", "--max-rounds", "5", "--jobs", jobs,
                     "--out", str(tmp_path / "out")]) == 0
        for kind, columns in (("stochastic", 100 * 5 * 7), ("kmeans", 100 * 5 * KMEANS_N_INIT)):
            assert sum(passes[kind]) == columns
            assert len(passes[kind]) == math.ceil(columns / COLUMNS_PER_PASS) == 1 + (
                kind == "kmeans")

    def test_stochastic_backends_draw_up_to_the_round_limit(self):
        # each stochastic backend draws its cases' rounds 1..max_rounds at once
        shared = BackendConfig(kind="stochastic")
        backends = _build_backends(["a1", "a2", "a3"], shared, {"a3": shared},
                                   RunConfig(n=3, max_rounds=4, seed=3))
        assert backends["a1"] is backends["a2"] is backends["a3"]  # one backend per kind
        assert {(b.seed, b.rounds) for b in backends.values()} == {(3, 4)}

    def test_one_backend_per_kind(self):
        http = {a: BackendConfig(kind="http", endpoint=f"http://127.0.0.1:{port}/v1", model=a)
                for a, port in (("a2", 9), ("a4", 10), ("a5", 9))}
        per_agent = {**http, "a3": BackendConfig(kind="scripted")}
        backends = _build_backends([f"a{i}" for i in range(1, 7)],
                                   BackendConfig(kind="stochastic"), per_agent,
                                   RunConfig(n=6, seed=2))
        distinct = {id(b): b for b in backends.values()}.values()
        assert sorted(type(b).__name__ for b in distinct) == [
            "ChatCompletionsAgent", "ScriptedAgent", "StochasticAgent"]
        chat = backends["a2"]
        assert backends["a4"] is backends["a5"] is chat and chat.configs == http
        assert chat.pools.keys() == {http["a2"].endpoint, http["a4"].endpoint}
        assert backends["a1"] is backends["a6"] is not backends["a3"]

    def test_backends_repeating_the_default_change_no_byte(self, tmp_path, corpus_path):
        # a stochastic agent's draws depend on (seed, case, agent, round)
        # alone, so listing every agent's config moves no draw
        outs = []
        for name, entries in (("plain", None), ("listed", [
                {"agent_id": f"agent-{i}", "kind": "stochastic"} for i in range(1, 8)])):
            cfg = write_config(tmp_path, corpus_path, max_rounds=5, out=str(tmp_path / name))
            payload = yaml.safe_load(cfg.read_text())
            payload["backend"] = {"kind": "stochastic"}
            if entries:
                payload["backends"] = entries
            cfg.write_text(yaml.safe_dump(payload))
            assert main(["run", "--config", str(cfg)]) == 0
            outs.append(tmp_path / name)
        for f in ("results.jsonl", "traces/rounds.csv", "metrics.csv"):
            plain, listed = [(out / f).read_bytes().split(b"\n", 1)[1] for out in outs]
            assert plain == listed

    def test_adversarial_noise_flag(self, tmp_path, corpus_path):
        cfg = write_config(tmp_path, corpus_path)
        assert main(["run", "--config", str(cfg), "--adversarial-noise"]) == 0
        header, rows = read_results(tmp_path / "out")
        assert header["run"]["adversarial_noise"] is True
        assert all(
            rnd["noise_victim"] is not None for r in rows for rnd in r["rounds"]
        )

    def test_seed_sweep_writes_per_setting_outputs(self, tmp_path, corpus_path):
        cfg_payload = {
            "run": {"n": 7, "seed": 0, "dataset": str(corpus_path),
                    "out": str(tmp_path / "sweep")},
            "backend": {"kind": "scripted"},
            "sweep": {"seed": [100, 200, 300]},
        }
        cfg = tmp_path / "sweep.yaml"
        cfg.write_text(yaml.safe_dump(cfg_payload))
        assert main(["run", "--config", str(cfg)]) == 0
        for seed in (100, 200, 300):
            header, rows = read_results(tmp_path / "sweep" / f"seed{seed}")
            assert header["run"]["seed"] == seed
            assert len(rows) == 3
        aggregate = (tmp_path / "sweep" / "metrics.csv").read_text()
        assert "cl_mean_sem" in aggregate

    def test_heterogeneous_backends_per_agent(self, tmp_path, corpus_path):
        cfg_payload = {
            "run": {"n": 7, "seed": 0, "dataset": str(corpus_path),
                    "out": str(tmp_path / "hetero")},
            "backend": {"kind": "scripted"},
            "backends": [{"agent_id": "a7", "kind": "stochastic"}],
        }
        cfg = tmp_path / "hetero.yaml"
        cfg.write_text(yaml.safe_dump(cfg_payload))
        assert main(["run", "--config", str(cfg)]) == 0
        _, rows = read_results(tmp_path / "hetero")
        assert len(rows) == 3  # mixed backends still produce full reports

    @pytest.mark.parametrize("kind, entries, message", [
        # n = 3 has no agent-9; such an entry was once ignored, and every agent
        # used the shared backend
        ("stochastic", [{"agent_id": "agent-9"}],
         "backends name no agent of the run: ['agent-9']"),
        # the corpus scripts a1 to a7
        ("scripted", [{"agent_id": "a9"}], "backends name no agent of the run: ['a9']"),
        # the second entry once silently replaced the first
        ("stochastic", [{"agent_id": "agent-2"}, {"agent_id": "agent-2", "kind": "scripted"}],
         "backends lists agent_id 'agent-2' twice"),
    ])
    def test_bad_per_agent_backends_exit_1_before_any_case(self, tmp_path, corpus_path, capsys,
                                                           kind, entries, message):
        cfg = write_config(tmp_path, corpus_path, n=3)
        payload = yaml.safe_load(cfg.read_text())
        payload["backend"] = {"kind": kind}
        payload["backends"] = [{"kind": "stochastic", **entry} for entry in entries]
        cfg.write_text(yaml.safe_dump(payload))
        assert main(["run", "--config", str(cfg)]) == 1
        assert f"config error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_per_agent_backend_of_a_swept_agent_count(self, tmp_path, corpus_path):
        # agent-5 exists in the n = 5 setting of the sweep, not in n = 3
        cfg = write_config(tmp_path, corpus_path, n=3, max_rounds=1)
        payload = yaml.safe_load(cfg.read_text())
        payload["backend"] = {"kind": "stochastic"}
        payload["backends"] = [{"agent_id": "agent-5", "kind": "stochastic"}]
        payload["sweep"] = {"n": [3, 5]}
        cfg.write_text(yaml.safe_dump(payload))
        assert main(["run", "--config", str(cfg)]) == 0

    def test_bad_http_endpoint_exits_1_without_a_request(self, tmp_path, corpus_path, capsys):
        with socket.socket() as listener:
            listener.bind(("127.0.0.1", 0))
            listener.listen()
            listener.setblocking(False)
            cfg = write_config(tmp_path, corpus_path)
            payload = yaml.safe_load(cfg.read_text())
            # no scheme: once this was retried with backoff for every agent of every case
            payload["backend"] = {"kind": "http", "backoff": 0.0,
                                  "endpoint": f"localhost:{listener.getsockname()[1]}/v1"}
            cfg.write_text(yaml.safe_dump(payload))
            assert main(["run", "--config", str(cfg)]) == 1
            with pytest.raises(BlockingIOError):
                listener.accept()
        assert "http endpoint must be an http:// or https:// URL" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


    @pytest.mark.parametrize("section", [
        {"kind": "stochastc"}, {"prompt_style": "boxd"},
        {"timeout": 0}, {"timeout": -1.0}, {"timeout": float("nan")}, {"timeout": float("inf")},
        {"backoff": -1}, {"backoff": float("nan")}, {"backoff": float("inf")},
        {"temperature": float("nan")}, {"temperature": float("inf")},
    ])
    def test_bad_backend_value_exits_1_before_any_case(self, tmp_path, corpus_path, capsys,
                                                        section):
        # a misspelt kind once made every case an error row (exit 3), and a
        # misspelt prompt_style silently fell back to the choice prompt; a
        # zero, negative or non-finite timeout, backoff or temperature also
        # failed every case, in the HTTP client or in the request body
        cfg = write_config(tmp_path, corpus_path)
        payload = yaml.safe_load(cfg.read_text())
        payload.setdefault("backend", {}).update(section)
        cfg.write_text(yaml.safe_dump(payload))
        assert main(["run", "--config", str(cfg)]) == 1
        assert "invalid backend configuration" in capsys.readouterr().err
        assert not (tmp_path / "out" / "results.jsonl").exists()


def corpus_with_short_case(tmp_path, corpus_path):
    """The corpus plus a copy of its first case that scripts one agent fewer
    than the config's n, so running that case raises."""
    payload = json.loads(Path(corpus_path).read_text())
    broken = json.loads(json.dumps(payload["cases"][0]))
    broken["case_id"] = "one-agent-short"
    broken["agents"] = broken["agents"][:-1]
    payload["cases"].append(broken)
    path = tmp_path / "with_failure.json"
    path.write_text(json.dumps(payload))
    return path


class TestFailedCases:
    def test_failed_case_exits_3_and_keeps_the_others(self, tmp_path, corpus_path, capsys):
        dataset = corpus_with_short_case(tmp_path, corpus_path)
        cfg = write_config(tmp_path, dataset)
        assert main(["run", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert "case error: one-agent-short" in err
        assert "1 of 4 cases failed" in err
        _, rows = read_results(tmp_path / "out")
        assert [r["case_id"] for r in rows if "error" not in r] == [
            c["case_id"] for c in json.loads(Path(corpus_path).read_text())["cases"]
        ]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failed_case_is_an_error_row_and_counted(self, tmp_path, corpus_path, jobs):
        dataset = corpus_with_short_case(tmp_path, corpus_path)
        # the failing case first, so dataset order differs from completion order
        payload = json.loads(dataset.read_text())
        payload["cases"].insert(0, payload["cases"].pop())
        dataset.write_text(json.dumps(payload))
        cfg = write_config(tmp_path, dataset, jobs=jobs)
        assert main(["run", "--config", str(cfg)]) == 3
        out = tmp_path / "out"
        _, rows = read_results(out)
        assert [r["case_id"] for r in rows] == [c["case_id"] for c in payload["cases"]]
        assert rows[0] == {"case_id": "one-agent-short",
                           "error": "case 'one-agent-short' scripts 6 agents but config says n=7"}
        assert all("error" not in r for r in rows[1:])

        def metrics_rows(path):
            lines = path.read_text().splitlines()
            return list(csv.reader(line for line in lines if not line.startswith("#")))

        header, row = metrics_rows(out / "metrics.csv")
        assert header[:3] == ["label", "n_cases", "n_failed"] and header[-1] == "accuracy"
        assert (row[1], row[2], float(row[-1])) == ("3", "1", 1.0)
        # the metrics command reads the error row back the same way
        assert main(["metrics", str(out / "results.jsonl"), "--out", str(tmp_path / "agg")]) == 0
        assert metrics_rows(tmp_path / "agg" / "metrics.csv")[1][1:] == row[1:]

    def test_failed_case_in_a_sweep_exits_3(self, tmp_path, corpus_path, capsys):
        dataset = corpus_with_short_case(tmp_path, corpus_path)
        cfg = tmp_path / "sweep.yaml"
        cfg.write_text(yaml.safe_dump({
            "run": {"n": 7, "dataset": str(dataset), "out": str(tmp_path / "sweep")},
            "backend": {"kind": "scripted"},
            "sweep": {"seed": [1, 2]},
        }))
        assert main(["run", "--config", str(cfg)]) == 3
        assert capsys.readouterr().err.count("1 of 4 cases failed") == 2
        assert (tmp_path / "sweep" / "metrics.csv").is_file()


class TestCmdSimulate:
    def _config(self, tmp_path, **kwargs):
        section = {
            "n_min": 3, "n_max": 4, "seeds": 3,
            "modes": ["supportive", "conflicting", "leader", "speedup"],
            "out": str(tmp_path / "sim"),
            **kwargs,
        }
        path = tmp_path / "sim.yaml"
        path.write_text(yaml.safe_dump({"simulate": section}))
        return path

    def test_small_suite_passes(self, tmp_path, capsys):
        cfg = self._config(tmp_path)
        assert main(["simulate", "--config", str(cfg)]) == 0
        report = (tmp_path / "sim" / "properties.txt").read_text()
        assert report.count("PASS") == 4
        traces = list((tmp_path / "sim" / "traces").glob("*.csv"))
        assert traces
        for trace in traces:
            assert trace.read_text().startswith("# config:")
        assert "PASS" in capsys.readouterr().out

    def test_zero_seeds_exits_1(self, tmp_path):
        cfg = self._config(tmp_path, seeds=0)
        assert main(["simulate", "--config", str(cfg)]) == 1

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0])
    def test_non_finite_or_zero_tol_exits_1(self, tmp_path, capsys, tol):
        # a nan tol once passed, and the leader check ran out its step budget
        cfg = self._config(tmp_path, tol=tol)
        assert main(["simulate", "--config", str(cfg)]) == 1
        assert "tol must be finite and positive" in capsys.readouterr().err

    def test_bad_range_exits_1(self, tmp_path):
        cfg = self._config(tmp_path, n_min=9, n_max=3)
        assert main(["simulate", "--config", str(cfg)]) == 1

    def test_unknown_mode_exits_1(self, tmp_path):
        cfg = self._config(tmp_path, modes=["sideways"])
        assert main(["simulate", "--config", str(cfg)]) == 1

    @pytest.mark.parametrize("modes", ["leader", []], ids=["string", "empty"])
    def test_modes_not_a_non_empty_list_exits_1(self, tmp_path, capsys, modes):
        # a string was once split into characters; an empty list ran no check
        # and exited 0
        cfg = self._config(tmp_path, modes=modes)
        assert main(["simulate", "--config", str(cfg)]) == 1
        assert "simulate.modes must be a non-empty list" in capsys.readouterr().err
        assert not (tmp_path / "sim").exists()

    @pytest.mark.parametrize("section, message", [
        ({"trace_seeds": -1}, "invalid simulate configuration: trace_seeds must be nonnegative"),
        ({"modes": ["supportive", "supportive"]},
         "invalid simulate configuration: modes lists a mode twice"),
    ], ids=["negative-trace-seeds", "repeated-mode"])
    def test_negative_trace_seeds_or_repeated_mode_exits_1(self, tmp_path, capsys, section,
                                                            message):
        # each once exited 0: no trace written, or one check run but two echoed
        cfg = self._config(tmp_path, **section)
        assert main(["simulate", "--config", str(cfg)]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "sim").exists()

    def test_unknown_key_exits_1(self, tmp_path, capsys):
        # it once ran the suite at master_seed 0 and exited 0
        cfg = self._config(tmp_path, mastr_seed=5)
        assert main(["simulate", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith("config error: unknown key 'mastr_seed' in simulate")
        assert not (tmp_path / "sim").exists()

    def test_negative_master_seed_exits_1(self, tmp_path, capsys):
        # it once passed the checks, and SeedSequence raised a traceback
        cfg = self._config(tmp_path, master_seed=-1)
        assert main(["simulate", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err == ("config error: invalid simulate configuration: "
                       "master_seed must be nonnegative, got -1\n")
        assert not (tmp_path / "sim").exists()

    def test_supportive_trace_matches_hand_iteration(self, tmp_path):
        cfg = self._config(tmp_path, modes=["supportive"], seeds=1)
        assert main(["simulate", "--config", str(cfg)]) == 0
        trace = (tmp_path / "sim" / "traces" / "supportive_n3_seed0.csv").read_text()
        lines = [l for l in trace.splitlines() if l and not l.startswith("#")]
        header, rows = lines[0], [l.split(",") for l in lines[1:]]
        step0 = [float(r[2]) for r in rows if r[0] == "0"]
        step2 = [float(r[2]) for r in rows if r[0] == "2"]
        # the all-pairs tie case is a period-2 reflection
        assert step0 == pytest.approx(step2, abs=1e-12)

    def test_checks_run_in_mode_table_order(self, tmp_path, capsys):
        cfg = self._config(tmp_path, modes=["speedup", "supportive"], seeds=2)
        assert main(["simulate", "--config", str(cfg)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("PASS supportive convergence")
        assert lines[1].startswith("PASS belief speedup")

    def test_check_is_looked_up_when_it_runs(self, tmp_path, monkeypatch):
        # the benchmark's tracer times a check by wrapping its name on
        # `verification`; every check reads the one config `_read` built
        built, calls = [], []
        read = cli._read

        def recording_read(cls, *args, **kwargs):
            result = read(cls, *args, **kwargs)
            if cls is verification.SimulateConfig:
                built.append(result[0])
            return result

        def traced(name, original):
            def check(sim, **kwargs):
                calls.append((name, sim))
                return original(sim, **kwargs)
            return check

        monkeypatch.setattr(cli, "_read", recording_read)
        for name, _ in verification.CHECKS.values():
            monkeypatch.setattr(verification, name, traced(name, getattr(verification, name)))
        cfg = self._config(tmp_path, seeds=2)
        assert main(["simulate", "--config", str(cfg)]) == 0
        assert len(built) == 1 and built[0].seeds == 2
        assert [name for name, _ in calls] == [name for name, _ in verification.CHECKS.values()]
        assert all(sim is built[0] for _, sim in calls)


class TestConfigFiles:
    @pytest.mark.parametrize("name", sorted(p.name for p in CONFIGS.glob("*.yaml")))
    def test_shipped_config_loads(self, tmp_path, name):
        path = CONFIGS / name
        sections = yaml.safe_load(path.read_text())
        commands = [c for c in ("run", "simulate") if c in sections]
        assert commands
        # the branch corpus has a case that fails by design, to write its error row
        exit_code = cli.EXIT_CASES_FAILED if name == "branches.yaml" else cli.EXIT_OK
        for command in commands:
            assert main([command, "--config", str(path),
                         "--out", str(tmp_path / command)]) == exit_code

    def test_json_written_config_loads(self, tmp_path, corpus_path):
        # the shape a benchmark worker writes: JSON, which YAML reads with tol as a string
        payload = {
            "run": {"n": 7, "max_rounds": 1, "seed": 0, "jobs": 1, "dataset": str(corpus_path),
                    "out": str(tmp_path / "sweep")},
            "backend": {"kind": "scripted", "timeout": 10.0, "retries": 2, "backoff": 0.05},
            "sweep": {"n_clusters": [2, 3], "adversarial_noise": [False, True]},
            "simulate": {"n_min": 3, "n_max": 4, "seeds": 2, "modes": ["supportive", "leader"],
                         "tol": 1.0e-9, "max_steps": 10000, "master_seed": 0, "trace_seeds": 1,
                         "out": str(tmp_path / "sim")},
        }
        cfg = tmp_path / "config.yaml"
        cfg.write_text(json.dumps(payload, indent=1) + "\n")
        assert yaml.safe_load(cfg.read_text())["simulate"]["tol"] == "1e-09"
        assert main(["run", "--config", str(cfg)]) == 0
        for k, noise in [(2, False), (2, True), (3, False), (3, True)]:
            header, rows = read_results(tmp_path / "sweep" / f"n_clusters{k}_adversarial_noise{noise}")
            assert (header["run"]["n_clusters"], header["run"]["adversarial_noise"]) == (k, noise)
            assert len(rows) == 3
        assert main(["simulate", "--config", str(cfg)]) == 0
        first = (tmp_path / "sim" / "properties.txt").read_text().splitlines()[0]
        assert json.loads(first.removeprefix("# config: "))["tol"] == 1e-9

    @pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")
    def test_libyaml_reads_every_config_as_the_python_parser(self, tmp_path):
        # the shipped configs, and JSON whose 1e-09 the YAML resolver reads as a string
        cfg = tmp_path / "config.json.yaml"
        cfg.write_text(json.dumps({"simulate": {"tol": 1.0e-9, "modes": ["leader"]},
                                   "run": {"n": 7, "dataset": "d.json"}}, indent=1))
        paths = sorted(CONFIGS.glob("*.yaml")) + [cfg]
        assert cli._YAML_LOADER is yaml.CSafeLoader
        for path in paths:
            text = path.read_text()
            want = yaml.load(text, Loader=yaml.SafeLoader)
            assert yaml.load(text, Loader=yaml.CSafeLoader) == want
            assert cli._load_config(str(path))[0] == want
        assert want["simulate"]["tol"] == "1e-09"

    @pytest.mark.parametrize("loader", ["CSafeLoader", "SafeLoader"])
    def test_malformed_yaml_is_a_config_error(self, tmp_path, capsys, monkeypatch, loader):
        if not hasattr(yaml, loader):
            pytest.skip("PyYAML built without libyaml")
        monkeypatch.setattr(cli, "_YAML_LOADER", getattr(yaml, loader))
        cfg = tmp_path / "config.yaml"
        cfg.write_text("run:\n  n: [7, 3\n  seed: 1\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("config error: config file is not valid YAML")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, section, value, message", [
        ("simulate", "run", {"max_round": 9}, "unknown key 'max_round' in run"),
        ("simulate", "backends", [5], "backends[0] must be a mapping, got 5"),
        ("run", "simulate", {"mastr_seed": 5}, "unknown key 'mastr_seed' in simulate"),
    ], ids=["simulate-run-key", "simulate-backends-entry", "run-simulate-key"])
    def test_each_command_checks_every_section(self, tmp_path, corpus_path, capsys, command,
                                               section, value, message):
        # each once exited 0: a command read only its own sections
        cfg = yaml.safe_load(write_config(tmp_path, corpus_path).read_text())
        cfg["simulate"] = {"seeds": 1, "out": str(tmp_path / "sim")}
        cfg[section] = {**cfg[section], **value} if isinstance(value, dict) else value
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump(cfg))
        assert main([command, "--config", str(path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"config error: {message}")
        assert not (tmp_path / "out").exists() and not (tmp_path / "sim").exists()


class TestPaths:
    """A path the config file gives is relative to the file's directory, one a
    flag gives to the working directory. The config sits in conf/, the command
    runs in work/, and both hold data/corpus.json, so only where the outputs
    land and the dataset echoed tell the two bases apart."""

    CONFIG = "../conf/config.yaml"

    @pytest.fixture
    def dirs(self, tmp_path, corpus_path, monkeypatch):
        conf, work = tmp_path / "conf", tmp_path / "work"
        for d in (conf, work):
            (d / "data").mkdir(parents=True)
            shutil.copy(corpus_path, d / "data" / "corpus.json")
        monkeypatch.chdir(work)
        return conf, work

    def _write(self, conf, run, simulate):
        payload = {"run": {"n": 7, "max_rounds": 1, **run}, "backend": {"kind": "scripted"},
                   "simulate": {"n_min": 3, "n_max": 3, "seeds": 1, "modes": ["supportive"],
                                **simulate}}
        (conf / "config.yaml").write_text(yaml.safe_dump(payload))

    @pytest.mark.parametrize("where", ["file-relative", "flag-relative", "file-absolute"])
    def test_paths_resolve_against_the_config_or_working_directory(self, tmp_path, corpus_path,
                                                                    dirs, where):
        conf, work = dirs
        run_flags, sim_flags = [], []
        if where == "file-relative":
            self._write(conf, {"dataset": "data/corpus.json", "out": "out"}, {"out": "sim"})
            dataset, out, sim_out = "../conf/data/corpus.json", conf / "out", conf / "sim"
        elif where == "flag-relative":
            self._write(conf, {"dataset": "nope.json", "out": "nope"}, {"out": "nope-sim"})
            run_flags = ["--dataset", "data/corpus.json", "--out", "out"]
            sim_flags = ["--out", "sim"]
            dataset, out, sim_out = "data/corpus.json", work / "out", work / "sim"
        else:
            out, sim_out = tmp_path / "abs-out", tmp_path / "abs-sim"
            self._write(conf, {"dataset": str(corpus_path), "out": str(out)},
                        {"out": str(sim_out)})
            dataset = str(corpus_path)
        assert main(["run", "--config", self.CONFIG, *run_flags]) == 0
        assert main(["simulate", "--config", self.CONFIG, *sim_flags]) == 0
        assert list(tmp_path.rglob("results.jsonl")) == [out / "results.jsonl"]
        assert list(tmp_path.rglob("properties.txt")) == [sim_out / "properties.txt"]
        assert read_results(out)[0]["dataset"] == dataset

    @pytest.mark.parametrize("command, flags, section, message", [
        ("run", ["--out", ""], {}, "--out is an empty path"),
        ("run", ["--dataset", ""], {}, "--dataset is an empty path"),
        ("run", [], {"run": {"out": ""}}, "run.out is an empty path"),
        ("run", [], {"run": {"dataset": ""}}, "run.dataset is an empty path"),
        ("simulate", ["--out", ""], {}, "--out is an empty path"),
        ("simulate", [], {"simulate": {"out": ""}}, "simulate.out is an empty path"),
    ], ids=["run-out-flag", "run-dataset-flag", "run-out-file", "run-dataset-file",
            "simulate-out-flag", "simulate-out-file"])
    def test_empty_path_exits_1_and_writes_nothing(self, tmp_path, dirs, capsys, command, flags,
                                                   section, message):
        # run --out '' once wrote into the working directory, simulate --out ''
        # fell back to the config's out, and run --dataset '' read '.' (exit 2)
        conf, _ = dirs
        self._write(conf, {"dataset": "data/corpus.json", "out": "out", **section.get("run", {})},
                    {"out": "sim", **section.get("simulate", {})})
        before = sorted(tmp_path.rglob("*"))
        assert main([command, "--config", self.CONFIG, *flags]) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert sorted(tmp_path.rglob("*")) == before


class TestOutputDirectories:
    """An `--out` that is empty is a config error before each command's first
    case, check or input read; one that cannot be made a directory, before
    the first case or check of `run` and `simulate`, and before `metrics`
    writes anything."""

    @pytest.fixture(params=["run", "simulate", "metrics"])
    def command(self, request, tmp_path, corpus_path, monkeypatch, capsys):
        """The command's argv without --out, and the list its work appends to."""
        work = []

        def record(owner, name):
            original = getattr(owner, name)

            def recorded(*args, **kwargs):
                work.append(name)
                return original(*args, **kwargs)
            monkeypatch.setattr(owner, name, recorded)

        cfg = write_config(tmp_path, corpus_path)
        if request.param == "run":
            record(cli, "run_case")
            argv = ["run", "--config", str(cfg)]
        elif request.param == "simulate":
            for name, _ in verification.CHECKS.values():
                record(verification, name)
            argv = ["simulate", "--config", str(self._simulate_config(tmp_path))]
        else:
            assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 0
            record(cli, "rows_from_results_jsonl")
            argv = ["metrics", str(tmp_path / "r" / "results.jsonl")]
        capsys.readouterr()
        return argv, work

    @staticmethod
    def _simulate_config(tmp_path):
        path = tmp_path / "sim.yaml"
        path.write_text(yaml.safe_dump({"simulate": {"n_min": 3, "n_max": 3, "seeds": 1}}))
        return path

    def test_out_that_is_a_file_exits_1_before_any_work(self, command, tmp_path, capsys):
        # run and simulate once ran every case or check, then died with a
        # NotADirectoryError traceback; metrics with a FileExistsError one.
        # metrics reads its inputs first, so a bad one leaves no directory
        argv, work = command
        read = ["rows_from_results_jsonl"] if argv[0] == "metrics" else []
        afile = tmp_path / "afile"
        afile.write_text("kept\n")
        assert main([*argv, "--out", str(afile)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot make output directory {afile}")
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert work == read and afile.read_text() == "kept\n"

    def test_empty_out_exits_1_before_any_work(self, command, tmp_path, capsys):
        # metrics --out '' once printed the table, wrote nothing and exited 0
        argv, work = command
        before = sorted(tmp_path.rglob("*"))
        assert main([*argv, "--out", ""]) == 1
        assert capsys.readouterr().err == "config error: --out is an empty path\n"
        assert work == [] and sorted(tmp_path.rglob("*")) == before


class TestCmdMetrics:
    def test_aggregates_results_files(self, tmp_path, corpus_path, capsys):
        cfg = write_config(tmp_path, corpus_path)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "r1")]) == 0
        assert main(["run", "--config", str(cfg), "--seed", "7",
                     "--out", str(tmp_path / "r2")]) == 0
        rc = main([
            "metrics",
            str(tmp_path / "r1" / "results.jsonl"),
            str(tmp_path / "r2" / "results.jsonl"),
            "--out", str(tmp_path / "agg"),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "CL" in out and "groups:" in out
        csv_text = (tmp_path / "agg" / "metrics.csv").read_text()
        assert "cl_mean_sem" in csv_text

    @pytest.mark.parametrize("bad", ["only", "second"])
    def test_bad_results_file_makes_no_out_directory(self, tmp_path, corpus_path, capsys, bad):
        # a file holding [1] once exited 2 and left an empty --out directory
        cfg = write_config(tmp_path, corpus_path)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 0
        path = tmp_path / "bad.jsonl"
        path.write_text("[1]\n")
        inputs = [path] if bad == "only" else [tmp_path / "r" / "results.jsonl", path]
        out = tmp_path / "agg" / "nested"
        assert main(["metrics", *map(str, inputs), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"dataset error: {path}: line 1 must be")
        assert not (tmp_path / "agg").exists()

    def test_missing_results_file_exits_2(self, tmp_path):
        assert main(["metrics", str(tmp_path / "none.jsonl")]) == 2

    @pytest.fixture
    def headerless(self, tmp_path, corpus_path):
        """The corpus run's results.jsonl without its config line, and its case rows."""
        cfg = write_config(tmp_path, corpus_path)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 0
        rows = (tmp_path / "r" / "results.jsonl").read_text().splitlines()[1:]
        path = tmp_path / "headerless.jsonl"
        path.write_text("\n".join(rows) + "\n")
        return path, rows

    @pytest.mark.parametrize("agents", ["0", "-7", "2.5", "seven"])
    def test_bad_agent_flag_is_a_config_error(self, headerless, capsys, agents):
        # 0 once died with a ZeroDivisionError traceback; -7 exited 0 with CL -0.7619
        assert main(["metrics", str(headerless[0]), "--agents", agents]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: --agents must be a positive integer, got ")
        assert len(err.splitlines()) == 1 and agents in err

    @pytest.mark.parametrize("n", [0, -7, 2.5, True, "7"])
    def test_bad_header_agent_count_is_a_config_error(self, headerless, tmp_path, capsys, n):
        path = tmp_path / "bad-n.jsonl"
        header = json.dumps({"config": {"run": {"n": n}}})
        path.write_text(header + "\n" + headerless[0].read_text())
        assert main(["metrics", str(path), "--agents", "7"]) == 1
        assert capsys.readouterr().err.startswith(f"config error: {path}: header n must be")

    def test_agent_flag_digits(self, headerless, capsys):
        assert main(["metrics", str(headerless[0]), "--agents", "7"]) == 0
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("row, message", [
        # once a KeyError
        ({"case_id": "x", "n_rounds": 2}, "line 2: consensus_count, correct are missing"),
        ([1, 2], "line 2 must be a mapping, got [1, 2]"),  # once a TypeError
        ({"case_id": "x", "consensus_count": 3, "n_rounds": 2, "correct": "false"},
         "line 2: correct must be true or false, got 'false'"),  # once counted as correct
        ({"case_id": "x", "consensus_count": True, "n_rounds": 2, "correct": True},
         "line 2: consensus_count must be an integer, got True"),
        ({"case_id": "x", "consensus_count": 3, "n_rounds": 1.0, "correct": True},
         "line 2: n_rounds must be an integer, got 1.0"),
        ({"case_id": "x", "consensus_count": 8, "n_rounds": 2, "correct": True},
         "case 'x' has consensus_count 8 outside [0, 7]"),
        ({"case_id": "x", "consensus_count": -1, "n_rounds": 2, "correct": True},
         "case 'x' has consensus_count -1 outside [0, 7]"),
        ({"case_id": "x", "consensus_count": 3, "n_rounds": 0, "correct": True},
         "case 'x' has no rounds"),
        ({"config": []}, "line 2: config must be a mapping, got []"),
        ({"error": "boom"}, "line 2: case_id is missing"),
    ], ids=["lacks-fields", "array-row", "string-bool", "bool-count", "float-rounds",
            "count-above-n", "negative-count", "no-rounds", "array-config", "error-no-id"])
    def test_bad_row_is_a_dataset_error(self, headerless, tmp_path, capsys, row, message):
        path, rows = headerless
        path.write_text("\n".join([rows[0], json.dumps(row), *rows[1:]]) + "\n")
        assert main(["metrics", str(path), "--agents", "7"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"dataset error: {path}: ") and message in err
        assert "Traceback" not in err

    def test_truncated_row_is_a_dataset_error(self, headerless, capsys):
        path, rows = headerless
        path.write_text("\n".join([rows[0][:40], *rows[1:]]) + "\n")
        assert main(["metrics", str(path), "--agents", "7"]) == 2
        assert capsys.readouterr().err.startswith(f"dataset error: {path}: ")
