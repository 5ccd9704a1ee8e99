"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL
line. Tolerances and budgets are pinned here, not configurable."""

import hashlib
import json
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from belief_consensus.agents import BackendConfig, ChatCompletionsAgent, ScriptedAgent
from belief_consensus.cli import main
from belief_consensus.coordination import pairwise_reports
from belief_consensus.core import Opinion, RunConfig, ScenarioCase, scenarios_from_json
from belief_consensus.grouping import OpinionGroup, group_entropy
from belief_consensus.judgment import judge_byzantine, judge_consensus
from belief_consensus.metrics import MetricsRow, compute_metrics
from belief_consensus.orchestrator import run_case
from belief_consensus.verification import (
    SimulateConfig,
    verify_belief_speedup,
    verify_conflict_instability,
    verify_leader_convergence,
    verify_supportive_convergence,
)

from conflict_oracle import SUM_GAP_EPS, oracle_combined
from round_oracles import columns_of


def report(name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"{status} {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


class TestConvergenceProperties:
    def test_supportive_convergence(self):
        t0 = time.perf_counter()
        result = verify_supportive_convergence(
            SimulateConfig(n_min=3, n_max=10, seeds=100, tol=1e-9, max_steps=10_000)
        )
        elapsed = time.perf_counter() - t0
        report(
            "supportive averaging convergence",
            result.passed and elapsed < 60.0,
            f"{result.trajectories} trajectories, {result.checks} identity checks, "
            f"{elapsed:.1f}s" + (f"; {result.failures[:1]}" if result.failures else ""),
        )

    def test_conflict_instability(self):
        t0 = time.perf_counter()
        result = verify_conflict_instability(SimulateConfig(seeds=100))
        elapsed = time.perf_counter() - t0
        report(
            "conflicting-collaboration belief divergence",
            result.passed and elapsed < 30.0,
            f"{result.trajectories} trajectories, {elapsed:.1f}s"
            + (f"; {result.failures[:1]}" if result.failures else ""),
        )

    def test_leader_convergence(self):
        result = verify_leader_convergence(SimulateConfig(seeds=100, tol=1e-9), n_leaders=2)
        report(
            "leader-following convergence",
            result.passed,
            f"{result.trajectories} trajectories"
            + (f"; {result.failures[:1]}" if result.failures else ""),
        )

    def test_belief_speedup(self):
        result = verify_belief_speedup(SimulateConfig(seeds=100))  # 95 pairs must pass
        pairs = result.name.split("(", 1)[-1].rstrip(")")
        report(
            "higher-belief leader speedup",
            result.passed,
            pairs + (f"; {result.failures[:1]}" if result.failures else ""),
        )


class TestJudgmentRegression:
    def test_case_study_rows(self, corpus_path):
        round1 = [
            Opinion("a1", "", "B", 0.04), Opinion("a2", "", "B", 0.04),
            Opinion("a3", "", "B", 0.04), Opinion("a4", "", "B", 0.03),
            Opinion("a5", "", "C", 0.52), Opinion("a6", "", "C", 0.24),
            Opinion("a7", "", "C", 0.24),
        ]
        v1 = judge_consensus(columns_of(round1), 7)
        ok = (v1.state == "None" and round(v1.p_s, 2) == 0.57 and round(v1.p_b, 2) == 0.13)

        round2 = [Opinion(f"a{i}", "", "C", 0.97) for i in range(2, 8)]
        round2.append(Opinion("a1", "", "B", 0.18))
        v2 = judge_consensus(columns_of(round2), 7)
        ok = ok and (v2.state == "Full" and round(v2.p_s, 2) == 0.86 and round(v2.p_b, 2) == 0.97)

        baseline = [Opinion(f"a{i}", "", "B", 0.1) for i in range(1, 7)]
        baseline.append(Opinion("a7", "", "C", 0.9))
        byz, p_s = judge_byzantine(columns_of(baseline), 7)
        ok = ok and byz and round(p_s, 2) == 0.86

        case = scenarios_from_json(corpus_path)[0]
        backend = ScriptedAgent()
        rep = run_case(case, RunConfig(seed=0), {aid: backend for aid in case.scripts})
        ok = ok and rep.n_rounds == 2 and rep.final_answer == "C" and rep.correct
        report(
            "consensus-judgment regression (case-study values)",
            ok,
            f"round1=({v1.state},{v1.p_s:.2f},{v1.p_b:.2f}) "
            f"round2=({v2.state},{v2.p_s:.2f},{v2.p_b:.2f}) "
            f"byzantine={byz} run={rep.n_rounds} rounds -> {rep.final_answer!r}",
        )


class TestConflictScoreOracle:
    def test_exhaustive_equivalence(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(2024)
        answers = ["A", "B", "C"]
        grid = [round(0.1 * i, 1) for i in range(1, 10)]
        checked = 0
        mismatches = 0
        target = 10_000
        while checked < target:
            p_size = int(rng.integers(1, 5))
            q_size = int(rng.integers(1, 5))
            p_raw = [(answers[rng.integers(3)], grid[rng.integers(9)]) for _ in range(p_size)]
            q_raw = [(answers[rng.integers(3)], grid[rng.integers(9)]) for _ in range(q_size)]
            p_members = [Opinion(f"p{i}", "", a, b) for i, (a, b) in enumerate(p_raw)]
            q_members = [Opinion(f"q{i}", "", a, b) for i, (a, b) in enumerate(q_raw)]
            gp = OpinionGroup(0, tuple(o.agent_id for o in p_members),
                              group_entropy([o.belief for o in p_members]), "A")
            gq = OpinionGroup(1, tuple(o.agent_id for o in q_members),
                              group_entropy([o.belief for o in q_members]), "A")
            got = pairwise_reports([gp, gq], columns_of(p_members + q_members))[(0, 1)]
            macro, micro, combined = oracle_combined(p_raw, q_raw)
            same_macro = math.isclose(got.macro, macro, rel_tol=1e-12)
            same_micro = (
                (math.isinf(got.micro) and math.isinf(micro))
                or math.isclose(got.micro, micro, rel_tol=1e-12)
            )
            same_combined = (
                (math.isinf(got.combined) and math.isinf(combined))
                or math.isclose(got.combined, combined, rel_tol=1e-12)
            )
            # a score within relative SUM_GAP_EPS of 2 is not above it
            same_relation = got.relation == (
                "Conflicting" if combined - 2.0 > SUM_GAP_EPS * 2.0 else "Supportive"
            )
            if not (same_macro and same_micro and same_combined and same_relation):
                mismatches += 1
            checked += 1
        elapsed = time.perf_counter() - t0
        report(
            "conflict-score brute-force oracle",
            mismatches == 0 and elapsed < 120.0,
            f"{checked} configurations, {mismatches} mismatches, {elapsed:.1f}s",
        )


class TestMetricsCriterion:
    def test_hand_examples_and_monotonicity(self):
        one = compute_metrics([MetricsRow("u", 7, 1, True)], n=7)
        ok = (
            abs(one.cl - 1.0) < 1e-12 and abs(one.scl - 1.0) < 1e-12
            and abs(one.scr - 7.0) < 1e-12 and one.accuracy == 1.0
        )
        two = compute_metrics([MetricsRow("u", 6, 2, False)], n=7)
        ok = ok and abs(two.cl - 6 / 7) < 1e-12 and two.scl == 0.0 and two.scr == 0.0
        three = compute_metrics(
            [MetricsRow("u1", 5, 2, True), MetricsRow("u2", 7, 1, True)], n=7
        )
        ok = ok and abs(three.cl - 6 / 7) < 1e-12 and abs(three.scl - 6 / 7) < 1e-12
        ok = ok and abs(three.scr - 4.75) < 1e-12

        rng = np.random.default_rng(77)
        holds = 0
        for _ in range(1000):
            n = int(rng.integers(2, 10))
            rows = [
                MetricsRow("u", int(rng.integers(0, n + 1)), int(rng.integers(1, 5)),
                           bool(rng.integers(0, 2)))
                for _ in range(int(rng.integers(1, 8)))
            ]
            s = compute_metrics(rows, n)
            holds += s.scl <= s.cl + 1e-12
        ok = ok and holds == 1000
        report(
            "metrics formulas and SCL<=CL",
            ok,
            f"3 hand examples at 1e-12, SCL<=CL held in {holds}/1000 random sets",
        )


class TestEndToEndDeterminism:
    def test_corpus_twice_byte_identical(self, tmp_path, corpus_path):
        def run(out):
            rc = main([
                "run", "--dataset", str(corpus_path), "--seed", "0",
                "--backend", "scripted", "--out", str(out),
            ])
            assert rc == 0
            return (Path(out) / "results.jsonl").read_bytes()

        one = run(tmp_path / "r1")
        two = run(tmp_path / "r2")
        rows = [json.loads(l) for l in one.decode().splitlines() if "case_id" in json.loads(l)]
        accuracy = sum(r["correct"] for r in rows) / len(rows)
        report(
            "end-to-end determinism and corpus accuracy",
            one == two and accuracy == 1.0,
            f"byte-identical={one == two}, accuracy={accuracy}",
        )


def case_lines_digest(out) -> str:
    """SHA-256 of the per-case lines of results.jsonl (the header echoes paths)."""
    lines = (Path(out) / "results.jsonl").read_text().splitlines()
    cases = [line for line in lines if "case_id" in json.loads(line)]
    return hashlib.sha256(("\n".join(cases) + "\n").encode()).hexdigest()


def rounds_csv_digest(out) -> str:
    """SHA-256 of traces/rounds.csv after its config-echo comment line."""
    text = (Path(out) / "traces" / "rounds.csv").read_bytes()
    assert text.startswith(b"# config: ")
    return hashlib.sha256(text.split(b"\n", 1)[1]).hexdigest()


# taken with the reference round layers now kept in tests/round_oracles.py
CORPUS_DIGEST = "1a548121835e0d7ddbe0bcbbd8e073b1afe66a14baa19d0532b54bd08ad8f5a4"
STOCHASTIC_N200_DIGEST = "2b1f9542d0bb8cd60113871c878258aad4e60d8ae2415b0c54038938c44c628c"
# taken with per-agent Opinion rounds and row-by-row writers, before rounds
# became columns
CORPUS_CSV_DIGEST = "ab004a1ffec26a3794e09d30bd178a0701d170753156e8668dab03b905baff6c"
STOCHASTIC_N200_CSV_DIGEST = "90ea178760f4bc8e21b3ce2b50c0ff21918c9735e211e33c813da341d0b7b4fa"
NOISE_MIXED_DIGEST = "d028509a20409b468364d51cbb6e3055c695953d84b98096a471962df04b4355"
NOISE_MIXED_CSV_DIGEST = "e2794b5c2e3766b9913a09d7daef74dc3866d04d90c436d0638c7bdfa73b8ce8"


class TestPinnedResults:
    """The exact per-case results, so a change that alters any decision,
    group, delegate or belief fails even when reruns stay identical."""

    def test_scripted_corpus_digest(self, tmp_path, corpus_path):
        rc = main(["run", "--dataset", str(corpus_path), "--seed", "0",
                   "--backend", "scripted", "--out", str(tmp_path)])
        assert rc == 0
        digest = case_lines_digest(tmp_path)
        report("scripted corpus results pinned", digest == CORPUS_DIGEST, digest)
        digest = rounds_csv_digest(tmp_path)
        report("scripted corpus rounds.csv pinned", digest == CORPUS_CSV_DIGEST, digest)

    def test_stochastic_n200_digest(self, tmp_path, corpus_path):
        # 200 agents over the corpus questions; rounds take both the
        # leader and the collaborator-assignment branch
        rc = main(["run", "--dataset", str(corpus_path), "--seed", "0",
                   "--backend", "stochastic", "--agents", "200", "--max-rounds", "5",
                   "--out", str(tmp_path)])
        assert rc == 0
        digest = case_lines_digest(tmp_path)
        report("stochastic n=200 results pinned", digest == STOCHASTIC_N200_DIGEST, digest)
        digest = rounds_csv_digest(tmp_path)
        report("stochastic n=200 rounds.csv pinned", digest == STOCHASTIC_N200_CSV_DIGEST, digest)

    def test_stochastic_noise_mixed_delegates_digest(self, tmp_path, corpus_path):
        # adversarial noise and mixed delegates, which only a config file sets:
        # 15 noise victims, and 5 least-reliable agents that also get
        # supportive delegates
        config = tmp_path / "noise.yaml"
        config.write_text(json.dumps({"run": {"adversarial_noise": True,
                                              "mixed_delegates": True}}))
        out = tmp_path / "out"
        rc = main(["run", "--config", str(config), "--dataset", str(corpus_path),
                   "--seed", "0", "--backend", "stochastic", "--agents", "60",
                   "--max-rounds", "5", "--out", str(out)])
        assert rc == 0
        cases = [json.loads(line) for line in (out / "results.jsonl").read_text().splitlines()
                 if "case_id" in json.loads(line)]
        rounds = [r for case in cases for r in case["rounds"]]
        victims = sum(r["noise_victim"] is not None for r in rounds)
        mixed = sum(any(tag == "supportive" for _, tag in
                        r["assignment"]["assignments"][r["assignment"]["least_reliable_agent"]])
                    for r in rounds if "assignment" in r)
        assert (victims, mixed) == (15, 5)
        digest = case_lines_digest(out)
        report("noise and mixed delegates results pinned", digest == NOISE_MIXED_DIGEST, digest)
        digest = rounds_csv_digest(out)
        report("noise and mixed delegates rounds.csv pinned",
               digest == NOISE_MIXED_CSV_DIGEST, digest)


# taken with the leader rule as its own dynamics mode, before a topology
# became one collaborator graph
SIMULATE_TRACE_DIGESTS = {
    "supportive_n3_seed0.csv": "58abd599d767450c741e713b43935631c99e6515bfa2ef0685d4863eef0d8445",
    "supportive_n3_seed1.csv": "9c294645d4659d80afa34ed871f531a3cf871f1626649cbcfafb35681a8dbb1c",
    "conflicting_n3_seed0.csv": "0ac338db619fa75671e803cbafdc7663892c6bb43d95ac6f3be9cbccc9bef6a6",
    "conflicting_n3_seed1.csv": "80ee4e06c727ccc901837286b6bb564fc3452a3d7672b52c3d9fa5ee269bfea2",
    "leader_n3_seed0.csv": "437ef93111d7edb9a6e70427acb7434091953f3450218c1672dc5a6199b460d0",
    "leader_n3_seed1.csv": "2bcd471a58010ae1e749e6c32adfd855d9154d78ab8ebad074a213171e3eeba7",
}


class TestPinnedSimulateTraces:
    def test_trace_csv_bytes(self, tmp_path):
        config = tmp_path / "simulate.yaml"
        config.write_text(json.dumps({"simulate": {
            "n_min": 3, "n_max": 4, "seeds": 3, "trace_seeds": 2,
            "modes": ["supportive", "conflicting", "leader", "speedup"],
        }}))
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "sim")]) == 0
        traces = tmp_path / "sim" / "traces"
        got = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in sorted(traces.glob("*.csv"))}
        report("simulate trace CSVs pinned", got == SIMULATE_TRACE_DIGESTS, str(got))


LIVE_ENDPOINT = os.environ.get("CONSENSUS_SMOKE_ENDPOINT")


class TestLiveEndpointSmoke:
    @pytest.mark.skipif(
        not LIVE_ENDPOINT,
        reason="set CONSENSUS_SMOKE_ENDPOINT (and optional CONSENSUS_SMOKE_MODEL, "
        "CONSENSUS_SMOKE_API_KEY_ENV) to exercise a live endpoint",
    )
    def test_single_case_against_live_endpoint(self):
        cfg = BackendConfig(
            kind="http",
            endpoint=LIVE_ENDPOINT,
            model=os.environ.get("CONSENSUS_SMOKE_MODEL", ""),
            api_key_env=os.environ.get("CONSENSUS_SMOKE_API_KEY_ENV", ""),
            retries=2,
        )
        case = ScenarioCase(
            "smoke-mc",
            "Which planet is known as the Red Planet? A) Venus, B) Mars, "
            "C) Jupiter, D) Mercury.",
            "B",
        )
        backends = {f"agent-{i}": ChatCompletionsAgent(cfg) for i in range(1, 4)}
        rep = run_case(case, RunConfig(n=3, max_rounds=2, seed=0), backends)
        report(
            "live endpoint smoke",
            rep.n_rounds >= 1 and rep.final_answer != "",
            f"final={rep.final_answer!r} rounds={rep.n_rounds}",
        )
