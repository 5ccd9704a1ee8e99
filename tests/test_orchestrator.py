import io
import json
import math
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest
from round_oracles import (
    columns_of,
    opinions_by_id,
    no_delegates,
    opinions_of,
    oracle_leader_delegates,
    oracle_messages,
    oracle_results_jsonl,
    oracle_rounds_csv,
    report_to_dict,
)

from belief_consensus import agents
from belief_consensus.agents import (
    AgentError,
    Backend,
    BackendConfig,
    ChatCompletionsAgent,
    PROMPT_STYLES,
    RoundContext,
    ScriptedAgent,
    StochasticAgent,
    build_messages,
)
from belief_consensus.coordination import select_leaders
from belief_consensus.core import (
    AgentScript,
    Opinion,
    RoundColumns,
    RunConfig,
    ScenarioCase,
    ScriptedReply,
    TAG_CONFLICTING,
    TAG_LEADER,
    TAG_SUPPORTIVE,
    modal_answer as _modal_answer,
    scenarios_from_json,
    stable_hash,
)
from belief_consensus import orchestrator
from belief_consensus.grouping import OpinionGroup, _restart_draws, build_groups
from belief_consensus.judgment import NONE, PARTIAL
from belief_consensus.pcg64 import ROUNDS_PER_PASS
from belief_consensus.orchestrator import (
    CaseFailure,
    TERMINATED_FULL,
    TERMINATED_MAX_ROUNDS,
    TERMINATED_VOTING,
    _dispatch,
    rounds_to_csv,
    run_case,
    write_results_jsonl,
)


def make_case(case_id, rows, ground_truth="C", question="pick one",
              fallback="repeat_previous"):
    """rows: {agent_id: [(answer, reasoning, belief), ...]} indexed by round."""
    scripts = {}
    for agent_id, replies in rows.items():
        scripts[agent_id] = AgentScript(
            agent_id,
            tuple(
                ScriptedReply(r + 1, ans, reasoning, belief)
                for r, (ans, reasoning, belief) in enumerate(replies)
            ),
            fallback=fallback,
        )
    return ScenarioCase(case_id, question, ground_truth, scripts=scripts)


def scripted_backends(case):
    backend = ScriptedAgent()
    return {aid: backend for aid in case.scripts}


class TestRunCase:
    def test_unanimous_first_round_stops_immediately(self):
        rows = {f"a{i}": [("C", f"reason {i}", 0.9)] for i in range(1, 8)}
        case = make_case("unanimous", rows)
        report = run_case(case, RunConfig(seed=1), scripted_backends(case))
        assert report.n_rounds == 1
        assert report.terminated_by == TERMINATED_FULL
        assert report.final_answer == "C"
        assert report.consensus_count == 7
        assert report.correct

    def test_backend_arity_checked(self):
        rows = {f"a{i}": [("C", "", 0.9)] for i in range(1, 8)}
        case = make_case("arity", rows)
        backends = scripted_backends(case)
        backends.pop("a7")
        with pytest.raises(ValueError, match="arity"):
            run_case(case, RunConfig(seed=1), backends)

    def test_rounds_never_exceed_budget(self):
        rows = {
            "a1": [("A", "alpha side", 0.6)] * 4,
            "a2": [("A", "alpha side", 0.6)] * 4,
            "a3": [("B", "beta side", 0.6)] * 4,
            "a4": [("B", "beta side", 0.6)] * 4,
        }
        case = make_case("stuck", rows)
        report = run_case(case, RunConfig(n=4, max_rounds=4, seed=3), scripted_backends(case))
        assert report.n_rounds == 4
        assert report.terminated_by == TERMINATED_MAX_ROUNDS

    def test_voting_fallback_when_all_beliefs_low(self):
        rows = {
            "a1": [("A", "alpha camp words", 0.3), ("A", "alpha camp words", 0.3)],
            "a2": [("A", "alpha camp words", 0.3), ("A", "alpha camp words", 0.25)],
            "a3": [("B", "beta camp words", 0.4), ("B", "beta camp words", 0.35)],
            "a4": [("C", "gamma camp words", 0.2), ("C", "gamma camp words", 0.2)],
        }
        case = make_case("lowbelief", rows, ground_truth="A")
        report = run_case(case, RunConfig(n=4, max_rounds=2, seed=5), scripted_backends(case))
        assert report.terminated_by == TERMINATED_VOTING
        assert report.final_answer == "A"  # majority vote still taken
        assert report.correct

    def test_branch_exclusivity(self):
        rows = {
            "a1": [("A", "alpha words", 0.9)] * 3,
            "a2": [("A", "alpha words", 0.9)] * 3,
            "a3": [("B", "beta words", 0.2)] * 3,
            "a4": [("C", "gamma words", 0.2)] * 3,
            "a5": [("D", "delta words", 0.2)] * 3,
        }
        case = make_case("branches", rows, ground_truth="A")
        report = run_case(case, RunConfig(n=5, seed=2), scripted_backends(case))
        for rec in report.rounds[:-1] if report.terminated_by != TERMINATED_FULL else report.rounds:
            if rec.verdict.state == "Full":
                assert rec.assignment is None and rec.leaders is None
            else:
                assert (rec.assignment is None) != (rec.leaders is None)

    def test_agent_failure_carries_previous_opinion(self):
        class FlakyAgent(Backend):
            def __init__(self):
                self.inner = ScriptedAgent()

            def respond(self, case, agent_id, ctx):
                if agent_id == "a4" and ctx.round >= 2:
                    raise AgentError("boom")
                return self.inner.respond(case, agent_id, ctx)

        rows = {
            "a1": [("A", "alpha words", 0.8), ("A", "alpha words", 0.8)],
            "a2": [("A", "alpha words", 0.8), ("A", "alpha words", 0.8)],
            "a3": [("B", "beta words", 0.4), ("A", "alpha words", 0.7)],
            "a4": [("B", "beta words", 0.4), ("B", "beta words distinct", 0.9)],
        }
        case = make_case("flaky", rows, ground_truth="A", fallback=None)
        backend = FlakyAgent()
        report = run_case(case, RunConfig(n=4, max_rounds=2, seed=4),
                          {aid: backend for aid in rows})
        final_round = report.rounds[-1]
        a4 = next(op for op in opinions_of(final_round.opinions) if op.agent_id == "a4")
        # round 2 failed, so a4 keeps its round-1 opinion instead of the script's
        assert (a4.answer, a4.belief) == ("B", 0.4)

    def test_adversarial_noise_flips_exactly_one_belief_per_round(self):
        rows = {f"a{i}": [("C", f"words {i}", 0.9), ("C", f"words {i}", 0.9)]
                for i in range(1, 8)}
        case = make_case("noise", rows)
        cfg = RunConfig(seed=9, adversarial_noise=True)
        report = run_case(case, cfg, scripted_backends(case))
        rec = report.rounds[0]
        assert rec.noise_victim is not None
        flipped = [op for op in opinions_of(rec.opinions) if op.belief != 0.9]
        assert len(flipped) == 1
        assert flipped[0].agent_id == rec.noise_victim
        assert flipped[0].belief == pytest.approx(1.0 - 0.9)

    def test_noise_is_seed_deterministic(self):
        rows = {f"a{i}": [("C", f"words {i}", 0.9)] for i in range(1, 8)}
        case = make_case("noise2", rows)
        cfg = RunConfig(seed=11, adversarial_noise=True)
        v1 = run_case(case, cfg, scripted_backends(case)).rounds[0].noise_victim
        v2 = run_case(case, cfg, scripted_backends(case)).rounds[0].noise_victim
        assert v1 == v2


class RecordingRounds(StochasticAgent):
    """A stochastic backend that records the agent ids of each batched call
    and can be told to fail."""

    def __init__(self, seed, fail=False):
        super().__init__(seed)
        self.calls = []
        self.fail = fail

    def respond_round(self, case, agent_ids, ctx):
        self.calls.append(list(agent_ids))
        if self.fail:
            raise AgentError("batch down")
        return super().respond_round(case, agent_ids, ctx)


class FaultyScripted(ScriptedAgent):
    """A scripted backend that records its calls and fails the given
    (agent id, round) pairs."""

    def __init__(self, fail=()):
        super().__init__()
        self.fail = set(fail)
        self.rounds, self.calls = [], []

    def respond_round(self, case, agent_ids, ctx):
        self.rounds.append((ctx.round, list(agent_ids)))
        return super().respond_round(case, agent_ids, ctx)

    def respond(self, case, agent_id, ctx):
        self.calls.append((ctx.round, agent_id))
        if (agent_id, ctx.round) in self.fail:
            raise AgentError(f"{agent_id} down")
        return super().respond(case, agent_id, ctx)


# five agents split A, A, B, B, C in every round, so no round is a consensus;
# each round's reasoning names the round
SPLIT_ROWS = {f"a{i}": [(ans, f"{ans} words, round {r}", 0.6) for r in (1, 2, 3)]
              for i, ans in enumerate("AABBC", 1)}


class TestClusterDraws:
    def test_each_round_clusters_from_its_seed(self, monkeypatch):
        # a case of more rounds than one pass of draws covers: every round's
        # restart draws are those of its own SeedSequence cluster seed
        seen = []

        def recording(opinions, k, draws):
            seen.append(draws)
            return build_groups(opinions, k, draws)

        monkeypatch.setattr(orchestrator, "build_groups", recording)
        case = ScenarioCase("c1", "q", "A")
        for seed, n_clusters in ((1, 3), (2**31 + 9, 2)):
            seen.clear()
            cfg = RunConfig(n=7, max_rounds=40, seed=seed, n_clusters=n_clusters)
            agent = StochasticAgent(seed=seed, rounds=cfg.max_rounds)
            report = run_case(case, cfg, {f"agent-{i}": agent for i in range(7)})
            assert report.n_rounds == len(seen) > ROUNDS_PER_PASS
            for round_index, draws in enumerate(seen, 1):
                cluster_seed = int(np.random.SeedSequence(
                    [seed & 0x7FFFFFFF, stable_hash(case.case_id), round_index]
                ).generate_state(1)[0])
                assert np.array_equal(draws, _restart_draws([cluster_seed], n_clusters)[:, 0])


class TestDispatch:
    CASE = ScenarioCase("dispatch", "q", "A")

    def test_shared_per_agent_backend_answers_each_round_in_one_call(self):
        case = make_case("one call", SPLIT_ROWS, fallback=None)
        backend = FaultyScripted()
        report = run_case(case, RunConfig(n=5, max_rounds=3, seed=1),
                          dict.fromkeys(SPLIT_ROWS, backend))
        ids = sorted(SPLIT_ROWS)
        assert report.n_rounds == 3
        assert backend.rounds == [(r, ids) for r in (1, 2, 3)]
        assert backend.calls == [(r, a) for r in (1, 2, 3) for a in ids]

    def test_round_two_failure_carries_that_agent_alone(self):
        case = make_case("one fails", SPLIT_ROWS, fallback=None)
        backend = FaultyScripted(fail={("a3", 2)})
        report = run_case(case, RunConfig(n=5, max_rounds=2, seed=1),
                          dict.fromkeys(SPLIT_ROWS, backend))
        first, second = report.rounds
        assert second.carried_forward == (("a3", "a3 down"),)
        assert backend.rounds == [(r, sorted(SPLIT_ROWS)) for r in (1, 2)]
        for op in opinions_of(second.opinions):
            if op.agent_id == "a3":
                assert op == opinions_by_id(first.opinions)["a3"]
            else:
                assert op.reasoning.endswith("round 2")

    @pytest.mark.parametrize("shared", [True, False], ids=["shared", "per-agent"])
    def test_round_one_stops_at_the_first_failure(self, shared):
        # a down endpoint costs one agent's retries, not every agent's
        case = make_case("first fails", SPLIT_ROWS, fallback=None)
        fail = {("a2", 1), ("a4", 1)}
        if shared:
            backends = dict.fromkeys(SPLIT_ROWS, FaultyScripted(fail))
        else:
            backends = {a: FaultyScripted(fail) for a in SPLIT_ROWS}
        with pytest.raises(AgentError, match="a2 down"):
            run_case(case, RunConfig(n=5, max_rounds=2, seed=1), backends)
        distinct = {id(b): b for b in backends.values()}.values()
        assert [c for b in distinct for c in b.calls] == [(1, "a1"), (1, "a2")]

    def test_shared_backend_answers_in_one_call_in_sorted_order(self):
        shared, own = RecordingRounds(seed=3), RecordingRounds(seed=4)
        scripted = make_case("dispatch", {"a2": [("B", "b words", 0.7)]})
        backends = {"a4": shared, "a2": ScriptedAgent(), "a1": shared, "a3": own, "a5": shared}
        ctx = no_delegates(1, *backends)
        opinions, carried = _dispatch(backends, scripted, ctx)
        opinions = opinions_of(opinions)
        assert carried == ()
        assert [op.agent_id for op in opinions] == ["a1", "a2", "a3", "a4", "a5"]
        assert shared.calls == [["a1", "a4", "a5"]] and own.calls == [["a3"]]
        for op in opinions:
            assert op == backends[op.agent_id].respond(scripted, op.agent_id, ctx)

    def test_rows_out_of_order_are_rejected(self):
        class Reversed(StochasticAgent):
            def respond_round(self, case, agent_ids, ctx):
                return super().respond_round(case, agent_ids[::-1], ctx)

        backends = dict.fromkeys(["a1", "a2", "a3"], Reversed(seed=1))
        with pytest.raises(ValueError, match="respond_round answered agents"):
            _dispatch(backends, self.CASE, no_delegates(1, *backends))

    def test_failed_batch_carries_its_agents_forward(self):
        broken, healthy = RecordingRounds(seed=1, fail=True), StochasticAgent(seed=2)
        backends = {"a1": broken, "a2": healthy, "a3": broken}
        before = {a: Opinion(a, "before", "D", 0.5) for a in backends}
        previous = columns_of(list(before.values()))
        with pytest.raises(AgentError, match="batch down"):
            _dispatch(backends, self.CASE, no_delegates(2, *backends))
        ctx = RoundContext(2, dict.fromkeys(backends, ()), previous)
        opinions, carried = _dispatch(backends, self.CASE, ctx)
        opinions = opinions_of(opinions)
        assert opinions[0] == before["a1"] and opinions[2] == before["a3"]
        assert opinions[1] == healthy.respond(self.CASE, "a2", ctx)
        assert carried == (("a1", "batch down"), ("a3", "batch down"))


    def test_merged_columns_equal_the_round_of_opinions(self):
        # 16 per-agent backends and one shared by four agents; after round 1
        # some fail and keep their previous rows, whose answers this round's
        # rows may not use. Reasonings repeat across agents and rounds
        ids = [f"a{i:02d}" for i in range(1, 21)]
        pools = {1: "ABCDE", 2: "FGH", 3: "FG"}
        rows = {a: [(pools[r][i % len(pools[r])], f"{'BCD'[i * r % 3]} words {r % 2}",
                     0.1 + 0.05 * ((3 * i + r) % 17)) for r in (1, 2, 3)]
                for i, a in enumerate(ids)}
        case = make_case("merge", rows, fallback=None)
        fail = {("a03", 2), ("a07", 2), ("a07", 3), ("a11", 3), ("a12", 3), ("a20", 3)}
        shared = FaultyScripted(fail)
        backends = {a: shared if a in ("a02", "a05", "a11", "a17") else FaultyScripted(fail)
                    for a in ids}
        assert len({id(b) for b in backends.values()}) == 17
        previous = None
        for r in (1, 2, 3):
            ctx = RoundContext(r, dict.fromkeys(ids, ()), previous)
            got, carried = _dispatch(backends, case, ctx)
            ops = [opinions_by_id(previous)[a] if (a, r) in fail
                   else ScriptedAgent().respond(case, a, ctx) for a in ids]
            want = RoundColumns.of(ids, ops)
            assert (got.agent_ids, got.answers, got.texts) == (
                want.agent_ids, want.answers, want.texts)
            for column in ("codes", "beliefs", "text_ids"):
                got_column, want_column = getattr(got, column), getattr(want, column)
                assert got_column.dtype == want_column.dtype
                assert got_column.tolist() == want_column.tolist()
            assert carried == tuple((a, f"{a} down") for a in ids if (a, r) in fail)
            previous = got


class _ModelHandler(BaseHTTPRequestHandler):
    """Chat-completions double: model-k answers option k (A, B, C, ...) with
    belief 0.6. `failing` maps a model to (its first failing request, the
    status it answers from then on), and `slow` a (model, request number) to
    a delay before the reply. A `barrier`, when set, holds every reply until
    all of its parties wait, and a reply whose wait breaks is a 503. The
    (model, request number) pairs of `null_content` answer a null content."""

    failing: dict = {}
    slow: dict = {}
    null_content: set = set()
    barrier = None
    seen: dict = {}  # requests per model
    counting = threading.Lock()  # handler threads answer at once

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers.get("Content-Length", 0))))
        model = body["model"]
        with self.counting:
            seen = self.seen[model] = self.seen.get(model, 0) + 1
        time.sleep(self.slow.get((model, seen), 0.0))
        first_failing, status = self.failing.get(model, (seen + 1, 200))
        if seen < first_failing:
            status = 200
        if self.barrier is not None:
            try:
                self.barrier.wait()
            except threading.BrokenBarrierError:
                status = 503
        if status == 200:
            answer = "ABCDEFGH"[int(model.rsplit("-", 1)[1]) - 1]
            tokens = [{"token": "Thinking.", "logprob": -0.1},
                      {"token": f" The answer is ({answer}).", "logprob": math.log(0.6)}]
            content = "".join(t["token"] for t in tokens)
            if (model, seen) in self.null_content:
                content = None
            payload = {"choices": [
                {"message": {"content": content}, "logprobs": {"content": tokens}}]}
        else:
            payload = {"error": f"HTTP {status}"}
        data = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


class _QuietServer(ThreadingHTTPServer):
    def handle_error(self, request, client_address):
        pass  # a reply to a request the client closed unread fails to write


@pytest.fixture()
def model_server():
    """The URL of a _ModelHandler server whose models all answer at once."""
    _ModelHandler.failing, _ModelHandler.slow, _ModelHandler.barrier = {}, {}, None
    _ModelHandler.null_content = set()
    _ModelHandler.seen = {}
    server = _QuietServer(("127.0.0.1", 0), _ModelHandler)
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01},
                              daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_port}/v1/chat/completions"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()


def model_backends(url, n, retries, timeout=5.0):
    """agent-k posts to model-k."""
    return {f"agent-{k}": ChatCompletionsAgent(BackendConfig(
        kind="http", endpoint=url, model=f"model-{k}", retries=retries, backoff=0.001,
        timeout=timeout)) for k in range(1, n + 1)}


def thread_starters(monkeypatch):
    """The ident of each thread that starts a thread from now on."""
    starters, start = [], threading.Thread.start

    def recording(thread):
        starters.append(threading.get_ident())
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", recording)
    return starters


class TestCarriedForward:
    def test_failing_model_is_recorded_and_keeps_its_opinion(self, model_server):
        self.check(model_server)

    # round 2's slow reply is read first or last of the three in flight
    @pytest.mark.parametrize("slow", ["model-1", "model-3"])
    def test_slow_reply_changes_neither_carry_nor_requests(self, model_server, slow):
        _ModelHandler.slow = {(slow, 2): 0.2}
        self.check(model_server)

    @staticmethod
    def check(url):
        _ModelHandler.failing = {"model-2": (2, 500)}
        backends = model_backends(url, 3, retries=1)
        report = run_case(ScenarioCase("fault", "pick one", "A"),
                          RunConfig(n=3, max_rounds=2, seed=0), backends)

        first, second = report.rounds
        error = "transport failed after 2 attempts: server error 500"
        assert first.carried_forward == ()
        assert second.carried_forward == (("agent-2", error),)
        assert opinions_of(second.opinions)[1] == opinions_of(first.opinions)[1]
        assert [op.answer for op in opinions_of(second.opinions)] == ["A", "B", "C"]
        assert _ModelHandler.seen == {"model-1": 2, "model-2": 3, "model-3": 2}
        rows = report_to_dict(report)["rounds"]
        assert "carried_forward" not in rows[0]
        assert rows[1]["carried_forward"] == [{"agent_id": "agent-2", "error": error}]


    def test_malformed_reply_fails_its_agent_not_its_case(self, model_server):
        # a null content once raised a TypeError, and the case failed
        _ModelHandler.null_content = {("model-2", 2)}
        report = run_case(ScenarioCase("fault", "pick one", "A"),
                          RunConfig(n=3, max_rounds=2, seed=0), model_backends(model_server, 3, 0))
        first, second = report.rounds
        assert second.carried_forward == (
            ("agent-2", "malformed completion response: message.content must be a string, "
                        "got None"),)
        assert opinions_of(second.opinions)[1] == opinions_of(first.opinions)[1]


class TestPipelinedDispatch:
    CASE = ScenarioCase("pipelined", "pick one", "A")

    def test_a_rounds_requests_are_in_flight_at_once(self, model_server, monkeypatch):
        # no reply is written before all six requests have arrived, so a
        # dispatch that read a reply before sending the next request would
        # break the barrier and fail round 1
        _ModelHandler.barrier = threading.Barrier(6, timeout=5)
        backends = model_backends(model_server, 6, retries=0)
        starters = thread_starters(monkeypatch)
        opinions, carried = _dispatch(backends, self.CASE, no_delegates(1, *backends))
        assert threading.get_ident() not in starters
        assert carried == ()
        assert [op.answer for op in opinions_of(opinions)] == list("ABCDEF")
        assert _ModelHandler.seen == {f"model-{k}": 1 for k in range(1, 7)}

    @pytest.mark.parametrize("shared", [False, True], ids=["per-agent", "shared"])
    def test_round_one_rejection_closes_every_unread_request(self, model_server, monkeypatch,
                                                             shared):
        _ModelHandler.failing = {"model-1": (1, 400)}
        backends = model_backends(model_server, 4, retries=2)
        if shared:  # one backend, so Backend.respond_round stops at the failure
            backends = dict.fromkeys(backends, backends["agent-1"])
        pool, sent = agents._http_pool(model_server), []
        send = pool.send

        def recording(*args):
            sent.append(send(*args))
            return sent[-1]

        monkeypatch.setattr(pool, "send", recording)
        with pytest.raises(AgentError, match="endpoint rejected the request: HTTP 400"):
            _dispatch(backends, self.CASE, no_delegates(1, *backends))
        # every request went out before the first reply was read, none again
        assert len(sent) == 4
        assert all(conn.sock is None for conn in sent) and pool._idle == []
        deadline = time.monotonic() + 5
        while sum(_ModelHandler.seen.values()) < 4 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert _ModelHandler.seen == ({"model-1": 4} if shared
                                      else {f"model-{k}": 1 for k in range(1, 5)})


class TestRoundContext:
    def test_prompts_equal_the_oracle_per_agent(self):
        # every collaborating and leader round of seeded stochastic runs: each
        # agent's prompts equal those assembled from its delegates' Opinions,
        # with the ask the round's branch calls for, and each leader set's
        # delegates equal those rebuilt per agent
        seen = {PARTIAL: 0, NONE: 0}
        for n, n_leaders, mixed in ((7, 2, False), (40, 2, True), (60, 3, False), (9, 5, True)):
            for seed in range(6):
                case = ScenarioCase(f"shared-{seed}", "q", "A")
                agent = StochasticAgent(seed=seed)
                cfg = RunConfig(n=n, max_rounds=4, n_leaders=n_leaders, seed=seed,
                                mixed_delegates=mixed)
                backends = {f"agent-{i}": agent for i in range(n)}
                for rec in run_case(case, cfg, backends).rounds:
                    by_id = opinions_by_id(rec.opinions)
                    if rec.assignment is not None:
                        delegates = rec.assignment.assignments
                    elif rec.leaders is not None:
                        delegates = rec.leaders.assignments
                        assert delegates == oracle_leader_delegates(rec.leaders, rec.groups)
                    else:
                        continue
                    assert sorted(delegates) == sorted(by_id)
                    for collab in delegates.values():
                        for style in PROMPT_STYLES:
                            assert build_messages(case.question, collab, rec.opinions,
                                                  style) == oracle_messages(
                                case.question, rec.verdict.state, collab, by_id, style)
                    seen[rec.verdict.state] += 1
        assert seen[PARTIAL] >= 10 and seen[NONE] >= 10, seen

    def test_leader_tags_mark_the_leader_sets_alone(self):
        # build_messages picks the leader ask from the first delegate's tag:
        # a leader set tags every delegate leader, and a plan tags none
        seen = {PARTIAL: 0, NONE: 0}
        for n, mixed in ((5, False), (9, True), (30, False), (30, True)):
            for seed in range(5):
                agent = StochasticAgent(seed=seed)
                cfg = RunConfig(n=n, max_rounds=4, seed=seed, mixed_delegates=mixed)
                report = run_case(ScenarioCase(f"tags-{seed}", "q", "A"), cfg,
                                  {f"agent-{i}": agent for i in range(n)})
                for rec in report.rounds:
                    if rec.assignment is not None:
                        tags = {tag for d in rec.assignment.assignments.values() for _, tag in d}
                        assert tags <= {TAG_SUPPORTIVE, TAG_CONFLICTING}
                    elif rec.leaders is not None:
                        tags = {tag for d in rec.leaders.assignments.values() for _, tag in d}
                        assert tags == {TAG_LEADER}
                    else:
                        continue
                    seen[rec.verdict.state] += 1
        assert min(seen.values()) >= 10, seen

    def test_singleton_leaders_see_the_question_alone(self):
        # two singleton groups and a group of three, two leaders per group:
        # both singletons see no one
        ops = [Opinion(f"a{i}", f"says {i}", "A", 0.9 - i / 10) for i in range(5)]
        opinions = columns_of(ops)
        groups = (OpinionGroup(0, ("a0",), 0.0, "A"), OpinionGroup(1, ("a1", "a2", "a3"), 0.0, "A"),
                  OpinionGroup(2, ("a4",), 0.0, "A"))
        leaders = select_leaders(groups, opinions, n_leaders=2)
        assert leaders.assignments == oracle_leader_delegates(leaders, groups)
        assert leaders.assignments["a0"] == leaders.assignments["a4"] == ()
        by_id = {op.agent_id: op for op in ops}
        for collab in leaders.assignments.values():
            assert build_messages("q", collab, opinions) == oracle_messages(
                "q", NONE, collab, by_id, "choice")

    def test_each_round_is_the_map_the_round_before_returned(self):
        agent = RecordingRounds(seed=5)
        contexts = []
        agent_round = agent.respond_round

        def recording(case, ids, ctx):
            contexts.append(ctx)
            return agent_round(case, ids, ctx)

        agent.respond_round = recording
        ids = [f"a{i}" for i in range(5)]
        case = ScenarioCase("initial", "q", "A")
        report = run_case(case, RunConfig(n=5, max_rounds=4), dict.fromkeys(ids, agent))
        assert report.n_rounds == len(contexts) > 2
        assert contexts[0] == RoundContext(1, dict.fromkeys(ids, ()))
        for ctx, rec in zip(contexts[1:], report.rounds):
            assert ctx.round == rec.index + 1 and ctx.previous is rec.opinions
            assert ctx.delegates is (rec.assignment or rec.leaders).assignments


def modal_answer(opinions):
    return _modal_answer(columns_of(opinions))


class TestFinalAnswer:
    def test_strict_majority(self):
        ops = [Opinion("a1", "", "B", 0.5), Opinion("a2", "", "C", 0.5),
               Opinion("a3", "", "C", 0.5)]
        assert modal_answer(ops) == "C"

    def test_count_tie_broken_by_belief(self):
        ops = [Opinion("a1", "", "A", 0.9), Opinion("a2", "", "B", 0.4)]
        assert modal_answer(ops) == "A"

    def test_three_way_tie_resolved_by_belief_sums(self):
        ops = [
            Opinion("a1", "", "A", 0.5), Opinion("a2", "", "A", 0.3),   # sum 0.8
            Opinion("a3", "", "B", 0.45), Opinion("a4", "", "B", 0.45), # sum 0.9
            Opinion("a5", "", "C", 0.4), Opinion("a6", "", "C", 0.4),   # sum 0.8
            Opinion("a7", "", "D", 0.2),
        ]
        assert modal_answer(ops) == "B"


@pytest.fixture(scope="module")
def reports(corpus_path):
    out = {}
    for case in scenarios_from_json(corpus_path):
        out[case.case_id] = run_case(case, RunConfig(seed=0), scripted_backends(case))
    return out


class TestCorpusTrajectories:

    def test_judgment_case_round_values(self, reports):
        rep = reports["judgment-tl205"]
        assert rep.n_rounds == 2
        assert rep.terminated_by == TERMINATED_FULL
        assert rep.final_answer == "C" and rep.correct
        r1, r2 = rep.rounds
        assert r1.verdict.state == "None"
        assert round(r1.verdict.p_s, 2) == 0.57
        assert round(r1.verdict.p_b, 2) == 0.13
        assert r1.leaders is not None and r1.assignment is None
        assert r2.verdict.state == "Full"
        assert round(r2.verdict.p_s, 2) == 0.86
        assert round(r2.verdict.p_b, 2) == 0.97

    def test_collaboration_case_flips_weak_agent_via_conflicting_delegate(self, reports):
        rep = reports["collaboration-encomienda"]
        assert rep.final_answer == "B" and rep.correct
        r1 = rep.rounds[0]
        assert r1.verdict.state == "Partial"
        assert r1.assignment is not None
        least = r1.assignment.least_reliable_agent
        delegates = r1.assignment.assignments[least]
        assert any(tag == "conflicting" for _, tag in delegates)
        # the flagged agent answered D in round 1 and B afterwards
        before = next(op for op in opinions_of(r1.opinions) if op.agent_id == least)
        after = next(op for op in opinions_of(rep.rounds[1].opinions) if op.agent_id == least)
        assert (before.answer, after.answer) == ("D", "B")

    def test_leadership_case(self, reports):
        rep = reports["leadership-membrane"]
        assert rep.final_answer == "C" and rep.correct
        r1 = rep.rounds[0]
        assert r1.verdict.state == "None"
        assert r1.leaders is not None
        # a small group promotes every member to leader
        assert any(gl.all_members for gl in r1.leaders.by_group)

    def test_truncation_to_one_round_gives_wrong_majority(self, corpus_path):
        case = scenarios_from_json(corpus_path)[0]
        rep = run_case(case, RunConfig(seed=0, max_rounds=1), scripted_backends(case))
        assert rep.terminated_by == TERMINATED_MAX_ROUNDS
        assert rep.final_answer == "B"
        assert not rep.correct

    def test_determinism_byte_identical_reports(self, corpus_path):
        def run_all():
            buf = io.StringIO()
            reports = [
                run_case(case, RunConfig(seed=0), scripted_backends(case))
                for case in scenarios_from_json(corpus_path)
            ]
            write_results_jsonl(reports, buf, header={"seed": 0})
            return buf.getvalue()

        assert run_all() == run_all()


class TestSerialization:
    def test_report_round_trips_through_json(self, corpus_path):
        case = scenarios_from_json(corpus_path)[1]
        rep = run_case(case, RunConfig(seed=0), scripted_backends(case))
        payload = json.loads(json.dumps(report_to_dict(rep)))
        assert payload["case_id"] == "collaboration-encomienda"
        assert payload["final_answer"] == "B"
        assert payload["n_rounds"] == len(payload["rounds"])
        first = payload["rounds"][0]
        assert {"round", "opinions", "groups", "verdict", "branch"} <= set(first)
        assert "assignment" in first  # partial round carries the plan

    def test_infinite_scores_serialized_as_strings(self, corpus_path):
        case = scenarios_from_json(corpus_path)[1]
        rep = run_case(case, RunConfig(seed=0), scripted_backends(case))
        text = json.dumps(report_to_dict(rep))
        assert "Infinity" not in text
        payload = json.loads(text)
        micros = [
            r["micro"]
            for rnd in payload["rounds"] if "conflict_reports" in rnd
            for r in rnd["conflict_reports"]
        ]
        assert "inf" in micros

    def test_rounds_csv_shape(self, corpus_path):
        case = scenarios_from_json(corpus_path)[0]
        rep = run_case(case, RunConfig(seed=0), scripted_backends(case))
        buf = io.StringIO()
        rounds_to_csv([rep], buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0].split(",") == [
            "case_id", "round", "agent_id", "group_id", "answer", "belief",
            "state", "p_s", "p_b",
        ]
        assert len(lines) == 1 + 7 * rep.n_rounds


class TestWritersOracle:
    """The writers assemble encoded pieces; their bytes equal the reports as
    dicts through json.dumps(sort_keys=True) and one csv.writer row per agent."""

    def _awkward_reports(self, corpus_path):
        odd = 'caf\u00e9 \u2211 \U0001F680 "quoted" back\\slash\nnew line\r\nand\ttab'
        rows = {
            'a,1': [('1,5 "x"', odd, 0.9), ('1,5 "x"', odd, 0.95)],
            'a"2': [('1,5 "x"', "plain words", 0.4), ("B", "other words", 0.6)],
            "a3": [("B", odd + " b", 0.35), ("B", odd + " b", 0.2)],
            "\u00e4\n4": [("\u00dcml\u00e4ut", "", 0.5), ("\u00dcml\u00e4ut", "", 0.5)],
        }
        case = make_case('odd, "case" \u00e9', rows, ground_truth="B", fallback=None)

        class FlakyAgent(ScriptedAgent):
            def respond(self, case, agent_id, ctx):
                if agent_id == "a3" and ctx.round >= 2:
                    raise AgentError('down: "503"\nretry \u2026')
                return super().respond(case, agent_id, ctx)

        backend = FlakyAgent()
        reports = [run_case(case, RunConfig(n=4, max_rounds=2, seed=3),
                            {aid: backend for aid in rows})]
        reports += [run_case(c, RunConfig(seed=0), scripted_backends(c))
                    for c in scenarios_from_json(corpus_path)]
        return reports

    def test_jsonl_and_csv_equal_the_row_by_row_forms(self, corpus_path):
        reports = self._awkward_reports(corpus_path)
        assert reports[0].rounds[1].carried_forward
        assert any(r.micro == math.inf for rep in reports for rec in rep.rounds
                   for r in rec.conflict_reports or ())
        outcomes = [reports[0], CaseFailure('bad,"case"', 'boom \u2014 "quoted"\nline'),
                    *reports[1:], CaseFailure("", "")]
        header = {"run": {"n": 4}, "note": "caf\u00e9"}
        got, want = io.StringIO(), io.StringIO()
        write_results_jsonl(outcomes, got, header=header)
        oracle_results_jsonl(outcomes, want, header=header)
        assert got.getvalue() == want.getvalue()
        got, want = io.StringIO(), io.StringIO()
        rounds_to_csv(reports, got)
        oracle_rounds_csv(reports, want)
        assert got.getvalue() == want.getvalue()
        assert '"1,5 ""x"""' in got.getvalue() and '"a""2"' in got.getvalue()
