import json
import math
import os
import socket
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest

from belief_consensus import agents
from belief_consensus.agents import (
    AgentContext,
    AgentError,
    Backend,
    BackendConfig,
    ChatCompletionsAgent,
    ScriptedAgent,
    StochasticAgent,
    TAG_SUPPORTIVE,
    TaggedOpinion,
    build_messages,
    extract_answer_sentence,
    make_backend,
    perturb_one_belief,
    _pcg64_raw,
)
from belief_consensus.core import AgentScript, Opinion, RoundColumns, ScenarioCase, ScriptedReply
from round_oracles import columns_of, opinions_of, oracle_respond


def round_opinions(result):
    """The opinions of a `respond_round` call in which no agent failed."""
    columns, failed = result
    assert failed == ()
    return opinions_of(columns)


def scripted_case():
    scripts = {
        "a1": AgentScript(
            "a1",
            (ScriptedReply(1, "D", "first guess", 0.4),),
            fallback="repeat_previous",
        ),
        "a2": AgentScript(
            "a2",
            (ScriptedReply(1, "B", "initial view", 0.6),),
            fallback="adopt:leader",
            fallback_belief=0.9,
        ),
    }
    return ScenarioCase("case-1", "which option?", "C", scripts=scripts)


class TestScriptedAgent:
    def test_round_entry_passthrough(self):
        backend = ScriptedAgent()
        op = backend.respond(scripted_case(), "a1", AgentContext("q", 1))
        assert (op.answer, op.belief) == ("D", 0.4)

    def test_repeat_previous(self):
        backend = ScriptedAgent()
        case = scripted_case()
        backend.respond(case, "a1", AgentContext("q", 1))
        op = backend.respond(case, "a1", AgentContext("q", 2))
        assert (op.answer, op.belief) == ("D", 0.4)

    def test_adopt_leader_uses_scripted_belief(self):
        backend = ScriptedAgent()
        case = scripted_case()
        leader = TaggedOpinion(Opinion("a9", "leader says", "C", 0.7), "leader")
        op = backend.respond(case, "a2", AgentContext("q", 2, (leader,), "leader"))
        assert (op.answer, op.belief) == ("C", 0.9)

    def test_missing_entry_without_fallback(self):
        scripts = {"a1": AgentScript("a1", (ScriptedReply(1, "A", "", 0.5),))}
        case = ScenarioCase("c", "q", "A", scripts=scripts)
        backend = ScriptedAgent()
        with pytest.raises(AgentError, match="agent 'a1' round 2"):
            backend.respond(case, "a1", AgentContext("q", 2))

    def test_adopt_with_no_matching_collaborator(self):
        backend = ScriptedAgent()
        with pytest.raises(AgentError, match="adopt"):
            backend.respond(scripted_case(), "a2", AgentContext("q", 2))


class TestBackend:
    def test_respond_round_only_backend_answers_respond(self):
        class Echo(Backend):
            def respond_round(self, case, agent_ids, contexts):
                ops = [Opinion(a, "echo", "A", 0.5) for a in agent_ids if a != "down"]
                failed = tuple((a, AgentError(f"{a} is down")) for a in agent_ids if a == "down")
                return RoundColumns.of([op.agent_id for op in ops], ops), failed

        case, ctx = ScenarioCase("c", "q", "A"), AgentContext("q", 1)
        assert Echo().respond(case, "a1", ctx) == Opinion("a1", "echo", "A", 0.5)
        with pytest.raises(AgentError, match="down is down"):
            Echo().respond(case, "down", ctx)

    def test_default_respond_round_fails_an_agent_alone_after_round_one(self):
        backend, case = ScriptedAgent(), scripted_case()
        round_opinions(backend.respond_round(case, ["a1", "a2"], [AgentContext("q", 1)] * 2))
        # a2's adopt rule finds no leader; a1 repeats its round-1 opinion
        columns, failed = backend.respond_round(case, ["a1", "a2"], [AgentContext("q", 2)] * 2)
        assert opinions_of(columns) == [Opinion("a1", "first guess", "D", 0.4)]
        assert [(a, type(e)) for a, e in failed] == [("a2", AgentError)]
        assert "adopt" in str(failed[0][1])

    def test_default_respond_round_stops_at_a_round_one_failure(self):
        backend, case = ScriptedAgent(), scripted_case()
        columns, failed = backend.respond_round(case, ["a0", "a1", "a2"],
                                                [AgentContext("q", 1)] * 3)
        assert len(columns) == 0 and [a for a, _ in failed] == ["a0"]
        assert "no script for agent 'a0'" in str(failed[0][1])
        assert backend._memory == {}  # a1 and a2 were never asked


class TestStochasticAgent:
    def test_deterministic_per_seed(self):
        case = ScenarioCase("c", "q", "A")
        a = StochasticAgent(seed=5).respond(case, "agent-1", AgentContext("q", 1))
        b = StochasticAgent(seed=5).respond(case, "agent-1", AgentContext("q", 1))
        assert (a.answer, a.belief) == (b.answer, b.belief)

    def test_different_seeds_vary(self):
        case = ScenarioCase("c", "q", "A")
        draws = {
            StochasticAgent(seed=s).respond(case, "agent-1", AgentContext("q", 1)).answer
            for s in range(12)
        }
        assert len(draws) > 1

    def test_belief_range(self):
        case = ScenarioCase("c", "q", "A")
        for s in range(20):
            op = StochasticAgent(seed=s).respond(case, "agent-1", AgentContext("q", 1))
            assert 0.0 < op.belief <= 1.0


# seeds SeedSequence reads as one, two and three or more 32-bit words
EDGE_SEEDS = (0, 2**31 - 1, 2**32, 2**32 + 7, 2**64 - 1, 2**64 + 3, 2**70 + 2**33 + 5)
PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341


def state_before_output(raw: int, inc: int) -> int:
    """A PCG64 state whose next raw output is `raw` (whose top 6 bits, the
    XSL-RR rotation, are zero, so the output is high ^ low)."""
    high = 0x0123456789ABCDE  # < 2**58
    after = high << 64 | (high ^ raw)
    return (after - inc) * pow(PCG_MULT, -1, 2**128) % 2**128


def pcg64_at(state: int, inc: int) -> np.random.PCG64:
    bitgen = np.random.PCG64()
    bitgen.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                    "has_uint32": 0, "uinteger": 0}
    return bitgen


class TestStochasticAgentOracle:
    def test_opinions_equal_choice_and_np_round_draws(self):
        # 20,000 opinions in one-round batches: each batch mixes collaborator
        # counts and agent ids; seeds and rounds include multi-word entropy
        rng = np.random.default_rng(7)
        pool = ("A", "B", "C", "D", "E", "F")
        rounds = (1, 2, 3, 4, 5, 2**32, 2**33 + 5, 2**64 + 1)
        cases = [ScenarioCase(f"case-{c}", "q", "A") for c in range(5)]
        counts = {"adopted": 0, "independent": 0}
        seen_pools, seen_rounds = set(), set()
        drawn = batch = 0
        while drawn < 20000:
            seed = (EDGE_SEEDS[batch] if batch < len(EDGE_SEEDS)
                    else int(rng.integers(2**31)))
            agent = StochasticAgent(seed=seed, candidates=pool[: 1 + batch % len(pool)])
            seen_pools.add(len(agent.candidates))
            round_index = rounds[batch % len(rounds)]
            seen_rounds.add(round_index)
            size = int(rng.integers(1, 201))
            ids = [f"agent-{i}" for i in rng.choice(np.arange(1, 201), size, replace=False)]
            contexts = [
                AgentContext("q", round_index, tuple(
                    TaggedOpinion(Opinion(f"c{j}", "", str(rng.choice(pool)),
                                          float(rng.uniform(0.1, 1.0))), "supportive")
                    for j in range(int(rng.integers(0, 4)))
                ))
                for _ in ids
            ]
            case = cases[batch % len(cases)]
            got = round_opinions(agent.respond_round(case, ids, contexts))
            want = [oracle_respond(agent, case, a, ctx) for a, ctx in zip(ids, contexts)]
            assert got == want, f"batch {batch}"
            for op in got:
                counts["adopted" if op.reasoning.startswith("Adopting") else "independent"] += 1
            drawn += size
            batch += 1
        assert counts["adopted"] > 5000 and counts["independent"] > 5000
        assert seen_pools == {1, 2, 3, 4, 5, 6} and seen_rounds == set(rounds)

    def test_agents_sharing_one_context_and_tuple(self):
        # as the orchestrator hands them over: most agents of a round share a
        # context object, and several contexts share one collaborator tuple
        rng = np.random.default_rng(17)
        case = ScenarioCase("shared", "q", "A")
        for seed in EDGE_SEEDS[:4] + (12345,):
            agent = StochasticAgent(seed=seed, candidates="ABCD")
            for round_index in (2, 3, 2**32 + 1):
                tuples = [tuple(TaggedOpinion(Opinion(f"c{j}", "", str(rng.choice(list("ABCD"))),
                                                      float(rng.uniform(0.1, 1.0))), "leader")
                                for j in range(k)) for k in (1, 2, 3)]
                shared = [AgentContext("q", round_index, t) for t in tuples]
                shared.append(AgentContext("q", round_index, tuples[1], "collaborate"))
                ids = [f"agent-{i}" for i in range(150)]
                contexts = [shared[int(k)] for k in rng.choice(len(shared), len(ids),
                                                               p=[0.7, 0.1, 0.1, 0.1])]
                got = round_opinions(agent.respond_round(case, ids, contexts))
                assert got == [oracle_respond(agent, case, a, c) for a, c in zip(ids, contexts)]
                assert any(op.reasoning.startswith("Adopting") for op in got)

    def test_rounds_of_different_entropy_lengths_in_one_batch(self):
        # rounds of one, two and three 32-bit words: each is right in a call
        # of its own, and a call that mixes rounds raises
        rng = np.random.default_rng(5)
        case = ScenarioCase("lengths", "q", "A")
        collab = (TaggedOpinion(Opinion("x", "", "C", 0.7), "supportive"),)
        ids = [f"agent-{i}" for i in range(60)]
        for seed in EDGE_SEEDS:
            agent = StochasticAgent(seed=seed, candidates="ABCDE")
            for round_index in (1, 4, 2**32, 2**33 + 5, 2**64 + 1):
                contexts = [AgentContext("q", round_index, collab if c else ())
                            for c in rng.integers(0, 2, 60)]
                got = round_opinions(agent.respond_round(case, ids, contexts))
                assert got == [oracle_respond(agent, case, a, c) for a, c in zip(ids, contexts)]
            mixed = [AgentContext("q", 1), AgentContext("q", 2**32), AgentContext("q", 1)]
            with pytest.raises(ValueError, match=r"one round, got rounds \[1, 4294967296\]"):
                agent.respond_round(case, ids[:3], mixed)

    @pytest.mark.parametrize("collaborate", [False, True])
    def test_rejected_low_half_in_a_batch(self, monkeypatch, collaborate):
        # one column's outputs come from a crafted PCG64 stream whose bounded
        # draw reads 0 in its low half, which pools of 3, 5 and 6 reject
        # (2**32 mod n > 0); random inputs get there with probability below
        # n / 2**32. With both halves 0 the draw reads the next output, and
        # with collaborators the belief then lies past the first block
        case = ScenarioCase("reject", "q", "A")
        ids = [f"agent-{i}" for i in range(8)]
        ctx = AgentContext("q", 2, (TaggedOpinion(Opinion("x", "", "B", 0.7), "leader"),)
                           if collaborate else ())
        inc = 0x5851F42D4C957F2D_14057B7EF767814F | 1
        high_half, target = 0xC0FFEE12, 3
        words = _pcg64_raw
        for n_candidates in (3, 5, 6):
            pool = "ABCDEF"[:n_candidates]
            agent = StochasticAgent(seed=9, candidates=pool, adopt_prob=0.0)
            for raw in (high_half << 32, 0):  # then the high half is rejected too
                state = state_before_output(raw, inc)
                if collaborate:  # random() reads one output before the draw
                    state = (state - inc) * pow(PCG_MULT, -1, 2**128) % 2**128
                sizes = []

                def substituted(block, k):
                    sizes.append(k)
                    out = words(block, k)
                    out[:, target] = pcg64_at(state, inc).random_raw(k)
                    return out

                monkeypatch.setattr(agents, "_pcg64_raw", substituted)
                got = round_opinions(agent.respond_round(case, ids, [ctx] * len(ids)))
                monkeypatch.undo()
                assert sizes == ([3, 6] if collaborate and not raw else [3])
                want = [oracle_respond(agent, case, a, ctx) for a in ids]
                assert got[:target] == want[:target] and got[target + 1:] == want[target + 1:]
                gen = np.random.Generator(pcg64_at(state, inc))
                if collaborate:
                    gen.random()  # the adopt test
                index = int(gen.integers(n_candidates))
                belief = float(np.round(gen.uniform(0.3, 0.95), 6))
                if raw:
                    assert index == high_half * n_candidates >> 32 != 0
                assert got[target] == Opinion(
                    ids[target], f"Independent draw on round 2 favoring option {pool[index]}.",
                    pool[index], belief)

    def test_respond_is_the_one_agent_round(self):
        case = ScenarioCase("c", "q", "A")
        collab = (TaggedOpinion(Opinion("x", "", "C", 0.7), "supportive"),)
        for i, seed in enumerate(EDGE_SEEDS * 20):
            agent = StochasticAgent(seed=seed, candidates="ABCDEF"[: 1 + i % 6])
            ctx = AgentContext("q", 1 + i % 5, collab if i % 2 else ())
            assert agent.respond(case, f"agent-{i}", ctx) == oracle_respond(
                agent, case, f"agent-{i}", ctx)

    def test_rejected_seed_and_empty_pool_raise(self):
        case = ScenarioCase("c", "q", "A")
        with pytest.raises(ValueError):
            StochasticAgent(seed=-1).respond(case, "agent-1", AgentContext("q", 1))
        with pytest.raises(ValueError):
            StochasticAgent(seed=1, candidates=()).respond(case, "agent-1", AgentContext("q", 1))

    def test_raw_outputs_equal_pcg64(self):
        rng = np.random.default_rng(3)
        for n_words in range(1, 9):
            words = rng.integers(0, 2**32, size=(n_words, 17), dtype=np.uint64).astype(np.uint32)
            for k in (6, 20):
                raw = _pcg64_raw(words, k)
                for j, words_j in enumerate(words.T.tolist()):
                    want = np.random.PCG64(np.random.SeedSequence(words_j)).random_raw(k)
                    assert np.array_equal(raw[:, j], want)


class TestPromptAssembly:
    def test_initial_choice_prompt(self):
        messages = build_messages(AgentContext("Q here", 1), "choice")
        assert messages[0]["role"] == "system"
        assert "reason step by step" in messages[0]["content"]
        assert "Q here" in messages[1]["content"]
        assert "(answer)" in messages[1]["content"]

    def test_boxed_system_prompt(self):
        messages = build_messages(AgentContext("Q", 1), "boxed")
        assert "\\boxed{}" in messages[0]["content"]
        assert "(answer)" not in messages[1]["content"]

    def test_collaborate_prompt_lists_delegates(self):
        collab = (
            TaggedOpinion(Opinion("s", "sup says", "B", 0.8), "supportive"),
            TaggedOpinion(Opinion("c", "con says", "D", 0.5), "conflicting"),
        )
        ctx = AgentContext("Q", 2, collab, "collaborate")
        user = build_messages(ctx, "choice")[1]["content"]
        assert "One supporting agent solution" in user
        assert "One conflicting agent solution" in user
        assert user.index("supporting") < user.index("conflicting")

    def test_leader_prompt(self):
        collab = (TaggedOpinion(Opinion("l", "lead says", "C", 0.9), "leader"),)
        user = build_messages(AgentContext("Q", 2, collab, "leader"), "choice")[1]["content"]
        assert "One leader solution" in user
        assert "lead the trend" in user


class TestAnswerSentenceExtraction:
    def test_answer_sentence_found(self):
        content = "Reasoning first. The answer is B."
        span = extract_answer_sentence(content)
        assert content[span[0]:span[1]].strip() == "The answer is B."

    def test_last_anchor_wins(self):
        content = "Maybe the answer is A. On reflection, the answer is C."
        span = extract_answer_sentence(content)
        assert "C" in content[span[0]:span[1]]

    def test_no_anchor(self):
        assert extract_answer_sentence("I simply cannot decide today") is None


# -- local fake chat-completions endpoint ------------------------------------

class _FakeHandler(BaseHTTPRequestHandler):
    # (status, payload[, delay_s]) consumed per request; a bytes payload is
    # sent as it is, anything else as JSON
    script = []
    requests_seen = []   # decoded request bodies
    raw_seen = []        # raw request body bytes
    connections = 0      # one handler instance per accepted connection

    def setup(self):
        type(self).connections += 1
        super().setup()

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        raw = self.rfile.read(length)
        type(self).raw_seen.append(raw)
        type(self).requests_seen.append(json.loads(raw))
        status, payload, *delay = (
            self.script.pop(0) if self.script else (200, _completion("The answer is A.", [-0.1]))
        )
        if delay:
            time.sleep(delay[0])
        data = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
        self.send_response(status)
        if 300 <= status < 400:
            self.send_header("Location", self.path)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


def _completion(content, answer_logprobs, with_logprobs=True):
    """Build a completion whose final-sentence tokens carry the logprobs."""
    prefix = "Reasoning goes here. "
    sentence = content
    tokens = [{"token": prefix, "logprob": -0.5}]
    n = len(answer_logprobs)
    # split the answer sentence into n chunks, one per logprob
    step = max(1, len(sentence) // n)
    pieces = [sentence[i * step:(i + 1) * step] for i in range(n - 1)]
    pieces.append(sentence[(n - 1) * step:])
    for piece, lp in zip(pieces, answer_logprobs):
        tokens.append({"token": piece, "logprob": lp})
    return {
        "choices": [
            {
                "message": {"content": prefix + sentence},
                "logprobs": {"content": tokens} if with_logprobs else None,
            }
        ]
    }


class _KeepAliveHandler(_FakeHandler):
    protocol_version = "HTTP/1.1"  # keeps the connection open between requests


class _QuietServer(ThreadingHTTPServer):
    def handle_error(self, request, client_address):
        pass  # a reply to a client that already timed out fails to write


def _serve(handler):
    handler.script = []
    handler.requests_seen = []
    handler.raw_seen = []
    handler.connections = 0
    # one thread per connection: a slow reply does not hold up the retry
    server = _QuietServer(("127.0.0.1", 0), handler)
    # a short poll interval keeps shutdown() from waiting out the default 0.5 s
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01},
                              daemon=True)
    thread.start()
    url = f"http://127.0.0.1:{server.server_port}/v1/chat/completions"
    yield server, url
    agents._http_pool(url).clear()  # closes idle keep-alive connections
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()


@pytest.fixture()
def fake_server():
    yield from _serve(_FakeHandler)


@pytest.fixture()
def keep_alive_server():
    yield from _serve(_KeepAliveHandler)


class TestChatCompletionsAgent:
    def _agent(self, url, retries=2):
        cfg = BackendConfig(kind="http", endpoint=url, model="test-model",
                            retries=retries, backoff=0.01, timeout=5.0)
        return ChatCompletionsAgent(cfg)

    def test_belief_is_token_probability_product(self, fake_server):
        server, url = fake_server
        lp = math.log(0.9)
        _FakeHandler.script = [(200, _completion("The answer is B.", [lp, lp]))]
        op = self._agent(url).respond(ScenarioCase("c", "q", "B"), "a1", AgentContext("q", 1))
        assert op.answer == "B"
        assert op.belief == pytest.approx(0.81, rel=1e-9)

    def test_missing_logprobs_is_an_error(self, fake_server):
        server, url = fake_server
        _FakeHandler.script = [(200, _completion("The answer is B.", [-0.1], with_logprobs=False))]
        with pytest.raises(AgentError, match="logprobs unavailable"):
            self._agent(url).respond(ScenarioCase("c", "q", "B"), "a1", AgentContext("q", 1))

    def test_retries_after_transient_failures(self, fake_server):
        server, url = fake_server
        good = _completion("The answer is D.", [math.log(0.5)])
        _FakeHandler.script = [(500, {"error": "boom"}), (503, {"error": "again"}), (200, good)]
        agent = self._agent(url, retries=3)
        op = agent.respond(ScenarioCase("c", "q", "D"), "a1", AgentContext("q", 1))
        assert op.answer == "D"
        assert agent.last_retries == 2

    def test_exhausted_retries_raise(self, fake_server):
        server, url = fake_server
        _FakeHandler.script = [(500, {}), (500, {}), (500, {})]
        with pytest.raises(AgentError, match="transport failed after 3 attempts"):
            self._agent(url, retries=2).respond(
                ScenarioCase("c", "q", "D"), "a1", AgentContext("q", 1)
            )

    def test_request_carries_model_temperature_and_logprobs_flag(self, fake_server):
        server, url = fake_server
        _FakeHandler.script = [(200, _completion("The answer is A.", [-0.1]))]
        self._agent(url).respond(ScenarioCase("c", "q", "A"), "a1", AgentContext("q", 1))
        seen = _FakeHandler.requests_seen[-1]
        assert seen["model"] == "test-model"
        assert seen["temperature"] == 0.7
        assert seen["logprobs"] is True
        assert seen["messages"][0]["role"] == "system"

    def test_missing_api_key_env(self, fake_server, monkeypatch):
        server, url = fake_server
        monkeypatch.delenv("NO_SUCH_KEY_VAR", raising=False)
        cfg = BackendConfig(kind="http", endpoint=url, api_key_env="NO_SUCH_KEY_VAR")
        with pytest.raises(AgentError, match="NO_SUCH_KEY_VAR"):
            ChatCompletionsAgent(cfg).respond(
                ScenarioCase("c", "q", "A"), "a1", AgentContext("q", 1)
            )

    def test_unanswerable_content_retried_then_surfaced(self, fake_server):
        server, url = fake_server
        payload = {
            "choices": [{
                "message": {"content": "No commitment from me"},
                "logprobs": {"content": [{"token": "No commitment from me", "logprob": -0.2}]},
            }]
        }
        _FakeHandler.script = [(200, payload)] * 3
        with pytest.raises(AgentError, match="unanswerable output after 3 attempts"):
            self._agent(url).respond(ScenarioCase("c", "q", "A"), "a1", AgentContext("q", 1))
        assert len(_FakeHandler.requests_seen) == 3

    def test_tokens_that_do_not_spell_the_content_are_an_error(self, fake_server):
        server, url = fake_server
        payload = _completion("The answer is B.", [math.log(0.9), math.log(0.5)])
        # the server drops a space from one token: offsets past it would shift
        tokens = payload["choices"][0]["logprobs"]["content"]
        tokens[0]["token"] = tokens[0]["token"].rstrip()
        _FakeHandler.script = [(200, payload)]
        with pytest.raises(AgentError, match="do not reproduce the message content"):
            self._agent(url).respond(ScenarioCase("c", "q", "B"), "a1", AgentContext("q", 1))
        assert len(_FakeHandler.requests_seen) == 1

    def test_positive_logprob_rejected(self, fake_server):
        server, url = fake_server
        _FakeHandler.script = [(200, _completion("The answer is B.", [0.3]))]
        with pytest.raises(AgentError, match="invalid token probabilities"):
            self._agent(url).respond(ScenarioCase("c", "q", "B"), "a1", AgentContext("q", 1))

    def test_closed_port_is_a_transport_failure(self):
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        agent = self._agent(f"http://127.0.0.1:{port}/v1/chat/completions")
        with pytest.raises(AgentError, match="transport failed after 3 attempts"):
            agent.respond(ScenarioCase("c", "q", "A"), "a1", AgentContext("q", 1))
        assert agent.last_retries == 2

    def test_reply_slower_than_timeout_is_retried(self, fake_server):
        server, url = fake_server
        good = _completion("The answer is C.", [math.log(0.7)])
        _FakeHandler.script = [(200, good, 2.0), (200, good)]
        cfg = BackendConfig(kind="http", endpoint=url, retries=2, backoff=0.01, timeout=0.5)
        agent = ChatCompletionsAgent(cfg)
        op = agent.respond(ScenarioCase("c", "q", "C"), "a1", AgentContext("q", 1))
        assert op.answer == "C"
        assert agent.last_retries == 1
        assert len(_FakeHandler.requests_seen) == 2

    def test_client_error_raises_after_one_request(self, fake_server):
        server, url = fake_server
        _FakeHandler.script = [(400, {"error": "bad request"})] * 3
        with pytest.raises(AgentError, match="endpoint rejected the request: HTTP 400"):
            self._agent(url).respond(ScenarioCase("c", "q", "A"), "a1", AgentContext("q", 1))
        assert len(_FakeHandler.requests_seen) == 1

    def test_non_json_body_is_retried(self, fake_server):
        server, url = fake_server
        _FakeHandler.script = [(200, b"<html>not json</html>"),
                               (200, _completion("The answer is B.", [math.log(0.6)]))]
        agent = self._agent(url)
        op = agent.respond(ScenarioCase("c", "q", "B"), "a1", AgentContext("q", 1))
        assert op.belief == pytest.approx(0.6, rel=1e-9)
        assert agent.last_retries == 1
        assert len(_FakeHandler.requests_seen) == 2

    def test_request_body_bytes(self, fake_server):
        # the endpoint sees exactly these bytes; replies keyed on a hash of
        # the body (as the benchmark's fake endpoint's are) depend on them
        server, url = fake_server
        ctx = AgentContext("Which option? \u00e9", 2, (
            TaggedOpinion(Opinion("a2", "it is (B)", "B", 0.6), TAG_SUPPORTIVE),), "collaborate")
        self._agent(url).respond(ScenarioCase("c", "q", "A"), "a1", ctx)
        payload = {"model": "test-model", "messages": build_messages(ctx, "choice"),
                   "temperature": 0.7, "logprobs": True}
        assert _FakeHandler.raw_seen == [json.dumps(payload, allow_nan=False).encode("utf-8")]

    def test_redirect_is_not_followed(self, fake_server):
        server, url = fake_server
        _FakeHandler.script = [(307, {})]
        with pytest.raises(AgentError, match="endpoint rejected the request: HTTP 307"):
            self._agent(url).respond(ScenarioCase("c", "q", "A"), "a1", AgentContext("q", 1))
        assert len(_FakeHandler.requests_seen) == 1

    def test_agents_share_one_keep_alive_connection(self, keep_alive_server):
        server, url = keep_alive_server
        first, second = self._agent(url), self._agent(url)
        case = ScenarioCase("c", "q", "A")
        for agent in (first, second, first, second):
            assert agent.respond(case, "a1", AgentContext("q", 1)).answer == "A"
        assert len(_KeepAliveHandler.requests_seen) == 4
        assert _KeepAliveHandler.connections == 1

    def test_unanswerable_then_parseable_sample_succeeds(self, fake_server):
        server, url = fake_server
        bad = {
            "choices": [{
                "message": {"content": "No commitment from me"},
                "logprobs": {"content": [{"token": "No commitment from me", "logprob": -0.2}]},
            }]
        }
        _FakeHandler.script = [(200, bad), (200, _completion("The answer is C.", [math.log(0.7)]))]
        op = self._agent(url).respond(ScenarioCase("c", "q", "C"), "a1", AgentContext("q", 1))
        assert op.answer == "C"
        assert op.belief == pytest.approx(0.7, rel=1e-9)


def perturb(opinions, rng):
    after, victim = perturb_one_belief(columns_of(opinions), rng)
    return opinions_of(after), victim


class TestAdversarialNoise:
    def _round(self):
        return [Opinion(f"a{i}", "", "B", 0.2 + 0.1 * i) for i in range(5)]

    def test_exactly_one_belief_flipped(self):
        rng = np.random.default_rng(0)
        before = self._round()
        after, victim = perturb(before, rng)
        changed = [
            (b.agent_id, b.belief, a.belief)
            for b, a in zip(before, after) if b.belief != a.belief
        ]
        assert len(changed) == 1
        agent_id, old, new = changed[0]
        assert agent_id == victim
        assert new == pytest.approx(1.0 - old)

    def test_other_fields_preserved(self):
        rng = np.random.default_rng(1)
        before = self._round()
        after, victim = perturb(before, rng)
        for b, a in zip(before, after):
            assert (b.agent_id, b.reasoning, b.answer) == (a.agent_id, a.reasoning, a.answer)

    def test_seed_determinism(self):
        v1 = perturb(self._round(), np.random.default_rng(42))[1]
        v2 = perturb(self._round(), np.random.default_rng(42))[1]
        assert v1 == v2

    def test_belief_one_clamps_to_epsilon(self):
        ops = [Opinion("a0", "", "B", 1.0), Opinion("a1", "", "B", 1.0)]
        after, _ = perturb(ops, np.random.default_rng(0))
        flipped = [o for o in after if o.belief != 1.0]
        assert len(flipped) == 1
        assert 0.0 < flipped[0].belief <= 1e-9


class TestMakeBackend:
    def test_kinds(self):
        assert isinstance(make_backend(BackendConfig(kind="scripted")), ScriptedAgent)
        assert isinstance(make_backend(BackendConfig(kind="stochastic"), seed=1), StochasticAgent)
        http_cfg = BackendConfig(kind="http", endpoint="http://localhost:1")
        assert isinstance(make_backend(http_cfg), ChatCompletionsAgent)
        with pytest.raises(ValueError):
            make_backend(BackendConfig(kind="psychic"))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BackendConfig(temperature=-0.1)
        with pytest.raises(ValueError):
            BackendConfig(retries=-1)
        with pytest.raises(ValueError, match="backend kind must be one of"):
            BackendConfig(kind="stochastc")
        with pytest.raises(ValueError, match="prompt_style must be one of"):
            BackendConfig(kind="http", endpoint="http://localhost:1", prompt_style="boxd")
        for endpoint in ("", "localhost:8000/v1", "ftp://host/v1", "http:///v1"):
            with pytest.raises(ValueError, match="http endpoint"):
                BackendConfig(kind="http", endpoint=endpoint)

    def test_cli_import_leaves_requests_unloaded(self):
        # requests is never imported, and urllib3 only once an HTTP backend
        # is built; a fresh interpreter shows it
        src = os.path.dirname(os.path.dirname(agents.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        code = ("import sys, belief_consensus.cli; "
                "from belief_consensus.agents import BackendConfig, make_backend; "
                "loaded = lambda: ['requests' in sys.modules, 'urllib3' in sys.modules]; "
                "print(*loaded()); "
                "make_backend(BackendConfig(kind='http', endpoint='http://localhost:1')); "
                "print(*loaded())")
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=60)
        assert out.stdout.split() == ["False", "False", "False", "True"]
