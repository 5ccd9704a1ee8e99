import json
import math
import os
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import numpy as np
import pytest

from belief_consensus import agents
from belief_consensus.agents import (
    AgentContext,
    AgentError,
    BackendConfig,
    ChatCompletionsAgent,
    ScriptedAgent,
    StochasticAgent,
    TaggedOpinion,
    build_messages,
    extract_answer_sentence,
    make_backend,
    perturb_one_belief,
    _bounded_index,
    _pcg64_raw,
    _raw_stream,
    _round_belief,
    _stochastic_draws,
)
from belief_consensus.core import AgentScript, Opinion, ScenarioCase, ScriptedReply, stable_hash
from round_oracles import oracle_respond


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
        # 20,000 opinions in multi-agent batches: each batch mixes rounds,
        # collaborator counts and agent ids; seeds include multi-word entropy
        rng = np.random.default_rng(7)
        pool = ("A", "B", "C", "D", "E", "F")
        cases = [ScenarioCase(f"case-{c}", "q", "A") for c in range(5)]
        counts = {"adopted": 0, "independent": 0}
        seen_pools = set()
        drawn = batch = 0
        while drawn < 20000:
            seed = (EDGE_SEEDS[batch] if batch < len(EDGE_SEEDS)
                    else int(rng.integers(2**31)))
            agent = StochasticAgent(seed=seed, candidates=pool[: 1 + batch % len(pool)])
            seen_pools.add(len(agent.candidates))
            size = int(rng.integers(1, 201))
            ids = [f"agent-{i}" for i in rng.choice(np.arange(1, 201), size, replace=False)]
            contexts = [
                AgentContext("q", int(rng.integers(1, 6)), tuple(
                    TaggedOpinion(Opinion(f"c{j}", "", str(rng.choice(pool)),
                                          float(rng.uniform(0.1, 1.0))), "supportive")
                    for j in range(int(rng.integers(0, 4)))
                ))
                for _ in ids
            ]
            case = cases[batch % len(cases)]
            got = agent.respond_round(case, ids, contexts)
            want = [oracle_respond(agent, case, a, ctx) for a, ctx in zip(ids, contexts)]
            assert got == want, f"batch {batch}"
            for op in got:
                counts["adopted" if op.reasoning.startswith("Adopting") else "independent"] += 1
            drawn += size
            batch += 1
        assert counts["adopted"] > 5000 and counts["independent"] > 5000
        assert seen_pools == {1, 2, 3, 4, 5, 6}

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
                got = agent.respond_round(case, ids, contexts)
                assert got == [oracle_respond(agent, case, a, c) for a, c in zip(ids, contexts)]
                assert any(op.reasoning.startswith("Adopting") for op in got)

    def test_rounds_of_different_entropy_lengths_in_one_batch(self):
        # rounds of one and of two 32-bit words interleaved in one call
        rng = np.random.default_rng(5)
        case = ScenarioCase("lengths", "q", "A")
        collab = (TaggedOpinion(Opinion("x", "", "C", 0.7), "supportive"),)
        for seed in EDGE_SEEDS:
            agent = StochasticAgent(seed=seed, candidates="ABCDE")
            ids = [f"agent-{i}" for i in range(60)]
            contexts = [AgentContext("q", int(r), collab if c else ())
                        for r, c in zip(rng.choice([1, 4, 2**32, 2**33 + 5, 2**64 + 1], 60),
                                        rng.integers(0, 2, 60))]
            got = agent.respond_round(case, ids, contexts)
            assert got == [oracle_respond(agent, case, a, c) for a, c in zip(ids, contexts)]

    @pytest.mark.parametrize("collaborate", [False, True])
    def test_rejected_low_half_in_a_batch(self, monkeypatch, collaborate):
        # substitute one column's output so its low half is rejected (0 for
        # n = 3); that agent takes the per-agent path, its neighbours do not
        case = ScenarioCase("reject", "q", "A")
        agent = StochasticAgent(seed=9, candidates="ABC", adopt_prob=0.0)
        ids = [f"agent-{i}" for i in range(8)]
        ctx = AgentContext("q", 2, (TaggedOpinion(Opinion("x", "", "B", 0.7), "leader"),)
                           if collaborate else ())
        words = _pcg64_raw
        target, at = 3, int(collaborate)
        for raw in (0xC0FFEE12 << 32, 0):  # then the high half is rejected too
            batches = []

            def substituted(block, k):
                out = words(block, k)
                if block.shape[1] == len(ids):  # the round's batch, not a stream's
                    out[at, target] = raw
                    batches.append(out.copy())
                return out

            monkeypatch.setattr(agents, "_pcg64_raw", substituted)
            got = agent.respond_round(case, ids, [ctx] * len(ids))
            monkeypatch.undo()
            want = [oracle_respond(agent, case, a, ctx) for a in ids]
            assert got[:target] == want[:target] and got[target + 1:] == want[target + 1:]
            entropy = [9, stable_hash("reject"), stable_hash(ids[target]), 2]
            outputs = batches[0][:, target].tolist() + np.random.PCG64(
                np.random.SeedSequence(entropy)).random_raw(20)[3:].tolist()
            index, belief = _stochastic_draws(iter(outputs).__next__, collaborate, 0.0, 3)
            if raw:
                assert index == _bounded_index(iter([raw]).__next__, 3) != 0
            assert got[target] == Opinion(
                ids[target], f"Independent draw on round 2 favoring option {'ABC'[index]}.",
                "ABC"[index], _round_belief(belief))

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
        entropy = []
        for n_words in range(1, 9):
            words = rng.integers(0, 2**32, size=(n_words, 17), dtype=np.uint64).astype(np.uint32)
            raw = _pcg64_raw(words, 6)
            for j, words_j in enumerate(words.T.tolist()):
                want = np.random.PCG64(np.random.SeedSequence(words_j)).random_raw(6)
                assert np.array_equal(raw[:, j], want)
                entropy.append(words_j)
        # each stream goes on past the batch's outputs
        for words_j in entropy:
            want = np.random.PCG64(np.random.SeedSequence(words_j)).random_raw(20)
            first = _pcg64_raw(np.array(words_j, np.uint32)[:, None], 3)[:, 0].tolist()
            stream = _raw_stream(words_j, first)
            assert [next(stream) for _ in range(20)] == want.tolist()

    @pytest.mark.parametrize("n_candidates", [3, 5, 6])
    def test_rejected_low_half_takes_the_high_half(self, n_candidates):
        # the low half 0 is rejected for these pool lengths (2**32 mod n > 0);
        # random inputs reach this branch with probability below n / 2**32
        inc = 0x5851F42D4C957F2D_14057B7EF767814F | 1
        high_half = 0xC0FFEE12
        for raw in (high_half << 32, 0):  # then also the high half rejected
            state = state_before_output(raw, inc)
            assert pcg64_at(state, inc).random_raw() == raw
            gen = np.random.Generator(pcg64_at(state, inc))
            want = (int(gen.integers(n_candidates)), gen.uniform(0.3, 0.95))
            got = _stochastic_draws(pcg64_at(state, inc).random_raw, False, 0.6, n_candidates)
            assert got == want
            if raw:
                assert got[0] == high_half * n_candidates >> 32 != 0

    def test_round_belief_is_np_round(self):
        # over uniforms, and over the values whose product with 1e6 lands
        # exactly on a half, where half-up and half-even rounding differ
        uniforms = np.random.default_rng(11).uniform(0.3, 0.95, 1_000_000)
        mids = (np.arange(300_000, 950_000) + 0.5) / 1e6
        near = np.concatenate([mids, np.nextafter(mids, 0.0), np.nextafter(mids, 1.0)])
        halfway = near[(near * 1e6) % 1.0 == 0.5]
        assert len(halfway) > 100_000
        for values in (uniforms, halfway):
            got = np.array([_round_belief(u) for u in values.tolist()])
            assert np.array_equal(got, np.round(values, 6))


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
    script = []          # list of ("status", payload) consumed per request
    requests_seen = []

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length))
        type(self).requests_seen.append(body)
        status, payload = (
            self.script.pop(0) if self.script else (200, _completion("The answer is A.", [-0.1]))
        )
        data = json.dumps(payload).encode()
        self.send_response(status)
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


@pytest.fixture()
def fake_server():
    _FakeHandler.script = []
    _FakeHandler.requests_seen = []
    server = HTTPServer(("127.0.0.1", 0), _FakeHandler)
    # a short poll interval keeps shutdown() from waiting out the default 0.5 s
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01},
                              daemon=True)
    thread.start()
    yield server, f"http://127.0.0.1:{server.server_port}/v1/chat/completions"
    server.shutdown()
    thread.join(timeout=5)


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


class TestAdversarialNoise:
    def _round(self):
        return [Opinion(f"a{i}", "", "B", 0.2 + 0.1 * i) for i in range(5)]

    def test_exactly_one_belief_flipped(self):
        rng = np.random.default_rng(0)
        before = self._round()
        after, victim = perturb_one_belief(before, rng)
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
        after, victim = perturb_one_belief(before, rng)
        for b, a in zip(before, after):
            assert (b.agent_id, b.reasoning, b.answer) == (a.agent_id, a.reasoning, a.answer)

    def test_seed_determinism(self):
        v1 = perturb_one_belief(self._round(), np.random.default_rng(42))[1]
        v2 = perturb_one_belief(self._round(), np.random.default_rng(42))[1]
        assert v1 == v2

    def test_belief_one_clamps_to_epsilon(self):
        ops = [Opinion("a0", "", "B", 1.0), Opinion("a1", "", "B", 1.0)]
        after, _ = perturb_one_belief(ops, np.random.default_rng(0))
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

    def test_cli_import_leaves_requests_unloaded(self):
        # only an HTTP backend imports requests; a fresh interpreter shows it
        src = os.path.dirname(os.path.dirname(agents.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        code = ("import sys, belief_consensus.cli; "
                "from belief_consensus.agents import BackendConfig, make_backend; "
                "print('requests' in sys.modules); "
                "make_backend(BackendConfig(kind='http', endpoint='http://localhost:1')); "
                "print('requests' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=60)
        assert out.stdout.split() == ["False", "True"]
