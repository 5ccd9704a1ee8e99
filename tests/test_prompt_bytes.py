"""The bytes of every chat-completions request a run sends, pinned.

Seeded cases run through `run_case` with one `ChatCompletionsAgent` per
agent, in both prompt styles. Each agent sends to an in-process pool whose
reply is a function of sha256(request body), so a changed prompt changes
the replies, the rounds after it and the pinned digest of the sorted bodies.
"""

import hashlib
import json
import math
import random

from belief_consensus.agents import PROMPT_STYLES, BackendConfig, ChatCompletionsAgent
from belief_consensus.core import RunConfig, ScenarioCase
from belief_consensus.judgment import NONE, PARTIAL
from belief_consensus.orchestrator import run_case

# each answer's reasoning draws from its own words, so groups follow answers
WORDS = {a: [f"{a.lower()}{w}" for w in ("lpha", "rc", "xis", "nchor", "pex")] for a in "ABCD"}
COLLABORATE_ASK = "Judging which solutions are trustable"
LEADER_ASK = "Judging which solutions can lead the trend of thought"


class ReplyPool:
    """Stands in for an endpoint's keep-alive pool: records each body sent and
    answers it with a reply drawn from sha256(body) when it is read."""

    class Sent:
        def __init__(self, pool, body):
            self.pool, self.body = pool, body

        def close(self):
            self.pool.in_flight.discard(self)

    def __init__(self):
        self.bodies = []
        self.in_flight = set()
        self.most_in_flight = 0

    def send(self, body, headers, timeout):
        self.bodies.append(body)
        sent = ReplyPool.Sent(self, body)
        self.in_flight.add(sent)
        self.most_in_flight = max(self.most_in_flight, len(self.in_flight))
        return sent

    def receive(self, sent):
        assert sent in self.in_flight
        sent.close()
        rng = random.Random(hashlib.sha256(sent.body).digest())
        answer = rng.choice("AABBCD")
        words = " ".join(rng.choice(WORDS[answer] + WORDS[rng.choice("ABCD")])
                         for _ in range(rng.randint(3, 8)))
        tokens = [{"token": f"{words}.", "logprob": -0.1},
                  {"token": " The answer is", "logprob": math.log(rng.uniform(0.4, 0.99))},
                  {"token": f" ({answer}).", "logprob": math.log(rng.uniform(0.5, 0.99))}]
        content = "".join(t["token"] for t in tokens)
        reply = {"choices": [{"message": {"content": content}, "logprobs": {"content": tokens}}]}
        return 200, json.dumps(reply).encode()


def test_request_bodies_are_pinned():
    pool, prompted = ReplyPool(), set()
    questions = ("Which option holds?", 'Pick one: "x" \\ y, café?')
    for style in PROMPT_STYLES:
        for seed in range(4):
            for n, mixed in ((5, False), (7, True)):
                backends = {}
                for i in range(n):  # one model per agent, so round-1 bodies differ
                    agent = backends[f"agent-{i}"] = ChatCompletionsAgent(BackendConfig(
                        kind="http", endpoint="http://127.0.0.1:9/v1/chat/completions",
                        model=f"model-{i}", prompt_style=style))
                    agent.pool = pool
                case = ScenarioCase(f"pin-{seed}-{n}", questions[seed % 2], "A")
                run = RunConfig(n=n, max_rounds=4, seed=seed, n_leaders=2,
                                mixed_delegates=mixed)
                for rec in run_case(case, run, backends).rounds[:-1]:
                    prompted.add(rec.verdict.state)
    # each round's requests were all sent before the first reply was read
    assert (pool.most_in_flight, pool.in_flight) == (7, set())
    text = [body.decode() for body in pool.bodies]
    assert {PARTIAL, NONE} <= prompted
    assert any(COLLABORATE_ASK in t for t in text) and any(LEADER_ASK in t for t in text)
    assert any("One conflicting agent solution" in t for t in text)
    digest = hashlib.sha256(b"\n".join(sorted(pool.bodies))).hexdigest()
    assert (len(pool.bodies), digest) == (
        354, "ff987b17b42f73f244c43a2919d6492f4e1957bec61366bab05fb26c90af13b3")
