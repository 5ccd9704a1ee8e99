"""In-process fake chat-completions endpoint for the benchmark's HTTP workload.

Each reply is a pure function of a hash of the raw request body, so it does
not depend on arrival order or on how many requests are in flight. A reply
carries ~60 words of reasoning from a fixed vocabulary of a few hundred
words, then an answer sentence whose tokens carry logprobs, so the client's
`_parse` and belief extraction really run. Every request waits a fixed
injected delay before its reply is written.

The server answers at most `workers` requests at once and speaks HTTP/1.0,
closing each connection after its reply: a client can never park an idle
keep-alive connection on a busy worker.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import socketserver
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler

INJECTED_DELAY_S = 0.002
ANSWERS = ("A", "B", "C", "D")
# P(answer A) per reply. With 16 agents about 83% of rounds reach full
# consensus, so ~83% of cases take one round, ~14% two and ~3% three. The
# median and the 90th percentile of case latency then sit inside the one- and
# two-round modes rather than on the step between them, where a few cases
# more or less would move them by a whole round.
P_DOMINANT = 0.8

_ONSETS = ("b", "d", "f", "g", "k", "l", "m", "n", "p", "r", "s", "t", "v", "z")
_VOWELS = ("a", "e", "i", "o", "u")
# 14 * 5 * 5 = 350 four-letter words; none is "the", "answer" or "is".
VOCAB = tuple(f"{a}{v}{b}a" for a in _ONSETS for v in _VOWELS for b in ("l", "r", "n", "s", "m"))


def make_reply(body: bytes) -> tuple[str, list[dict], str, float]:
    """(content, logprob tokens, answer, expected belief) for one request body."""
    rng = random.Random(int.from_bytes(hashlib.sha256(body).digest(), "big"))
    if rng.random() < P_DOMINANT:
        answer, belief = "A", rng.uniform(0.6, 0.95)
    else:
        answer, belief = rng.choice(ANSWERS[1:]), rng.uniform(0.2, 0.7)

    tokens: list[dict] = []
    n_words = rng.randint(50, 70)
    for i in range(n_words):
        word = rng.choice(VOCAB)
        if i % 12 == 11 or i == n_words - 1:
            word += "."
        tokens.append({"token": word if i == 0 else f" {word}",
                       "logprob": -rng.uniform(0.01, 1.5)})

    # split log(belief) over the answer sentence's tokens at random weights
    sentence = [" The", " answer", " is", f" ({answer})."]
    weights = [rng.uniform(0.5, 1.5) for _ in sentence]
    total = sum(weights)
    log_belief = math.log(belief)
    expected = 1.0
    for piece, w in zip(sentence, weights):
        lp = log_belief * w / total
        tokens.append({"token": piece, "logprob": lp})
        expected *= math.exp(lp)
    content = "".join(t["token"] for t in tokens)
    return content, tokens, answer, expected


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.0"
    server: "FakeEndpoint"

    def do_POST(self):
        start = time.perf_counter()
        body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        try:
            request = json.loads(body)
            valid = request.get("logprobs") is True and bool(request.get("messages"))
        except ValueError:
            valid = False
        content = None
        if valid:
            content, tokens, answer, expected = make_reply(body)
            status = 200
            data = json.dumps({
                "object": "chat.completion",
                "model": request.get("model", ""),
                "choices": [{
                    "index": 0,
                    "message": {"role": "assistant", "content": content},
                    "logprobs": {"content": tokens},
                    "finish_reason": "stop",
                }],
            }).encode()
        else:
            status = 400
            data = b'{"error": "expected a chat-completions body with logprobs"}'
        time.sleep(INJECTED_DELAY_S)
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        # record before the body goes out, so the client never sees a reply
        # that the counters do not yet hold
        self.server.record(status, time.perf_counter() - start,
                           None if content is None else (content, answer, expected))
        self.wfile.write(data)

    def log_message(self, *args):
        pass


class FakeEndpoint(socketserver.TCPServer):
    """Fake endpoint on 127.0.0.1 with a bounded pool of `workers` handler threads.

    Counts requests, non-200 replies and service time (delay included), and
    remembers each reply's answer, expected belief and service time by its
    content, which is unique per request body.
    """

    allow_reuse_address = True
    request_queue_size = 64

    def __init__(self, workers: int):
        super().__init__(("127.0.0.1", 0), _Handler)
        self._pool = ThreadPoolExecutor(max_workers=workers, thread_name_prefix="fake-endpoint")
        self._lock = threading.Lock()
        self._thread: threading.Thread | None = None
        self.requests = 0
        self.non_200 = 0
        self.service_s = 0.0
        self.replies: dict[str, tuple[str, float, float]] = {}

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.server_address[1]}/v1/chat/completions"

    def record(self, status: int, service: float, reply):
        with self._lock:
            self.requests += 1
            self.service_s += service
            if status != 200:
                self.non_200 += 1
            if reply is not None:
                content, answer, expected = reply
                self.replies[content] = (answer, expected, service)

    def process_request(self, request, client_address):
        self._pool.submit(self._serve_one, request, client_address)

    def _serve_one(self, request, client_address):
        try:
            self.finish_request(request, client_address)
        except Exception:
            self.handle_error(request, client_address)
        finally:
            self.shutdown_request(request)

    def start(self) -> "FakeEndpoint":
        self._thread = threading.Thread(
            target=self.serve_forever, kwargs={"poll_interval": 0.05}, name="fake-endpoint-accept"
        )
        self._thread.start()
        return self

    def close(self):
        if self._thread is not None:
            self.shutdown()
            self._thread.join()
            self._thread = None
        self._pool.shutdown(wait=True)
        self.server_close()
