from __future__ import annotations

import json
import os
import re
import ssl
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import contrastive_retrieval
from contrastive_retrieval.backends import (
    HttpEmbedderBackend,
    HttpGeneratorBackend,
    MockEmbedderBackend,
    MockGeneratorBackend,
    Settled,
    _stable_hash,
    complete_each,
    embed_each,
    estimate_output_tokens,
    output_tokens_of,
)
from contrastive_retrieval.errors import BackendUnavailableError, EmbedderFailureError
from contrastive_retrieval.hypotheses import parse_pair, render_prompt
from contrastive_retrieval.vectors import normalize
from helpers import (
    AdversarialGeneratorBackend,
    FailingGeneratorBackend,
    OracleGeneratorBackend,
    ScriptedGeneratorBackend,
    two_option_item,
)
from http_faults import FaultServer, Reply

MESSAGES = [{"role": "user", "content": "hello"}]


@pytest.fixture
def serve():
    """Start ``FaultServer``s for one test; on teardown, stop them and check
    that every request came on a connection of its own, asked to be closed."""
    servers: list[FaultServer] = []

    def start(*replies: Reply) -> FaultServer:
        servers.append(FaultServer(*replies))
        return servers[-1]

    yield start
    for server in servers:
        server.close()
    for server in servers:
        assert [r.headers.get("connection") for r in server.requests] == (
            ["close"] * len(server.requests)
        )
        assert server.connections == len(server.requests)


@pytest.fixture
def sleeps(monkeypatch):
    """The backoff sleeps of the backends, recorded instead of slept."""
    recorded: list[float] = []
    monkeypatch.setattr("contrastive_retrieval.backends.time.sleep", recorded.append)
    return recorded


def test_estimate_output_tokens_is_ceil_of_quarter_chars():
    assert estimate_output_tokens("") == 0
    assert estimate_output_tokens("abcd") == 1
    assert estimate_output_tokens("abcde") == 2
    assert estimate_output_tokens("x" * 16) == 4


def test_http_generator_success(serve):
    server = serve(
        Reply(body={
            "choices": [{"message": {"content": "generated text"}}],
            "usage": {"completion_tokens": 42},
        })
    )
    backend = HttpGeneratorBackend(
        server.url("/v1/chat"), "test-model", api_key="secret", seed=3, backoff_s=0.0
    )
    result = backend.complete(MESSAGES, temperature=0.5)
    assert result.text == "generated text"
    assert result.output_tokens == 42
    assert backend.calls == 1
    [request] = server.requests
    assert request.path == "/v1/chat"
    assert request.payload["model"] == "test-model"
    assert request.payload["messages"] == MESSAGES
    assert request.payload["temperature"] == 0.5
    assert request.payload["seed"] == 3
    assert request.headers["authorization"] == "Bearer secret"
    assert request.headers["content-type"] == "application/json"


@pytest.mark.parametrize("tokens", ["12", -5, 2.5, True])
def test_http_generator_ignores_a_malformed_token_count(serve, tokens):
    server = serve(Reply(body={
        "choices": [{"message": {"content": "generated text"}}],
        "usage": {"completion_tokens": tokens},
    }))
    result = HttpGeneratorBackend(server.url(), "m", backoff_s=0.0).complete(MESSAGES)
    assert result.output_tokens is None
    assert output_tokens_of(result) == estimate_output_tokens("generated text")


def test_http_generator_retries_then_raises(serve):
    server = serve(Reply(drop=True))
    backend = HttpGeneratorBackend(server.url(), "m", transport_retries=2, backoff_s=0.0)
    with pytest.raises(BackendUnavailableError, match="unreachable"):
        backend.complete(MESSAGES)
    assert len(server.requests) == 3


def test_http_generator_bad_body_counts_as_failure(serve):
    server = serve(Reply(body={"unexpected": True}))
    backend = HttpGeneratorBackend(server.url(), "m", transport_retries=0, backoff_s=0.0)
    with pytest.raises(BackendUnavailableError):
        backend.complete(MESSAGES)


def test_http_embedder_success_and_dimension_tracking(serve):
    server = serve(
        Reply(body={"data": [{"embedding": [3.0, 4.0]}]}),
        Reply(body={"data": [{"embedding": [1.0, 0.0, 0.0]}]}),
    )
    backend = HttpEmbedderBackend(server.url("/v1/emb"), "emb-model", backoff_s=0.0)
    vec = backend.embed("text")
    assert np.allclose(vec, [0.6, 0.8])
    assert backend.dimension == 2
    assert server.requests[0].path == "/v1/emb"
    assert server.requests[0].payload == {"model": "emb-model", "input": "text"}
    assert "authorization" not in server.requests[0].headers

    with pytest.raises(EmbedderFailureError, match="dimension 3, expected 2"):
        backend.embed("other")
    assert len(server.requests) == 2


def test_http_embedder_unreachable(serve, sleeps):
    server = serve(Reply())
    server.close()  # nothing listens on the port any more: each connect is refused
    backend = HttpEmbedderBackend(server.url(), "m", transport_retries=1, backoff_s=0.25)
    with pytest.raises(EmbedderFailureError, match="unreachable"):
        backend.embed("text")
    assert sleeps == [0.25]  # two attempts
    assert server.requests == []


GENERATOR_BODY = {"choices": [{"message": {"content": "text"}}]}
EMBEDDER_BODY = {"data": [{"embedding": [3.0, 4.0]}]}


# Each HTTP backend with the call that drives it, a good body and its error.
HTTP_BACKENDS = (
    pytest.param(HttpGeneratorBackend, lambda b: b.complete(MESSAGES), GENERATOR_BODY,
                 BackendUnavailableError, id="generator"),
    pytest.param(HttpEmbedderBackend, lambda b: b.embed("text"), EMBEDDER_BODY,
                 EmbedderFailureError, id="embedder"),
)


@pytest.mark.parametrize("status", [400, 401, 403, 404, 422])
@pytest.mark.parametrize("cls, call, body, error", HTTP_BACKENDS)
def test_http_backend_permanent_client_error_fails_fast(serve, sleeps, status, cls, call, body,
                                                        error):
    server = serve(Reply(status, body))
    backend = cls(server.url(), "m", transport_retries=2, backoff_s=5.0)
    with pytest.raises(error, match=f"HTTP {status}"):
        call(backend)
    assert len(server.requests) == 1
    assert sleeps == []


@pytest.mark.parametrize("status", [408, 429, 500, 503])
@pytest.mark.parametrize("cls, call, body, error", HTTP_BACKENDS)
def test_http_backend_transient_status_retries(serve, sleeps, status, cls, call, body, error):
    server = serve(Reply(status, body))
    backend = cls(server.url(), "m", transport_retries=2, backoff_s=5.0)
    with pytest.raises(error, match="unreachable"):
        call(backend)
    assert len(server.requests) == backend.transport_retries + 1
    assert sleeps == [5.0, 10.0]


@pytest.mark.parametrize("cls, call, body, error", HTTP_BACKENDS)
def test_http_backend_retries_until_success(serve, cls, call, body, error):
    server = serve(Reply(503, body), Reply(429, body), Reply(200, body))
    backend = cls(server.url(), "m", transport_retries=2, backoff_s=0.0)
    call(backend)
    assert len(server.requests) == 3


@pytest.mark.parametrize("status, retry_after, backoff_s, expected", [
    (429, "1", 0.01, [1.0]),
    (503, "1", 0.01, [1.0]),
    (429, "1", 5.0, [5.0]),  # never shorter than the linear backoff
    (429, "Wed, 21 Oct 2015 07:28:00 GMT", 0.01, [0.01]),  # HTTP-date: linear backoff
    (503, "soon", 0.01, [0.01]),
    (429, "\u00b2", 0.01, [0.01]),  # a digit, but not an ASCII one
    (500, "1", 0.01, [0.01]),  # read only on 429 and 503
    (429, "10000000000", 0.01, [60.0]),  # cut to the backend's timeout
])
@pytest.mark.parametrize("cls, call, body, error", HTTP_BACKENDS)
def test_http_backend_honours_retry_after(serve, sleeps, status, retry_after, backoff_s,
                                          expected, cls, call, body, error):
    server = serve(Reply(status, headers={"Retry-After": retry_after}), Reply(200, body))
    backend = cls(server.url(), "m", transport_retries=2, backoff_s=backoff_s)
    call(backend)
    assert len(server.requests) == 2
    assert sleeps == expected


@pytest.mark.parametrize("cls, call, body, error", HTTP_BACKENDS)
def test_http_backend_retry_after_holds_for_one_attempt(serve, sleeps, cls, call, body, error):
    server = serve(Reply(429, headers={"Retry-After": "7"}), Reply(drop=True), Reply(200, body))
    backend = cls(server.url(), "m", transport_retries=2, backoff_s=0.5)
    call(backend)
    assert len(server.requests) == 3
    assert sleeps == [7.0, 1.0]


@pytest.mark.parametrize("cls, call, body, error", HTTP_BACKENDS)
def test_http_backend_server_error_then_success(serve, sleeps, cls, call, body, error):
    server = serve(Reply(500, {"error": "overloaded"}), Reply(200, body))
    backend = cls(server.url(), "m", transport_retries=2, backoff_s=0.5)
    call(backend)
    assert len(server.requests) == 2
    assert sleeps == [0.5]


@pytest.mark.parametrize("truncated", [
    pytest.param(lambda body: Reply(200, json.dumps(body).encode()[:-7]), id="invalid-json"),
    pytest.param(lambda body: Reply(200, body, cut_at=12), id="short-transfer"),
])
@pytest.mark.parametrize("cls, call, body, error", HTTP_BACKENDS)
def test_http_backend_truncated_body_then_success(serve, sleeps, truncated, cls, call, body,
                                                  error):
    server = serve(truncated(body), Reply(200, body))
    backend = cls(server.url(), "m", transport_retries=2, backoff_s=0.5)
    call(backend)
    assert len(server.requests) == 2
    assert sleeps == [0.5]


def test_a_reply_nested_past_the_recursion_limit_is_retried_then_settles_as_an_error(
    serve, sleeps
):
    server = serve(Reply(200, b"[" * 100_000 + b"]" * 100_000))
    backend = HttpGeneratorBackend(server.url(), "m", transport_retries=2, backoff_s=0.5)
    [(outcome, _)] = complete_each(Settled(backend), [MESSAGES])
    assert isinstance(outcome, BackendUnavailableError)
    assert "maximum recursion depth" in str(outcome)
    assert len(server.requests) == 3
    assert sleeps == [0.5, 1.0]


@pytest.mark.parametrize("cls, call, body, error", HTTP_BACKENDS)
def test_http_backend_slow_response_times_out_then_succeeds(serve, sleeps, cls, call, body,
                                                            error):
    server = serve(Reply(200, body, delay_s=5.0), Reply(200, body))
    backend = cls(server.url(), "m", timeout=1.0, transport_retries=1, backoff_s=0.5)
    call(backend)
    assert len(server.requests) == 2
    assert sleeps == [0.5]


@pytest.mark.parametrize("cls, call, reply, error, field", [
    pytest.param(HttpGeneratorBackend, lambda b: b.complete(MESSAGES), {"choices": []},
                 BackendUnavailableError, "choices[0].message.content", id="generator-empty"),
    pytest.param(HttpGeneratorBackend, lambda b: b.complete(MESSAGES),
                 {"choices": [{"message": {"role": "assistant"}}]},
                 BackendUnavailableError, "choices[0].message.content", id="generator-no-content"),
    pytest.param(HttpGeneratorBackend, lambda b: b.complete(MESSAGES),
                 {"choices": [{"message": {"content": None}}]},
                 BackendUnavailableError, "choices[0].message.content", id="generator-null"),
    pytest.param(HttpEmbedderBackend, lambda b: b.embed("text"), {"data": [{"vector": [1.0]}]},
                 EmbedderFailureError, "data[0].embedding", id="embedder-no-embedding"),
    pytest.param(HttpEmbedderBackend, lambda b: b.embed("text"), ["not", "an", "object"],
                 EmbedderFailureError, "data[0].embedding", id="embedder-list"),
    pytest.param(HttpEmbedderBackend, lambda b: b.embed("text"),
                 {"data": [{"embedding": [0.0, 0.0]}]},
                 EmbedderFailureError, "data[0].embedding", id="embedder-zero-vector"),
    # NumPy would read both as numbers.
    pytest.param(HttpEmbedderBackend, lambda b: b.embed("text"),
                 {"data": [{"embedding": ["1", "2", "3"]}]},
                 EmbedderFailureError, "data[0].embedding", id="embedder-strings"),
    pytest.param(HttpEmbedderBackend, lambda b: b.embed("text"),
                 {"data": [{"embedding": [True, False, True]}]},
                 EmbedderFailureError, "data[0].embedding", id="embedder-booleans"),
    pytest.param(HttpEmbedderBackend, lambda b: b.embed("text"),
                 {"data": [{"embedding": [10**400, 1]}]},
                 EmbedderFailureError, "data[0].embedding", id="embedder-huge-integer"),
])
def test_http_backend_wrong_shape_fails_fast(serve, sleeps, cls, call, reply, error, field):
    server = serve(Reply(200, reply))
    backend = cls(server.url(), "m", transport_retries=2, backoff_s=0.5)
    with pytest.raises(error, match=re.escape(field)):
        call(backend)
    assert len(server.requests) == 1
    assert sleeps == []


def test_http_backends_close_every_connection(serve):
    server = serve(Reply(200, GENERATOR_BODY), Reply(200, EMBEDDER_BODY))
    HttpGeneratorBackend(server.url(), "m").complete(MESSAGES)
    HttpEmbedderBackend(server.url(), "m").embed("text")
    # One connection per request, each asked to close: keep-alive stalls
    # every response on servers that write headers and body separately.
    assert [r.headers["connection"] for r in server.requests] == ["close", "close"]
    assert server.connections == 2


def test_https_backend_builds_one_tls_context(sleeps):
    server = FaultServer(Reply(200, EMBEDDER_BODY))
    try:
        backend = HttpEmbedderBackend(server.url().replace("http:", "https:"), "m",
                                      transport_retries=1, backoff_s=0.0)
        contexts = []
        for _ in range(2):
            # The server speaks plain HTTP, so every TLS handshake fails and retries.
            with pytest.raises(EmbedderFailureError, match="unreachable"):
                backend.embed("text")
            contexts.append(backend._tls)
        assert isinstance(contexts[0], ssl.SSLContext)
        assert contexts[1] is contexts[0]
        assert server.connections == 4
    finally:
        server.close()


def test_http_backend_rejects_other_url_schemes(sleeps):
    with pytest.raises(ValueError, match="'ftp' is not http or https"):
        HttpGeneratorBackend("ftp://127.0.0.1/v1", "m", transport_retries=2)
    assert sleeps == []


@pytest.mark.parametrize("cls", [HttpGeneratorBackend, HttpEmbedderBackend])
@pytest.mark.parametrize("url, message", [
    ("http:///v1", "URL has no host"),
    ("http://127.0.0.1:99999/v1", "Port out of range"),
    ("https://127.0.0.1:x/v1", "Port could not be cast"),
], ids=["no-host", "port-range", "port-not-a-number"])
def test_http_backends_check_their_url_once_at_construction(cls, url, message):
    with pytest.raises(ValueError, match=re.escape(f"{url}: {message}")):
        cls(url, "m")


def test_http_call_does_not_import_requests(serve):
    server = serve(Reply(200, EMBEDDER_BODY))
    code = (
        "import sys\n"
        "from contrastive_retrieval.backends import HttpEmbedderBackend\n"
        f"HttpEmbedderBackend({server.url()!r}, 'm').embed('text')\n"
        "print('requests' in sys.modules)\n"
    )
    src = str(Path(contrastive_retrieval.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60, check=True)
    assert done.stdout.strip() == "False"
    assert len(server.requests) == 1


def _number(payload) -> int:
    """The ``i`` of a batch test's input ``i``, from either backend's payload."""
    text = payload["input"] if "input" in payload else payload["messages"][-1]["content"]
    return int(text.split()[-1])


# Each HTTP backend with: its batch over inputs 0..n-1, the body answering
# input i, the i a result answers, and the backend's error.
HTTP_BATCHES = (
    pytest.param(
        HttpGeneratorBackend,
        lambda b, n: complete_each(b, [[{"role": "user", "content": f"prompt {i}"}]
                                       for i in range(n)]),
        lambda i: {"choices": [{"message": {"content": f"reply {i}"}}]},
        lambda result: int(result.text.split()[-1]),
        BackendUnavailableError, id="generator"),
    pytest.param(
        HttpEmbedderBackend,
        lambda b, n: embed_each(b, [f"text {i}" for i in range(n)]),
        lambda i: {"data": [{"embedding": [1.0, float(i)]}]},
        lambda vec: round(vec[1] / vec[0]),
        EmbedderFailureError, id="embedder"),
)


@pytest.mark.parametrize("cls, batch, body, number, error", HTTP_BATCHES)
def test_a_batch_yields_in_input_order_when_replies_arrive_reversed(serve, cls, batch, body,
                                                                   number, error):
    n = cls.MAX_IN_FLIGHT
    # The first input is held longest, so the replies come back last first.
    server = serve(lambda payload: Reply(
        body=body(_number(payload)), delay_s=0.03 * (n - _number(payload))))
    assert [number(result) for result in batch(cls(server.url(), "m"), n)] == list(range(n))


@pytest.mark.parametrize("cls, batch, body, number, error", HTTP_BATCHES)
def test_a_batch_holds_at_most_max_in_flight_requests_one_per_input(serve, cls, batch, body,
                                                                    number, error):
    n = 3 * cls.MAX_IN_FLIGHT
    server = serve(lambda payload: Reply(body=body(_number(payload)), delay_s=0.02))
    backend = cls(server.url(), "m")
    assert [number(result) for result in batch(backend, n)] == list(range(n))
    assert 1 < server.max_in_flight <= cls.MAX_IN_FLIGHT
    assert sorted(_number(request.payload) for request in server.requests) == list(range(n))
    if cls is HttpGeneratorBackend:
        assert backend.calls == n


@pytest.mark.parametrize("cls, batch, body, number, error", HTTP_BATCHES)
def test_a_batch_raises_its_first_failing_input_after_the_calls_in_flight(serve, cls, batch,
                                                                         body, number, error):
    # Input 5 fails first, input 2 fails earlier in input order, and input 7
    # is still held when input 2 fails.
    delays = {2: 0.05, 7: 0.3}
    statuses = {2: 400, 5: 404}

    def reply(payload):
        i = _number(payload)
        return Reply(statuses.get(i, 200), body(i), delay_s=delays.get(i, 0.0))

    server = serve(reply)
    got = []
    with pytest.raises(error, match="HTTP 400"):
        for result in batch(cls(server.url(), "m", backoff_s=0.0), 8):
            got.append(number(result))
    assert got == [0, 1]
    assert len(server.requests) == 8
    assert server.in_flight == 0


def test_a_batch_against_a_server_that_admits_two_requests_succeeds_in_input_order(serve):
    # The server serves 2 requests at once and rejects the rest with 429 and
    # Retry-After: 1. Each call retries at most twice, so the batch succeeds
    # only if the backend's threads back off together and send fewer at once.
    lock = threading.Lock()
    busy = [0]

    def reply(payload):
        with lock:
            if busy[0] == 2:
                return Reply(429, {"error": "busy"}, headers={"Retry-After": "1"})
            busy[0] += 1
        time.sleep(0.05)
        with lock:
            busy[0] -= 1
        return Reply(body={"data": [{"embedding": [1.0, float(_number(payload))]}]})

    server = serve(reply)
    vectors = embed_each(HttpEmbedderBackend(server.url(), "m"), [f"text {i}" for i in range(32)])
    assert [round(vec[1] / vec[0]) for vec in vectors] == list(range(32))
    assert 32 < len(server.requests) < 64


def test_a_429_holds_every_thread_of_the_backend_until_its_retry_after(serve):
    # Four threads call one backend, 8 texts each; the first thread's second
    # request is rejected with Retry-After: 1 and every other one is served.
    lock = threading.Lock()
    arrivals: list[float] = []
    rejected: list[float] = []

    def reply(payload):
        with lock:
            arrivals.append(time.monotonic())
            if _number(payload) == 1 and not rejected:
                rejected.append(arrivals[-1])
                return Reply(429, headers={"Retry-After": "1"})
        return Reply(body={"data": [{"embedding": [1.0, float(_number(payload))]}]},
                     delay_s=0.1)

    server = serve(reply)
    backend = HttpEmbedderBackend(server.url(), "m")
    got: dict[int, int] = {}

    def embed_eight(first):
        for i in range(first, first + 8):
            vec = backend.embed(f"text {i}")
            got[i] = round(vec[1] / vec[0])

    threads = [threading.Thread(target=embed_eight, args=(8 * j,)) for j in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
        assert not thread.is_alive()
    assert got == {i: i for i in range(32)}
    # No request arrived in the second after the rejection, beyond those
    # already on their way; the margins allow for timer slack.
    assert not any(rejected[0] + 0.25 < a < rejected[0] + 0.9 for a in arrivals)
    assert len(server.requests) == 33


def test_a_retry_after_beyond_the_timeout_holds_a_pooled_batch_only_that_long(serve, sleeps):
    # The first request of a pooled batch is rejected with a Retry-After of
    # 10^10 s, longer than a thread can wait. Its retry sleeps the backend's
    # timeout instead, and the ninth text, which starts only once the first
    # is done, waits out the rest of that hold.
    rejected: list[int] = []

    def reply(payload):
        if _number(payload) == 0 and not rejected:
            rejected.append(0)
            return Reply(429, headers={"Retry-After": "10000000000"})
        return Reply(body={"data": [{"embedding": [1.0, float(_number(payload))]}]})

    server = serve(reply)
    backend = HttpEmbedderBackend(server.url(), "m", timeout=0.5)
    vectors = embed_each(backend, [f"text {i}" for i in range(backend.MAX_IN_FLIGHT + 1)])
    assert [round(vec[1] / vec[0]) for vec in vectors] == list(range(backend.MAX_IN_FLIGHT + 1))
    assert sleeps == [0.5]
    assert len(server.requests) == backend.MAX_IN_FLIGHT + 2


def test_pacing_state_stays_whole_under_a_short_switch_interval(serve):
    # Every fifth prompt is rate limited once with no wait, so the in-flight
    # limit is cut and raised again while many workers take and free slots;
    # a lost update would leave a slot taken or the limit out of range.
    lock = threading.Lock()
    limited: set[int] = set()

    def reply(payload):
        i = _number(payload)
        with lock:
            if i % 5 == 0 and i not in limited:
                limited.add(i)
                return Reply(429, headers={"Retry-After": "0"})
        return Reply(body={"choices": [{"message": {"content": f"reply {i}"}}]})

    server = serve(reply)
    backend = HttpGeneratorBackend(server.url(), "m", backoff_s=0.0)
    prompts = [[{"role": "user", "content": f"prompt {i}"}] for i in range(100)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        results = list(complete_each(backend, prompts))
    finally:
        sys.setswitchinterval(interval)
    assert [int(result.text.split()[-1]) for result in results] == list(range(100))
    assert backend._in_flight == 0
    assert 1 <= backend._limit <= backend.MAX_IN_FLIGHT
    assert server.max_in_flight <= backend.MAX_IN_FLIGHT


def test_a_batch_counts_every_call_under_a_short_switch_interval(serve):
    # More workers than cores, switching threads as often as the interpreter
    # allows: a lost update of ``calls`` would show here.
    server = serve(Reply(body=GENERATOR_BODY))
    backend = HttpGeneratorBackend(server.url(), "m")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        results = list(complete_each(backend, [MESSAGES] * 100))
    finally:
        sys.setswitchinterval(interval)
    assert len(results) == backend.calls == len(server.requests) == 100


def test_a_backend_without_max_in_flight_is_called_one_at_a_time_in_the_callers_thread():
    class Recording:
        def __init__(self):
            self.seen = []

        def embed(self, text):
            self.seen.append((text, threading.get_ident()))
            if text == "c":
                raise EmbedderFailureError("c failed")
            return np.array([1.0, 0.0])

    backend = Recording()
    got = []
    with pytest.raises(EmbedderFailureError, match="c failed"):
        for vec in embed_each(backend, ["a", "b", "c", "d"]):
            got.append((len(backend.seen), vec))
    # Each call is made only once the result before it has been taken.
    assert [calls for calls, _ in got] == [1, 2]
    assert backend.seen == [(text, threading.get_ident()) for text in "abc"]


def test_two_first_replies_of_different_dimensions_are_never_both_accepted(serve):
    server = serve(lambda payload: Reply(
        body={"data": [{"embedding": [1.0] * (2 if payload["input"] == "a" else 3)}]}))

    class SlowDimension(HttpEmbedderBackend):
        # Widens the gap between reading the learned dimension and setting it.
        @property
        def dimension(self):
            value = self.__dict__.get("_dimension", -1)
            time.sleep(0.05)
            return value

        @dimension.setter
        def dimension(self, value):
            self.__dict__["_dimension"] = value

    backend = SlowDimension(server.url(), "m")
    accepted, errors = [], []

    def call(text):
        try:
            accepted.append(backend.embed(text).shape[0])
        except EmbedderFailureError as exc:
            errors.append(str(exc))

    threads = [threading.Thread(target=call, args=(text,)) for text in "ab"]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
        assert not thread.is_alive()
    assert len(accepted) == 1 and backend.dimension == accepted[0]
    other = 3 if accepted[0] == 2 else 2
    assert errors == [f"embedder returned dimension {other}, expected {accepted[0]}"]


def test_a_mock_run_does_not_import_concurrent_futures(tmp_path):
    # Only a batch to a backend with MAX_IN_FLIGHT above 1 starts threads.
    code = (
        "import sys\n"
        "from contrastive_retrieval.cli import main_cli\n"
        f"assert main_cli(['run', '--mock', '--out', {str(tmp_path)!r}]) == 0\n"
        "print('concurrent.futures' in sys.modules)\n"
    )
    src = str(Path(contrastive_retrieval.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120, check=True)
    assert done.stdout.strip().splitlines()[-1] == "False"


def test_mock_embedder_deterministic_unit_and_shared_vocab():
    emb = MockEmbedderBackend(dimension=32, seed=5)
    again = MockEmbedderBackend(dimension=32, seed=5)
    v = emb.embed("alpha beta gamma")
    assert np.array_equal(v, again.embed("alpha beta gamma"))
    assert float(np.linalg.norm(v)) == pytest.approx(1.0, abs=1e-12)

    overlap = float(np.dot(emb.embed("alpha beta"), emb.embed("alpha beta delta")))
    disjoint = float(np.dot(emb.embed("alpha beta"), emb.embed("epsilon zeta")))
    assert overlap > disjoint


def _mock_embedding_by_a_loop(text, dimension, seed):
    """The mock embedder's vector for ``text``, summed by a += loop over its tokens."""
    tokens = re.findall(r"[a-z0-9]+", text.lower()) or ["<empty>"]
    total = np.zeros(dimension)
    for token in tokens:
        total += np.random.default_rng(_stable_hash("tok", seed, token)).standard_normal(dimension)
    return normalize(total)


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("dimension", [2, 64, 384])
def test_mock_embedder_bits_equal_a_loop_over_the_token_vectors(dimension, seed):
    words = np.random.default_rng(3).integers(0, 120, size=300)
    texts = [
        "", " ?! ",  # no tokens
        "alpha",
        "Alpha beta ALPHA gamma beta alpha",
        " ".join(f"w{word}" for word in words),  # 300 tokens, most repeated
    ]
    emb = MockEmbedderBackend(dimension=dimension, seed=seed)
    for text in texts * 2:  # the second pass finds every token vector made
        want = _mock_embedding_by_a_loop(text, dimension, seed)
        assert emb.embed(text).tobytes() == want.tobytes()


def test_mock_embedder_seed_changes_vectors():
    a = MockEmbedderBackend(dimension=32, seed=1).embed("same words")
    b = MockEmbedderBackend(dimension=32, seed=2).embed("same words")
    assert not np.allclose(a, b)


def test_mock_embedder_tokenization_ignores_case_and_punctuation():
    emb = MockEmbedderBackend(dimension=32, seed=0)
    assert np.array_equal(emb.embed("Alpha, Beta!"), emb.embed("alpha beta"))


def test_mock_generator_pair_prompt_yields_parseable_pair():
    item = two_option_item()
    system, user = render_prompt(item)
    backend = MockGeneratorBackend(seed=0)
    result = backend.complete(
        [{"role": "system", "content": system}, {"role": "user", "content": user}]
    )
    pair = parse_pair(result.text)
    assert pair.h_plus and pair.h_minus
    assert pair.provenance == "llm"


def test_mock_generator_is_pure_function_of_seed_and_messages():
    item = two_option_item()
    system, user = render_prompt(item)
    messages = [{"role": "system", "content": system}, {"role": "user", "content": user}]
    a = MockGeneratorBackend(seed=9).complete(messages).text
    b = MockGeneratorBackend(seed=9).complete(messages).text
    c = MockGeneratorBackend(seed=10).complete(messages).text
    assert a == b
    assert a != c


def test_mock_generator_answer_follows_retrieved_context():
    backend = MockGeneratorBackend(seed=0)
    prompt = (
        "[Doc 1] the tide tables describe coastal erosion patterns\n\n"
        "Question: which topic matches the evidence?\n"
        "Options:\n"
        "(A) coastal erosion tide patterns\n"
        "(B) orchestra rehearsal schedule\n\n"
        'Answer with the single letter of the best option, formatted exactly as "Answer: X".'
    )
    result = backend.complete([{"role": "user", "content": prompt}])
    assert result.text == "Answer: A"


def test_scripted_generator_replays_then_repeats_last():
    backend = ScriptedGeneratorBackend(["one", "two"], output_tokens=[5, None])
    assert backend.complete(MESSAGES).text == "one"
    assert backend.complete(MESSAGES).text == "two"
    assert backend.complete(MESSAGES).text == "two"
    assert backend.calls == 3


def test_failing_generator_raises():
    with pytest.raises(BackendUnavailableError):
        FailingGeneratorBackend().complete(MESSAGES)


def test_oracle_and_adversarial_generators():
    item = two_option_item()
    prompt = f"context\n\nQuestion: {item.stem}\nOptions:\n(A) x\n(B) y"
    oracle = OracleGeneratorBackend([item])
    assert oracle.complete([{"role": "user", "content": prompt}]).text == "Answer: A"
    adversarial = AdversarialGeneratorBackend([item])
    assert adversarial.complete([{"role": "user", "content": prompt}]).text == "Answer: B"
