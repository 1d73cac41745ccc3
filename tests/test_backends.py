from __future__ import annotations

import numpy as np
import pytest
import requests

from contrastive_retrieval.backends import (
    HttpEmbedderBackend,
    HttpGeneratorBackend,
    MockEmbedderBackend,
    MockGeneratorBackend,
    estimate_output_tokens,
)
from contrastive_retrieval.errors import BackendUnavailableError, EmbedderFailureError
from contrastive_retrieval.hypotheses import parse_pair, render_prompt
from helpers import (
    AdversarialGeneratorBackend,
    FailingGeneratorBackend,
    OracleGeneratorBackend,
    ScriptedGeneratorBackend,
    two_option_item,
)


class DummyResponse:
    def __init__(self, payload: dict, status_code: int = 200):
        self._payload = payload
        self.status_code = status_code

    def raise_for_status(self) -> None:
        if self.status_code >= 400:
            raise requests.HTTPError(f"status {self.status_code}")

    def json(self) -> dict:
        return self._payload


MESSAGES = [{"role": "user", "content": "hello"}]


def test_estimate_output_tokens_is_ceil_of_quarter_chars():
    assert estimate_output_tokens("") == 0
    assert estimate_output_tokens("abcd") == 1
    assert estimate_output_tokens("abcde") == 2
    assert estimate_output_tokens("x" * 16) == 4


def test_http_generator_success(monkeypatch):
    captured = {}

    def fake_post(url, json=None, headers=None, timeout=0):
        captured.update(url=url, payload=json, headers=headers)
        return DummyResponse(
            {
                "choices": [{"message": {"content": "generated text"}}],
                "usage": {"completion_tokens": 42},
            }
        )

    monkeypatch.setattr(requests, "post", fake_post)
    backend = HttpGeneratorBackend(
        "http://host/v1/chat", "test-model", api_key="secret", seed=3, backoff_s=0.0
    )
    result = backend.complete(MESSAGES, temperature=0.5)
    assert result.text == "generated text"
    assert result.output_tokens == 42
    assert backend.calls == 1
    assert captured["url"] == "http://host/v1/chat"
    assert captured["payload"]["model"] == "test-model"
    assert captured["payload"]["temperature"] == 0.5
    assert captured["payload"]["seed"] == 3
    assert captured["headers"]["Authorization"] == "Bearer secret"


def test_http_generator_retries_then_raises(monkeypatch):
    attempts = []

    def fake_post(url, json=None, headers=None, timeout=0):
        attempts.append(url)
        raise requests.ConnectionError("down")

    monkeypatch.setattr(requests, "post", fake_post)
    backend = HttpGeneratorBackend("http://host", "m", transport_retries=2, backoff_s=0.0)
    with pytest.raises(BackendUnavailableError):
        backend.complete(MESSAGES)
    assert len(attempts) == 3


def test_http_generator_bad_body_counts_as_failure(monkeypatch):
    monkeypatch.setattr(
        requests, "post", lambda *a, **k: DummyResponse({"unexpected": True})
    )
    backend = HttpGeneratorBackend("http://host", "m", transport_retries=0, backoff_s=0.0)
    with pytest.raises(BackendUnavailableError):
        backend.complete(MESSAGES)


def test_http_embedder_success_and_dimension_tracking(monkeypatch):
    monkeypatch.setattr(
        requests,
        "post",
        lambda *a, **k: DummyResponse({"data": [{"embedding": [3.0, 4.0]}]}),
    )
    backend = HttpEmbedderBackend("http://host/emb", "emb-model", backoff_s=0.0)
    vec = backend.embed("text")
    assert np.allclose(vec, [0.6, 0.8])
    assert backend.dimension == 2

    monkeypatch.setattr(
        requests,
        "post",
        lambda *a, **k: DummyResponse({"data": [{"embedding": [1.0, 0.0, 0.0]}]}),
    )
    with pytest.raises(EmbedderFailureError):
        backend.embed("other")


def test_http_embedder_unreachable(monkeypatch):
    def fake_post(*a, **k):
        raise requests.ConnectionError("down")

    monkeypatch.setattr(requests, "post", fake_post)
    backend = HttpEmbedderBackend("http://host", "m", transport_retries=1, backoff_s=0.0)
    with pytest.raises(EmbedderFailureError):
        backend.embed("text")


GENERATOR_BODY = {"choices": [{"message": {"content": "text"}}]}
EMBEDDER_BODY = {"data": [{"embedding": [3.0, 4.0]}]}


# Each HTTP backend with the call that drives it, a good body and its error.
HTTP_BACKENDS = (
    pytest.param(HttpGeneratorBackend, lambda b: b.complete(MESSAGES), GENERATOR_BODY,
                 BackendUnavailableError, id="generator"),
    pytest.param(HttpEmbedderBackend, lambda b: b.embed("text"), EMBEDDER_BODY,
                 EmbedderFailureError, id="embedder"),
)


def fake_status_endpoint(monkeypatch, status: int, body: dict):
    attempts, sleeps = [], []

    def fake_post(*a, **k):
        attempts.append(status)
        return DummyResponse(body, status_code=status)

    monkeypatch.setattr(requests, "post", fake_post)
    monkeypatch.setattr("contrastive_retrieval.backends.time.sleep", sleeps.append)
    return attempts, sleeps


@pytest.mark.parametrize("status", [400, 401, 403, 404, 422])
@pytest.mark.parametrize("cls, call, body, error", HTTP_BACKENDS)
def test_http_backend_permanent_client_error_fails_fast(monkeypatch, status, cls, call, body,
                                                        error):
    attempts, sleeps = fake_status_endpoint(monkeypatch, status, body)
    backend = cls("http://host", "m", transport_retries=2, backoff_s=5.0)
    with pytest.raises(error, match=f"HTTP {status}"):
        call(backend)
    assert attempts == [status]
    assert sleeps == []


@pytest.mark.parametrize("status", [408, 429, 500, 503])
@pytest.mark.parametrize("cls, call, body, error", HTTP_BACKENDS)
def test_http_backend_transient_status_retries(monkeypatch, status, cls, call, body, error):
    attempts, sleeps = fake_status_endpoint(monkeypatch, status, body)
    backend = cls("http://host", "m", transport_retries=2, backoff_s=5.0)
    with pytest.raises(error, match="unreachable"):
        call(backend)
    assert len(attempts) == backend.transport_retries + 1
    assert sleeps == [5.0, 10.0]


@pytest.mark.parametrize("cls, call, body, error", HTTP_BACKENDS)
def test_http_backend_retries_until_success(monkeypatch, cls, call, body, error):
    statuses = [503, 429]

    def fake_post(*a, **k):
        return DummyResponse(body, status_code=statuses.pop(0) if statuses else 200)

    monkeypatch.setattr(requests, "post", fake_post)
    backend = cls("http://host", "m", transport_retries=2, backoff_s=0.0)
    call(backend)
    assert statuses == []


def test_mock_embedder_deterministic_unit_and_shared_vocab():
    emb = MockEmbedderBackend(dimension=32, seed=5)
    again = MockEmbedderBackend(dimension=32, seed=5)
    v = emb.embed("alpha beta gamma")
    assert np.array_equal(v, again.embed("alpha beta gamma"))
    assert float(np.linalg.norm(v)) == pytest.approx(1.0, abs=1e-12)

    overlap = float(np.dot(emb.embed("alpha beta"), emb.embed("alpha beta delta")))
    disjoint = float(np.dot(emb.embed("alpha beta"), emb.embed("epsilon zeta")))
    assert overlap > disjoint


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
