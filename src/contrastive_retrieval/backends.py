"""Generator and embedder backends.

Two wire contracts are defined here:

* ``GeneratorBackend.complete(messages, temperature)``: chat-style text
  generation. The HTTP implementation POSTs
  ``{"model", "messages", "temperature"}`` and reads the generated text plus
  optional token usage from the response JSON.
* ``EmbedderBackend.embed(text)``: maps text to a fixed-dimension vector.

Deterministic in-process mocks implement the same contracts so the whole
pipeline runs offline: a rule-driven generator keyed off prompt markers, a
scripted generator for parser tests, oracle/adversarial answer generators
for harness tests, and a seeded token-hash embedder under which texts that
share words embed close together.
"""

from __future__ import annotations

import hashlib
import math
import re
import time
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from .errors import BackendUnavailableError, EmbedderFailureError
from .vectors import normalize

Message = dict[str, str]


@dataclass(frozen=True)
class GenerationResult:
    """One generator response: text plus backend-reported token usage, if any."""

    text: str
    output_tokens: int | None = None


class GeneratorBackend(Protocol):
    calls: int

    def complete(self, messages: list[Message], temperature: float = 0.0) -> GenerationResult:
        ...


class EmbedderBackend(Protocol):
    dimension: int

    def embed(self, text: str) -> np.ndarray:
        ...


def estimate_output_tokens(text: str) -> int:
    """Fallback token count when the backend reports no usage: ceil(chars / 4)."""
    return math.ceil(len(text) / 4)


# ----------------------------------------------------------------------
# HTTP backends
# ----------------------------------------------------------------------

def _post_with_retries(backend, role: str, payload: dict, read, error: type[Exception]):
    """POST ``payload`` to ``backend.url`` and return ``read(response_json)``.

    Connect errors, timeouts, 408 (request timeout), 429 (rate limited), 5xx
    and unreadable bodies are retried ``backend.transport_retries`` times with
    linear backoff, then raise ``error``. Any other 4xx will not change on
    retry, so it raises ``error`` at once, naming the status. ``read`` may
    raise ``error`` to stop retrying.
    """
    import requests

    headers = {"Content-Type": "application/json"}
    if backend.api_key:
        headers["Authorization"] = f"Bearer {backend.api_key}"
    last_error: Exception | None = None
    for attempt in range(backend.transport_retries + 1):
        if attempt > 0:
            time.sleep(backend.backoff_s * attempt)
        try:
            resp = requests.post(backend.url, json=payload, headers=headers, timeout=backend.timeout)
            status = resp.status_code
            if 400 <= status < 500 and status not in (408, 429):
                raise error(f"{role} at {backend.url} rejected the request: HTTP {status}")
            resp.raise_for_status()
            return read(resp.json())
        except error:
            raise
        except Exception as exc:  # noqa: BLE001 - transport/shape errors retry
            last_error = exc
    raise error(f"{role} at {backend.url} unreachable: {last_error}")


class HttpGeneratorBackend:
    """Chat-completion client for an OpenAI-compatible endpoint.

    Transient failures, an unparseable body included, are retried
    ``transport_retries`` times before raising BackendUnavailableError; a
    4xx other than 408/429 raises it at once.
    """

    def __init__(
        self,
        url: str,
        model: str,
        api_key: str | None = None,
        timeout: float = 60.0,
        transport_retries: int = 2,
        backoff_s: float = 0.5,
        seed: int | None = None,
    ):
        self.url = url
        self.model = model
        self.api_key = api_key
        self.timeout = timeout
        self.transport_retries = transport_retries
        self.backoff_s = backoff_s
        self.seed = seed
        self.calls = 0

    def complete(self, messages: list[Message], temperature: float = 0.0) -> GenerationResult:
        payload: dict = {"model": self.model, "messages": messages, "temperature": temperature}
        if self.seed is not None:
            payload["seed"] = self.seed

        def read(body: dict) -> GenerationResult:
            text = body["choices"][0]["message"]["content"]
            usage = body.get("usage") or {}
            return GenerationResult(text=text, output_tokens=usage.get("completion_tokens"))

        result = _post_with_retries(self, "generator", payload, read, BackendUnavailableError)
        self.calls += 1
        return result


class HttpEmbedderBackend:
    """Embedding client for an OpenAI-compatible ``/embeddings`` endpoint."""

    def __init__(
        self,
        url: str,
        model: str,
        api_key: str | None = None,
        timeout: float = 60.0,
        transport_retries: int = 2,
        backoff_s: float = 0.5,
    ):
        self.url = url
        self.model = model
        self.api_key = api_key
        self.timeout = timeout
        self.transport_retries = transport_retries
        self.backoff_s = backoff_s
        self.dimension = -1  # learned from the first response

    def embed(self, text: str) -> np.ndarray:
        def read(body: dict) -> np.ndarray:
            vec = normalize(body["data"][0]["embedding"])
            if self.dimension == -1:
                self.dimension = vec.shape[0]
            elif vec.shape[0] != self.dimension:
                raise EmbedderFailureError(
                    f"embedder returned dimension {vec.shape[0]}, expected {self.dimension}"
                )
            return vec

        payload = {"model": self.model, "input": text}
        return _post_with_retries(self, "embedder", payload, read, EmbedderFailureError)


# ----------------------------------------------------------------------
# Deterministic mocks
# ----------------------------------------------------------------------

def _stable_hash(*parts: str | int) -> int:
    h = hashlib.blake2b(digest_size=8)
    for part in parts:
        h.update(str(part).encode("utf-8"))
        h.update(b"\x00")
    return int.from_bytes(h.digest(), "little")


class MockEmbedderBackend:
    """Seeded hash-to-vector embedder.

    Each word token maps to a fixed random unit vector (seeded by the token
    and the backend seed); a text embeds to the normalized sum of its token
    vectors. Texts sharing vocabulary therefore get high cosine similarity,
    and identical texts embed identically, which is enough structure for
    offline retrieval tests.
    """

    def __init__(self, dimension: int = 64, seed: int = 0):
        if dimension < 2:
            raise ValueError("mock embedder dimension must be >= 2")
        self.dimension = dimension
        self.seed = seed
        self._token_cache: dict[str, np.ndarray] = {}

    def _token_vector(self, token: str) -> np.ndarray:
        vec = self._token_cache.get(token)
        if vec is None:
            rng = np.random.default_rng(_stable_hash("tok", self.seed, token))
            vec = rng.standard_normal(self.dimension)
            self._token_cache[token] = vec
        return vec

    def embed(self, text: str) -> np.ndarray:
        tokens = re.findall(r"[a-z0-9]+", text.lower())
        if not tokens:
            tokens = ["<empty>"]
        total = np.zeros(self.dimension)
        for token in tokens:
            total += self._token_vector(token)
        if float(np.dot(total, total)) < 1e-20:
            raise EmbedderFailureError("token vectors cancelled to zero")
        return normalize(total)


# Prompt markers the rule-driven mock keys off. They match the fixed
# instruction strings in hypotheses.py and pipeline.py.
PAIR_MARKER = "two conflicting hypotheses"
HYPO_DOC_MARKER = "one hypothetical evidence passage"
PSEUDO_DOC_MARKER = "pseudo-document"
ANSWER_MARKER = "Answer with the single letter"

_OPTION_RE = re.compile(r"^\(([A-Z])\)\s*(.*)$", re.MULTILINE)
_QUESTION_RE = re.compile(r"^Question:\s*(.*)$", re.MULTILINE)
_DOC_RE = re.compile(r"^\[Doc \d+\]\s*(.*)$", re.MULTILINE)


def _last_user_content(messages: list[Message]) -> str:
    for msg in reversed(messages):
        if msg.get("role") == "user":
            return msg.get("content", "")
    return messages[-1].get("content", "") if messages else ""


class MockGeneratorBackend:
    """Rule-driven deterministic generator for offline runs.

    Output is a pure function of (seed, messages). The rules:

    * hypothesis-pair prompts get a JSON object whose target/mimic texts
      are built from the question and a seed-hashed pick of two options;
    * hypothetical-passage and pseudo-document prompts get a passage about
      a seed-hashed option pick;
    * answer prompts get ``Answer: X`` where X is the option whose text is
      closest (under the mock embedder) to the retrieved document context;
    * anything else gets a fixed filler sentence.
    """

    def __init__(self, seed: int = 0, embedder: MockEmbedderBackend | None = None):
        self.seed = seed
        self.embedder = embedder or MockEmbedderBackend(seed=seed)
        self.calls = 0

    def complete(self, messages: list[Message], temperature: float = 0.0) -> GenerationResult:
        self.calls += 1
        prompt = _last_user_content(messages)
        if ANSWER_MARKER in prompt:
            return GenerationResult(text=self._answer(prompt))
        if PAIR_MARKER in prompt:
            return GenerationResult(text=self._pair_json(prompt))
        if HYPO_DOC_MARKER in prompt:
            return GenerationResult(text=self._passage(prompt, salt="hyde"))
        if PSEUDO_DOC_MARKER in prompt:
            return GenerationResult(text=self._passage(prompt, salt="q2d"))
        return GenerationResult(text="No specific guidance available for this request.")

    # -- rules ---------------------------------------------------------

    def _question_and_options(self, prompt: str) -> tuple[str, list[tuple[str, str]]]:
        q_match = _QUESTION_RE.search(prompt)
        question = q_match.group(1).strip() if q_match else prompt[:120]
        options = [(m.group(1), m.group(2).strip()) for m in _OPTION_RE.finditer(prompt)]
        return question, options

    def _pair_json(self, prompt: str) -> str:
        question, options = self._question_and_options(prompt)
        if not options:
            options = [("A", "the leading explanation"), ("B", "a close alternative")]
        pick = _stable_hash("pair", self.seed, question) % len(options)
        mimic = (pick + 1) % len(options)
        target_text = options[pick][1]
        mimic_text = options[mimic][1]
        h_plus = (
            f"{question} The distinguishing findings support {target_text}; "
            f"its mechanism and typical course match the scenario."
        )
        h_minus = (
            f"A close mimic is {mimic_text}, which overlaps superficially with the "
            f"presentation but is ruled out by subtle features of {mimic_text}."
        )
        return (
            '{"H_plus": ' + _json_string(h_plus) + ', "H_minus": ' + _json_string(h_minus) + "}"
        )

    def _passage(self, prompt: str, salt: str) -> str:
        question, options = self._question_and_options(prompt)
        # Hash the whole prompt, not just the question, so numbered draft
        # prompts yield different passages (mimicking sampling variety).
        if options:
            pick = _stable_hash(salt, self.seed, prompt) % len(options)
            focus = options[pick][1]
        else:
            focus = "the leading explanation"
        return (
            f"{question} Reference material typically discusses {focus}, covering its "
            f"presentation, mechanism and management in comparable scenarios."
        )

    def _answer(self, prompt: str) -> str:
        _, options = self._question_and_options(prompt)
        if not options:
            return "Answer: A"
        context = " ".join(_DOC_RE.findall(prompt))
        if not context.strip():
            pick = _stable_hash("ans", self.seed, prompt) % len(options)
            return f"Answer: {options[pick][0]}"
        ctx_vec = self.embedder.embed(context)
        best_letter, best_score = options[0][0], -2.0
        for letter, text in options:
            score = float(np.dot(self.embedder.embed(text), ctx_vec))
            if score > best_score:
                best_letter, best_score = letter, score
        return f"Answer: {best_letter}"


def _json_string(s: str) -> str:
    import json

    return json.dumps(s)


class ScriptedGeneratorBackend:
    """Replays a fixed list of outputs in order; repeats the last one after."""

    def __init__(self, outputs: list[str], output_tokens: list[int | None] | None = None):
        if not outputs:
            raise ValueError("scripted backend needs at least one output")
        self.outputs = list(outputs)
        self.output_tokens = list(output_tokens) if output_tokens else None
        self.calls = 0

    def complete(self, messages: list[Message], temperature: float = 0.0) -> GenerationResult:
        idx = min(self.calls, len(self.outputs) - 1)
        self.calls += 1
        tokens = None
        if self.output_tokens is not None:
            tokens = self.output_tokens[min(idx, len(self.output_tokens) - 1)]
        return GenerationResult(text=self.outputs[idx], output_tokens=tokens)


class FailingGeneratorBackend:
    """Always raises BackendUnavailableError; stands in for a dead endpoint."""

    def __init__(self) -> None:
        self.calls = 0

    def complete(self, messages: list[Message], temperature: float = 0.0) -> GenerationResult:
        raise BackendUnavailableError("configured to fail")


class OracleGeneratorBackend:
    """Answers with the gold letter of whichever item's stem appears in the prompt."""

    def __init__(self, items) -> None:
        self._answers: list[tuple[str, str]] = [
            (item.stem, item.answer_key) for item in items if item.answer_key
        ]
        self.calls = 0

    def complete(self, messages: list[Message], temperature: float = 0.0) -> GenerationResult:
        self.calls += 1
        prompt = _last_user_content(messages)
        for stem, key in self._answers:
            if stem and stem in prompt:
                return GenerationResult(text=f"Answer: {key}")
        return GenerationResult(text="Answer: A")


class AdversarialGeneratorBackend:
    """Answers with a fixed wrong letter (the first option that is not gold)."""

    def __init__(self, items) -> None:
        self._answers: list[tuple[str, str]] = []
        for item in items:
            wrong = next((c for c in item.options if c != item.answer_key), "A")
            self._answers.append((item.stem, wrong))
        self.calls = 0

    def complete(self, messages: list[Message], temperature: float = 0.0) -> GenerationResult:
        self.calls += 1
        prompt = _last_user_content(messages)
        for stem, wrong in self._answers:
            if stem and stem in prompt:
                return GenerationResult(text=f"Answer: {wrong}")
        return GenerationResult(text="Answer: A")
