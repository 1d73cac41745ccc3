"""Generator and embedder backends.

Two wire contracts are defined here:

* ``GeneratorBackend.complete(messages, temperature)``: chat-style text
  generation. The HTTP implementation POSTs
  ``{"model", "messages", "temperature"}`` and reads the generated text plus
  optional token usage from the response JSON; a ``usage.completion_tokens``
  that is not a nonnegative integer counts as absent.
* ``EmbedderBackend.embed(text)``: maps text to a fixed-dimension vector.
  The HTTP implementation POSTs ``{"model", "input"}`` and reads
  ``data[0].embedding``.

The HTTP backends speak HTTP/1.1 through the standard library's
``http.client``: each attempt is one JSON POST on a new connection that the
request asks the server to close. Proxy settings (``HTTP_PROXY``,
``HTTPS_PROXY``) are not read. Transient failures retry with linear backoff
and ``Retry-After``; a permanent status or a reply of the wrong shape fails
at once (see ``_post_with_retries``).

``complete_each`` and ``embed_each`` make the calls of one batch whose
inputs do not depend on each other. A backend class whose ``MAX_IN_FLIGHT``
is above 1 (the HTTP backends, 8) gets up to that many calls at once from
worker threads, and the HTTP backends fewer for a while after a 429 or 503;
every other backend is called one at a time.

Deterministic in-process mocks implement the same contracts so the whole
pipeline runs offline: a rule-driven generator keyed off prompt markers and
a seeded token-hash embedder under which texts that share words embed close
together.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import math
import re
import ssl
import threading
import time
from collections import deque
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, field
from typing import ClassVar, Protocol
from urllib.parse import urlsplit

import numpy as np

from .errors import (
    BackendUnavailableError, ContrastiveRetrievalError, EmbedderFailureError, ZeroVectorError,
)
from .vectors import normalize

Message = dict[str, str]


@dataclass(frozen=True)
class GenerationResult:
    """One generator response: text plus backend-reported token usage, if any."""

    text: str
    output_tokens: int | None = None


class GeneratorBackend(Protocol):
    def complete(self, messages: list[Message], temperature: float = 0.0) -> GenerationResult:
        ...


class EmbedderBackend(Protocol):
    # Identity of the vectors: the embedding cache reuses a vector only
    # under the identity that wrote it.
    model: str

    def embed(self, text: str) -> np.ndarray:
        ...


def estimate_output_tokens(text: str) -> int:
    """Fallback token count when the backend reports no usage: ceil(chars / 4)."""
    return math.ceil(len(text) / 4)


def output_tokens_of(result: GenerationResult) -> int:
    """The backend-reported output token count, else the estimate."""
    if result.output_tokens is not None:
        return result.output_tokens
    return estimate_output_tokens(result.text)


def chat_messages(system: str, user: str) -> list[Message]:
    """The system and user messages of one generator call."""
    return [{"role": "system", "content": system}, {"role": "user", "content": user}]


def complete_each(
    generator: GeneratorBackend, message_lists: Sequence[list[Message]], temperature: float = 0.0
) -> Iterator[GenerationResult]:
    """``generator.complete(messages, temperature)`` per message list, as ``embed_each``."""
    return _each(generator, "complete", [(messages, temperature) for messages in message_lists])


def embed_each(embedder: EmbedderBackend, texts: Sequence[str]) -> Iterator[np.ndarray]:
    """``embedder.embed(text)`` per text, yielded in input order.

    A backend whose ``MAX_IN_FLIGHT`` is above 1 is called from worker
    threads with at most that many calls outstanding, a new one starting as
    the oldest is yielded; any other backend is called one text at a time
    in the caller's thread. If calls raise, the first failing input in
    input order raises once the calls in flight have finished: the results
    before it were yielded, the later ones are dropped. Closing the iterator
    early, as Ctrl-C does, also waits for the calls in flight.
    """
    return _each(embedder, "embed", [(text,) for text in texts])


def _each(backend, method: str, calls: list[tuple]) -> Iterator:
    # The method is looked up per call, so a wrapper set on the backend's
    # class sees every call.
    width = getattr(backend, "MAX_IN_FLIGHT", 1)
    if width <= 1 or len(calls) <= 1:
        for args in calls:
            yield getattr(backend, method)(*args)
        return
    # Imported here: only a pooled batch pays for it.
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=min(width, len(calls))) as pool:
        window: deque = deque()
        for args in calls:
            if len(window) == width:
                yield window.popleft().result()
            window.append(pool.submit(getattr(backend, method), *args))
        while window:
            yield window.popleft().result()


class Settled:
    """``backend`` for a settled batch: a call returns (its result, or the
    ContrastiveRetrievalError that stopped it, its wall seconds by ``clock``,
    0.0 without one). It keeps the backend's ``MAX_IN_FLIGHT``, so
    ``complete_each`` and ``embed_each`` pool it as they would the backend."""

    def __init__(self, backend, clock: Callable[[], float] | None = None) -> None:
        self.MAX_IN_FLIGHT = getattr(backend, "MAX_IN_FLIGHT", 1)
        self._backend, self._clock = backend, clock

    def _call(self, method: str, *args) -> tuple:
        started = self._clock() if self._clock else 0.0
        try:
            outcome = getattr(self._backend, method)(*args)
        except ContrastiveRetrievalError as exc:
            outcome = exc
        return outcome, self._clock() - started if self._clock else 0.0

    def complete(self, messages: list[Message], temperature: float = 0.0) -> tuple:
        return self._call("complete", messages, temperature)

    def embed(self, text: str) -> tuple:
        return self._call("embed", text)


def complete_until_done(
    generator: GeneratorBackend,
    requests: Sequence,
    temperature: float = 0.0,
    clock: Callable[[], float] | None = None,
) -> None:
    """Send each request's ``messages`` until its ``take(outcome, seconds)``
    returns True; each round is one settled ``complete_each`` batch of the
    requests not yet done, so a failed call reaches only its own request."""
    pending = list(requests)
    while pending:
        batch = [r.messages for r in pending]
        outcomes = list(complete_each(Settled(generator, clock), batch, temperature))
        pending = [r for r, outcome in zip(pending, outcomes) if not r.take(*outcome)]


# ----------------------------------------------------------------------
# HTTP backends
# ----------------------------------------------------------------------

def _json_field(body, error: type[Exception], *path: str | int):
    """``body[path[0]][path[1]]...``, else ``error`` naming the missing field."""
    value = body
    for key in path:
        try:
            value = value[key]
        except (KeyError, IndexError, TypeError):
            name = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path)
            raise error(f"response lacks {name.lstrip('.')}") from None
    return value


def _retry_after_s(value: str | None) -> float:
    """Delta-seconds of a ``Retry-After`` header; 0 for an HTTP-date or garbage."""
    value = (value or "").strip()
    return float(value) if re.fullmatch(r"[0-9]+", value) else 0.0


def _connection(backend):
    """A new connection to ``backend.url``'s host and port."""
    if backend._tls is None:
        return http.client.HTTPConnection(*backend._host, timeout=backend.timeout)
    return http.client.HTTPSConnection(*backend._host, timeout=backend.timeout,
                                       context=backend._tls)


def _take_slot(backend, slept_to: float) -> int:
    """Wait for the latest 429's or 503's resume-at time, unless it is ``slept_to``,
    which the call slept through itself, and for a slot under the in-flight
    limit; take the slot and return how many cuts the limit has had."""
    with backend._lock:
        while True:
            wait = backend._resume_at - time.monotonic() if backend._resume_at != slept_to else 0
            if wait <= 0 and backend._in_flight < int(backend._limit):
                backend._in_flight += 1
                return backend._cuts
            backend._lock.wait(wait if wait > 0 else None)


def _give_slot(backend, status: int | None, resume_at: float, cuts: int) -> None:
    """Free the slot of an attempt started after ``cuts`` cuts. A 429 or 503
    moves the resume-at time to ``resume_at`` if later and halves the limit,
    to no less than 1; a 2xx to an attempt started since the latest cut
    raises it by 1/limit, so by one per round of successes, up to MAX_IN_FLIGHT."""
    with backend._lock:
        backend._in_flight -= 1
        if status in (429, 503):
            backend._resume_at = max(backend._resume_at, resume_at)
            backend._limit = max(1, int(backend._limit) // 2)
            backend._cuts += 1
        elif status is not None and 200 <= status < 300 and cuts == backend._cuts:
            backend._limit = min(backend.MAX_IN_FLIGHT, backend._limit + 1 / backend._limit)
        backend._lock.notify_all()


def _post_with_retries(backend, role: str, payload: dict, read, error: type[Exception]):
    """POST ``payload`` to ``backend.url`` and return ``read(response_json)``.

    Each attempt opens one new connection, sends the request with
    ``Connection: close``, reads the status and body, and closes it. Reusing
    a connection would stall each response on servers that write headers
    and body in separate small writes (Nagle against delayed ACK).

    Connect errors, timeouts, 408 (request timeout), 429 (rate limited), 5xx
    and bodies that are not JSON, or nest too deep to parse, are retried
    ``backend.transport_retries`` times, then raise ``error``. Before
    attempt ``n`` (from 1) it sleeps
    ``backend.backoff_s * n``; after a 429 or 503 whose ``Retry-After`` holds
    delta-seconds, it sleeps ``max(backend.backoff_s * n, Retry-After)``, the
    ``Retry-After`` cut to ``backend.timeout``. An HTTP-date or unreadable
    ``Retry-After`` keeps the linear backoff. The other threads calling the
    backend wait that long too (``_take_slot``). Any
    other status outside 2xx will not change on retry, so it raises
    ``error`` at once, naming the status. ``read`` raises ``error`` for a
    body of the wrong shape, which stops retrying too.
    """
    body = json.dumps(payload).encode("utf-8")
    headers = {"Content-Type": "application/json", "Connection": "close"}
    if backend.api_key:
        headers["Authorization"] = f"Bearer {backend.api_key}"
    last_error: object = None
    retry_after = 0.0
    slept_to = 0.0  # the resume-at time this call set itself and sleeps through
    for attempt in range(backend.transport_retries + 1):
        if attempt > 0:
            time.sleep(max(backend.backoff_s * attempt, retry_after))
        retry_after = 0.0
        conn = _connection(backend)
        cuts = _take_slot(backend, slept_to)
        status = None
        try:
            conn.request("POST", backend._target, body=body, headers=headers)
            resp = conn.getresponse()
            status, raw = resp.status, resp.read()
            if status in (429, 503):
                retry_after = min(_retry_after_s(resp.getheader("Retry-After")), backend.timeout)
                slept_to = time.monotonic() + max(backend.backoff_s * (attempt + 1), retry_after)
        except (OSError, http.client.HTTPException) as exc:
            last_error = exc
            continue
        finally:
            conn.close()
            _give_slot(backend, status, slept_to, cuts)
        if status in (408, 429) or status >= 500:
            last_error = f"HTTP {status}"
            continue
        if not 200 <= status < 300:
            raise error(f"{role} at {backend.url} rejected the request: HTTP {status}")
        try:
            parsed = json.loads(raw)
        except (ValueError, RecursionError) as exc:  # truncated, not UTF-8 or JSON, too deep
            last_error = exc
            continue
        return read(parsed)
    raise error(f"{role} at {backend.url} unreachable: {last_error}")


@dataclass(eq=False)
class _HttpSettings:
    """Endpoint, identity, auth and retry settings shared by the HTTP backends.

    A backend may be called from several threads at once (see
    ``embed_each``); its own state changes under ``_lock``. That state paces
    the threads' attempts after a 429 or 503 (``_take_slot``, ``_give_slot``),
    as TCP congestion avoidance paces segments (RFC 5681 §3.1).

    The URL is checked once, at construction: a scheme other than http or
    https, no host or a bad port raises ValueError naming it.
    """

    MAX_IN_FLIGHT: ClassVar[int] = 8

    url: str
    model: str
    api_key: str | None = field(default=None, repr=False)
    timeout: float = 60.0
    transport_retries: int = 2
    backoff_s: float = 0.5
    # The URL's (host, port) and request target, and for https its one TLS
    # context, all made at construction.
    _host: tuple[str, int | None] = field(default=("", None), init=False, repr=False)
    _target: str = field(default="/", init=False, repr=False)
    _tls: ssl.SSLContext | None = field(default=None, init=False, repr=False)
    _lock: threading.Condition = field(default_factory=threading.Condition, init=False, repr=False)
    _limit: float = field(default=MAX_IN_FLIGHT, init=False, repr=False)
    _in_flight: int = field(default=0, init=False, repr=False)
    _resume_at: float = field(default=0.0, init=False, repr=False)
    _cuts: int = field(default=0, init=False, repr=False)

    def __post_init__(self) -> None:
        parts = urlsplit(self.url)
        if parts.scheme not in ("http", "https"):
            raise ValueError(f"{self.url}: URL scheme {parts.scheme!r} is not http or https")
        if not parts.hostname:
            raise ValueError(f"{self.url}: URL has no host")
        try:
            self._host = (parts.hostname, parts.port)
        except ValueError as exc:  # a port that is not a number in 0-65535
            raise ValueError(f"{self.url}: {exc}") from None
        self._target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
        if parts.scheme == "https":
            self._tls = ssl.create_default_context()


@dataclass(eq=False)
class HttpGeneratorBackend(_HttpSettings):
    """Chat-completion client for an OpenAI-compatible endpoint.

    Transient failures, a body that is not JSON included, are retried
    ``transport_retries`` times before raising BackendUnavailableError; a
    status outside 2xx other than 408/429/5xx, or a reply without
    ``choices[0].message.content``, raises it at once.
    """

    seed: int | None = None
    calls: int = field(default=0, init=False)

    def complete(self, messages: list[Message], temperature: float = 0.0) -> GenerationResult:
        payload: dict = {"model": self.model, "messages": messages, "temperature": temperature}
        if self.seed is not None:
            payload["seed"] = self.seed

        def read(body) -> GenerationResult:
            text = _json_field(body, BackendUnavailableError, "choices", 0, "message", "content")
            if not isinstance(text, str):
                raise BackendUnavailableError("response choices[0].message.content is not a string")
            usage = body.get("usage")
            tokens = usage.get("completion_tokens") if isinstance(usage, dict) else None
            if type(tokens) is not int or tokens < 0:
                tokens = None  # not a count (a bool is an int): the estimate applies
            return GenerationResult(text=text, output_tokens=tokens)

        result = _post_with_retries(self, "generator", payload, read, BackendUnavailableError)
        with self._lock:
            self.calls += 1
        return result


@dataclass(eq=False)
class HttpEmbedderBackend(_HttpSettings):
    """Embedding client for an OpenAI-compatible ``/embeddings`` endpoint.

    Retries as ``HttpGeneratorBackend`` does, raising EmbedderFailureError;
    a reply without a usable ``data[0].embedding`` raises it at once.
    """

    dimension: int = field(default=-1, init=False)  # learned from the first response

    def embed(self, text: str) -> np.ndarray:
        def read(body) -> np.ndarray:
            values = _json_field(body, EmbedderFailureError, "data", 0, "embedding")
            # bool is an int, and NumPy turns a string of digits into a number.
            if not isinstance(values, list) or not set(map(type, values)) <= {int, float}:
                raise EmbedderFailureError("response data[0].embedding is not an array of numbers")
            try:
                vec = normalize(values)
            except (ZeroVectorError, OverflowError) as exc:  # an int past float range
                raise EmbedderFailureError(
                    f"response data[0].embedding is unusable: {exc}"
                ) from None
            with self._lock:
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
        # The vectors depend on the seed and the dimension, so both name them.
        self.model = f"mock-embedder-seed{seed}-dim{dimension}"
        self._token_cache: dict[str, np.ndarray] = {}

    def embed(self, text: str) -> np.ndarray:
        tokens = re.findall(r"[a-z0-9]+", text.lower()) or ["<empty>"]
        cache = self._token_cache
        # Each token's vector is seeded by its token, so the order the missing
        # ones are made in does not matter.
        for token in set(tokens).difference(cache):
            rng = np.random.default_rng(_stable_hash("tok", self.seed, token))
            cache[token] = rng.standard_normal(self.dimension)
        # An axis-0 reduction adds the rows one by one in token order, so the
        # sum is bit-identical to a += loop over them.
        total = np.add.reduce(list(map(cache.__getitem__, tokens)))
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
        # Each option text's vector: the answers of one item share its options.
        self._option_vectors: dict[str, np.ndarray] = {}

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
            '{"H_plus": ' + json.dumps(h_plus) + ', "H_minus": ' + json.dumps(h_minus) + "}"
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
            vector = self._option_vectors.get(text)
            if vector is None:
                vector = self._option_vectors[text] = self.embedder.embed(text)
            score = float(np.dot(vector, ctx_vec))
            if score > best_score:
                best_letter, best_score = letter, score
        return f"Answer: {best_letter}"
