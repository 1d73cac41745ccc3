"""Shared builders, reference oracles and generator doubles for the test suite.

The oracles score one document at a time with their own cosine, apart from
the package's corpus products, so the tests that compare the two keep an
independent reference. ``full_sort_top_k`` sorts every score in pure Python,
and ``shifted_query_hits`` ranks by the shifted-query dot product.
"""

from __future__ import annotations

import math
import struct
import sys
from collections.abc import Callable, Sequence

import numpy as np

from contrastive_retrieval.backends import (
    GenerationResult,
    Message,
    _last_user_content,
    chat_messages,
)
from contrastive_retrieval.costs import CostEntry
from contrastive_retrieval.dataio import CACHE_MAGIC, CACHE_VERSION, load_cache
from contrastive_retrieval.errors import (
    BackendUnavailableError,
    DimensionMismatchError,
    EmptyCorpusError,
    MissingEmbeddingError,
    ZeroVectorError,
)
from contrastive_retrieval.hypotheses import HypothesisPair, QAItem
from contrastive_retrieval.pipeline import (
    ANSWER_SYSTEM_PROMPT,
    EvalRecord,
    build_answer_prompt,
    extract_answer,
)
from contrastive_retrieval.retrieval import (
    Corpus,
    RankedResult,
    shifted_query,
    top_k_from_scores,
)
from contrastive_retrieval.vectors import ZERO_NORM_EPS, as_vector, normalize


# Verdict lines from the acceptance tests; a terminal-summary hook prints
# them at the end of the run, where pytest's capture cannot swallow them.
ACCEPTANCE_VERDICTS: list[str] = []


def emit_verdict(label: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    line = f"[{label}] {status}{suffix}"
    ACCEPTANCE_VERDICTS.append(line)
    print(line, file=sys.__stdout__, flush=True)


def unit(rng: np.random.Generator, dim: int) -> np.ndarray:
    return normalize(rng.standard_normal(dim))


def reference_normalize_rows(rows, passes: int) -> np.ndarray:
    """Normalize each row with the per-vector ``normalize``, ``passes`` times.

    The bulk paths must match this loop bit for bit. Ingest normalizes an
    inline or embedded vector once as it is read, and every row once more
    when the corpus is built: two passes for those rows of ``load_corpus``,
    one for a cached row (checked, not divided, as it is loaded) and one for
    a corpus built from raw rows.
    """
    out = []
    for row in rows:
        vec = np.asarray(row, dtype=np.float64)
        for _ in range(passes):
            vec = normalize(vec)
        out.append(vec)
    return np.array(out)


def cache_file_bytes(records, model: str = "") -> bytes:
    """A version 2 cache holding ``(id, digest, values)`` records as given.

    The values are stored as float32 without normalizing them, so a test
    can plant a record no writer of the package would produce.
    """
    dimension = len(records[0][2]) if records else 0
    identity = model.encode("utf-8")
    head = CACHE_MAGIC + struct.pack("<IIQI", CACHE_VERSION, dimension, len(records), len(identity))
    head += identity
    lengths = names = digests = vectors = b""
    for doc_id, digest, values in records:
        encoded = doc_id.encode("utf-8")
        lengths += struct.pack("<I", len(encoded))
        names += encoded
        digests += digest
        vectors += np.asarray(values, dtype="<f4").tobytes()
    tables = head + lengths + names + digests
    return tables + bytes(-len(tables) % 4) + vectors


def cache_block(path) -> np.ndarray:
    """A cache file's float32 vector block, one row per record.

    ``load_cache`` reads only the tables and leaves the file at the block,
    which ingest streams; this reads the rest of the file in one piece.
    """
    with open(path, "rb") as fh:
        cache = load_cache(fh)
        return np.fromfile(fh, "<f4").reshape(len(cache.ids), cache.dimension)


def reference_cache_bytes(entries, digests=None, model: str = "") -> bytes:
    """The version 2 embedding cache, written one record at a time."""
    digests = digests or {}
    records = [
        (doc_id, digests.get(doc_id, bytes(32)), normalize(vec)) for doc_id, vec in entries.items()
    ]
    return cache_file_bytes(records, model)


def scaled_rows(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    """Random rows with norms spread over four orders of magnitude."""
    return rng.standard_normal((n, dim)) * rng.uniform(0.01, 100.0, (n, 1))


def random_corpus(rng: np.random.Generator, n: int, dim: int, prefix: str = "doc") -> Corpus:
    return Corpus(
        [f"{prefix}{i:04d}" for i in range(n)],
        [f"passage {i}" for i in range(n)],
        [unit(rng, dim) for _ in range(n)],
    )


def injected_pair(rng: np.random.Generator, dim: int) -> HypothesisPair:
    return HypothesisPair(
        h_plus="target-direction hypothesis",
        h_minus="mimic-direction hypothesis",
        h_plus_emb=unit(rng, dim),
        h_minus_emb=unit(rng, dim),
        provenance="injected",
    )


def two_option_item(item_id: str = "item1", stem: str = "What explains the finding?") -> QAItem:
    return QAItem(
        id=item_id,
        stem=stem,
        options={"A": "first explanation", "B": "second explanation"},
        answer_key="A",
    )


def make_record(
    item_id: str,
    correct: bool,
    method: str = "chr",
    doc_ids: tuple[str, ...] = ("d1",),
    dataset: str = "default",
    llm_calls: int = 1,
    output_tokens: int = 0,
    predicted: str | None = None,
) -> EvalRecord:
    hits = tuple((doc_id, 1.0 - i * 0.01) for i, doc_id in enumerate(doc_ids))
    if predicted is None:
        predicted = "A" if correct else "B"
    return EvalRecord(
        item_id=item_id,
        method=method,
        ranked=RankedResult(hits=hits, method=method),
        predicted=predicted,
        correct=correct,
        cost=CostEntry(llm_calls=llm_calls, output_tokens=output_tokens),
        answer_cost=CostEntry(llm_calls=1, output_tokens=4),
        dataset=dataset,
    )


# ----------------------------------------------------------------------
# Reference scoring oracles
# ----------------------------------------------------------------------

def _cos(a: np.ndarray, b: np.ndarray) -> float:
    # Lean cosine for pre-validated vectors; hot path of per-document scoring.
    na = math.sqrt(float(np.dot(a, a)))
    nb = math.sqrt(float(np.dot(b, b)))
    if na < ZERO_NORM_EPS or nb < ZERO_NORM_EPS:
        raise ZeroVectorError("cosine similarity of a zero vector is undefined")
    return float(np.dot(a, b)) / (na * nb)


def contrastive_score(emb: np.ndarray, pair: HypothesisPair, lam: float) -> float:
    """Score one document: cos(d, H_plus) - lam * cos(d, H_minus).

    A pair without a mimic embedding (fallback pairs) scores as cos(d, H_plus)
    alone, so degraded generations still retrieve.
    """
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    if pair.h_plus_emb is None:
        raise MissingEmbeddingError("pair has no h_plus embedding; call embed_pair first")
    if emb.shape != pair.h_plus_emb.shape:
        raise DimensionMismatchError(
            f"dimensions differ: {emb.shape[0]} vs {pair.h_plus_emb.shape[0]}"
        )
    score = _cos(emb, pair.h_plus_emb)
    if pair.h_minus_emb is not None:
        score -= lam * _cos(emb, pair.h_minus_emb)
    return score


def cosine_sim(a: Sequence[float] | np.ndarray, b: Sequence[float] | np.ndarray) -> float:
    """Cosine similarity in [-1, 1], clamped against rounding drift."""
    a = as_vector(a)
    b = as_vector(b)
    if a.shape[0] != b.shape[0]:
        raise DimensionMismatchError(f"dimensions differ: {a.shape[0]} vs {b.shape[0]}")
    na = math.sqrt(float(np.dot(a, a)))
    nb = math.sqrt(float(np.dot(b, b)))
    if na < ZERO_NORM_EPS or nb < ZERO_NORM_EPS:
        raise ZeroVectorError("cosine similarity of a zero vector is undefined")
    sim = float(np.dot(a, b)) / (na * nb)
    return max(-1.0, min(1.0, sim))


def retrieve_top_k(
    score_fn: Callable[[np.ndarray], float], corpus: Corpus, k: int
) -> tuple[tuple[str, float], ...]:
    """Exhaustively score every corpus row and keep the top k (id, score) hits.

    Short corpora return all documents ranked. Selection is the package's
    ``top_k_from_scores``, so a custom score function exercises it directly.
    """
    if len(corpus) == 0:
        raise EmptyCorpusError("cannot retrieve from an empty corpus")
    scores = np.fromiter(
        (score_fn(row) for row in corpus.matrix), dtype=np.float64, count=len(corpus)
    )
    return top_k_from_scores(corpus.ids, scores, k)


def full_sort_top_k(ids, scores, k):
    """Independent oracle: sort every (id, score) pair in pure Python."""
    return sorted(zip(ids, map(float, scores)), key=lambda p: (-p[1], p[0]))[:k]


def shifted_query_hits(
    pair: HypothesisPair, corpus: Corpus, lam: float, k: int
) -> list[tuple[str, float]]:
    """Top k by the shifted-query form: a full sort of ``matrix @ shifted_query``.

    This is how contrastive scores were computed before the package scored
    ``a - lam * b`` from memoized corpus products; the two agree up to
    float64 rounding.
    """
    return full_sort_top_k(corpus.ids, corpus.matrix @ shifted_query(pair, lam), k)


def shifted_query_answer(
    item: QAItem, pair: HypothesisPair, corpus: Corpus, lam: float, k: int, generator
) -> tuple[list[tuple[str, float]], str]:
    """``shifted_query_hits`` and the letter ``generator`` answers from them."""
    hits = shifted_query_hits(pair, corpus, lam, k)
    prompt = build_answer_prompt(item, RankedResult(hits=tuple(hits), method="chr"), corpus)
    reply = generator.complete(chat_messages(ANSWER_SYSTEM_PROMPT, prompt))
    return hits, extract_answer(reply.text, list(item.options))


# ----------------------------------------------------------------------
# Planted geometry
# ----------------------------------------------------------------------

def make_planted_corpus(
    dim: int = 128,
    n_target: int = 30,
    n_mimic: int = 30,
    n_noise: int = 940,
    eps: float = 0.015,
    seed: int = 7,
) -> tuple[Corpus, HypothesisPair, frozenset[str], frozenset[str]]:
    """Corpus with target/mimic clusters at cosine 0.8 plus isotropic noise.

    The injected hypothesis pair is deliberately biased toward the mimic:
    H_plus = normalize(0.4 t + 0.6 m), H_minus = m. Under plain similarity
    the mimic cluster wins; subtracting the mimic direction flips the top
    ranks to the target cluster.
    """
    rng = np.random.default_rng(seed)
    t = np.zeros(dim)
    t[0] = 1.0
    m = np.zeros(dim)
    m[0], m[1] = 0.8, 0.6

    rows = [normalize(t + eps * rng.standard_normal(dim)) for _ in range(n_target)]
    rows += [normalize(m + eps * rng.standard_normal(dim)) for _ in range(n_mimic)]
    rows += [normalize(rng.standard_normal(dim)) for _ in range(n_noise)]
    ids, texts = [], []
    for prefix, label, count in (
        ("T", "target evidence", n_target),
        ("M", "mimic evidence", n_mimic),
        ("N", "background", n_noise),
    ):
        ids += [f"{prefix}{idx:03d}" for idx in range(count)]
        texts += [f"{label} passage {idx}" for idx in range(count)]

    pair = HypothesisPair(
        h_plus="hypothesis leaning toward the mimic presentation",
        h_minus="the mimic condition itself",
        h_plus_emb=normalize(0.4 * t + 0.6 * m),
        h_minus_emb=m.copy(),
        provenance="injected",
    )
    target_ids = frozenset(f"T{idx:03d}" for idx in range(n_target))
    mimic_ids = frozenset(f"M{idx:03d}" for idx in range(n_mimic))
    return Corpus(ids, texts, rows), pair, target_ids, mimic_ids


# ----------------------------------------------------------------------
# Generator doubles
# ----------------------------------------------------------------------

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
