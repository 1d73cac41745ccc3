"""Shared builders for the test suite."""

from __future__ import annotations

import struct
import sys

import numpy as np

from contrastive_retrieval.costs import CostEntry
from contrastive_retrieval.dataio import CACHE_MAGIC, CACHE_VERSION
from contrastive_retrieval.hypotheses import HypothesisPair, QAItem
from contrastive_retrieval.pipeline import EvalRecord
from contrastive_retrieval.retrieval import Corpus, Document, RankedResult
from contrastive_retrieval.vectors import normalize


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

    The bulk paths must match this loop bit for bit. Ingest normalizes a
    vector once as its line is read (inline or embedded) or its cache record
    is loaded, and once more when the corpus is built: two passes for
    ``load_corpus``, one for a corpus built from raw rows.
    """
    out = []
    for row in rows:
        vec = np.asarray(row, dtype=np.float64)
        for _ in range(passes):
            vec = normalize(vec)
        out.append(vec)
    return np.array(out)


def reference_cache_bytes(entries) -> bytes:
    """The v1 embedding cache, written one record at a time."""
    ids = sorted(entries)
    dimension = len(entries[ids[0]])
    chunks = [CACHE_MAGIC, struct.pack("<IIQ", CACHE_VERSION, dimension, len(ids))]
    for doc_id in ids:
        encoded = doc_id.encode("utf-8")
        chunks.append(struct.pack("<I", len(encoded)))
        chunks.append(encoded)
        chunks.append(normalize(entries[doc_id]).astype("<f4").tobytes())
    return b"".join(chunks)


def scaled_rows(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    """Random rows with norms spread over four orders of magnitude."""
    return rng.standard_normal((n, dim)) * rng.uniform(0.01, 100.0, (n, 1))


def random_corpus(rng: np.random.Generator, n: int, dim: int, prefix: str = "doc") -> Corpus:
    docs = [
        Document(id=f"{prefix}{i:04d}", text=f"passage {i}", embedding=unit(rng, dim))
        for i in range(n)
    ]
    return Corpus.from_documents(docs)


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
