"""Document scoring and exact top-K retrieval.

The ranking function is the contrastive score

    S(d) = cos(d, H_plus) - lambda * cos(d, H_minus)

which, for unit-norm document embeddings, equals the dot product of d with
the shifted query vector ``H_plus - lambda * H_minus`` (deliberately not
renormalized: renormalizing rescales every score by the same positive factor
and cannot change the ranking, while leaving it raw keeps the two forms
numerically identical).

Retrieval is an exhaustive scan with no approximate index. Selection
partitions the scores around the k-th largest in O(N), keeps every document
scoring at least that much, and orders only those candidates: score
descending, ties broken by ascending document id. The result equals a full
sort truncated to k, so every result list is a deterministic function of its
inputs.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field

import numpy as np

from .backends import EmbedderBackend
from .errors import (
    DimensionMismatchError,
    DuplicateIdError,
    EmptyCorpusError,
    MissingEmbeddingError,
    UnknownDocIdError,
)
from .hypotheses import HypothesisPair, QAItem
from .vectors import as_vector, mean_embedding, normalize, normalize_rows

METHOD_STANDARD = "standard"
METHOD_HYDE = "hyde"
METHOD_QUERY2DOC = "query2doc"
METHOD_CHR = "chr"
METHOD_H_PLUS_ONLY = "h_plus_only"
METHODS = (METHOD_STANDARD, METHOD_HYDE, METHOD_QUERY2DOC, METHOD_CHR, METHOD_H_PLUS_ONLY)

# Blank line between the question stem and the appended pseudo-document.
QUERY2DOC_SEPARATOR = "\n\n"


@dataclass(frozen=True)
class Document:
    """One corpus chunk. The corpus normalizes embeddings at ingest."""

    id: str
    text: str
    embedding: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("document id must be nonempty")
        object.__setattr__(self, "embedding", as_vector(self.embedding))


class Corpus:
    """Immutable document collection backed by a dense unit-norm matrix.

    A corpus stores its documents as three aligned columns: ``ids``,
    ``texts`` and ``matrix``, whose rows are the embeddings normalized in
    float64, in insertion order, so similarity against a query vector is one
    matrix product. The whole matrix is validated and normalized in one pass;
    ``Document`` objects are built on demand by iteration and ``get``.

    ``Corpus(ids, texts, matrix)`` takes one row of ``matrix`` per id, as a
    2-D array or a sequence of equal-length rows, and copies it, so the
    caller's array is left untouched. It raises EmptyCorpusError for no
    ids, DuplicateIdError for a repeated id, DimensionMismatchError when the
    lengths or the matrix shape disagree, and ZeroVectorError naming the
    first document whose row is zero or not finite.
    """

    def __init__(
        self,
        ids: Sequence[str],
        texts: Sequence[str],
        matrix: np.ndarray | Sequence[np.ndarray],
    ):
        ids = tuple(ids)
        texts = tuple(texts)
        if not ids:
            raise EmptyCorpusError("corpus must contain at least one document")
        index = dict(zip(ids, range(len(ids))))
        if len(index) != len(ids):
            seen: set[str] = set()
            for pos, doc_id in enumerate(ids):
                if doc_id in seen:
                    raise DuplicateIdError(pos + 1, doc_id)
                seen.add(doc_id)
        if not all(isinstance(doc_id, str) and doc_id for doc_id in ids):
            raise ValueError("document id must be nonempty")
        matrix = np.array(matrix, dtype=np.float64, order="C")
        if matrix.ndim != 2 or matrix.shape[0] != len(ids) or len(texts) != len(ids):
            raise DimensionMismatchError(
                f"{len(ids)} ids and {len(texts)} texts need a ({len(ids)}, d) matrix, "
                f"got shape {matrix.shape}"
            )
        normalize_rows(matrix, ids)
        matrix.setflags(write=False)
        self.dimension = matrix.shape[1]
        self.ids = ids
        self.texts = texts
        self.matrix = matrix
        self._index = index

    @classmethod
    def from_documents(cls, documents: Iterable[Document]) -> Corpus:
        """Build a corpus from ``Document`` objects, stacking their embeddings."""
        docs = list(documents)
        for doc in docs[1:]:
            if doc.embedding.shape != docs[0].embedding.shape:
                raise DimensionMismatchError(
                    f"document {doc.id!r} has dimension {doc.embedding.shape[0]}, "
                    f"corpus dimension is {docs[0].embedding.shape[0]}"
                )
        return cls(
            [doc.id for doc in docs],
            [doc.text for doc in docs],
            [doc.embedding for doc in docs],
        )

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self) -> Iterator[Document]:
        for doc_id, text, row in zip(self.ids, self.texts, self.matrix):
            yield Document(id=doc_id, text=text, embedding=row)

    def _position(self, doc_id: str) -> int:
        pos = self._index.get(doc_id)
        if pos is None:
            raise UnknownDocIdError(f"no document with id {doc_id!r}")
        return pos

    def get(self, doc_id: str) -> Document:
        pos = self._position(doc_id)
        return Document(id=doc_id, text=self.texts[pos], embedding=self.matrix[pos])

    def text(self, doc_id: str) -> str:
        """The text of one document, without building a ``Document``."""
        return self.texts[self._position(doc_id)]

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._index


@dataclass(frozen=True)
class RankedResult:
    """Top-K hits as (doc_id, score), scores non-increasing, ties by id."""

    hits: tuple[tuple[str, float], ...]
    method: str
    lam: float | None = None

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        for (_, prev), (_, cur) in zip(self.hits, self.hits[1:]):
            if cur > prev:
                raise ValueError("hit scores must be non-increasing")

    def doc_ids(self) -> tuple[str, ...]:
        return tuple(doc_id for doc_id, _ in self.hits)


def shifted_query(pair: HypothesisPair, lam: float) -> np.ndarray:
    """The query vector H_plus - lam * H_minus, not renormalized.

    Dotting unit-norm documents against this vector gives each one's
    contrastive score. A missing mimic embedding contributes zero, so a
    fallback pair ranks by its target hypothesis alone.
    """
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    if pair.h_plus_emb is None:
        raise MissingEmbeddingError("pair has no h_plus embedding; call embed_pair first")
    if pair.h_minus_emb is None:
        return pair.h_plus_emb.copy()
    return pair.h_plus_emb - lam * pair.h_minus_emb


def top_k_from_scores(
    ids: Sequence[str], scores: np.ndarray, k: int
) -> tuple[tuple[str, float], ...]:
    """Select the k best (id, score) pairs: score descending, then id ascending.

    Exact and O(N) plus a sort of the candidates: ``np.partition`` finds the
    k-th largest score, every index scoring at least that much is kept (so a
    tie group straddling the k boundary survives whole), and only those
    candidates are ordered by (score descending, id ascending). The result
    equals a full sort of all N pairs truncated to k.

    Raises ValueError if any score is NaN: NaN has no place in that order,
    and ``np.partition`` would rank it above every finite score.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if np.isnan(scores).any():
        raise ValueError("scores must not contain NaN")
    kth = len(scores) - min(k, len(scores))
    threshold = np.partition(scores, kth)[kth]
    candidates = np.flatnonzero(scores >= threshold)
    # lexsort sorts by the last key first, so -score is primary, id secondary.
    order = np.lexsort((np.asarray([ids[i] for i in candidates]), -scores[candidates]))
    return tuple((ids[i], float(scores[i])) for i in candidates[order[:k]])


def _rank_by_query(
    corpus: Corpus, query: np.ndarray, k: int, method: str, lam: float | None = None
) -> RankedResult:
    if query.shape[0] != corpus.dimension:
        raise DimensionMismatchError(
            f"query dimension {query.shape[0]} vs corpus dimension {corpus.dimension}"
        )
    scores = corpus.matrix @ query
    return RankedResult(hits=top_k_from_scores(corpus.ids, scores, k), method=method, lam=lam)


def retrieve_chr(pair: HypothesisPair, corpus: Corpus, lam: float, k: int) -> RankedResult:
    """Contrastive retrieval: rank by dot(d, H_plus - lam * H_minus)."""
    return _rank_by_query(corpus, shifted_query(pair, lam), k, METHOD_CHR, lam=lam)


def retrieve_h_plus_only(pair: HypothesisPair, corpus: Corpus, k: int) -> RankedResult:
    """Ablation: rank by similarity to the target hypothesis alone."""
    if pair.h_plus_emb is None:
        raise MissingEmbeddingError("pair has no h_plus embedding; call embed_pair first")
    return _rank_by_query(corpus, pair.h_plus_emb, k, METHOD_H_PLUS_ONLY)


def retrieve_standard(
    item: QAItem, corpus: Corpus, k: int, embedder: EmbedderBackend
) -> RankedResult:
    """No expansion: embed the question stem (options excluded) and rank."""
    query = normalize(embedder.embed(item.stem))
    return _rank_by_query(corpus, query, k, METHOD_STANDARD)


def retrieve_hyde(
    hypo_texts: Sequence[str], corpus: Corpus, k: int, embedder: EmbedderBackend
) -> RankedResult:
    """Embedding averaging: the query is the mean of the hypothesis embeddings."""
    if not hypo_texts:
        raise ValueError("need at least one hypothetical passage")
    embs = [normalize(embedder.embed(text)) for text in hypo_texts]
    return _rank_by_query(corpus, mean_embedding(embs), k, METHOD_HYDE)


def retrieve_query2doc(
    item: QAItem, pseudo_doc: str, corpus: Corpus, k: int, embedder: EmbedderBackend
) -> RankedResult:
    """Query concatenation: embed stem + blank line + pseudo-document, rank."""
    if not pseudo_doc:
        raise ValueError("pseudo_doc must be nonempty")
    query = normalize(embedder.embed(item.stem + QUERY2DOC_SEPARATOR + pseudo_doc))
    return _rank_by_query(corpus, query, k, METHOD_QUERY2DOC)
