"""Document scoring and exact top-K retrieval.

The ranking function is the contrastive score

    S(d) = cos(d, H_plus) - lambda * cos(d, H_minus)

For unit-norm document embeddings it is linear in lambda: with the two
corpus products ``a = M @ H_plus`` and ``b = M @ H_minus``, the scores are
``a - lambda * b``. The corpus keeps the last ``a`` and the last ``b`` in
two one-slot memos, each keyed on its embedding's bytes, so a sweep over
any number of weights for one pair costs two matrix-vector products. ``b``
is computed only when it counts: target-only scoring, a pair without a
mimic and lambda = 0 rank by ``a`` itself, one product as before. The
scores equal the dot products with the shifted query vector
``H_plus - lambda * H_minus`` (``shifted_query``, deliberately not
renormalized: renormalizing rescales every score by the same positive
factor and cannot change the ranking) up to float64 rounding. A single
weight of a pair not scored just before costs two products where the
shifted query took one.

A corpus is ``Corpus(ids, texts, matrix)``; a ragged row raises
DimensionMismatchError naming its document. Every method scores through
``Corpus._product``, the one check of a vector against the corpus
dimension; only chr and h_plus_only keep its products in the memos.

Retrieval is an exhaustive scan with no approximate index. Selection
partitions the scores around the k-th largest in O(N), keeps every document
scoring at least that much, and orders only those candidates: score
descending, ties broken by ascending document id. The result equals a full
sort truncated to k, so every result list is a deterministic function of its
inputs.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

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
from .vectors import mean_embedding, normalize, normalize_rows

METHOD_STANDARD = "standard"
METHOD_HYDE = "hyde"
METHOD_QUERY2DOC = "query2doc"
METHOD_CHR = "chr"
METHOD_H_PLUS_ONLY = "h_plus_only"
METHODS = (METHOD_STANDARD, METHOD_HYDE, METHOD_QUERY2DOC, METHOD_CHR, METHOD_H_PLUS_ONLY)

# Blank line between the question stem and the appended pseudo-document.
QUERY2DOC_SEPARATOR = "\n\n"


class Corpus:
    """Immutable document collection backed by a dense unit-norm matrix.

    A corpus stores its documents as three aligned columns: ``ids``,
    ``texts`` and ``matrix``, whose rows are the embeddings normalized in
    float64, in insertion order, so similarity against a query vector is one
    matrix product. The whole matrix is validated and normalized in one pass.
    Every score is a product checked by ``_product``; the corpus memoizes
    the last target and mimic products it computed (see ``_target_product``
    and ``_mimic_product``).

    ``Corpus(ids, texts, matrix)`` takes one row of ``matrix`` per id, as a
    2-D array or a sequence of equal-length rows, and copies it, so the
    caller's array is left untouched. It raises EmptyCorpusError for no
    ids, DuplicateIdError for a repeated id, DimensionMismatchError when the
    lengths or the matrix shape disagree (for ragged rows, naming the first
    document whose row differs from the first row), and ZeroVectorError
    naming the first document whose row is zero or not finite.
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
        try:
            matrix = np.array(matrix, dtype=np.float64, order="C")
        except ValueError:
            # Rows are compared only after a failure: a loop would slow every build.
            first = np.shape(matrix[0])
            for doc_id, row in zip(ids, matrix):
                if np.shape(row) != first:
                    raise DimensionMismatchError(
                        f"document {doc_id!r} has shape {np.shape(row)}, "
                        f"the first row has shape {first}"
                    ) from None
            raise
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
        # (embedding bytes, read-only product) of the last target and mimic
        # scored; each is replaced whole, never mutated.
        self._target: tuple[bytes, np.ndarray] | None = None
        self._mimic: tuple[bytes, np.ndarray] | None = None

    def __len__(self) -> int:
        return len(self.ids)

    def text(self, doc_id: str) -> str:
        """The text of one document; UnknownDocIdError for an id not in the corpus."""
        pos = self._index.get(doc_id)
        if pos is None:
            raise UnknownDocIdError(f"no document with id {doc_id!r}")
        return self.texts[pos]

    def _target_product(self, pair: HypothesisPair) -> np.ndarray:
        """``a = matrix @ h_plus``, read-only, memoized on the embedding's bytes."""
        if pair.h_plus_emb is None:
            raise MissingEmbeddingError("pair has no h_plus embedding; call embed_pair first")
        self._target = self._product(self._target, pair.h_plus_emb, "h_plus")
        return self._target[1]

    def _mimic_product(self, pair: HypothesisPair) -> np.ndarray:
        """``b = matrix @ h_minus``, read-only, memoized on the embedding's bytes."""
        self._mimic = self._product(self._mimic, pair.h_minus_emb, "h_minus")
        return self._mimic[1]

    def _product(
        self, memo: tuple[bytes, np.ndarray] | None, embedding: np.ndarray, name: str
    ) -> tuple[bytes, np.ndarray]:
        """The memo entry for ``matrix @ embedding``: ``memo`` itself on a hit.

        Every ``retrieve_*`` scores with it; the query methods pass ``memo``
        None, which always misses. An embedding changed in place has new
        bytes and misses. Raises DimensionMismatchError, naming the embedding
        (``h_plus``, ``h_minus`` or ``query``), when it is not a vector of the
        corpus dimension.
        """
        vector = np.asarray(embedding, dtype=np.float64)
        if vector.shape != (self.dimension,):
            raise DimensionMismatchError(
                f"{name} embedding has shape {vector.shape}, corpus dimension is {self.dimension}"
            )
        key = vector.tobytes()
        if memo is not None and memo[0] == key:
            return memo
        product = self.matrix @ vector
        product.setflags(write=False)
        return key, product


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


def _ranked(
    corpus: Corpus, scores: np.ndarray, k: int, method: str, lam: float | None = None
) -> RankedResult:
    return RankedResult(hits=top_k_from_scores(corpus.ids, scores, k), method=method, lam=lam)


def _rank_by_query(corpus: Corpus, query: np.ndarray, k: int, method: str) -> RankedResult:
    return _ranked(corpus, corpus._product(None, query, "query")[1], k, method)


def retrieve_chr(pair: HypothesisPair, corpus: Corpus, lam: float, k: int) -> RankedResult:
    """Contrastive retrieval: rank by a - lam * b, the pair's corpus products.

    A pair without a mimic embedding, and lam = 0, rank by ``a`` alone; the
    mimic is then neither checked nor multiplied.
    """
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    scores = corpus._target_product(pair)
    if pair.h_minus_emb is not None and lam != 0:
        scores = scores - lam * corpus._mimic_product(pair)
    return _ranked(corpus, scores, k, METHOD_CHR, lam=lam)


def retrieve_h_plus_only(pair: HypothesisPair, corpus: Corpus, k: int) -> RankedResult:
    """Ablation: rank by similarity to the target hypothesis alone."""
    return _ranked(corpus, corpus._target_product(pair), k, METHOD_H_PLUS_ONLY)


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
