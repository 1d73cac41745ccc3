"""Document scoring and exact top-K retrieval.

The ranking function is the contrastive score

    S(d) = cos(d, H_plus) - lambda * cos(d, H_minus)

For unit-norm document embeddings it is linear in lambda: with the two
corpus products ``a = M @ H_plus`` and ``b = M @ H_minus``, the scores are
``a - lambda * b``. The corpus keeps the last ``a`` and the last ``b`` in
two one-slot memos, each keyed on its embedding's bytes, so a sweep over
any number of weights for one pair costs two products in one blocked pass:
each block of matrix rows is multiplied by H_plus and then by H_minus
while it is still in cache, so the matrix is read about 1.3-1.6 times,
not twice, and on one BLAS thread every score keeps the bits of the
whole-matrix product. ``b`` is computed only when it counts: target-only
scoring, a pair without a mimic and lambda = 0 rank by ``a`` itself, one
product. The scores equal the dot products with the shifted query vector
``H_plus - lambda * H_minus`` (``shifted_query``, deliberately not
renormalized: renormalizing rescales every score by the same positive
factor and cannot change the ranking) up to float64 rounding. A single
weight of a pair not scored just before costs that pass where the shifted
query took one matrix read.

A corpus is ``Corpus(ids, texts, matrix)``; a ragged row raises
DimensionMismatchError naming its document. Every method scores through
``Corpus._products``, the one check of a vector against the corpus
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
from .config import check_lambda
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

# Bytes of matrix rows per block of every corpus product (``_row_blocks``):
# 256 rows at dimension 384. Tuned on one BLAS thread.
SCORING_BLOCK_BYTES = 1 << 20

# The Corpus attribute memoizing each pair embedding's product; queries have none.
_MEMO_SLOTS = {"h_plus": "_target", "h_minus": "_mimic"}


class Corpus:
    """Immutable document collection backed by a dense unit-norm matrix.

    A corpus stores its documents as three aligned columns: ``ids``,
    ``texts`` and ``matrix``, whose rows are the embeddings normalized in
    float64, in insertion order, so similarity against a query vector is one
    matrix product. The whole matrix is validated and normalized in one pass.
    Every score is a product from ``_products``, which checks the vector
    and memoizes the last target and mimic products it computed.

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
        *,
        _adopt: bool = False,
    ):
        # ``_adopt=True`` is ingest's hand-over of a float64 matrix it built
        # for this corpus: the array is normalized in place and kept.
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
            matrix = (np.asarray if _adopt else np.array)(matrix, dtype=np.float64, order="C")
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

    def _products(self, **embeddings: np.ndarray | None) -> list[np.ndarray]:
        """``matrix @ v`` for each named embedding, in the order given, read-only.

        The one scoring path: the query methods pass ``query``, chr and
        h_plus_only ``h_plus`` and, where it counts, ``h_minus``. An embedding
        that is None raises MissingEmbeddingError; one that is not a vector of
        the corpus dimension raises DimensionMismatchError naming it. Pair
        products are memoized on the embedding's bytes, so one changed in
        place misses. Every miss is computed over ``_row_blocks``, two misses
        in one pass, so a product's bits do not depend on what the memos held.
        """
        vectors, products = {}, {}
        for name, embedding in embeddings.items():
            if embedding is None:
                raise MissingEmbeddingError(f"pair has no {name} embedding; call embed_pair first")
            vector = np.asarray(embedding, dtype=np.float64)
            if vector.shape != (self.dimension,):
                raise DimensionMismatchError(
                    f"{name} embedding has shape {vector.shape}, "
                    f"corpus dimension is {self.dimension}"
                )
            memo = getattr(self, _MEMO_SLOTS[name]) if name in _MEMO_SLOTS else None
            if memo is not None and memo[0] == vector.tobytes():
                products[name] = memo[1]
            else:
                vectors[name] = vector
        fresh = {name: np.empty(len(self)) for name in vectors}
        for rows in _row_blocks(len(self), self.dimension) if vectors else ():
            block = self.matrix[rows]
            for name, vector in vectors.items():
                np.matmul(block, vector, out=fresh[name][rows])
        for name, product in fresh.items():
            product.setflags(write=False)
            if name in _MEMO_SLOTS:
                setattr(self, _MEMO_SLOTS[name], (vectors[name].tobytes(), product))
        products.update(fresh)
        return [products[name] for name in embeddings]


def _row_blocks(n_rows: int, dimension: int) -> list[slice]:
    """The row blocks over which every corpus product is computed.

    A block is a power of two of rows, at least 4, within SCORING_BLOCK_BYTES,
    so a pass's second product finds it still in cache. OpenBLAS's gemv takes
    rows in fours, so such blocks keep every score's bits equal to a
    one-thread whole-matrix product's, on one or two threads. A one-row tail
    joins the block before it, as NumPy uses another kernel for one row.
    """
    step = 1 << max(2, (SCORING_BLOCK_BYTES // (8 * dimension)).bit_length() - 1)
    stops = [*range(step, n_rows - 1, step), n_rows]
    return [slice(start, stop) for start, stop in zip([0, *stops], stops)]


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
    check_lambda(lam)
    if pair.h_plus_emb is None:
        raise MissingEmbeddingError("pair has no h_plus embedding; call embed_pair first")
    h_plus = np.asarray(pair.h_plus_emb, dtype=np.float64)
    if pair.h_minus_emb is None:
        return h_plus.copy()
    return h_plus - lam * np.asarray(pair.h_minus_emb, dtype=np.float64)


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
    # Python's str order: NumPy's fixed-width strings drop trailing NULs.
    best = sorted(candidates.tolist(), key=lambda i: (-scores[i], ids[i]))[:k]
    return tuple((ids[i], float(scores[i])) for i in best)


def _ranked(
    corpus: Corpus, scores: np.ndarray, k: int, method: str, lam: float | None = None
) -> RankedResult:
    return RankedResult(hits=top_k_from_scores(corpus.ids, scores, k), method=method, lam=lam)


def _rank_by_query(corpus: Corpus, query: np.ndarray, k: int, method: str) -> RankedResult:
    (scores,) = corpus._products(query=query)
    return _ranked(corpus, scores, k, method)


def retrieve_chr(pair: HypothesisPair, corpus: Corpus, lam: float, k: int) -> RankedResult:
    """Contrastive retrieval: rank by a - lam * b, the pair's corpus products.

    A pair without a mimic embedding, and lam = 0, rank by ``a`` alone; the
    mimic is then neither checked nor multiplied.
    """
    check_lambda(lam)
    if pair.h_minus_emb is None or lam == 0:
        (scores,) = corpus._products(h_plus=pair.h_plus_emb)
    else:
        a, b = corpus._products(h_plus=pair.h_plus_emb, h_minus=pair.h_minus_emb)
        scores = a - lam * b
    return _ranked(corpus, scores, k, METHOD_CHR, lam=lam)


def retrieve_h_plus_only(pair: HypothesisPair, corpus: Corpus, k: int) -> RankedResult:
    """Ablation: rank by similarity to the target hypothesis alone."""
    (scores,) = corpus._products(h_plus=pair.h_plus_emb)
    return _ranked(corpus, scores, k, METHOD_H_PLUS_ONLY)


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
