from __future__ import annotations

import math

import numpy as np
import pytest

from contrastive_retrieval.backends import MockEmbedderBackend
from contrastive_retrieval.config import DEFAULT_SWEEP_GRID
from contrastive_retrieval.errors import (
    DimensionMismatchError,
    DuplicateIdError,
    EmptyCorpusError,
    MissingEmbeddingError,
    UnknownDocIdError,
    ZeroVectorError,
)
from contrastive_retrieval import retrieval
from contrastive_retrieval.hypotheses import HypothesisPair
from contrastive_retrieval.retrieval import (
    Corpus,
    RankedResult,
    retrieve_chr,
    retrieve_h_plus_only,
    retrieve_hyde,
    retrieve_query2doc,
    retrieve_standard,
    shifted_query,
    top_k_from_scores,
)
from helpers import (
    contrastive_score,
    full_sort_top_k,
    injected_pair,
    random_corpus,
    reference_normalize_rows,
    retrieve_top_k,
    scaled_rows,
    two_option_item,
    unit,
)

# Dimensions for the bit-identity checks: tiny, odd, and both sides of a
# BLAS kernel's unroll width.
ORACLE_DIMS = (2, 3, 64, 384, 385)


def make_pair(h_plus_emb=None, h_minus_emb=None) -> HypothesisPair:
    return HypothesisPair(
        h_plus="target",
        h_minus="mimic" if h_minus_emb is not None else "",
        h_plus_emb=None if h_plus_emb is None else np.asarray(h_plus_emb, dtype=float),
        h_minus_emb=None if h_minus_emb is None else np.asarray(h_minus_emb, dtype=float),
        provenance="injected" if h_minus_emb is not None else "fallback",
    )


# ----------------------------------------------------------------------
# Corpus
# ----------------------------------------------------------------------

def test_corpus_normalizes_rows_and_preserves_order():
    corpus = Corpus(["b", "a"], ["second", "first"], [[0.0, 2.0], [3.0, 4.0]])
    assert corpus.ids == ("b", "a")
    assert np.allclose(corpus.matrix[0], [0.0, 1.0])
    assert np.allclose(corpus.matrix[1], [0.6, 0.8])
    assert np.allclose(np.linalg.norm(corpus.matrix, axis=1), 1.0)
    assert corpus.text("a") == "first"


def test_corpus_rejects_duplicates_empties_and_mixed_dims():
    with pytest.raises(DuplicateIdError):
        Corpus(["a", "a"], ["t", "again"], [[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(EmptyCorpusError):
        Corpus([], [], [])
    with pytest.raises(DimensionMismatchError):
        Corpus(["a", "b"], ["t", "t"], [[1.0, 0.0], [1.0, 0.0, 0.0]])
    with pytest.raises(UnknownDocIdError):
        Corpus(["a"], ["t"], [[1.0, 0.0]]).text("missing")


@pytest.mark.parametrize("dim", ORACLE_DIMS)
def test_corpus_matrix_bits_equal_per_row_normalize(dim):
    rng = np.random.default_rng(dim)
    raw = scaled_rows(rng, 200, dim)
    before = raw.copy()
    ids = [f"d{i:03d}" for i in range(200)]
    texts = [f"text {i}" for i in range(200)]
    expected = reference_normalize_rows(raw, passes=1).tobytes()
    corpus = Corpus(ids, texts, raw)
    assert corpus.matrix.tobytes() == expected
    assert np.array_equal(raw, before)
    assert corpus.matrix.flags["C_CONTIGUOUS"] and not corpus.matrix.flags["WRITEABLE"]
    assert Corpus(ids, texts, list(raw)).matrix.tobytes() == expected
    handed_over = raw.copy()
    owned = Corpus(ids, texts, handed_over, _adopt=True).matrix
    assert owned.tobytes() == expected and np.shares_memory(owned, handed_over)


@pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0])
def test_corpus_rejects_nan_inf_and_zero_rows_by_id(bad):
    matrix = np.array([[1.0, 0.0], [bad, 0.0], [0.0, bad]])
    with pytest.raises(ZeroVectorError, match="'d1'"):
        Corpus(["d0", "d1", "d2"], ["a", "b", "c"], matrix)


def test_corpus_array_constructor_validation():
    two = np.eye(2)
    with pytest.raises(DuplicateIdError, match="'a'"):
        Corpus(["a", "a"], ["t", "u"], two)
    with pytest.raises(DimensionMismatchError):
        Corpus(["a", "b", "c"], ["t", "u", "v"], two)
    with pytest.raises(DimensionMismatchError):
        Corpus(["a", "b"], ["t"], two)
    with pytest.raises(DimensionMismatchError):
        Corpus(["a", "b"], ["t", "u"], np.array([1.0, 0.0]))
    with pytest.raises(EmptyCorpusError):
        Corpus([], [], np.empty((0, 2)))
    with pytest.raises(ValueError, match="nonempty"):
        Corpus(["a", ""], ["t", "u"], two)


def test_corpus_ragged_rows_name_the_first_ragged_document():
    ids, texts = ["a", "b", "c", "d"], ["t", "u", "v", "w"]
    rows = [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0, 0.0], [1.0]]
    with pytest.raises(DimensionMismatchError, match="'c'"):
        Corpus(ids, texts, rows)
    with pytest.raises(DimensionMismatchError, match="'c'"):
        Corpus(ids, texts, [np.array(row) for row in rows])
    # A row that is not numeric keeps NumPy's own error.
    with pytest.raises(ValueError) as info:
        Corpus(["a", "b"], ["t", "u"], [[1.0, 0.0], ["x", 0.0]])
    assert type(info.value) is ValueError


# ----------------------------------------------------------------------
# Scoring
# ----------------------------------------------------------------------

def test_contrastive_score_identity_doc_with_orthogonal_mimic():
    pair = make_pair(h_plus_emb=[1.0, 0.0], h_minus_emb=[0.0, 1.0])
    doc = np.array([1.0, 0.0])
    assert contrastive_score(doc, pair, 1.0) == pytest.approx(1.0, abs=1e-12)


def test_contrastive_score_hand_value():
    pair = make_pair(h_plus_emb=[1.0, 0.0], h_minus_emb=[0.6, 0.8])
    doc = np.array([1.0, 0.0])
    assert contrastive_score(doc, pair, 1.0) == pytest.approx(0.4, abs=1e-12)


def test_contrastive_score_lambda_zero_is_plain_similarity():
    rng = np.random.default_rng(3)
    pair = injected_pair(rng, 8)
    doc = unit(rng, 8)
    expected = float(np.dot(doc, pair.h_plus_emb))
    assert contrastive_score(doc, pair, 0.0) == pytest.approx(expected, abs=1e-12)


def test_contrastive_score_without_mimic_embedding():
    pair = make_pair(h_plus_emb=[1.0, 0.0])
    doc = np.array([0.6, 0.8])
    assert contrastive_score(doc, pair, 1.3) == pytest.approx(0.6, abs=1e-12)


def test_contrastive_score_errors():
    doc = np.array([1.0, 0.0])
    pair = make_pair(h_plus_emb=[1.0, 0.0], h_minus_emb=[0.0, 1.0])
    with pytest.raises(MissingEmbeddingError):
        contrastive_score(doc, HypothesisPair(h_plus="t", h_minus="m"), 1.0)
    with pytest.raises(ValueError):
        contrastive_score(doc, pair, -0.1)
    with pytest.raises(DimensionMismatchError):
        contrastive_score(np.array([1.0, 0.0, 0.0]), pair, 1.0)


def test_shifted_query_hand_values():
    pair = make_pair(h_plus_emb=[1.0, 0.0], h_minus_emb=[0.0, 1.0])
    assert np.array_equal(shifted_query(pair, 0.0), [1.0, 0.0])
    assert np.array_equal(shifted_query(pair, 1.0), [1.0, -1.0])
    no_mimic = make_pair(h_plus_emb=[0.6, 0.8])
    assert np.array_equal(shifted_query(no_mimic, 2.0), [0.6, 0.8])
    with pytest.raises(MissingEmbeddingError):
        shifted_query(HypothesisPair(h_plus="t", h_minus="m"), 1.0)


def test_shifted_query_is_not_renormalized():
    pair = make_pair(h_plus_emb=[1.0, 0.0], h_minus_emb=[0.0, 1.0])
    assert float(np.linalg.norm(shifted_query(pair, 1.0))) == pytest.approx(np.sqrt(2.0))


def test_shifted_query_takes_list_embeddings():
    # The README's library example gives the pair's embeddings as lists.
    pair = HypothesisPair(
        h_plus="deep-sea carcass ecosystems",
        h_minus="shallow reef ecosystems",
        h_plus_emb=[1.0, 0.0, 0.0],
        h_minus_emb=[0.0, 1.0, 0.0],
        provenance="injected",
    )
    fallback = HypothesisPair(h_plus="t", h_minus="", h_plus_emb=[0.6, 0.8],
                              provenance="fallback")
    for query, expected in (
        (shifted_query(pair, 1.0), [1.0, -1.0, 0.0]),
        (shifted_query(pair, 0.25), [1.0, -0.25, 0.0]),
        (shifted_query(fallback, 2.0), [0.6, 0.8]),
    ):
        assert isinstance(query, np.ndarray) and query.dtype == np.float64
        assert np.array_equal(query, expected)


def test_score_equals_dot_with_shifted_query_for_unit_docs():
    rng = np.random.default_rng(17)
    for _ in range(200):
        pair = injected_pair(rng, 12)
        doc = unit(rng, 12)
        for lam in (0.0, 0.5, 1.0, 1.4):
            direct = contrastive_score(doc, pair, lam)
            via_query = float(np.dot(doc, shifted_query(pair, lam)))
            assert abs(direct - via_query) <= 1e-9


# ----------------------------------------------------------------------
# Top-K selection
# ----------------------------------------------------------------------

def test_top_k_ties_break_by_ascending_id():
    hits = top_k_from_scores(["b", "a", "c"], np.array([0.5, 0.5, 0.9]), 3)
    assert [h[0] for h in hits] == ["c", "a", "b"]


def assert_selection_exact(ids, scores, k):
    hits = top_k_from_scores(ids, np.asarray(scores, dtype=np.float64), k)
    # float.hex tells -0.0 from +0.0, so the returned score bytes are checked too.
    assert [(i, s.hex()) for i, s in hits] == [
        (i, s.hex()) for i, s in full_sort_top_k(ids, scores, k)
    ]


@pytest.mark.parametrize(
    ("ids", "scores", "k"),
    [
        # A tie group straddling the k boundary: the smallest ids of it win.
        (["e", "d", "c", "b", "a"], [0.9, 0.5, 0.5, 0.5, 0.1], 2),
        (["e", "d", "c", "b", "a"], [0.9, 0.5, 0.5, 0.5, 0.1], 3),
        (["d4", "d1", "d3", "d0", "d2"], [0.3, 0.7, 0.3, 0.3, 0.7], 3),
        # k = 1, and k at or beyond N.
        (["b", "a", "c"], [0.2, 0.2, 0.1], 1),
        (["b", "a", "c"], [0.2, 0.2, 0.1], 3),
        (["b", "a", "c"], [0.2, 0.2, 0.1], 50),
        (["only"], [-1.0], 5),
        # All scores equal: pure id order.
        (["z", "m", "a", "q"], [0.25] * 4, 2),
        (["z", "m", "a", "q"], [0.25] * 4, 4),
        # +0.0 and -0.0 tie; each keeps its own sign.
        (["b", "a", "c"], [0.0, -0.0, -0.5], 1),
        (["b", "a", "c"], [-0.0, 0.0, -0.5], 2),
        (["c", "b", "a"], [-0.0, 0.0, -0.0], 2),
        # File order unlike sort order, with infinities.
        (["d10", "d9", "d1", "d2"], [float("inf"), 0.5, 0.5, float("-inf")], 3),
        # Ids that differ only by a trailing NUL, which NumPy strings drop.
        (["a\x00", "a", "b"], [0.5, 0.5, 0.1], 2),
    ],
)
def test_top_k_selection_matches_pure_python_full_sort(ids, scores, k):
    assert_selection_exact(ids, scores, k)


def test_top_k_selection_matches_full_sort_under_heavy_ties():
    rng = np.random.default_rng(7)
    values = np.array([0.5, 0.25, 0.0, -0.0, -0.25])
    for _ in range(500):
        n = int(rng.integers(1, 60))
        k = int(rng.integers(1, 12))
        scores = rng.choice(rng.choice(values, size=int(rng.integers(1, 5))), size=n)
        ids = [f"doc{j}" for j in rng.permutation(n)]
        assert_selection_exact(ids, scores, k)


def test_top_k_rejects_nan_scores():
    with pytest.raises(ValueError, match="NaN"):
        top_k_from_scores(["a", "b", "c"], np.array([0.5, np.nan, 0.1]), 2)
    with pytest.raises(ValueError, match="NaN"):
        top_k_from_scores(["a"], np.array([np.nan]), 1)


def test_retrieve_top_k_short_corpus_returns_everything():
    rng = np.random.default_rng(0)
    corpus = random_corpus(rng, 3, 4)
    hits = retrieve_top_k(lambda row: float(row[0]), corpus, k=5)
    assert len(hits) == 3
    scores = [s for _, s in hits]
    assert scores == sorted(scores, reverse=True)


def test_retrieve_top_k_matches_full_sort_oracle():
    rng = np.random.default_rng(1)
    corpus = random_corpus(rng, 100, 16)
    probe = unit(rng, 16)
    score = lambda row: float(np.dot(row, probe))
    hits = retrieve_top_k(score, corpus, k=5)
    oracle = sorted(
        zip(corpus.ids, map(score, corpus.matrix)), key=lambda p: (-p[1], p[0])
    )[:5]
    assert list(hits) == oracle


def test_ranked_result_validates_ordering():
    with pytest.raises(ValueError):
        RankedResult(hits=(("a", 0.1), ("b", 0.9)), method="standard")
    with pytest.raises(ValueError):
        RankedResult(hits=(), method="nonsense")


# ----------------------------------------------------------------------
# Retrieval methods
# ----------------------------------------------------------------------

def hex_hits(ranked: RankedResult) -> list[tuple[str, str]]:
    # float.hex tells -0.0 from +0.0, so score bits are compared exactly.
    return [(doc_id, score.hex()) for doc_id, score in ranked.hits]


def test_retrieve_chr_lambda_zero_equals_h_plus_only():
    rng = np.random.default_rng(5)
    raw = rng.standard_normal((201, 16))
    ids = [f"doc{i:04d}" for i in range(201)]
    texts = [f"passage {i}" for i in range(201)]
    pair = injected_pair(rng, 16)
    # Either call may fill the corpus's memo first.
    corpus = Corpus(ids, texts, raw)
    chr_first = hex_hits(retrieve_chr(pair, corpus, 0.0, 201))
    assert hex_hits(retrieve_h_plus_only(pair, corpus, 201)) == chr_first
    corpus = Corpus(ids, texts, raw)
    plus_first = hex_hits(retrieve_h_plus_only(pair, corpus, 201))
    assert hex_hits(retrieve_chr(pair, corpus, 0.0, 201)) == plus_first == chr_first


def test_retrieve_chr_fallback_pair_equals_h_plus_only_at_any_lambda():
    rng = np.random.default_rng(6)
    corpus = random_corpus(rng, 150, 8)
    full = injected_pair(rng, 8)
    # Same target as ``full``: only the missing mimic tells the two apart.
    fallback = make_pair(h_plus_emb=full.h_plus_emb.copy())
    for lam in (0.0, 0.7, *DEFAULT_SWEEP_GRID):
        # The pairs alternate, so each call follows the other pair's memo.
        full_hits = retrieve_chr(full, corpus, lam, 5).hits
        fallback_hits = hex_hits(retrieve_chr(fallback, corpus, lam, 5))
        assert fallback_hits == hex_hits(retrieve_h_plus_only(fallback, corpus, 5))
        assert retrieve_chr(full, corpus, lam, 5).hits == full_hits


def test_retrieve_chr_stamps_method_and_lambda():
    rng = np.random.default_rng(7)
    corpus = random_corpus(rng, 10, 8)
    ranked = retrieve_chr(injected_pair(rng, 8), corpus, lam=0.8, k=3)
    assert ranked.method == "chr"
    assert ranked.lam == 0.8


@pytest.mark.parametrize("lam", [math.nan, math.inf])
def test_chr_scoring_rejects_a_weight_that_is_not_finite(lam):
    rng = np.random.default_rng(8)
    corpus = random_corpus(rng, 10, 8)
    pair = injected_pair(rng, 8)
    message = f"lambda must be nonnegative and finite, not {lam!r}"
    with pytest.raises(ValueError, match=message):
        retrieve_chr(pair, corpus, lam, 3)
    with pytest.raises(ValueError, match=message):
        shifted_query(pair, lam)


# ----------------------------------------------------------------------
# Memoized pair products
# ----------------------------------------------------------------------

def duplicate_row_corpus(seed: int, n: int = 203, dim: int = 24) -> tuple:
    """Raw rows where every row is one of 40 distinct vectors, shuffled.

    Exact duplicates make tie groups that only the id rule orders. n is not a
    multiple of 4, so some rows fall in the BLAS kernels' remainder; the
    references below compute their products the same way, so they check the
    memo and the selection, not whether BLAS scores identical rows alike.
    """
    rng = np.random.default_rng(seed)
    distinct = rng.standard_normal((40, dim))
    raw = distinct[rng.integers(0, 40, size=n)]
    ids = [f"d{i:04d}" for i in rng.permutation(n)]
    return ids, [f"text {i}" for i in range(n)], raw


def sweep_hits(pair: HypothesisPair, corpus: Corpus, k: int) -> list:
    return [retrieve_chr(pair, corpus, lam, k).hits for lam in (0.0, *DEFAULT_SWEEP_GRID)] + [
        retrieve_h_plus_only(pair, corpus, k).hits
    ]


def test_product_memo_alternating_pairs_match_fresh_corpora():
    ids, texts, raw = duplicate_row_corpus(11)
    rng = np.random.default_rng(12)
    pair_a = injected_pair(rng, 24)
    # B shares A's target and differs only in its mimic.
    pair_b = make_pair(h_plus_emb=pair_a.h_plus_emb.copy(), h_minus_emb=unit(rng, 24))
    shared = Corpus(ids, texts, raw)
    for pair in (pair_a, pair_b, pair_a, pair_b):
        assert sweep_hits(pair, shared, 7) == sweep_hits(pair, Corpus(ids, texts, raw), 7)


def test_product_memo_follows_in_place_mutation():
    ids, texts, raw = duplicate_row_corpus(13)
    rng = np.random.default_rng(14)
    corpus = Corpus(ids, texts, raw)
    pair = injected_pair(rng, 24)
    retrieve_chr(pair, corpus, 1.0, 5)
    for emb in (pair.h_minus_emb, pair.h_plus_emb):
        emb[:] = unit(rng, 24)
        assert sweep_hits(pair, corpus, 5) == sweep_hits(pair, Corpus(ids, texts, raw), 5)


def test_sweep_weights_match_full_sort_and_shifted_query():
    ids, texts, raw = duplicate_row_corpus(15)
    rng = np.random.default_rng(16)
    corpus = Corpus(ids, texts, raw)
    matrix = corpus.matrix.copy()
    position = {doc_id: row for row, doc_id in enumerate(ids)}
    k = 12
    ties_seen = 0
    for _ in range(5):
        pair = injected_pair(rng, 24)
        # Reference products from a fresh copy of the matrix, not the memo.
        a, b = matrix @ pair.h_plus_emb, matrix @ pair.h_minus_emb
        for lam in DEFAULT_SWEEP_GRID:
            hits = retrieve_chr(pair, corpus, lam, k).hits
            want = full_sort_top_k(ids, a - lam * b, k)
            assert [(i, s.hex()) for i, s in hits] == [(i, s.hex()) for i, s in want]
            via_query = corpus.matrix @ shifted_query(pair, lam)
            for doc_id, score in hits:
                assert abs(score - via_query[position[doc_id]]) <= 1e-12
            scores = [s for _, s in hits]
            ties_seen += len(scores) - len(set(scores))
    assert ties_seen > 0  # the check covered tie groups


def test_corpus_matrix_stays_read_only_after_retrieval():
    ids, texts, raw = duplicate_row_corpus(17)
    corpus = Corpus(ids, texts, raw)
    before = corpus.matrix.tobytes()
    pair = injected_pair(np.random.default_rng(18), 24)
    sweep_hits(pair, corpus, 5)
    assert not corpus.matrix.flags["WRITEABLE"]
    assert corpus.matrix.tobytes() == before
    with pytest.raises(ValueError):
        corpus.matrix[0, 0] = 0.0


def wrong_dimension_pair(rng, wrong: str) -> HypothesisPair:
    embs = {"h_plus": unit(rng, 8), "h_minus": unit(rng, 8)}
    embs[wrong] = unit(rng, 9)
    return make_pair(h_plus_emb=embs["h_plus"], h_minus_emb=embs["h_minus"])


def test_wrong_dimension_target_is_named():
    rng = np.random.default_rng(19)
    corpus = random_corpus(rng, 20, 8)
    pair = wrong_dimension_pair(rng, "h_plus")
    for lam in (0.0, 1.0):
        with pytest.raises(DimensionMismatchError, match="h_plus embedding"):
            retrieve_chr(pair, corpus, lam, 5)
    with pytest.raises(DimensionMismatchError, match="h_plus embedding"):
        retrieve_h_plus_only(pair, corpus, 5)


def test_wrong_dimension_mimic_is_named_only_where_it_is_used():
    rng = np.random.default_rng(19)
    corpus = random_corpus(rng, 20, 8)
    pair = wrong_dimension_pair(rng, "h_minus")
    for lam in DEFAULT_SWEEP_GRID:
        with pytest.raises(DimensionMismatchError, match="h_minus embedding"):
            retrieve_chr(pair, corpus, lam, 5)
    # Target-only scoring and lambda = 0 never read the mimic.
    plus = hex_hits(retrieve_h_plus_only(pair, corpus, 5))
    assert hex_hits(retrieve_chr(pair, corpus, 0.0, 5)) == plus
    target_only = make_pair(h_plus_emb=pair.h_plus_emb.copy())
    assert hex_hits(retrieve_h_plus_only(target_only, corpus, 5)) == plus


def test_wrong_dimension_query_is_named():
    rng = np.random.default_rng(21)
    corpus = random_corpus(rng, 20, 8)
    embedder = MockEmbedderBackend(dimension=9, seed=0)
    item = two_option_item()
    calls = (
        lambda: retrieve_standard(item, corpus, 5, embedder),
        lambda: retrieve_hyde(["a draft"], corpus, 5, embedder),
        lambda: retrieve_query2doc(item, "a pseudo document", corpus, 5, embedder),
    )
    message = r"query embedding has shape \(9,\), corpus dimension is 8"
    for call in calls:
        with pytest.raises(DimensionMismatchError, match=message):
            call()


def test_target_only_scoring_computes_no_mimic_product():
    rng = np.random.default_rng(20)
    corpus = random_corpus(rng, 30, 8)
    pair = injected_pair(rng, 8)
    retrieve_h_plus_only(pair, corpus, 5)
    retrieve_chr(pair, corpus, 0.0, 5)
    retrieve_chr(make_pair(h_plus_emb=unit(rng, 8)), corpus, 1.0, 5)
    assert corpus._mimic is None
    retrieve_chr(pair, corpus, 0.2, 5)
    assert corpus._mimic is not None


# ----------------------------------------------------------------------
# A pair's two products in one blocked pass
# ----------------------------------------------------------------------


def patch_block_rows(monkeypatch, rows: int, dim: int) -> None:
    monkeypatch.setattr(retrieval, "SCORING_BLOCK_BYTES", rows * 8 * dim)


def recorded_products(monkeypatch) -> list[tuple[int, bytes]]:
    """Record every product the scoring path makes as (block rows, vector bytes)."""
    calls = []
    matmul = np.matmul

    def recording(block, vector, **kwargs):
        calls.append((len(block), vector.tobytes()))
        return matmul(block, vector, **kwargs)

    monkeypatch.setattr(np, "matmul", recording)
    return calls


def blocked(vector: np.ndarray) -> list[tuple[int, bytes]]:
    """The products recorded for one vector over 30 rows in blocks of 8."""
    return [(8, vector.tobytes())] * 3 + [(6, vector.tobytes())]


@pytest.mark.parametrize("rows", (4, 8, 16))
@pytest.mark.parametrize("dim", (5, 8))
def test_blocked_pass_matches_whole_matrix_product_bits(monkeypatch, dim, rows):
    # N * dim stays small enough that OpenBLAS computes the reference
    # products on one thread, whatever OPENBLAS_NUM_THREADS says. N = rows + 1
    # and 2 * rows + 1 leave a one-row tail, which must join the block before.
    patch_block_rows(monkeypatch, rows, dim)
    assert retrieval._row_blocks(1003, dim)[0] == slice(0, rows)
    assert retrieval._row_blocks(2 * rows + 1, dim)[-1] == slice(rows, 2 * rows + 1)
    rng = np.random.default_rng(100 * dim + rows)
    sizes = sorted({1, 2, 3, rows - 1, rows, rows + 1, 2 * rows + 1, 2 * rows + 3, 203, 1003})
    for n in sizes:
        corpus = random_corpus(rng, n, dim)
        for _ in range(6):
            pair = injected_pair(rng, dim)
            a, b = corpus._products(h_plus=pair.h_plus_emb, h_minus=pair.h_minus_emb)
            assert a.tobytes() == (corpus.matrix @ pair.h_plus_emb).tobytes(), n
            assert b.tobytes() == (corpus.matrix @ pair.h_minus_emb).tobytes(), n


def test_a_pair_cold_in_both_products_takes_one_blocked_pass(monkeypatch):
    patch_block_rows(monkeypatch, 8, 8)
    rng = np.random.default_rng(22)
    corpus = random_corpus(rng, 30, 8)
    pair = injected_pair(rng, 8)
    plus, minus = pair.h_plus_emb.tobytes(), pair.h_minus_emb.tobytes()
    calls = recorded_products(monkeypatch)
    retrieve_chr(pair, corpus, 0.2, 5)
    assert calls == [(8, plus), (8, minus)] * 3 + [(6, plus), (6, minus)]
    for lam in DEFAULT_SWEEP_GRID:
        retrieve_chr(pair, corpus, lam, 5)
    retrieve_h_plus_only(pair, corpus, 5)
    assert len(calls) == 8


def test_a_warm_product_leaves_only_the_other_to_compute(monkeypatch):
    patch_block_rows(monkeypatch, 8, 8)
    ids, texts, raw = duplicate_row_corpus(23, 30, 8)
    rng = np.random.default_rng(23)
    corpus = Corpus(ids, texts, raw)
    pair = injected_pair(rng, 8)
    calls = recorded_products(monkeypatch)
    # a warm: target-only scoring first.
    retrieve_h_plus_only(pair, corpus, 5)
    retrieve_chr(pair, corpus, 0.2, 5)
    assert calls == blocked(pair.h_plus_emb) + blocked(pair.h_minus_emb)
    # b warm: a second pair sharing the mimic.
    second = make_pair(h_plus_emb=unit(rng, 8), h_minus_emb=pair.h_minus_emb.copy())
    calls.clear()
    hits = hex_hits(retrieve_chr(second, corpus, 0.4, 5))
    assert calls == blocked(second.h_plus_emb)
    assert hits == hex_hits(retrieve_chr(second, Corpus(ids, texts, raw), 0.4, 5))


def test_an_embedding_changed_between_weights_is_scored_afresh(monkeypatch):
    patch_block_rows(monkeypatch, 8, 8)
    ids, texts, raw = duplicate_row_corpus(24, 30, 8)
    rng = np.random.default_rng(24)
    corpus = Corpus(ids, texts, raw)
    pair = injected_pair(rng, 8)
    retrieve_chr(pair, corpus, 0.2, 5)
    calls = recorded_products(monkeypatch)
    for lam, emb in ((0.4, pair.h_minus_emb), (0.6, pair.h_plus_emb)):
        emb[:] = unit(rng, 8)
        calls.clear()
        hits = hex_hits(retrieve_chr(pair, corpus, lam, 5))
        assert calls == blocked(emb)
        assert hits == hex_hits(retrieve_chr(pair, Corpus(ids, texts, raw), lam, 5))


def test_memo_state_moves_no_score_bit_at_a_size_that_threads():
    # 4099 x 384 is large enough for OpenBLAS to thread a whole-matrix
    # product, whose bits then move between one and two threads near the
    # thread split and in the last rows. Blocked products have one set of
    # bits, so whatever the memos held, every score of a weight (k = n)
    # equals a fresh corpus's, alone or from a pass.
    n, dim = 4099, 384
    rng = np.random.default_rng(25)
    raw = rng.standard_normal((n, dim))
    ids, texts = [f"d{i:04d}" for i in range(n)], [""] * n
    corpus = Corpus(ids, texts, raw)
    first = injected_pair(rng, dim)
    second = make_pair(h_plus_emb=unit(rng, dim), h_minus_emb=first.h_minus_emb.copy())
    retrieve_h_plus_only(first, corpus, 5)  # a warm
    for pair in (first, second):  # then b warm
        fresh = Corpus(ids, texts, raw)
        assert hex_hits(retrieve_chr(pair, corpus, 0.4, n)) == hex_hits(
            retrieve_chr(pair, fresh, 0.4, n)
        )
        alone = hex_hits(retrieve_h_plus_only(pair, Corpus(ids, texts, raw), n))
        assert hex_hits(retrieve_h_plus_only(pair, fresh, n)) == alone


def test_increasing_target_similarity_never_lowers_rank():
    # Documents share the mimic component; the target component rises with i.
    pair = make_pair(h_plus_emb=[1.0, 0.0, 0.0], h_minus_emb=[0.0, 1.0, 0.0])
    fracs = (0.1, 0.3, 0.5, 0.7, 0.9)
    corpus = Corpus(
        [f"d{i}" for i in range(len(fracs))],
        ["t"] * len(fracs),
        [np.array([frac, 0.2, np.sqrt(1.0 - frac * frac - 0.04)]) for frac in fracs],
    )
    ranked = retrieve_chr(pair, corpus, lam=1.0, k=5)
    assert [h[0] for h in ranked.hits] == ["d4", "d3", "d2", "d1", "d0"]


def test_scaling_all_scores_preserves_order():
    rng = np.random.default_rng(8)
    corpus = random_corpus(rng, 50, 8)
    pair = injected_pair(rng, 8)
    base = retrieve_top_k(lambda row: contrastive_score(row, pair, 1.0), corpus, 5)
    scaled = retrieve_top_k(lambda row: 37.0 * contrastive_score(row, pair, 1.0), corpus, 5)
    assert [h[0] for h in base] == [h[0] for h in scaled]


def test_retrieve_standard_self_retrieval_and_determinism():
    embedder = MockEmbedderBackend(dimension=32, seed=0)
    stem = "unique query about tidal erosion markers"
    texts = [stem, "unrelated text about orchestras", "another note on gardening"]
    corpus = Corpus(
        [f"d{i}" for i in range(len(texts))], texts, [embedder.embed(t) for t in texts]
    )
    item = two_option_item(stem=stem)
    first = retrieve_standard(item, corpus, 2, embedder)
    assert first.hits[0][0] == "d0"
    assert first.hits[0][1] == pytest.approx(1.0, abs=1e-9)
    assert first == retrieve_standard(item, corpus, 2, embedder)
    assert first.method == "standard"


def test_retrieve_hyde_singleton_equals_h_plus_only():
    embedder = MockEmbedderBackend(dimension=32, seed=1)
    corpus = Corpus(
        [f"d{i}" for i in range(30)],
        [f"note {i}" for i in range(30)],
        [embedder.embed(f"note {i} body") for i in range(30)],
    )
    h_plus_text = "a very specific target hypothesis"
    pair = HypothesisPair(
        h_plus=h_plus_text,
        h_minus="",
        h_plus_emb=embedder.embed(h_plus_text),
        provenance="fallback",
    )
    hyde = retrieve_hyde([h_plus_text], corpus, 5, embedder)
    plus = retrieve_h_plus_only(pair, corpus, 5)
    assert [h[0] for h in hyde.hits] == [h[0] for h in plus.hits]


def test_retrieve_hyde_antipodal_hypotheses_surface_zero_vector():
    class AntipodalEmbedder:
        dimension = 4

        def embed(self, text):
            sign = 1.0 if text == "up" else -1.0
            return np.array([sign, 0.0, 0.0, 0.0])

    rng = np.random.default_rng(3)
    corpus = random_corpus(rng, 5, 4)
    with pytest.raises(ZeroVectorError):
        retrieve_hyde(["up", "down"], corpus, 3, AntipodalEmbedder())


def test_retrieve_hyde_requires_texts():
    rng = np.random.default_rng(4)
    corpus = random_corpus(rng, 5, 4)
    with pytest.raises(ValueError):
        retrieve_hyde([], corpus, 3, MockEmbedderBackend(dimension=4))


def test_retrieve_query2doc_concatenates_stem_and_pseudo_doc():
    embedder = MockEmbedderBackend(dimension=32, seed=2)
    item = two_option_item(stem="query about reef currents")
    combined = embedder.embed(item.stem + "\n\n" + "a pseudo document on reef currents")
    corpus = Corpus(
        ["match", "other"],
        ["combined evidence", "unrelated"],
        [combined, embedder.embed("opera seating chart")],
    )
    ranked = retrieve_query2doc(item, "a pseudo document on reef currents", corpus, 1, embedder)
    assert ranked.hits[0][0] == "match"
    assert ranked.method == "query2doc"


def test_retrieve_query2doc_rejects_empty_pseudo_doc():
    rng = np.random.default_rng(5)
    corpus = random_corpus(rng, 5, 4)
    with pytest.raises(ValueError):
        retrieve_query2doc(two_option_item(), "", corpus, 3, MockEmbedderBackend(dimension=4))


def test_retrieve_query2doc_stem_as_pseudo_doc_is_valid():
    embedder = MockEmbedderBackend(dimension=16, seed=6)
    item = two_option_item(stem="repeated stem words")
    rng = np.random.default_rng(6)
    corpus = random_corpus(rng, 10, 16)
    first = retrieve_query2doc(item, item.stem, corpus, 3, embedder)
    second = retrieve_query2doc(item, item.stem, corpus, 3, embedder)
    assert first == second
