from __future__ import annotations

import numpy as np
import pytest

from contrastive_retrieval.backends import MockEmbedderBackend
from contrastive_retrieval.errors import (
    DimensionMismatchError,
    DuplicateIdError,
    EmptyCorpusError,
    MissingEmbeddingError,
    UnknownDocIdError,
    ZeroVectorError,
)
from contrastive_retrieval.hypotheses import HypothesisPair
from contrastive_retrieval.retrieval import (
    Corpus,
    Document,
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
    docs = [
        Document(id="b", text="second", embedding=[0.0, 2.0]),
        Document(id="a", text="first", embedding=[3.0, 4.0]),
    ]
    corpus = Corpus.from_documents(docs)
    assert corpus.ids == ("b", "a")
    assert np.allclose(corpus.matrix[0], [0.0, 1.0])
    assert np.allclose(corpus.matrix[1], [0.6, 0.8])
    assert np.allclose(np.linalg.norm(corpus.matrix, axis=1), 1.0)
    assert corpus.get("a").text == "first"


def test_corpus_rejects_duplicates_empties_and_mixed_dims():
    doc = Document(id="a", text="t", embedding=[1.0, 0.0])
    with pytest.raises(DuplicateIdError):
        Corpus.from_documents([doc, Document(id="a", text="again", embedding=[0.0, 1.0])])
    with pytest.raises(EmptyCorpusError):
        Corpus.from_documents([])
    with pytest.raises(DimensionMismatchError):
        Corpus.from_documents([doc, Document(id="b", text="t", embedding=[1.0, 0.0, 0.0])])
    with pytest.raises(UnknownDocIdError):
        Corpus.from_documents([doc]).get("missing")


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
    docs = [Document(id=i, text=t, embedding=row) for i, t, row in zip(ids, texts, raw)]
    assert Corpus.from_documents(docs).matrix.tobytes() == expected


def test_corpus_builds_documents_on_demand():
    corpus = Corpus(["b", "a"], ["second", "first"], np.array([[0.0, 2.0], [3.0, 4.0]]))
    docs = list(corpus)
    assert [(d.id, d.text) for d in docs] == [("b", "second"), ("a", "first")]
    assert np.array_equal(docs[1].embedding, corpus.matrix[1])
    got = corpus.get("a")
    assert (got.id, got.text) == ("a", "first")
    assert np.array_equal(got.embedding, [0.6, 0.8])
    assert corpus.text("a") == "first"
    assert "a" in corpus and "c" not in corpus
    with pytest.raises(UnknownDocIdError):
        corpus.text("c")


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


# ----------------------------------------------------------------------
# Scoring
# ----------------------------------------------------------------------

def test_contrastive_score_identity_doc_with_orthogonal_mimic():
    pair = make_pair(h_plus_emb=[1.0, 0.0], h_minus_emb=[0.0, 1.0])
    doc = Document(id="d", text="t", embedding=[1.0, 0.0])
    assert contrastive_score(doc, pair, 1.0) == pytest.approx(1.0, abs=1e-12)


def test_contrastive_score_hand_value():
    pair = make_pair(h_plus_emb=[1.0, 0.0], h_minus_emb=[0.6, 0.8])
    doc = Document(id="d", text="t", embedding=[1.0, 0.0])
    assert contrastive_score(doc, pair, 1.0) == pytest.approx(0.4, abs=1e-12)


def test_contrastive_score_lambda_zero_is_plain_similarity():
    rng = np.random.default_rng(3)
    pair = injected_pair(rng, 8)
    doc = Document(id="d", text="t", embedding=unit(rng, 8))
    expected = float(np.dot(doc.embedding, pair.h_plus_emb))
    assert contrastive_score(doc, pair, 0.0) == pytest.approx(expected, abs=1e-12)


def test_contrastive_score_without_mimic_embedding():
    pair = make_pair(h_plus_emb=[1.0, 0.0])
    doc = Document(id="d", text="t", embedding=[0.6, 0.8])
    assert contrastive_score(doc, pair, 1.3) == pytest.approx(0.6, abs=1e-12)


def test_contrastive_score_errors():
    doc = Document(id="d", text="t", embedding=[1.0, 0.0])
    pair = make_pair(h_plus_emb=[1.0, 0.0], h_minus_emb=[0.0, 1.0])
    with pytest.raises(MissingEmbeddingError):
        contrastive_score(doc, HypothesisPair(h_plus="t", h_minus="m"), 1.0)
    with pytest.raises(ValueError):
        contrastive_score(doc, pair, -0.1)
    with pytest.raises(DimensionMismatchError):
        contrastive_score(Document(id="e", text="t", embedding=[1.0, 0.0, 0.0]), pair, 1.0)


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


def full_sort_top_k(ids, scores, k):
    """Independent oracle: sort every (id, score) pair in pure Python."""
    return sorted(zip(ids, map(float, scores)), key=lambda p: (-p[1], p[0]))[:k]


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
    hits = retrieve_top_k(lambda d: float(d.embedding[0]), corpus, k=5)
    assert len(hits) == 3
    scores = [s for _, s in hits]
    assert scores == sorted(scores, reverse=True)


def test_retrieve_top_k_matches_full_sort_oracle():
    rng = np.random.default_rng(1)
    corpus = random_corpus(rng, 100, 16)
    probe = unit(rng, 16)
    score = lambda d: float(np.dot(d.embedding, probe))
    hits = retrieve_top_k(score, corpus, k=5)
    oracle = sorted(
        ((doc.id, score(doc)) for doc in corpus), key=lambda p: (-p[1], p[0])
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

def test_retrieve_chr_lambda_zero_equals_h_plus_only():
    rng = np.random.default_rng(5)
    corpus = random_corpus(rng, 200, 16)
    pair = injected_pair(rng, 16)
    chr_hits = retrieve_chr(pair, corpus, lam=0.0, k=7).hits
    plus_hits = retrieve_h_plus_only(pair, corpus, k=7).hits
    assert chr_hits == plus_hits


def test_retrieve_chr_fallback_pair_equals_h_plus_only_at_any_lambda():
    rng = np.random.default_rng(6)
    corpus = random_corpus(rng, 150, 8)
    fallback = make_pair(h_plus_emb=unit(rng, 8))
    for lam in (0.0, 0.7, 1.4):
        assert retrieve_chr(fallback, corpus, lam, 5).hits == retrieve_h_plus_only(
            fallback, corpus, 5
        ).hits


def test_retrieve_chr_stamps_method_and_lambda():
    rng = np.random.default_rng(7)
    corpus = random_corpus(rng, 10, 8)
    ranked = retrieve_chr(injected_pair(rng, 8), corpus, lam=0.8, k=3)
    assert ranked.method == "chr"
    assert ranked.lam == 0.8


def test_increasing_target_similarity_never_lowers_rank():
    # Documents share the mimic component; the target component rises with i.
    pair = make_pair(h_plus_emb=[1.0, 0.0, 0.0], h_minus_emb=[0.0, 1.0, 0.0])
    docs = []
    for i, frac in enumerate((0.1, 0.3, 0.5, 0.7, 0.9)):
        vec = np.array([frac, 0.2, np.sqrt(1.0 - frac * frac - 0.04)])
        docs.append(Document(id=f"d{i}", text="t", embedding=vec))
    corpus = Corpus.from_documents(docs)
    ranked = retrieve_chr(pair, corpus, lam=1.0, k=5)
    assert [h[0] for h in ranked.hits] == ["d4", "d3", "d2", "d1", "d0"]


def test_scaling_all_scores_preserves_order():
    rng = np.random.default_rng(8)
    corpus = random_corpus(rng, 50, 8)
    pair = injected_pair(rng, 8)
    base = retrieve_top_k(lambda d: contrastive_score(d, pair, 1.0), corpus, 5)
    scaled = retrieve_top_k(lambda d: 37.0 * contrastive_score(d, pair, 1.0), corpus, 5)
    assert [h[0] for h in base] == [h[0] for h in scaled]


def test_retrieve_standard_self_retrieval_and_determinism():
    embedder = MockEmbedderBackend(dimension=32, seed=0)
    stem = "unique query about tidal erosion markers"
    texts = [stem, "unrelated text about orchestras", "another note on gardening"]
    docs = [
        Document(id=f"d{i}", text=t, embedding=embedder.embed(t))
        for i, t in enumerate(texts)
    ]
    corpus = Corpus.from_documents(docs)
    item = two_option_item(stem=stem)
    first = retrieve_standard(item, corpus, 2, embedder)
    assert first.hits[0][0] == "d0"
    assert first.hits[0][1] == pytest.approx(1.0, abs=1e-9)
    assert first == retrieve_standard(item, corpus, 2, embedder)
    assert first.method == "standard"


def test_retrieve_hyde_singleton_equals_h_plus_only():
    embedder = MockEmbedderBackend(dimension=32, seed=1)
    docs = [
        Document(id=f"d{i}", text=f"note {i}", embedding=embedder.embed(f"note {i} body"))
        for i in range(30)
    ]
    corpus = Corpus.from_documents(docs)
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
    docs = [
        Document(id="match", text="combined evidence", embedding=combined),
        Document(id="other", text="unrelated", embedding=embedder.embed("opera seating chart")),
    ]
    corpus = Corpus.from_documents(docs)
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
