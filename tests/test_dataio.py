from __future__ import annotations

import json
import struct
from dataclasses import replace

import numpy as np
import pytest

from contrastive_retrieval.backends import MockEmbedderBackend
from contrastive_retrieval.dataio import (
    CACHE_MAGIC,
    CACHE_VERSION,
    cache_embeddings,
    load_cache,
    load_corpus,
    load_dataset,
    load_ratings,
    load_records,
    record_from_dict,
    record_to_dict,
    save_corpus,
    save_dataset,
    save_ratings,
    save_records,
    write_json,
    write_text,
)
from contrastive_retrieval.errors import (
    BadMagicError,
    DimensionMismatchError,
    DuplicateIdError,
    InvalidAnswerKeyError,
    MalformedLineError,
    NormDriftError,
    TruncatedFileError,
    VersionMismatchError,
    ZeroVectorError,
)
from contrastive_retrieval.hypotheses import HypothesisPair
from contrastive_retrieval.vectors import normalize
from helpers import (
    make_record,
    reference_cache_bytes,
    reference_normalize_rows,
    scaled_rows,
    unit,
)

# Dimensions for the bit-identity checks: tiny, odd, and both sides of a
# BLAS kernel's unroll width.
ORACLE_DIMS = (2, 3, 64, 384, 385)


def write_lines(path, rows):
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")


class CountingEmbedder:
    def __init__(self, dimension=8, seed=0):
        self.inner = MockEmbedderBackend(dimension=dimension, seed=seed)
        self.calls = 0

    def embed(self, text):
        self.calls += 1
        return self.inner.embed(text)


# ----------------------------------------------------------------------
# Atomic writes
# ----------------------------------------------------------------------

def test_write_text_leaves_no_partial(tmp_path):
    target = tmp_path / "nested" / "note.txt"
    write_text(target, "hello")
    assert target.read_text(encoding="utf-8") == "hello"
    assert list(tmp_path.rglob("*.partial")) == []


def test_write_json_sorted_and_newline_terminated(tmp_path):
    target = tmp_path / "obj.json"
    write_json(target, {"b": 1, "a": 2})
    text = target.read_text(encoding="utf-8")
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')
    assert json.loads(text) == {"a": 2, "b": 1}


# ----------------------------------------------------------------------
# Corpus
# ----------------------------------------------------------------------

def test_load_corpus_inline_embeddings(tmp_path):
    path = tmp_path / "corpus.jsonl"
    write_lines(path, [
        {"id": "d1", "text": "alpha", "embedding": [3.0, 4.0]},
        {"id": "d2", "text": "beta", "embedding": [0.0, 2.0]},
        {"id": "d3", "text": "gamma", "embedding": [1.0, 1.0]},
    ])
    corpus = load_corpus(path)
    assert corpus.ids == ("d1", "d2", "d3")
    assert corpus.dimension == 2
    assert np.allclose(corpus.get("d1").embedding, [0.6, 0.8])
    assert np.allclose(np.linalg.norm(corpus.matrix, axis=1), 1.0)


def test_load_corpus_skips_blank_lines(tmp_path):
    path = tmp_path / "corpus.jsonl"
    line = json.dumps({"id": "d1", "text": "alpha", "embedding": [1.0, 0.0]})
    path.write_text(f"\n{line}\n\n", encoding="utf-8")
    assert len(load_corpus(path)) == 1


@pytest.mark.parametrize(
    ("rows", "error", "line_no"),
    [
        (
            [
                {"id": "d1", "text": "a", "embedding": [1.0, 0.0]},
                {"id": "d1", "text": "b", "embedding": [0.0, 1.0]},
            ],
            DuplicateIdError,
            2,
        ),
        ([{"id": "d1", "embedding": [1.0, 0.0]}], MalformedLineError, 1),
        ([{"text": "a", "embedding": [1.0, 0.0]}], MalformedLineError, 1),
        ([{"id": "d1", "text": "a", "embedding": "nope"}], MalformedLineError, 1),
        ([{"id": "d1", "text": "a", "embedding": [0.0, 0.0]}], MalformedLineError, 1),
        ([{"id": "d1", "text": "a"}], MalformedLineError, 1),
    ],
)
def test_load_corpus_rejects_bad_rows(tmp_path, rows, error, line_no):
    path = tmp_path / "corpus.jsonl"
    write_lines(path, rows)
    with pytest.raises(error) as excinfo:
        load_corpus(path)
    assert excinfo.value.line_no == line_no


def test_load_corpus_invalid_json_reports_line(tmp_path):
    path = tmp_path / "corpus.jsonl"
    good = json.dumps({"id": "d1", "text": "a", "embedding": [1.0, 0.0]})
    path.write_text(f"{good}\nnot json at all\n", encoding="utf-8")
    with pytest.raises(MalformedLineError) as excinfo:
        load_corpus(path)
    assert excinfo.value.line_no == 2


def test_load_corpus_mixed_dimensions(tmp_path):
    path = tmp_path / "corpus.jsonl"
    write_lines(path, [
        {"id": "d1", "text": "a", "embedding": [1.0, 0.0]},
        {"id": "d2", "text": "b", "embedding": [1.0, 0.0, 0.0]},
    ])
    with pytest.raises(DimensionMismatchError):
        load_corpus(path)


def test_load_corpus_embeds_and_caches(tmp_path):
    path = tmp_path / "corpus.jsonl"
    cache_path = tmp_path / "emb.bin"
    write_lines(path, [
        {"id": "d1", "text": "tidal erosion patterns"},
        {"id": "d2", "text": "orchestra seating plans"},
    ])
    first = CountingEmbedder()
    corpus = load_corpus(path, embedder=first, cache_path=cache_path)
    assert first.calls == 2
    assert cache_path.exists()

    second = CountingEmbedder()
    again = load_corpus(path, embedder=second, cache_path=cache_path)
    assert second.calls == 0
    assert np.allclose(corpus.matrix, again.matrix, atol=1e-6)


def _oracle_rows(dim: int):
    rng = np.random.default_rng(dim)
    raw = scaled_rows(rng, 150, dim)
    ids = [f"d{i:03d}" for i in rng.permutation(150)]
    return ids, raw


@pytest.mark.parametrize("dim", ORACLE_DIMS)
def test_load_corpus_inline_matrix_bits(tmp_path, dim):
    ids, raw = _oracle_rows(dim)
    path = tmp_path / "corpus.jsonl"
    write_lines(path, [
        {"id": doc_id, "text": f"text {doc_id}", "embedding": row.tolist()}
        for doc_id, row in zip(ids, raw)
    ])
    corpus = load_corpus(path)
    assert corpus.ids == tuple(ids)
    assert corpus.matrix.tobytes() == reference_normalize_rows(raw, passes=2).tobytes()


@pytest.mark.parametrize("dim", ORACLE_DIMS)
def test_load_corpus_from_cache_matrix_bits(tmp_path, dim):
    ids, raw = _oracle_rows(dim)
    path, cache_path = tmp_path / "corpus.jsonl", tmp_path / "emb.bin"
    write_lines(path, [{"id": doc_id, "text": f"text {doc_id}"} for doc_id in ids])
    cache_embeddings(cache_path, dict(zip(ids, raw)))
    stored = np.array([normalize(row) for row in raw]).astype("<f4")
    corpus = load_corpus(path, cache_path=cache_path)
    assert corpus.matrix.tobytes() == reference_normalize_rows(stored, passes=2).tobytes()


@pytest.mark.parametrize("dim", ORACLE_DIMS)
def test_load_corpus_mock_embedder_matrix_bits(tmp_path, dim):
    ids, _ = _oracle_rows(dim)
    texts = [f"passage about {doc_id} and tides" for doc_id in ids]
    path = tmp_path / "corpus.jsonl"
    write_lines(path, [{"id": i, "text": t} for i, t in zip(ids, texts)])
    embedder = MockEmbedderBackend(dimension=dim, seed=4)
    corpus = load_corpus(path, embedder=embedder)
    expected = reference_normalize_rows([embedder.embed(t) for t in texts], passes=2)
    assert corpus.matrix.tobytes() == expected.tobytes()


def test_save_corpus_round_trip(tmp_path):
    src = tmp_path / "src.jsonl"
    write_lines(src, [
        {"id": "d1", "text": "alpha", "embedding": [3.0, 4.0]},
        {"id": "d2", "text": "beta", "embedding": [0.0, 2.0]},
    ])
    corpus = load_corpus(src)
    out = tmp_path / "out.jsonl"
    save_corpus(out, corpus, with_embeddings=True)
    again = load_corpus(out)
    assert again.ids == corpus.ids
    assert np.allclose(again.matrix, corpus.matrix)
    bare = tmp_path / "bare.jsonl"
    save_corpus(bare, corpus)
    assert "embedding" not in bare.read_text(encoding="utf-8")


# ----------------------------------------------------------------------
# Dataset
# ----------------------------------------------------------------------

def test_load_dataset_and_round_trip(tmp_path):
    path = tmp_path / "qa.jsonl"
    write_lines(path, [
        {"id": "q1", "question": "Why?", "options": {"A": "one", "B": "two"},
         "answer": "B"},
        {"id": "q2", "question": "How?", "options": {"A": "x", "B": "y", "C": "z"},
         "answer": None},
    ])
    items = load_dataset(path)
    assert [item.id for item in items] == ["q1", "q2"]
    assert items[0].answer_key == "B"
    assert items[1].answer_key is None
    out = tmp_path / "copy.jsonl"
    save_dataset(out, items)
    assert load_dataset(out) == items


def test_load_dataset_validation(tmp_path):
    path = tmp_path / "qa.jsonl"
    write_lines(path, [
        {"id": "q1", "question": "Why?", "options": {"A": "one", "B": "two"}, "answer": "E"},
    ])
    with pytest.raises(InvalidAnswerKeyError):
        load_dataset(path)
    write_lines(path, [
        {"id": "q1", "question": "Why?", "options": {"A": "one", "B": 2}, "answer": "A"},
    ])
    with pytest.raises(MalformedLineError):
        load_dataset(path)
    write_lines(path, [
        {"id": "q1", "question": "Why?", "options": {"A": "1", "B": "2"}, "answer": "A"},
        {"id": "q1", "question": "Again?", "options": {"A": "1", "B": "2"}, "answer": "A"},
    ])
    with pytest.raises(DuplicateIdError):
        load_dataset(path)


# ----------------------------------------------------------------------
# Binary embedding cache
# ----------------------------------------------------------------------

def test_cache_round_trip_within_float32(tmp_path):
    rng = np.random.default_rng(9)
    entries = {f"d{i}": unit(rng, 24) for i in range(5)}
    path = tmp_path / "emb.bin"
    cache_embeddings(path, entries)
    loaded = load_cache(path)
    assert set(loaded) == set(entries)
    for doc_id, vec in entries.items():
        assert np.allclose(loaded[doc_id], normalize(vec), atol=1e-6)
        assert float(np.linalg.norm(loaded[doc_id])) == pytest.approx(1.0, abs=1e-12)


def test_cache_normalizes_on_write(tmp_path):
    path = tmp_path / "emb.bin"
    cache_embeddings(path, {"d1": np.array([3.0, 4.0])})
    assert np.allclose(load_cache(path)["d1"], [0.6, 0.8], atol=1e-6)


@pytest.mark.parametrize("dim", ORACLE_DIMS)
def test_cache_bytes_and_values_match_per_record_reference(tmp_path, dim):
    ids, raw = _oracle_rows(dim)
    ids[0], ids[1] = "é-accented", "a-much-longer-document-identifier"
    entries = dict(zip(ids, raw))
    path = tmp_path / "emb.bin"
    cache_embeddings(path, entries)
    assert path.read_bytes() == reference_cache_bytes(entries)
    loaded = load_cache(path)
    assert sorted(loaded) == sorted(ids)
    for doc_id in ids:
        stored = normalize(entries[doc_id]).astype("<f4").astype(np.float64)
        expected = stored / float(np.linalg.norm(stored))
        assert loaded[doc_id].tobytes() == expected.tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0])
def test_cache_write_rejects_bad_entry_by_id(tmp_path, bad):
    entries = {"a": np.array([1.0, 0.0]), "b": np.array([bad, 0.0])}
    with pytest.raises(ZeroVectorError, match="'b'"):
        cache_embeddings(tmp_path / "emb.bin", entries)


def test_cache_rejects_empty_and_mixed_dims(tmp_path):
    path = tmp_path / "emb.bin"
    with pytest.raises(ValueError):
        cache_embeddings(path, {})
    with pytest.raises(DimensionMismatchError):
        cache_embeddings(path, {"a": np.array([1.0, 0.0]), "b": np.array([1.0, 0.0, 0.0])})


def test_cache_bad_magic(tmp_path):
    path = tmp_path / "emb.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 20)
    with pytest.raises(BadMagicError):
        load_cache(path)


def test_cache_version_mismatch(tmp_path):
    path = tmp_path / "emb.bin"
    cache_embeddings(path, {"d1": np.array([1.0, 0.0])})
    blob = bytearray(path.read_bytes())
    blob[4:8] = struct.pack("<I", CACHE_VERSION + 1)
    path.write_bytes(bytes(blob))
    with pytest.raises(VersionMismatchError):
        load_cache(path)


def test_cache_truncations(tmp_path):
    path = tmp_path / "emb.bin"
    cache_embeddings(path, {"d1": np.array([1.0, 0.0]), "d2": np.array([0.0, 1.0])})
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) - 3])
    with pytest.raises(TruncatedFileError):
        load_cache(path)
    path.write_bytes(blob + b"\x00")
    with pytest.raises(TruncatedFileError):
        load_cache(path)
    path.write_bytes(blob[:10])
    with pytest.raises(TruncatedFileError):
        load_cache(path)


def test_cache_norm_drift(tmp_path):
    # Hand-built record holding a vector of norm 0.5, past the checker.
    path = tmp_path / "emb.bin"
    vec = np.array([0.5, 0.0], dtype="<f4")
    blob = (
        CACHE_MAGIC
        + struct.pack("<IIQ", CACHE_VERSION, 2, 1)
        + struct.pack("<I", 2)
        + b"d1"
        + vec.tobytes()
    )
    path.write_bytes(blob)
    with pytest.raises(NormDriftError):
        load_cache(path)


def _hand_built_cache(path, records, dimension=2):
    blob = CACHE_MAGIC + struct.pack("<IIQ", CACHE_VERSION, dimension, len(records))
    for doc_id, values in records:
        blob += struct.pack("<I", len(doc_id)) + doc_id.encode() + np.array(values, "<f4").tobytes()
    path.write_bytes(blob)


def test_cache_norm_drift_names_first_drifting_entry(tmp_path):
    path = tmp_path / "emb.bin"
    _hand_built_cache(path, [("ok", [1.0, 0.0]), ("first", [0.0, 0.5]), ("second", [2.0, 0.0])])
    with pytest.raises(NormDriftError, match="'first'"):
        load_cache(path)


def test_cache_nan_entry_is_norm_drift(tmp_path):
    path = tmp_path / "emb.bin"
    _hand_built_cache(path, [("ok", [1.0, 0.0]), ("bad", [np.nan, 0.0])])
    with pytest.raises(NormDriftError, match="'bad'"):
        load_cache(path)


def test_cache_count_beyond_file_size_is_truncation(tmp_path):
    path = tmp_path / "emb.bin"
    _hand_built_cache(path, [("d1", [1.0, 0.0])])
    blob = bytearray(path.read_bytes())
    blob[12:20] = struct.pack("<Q", 2**60)
    path.write_bytes(bytes(blob))
    with pytest.raises(TruncatedFileError):
        load_cache(path)


# ----------------------------------------------------------------------
# Evaluation records
# ----------------------------------------------------------------------

def test_records_round_trip(tmp_path):
    records = [
        make_record("q1", correct=True, doc_ids=("d1", "d2"), output_tokens=120),
        make_record("q2", correct=False, method="hyde"),
    ]
    path = tmp_path / "records.jsonl"
    save_records(path, records)
    assert load_records(path) == records


def test_record_dict_round_trip_keeps_pair_texts():
    pair = HypothesisPair(h_plus="the target", h_minus="the mimic", provenance="llm")
    record = replace(make_record("q1", correct=True), pair=pair, lam=0.8)
    data = record_to_dict(record)
    assert data["pair"] == {"h_plus": "the target", "h_minus": "the mimic",
                            "provenance": "llm"}
    assert data["lambda"] == 0.8
    restored = record_from_dict(json.loads(json.dumps(data)))
    assert restored.pair == pair
    assert restored.lam == 0.8
    assert restored.ranked == record.ranked


def test_load_records_bad_line(tmp_path):
    path = tmp_path / "records.jsonl"
    path.write_text('{"item_id": "q1"}\n', encoding="utf-8")
    with pytest.raises(MalformedLineError) as excinfo:
        load_records(path)
    assert excinfo.value.line_no == 1


# ----------------------------------------------------------------------
# Ratings
# ----------------------------------------------------------------------

def test_load_ratings_parses_tiers_comments_and_exclusions(tmp_path):
    path = tmp_path / "ratings.tsv"
    path.write_text(
        "# reviewer tiers\n"
        "q1\tExcellent\n"
        "\n"
        "q2\tGood\n"
        "q3\tPoor\n"
        "q4\texclude\n",
        encoding="utf-8",
    )
    ratings, exclusions = load_ratings(path)
    assert ratings == {"q1": "Excellent", "q2": "Good", "q3": "Poor"}
    assert exclusions == {"q4"}


def test_ratings_round_trip(tmp_path):
    path = tmp_path / "ratings.tsv"
    save_ratings(path, {"q2": "Good", "q1": "Poor"}, exclusions={"q9"})
    assert load_ratings(path) == ({"q1": "Poor", "q2": "Good"}, {"q9"})


@pytest.mark.parametrize(
    "text",
    [
        "q1\tExcellent\nq1\tGood\n",
        "q1\tExcellent\nq1\texclude\n",
        "q1\tSuperb\n",
        "q1 Excellent\n",
        "q1\tGood\textra\n",
    ],
)
def test_load_ratings_rejects_bad_lines(tmp_path, text):
    path = tmp_path / "ratings.tsv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises((MalformedLineError, DuplicateIdError)):
        load_ratings(path)
