from __future__ import annotations

import json
import os
import struct
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from contrastive_retrieval import dataio
from contrastive_retrieval.backends import HttpEmbedderBackend, MockEmbedderBackend
from contrastive_retrieval.dataio import (
    CACHE_MAGIC,
    CACHE_VERSION,
    NO_DIGEST,
    _iter_jsonl,
    cache_embeddings,
    load_cache,
    load_corpus,
    load_dataset,
    load_ratings,
    load_records,
    record_from_dict,
    record_to_dict,
    save_records,
    text_digest,
    write_json,
    write_text,
)
from contrastive_retrieval.errors import (
    BadMagicError,
    DimensionMismatchError,
    DuplicateIdError,
    EmbedderFailureError,
    InvalidAnswerKeyError,
    MalformedCacheError,
    MalformedLineError,
    NormDriftError,
    StaleEmbeddingError,
    TruncatedFileError,
    VersionMismatchError,
    ZeroVectorError,
)
from contrastive_retrieval.hypotheses import HypothesisPair
from contrastive_retrieval.synthdata import CORPUS_FILE, DATASET_FILE, RATINGS_FILE, bundled_path
from contrastive_retrieval.vectors import normalize
from bundled_data import save_dataset, save_ratings, write_bundled_data
from helpers import (
    cache_block,
    cache_file_bytes,
    make_record,
    reference_cache_bytes,
    reference_normalize_rows,
    scaled_rows,
    unit,
)
from http_faults import FaultServer, Reply

# Dimensions for the bit-identity checks: tiny, odd, and both sides of a
# BLAS kernel's unroll width.
ORACLE_DIMS = (2, 3, 64, 384, 385)


def write_lines(path, rows):
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")


class CountingEmbedder:
    """The mock embedder, counting calls and recording their texts; raises
    ``error`` on call ``fail_on``."""

    def __init__(self, dimension=8, seed=0, fail_on=None, error=EmbedderFailureError):
        self.inner = MockEmbedderBackend(dimension=dimension, seed=seed)
        self.model = self.inner.model
        self.calls = 0
        self.texts = []
        self.fail_on = fail_on
        self.error = error

    def embed(self, text):
        self.calls += 1
        self.texts.append(text)
        if self.calls == self.fail_on:
            raise self.error(f"embed call {self.calls} failed")
        return self.inner.embed(text)


# ----------------------------------------------------------------------
# Atomic writes
# ----------------------------------------------------------------------

def test_write_text_leaves_no_partial(tmp_path):
    target = tmp_path / "nested" / "note.txt"
    write_text(target, "hello")
    assert target.read_text(encoding="utf-8") == "hello"
    assert list(tmp_path.rglob("*.partial")) == []


def test_write_text_writes_utf8_bytes_unchanged(tmp_path):
    target = tmp_path / "note.txt"
    text = "caf\u00e9 \u03bb\r\nline two\n"
    write_text(target, text)
    assert target.read_bytes() == text.encode("utf-8")


def test_write_json_sorted_and_newline_terminated(tmp_path):
    target = tmp_path / "obj.json"
    write_json(target, {"b": 1, "a": 2})
    text = target.read_text(encoding="utf-8")
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')
    assert json.loads(text) == {"a": 2, "b": 1}


# ----------------------------------------------------------------------
# JSONL parse
# ----------------------------------------------------------------------

def per_line_parse(path):
    """The line-by-line loop ``_iter_jsonl`` must agree with."""
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise MalformedLineError(line_no, f"invalid JSON ({exc.msg})") from exc
            except RecursionError:
                raise MalformedLineError(line_no, "invalid JSON (nested too deeply)") from None
            if not isinstance(obj, dict):
                raise MalformedLineError(line_no, "expected a JSON object")
            yield line_no, obj


def parse_outcome(parse, path):
    """What ``parse`` yields, then its error's type, line and message, if any.

    Pairs are compared by repr, so NaN equals NaN and 1 differs from 1.0.
    """
    pairs = []
    try:
        for pair in parse(path):
            pairs.append(pair)
    except Exception as exc:  # the error is part of the outcome
        return repr(pairs), type(exc), getattr(exc, "line_no", None), str(exc)
    return repr(pairs)


GOOD = b'{"id": "a", "text": "x"}'
# Files whose lines a bulk parse could misread: each must give exactly what
# the per-line loop gives.
ADVERSARIAL_FILES = {
    "good": GOOD + b"\n" + GOOD.replace(b'"a"', b'"b"') + b"\n",
    "split_array_pair": b'{"id":"a","text":"x","e":[{}\n{}]}\n',
    "split_array_pair_with_comma": b'{"id":"a","text":"x","e":[{}\n,{}]}\n',
    "two_objects": b'{"a": 1}{"b": 2}\n',
    "two_objects_comma": b'{"a": 1},{"b": 2}\n',
    "two_objects_space": b'{"a": 1} {"b": 2}\n',
    "object_over_two_lines": b'{"id": "a",\n"text": "x"}\n',
    "unterminated_string": GOOD + b'\n{"id": "abc\n' + GOOD + b"\n",
    "unterminated_string_last_line": b'{"id": "abc',
    "control_character_in_string": b'{"a": "x\ty"}\n',
    "lone_brace_lines": b"{\n}\n",
    "cr_endings": GOOD + b"\r" + GOOD + b"\r\r",
    "crlf_endings": GOOD + b"\r\n\r\n" + GOOD + b"\r\n",
    "leading_bom": b"\xef\xbb\xbf" + GOOD + b"\n",
    "blank_space_tab": GOOD + b"\n \t\n" + GOOD + b"\n",
    "blank_form_feed": b"\x0c\n" + GOOD + b"\n",
    "blank_ideographic_space": "\u3000\n".encode() + GOOD + b"\n",
    "form_feed_before_object": b"\x0c" + GOOD + b"\n",
    "space_before_object": b" \t" + GOOD + b"\n",
    "spaces_and_tabs_after_object": GOOD + b" \t \n",
    "form_feed_after_object": GOOD + b"\x0c\n",
    "nan_and_infinity": b'{"a": NaN, "b": Infinity, "c": -Infinity}\n',
    "duplicate_keys": b'{"a": 1, "a": 2.0}\n',
    "top_level_array": GOOD + b"\n[1, 2]\n",
    "top_level_scalar": GOOD + b"\n3\n",
    "top_level_string": b'"text"\n',
    "malformed_line_2_ahead_of_bad_utf8": GOOD + b"\nnot json\n" + GOOD + b"\n\xff\n",
    # The bad byte lies beyond the first block a line-by-line reader decodes.
    "malformed_line_2_far_ahead_of_bad_utf8": (
        GOOD + b"\nnot json\n" + GOOD.replace(b'"x"', b'"' + b"x" * 20000 + b'"') + b"\n\xff\n"
    ),
    "bad_utf8_only": GOOD + b"\n\xc3(\n",
    "last_line_without_newline": GOOD + b"\n" + GOOD,
    "line_separators_inside_string": '{"a": "x\u2028y\x85z"}\n'.encode(),
    "integer_over_the_digit_limit": b'{"a": ' + b"1" * 5000 + b"}\n",
    "empty_file": b"",
    "blank_lines_only": b"\n\n \n",
    "missing_object_value": GOOD + b'\n{"id":"a","text": }\n',
    "trailing_comma_in_array": b'{"id":"a","text":"x","embedding":[0.1,]}\n',
    "cut_off_after_colon": GOOD + b'\n{"id":"a","text":',
}


def block_edge(before: bytes, after: bytes) -> bytes:
    """A file whose byte 8192 is the first byte of ``after``.

    One padding line comes first, so ``before`` starts a line.
    """
    pad = 8192 - len(before)
    return b'{"pad": "' + b"x" * (pad - 12) + b'"}\n' + before + after


# Files that cut a line, a line ending or a character at byte 8192, where a
# text-mode file ends the first block it decodes.
BLOCK_EDGE_FILES = {
    "line_across_blocks": block_edge(b'{"id": "a", "te', b'xt": "x"}\n' + GOOD + b"\n"),
    "line_ends_at_block_end": block_edge(GOOD + b"\n", GOOD + b"\n"),
    "crlf_across_blocks": block_edge(GOOD + b"\r", b"\n" + GOOD + b"\r\n"),
    "cr_at_block_end": block_edge(GOOD + b"\r", GOOD + b"\r"),
    "blank_line_across_blocks": block_edge(b" ", b"\t\n" + GOOD + b"\n"),
    "character_across_blocks": block_edge(b'{"id": "a", "text": "\xc3', b'\xa9"}\n'),
    "line_over_three_blocks": block_edge(b'{"id": "a", "text": "', b"x" * 20000 + b'"}\n' + GOOD),
    "object_over_two_lines_across_blocks": block_edge(b'{"id": "a",\n', b'"text": "x"}\n'),
    "no_newline_across_blocks": block_edge(b'{"id": "a", ', b'"text": "x"}'),
    "cut_off_after_colon_across_blocks": block_edge(b'{"id": "a", "text":', b" "),
    "malformed_line_then_bad_byte_in_next_block": block_edge(b"not json\n", b"\xff\n"),
    "bad_byte_in_next_block_then_malformed_line": block_edge(GOOD + b"\n", b"\xff\nnot json\n"),
    "malformed_line_two_blocks_ahead_of_bad_byte": block_edge(
        b"not json\n", (GOOD + b"\n") * 400 + b"\xff\n"
    ),
    "bad_byte_cut_at_block_end": block_edge(GOOD + b"\n\xe2\x82", b"(\n"),
    "character_cut_off_at_end_of_file": block_edge(GOOD + b"\n", b'{"a": "\xe2\x82'),
}


@pytest.mark.parametrize("content", ADVERSARIAL_FILES.values(), ids=ADVERSARIAL_FILES)
def test_iter_jsonl_matches_the_per_line_parse(tmp_path, content):
    path = tmp_path / "lines.jsonl"
    path.write_bytes(content)
    assert parse_outcome(_iter_jsonl, path) == parse_outcome(per_line_parse, path)


# Each id starts with the byte the file is cut at.
@pytest.mark.parametrize(
    "content", BLOCK_EDGE_FILES.values(), ids=[f"8192-{name}" for name in BLOCK_EDGE_FILES]
)
def test_iter_jsonl_matches_the_per_line_parse_at_block_edges(tmp_path, content):
    path = tmp_path / "lines.jsonl"
    path.write_bytes(content)
    assert parse_outcome(_iter_jsonl, path) == parse_outcome(per_line_parse, path)


def test_iter_jsonl_scans_one_line_at_a_time(tmp_path, monkeypatch):
    # The scanner sees each line on its own: no string of the whole file,
    # or of a block of it, is made.
    path = tmp_path / "lines.jsonl"
    path.write_bytes((GOOD + b"\n") * 2000)
    scanned: list[int] = []
    scan = dataio._scan_value

    def recording_scan(text, at):
        scanned.append(len(text))
        return scan(text, at)

    monkeypatch.setattr(dataio, "_scan_value", recording_scan)
    assert len(list(_iter_jsonl(path))) == 2000
    assert max(scanned) == len(GOOD) + 1


def test_iter_jsonl_deep_nesting_raises_the_per_line_error_type(tmp_path):
    # The recursion limit is met at another stack depth in the in-place
    # scan than in json.loads; either way the line is a malformed one.
    path = tmp_path / "lines.jsonl"
    path.write_bytes(b'{"a": ' + b'[{"a": ' * 1500 + b"1" + b"}]" * 1500 + b"}\n")
    ours, reference = parse_outcome(_iter_jsonl, path), parse_outcome(per_line_parse, path)
    assert ours[0] == reference[0]  # the same pairs ahead of the error
    assert ours[1] is reference[1] is MalformedLineError
    assert ours[2] == reference[2] == 1


def test_iter_jsonl_yields_a_line_before_reading_the_next(tmp_path):
    path = tmp_path / "lines.jsonl"
    path.write_bytes(GOOD + b"\nnot json\n")
    lines = _iter_jsonl(path)
    assert next(lines) == (1, {"id": "a", "text": "x"})
    with pytest.raises(MalformedLineError) as excinfo:
        next(lines)
    assert excinfo.value.line_no == 2


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
    assert np.allclose(corpus.matrix[0], [0.6, 0.8])
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
        ([{"id": "d1", "text": "a", "embedding": ["1", "2", "3"]}], MalformedLineError, 1),
        ([{"id": "d1", "text": "a", "embedding": [True, False, True]}], MalformedLineError, 1),
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
    # A cache written without texts or identity, as the benchmark writes
    # one, is taken by id: in file order, and in reverse.
    ids, raw = _oracle_rows(dim)
    ids[0] = "é-accented"
    path, cache_path = tmp_path / "corpus.jsonl", tmp_path / "emb.bin"
    write_lines(path, [{"id": doc_id, "text": f"text {doc_id}"} for doc_id in ids])
    stored = np.array([normalize(row) for row in raw]).astype("<f4")
    expected = reference_normalize_rows(stored, passes=1).tobytes()
    for order in (slice(None), slice(None, None, -1)):
        cache_embeddings(cache_path, dict(zip(ids[order], raw[order])))
        corpus = load_corpus(path, cache_path=cache_path)
        assert corpus.ids == tuple(ids)
        assert corpus.matrix.tobytes() == expected


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


def _two_docs(tmp_path, first="tidal erosion patterns"):
    path = tmp_path / "corpus.jsonl"
    write_lines(path, [
        {"id": "d1", "text": first},
        {"id": "d2", "text": "orchestra seating plans"},
    ])
    return path, tmp_path / "emb.bin"


def test_load_corpus_reembeds_a_document_whose_text_changed(tmp_path):
    path, cache_path = _two_docs(tmp_path)
    load_corpus(path, embedder=CountingEmbedder(), cache_path=cache_path)
    _two_docs(tmp_path, first="volcanic soil chemistry")
    edited = CountingEmbedder()
    corpus = load_corpus(path, embedder=edited, cache_path=cache_path)
    assert edited.calls == 1
    fresh = reference_normalize_rows([edited.inner.embed("volcanic soil chemistry")], passes=2)
    assert corpus.matrix[0].tobytes() == fresh[0].tobytes()
    again = CountingEmbedder()
    load_corpus(path, embedder=again, cache_path=cache_path)
    assert again.calls == 0


def test_load_corpus_without_embedder_rejects_a_stale_record(tmp_path):
    path, cache_path = _two_docs(tmp_path)
    load_corpus(path, embedder=CountingEmbedder(), cache_path=cache_path)
    write_lines(path, [
        {"id": "d1", "text": "tidal erosion patterns"},
        {"id": "d2", "text": "an edited passage"},
    ])
    with pytest.raises(StaleEmbeddingError, match="'d2'") as excinfo:
        load_corpus(path, cache_path=cache_path)
    assert excinfo.value.line_no == 2


def test_load_corpus_reembeds_under_another_mock_seed(tmp_path, capsys):
    path, cache_path = _two_docs(tmp_path)
    load_corpus(path, embedder=CountingEmbedder(seed=0), cache_path=cache_path)
    other = CountingEmbedder(seed=5)
    corpus = load_corpus(path, embedder=other, cache_path=cache_path)
    assert other.calls == 2
    texts = ["tidal erosion patterns", "orchestra seating plans"]
    expected = reference_normalize_rows([other.inner.embed(t) for t in texts], passes=2)
    assert corpus.matrix.tobytes() == expected.tobytes()
    assert f"{cache_path}: written by embedder {CountingEmbedder(seed=0).model!r}" in (
        capsys.readouterr().err
    )
    assert load_cache(cache_path).model == other.model


def test_load_corpus_reembeds_under_another_http_model(tmp_path):
    path, cache_path = _two_docs(tmp_path)
    server = FaultServer(Reply(body={"data": [{"embedding": [3.0, 4.0]}]}))
    try:
        for model, requests in (("model-a", 2), ("model-b", 2), ("model-b", 0)):
            before = len(server.requests)
            embedder = HttpEmbedderBackend(server.url("/v1/embeddings"), model)
            load_corpus(path, embedder=embedder, cache_path=cache_path)
            assert len(server.requests) - before == requests, model
    finally:
        server.close()


def _v1_cache_bytes(entries) -> bytes:
    """A version 1 cache: per record, id length, id and float32 vector."""
    dimension = len(next(iter(entries.values())))
    blob = CACHE_MAGIC + struct.pack("<IIQ", 1, dimension, len(entries))
    for doc_id, vec in entries.items():
        blob += struct.pack("<I", len(doc_id)) + doc_id.encode() + np.asarray(vec, "<f4").tobytes()
    return blob


def test_version_1_cache_is_rebuilt_with_an_embedder(tmp_path, capsys):
    path, cache_path = _two_docs(tmp_path)
    rng = np.random.default_rng(3)
    cache_path.write_bytes(_v1_cache_bytes({"d1": unit(rng, 8), "d2": unit(rng, 8)}))
    embedder = CountingEmbedder()
    load_corpus(path, embedder=embedder, cache_path=cache_path)
    assert embedder.calls == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(cache_path) in err
    assert load_cache(cache_path).ids == ["d1", "d2"]


def test_version_1_cache_without_an_embedder_asks_for_a_rebuild(tmp_path):
    path, cache_path = _two_docs(tmp_path)
    cache_path.write_bytes(_v1_cache_bytes({"d1": [1.0, 0.0], "d2": [0.0, 1.0]}))
    with pytest.raises(VersionMismatchError, match="chr-rag embed") as excinfo:
        load_corpus(path, cache_path=cache_path)
    assert excinfo.value.version == 1


@pytest.mark.parametrize("embedder", [CountingEmbedder(), None], ids=["embedder", "no_embedder"])
def test_all_inline_corpus_never_reads_a_version_1_cache(tmp_path, capsys, embedder):
    path, cache_path = tmp_path / "corpus.jsonl", tmp_path / "emb.bin"
    write_lines(path, [
        {"id": "d1", "text": "tides", "embedding": [1.0, 0.0]},
        {"id": "d2", "text": "reefs", "embedding": [0.0, 1.0]},
    ])
    blob = _v1_cache_bytes({"d1": [0.0, 1.0]})
    cache_path.write_bytes(blob)
    corpus = load_corpus(path, embedder=embedder, cache_path=cache_path)
    assert np.array_equal(corpus.matrix, [[1.0, 0.0], [0.0, 1.0]])
    assert cache_path.read_bytes() == blob
    assert capsys.readouterr().err == ""
    assert embedder is None or embedder.calls == 0


@pytest.mark.parametrize("error", [EmbedderFailureError, KeyboardInterrupt])
def test_interrupted_ingest_keeps_the_vectors_it_paid_for(tmp_path, error):
    path, cache_path = tmp_path / "corpus.jsonl", tmp_path / "emb.bin"
    write_lines(path, [{"id": f"d{i}", "text": f"passage {i} on tides"} for i in range(1, 7)])
    with pytest.raises(error):
        load_corpus(path, embedder=CountingEmbedder(fail_on=4, error=error), cache_path=cache_path)
    assert load_cache(cache_path).ids == ["d1", "d2", "d3"]
    assert list(tmp_path.glob("*.partial")) == []
    rerun = CountingEmbedder()
    load_corpus(path, embedder=rerun, cache_path=cache_path)
    assert rerun.calls == 3



def test_interrupted_http_ingest_keeps_the_documents_before_the_failing_one(tmp_path):
    path, cache_path = tmp_path / "corpus.jsonl", tmp_path / "emb.bin"
    texts = [f"passage {i} on tides" for i in range(1, 21)]
    write_lines(path, [{"id": f"d{i}", "text": text} for i, text in enumerate(texts, start=1)])
    mock = MockEmbedderBackend(dimension=8)
    replies = {text: Reply(body={"data": [{"embedding": mock.embed(text).tolist()}]})
               for text in texts}
    healthy = FaultServer(lambda payload: replies[payload["input"]])
    # Document 6 is refused for good, with later documents' calls in flight.
    refused = {**replies, texts[5]: Reply(400)}
    failing = FaultServer(lambda payload: refused[payload["input"]])
    try:
        with pytest.raises(EmbedderFailureError, match="HTTP 400"):
            load_corpus(path, embedder=HttpEmbedderBackend(failing.url(), "m", backoff_s=0.0),
                        cache_path=cache_path)
        assert len(failing.requests) >= 8  # documents after 6 were embedded too
        assert load_cache(cache_path).ids == [f"d{i}" for i in range(1, 6)]
        load_corpus(path, embedder=HttpEmbedderBackend(healthy.url(), "m"), cache_path=cache_path)
        assert sorted(r.payload["input"] for r in healthy.requests) == sorted(texts[5:])
    finally:
        failing.close()
        healthy.close()


def test_write_back_puts_the_corpus_first_and_keeps_other_records(tmp_path):
    path, cache_path = _two_docs(tmp_path)
    embedder = CountingEmbedder()
    cache_embeddings(cache_path, {"elsewhere": np.ones(8)}, model=embedder.model)
    load_corpus(path, embedder=embedder, cache_path=cache_path)
    cache = load_cache(cache_path)
    assert cache.ids == ["d1", "d2", "elsewhere"]
    assert cache.digest(1) == text_digest("orchestra seating plans")
    assert cache.digest(2) == NO_DIGEST


def test_drifted_hit_is_never_rewritten_and_fails_every_run(tmp_path):
    path, cache_path = _two_docs(tmp_path)
    embedder = CountingEmbedder()
    drifted = [("d1", text_digest("tidal erosion patterns"), [0.5] + [0.0] * 7)]
    cache_path.write_bytes(cache_file_bytes(drifted, embedder.model))
    before = cache_path.read_bytes()
    for _ in range(2):
        with pytest.raises(NormDriftError, match="'d1' has norm 0.50000000"):
            load_corpus(path, embedder=embedder, cache_path=cache_path)
        assert cache_path.read_bytes() == before
    assert embedder.calls == 0


@pytest.mark.parametrize("bad", [np.nan, 0.0])
def test_bad_record_outside_the_corpus_fails_before_any_embed(tmp_path, bad):
    path, cache_path = _two_docs(tmp_path)
    embedder = CountingEmbedder()
    planted = [("elsewhere", NO_DIGEST, [bad] + [0.0] * 7)]
    cache_path.write_bytes(cache_file_bytes(planted, embedder.model))
    before = cache_path.read_bytes()
    with pytest.raises(NormDriftError, match="'elsewhere'"):
        load_corpus(path, embedder=embedder, cache_path=cache_path)
    assert embedder.calls == 0 and cache_path.read_bytes() == before


def test_failed_write_back_does_not_replace_the_embedder_error(tmp_path):
    path, _ = _two_docs(tmp_path)
    (tmp_path / "not_a_dir").write_text("", encoding="utf-8")
    cache_path = tmp_path / "not_a_dir" / "emb.bin"
    with pytest.raises(EmbedderFailureError, match="embed call 2") as excinfo:
        load_corpus(path, embedder=CountingEmbedder(fail_on=2), cache_path=cache_path)
    assert any("1 new vectors were not kept" in note for note in excinfo.value.__notes__)


# ----------------------------------------------------------------------
# Cache matching: which record each row takes, and which row fails first
# ----------------------------------------------------------------------

MATCH_DIM = 6


def _match_case(tmp_path, rows, records, model=""):
    """Write a corpus and a cache; return the corpus path, the cache path and
    the matrix a row-by-row match gives.

    ``rows`` are ids; an id starting with "inline" carries its vector. A
    record is ``(id, digest)``, the digest one of "set" (the text's),
    "unset" or "stale" (another text's). Every id has its own unit vector;
    a row takes its record's float32 copy, or its inline vector scaled by
    the inline row's own factor, and an inline row is normalized twice, a
    cached one once.
    """
    names = sorted({*rows, *(doc_id for doc_id, _ in records)})
    rng = np.random.default_rng(11)
    vectors = {doc_id: unit(rng, MATCH_DIM) for doc_id in names}
    inline = {doc_id: vectors[doc_id] * rng.uniform(0.01, 100.0)
              for doc_id in rows if doc_id.startswith("inline")}
    digests = {
        "set": lambda doc_id: text_digest(f"text {doc_id}"),
        "unset": lambda doc_id: NO_DIGEST,
        "stale": lambda doc_id: text_digest("another text"),
    }
    path, cache_path = tmp_path / "corpus.jsonl", tmp_path / "emb.bin"
    write_lines(path, [
        {"id": doc_id, "text": f"text {doc_id}",
         **({"embedding": inline[doc_id].tolist()} if doc_id in inline else {})}
        for doc_id in rows
    ])
    cache_path.write_bytes(cache_file_bytes(
        [(doc_id, digests[kind](doc_id), vectors[doc_id]) for doc_id, kind in records], model
    ))
    expected = np.array([
        reference_normalize_rows([inline[doc_id]], passes=2)[0] if doc_id in inline
        else reference_normalize_rows([vectors[doc_id].astype("<f4")], passes=1)[0]
        for doc_id in rows
    ])
    return path, cache_path, expected


MATCH_CASES = {
    "reverse_order": (
        ["d1", "d2", "d3", "d4"],
        [("d4", "unset"), ("d3", "unset"), ("d2", "unset"), ("d1", "unset")],
    ),
    "extra_records": (
        ["d1", "d2", "d3"],
        [("x1", "unset"), ("d3", "unset"), ("x2", "stale"), ("d1", "unset"), ("d2", "unset"),
         ("x3", "set")],
    ),
    "mixed_digests": (
        ["d1", "d2", "d3", "d4"],
        [("d1", "set"), ("d2", "unset"), ("d3", "set"), ("d4", "unset")],
    ),
    "mixed_digests_shuffled": (
        ["d1", "d2", "d3", "d4"],
        [("d3", "set"), ("d1", "unset"), ("d4", "set"), ("d2", "unset")],
    ),
    "inline_between_cached": (["d1", "inline2", "d3"], [("d3", "unset"), ("d1", "unset")]),
    "inline_row_also_cached": (
        ["d1", "inline2", "d3"],
        [("d1", "unset"), ("inline2", "unset"), ("d3", "set")],
    ),
    "stale_record_after_set_rows": (
        ["d1", "d2", "d3"],
        [("d1", "set"), ("d2", "set"), ("x1", "stale"), ("d3", "unset")],
    ),
    "inline_row_cached_stale": (
        ["d1", "inline2", "d3"],
        [("d1", "set"), ("inline2", "stale"), ("d3", "unset")],
    ),
    "no_corpus_id_cached": (["inline1", "inline2"], [("x1", "set"), ("x2", "stale")]),
}


@pytest.mark.parametrize(("rows", "records"), MATCH_CASES.values(), ids=list(MATCH_CASES))
def test_cache_match_takes_each_row_from_its_own_record(tmp_path, rows, records):
    path, cache_path, expected = _match_case(tmp_path, rows, records)
    corpus = load_corpus(path, cache_path=cache_path)
    assert corpus.ids == tuple(rows)
    assert corpus.matrix.tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    ("rows", "records", "error"),
    [
        (["d1", "d2", "d3", "d4"], [("d1", "unset"), ("d3", "stale"), ("d4", "unset")],
         MalformedLineError),
        (["d1", "d2", "d3", "d4"], [("d1", "unset"), ("d2", "stale"), ("d4", "unset")],
         StaleEmbeddingError),
        (["d1", "d2", "d3", "d4"], [("d1", "set"), ("d2", "stale"), ("d3", "set"), ("d4", "set")],
         StaleEmbeddingError),
        (["inline1", "d2", "d3"], [("inline1", "stale"), ("d3", "stale")], MalformedLineError),
        (["inline1", "d2", "d3"], [("x1", "set"), ("x2", "unset")], MalformedLineError),
    ],
    ids=["row_2_missing_row_3_stale", "row_2_stale_row_3_missing", "row_2_stale_after_set_rows",
         "inline_row_1_cached_stale_row_2_missing", "no_corpus_id_cached"],
)
def test_cache_match_raises_for_the_first_bad_row(tmp_path, rows, records, error):
    path, cache_path, _ = _match_case(tmp_path, rows, records)
    with pytest.raises(error, match="'d2'") as excinfo:
        load_corpus(path, cache_path=cache_path)
    assert excinfo.value.line_no == 2


def test_cache_match_with_an_embedder_reuses_only_set_digests(tmp_path):
    embedder = CountingEmbedder(dimension=MATCH_DIM)
    rows = ["d1", "d2", "inline3", "d4", "d5"]
    records = [("d5", "set"), ("d4", "unset"), ("d2", "stale"), ("d1", "set")]
    path, cache_path, expected = _match_case(tmp_path, rows, records, embedder.model)
    fresh = reference_normalize_rows(
        [embedder.inner.embed(f"text {doc_id}") for doc_id in ("d2", "d4")], passes=2
    )
    expected[[1, 3]] = fresh
    corpus = load_corpus(path, embedder=embedder, cache_path=cache_path)
    assert embedder.calls == 2
    assert corpus.matrix.tobytes() == expected.tobytes()
    assert load_cache(cache_path).ids == ["d1", "d2", "d4", "d5"]


def _reference_match(rows, records, embedder, cached):
    """The cache rule, row by row in file order, for a ``_match_case`` layout.

    ``cached`` is the matrix ``_match_case`` gives, each row from its inline
    vector or its record. Returns the matrix bytes ``load_corpus`` must
    build and the texts it must embed, in order, or the type and line of the
    error it must raise. An inline row takes its own vector whatever the
    cache holds. Another row takes its record's vector when the record's
    digest is its text's, or, without an embedder, unset. Otherwise an
    embedder embeds it; without one the first such row fails,
    StaleEmbeddingError if it has a record, else MalformedLineError.
    """
    digests = dict(records)
    matrix, texts = [], []
    for line_no, doc_id in enumerate(rows, start=1):
        kind = digests.get(doc_id)
        if doc_id.startswith("inline") or kind == "set" or (kind == "unset" and embedder is None):
            matrix.append(cached[line_no - 1])
        elif embedder is not None:
            texts.append(f"text {doc_id}")
            matrix.append(reference_normalize_rows([embedder.inner.embed(texts[-1])], passes=2)[0])
        else:
            return StaleEmbeddingError if kind else MalformedLineError, line_no
    return np.array(matrix).tobytes(), texts


def test_cache_match_agrees_with_the_per_row_rule_on_random_mixes(tmp_path):
    # Inline, set, unset, stale and uncached rows, inline rows sometimes
    # cached too, and records of other ids, in a shuffled cache.
    rng = np.random.default_rng(25)
    for mix in range(100):
        rows, records = [], []
        for i in range(int(rng.integers(1, 9))):
            kind = rng.choice(["inline", "set", "unset", "stale", "uncached"])
            doc_id = f"inline{i}" if kind == "inline" else f"d{i}"
            rows.append(doc_id)
            if kind == "inline" and rng.random() < 0.5:
                kind = rng.choice(["set", "unset", "stale"])  # an inline row also cached
            if kind not in ("inline", "uncached"):
                records.append((doc_id, str(kind)))
        for i in range(int(rng.integers(0, 4))):
            records.append((f"x{i}", str(rng.choice(["set", "unset", "stale"]))))
        records = [records[j] for j in rng.permutation(len(records))]
        for embedder in (None, CountingEmbedder(dimension=MATCH_DIM)):
            model = embedder.model if embedder else ""
            path, cache_path, cached = _match_case(tmp_path, rows, records, model)
            expected = _reference_match(rows, records, embedder, cached)
            try:
                got = load_corpus(path, embedder=embedder, cache_path=cache_path).matrix.tobytes()
            except (StaleEmbeddingError, MalformedLineError) as exc:
                outcome = type(exc), exc.line_no
            else:
                outcome = got, embedder.texts if embedder else []
            assert outcome == expected, (mix, rows, records, model)


# ----------------------------------------------------------------------
# Streaming the vector block: chunk edges, error order, one file, write-back
# ----------------------------------------------------------------------

# Chunk sizes that put chunk edges inside, between and past the records.
CHUNK_ROWS = (1, 3, 7)


@pytest.mark.parametrize("chunk_rows", CHUNK_ROWS)
@pytest.mark.parametrize("dim", ORACLE_DIMS)
def test_load_corpus_from_cache_matrix_bits_in_chunks(tmp_path, monkeypatch, dim, chunk_rows):
    ids, raw = _oracle_rows(dim)
    ids[0] = "é-accented"
    path, cache_path = tmp_path / "corpus.jsonl", tmp_path / "emb.bin"
    write_lines(path, [{"id": doc_id, "text": f"text {doc_id}"} for doc_id in ids])
    for order in (slice(None), slice(None, None, -1)):
        cache_embeddings(cache_path, dict(zip(ids[order], raw[order])))
        with monkeypatch.context() as patched:
            patched.setattr(dataio, "CACHE_CHUNK_ROWS", chunk_rows)
            chunked = load_corpus(path, cache_path=cache_path).matrix.tobytes()
        assert chunked == load_corpus(path, cache_path=cache_path).matrix.tobytes()
    # The whole-block load is pinned by test_load_corpus_from_cache_matrix_bits.


@pytest.mark.parametrize("chunk_rows", CHUNK_ROWS)
@pytest.mark.parametrize("case", MATCH_CASES)
def test_cache_match_in_chunks_takes_each_row_from_its_own_record(
    tmp_path, monkeypatch, case, chunk_rows
):
    path, cache_path, expected = _match_case(tmp_path, *MATCH_CASES[case])
    with monkeypatch.context() as patched:
        patched.setattr(dataio, "CACHE_CHUNK_ROWS", chunk_rows)
        chunked = load_corpus(path, cache_path=cache_path).matrix.tobytes()
    whole = load_corpus(path, cache_path=cache_path).matrix.tobytes()
    assert chunked == whole == expected.tobytes()


def _block_layouts():
    """Corpora and cache orders that mix chunks converted in place with
    gathered ones, as ``_match_case`` rows and records.

    No cache holds a multiple of 3 or 7 records, so at each of CHUNK_ROWS
    the last chunk is partial, and each starts with a record the corpus
    lacks, so the first chunk is gathered even at one record. The records'
    digests are unset, for a load without an embedder.
    """
    rows = [f"d{i:02d}" for i in range(20)]
    unset = lambda ids: [(doc_id, "unset") for doc_id in ids]  # noqa: E731
    # Rows 8 and 9 trade places: the 7-record chunk at position 7 holds rows
    # 6, 7, 9, 8, 10, 11, 12, consecutive at both ends but not in order.
    swapped = rows[:8] + [rows[9], rows[8]] + rows[10:]
    inline = [f"inline{i:02d}" if i % 3 == 0 else doc_id for i, doc_id in enumerate(rows)]
    return {
        "permuted_with_equal_ends": (rows, unset(["x0", *swapped, "x1"])),
        "records_the_corpus_lacks_interleaved": (
            rows, unset(["x0", *rows[:6], "x1", *rows[6:13], "x2", *rows[13:]])
        ),
        "in_order_then_reversed": (rows, unset(["x0", *rows[:12], *rows[12:][::-1], "x1"])),
        "inline_rows_without_a_miss": (
            inline, unset(["x0", *(d for d in inline if d.startswith("d")), "x1", "x2"])
        ),
    }


BLOCK_LAYOUTS = _block_layouts()


@pytest.mark.parametrize("chunk_rows", CHUNK_ROWS)
@pytest.mark.parametrize("layout", BLOCK_LAYOUTS)
def test_chunks_in_place_and_gathered_give_the_per_row_bits(
    tmp_path, monkeypatch, layout, chunk_rows
):
    rows, records = BLOCK_LAYOUTS[layout]
    assert len(records) % 3 and len(records) % 7
    path, cache_path, expected = _match_case(tmp_path, rows, records)
    monkeypatch.setattr(dataio, "CACHE_CHUNK_ROWS", chunk_rows)
    corpus = load_corpus(path, cache_path=cache_path)
    assert corpus.ids == tuple(rows)
    assert corpus.matrix.tobytes() == expected.tobytes()


@pytest.mark.parametrize("chunk_rows", CHUNK_ROWS)
@pytest.mark.parametrize("layout", BLOCK_LAYOUTS)
def test_a_load_with_a_miss_keeps_the_hits_raw_for_the_write_back(
    tmp_path, monkeypatch, layout, chunk_rows
):
    # One new document: the hits must reach the write-back unnormalized, so
    # the rewritten file and the matrix are those of the record-by-record
    # reference, whichever way each chunk was read.
    embedder = CountingEmbedder(dimension=MATCH_DIM)
    rows, records = BLOCK_LAYOUTS[layout]
    rows, records = [*rows, "new"], [(doc_id, "set") for doc_id, _ in records]
    path, cache_path, expected = _match_case(tmp_path, rows, records, embedder.model)
    expected[-1] = reference_normalize_rows([embedder.inner.embed("text new")], passes=2)[0]
    old = tmp_path / "old.bin"
    old.write_bytes(cache_path.read_bytes())
    monkeypatch.setattr(dataio, "CACHE_CHUNK_ROWS", chunk_rows)
    corpus = load_corpus(path, embedder=embedder, cache_path=cache_path)
    assert embedder.texts == ["text new"]
    assert corpus.matrix.tobytes() == expected.tobytes()
    reused = {doc_id for doc_id in rows if doc_id.startswith("d")}
    assert cache_path.read_bytes() == _rewrite_reference(old, rows, embedder, reused, {"new"})


class _HugeFor:
    """The mock embedder, except that ``text`` embeds as a vector whose
    square sum overflows: its first pass divides it by inf, to zero."""

    def __init__(self, text):
        self.inner = MockEmbedderBackend(dimension=2, seed=0)
        self.model = self.inner.model
        self.text = text

    def embed(self, text):
        return [1e200, 1e200] if text == self.text else self.inner.embed(text)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("case", ["inline_only", "inline_beside_a_hit", "inline_beside_a_miss",
                                  "fresh_beside_a_hit"])
def test_a_row_zero_after_its_first_pass_is_named_in_every_load(tmp_path, case):
    embedder = _HugeFor("text bad" if case == "fresh_beside_a_hit" else None)
    rows = [{"id": "hit", "text": "text hit"}, {"id": "bad", "text": "text bad"}]
    if case.startswith("inline"):
        rows[1]["embedding"] = [1e200, 1e200]
    if case == "inline_only":
        rows[0]["embedding"] = [1.0, 2.0]
    if case == "inline_beside_a_miss":
        rows.append({"id": "miss", "text": "text miss"})
    path, cache_path = tmp_path / "corpus.jsonl", tmp_path / "emb.bin"
    write_lines(path, rows)
    cache_embeddings(cache_path, {"hit": embedder.inner.embed("text hit")},
                     {"hit": text_digest("text hit")}, embedder.model)
    with pytest.raises(ZeroVectorError, match="of 'bad' is zero"):
        load_corpus(path, embedder=embedder, cache_path=cache_path)


@pytest.mark.parametrize("chunk_rows", CHUNK_ROWS)
def test_drift_in_a_later_chunk_outside_the_corpus_fails_before_any_embed(
    tmp_path, monkeypatch, chunk_rows
):
    embedder = CountingEmbedder(dimension=MATCH_DIM)
    rng = np.random.default_rng(5)
    records = [(f"d{i}", text_digest(f"text d{i}"), unit(rng, MATCH_DIM)) for i in range(20)]
    records[15] = ("x15", NO_DIGEST, 0.5 * unit(rng, MATCH_DIM))
    records[17] = ("x17", NO_DIGEST, 2.0 * unit(rng, MATCH_DIM))
    path, cache_path = tmp_path / "corpus.jsonl", tmp_path / "emb.bin"
    write_lines(path, [{"id": doc_id, "text": f"text {doc_id}"} for doc_id in ("d0", "d1", "new")])
    cache_path.write_bytes(cache_file_bytes(records, embedder.model))
    before = cache_path.read_bytes()
    monkeypatch.setattr(dataio, "CACHE_CHUNK_ROWS", chunk_rows)
    with pytest.raises(NormDriftError, match="'x15' has norm 0.5000"):
        load_corpus(path, embedder=embedder, cache_path=cache_path)
    assert embedder.calls == 0 and cache_path.read_bytes() == before


@pytest.mark.parametrize("first_row", ["stale", "unknown"])
def test_norm_drift_comes_before_a_row_nothing_can_fill(tmp_path, first_row):
    # Without an embedder a stale record, or no record, is an error of its
    # own; a drifting record anywhere in the cache is still named first.
    path, cache_path = tmp_path / "corpus.jsonl", tmp_path / "emb.bin"
    write_lines(path, [{"id": doc_id, "text": f"text {doc_id}"} for doc_id in ("d1", "d2")])
    first = ("d1", text_digest("another text")) if first_row == "stale" else ("x1", NO_DIGEST)
    cache_path.write_bytes(cache_file_bytes([
        (*first, [1.0, 0.0]),
        ("d2", NO_DIGEST, [0.0, 1.0]),
        ("drifted", NO_DIGEST, [0.0, 0.5]),
    ]))
    with pytest.raises(NormDriftError, match="'drifted'"):
        load_corpus(path, cache_path=cache_path)


def test_a_cache_replaced_after_its_tables_are_read_is_not_mixed(tmp_path, monkeypatch):
    # A writer's os.replace between the tables and the block must not hand
    # the load the new file's vectors under the old file's tables.
    ids, raw = _oracle_rows(8)
    path, cache_path, other = tmp_path / "corpus.jsonl", tmp_path / "emb.bin", tmp_path / "new.bin"
    write_lines(path, [{"id": doc_id, "text": f"text {doc_id}"} for doc_id in ids])
    cache_embeddings(cache_path, dict(zip(ids, raw)))
    first = load_corpus(path, cache_path=cache_path).matrix.tobytes()
    cache_embeddings(other, dict(zip(ids, raw[::-1])))  # same layout, other vectors
    read_tables = dataio.load_cache

    def replaced_after_the_tables(*args, **kwargs):
        tables = read_tables(*args, **kwargs)
        os.replace(other, cache_path)
        return tables

    monkeypatch.setattr(dataio, "load_cache", replaced_after_the_tables)
    monkeypatch.setattr(dataio, "CACHE_CHUNK_ROWS", 7)
    assert load_corpus(path, cache_path=cache_path).matrix.tobytes() == first
    assert not other.exists()


def _rewrite_reference(old, rows, embedder, reused, embedded) -> bytes:
    """The cache the write-back must leave, built one record at a time.

    ``old`` is the cache before the load and ``rows`` the corpus ids, whose
    texts are "text <id>". The ids in ``reused`` keep their old record's
    float32 values, those in ``embedded`` get the embedder's vector, both in
    corpus order and with their text's digest; then every old record whose
    id is not among them follows, in file order, as it was.
    """
    cache, block = load_cache(old), cache_block(old)
    entries, digests = {}, {}
    for doc_id in rows:
        if doc_id in reused:
            entries[doc_id] = block[cache.ids.index(doc_id)]
        elif doc_id in embedded:
            entries[doc_id] = normalize(embedder.inner.embed(f"text {doc_id}"))
        else:
            continue
        digests[doc_id] = text_digest(f"text {doc_id}")
    for pos, doc_id in enumerate(cache.ids):
        if doc_id not in entries:
            entries[doc_id] = block[pos]
            digests[doc_id] = cache.digest(pos)
    return reference_cache_bytes(entries, digests, cache.model)


@pytest.mark.parametrize(
    ("rows", "records", "fail_on", "reused", "embedded"),
    [
        (["d1", "d2", "d3", "d4", "d5", "d6"],
         [("d5", "set"), ("d3", "set"), ("d1", "set")],
         None, {"d1", "d3", "d5"}, {"d2", "d4", "d6"}),
        (["d1", "d2", "d3", "d4"],
         [("x1", "unset"), ("d2", "set"), ("x2", "unset"), ("d4", "stale"), ("x3", "set")],
         None, {"d2"}, {"d1", "d3", "d4"}),
        (["d1", "inline2", "d3", "d4", "d5"],
         [("d4", "stale"), ("inline2", "set"), ("d1", "set"), ("x1", "unset")],
         2, {"d1"}, {"d3"}),
    ],
    ids=["partly_warm_reordered", "records_the_corpus_lacks", "embedder_fails_at_document_2"],
)
def test_write_back_in_chunks_writes_the_per_record_reference(
    tmp_path, monkeypatch, rows, records, fail_on, reused, embedded
):
    embedder = CountingEmbedder(dimension=MATCH_DIM, fail_on=fail_on)
    path, cache_path, _ = _match_case(tmp_path, rows, records, embedder.model)
    old = tmp_path / "old.bin"
    old.write_bytes(cache_path.read_bytes())
    monkeypatch.setattr(dataio, "CACHE_CHUNK_ROWS", 2)
    if fail_on is None:
        load_corpus(path, embedder=embedder, cache_path=cache_path)
    else:
        with pytest.raises(EmbedderFailureError):
            load_corpus(path, embedder=embedder, cache_path=cache_path)
    assert cache_path.read_bytes() == _rewrite_reference(old, rows, embedder, reused, embedded)


@pytest.mark.parametrize("order", ["cache_order", "reversed"])
def test_warm_load_peaks_at_the_matrix_plus_one_chunk(tmp_path, monkeypatch, order):
    n, dim, chunk_rows = 2000, 64, 100
    monkeypatch.setattr(dataio, "CACHE_CHUNK_ROWS", chunk_rows)
    ids = [f"d{i:04d}" for i in range(n)]
    path = tmp_path / "corpus.jsonl"
    write_lines(path, [{"id": doc_id, "text": f"text {doc_id}"}
                       for doc_id in (ids if order == "cache_order" else ids[::-1])])
    rng = np.random.default_rng(2)

    def peak(d):
        cache_path = tmp_path / f"emb{d}.bin"
        cache_embeddings(cache_path, dict(zip(ids, rng.standard_normal((n, d)))))
        tracemalloc.start()
        try:
            load_corpus(path, cache_path=cache_path)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # At dimension 1 a load holds the parsed JSONL, the cache's tables and
    # the corpus's index, which do not grow with the dimension, and next to
    # no vector bytes: that peak is the slack.
    slack = peak(1)
    matrix = n * dim * 8
    chunk = chunk_rows * dim * (4 + 8 + 8)  # float32 read, float64 copy, gathered rows
    assert peak(dim) <= matrix + chunk + slack


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


@pytest.mark.parametrize("answer", [["A"], {"A": "a"}, 1])
def test_load_dataset_rejects_an_answer_that_is_not_a_string(tmp_path, answer):
    path = tmp_path / "qa.jsonl"
    write_lines(path, [
        {"id": "q1", "question": "Q?", "options": {"A": "a", "B": "b"}, "answer": "A"},
        {"id": "q2", "question": "Q?", "options": {"A": "a", "B": "b"}, "answer": answer},
    ])
    with pytest.raises(MalformedLineError, match="answer must be a string or null") as excinfo:
        load_dataset(path)
    assert excinfo.value.line_no == 2


# ----------------------------------------------------------------------
# Binary embedding cache
# ----------------------------------------------------------------------

def test_cache_round_trip_within_float32(tmp_path):
    rng = np.random.default_rng(9)
    entries = {f"d{i}": unit(rng, 24) for i in range(5)}
    path = tmp_path / "emb.bin"
    cache_embeddings(path, entries, {"d1": text_digest("one")}, model="m")
    cache = load_cache(path)
    assert (cache.ids, cache.model, cache.dimension) == (list(entries), "m", 24)
    assert (cache.digest(0), cache.digest(1)) == (NO_DIGEST, text_digest("one"))
    vectors = cache_block(path)
    for pos, vec in enumerate(entries.values()):
        assert np.allclose(vectors[pos], normalize(vec), atol=1e-6)


def test_cache_normalizes_on_write(tmp_path):
    path = tmp_path / "emb.bin"
    cache_embeddings(path, {"d1": np.array([3.0, 4.0])})
    assert np.allclose(cache_block(path)[0], [0.6, 0.8], atol=1e-6)


@pytest.mark.parametrize("dim", ORACLE_DIMS)
def test_cache_bytes_and_values_match_per_record_reference(tmp_path, dim):
    ids, raw = _oracle_rows(dim)
    ids[0], ids[1] = "é-accented", "a-much-longer-document-identifier"
    entries = dict(zip(ids, raw))
    digests = {doc_id: text_digest(f"text {doc_id}") for doc_id in ids[::2]}
    path = tmp_path / "emb.bin"
    cache_embeddings(path, entries, digests, model="embedder-λ")
    assert path.read_bytes() == reference_cache_bytes(entries, digests, "embedder-λ")
    cache = load_cache(path)
    assert cache.ids == ids
    assert cache.digests == b"".join(digests.get(doc_id, NO_DIGEST) for doc_id in ids)
    stored = np.array([normalize(row) for row in raw]).astype("<f4")
    assert cache_block(path).tobytes() == stored.tobytes()


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
    with pytest.raises(VersionMismatchError) as excinfo:
        load_cache(path)
    assert excinfo.value.version == CACHE_VERSION + 1


def test_cache_truncations(tmp_path):
    # Header 24 B, identity 2, id lengths 8, ids 5, digests 64, padding 1,
    # vectors 16: 120 bytes.
    path = tmp_path / "emb.bin"
    cache_embeddings(path, {"d1": np.array([1.0, 0.0]), "d22": np.array([0.0, 1.0])}, model="mm")
    blob = path.read_bytes()
    assert len(blob) == 120
    cuts = {
        "header": 10,
        "embedder identity": 25,
        "id length table": 30,
        "id table": 36,
        "digest table": 100,
        "vector block": 117,
    }
    for part, size in cuts.items():
        path.write_bytes(blob[:size])
        with pytest.raises(TruncatedFileError, match=f": {part} cut short"):
            load_cache(path)
    path.write_bytes(blob + b"\x00")
    with pytest.raises(TruncatedFileError, match="1 unexpected trailing bytes"):
        load_cache(path)


def _load_from_planted_cache(tmp_path, records):
    """Load a corpus of the records' ids, in reverse, from a cache holding them as given."""
    path, cache_path = tmp_path / "corpus.jsonl", tmp_path / "emb.bin"
    write_lines(path, [{"id": doc_id, "text": f"text {doc_id}"} for doc_id, _ in reversed(records)])
    planted = [(doc_id, NO_DIGEST, values) for doc_id, values in records]
    cache_path.write_bytes(cache_file_bytes(planted))
    return load_corpus(path, cache_path=cache_path)


def test_cache_norm_drift(tmp_path):
    with pytest.raises(NormDriftError, match="norm 0.50000000"):
        _load_from_planted_cache(tmp_path, [("d1", [0.5, 0.0])])


def test_cache_norm_drift_names_first_drifting_entry(tmp_path):
    records = [("ok", [1.0, 0.0]), ("first", [0.0, 0.5]), ("second", [2.0, 0.0])]
    with pytest.raises(NormDriftError, match="'first'"):
        _load_from_planted_cache(tmp_path, records)


def test_cache_nan_entry_is_norm_drift(tmp_path):
    with pytest.raises(NormDriftError, match="'bad'"):
        _load_from_planted_cache(tmp_path, [("ok", [1.0, 0.0]), ("bad", [np.nan, 0.0])])


def test_cache_count_beyond_file_size_is_truncation(tmp_path):
    path = tmp_path / "emb.bin"
    blob = bytearray(cache_file_bytes([("d1", NO_DIGEST, [1.0, 0.0])]))
    blob[12:20] = struct.pack("<Q", 2**60)
    path.write_bytes(bytes(blob))
    with pytest.raises(TruncatedFileError, match="id length table"):
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


@pytest.mark.parametrize("key, value", [("correct", "false"), ("predicted", None)])
def test_load_records_rejects_a_field_of_the_wrong_type(tmp_path, key, value):
    # A truthy "false" would count as correct in every accuracy report.
    good = record_to_dict(make_record("q1", correct=False))
    path = tmp_path / "records.jsonl"
    write_lines(path, [good, {**good, key: value}])
    with pytest.raises(MalformedLineError, match=f"{key} must be ") as excinfo:
        load_records(path)
    assert excinfo.value.line_no == 2


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


# ----------------------------------------------------------------------
# Every loader names its file
# ----------------------------------------------------------------------

_DOCUMENT_LINE = '{"id": "a", "text": "t", "embedding": [1.0]}\n'
_QUESTION_LINE = '{"id": "a", "question": "q", "options": {"A": "x", "B": "y"}, "answer": "A"}\n'
_RECORD_LINE = json.dumps(record_to_dict(make_record("a", correct=True))) + "\n"
# Each loader's good first line, a second line it rejects, and the error.
_TWO_LINES = {
    load_corpus: (_DOCUMENT_LINE, _DOCUMENT_LINE, DuplicateIdError),
    load_dataset: (_QUESTION_LINE, _QUESTION_LINE, DuplicateIdError),
    load_records: (_RECORD_LINE, '{"item_id": "q1"}\n', MalformedLineError),
    load_ratings: ("a\tGood\n", "a\tGood\n", DuplicateIdError),
}
_LOADER_IDS = [load.__name__ for load in _TWO_LINES]


@pytest.mark.parametrize("load", _TWO_LINES, ids=_LOADER_IDS)
def test_each_loader_prefixes_its_path_to_a_line_error(tmp_path, load):
    # The error keeps its type and line number; only the message gains the path.
    first, second, error = _TWO_LINES[load]
    path = tmp_path / "data.in"
    path.write_text(first + second, encoding="utf-8")
    with pytest.raises(error) as excinfo:
        load(path)
    assert excinfo.value.line_no == 2
    assert str(excinfo.value).startswith(f"{path}: line 2: ")


@pytest.mark.parametrize("load", _TWO_LINES, ids=_LOADER_IDS)
def test_each_loader_names_a_file_that_is_not_utf8(tmp_path, load):
    path = tmp_path / "data.in"
    path.write_bytes(_TWO_LINES[load][0].encode("utf-8") + b"caf\xe9\n")
    with pytest.raises(ValueError) as excinfo:
        load(path)
    assert str(excinfo.value).startswith(f"{path}: not UTF-8 (")


def test_a_corpus_names_its_file_in_a_cache_match_or_dimension_error(tmp_path):
    path, cache_path, _ = _match_case(tmp_path, ["d1", "d2"], [("d1", "unset"), ("d2", "stale")])
    with pytest.raises(StaleEmbeddingError) as excinfo:
        load_corpus(path, cache_path=cache_path)
    assert excinfo.value.line_no == 2
    assert str(excinfo.value).startswith(f"{path}: line 2: the cached embedding of 'd2'")
    write_lines(path, [{"id": "d1", "text": "a", "embedding": [1.0, 0.0]},
                       {"id": "d2", "text": "b", "embedding": [1.0, 0.0, 0.0]}])
    with pytest.raises(DimensionMismatchError) as excinfo:
        load_corpus(path)
    assert str(excinfo.value) == f"{path}: line 2: embedding dimension 3 != 2"


@pytest.mark.parametrize(
    "embedder", [None, CountingEmbedder(dimension=2)], ids=["no_embedder", "embedder"]
)
def test_a_cache_that_stores_an_id_twice_is_rejected_by_name(tmp_path, embedder):
    # The last record used to win silently.
    path, cache_path = tmp_path / "corpus.jsonl", tmp_path / "emb.bin"
    write_lines(path, [{"id": doc_id, "text": f"text {doc_id}"} for doc_id in ("d1", "d2")])
    cache_path.write_bytes(cache_file_bytes(
        [(doc_id, text_digest(f"text {doc_id}"), vec)
         for doc_id, vec in (("d2", [0.0, 1.0]), ("d1", [1.0, 0.0]), ("d2", [0.6, 0.8]))],
        embedder.model if embedder else "",
    ))
    before = cache_path.read_bytes()
    with pytest.raises(MalformedCacheError) as excinfo:
        load_corpus(path, embedder=embedder, cache_path=cache_path)
    assert str(excinfo.value) == f"{cache_path}: id 'd2' is stored twice"
    assert cache_path.read_bytes() == before
    assert embedder is None or embedder.calls == 0


@pytest.mark.parametrize(
    ("planted", "named"), [(b"zz", "id b'\\xff\\xfe'"), (b"IDENT", "embedder identity")]
)
def test_a_cache_whose_tables_are_not_utf8_is_rejected_by_name(tmp_path, planted, named):
    path, cache_path = tmp_path / "corpus.jsonl", tmp_path / "emb.bin"
    write_lines(path, [{"id": "d1", "text": "text d1"}])
    blob = cache_file_bytes([("d1", NO_DIGEST, [1.0, 0.0]), ("zz", NO_DIGEST, [0.0, 1.0])], "IDENT")
    assert blob.count(planted) == 1
    cache_path.write_bytes(blob.replace(planted, b"\xff\xfe" + planted[2:]))
    expected = f"{cache_path}: {named} is not UTF-8"
    with pytest.raises(MalformedCacheError) as excinfo:
        load_cache(cache_path)
    assert str(excinfo.value) == expected
    with pytest.raises(MalformedCacheError) as excinfo:
        load_corpus(path, cache_path=cache_path)
    assert str(excinfo.value) == expected


# ----------------------------------------------------------------------
# Bundled data
# ----------------------------------------------------------------------

def test_write_bundled_data_reproduces_the_committed_files(tmp_path):
    # The CLI reads the committed files; the tests build from the generators.
    write_bundled_data(tmp_path)
    for name in (DATASET_FILE, CORPUS_FILE, RATINGS_FILE):
        assert (tmp_path / name).read_bytes() == bundled_path(name).read_bytes(), name
