"""File formats and persistence.

JSON-lines for everything human-diffable (corpora, datasets, evaluation
records), a compact little-endian binary file for the one large artifact
(the embedding cache), and tab-separated ratings. Writers go through a
``.partial`` temp file renamed into place, so an interrupted run leaves a
clearly-labeled partial artifact instead of a corrupt final one.

The embedding cache is content-addressed: each vector is stored with the
sha256 of the text it embeds, under the identity of the embedder that
wrote the file, so ingest reuses a vector only for the same text and the
same embedder (see ``load_corpus``). Its vectors are one float32 block,
which ingest streams in chunks of CACHE_CHUNK_ROWS records straight into
the corpus matrix.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import sys
from collections.abc import Iterable, Mapping, Sequence
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import BinaryIO

import numpy as np

from .analysis import EXCLUDE_TIER, RATING_TIERS
from .backends import EmbedderBackend, embed_each
from .costs import CostEntry
from .errors import (
    BadMagicError,
    DimensionMismatchError,
    DuplicateIdError,
    MalformedLineError,
    NormDriftError,
    StaleEmbeddingError,
    TruncatedFileError,
    VersionMismatchError,
)
from .hypotheses import HypothesisPair, QAItem
from .pipeline import EvalRecord
from .retrieval import Corpus, RankedResult
from .vectors import as_vector, normalize, normalize_rows, row_norms

CACHE_MAGIC = b"CHRE"
CACHE_VERSION = 2
# Unit norm must survive the float32 round-trip within this tolerance.
CACHE_NORM_TOL = 1e-5
DIGEST_SIZE = 32
# Records of the vector block read, converted and checked at a time: a warm
# load holds one chunk beside the corpus matrix, never the whole block.
CACHE_CHUNK_ROWS = 1024
# The digest of a record written without its text.
NO_DIGEST = bytes(DIGEST_SIZE)
# Magic, version, dimension, count, identity length; the identity follows.
_CACHE_HEADER = struct.Struct("<4sIIQI")


# ----------------------------------------------------------------------
# Atomic writes
# ----------------------------------------------------------------------

def write_text(path: str | Path, text: str) -> None:
    """Write ``text`` as UTF-8 through ``write_bytes``."""
    write_bytes(path, text.encode("utf-8"))


def write_json(path: str | Path, obj) -> None:
    write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def write_bytes(path: str | Path, blob: bytes) -> None:
    """Write via `<path>.partial` then rename, so readers never see a torn file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    partial = path.with_name(path.name + ".partial")
    partial.write_bytes(blob)
    os.replace(partial, path)


# The scanner ``json.loads`` runs, with the same settings.
_scan_value = json.JSONDecoder().scan_once


def _iter_jsonl(path: str | Path) -> Iterable[tuple[int, dict]]:
    """Yield ``(line number, object)`` for each non-blank line, lazily.

    The file is read as text, line by line, and a line that starts with
    ``{`` is scanned in place. The scanner's object is taken only when the
    rest of the line is spaces, tabs and the newline; any other line goes
    through ``_parse_line``, so what is rejected, where and why is what a
    per-line ``json.loads`` gives, at about half its cost.
    """
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if line.startswith("{"):
                try:
                    obj, end = _scan_value(line, 0)
                except (ValueError, RecursionError, StopIteration):
                    pass  # the per-line parse below raises the canonical error
                else:
                    if not line[end:].strip(" \t\n"):
                        yield line_no, obj
                        continue
            if (obj := _parse_line(line_no, line)) is not None:
                yield line_no, obj


def _parse_line(line_no: int, line: str) -> dict | None:
    """One JSONL line as an object, or None for a blank line."""
    if not line.strip():
        return None
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise MalformedLineError(line_no, f"invalid JSON ({exc.msg})") from exc
    except RecursionError:
        raise MalformedLineError(line_no, "invalid JSON (nested too deeply)") from None
    if not isinstance(obj, dict):
        raise MalformedLineError(line_no, "expected a JSON object")
    return obj


def _require(obj: dict, key: str, kind: type, line_no: int):
    value = obj.get(key)
    if not isinstance(value, kind) or (kind is str and not value):
        raise MalformedLineError(line_no, f"missing or invalid {key!r}")
    return value


# ----------------------------------------------------------------------
# Corpus and dataset ingestion
# ----------------------------------------------------------------------

def load_corpus(
    path: str | Path,
    embedder: EmbedderBackend | None = None,
    cache_path: str | Path | None = None,
) -> Corpus:
    """Read a JSONL corpus of {"id", "text", "embedding"?} objects.

    A document without an inline embedding takes its vector from the cache
    file when the cache holds a record for its id whose text digest equals
    the sha256 of its text, written by an embedder whose identity equals
    ``embedder.model``; every other document is embedded via ``embedder``.
    Without an embedder nothing can be re-embedded, so records are taken by
    id, but a record whose digest is set and differs from the text raises
    StaleEmbeddingError naming the document and its line. A version 1 cache
    has no digests: with an embedder it counts as empty (one stderr line),
    without one it raises VersionMismatchError. The cache file is read only
    when some document lacks an inline embedding. No file, a version 1 file
    with an embedder, another embedder's file and an all-inline corpus all
    give one empty ``CacheFile``, which no row can take a vector from.

    The cache's tables and its vector block are read through one open
    file. The block is streamed in chunks of CACHE_CHUNK_ROWS records: each
    chunk is converted to float64, every record in it is checked against
    unit norm, and the rows the corpus takes are copied into the one
    float64 matrix, so a warm load with nothing to embed peaks at that
    matrix plus one chunk. All of it happens before anything is embedded
    (NormDriftError names the first drifting record in file order, and
    comes before the errors of a document nothing can fill), so a bad
    record is never reused or written back.

    Newly embedded vectors are written back once, the corpus's documents in
    file order ahead of the file's other records. A reused row is rewritten
    from the matrix; the other records are set aside as the block streams,
    and only when some document is to be embedded. The misses are embedded
    through ``embed_each``, so an HTTP embedder gets several at once. If
    embedding fails at a document, the vectors of the documents before it
    are written the same way before the error propagates, so a rerun embeds
    only the rest; later documents whose calls had already finished are not
    kept. A failure to write is then noted on that error rather than
    replacing it.

    Inline and newly embedded vectors are normalized as they are read.
    ``Corpus`` normalizes the one matrix in bulk: a cached row's only pass.
    """
    ids: list[str] = []
    texts: list[str] = []
    inline: dict[int, np.ndarray] = {}
    lines: dict[str, int] = {}
    for line_no, obj in _iter_jsonl(path):
        doc_id = _require(obj, "id", str, line_no)
        text = _require(obj, "text", str, line_no)
        if doc_id in lines:
            raise DuplicateIdError(line_no, doc_id)
        lines[doc_id] = line_no
        raw = obj.get("embedding")
        if raw is not None:
            # bool is an int, and NumPy turns a string of digits into a number.
            if not isinstance(raw, list) or not set(map(type, raw)) <= {int, float}:
                raise MalformedLineError(line_no, "embedding must be an array of numbers")
            try:
                inline[len(ids)] = normalize(as_vector(raw))
            except Exception as exc:
                raise MalformedLineError(line_no, f"bad embedding ({exc})") from exc
        ids.append(doc_id)
        texts.append(text)

    reading = len(inline) < len(ids) and cache_path and Path(cache_path).exists()
    with open(cache_path, "rb") if reading else nullcontext() as fh:
        cache = _reusable_cache(fh, embedder)
        hit_rows, hit_pos, misses, fault = _match_cache(cache, embedder, ids, texts, lines, inline)
        matrix = np.empty((len(ids), cache.dimension))
        # Every record is checked before anything is embedded or rewritten.
        others = _read_block(fh, cache, matrix, hit_rows, hit_pos, bool(misses))
    if fault is not None:
        raise fault
    fresh: dict[int, np.ndarray] = {}

    def write_back() -> None:
        # A kept row is read from ``matrix`` before ``Corpus`` normalizes it:
        # it is its record's float32 values in float64, which holds them
        # exactly, so the rewrite stores the same bytes.
        if not (cache_path and fresh):
            return
        entries: dict[str, np.ndarray] = {}
        digests: dict[str, bytes] = {}
        for row in sorted([*hit_rows, *fresh]):
            entries[ids[row]] = fresh[row] if row in fresh else matrix[row]
            digests[ids[row]] = text_digest(texts[row])
        for pos, vec in others.items():
            doc_id = cache.ids[pos]
            if doc_id not in entries:
                entries[doc_id] = vec
                digests[doc_id] = cache.digest(pos)
        cache_embeddings(cache_path, entries, digests, embedder.model)

    try:
        for row, vec in zip(misses, embed_each(embedder, [texts[row] for row in misses])):
            fresh[row] = normalize(vec)
    except BaseException as exc:
        # Keep what was paid for, but never let the write hide the failure.
        try:
            write_back()
        except Exception as write_error:
            note = f"{cache_path}: the {len(fresh)} new vectors were not kept ({write_error})"
            # BaseException.add_note is 3.11+; the same list, set by hand, works on 3.10.
            exc.__notes__ = [*getattr(exc, "__notes__", ()), note]
        raise
    write_back()
    others = None  # the set-aside records are not needed past the write-back

    vectors = {**inline, **fresh}
    dimension = _check_dimensions(cache.dimension, vectors, ids, lines)
    if matrix.shape[1] != dimension:
        matrix = np.empty((len(ids), dimension))  # no row came from the cache
    for row, vec in vectors.items():
        matrix[row] = vec
    return Corpus(ids, texts, matrix, _adopt=True)


def _reusable_cache(fh: BinaryIO | None, embedder: EmbedderBackend | None) -> CacheFile:
    """The tables of the cache open as ``fh``; an empty cache when there is no
    file, or when ``embedder`` may not reuse its records."""
    empty = CacheFile(model="", ids=[], digests=b"", dimension=0)
    if fh is None:
        return empty
    try:
        cache = load_cache(fh)
    except VersionMismatchError as exc:
        if embedder is None or exc.version != 1:
            raise
        print(f"{fh.name}: version 1 cache has no text digests; re-embedding every document",
              file=sys.stderr)
        return empty
    if embedder is not None and cache.model != embedder.model:
        print(f"{fh.name}: written by embedder {cache.model!r}, not {embedder.model!r}; "
              f"re-embedding every document", file=sys.stderr)
        return empty
    return cache


def _match_cache(
    cache: CacheFile,
    embedder: EmbedderBackend | None,
    ids: list[str],
    texts: list[str],
    lines: dict[str, int],
    inline: dict[int, np.ndarray],
) -> tuple[list[int], list[int], list[int], Exception | None]:
    """Split the documents without an inline embedding into hits and misses.

    Returns the hit rows, their cache positions and the miss rows, all in
    file order, and the error for the first row nothing can fill. Each id is
    looked up once. Without an embedder a record whose digest is unset is
    taken by id. The texts of the other rows with a record are hashed into
    one buffer and compared with their records' digests in one step. The
    rows then neither hit nor inline are the misses; without an embedder
    the first is the error instead (StaleEmbeddingError if its id has a
    record, else MalformedLineError), returned, not raised, so that a
    drifting record in the block still raises first.
    """
    if cache.ids == ids:
        pos = np.arange(len(ids))  # the order the write-back leaves
    else:
        index = dict(zip(cache.ids, range(len(cache.ids))))
        pos = np.array([index.get(doc_id, -1) for doc_id in ids], dtype=np.intp)
    is_inline = np.zeros(len(ids), dtype=bool)
    is_inline[list(inline)] = True
    found = (pos >= 0) & ~is_inline
    hit = np.zeros(len(ids), dtype=bool)
    if embedder is None:
        unset = ~np.frombuffer(cache.digests, np.uint8).reshape(-1, DIGEST_SIZE).any(1)
        hit[found] = unset[pos[found]]
    compare = np.flatnonzero(found & ~hit)
    computed = b"".join(text_digest(texts[row]) for row in compare.tolist())
    stored = np.frombuffer(cache.digests, f"V{DIGEST_SIZE}")[pos[compare]]
    hit[compare] = stored == np.frombuffer(computed, f"V{DIGEST_SIZE}")
    rest = np.flatnonzero(~(hit | is_inline)).tolist()
    hit_rows = np.flatnonzero(hit)
    hits = hit_rows.tolist(), pos[hit_rows].tolist()
    if embedder is not None or not rest:
        return *hits, rest, None
    doc_id = ids[rest[0]]
    if pos[rest[0]] >= 0:
        return *hits, [], StaleEmbeddingError(lines[doc_id], doc_id)
    return *hits, [], MalformedLineError(
        lines[doc_id], f"document {doc_id!r} has no embedding and no embedder is configured"
    )


def _read_block(
    fh: BinaryIO | None,
    cache: CacheFile,
    matrix: np.ndarray,
    hit_rows: list[int],
    hit_pos: list[int],
    keep_others: bool,
) -> dict[int, np.ndarray]:
    """Stream the vector block from ``fh`` into ``matrix``, CACHE_CHUNK_ROWS records at a time.

    Each chunk is converted to float64 and every record in it is checked
    against unit norm: NormDriftError names the first record, in file
    order, whose stored norm strayed from 1 by more than CACHE_NORM_TOL (a
    NaN norm strays too), whichever document it holds. The chunk's hit rows
    are then copied into ``matrix``, not yet normalized. With
    ``keep_others``, the float32 rows of the records no hit takes are
    returned by position, for the write-back; otherwise nothing is kept.
    An empty cache has no block, so nothing is read and ``fh`` may be None.
    """
    count, dimension = len(cache.ids), cache.dimension
    order = np.argsort(hit_pos)
    src = np.array(hit_pos, dtype=np.intp)[order]
    dst = np.array(hit_rows, dtype=np.intp)[order]
    # The positions no hit takes; np.setdiff1d would import numpy.ma (1.3 MB of RSS).
    other_pos = np.flatnonzero(np.bincount(src, minlength=count) == 0) if keep_others else src[:0]
    others = np.empty((len(other_pos), dimension), dtype="<f4")
    stored = np.empty((min(count, CACHE_CHUNK_ROWS), dimension), dtype="<f4")
    converted = np.empty(stored.shape)
    for start in range(0, count, CACHE_CHUNK_ROWS):
        n = min(CACHE_CHUNK_ROWS, count - start)
        chunk = stored[:n]
        if fh.readinto(chunk) != chunk.nbytes:
            raise TruncatedFileError(f"{fh.name}: vector block cut short")
        chunk64 = converted[:n]
        chunk64[...] = chunk
        norms = row_norms(chunk64)
        drift = ~(np.abs(norms - 1.0) <= CACHE_NORM_TOL)
        if drift.any():
            at = int(np.argmax(drift))
            raise NormDriftError(
                f"{fh.name}: entry {cache.ids[start + at]!r} has norm {norms[at]:.8f}"
            )
        a, b = np.searchsorted(src, (start, start + n))
        matrix[dst[a:b]] = chunk64[src[a:b] - start]
        a, b = np.searchsorted(other_pos, (start, start + n))
        others[a:b] = chunk[other_pos[a:b] - start]
    return dict(zip(other_pos.tolist(), others))


def _check_dimensions(
    cached: int,
    vectors: dict[int, np.ndarray],
    ids: list[str],
    lines: dict[str, int],
) -> int:
    """The corpus dimension; DimensionMismatchError names the first row that differs.

    A row has its vector's dimension if it is in ``vectors``, else it is a
    cache hit, of the cache's dimension ``cached``.
    """
    if not ids:
        return 0  # no documents: Corpus raises EmptyCorpusError
    dims = np.full(len(ids), cached)
    dims[list(vectors)] = [vec.shape[0] for vec in vectors.values()]
    bad = np.flatnonzero(dims != dims[0])
    if bad.size:
        row = bad[0]
        raise DimensionMismatchError(
            f"line {lines[ids[row]]}: embedding dimension {dims[row]} != {dims[0]}"
        )
    return int(dims[0])


def load_dataset(path: str | Path) -> list[QAItem]:
    """Read a JSONL dataset of {"id", "question", "options", "answer"} objects."""
    items: list[QAItem] = []
    seen: dict[str, int] = {}
    for line_no, obj in _iter_jsonl(path):
        item_id = _require(obj, "id", str, line_no)
        question = _require(obj, "question", str, line_no)
        options = _require(obj, "options", dict, line_no)
        if item_id in seen:
            raise DuplicateIdError(line_no, item_id)
        seen[item_id] = line_no
        if not all(isinstance(k, str) and isinstance(v, str) for k, v in options.items()):
            raise MalformedLineError(line_no, "options must map letters to strings")
        answer = obj.get("answer")
        if answer is not None and not isinstance(answer, str):
            raise MalformedLineError(line_no, "answer must be a string or null")
        items.append(QAItem(id=item_id, stem=question, options=dict(options), answer_key=answer))
    return items


# ----------------------------------------------------------------------
# Binary embedding cache
# ----------------------------------------------------------------------

def text_digest(text: str) -> bytes:
    """The sha256 of ``text`` as UTF-8: the key a cached vector is reused under."""
    return hashlib.sha256(text.encode("utf-8")).digest()


@dataclass(frozen=True)
class CacheFile:
    """A cache file's tables as read: its records in file order, not yet verified.

    ``digests`` holds DIGEST_SIZE bytes per record, NO_DIGEST for a record
    written without its text. The vector block is not held here:
    ``load_corpus`` streams it from the file these tables were read from.
    """

    model: str
    ids: list[str]
    digests: bytes
    dimension: int

    def digest(self, pos: int) -> bytes:
        return self.digests[pos * DIGEST_SIZE : (pos + 1) * DIGEST_SIZE]


def cache_embeddings(
    path: str | Path,
    entries: Mapping[str, np.ndarray],
    digests: Mapping[str, bytes] | None = None,
    model: str = "",
) -> None:
    """Write vectors as a version 2 cache, one record per entry in mapping order.

    ``digests`` maps an id to the ``text_digest`` of the text its vector
    embeds; an id without one is written with NO_DIGEST. ``model`` is the
    identity of the embedder that produced the vectors. The vectors are
    stacked, normalized and converted to float32 in bulk.

    Layout, little-endian: magic "CHRE", version u32, dimension u32, count
    u64, identity length u32 and the identity's utf-8 bytes; then the id
    lengths (u32 each), the utf-8 id bytes, the digests (DIGEST_SIZE bytes
    each), zero padding to a multiple of 4 bytes, and one count x dimension
    float32 block.
    """
    if not entries:
        raise ValueError("refusing to write an empty embedding cache")
    ids = list(entries)
    vectors = [np.asarray(entries[doc_id], dtype=np.float64) for doc_id in ids]
    dimension = as_vector(vectors[0]).shape[0]
    for doc_id, vec in zip(ids, vectors):
        if vec.shape != (dimension,):
            raise DimensionMismatchError(
                f"entry {doc_id!r} has shape {vec.shape}, expected ({dimension},)"
            )
    block = normalize_rows(np.array(vectors), ids).astype("<f4")
    encoded = [doc_id.encode("utf-8") for doc_id in ids]
    identity = model.encode("utf-8")
    digests = digests or {}
    chunks = [
        _CACHE_HEADER.pack(CACHE_MAGIC, CACHE_VERSION, dimension, len(ids), len(identity)),
        identity,
        np.array([len(e) for e in encoded], dtype="<u4").tobytes(),
        *encoded,
        *(digests.get(doc_id, NO_DIGEST) for doc_id in ids),
    ]
    chunks.append(bytes(-sum(map(len, chunks)) % 4))
    chunks.append(memoryview(block).cast("B"))
    write_bytes(path, b"".join(chunks))


def load_cache(file: str | Path | BinaryIO) -> CacheFile:
    """Read a version 2 cache's header and tables, and not its vector block.

    ``file`` is a path, or a binary file open at its start; an open file is
    left at the first byte of the block, for ``load_corpus`` to stream.
    Checks the magic and the version, then every part's size against the
    file's length before anything is allocated; TruncatedFileError names the
    part that is cut short, or the bytes left over. A version 1 file raises
    VersionMismatchError: it has no digests and no identity, so nothing in
    it can be verified. The vectors are checked as ingest reads them.
    """
    if isinstance(file, (str, os.PathLike)):
        with open(file, "rb") as fh:
            return load_cache(fh)
    path, size = file.name, os.fstat(file.fileno()).st_size
    tables = file.read(_CACHE_HEADER.size)
    if tables[:4] != CACHE_MAGIC:
        raise BadMagicError(f"{path}: not an embedding cache (magic {tables[:4]!r})")
    if len(tables) >= 8:
        (version,) = struct.unpack_from("<I", tables, 4)
        if version != CACHE_VERSION:
            hint = "; rebuild it with `chr-rag embed`" if version == 1 else ""
            raise VersionMismatchError(
                f"{path}: cache version {version}, expected {CACHE_VERSION}{hint}", version
            )
    if len(tables) < _CACHE_HEADER.size:
        raise TruncatedFileError(f"{path}: header cut short")
    _, _, dimension, count, identity_len = _CACHE_HEADER.unpack(tables)
    offset = _CACHE_HEADER.size + identity_len
    if offset > size:
        raise TruncatedFileError(f"{path}: embedder identity cut short")
    if offset + 4 * count > size:
        raise TruncatedFileError(f"{path}: id length table cut short ({count} records)")
    tables += file.read(offset + 4 * count - len(tables))
    lengths = np.frombuffer(tables, "<u4", count, offset)
    ends = (np.cumsum(lengths, dtype=np.int64) + offset + 4 * count).tolist()
    digests_at = ends[-1] if count else offset
    if digests_at > size:
        raise TruncatedFileError(f"{path}: id table cut short")
    block_at = digests_at + DIGEST_SIZE * count
    if block_at > size:
        raise TruncatedFileError(f"{path}: digest table cut short")
    block_at += -block_at % 4
    end = block_at + 4 * count * dimension
    if end > size:
        raise TruncatedFileError(f"{path}: vector block cut short")
    if end < size:
        raise TruncatedFileError(f"{path}: {size - end} unexpected trailing bytes")
    tables += file.read(block_at - len(tables))
    starts = [offset + 4 * count, *ends[:-1]]
    return CacheFile(
        model=tables[_CACHE_HEADER.size : offset].decode("utf-8"),
        ids=[tables[a:b].decode("utf-8") for a, b in zip(starts, ends)],
        digests=tables[digests_at : digests_at + DIGEST_SIZE * count],
        dimension=dimension,
    )


# ----------------------------------------------------------------------
# Evaluation records
# ----------------------------------------------------------------------

def record_to_dict(record: EvalRecord) -> dict:
    pair = None
    if record.pair is not None:
        pair = {
            "h_plus": record.pair.h_plus,
            "h_minus": record.pair.h_minus,
            "provenance": record.pair.provenance,
        }
    return {
        "item_id": record.item_id,
        "dataset": record.dataset,
        "method": record.method,
        "lambda": record.lam,
        "ranked": {
            "method": record.ranked.method,
            "lambda": record.ranked.lam,
            "hits": [[doc_id, score] for doc_id, score in record.ranked.hits],
        },
        "predicted": record.predicted,
        "correct": record.correct,
        "pair": pair,
        "cost": asdict(record.cost),
        "answer_cost": asdict(record.answer_cost),
        "error": record.error,
    }


def _cost_from_dict(data: dict) -> CostEntry:
    return CostEntry(
        llm_calls=data["llm_calls"],
        output_tokens=data["output_tokens"],
        wall_ms=data["wall_ms"],
    )


def record_from_dict(data: dict) -> EvalRecord:
    # A truthy string such as "false" would count as correct in every report.
    for key, kind in (("correct", bool), ("predicted", str)):
        if not isinstance(data[key], kind):
            raise ValueError(f"{key} must be {kind.__name__}, not {data[key]!r}")
    pair = None
    if data.get("pair") is not None:
        pair = HypothesisPair(
            h_plus=data["pair"]["h_plus"],
            h_minus=data["pair"]["h_minus"],
            provenance=data["pair"]["provenance"],
        )
    ranked = RankedResult(
        hits=tuple((doc_id, float(score)) for doc_id, score in data["ranked"]["hits"]),
        method=data["ranked"]["method"],
        lam=data["ranked"]["lambda"],
    )
    return EvalRecord(
        item_id=data["item_id"],
        method=data["method"],
        ranked=ranked,
        predicted=data["predicted"],
        correct=data["correct"],
        cost=_cost_from_dict(data["cost"]),
        answer_cost=_cost_from_dict(data["answer_cost"]),
        lam=data["lambda"],
        pair=pair,
        dataset=data.get("dataset", "default"),
        error=data.get("error"),
    )


def save_records(path: str | Path, records: Sequence[EvalRecord]) -> None:
    lines = [json.dumps(record_to_dict(r), sort_keys=True) for r in records]
    write_text(path, "\n".join(lines) + "\n")


def load_records(path: str | Path) -> list[EvalRecord]:
    records = []
    for line_no, obj in _iter_jsonl(path):
        try:
            records.append(record_from_dict(obj))
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedLineError(line_no, f"bad record ({exc})") from exc
    return records


# ----------------------------------------------------------------------
# Ratings
# ----------------------------------------------------------------------

def load_ratings(path: str | Path) -> tuple[dict[str, str], set[str]]:
    """Read `item_id<TAB>tier` lines; the `exclude` tier marks exclusions."""
    ratings: dict[str, str] = {}
    exclusions: set[str] = set()
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise MalformedLineError(line_no, "expected item_id<TAB>tier")
            item_id, tier = parts[0].strip(), parts[1].strip()
            if item_id in ratings or item_id in exclusions:
                raise DuplicateIdError(line_no, item_id)
            if tier == EXCLUDE_TIER:
                exclusions.add(item_id)
            elif tier in RATING_TIERS:
                ratings[item_id] = tier
            else:
                raise MalformedLineError(line_no, f"unknown tier {tier!r}")
    return ratings, exclusions
