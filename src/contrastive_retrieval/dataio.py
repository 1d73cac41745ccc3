"""File formats and persistence.

JSON-lines for everything human-diffable (corpora, datasets, evaluation
records), a compact little-endian binary file for the one large artifact
(the embedding cache), and tab-separated ratings. Writers go through a
``.partial`` temp file renamed into place, so an interrupted run leaves a
clearly-labeled partial artifact instead of a corrupt final one.
"""

from __future__ import annotations

import json
import os
import struct
from collections.abc import Iterable, Mapping, Sequence
from pathlib import Path

import numpy as np

from .analysis import EXCLUDE_TIER, RATING_TIERS
from .backends import EmbedderBackend
from .costs import CostEntry
from .errors import (
    BadMagicError,
    DimensionMismatchError,
    DuplicateIdError,
    MalformedLineError,
    NormDriftError,
    TruncatedFileError,
    VersionMismatchError,
)
from .hypotheses import HypothesisPair, QAItem
from .pipeline import EvalRecord
from .retrieval import Corpus, RankedResult
from .vectors import as_vector, normalize, normalize_rows, row_norms

CACHE_MAGIC = b"CHRE"
CACHE_VERSION = 1
# Unit norm must survive the float32 round-trip within this tolerance.
CACHE_NORM_TOL = 1e-5


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


def _iter_jsonl(path: str | Path) -> Iterable[tuple[int, dict]]:
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise MalformedLineError(line_no, f"invalid JSON ({exc.msg})") from exc
            if not isinstance(obj, dict):
                raise MalformedLineError(line_no, "expected a JSON object")
            yield line_no, obj


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

    Documents without an inline embedding are resolved from the cache file
    when available, otherwise embedded via ``embedder``; newly computed
    vectors are merged back into the cache. Inline and newly embedded
    vectors are normalized as their line is read; ``Corpus`` then gathers
    all rows into one matrix and normalizes it again in bulk.
    """
    cache: dict[str, np.ndarray] = {}
    if cache_path and Path(cache_path).exists():
        cache = load_cache(cache_path)

    ids: list[str] = []
    texts: list[str] = []
    rows: list[np.ndarray] = []
    seen: dict[str, int] = {}
    dimension: int | None = None
    newly_embedded = False
    for line_no, obj in _iter_jsonl(path):
        doc_id = _require(obj, "id", str, line_no)
        text = _require(obj, "text", str, line_no)
        if doc_id in seen:
            raise DuplicateIdError(line_no, doc_id)
        seen[doc_id] = line_no

        raw = obj.get("embedding")
        if raw is not None:
            if not isinstance(raw, list):
                raise MalformedLineError(line_no, "embedding must be an array of numbers")
            try:
                vec = normalize(as_vector(raw))
            except Exception as exc:
                raise MalformedLineError(line_no, f"bad embedding ({exc})") from exc
        elif doc_id in cache:
            vec = cache[doc_id]
        elif embedder is not None:
            vec = normalize(embedder.embed(text))
            cache[doc_id] = vec
            newly_embedded = True
        else:
            raise MalformedLineError(
                line_no, f"document {doc_id!r} has no embedding and no embedder is configured"
            )
        if dimension is None:
            dimension = vec.shape[0]
        elif vec.shape[0] != dimension:
            raise DimensionMismatchError(
                f"line {line_no}: embedding dimension {vec.shape[0]} != {dimension}"
            )
        ids.append(doc_id)
        texts.append(text)
        rows.append(vec)

    if cache_path and newly_embedded:
        cache_embeddings(cache_path, cache)
    # Corpus gathers the rows itself, so its copy is the only one made.
    return Corpus(ids, texts, rows)


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
        answer = obj.get("answer")
        if not all(isinstance(k, str) and isinstance(v, str) for k, v in options.items()):
            raise MalformedLineError(line_no, "options must map letters to strings")
        items.append(QAItem(id=item_id, stem=question, options=dict(options), answer_key=answer))
    return items


def save_dataset(path: str | Path, items: Iterable[QAItem]) -> None:
    lines = [
        json.dumps(
            {
                "id": item.id,
                "question": item.stem,
                "options": dict(sorted(item.options.items())),
                "answer": item.answer_key,
            },
            sort_keys=True,
        )
        for item in items
    ]
    write_text(path, "\n".join(lines) + "\n")


# ----------------------------------------------------------------------
# Binary embedding cache
# ----------------------------------------------------------------------

def cache_embeddings(path: str | Path, entries: Mapping[str, np.ndarray]) -> None:
    """Write unit vectors as float32 records under a little-endian header.

    Layout: magic "CHRE", version u32, dimension u32, count u64, then per
    record: id length u32, id bytes (utf-8), dimension float32 values.
    The entries are stacked, normalized and converted to float32 in bulk;
    only the record headers are built one by one.
    """
    if not entries:
        raise ValueError("refusing to write an empty embedding cache")
    ids = sorted(entries)
    vectors = [np.asarray(entries[doc_id], dtype=np.float64) for doc_id in ids]
    dimension = as_vector(vectors[0]).shape[0]
    for doc_id, vec in zip(ids, vectors):
        if vec.shape != (dimension,):
            raise DimensionMismatchError(
                f"entry {doc_id!r} has shape {vec.shape}, expected ({dimension},)"
            )
    block = memoryview(normalize_rows(np.array(vectors), ids).astype("<f4")).cast("B")
    vec_bytes = 4 * dimension
    chunks = [CACHE_MAGIC, struct.pack("<IIQ", CACHE_VERSION, dimension, len(ids))]
    for pos, doc_id in enumerate(ids):
        encoded = doc_id.encode("utf-8")
        chunks.append(struct.pack("<I", len(encoded)))
        chunks.append(encoded)
        chunks.append(block[pos * vec_bytes : (pos + 1) * vec_bytes])
    write_bytes(path, b"".join(chunks))


def load_cache(path: str | Path) -> dict[str, np.ndarray]:
    """Read the binary cache back into float64 unit vectors.

    Verifies magic, version, record completeness, and that each stored
    vector's norm stayed within 1 +/- 1e-5 through the float32 round-trip
    (a NaN norm fails too); vectors are renormalized in float64 after the
    check. The vectors are read into one contiguous block, checked and
    renormalized in bulk, and returned as rows of one matrix.
    """
    ids, block = _read_cache_records(path)
    matrix = block.astype(np.float64)
    norms = row_norms(matrix)
    drift = ~(np.abs(norms - 1.0) <= CACHE_NORM_TOL)
    if drift.any():
        pos = int(np.argmax(drift))
        raise NormDriftError(f"{path}: entry {ids[pos]!r} has norm {norms[pos]:.8f}")
    matrix /= norms[:, None]
    return dict(zip(ids, matrix))


def _read_cache_records(path: str | Path) -> tuple[list[str], np.ndarray]:
    """Walk a v1 cache's record headers; copy the vectors into one float32 block."""
    blob = Path(path).read_bytes()
    if blob[:4] != CACHE_MAGIC:
        raise BadMagicError(f"{path}: not an embedding cache (magic {blob[:4]!r})")
    header_size = 4 + struct.calcsize("<IIQ")
    size = len(blob)
    if size < header_size:
        raise TruncatedFileError(f"{path}: header cut short")
    version, dimension, count = struct.unpack_from("<IIQ", blob, 4)
    if version != CACHE_VERSION:
        raise VersionMismatchError(f"{path}: cache version {version}, expected {CACHE_VERSION}")
    vec_bytes = 4 * dimension
    # Every record holds at least its id length and its vector; checking that
    # first keeps a corrupt count from sizing the block.
    if header_size + count * (4 + vec_bytes) > size:
        raise TruncatedFileError(f"{path}: {count} records cannot fit in {size} bytes")

    ids: list[str] = []
    block = np.empty((count, dimension), dtype="<f4")
    vectors = memoryview(block).cast("B")
    view = memoryview(blob)
    unpack_id_len = struct.Struct("<I").unpack_from
    offset = header_size
    for pos in range(count):
        if offset + 4 > size:
            raise TruncatedFileError(f"{path}: record header cut short at byte {offset}")
        (id_len,) = unpack_id_len(blob, offset)
        offset += 4
        if offset + id_len + vec_bytes > size:
            raise TruncatedFileError(f"{path}: record cut short at byte {offset}")
        ids.append(blob[offset : offset + id_len].decode("utf-8"))
        offset += id_len
        vectors[pos * vec_bytes : (pos + 1) * vec_bytes] = view[offset : offset + vec_bytes]
        offset += vec_bytes
    if offset != size:
        raise TruncatedFileError(f"{path}: {size - offset} unexpected trailing bytes")
    return ids, block


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
        "cost": _cost_to_dict(record.cost),
        "answer_cost": _cost_to_dict(record.answer_cost),
        "error": record.error,
    }


def _cost_to_dict(cost: CostEntry) -> dict:
    return {
        "llm_calls": cost.llm_calls,
        "output_tokens": cost.output_tokens,
        "wall_ms": cost.wall_ms,
    }


def _cost_from_dict(data: dict) -> CostEntry:
    return CostEntry(
        llm_calls=data["llm_calls"],
        output_tokens=data["output_tokens"],
        wall_ms=data["wall_ms"],
    )


def record_from_dict(data: dict) -> EvalRecord:
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


def save_ratings(path: str | Path, ratings: Mapping[str, str], exclusions: Iterable[str] = ()) -> None:
    lines = [f"{item_id}\t{tier}" for item_id, tier in sorted(ratings.items())]
    lines += [f"{item_id}\t{EXCLUDE_TIER}" for item_id in sorted(exclusions)]
    write_text(path, "\n".join(lines) + "\n")
