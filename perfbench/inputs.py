"""Seeded input generation for the benchmark workloads.

Every input is a pure function of the seed. The program only ever sees the
files written here.

* ``write_qa_inputs``: a multiple-choice dataset, its corpus and a ratings
  sheet, built the way the bundled 20-item fixture is built (four invented
  conditions per question, the gold condition's marker as the stem's clue,
  four option documents and three filler documents per question), but with
  names, clues and gold letters drawn from the seed.
* ``write_retrieval_inputs``: a 100k-document corpus (JSONL ids and texts)
  plus the binary embedding cache that the program's own
  ``cache_embeddings`` writes, with about 10% of the documents exact
  duplicates of others under other ids, and the hypothesis pairs the
  measured phase retrieves with.

Run as a script to generate one workload's inputs in a separate process,
so the generator's memory does not count in the measuring process's peak:

    python3 perfbench/inputs.py --seed 3 --out DIR
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path

import bootstrap  # noqa: F401  (pins BLAS threads before numpy loads)
import numpy as np

_PREFIXES = (
    "reno", "cardio", "neuro", "dermo", "hepato", "pulmo", "osteo", "myelo",
    "entero", "angio", "gastro", "nephro", "oculo", "rhino", "chondro", "lympho",
)
_SUFFIXES = (
    "trophic syndrome", "sclerotic disease", "plastic disorder", "genic condition",
    "pathic syndrome", "lytic disease", "static disorder", "toxic condition",
)
_SYLLABLES = (
    "al", "be", "cor", "dex", "er", "fol", "gal", "hex", "ith", "jor",
    "kel", "lum", "mir", "nov", "or", "pex", "qua", "rin", "sol", "tor",
)
_ADJECTIVES = ("episodic", "progressive", "intermittent", "persistent", "recurrent", "sudden")
_COMPLAINTS = (
    "flank discomfort", "ocular dryness", "tendon swelling", "nocturnal wheeze",
    "joint stiffness", "palmar itching", "morning nausea", "calf cramping",
)
_MANAGEMENT = (
    "staged hydration", "graded exercise", "topical salves",
    "dietary adjustment", "pulse therapy", "manual drainage",
)
_TIERS = ("Excellent", "Good", "Poor")

QA_DATASET = "qa.jsonl"
QA_CORPUS = "corpus.jsonl"
QA_RATINGS = "ratings.tsv"
RETRIEVAL_CORPUS = "corpus100k.jsonl"
RETRIEVAL_CACHE = "corpus100k.bin"
RETRIEVAL_QUERIES = "pairs.npz"

RETRIEVAL_DOCS = 100_000
RETRIEVAL_DIM = 384
DUPLICATE_SHARE = 0.10
RETRIEVAL_PAIRS = 64


def _write_jsonl(path: Path, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def qa_items(seed: int, n_items: int) -> list[dict]:
    """Dataset rows plus, per row, the option documents' texts and fillers."""
    rng = random.Random(f"qa-{seed}")
    names = rng.sample(
        [f"{p}{s}{x}" for p in _PREFIXES for s in _SYLLABLES for x in _SUFFIXES],
        4 * n_items,
    )
    markers = rng.sample(
        [a + b + c + "ase" for a in _SYLLABLES for b in _SYLLABLES for c in _SYLLABLES],
        4 * n_items,
    )
    rows = []
    for i in range(n_items):
        complaint = f"{rng.choice(_ADJECTIVES)} {rng.choice(_COMPLAINTS)}"
        gold = rng.randrange(4)
        conditions = range(4 * i, 4 * i + 4)
        stem = (
            f"A patient reports {complaint} that worsens through the week, "
            f"and serial testing shows {markers[4 * i + gold]}. "
            f"Which condition best explains this presentation?"
        )
        docs = [
            f"{names[c]} typically presents with {complaint} and is distinguished by "
            f"{markers[c]} on serial testing; management favors {rng.choice(_MANAGEMENT)}."
            for c in conditions
        ]
        docs += [
            f"Clinic workflow bulletin {i + 1}: scheduling templates and triage "
            f"checklists for outpatient teams.",
            f"Wellness circular {i + 1}: seasonal guidance on sleep hygiene, "
            f"hydration and activity pacing.",
            f"Equipment memo {i + 1}: calibration intervals for monitoring "
            f"devices in ward {i + 1}.",
        ]
        rows.append({
            "id": f"q{i + 1:04d}",
            "question": stem,
            "options": {chr(ord("A") + j): names[c] for j, c in enumerate(conditions)},
            "answer": chr(ord("A") + gold),
            "docs": docs,
        })
    return rows


def write_qa_inputs(seed: int, n_items: int, out_dir: Path) -> dict[str, Path]:
    """Write dataset, corpus and ratings; returns their paths by role."""
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = qa_items(seed, n_items)
    paths = {
        "dataset": out_dir / QA_DATASET,
        "corpus": out_dir / QA_CORPUS,
        "ratings": out_dir / QA_RATINGS,
    }
    _write_jsonl(paths["dataset"], ({k: r[k] for k in ("id", "question", "options", "answer")}
                                    for r in rows))
    texts = [text for r in rows for text in r["docs"]]
    _write_jsonl(paths["corpus"], ({"id": f"d{n + 1:05d}", "text": t} for n, t in enumerate(texts)))
    # A fixed tenth of the items is excluded so every seed rates as many.
    rng = random.Random(f"ratings-{seed}")
    excluded = set(rng.sample(range(n_items), n_items // 10))
    with open(paths["ratings"], "w", encoding="utf-8") as fh:
        for i, r in enumerate(rows):
            tier = "exclude" if i in excluded else rng.choice(_TIERS)
            fh.write(f"{r['id']}\t{tier}\n")
    return paths


def failing_stems(seed: int, n_items: int, share: float) -> list[str]:
    """Stems whose first pair prompt the endpoint answers unparseably.

    Exactly ``round(share * n_items)`` items, chosen by the seed, so the
    retry count is the same for every seed.
    """
    rows = qa_items(seed, n_items)
    rng = random.Random(f"fail-{seed}")
    return [r["question"] for r in rng.sample(rows, round(share * n_items))]


def retrieval_vectors(seed: int) -> tuple[np.ndarray, list[str], np.ndarray]:
    """Rows in file order, their ids, and each row's duplicate-group leader.

    Each row is a unit vector with 16 entries of +-1/4 and zeros elsewhere,
    so normalizing it, in float64 or through the float32 cache, is exact:
    the oracle and the program then score the very same vectors. Ids are a
    seeded permutation of ``doc000000..``, so file order is not id order.
    About 10% of the rows are copies of another row, in groups of 3 to 9
    identical rows, so some groups straddle the top-5 boundary.
    """
    rng = np.random.default_rng([seed, 100])
    n, dim, nnz = RETRIEVAL_DOCS, RETRIEVAL_DIM, 16
    support = np.argpartition(rng.random((n, dim), dtype=np.float32), nnz, axis=1)[:, :nnz]
    vecs = np.zeros((n, dim))
    np.put_along_axis(vecs, support, rng.choice([-0.25, 0.25], (n, nnz)), axis=1)
    leader = np.arange(n)
    order = rng.permutation(n)
    pos = copied = 0
    while copied < DUPLICATE_SHARE * n:
        size = int(rng.integers(2, 9))
        copies = order[pos + 1 : pos + 1 + size]
        vecs[copies] = vecs[order[pos]]
        leader[copies] = order[pos]
        pos += size + 1
        copied += size
    ids = [f"doc{i:06d}" for i in rng.permutation(n)]
    return vecs, ids, leader


def retrieval_pairs(seed: int, vecs: np.ndarray, leader: np.ndarray, n_pairs: int):
    """Hypothesis-pair embeddings (h_plus, h_minus), unit rows in float64.

    Half the targets sit next to a duplicated row, so its whole group of
    identical rows ranks first and the id rule decides which copies make the
    top 5; the rest are isotropic.
    """
    rng = np.random.default_rng([seed, 200])
    dim = vecs.shape[1]
    h_plus = rng.standard_normal((n_pairs, dim))
    h_minus = rng.standard_normal((n_pairs, dim))
    dup_leaders = np.unique(leader[leader != np.arange(len(leader))])
    planted = rng.choice(dup_leaders, n_pairs // 2, replace=False)
    h_plus[: n_pairs // 2] = vecs[planted] + 0.1 * h_plus[: n_pairs // 2] / np.sqrt(dim)
    h_plus /= np.linalg.norm(h_plus, axis=1, keepdims=True)
    h_minus /= np.linalg.norm(h_minus, axis=1, keepdims=True)
    order = rng.permutation(n_pairs)
    return h_plus[order], h_minus[order]


def write_retrieval_inputs(seed: int, out_dir: Path) -> dict:
    """Write corpus JSONL, the program-written cache and the pairs.

    Returns the wall time of the program's ``cache_embeddings`` call.
    """
    bootstrap.import_program()
    from contrastive_retrieval.dataio import cache_embeddings

    out_dir.mkdir(parents=True, exist_ok=True)
    vecs, ids, leader = retrieval_vectors(seed)
    _write_jsonl(
        out_dir / RETRIEVAL_CORPUS,
        ({"id": doc_id, "text": f"synthetic passage {leader[row]}"} for row, doc_id in enumerate(ids)),
    )
    entries = dict(zip(ids, vecs))
    started = time.perf_counter()
    cache_embeddings(out_dir / RETRIEVAL_CACHE, entries)
    cache_write_s = time.perf_counter() - started
    h_plus, h_minus = retrieval_pairs(seed, vecs, leader, RETRIEVAL_PAIRS)
    np.savez(out_dir / RETRIEVAL_QUERIES, h_plus=h_plus, h_minus=h_minus)
    return {"cache_write_s": cache_write_s}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    meta = write_retrieval_inputs(args.seed, Path(args.out))
    json.dump(meta, sys.stdout)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
