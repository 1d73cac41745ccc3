"""The bundled fixture's generator.

The 20-question dataset, its 140-document corpus and its rating sheet under
``src/contrastive_retrieval/data/`` are built from fixed word tables (no
RNG). The tests build their fixtures from the same builders, and
``test_write_bundled_data_reproduces_the_committed_files`` checks that
regenerating the files reproduces them byte for byte. Regenerate them with
``python tests/bundled_data.py <output-dir>`` (with ``src`` on
``PYTHONPATH``, or the package installed).
"""

from __future__ import annotations

import json
import sys
from collections.abc import Iterable, Mapping
from pathlib import Path

from contrastive_retrieval.analysis import EXCLUDE_TIER
from contrastive_retrieval.dataio import write_text
from contrastive_retrieval.hypotheses import QAItem
from contrastive_retrieval.synthdata import CORPUS_FILE, DATASET_FILE, RATINGS_FILE

N_ITEMS = 20

_PREFIXES = (
    "reno", "cardio", "neuro", "dermo", "hepato",
    "pulmo", "osteo", "myelo", "entero", "angio",
)
_SUFFIXES = (
    "trophic syndrome", "sclerotic disease", "plastic disorder", "genic condition",
    "pathic syndrome", "lytic disease", "static disorder", "toxic condition",
)
_SYLLABLES = (
    "al", "be", "cor", "dex", "er", "fol", "gal", "hex", "ith", "jor",
    "kel", "lum", "mir", "nov", "or", "pex", "qua", "rin", "sol", "tor",
)
_ADJECTIVES = ("episodic", "progressive", "intermittent", "persistent", "recurrent")
_COMPLAINTS = ("flank discomfort", "ocular dryness", "tendon swelling", "nocturnal wheeze")
_MANAGEMENT = (
    "staged hydration", "graded exercise", "topical salves",
    "dietary adjustment", "pulse therapy", "manual drainage",
)
_TIERS = ("Excellent", "Good", "Poor")


def _condition_name(c: int) -> str:
    return _PREFIXES[c % 10] + _SUFFIXES[(c // 10) % 8]


def _marker(c: int) -> str:
    return _SYLLABLES[c % 20] + _SYLLABLES[c // 20] + "ase"


def _shared_complaint(i: int) -> str:
    return f"{_ADJECTIVES[i % 5]} {_COMPLAINTS[i // 5]}"


def _item_id(i: int) -> str:
    return f"q{i + 1:02d}"


def build_bundled_dataset() -> list[QAItem]:
    """20 four-option questions over invented conditions with shared complaints."""
    items = []
    for i in range(N_ITEMS):
        base = i * 4
        options = {
            chr(ord("A") + j): _condition_name(base + j) for j in range(4)
        }
        gold_idx = (3 * i + 1) % 4
        gold = chr(ord("A") + gold_idx)
        # The gold condition's marker is the stem's diagnostic clue, so answer
        # quality tracks whether retrieval surfaced the right evidence.
        stem = (
            f"A patient reports {_shared_complaint(i)} that worsens through the week, "
            f"and serial testing shows {_marker(base + gold_idx)}. "
            f"Which condition best explains this presentation?"
        )
        items.append(QAItem(id=_item_id(i), stem=stem, options=options, answer_key=gold))
    return items


def build_bundled_corpus_texts() -> list[tuple[str, str]]:
    """(id, text) rows: per question, one document per option plus three fillers.

    Option documents share the question's complaint wording, so they are
    mutual hard negatives under similarity search; each names one condition
    and its marker. Embeddings are computed at load time.
    """
    rows: list[tuple[str, str]] = []
    doc_no = 0
    for i in range(N_ITEMS):
        shared = _shared_complaint(i)
        base = i * 4
        for j in range(4):
            c = base + j
            doc_no += 1
            text = (
                f"{_condition_name(c)} typically presents with {shared} and is "
                f"distinguished by {_marker(c)} on serial testing; management "
                f"favors {_MANAGEMENT[c % 6]}."
            )
            rows.append((f"d{doc_no:03d}", text))
        fillers = (
            f"Clinic workflow bulletin {i + 1}: scheduling templates and triage "
            f"checklists for outpatient teams.",
            f"Wellness circular {i + 1}: seasonal guidance on sleep hygiene, "
            f"hydration and activity pacing.",
            f"Equipment memo {i + 1}: calibration intervals for monitoring "
            f"devices in ward {i + 1}.",
        )
        for text in fillers:
            doc_no += 1
            rows.append((f"d{doc_no:03d}", text))
    return rows


def build_bundled_ratings() -> tuple[dict[str, str], set[str]]:
    """Quality tiers cycling Excellent/Good/Poor, with the last two items excluded."""
    exclusions = {_item_id(N_ITEMS - 2), _item_id(N_ITEMS - 1)}
    ratings = {
        _item_id(i): _TIERS[i % 3]
        for i in range(N_ITEMS)
        if _item_id(i) not in exclusions
    }
    return ratings, exclusions


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


def save_ratings(path: str | Path, ratings: Mapping[str, str], exclusions: Iterable[str] = ()) -> None:
    lines = [f"{item_id}\t{tier}" for item_id, tier in sorted(ratings.items())]
    lines += [f"{item_id}\t{EXCLUDE_TIER}" for item_id in sorted(exclusions)]
    write_text(path, "\n".join(lines) + "\n")


def write_bundled_data(out_dir: str | Path) -> None:
    """Regenerate the committed data files into ``out_dir``."""
    out = Path(out_dir)
    save_dataset(out / DATASET_FILE, build_bundled_dataset())
    corpus_lines = [
        json.dumps({"id": doc_id, "text": text}, sort_keys=True)
        for doc_id, text in build_bundled_corpus_texts()
    ]
    write_text(out / CORPUS_FILE, "\n".join(corpus_lines) + "\n")
    ratings, exclusions = build_bundled_ratings()
    save_ratings(out / RATINGS_FILE, ratings, exclusions)


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print("usage: python tests/bundled_data.py <output-dir>", file=sys.stderr)
        return 2
    write_bundled_data(args[0])
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
