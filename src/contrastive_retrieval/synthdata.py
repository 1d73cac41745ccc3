"""Synthetic fixtures.

The bundled 20-question dataset, its 140-document corpus, and its rating
sheet, all built from fixed word tables (no RNG) so the committed data files
under ``data/`` can be regenerated bit-for-bit with
``python -m contrastive_retrieval.synthdata <dir>``.
"""

from __future__ import annotations

import sys
from importlib import resources
from pathlib import Path

from .hypotheses import QAItem

N_ITEMS = 20

DATASET_FILE = "qa20.jsonl"
CORPUS_FILE = "corpus140.jsonl"
RATINGS_FILE = "ratings.tsv"

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


def bundled_path(name: str) -> Path:
    """Filesystem path of a bundled data file."""
    return Path(str(resources.files(__package__).joinpath("data", name)))


def write_bundled_data(out_dir: str | Path) -> None:
    """Regenerate the committed data files into ``out_dir``."""
    from .dataio import save_dataset, save_ratings, write_text

    out = Path(out_dir)
    save_dataset(out / DATASET_FILE, build_bundled_dataset())
    import json

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
        print("usage: python -m contrastive_retrieval.synthdata <output-dir>", file=sys.stderr)
        return 2
    write_bundled_data(args[0])
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
