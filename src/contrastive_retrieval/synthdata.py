"""The bundled fixture's files.

The package ships a 20-question dataset, its 140-document corpus and its
rating sheet under ``data/``; ``chr-rag`` reads them when no dataset or
corpus is given. They are generated by ``tests/bundled_data.py``.
"""

from __future__ import annotations

from importlib import resources
from pathlib import Path

DATASET_FILE = "qa20.jsonl"
CORPUS_FILE = "corpus140.jsonl"
RATINGS_FILE = "ratings.tsv"


def bundled_path(name: str) -> Path:
    """Filesystem path of a bundled data file."""
    return Path(str(resources.files(__package__).joinpath("data", name)))
