"""Run configuration: defaults, JSON loading, and validation.

Defaults mirror the reference setup: contrastive weight 1.0, top-5
retrieval, 8 hypothetical drafts for embedding averaging, and up to 2 parse
retries before falling back. Backend endpoints are configured here; auth
tokens come from environment variables (CHR_GENERATOR_API_KEY,
CHR_EMBEDDER_API_KEY) so they never live in config files.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path

DEFAULT_LAMBDA = 1.0
DEFAULT_K = 5
DEFAULT_HYDE_N = 8
DEFAULT_MAX_RETRIES = 2
DEFAULT_SWEEP_GRID = (0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4)

GENERATOR_API_KEY_ENV = "CHR_GENERATOR_API_KEY"
EMBEDDER_API_KEY_ENV = "CHR_EMBEDDER_API_KEY"

ANSWER_PROMPT_VERSION = "v1"


@dataclass
class RunConfig:
    """One benchmark run's knobs. A multi-method driver clones per method."""

    method: str = "chr"
    lam: float = DEFAULT_LAMBDA
    k: int = DEFAULT_K
    hyde_n: int = DEFAULT_HYDE_N
    max_retries: int = DEFAULT_MAX_RETRIES
    temperature: float = 0.0
    seed: int = 0
    mock: bool = False
    mock_dimension: int = 64
    generator_url: str = ""
    generator_model: str = ""
    embedder_url: str = ""
    embedder_model: str = ""
    corpus_path: str = ""
    dataset_path: str = ""
    cache_path: str = ""
    ratings_path: str = ""
    out_dir: str = "out"
    answer_prompt_version: str = ANSWER_PROMPT_VERSION

    def __post_init__(self) -> None:
        if self.lam < 0:
            raise ValueError("lambda must be >= 0")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.hyde_n < 1:
            raise ValueError("hyde_n must be >= 1")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")

    def replace(self, **changes) -> RunConfig:
        return dataclasses.replace(self, **changes)


def config_from_dict(data: dict) -> RunConfig:
    """Build a RunConfig from a plain dict, rejecting unknown keys.

    Accepts "lambda" as an alias for the ``lam`` field so config files can
    use the report-facing name.
    """
    data = dict(data)
    if "lambda" in data:
        data["lam"] = data.pop("lambda")
    known = {f.name for f in dataclasses.fields(RunConfig)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    return RunConfig(**data)


def load_config(path: str | Path) -> RunConfig:
    """Read a JSON config file into a RunConfig."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("config file must contain a JSON object")
    return config_from_dict(data)
