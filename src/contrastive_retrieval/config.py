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
import math
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar

DEFAULT_LAMBDA = 1.0
DEFAULT_K = 5
DEFAULT_HYDE_N = 8
DEFAULT_MAX_RETRIES = 2
DEFAULT_SWEEP_GRID = (0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4)

GENERATOR_API_KEY_ENV = "CHR_GENERATOR_API_KEY"
EMBEDDER_API_KEY_ENV = "CHR_EMBEDDER_API_KEY"


def check_lambda(lam: float, name: str = "lambda") -> None:
    """Raise ValueError naming ``lam`` unless it is a finite weight >= 0."""
    if not 0 <= lam < math.inf:  # false for NaN too
        raise ValueError(f"{name} must be nonnegative and finite, not {lam!r}")


# What each RunConfig annotation accepts; postponed annotations are strings.
_FIELD_TYPES = {"bool": bool, "int": int, "float": (int, float), "str": str}


@dataclass
class RunConfig:
    """One benchmark run's knobs, shared by every method of the run."""

    lam: float = DEFAULT_LAMBDA
    k: int = DEFAULT_K
    hyde_n: int = DEFAULT_HYDE_N
    max_retries: int = DEFAULT_MAX_RETRIES
    temperature: float = 0.0
    seed: int = 0
    mock: bool = False
    # A constant, not a setting: perfbench's endpoint and cli._make_backends read it here.
    mock_dimension: ClassVar[int] = 64
    generator_url: str = ""
    generator_model: str = ""
    embedder_url: str = ""
    embedder_model: str = ""
    corpus_path: str = ""
    dataset_path: str = ""
    cache_path: str = ""
    ratings_path: str = ""
    # Unset, each command's own default applies: out/ for run, stdout for sweep.
    out_dir: str = ""

    def __post_init__(self) -> None:
        for field in dataclasses.fields(self):
            value, expected = getattr(self, field.name), _FIELD_TYPES[field.type]
            # isinstance counts a bool as an int; only a bool field takes one.
            if isinstance(value, bool) != (expected is bool) or not isinstance(value, expected):
                raise ValueError(f"{field.name} must be {field.type}, not {value!r}")
        check_lambda(self.lam)
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.hyde_n < 1:
            raise ValueError("hyde_n must be >= 1")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")


def config_from_dict(data: dict) -> RunConfig:
    """Build a RunConfig from a plain dict, rejecting unknown keys.

    Accepts "lambda" as an alias for the ``lam`` field so config files can
    use the report-facing name, but not both names at once.
    """
    data = dict(data)
    if "lambda" in data:
        if "lam" in data:
            raise ValueError('config sets both "lambda" and "lam"; keep one')
        data["lam"] = data.pop("lambda")
    known = {f.name for f in dataclasses.fields(RunConfig)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    return RunConfig(**data)


def read_json(path: str | Path):
    """The JSON value in the file at ``path``, else a ValueError naming the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: invalid JSON (nested too deeply)") from None
        except ValueError as exc:  # not JSON, or not UTF-8
            raise ValueError(f"{path}: invalid JSON ({exc})") from None


def load_config(path: str | Path) -> RunConfig:
    """Read a JSON config file into a RunConfig."""
    data = read_json(path)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: config file must contain a JSON object")
    return config_from_dict(data)
