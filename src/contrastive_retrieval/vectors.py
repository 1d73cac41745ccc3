"""Vector primitives shared by every retrieval method.

All embeddings in this package are plain numpy arrays. They are normalized
once at ingest, so downstream similarity reduces to a dot product. Dot
products always accumulate in float64 regardless of storage precision,
which keeps rankings stable near ties.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from .errors import DimensionMismatchError, EmptyListError, ZeroVectorError

ZERO_NORM_EPS = 1e-12


def as_vector(values: Sequence[float] | np.ndarray) -> np.ndarray:
    """Coerce to a 1-D float64 array, rejecting NaN/Inf components."""
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1 or v.size == 0:
        raise ZeroVectorError("embedding must be a nonempty 1-D vector")
    if not np.all(np.isfinite(v)):
        raise ZeroVectorError("embedding contains NaN or Inf")
    return v


def normalize(v: Sequence[float] | np.ndarray) -> np.ndarray:
    """Scale ``v`` to unit Euclidean norm, preserving direction."""
    v = as_vector(v)
    norm = math.sqrt(float(np.dot(v, v)))
    if norm < ZERO_NORM_EPS:
        raise ZeroVectorError("cannot normalize a zero vector")
    return v / norm


def row_norms(matrix: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a 2-D float64 array.

    Each norm is bit-identical to ``normalize``'s ``sqrt(dot(row, row))``: a
    stacked (1 x d) @ (d x 1) ``matmul`` runs NumPy's dot-product kernel once
    per row. ``einsum``, ``linalg.norm(axis=1)`` and ``(m * m).sum(1)`` sum
    in another order and change the last bit of some norms.
    """
    return np.sqrt(np.matmul(matrix[:, None, :], matrix[:, :, None])[:, 0, 0])


def normalize_rows(matrix: np.ndarray, ids: Sequence[str]) -> np.ndarray:
    """Scale every row of a 2-D float64 array to unit norm, in place.

    Row for row bit-identical to ``normalize``. Raises ZeroVectorError naming
    ``ids[i]`` for the first row whose norm is below ZERO_NORM_EPS or not
    finite (a NaN or Inf component, or an overflowing square sum).
    """
    norms = row_norms(matrix)
    bad = ~((norms >= ZERO_NORM_EPS) & np.isfinite(norms))
    if bad.any():
        pos = int(np.argmax(bad))
        raise ZeroVectorError(
            f"embedding of {ids[pos]!r} is zero or not finite (norm {norms[pos]})"
        )
    matrix /= norms[:, None]
    return matrix


def mean_embedding(vs: Sequence[Sequence[float] | np.ndarray]) -> np.ndarray:
    """Componentwise mean of the vectors, renormalized to unit length."""
    if len(vs) == 0:
        raise EmptyListError("mean_embedding needs at least one vector")
    arrays = [as_vector(v) for v in vs]
    dim = arrays[0].shape[0]
    for v in arrays[1:]:
        if v.shape[0] != dim:
            raise DimensionMismatchError(f"dimensions differ: {dim} vs {v.shape[0]}")
    mean = np.mean(arrays, axis=0)
    return normalize(mean)
