from __future__ import annotations

import math

import numpy as np
import pytest

from contrastive_retrieval.errors import (
    DimensionMismatchError,
    EmptyListError,
    ZeroVectorError,
)
from contrastive_retrieval.vectors import as_vector, mean_embedding, normalize
from helpers import cosine_sim


def test_normalize_returns_unit_vector_preserving_direction():
    v = normalize([3.0, 4.0])
    assert math.isclose(float(np.linalg.norm(v)), 1.0, abs_tol=1e-12)
    assert np.allclose(v, [0.6, 0.8])


def test_normalize_rejects_zero_vector():
    with pytest.raises(ZeroVectorError):
        normalize([0.0, 0.0, 0.0])


def test_normalize_rejects_nan_and_inf():
    with pytest.raises(ZeroVectorError):
        normalize([1.0, float("nan")])
    with pytest.raises(ZeroVectorError):
        normalize([1.0, float("inf")])


def test_as_vector_rejects_matrices_and_empties():
    with pytest.raises(ZeroVectorError):
        as_vector([[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(ZeroVectorError):
        as_vector([])


def test_cosine_sim_hand_values():
    assert cosine_sim([1.0, 0.0], [0.6, 0.8]) == pytest.approx(0.6, abs=1e-12)
    assert cosine_sim([1.0, 0.0], [0.0, 1.0]) == pytest.approx(0.0, abs=1e-12)
    assert cosine_sim([1.0, 2.0], [2.0, 4.0]) == pytest.approx(1.0, abs=1e-12)
    assert cosine_sim([1.0, 0.0], [-1.0, 0.0]) == pytest.approx(-1.0, abs=1e-12)


def test_cosine_sim_errors():
    with pytest.raises(DimensionMismatchError):
        cosine_sim([1.0, 0.0], [1.0, 0.0, 0.0])
    with pytest.raises(ZeroVectorError):
        cosine_sim([0.0, 0.0], [1.0, 0.0])


def test_cosine_sim_bounded_and_scale_invariant():
    rng = np.random.default_rng(11)
    for _ in range(200):
        dim = int(rng.integers(2, 24))
        a = rng.standard_normal(dim)
        b = rng.standard_normal(dim)
        sim = cosine_sim(a, b)
        assert -1.0 <= sim <= 1.0
        assert cosine_sim(a, a) == pytest.approx(1.0, abs=1e-12)
        scaled = cosine_sim(2.5 * a, 7.0 * b)
        assert scaled == pytest.approx(sim, abs=1e-12)


def test_mean_embedding_singleton_is_normalized_input():
    v = [3.0, 4.0]
    assert np.allclose(mean_embedding([v]), normalize(v))


def test_mean_embedding_hand_value():
    mean = mean_embedding([[1.0, 0.0], [0.0, 1.0]])
    expected = math.sqrt(2.0) / 2.0
    assert np.allclose(mean, [expected, expected])


def test_mean_embedding_errors():
    with pytest.raises(EmptyListError):
        mean_embedding([])
    with pytest.raises(DimensionMismatchError):
        mean_embedding([[1.0, 0.0], [1.0, 0.0, 0.0]])
    with pytest.raises(ZeroVectorError):
        mean_embedding([[1.0, 0.0], [-1.0, 0.0]])


def test_mean_embedding_accumulates_in_float64():
    vs = [np.array([1.0, 1e-9], dtype=np.float64) for _ in range(10)]
    mean = mean_embedding(vs)
    assert mean.dtype == np.float64
    assert mean[1] > 0
