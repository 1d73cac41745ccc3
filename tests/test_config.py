from __future__ import annotations

import dataclasses
import json

import pytest

from contrastive_retrieval.config import RunConfig, config_from_dict, load_config


def test_config_from_dict_rejects_workers():
    # ``workers`` was validated but never read; config files must drop it.
    with pytest.raises(ValueError, match="^unknown config keys: workers$"):
        config_from_dict({"workers": 2})


def test_config_from_dict_rejects_method():
    # The method is a ``run_benchmark`` argument; a config never selected it.
    with pytest.raises(ValueError, match="^unknown config keys: method$"):
        config_from_dict({"method": "hyde"})


@pytest.mark.parametrize("key, value", [("answer_prompt_version", "v1"),
                                        ("mock_dimension", 64)])
def test_config_from_dict_rejects_removed_settings(key, value):
    # Neither was ever varied; config files, and config blocks copied from an
    # older summary.json, must drop them.
    with pytest.raises(ValueError, match=f"^unknown config keys: {key}$"):
        config_from_dict({key: value})


def test_run_config_has_sixteen_settable_fields():
    names = [f.name for f in dataclasses.fields(RunConfig)]
    assert len(names) == 16
    assert "answer_prompt_version" not in names
    assert "mock_dimension" not in names
    assert RunConfig().mock_dimension == 64


def test_config_from_dict_rejects_lambda_and_lam_together():
    with pytest.raises(ValueError, match='"lambda" and "lam"'):
        config_from_dict({"mock": True, "lambda": 0.5, "lam": 2.0})


@pytest.mark.parametrize("key, field, value", [
    ("k", "k", "5"),
    ("lambda", "lam", "1"),
    ("hyde_n", "hyde_n", 1.5),
    ("k", "k", 2.5),
    ("mock", "mock", "no"),
    ("temperature", "temperature", "hot"),
    ("seed", "seed", "x"),
    ("k", "k", True),
])
def test_config_from_dict_rejects_values_of_the_wrong_type(key, field, value):
    with pytest.raises(ValueError, match=f"^{field} must be .*, not {value!r}$"):
        config_from_dict({"mock": True, key: value})


def test_load_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"mock": True, "workers": 1, "zeta": 0}), encoding="utf-8")
    with pytest.raises(ValueError, match="^unknown config keys: workers, zeta$"):
        load_config(path)


@pytest.mark.parametrize("key", ["lambda", "temperature"])
@pytest.mark.parametrize("value", ["NaN", "Infinity"])
def test_load_config_rejects_a_weight_that_is_not_finite(tmp_path, key, value):
    # json accepts both tokens, and NaN compares false with every bound.
    path = tmp_path / "config.json"
    path.write_text(f'{{"mock": true, "{key}": {value}}}', encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{key} must be nonnegative and finite"):
        load_config(path)


@pytest.mark.parametrize("field, value", [("lam", -0.1), ("k", 0), ("hyde_n", 0),
                                          ("max_retries", -1), ("temperature", -1.0)])
def test_run_config_rejects_out_of_range_values(field, value):
    with pytest.raises(ValueError):
        RunConfig(**{field: value})
