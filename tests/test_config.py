from __future__ import annotations

import json

import pytest

from contrastive_retrieval.config import RunConfig, config_from_dict, load_config


def test_config_from_dict_rejects_workers():
    # ``workers`` was validated but never read; config files must drop it.
    with pytest.raises(ValueError, match="^unknown config keys: workers$"):
        config_from_dict({"workers": 2})


def test_load_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"mock": True, "workers": 1, "zeta": 0}), encoding="utf-8")
    with pytest.raises(ValueError, match="^unknown config keys: workers, zeta$"):
        load_config(path)


@pytest.mark.parametrize("field, value", [("lam", -0.1), ("k", 0), ("hyde_n", 0),
                                          ("max_retries", -1)])
def test_run_config_rejects_out_of_range_values(field, value):
    with pytest.raises(ValueError):
        RunConfig(**{field: value})
