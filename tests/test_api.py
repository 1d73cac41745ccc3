from __future__ import annotations

import importlib

import pytest

import contrastive_retrieval

PUBLIC_NAMES = {
    "ContrastiveRetrievalError",
    "CostEntry",
    "CostReport",
    "Corpus",
    "EvalRecord",
    "GenerationResult",
    "HttpEmbedderBackend",
    "HttpGeneratorBackend",
    "HypothesisPair",
    "MockEmbedderBackend",
    "MockGeneratorBackend",
    "OverlapReport",
    "QAItem",
    "RankedResult",
    "RunConfig",
    "SweepReport",
    "TierStats",
    "accuracy",
    "build_answer_prompt",
    "cost_report",
    "embed_pair",
    "extract_answer",
    "generate_pair",
    "lambda_sweep",
    "load_config",
    "mean_embedding",
    "normalize",
    "overlap_ratio",
    "parse_pair",
    "render_prompt",
    "retrieval_shift",
    "retrieve_chr",
    "retrieve_h_plus_only",
    "retrieve_hyde",
    "retrieve_query2doc",
    "retrieve_standard",
    "run_benchmark",
    "shifted_query",
    "stratified_accuracy",
    "__version__",
}


def test_public_names_are_pinned_and_resolve():
    assert set(contrastive_retrieval.__all__) == PUBLIC_NAMES
    assert len(contrastive_retrieval.__all__) == len(PUBLIC_NAMES)
    for name in PUBLIC_NAMES:
        assert getattr(contrastive_retrieval, name) is not None, name


# Test oracles and doubles live in tests/helpers.py, not in the package, and
# removed API stays removed.
@pytest.mark.parametrize("module, name", [
    ("contrastive_retrieval", "contrastive_score"),
    ("contrastive_retrieval", "retrieve_top_k"),
    ("contrastive_retrieval", "cosine_sim"),
    ("contrastive_retrieval.retrieval", "contrastive_score"),
    ("contrastive_retrieval.retrieval", "retrieve_top_k"),
    ("contrastive_retrieval.retrieval", "_cos"),
    ("contrastive_retrieval.vectors", "cosine_sim"),
    ("contrastive_retrieval.backends", "ScriptedGeneratorBackend"),
    ("contrastive_retrieval.backends", "FailingGeneratorBackend"),
    ("contrastive_retrieval.backends", "OracleGeneratorBackend"),
    ("contrastive_retrieval.backends", "AdversarialGeneratorBackend"),
    ("contrastive_retrieval.synthdata", "make_planted_corpus"),
    ("contrastive_retrieval", "Document"),
    ("contrastive_retrieval.retrieval", "Document"),
    ("contrastive_retrieval.dataio", "save_corpus"),
])
def test_test_only_names_are_not_importable(module, name):
    assert not hasattr(importlib.import_module(module), name)
