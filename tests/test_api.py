from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

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
    ("contrastive_retrieval.dataio", "_read_cache_records"),
    ("contrastive_retrieval.reports", "RATING_ORDER"),
    ("contrastive_retrieval.config", "ANSWER_PROMPT_VERSION"),
    ("contrastive_retrieval.synthdata", "build_bundled_dataset"),
    ("contrastive_retrieval.synthdata", "build_bundled_corpus_texts"),
    ("contrastive_retrieval.synthdata", "build_bundled_ratings"),
    ("contrastive_retrieval.synthdata", "write_bundled_data"),
    ("contrastive_retrieval.synthdata", "main"),
    ("contrastive_retrieval.dataio", "save_dataset"),
    ("contrastive_retrieval.dataio", "save_ratings"),
])
def test_test_only_names_are_not_importable(module, name):
    assert not hasattr(importlib.import_module(module), name)


def test_perfbench_tracing_finds_every_name_it_wraps():
    # The benchmark wraps functions by the names their callers use; a renamed
    # or deleted one fails here, not only in a traced benchmark run.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    with tracer.install(), tracing.CallCounter().install(tracer):
        pass
