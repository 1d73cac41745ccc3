from __future__ import annotations

import importlib
import importlib.util
import threading
import time
from pathlib import Path

import pytest

import contrastive_retrieval
from contrastive_retrieval.backends import MockEmbedderBackend, MockGeneratorBackend
from contrastive_retrieval.config import RunConfig
from contrastive_retrieval.pipeline import evaluate
from contrastive_retrieval.retrieval import METHODS, Corpus
from bundled_data import build_bundled_corpus_texts, build_bundled_dataset

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
    "evaluate",
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


def _perfbench_tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_perfbench_tracing_finds_every_name_it_wraps():
    # The benchmark wraps functions by the names their callers use; a renamed
    # or deleted one fails here, not only in a traced benchmark run.
    tracing = _perfbench_tracing()
    tracer = tracing.Tracer()
    with tracer.install(), tracing.CallCounter().install(tracer):
        pass


class _TimedBackend:
    """A mock backend whose batches run in a pool, recording every call.

    ``calls`` gets (role, start_ns, end_ns) per call. The mock itself is
    used one call at a time, under ``lock``.
    """

    MAX_IN_FLIGHT = 4
    role = ""

    def __init__(self, mock, calls, lock):
        self.mock, self.calls, self.lock = mock, calls, lock

    def _call(self, method, *args):
        started = time.perf_counter_ns()
        time.sleep(0.002)
        with self.lock:
            result = getattr(self.mock, method)(*args)
        self.calls.append((self.role, started, time.perf_counter_ns()))
        return result


class _TimedGenerator(_TimedBackend):
    role = "generator"

    def complete(self, messages, temperature=0.0):
        return self._call("complete", messages, temperature)


class _TimedEmbedder(_TimedBackend):
    role = "embedder"

    @property
    def dimension(self):
        return self.mock.dimension

    @property
    def model(self):
        return self.mock.model

    def embed(self, text):
        return self._call("embed", text)


@pytest.mark.parametrize("method", ["hyde", "chr", "all"])
def test_pooled_batches_keep_perfbench_call_counts_whole(monkeypatch, method):
    # perfbench counts backend calls with wrappers on the backend classes,
    # and drops an embed made while a generator call is open (the mock
    # answerer's own). So every call must reach the class's method, and no
    # embedder call may overlap a generator call. "all" runs every method
    # and two sweep weights, so each item's answers go out as one batch.
    tracing = _perfbench_tracing()
    monkeypatch.setattr(tracing, "GENERATOR_CLASSES", (_TimedGenerator,))
    monkeypatch.setattr(tracing, "EMBEDDER_CLASSES", (_TimedEmbedder,))
    mock_embedder = MockEmbedderBackend(dimension=64, seed=0)
    ids, texts = zip(*build_bundled_corpus_texts())
    corpus = Corpus(ids, texts, [mock_embedder.embed(text) for text in texts])
    calls: list[tuple[str, int, int]] = []
    lock = threading.Lock()
    generator = _TimedGenerator(MockGeneratorBackend(seed=0, embedder=mock_embedder), calls, lock)
    embedder = _TimedEmbedder(mock_embedder, calls, lock)
    counter = tracing.CallCounter()
    with counter.install():
        by_method, by_lambda = evaluate(
            build_bundled_dataset()[:4], corpus, RunConfig(mock=True, hyde_n=8),
            methods=METHODS if method == "all" else (method,),
            lambdas=(0.5, 1.0) if method == "all" else (),
            generator=generator, answer_generator=generator, embedder=embedder, clock=None,
        )
    assert all(r.error is None for rs in (*by_method.values(), *by_lambda.values()) for r in rs)
    spans = {role: [(start, end) for r, start, end in calls if r == role]
             for role in ("generator", "embedder")}
    assert (counter.generator_calls, counter.embedder_calls) == (
        len(spans["generator"]), len(spans["embedder"]))

    def overlap(a, b):
        return a[0] < b[1] and b[0] < a[1]

    assert not any(overlap(e, g) for e in spans["embedder"] for g in spans["generator"])
    # The embedder's batches did run in the pool.
    embeds = spans["embedder"]
    assert any(overlap(a, b) for i, a in enumerate(embeds) for b in embeds[i + 1:])


# Every name perfbench wraps on the ranking and answering path, with the
# module its span is named after.
TRACED_ON_EVALUATE = (
    "retrieval.retrieve_standard", "retrieval.retrieve_hyde", "retrieval.retrieve_query2doc",
    "retrieval.retrieve_chr", "retrieval.retrieve_h_plus_only", "hypotheses.embed_pair",
    "hypotheses.parse_pair", "pipeline.build_answer_prompt", "pipeline.extract_answer",
    "retrieval.top_k_from_scores",
)


def test_evaluate_calls_every_name_perfbench_traces():
    # The tracer rebinds module globals, so only a call made through them at
    # call time shows up as a span; a name bound once would read 0.
    tracing = _perfbench_tracing()
    embedder = MockEmbedderBackend(dimension=64, seed=0)
    generator = MockGeneratorBackend(seed=0, embedder=embedder)
    ids, texts = zip(*build_bundled_corpus_texts())
    corpus = Corpus(ids, texts, [embedder.embed(text) for text in texts])
    tracer = tracing.Tracer()
    with tracer.install():
        evaluate(
            build_bundled_dataset()[:2], corpus, RunConfig(mock=True), methods=METHODS,
            lambdas=(0.5,), generator=generator, answer_generator=generator,
            embedder=embedder, clock=None,
        )
    traced = {span[0] for span in tracer.spans}
    assert [name for name in TRACED_ON_EVALUATE if name not in traced] == []
