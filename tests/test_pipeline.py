from __future__ import annotations

import random
import threading

import pytest

from contrastive_retrieval.analysis import lambda_sweep
from contrastive_retrieval.backends import (
    GenerationResult,
    HttpEmbedderBackend,
    HttpGeneratorBackend,
    MockEmbedderBackend,
    MockGeneratorBackend,
    chat_messages,
)
from contrastive_retrieval.config import RunConfig
from contrastive_retrieval.dataio import record_to_dict
from contrastive_retrieval.errors import (
    BackendUnavailableError,
    EmptyInputError,
    UnknownDocIdError,
)
from contrastive_retrieval.pipeline import (
    ABSTAIN,
    ANSWER_INSTRUCTION,
    AnswerMemo,
    accuracy,
    build_answer_prompt,
    extract_answer,
    run_benchmark,
    summarize,
)
from contrastive_retrieval.retrieval import Corpus, RankedResult
from bundled_data import build_bundled_corpus_texts, build_bundled_dataset
from helpers import (
    AdversarialGeneratorBackend,
    FailingGeneratorBackend,
    OracleGeneratorBackend,
    ScriptedGeneratorBackend,
    make_record,
    two_option_item,
)
from http_faults import FaultServer, Reply


@pytest.fixture(scope="module")
def embedder() -> MockEmbedderBackend:
    return MockEmbedderBackend(dimension=64, seed=0)


@pytest.fixture(scope="module")
def dataset():
    return build_bundled_dataset()


@pytest.fixture(scope="module")
def corpus(embedder) -> Corpus:
    ids, texts = zip(*build_bundled_corpus_texts())
    return Corpus(ids, texts, [embedder.embed(text) for text in texts])


def mock_config(**overrides) -> RunConfig:
    base = dict(mock=True, seed=0, k=5, lam=1.0, hyde_n=8)
    base.update(overrides)
    return RunConfig(**base)


# ----------------------------------------------------------------------
# Answer prompt
# ----------------------------------------------------------------------

def test_build_answer_prompt_layout():
    corpus = Corpus(["d1", "d2"], ["alpha evidence", "beta evidence"], [[1.0, 0.0], [0.0, 1.0]])
    ranked = RankedResult(hits=(("d2", 0.9), ("d1", 0.1)), method="standard")
    item = two_option_item(stem="Why does the reading spike?")
    prompt = build_answer_prompt(item, ranked, corpus)
    lines = prompt.split("\n")
    assert lines[0] == "[Doc 1] beta evidence"
    assert lines[1] == "[Doc 2] alpha evidence"
    assert lines[2] == ""
    assert lines[3] == "Question: Why does the reading spike?"
    assert lines[4] == "Options:"
    assert lines[5] == "(A) first explanation"
    assert lines[6] == "(B) second explanation"
    assert lines[7] == ""
    assert lines[8] == ANSWER_INSTRUCTION
    assert prompt == build_answer_prompt(item, ranked, corpus)


def test_build_answer_prompt_rejects_bad_inputs():
    corpus = Corpus(["d1"], ["alpha"], [[1.0, 0.0]])
    item = two_option_item()
    with pytest.raises(ValueError):
        build_answer_prompt(item, RankedResult(hits=(), method="standard"), corpus)
    ranked = RankedResult(hits=(("ghost", 0.5),), method="standard")
    with pytest.raises(UnknownDocIdError):
        build_answer_prompt(item, ranked, corpus)


# ----------------------------------------------------------------------
# Answer extraction
# ----------------------------------------------------------------------

OPTIONS = ("A", "B", "C", "D")


@pytest.mark.parametrize(
    ("raw", "expected"),
    [
        ("Answer: C", "C"),
        ("answer: d", "D"),
        ("Answer: (A)", "A"),
        ("Based on the evidence...\nAnswer: B", "B"),
        ("I think (B) is right", "B"),
        ("C. The marker is diagnostic.", "C"),
        ("  D", "D"),
        ("unsure", ABSTAIN),
        ("", ABSTAIN),
        ("Answer: Z", ABSTAIN),
        ("Answer: Z\nbut maybe (B)", "B"),
        ("The answer is (C). Final call:\nAnswer: B", "B"),
        ("Answering this requires care", ABSTAIN),
    ],
)
def test_extract_answer(raw, expected):
    assert extract_answer(raw, OPTIONS) == expected


def test_extract_answer_only_listed_letters_count():
    assert extract_answer("Answer: C", ("A", "B")) == ABSTAIN
    assert extract_answer("(E) then (B)", ("A", "B")) == "B"


# ----------------------------------------------------------------------
# run_benchmark
# ----------------------------------------------------------------------

def test_run_benchmark_shapes_and_ordering(dataset, corpus, embedder):
    config = mock_config()
    records, summary = run_benchmark(
        dataset,
        "standard",
        corpus,
        config,
        generator=MockGeneratorBackend(seed=0, embedder=embedder),
        answer_generator=MockGeneratorBackend(seed=0, embedder=embedder),
        embedder=embedder,
        clock=None,
    )
    assert len(records) == len(dataset)
    assert [r.item_id for r in records] == sorted(r.item_id for r in records)
    assert summary["n"] == len(dataset)
    assert 0.0 <= summary["accuracy"] <= 1.0
    gold = {item.id: item.answer_key for item in dataset}
    for rec in records:
        assert rec.method == "standard"
        assert len(rec.ranked.hits) == config.k
        assert rec.cost.llm_calls == 0
        assert rec.answer_cost.llm_calls == 1
        assert rec.correct == (rec.predicted == gold[rec.item_id])


def test_run_benchmark_oracle_and_adversarial_bounds(dataset, corpus, embedder):
    config = mock_config()
    records, summary = run_benchmark(
        dataset,
        "standard",
        corpus,
        config,
        generator=MockGeneratorBackend(seed=0, embedder=embedder),
        answer_generator=OracleGeneratorBackend(dataset),
        embedder=embedder,
        clock=None,
    )
    assert summary["accuracy"] == 1.0
    records, summary = run_benchmark(
        dataset,
        "standard",
        corpus,
        config,
        generator=MockGeneratorBackend(seed=0, embedder=embedder),
        answer_generator=AdversarialGeneratorBackend(dataset),
        embedder=embedder,
        clock=None,
    )
    assert summary["accuracy"] == 0.0
    assert summary["abstentions"] == 0


def test_run_benchmark_garbage_answers_abstain(dataset, corpus, embedder):
    records, summary = run_benchmark(
        dataset,
        "standard",
        corpus,
        mock_config(),
        generator=MockGeneratorBackend(seed=0, embedder=embedder),
        answer_generator=ScriptedGeneratorBackend(["mumble mumble"]),
        embedder=embedder,
        clock=None,
    )
    assert summary["accuracy"] == 0.0
    assert summary["abstentions"] == len(dataset)
    assert all(r.predicted == ABSTAIN for r in records)


def test_run_benchmark_answer_stage_failure_is_recorded(dataset, corpus, embedder):
    records, summary = run_benchmark(
        dataset[:3],
        "standard",
        corpus,
        mock_config(),
        generator=MockGeneratorBackend(seed=0, embedder=embedder),
        answer_generator=FailingGeneratorBackend(),
        embedder=embedder,
        clock=None,
    )
    assert len(records) == 3
    assert summary["item_errors"] == 3
    for rec in records:
        assert rec.error is not None
        assert "BackendUnavailableError" in rec.error
        assert rec.predicted == ABSTAIN
        assert not rec.correct
        assert rec.ranked.hits  # retrieval succeeded before the answer call


def test_run_benchmark_expansion_failure_yields_empty_ranking(dataset, corpus, embedder):
    records, _ = run_benchmark(
        dataset[:2],
        "chr",
        corpus,
        mock_config(max_retries=0),
        generator=FailingGeneratorBackend(),
        answer_generator=MockGeneratorBackend(seed=0, embedder=embedder),
        embedder=embedder,
        clock=None,
    )
    for rec in records:
        assert rec.error is not None
        assert rec.ranked.hits == ()
        assert rec.predicted == ABSTAIN



def test_a_failing_hyde_draft_over_http_is_only_that_items_error(dataset, corpus, embedder):
    items = dataset[:3]
    failing = f"Question: {items[1].stem}\n"
    mock = MockGeneratorBackend(seed=0, embedder=embedder)
    lock = threading.Lock()  # the mocks are used one call at a time

    def generate(payload):
        prompt = payload["messages"][-1]["content"]
        if failing in prompt and "Draft 3 of 8" in prompt:
            return Reply(400)
        with lock:
            text = mock.complete(payload["messages"]).text
        return Reply(body={"choices": [{"message": {"content": text}}]})

    def embed(payload):
        with lock:
            return Reply(body={"data": [{"embedding": embedder.embed(payload["input"]).tolist()}]})

    generator_server, embedder_server = FaultServer(generate), FaultServer(embed)
    try:
        generator = HttpGeneratorBackend(generator_server.url(), "m", backoff_s=0.0)
        records, summary = run_benchmark(
            items, "hyde", corpus, mock_config(), generator=generator,
            answer_generator=generator, embedder=HttpEmbedderBackend(embedder_server.url(), "m"),
            clock=None,
        )
        # The failing item sent its eight drafts and nothing after them.
        assert len(generator_server.requests) == 3 * 8 + 2
        assert len(embedder_server.requests) == 2 * 8
    finally:
        generator_server.close()
        embedder_server.close()
    errors = {r.item_id: r.error for r in records}
    assert errors == {
        items[0].id: None,
        items[1].id: f"BackendUnavailableError: generator at {generator_server.url()} "
                     f"rejected the request: HTTP 400",
        items[2].id: None,
    }
    assert summary["item_errors"] == 1
    # The other items rank and answer as the in-process mocks do.
    expected, _ = run_benchmark(
        items, "hyde", corpus, mock_config(), generator=mock, answer_generator=mock,
        embedder=embedder, clock=None,
    )
    for got, want in zip(records, expected):
        if got.error is None:
            assert (got.ranked, got.predicted) == (want.ranked, want.predicted)


def test_run_benchmark_records_wrong_dimension_mimic_as_item_error(dataset, corpus, embedder):
    class ShortMimicEmbedder:
        """The mock embedder, except that one mimic text loses a component."""

        dimension = embedder.dimension

        def embed(self, text):
            vector = embedder.embed(text)
            return vector[:-1] if text == "short mimic" else vector

    pairs = [
        '{"H_plus": "target one", "H_minus": "mimic one"}',
        '{"H_plus": "target two", "H_minus": "short mimic"}',
        '{"H_plus": "target three", "H_minus": "mimic three"}',
    ]
    def run(method):
        return run_benchmark(
            dataset[:3],
            method,
            corpus,
            mock_config(),
            generator=ScriptedGeneratorBackend(pairs),
            answer_generator=MockGeneratorBackend(seed=0, embedder=embedder),
            embedder=ShortMimicEmbedder(),
            clock=None,
        )

    records, summary = run("chr")
    errors = {r.item_id: r.error for r in records}
    assert errors.pop(dataset[1].id).startswith("DimensionMismatchError: h_minus embedding")
    assert set(errors.values()) == {None}
    assert summary["item_errors"] == 1
    # The ablation never reads the mimic, so the same pairs rank without error.
    records, summary = run("h_plus_only")
    assert summary["item_errors"] == 0
    assert all(len(r.ranked.hits) == 5 for r in records)


def test_run_benchmark_call_counts_match_backends(dataset, corpus, embedder):
    for method, per_item in (("chr", 1), ("h_plus_only", 1), ("query2doc", 1), ("hyde", 8)):
        expansion = MockGeneratorBackend(seed=0, embedder=embedder)
        answers = MockGeneratorBackend(seed=0, embedder=embedder)
        records, _ = run_benchmark(
            dataset,
            method,
            corpus,
            mock_config(),
            generator=expansion,
            answer_generator=answers,
            embedder=embedder,
            clock=None,
        )
        assert sum(r.cost.llm_calls for r in records) == expansion.calls
        assert expansion.calls == per_item * len(dataset)
        assert sum(r.answer_cost.llm_calls for r in records) == answers.calls
        assert answers.calls == len(dataset)


def test_run_benchmark_is_deterministic(dataset, corpus, embedder):
    def one_run():
        records, _ = run_benchmark(
            dataset,
            "chr",
            corpus,
            mock_config(),
            generator=MockGeneratorBackend(seed=0, embedder=embedder),
            answer_generator=MockGeneratorBackend(seed=0, embedder=embedder),
            embedder=embedder,
            clock=None,
        )
        return [record_to_dict(r) for r in records]

    assert one_run() == one_run()


def test_run_benchmark_clock_none_zeroes_wall_time(dataset, corpus, embedder):
    records, _ = run_benchmark(
        dataset[:2],
        "chr",
        corpus,
        mock_config(),
        generator=MockGeneratorBackend(seed=0, embedder=embedder),
        answer_generator=MockGeneratorBackend(seed=0, embedder=embedder),
        embedder=embedder,
        clock=None,
    )
    assert all(r.cost.wall_ms == 0 and r.answer_cost.wall_ms == 0 for r in records)


def test_run_benchmark_validates_inputs(dataset, corpus, embedder, monkeypatch):
    gen = MockGeneratorBackend(seed=0, embedder=embedder)
    embedded = []
    embed = MockEmbedderBackend.embed
    monkeypatch.setattr(MockEmbedderBackend, "embed",
                        lambda self, text: embedded.append(text) or embed(self, text))
    with pytest.raises(EmptyInputError):
        run_benchmark([], "chr", corpus, mock_config(), generator=gen,
                      answer_generator=gen, embedder=embedder)
    with pytest.raises(ValueError, match="unknown method 'bm25'"):
        run_benchmark(dataset, "bm25", corpus, mock_config(), generator=gen,
                      answer_generator=gen, embedder=embedder)
    # An unknown method is rejected before any backend call.
    assert gen.calls == 0
    assert embedded == []


def test_run_benchmark_stamps_lambda_only_for_chr(dataset, corpus, embedder):
    for method, want in (("chr", 0.8), ("h_plus_only", None), ("standard", None)):
        records, _ = run_benchmark(
            dataset[:2],
            method,
            corpus,
            mock_config(lam=0.8),
            generator=MockGeneratorBackend(seed=0, embedder=embedder),
            answer_generator=MockGeneratorBackend(seed=0, embedder=embedder),
            embedder=embedder,
            clock=None,
        )
        assert all(r.lam == want for r in records)


def test_run_benchmark_reuses_pair_cache(dataset, corpus, embedder):
    cache = {}
    gen = MockGeneratorBackend(seed=0, embedder=embedder)
    answers = MockGeneratorBackend(seed=0, embedder=embedder)
    run_benchmark(dataset, "chr", corpus, mock_config(), generator=gen,
                  answer_generator=answers, embedder=embedder,
                  pair_cache=cache, clock=None)
    assert gen.calls == len(dataset)
    run_benchmark(dataset, "h_plus_only", corpus, mock_config(), generator=gen,
                  answer_generator=answers, embedder=embedder,
                  pair_cache=cache, clock=None)
    assert gen.calls == len(dataset)  # second pass served entirely from cache


def test_lambda_sweep_uses_given_pair_cache(dataset, corpus, embedder):
    cache = {}
    gen = MockGeneratorBackend(seed=0, embedder=embedder)
    answers = MockGeneratorBackend(seed=0, embedder=embedder)
    chr_records, _ = run_benchmark(dataset, "chr", corpus, mock_config(), generator=gen,
                                   answer_generator=answers, embedder=embedder,
                                   pair_cache=cache, clock=None)
    pair_calls = gen.calls
    report = lambda_sweep(dataset, [0.5, 1.0], corpus, mock_config(), generator=gen,
                          answer_generator=answers, embedder=embedder,
                          pair_cache=cache, clock=None)
    assert gen.calls == pair_calls == len(dataset)  # no pair prompt in the sweep
    swept = report.records_by_lambda[1.0]
    assert [r.pair for r in swept] == [r.pair for r in chr_records]
    assert [r.cost for r in swept] == [r.cost for r in chr_records]


# ----------------------------------------------------------------------
# Answer memo
# ----------------------------------------------------------------------

class CountingGenerator:
    """Answers with its call number as the token count; the first ``failures`` calls raise."""

    def __init__(self, failures: int = 0) -> None:
        self.failures = failures
        self.calls = 0

    def complete(self, messages, temperature=0.0):
        self.calls += 1
        if self.calls <= self.failures:
            raise BackendUnavailableError("transient")
        return GenerationResult(text=f"Answer: A ({self.calls})", output_tokens=self.calls)


def test_answer_memo_sends_each_temperature_0_prompt_once():
    backend = CountingGenerator()
    memo = AnswerMemo(backend)
    first = memo.complete(chat_messages("sys", "q1"))
    assert memo.complete(chat_messages("sys", "q1")) == first
    assert memo.complete(chat_messages("sys", "q1"), temperature=0.0) == first
    memo.complete(chat_messages("sys", "q2"))
    assert backend.calls == memo.calls == 2
    assert memo.hits == 2


def test_answer_memo_keys_on_every_message():
    backend = CountingGenerator()
    memo = AnswerMemo(backend)
    a = memo.complete(chat_messages("system one", "same question"))
    b = memo.complete(chat_messages("system two", "same question"))
    assert a != b
    assert backend.calls == memo.calls == 2
    assert memo.hits == 0


def test_answer_memo_passes_sampled_calls_through():
    backend = CountingGenerator()
    memo = AnswerMemo(backend)
    a = memo.complete(chat_messages("sys", "q1"), temperature=0.7)
    b = memo.complete(chat_messages("sys", "q1"), temperature=0.7)
    assert a != b
    assert backend.calls == memo.calls == 2
    assert memo.hits == 0


def test_answer_memo_stores_nothing_for_a_failed_call():
    backend = CountingGenerator(failures=1)
    memo = AnswerMemo(backend)
    with pytest.raises(BackendUnavailableError):
        memo.complete(chat_messages("sys", "q1"))
    result = memo.complete(chat_messages("sys", "q1"))
    assert result == GenerationResult(text="Answer: A (2)", output_tokens=2)
    assert memo.complete(chat_messages("sys", "q1")) == result
    assert backend.calls == memo.calls == 2
    assert memo.hits == 1


def test_answer_memo_hit_keeps_the_record_answer_cost(dataset, corpus, embedder):
    cache = {}
    gen = MockGeneratorBackend(seed=0, embedder=embedder)
    answers = AnswerMemo(MockGeneratorBackend(seed=0, embedder=embedder))
    chr_records, _ = run_benchmark(dataset, "chr", corpus, mock_config(), generator=gen,
                                   answer_generator=answers, embedder=embedder,
                                   pair_cache=cache, clock=None)
    report = lambda_sweep(dataset, [1.0], corpus, mock_config(), generator=gen,
                          answer_generator=answers, embedder=embedder,
                          pair_cache=cache, clock=None)
    assert answers.calls == answers.hits == len(dataset)
    swept = report.records_by_lambda[1.0]
    assert [record_to_dict(r) for r in swept] == [record_to_dict(r) for r in chr_records]
    assert all(r.answer_cost.llm_calls == 1 for r in swept)


# ----------------------------------------------------------------------
# Accuracy and summaries
# ----------------------------------------------------------------------

def test_accuracy_simple_fraction():
    records = [make_record(f"q{i}", correct=i < 3) for i in range(4)]
    assert accuracy(records) == pytest.approx(0.75, abs=1e-15)
    with pytest.raises(EmptyInputError):
        accuracy([])


def test_accuracy_large_fixture_and_order_invariance():
    records = [make_record(f"q{i:04d}", correct=i < 500) for i in range(587)]
    assert abs(accuracy(records) - 500 / 587) <= 1e-12
    shuffled = records[:]
    random.Random(7).shuffle(shuffled)
    assert accuracy(shuffled) == accuracy(records)


def test_summarize_counts_and_lambda_key():
    records = [
        make_record("q1", correct=True),
        make_record("q2", correct=False, predicted=ABSTAIN),
    ]
    summary = summarize(records)
    assert summary["method"] == "chr"
    assert summary["n"] == 2
    assert summary["correct"] == 1
    assert summary["abstentions"] == 1
    assert summary["expansion_cost"]["llm_calls_total"] == 2
    assert summary["answer_cost"]["llm_calls_mean"] == 1.0
    assert "lambda" not in summary  # helper records carry no lambda
    with pytest.raises(EmptyInputError):
        summarize([])
