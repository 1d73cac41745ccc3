from __future__ import annotations

import random
import threading
import time
from dataclasses import replace

import pytest

from contrastive_retrieval.analysis import lambda_sweep
from contrastive_retrieval.backends import (
    HYPO_DOC_MARKER,
    PAIR_MARKER,
    GenerationResult,
    HttpEmbedderBackend,
    HttpGeneratorBackend,
    MockEmbedderBackend,
    MockGeneratorBackend,
    chat_messages,
)
from contrastive_retrieval.config import RunConfig, sweep_grid
from contrastive_retrieval.costs import CostEntry
from contrastive_retrieval.dataio import record_to_dict
from contrastive_retrieval.errors import (
    BackendUnavailableError,
    EmbedderFailureError,
    EmptyInputError,
    UnknownDocIdError,
)
from contrastive_retrieval.pipeline import (
    ABSTAIN,
    ANSWER_INSTRUCTION,
    ANSWER_SYSTEM_PROMPT,
    WINDOW,
    AnswerMemo,
    accuracy,
    build_answer_prompt,
    evaluate,
    extract_answer,
    run_benchmark,
    summarize,
)
from contrastive_retrieval.hypotheses import (
    embed_pair,
    generate_pair,
    render_hypo_doc_prompt,
    render_prompt,
    render_pseudo_doc_prompt,
)
from contrastive_retrieval.retrieval import (
    QUERY2DOC_SEPARATOR,
    Corpus,
    RankedResult,
    retrieve_chr,
    retrieve_h_plus_only,
    retrieve_hyde,
    retrieve_query2doc,
    retrieve_standard,
)
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
        # Markdown around the answer line.
        ("**Answer:** B", "B"),
        ("**Answer: B**", "B"),
        ("Answer: **B**", "B"),
        ("## Answer: C", "C"),
        ("- **Answer:** A", "A"),
        ("**Answering** carefully", ABSTAIN),
        ("The answer is B.", ABSTAIN),
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
    healthy_drafts = set()  # the draft replies of the items that do not fail

    def generate(payload):
        prompt = payload["messages"][-1]["content"]
        if failing in prompt and "Draft 3 of 8" in prompt:
            return Reply(400)
        with lock:
            text = mock.complete(payload["messages"]).text
            if HYPO_DOC_MARKER in prompt and failing not in prompt:
                healthy_drafts.add(text)
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
        # Each distinct draft of the other two items was embedded once.
        assert len(embedder_server.requests) == len(healthy_drafts)
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


def test_evaluate_sends_one_pair_prompt_per_item(dataset, corpus, embedder):
    gen = MockGeneratorBackend(seed=0, embedder=embedder)
    answers = MockGeneratorBackend(seed=0, embedder=embedder)
    by_method, by_lambda = evaluate(
        dataset, corpus, mock_config(), methods=("chr", "h_plus_only"), lambdas=(0.5, 1.0),
        generator=gen, answer_generator=answers, embedder=embedder, clock=None,
    )
    assert gen.calls == len(dataset)  # chr, h_plus_only and both weights share it
    chr_records = by_method["chr"]
    for swept in (by_method["h_plus_only"], *by_lambda.values()):
        assert [r.pair for r in swept] == [r.pair for r in chr_records]
        assert [r.cost for r in swept] == [r.cost for r in chr_records]


def test_lambda_sweep_reports_the_chr_pair_at_every_weight(dataset, corpus, embedder):
    gen = MockGeneratorBackend(seed=0, embedder=embedder)
    answers = MockGeneratorBackend(seed=0, embedder=embedder)
    by_method, by_lambda = evaluate(
        dataset, corpus, mock_config(), methods=("chr",), lambdas=(0.5, 1.0),
        generator=gen, answer_generator=answers, embedder=embedder, clock=None,
    )
    pair_calls, answer_calls = gen.calls, answers.calls
    report = lambda_sweep(by_lambda)
    assert (gen.calls, answers.calls) == (pair_calls, answer_calls)  # no backend call
    assert pair_calls == len(dataset)
    chr_records = by_method["chr"]
    for lam in (0.5, 1.0):
        swept = report.records_by_lambda[lam]
        assert [r.pair for r in swept] == [r.pair for r in chr_records]
        assert [r.cost for r in swept] == [r.cost for r in chr_records]


class NoCalls:
    def complete(self, *args, **kwargs):
        raise AssertionError("generator called")

    def embed(self, *args, **kwargs):
        raise AssertionError("embedder called")


NO_CALLS = dict(generator=NoCalls(), answer_generator=NoCalls(), embedder=NoCalls())


def test_evaluate_checks_methods_and_weights_before_any_backend_call(dataset, corpus):
    for methods, lambdas in (
        (("bm25",), ()),
        (("chr", "chr"), ()),
        (("chr",), (0.5, 1.0, 0.5)),
        ((), (float("nan"),)),
        ((), (-0.1,)),
    ):
        with pytest.raises(ValueError):
            evaluate(dataset, corpus, mock_config(), methods=methods, lambdas=lambdas,
                     **NO_CALLS)
    with pytest.raises(ValueError, match="^methods must be distinct$"):
        evaluate(dataset, corpus, mock_config(), methods=("chr", "chr"), **NO_CALLS)


@pytest.mark.parametrize("lambdas", [(0.5, 1.0, 0.5), (0.2, -0.1), (float("nan"),),
                                     (0.5, float("inf"))],
                         ids=["repeated", "negative", "nan", "infinite"])
def test_evaluate_and_sweep_grid_reject_a_bad_grid_with_one_message(dataset, corpus, lambdas):
    with pytest.raises(ValueError) as from_grid:
        sweep_grid(lambdas)
    with pytest.raises(ValueError) as from_evaluate:
        evaluate(dataset, corpus, mock_config(), methods=("chr",), lambdas=lambdas, **NO_CALLS)
    assert str(from_evaluate.value) == str(from_grid.value)


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


def _chr_answers(items, corpus, embedder, answers, lambdas=(1.0,), **overrides):
    """Rank ``items`` by chr at config.lam (1.0), then at ``lambdas``: the weight
    1.0 repeats chr's answer prompt."""
    by_method, by_lambda = evaluate(
        items, corpus, mock_config(**overrides), methods=("chr",), lambdas=lambdas,
        generator=MockGeneratorBackend(seed=0, embedder=embedder), answer_generator=answers,
        embedder=embedder, clock=None,
    )
    return by_method["chr"], *by_lambda.values()


def test_answer_memo_sends_each_temperature_0_prompt_once(dataset, corpus, embedder):
    backend = CountingGenerator()
    memo = AnswerMemo(backend)
    chr_records, swept = _chr_answers(dataset[:2], corpus, embedder, memo)
    # A reply's token count is its call's number, so a shared reply shows.
    assert [r.answer_cost.output_tokens for r in chr_records] == [1, 2]
    assert [r.answer_cost for r in swept] == [r.answer_cost for r in chr_records]
    assert backend.calls == memo.calls == 2
    assert memo.hits == 2
    # A later evaluate with the same memo sends none of them again.
    again, swept = _chr_answers(dataset[:2], corpus, embedder, memo)
    assert [r.answer_cost for r in again] == [r.answer_cost for r in swept] == [
        r.answer_cost for r in chr_records]
    assert backend.calls == memo.calls == 2
    assert memo.hits == 6


def test_answer_memo_keys_on_every_message(dataset, corpus, embedder, monkeypatch):
    backend = CountingGenerator()
    memo = AnswerMemo(backend)
    [a] = _chr_answers(dataset[:1], corpus, embedder, memo, lambdas=())[0]
    # The same user prompt under another system prompt is another prompt.
    monkeypatch.setattr("contrastive_retrieval.pipeline.ANSWER_SYSTEM_PROMPT", "system two")
    [b] = _chr_answers(dataset[:1], corpus, embedder, memo, lambdas=())[0]
    assert a.answer_cost != b.answer_cost
    assert backend.calls == memo.calls == 2
    assert memo.hits == 0


def test_answer_memo_passes_sampled_calls_through(dataset, corpus, embedder):
    backend = CountingGenerator()
    memo = AnswerMemo(backend)
    [a], [b] = _chr_answers(dataset[:1], corpus, embedder, memo, temperature=0.7)
    assert a.answer_cost != b.answer_cost
    assert backend.calls == memo.calls == 2
    assert memo.hits == 0


def test_answer_memo_stores_nothing_for_a_failed_call(dataset, corpus, embedder):
    backend = CountingGenerator(failures=1)
    memo = AnswerMemo(backend)
    [a], [b] = _chr_answers(dataset[:1], corpus, embedder, memo)
    # The weight 1.0 shares the failed call's error, and is no hit.
    assert a.error == b.error == "BackendUnavailableError: transient"
    assert (backend.calls, memo.calls, memo.hits) == (1, 1, 0)
    [a], [b] = _chr_answers(dataset[:1], corpus, embedder, memo)
    assert a.error is None
    assert a.answer_cost.output_tokens == 2
    assert b.answer_cost == a.answer_cost
    assert backend.calls == memo.calls == 2
    assert memo.hits == 1


def test_a_plain_answer_generator_gets_each_distinct_temperature_0_prompt_once(
    dataset, corpus, embedder
):
    backend = CountingGenerator()
    chr_records, swept = _chr_answers(dataset[:3], corpus, embedder, backend)
    assert backend.calls == 3
    assert [r.answer_cost.output_tokens for r in chr_records] == [1, 2, 3]
    assert [r.answer_cost for r in swept] == [r.answer_cost for r in chr_records]


def test_an_answer_that_failed_in_one_window_is_sent_again_in_the_next(
    dataset, corpus, embedder
):
    # The first answer call, the first item's chr prompt, fails. Its twin
    # comes at position WINDOW + 1, in the second window.
    first = dataset[0]
    items = [*dataset[:WINDOW], replace(first, id="twin")]
    backend = CountingGenerator(failures=1)
    chr_records, swept = _chr_answers(items, corpus, embedder, backend)
    by_id = {r.item_id: r for r in chr_records}
    swept_by_id = {r.item_id: r for r in swept}
    assert by_id["twin"].ranked.hits == by_id[first.id].ranked.hits
    assert by_id[first.id].error == swept_by_id[first.id].error == (
        "BackendUnavailableError: transient")
    assert by_id["twin"].error is None
    assert by_id["twin"].answer_cost.output_tokens == WINDOW + 1  # the last call
    assert swept_by_id["twin"].answer_cost == by_id["twin"].answer_cost
    # Each distinct prompt of a window went once.
    assert backend.calls == WINDOW + 1


def test_answer_memo_hit_keeps_the_record_answer_cost(dataset, corpus, embedder):
    gen = MockGeneratorBackend(seed=0, embedder=embedder)
    answers = AnswerMemo(MockGeneratorBackend(seed=0, embedder=embedder))
    by_method, by_lambda = evaluate(dataset, corpus, mock_config(), methods=("chr",),
                                    lambdas=[1.0], generator=gen, answer_generator=answers,
                                    embedder=embedder, clock=None)
    chr_records = by_method["chr"]
    report = lambda_sweep(by_lambda)
    assert answers.calls == answers.hits == len(dataset)
    swept = report.records_by_lambda[1.0]
    assert [record_to_dict(r) for r in swept] == [record_to_dict(r) for r in chr_records]
    assert all(r.answer_cost.llm_calls == 1 for r in swept)


# ----------------------------------------------------------------------
# An item's answer batch
# ----------------------------------------------------------------------

def _flat(by_method, by_lambda):
    return [r for records in (*by_method.values(), *by_lambda.values()) for r in records]


class PooledGenerator:
    """The in-process mock behind ``MAX_IN_FLIGHT = 4``; every call with ``failing``'s
    prompt raises.

    The mock is used one call at a time, under a lock. ``prompts`` gets each
    call's user prompt, ``threads`` the threads that made the calls.
    """

    MAX_IN_FLIGHT = 4

    def __init__(self, mock, failing=None):
        self.mock, self.failing = mock, failing
        self.prompts: list[str] = []
        self.threads: set[int] = set()
        self.lock = threading.Lock()

    def complete(self, messages, temperature=0.0):
        with self.lock:
            self.prompts.append(messages[-1]["content"])
            self.threads.add(threading.get_ident())
            if messages[-1]["content"] == self.failing:
                raise BackendUnavailableError("answer rejected: HTTP 400")
            return self.mock.complete(messages, temperature)


def test_a_failed_answer_marks_only_its_own_record(dataset, corpus, embedder):
    items = dataset[:2]

    def run(answers):
        return _flat(*evaluate(
            items, corpus, mock_config(), methods=("standard", "hyde", "chr"),
            lambdas=(0.5, 1.0), generator=MockGeneratorBackend(seed=0, embedder=embedder),
            answer_generator=answers, embedder=embedder, clock=None,
        ))

    expected = run(MockGeneratorBackend(seed=0, embedder=embedder))
    assert all(r.error is None for r in expected)
    by_id = {item.id: item for item in items}
    prompts = [build_answer_prompt(by_id[r.item_id], r.ranked, corpus) for r in expected]
    # The first item's standard prompt; no other record of the run has it.
    failing = prompts[0]
    assert prompts.count(failing) == 1
    pooled = PooledGenerator(MockGeneratorBackend(seed=0, embedder=embedder), failing)
    memo = AnswerMemo(pooled)
    got = run(memo)
    assert got[0].error == "BackendUnavailableError: answer rejected: HTTP 400"
    assert (got[0].ranked, got[0].predicted, got[0].answer_cost) == (
        expected[0].ranked, ABSTAIN, CostEntry())
    # Every other answer of the item, and of the run, was made and recorded.
    assert [record_to_dict(r) for r in got[1:]] == [record_to_dict(r) for r in expected[1:]]
    assert pooled.prompts.count(failing) == 1
    assert len(pooled.prompts) == len(set(prompts)) == memo.calls
    assert threading.get_ident() not in pooled.threads  # each batch went to the pool
    # The memo stored nothing for the failed prompt, so a second run with it
    # sends that prompt again, and no other.
    again = run(memo)
    assert again[0].error == got[0].error
    assert pooled.prompts.count(failing) == 2
    assert len(pooled.prompts) == memo.calls == len(set(prompts)) + 1


def test_an_http_generator_gets_an_items_answers_at_once_each_distinct_prompt_once(
    dataset, corpus, embedder
):
    items = dataset[:3]
    mock = MockGeneratorBackend(seed=0, embedder=embedder)
    lock = threading.Lock()  # the mocks are used one call at a time
    windows: list[tuple[str, float, float]] = []  # (kind, start, end) per request served

    def generate(payload):
        started = time.perf_counter()
        with lock:
            text = mock.complete(payload["messages"]).text
        kind = "answer" if ANSWER_INSTRUCTION in payload["messages"][-1]["content"] else "other"
        if kind == "answer":
            time.sleep(0.02)  # long enough for an item's answer requests to meet
        windows.append((kind, started, time.perf_counter()))
        return Reply(body={"choices": [{"message": {"content": text}}]})

    def embed(payload):
        started = time.perf_counter()
        with lock:
            vector = embedder.embed(payload["input"]).tolist()
        windows.append(("embed", started, time.perf_counter()))
        return Reply(body={"data": [{"embedding": vector}]})

    def run(generator, answers, embedder):
        return _flat(*evaluate(
            items, corpus, mock_config(), methods=("standard", "query2doc", "chr"),
            lambdas=(0.5, 1.0), generator=generator, answer_generator=answers,
            embedder=embedder, clock=None,
        ))

    generator_server, embedder_server = FaultServer(generate), FaultServer(embed)
    try:
        generator = HttpGeneratorBackend(generator_server.url(), "m")
        memo = AnswerMemo(generator)
        records = run(generator, memo, HttpEmbedderBackend(embedder_server.url(), "m"))
    finally:
        generator_server.close()
        embedder_server.close()
    assert all(r.error is None for r in records)
    sent = [r.payload["messages"][-1]["content"] for r in generator_server.requests]
    answers = [prompt for prompt in sent if ANSWER_INSTRUCTION in prompt]
    # Each distinct prompt was sent once; chr at config.lam repeats the
    # weight 1.0 in each item's batch, and the memo served the repeat.
    assert len(answers) == len(set(answers)) == memo.calls
    assert memo.hits == len(records) - memo.calls >= len(items)

    def overlap(a, b):
        return a[1] < b[2] and b[1] < a[2]

    answered = [w for w in windows if w[0] == "answer"]
    embedded = [w for w in windows if w[0] == "embed"]
    assert any(overlap(a, b) for i, a in enumerate(answered) for b in answered[i + 1:])
    assert not any(overlap(a, e) for a in answered for e in embedded)
    # The records are those of the in-process mocks.
    expected = run(mock, AnswerMemo(MockGeneratorBackend(seed=0, embedder=embedder)), embedder)
    assert [(r.ranked, r.predicted) for r in records] == [
        (r.ranked, r.predicted) for r in expected]


def test_an_answer_costs_its_own_calls_wall_time_not_its_batchs(dataset, corpus, embedder):
    now = [0.0]

    class Ticking:
        """The mock answerer on a clock that each of its calls moves one second on."""

        def __init__(self):
            self.mock = MockGeneratorBackend(seed=0, embedder=embedder)

        def complete(self, messages, temperature=0.0):
            now[0] += 1.0
            return self.mock.complete(messages, temperature)

    memo = AnswerMemo(Ticking())
    by_method, by_lambda = evaluate(
        dataset[:3], corpus, mock_config(), methods=("standard", "chr"), lambdas=(1.0,),
        generator=MockGeneratorBackend(seed=0, embedder=embedder), answer_generator=memo,
        embedder=embedder, clock=lambda: now[0],
    )
    # Each item's batch made two calls, standard's and chr's; the weight 1.0
    # repeats chr's prompt and is served from the memo.
    assert (memo.calls, memo.hits) == (6, 3)
    for records in by_method.values():
        assert [r.answer_cost.wall_ms for r in records] == [1000] * 3
    assert [r.answer_cost.wall_ms for r in by_lambda[1.0]] == [0] * 3
    assert summarize(by_method["chr"])["answer_cost"]["wall_ms_total"] == 3000


# ----------------------------------------------------------------------
# Windows
# ----------------------------------------------------------------------

class CountingEmbedder:
    """The mock embedder, keeping the text of each call; a text in ``failing`` fails."""

    def __init__(self, mock, failing=()):
        self.mock, self.dimension, self.model = mock, mock.dimension, mock.model
        self.failing = set(failing)
        self.texts: list[str] = []

    @property
    def calls(self):
        return len(self.texts)

    def embed(self, text):
        self.texts.append(text)
        if text in self.failing:
            raise EmbedderFailureError("embedder rejected the text")
        return self.mock.embed(text)


class Ticking:
    """A mock backend on a clock that each of its calls moves one second on."""

    def __init__(self, mock, now):
        self.mock, self.now = mock, now

    def complete(self, messages, temperature=0.0):
        self.now[0] += 1.0
        return self.mock.complete(messages, temperature)

    def embed(self, text):
        self.now[0] += 1.0
        return self.mock.embed(text)


EVERY_WAY = dict(methods=("standard", "hyde", "query2doc", "chr", "h_plus_only"),
                 lambdas=(0.5, 1.0))


@pytest.mark.parametrize("n", [1, WINDOW - 1, WINDOW, WINDOW + 1])
def test_a_window_makes_the_records_and_calls_of_its_items_evaluated_alone(
    dataset, corpus, embedder, n
):
    def run(items):
        gen = MockGeneratorBackend(seed=0, embedder=embedder)
        answers = MockGeneratorBackend(seed=0, embedder=embedder)
        counting = CountingEmbedder(embedder)
        by_method, by_lambda = evaluate(
            items, corpus, mock_config(), generator=gen, answer_generator=answers,
            embedder=counting, clock=None, **EVERY_WAY,
        )
        outputs = [[record_to_dict(r) for r in rs] for rs in (*by_method.values(),
                                                               *by_lambda.values())]
        return outputs, (gen.calls, counting.calls, answers.calls)

    items = dataset[:n]
    together, calls = run(items)
    alone = [run([item]) for item in items]
    assert together == [[r for outputs, _ in alone for r in outputs[i]]
                        for i in range(len(together))]
    assert calls == tuple(sum(counts) for counts in zip(*(c for _, c in alone)))
    assert all(r["error"] is None for records in together for r in records)


def test_a_window_sends_its_items_generator_calls_at_once_and_resends_a_garbled_pair(
    dataset, corpus, embedder
):
    items = dataset[:3]
    mock = MockGeneratorBackend(seed=0, embedder=embedder)
    lock = threading.Lock()  # the mocks are used one call at a time
    # (kind, item index, start, end, messages) per request served.
    served: list[tuple[str, int, float, float, object]] = []
    garbled = f"Question: {items[1].stem}\n"

    def item_of(text):
        return next(i for i, item in enumerate(items) if item.stem in text)

    def generate(payload):
        started = time.perf_counter()
        messages = payload["messages"]
        prompt = messages[-1]["content"]
        kind = ("pair" if PAIR_MARKER in prompt
                else "answer" if ANSWER_INSTRUCTION in prompt else "other")
        with lock:
            first = kind == "pair" and garbled in prompt and not any(
                s[0] == "pair" and s[4] == messages for s in served)
            text = "not a pair" if first else mock.complete(messages).text
        time.sleep(0.02)  # long enough for a batch's requests to meet
        with lock:
            served.append((kind, item_of(prompt), started, time.perf_counter(), messages))
        return Reply(body={"choices": [{"message": {"content": text}}]})

    def embed(payload):
        started = time.perf_counter()
        with lock:
            vector = embedder.embed(payload["input"]).tolist()
            served.append(("embed", -1, started, time.perf_counter(), None))
        return Reply(body={"data": [{"embedding": vector}]})

    def run(generator, embedder):
        return _flat(*evaluate(
            items, corpus, mock_config(hyde_n=2), methods=("standard", "hyde", "query2doc", "chr"),
            lambdas=(0.5,), generator=generator, answer_generator=generator,
            embedder=embedder, clock=None,
        ))

    generator_server, embedder_server = FaultServer(generate), FaultServer(embed)
    try:
        records = run(HttpGeneratorBackend(generator_server.url(), "m"),
                      HttpEmbedderBackend(embedder_server.url(), "m"))
    finally:
        generator_server.close()
        embedder_server.close()
    assert all(r.error is None for r in records)

    def overlap(a, b):
        return a[2] < b[3] and b[2] < a[3]

    generated = [s for s in served if s[0] != "embed"]
    embedded = [s for s in served if s[0] == "embed"]
    expanding = [s for s in generated if s[0] != "answer"]
    assert any(overlap(a, b) for a in expanding for b in expanding if a[1] != b[1])
    assert not any(overlap(g, e) for g in generated for e in embedded)
    # The garbled prompt went again, with identical messages, once the
    # window's first batch had ended.
    pairs = [s for s in expanding if s[0] == "pair"]
    assert len(pairs) == len(items) + 1
    resent = [s for s in pairs if s[1] == 1]
    assert len(resent) == 2 and resent[0][4] == resent[1][4]
    first_batch = [s for s in expanding if s is not resent[1]]
    assert resent[1][2] >= max(s[3] for s in first_batch)
    chr_records = [r for r in records if r.method == "chr"]
    assert [r.cost.llm_calls for r in chr_records] == [1, 2, 1, 1, 2, 1]
    # The records are those of the in-process mocks.
    expected = run(mock, embedder)
    assert [(r.ranked, r.predicted) for r in records] == [
        (r.ranked, r.predicted) for r in expected]


def test_a_failed_pair_prompt_or_draft_marks_only_the_records_that_needed_it(
    dataset, corpus, embedder
):
    items = dataset[:WINDOW]
    failing = {
        render_prompt(items[1])[1],
        render_hypo_doc_prompt(items[2], draft=3, total=8)[1],
    }

    def run(generator):
        return _flat(*evaluate(
            items, corpus, mock_config(), generator=generator,
            answer_generator=MockGeneratorBackend(seed=0, embedder=embedder),
            embedder=embedder, clock=None, **EVERY_WAY,
        ))

    class FailingSome(PooledGenerator):
        def complete(self, messages, temperature=0.0):
            if messages[-1]["content"] in failing:
                with self.lock:
                    self.prompts.append(messages[-1]["content"])
                raise BackendUnavailableError("expansion rejected: HTTP 400")
            return super().complete(messages, temperature)

    expected = run(MockGeneratorBackend(seed=0, embedder=embedder))
    pooled = FailingSome(MockGeneratorBackend(seed=0, embedder=embedder))
    got = run(pooled)
    # Each failing prompt was sent once, and every other call was made.
    assert sorted(p for p in pooled.prompts if p in failing) == sorted(failing)
    needed = {(items[1].id, "chr"), (items[1].id, "h_plus_only"), (items[2].id, "hyde")}
    for record, want in zip(got, expected):
        if (record.item_id, record.method) in needed:
            assert record.error == "BackendUnavailableError: expansion rejected: HTTP 400"
            assert (record.ranked.hits, record.pair, record.cost) == ((), None, CostEntry())
            assert (record.predicted, record.answer_cost) == (ABSTAIN, CostEntry())
        else:
            assert record_to_dict(record) == record_to_dict(want)
    assert sum(r.error is not None for r in got) == 1 + 1 + 1 + len(EVERY_WAY["lambdas"])


def test_an_expansion_costs_its_own_calls_wall_time_not_its_windows(dataset, corpus, embedder):
    now = [0.0]
    by_method, by_lambda = evaluate(
        dataset[:3], corpus, mock_config(hyde_n=2),
        generator=Ticking(MockGeneratorBackend(seed=0, embedder=embedder), now),
        answer_generator=MockGeneratorBackend(seed=0, embedder=embedder),
        embedder=Ticking(embedder, now), clock=lambda: now[0], **EVERY_WAY,
    )
    # standard: the stem; hyde: 2 drafts and their embeddings; query2doc: the
    # prompt and the stem with its pseudo-document; the pair: its prompt, H+
    # and H-. The window's expansion batches took 3 * 13 seconds.
    own_seconds = {"standard": 1, "hyde": 4, "query2doc": 2, "chr": 3, "h_plus_only": 3}
    for method, records in by_method.items():
        assert [r.cost.wall_ms for r in records] == [own_seconds[method] * 1000] * 3
    for records in by_lambda.values():
        assert [r.cost.wall_ms for r in records] == [3000] * 3
    assert all(r.answer_cost.wall_ms == 0 for rs in by_method.values() for r in rs)
    assert summarize(by_method["hyde"])["expansion_cost"]["wall_ms_total"] == 12000


# ----------------------------------------------------------------------
# A window's embeddings
# ----------------------------------------------------------------------

def expansions_of(item, mock, hyde_n=8):
    """The item's drafts, Query2doc pseudo-document and pair, as ``mock`` writes them."""
    def reply(prompt):
        return mock.complete(chat_messages(*prompt)).text

    drafts = [reply(render_hypo_doc_prompt(item, draft=d, total=hyde_n))
              for d in range(1, hyde_n + 1)]
    pseudo = reply(render_pseudo_doc_prompt(item)).strip() or item.stem
    return drafts, pseudo, generate_pair(item, mock)[0]


def test_a_window_embeds_each_distinct_text_once_and_ranks_as_one_call_per_use_does(
    dataset, corpus, embedder
):
    mock = MockGeneratorBackend(seed=0, embedder=embedder)
    counting = CountingEmbedder(embedder)
    records = _flat(*evaluate(
        dataset, corpus, mock_config(), generator=mock, answer_generator=mock,
        embedder=counting, clock=None, **EVERY_WAY,
    ))
    expansions = {item.id: expansions_of(item, mock) for item in dataset}
    needed = []  # each window's texts, repeats included
    for start in range(0, len(dataset), WINDOW):
        needed.append([])
        for item in dataset[start:start + WINDOW]:
            drafts, pseudo, pair = expansions[item.id]
            needed[-1] += [item.stem, *drafts, item.stem + QUERY2DOC_SEPARATOR + pseudo,
                           pair.h_plus, pair.h_minus]
    assert counting.calls == sum(len(set(texts)) for texts in needed)
    assert counting.calls < sum(len(texts) for texts in needed)  # the drafts repeat
    # The rankings and answers are those of the retrieve_* functions, which
    # embed a text at each use.
    k = mock_config().k
    for record in records:
        item = next(item for item in dataset if item.id == record.item_id)
        drafts, pseudo, pair = expansions[item.id]
        ranked = {
            "standard": lambda: retrieve_standard(item, corpus, k, embedder),
            "hyde": lambda: retrieve_hyde(drafts, corpus, k, embedder),
            "query2doc": lambda: retrieve_query2doc(item, pseudo, corpus, k, embedder),
            "chr": lambda: retrieve_chr(embed_pair(pair, embedder), corpus, record.lam, k),
            "h_plus_only": lambda: retrieve_h_plus_only(embed_pair(pair, embedder), corpus, k),
        }[record.method]()
        reply = mock.complete(chat_messages(
            ANSWER_SYSTEM_PROMPT, build_answer_prompt(item, ranked, corpus))).text
        assert record.ranked == ranked
        assert record.predicted == extract_answer(reply, list(item.options))


def test_a_failed_embedding_of_a_repeated_text_marks_every_record_that_needed_it(
    dataset, corpus, embedder
):
    twin = replace(dataset[0], id=dataset[0].id + "-twin")
    items = [dataset[0], dataset[1], twin]
    drafts, _, _ = expansions_of(dataset[1], MockGeneratorBackend(seed=0, embedder=embedder))
    repeated = next(draft for draft in drafts if drafts.count(draft) > 1)
    failing = {dataset[0].stem, repeated}

    def run(counting):
        return _flat(*evaluate(
            items, corpus, mock_config(), generator=MockGeneratorBackend(seed=0, embedder=embedder),
            answer_generator=MockGeneratorBackend(seed=0, embedder=embedder),
            embedder=counting, clock=None, **EVERY_WAY,
        ))

    expected = run(CountingEmbedder(embedder))
    counting = CountingEmbedder(embedder, failing)
    got = run(counting)
    assert sorted(t for t in counting.texts if t in failing) == sorted(failing)
    needed = {(dataset[0].id, "standard"), (twin.id, "standard"), (dataset[1].id, "hyde")}
    for record, want in zip(got, expected):
        if (record.item_id, record.method) in needed:
            assert record.error == "EmbedderFailureError: embedder rejected the text"
            assert (record.ranked.hits, record.cost, record.predicted) == ((), CostEntry(), ABSTAIN)
        else:
            assert record_to_dict(record) == record_to_dict(want)
    assert sum(r.error is not None for r in got) == len(needed)


def test_a_repeated_embedding_adds_no_seconds_to_its_expansions_cost(dataset, corpus, embedder):
    twin = replace(dataset[0], id=dataset[0].id + "-twin")
    drafts, _, _ = expansions_of(dataset[0], MockGeneratorBackend(seed=0, embedder=embedder))
    assert len(set(drafts)) < len(drafts)
    now = [0.0]
    by_method, _ = evaluate(
        [dataset[0], twin], corpus, mock_config(), methods=("standard", "hyde"),
        generator=Ticking(MockGeneratorBackend(seed=0, embedder=embedder), now),
        answer_generator=MockGeneratorBackend(seed=0, embedder=embedder),
        embedder=Ticking(embedder, now), clock=lambda: now[0],
    )
    # The item pays for its stem and for each distinct draft once; its twin
    # repeats every text, so it pays only for its own eight draft prompts.
    assert [r.cost.wall_ms for r in by_method["standard"]] == [1000, 0]
    assert [r.cost.wall_ms for r in by_method["hyde"]] == [(8 + len(set(drafts))) * 1000, 8000]


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
