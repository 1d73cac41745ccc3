from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from contrastive_retrieval.analysis import (
    CostRow,
    OverlapReport,
    SweepReport,
    cost_report,
    lambda_sweep,
    overlap_ratio,
    retrieval_shift,
    stratified_accuracy,
)
from contrastive_retrieval import dataio, pipeline
from contrastive_retrieval.backends import MockEmbedderBackend, MockGeneratorBackend
from contrastive_retrieval.config import RunConfig
from contrastive_retrieval.errors import (
    EmptyInputError,
    NoQualifyingCasesError,
    UnknownItemIdError,
)
from contrastive_retrieval.pipeline import evaluate, run_benchmark
from contrastive_retrieval.retrieval import Corpus, RankedResult
from bundled_data import build_bundled_corpus_texts, build_bundled_dataset
from helpers import make_record


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


# ----------------------------------------------------------------------
# Overlap ratio
# ----------------------------------------------------------------------

def test_overlap_ratio_hand_values():
    assert overlap_ratio({"a", "b", "c"}, {"a", "b", "c"}, 3) == 1.0
    assert overlap_ratio({"a", "b"}, {"x", "y"}, 2) == 0.0
    assert overlap_ratio(
        {"a", "b", "c", "d", "e"}, {"a", "b", "x", "y", "z"}, 5
    ) == pytest.approx(0.4, abs=1e-15)


def test_overlap_ratio_validates_sizes():
    with pytest.raises(ValueError):
        overlap_ratio({"a", "b", "c"}, {"a"}, 2)
    with pytest.raises(ValueError):
        overlap_ratio({"a"}, {"a"}, 0)


def test_overlap_ratio_symmetric_and_bounded():
    rng = np.random.default_rng(11)
    alphabet = [f"d{i}" for i in range(20)]
    for _ in range(100):
        k = int(rng.integers(1, 8))
        a = set(rng.choice(alphabet, size=k, replace=False))
        b = set(rng.choice(alphabet, size=k, replace=False))
        ratio = overlap_ratio(a, b, k)
        assert ratio == overlap_ratio(b, a, k)
        assert 0.0 <= ratio <= 1.0


# ----------------------------------------------------------------------
# Retrieval shift
# ----------------------------------------------------------------------

def shift_fixture():
    """10 qualifying cases: 8 with disjoint top-5 sets, 2 with identical ones."""
    disjoint_a = ("a1", "a2", "a3", "a4", "a5")
    disjoint_b = ("b1", "b2", "b3", "b4", "b5")
    records_a, records_b = [], []
    for i in range(10):
        item_id = f"q{i:02d}"
        same = i >= 8
        records_a.append(
            make_record(item_id, correct=True, method="chr",
                        doc_ids=disjoint_a, dataset="setA")
        )
        records_b.append(
            make_record(item_id, correct=False, method="hyde",
                        doc_ids=disjoint_a if same else disjoint_b, dataset="setA")
        )
    # Non-qualifying padding: one where both are right, one where A is wrong.
    records_a.append(make_record("q98", correct=True, doc_ids=disjoint_a))
    records_b.append(make_record("q98", correct=True, method="hyde", doc_ids=disjoint_b))
    records_a.append(make_record("q99", correct=False, doc_ids=disjoint_a))
    records_b.append(make_record("q99", correct=False, method="hyde", doc_ids=disjoint_b))
    return records_a, records_b


def test_retrieval_shift_frozen_aggregates():
    records_a, records_b = shift_fixture()
    report = retrieval_shift(records_a, records_b, k=5)
    assert report.n == 10
    assert report.zero_overlap_pct == pytest.approx(80.0, abs=1e-12)
    assert report.mean_overlap == pytest.approx(0.2, abs=1e-12)
    assert len(report.per_case) == 10
    assert [item_id for item_id, _ in report.per_case] == sorted(
        item_id for item_id, _ in report.per_case
    )
    assert {item_id for item_id, _ in report.per_case} == {f"q{i:02d}" for i in range(10)}


def test_retrieval_shift_aggregates_recompute_from_cases():
    records_a, records_b = shift_fixture()
    report = retrieval_shift(records_a, records_b, k=5)
    ratios = [ratio for _, ratio in report.per_case]
    assert report.mean_overlap == pytest.approx(sum(ratios) / len(ratios), abs=1e-12)
    zero = sum(1 for r in ratios if r == 0.0)
    assert report.zero_overlap_pct == pytest.approx(100.0 * zero / len(ratios), abs=1e-12)


def test_retrieval_shift_per_dataset_slices():
    records_a, records_b = [], []
    for i in range(4):
        name = "alpha" if i < 2 else "beta"
        records_a.append(make_record(f"q{i}", correct=True, doc_ids=("x1", "x2"), dataset=name))
        overlap = ("x1", "x2") if i % 2 else ("y1", "y2")
        records_b.append(
            make_record(f"q{i}", correct=False, method="hyde", doc_ids=overlap, dataset=name)
        )
    report = retrieval_shift(records_a, records_b, k=2)
    assert [s.name for s in report.per_dataset] == ["alpha", "beta"]
    for s in report.per_dataset:
        assert s.n == 2
        assert s.zero_overlap_pct == pytest.approx(50.0)
        assert s.mean_overlap == pytest.approx(0.5)
    assert report.n == 4


def test_retrieval_shift_input_validation():
    records_a, records_b = shift_fixture()
    with pytest.raises(ValueError):
        retrieval_shift(records_a + [records_a[0]], records_b, k=5)
    with pytest.raises(ValueError):
        retrieval_shift(records_a[:-1], records_b, k=5)
    all_wrong_a = [make_record(r.item_id, correct=False) for r in records_a]
    all_wrong_b = [make_record(r.item_id, correct=False, method="hyde") for r in records_b]
    with pytest.raises(NoQualifyingCasesError):
        retrieval_shift(all_wrong_a, all_wrong_b, k=5)


def test_retrieval_shift_skips_a_case_with_an_errored_record():
    # An errored record retrieved nothing, so it is no zero-overlap case.
    records_a = [make_record(f"q{i}", correct=True, doc_ids=("x1", "x2")) for i in (1, 2)]
    records_b = [
        make_record("q1", correct=False, method="hyde", doc_ids=("x1", "x2")),
        replace(
            make_record("q2", correct=False, method="hyde", predicted="abstain"),
            ranked=RankedResult(hits=(), method="hyde"),
            error="BackendUnavailableError: down",
        ),
    ]
    report = retrieval_shift(records_a, records_b, k=2)
    assert report.per_case == (("q1", 1.0),)
    assert (report.n, report.zero_overlap_pct, report.mean_overlap) == (1, 0.0, 1.0)
    with pytest.raises(NoQualifyingCasesError):
        retrieval_shift(records_a[1:], records_b[1:], k=2)


def test_overlap_report_is_plain_data():
    report = OverlapReport(n=1, zero_overlap_pct=0.0, mean_overlap=1.0,
                           per_case=(("q1", 1.0),))
    assert report.per_dataset == ()


# ----------------------------------------------------------------------
# Lambda sweep
# ----------------------------------------------------------------------

def sweep_backends(embedder):
    return (
        MockGeneratorBackend(seed=0, embedder=embedder),
        MockGeneratorBackend(seed=0, embedder=embedder),
    )


def sweep(items, lambdas, corpus, config, *, baselines=None, **backends):
    """The sweep report of chr at ``lambdas``: one ``evaluate``, then ``lambda_sweep``."""
    _, by_lambda = evaluate(
        items, corpus, config, methods=(), lambdas=lambdas, clock=None, **backends
    )
    return lambda_sweep(by_lambda, baselines)


def test_lambda_sweep_points_sorted_and_complete(dataset, corpus, embedder):
    gen, answers = sweep_backends(embedder)
    report = sweep(
        dataset, [1.0, 0.2, 0.6], corpus, RunConfig(mock=True),
        generator=gen, answer_generator=answers, embedder=embedder,
        baselines={"standard": 0.2},
    )
    assert [lam for lam, _ in report.points] == [0.2, 0.6, 1.0]
    assert all(0.0 <= acc <= 1.0 for _, acc in report.points)
    assert report.baselines == {"standard": 0.2}
    assert set(report.records_by_lambda) == {0.2, 0.6, 1.0}
    assert all(len(recs) == len(dataset) for recs in report.records_by_lambda.values())


def test_lambda_sweep_generates_pairs_once(dataset, corpus, embedder):
    gen, answers = sweep_backends(embedder)
    lambdas = [0.2, 0.6, 1.0, 1.4]
    sweep(
        dataset, lambdas, corpus, RunConfig(mock=True),
        generator=gen, answer_generator=answers, embedder=embedder,
    )
    assert gen.calls == len(dataset)
    assert answers.calls == len(dataset) * len(lambdas)


def test_lambda_sweep_zero_matches_h_plus_only(dataset, corpus, embedder):
    gen, answers = sweep_backends(embedder)
    report = sweep(
        dataset, [0.0], corpus, RunConfig(mock=True),
        generator=gen, answer_generator=answers, embedder=embedder,
    )
    gen2, answers2 = sweep_backends(embedder)
    plus_records, plus_summary = run_benchmark(
        dataset, "h_plus_only", corpus, RunConfig(mock=True),
        generator=gen2, answer_generator=answers2, embedder=embedder, clock=None,
    )
    sweep_records = report.records_by_lambda[0.0]
    assert report.points[0][1] == plus_summary["accuracy"]
    for swept, plus in zip(sweep_records, plus_records):
        assert swept.item_id == plus.item_id
        assert swept.ranked.hits == plus.ranked.hits
        assert swept.predicted == plus.predicted
        assert swept.correct == plus.correct


def test_lambda_sweep_is_item_major_and_matches_per_lambda_runs(
    dataset, corpus, embedder, monkeypatch
):
    calls = []
    retrieve_chr = pipeline.retrieve_chr

    def spy(pair, corpus, lam, k):
        calls.append((pair.h_plus, lam))
        return retrieve_chr(pair, corpus, lam, k)

    monkeypatch.setattr(pipeline, "retrieve_chr", spy)
    items = list(reversed(dataset[:6]))  # records must come back in id order
    lambdas = [1.0, 0.0, 0.4]
    gen, answers = sweep_backends(embedder)
    report = sweep(
        items, lambdas, corpus, RunConfig(mock=True),
        generator=gen, answer_generator=answers, embedder=embedder,
    )
    # Items outer, lambdas inner: each item's weights are scored back to back.
    assert [lam for _, lam in calls] == [0.0, 0.4, 1.0] * len(items)
    targets = [h_plus for h_plus, _ in calls]
    assert all(len(set(targets[i:i + 3])) == 1 for i in range(0, len(targets), 3))
    assert len(set(targets)) == len(items)

    for lam, accuracy in report.points:
        gen, answers = sweep_backends(embedder)
        records, summary = run_benchmark(
            items, "chr", corpus, RunConfig(mock=True, lam=lam),
            generator=gen, answer_generator=answers, embedder=embedder, clock=None,
        )
        assert accuracy == summary["accuracy"]
        swept = report.records_by_lambda[lam]
        assert [r.item_id for r in swept] == sorted(item.id for item in items)
        assert [dataio.record_to_dict(r) for r in swept] == [
            dataio.record_to_dict(r) for r in records
        ]


def test_lambda_sweep_validates_grid(dataset, corpus, embedder):
    gen, answers = sweep_backends(embedder)
    kwargs = dict(generator=gen, answer_generator=answers, embedder=embedder)
    with pytest.raises(ValueError):
        sweep(dataset, [], corpus, RunConfig(mock=True), **kwargs)
    with pytest.raises(ValueError):
        sweep(dataset, [0.5, 0.5], corpus, RunConfig(mock=True), **kwargs)
    with pytest.raises(ValueError):
        sweep(dataset, [-0.1, 0.5], corpus, RunConfig(mock=True), **kwargs)
    with pytest.raises(EmptyInputError):
        sweep([], [0.5], corpus, RunConfig(mock=True), **kwargs)


def test_sweep_report_rejects_unsorted_points():
    with pytest.raises(ValueError):
        SweepReport(points=((1.0, 0.5), (0.2, 0.4)))


# ----------------------------------------------------------------------
# Cost report
# ----------------------------------------------------------------------

def cost_records(method: str, tokens_per_item: int, calls: int, n: int = 10):
    return [
        make_record(f"{method}-{i}", correct=True, method=method,
                    llm_calls=calls, output_tokens=tokens_per_item)
        for i in range(n)
    ]


def test_cost_report_reduction_hand_value():
    records = cost_records("chr", 300, 1) + cost_records("hyde", 2910, 8)
    report = cost_report(records)
    assert report.reference == "hyde"
    assert report.per_method["hyde"].token_reduction == pytest.approx(1.0, abs=1e-12)
    assert report.per_method["chr"].token_reduction == pytest.approx(9.7, abs=1e-12)
    assert report.per_method["chr"].llm_calls_mean == 1.0
    assert report.per_method["hyde"].llm_calls_mean == 8.0


def test_cost_report_single_method_is_its_own_reference():
    report = cost_report(cost_records("chr", 250, 1))
    assert report.reference == "chr"
    assert report.per_method["chr"].token_reduction == 1.0


def test_cost_report_zero_token_method_has_no_ratio():
    records = cost_records("standard", 0, 0) + cost_records("chr", 300, 1)
    report = cost_report(records)
    assert report.reference == "chr"
    assert report.per_method["standard"].token_reduction is None
    assert report.per_method["standard"].llm_calls_mean == 0.0


def test_cost_report_reference_dominates():
    records = (
        cost_records("chr", 300, 1)
        + cost_records("hyde", 2910, 8)
        + cost_records("query2doc", 350, 1)
    )
    report = cost_report(records)
    for method, row in report.per_method.items():
        if row.token_reduction is not None:
            assert row.token_reduction >= 1.0
    assert isinstance(report.per_method["chr"], CostRow)
    with pytest.raises(EmptyInputError):
        cost_report([])


# ----------------------------------------------------------------------
# Stratified accuracy
# ----------------------------------------------------------------------

def strata_fixture():
    records, ratings = [], {}
    tiers = (("Excellent", 9, 6), ("Good", 30, 12), ("Poor", 8, 3))
    i = 0
    for tier, n, correct in tiers:
        for j in range(n):
            item_id = f"s{i:03d}"
            records.append(make_record(item_id, correct=j < correct))
            ratings[item_id] = tier
            i += 1
    return records, ratings


def test_stratified_accuracy_hand_values():
    records, ratings = strata_fixture()
    strata = stratified_accuracy(records, ratings)
    assert set(strata) == {"Excellent", "Good", "Poor"}
    assert (strata["Excellent"].n, strata["Excellent"].correct) == (9, 6)
    assert strata["Excellent"].accuracy == pytest.approx(6 / 9, abs=1e-12)
    assert round(100 * strata["Excellent"].accuracy, 1) == 66.7
    assert round(100 * strata["Good"].accuracy, 1) == 40.0
    assert round(100 * strata["Poor"].accuracy, 1) == 37.5


def test_stratified_accuracy_exclusions_drop_items():
    records, ratings = strata_fixture()
    exclusions = [item_id for item_id, tier in ratings.items() if tier == "Poor"]
    strata = stratified_accuracy(records, ratings, exclusions)
    assert "Poor" not in strata
    assert strata["Good"].n == 30
    all_ids = list(ratings)
    assert stratified_accuracy(records, ratings, all_ids) == {}


def test_stratified_accuracy_unrated_records_are_ignored():
    records, ratings = strata_fixture()
    records.append(make_record("extra", correct=True))
    strata = stratified_accuracy(records, ratings)
    assert sum(s.n for s in strata.values()) == 47


def test_stratified_accuracy_validation():
    records, ratings = strata_fixture()
    with pytest.raises(UnknownItemIdError):
        stratified_accuracy(records, {**ratings, "ghost": "Good"})
    with pytest.raises(UnknownItemIdError):
        stratified_accuracy(records, ratings, ["ghost"])
    with pytest.raises(ValueError):
        stratified_accuracy(records, {**ratings, "s000": "Superb"})
