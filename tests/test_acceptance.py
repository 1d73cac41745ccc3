"""Acceptance gate: nine end-to-end checks, one printed verdict line each.

Each test emits "[A#] PASS ..." or "[A#] FAIL"; the lines print to the real
stdout and also appear in a terminal-summary section at the end of the
pytest run. A1-A4 check the scoring and retrieval engine against
independent oracles; A5-A7 freeze the analysis arithmetic on hand-built
fixtures; A8 fuzzes the pair parser; A9 runs the whole offline pipeline
twice and requires byte-identical artifacts.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from contrastive_retrieval.analysis import (
    cost_report,
    lambda_sweep,
    retrieval_shift,
    stratified_accuracy,
)
from contrastive_retrieval.backends import MockEmbedderBackend, MockGeneratorBackend
from contrastive_retrieval.cli import main_cli
from contrastive_retrieval.config import RunConfig
from contrastive_retrieval.errors import ParseFailureError
from contrastive_retrieval.hypotheses import (
    QAItem,
    embed_pair,
    generate_pair,
    parse_pair,
)
from contrastive_retrieval.pipeline import evaluate, run_benchmark
from contrastive_retrieval.reports import (
    render_cost_table,
    render_overlap_table,
    render_strata_table,
)
from contrastive_retrieval.retrieval import (
    Corpus,
    retrieve_chr,
    retrieve_h_plus_only,
    retrieve_hyde,
    retrieve_query2doc,
    retrieve_standard,
    shifted_query,
)
from contrastive_retrieval.vectors import mean_embedding, normalize
from bundled_data import build_bundled_corpus_texts, build_bundled_dataset
from helpers import (
    ScriptedGeneratorBackend,
    contrastive_score,
    cosine_sim,
    injected_pair,
    make_planted_corpus,
    make_record,
    retrieve_top_k,
    unit,
)
from helpers import emit_verdict as _verdict

LAMBDA_GRID = (0.0, 0.5, 1.0, 1.4)


def oracle_top_k(corpus: Corpus, score_fn, k: int = 5) -> list[str]:
    """Independent full sort: score descending, ties by ascending id."""
    scored = sorted(
        zip(corpus.ids, map(score_fn, corpus.matrix)),
        key=lambda hit: (-hit[1], hit[0]),
    )
    return [doc_id for doc_id, _ in scored[:k]]


@pytest.fixture(scope="module")
def mock_embedder() -> MockEmbedderBackend:
    return MockEmbedderBackend(dimension=64, seed=0)


@pytest.fixture(scope="module")
def bundled_dataset():
    return build_bundled_dataset()


@pytest.fixture(scope="module")
def bundled_corpus(mock_embedder) -> Corpus:
    ids, texts = zip(*build_bundled_corpus_texts())
    return Corpus(ids, texts, [mock_embedder.embed(text) for text in texts])


def test_a1_score_equals_shifted_query_dot():
    passed = False
    detail = ""
    try:
        rng = np.random.default_rng(42)
        dim = 16
        trials = 0
        max_diff = 0.0
        started = time.perf_counter()
        for _ in range(100):
            pair = injected_pair(rng, dim)
            docs = rng.standard_normal((100, dim))
            docs /= np.linalg.norm(docs, axis=1, keepdims=True)
            for lam in LAMBDA_GRID:
                query = shifted_query(pair, lam)
                for doc in docs:
                    direct = contrastive_score(doc, pair, lam)
                    via_query = float(np.dot(doc, query))
                    max_diff = max(max_diff, abs(direct - via_query))
                trials += len(docs)
        elapsed = time.perf_counter() - started
        assert trials == 40_000
        assert max_diff <= 1e-9
        assert elapsed < 1.0
        detail = f"10000 docs x 4 weights, max diff {max_diff:.2e}, {elapsed:.2f}s"
        passed = True
    finally:
        _verdict("A1 contrastive score equals shifted-query dot product", passed, detail)


def test_a2_retrieval_matches_full_sort_oracle():
    passed = False
    detail = ""
    try:
        rng = np.random.default_rng(7)
        n_docs, k = 1000, 5
        started = time.perf_counter()
        for corpus_no in range(100):
            dim = int(rng.integers(16, 257))
            vecs = rng.standard_normal((n_docs, dim))
            vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
            # Exact duplicates force score ties that only the id rule breaks.
            vecs[500] = vecs[10]
            vecs[750] = vecs[10]
            corpus = Corpus(
                [f"doc{i:04d}" for i in range(n_docs)],
                [f"passage {i} of corpus {corpus_no}" for i in range(n_docs)],
                vecs,
            )
            embedder = MockEmbedderBackend(dimension=dim, seed=corpus_no)
            pair = injected_pair(rng, dim)
            lam = float(rng.choice(LAMBDA_GRID))
            item = QAItem(
                id=f"q{corpus_no}",
                stem=f"which passage covers topic {corpus_no} best",
                options={"A": "first", "B": "second"},
                answer_key="A",
            )
            drafts = [f"draft {j} about topic {corpus_no}" for j in range(3)]
            pseudo = f"pseudo evidence for topic {corpus_no}"

            standard_q = normalize(embedder.embed(item.stem))
            hyde_q = mean_embedding([normalize(embedder.embed(t)) for t in drafts])
            q2d_q = normalize(embedder.embed(item.stem + "\n\n" + pseudo))

            checks = [
                (retrieve_chr(pair, corpus, lam, k),
                 lambda row: contrastive_score(row, pair, lam)),
                (retrieve_h_plus_only(pair, corpus, k),
                 lambda row: cosine_sim(row, pair.h_plus_emb)),
                (retrieve_standard(item, corpus, k, embedder),
                 lambda row: cosine_sim(row, standard_q)),
                (retrieve_hyde(drafts, corpus, k, embedder),
                 lambda row: cosine_sim(row, hyde_q)),
                (retrieve_query2doc(item, pseudo, corpus, k, embedder),
                 lambda row: cosine_sim(row, q2d_q)),
            ]
            for ranked, score_fn in checks:
                assert list(ranked.doc_ids()) == oracle_top_k(corpus, score_fn, k), (
                    f"corpus {corpus_no}, method {ranked.method}"
                )
            # All-tied scores: the ranking must be the k smallest ids.
            flat = retrieve_top_k(lambda row: 0.0, corpus, k)
            assert [doc_id for doc_id, _ in flat] == sorted(corpus.ids)[:k]
        elapsed = time.perf_counter() - started
        assert elapsed < 30.0
        detail = f"100 corpora x 1000 docs x 5 methods, {elapsed:.1f}s"
        passed = True
    finally:
        _verdict("A2 every retrieval method matches the brute-force oracle", passed, detail)


def test_a3_lambda_zero_reduces_to_target_only(bundled_dataset, bundled_corpus, mock_embedder):
    passed = False
    detail = ""
    try:
        rng = np.random.default_rng(3)
        dim = 32
        vecs = [unit(rng, dim) for _ in range(300)]
        corpus = Corpus(
            [f"d{i:03d}" for i in range(300)], [f"text {i}" for i in range(300)], vecs
        )
        for trial in range(20):
            pair = injected_pair(rng, dim)
            chr_hits = retrieve_chr(pair, corpus, lam=0.0, k=5).hits
            plus_hits = retrieve_h_plus_only(pair, corpus, k=5).hits
            assert chr_hits == plus_hits  # ids, order, and exact scores

        config = RunConfig(mock=True, seed=0)
        _, by_lambda = evaluate(
            bundled_dataset, bundled_corpus, config, methods=(), lambdas=[0.0],
            generator=MockGeneratorBackend(seed=0, embedder=mock_embedder),
            answer_generator=MockGeneratorBackend(seed=0, embedder=mock_embedder),
            embedder=mock_embedder, clock=None,
        )
        sweep = lambda_sweep(by_lambda)
        plus_records, plus_summary = run_benchmark(
            bundled_dataset, "h_plus_only", bundled_corpus, config,
            generator=MockGeneratorBackend(seed=0, embedder=mock_embedder),
            answer_generator=MockGeneratorBackend(seed=0, embedder=mock_embedder),
            embedder=mock_embedder, clock=None,
        )
        assert sweep.points[0] == (0.0, plus_summary["accuracy"])
        swept = sweep.records_by_lambda[0.0]
        assert len(swept) == len(plus_records)
        for rec_a, rec_b in zip(swept, plus_records):
            assert rec_a.item_id == rec_b.item_id
            assert rec_a.ranked.hits == rec_b.ranked.hits
            assert rec_a.predicted == rec_b.predicted
            assert rec_a.correct == rec_b.correct
        detail = "20 random pairs + 20-item benchmark, exact equality"
        passed = True
    finally:
        _verdict("A3 weight zero reduces to target-only retrieval", passed, detail)


def test_a4_mimic_suppression_flips_cluster():
    passed = False
    detail = ""
    try:
        started = time.perf_counter()
        corpus, pair, target_ids, mimic_ids = make_planted_corpus(seed=7)
        top_at_zero = retrieve_chr(pair, corpus, lam=0.0, k=5).doc_ids()
        top_at_one = retrieve_chr(pair, corpus, lam=1.0, k=5).doc_ids()
        mimic_hits = sum(1 for doc_id in top_at_zero if doc_id in mimic_ids)
        target_hits = sum(1 for doc_id in top_at_one if doc_id in target_ids)
        assert mimic_hits >= 4, f"lam=0 top-5 {top_at_zero}"
        assert target_hits >= 4, f"lam=1 top-5 {top_at_one}"
        # Cross-check both rankings against the brute-force oracle.
        for lam, ranked in ((0.0, top_at_zero), (1.0, top_at_one)):
            oracle = oracle_top_k(corpus, lambda row: contrastive_score(row, pair, lam), 5)
            assert list(ranked) == oracle
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0
        detail = (
            f"lam=0: {mimic_hits}/5 mimic docs, lam=1: {target_hits}/5 target docs, "
            f"{elapsed:.2f}s"
        )
        passed = True
    finally:
        _verdict("A4 raising the weight swaps mimic cluster for target cluster", passed, detail)


def test_a5_overlap_analytics_frozen_values():
    passed = False
    detail = ""
    try:
        set_a = ("a1", "a2", "a3", "a4", "a5")
        set_b = ("b1", "b2", "b3", "b4", "b5")
        records_a, records_b = [], []
        for i in range(10):
            item_id = f"q{i:02d}"
            dataset = "setA" if i < 5 else "setB"
            identical = i >= 8
            records_a.append(make_record(item_id, correct=True, doc_ids=set_a,
                                         dataset=dataset))
            records_b.append(make_record(item_id, correct=False, method="hyde",
                                         doc_ids=set_a if identical else set_b,
                                         dataset=dataset))
        report = retrieval_shift(records_a, records_b, k=5)
        assert report.n == 10
        assert report.zero_overlap_pct == 80.0
        assert report.mean_overlap == 0.2
        table = render_overlap_table(report)
        lines = table.splitlines()
        assert lines[0].startswith("Dataset")
        assert [line.split()[0] for line in lines[2:]] == ["setA", "setB", "Combined"]
        assert lines[-1].split() == ["Combined", "10", "80.0%", "0.20"]
        detail = "zero-overlap 80.0%, mean 0.2, per-dataset rows + Combined"
        passed = True
    finally:
        _verdict("A5 overlap report reproduces the frozen fixture exactly", passed, detail)


def test_a6_expansion_call_counts_and_token_reduction(
    bundled_dataset, bundled_corpus, mock_embedder
):
    passed = False
    detail = ""
    try:
        expected_calls = {
            "chr": 1, "h_plus_only": 1, "query2doc": 1, "hyde": 8, "standard": 0,
        }
        all_records = []
        for method, per_item in expected_calls.items():
            records, _ = run_benchmark(
                bundled_dataset, method, bundled_corpus, RunConfig(mock=True, seed=0),
                generator=MockGeneratorBackend(seed=0, embedder=mock_embedder),
                answer_generator=MockGeneratorBackend(seed=0, embedder=mock_embedder),
                embedder=mock_embedder, clock=None,
            )
            assert all(r.cost.llm_calls == per_item for r in records), method
            all_records.extend(records)

        report = cost_report(all_records)
        assert report.per_method[report.reference].token_reduction == 1.0
        means = {}
        for method in expected_calls:
            recs = [r for r in all_records if r.method == method]
            means[method] = sum(r.cost.output_tokens for r in recs) / len(recs)
        for method, row in report.per_method.items():
            assert row.output_tokens_mean == means[method]
            if means[method] == 0:
                assert row.token_reduction is None
            else:
                expected = means[report.reference] / means[method]
                assert f"{row.token_reduction:.3g}" == f"{expected:.3g}"
        render_cost_table(report)  # must render without error
        detail = f"calls per item {expected_calls}, reference {report.reference}"
        passed = True
    finally:
        _verdict("A6 expansion call counts and token reductions are exact", passed, detail)


def test_a7_stratified_accuracy_frozen_percentages():
    passed = False
    detail = ""
    try:
        records, ratings = [], {}
        for tier, n, n_correct in (("Excellent", 9, 6), ("Good", 30, 12), ("Poor", 8, 3)):
            for j in range(n):
                item_id = f"{tier.lower()}{j:02d}"
                records.append(make_record(item_id, correct=j < n_correct))
                ratings[item_id] = tier
        strata = stratified_accuracy(records, ratings)
        rendered = {
            tier: f"{100 * stats.accuracy:.1f}%" for tier, stats in strata.items()
        }
        assert rendered == {"Excellent": "66.7%", "Good": "40.0%", "Poor": "37.5%"}
        table = render_strata_table(strata)
        assert table.splitlines()[2].split() == ["Excellent", "9", "6", "66.7%"]
        detail = "66.7% / 40.0% / 37.5%"
        passed = True
    finally:
        _verdict("A7 rating-tier accuracies match the published counts", passed, detail)


def _fuzz_wrappers():
    return [
        lambda blob: blob,
        lambda blob: f"Here is the JSON you requested:\n{blob}",
        lambda blob: f"{blob}\nLet me know if you need anything else.",
        lambda blob: f"```json\n{blob}\n```",
        lambda blob: f"```\n{blob}\n```",
        lambda blob: f"\n\n   {blob}   \n\n",
        lambda blob: f"Sure!\n\n```json\n{blob}\n```\nHope that helps.",
        lambda blob: f"{{not json}} then the real thing: {blob}",
        lambda blob: f"Preamble with braces {{}} everywhere.\n{blob}",
        lambda blob: blob.replace("\n", "\r\n"),
    ]


def _malformed_outputs():
    bad = [
        "",
        "   \n\t  ",
        "no structured content here",
        "{",
        "{}",
        "{} {}",
        "[1, 2, 3]",
        '"just a string"',
        '{"H_plus": "only the target"}',
        '{"H_minus": "only the mimic"}',
        '{"H_plus": "", "H_minus": "mimic"}',
        '{"H_plus": "target", "H_minus": ""}',
        '{"H_plus": "   ", "H_minus": "mimic"}',
        '{"H_plus": null, "H_minus": "mimic"}',
        '{"H_plus": 3, "H_minus": "mimic"}',
        '{"H_plus": ["target"], "H_minus": "mimic"}',
        '{"H_plus": {"text": "target"}, "H_minus": "mimic"}',
        '{"h_plus": "target", "h_minus": "mimic"}',
        '{"target": "x", "mimic": "y"}',
        '{"H_plus": "target", "H_minus": "mimic"',
        '{"H_plus": "target" "H_minus": "mimic"}',
        "{'H_plus': 'target', 'H_minus': 'mimic'}",
        '{"H_plus": "unterminated, "H_minus": "mimic"}',
        "```json\n{\n```",
        "The pair is H_plus: target and H_minus: mimic.",
    ]
    return (bad * 2)[:50]


def test_a8_parser_fuzz_and_fallback_degradation():
    passed = False
    detail = ""
    try:
        rng = np.random.default_rng(21)
        words = ("distal", "pathway", "marker", "lesion", "uptake", "cascade",
                 "biopsy", "titer", "axis", "flare")
        wrappers = _fuzz_wrappers()
        parsed = 0
        for case in range(200):
            h_plus = " ".join(rng.choice(words, size=5)) + ' with "quoted" {detail}'
            h_minus = " ".join(rng.choice(words, size=5)) + "\nsecond line"
            blob = json.dumps({"H_plus": h_plus, "H_minus": h_minus}, indent=2)
            raw = wrappers[case % len(wrappers)](blob)
            pair = parse_pair(raw)
            # JSON escaping shields the values from the wrapper edits.
            assert pair.h_plus == h_plus.strip()
            assert pair.h_minus == h_minus.strip()
            assert pair.provenance == "llm"
            parsed += 1
        assert parsed == 200

        malformed = _malformed_outputs()
        assert len(malformed) == 50
        for raw in malformed:
            with pytest.raises(ParseFailureError):
                parse_pair(raw)

        # Exhausted retries degrade to a fallback pair that retrieves like
        # target-only ranking.
        item = QAItem(id="q1", stem="Which marker explains the flare?",
                      options={"A": "first", "B": "second"}, answer_key="A")
        backend = ScriptedGeneratorBackend(malformed[2:5])
        pair, cost = generate_pair(item, backend, max_retries=2)
        assert pair.provenance == "fallback"
        assert pair.h_minus == ""
        assert cost.llm_calls == 3
        embedder = MockEmbedderBackend(dimension=32, seed=5)
        pair = embed_pair(pair, embedder)
        corpus = Corpus(
            [f"d{i}" for i in range(50)],
            [f"note {i}" for i in range(50)],
            [unit(rng, 32) for _ in range(50)],
        )
        for lam in LAMBDA_GRID:
            assert retrieve_chr(pair, corpus, lam, 5).hits == \
                retrieve_h_plus_only(pair, corpus, 5).hits
        detail = "200/200 parsed, 50/50 rejected, fallback ranks target-only"
        passed = True
    finally:
        _verdict("A8 pair parser survives fuzzing and degrades cleanly", passed, detail)


def test_a9_offline_run_is_complete_and_byte_identical(tmp_path):
    passed = False
    detail = ""
    try:
        out = tmp_path / "out"
        argv = ["run", "--mock", "--seed", "0", "--out", str(out)]
        started = time.perf_counter()
        assert main_cli(list(argv)) == 0
        first_elapsed = time.perf_counter() - started

        expected = [
            "records_standard.jsonl", "records_hyde.jsonl", "records_query2doc.jsonl",
            "records_chr.jsonl", "records_h_plus_only.jsonl", "summary.json",
            "report_overlap.json", "report_overlap.txt",
            "report_cost.json", "report_cost.txt",
            "report_sweep.json", "report_sweep.txt", "report_sweep.svg",
            "report_strata.json", "report_strata.txt",
        ]
        for name in expected:
            assert (out / name).exists(), name
        for name in expected:
            if name.startswith("records_"):
                lines = (out / name).read_text(encoding="utf-8").strip().split("\n")
                assert len(lines) == 20, name
        assert sorted(p.name for p in out.iterdir()) == sorted(expected)

        snapshot = {name: (out / name).read_bytes() for name in expected}
        assert main_cli(list(argv)) == 0
        for name in expected:
            assert (out / name).read_bytes() == snapshot[name], name
        assert first_elapsed < 10.0
        detail = f"{len(expected)} artifacts, rerun byte-identical, {first_elapsed:.2f}s"
        passed = True
    finally:
        _verdict("A9 offline pipeline run is deterministic and complete", passed, detail)
