from __future__ import annotations

import dataclasses
import json
import struct

import numpy as np
import pytest

from contrastive_retrieval import cli, pipeline
from contrastive_retrieval.backends import (
    ANSWER_MARKER,
    HYPO_DOC_MARKER,
    PAIR_MARKER,
    GenerationResult,
    MockEmbedderBackend,
    MockGeneratorBackend,
)
from contrastive_retrieval.cli import (
    _config_from_args,
    _make_backends,
    _resolve_inputs,
    build_parser,
    main_cli,
)
from contrastive_retrieval.config import DEFAULT_SWEEP_GRID, EMBEDDER_API_KEY_ENV, RunConfig
from contrastive_retrieval.dataio import load_cache, load_corpus, load_dataset, load_records
from contrastive_retrieval.errors import BackendUnavailableError
from contrastive_retrieval.hypotheses import embed_pair
from contrastive_retrieval.synthdata import CORPUS_FILE, DATASET_FILE, RATINGS_FILE, bundled_path
from helpers import shifted_query_answer
from http_faults import FaultServer, Reply


# Nested far past Python's recursion limit: json.load raises RecursionError.
DEEP_JSON = b"[" * 100_000 + b"]" * 100_000


def run_cli(*argv: str) -> int:
    return main_cli(list(argv))


@pytest.fixture
def backend_calls(monkeypatch) -> list[str]:
    """Names the mock backend calls a command makes, in order."""
    calls: list[str] = []
    complete = MockGeneratorBackend.complete
    embed = MockEmbedderBackend.embed

    def counting_complete(self, messages, temperature=0.0):
        calls.append("complete")
        return complete(self, messages, temperature)

    def counting_embed(self, text):
        calls.append("embed")
        return embed(self, text)

    monkeypatch.setattr(MockGeneratorBackend, "complete", counting_complete)
    monkeypatch.setattr(MockEmbedderBackend, "embed", counting_embed)
    return calls


@pytest.fixture
def generator_prompts(monkeypatch) -> list[tuple[str, float]]:
    """The (user prompt, temperature) of each mock generator call, in order."""
    prompts: list[tuple[str, float]] = []
    complete = MockGeneratorBackend.complete

    def recording_complete(self, messages, temperature=0.0):
        prompts.append((messages[-1]["content"], temperature))
        return complete(self, messages, temperature)

    monkeypatch.setattr(MockGeneratorBackend, "complete", recording_complete)
    return prompts


def test_run_single_method(tmp_path, capsys):
    out = tmp_path / "out"
    code = run_cli("run", "--method", "chr", "--mock", "--seed", "0", "--out", str(out))
    assert code == 0
    captured = capsys.readouterr()
    assert "chr: accuracy" in captured.out
    records = load_records(out / "records_chr.jsonl")
    assert len(records) == 20
    assert all(r.method == "chr" for r in records)
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert summary["config"]["mock"] is True
    assert summary["methods"]["chr"]["n"] == 20


def test_run_hyphenated_method_spelling(tmp_path):
    out = tmp_path / "out"
    assert run_cli("run", "--method", "h-plus-only", "--mock", "--out", str(out)) == 0
    assert (out / "records_h_plus_only.jsonl").exists()


def test_run_all_methods_emits_reports(tmp_path):
    out = tmp_path / "out"
    assert run_cli("run", "--mock", "--seed", "0", "--out", str(out)) == 0
    for method in ("standard", "hyde", "query2doc", "chr", "h_plus_only"):
        assert len(load_records(out / f"records_{method}.jsonl")) == 20
    for name in (
        "summary.json",
        "report_overlap.json", "report_overlap.txt",
        "report_cost.json", "report_cost.txt",
        "report_sweep.json", "report_sweep.txt", "report_sweep.svg",
        "report_strata.json", "report_strata.txt",
    ):
        assert (out / name).exists(), name
    assert list(out.glob("*.partial")) == []


def test_compare_cost_and_stratify_reproduce_a_runs_reports_byte_for_byte(tmp_path, capsys):
    # Each report goes through the record codec (save_records, load_records,
    # record_from_dict) and then through the renderers the run used.
    out = tmp_path / "out"
    assert run_cli("run", "--mock", "--seed", "0", "--out", str(out)) == 0
    again = tmp_path / "again"
    assert run_cli("compare", str(out / "records_chr.jsonl"), str(out / "records_hyde.jsonl"),
                   "--out", str(again)) == 0
    assert run_cli("cost", *map(str, sorted(out.glob("records_*.jsonl"))),
                   "--out", str(again)) == 0
    assert run_cli("stratify", "--records", str(out / "records_chr.jsonl"),
                   "--ratings", str(bundled_path(RATINGS_FILE)), "--out", str(again)) == 0
    capsys.readouterr()
    for name in ("overlap", "cost", "strata"):
        for suffix in (".json", ".txt"):
            report = f"report_{name}{suffix}"
            assert (again / report).read_bytes() == (out / report).read_bytes(), report


def test_run_all_methods_generates_each_pair_once(tmp_path, capsys, generator_prompts):
    out = tmp_path / "out"
    assert run_cli("run", "--mock", "--seed", "0", "--out", str(out)) == 0
    prompts = [prompt for prompt, _ in generator_prompts]
    # 20 items: one pair each, shared by chr, h_plus_only and the sweep.
    # Of the 240 answers (5 methods and 7 sweep weights per item), only the
    # 211 distinct prompts reach the backend.
    assert sum(PAIR_MARKER in p for p in prompts) == 20
    answer_prompts = [p for p in prompts if ANSWER_MARKER in p]
    assert len(answer_prompts) == len(set(answer_prompts)) == 211
    assert "answers: 211 backend calls, 29 served from the run's memo" in capsys.readouterr().err

    def pairs(method):
        lines = (out / f"records_{method}.jsonl").read_text(encoding="utf-8").splitlines()
        return {row["item_id"]: row["pair"] for row in map(json.loads, lines)}

    assert pairs("h_plus_only") == pairs("chr")
    assert all(pair is not None for pair in pairs("chr").values())


def test_run_at_nonzero_temperature_sends_every_answer(tmp_path, capsys, generator_prompts):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"mock": True, "temperature": 0.7}), encoding="utf-8")
    assert run_cli("run", "--config", str(config_path), "--out", str(tmp_path / "out")) == 0
    answers = [temperature for prompt, temperature in generator_prompts if ANSWER_MARKER in prompt]
    assert answers == [0.7] * 240
    assert "answers: 240 backend calls, 0 served from the run's memo" in capsys.readouterr().err


def test_run_resends_a_pair_prompt_that_failed_to_parse(tmp_path, monkeypatch):
    # A garbled pair reply is asked again, never replayed from the memo.
    pair_calls = []
    complete = MockGeneratorBackend.complete

    def garble_first_pair(self, messages, temperature=0.0):
        if PAIR_MARKER in messages[-1]["content"]:
            pair_calls.append(messages)
            if len(pair_calls) == 1:
                return GenerationResult(text="not a pair")
        return complete(self, messages, temperature)

    monkeypatch.setattr(MockGeneratorBackend, "complete", garble_first_pair)
    out = tmp_path / "out"
    assert run_cli("run", "--mock", "--seed", "0", "--out", str(out)) == 0
    assert len(pair_calls) == 21
    # The garbled prompt is sent again in a later batch, with identical messages.
    assert pair_calls.count(pair_calls[0]) == 2
    records = load_records(out / "records_chr.jsonl")
    assert all(r.cost.llm_calls == 1 for r in records[1:])
    assert records[0].cost.llm_calls == 2


@pytest.fixture
def sweeps(monkeypatch) -> list:
    """The report of each ``cli.lambda_sweep`` call a command makes."""
    reports = []
    lambda_sweep = cli.lambda_sweep

    def keeping(*args, **kwargs):
        reports.append(lambda_sweep(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(cli, "lambda_sweep", keeping)
    return reports


def test_run_makes_one_sweep_with_a_record_per_item_at_every_weight(tmp_path, sweeps):
    # perfbench/workloads.py's _count_ops counts a run's sweep operations
    # from the records of the one cli.lambda_sweep call it intercepts.
    assert run_cli("run", "--mock", "--seed", "0", "--out", str(tmp_path / "out")) == 0
    assert len(sweeps) == 1
    by_lambda = sweeps[0].records_by_lambda
    assert set(by_lambda) == set(DEFAULT_SWEEP_GRID)
    item_ids = sorted(item.id for item in load_dataset(bundled_path(DATASET_FILE)))
    for lam in DEFAULT_SWEEP_GRID:
        assert [r.item_id for r in by_lambda[lam]] == item_ids
        assert all(r.error is None for r in by_lambda[lam])


def test_run_requests_a_failing_pair_once_per_item(tmp_path, monkeypatch, sweeps):
    pair_calls = []
    complete = MockGeneratorBackend.complete

    def failing_pair(self, messages, temperature=0.0):
        if PAIR_MARKER in messages[-1]["content"]:
            pair_calls.append(messages)
            raise BackendUnavailableError("pair endpoint down")
        return complete(self, messages, temperature)

    monkeypatch.setattr(MockGeneratorBackend, "complete", failing_pair)
    out = tmp_path / "out"
    assert run_cli("run", "--mock", "--seed", "0", "--out", str(out)) == 0
    # One request per item, not one per ranking by its pair (chr,
    # h_plus_only and seven weights).
    assert len(pair_calls) == 20
    pair_records = [
        *load_records(out / "records_chr.jsonl"),
        *load_records(out / "records_h_plus_only.jsonl"),
        *(r for records in sweeps[0].records_by_lambda.values() for r in records),
    ]
    assert len(pair_records) == 20 * 9
    assert {r.error for r in pair_records} == {"BackendUnavailableError: pair endpoint down"}
    assert all(r.ranked.hits == () and r.pair is None for r in pair_records)


def test_run_computes_each_items_corpus_products_once(tmp_path, monkeypatch):
    # Per item: the stem, the draft mean and stem + pseudo-document, and the
    # pair's a and b; h_plus_only and the seven weights score from the memos.
    # The fixture's 140 rows are one block, so a product is one matmul call.
    blocks = []
    matmul = np.matmul

    def recording(a, b, *args, **kwargs):
        if a.ndim == 2 and b.ndim == 1:
            blocks.append(len(a))
        return matmul(a, b, *args, **kwargs)

    monkeypatch.setattr(np, "matmul", recording)
    assert run_cli("run", "--mock", "--seed", "0", "--out", str(tmp_path / "out")) == 0
    assert blocks == [140] * 100


def test_run_chr_records_match_shifted_query_ranking(tmp_path):
    out = tmp_path / "out"
    assert run_cli("run", "--mock", "--seed", "0", "--out", str(out)) == 0
    config = RunConfig(mock=True, seed=0)
    generator, embedder = _make_backends(config)
    items, _, corpus_path = _resolve_inputs(config)
    corpus = load_corpus(corpus_path, embedder=embedder)
    by_id = {item.id: item for item in items}
    records = load_records(out / "records_chr.jsonl")
    assert len(records) == len(items)
    for record in records:
        item = by_id[record.item_id]
        pair = embed_pair(record.pair, embedder)
        hits, predicted = shifted_query_answer(item, pair, corpus, record.lam, config.k, generator)
        assert record.ranked.doc_ids() == tuple(doc_id for doc_id, _ in hits)
        assert record.predicted == predicted
        for (_, got), (_, want) in zip(record.ranked.hits, hits):
            assert abs(got - want) <= 1e-15


def test_run_mock_own_dataset_skips_bundled_ratings(tmp_path, capsys):
    # The bundled ratings sheet names the bundled items; an own dataset with
    # other ids must skip the strata report, not fail on an unrated record.
    dataset = tmp_path / "qa.jsonl"
    rows = bundled_path(DATASET_FILE).read_text(encoding="utf-8").splitlines()
    renamed = [json.loads(row) for row in rows]
    for row in renamed:
        row["id"] = "own-" + row["id"]
    dataset.write_text("".join(json.dumps(r) + "\n" for r in renamed), encoding="utf-8")
    out = tmp_path / "out"
    code = run_cli("run", "--mock", "--seed", "0", "--dataset", str(dataset),
                   "--out", str(out))
    assert code == 0
    assert "strata report skipped" in capsys.readouterr().err
    assert len(load_records(out / "records_chr.jsonl")) == 20
    assert (out / "report_sweep.json").exists()
    assert not (out / "report_strata.json").exists()


@pytest.mark.parametrize("sheet, message", [
    ("q01\tGood\nq99\tGood\n", "rated item 'q99' is not in the dataset"),
    ("q01\tGood\nq98\texclude\n", "rated item 'q98' is not in the dataset"),
    ("q01 Good\n", "line 1: expected item_id<TAB>tier"),
    (None, "No such file"),
])
def test_run_rejects_bad_ratings_before_any_backend_call(
    tmp_path, capsys, backend_calls, sheet, message
):
    ratings = tmp_path / "ratings.tsv"
    if sheet is not None:
        ratings.write_text(sheet, encoding="utf-8")
    out = tmp_path / "out"
    code = run_cli("run", "--mock", "--seed", "0", "--ratings", str(ratings), "--out", str(out))
    assert code == 1
    assert message in capsys.readouterr().err
    assert backend_calls == []
    assert not out.exists()


def test_single_method_run_checks_ratings(tmp_path, capsys, backend_calls):
    out = tmp_path / "out"
    code = run_cli("run", "--mock", "--method", "chr", "--ratings",
                   str(tmp_path / "missing.tsv"), "--out", str(out))
    assert code == 1
    assert "No such file" in capsys.readouterr().err
    assert backend_calls == []
    assert not out.exists()

    code = run_cli("run", "--mock", "--method", "chr", "--ratings",
                   str(bundled_path(RATINGS_FILE)), "--out", str(out))
    assert code == 0
    assert "strata report skipped: needs --method all" in capsys.readouterr().err
    assert not (out / "report_strata.json").exists()


def test_run_without_backends_or_mock_fails(tmp_path, capsys):
    code = run_cli("run", "--method", "chr", "--out", str(tmp_path / "out"))
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_run_respects_config_file(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"mock": True, "k": 3, "lambda": 0.6}),
                           encoding="utf-8")
    out = tmp_path / "out"
    code = run_cli("run", "--method", "chr", "--config", str(config_path),
                   "--out", str(out))
    assert code == 0
    records = load_records(out / "records_chr.jsonl")
    assert all(len(r.ranked.hits) == 3 for r in records)
    assert all(r.lam == 0.6 for r in records)


def test_run_rejects_a_config_value_of_the_wrong_type(tmp_path, capsys, backend_calls):
    # A non-empty string is truthy, so "no" used to select the mock backends.
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"mock": "no"}), encoding="utf-8")
    out = tmp_path / "out"
    assert run_cli("run", "--config", str(config_path), "--out", str(out)) == 1
    assert "error: mock must be bool, not 'no'" in capsys.readouterr().err
    assert backend_calls == []
    assert not out.exists()


def test_run_rejects_a_config_nested_past_the_recursion_limit(tmp_path, capsys, backend_calls):
    config_path = tmp_path / "config.json"
    config_path.write_bytes(DEEP_JSON)
    out = tmp_path / "out"
    assert run_cli("run", "--config", str(config_path), "--out", str(out)) == 1
    assert f"error: {config_path}: invalid JSON (nested too deeply)" in capsys.readouterr().err
    assert backend_calls == []
    assert not out.exists()


@pytest.mark.parametrize("flag, content, message", [
    ("--config", b'{"mock": true,\n', "invalid JSON (Expecting property name"),
    ("--baselines", b'{"methods": ', "invalid JSON (Expecting value"),
    ("--config", b'\xff{"mock": true}', "invalid JSON ('utf-8' codec can't decode"),
    ("--baselines", b'\xff{}', "invalid JSON ('utf-8' codec can't decode"),
    ("--config", b'[{"mock": true}]', "config file must contain a JSON object"),
], ids=["config-not-json", "baselines-not-json", "config-not-utf8", "baselines-not-utf8",
        "config-not-an-object"])
def test_a_config_or_baselines_file_that_cannot_be_read_is_named(
    tmp_path, capsys, backend_calls, flag, content, message
):
    path = tmp_path / "given.json"
    path.write_bytes(content)
    command = "run" if flag == "--config" else "sweep"
    out = tmp_path / "out"
    assert run_cli(command, "--mock", flag, str(path), "--out", str(out)) == 1
    assert f"error: {path}: {message}" in capsys.readouterr().err
    assert backend_calls == []
    assert not out.exists()


@pytest.mark.parametrize("url", [
    "ftp://127.0.0.1:9/v1/chat", "http:///v1/chat", "http://127.0.0.1:99999/v1/chat",
    "http://127.0.0.1:9/v1/ch at",
], ids=["scheme", "no-host", "port", "space-in-path"])
def test_run_rejects_a_malformed_endpoint_url_before_any_backend_call(tmp_path, capsys, url):
    # The embedder's endpoint is live, so ingest's calls to it would show.
    server = FaultServer(Reply(200, {"data": [{"embedding": [1.0, 0.0]}]}))
    try:
        config = {"generator_url": url, "embedder_url": server.url(),
                  "dataset_path": str(bundled_path(DATASET_FILE)),
                  "corpus_path": str(bundled_path(CORPUS_FILE))}
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        out = tmp_path / "out"
        assert run_cli("run", "--config", str(config_path), "--out", str(out)) == 1
        assert f"error: {url}: " in capsys.readouterr().err
        assert server.requests == []
        assert not out.exists()
    finally:
        server.close()


@pytest.mark.parametrize("field", ["generator_url", "embedder_url"])
def test_run_rejects_an_endpoint_url_with_credentials_without_printing_them(
    tmp_path, capsys, field
):
    server = FaultServer(Reply(200, {"data": [{"embedding": [1.0, 0.0]}]}))
    try:
        config = {"generator_url": server.url(), "embedder_url": server.url(),
                  "dataset_path": str(bundled_path(DATASET_FILE)),
                  "corpus_path": str(bundled_path(CORPUS_FILE))}
        config[field] = server.url().replace("http://", "http://user:hunter2@")
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        out = tmp_path / "out"
        assert run_cli("run", "--config", str(config_path), "--out", str(out)) == 1
        printed = capsys.readouterr()
        assert f"error: {server.url()}: URL holds a user name or password" in printed.err
        assert "hunter2" not in printed.out + printed.err
        assert server.requests == []
        assert not (out / "summary.json").exists()
    finally:
        server.close()


def test_the_out_flag_else_the_config_files_out_dir_else_the_default(
    tmp_path, capsys, monkeypatch
):
    monkeypatch.chdir(tmp_path)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"mock": True, "out_dir": "from-config"}),
                           encoding="utf-8")
    sweep = ("sweep", "--lambdas", "0.5,1.0")
    # sweep: the file's out_dir, else stdout.
    assert run_cli(*sweep, "--config", str(config_path)) == 0
    assert capsys.readouterr().out == "wrote from-config\n"
    assert (tmp_path / "from-config" / "report_sweep.json").exists()
    assert run_cli(*sweep, "--config", str(config_path), "--out", "flag-out") == 0
    assert capsys.readouterr().out == "wrote flag-out\n"
    assert (tmp_path / "flag-out" / "report_sweep.json").exists()
    assert run_cli(*sweep, "--mock") == 0
    assert capsys.readouterr().out.startswith("Lambda")
    # run: the file's out_dir, else out/, which summary.json records.
    assert run_cli("run", "--method", "chr", "--config", str(config_path)) == 0
    assert (tmp_path / "from-config" / "records_chr.jsonl").exists()
    assert run_cli("run", "--method", "chr", "--mock") == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text(encoding="utf-8"))
    assert summary["config"]["out_dir"] == "out"
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "config.json", "flag-out", "from-config", "out"]


def test_run_flag_overrides_config(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"mock": True, "k": 3}), encoding="utf-8")
    out = tmp_path / "out"
    code = run_cli("run", "--method", "chr", "--config", str(config_path),
                   "--k", "7", "--out", str(out))
    assert code == 0
    records = load_records(out / "records_chr.jsonl")
    assert all(len(r.ranked.hits) == 7 for r in records)


# RunConfig field -> (its flag's argv, the value the flag sets, another value for the file).
_FIELD_FLAGS = {
    "lam": (["--lambda", "0.7"], 0.7, 0.5),
    "k": (["--k", "7"], 7, 3),
    "hyde_n": (["--hyde-n", "4"], 4, 2),
    "seed": (["--seed", "9"], 9, 5),
    "mock": (["--mock"], True, False),
    "out_dir": (["--out", "flag-out"], "flag-out", "file-out"),
    "dataset_path": (["--dataset", "flag-qa.jsonl"], "flag-qa.jsonl", "file-qa.jsonl"),
    "corpus_path": (["--corpus", "flag-docs.jsonl"], "flag-docs.jsonl", "file-docs.jsonl"),
    "cache_path": (["--cache", "flag.bin"], "flag.bin", "file.bin"),
    "ratings_path": (["--ratings", "flag.tsv"], "flag.tsv", "file.tsv"),
}
_COMMAND_FIELDS = {
    "run": set(_FIELD_FLAGS),
    "sweep": set(_FIELD_FLAGS) - {"lam", "ratings_path"},
    "embed": {"seed", "mock", "corpus_path", "cache_path"},
}
# Flags a command cannot parse without.
_REQUIRED = {"embed": ["corpus_path", "cache_path"]}


def _flag_argv(fields) -> list[str]:
    return [arg for name in sorted(fields) for arg in _FIELD_FLAGS[name][0]]


@pytest.mark.parametrize("command", sorted(_COMMAND_FIELDS))
def test_flags_that_set_config_fields_are_named_after_them(command):
    args = build_parser().parse_args([command, *_flag_argv(_REQUIRED.get(command, []))])
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    assert set(vars(args)) & fields == _COMMAND_FIELDS[command]


@pytest.mark.parametrize("command", sorted(_COMMAND_FIELDS))
def test_each_flag_overrides_the_config_field_it_names(tmp_path, command):
    config_path = tmp_path / "config.json"
    config_path.write_text(
        json.dumps({name: file_value for name, (_, _, file_value) in _FIELD_FLAGS.items()}),
        encoding="utf-8",
    )
    parser = build_parser()

    def config_with(fields) -> RunConfig:
        argv = [command, "--config", str(config_path), *_flag_argv(fields)]
        return _config_from_args(parser.parse_args(argv))

    given = config_with(_COMMAND_FIELDS[command])
    required = set(_REQUIRED.get(command, []))
    kept = config_with(required)
    for name, (_, flag_value, file_value) in _FIELD_FLAGS.items():
        set_by_flag = name in _COMMAND_FIELDS[command]
        assert getattr(given, name) == (flag_value if set_by_flag else file_value), name
        assert getattr(kept, name) == (flag_value if name in required else file_value), name


def test_compare_subcommand(tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli("run", "--method", "chr", "--mock", "--out", str(out)) == 0
    assert run_cli("run", "--method", "hyde", "--mock", "--out", str(out)) == 0
    capsys.readouterr()
    code = run_cli("compare", str(out / "records_chr.jsonl"),
                   str(out / "records_hyde.jsonl"))
    assert code == 0
    table = capsys.readouterr().out
    assert "Combined" in table
    assert "Zero Overlap" in table

    report_dir = tmp_path / "cmp"
    assert run_cli("compare", str(out / "records_chr.jsonl"),
                   str(out / "records_hyde.jsonl"), "--out", str(report_dir)) == 0
    payload = json.loads((report_dir / "report_overlap.json").read_text(encoding="utf-8"))
    assert payload["combined"]["n"] >= 1


def test_sweep_subcommand(tmp_path, capsys):
    run_out = tmp_path / "run"
    assert run_cli("run", "--mock", "--seed", "0", "--out", str(run_out)) == 0
    summary = json.loads((run_out / "summary.json").read_text(encoding="utf-8"))
    out = tmp_path / "sweep"
    code = run_cli("sweep", "--mock", "--lambdas", "0.2,0.6,1.0",
                   "--baselines", str(run_out / "summary.json"), "--out", str(out))
    assert code == 0
    payload = json.loads((out / "report_sweep.json").read_text(encoding="utf-8"))
    assert [point[0] for point in payload["points"]] == [0.2, 0.6, 1.0]
    assert payload["baselines"] == {
        method: summary["methods"][method]["accuracy"] for method in ("hyde", "standard")
    }
    assert (out / "report_sweep.svg").read_text(encoding="utf-8").startswith("<svg")
    capsys.readouterr()
    assert run_cli("sweep", "--mock", "--lambdas", "0.5,1.0") == 0
    assert "Lambda" in capsys.readouterr().out


def test_sweep_without_baselines_runs_only_the_sweep(
    tmp_path, capsys, monkeypatch, generator_prompts
):
    retrieved = []
    for name in ("retrieve_standard", "retrieve_hyde"):
        monkeypatch.setattr(pipeline, name, lambda *args, name=name: retrieved.append(name))
    out = tmp_path / "sweep"
    assert run_cli("sweep", "--mock", "--lambdas", "0.2,0.6,1.0", "--out", str(out)) == 0
    assert retrieved == []
    prompts = [prompt for prompt, _ in generator_prompts]
    assert not any(HYPO_DOC_MARKER in p for p in prompts)
    answer_prompts = [p for p in prompts if ANSWER_MARKER in p]
    assert len(answer_prompts) == len(set(answer_prompts)) <= 60
    assert sum(PAIR_MARKER in p for p in prompts) == 20
    assert len(prompts) == 20 + len(answer_prompts)
    payload = json.loads((out / "report_sweep.json").read_text(encoding="utf-8"))
    assert payload["baselines"] == {}
    assert "baseline" not in (out / "report_sweep.txt").read_text(encoding="utf-8")
    err = capsys.readouterr().err
    assert f"answers: {len(answer_prompts)} backend calls, " in err


def test_sweep_rejects_baselines_of_another_run(tmp_path, capsys, backend_calls):
    k3 = tmp_path / "k3"
    assert run_cli("run", "--mock", "--seed", "3", "--k", "3", "--out", str(k3)) == 0
    backend_calls.clear()
    capsys.readouterr()
    out = tmp_path / "sweep"
    code = run_cli("sweep", "--mock", "--seed", "0", "--baselines", str(k3 / "summary.json"),
                   "--out", str(out))
    assert code == 1
    assert "the run's k is 3, this sweep's is 5" in capsys.readouterr().err
    assert backend_calls == []
    assert not out.exists()


@pytest.mark.parametrize("summary, message", [
    ({"methods": {"standard": {"accuracy": 0.5}}}, "lacks methods.hyde.accuracy"),
    ([], "lacks methods.standard.accuracy"),
    ({"methods": {"standard": {"accuracy": 0.5}, "hyde": {"accuracy": 2}}},
     "methods.hyde.accuracy is not a fraction: 2"),
    (None, "No such file"),
])
def test_sweep_rejects_bad_baselines_before_any_backend_call(
    tmp_path, capsys, backend_calls, summary, message
):
    path = tmp_path / "summary.json"
    if summary is not None:
        path.write_text(json.dumps(summary), encoding="utf-8")
    out = tmp_path / "sweep"
    assert run_cli("sweep", "--mock", "--baselines", str(path), "--out", str(out)) == 1
    assert message in capsys.readouterr().err
    assert backend_calls == []
    assert not out.exists()


def test_sweep_rejects_baselines_nested_past_the_recursion_limit(tmp_path, capsys, backend_calls):
    path = tmp_path / "summary.json"
    path.write_bytes(DEEP_JSON)
    out = tmp_path / "sweep"
    assert run_cli("sweep", "--mock", "--baselines", str(path), "--out", str(out)) == 1
    assert f"error: {path}: invalid JSON (nested too deeply)" in capsys.readouterr().err
    assert backend_calls == []
    assert not out.exists()


@pytest.mark.parametrize("lambdas, message", [
    ("0.2,-1", "lambdas must be nonnegative"),
    ("0.5,0.5", "lambdas must be distinct"),
    ("nan,0.5", "lambdas must be nonnegative and finite, not nan"),
    ("", "need at least one lambda"),
])
def test_sweep_rejects_bad_grid_before_any_backend_call(
    tmp_path, capsys, backend_calls, lambdas, message
):
    out = tmp_path / "sweep"
    assert run_cli("sweep", "--mock", "--lambdas", lambdas, "--out", str(out)) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert backend_calls == []
    assert not out.exists()


@pytest.mark.parametrize("lam", ["inf", "nan"])
def test_run_rejects_a_weight_that_is_not_finite(tmp_path, capsys, backend_calls, lam):
    out = tmp_path / "out"
    assert run_cli("run", "--mock", "--method", "chr", "--lambda", lam, "--out", str(out)) == 1
    assert f"error: lambda must be nonnegative and finite, not {lam}" in capsys.readouterr().err
    assert backend_calls == []
    assert not out.exists()


def test_cost_subcommand(tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli("run", "--method", "chr", "--mock", "--out", str(out)) == 0
    assert run_cli("run", "--method", "standard", "--mock", "--out", str(out)) == 0
    capsys.readouterr()
    code = run_cli("cost", str(out / "records_chr.jsonl"),
                   str(out / "records_standard.jsonl"))
    assert code == 0
    table = capsys.readouterr().out
    assert "chr" in table and "standard" in table and "N/A" in table


def test_stratify_subcommand(tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli("run", "--method", "chr", "--mock", "--out", str(out)) == 0
    capsys.readouterr()
    code = run_cli("stratify", "--records", str(out / "records_chr.jsonl"),
                   "--ratings", str(bundled_path(RATINGS_FILE)))
    assert code == 0
    table = capsys.readouterr().out
    assert "Excellent" in table and "Good" in table and "Poor" in table


def test_stratify_missing_file_fails(tmp_path, capsys):
    code = run_cli("stratify", "--records", str(tmp_path / "none.jsonl"),
                   "--ratings", str(tmp_path / "none.tsv"))
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_embed_subcommand(tmp_path, capsys):
    corpus_path = tmp_path / "corpus.jsonl"
    rows = [{"id": f"d{i}", "text": f"passage number {i}"} for i in range(6)]
    corpus_path.write_text("\n".join(json.dumps(r) for r in rows) + "\n",
                           encoding="utf-8")
    cache_path = tmp_path / "emb.bin"
    code = run_cli("embed", "--corpus", str(corpus_path), "--cache", str(cache_path),
                   "--mock")
    assert code == 0
    assert f"6 documents (dimension 64); every vector not given inline is cached in {cache_path}" \
        in capsys.readouterr().out
    assert load_cache(cache_path).ids == [f"d{i}" for i in range(6)]
    # An all-inline corpus caches nothing and leaves a v1 cache it never reads untouched.
    inline = tmp_path / "inline.jsonl"
    inline.write_text(json.dumps({"id": "a", "text": "t", "embedding": [1.0, 0.0]}) + "\n",
                      encoding="utf-8")
    assert run_cli("embed", "--corpus", str(inline), "--cache", str(tmp_path / "x.bin"),
                   "--mock") == 0
    assert not (tmp_path / "x.bin").exists()
    version_1 = tmp_path / "v1.bin"
    version_1.write_bytes(b"CHRE" + struct.pack("<IIQ", 1, 2, 0))
    assert run_cli("embed", "--corpus", str(inline), "--cache", str(version_1), "--mock") == 0
    out, err = capsys.readouterr()
    assert "1 documents (dimension 2)" in out and err == ""
    assert version_1.read_bytes() == b"CHRE" + struct.pack("<IIQ", 1, 2, 0)


def test_run_says_which_file_repeats_an_id(tmp_path, capsys):
    # "line 2: duplicate id" alone could be the corpus's or the dataset's.
    corpus_path = tmp_path / "c.jsonl"
    corpus_path.write_text('{"id": "a", "text": "t"}\n{"id": "a", "text": "u"}\n',
                           encoding="utf-8")
    assert run_cli("run", "--mock", "--corpus", str(corpus_path),
                   "--out", str(tmp_path / "out")) == 1
    assert capsys.readouterr().err == f"error: {corpus_path}: line 2: duplicate id 'a'\n"


def test_embed_names_the_line_of_a_corpus_nested_past_the_recursion_limit(
    tmp_path, capsys, backend_calls
):
    corpus_path = tmp_path / "corpus.jsonl"
    corpus_path.write_bytes(b'{"id": "d0", "text": "first"}\n' + DEEP_JSON + b"\n")
    cache_path = tmp_path / "emb.bin"
    assert run_cli("embed", "--corpus", str(corpus_path), "--cache", str(cache_path),
                   "--mock") == 1
    assert (f"error: {corpus_path}: line 2: invalid JSON (nested too deeply)"
            in capsys.readouterr().err)
    assert backend_calls == []
    assert not cache_path.exists()


def test_embed_embeds_only_what_its_cache_cannot_vouch_for(tmp_path, capsys, backend_calls):
    corpus_path = tmp_path / "corpus.jsonl"
    rows = [{"id": f"d{i}", "text": f"passage number {i}"} for i in range(6)]
    embed = ("embed", "--corpus", str(corpus_path), "--cache", str(tmp_path / "emb.bin"), "--mock")
    for edit, argv, calls in (
        (None, embed, 6),
        (None, embed, 0),
        ("an edited passage", embed, 1),
        (None, (*embed, "--seed", "1"), 6),
    ):
        if edit:
            rows[2]["text"] = edit
        corpus_path.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
        backend_calls.clear()
        assert run_cli(*argv) == 0
        assert backend_calls.count("embed") == calls, (edit, argv)
    capsys.readouterr()


def _embed_argv(tmp_path, config: dict) -> tuple[str, ...]:
    """``embed`` of a three-passage corpus into ``emb.bin`` under ``config``."""
    corpus_path, config_path = tmp_path / "corpus.jsonl", tmp_path / "config.json"
    corpus_path.write_text("".join(json.dumps({"id": f"d{i}", "text": f"passage {i}"}) + "\n"
                                   for i in range(3)), encoding="utf-8")
    config_path.write_text(json.dumps(config), encoding="utf-8")
    return ("embed", "--corpus", str(corpus_path), "--cache", str(tmp_path / "emb.bin"),
            "--config", str(config_path))


def test_embed_needs_only_an_embedder_endpoint(tmp_path, capsys):
    server = FaultServer(Reply(200, {"data": [{"embedding": [1.0, 0.0]}]}))
    try:
        endpoint = {"embedder_url": server.url(), "embedder_model": "m"}
        assert run_cli(*_embed_argv(tmp_path, endpoint)) == 0
        assert len(server.requests) == 3
        assert load_cache(tmp_path / "emb.bin").ids == ["d0", "d1", "d2"]
        (tmp_path / "emb.bin").unlink()
        capsys.readouterr()
        # A generator endpoint alone does not do.
        endpoint = {"generator_url": server.url(), "generator_model": "m"}
        assert run_cli(*_embed_argv(tmp_path, endpoint)) == 1
        assert "error: no embedder endpoint configured" in capsys.readouterr().err
        assert len(server.requests) == 3
        assert not (tmp_path / "emb.bin").exists()
    finally:
        server.close()


def test_embed_rejects_an_api_key_with_a_control_character_without_printing_it(
    tmp_path, capsys, monkeypatch
):
    monkeypatch.setenv(EMBEDDER_API_KEY_ENV, "sk-secret123\n")
    server = FaultServer(Reply(200, {"data": [{"embedding": [1.0, 0.0]}]}))
    try:
        endpoint = {"embedder_url": server.url(), "embedder_model": "m"}
        assert run_cli(*_embed_argv(tmp_path, endpoint)) == 1
        err = capsys.readouterr().err
        assert f"error: {server.url()}: API key" in err
        assert "secret" not in err
        assert server.requests == []
        assert not (tmp_path / "emb.bin").exists()
    finally:
        server.close()


def test_unknown_method_is_a_usage_error(tmp_path, capsys):
    code = run_cli("run", "--method", "bm25", "--mock", "--out", str(tmp_path / "o"))
    assert code == 2
    capsys.readouterr()


def test_version_flag(capsys):
    assert run_cli("--version") == 0
    assert "chr-rag" in capsys.readouterr().out


def test_no_subcommand_is_a_usage_error(capsys):
    assert run_cli() == 2
    capsys.readouterr()
