from __future__ import annotations

import json

from contrastive_retrieval.cli import main_cli
from contrastive_retrieval.dataio import load_cache, load_records
from contrastive_retrieval.synthdata import DATASET_FILE, RATINGS_FILE, bundled_path


def run_cli(*argv: str) -> int:
    return main_cli(list(argv))


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


def test_run_flag_overrides_config(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"mock": True, "k": 3}), encoding="utf-8")
    out = tmp_path / "out"
    code = run_cli("run", "--method", "chr", "--config", str(config_path),
                   "--k", "7", "--out", str(out))
    assert code == 0
    records = load_records(out / "records_chr.jsonl")
    assert all(len(r.ranked.hits) == 7 for r in records)


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
    out = tmp_path / "sweep"
    code = run_cli("sweep", "--mock", "--lambdas", "0.2,0.6,1.0", "--out", str(out))
    assert code == 0
    payload = json.loads((out / "report_sweep.json").read_text(encoding="utf-8"))
    assert [point[0] for point in payload["points"]] == [0.2, 0.6, 1.0]
    assert set(payload["baselines"]) == {"standard", "hyde"}
    assert (out / "report_sweep.svg").read_text(encoding="utf-8").startswith("<svg")
    capsys.readouterr()
    assert run_cli("sweep", "--mock", "--lambdas", "0.5,1.0") == 0
    assert "Lambda" in capsys.readouterr().out


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
    assert "cached 6 embeddings" in capsys.readouterr().out
    cache = load_cache(cache_path)
    assert set(cache) == {f"d{i}" for i in range(6)}


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
