"""Command-line surface.

Subcommands:

* ``run``: evaluate one method (or all five) over a dataset, writing
  per-method record files, a summary, and, for multi-method runs, the
  overlap/cost/sweep/strata reports.
* ``compare``: overlap report between two existing record files.
* ``sweep``: accuracy across a grid of contrastive weights.
* ``cost``: cost report over record files.
* ``stratify``: rating-tier accuracy from records plus a ratings sheet.
* ``embed``: build the binary embedding cache for a corpus.

``--mock`` swaps in seeded deterministic backends so every command runs
offline; with equal seeds, reruns are byte-identical. Real backends are
configured via ``--config`` (endpoints, model names) with auth tokens taken
from environment variables.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import time
from pathlib import Path

from . import __version__
from .analysis import (
    SweepReport,
    cost_report,
    lambda_sweep,
    retrieval_shift,
    stratified_accuracy,
    sweep_grid,
)
from .backends import (
    EmbedderBackend,
    GeneratorBackend,
    HttpEmbedderBackend,
    HttpGeneratorBackend,
    MockEmbedderBackend,
    MockGeneratorBackend,
)
from .config import (
    DEFAULT_SWEEP_GRID,
    EMBEDDER_API_KEY_ENV,
    GENERATOR_API_KEY_ENV,
    RunConfig,
    load_config,
    read_json,
)
# cache_embeddings is not called here; perfbench/tracing.py wraps it under
# this module's name too.
from .dataio import (  # noqa: F401
    cache_embeddings,
    load_corpus,
    load_dataset,
    load_ratings,
    load_records,
    save_records,
    write_json,
    write_text,
)
from .errors import ContrastiveRetrievalError, NoQualifyingCasesError, UnknownItemIdError
from .hypotheses import QAItem
# run_benchmark is not called here; perfbench/tracing.py wraps it under
# this module's name too.
from .pipeline import AnswerMemo, evaluate, run_benchmark, summarize  # noqa: F401
from .reports import (
    cost_to_dict,
    overlap_to_dict,
    render_cost_table,
    render_overlap_table,
    render_strata_table,
    render_sweep_svg,
    render_sweep_table,
    strata_to_dict,
    sweep_to_dict,
)
from .retrieval import METHOD_CHR, METHOD_HYDE, METHOD_STANDARD, METHODS
from .synthdata import CORPUS_FILE, DATASET_FILE, RATINGS_FILE, bundled_path

# CLI spellings of method names (hyphens) to internal ones (underscores).
_CLI_METHODS = {m.replace("_", "-"): m for m in METHODS}


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file; flags override it")
    parser.add_argument("--seed", type=int, default=None, help="backend seed")
    parser.add_argument(
        "--mock", action="store_true", default=None,
        help="use seeded deterministic offline backends",
    )
    parser.add_argument("--out", dest="out_dir", metavar="OUT", help="output directory")


def _add_data(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dataset", dest="dataset_path", metavar="DATASET",
                        help="QA dataset JSONL")
    parser.add_argument("--corpus", dest="corpus_path", metavar="CORPUS", help="corpus JSONL")
    parser.add_argument("--cache", dest="cache_path", metavar="CACHE", help="embedding cache file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chr-rag",
        description="Contrastive dense retrieval and its evaluation harness.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="evaluate methods over a dataset")
    _add_common(p_run)
    _add_data(p_run)
    p_run.add_argument(
        "--method", choices=sorted(_CLI_METHODS) + ["all"], default="all",
        help="retrieval method (default: all five)",
    )
    p_run.add_argument("--lambda", dest="lam", type=float, default=None,
                       help="contrastive weight")
    p_run.add_argument("--k", type=int, default=None, help="documents to retrieve")
    p_run.add_argument("--hyde-n", dest="hyde_n", type=int, default=None,
                       help="hypothetical drafts to average")
    p_run.add_argument("--ratings", dest="ratings_path", metavar="RATINGS",
                       help="ratings TSV for the strata report")
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="overlap report between two record files")
    p_cmp.add_argument("records_a", help="records JSONL of the method expected correct")
    p_cmp.add_argument("records_b", help="records JSONL of the method expected wrong")
    p_cmp.add_argument("--k", type=int, default=5, help="top-K denominator")
    p_cmp.add_argument("--out", default=None, help="output directory")
    p_cmp.set_defaults(func=cmd_compare)

    p_sweep = sub.add_parser("sweep", help="accuracy across contrastive weights")
    _add_common(p_sweep)
    _add_data(p_sweep)
    p_sweep.add_argument(
        "--lambdas", default=None,
        help="comma-separated weights (default: 0.2,0.4,0.6,0.8,1.0,1.2,1.4)",
    )
    p_sweep.add_argument("--k", type=int, default=None)
    p_sweep.add_argument("--hyde-n", dest="hyde_n", type=int, default=None)
    p_sweep.add_argument(
        "--baselines", default=None, metavar="SUMMARY_JSON",
        help="summary.json of an earlier run whose standard and HyDE accuracies "
             "the report draws as baselines (default: none)",
    )
    p_sweep.set_defaults(func=cmd_sweep)

    p_cost = sub.add_parser("cost", help="expansion cost report over record files")
    p_cost.add_argument("records", nargs="+", help="records JSONL files")
    p_cost.add_argument("--out", default=None, help="output directory")
    p_cost.set_defaults(func=cmd_cost)

    p_strat = sub.add_parser("stratify", help="accuracy by rating tier")
    p_strat.add_argument("--records", required=True, help="records JSONL")
    p_strat.add_argument("--ratings", required=True, help="ratings TSV")
    p_strat.add_argument("--out", default=None, help="output directory")
    p_strat.set_defaults(func=cmd_stratify)

    p_embed = sub.add_parser("embed", help="build the embedding cache for a corpus")
    p_embed.add_argument("--corpus", dest="corpus_path", metavar="CORPUS", required=True,
                         help="corpus JSONL")
    p_embed.add_argument("--cache", dest="cache_path", metavar="CACHE", required=True,
                         help="cache file to write")
    p_embed.add_argument("--config", default=None)
    p_embed.add_argument("--seed", type=int, default=None)
    p_embed.add_argument("--mock", action="store_true", default=None)
    p_embed.set_defaults(func=cmd_embed)

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    """The ``--config`` file's RunConfig, each field overridden by its flag if given.

    A flag overrides the field named by its argparse ``dest``.
    """
    config = load_config(args.config) if args.config else RunConfig()
    overrides = {
        f.name: getattr(args, f.name)
        for f in dataclasses.fields(RunConfig)
        if getattr(args, f.name, None) is not None
    }
    return dataclasses.replace(config, **overrides)


def _make_backends(config: RunConfig) -> tuple[GeneratorBackend, EmbedderBackend]:
    """The command's one generator (expansion and answers) and one embedder."""
    if config.mock:
        embedder = MockEmbedderBackend(dimension=config.mock_dimension, seed=config.seed)
        return MockGeneratorBackend(seed=config.seed, embedder=embedder), embedder
    if not (config.generator_url and config.embedder_url):
        raise ValueError(
            "no backend endpoints configured; set generator_url/embedder_url "
            "in the config file or pass --mock"
        )
    gen_key = os.environ.get(GENERATOR_API_KEY_ENV)
    emb_key = os.environ.get(EMBEDDER_API_KEY_ENV)
    return (
        HttpGeneratorBackend(
            config.generator_url, config.generator_model, api_key=gen_key, seed=config.seed
        ),
        HttpEmbedderBackend(config.embedder_url, config.embedder_model, api_key=emb_key),
    )


def _resolve_inputs(config: RunConfig) -> tuple[list[QAItem], str, str]:
    """The dataset's items and name, and the path of the corpus to load.

    The bundled fixture stands in for either path only under --mock.
    """
    dataset_path = config.dataset_path or (
        str(bundled_path(DATASET_FILE)) if config.mock else ""
    )
    corpus_path = config.corpus_path or (
        str(bundled_path(CORPUS_FILE)) if config.mock else ""
    )
    if not dataset_path or not corpus_path:
        raise ValueError(
            "dataset and corpus paths are required (the bundled fixture is used "
            "only with --mock)"
        )
    return load_dataset(dataset_path), Path(dataset_path).stem, corpus_path


def _run_ratings(config: RunConfig, items: list[QAItem]) -> tuple[dict, set] | None:
    """The strata report's (ratings, exclusions), or None without a sheet.

    Read and checked against the dataset before the run, so a bad sheet
    costs no backend call. The bundled sheet rates the bundled items only.
    """
    path = config.ratings_path or (
        str(bundled_path(RATINGS_FILE)) if config.mock and not config.dataset_path else ""
    )
    if not path:
        return None
    ratings, exclusions = load_ratings(path)
    unknown = sorted((set(ratings) | exclusions) - {item.id for item in items})
    if unknown:
        raise UnknownItemIdError(f"{path}: rated item {unknown[0]!r} is not in the dataset")
    return ratings, exclusions


# The settings a baseline accuracy depends on: a summary whose run differs
# from the sweep in any of them measured another experiment.
_BASELINE_KEYS = (
    "k", "hyde_n", "seed", "mock", "temperature", "max_retries", "generator_model",
    "embedder_model", "dataset_path", "corpus_path",
)


def _read_baselines(path: str, config: RunConfig) -> dict[str, float]:
    """The standard and HyDE accuracies recorded in a run's ``summary.json``.

    The run's ``config`` must equal ``config`` on every key in _BASELINE_KEYS.
    """
    summary = read_json(path)
    baselines = {}
    for method in (METHOD_STANDARD, METHOD_HYDE):
        try:
            value = summary["methods"][method]["accuracy"]
        except (KeyError, TypeError):
            raise ValueError(f"{path}: lacks methods.{method}.accuracy") from None
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not 0 <= value <= 1:
            raise ValueError(f"{path}: methods.{method}.accuracy is not a fraction: {value!r}")
        baselines[method] = float(value)
    run = summary.get("config")
    if not isinstance(run, dict):
        raise ValueError(f"{path}: lacks the run's config")
    ours = dataclasses.asdict(config)
    for key in _BASELINE_KEYS:
        if run.get(key) != ours[key]:
            raise ValueError(
                f"{path}: the run's {key} is {run.get(key)!r}, this sweep's is {ours[key]!r}"
            )
    return baselines


def _report_memo(memo: AnswerMemo) -> None:
    print(
        f"answers: {memo.calls} backend calls, {memo.hits} served from the run's memo",
        file=sys.stderr,
    )


def _clock(config: RunConfig):
    # Mock runs zero out wall timings so record files stay byte-identical.
    return None if config.mock else time.perf_counter


def cmd_run(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    # --out, else the config file's out_dir, else out/ (sweep's default is stdout).
    config = dataclasses.replace(config, out_dir=config.out_dir or "out")
    generator, embedder = _make_backends(config)
    methods = METHODS if args.method == "all" else (_CLI_METHODS[args.method],)
    items, dataset_name, corpus_path = _resolve_inputs(config)
    # A sheet named explicitly is checked even when no strata report uses it.
    ratings = (
        _run_ratings(config, items) if len(methods) > 1 or config.ratings_path else None
    )
    corpus = load_corpus(corpus_path, embedder=embedder, cache_path=config.cache_path or None)
    # Every method and weight shares one memo of answers.
    answers = AnswerMemo(generator)
    by_method, by_lambda = evaluate(
        items, corpus, config, methods=methods,
        lambdas=DEFAULT_SWEEP_GRID if len(methods) > 1 else (),
        generator=generator, answer_generator=answers, embedder=embedder,
        dataset_name=dataset_name, clock=_clock(config),
    )

    out = Path(config.out_dir)
    summaries: dict[str, dict] = {}
    for method, records in by_method.items():
        save_records(out / f"records_{method}.jsonl", records)
        summaries[method] = summary = summarize(records)
        print(f"{method}: accuracy {summary['accuracy']:.3f} over {summary['n']} items")

    write_json(
        out / "summary.json",
        {"config": dataclasses.asdict(config), "methods": summaries},
    )

    reports = []
    if len(methods) > 1:
        sweep = lambda_sweep(
            by_lambda,
            baselines={
                METHOD_STANDARD: summaries[METHOD_STANDARD]["accuracy"],
                METHOD_HYDE: summaries[METHOD_HYDE]["accuracy"],
            },
        )
        reports = _run_reports(config, by_method, sweep, ratings)
    elif ratings is not None:
        print("strata report skipped: needs --method all", file=sys.stderr)
    _report_memo(answers)
    _write_reports(out, reports)
    return 0


def _run_reports(
    config: RunConfig,
    all_records: dict[str, list],
    sweep: SweepReport,
    ratings: tuple[dict, set] | None,
) -> list[tuple]:
    """The overlap, cost, sweep and strata reports of a multi-method run."""
    reports: list[tuple] = []
    try:
        overlap = retrieval_shift(
            all_records[METHOD_CHR], all_records[METHOD_HYDE], config.k
        )
        reports.append(("overlap", overlap, overlap_to_dict, render_overlap_table, None))
    except NoQualifyingCasesError as exc:
        print(f"overlap report skipped: {exc}", file=sys.stderr)

    cost = cost_report([r for records in all_records.values() for r in records])
    reports.append(("cost", cost, cost_to_dict, render_cost_table, None))
    reports.append(("sweep", sweep, sweep_to_dict, render_sweep_table, render_sweep_svg))

    if ratings is not None:
        strata = stratified_accuracy(all_records[METHOD_CHR], *ratings)
        reports.append(("strata", strata, strata_to_dict, render_strata_table, None))
    else:
        print("strata report skipped: no ratings file", file=sys.stderr)
    return reports


def _write_reports(out: str | Path | None, reports: list[tuple]) -> None:
    """Write each (name, report, to_dict, render_table, render_svg) under ``out``.

    A report becomes ``report_<name>.json`` and ``report_<name>.txt``, plus
    ``report_<name>.svg`` when ``render_svg`` is not None. Without ``out``,
    the tables go to stdout instead. The renderers arrive as the caller
    found them in this module, and the files go through this module's
    ``write_json`` and ``write_text``, so a name rebound here (for tracing,
    say) is the one every report uses.
    """
    if not out:
        for _, report, _, render_table, _ in reports:
            print(render_table(report), end="")
        return
    out = Path(out)
    for name, report, to_dict, render_table, render_svg in reports:
        write_json(out / f"report_{name}.json", to_dict(report))
        write_text(out / f"report_{name}.txt", render_table(report))
        if render_svg is not None:
            write_text(out / f"report_{name}.svg", render_svg(report))
    print(f"wrote {out}")


def cmd_compare(args: argparse.Namespace) -> int:
    records_a = load_records(args.records_a)
    records_b = load_records(args.records_b)
    overlap = retrieval_shift(records_a, records_b, args.k)
    _write_reports(args.out, [("overlap", overlap, overlap_to_dict, render_overlap_table, None)])
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    lambdas = DEFAULT_SWEEP_GRID
    if args.lambdas is not None:
        lambdas = tuple(float(part) for part in args.lambdas.split(",") if part.strip())
    # Checked before the corpus load, so a bad grid or baselines file costs
    # no backend call.
    lambdas = sweep_grid(lambdas)
    baselines = _read_baselines(args.baselines, config) if args.baselines else {}
    generator, embedder = _make_backends(config)
    items, dataset_name, corpus_path = _resolve_inputs(config)
    corpus = load_corpus(corpus_path, embedder=embedder, cache_path=config.cache_path or None)

    answers = AnswerMemo(generator)
    _, by_lambda = evaluate(
        items, corpus, config, methods=(), lambdas=lambdas,
        generator=generator, answer_generator=answers, embedder=embedder,
        dataset_name=dataset_name, clock=_clock(config),
    )
    sweep = lambda_sweep(by_lambda, baselines)
    _report_memo(answers)
    _write_reports(
        config.out_dir, [("sweep", sweep, sweep_to_dict, render_sweep_table, render_sweep_svg)]
    )
    return 0


def cmd_cost(args: argparse.Namespace) -> int:
    records = [r for path in args.records for r in load_records(path)]
    report = cost_report(records)
    _write_reports(args.out, [("cost", report, cost_to_dict, render_cost_table, None)])
    return 0


def cmd_stratify(args: argparse.Namespace) -> int:
    records = load_records(args.records)
    ratings, exclusions = load_ratings(args.ratings)
    strata = stratified_accuracy(records, ratings, exclusions)
    _write_reports(args.out, [("strata", strata, strata_to_dict, render_strata_table, None)])
    return 0


def cmd_embed(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    _, embedder = _make_backends(config)
    # Ingest embeds only what the cache cannot vouch for and writes it back.
    # Inline embeddings are not cached: the cache's identity is the embedder's.
    corpus = load_corpus(config.corpus_path, embedder=embedder, cache_path=config.cache_path)
    print(f"{len(corpus)} documents (dimension {corpus.dimension}); every vector "
          f"not given inline is cached in {config.cache_path}")
    return 0


def main_cli(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except (ContrastiveRetrievalError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    raise SystemExit(main_cli())


if __name__ == "__main__":
    entrypoint()
