"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload qa_mock --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout: the program is imported from that
checkout's ``src/``. Inputs are generated from ``--seed`` under
``.bench_work/`` and removed afterwards. Human-readable lines come first:
the environment, every end-to-end metric with its unit and sample count, and
with ``--trace 1`` every per-layer metric. The last stdout line is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``, the
end-to-end metrics untraced and the per-layer metrics traced. A traced run
also leaves its spans and full metrics in ``.bench_work/traces/``. The exit
code is 0 only if every correctness check passed. ``--workload all`` runs
each workload in its own process, one after another, and ends with one JSON
object whose metric names carry the workload as a prefix.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys

import bootstrap

END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "dataio.load_corpus_s": "s",
    "dataio.cache_hit_ratio": "ratio",
    "dataio.ingest_embed_calls": "count",
    "retrieval.corpus_build_s": "s",
    "retrieval.retrieve_calls": "count",
    "retrieval.retrieve_ms_p50": "ms",
    "retrieval.retrieve_ms_p95": "ms",
    "retrieval.top_k_ms_p50": "ms",
    "retrieval.scoring_self_ms_p50": "ms",
    "retrieval.top_k_share": "ratio",
    "retrieval.bytes_scanned_per_query": "B",
    "hypotheses.pair_generations": "count",
    "hypotheses.pair_calls": "count",
    "hypotheses.parse_failures": "count",
    "hypotheses.fallback_pairs": "count",
    "pipeline.answer_calls": "count",
    "pipeline.answer_prompts_distinct": "count",
    "pipeline.item_errors": "count",
    "backends.generator_calls": "count",
    "backends.embedder_calls": "count",
    "backends.http_requests": "count",
    "backends.http_connections": "count",
    "analysis.sweep_generator_calls": "count",
    "cli.bytes_written": "B",
    **{f"{layer}.self_share": "ratio" for layer in (
        "dataio", "retrieval", "hypotheses", "pipeline", "backends", "analysis", "reports", "cli",
    )},
    "trace.untraced_share": "ratio",
    "trace.overhead_s": "s",
}


def _unit_of(name: str) -> str:
    if name in PER_LAYER:
        return PER_LAYER[name]
    for suffix, unit in (("_s", "s"), ("_ms", "ms"), ("_ratio", "ratio"), ("_share", "ratio")):
        if name.endswith(suffix) or f"{suffix}_" in name:
            return unit
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        bootstrap.import_program()
    except bootstrap.MissingProgramError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # The endpoint is on loopback; never route it through a proxy.
    os.environ["NO_PROXY"] = os.environ["no_proxy"] = "127.0.0.1,localhost"

    import workloads

    if args.workload == "all":
        return run_all(args, workloads.WORKLOADS)
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    work_root = bootstrap.ROOT / ".bench_work"
    work = work_root / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        outcome = workloads.WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = workloads.environment()
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    error_ratio = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    print(f"  {'error_ratio':<34} {error_ratio:<14.6g} ratio  (n={outcome.attempted})")
    for name, (value, unit, samples) in outcome.metrics.items():
        print(f"  {name:<34} {value:<14.6g} {unit:<6} (n={samples})")
    if args.trace:
        for name, value in sorted(outcome.per_layer.items()):
            print(f"  {name:<34} {value:<14.6g} {_unit_of(name)}")
        traces = work_root / "traces" / f"{args.workload}-{args.seed}"
        traces.mkdir(parents=True, exist_ok=True)
        with open(traces / "metrics.json", "w", encoding="utf-8") as fh:
            json.dump({"environment": env, "end_to_end": outcome.metrics,
                       "per_layer": outcome.per_layer, **outcome.details}, fh, indent=2, sort_keys=True)
        outcome.tracer.write(traces / "spans.jsonl")
    for problem in outcome.problems:
        print(f"FAILED CHECK: {problem}")

    correct = not outcome.problems and outcome.failed == 0
    if args.trace:
        metrics = {name: {"value": outcome.per_layer[name], "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        metrics = {name: {"value": outcome.metrics[name][0], "unit": unit} for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args: argparse.Namespace, names) -> int:
    """Run every workload in a fresh process and combine their results."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"{name}: no result (exit {proc.returncode}): {proc.stderr[-500:]}")
            combined["correct"] = False
            continue
        combined["correct"] &= result["correct"] and proc.returncode == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
