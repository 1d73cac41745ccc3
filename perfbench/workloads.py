"""The three workloads, their measured phases and their correctness checks.

Why each workload exists:

* ``qa_mock``: ``chr-rag run --mock`` in-process over a seeded 200-item,
  1400-document dataset with a warm embedding cache. The evaluation harness
  on its deterministic path: CPU in pipeline, hypotheses, the mock backends
  and the reporting dominates; the corpus is kept small so scoring stays a
  minority share.
* ``qa_http``: the same harness through ``chr-rag run --config`` against the
  loopback endpoint in ``endpoint.py`` (a 12-item dataset, no embedding cache
  at the start of each run). How real users run it: wall time is backend
  calls times service time plus transport plus cold ingest, and retrieval
  is negligible.
* ``retrieval_100k``: library use with no backend calls. ``load_corpus`` of
  100k x 384 documents from a warm cache, then one client issuing
  retrievals in the order the lambda sweep issues them; scoring and top-K
  selection dominate.

Every workload runs its set-up and its unit of work once untimed to warm
up, then repeats the unit for the measured window, running the set-up again
before every unit (every eighth sweep block on ``retrieval_100k``).
``setup_s`` and ``run_s`` are the busy time of each divided by how often it
ran: on a machine whose speed drifts over seconds, a mean over the whole
window is steadier from run to run than the median of a burst of repeats,
and set-up and unit see the same drift. A traced run traces every other
unit, so the tracing overhead is the difference of the traced and untraced
means, taken over the same stretch of time.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import bootstrap
import inputs
from tracing import CallCounter, Tracer, percentile, span_metrics

from contrastive_retrieval import cli, dataio, retrieval
from contrastive_retrieval.config import DEFAULT_SWEEP_GRID
from contrastive_retrieval.hypotheses import HypothesisPair
from contrastive_retrieval.retrieval import METHODS

MIN_UNITS = 3
QA_MOCK_ITEMS = 200
QA_HTTP_ITEMS = 12
# Share of qa_http items whose first pair prompt the endpoint garbles.
QA_HTTP_FAIL_SHARE = 0.25
# 25 sweeps of 8 retrievals: at least 200 latencies, so 10 lie beyond p95.
RETRIEVAL_MIN_BLOCKS = 25
# A 100k-document load takes several sweeps' time; 25 blocks hold 3 of them.
RETRIEVAL_SETUP_EVERY = 8
# Endpoint counters for the workloads that make no HTTP calls.
NO_HTTP = {
    "backends.http_requests": 0, "backends.http_connections": 0,
    "backends.server_busy_s": 0.0, "backends.transport_overhead_s": 0.0,
}
RETRIEVAL_K = 5
# Scores are float64 dot products of the same vectors; only summation order
# may differ between the program and the oracle.
SCORE_TOL = 1e-12


@dataclass
class Outcome:
    """What one workload run measured and whether its outputs were right."""

    metrics: dict[str, tuple[float, str, int]] = field(default_factory=dict)
    per_layer: dict[str, float] = field(default_factory=dict)
    details: dict = field(default_factory=dict)
    tracer: Tracer | None = None
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def check(self, ok: bool, message: str) -> None:
        if not ok and len(self.problems) < 20:
            self.problems.append(message)

    def add(self, name: str, value: float, unit: str, samples: int) -> None:
        self.metrics[name] = (value, unit, samples)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


@dataclass
class Walls:
    """Walls of the untraced set-ups and of the untraced and traced units."""

    setups: list[float] = field(default_factory=list)
    untraced: list[float] = field(default_factory=list)
    traced: list[float] = field(default_factory=list)


class Harness:
    """Runs a workload's set-up and unit of work for the measured window."""

    def __init__(self, seconds: int, trace: bool, min_units: int = MIN_UNITS,
                 setup_every: int = 1, trace_setups: bool = False):
        self.seconds = seconds
        self.trace = trace
        self.min_units = min_units
        self.setup_every = setup_every
        self.trace_setups = trace and trace_setups
        self.tracer = Tracer() if trace else None

    def measure(self, setup, unit) -> Walls:
        """Warm up, then repeat ``unit(tracer_or_None)`` for the window.

        ``setup()`` runs before every ``setup_every``-th unit. Both time
        themselves, so preparation and checks stay outside their walls.
        Tracing, every other unit runs traced, and with ``trace_setups``
        every other set-up too (as execution -1); traced walls are kept
        apart. The window is stretched until ``min_units`` untraced (and
        traced) units ran.
        """
        setup()
        unit(None)
        walls = Walls()
        setups = 0
        started = time.perf_counter()
        while (len(walls.untraced) < self.min_units
               or (self.trace and len(walls.traced) < self.min_units)
               or time.perf_counter() - started < self.seconds):
            if (len(walls.untraced) + len(walls.traced)) % self.setup_every == self.setup_every - 1:
                if self.trace_setups and setups % 2:
                    self.tracer.execution = -1
                    with self.tracer.install():
                        setup()
                else:
                    walls.setups.append(setup())
                setups += 1
            if self.trace and len(walls.untraced) > len(walls.traced):
                self.tracer.execution = len(walls.traced)
                with self.tracer.install():
                    walls.traced.append(unit(self.tracer))
            else:
                walls.untraced.append(unit(None))
        return walls

    def layer_metrics(self, walls: Walls, backend_calls: tuple[int, int], outcome: Outcome) -> None:
        """Per-layer metrics from the traced units into ``outcome``."""
        outcome.per_layer = span_metrics(self.tracer.spans, len(walls.traced))
        outcome.per_layer["backends.generator_calls"] = backend_calls[0]
        outcome.per_layer["backends.embedder_calls"] = backend_calls[1]
        outcome.per_layer["trace.overhead_s"] = (
            statistics.mean(walls.traced) - statistics.mean(walls.untraced))
        outcome.tracer = self.tracer


def _cli(argv: list[str], outcome: Outcome, tracer: Tracer | None = None) -> float:
    """Run ``chr-rag`` in-process with its output captured; returns the wall."""
    sink = io.StringIO()
    span = tracer.span("cli.main_cli") if tracer else contextlib.nullcontext()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        started = time.perf_counter()
        with span:
            code = cli.main_cli([str(a) for a in argv])
        wall = time.perf_counter() - started
    outcome.check(code == 0, f"chr-rag {argv[0]} exited {code}: {sink.getvalue()[-300:]}")
    return wall


def _read_records(out: Path) -> dict[str, list[dict]]:
    records = {}
    for method in METHODS:
        path = out / f"records_{method}.jsonl"
        records[method] = (
            [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line]
            if path.exists() else []
        )
    return records


def _record_digest(records: dict[str, list[dict]], drop_wall: bool) -> str:
    h = hashlib.sha256()
    for method in METHODS:
        for rec in records[method]:
            if drop_wall:
                rec = {**rec, "cost": {**rec["cost"], "wall_ms": 0},
                       "answer_cost": {**rec["answer_cost"], "wall_ms": 0}}
            h.update(json.dumps(rec, sort_keys=True).encode("utf-8"))
    return h.hexdigest()


def _count_ops(records, sweeps, item_ids: list[str], outcome: Outcome) -> None:
    """One op per (item, method) and (item, lambda); errors and gaps fail."""
    expected = set(item_ids)
    for method in METHODS:
        got = {r["item_id"] for r in records[method] if r.get("error") is None}
        outcome.attempted += len(expected)
        outcome.failed += len(expected - got)
        outcome.check(len(records[method]) == len(expected),
                      f"{method}: {len(records[method])} records for {len(expected)} items")
    outcome.check(len(sweeps) == 1, f"{len(sweeps)} sweeps in one run")
    by_lambda = sweeps[0].records_by_lambda if sweeps else {}
    for lam in DEFAULT_SWEEP_GRID:
        got = {r.item_id for r in by_lambda.get(lam, ()) if r.error is None}
        outcome.attempted += len(expected)
        outcome.failed += len(expected - got)


class QaRun:
    """One ``chr-rag run`` per unit, with its outputs checked."""

    def __init__(self, argv, out: Path, item_ids, outcome: Outcome, drop_wall: bool):
        self.argv = argv
        self.out = out
        self.item_ids = item_ids
        self.outcome = outcome
        self.drop_wall = drop_wall
        self.counter = CallCounter()
        self.digests: set[str] = set()
        self.calls: set[tuple[int, int]] = set()
        self.executions = 0
        self.records: dict[str, list[dict]] = {}

    def unit(self, tracer, prepare=lambda: None, endpoint_calls=None) -> float:
        prepare()
        self.counter.take()
        with self.counter.install(tracer):
            wall = _cli(self.argv, self.outcome, tracer)
        generator_calls, embedder_calls, sweeps = self.counter.take()
        if endpoint_calls is not None:
            served = endpoint_calls()
            self.outcome.check(served == (generator_calls, embedder_calls),
                               f"endpoint served {served}, client made "
                               f"{(generator_calls, embedder_calls)}")
            generator_calls, embedder_calls = served
        self.calls.add((generator_calls, embedder_calls))
        self.executions += 1
        self.records = _read_records(self.out)
        self.digests.add(_record_digest(self.records, self.drop_wall))
        _count_ops(self.records, sweeps, self.item_ids, self.outcome)
        return wall

    def finish(self, walls: Walls) -> tuple[int, int]:
        """Cross-execution checks, then the run's metrics; returns the call counts."""
        outcome = self.outcome
        outcome.check(len(self.digests) == 1, f"record digest varies: {len(self.digests)} values")
        outcome.check(len(self.calls) == 1, f"backend call counts vary: {sorted(self.calls)}")
        generator_calls, embedder_calls = min(self.calls)
        outcome.add("setup_s", statistics.mean(walls.setups), "s", len(walls.setups))
        outcome.add("run_s", statistics.mean(walls.untraced), "s", len(walls.untraced))
        outcome.add("generator_calls", generator_calls, "count", self.executions)
        outcome.add("embedder_calls", embedder_calls, "count", self.executions)
        return generator_calls, embedder_calls


def qa_mock(seed: int, seconds: int, trace: bool, work: Path) -> Outcome:
    outcome = Outcome()
    paths = inputs.write_qa_inputs(seed, QA_MOCK_ITEMS, work / "inputs")
    cache, out = work / "cache.bin", work / "out"
    embed = ["embed", "--mock", "--seed", seed, "--corpus", paths["corpus"], "--cache", cache]

    def setup() -> float:
        cache.unlink(missing_ok=True)
        return _cli(embed, outcome)

    argv = ["run", "--mock", "--seed", seed, "--dataset", paths["dataset"], "--corpus",
            paths["corpus"], "--cache", cache, "--ratings", paths["ratings"], "--out", out]
    item_ids = [f"q{i + 1:04d}" for i in range(QA_MOCK_ITEMS)]
    run = QaRun(argv, out, item_ids, outcome, drop_wall=False)
    harness = Harness(seconds, trace)
    walls = harness.measure(setup, run.unit)
    outcome.add("peak_rss_mb", peak_rss_mb(), "MB", 1)
    calls = run.finish(walls)
    if trace:
        harness.layer_metrics(walls, calls, outcome)
        outcome.per_layer.update(NO_HTTP)
    return outcome


class Endpoint:
    """The loopback endpoint process, started and stopped by this run."""

    def __init__(self, seed: int, fail_stems: Path, log: Path):
        self._log = open(log, "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            [sys.executable, str(bootstrap.BENCH_DIR / "endpoint.py"), "--seed", str(seed),
             "--fail-stems", str(fail_stems)],
            stdout=subprocess.PIPE, stderr=self._log, text=True,
        )
        line = self.proc.stdout.readline().strip()
        if not line.isdigit():
            self.close()
            raise RuntimeError(f"endpoint did not start; see {log}")
        self.base = f"http://127.0.0.1:{line}"
        self._opener = urllib.request.build_opener(urllib.request.ProxyHandler({}))

    def _call(self, path: str, data: bytes | None = None) -> dict:
        with self._opener.open(self.base + path, data=data, timeout=30) as resp:
            return json.load(resp)

    def reset(self) -> None:
        self._call("/_bench/reset", b"{}")

    def stats(self) -> dict:
        return self._call("/_bench/stats")

    def calls(self) -> tuple[int, int]:
        routes = self.stats()["routes"]
        generator = sum(v["requests"] for k, v in routes.items() if k.startswith("generator."))
        return generator, routes.get("embedder", {}).get("requests", 0)

    def close(self) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


def qa_http(seed: int, seconds: int, trace: bool, work: Path) -> Outcome:
    outcome = Outcome()
    paths = inputs.write_qa_inputs(seed, QA_HTTP_ITEMS, work / "inputs")
    fail_file = work / "fail_stems.json"
    fail_file.write_text(json.dumps(inputs.failing_stems(seed, QA_HTTP_ITEMS, QA_HTTP_FAIL_SHARE)))
    item_ids = [f"q{i + 1:04d}" for i in range(QA_HTTP_ITEMS)]

    # The untimed in-process reference the endpoint's answers must match.
    reference_out = work / "reference"
    _cli(["run", "--mock", "--seed", seed, "--dataset", paths["dataset"], "--corpus",
          paths["corpus"], "--ratings", paths["ratings"], "--out", reference_out], outcome)
    reference = _read_records(reference_out)

    endpoint = Endpoint(seed, fail_file, work / "endpoint.log")
    try:
        cache = work / "cache.bin"
        config = work / "config.json"
        config.write_text(json.dumps({
            "generator_url": endpoint.base + "/v1/chat/completions",
            "generator_model": "mock-generator",
            "embedder_url": endpoint.base + "/v1/embeddings",
            "embedder_model": "mock-embedder",
            "dataset_path": str(paths["dataset"]),
            "corpus_path": str(paths["corpus"]),
            "cache_path": str(cache),
            "seed": seed,
        }))

        def setup() -> float:
            cache.unlink(missing_ok=True)
            return _cli(["embed", "--config", config, "--corpus", paths["corpus"],
                         "--cache", cache], outcome)

        out = work / "out"
        run = QaRun(["run", "--config", config, "--ratings", paths["ratings"], "--out", out],
                    out, item_ids, outcome, drop_wall=True)
        server_stats = []

        def prepare():
            cache.unlink(missing_ok=True)
            endpoint.reset()

        def unit(tracer):
            wall = run.unit(tracer, prepare, endpoint.calls)
            if tracer is not None:
                server_stats.append(endpoint.stats())
            _compare(run.records, reference, outcome)
            return wall

        harness = Harness(seconds, trace)
        walls = harness.measure(setup, unit)
        outcome.add("peak_rss_mb", peak_rss_mb(), "MB", 1)
        calls = run.finish(walls)
        if trace:
            harness.layer_metrics(walls, calls, outcome)
            outcome.per_layer.update(_server_metrics(server_stats, outcome.per_layer))
            outcome.details["endpoint_routes_last_run"] = server_stats[-1]["routes"]
    finally:
        endpoint.close()
    return outcome


def _compare(records, reference, outcome: Outcome) -> None:
    """Top-K ids and predictions must equal the in-process mock run's."""
    for method in METHODS:
        got = [(r["item_id"], [h[0] for h in r["ranked"]["hits"]], r["predicted"]) for r in records[method]]
        want = [(r["item_id"], [h[0] for h in r["ranked"]["hits"]], r["predicted"]) for r in reference[method]]
        outcome.check(got == want, f"{method}: HTTP run differs from the in-process mock run")


def _server_metrics(stats: list[dict], layers: dict) -> dict:
    n = max(len(stats), 1)
    requests = sum(v["requests"] for s in stats for v in s["routes"].values())
    busy = sum(v["busy_s"] for s in stats for v in s["routes"].values())
    client = layers["backends.generator_s"] + layers["backends.embedder_s"]
    return {
        "backends.http_requests": requests / n,
        "backends.http_connections": sum(s["connections"] for s in stats) / n,
        "backends.server_busy_s": busy / n,
        "backends.transport_overhead_s": client - busy / n,
    }


def retrieval_100k(seed: int, seconds: int, trace: bool, work: Path) -> Outcome:
    outcome = Outcome()
    data = work / "inputs"
    generated = subprocess.run(
        [sys.executable, str(bootstrap.BENCH_DIR / "inputs.py"), "--seed", str(seed),
         "--out", str(data)],
        capture_output=True, text=True, timeout=170,
    )
    if generated.returncode != 0:
        raise RuntimeError(f"input generation failed: {generated.stderr[-500:]}")
    meta = json.loads(generated.stdout)
    corpus_path, cache_path = data / inputs.RETRIEVAL_CORPUS, data / inputs.RETRIEVAL_CACHE

    loaded = {}

    def setup() -> float:
        loaded.clear()  # free the last corpus first, so peak RSS holds one
        started = time.perf_counter()
        loaded["corpus"] = dataio.load_corpus(corpus_path, cache_path=cache_path)
        return time.perf_counter() - started

    with np.load(data / inputs.RETRIEVAL_QUERIES) as stored:
        h_plus, h_minus = stored["h_plus"], stored["h_minus"]
    pairs = [
        HypothesisPair(h_plus=f"target hypothesis {i}", h_minus=f"mimic hypothesis {i}",
                       h_plus_emb=hp, h_minus_emb=hm, provenance="injected")
        for i, (hp, hm) in enumerate(zip(h_plus, h_minus))
    ]
    # (pair index, lambda or None for h_plus_only) -> [times issued, first hits]
    results: dict[tuple[int, float | None], list] = {}
    # Per-retrieval latencies of the untraced blocks after the warm-up one.
    query_s: list[float] = []
    position = [0]

    def unit(tracer) -> float:
        index = position[0] % len(pairs)
        position[0] += 1
        pair, corpus = pairs[index], loaded["corpus"]
        span = tracer.span("bench.sweep_block") if tracer else contextlib.nullcontext()
        block: list[float] = []
        block_started = time.perf_counter()
        with span:
            for lam in (*DEFAULT_SWEEP_GRID, None):
                started = time.perf_counter()
                if lam is None:
                    ranked = retrieval.retrieve_h_plus_only(pair, corpus, RETRIEVAL_K)
                else:
                    ranked = retrieval.retrieve_chr(pair, corpus, lam, RETRIEVAL_K)
                block.append(time.perf_counter() - started)
                _keep(results, (index, lam), ranked.hits, outcome)
        wall = time.perf_counter() - block_started
        outcome.attempted += len(block)
        if tracer is None and position[0] > 1:
            query_s.extend(block)
        return wall

    harness = Harness(seconds, trace, RETRIEVAL_MIN_BLOCKS, RETRIEVAL_SETUP_EVERY, trace_setups=True)
    walls = harness.measure(setup, unit)
    outcome.add("peak_rss_mb", peak_rss_mb(), "MB", 1)
    outcome.add("setup_s", statistics.mean(walls.setups), "s", len(walls.setups))
    outcome.add("run_s", statistics.mean(walls.untraced), "s", len(walls.untraced))
    outcome.add("query_p50_ms", 1e3 * statistics.median(query_s), "ms", len(query_s))
    # 95th percentile: at 200 samples or more, at least 10 lie beyond it.
    outcome.add("query_p95_ms", 1e3 * percentile(query_s, 95), "ms", len(query_s))
    outcome.add("queries_per_s", len(query_s) / sum(walls.untraced), "1/s", len(query_s))

    loaded.clear()
    outcome.failed = _oracle_check(seed, h_plus, h_minus, results, outcome)
    if trace:
        harness.layer_metrics(walls, (0, 0), outcome)
        outcome.per_layer.update(NO_HTTP)
        outcome.per_layer["dataio.cache_write_s"] = meta["cache_write_s"]
    return outcome


def _keep(results, key, hits, outcome: Outcome) -> None:
    """First result per query; a repeated query must return the same hits."""
    if key in results:
        outcome.check(results[key][1] == hits, f"query {key} changed its answer on repeat")
        results[key][0] += 1
    else:
        results[key] = [1, hits]


def _oracle_check(seed: int, h_plus, h_minus, results, outcome: Outcome) -> int:
    """Compare every retrieval with an independent full-sort float64 oracle.

    The oracle regenerates the corpus vectors, scores every document with
    its own matrix product, gives each duplicate exactly its leader's score
    (the rows are identical, so ties are exact by construction), sorts all
    100k documents by (score descending, id ascending) and keeps the top 5.
    Returns the number of retrievals whose answer differs.
    """
    vecs, ids, leader = inputs.retrieval_vectors(seed)
    id_order = np.argsort(np.asarray(ids), kind="stable")
    keys = sorted(results, key=lambda key: (key[0], -1.0 if key[1] is None else key[1]))
    failed = 0
    for start in range(0, len(keys), 64):
        chunk = keys[start:start + 64]
        queries = np.stack([
            h_plus[i] if lam is None else h_plus[i] - lam * h_minus[i] for i, lam in chunk
        ])
        scores = (vecs @ queries.T)[leader]
        for column, key in enumerate(chunk):
            in_id_order = scores[id_order, column]
            ranked = id_order[np.argsort(-in_id_order, kind="stable")[:RETRIEVAL_K]]
            count, hits = results[key]
            got_ids = [doc_id for doc_id, _ in hits]
            want_ids = [ids[row] for row in ranked]
            close = all(abs(score - scores[row, column]) <= SCORE_TOL
                        for (_, score), row in zip(hits, ranked))
            if got_ids != want_ids or not close:
                failed += count
                outcome.check(False, f"query {key}: got {got_ids}, oracle {want_ids}")
    return failed


WORKLOADS = {"qa_mock": qa_mock, "qa_http": qa_http, "retrieval_100k": retrieval_100k}


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }
