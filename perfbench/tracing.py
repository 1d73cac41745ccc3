"""Outside-in tracing and call counting for the benchmark.

Nothing here edits the program. ``Tracer.install`` replaces public functions
with timing wrappers under the names their callers look them up by (for
example ``pipeline.retrieve_chr``, which ``pipeline`` calls, and
``retrieval.top_k_from_scores``, which ``retrieve_*`` calls), and restores
them on exit. Spans (name, start, end, parent, execution) stay in memory and
are written out when the run ends; self time is a span's duration minus its
children's.

``CallCounter`` counts backend calls with plain increments, so untraced
runs may keep it on. Given a tracer, it also records the backend spans, so
the one rule for which calls count lives in one place.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

from contrastive_retrieval import (
    analysis,
    backends,
    cli,
    dataio,
    hypotheses,
    pipeline,
    retrieval,
)
from contrastive_retrieval.errors import ParseFailureError

GENERATOR_CLASSES = (backends.MockGeneratorBackend, backends.HttpGeneratorBackend)
EMBEDDER_CLASSES = (backends.MockEmbedderBackend, backends.HttpEmbedderBackend)
LAYERS = ("dataio", "retrieval", "hypotheses", "pipeline", "backends", "analysis", "reports", "cli")
GENERATOR = "backends.complete"
EMBEDDER = "backends.embed"
RETRIEVE_SPANS = tuple(f"retrieval.{m}" for m in (
    "retrieve_standard", "retrieve_hyde", "retrieve_query2doc", "retrieve_chr", "retrieve_h_plus_only",
))
REPORT_FUNCTIONS = (
    "overlap_to_dict", "render_overlap_table", "cost_to_dict", "render_cost_table",
    "sweep_to_dict", "render_sweep_table", "render_sweep_svg", "strata_to_dict",
    "render_strata_table",
)


def prompt_kind(messages) -> str:
    """Which prompt a generator call carries, from the program's own markers."""
    prompt = messages[-1].get("content", "") if messages else ""
    for marker, kind in (
        (backends.ANSWER_MARKER, "answer"),
        (backends.PAIR_MARKER, "pair"),
        (backends.HYPO_DOC_MARKER, "draft"),
        (backends.PSEUDO_DOC_MARKER, "pseudo_doc"),
    ):
        if marker in prompt:
            return kind
    return "other"


@contextmanager
def _patched(targets):
    """Set (owner, attribute, value) triples, restoring the originals on exit."""
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in targets]
    try:
        for owner, attr, value in targets:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


class CallCounter:
    """Counts generator and embedder calls, plus the sweep's report.

    Embedder calls made while a generator call runs are the mock answerer
    consulting its own embedder; they are not calls the program makes, so
    they are neither counted nor traced.
    """

    def __init__(self) -> None:
        self.generator_calls = 0
        self.embedder_calls = 0
        self.sweeps: list = []
        self._in_generator = 0
        self._tracer: Tracer | None = None

    def _span(self, name: str, **attrs):
        return self._tracer.span(name, **attrs) if self._tracer else nullcontext()

    def _count_generator(self, fn):
        def complete(backend, messages, *args, **kwargs):
            self.generator_calls += 1
            self._in_generator += 1
            try:
                with self._span(GENERATOR, **(_generator_attrs(messages) if self._tracer else {})):
                    return fn(backend, messages, *args, **kwargs)
            finally:
                self._in_generator -= 1
        return complete

    def _count_embedder(self, fn):
        def embed(backend, *args, **kwargs):
            if self._in_generator:
                return fn(backend, *args, **kwargs)
            self.embedder_calls += 1
            with self._span(EMBEDDER):
                return fn(backend, *args, **kwargs)
        return embed

    def _keep_sweep(self, fn):
        def lambda_sweep(*args, **kwargs):
            report = fn(*args, **kwargs)
            self.sweeps.append(report)
            return report
        return lambda_sweep

    def install(self, tracer: Tracer | None = None):
        """Count calls; with ``tracer``, also record them as backend spans."""
        self._tracer = tracer
        targets = [(c, "complete", self._count_generator(c.complete)) for c in GENERATOR_CLASSES]
        targets += [(c, "embed", self._count_embedder(c.embed)) for c in EMBEDDER_CLASSES]
        targets.append((cli, "lambda_sweep", self._keep_sweep(cli.lambda_sweep)))
        return _patched(targets)

    def take(self) -> tuple[int, int, list]:
        """Counts and sweep reports since the last call, then reset."""
        out = (self.generator_calls, self.embedder_calls, self.sweeps)
        self.generator_calls = self.embedder_calls = 0
        self.sweeps = []
        return out


def _generator_attrs(messages) -> dict:
    """The prompt kind, and for answer prompts a digest of the prompt."""
    attrs = {"kind": prompt_kind(messages)}
    if attrs["kind"] == "answer":
        text = messages[-1]["content"].encode("utf-8")
        attrs["prompt"] = hashlib.sha256(text).hexdigest()[:16]
    return attrs


class Tracer:
    """In-memory span recorder; one thread, so a plain stack gives parents."""

    def __init__(self) -> None:
        # name, start_ns, end_ns, parent index, execution, attributes
        self.spans: list[list] = []
        self.execution = -1
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        record = [name, time.perf_counter_ns(), 0, parent, self.execution, attrs]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            self._stack.pop()
            record[2] = time.perf_counter_ns()

    def wrap(self, name: str, fn, inspect=None):
        """Time ``fn`` as span ``name``; ``inspect(attrs, args, result)`` notes facts."""
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(name) as record:
                try:
                    result = fn(*args, **kwargs)
                except ParseFailureError:
                    record[5]["raised"] = True
                    raise
                if inspect is not None:
                    inspect(record[5], args, result)
                return result
        return traced

    def install(self):
        """Wrap each layer's public functions where their callers find them.

        The backends' ``complete`` and ``embed`` spans come from
        ``CallCounter.install(tracer)``.
        """
        w = self.wrap
        targets = []

        def add(owner, attr, name, inspect=None):
            targets.append((owner, attr, w(name, getattr(owner, attr), inspect)))

        def corpus_size(attrs, args, result):
            attrs["docs"] = len(result)
            attrs["matrix_bytes"] = result.matrix.nbytes

        def written(attrs, args, result):
            attrs["bytes"] = os.path.getsize(args[0])

        def pair_provenance(attrs, args, result):
            attrs["fallback"] = result[0].provenance == "fallback"

        def record_errors(attrs, args, result):
            attrs["errors"] = sum(1 for r in result[0] if r.error is not None)

        for owner in (cli, dataio):
            add(owner, "load_corpus", "dataio.load_corpus", corpus_size)
            add(owner, "cache_embeddings", "dataio.cache_embeddings")
        add(dataio, "load_cache", "dataio.load_cache")
        add(dataio, "Corpus", "retrieval.Corpus")
        add(cli, "load_dataset", "dataio.load_dataset")
        add(cli, "load_ratings", "dataio.load_ratings")
        add(cli, "save_records", "dataio.save_records", written)
        add(cli, "write_json", "cli.write_json", written)
        add(cli, "write_text", "cli.write_text", written)
        for owner in (cli, analysis):
            add(owner, "run_benchmark", "pipeline.run_benchmark", record_errors)
        for name in ("lambda_sweep", "retrieval_shift", "cost_report", "stratified_accuracy"):
            add(cli, name, f"analysis.{name}")
        for name in REPORT_FUNCTIONS:
            add(cli, name, f"reports.{name}")
        add(pipeline, "generate_pair", "hypotheses.generate_pair", pair_provenance)
        add(pipeline, "embed_pair", "hypotheses.embed_pair")
        add(hypotheses, "parse_pair", "hypotheses.parse_pair")
        add(pipeline, "build_answer_prompt", "pipeline.build_answer_prompt")
        add(pipeline, "extract_answer", "pipeline.extract_answer")
        for span_name in RETRIEVE_SPANS:
            add(pipeline, span_name.split(".")[1], span_name)
        for span_name in ("retrieval.retrieve_chr", "retrieval.retrieve_h_plus_only"):
            add(retrieval, span_name.split(".")[1], span_name)
        add(retrieval, "shifted_query", "retrieval.shifted_query")
        add(retrieval, "top_k_from_scores", "retrieval.top_k_from_scores")
        return _patched(targets)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, start, end, parent, execution, attrs) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": index, "name": name, "start_ns": start, "end_ns": end,
                    "parent": parent, "execution": execution, **attrs,
                }) + "\n")


def _median(values, default=0.0):
    return statistics.median(values) if values else default


def span_metrics(spans: list[list], executions: int) -> dict[str, float]:
    """Per-layer metrics from spans of ``executions`` traced executions.

    Times named after an ingest step are the median of one call, set-up
    calls (execution -1) included; the other times and the counts are per
    execution. Shares are of the executions' root spans. The backend call
    counts are not here: they come from ``CallCounter``.
    """
    dur = [(end - start) / 1e9 for _, start, end, _, _, _ in spans]
    child = [0.0] * len(spans)
    children: dict[int, list[int]] = {}
    for i, (_, _, _, parent, _, _) in enumerate(spans):
        if parent >= 0:
            child[parent] += dur[i]
            children.setdefault(parent, []).append(i)
    self_s = [d - c for d, c in zip(dur, child)]

    def names(i):
        while i >= 0:
            yield spans[i][0]
            i = spans[i][3]

    def under(i, name):
        return any(n == name for n in names(spans[i][3]))

    by_name: dict[str, list[int]] = {}
    for i, record in enumerate(spans):
        by_name.setdefault(record[0], []).append(i)

    def calls(name):
        return by_name.get(name, [])

    def total(name):
        return sum(dur[i] for i in calls(name))

    per = 1 / max(executions, 1)
    generators = calls(GENERATOR)
    embeds = calls(EMBEDDER)
    retrieves = [i for name in RETRIEVE_SPANS for i in calls(name)]
    loads = calls("dataio.load_corpus")
    docs_loaded = sum(spans[i][5].get("docs", 0) for i in loads)
    ingest_embeds = [i for i in embeds if under(i, "dataio.load_corpus")]
    parses = calls("hypotheses.parse_pair")
    parse_failures = sum(1 for i in parses if spans[i][5].get("raised"))
    pair_calls = [i for i in generators if under(i, "hypotheses.generate_pair")]
    answers = [i for i in generators if spans[i][5].get("kind") == "answer"]
    top_k = [dur[i] for i in calls("retrieval.top_k_from_scores")]
    retrieve_ms = [dur[i] * 1e3 for i in retrieves]
    scoring_self = [
        (dur[i] - sum(dur[c] for c in children.get(i, ()) if spans[c][0] in (
            "retrieval.shifted_query", "retrieval.top_k_from_scores", EMBEDDER))) * 1e3
        for i in retrieves
    ]
    roots = [i for i, record in enumerate(spans) if record[3] < 0 and record[4] >= 0]
    root_s = sum(dur[i] for i in roots)
    layer_self = {layer: 0.0 for layer in LAYERS}
    root_set = set(roots)
    for i, record in enumerate(spans):
        layer = record[0].split(".")[0]
        if layer in layer_self and record[4] >= 0 and i not in root_set:
            layer_self[layer] += self_s[i]
    written = ("dataio.save_records", "cli.write_json", "cli.write_text")
    matrix_bytes = [spans[i][5]["matrix_bytes"] for i in loads]

    metrics = {
        "dataio.load_corpus_s": _median([dur[i] for i in loads]),
        "dataio.cache_read_s": _median([dur[i] for i in calls("dataio.load_cache")]),
        "dataio.cache_write_s": _median([dur[i] for i in calls("dataio.cache_embeddings")]),
        "dataio.cache_hit_ratio": (docs_loaded - len(ingest_embeds)) / docs_loaded if docs_loaded else 0.0,
        "dataio.ingest_embed_calls": len(ingest_embeds) * per,
        "dataio.save_records_s": total("dataio.save_records") * per,
        "retrieval.corpus_build_s": _median([dur[i] for i in calls("retrieval.Corpus")]),
        "retrieval.retrieve_calls": len(retrieves) * per,
        "retrieval.retrieve_ms_p50": _median(retrieve_ms),
        "retrieval.retrieve_ms_p95": percentile(retrieve_ms, 95),
        "retrieval.top_k_ms_p50": _median(top_k) * 1e3,
        "retrieval.scoring_self_ms_p50": _median(scoring_self),
        "retrieval.top_k_share": sum(top_k) / sum(retrieve_ms) * 1e3 if retrieves else 0.0,
        # Computed, not measured: the bytes of the corpus matrix one query scans.
        "retrieval.bytes_scanned_per_query": _median(matrix_bytes),
        "hypotheses.pair_generations": len(calls("hypotheses.generate_pair")) * per,
        "hypotheses.pair_calls": len(pair_calls) * per,
        "hypotheses.parse_failures": parse_failures * per,
        "hypotheses.fallback_pairs": sum(
            1 for i in calls("hypotheses.generate_pair") if spans[i][5].get("fallback")
        ) * per,
        "hypotheses.parse_success_ratio": (
            (len(parses) - parse_failures) / len(pair_calls) if pair_calls else 0.0
        ),
        "hypotheses.generate_pair_s": total("hypotheses.generate_pair") * per,
        "hypotheses.embed_pair_s": total("hypotheses.embed_pair") * per,
        "pipeline.answer_calls": len(answers) * per,
        "pipeline.answer_prompts_distinct": sum(
            len({spans[i][5]["prompt"] for i in answers if spans[i][4] == e})
            for e in {spans[i][4] for i in answers}
        ) * per,
        "pipeline.build_prompt_s": total("pipeline.build_answer_prompt") * per,
        "pipeline.extract_s": total("pipeline.extract_answer") * per,
        "pipeline.item_errors": sum(
            spans[i][5].get("errors", 0) for i in calls("pipeline.run_benchmark")
        ) * per,
        "backends.generator_s": sum(dur[i] for i in generators) * per,
        "backends.embedder_s": sum(dur[i] for i in embeds) * per,
        "analysis.lambda_sweep_s": total("analysis.lambda_sweep") * per,
        "analysis.sweep_generator_calls": sum(
            1 for i in generators if under(i, "analysis.lambda_sweep")
        ) * per,
        "reports.render_s": sum(total(f"reports.{n}") for n in REPORT_FUNCTIONS) * per,
        "cli.write_s": (total("cli.write_json") + total("cli.write_text")) * per,
        "cli.bytes_written": sum(
            spans[i][5].get("bytes", 0) for name in written for i in calls(name)
        ) * per,
        "trace.untraced_share": sum(self_s[i] for i in roots) / root_s if root_s else 0.0,
    }
    for layer, seconds in layer_self.items():
        metrics[f"{layer}.self_share"] = seconds / root_s if root_s else 0.0
    return metrics


def percentile(values, q):
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-q * len(ordered) // 100))
    return ordered[int(rank) - 1]
