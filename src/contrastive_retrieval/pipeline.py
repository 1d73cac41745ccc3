"""End-to-end multiple-choice evaluation.

For each question: expand the query per the chosen method, retrieve top-K
evidence, build a grounded answer prompt, ask a generator backend for a
single letter, and score it against the gold key. Per-item failures are
recorded on the item's record and never abort the run. Abstentions count
as incorrect.
"""

from __future__ import annotations

import hashlib
import json
import re
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass

from .backends import (
    EmbedderBackend,
    GenerationResult,
    GeneratorBackend,
    Message,
    chat_messages,
    complete_each,
    output_tokens_of,
)
from .config import RunConfig
from .costs import CostEntry
from .errors import ContrastiveRetrievalError, EmptyInputError
from .hypotheses import (
    HypothesisPair,
    QAItem,
    embed_pair,
    generate_pair,
    render_hypo_doc_prompt,
    render_pseudo_doc_prompt,
)
from .retrieval import (
    METHOD_CHR,
    METHOD_H_PLUS_ONLY,
    METHOD_HYDE,
    METHOD_QUERY2DOC,
    METHOD_STANDARD,
    METHODS,
    Corpus,
    RankedResult,
    retrieve_chr,
    retrieve_h_plus_only,
    retrieve_hyde,
    retrieve_query2doc,
    retrieve_standard,
)

ABSTAIN = "abstain"

ANSWER_SYSTEM_PROMPT = (
    "You are a careful clinician answering multiple-choice questions strictly "
    "from the provided evidence."
)

ANSWER_INSTRUCTION = (
    'Answer with the single letter of the best option, formatted exactly as "Answer: X".'
)

# Hypothesis pairs (with embeddings) and their generation costs, keyed by
# item id. ``chr-rag run`` shares one cache across chr, h_plus_only and the
# lambda sweep, so each item's pair is generated once and only the scoring
# changes; a cached pair keeps the cost of the calls that made it.
PairCache = dict[str, tuple[HypothesisPair, CostEntry]]


class AnswerMemo:
    """A generator that sends each distinct temperature-0 prompt once.

    Wraps the generator of one run's answer calls. At temperature 0 the
    reply to a message list is keyed by a 16-byte digest of the whole list,
    roles included, and a repeat is served from the memo. At any other
    temperature every call reaches the backend, because a stored reply
    would change sampling. A call that raises stores nothing, so a repeat
    asks the backend again. Only answers go through it: a parse retry of a
    pair prompt resends identical messages and must reach the backend.
    ``calls`` counts the calls that reached the backend, ``hits`` the
    replies served from the memo.
    """

    def __init__(self, generator: GeneratorBackend) -> None:
        self._generator = generator
        self._replies: dict[bytes, tuple[str, int | None]] = {}
        self.calls = 0
        self.hits = 0

    def complete(self, messages: list[Message], temperature: float = 0.0) -> GenerationResult:
        if temperature != 0:
            self.calls += 1
            return self._generator.complete(messages, temperature)
        key = hashlib.blake2b(json.dumps(messages).encode("utf-8"), digest_size=16).digest()
        reply = self._replies.get(key)
        if reply is not None:
            self.hits += 1
            return GenerationResult(*reply)
        self.calls += 1
        result = self._generator.complete(messages, temperature)
        self._replies[key] = (result.text, result.output_tokens)
        return result


@dataclass(frozen=True)
class EvalRecord:
    """Outcome of one question under one method."""

    item_id: str
    method: str
    ranked: RankedResult
    predicted: str
    correct: bool
    cost: CostEntry
    answer_cost: CostEntry
    lam: float | None = None
    pair: HypothesisPair | None = None
    dataset: str = "default"
    error: str | None = None


def build_answer_prompt(item: QAItem, hits: RankedResult, corpus: Corpus) -> str:
    """Assemble the evidence-grounded user prompt for the answer call.

    Layout, in order: each retrieved document prefixed "[Doc i]" by rank,
    the question stem, the lettered options, the fixed single-letter
    instruction.
    """
    if not hits.hits:
        raise ValueError("cannot build an answer prompt from zero hits")
    lines = [
        f"[Doc {rank}] {corpus.text(doc_id)}"
        for rank, (doc_id, _) in enumerate(hits.hits, start=1)
    ]
    lines.append("")
    lines.append(f"Question: {item.stem}")
    lines.append("Options:")
    lines.append(item.options_block())
    lines.append("")
    lines.append(ANSWER_INSTRUCTION)
    return "\n".join(lines)


_ANSWER_LINE_RE = re.compile(r"^\s*answer\s*:\s*\(?([A-Za-z])\)?(?![\w])", re.IGNORECASE | re.MULTILINE)
_PAREN_RE = re.compile(r"\(([A-Za-z])\)")
_LEADING_RE = re.compile(r"^\s*([A-Za-z])(?![\w])")


def extract_answer(raw: str, options: Sequence[str]) -> str:
    """Pull the chosen option letter out of free-form generator text.

    Priority: an "Answer: X" line, then a parenthesized "(X)", then a bare
    leading letter. Only letters among ``options`` count; anything else
    abstains.
    """
    valid = {letter.upper() for letter in options}
    for regex in (_ANSWER_LINE_RE, _PAREN_RE, _LEADING_RE):
        for match in regex.finditer(raw):
            letter = match.group(1).upper()
            if letter in valid:
                return letter
    return ABSTAIN


def _cost_of(calls: int, tokens: int, started: float | None, clock) -> CostEntry:
    wall = 0 if started is None else int(round((clock() - started) * 1000))
    return CostEntry(llm_calls=calls, output_tokens=tokens, wall_ms=wall)


def _get_pair(
    item: QAItem,
    config: RunConfig,
    generator: GeneratorBackend,
    embedder: EmbedderBackend,
    pair_cache: PairCache,
) -> tuple[HypothesisPair, CostEntry]:
    if item.id not in pair_cache:
        pair, cost = generate_pair(item, generator, config.max_retries, config.temperature)
        pair_cache[item.id] = (embed_pair(pair, embedder), cost)
    return pair_cache[item.id]


def _expand_standard(item, corpus, config, generator, embedder, pair_cache):
    return retrieve_standard(item, corpus, config.k, embedder), None, 0, 0


def _expand_chr(item, corpus, config, generator, embedder, pair_cache):
    pair, cost = _get_pair(item, config, generator, embedder, pair_cache)
    ranked = retrieve_chr(pair, corpus, config.lam, config.k)
    return ranked, pair, cost.llm_calls, cost.output_tokens


def _expand_h_plus_only(item, corpus, config, generator, embedder, pair_cache):
    pair, cost = _get_pair(item, config, generator, embedder, pair_cache)
    ranked = retrieve_h_plus_only(pair, corpus, config.k)
    return ranked, pair, cost.llm_calls, cost.output_tokens


def _expand_hyde(item, corpus, config, generator, embedder, pair_cache):
    prompts = [
        chat_messages(*render_hypo_doc_prompt(item, draft=draft, total=config.hyde_n))
        for draft in range(1, config.hyde_n + 1)
    ]
    results = list(complete_each(generator, prompts, config.temperature))
    texts = [result.text for result in results]
    tokens = sum(output_tokens_of(result) for result in results)
    return retrieve_hyde(texts, corpus, config.k, embedder), None, config.hyde_n, tokens


def _expand_query2doc(item, corpus, config, generator, embedder, pair_cache):
    prompt = render_pseudo_doc_prompt(item)
    result = generator.complete(chat_messages(*prompt), temperature=config.temperature)
    # An empty generation degrades to repeating the stem as pseudo-doc.
    pseudo = result.text.strip() or item.stem
    ranked = retrieve_query2doc(item, pseudo, corpus, config.k, embedder)
    return ranked, None, 1, output_tokens_of(result)


# Each method's expansion stage: (item, corpus, config, generator, embedder,
# pair_cache) -> (ranked, pair, llm_calls, tokens). The stages look up
# retrieve_*, generate_pair and embed_pair in this module when they run,
# so a name rebound here (for tracing, say) is the one they call.
_EXPANSIONS = {
    METHOD_STANDARD: _expand_standard,
    METHOD_HYDE: _expand_hyde,
    METHOD_QUERY2DOC: _expand_query2doc,
    METHOD_CHR: _expand_chr,
    METHOD_H_PLUS_ONLY: _expand_h_plus_only,
}


def run_benchmark(
    dataset: Sequence[QAItem],
    method: str,
    corpus: Corpus,
    config: RunConfig,
    *,
    generator: GeneratorBackend,
    answer_generator: GeneratorBackend,
    embedder: EmbedderBackend,
    pair_cache: PairCache | None = None,
    dataset_name: str = "default",
    clock: Callable[[], float] | None = time.perf_counter,
) -> tuple[list[EvalRecord], dict]:
    """Evaluate every item under one method; never aborts on a single item.

    ``clock`` stamps wall_ms on cost entries; passing None zeroes timings,
    which keeps record files byte-identical across reruns of deterministic
    backends. ``pair_cache`` serves pairs that an earlier run generated;
    without one, the run keeps its own. Records come back sorted by item id.
    """
    if not dataset:
        raise EmptyInputError("dataset must contain at least one item")
    expand = _EXPANSIONS.get(method)
    if expand is None:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")

    if pair_cache is None:
        pair_cache = {}
    lam = config.lam if method == METHOD_CHR else None
    records: list[EvalRecord] = []
    for item in dataset:
        pair: HypothesisPair | None = None
        ranked: RankedResult | None = None
        exp_cost = CostEntry()
        ans_cost = CostEntry()
        predicted = ABSTAIN
        error: str | None = None
        try:
            started = clock() if clock else None
            ranked, pair, calls, tokens = expand(
                item, corpus, config, generator, embedder, pair_cache
            )
            exp_cost = _cost_of(calls, tokens, started, clock)

            started = clock() if clock else None
            prompt = build_answer_prompt(item, ranked, corpus)
            result = answer_generator.complete(
                chat_messages(ANSWER_SYSTEM_PROMPT, prompt), temperature=config.temperature
            )
            ans_cost = _cost_of(1, output_tokens_of(result), started, clock)
            predicted = extract_answer(result.text, list(item.options))
        except ContrastiveRetrievalError as exc:
            error = f"{type(exc).__name__}: {exc}"
        if ranked is None:
            ranked = RankedResult(hits=(), method=method, lam=lam)
        correct = predicted != ABSTAIN and predicted == item.answer_key
        records.append(
            EvalRecord(
                item_id=item.id,
                method=method,
                ranked=ranked,
                predicted=predicted,
                correct=correct,
                cost=exp_cost,
                answer_cost=ans_cost,
                lam=lam,
                pair=pair,
                dataset=dataset_name,
                error=error,
            )
        )
    records.sort(key=lambda r: r.item_id)
    return records, summarize(records)


def accuracy(records: Sequence[EvalRecord]) -> float:
    """Fraction of records answered correctly; abstentions count against."""
    if not records:
        raise EmptyInputError("accuracy over zero records is undefined")
    return sum(1 for r in records if r.correct) / len(records)


def _aggregate_costs(entries: Sequence[CostEntry]) -> dict:
    n = len(entries)
    calls = sum(e.llm_calls for e in entries)
    tokens = sum(e.output_tokens for e in entries)
    wall = sum(e.wall_ms for e in entries)
    return {
        "llm_calls_total": calls,
        "llm_calls_mean": calls / n,
        "output_tokens_total": tokens,
        "output_tokens_mean": tokens / n,
        "wall_ms_total": wall,
    }


def summarize(records: Sequence[EvalRecord]) -> dict:
    """Aggregate a homogeneous record list into a summary mapping."""
    if not records:
        raise EmptyInputError("cannot summarize zero records")
    methods = sorted({r.method for r in records})
    summary: dict = {
        "method": methods[0] if len(methods) == 1 else "mixed",
        "n": len(records),
        "correct": sum(1 for r in records if r.correct),
        "accuracy": accuracy(records),
        "abstentions": sum(1 for r in records if r.predicted == ABSTAIN),
        "item_errors": sum(1 for r in records if r.error is not None),
        "expansion_cost": _aggregate_costs([r.cost for r in records]),
        "answer_cost": _aggregate_costs([r.answer_cost for r in records]),
    }
    lams = {r.lam for r in records}
    if len(lams) == 1 and next(iter(lams)) is not None:
        summary["lambda"] = next(iter(lams))
    return summary
