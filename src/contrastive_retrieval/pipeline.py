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
from .config import RunConfig, check_lambda
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

class AnswerMemo:
    """A generator that sends each distinct temperature-0 prompt once.

    Wraps the generator of one run's answer calls. At temperature 0 the
    reply to a message list is keyed by a 16-byte digest of the whole list,
    roles included, and a repeat is served from the memo. At any other
    temperature every call reaches the backend, because a stored reply
    would change sampling. A call that raises stores nothing, so a repeat
    in a later batch asks the backend again. Only answers go through it: a
    parse retry of a pair prompt resends identical messages and must reach
    the backend. ``calls`` counts the calls that reached the backend,
    ``hits`` the replies served from the memo.
    """

    def __init__(self, generator: GeneratorBackend) -> None:
        self._generator = generator
        self._replies: dict[bytes, tuple[str, int | None]] = {}
        self.calls = 0
        self.hits = 0

    def complete(self, messages: list[Message], temperature: float = 0.0) -> GenerationResult:
        [(outcome, _)] = self.answer_each([messages], temperature)
        if isinstance(outcome, ContrastiveRetrievalError):
            raise outcome
        return outcome

    def answer_each(
        self,
        message_lists: Sequence[list[Message]],
        temperature: float = 0.0,
        clock: Callable[[], float] | None = None,
    ) -> list[tuple[GenerationResult | ContrastiveRetrievalError, float]]:
        """One batch of answers, as ``_answer_each`` makes it, sending only what the memo lacks.

        In input order, a prompt the memo holds is a hit, and so is a later
        repeat of a prompt in this batch. Only the first of each distinct
        missing prompt reaches the generator, all of them in one batch; a
        repeat shares its first's reply, or its error. A hit's or a repeat's
        seconds are its lookup's.
        """
        outcomes: list = [None] * len(message_lists)
        # Each missing key's inputs, with their lookup seconds. A sampled
        # call is keyed by its position, which no stored reply has.
        missing: dict[bytes | int, list[tuple[int, float]]] = {}
        for i, messages in enumerate(message_lists):
            started = clock() if clock else 0.0
            key = _memo_key(messages) if temperature == 0 else i
            reply = self._replies.get(key)
            seconds = clock() - started if clock else 0.0
            if reply is not None:
                self.hits += 1
                outcomes[i] = (GenerationResult(*reply), seconds)
            else:
                missing.setdefault(key, []).append((i, seconds))
        sent = _answer_each(
            self._generator, [message_lists[waiting[0][0]] for waiting in missing.values()],
            temperature, clock,
        )
        self.calls += len(sent)
        for (key, waiting), (outcome, seconds) in zip(missing.items(), sent):
            (first, _), *repeats = waiting
            outcomes[first] = (outcome, seconds)
            if not isinstance(outcome, ContrastiveRetrievalError):
                if temperature == 0:
                    self._replies[key] = (outcome.text, outcome.output_tokens)
                self.hits += len(repeats)
            for i, lookup_s in repeats:
                outcomes[i] = (outcome, lookup_s)
        return outcomes


def _memo_key(messages: list[Message]) -> bytes:
    return hashlib.blake2b(json.dumps(messages).encode("utf-8"), digest_size=16).digest()


class _Settled:
    """One batch's view of ``generator``: ``complete`` returns, never raises.

    It returns the reply, or the ContrastiveRetrievalError that stopped the
    call, with the call's wall seconds by ``clock`` (0.0 without one). It
    keeps the generator's ``MAX_IN_FLIGHT``, so ``complete_each`` pools it
    as it would the generator, and looks ``complete`` up per call.
    """

    def __init__(self, generator: GeneratorBackend, clock: Callable[[], float] | None) -> None:
        self.MAX_IN_FLIGHT = getattr(generator, "MAX_IN_FLIGHT", 1)
        self._generator = generator
        self._clock = clock

    def complete(self, messages: list[Message], temperature: float):
        started = self._clock() if self._clock else 0.0
        try:
            outcome = self._generator.complete(messages, temperature)
        except ContrastiveRetrievalError as exc:
            outcome = exc
        return outcome, self._clock() - started if self._clock else 0.0


def _answer_each(
    generator: GeneratorBackend,
    message_lists: Sequence[list[Message]],
    temperature: float,
    clock: Callable[[], float] | None,
) -> list[tuple[GenerationResult | ContrastiveRetrievalError, float]]:
    """Each message list's reply, or the error that stopped its call, and its seconds.

    The calls go out as one ``complete_each`` batch, so a generator with
    ``MAX_IN_FLIGHT`` above 1 gets that many at once and any other is
    called one at a time in input order; an ``AnswerMemo`` first serves
    what it holds. A call that raises a ContrastiveRetrievalError fails
    only its own input: every other call is still made, and its result
    kept. Seconds are the call's own wall time by ``clock``, 0.0 without
    one. Results are in input order.
    """
    if isinstance(generator, AnswerMemo):
        return generator.answer_each(message_lists, temperature, clock)
    return list(complete_each(_Settled(generator, clock), message_lists, temperature))


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


def _cost_of(calls: int, tokens: int, seconds: float) -> CostEntry:
    return CostEntry(llm_calls=calls, output_tokens=tokens, wall_ms=int(round(seconds * 1000)))


def _error_text(exc: ContrastiveRetrievalError) -> str:
    return f"{type(exc).__name__}: {exc}"


@dataclass(frozen=True)
class _Ranked:
    """One ranking of an item before its answer: the answer's messages, or the error."""

    ranked: RankedResult
    pair: HypothesisPair | None
    cost: CostEntry
    messages: list[Message] | None
    error: str | None


def _pair_once(
    item: QAItem, config: RunConfig, generator: GeneratorBackend, embedder: EmbedderBackend
) -> Callable[[], tuple[HypothesisPair, CostEntry]]:
    """A function returning the item's embedded pair and the cost of the calls that made it.

    The first call generates and embeds the pair; every later call returns
    it, or raises the error the first call raised, without a backend call.
    """
    outcome: list = []

    def pair() -> tuple[HypothesisPair, CostEntry]:
        if not outcome:
            try:
                made, cost = generate_pair(item, generator, config.max_retries, config.temperature)
                outcome.append((embed_pair(made, embedder), cost))
            except ContrastiveRetrievalError as exc:
                outcome.append(exc)
        if isinstance(outcome[0], ContrastiveRetrievalError):
            raise outcome[0]
        return outcome[0]

    return pair


def _expand_standard(item, corpus, config, lam, generator, embedder, pair):
    return retrieve_standard(item, corpus, config.k, embedder), None, 0, 0


def _expand_chr(item, corpus, config, lam, generator, embedder, pair):
    embedded, cost = pair()
    ranked = retrieve_chr(embedded, corpus, lam, config.k)
    return ranked, embedded, cost.llm_calls, cost.output_tokens


def _expand_h_plus_only(item, corpus, config, lam, generator, embedder, pair):
    embedded, cost = pair()
    ranked = retrieve_h_plus_only(embedded, corpus, config.k)
    return ranked, embedded, cost.llm_calls, cost.output_tokens


def _expand_hyde(item, corpus, config, lam, generator, embedder, pair):
    prompts = [
        chat_messages(*render_hypo_doc_prompt(item, draft=draft, total=config.hyde_n))
        for draft in range(1, config.hyde_n + 1)
    ]
    results = list(complete_each(generator, prompts, config.temperature))
    texts = [result.text for result in results]
    tokens = sum(output_tokens_of(result) for result in results)
    return retrieve_hyde(texts, corpus, config.k, embedder), None, config.hyde_n, tokens


def _expand_query2doc(item, corpus, config, lam, generator, embedder, pair):
    prompt = render_pseudo_doc_prompt(item)
    result = generator.complete(chat_messages(*prompt), temperature=config.temperature)
    # An empty generation degrades to repeating the stem as pseudo-doc.
    pseudo = result.text.strip() or item.stem
    ranked = retrieve_query2doc(item, pseudo, corpus, config.k, embedder)
    return ranked, None, 1, output_tokens_of(result)


# Each method's expansion stage: (item, corpus, config, lam, generator,
# embedder, pair) -> (ranked, pair, llm_calls, tokens), where ``lam`` is
# chr's weight and ``pair`` the item's ``_pair_once``. The stages look up
# retrieve_*, generate_pair and embed_pair in this module when they run,
# so a name rebound here (for tracing, say) is the one they call.
_EXPANSIONS = {
    METHOD_STANDARD: _expand_standard,
    METHOD_HYDE: _expand_hyde,
    METHOD_QUERY2DOC: _expand_query2doc,
    METHOD_CHR: _expand_chr,
    METHOD_H_PLUS_ONLY: _expand_h_plus_only,
}


def evaluate(
    dataset: Sequence[QAItem],
    corpus: Corpus,
    config: RunConfig,
    *,
    methods: Sequence[str],
    lambdas: Sequence[float] = (),
    generator: GeneratorBackend,
    answer_generator: GeneratorBackend,
    embedder: EmbedderBackend,
    dataset_name: str = "default",
    clock: Callable[[], float] | None = time.perf_counter,
) -> tuple[dict[str, list[EvalRecord]], dict[float, list[EvalRecord]]]:
    """Evaluate every item under each method, then chr at each weight.

    One loop over items; never aborts on a single item. An item runs
    ``methods`` in METHODS order (chr at ``config.lam``), then chr at each
    of ``lambdas`` in ascending order. Its hypothesis pair is generated and
    embedded once, by the first ranking that needs it, whose record carries
    the pair's wall time; every ranking by the pair carries the pair's cost,
    or the error that stopped it. So the corpus computes the pair's two
    products once per item, and the other rankings score from its memos.
    Once the item is ranked every way, its answer prompts go to
    ``answer_generator`` as one batch: a generator with ``MAX_IN_FLIGHT``
    above 1 gets that many at once, any other one call at a time in plan
    order, and an ``AnswerMemo`` sends only the prompts it lacks. So no
    expansion call overlaps an answer call, and an answer that fails marks
    only its own record.

    ``clock`` stamps wall_ms on cost entries; passing None zeroes timings,
    which keeps record files byte-identical across reruns of deterministic
    backends. Returns (records by method, records by weight), each list
    sorted by item id. Raises EmptyInputError for no items and ValueError
    for an unknown or repeated method or a repeated, negative or non-finite
    weight, before any backend call.
    """
    if not dataset:
        raise EmptyInputError("dataset must contain at least one item")
    for method in methods:
        if method not in _EXPANSIONS:
            raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    by_method: dict[str, list[EvalRecord]] = {m: [] for m in METHODS if m in methods}
    by_lambda: dict[float, list[EvalRecord]] = {lam: [] for lam in sorted(lambdas)}
    if len(by_method) < len(methods) or len(by_lambda) < len(lambdas):
        raise ValueError("methods and lambdas must be distinct")
    for lam in by_lambda:
        check_lambda(lam, "lambdas")

    plan = [(m, config.lam if m == METHOD_CHR else None) for m in by_method]
    plan += [(METHOD_CHR, lam) for lam in by_lambda]
    outputs = [*by_method.values(), *by_lambda.values()]

    def expand(item: QAItem, method: str, lam: float | None, pair) -> _Ranked:
        ranked = RankedResult(hits=(), method=method, lam=lam)
        embedded, cost, messages, error = None, CostEntry(), None, None
        try:
            started = clock() if clock else 0.0
            ranked, embedded, calls, tokens = _EXPANSIONS[method](
                item, corpus, config, lam, generator, embedder, pair
            )
            cost = _cost_of(calls, tokens, clock() - started if clock else 0.0)
            prompt = build_answer_prompt(item, ranked, corpus)
            messages = chat_messages(ANSWER_SYSTEM_PROMPT, prompt)
        except ContrastiveRetrievalError as exc:
            error = _error_text(exc)
        return _Ranked(ranked, embedded, cost, messages, error)

    def record(item: QAItem, method: str, lam: float | None, done: _Ranked, reply) -> EvalRecord:
        predicted, answer_cost, error = ABSTAIN, CostEntry(), done.error
        if reply is not None:
            outcome, seconds = reply
            if isinstance(outcome, ContrastiveRetrievalError):
                error = _error_text(outcome)
            else:
                answer_cost = _cost_of(1, output_tokens_of(outcome), seconds)
                predicted = extract_answer(outcome.text, list(item.options))
        return EvalRecord(
            item_id=item.id,
            method=method,
            ranked=done.ranked,
            predicted=predicted,
            correct=predicted != ABSTAIN and predicted == item.answer_key,
            cost=done.cost,
            answer_cost=answer_cost,
            lam=lam,
            pair=done.pair,
            dataset=dataset_name,
            error=error,
        )

    for item in dataset:
        pair = _pair_once(item, config, generator, embedder)
        # Rank the item every way first, so no embed overlaps its answers.
        ranked = [expand(item, method, lam, pair) for method, lam in plan]
        replies = iter(_answer_each(
            answer_generator, [r.messages for r in ranked if r.messages], config.temperature,
            clock,
        ))
        for (method, lam), done, records in zip(plan, ranked, outputs):
            reply = next(replies) if done.messages else None
            records.append(record(item, method, lam, done, reply))
    for records in outputs:
        records.sort(key=lambda r: r.item_id)
    return by_method, by_lambda


def run_benchmark(
    dataset: Sequence[QAItem],
    method: str,
    corpus: Corpus,
    config: RunConfig,
    *,
    generator: GeneratorBackend,
    answer_generator: GeneratorBackend,
    embedder: EmbedderBackend,
    dataset_name: str = "default",
    clock: Callable[[], float] | None = time.perf_counter,
) -> tuple[list[EvalRecord], dict]:
    """Evaluate every item under one method: ``evaluate`` for ``methods=(method,)``.

    Returns the records, sorted by item id, and their summary.
    """
    by_method, _ = evaluate(
        dataset, corpus, config, methods=(method,), generator=generator,
        answer_generator=answer_generator, embedder=embedder,
        dataset_name=dataset_name, clock=clock,
    )
    return by_method[method], summarize(by_method[method])


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
