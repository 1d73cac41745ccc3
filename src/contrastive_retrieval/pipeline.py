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
from dataclasses import dataclass, field, replace

from .backends import (
    EmbedderBackend,
    GenerationResult,
    GeneratorBackend,
    Message,
    chat_messages,
    complete_until_done,
    output_tokens_of,
    settle,
)
from .config import RunConfig, sweep_grid
from .costs import CostEntry
from .errors import ContrastiveRetrievalError, EmptyInputError
# generate_pair is not called here; perfbench/tracing.py wraps it under this
# module's name.
from .hypotheses import (  # noqa: F401
    HypothesisPair,
    PairAttempts,
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
    QUERY2DOC_SEPARATOR,
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

@dataclass
class AnswerMemo:
    """One run's answers: ``evaluate`` sends each distinct temperature-0 prompt once.

    ``replies`` holds the reply to each message list sent to ``generator``
    at temperature 0, keyed by a 16-byte digest of the whole list, roles
    included; a call that failed stores nothing, so a later batch sends it
    again. At any other temperature every call reaches the backend, because
    a stored reply would change sampling. Only answers go through it: a
    parse retry of a pair prompt resends identical messages and must reach
    the backend. ``calls`` counts the answer calls that reached
    ``generator``, ``hits`` the replies served without one.
    """

    generator: GeneratorBackend
    replies: dict[bytes, GenerationResult] = field(default_factory=dict)
    calls: int = 0
    hits: int = 0


def _memo_key(messages: list[Message]) -> bytes:
    return hashlib.blake2b(json.dumps(messages).encode("utf-8"), digest_size=16).digest()


def _once(backend, call: Callable, inputs: Sequence, keys: Sequence, memo: dict, clock) -> list:
    """Each input's (outcome, seconds), in input order, sending each key's input once.

    ``keys`` has one key per input; inputs of one key are equal. One input
    of each key that ``memo`` lacks goes to ``call`` in one ``settle``
    batch to ``backend``, timed by ``clock``. The key's first input takes
    that (result, or the ContrastiveRetrievalError that stopped the call,
    seconds); every other input shares it, or its error, and adds 0 s. A
    key whose call succeeded enters ``memo``; a failed one does not, so a
    later batch sends it again.
    """
    missing = {key: given for key, given in zip(keys, inputs) if key not in memo}
    sent = dict(zip(missing, settle(backend, call, list(missing.values()), clock)))
    errors = {}
    for key, (outcome, _) in sent.items():
        if isinstance(outcome, ContrastiveRetrievalError):
            errors[key] = outcome
        else:
            memo[key] = outcome
    return [sent.pop(key) if key in sent else (errors[key] if key in errors else memo[key], 0.0)
            for key in keys]


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


_ANSWER_LINE_RE = re.compile(r"^[\s*_#>-]*answer[\s*_]*:[\s*_]*\(?([A-Za-z])\)?(?!\w)", re.I | re.M)
_PAREN_RE = re.compile(r"\(([A-Za-z])\)")
_LEADING_RE = re.compile(r"^\s*([A-Za-z])(?![\w])")


def extract_answer(raw: str, options: Sequence[str]) -> str:
    """Pull the chosen option letter out of free-form generator text.

    Priority: an "Answer: X" line (Markdown emphasis, a heading or a list
    marker around it allowed), then a parenthesized "(X)", then a bare
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


class _Call:
    """One generator call of an expansion, made by ``complete_until_done``."""

    calls = 1

    def __init__(self, messages: list[Message]) -> None:
        self.messages = messages

    def take(self, reply: GenerationResult | ContrastiveRetrievalError, seconds: float) -> bool:
        self.outcome, self.seconds = reply, seconds
        self.tokens = 0 if isinstance(reply, ContrastiveRetrievalError) else output_tokens_of(reply)
        return True


class _Expansion:
    """One item's expansion for a method, or for the methods sharing its pair.

    What to send: the generator ``requests``, then ``texts()`` to embed. How
    to rank: ``rank``, from the replies and the ``fetched`` vector (or
    error) of each text, with no backend call: it passes itself to
    retrieve_* and embed_pair as their embedder, and ``embed`` looks the
    text up. It looks up retrieve_* and embed_pair in this module when it
    runs, so a name rebound here (for tracing, say) is the one it calls.
    """

    def __init__(self, item: QAItem, config: RunConfig) -> None:
        self.item, self.fetched, self.embed_seconds = item, {}, 0.0
        try:
            self.requests, self._error = self._requests(config), None
        except ContrastiveRetrievalError as exc:  # a prompt that cannot be rendered
            self.requests, self._error = [], exc

    def _requests(self, config: RunConfig) -> list:
        return []

    def error(self) -> ContrastiveRetrievalError | None:
        """The first error that stopped one of its calls, if any."""
        outcomes = [self._error, *(r.outcome for r in self.requests), *self.fetched.values()]
        return next((o for o in outcomes if isinstance(o, ContrastiveRetrievalError)), None)

    def cost(self) -> CostEntry:
        """Its generator calls and tokens, and the sum of its own calls' wall times."""
        seconds = self.embed_seconds + sum(r.seconds for r in self.requests)
        calls, tokens = sum(r.calls for r in self.requests), sum(r.tokens for r in self.requests)
        return _cost_of(calls, tokens, seconds)

    def texts(self) -> list[str]:
        """The texts to embed: by default, its replies'."""
        return [r.outcome.text for r in self.requests]

    def embed(self, text: str):
        """The vector fetched for ``text`` in step 2 of ``evaluate``."""
        return self.fetched[text]


class _Standard(_Expansion):
    def texts(self):
        return [self.item.stem]

    def rank(self, corpus, k, method, lam):
        return retrieve_standard(self.item, corpus, k, self), None


class _HyDE(_Expansion):
    def _requests(self, config):
        prompts = [render_hypo_doc_prompt(self.item, draft=draft, total=config.hyde_n)
                   for draft in range(1, config.hyde_n + 1)]
        return [_Call(chat_messages(*prompt)) for prompt in prompts]

    def rank(self, corpus, k, method, lam):
        return retrieve_hyde(self.texts(), corpus, k, self), None


class _Query2doc(_Expansion):
    def _requests(self, config):
        return [_Call(chat_messages(*render_pseudo_doc_prompt(self.item)))]

    def _pseudo(self) -> str:
        # An empty generation degrades to repeating the stem as pseudo-doc.
        return self.requests[0].outcome.text.strip() or self.item.stem

    def texts(self):
        return [self.item.stem + QUERY2DOC_SEPARATOR + self._pseudo()]

    def rank(self, corpus, k, method, lam):
        return retrieve_query2doc(self.item, self._pseudo(), corpus, k, self), None


class _Pair(_Expansion):
    """The item's hypothesis pair, shared by chr at every weight and h_plus_only."""

    embedded: HypothesisPair | None = None

    def _requests(self, config):
        return [PairAttempts(self.item, config.max_retries)]

    def texts(self):
        pair = self.requests[0].outcome
        return [pair.h_plus, pair.h_minus] if pair.h_minus else [pair.h_plus]

    def rank(self, corpus, k, method, lam):
        if self.embedded is None:
            self.embedded = embed_pair(self.requests[0].outcome, self)
        if method == METHOD_CHR:
            return retrieve_chr(self.embedded, corpus, lam, k), self.embedded
        return retrieve_h_plus_only(self.embedded, corpus, k), self.embedded


# Each method's expansion; methods of one class share an item's expansion.
_EXPANSIONS = {
    METHOD_STANDARD: _Standard,
    METHOD_HYDE: _HyDE,
    METHOD_QUERY2DOC: _Query2doc,
    METHOD_CHR: _Pair,
    METHOD_H_PLUS_ONLY: _Pair,
}

# Items per window: a window sends its generator calls, its embeddings and
# its answers as one batch each (see ``evaluate``).
WINDOW = 8


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

    Never aborts on a single item. Each item is ranked under ``methods`` in
    METHODS order (chr at ``config.lam``), then by chr at each of
    ``lambdas`` in ascending order. The items go in windows of ``WINDOW``
    consecutive items, and each window takes four steps:

    1. Every generator call its expansions need goes out as one batch: the
       pair prompts, the HyDE drafts and the Query2doc prompts. Pair
       prompts whose reply fails to parse go again, with identical
       messages, in follow-up batches, up to ``config.max_retries`` times.
    2. Every embedding goes out as one batch: the stems, the Query2doc
       texts, the drafts and each pair's H+ and H-. Each distinct text is
       sent once; a repeat shares its first's vector, or its error, and
       adds no seconds to its expansion's cost. Each expansion keeps the
       vector or error of each of its texts, keyed by the text.
    3. The items are ranked one by one, with no backend call, each into
       its record as it stands unanswered: predicted ``abstain``, an empty
       answer cost, or the ranking's error. An item's pair is generated and
       embedded once, so the corpus computes its two products once and the
       item's other rankings by it score from its memos.
    4. The window's answer prompts go to ``answer_generator`` as one batch.
       At temperature 0 each distinct prompt goes once per ``AnswerMemo``:
       the one passed as ``answer_generator``, which keeps the replies of
       earlier windows and calls, else one of this call's own. A repeat
       shares its first's reply, or its error, and adds no seconds to its
       answer cost. Each answered record then takes its prediction,
       correctness and answer cost, or the answer's error.

    A batch to a backend with ``MAX_IN_FLIGHT`` above 1 has that many calls
    in flight at once; any other backend is called one call at a time, in
    order. No two batches overlap, so no embedding overlaps a generator
    call. Every batch goes through ``backends.settle``: a call that fails
    marks only the records that needed it, with its error, and every other
    call is still made.

    A record's cost is that of its expansion's calls: every ranking by the
    pair carries the pair's cost. ``clock`` stamps wall_ms on cost entries,
    with the sum of the wall times of the record's own calls, not the time
    it waited for its window's batch; passing None zeroes timings, which
    keeps record files byte-identical across reruns of deterministic
    backends. Returns (records by method, records by weight), each list
    sorted by item id. Raises EmptyInputError for no items, and ValueError
    for an unknown or repeated method or for non-empty ``lambdas`` that are
    not a valid ``config.sweep_grid``, before any backend call.
    """
    if not dataset:
        raise EmptyInputError("dataset must contain at least one item")
    for method in methods:
        if method not in _EXPANSIONS:
            raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    by_method: dict[str, list[EvalRecord]] = {m: [] for m in METHODS if m in methods}
    if len(by_method) < len(methods):
        raise ValueError("methods must be distinct")
    by_lambda: dict[float, list[EvalRecord]] = {
        lam: [] for lam in (sweep_grid(lambdas) if lambdas else ())}

    plan = [(m, config.lam if m == METHOD_CHR else None) for m in by_method]
    plan += [(METHOD_CHR, lam) for lam in by_lambda]
    outputs = [*by_method.values(), *by_lambda.values()]
    kinds = list(dict.fromkeys(_EXPANSIONS[method] for method, _ in plan))
    answers = (answer_generator if isinstance(answer_generator, AnswerMemo)
               else AnswerMemo(answer_generator))

    def rank(item: QAItem, method: str, lam: float | None, expansion: _Expansion):
        """The item's record as it stands unanswered, and its answer call's messages or None."""
        ranked = RankedResult(hits=(), method=method, lam=lam)
        pair, cost, messages, error = None, CostEntry(), None, expansion.error()
        if error is None:
            try:
                ranked, pair = expansion.rank(corpus, config.k, method, lam)
                cost = expansion.cost()
                prompt = build_answer_prompt(item, ranked, corpus)
                messages = chat_messages(ANSWER_SYSTEM_PROMPT, prompt)
            except ContrastiveRetrievalError as exc:
                error = exc
        record = EvalRecord(
            item.id, method, ranked, predicted=ABSTAIN, correct=False, cost=cost,
            answer_cost=CostEntry(), lam=lam, pair=pair, dataset=dataset_name,
            error=error and _error_text(error))
        return record, messages

    for start in range(0, len(dataset), WINDOW):
        window = dataset[start:start + WINDOW]
        expansions = [{kind: kind(item, config) for kind in kinds} for item in window]
        flat = [expansion for per_item in expansions for expansion in per_item.values()]
        # 1. The generator calls, resent in rounds until every pair parses.
        requests = [request for expansion in flat for request in expansion.requests]
        complete_until_done(generator, requests, config.temperature, clock)
        # 2. The embeddings, each distinct text once.
        embedding = [(e, text) for e in flat if e.error() is None for text in e.texts()]
        texts = [text for _, text in embedding]
        fetched = _once(embedder, lambda text: embedder.embed(text), texts, texts, {}, clock)
        for (expansion, text), (vector, seconds) in zip(embedding, fetched):
            expansion.fetched[text] = vector
            expansion.embed_seconds += seconds
        # 3. The rankings, item by item in plan order, each record unanswered.
        pending = [(item, records, *rank(item, method, lam, per_item[_EXPANSIONS[method]]))
                   for item, per_item in zip(window, expansions)
                   for (method, lam), records in zip(plan, outputs)]
        # 4. The answers: at temperature 0, each distinct prompt once per
        # memo; at any other, every prompt, keyed by its position.
        messages = [m for *_, m in pending if m]
        keys, memo = [_memo_key(m) for m in messages], answers.replies
        if config.temperature != 0:
            keys, memo = range(len(messages)), {}
        answers.calls += len(set(keys) - memo.keys())
        held = len(memo)
        replies = iter(_once(answers.generator, lambda m: answers.generator.complete(
            m, config.temperature), messages, keys, memo, clock))
        # A hit is an answer in the memo that this batch did not store; a
        # repeat that shared a failed call is none.
        answers.hits += sum(key in memo for key in keys) - (len(memo) - held)
        for item, records, record, asked in pending:
            if asked:
                outcome, seconds = next(replies)
                if isinstance(outcome, ContrastiveRetrievalError):
                    record = replace(record, error=_error_text(outcome))
                else:
                    predicted = extract_answer(outcome.text, list(item.options))
                    record = replace(
                        record, predicted=predicted,
                        correct=predicted != ABSTAIN and predicted == item.answer_key,
                        answer_cost=_cost_of(1, output_tokens_of(outcome), seconds))
            records.append(record)
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
