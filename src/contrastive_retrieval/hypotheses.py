"""Contrastive hypothesis generation.

Renders the fixed target/mimic prompt, invokes a generator backend once per
attempt, and parses the structured pair out of the response. Unparseable
output is retried a bounded number of times and then degraded to a fallback
pair (raw text as the target hypothesis, no mimic), which downstream scoring
treats as target-only retrieval.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field, replace

import numpy as np

from .backends import (
    EmbedderBackend,
    GenerationResult,
    GeneratorBackend,
    chat_messages,
    complete_until_done,
    embed_each,
    output_tokens_of,
)
from .config import DEFAULT_MAX_RETRIES
from .costs import CostEntry
from .errors import (
    ContrastiveRetrievalError,
    InvalidAnswerKeyError,
    ParseFailureError,
    TooFewOptionsError,
)
from .vectors import normalize

PAIR_SYSTEM_PROMPT = (
    "You are a medical specialist assisting with complex clinical decision-making. "
    "Your goal is to generate precise diagnostic hypotheses to guide an evidence-based "
    "search engine. Ensure all outputs are in strict JSON format."
)

PAIR_USER_TEMPLATE = """\
Analyze the clinical scenario below and generate two conflicting hypotheses for retrieval:

1. H_plus (Target Hypothesis): Describe the pathophysiology, distinct symptoms, or \
gold-standard treatment for the CORRECT diagnosis. Focus on specific details that \
differentiate it from other conditions.

2. H_minus (Mimic Hypothesis): Describe the primary differential diagnosis or closest \
mimic that is INCORRECT. Explain why a clinician might mistakenly consider this \
condition due to overlapping symptoms, but specify the subtle features that rule it out.

Question: {question}
Options:
{options}

Output Requirement:
Return ONLY a JSON object with keys "H_plus" and "H_minus".
{{"H_plus": "...", "H_minus": "..."}}"""

# Single-passage variant of the target-hypothesis instruction, used to sample
# hypothetical documents for embedding-averaging retrieval.
HYPO_DOC_SYSTEM_PROMPT = (
    "You are a medical specialist assisting with complex clinical decision-making. "
    "Your goal is to write concise hypothetical evidence passages for an evidence-based "
    "search engine."
)

HYPO_DOC_USER_TEMPLATE = """\
Analyze the clinical scenario below and write one hypothetical evidence passage: \
describe the pathophysiology, distinct symptoms, or gold-standard treatment for the \
CORRECT diagnosis. Focus on specific details that differentiate it from other conditions.

Question: {question}
Options:
{options}

Return ONLY the passage text."""

PSEUDO_DOC_USER_TEMPLATE = """\
Write a short pseudo-document that answers the question below, in the style of a \
reference text passage.

Question: {question}
Options:
{options}

Return ONLY the passage text."""


@dataclass(frozen=True)
class QAItem:
    """A multiple-choice question: stem, lettered options, optional gold letter."""

    id: str
    stem: str
    options: dict[str, str]
    answer_key: str | None = None

    def __post_init__(self) -> None:
        letters = list(self.options)
        expected = [chr(ord("A") + i) for i in range(len(letters))]
        if sorted(letters) != expected:
            raise InvalidAnswerKeyError(
                f"item {self.id!r}: option letters {letters} are not contiguous from 'A'"
            )
        if self.answer_key is not None and self.answer_key not in self.options:
            raise InvalidAnswerKeyError(
                f"item {self.id!r}: answer key {self.answer_key!r} not among options {letters}"
            )

    def options_block(self) -> str:
        return "\n".join(f"({letter}) {text}" for letter, text in sorted(self.options.items()))


@dataclass(frozen=True)
class HypothesisPair:
    """Target and mimic hypothesis texts, plus their embeddings once computed.

    ``provenance`` is one of ``llm`` (parsed from a generator response),
    ``fallback`` (raw generator text, no mimic) or ``injected`` (supplied
    directly, e.g. in synthetic-geometry tests).
    """

    h_plus: str
    h_minus: str
    h_plus_emb: np.ndarray | None = field(default=None, repr=False, compare=False)
    h_minus_emb: np.ndarray | None = field(default=None, repr=False, compare=False)
    provenance: str = "llm"

    def __post_init__(self) -> None:
        if not self.h_plus:
            raise ValueError("h_plus must be nonempty")
        if self.provenance not in ("llm", "fallback", "injected"):
            raise ValueError(f"unknown provenance {self.provenance!r}")
        if (self.provenance == "fallback") != (self.h_minus == ""):
            raise ValueError("fallback pairs are exactly the pairs with an empty mimic")


def _render(item: QAItem, template: str) -> str:
    if len(item.options) < 2:
        raise TooFewOptionsError(f"item {item.id!r} has {len(item.options)} option(s), need >= 2")
    return template.format(question=item.stem, options=item.options_block())


def render_prompt(item: QAItem) -> tuple[str, str]:
    """Render the (system, user) texts of the hypothesis-pair prompt."""
    return PAIR_SYSTEM_PROMPT, _render(item, PAIR_USER_TEMPLATE)


def render_hypo_doc_prompt(
    item: QAItem, draft: int | None = None, total: int | None = None
) -> tuple[str, str]:
    """Render the single hypothetical-passage prompt (embedding-averaging methods).

    Multi-sample callers number each draft; the numbering line keeps repeated
    samples distinct even under temperature-0 or deterministic backends.
    """
    user = _render(item, HYPO_DOC_USER_TEMPLATE)
    if draft is not None:
        user += f"\n\nDraft {draft} of {total or draft}: vary the wording and emphasis."
    return HYPO_DOC_SYSTEM_PROMPT, user


def render_pseudo_doc_prompt(item: QAItem) -> tuple[str, str]:
    """Render the pseudo-document prompt (query-concatenation method)."""
    return HYPO_DOC_SYSTEM_PROMPT, _render(item, PSEUDO_DOC_USER_TEMPLATE)


_BRACE_RE = re.compile(r"\{")


def parse_pair(raw: str) -> HypothesisPair:
    """Extract the first JSON object carrying nonempty H_plus/H_minus strings.

    Tolerates surrounding prose, code fences and whitespace: scanning starts
    at each ``{`` until one decodes. A pair without a usable mimic is a parse
    failure (the retry either recovers a full pair or degrades to fallback).
    """
    decoder = json.JSONDecoder()
    for match in _BRACE_RE.finditer(raw):
        try:
            obj, _ = decoder.raw_decode(raw, match.start())
        except ValueError:
            continue
        if not isinstance(obj, dict):
            continue
        h_plus = obj.get("H_plus")
        h_minus = obj.get("H_minus")
        if not isinstance(h_plus, str) or not h_plus.strip():
            continue
        if not isinstance(h_minus, str) or not h_minus.strip():
            continue
        return HypothesisPair(h_plus=h_plus.strip(), h_minus=h_minus.strip(), provenance="llm")
    raise ParseFailureError("no JSON object with nonempty H_plus/H_minus strings found")


class PairAttempts:
    """One item's pair prompt, for ``complete_until_done`` to send until ``take`` is done.

    A reply that parses, or the error that stopped a call, settles
    ``outcome``; so does the last of ``max_retries + 1`` replies, whose raw
    text becomes a fallback pair instead of failing the question. ``calls``,
    ``tokens`` and ``seconds`` add up the replies.
    """

    def __init__(self, item: QAItem, max_retries: int = DEFAULT_MAX_RETRIES) -> None:
        self.messages = chat_messages(*render_prompt(item))
        self.outcome: HypothesisPair | ContrastiveRetrievalError | None = None
        self.calls = self.tokens = 0
        self.seconds = 0.0
        self._max_calls = max_retries + 1

    def take(self, reply: GenerationResult | ContrastiveRetrievalError, seconds: float) -> bool:
        self.seconds += seconds
        if isinstance(reply, ContrastiveRetrievalError):
            self.outcome = reply
            return True
        self.calls += 1
        self.tokens += output_tokens_of(reply)
        try:
            self.outcome = parse_pair(reply.text)
        except ParseFailureError:
            if self.calls < self._max_calls:
                return False
            fallback_text = reply.text.strip() or "(no usable generator output)"
            self.outcome = HypothesisPair(h_plus=fallback_text, h_minus="", provenance="fallback")
        return True


def generate_pair(
    item: QAItem,
    backend: GeneratorBackend,
    max_retries: int = DEFAULT_MAX_RETRIES,
    temperature: float = 0.0,
) -> tuple[HypothesisPair, CostEntry]:
    """Generate a hypothesis pair with one backend call per attempt.

    A batch of one ``PairAttempts``: after ``max_retries`` consecutive parse
    failures the last raw response becomes a fallback pair instead of
    failing the question. Transport-level errors (BackendUnavailableError)
    propagate.
    """
    attempts = PairAttempts(item, max_retries)
    complete_until_done(backend, [attempts], temperature)
    if isinstance(attempts.outcome, ContrastiveRetrievalError):
        raise attempts.outcome
    return attempts.outcome, CostEntry(llm_calls=attempts.calls, output_tokens=attempts.tokens)


def embed_pair(pair: HypothesisPair, embedder: EmbedderBackend) -> HypothesisPair:
    """Return a copy of ``pair`` with unit-norm embeddings attached.

    A fallback pair (empty mimic) gets no mimic embedding, so contrastive
    scoring degrades to target-only scoring.
    """
    texts = [pair.h_plus, pair.h_minus] if pair.h_minus else [pair.h_plus]
    embs = [normalize(vec) for vec in embed_each(embedder, texts)]
    return replace(pair, h_plus_emb=embs[0], h_minus_emb=embs[1] if pair.h_minus else None)
