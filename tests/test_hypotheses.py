from __future__ import annotations

import json

import numpy as np
import pytest

from contrastive_retrieval.backends import MockEmbedderBackend
from contrastive_retrieval.errors import (
    BackendUnavailableError,
    InvalidAnswerKeyError,
    ParseFailureError,
    TooFewOptionsError,
)
from contrastive_retrieval.hypotheses import (
    HypothesisPair,
    QAItem,
    embed_pair,
    generate_pair,
    parse_pair,
    render_hypo_doc_prompt,
    render_prompt,
    render_pseudo_doc_prompt,
)
from helpers import ScriptedGeneratorBackend, two_option_item

VALID_JSON = '{"H_plus": "target text", "H_minus": "mimic text"}'


def test_qa_item_requires_contiguous_letters():
    with pytest.raises(InvalidAnswerKeyError):
        QAItem(id="x", stem="s", options={"A": "a", "C": "c"}, answer_key="A")


def test_qa_item_requires_answer_among_options():
    with pytest.raises(InvalidAnswerKeyError):
        QAItem(id="x", stem="s", options={"A": "a", "B": "b"}, answer_key="E")


def test_qa_item_options_block_is_sorted_lines():
    item = QAItem(id="x", stem="s", options={"B": "bee", "A": "ay"}, answer_key=None)
    assert item.options_block() == "(A) ay\n(B) bee"


def test_pair_invariants():
    with pytest.raises(ValueError):
        HypothesisPair(h_plus="", h_minus="m")
    with pytest.raises(ValueError):
        HypothesisPair(h_plus="t", h_minus="", provenance="llm")
    with pytest.raises(ValueError):
        HypothesisPair(h_plus="t", h_minus="m", provenance="fallback")
    with pytest.raises(ValueError):
        HypothesisPair(h_plus="t", h_minus="m", provenance="mystery")
    fallback = HypothesisPair(h_plus="t", h_minus="", provenance="fallback")
    assert fallback.h_minus == ""


def test_render_prompt_contains_required_parts():
    item = two_option_item()
    system, user = render_prompt(item)
    assert "strict JSON" in system
    assert "two conflicting hypotheses" in user
    assert f"Question: {item.stem}" in user
    assert "(A) first explanation" in user
    assert "(B) second explanation" in user
    assert '"H_plus"' in user and '"H_minus"' in user


def test_render_prompt_rejects_single_option():
    item = QAItem(id="x", stem="s", options={"A": "only"}, answer_key=None)
    with pytest.raises(TooFewOptionsError):
        render_prompt(item)
    with pytest.raises(TooFewOptionsError):
        render_hypo_doc_prompt(item, draft=1, total=1)
    with pytest.raises(TooFewOptionsError):
        render_pseudo_doc_prompt(item)


def test_render_expansion_prompts_have_distinct_markers():
    item = two_option_item()
    _, hypo = render_hypo_doc_prompt(item, draft=1, total=1)
    _, pseudo = render_pseudo_doc_prompt(item)
    assert "one hypothetical evidence passage" in hypo
    assert "pseudo-document" in pseudo


def test_render_hypo_doc_prompt_drafts_differ():
    item = two_option_item()
    _, first = render_hypo_doc_prompt(item, draft=1, total=8)
    _, second = render_hypo_doc_prompt(item, draft=2, total=8)
    assert first != second
    assert "Draft 1 of 8" in first


def test_parse_pair_clean_json():
    pair = parse_pair(VALID_JSON)
    assert pair.h_plus == "target text"
    assert pair.h_minus == "mimic text"
    assert pair.provenance == "llm"


@pytest.mark.parametrize(
    "raw",
    [
        f"Here is the analysis you asked for.\n{VALID_JSON}\nHope that helps!",
        f"```json\n{VALID_JSON}\n```",
        f"```\n{VALID_JSON}\n```",
        f"   \n\t {VALID_JSON}   ",
        '{"H_minus": "mimic text", "H_plus": "target text", "confidence": 0.9}',
        '{"H_plus": "  target text  ", "H_minus": "\\tmimic text\\n"}',
    ],
)
def test_parse_pair_tolerates_wrapping(raw):
    pair = parse_pair(raw)
    assert pair.h_plus == "target text"
    assert pair.h_minus == "mimic text"


def test_parse_pair_skips_undecodable_braces():
    raw = "weights {not json} then " + VALID_JSON
    assert parse_pair(raw).h_plus == "target text"


def test_parse_pair_handles_braces_inside_values():
    raw = json.dumps({"H_plus": "uses {braces} inside", "H_minus": "mimic"})
    assert parse_pair(raw).h_plus == "uses {braces} inside"


@pytest.mark.parametrize(
    "raw",
    [
        "",
        "no json here at all",
        '{"H_plus": "only the target"}',
        '{"H_plus": "", "H_minus": "mimic"}',
        '{"H_plus": "target", "H_minus": "   "}',
        '{"H_plus": 3, "H_minus": "mimic"}',
        '{"H_plus": "target", "H_minus": null}',
        '["H_plus", "H_minus"]',
        '{"H_plus": "target", "H_minus": "mimic"',
    ],
)
def test_parse_pair_failures(raw):
    with pytest.raises(ParseFailureError):
        parse_pair(raw)


def test_generate_pair_first_try():
    backend = ScriptedGeneratorBackend([VALID_JSON], output_tokens=[17])
    pair, cost = generate_pair(two_option_item(), backend)
    assert pair.provenance == "llm"
    assert cost.llm_calls == 1
    assert cost.output_tokens == 17


def test_generate_pair_retries_until_valid():
    backend = ScriptedGeneratorBackend(["garbage", VALID_JSON])
    pair, cost = generate_pair(two_option_item(), backend, max_retries=2)
    assert pair.provenance == "llm"
    assert cost.llm_calls == 2
    assert backend.calls == 2


def test_generate_pair_falls_back_after_exhausting_retries():
    backend = ScriptedGeneratorBackend(["nope", "still nope", "  final raw text  "])
    pair, cost = generate_pair(two_option_item(), backend, max_retries=2)
    assert backend.calls == 3
    assert cost.llm_calls == 3
    assert pair.provenance == "fallback"
    assert pair.h_plus == "final raw text"
    assert pair.h_minus == ""


def test_generate_pair_fallback_placeholder_for_blank_output():
    backend = ScriptedGeneratorBackend(["   "])
    pair, _ = generate_pair(two_option_item(), backend, max_retries=0)
    assert pair.provenance == "fallback"
    assert pair.h_plus


def test_generate_pair_estimates_tokens_when_unreported():
    raw = "x" * 10
    backend = ScriptedGeneratorBackend([raw])
    _, cost = generate_pair(two_option_item(), backend, max_retries=0)
    assert cost.output_tokens == 3  # ceil(10 / 4)


def test_generate_pair_propagates_backend_unavailable():
    class Dead:
        calls = 0

        def complete(self, messages, temperature=0.0):
            raise BackendUnavailableError("down")

    with pytest.raises(BackendUnavailableError):
        generate_pair(two_option_item(), Dead())


def test_embed_pair_attaches_unit_embeddings():
    embedder = MockEmbedderBackend(dimension=16, seed=0)
    pair = embed_pair(parse_pair(VALID_JSON), embedder)
    assert pair.h_plus_emb is not None and pair.h_minus_emb is not None
    assert float(np.linalg.norm(pair.h_plus_emb)) == pytest.approx(1.0, abs=1e-12)
    assert float(np.linalg.norm(pair.h_minus_emb)) == pytest.approx(1.0, abs=1e-12)


def test_embed_pair_skips_mimic_for_fallback():
    embedder = MockEmbedderBackend(dimension=16, seed=0)
    fallback = HypothesisPair(h_plus="raw text", h_minus="", provenance="fallback")
    pair = embed_pair(fallback, embedder)
    assert pair.h_plus_emb is not None
    assert pair.h_minus_emb is None
