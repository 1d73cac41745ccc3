"""Cost bookkeeping shared by the expansion and answering stages."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CostEntry:
    """Backend usage for one stage of one question.

    ``output_tokens`` is backend-reported when available, otherwise estimated
    as ceil(characters / 4) of the generated text. ``wall_ms`` is zero until
    stamped. ``evaluate`` stamps an expansion entry with the sum of the
    wall times of the record's own expansion calls (generator calls, parse
    retries included, and embeddings; a pair's, for every record ranked by
    it), and an answer entry with that of the record's own answer call;
    neither counts the time the record waited for the rest of its window's
    batch. An embedding that repeats a text of its window's batch, and an
    answer the memo served, are not sent again and add no seconds.
    Batched calls overlap, so a summary's ``wall_ms_total`` can exceed the
    batches' wall time, but it counts each call once.
    """

    llm_calls: int = 0
    output_tokens: int = 0
    wall_ms: int = 0

    def __post_init__(self) -> None:
        if self.llm_calls < 0 or self.output_tokens < 0 or self.wall_ms < 0:
            raise ValueError("cost fields must be nonnegative")
        if self.llm_calls == 0 and self.output_tokens != 0:
            raise ValueError("zero calls cannot produce output tokens")
