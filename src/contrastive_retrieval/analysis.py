"""Post-hoc analyses over evaluation records.

Four analyses: retrieval-shift overlap between two methods' top-K sets,
accuracy as a function of the contrastive weight, per-method expansion cost,
and accuracy stratified by human quality ratings of the mimic hypothesis.
All are pure functions over immutable record lists.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass, field

from .backends import EmbedderBackend, GeneratorBackend
from .config import RunConfig
from .errors import EmptyInputError, NoQualifyingCasesError, UnknownItemIdError
from .hypotheses import QAItem
from .pipeline import EvalRecord, PairCache, accuracy, run_benchmark
from .retrieval import METHOD_CHR, Corpus

RATING_TIERS = ("Excellent", "Good", "Poor")
EXCLUDE_TIER = "exclude"


# ----------------------------------------------------------------------
# Retrieval shift
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class OverlapSlice:
    """Overlap aggregates for one dataset's qualifying cases."""

    name: str
    n: int
    zero_overlap_pct: float
    mean_overlap: float


@dataclass(frozen=True)
class OverlapReport:
    """Pooled overlap stats plus the per-dataset rows behind them."""

    n: int
    zero_overlap_pct: float
    mean_overlap: float
    per_case: tuple[tuple[str, float], ...]
    per_dataset: tuple[OverlapSlice, ...] = ()


def overlap_ratio(a: Iterable[str], b: Iterable[str], k: int) -> float:
    """|a intersect b| / k for two top-k id sets."""
    a, b = set(a), set(b)
    if k < 1:
        raise ValueError("k must be >= 1")
    if len(a) > k or len(b) > k:
        raise ValueError(f"id sets must have at most k={k} elements")
    return len(a & b) / k


def _slice_stats(name: str, ratios: Sequence[float]) -> OverlapSlice:
    zero = sum(1 for r in ratios if r == 0.0)
    return OverlapSlice(
        name=name,
        n=len(ratios),
        zero_overlap_pct=100.0 * zero / len(ratios),
        mean_overlap=sum(ratios) / len(ratios),
    )


def _by_item_id(records: Sequence[EvalRecord], label: str) -> dict[str, EvalRecord]:
    out: dict[str, EvalRecord] = {}
    for record in records:
        if record.item_id in out:
            raise ValueError(f"{label} records contain duplicate item id {record.item_id!r}")
        out[record.item_id] = record
    return out


def retrieval_shift(
    records_a: Sequence[EvalRecord], records_b: Sequence[EvalRecord], k: int
) -> OverlapReport:
    """Top-K overlap on cases where method A is correct and method B is not.

    The qualifying filter isolates questions method A wins outright; low
    overlap there means A reached different evidence rather than re-ranking
    the same pool. Raises NoQualifyingCases when the filter selects nothing.
    """
    by_a = _by_item_id(records_a, "A")
    by_b = _by_item_id(records_b, "B")
    if set(by_a) != set(by_b):
        raise ValueError("record lists must cover the same item ids")

    per_case: list[tuple[str, float]] = []
    per_dataset: dict[str, list[float]] = {}
    for item_id in sorted(by_a):
        rec_a, rec_b = by_a[item_id], by_b[item_id]
        if not (rec_a.correct and not rec_b.correct):
            continue
        ratio = overlap_ratio(rec_a.ranked.doc_ids(), rec_b.ranked.doc_ids(), k)
        per_case.append((item_id, ratio))
        per_dataset.setdefault(rec_a.dataset, []).append(ratio)

    if not per_case:
        raise NoQualifyingCasesError(
            "no cases where method A answered correctly and method B did not"
        )
    ratios = [ratio for _, ratio in per_case]
    pooled = _slice_stats("Combined", ratios)
    return OverlapReport(
        n=pooled.n,
        zero_overlap_pct=pooled.zero_overlap_pct,
        mean_overlap=pooled.mean_overlap,
        per_case=tuple(per_case),
        per_dataset=tuple(
            _slice_stats(name, per_dataset[name]) for name in sorted(per_dataset)
        ),
    )


# ----------------------------------------------------------------------
# Lambda sensitivity
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SweepReport:
    """Accuracy at each contrastive weight, plus flat baseline accuracies."""

    points: tuple[tuple[float, float], ...]
    baselines: dict[str, float] = field(default_factory=dict)
    records_by_lambda: dict[float, tuple[EvalRecord, ...]] = field(
        default_factory=dict, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        lams = [lam for lam, _ in self.points]
        if any(b <= a for a, b in zip(lams, lams[1:])):
            raise ValueError("sweep lambdas must be strictly increasing")


def sweep_grid(lambdas: Sequence[float]) -> list[float]:
    """The sweep's weights in ascending order.

    Raises ValueError unless there is at least one weight and the weights
    are nonnegative and distinct.
    """
    if not lambdas:
        raise ValueError("need at least one lambda")
    lams = sorted(lambdas)
    if any(lam < 0 for lam in lams):
        raise ValueError("lambdas must be nonnegative")
    if any(b <= a for a, b in zip(lams, lams[1:])):
        raise ValueError("lambdas must be distinct")
    return lams


def lambda_sweep(
    dataset: Sequence[QAItem],
    lambdas: Sequence[float],
    corpus: Corpus,
    config: RunConfig,
    *,
    generator: GeneratorBackend,
    answer_generator: GeneratorBackend,
    embedder: EmbedderBackend,
    pair_cache: PairCache | None = None,
    baselines: Mapping[str, float] | None = None,
    dataset_name: str = "default",
    clock: Callable[[], float] | None = None,
) -> SweepReport:
    """Run the contrastive benchmark at each lambda, reported in ascending order.

    The sweep is item-major: each item is ranked and answered at every
    lambda before the next item starts, so the corpus scores all weights
    from the item's two memoized products. Records at each lambda are
    sorted by item id. Hypothesis pairs are generated and embedded at most
    once and shared across every lambda, so the sweep isolates the scoring
    weight from generation sampling noise. ``pair_cache`` supplies pairs
    generated earlier: ``chr-rag run`` passes the one cache its chr and
    h_plus_only runs filled, so the sweep ranks with the same pairs and
    generates none. Without it the sweep keeps its own.
    """
    lams = sweep_grid(lambdas)
    if not dataset:
        raise EmptyInputError("dataset must contain at least one item")

    if pair_cache is None:
        pair_cache = {}
    configs = [config.replace(lam=lam) for lam in lams]
    by_lambda: dict[float, list[EvalRecord]] = {lam: [] for lam in lams}
    for item in dataset:
        for lam, lam_config in zip(lams, configs):
            records, _ = run_benchmark(
                [item],
                METHOD_CHR,
                corpus,
                lam_config,
                generator=generator,
                answer_generator=answer_generator,
                embedder=embedder,
                pair_cache=pair_cache,
                dataset_name=dataset_name,
                clock=clock,
            )
            by_lambda[lam].extend(records)
    records_by_lambda = {
        lam: tuple(sorted(records, key=lambda r: r.item_id))
        for lam, records in by_lambda.items()
    }
    points = [(lam, accuracy(records_by_lambda[lam])) for lam in lams]
    return SweepReport(
        points=tuple(points),
        baselines=dict(baselines or {}),
        records_by_lambda=records_by_lambda,
    )


# ----------------------------------------------------------------------
# Cost accounting
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CostRow:
    """Mean expansion cost for one method; reduction is vs the reference."""

    llm_calls_mean: float
    output_tokens_mean: float
    token_reduction: float | None


@dataclass(frozen=True)
class CostReport:
    per_method: dict[str, CostRow]
    reference: str


def cost_report(records: Sequence[EvalRecord]) -> CostReport:
    """Per-method means of expansion-stage cost, with token reduction ratios.

    The reference is the most token-expensive method present; every other
    method's reduction is reference_mean / method_mean, so the reference's
    own reduction is exactly 1.0. Methods that spend no tokens get None
    (rendered as N/A).
    """
    if not records:
        raise EmptyInputError("cost report over zero records is undefined")
    grouped: dict[str, list[EvalRecord]] = {}
    for record in records:
        grouped.setdefault(record.method, []).append(record)

    means: dict[str, tuple[float, float]] = {}
    for method, recs in grouped.items():
        calls = sum(r.cost.llm_calls for r in recs) / len(recs)
        tokens = sum(r.cost.output_tokens for r in recs) / len(recs)
        means[method] = (calls, tokens)

    reference = max(means, key=lambda m: (means[m][1], m))
    ref_tokens = means[reference][1]
    per_method: dict[str, CostRow] = {}
    for method in sorted(means):
        calls, tokens = means[method]
        reduction = ref_tokens / tokens if tokens > 0 else None
        per_method[method] = CostRow(
            llm_calls_mean=calls, output_tokens_mean=tokens, token_reduction=reduction
        )
    return CostReport(per_method=per_method, reference=reference)


# ----------------------------------------------------------------------
# Stratified accuracy
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class TierStats:
    n: int
    correct: int
    accuracy: float


def stratified_accuracy(
    records: Sequence[EvalRecord],
    ratings: Mapping[str, str],
    exclusions: Iterable[str] = (),
) -> dict[str, TierStats]:
    """Accuracy per quality tier, after dropping excluded items.

    Every rated or excluded id must exist in the records; tiers with no
    remaining items are absent from the result.
    """
    by_id = _by_item_id(records, "input")
    exclusions = set(exclusions)
    for item_id in sorted(set(ratings) | exclusions):
        if item_id not in by_id:
            raise UnknownItemIdError(f"rated item {item_id!r} has no record")

    grouped: dict[str, list[EvalRecord]] = {}
    for item_id, tier in ratings.items():
        if tier not in RATING_TIERS:
            raise ValueError(f"unknown rating tier {tier!r} for item {item_id!r}")
        if item_id in exclusions:
            continue
        grouped.setdefault(tier, []).append(by_id[item_id])

    return {
        tier: TierStats(
            n=len(recs),
            correct=sum(1 for r in recs if r.correct),
            accuracy=accuracy(recs),
        )
        for tier in RATING_TIERS
        if (recs := grouped.get(tier))
    }
