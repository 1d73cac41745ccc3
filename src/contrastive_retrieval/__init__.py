"""Contrastive dense retrieval with a target/mimic hypothesis pair.

One generator call produces a target hypothesis (what the correct answer
should look like) and a mimic hypothesis (the closest wrong alternative).
Documents are ranked by similarity to the target minus a weighted
similarity to the mimic, which suppresses look-alike evidence that plain
similarity search prefers. The package bundles the scoring engine, four
baseline retrieval methods, a multiple-choice evaluation harness, and the
overlap/sweep/cost/strata analyses, all runnable offline against seeded
deterministic mock backends.
"""

from .analysis import (
    CostReport,
    OverlapReport,
    SweepReport,
    TierStats,
    cost_report,
    lambda_sweep,
    overlap_ratio,
    retrieval_shift,
    stratified_accuracy,
)
from .backends import (
    GenerationResult,
    HttpEmbedderBackend,
    HttpGeneratorBackend,
    MockEmbedderBackend,
    MockGeneratorBackend,
)
from .config import RunConfig, load_config
from .costs import CostEntry
from .errors import ContrastiveRetrievalError
from .hypotheses import (
    HypothesisPair,
    QAItem,
    embed_pair,
    generate_pair,
    parse_pair,
    render_prompt,
)
from .pipeline import (
    EvalRecord,
    accuracy,
    build_answer_prompt,
    extract_answer,
    run_benchmark,
)
from .retrieval import (
    Corpus,
    RankedResult,
    retrieve_chr,
    retrieve_h_plus_only,
    retrieve_hyde,
    retrieve_query2doc,
    retrieve_standard,
    shifted_query,
)
from .vectors import mean_embedding, normalize

__version__ = "0.1.0"

__all__ = [
    "ContrastiveRetrievalError",
    "CostEntry",
    "CostReport",
    "Corpus",
    "EvalRecord",
    "GenerationResult",
    "HttpEmbedderBackend",
    "HttpGeneratorBackend",
    "HypothesisPair",
    "MockEmbedderBackend",
    "MockGeneratorBackend",
    "OverlapReport",
    "QAItem",
    "RankedResult",
    "RunConfig",
    "SweepReport",
    "TierStats",
    "accuracy",
    "build_answer_prompt",
    "cost_report",
    "embed_pair",
    "extract_answer",
    "generate_pair",
    "lambda_sweep",
    "load_config",
    "mean_embedding",
    "normalize",
    "overlap_ratio",
    "parse_pair",
    "render_prompt",
    "retrieval_shift",
    "retrieve_chr",
    "retrieve_h_plus_only",
    "retrieve_hyde",
    "retrieve_query2doc",
    "retrieve_standard",
    "run_benchmark",
    "shifted_query",
    "stratified_accuracy",
    "__version__",
]
