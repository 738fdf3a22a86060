"""hopkit: two-step sparse retrieval and dataset construction for 2-hop MCQ."""

__version__ = "0.1.0"

from .corpus import (  # noqa: F401
    Corpus,
    TokenBag,
    clean_filter,
    load_corpus,
    tokenize_normalize,
)
from .errors import HopkitError  # noqa: F401
from .index import InvertedIndex, SearchHit, build_index, search  # noqa: F401
from .qa import MCQuestion, answer, eval_accuracy, ir_score, overlap_stats  # noqa: F401
from .retrieval import (  # noqa: F401
    RetrievalParams,
    RetrievedPair,
    intermediate_diff,
    query_tokens,
    recall_report,
    single_step,
    two_step,
)
