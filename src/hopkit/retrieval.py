"""Single-step and two-step retrieval over an inverted index.

Two-step retrieval widens the single query-overlap search by following
"bridge" tokens: new tokens a first-hop sentence introduces are used to
reach second-hop sentences that connect back to tokens the first hop did
not cover.  All functions are pure over an immutable index.  The only
state they share is the memos the index and the tokenizer fill on first
use, and a Memo needs no lock, so per-question work can run in parallel.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .corpus import TokenBag, stem_set, tokenize_normalize
from .index import InvertedIndex, SearchHit, search


@dataclass(frozen=True)
class RetrievalParams:
    """k: breadth of step 1; l: per-first-hop fan-out; m: output size."""

    k: int = 20
    l: int = 4
    m: int = 10

    def __post_init__(self) -> None:
        if self.k < 1 or self.l < 1 or self.m < 1:
            raise ValueError(f"retrieval params must be >= 1, got {self}")


@dataclass(frozen=True)
class RetrievedPair:
    f1: int
    f2: int
    score1: float
    score2: float

    @property
    def pair_score(self) -> float:
        return self.score1 + self.score2


def query_tokens(q: str, a: str) -> TokenBag:
    """Normalized tokens of question and answer combined, counts summed."""
    return tokenize_normalize(q + " " + a)


def single_step(
    index: InvertedIndex,
    q: str,
    a: str,
    m: int,
    negation_filter: frozenset[str] | None = None,
) -> list[SearchHit]:
    """Top-m hits for the combined query that overlap both q and a.

    The query is the union of the two stem sets: search reads only a
    query's distinct terms, and no token spans the space query_tokens joins
    q and a with, so this is set(query_tokens(q, a)).
    """
    q_stems, a_stems = stem_set(q), stem_set(a)
    return search(index, q_stems | a_stems, m, must_contain_any=(q_stems, a_stems),
                  negation_filter=negation_filter)


def intermediate_diff(
    query: frozenset[str], f1: str
) -> tuple[frozenset[str], frozenset[str]]:
    """Key-set differences (query minus sentence, sentence minus query) of
    a query's stems and a first-hop sentence's text, tokenized here."""
    f_keys = frozenset(tokenize_normalize(f1))
    return query - f_keys, f_keys - query


def two_step(
    index: InvertedIndex,
    q: str,
    a: str,
    params: RetrievalParams = RetrievalParams(),
    negation_filter: frozenset[str] | None = None,
) -> tuple[list[int], list[RetrievedPair]]:
    """Two-step retrieval; returns (unique fact ids, all pairs in order).

    1. take the top-k hits for the combined q+a query;
    2. for each first hop with both set differences non-empty, take the
       top-l sentences containing at least one uncovered query token and
       one newly introduced token (the first hop itself can never match:
       it contains no uncovered query token);
    3. sort pairs by summed score (ties by ascending ids) and emit unique
       fact ids in pair order, first hop first, until m facts.

    No second hop needs checking for a stem shared with q or a: it holds
    an uncovered query token, which is one.
    """
    # Tokenized here, not through stem_set's memo: each question asks once.
    query_stems = frozenset(query_tokens(q, a))
    first_hops = search(index, query_stems, params.k, negation_filter=negation_filter)
    pairs: list[RetrievedPair] = []
    for hop in first_hops:
        q_minus, f_minus = intermediate_diff(query_stems, index.corpus[hop.sentence_id])
        if not q_minus or not f_minus:
            continue
        second_hops = search(
            index,
            q_minus | f_minus,
            params.l,
            must_contain_any=(q_minus, f_minus),
            negation_filter=negation_filter,
        )
        pairs.extend(
            RetrievedPair(hop.sentence_id, h2.sentence_id, hop.score, h2.score)
            for h2 in second_hops
        )
    pairs.sort(key=lambda p: (-p.pair_score, p.f1, p.f2))
    facts: list[int] = []
    seen: set[int] = set()
    for pair in pairs:
        for fid in (pair.f1, pair.f2):
            if fid not in seen:
                seen.add(fid)
                facts.append(fid)
                if len(facts) == params.m:
                    return facts, pairs
    return facts, pairs


# ---------------------------------------------------------------------------
# Fact-pair recall evaluation


@dataclass
class RecallReport:
    m: int
    n_questions: int = 0
    n_resolvable: int = 0
    n_unresolvable: int = 0
    both_count: int = 0
    either_count: int = 0
    rank_sum: int = 0
    rank_count: int = 0
    per_question: list[dict] = field(default_factory=list)

    @property
    def both_found(self) -> float:
        return self.both_count / self.n_resolvable if self.n_resolvable else 0.0

    @property
    def either_found(self) -> float:
        return self.either_count / self.n_resolvable if self.n_resolvable else 0.0

    @property
    def mean_rank(self) -> float:
        return self.rank_sum / self.rank_count if self.rank_count else 0.0

    def to_tsv(self) -> str:
        rows = [
            ("both_found", self.m, self.both_found, self.both_count, self.n_resolvable),
            ("either_found", self.m, self.either_found, self.either_count, self.n_resolvable),
            ("mean_rank", self.m, self.mean_rank, self.rank_sum, self.rank_count),
            ("unresolvable", self.m, float(self.n_unresolvable), self.n_unresolvable, self.n_questions),
        ]
        lines = ["metric\tm\tvalue\tnumerator\tdenominator"]
        lines.extend(
            f"{name}\t{m}\t{value:.9f}\t{num}\t{den}" for name, m, value, num, den in rows
        )
        return "\n".join(lines) + "\n"


def recall_report(
    index: InvertedIndex,
    dataset,
    params: RetrievalParams = RetrievalParams(),
    mode: str = "two",
) -> RecallReport:
    """Fraction of questions whose annotated fact pair appears in the
    retrieved facts.  Gold facts resolve by exact normalized text; questions
    with an unresolvable fact are tallied and excluded from denominators.
    """
    if mode not in ("single", "two"):
        raise ValueError(f"mode must be 'single' or 'two', got {mode!r}")
    report = RecallReport(m=params.m)
    for question in sorted(dataset, key=lambda qq: qq.id):
        report.n_questions += 1
        gold1 = index.corpus.id_of_text(question.fact1) if question.fact1 else None
        gold2 = index.corpus.id_of_text(question.fact2) if question.fact2 else None
        entry = {
            "id": question.id,
            "mode": mode,
            "gold": {"fact1": gold1, "fact2": gold2},
        }
        if gold1 is None or gold2 is None:
            report.n_unresolvable += 1
            entry["resolvable"] = False
            report.per_question.append(entry)
            continue
        report.n_resolvable += 1
        answer = question.answer_text
        if mode == "single":
            retrieved = [h.sentence_id for h in single_step(index, question.stem, answer, params.m)]
        else:
            retrieved, _ = two_step(index, question.stem, answer, params)
        found = [gold in retrieved for gold in (gold1, gold2)]
        report.both_count += all(found)
        report.either_count += any(found)
        for gold in (gold1, gold2):
            if gold in retrieved:
                report.rank_sum += retrieved.index(gold) + 1
                report.rank_count += 1
        entry.update(
            resolvable=True,
            retrieved=retrieved,
            found={"fact1": found[0], "fact2": found[1]},
        )
        report.per_question.append(entry)
    return report
