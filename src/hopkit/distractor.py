"""Adversarial distractor generation for 8-way question assembly.

Candidates are (text, source question id) pairs: correct answers drawn
from the most dissimilar questions of the same fold, length-filtered,
pruned by a baseline scorer, then ranked by how many scorer models prefer
them over the correct answer.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace

from .corpus import stem_set
from .errors import HopkitError, InsufficientCandidatesError
from .qa import MAX_WAYS, Choice, MCQuestion, Scorer, checked_score


@dataclass(frozen=True)
class AdversarialConfig:
    pool_dissimilar_n: int = 300
    token_slack: int = 2
    char_ratio_slack: float = 0.5
    target_ways: int = 8

    def __post_init__(self) -> None:
        for name in ("pool_dissimilar_n", "token_slack", "char_ratio_slack", "target_ways"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be finite and positive, got {value}")
        if self.target_ways > MAX_WAYS:
            raise ValueError(f"target_ways must be at most {MAX_WAYS}, got {self.target_ways}")


@dataclass
class DistractorCandidate:
    text: str
    source_question_id: str
    per_model: list[float]
    fooled_count: int
    margin_sum: float


def _fact_stems(question: MCQuestion) -> frozenset[str]:
    """Stems of both facts: no token spans the joining space, so this is
    stem_set(fact1) | stem_set(fact2), memoised as one text."""
    if not question.fact1 or not question.fact2:
        raise HopkitError(f"question {question.id} is missing fact annotations")
    return stem_set(f"{question.fact1} {question.fact2}")


def question_similarity(qa: MCQuestion, qb: MCQuestion) -> int:
    """Distinct stems shared between the two questions' source-fact pairs.

    Lower is more dissimilar; dissimilarity ranking sorts ascending with
    ties broken by question id.
    """
    return len(_fact_stems(qa) & _fact_stems(qb))


def rank_by_dissimilarity(
    question: MCQuestion, fold_questions
) -> list[MCQuestion]:
    """Other questions of the fold, most dissimilar first."""
    others = [q for q in fold_questions if q.id != question.id]
    return sorted(others, key=lambda q: (question_similarity(question, q), q.id))


def candidate_pool_with_sources(
    question: MCQuestion, fold_questions, config: AdversarialConfig = AdversarialConfig()
) -> list[tuple[str, str]]:
    """(text, source question id) pairs surviving the pool filters."""
    answer = question.answer_text
    ranked = rank_by_dissimilarity(question, fold_questions)[: config.pool_dissimilar_n]
    answer_tokens = len(answer.split())
    char_lo = len(answer) * (1.0 - config.char_ratio_slack)
    char_hi = len(answer) * (1.0 + config.char_ratio_slack)
    taken = {choice.text.casefold() for choice in question.choices}
    pool: list[tuple[str, str]] = []
    for other in ranked:
        text = other.answer_text
        if abs(len(text.split()) - answer_tokens) > config.token_slack:
            continue
        if not char_lo <= len(text) <= char_hi:
            continue
        key = text.casefold()
        if key in taken:
            continue
        taken.add(key)
        pool.append((text, other.id))
    if len(pool) < config.target_ways - 1:
        raise InsufficientCandidatesError(
            f"question {question.id}: only {len(pool)} pool candidates for "
            f"{config.target_ways}-way assembly; relax token/char slack or "
            f"widen pool_dissimilar_n"
        )
    return pool


def prune_by_scorer(
    scorer: Scorer, question: MCQuestion, candidates: list[tuple[str, str]], keep_top: int
) -> list[tuple[str, str]]:
    """Keep the most distracting (text, source) pairs: highest scorer score
    against the question, ties by text.  Every candidate is scored, so a
    non-finite score raises even for a candidate that would be pruned away."""
    scored = sorted(
        candidates, key=lambda pair: (-checked_score(scorer, question, pair[0]), pair[0])
    )
    return scored[:keep_top]


def multi_adversary_rank(
    scorers, question: MCQuestion, candidates: list[tuple[str, str]]
) -> list[DistractorCandidate]:
    """Sort (text, source) pairs by (models fooled desc, score-margin sum
    desc, text).

    A model is fooled when it scores the distractor strictly above the
    correct answer.  Scores are used raw; any per-model normalization is
    the scorer's own business.
    """
    scorers = list(scorers)
    if not scorers:
        raise HopkitError("multi_adversary_rank needs at least one scorer")
    answer = question.answer_text
    answer_scores = [checked_score(s, question, answer) for s in scorers]
    ranked: list[DistractorCandidate] = []
    for text, source in candidates:
        per_model = [checked_score(s, question, text) for s in scorers]
        fooled = sum(per > ans for per, ans in zip(per_model, answer_scores))
        margin = sum(per - ans for per, ans in zip(per_model, answer_scores))
        ranked.append(DistractorCandidate(text, source, per_model, fooled, margin))
    ranked.sort(key=lambda c: (-c.fooled_count, -c.margin_sum, c.text))
    return ranked


def assemble_8way(
    question: MCQuestion,
    ranked_texts: list[str],
    target_ways: int,
    shuffle_seed: int | str,
) -> MCQuestion:
    """Fill the question to target_ways choices and reshuffle.

    Existing choices (the correct answer plus any surviving human-authored
    distractors) are kept verbatim; ranked candidate texts, best first,
    fill the gap.
    The shuffle is fully determined by shuffle_seed.
    """
    existing = list(question.choices)
    if len(existing) > target_ways:
        raise HopkitError(
            f"question {question.id} already has {len(existing)} choices, "
            f"more than target {target_ways}"
        )
    taken = {choice.text.casefold() for choice in existing}
    fill: list[str] = []
    for text in ranked_texts:
        if len(existing) + len(fill) == target_ways:
            break
        if text.casefold() in taken:
            continue
        taken.add(text.casefold())
        fill.append(text)
    if len(existing) + len(fill) < target_ways:
        raise InsufficientCandidatesError(
            f"question {question.id}: {len(existing)} existing + {len(fill)} "
            f"ranked candidates cannot fill {target_ways} ways"
        )
    answer_text = question.answer_text
    texts = [choice.text for choice in existing] + fill
    random.Random(str(shuffle_seed)).shuffle(texts)
    choices = [Choice(chr(ord("A") + i), text) for i, text in enumerate(texts)]
    answer_key = next(c.label for c in choices if c.text == answer_text)
    return replace(question, choices=choices, answer_key=answer_key)
