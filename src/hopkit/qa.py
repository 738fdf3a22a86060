"""The IR baseline answerer, accuracy evaluation, and overlap statistics.

Also defines the pluggable scorer contract (per-choice real score, higher
is better) used by the distractor pipeline, plus the JSON-lines exchange
format that lets out-of-process models participate without being linked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import Protocol

from .corpus import TokenBag, tokenize_normalize
from .errors import HopkitError, jsonl, read_jsonl, require_type, write_output
from .index import InvertedIndex
from .retrieval import query_tokens, single_step


# Choices are labelled with the letters 'A' to 'Z', so a question has at most
# this many.
MAX_WAYS = 26


@dataclass(frozen=True)
class Choice:
    label: str
    text: str


@dataclass
class MCQuestion:
    """A multiple-choice question in the 8-way dataset format.

    Labels are single letters, unique and consecutive from 'A'; the answer
    key must be one of them.  fact1/fact2/combined_fact carry the annotated
    sentence pair and its composition when available.
    """

    id: str
    stem: str
    choices: list[Choice]
    answer_key: str
    fact1: str | None = None
    fact2: str | None = None
    combined_fact: str | None = None

    def __post_init__(self) -> None:
        labels = [c.label for c in self.choices]
        if len(labels) > MAX_WAYS:
            raise ValueError(f"question {self.id}: {len(labels)} choices, more than {MAX_WAYS}")
        expected = [chr(ord("A") + i) for i in range(len(labels))]
        if labels != expected:
            raise ValueError(f"question {self.id}: labels {labels} not consecutive from 'A'")
        if self.answer_key not in labels:
            raise ValueError(f"question {self.id}: answer key {self.answer_key!r} not among labels")

    @property
    def answer_text(self) -> str:
        for choice in self.choices:
            if choice.label == self.answer_key:
                return choice.text
        raise AssertionError("unreachable: answer key validated in __post_init__")


class Scorer(Protocol):
    """Per-choice real score, higher is better.

    Implementations must be safe for concurrent read-only use; anything
    stateful should serialize its own calls.
    """

    name: str

    def score(self, question: MCQuestion, choice_text: str) -> float: ...


def ir_score(index: InvertedIndex, stem_text: str, choice_text: str) -> float:
    """Highest score among sentences overlapping both the question stem and
    the choice, the score of single_step's top hit; 0.0 when nothing
    qualifies."""
    hits = single_step(index, stem_text, choice_text, 1)
    return hits[0].score if hits else 0.0


class IRScorer:
    """Retrieval-score baseline: answer with the highest scoring sentence.

    Stateless over an immutable index, so safe for concurrent use; stem_set's
    memo is what keeps a question's candidates from tokenizing its stem again.
    """

    def __init__(self, index: InvertedIndex, name: str = "ir"):
        self.index = index
        self.name = name

    def score(self, question: MCQuestion, choice_text: str) -> float:
        return ir_score(self.index, question.stem, choice_text)


class FileScorer:
    """Scores ingested from a JSON-lines file.

    Rows are {"id", "label", "score"} for dataset choices or
    {"id", "text", "score"} for arbitrary candidate strings.  A row that
    repeats an earlier row's (id, label) or (id, text) is a bad row.
    """

    def __init__(self, path: str | Path):
        self.name = f"file:{path}"
        self.by_label: dict[tuple[str, str], float] = {}
        self.by_text: dict[tuple[str, str], float] = {}
        for field_name, key, score in read_jsonl(path, _parse_score_row, key=itemgetter(0, 1)):
            (self.by_label if field_name == "label" else self.by_text)[key] = score

    def score(self, question: MCQuestion, choice_text: str) -> float:
        key = (question.id, choice_text)
        if key in self.by_text:
            return self.by_text[key]
        for choice in question.choices:
            if choice.text == choice_text and (question.id, choice.label) in self.by_label:
                return self.by_label[(question.id, choice.label)]
        raise HopkitError(
            f"scorer {self.name}: no score for question {question.id!r} choice {choice_text!r}"
        )


def _parse_score_row(row: dict) -> tuple[str, tuple[str, str], float]:
    """("label" or "text", (question id, that field), score).  The score
    is a number or a numeric string; JSON true and false are neither."""
    if isinstance(row["score"], bool):
        raise TypeError("score must be a number, got bool")
    score = float(row["score"])
    field_name = "label" if "label" in row else "text"
    if field_name not in row:
        raise KeyError("row needs 'label' or 'text'")
    key = (require_type(row["id"], str, "id"), require_type(row[field_name], str, field_name))
    return field_name, key, score


def checked_score(scorer: Scorer, question: MCQuestion, text: str) -> float:
    """``scorer.score(question, text)``; HopkitError if it is not finite."""
    value = scorer.score(question, text)
    if not math.isfinite(value):
        raise HopkitError(
            f"scorer {getattr(scorer, 'name', scorer)!r} returned non-finite "
            f"score {value!r} for {text!r} on question {question.id}"
        )
    return value


def answer(scorer: Scorer, question: MCQuestion) -> str:
    """The label of the argmax choice; ties break to the earliest label."""
    best = max(question.choices, key=lambda choice: checked_score(scorer, question, choice.text))
    return best.label


def eval_accuracy(scorer: Scorer, dataset) -> float:
    """Fraction of questions where the argmax choice is the answer key."""
    questions = list(dataset)
    if not questions:
        return 0.0
    correct = sum(answer(scorer, q) == q.answer_key for q in questions)
    return correct / len(questions)


# ---------------------------------------------------------------------------
# Overlap statistics


@dataclass
class OverlapReport:
    """How much each annotated fact overlaps the question+answer tokens."""

    fraction_below: dict[int, float] = field(default_factory=dict)
    mean_fact1: float = 0.0
    mean_fact2: float = 0.0
    n_used: int = 0
    n_skipped: int = 0

    def to_table(self) -> str:
        lines = ["metric\tvalue"]
        for k in sorted(self.fraction_below):
            lines.append(f"pct_min_overlap_lt_{k}\t{100.0 * self.fraction_below[k]:.9f}")
        lines.append(f"mean_overlap_fact1\t{self.mean_fact1:.9f}")
        lines.append(f"mean_overlap_fact2\t{self.mean_fact2:.9f}")
        lines.append(f"questions_used\t{self.n_used}")
        lines.append(f"questions_skipped\t{self.n_skipped}")
        return "\n".join(lines) + "\n"


def _overlap(fact_bag: TokenBag, qa_bag: TokenBag, occurrences: bool) -> int:
    shared = fact_bag.keys() & qa_bag.keys()
    if occurrences:
        return sum(min(fact_bag[t], qa_bag[t]) for t in shared)
    return len(shared)


OVERLAP_THRESHOLDS = (2, 3, 4)


def overlap_stats(dataset, count_occurrences: bool = False) -> OverlapReport:
    """For each k in OVERLAP_THRESHOLDS, the fraction of questions where
    the less overlapping of the two facts shares fewer than k stems with
    q+a, plus the mean overlap of each fact.  Distinct stems by default;
    set count_occurrences to count token occurrences instead.
    """
    report = OverlapReport(fraction_below={k: 0.0 for k in OVERLAP_THRESHOLDS})
    below = {k: 0 for k in OVERLAP_THRESHOLDS}
    sum1 = sum2 = 0
    for question in dataset:
        if not question.fact1 or not question.fact2:
            report.n_skipped += 1
            continue
        qa_bag = query_tokens(question.stem, question.answer_text)
        o1 = _overlap(tokenize_normalize(question.fact1), qa_bag, count_occurrences)
        o2 = _overlap(tokenize_normalize(question.fact2), qa_bag, count_occurrences)
        report.n_used += 1
        sum1 += o1
        sum2 += o2
        for k in OVERLAP_THRESHOLDS:
            below[k] += min(o1, o2) < k
    if report.n_used:
        report.fraction_below = {k: below[k] / report.n_used for k in OVERLAP_THRESHOLDS}
        report.mean_fact1 = sum1 / report.n_used
        report.mean_fact2 = sum2 / report.n_used
    return report


# ---------------------------------------------------------------------------
# 8-way MCQ JSON-lines dataset format


def question_from_json(row: dict) -> MCQuestion:
    q = row["question"]
    return MCQuestion(
        id=require_type(row["id"], str, "id"),
        stem=require_type(q["stem"], str, "stem"),
        choices=[
            Choice(c["label"], require_type(c["text"], str, "choice text")) for c in q["choices"]
        ],
        answer_key=row["answerKey"],
        fact1=_optional_text(row, "fact1"),
        fact2=_optional_text(row, "fact2"),
        combined_fact=_optional_text(row, "combinedfact"),
    )


def _optional_text(row: dict, key: str) -> str | None:
    value = row.get(key)
    return None if value is None else require_type(value, str, key)


def question_to_json(question: MCQuestion) -> dict:
    row = {
        "id": question.id,
        "question": {
            "stem": question.stem,
            "choices": [{"label": c.label, "text": c.text} for c in question.choices],
        },
        "answerKey": question.answer_key,
    }
    if question.fact1 is not None:
        row["fact1"] = question.fact1
    if question.fact2 is not None:
        row["fact2"] = question.fact2
    if question.combined_fact is not None:
        row["combinedfact"] = question.combined_fact
    return row


def load_questions(path: str | Path) -> list[MCQuestion]:
    return read_jsonl(path, question_from_json, key=attrgetter("id"))


def emit_score_requests(dataset, path: str | Path) -> None:
    """Write one {"id", "label", "stem", "choice"} row per (question, choice)
    so an external scorer can fill in scores and hand back a FileScorer file."""
    rows = [
        {"id": question.id, "label": choice.label, "stem": question.stem, "choice": choice.text}
        for question in sorted(dataset, key=lambda q: q.id)
        for choice in question.choices
    ]
    write_output(path, jsonl(rows))
