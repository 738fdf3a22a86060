"""Automated composition-quality checks for fact-pair questions.

The checks formalize "significant words" as non-stopword stems and run in
a fixed order: the two facts must link, the composed fact must drop a
shared bridge stem while keeping material from both sides, and the
question must not reintroduce a dropped bridge.  All checks are pure
functions of token bags.
"""

from __future__ import annotations

from dataclasses import dataclass

from .corpus import stem_set
from .errors import jsonl
from .qa import MCQuestion


@dataclass(frozen=True)
class CheckResult:
    check: str
    passed: bool
    evidence: frozenset[str]

    def to_json(self) -> dict:
        return {
            "check": self.check,
            "pass": self.passed,
            "evidence": sorted(self.evidence),
        }


@dataclass(frozen=True)
class CompositionRecord:
    seed_fact: str
    linked_fact: str
    composed_fact: str
    question_stem: str
    answer: str

    @classmethod
    def from_question(cls, question: MCQuestion) -> "CompositionRecord":
        return cls(
            seed_fact=question.fact1 or "",
            linked_fact=question.fact2 or "",
            composed_fact=question.combined_fact or "",
            question_stem=question.stem,
            answer=question.answer_text,
        )


def check_link(seed_fact: str, linked_fact: str) -> CheckResult:
    """The two facts must share at least one significant stem (the bridge
    candidates).  On failure the evidence shows what was available."""
    seed = stem_set(seed_fact)
    linked = stem_set(linked_fact)
    bridge = seed & linked
    if bridge:
        return CheckResult("link", True, bridge)
    return CheckResult("link", False, seed | linked)


def _dropped_bridges(seed: frozenset[str], linked: frozenset[str],
                     composed: frozenset[str]) -> frozenset[str]:
    return (seed & linked) - composed


def check_composition(seed_fact: str, linked_fact: str, composed_fact: str) -> CheckResult:
    """The composition must drop a bridge stem and keep material unique to
    each side.  Meaningful only after check_link passes."""
    seed = stem_set(seed_fact)
    linked = stem_set(linked_fact)
    composed = stem_set(composed_fact)
    dropped = _dropped_bridges(seed, linked, composed)
    if not dropped:
        return CheckResult("composition", False, (seed & linked) & composed)
    if not composed & (seed - linked):
        return CheckResult("composition", False, seed - linked)
    if not composed & (linked - seed):
        return CheckResult("composition", False, linked - seed)
    return CheckResult("composition", True, dropped)


def check_question(record: CompositionRecord) -> CheckResult:
    """No dropped bridge stem may reappear in the question or answer.
    Meaningful only after check_composition passes."""
    dropped = _dropped_bridges(
        stem_set(record.seed_fact),
        stem_set(record.linked_fact),
        stem_set(record.composed_fact),
    )
    reintroduced = dropped & stem_set(record.question_stem + " " + record.answer)
    if reintroduced:
        return CheckResult("question", False, reintroduced)
    return CheckResult("question", True, dropped)


def run_checks(record: CompositionRecord) -> list[CheckResult]:
    """Run link -> composition -> question, stopping at the first failure."""
    results = [check_link(record.seed_fact, record.linked_fact)]
    if not results[-1].passed:
        return results
    results.append(
        check_composition(record.seed_fact, record.linked_fact, record.composed_fact)
    )
    if not results[-1].passed:
        return results
    results.append(check_question(record))
    return results


def validate_dataset(questions) -> list[dict]:
    """One JSON-ready result object per record per executed check.

    Records lacking fact annotations get a single failed "annotations" row
    naming the missing fields instead of vacuous check failures.
    """
    rows = []
    for question in sorted(questions, key=lambda q: q.id):
        missing = [
            name
            for name, value in (
                ("fact1", question.fact1),
                ("fact2", question.fact2),
                ("combinedfact", question.combined_fact),
            )
            if not value
        ]
        if missing:
            rows.append(
                {"id": question.id, "check": "annotations", "pass": False,
                 "evidence": missing}
            )
            continue
        record = CompositionRecord.from_question(question)
        for result in run_checks(record):
            row = {"id": question.id}
            row.update(result.to_json())
            rows.append(row)
    return rows


def validation_jsonl(questions) -> str:
    return jsonl(validate_dataset(questions))
