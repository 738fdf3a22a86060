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


def check_question(seed_fact: str, linked_fact: str, composed_fact: str,
                   stem: str, answer: str) -> CheckResult:
    """No dropped bridge stem may reappear in the question or answer.
    Meaningful only after check_composition passes."""
    dropped = _dropped_bridges(stem_set(seed_fact), stem_set(linked_fact),
                               stem_set(composed_fact))
    reintroduced = dropped & stem_set(stem + " " + answer)
    if reintroduced:
        return CheckResult("question", False, reintroduced)
    return CheckResult("question", True, dropped)


def run_checks(question: MCQuestion) -> list[CheckResult]:
    """Run link -> composition -> question on the question's annotated
    facts, a missing one read as "", stopping at the first failure."""
    seed, linked = question.fact1 or "", question.fact2 or ""
    composed = question.combined_fact or ""
    results = [check_link(seed, linked)]
    if not results[-1].passed:
        return results
    results.append(check_composition(seed, linked, composed))
    if not results[-1].passed:
        return results
    results.append(check_question(seed, linked, composed, question.stem, question.answer_text))
    return results


def validate_dataset(questions) -> list[dict]:
    """One JSON-ready result object per question per executed check.

    Questions lacking fact annotations get a single failed "annotations" row
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
        for result in run_checks(question):
            row = {"id": question.id}
            row.update(result.to_json())
            rows.append(row)
    return rows


def validation_jsonl(questions) -> str:
    return jsonl(validate_dataset(questions))
