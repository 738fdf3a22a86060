"""Leakage-aware train/dev/test assignment of seed facts.

Questions inherit the fold of their seed fact, so the assignment is per
fact.  The objective is the summed similarity of fact pairs that land in
different folds; fold question masses are constrained to the targets
within a slack band.  Infeasibility is reported, never silently relaxed.

``solve_exact`` is branch-and-bound for small instances.  ``solve_heuristic``
first packs whole connected components of the similarity graph into
folds, largest first, which cuts no edge and so is optimal whenever the
fold masses allow it, and anneals only when that packing misses them.
"""

from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path

from .corpus import TokenBag, tokenize_normalize
from .errors import HopkitError, SplitSizeError, read_jsonl, require_type

FOLDS = ("train", "dev", "test")
EXACT_SIZE_CAP = 18


@dataclass(frozen=True)
class SeedFact:
    id: str
    question_count: int
    tokens: TokenBag

    def __post_init__(self) -> None:
        if self.question_count < 1:
            raise ValueError(f"fact {self.id}: question_count must be >= 1")


def idf_table(facts) -> dict[str, float]:
    """idf(t) = ln(n_facts / df(t)) over the seed-fact collection."""
    facts = list(facts)
    df: dict[str, int] = {}
    for fact in facts:
        for term in fact.tokens:
            df[term] = df.get(term, 0) + 1
    n = len(facts)
    return {term: math.log(n / count) for term, count in df.items()}


def seed_fact_similarity(fa: TokenBag, fb: TokenBag, idf: dict[str, float]) -> float:
    """tf-idf weighted overlap, not normalized by length:
    sum over shared stems of idf(t) * min(tf_a, tf_b), in sorted stem order
    so that the float does not depend on the string hash seed."""
    return float(
        sum(idf.get(t, 0.0) * min(fa[t], fb[t]) for t in sorted(fa.keys() & fb.keys()))
    )


@dataclass
class SplitProblem:
    facts: list[SeedFact]
    sim: dict[tuple[int, int], float]  # (i, k) with i < k, pruned below threshold
    fold_targets: tuple[float, float, float] = (0.78, 0.11, 0.11)
    slack: float = 0.01
    prune_threshold: float = 10.0

    @property
    def total_questions(self) -> int:
        return sum(f.question_count for f in self.facts)

    def mass_bounds(self) -> list[tuple[float, float]]:
        q = self.total_questions
        eps = 1e-9 * max(1, q)
        return [
            ((t - self.slack) * q - eps, (t + self.slack) * q + eps)
            for t in self.fold_targets
        ]


def build_problem(
    facts: list[SeedFact],
    targets: tuple[float, float, float] = SplitProblem.fold_targets,
    slack: float = SplitProblem.slack,
    prune_threshold: float = SplitProblem.prune_threshold,
) -> SplitProblem:
    """Keep the fact pairs whose similarity is at or above the prune
    threshold as graph edges.

    A pair that shares no term of positive idf (df < n) has similarity
    exactly 0.0, so with a positive threshold only pairs found through
    such a term's postings are scored; with a threshold <= 0 every pair is
    an edge.  Edges are inserted in ascending (i, k) order, as an all-pairs
    scan would insert them, since the solvers' float sums follow that order.
    """
    if not all(math.isfinite(t) and 0.0 <= t <= 1.0 for t in targets):
        raise HopkitError(f"fold targets must be finite fractions in [0, 1], got {targets}")
    if abs(sum(targets) - 1.0) > 1e-9:
        raise HopkitError(f"fold targets must sum to 1, got {targets}")
    if not (math.isfinite(slack) and slack >= 0.0):
        raise HopkitError(f"slack must be finite and >= 0, got {slack}")
    if not math.isfinite(prune_threshold):
        raise HopkitError(f"prune threshold must be finite, got {prune_threshold}")
    idf = idf_table(facts)
    n = len(facts)
    postings: dict[str, list[int]] = {}
    for i, fact in enumerate(facts):
        for term in fact.tokens:
            if idf[term] > 0.0:
                postings.setdefault(term, []).append(i)
    sim: dict[tuple[int, int], float] = {}
    for i, fact in enumerate(facts):
        if prune_threshold <= 0.0:
            candidates = range(i + 1, n)
        else:
            candidates = sorted(
                {k for term in fact.tokens for k in postings.get(term, ()) if k > i}
            )
        for k in candidates:
            value = seed_fact_similarity(fact.tokens, facts[k].tokens, idf)
            if value >= prune_threshold:
                sim[(i, k)] = value
    return SplitProblem(facts, sim, tuple(targets), slack, prune_threshold)


@dataclass
class FoldAssignment:
    fold_of: dict[str, str]
    objective: float
    feasible: bool
    violation_report: dict[str, dict] | None = None

    def to_json(self) -> dict:
        row = {
            "fold_of": dict(sorted(self.fold_of.items())),
            "objective": round(self.objective, 9),
            "feasible": self.feasible,
        }
        if self.violation_report is not None:
            row["violation_report"] = self.violation_report
        return row

    def to_tsv(self) -> str:
        lines = [f"{fid}\t{fold}" for fid, fold in sorted(self.fold_of.items())]
        return "\n".join(lines) + ("\n" if lines else "")


def cross_fold_objective(problem: SplitProblem, labels: list[int]) -> float:
    """Recompute the objective from scratch; used as the solver self-audit."""
    return float(
        sum(value for (i, k), value in sorted(problem.sim.items()) if labels[i] != labels[k])
    )


def _masses(problem: SplitProblem, labels: list[int]) -> list[int]:
    masses = [0, 0, 0]
    for fact, fold in zip(problem.facts, labels):
        masses[fold] += fact.question_count
    return masses


def _violation(masses, bounds) -> float:
    total = 0.0
    for mass, (lo, hi) in zip(masses, bounds):
        if mass < lo:
            total += lo - mass
        elif mass > hi:
            total += mass - hi
    return total


def _report(masses, bounds) -> dict[str, dict]:
    report = {}
    for fold, mass, (lo, hi) in zip(FOLDS, masses, bounds):
        report[fold] = {
            "mass": mass,
            "lower": round(lo, 6),
            "upper": round(hi, 6),
            "deviation": round(_violation([mass], [(lo, hi)]), 6),
        }
    return report


def _assignment(problem: SplitProblem, labels: list[int], objective: float,
                violation: float, bounds) -> FoldAssignment:
    fold_of = {fact.id: FOLDS[fold] for fact, fold in zip(problem.facts, labels)}
    feasible = violation == 0.0
    report = None if feasible else _report(_masses(problem, labels), bounds)
    return FoldAssignment(fold_of, objective, feasible, report)


def _adjacency(problem: SplitProblem) -> list[list[tuple[int, float]]]:
    """Each fact's (neighbour, similarity) edges, in the insertion order of
    ``problem.sim``.  Its edges have i < k, so no fact is its own neighbour."""
    adj: list[list[tuple[int, float]]] = [[] for _ in problem.facts]
    for (i, k), value in problem.sim.items():
        adj[i].append((k, value))
        adj[k].append((i, value))
    return adj


def solve_exact(problem: SplitProblem) -> FoldAssignment:
    """Branch-and-bound over the 3-way labels, globally optimal.

    Minimizes (mass violation, objective) lexicographically, so the result
    is the minimum-objective feasible assignment when one exists and the
    least-violating assignment (with a violation report) otherwise.
    """
    n = len(problem.facts)
    if n > EXACT_SIZE_CAP:
        raise SplitSizeError(f"exact solver capped at {EXACT_SIZE_CAP} facts, got {n}")
    bounds = problem.mass_bounds()
    order = sorted(range(n), key=lambda i: (-problem.facts[i].question_count, i))
    adj = _adjacency(problem)
    counts = [problem.facts[i].question_count for i in range(n)]
    suffix_mass = [0] * (n + 1)
    for pos in range(n - 1, -1, -1):
        suffix_mass[pos] = suffix_mass[pos + 1] + counts[order[pos]]

    best_key = (math.inf, math.inf)
    best_labels: list[int] | None = None
    labels = [-1] * n
    masses = [0, 0, 0]
    # the bound's sums round apart from _violation's; lowering it by far more
    # than that keeps a completion that ties the best violation from being cut
    margin = 1e-9 * max(1, problem.total_questions)

    def viol_lower_bound(remaining: int) -> float:
        over = sum(max(0.0, m - hi) for m, (_, hi) in zip(masses, bounds))
        headroom = sum(max(0.0, hi - m) for m, (_, hi) in zip(masses, bounds))
        forced_over = max(0.0, remaining - headroom)
        under_needed = sum(max(0.0, lo - m) for m, (lo, _) in zip(masses, bounds))
        uncoverable = max(0.0, under_needed - remaining)
        return max(0.0, over + forced_over + uncoverable - margin)

    def dfs(pos: int, objective: float) -> None:
        nonlocal best_key, best_labels
        remaining = suffix_mass[pos]
        if (viol_lower_bound(remaining), objective) >= best_key:
            return
        if pos == n:
            key = (_violation(masses, bounds), objective)
            if key < best_key:
                best_key = key
                best_labels = labels.copy()
            return
        fact_index = order[pos]
        for fold in range(3):
            # only the facts before this one in order are placed (label >= 0),
            # so each edge is priced once, when its later end is placed
            delta = sum(value for other, value in adj[fact_index] if labels[other] not in (-1, fold))
            labels[fact_index] = fold
            masses[fold] += counts[fact_index]
            dfs(pos + 1, objective + delta)
            masses[fold] -= counts[fact_index]
            labels[fact_index] = -1

    dfs(0, 0.0)
    assert best_labels is not None
    objective = cross_fold_objective(problem, best_labels)
    return _assignment(problem, best_labels, objective, best_key[0], bounds)


def check_annealing_runs(iterations: int, restarts: int) -> None:
    """Reject run lengths the annealing fallback cannot take."""
    if restarts < 1:
        raise HopkitError(f"restarts must be >= 1, got {restarts}")
    if iterations < 0:
        raise HopkitError(f"iterations must be >= 0, got {iterations}")
    if iterations > sys.float_info.max:
        # the cooling rate divides by iterations - 1 as a float
        raise HopkitError(f"iterations must be at most {sys.float_info.max:g}")


def _components(problem: SplitProblem) -> list[tuple[int, list[int]]]:
    """(question mass, ascending fact indices) of each connected component
    of the positive-weight edges, ordered by (-mass, smallest fact index).

    A 0.0-weight edge costs nothing to cut, so it joins nothing.  Linking
    the larger root under the smaller keeps every parent below its child,
    so one ascending pass leaves each fact pointing at its component's
    smallest index.
    """
    parent = list(range(len(problem.facts)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for (i, k), value in problem.sim.items():
        if value > 0.0:
            ri, rk = find(i), find(k)
            parent[max(ri, rk)] = min(ri, rk)
    mass = [0] * len(parent)
    members: dict[int, list[int]] = {}
    for i, fact in enumerate(problem.facts):
        root = parent[i] = parent[parent[i]]
        mass[root] += fact.question_count
        members.setdefault(root, []).append(i)
    return [(mass[root], members[root])
            for root in sorted(members, key=lambda root: (-mass[root], root))]


def _greedy_packing(problem: SplitProblem, components) -> tuple[list[int], list[int]]:
    """Labels and fold masses after putting each component, in order, into
    the fold with the largest remaining deficit toward its target mass (the
    lowest fold on a tie)."""
    q = problem.total_questions
    deficits = [t * q for t in problem.fold_targets]
    masses = [0, 0, 0]
    labels = [0] * len(problem.facts)
    for mass, group in components:
        fold = deficits.index(max(deficits))
        for i in group:
            labels[i] = fold
        deficits[fold] -= mass
        masses[fold] += mass
    return labels, masses


def solve_heuristic(
    problem: SplitProblem,
    seed: int,
    iterations: int,
    restarts: int,
) -> FoldAssignment:
    """Component-first packing, with simulated annealing as the fallback.

    Facts joined by a positive-weight edge form components.  A split that
    keeps every component whole cuts only 0.0-weight edges, and no
    similarity is negative, so when its fold masses are feasible its
    objective 0.0 is optimal.  The components go to folds greedily,
    largest first, and a feasible packing is returned at once.  Otherwise
    the annealing runs: single-fact moves and pairwise swaps from the
    greedy packing (restart 0) and from seeded random labels, with an
    infeasibility penalty large enough that any feasible assignment beats
    any infeasible one.  A swap is two single-fact moves, priced and
    applied in order on the live labels; a rejected proposal puts its facts
    back.  The best (violation, objective) state it visits is reported, so
    the result is feasible whenever a feasible assignment was visited.
    ``seed``, ``iterations`` and ``restarts`` only affect the annealing.
    Deterministic for a fixed seed.
    """
    check_annealing_runs(iterations, restarts)
    n = len(problem.facts)
    bounds = problem.mass_bounds()
    components = _components(problem)
    greedy, masses = _greedy_packing(problem, components)
    if _violation(masses, bounds) == 0.0:
        return _assignment(problem, greedy, cross_fold_objective(problem, greedy), 0.0, bounds)
    penalty = sum(problem.sim.values()) + 1.0
    adj = _adjacency(problem)
    counts = [f.question_count for f in problem.facts]

    best_key = (math.inf, math.inf)
    best_labels: list[int] | None = None

    def consider(labels, violation, objective) -> float:
        # The running objective drifts by float rounding, so a state that
        # seems to beat the best one is judged on its recomputed objective,
        # and the walk goes on from that exact value.
        nonlocal best_key, best_labels
        if (violation, objective) < best_key:
            objective = cross_fold_objective(problem, labels)
            if (violation, objective) < best_key:
                best_key = (violation, objective)
                best_labels = labels.copy()
        return objective

    for restart in range(restarts):
        rng = random.Random(f"{seed}:{restart}")
        if restart == 0:
            labels = greedy
        else:
            labels = [rng.randrange(3) for _ in range(n)]
        masses = _masses(problem, labels)
        objective = cross_fold_objective(problem, labels)
        violation = _violation(masses, bounds)
        consider(labels, violation, objective)
        energy = objective + penalty * violation
        t0 = max(penalty, 1.0)
        t_end = 1e-3
        cooling = (t_end / t0) ** (1.0 / max(1, iterations - 1))
        temperature = t0
        for _ in range(iterations):
            # a proposal is a list of (fact, its fold, its new fold) moves
            if n >= 2 and rng.random() < 0.5:
                i, j = rng.sample(range(n), 2)
                moves = [(i, labels[i], labels[j]), (j, labels[j], labels[i])]
            else:
                i = rng.randrange(n)
                moves = [(i, labels[i], rng.randrange(3))]
            if moves[0][1] == moves[0][2]:
                temperature *= cooling
                continue
            new_masses = list(masses)
            new_objective = objective
            for k, old, fold in moves:
                new_objective += sum(
                    value * ((labels[other] != fold) - (labels[other] != old))
                    for other, value in adj[k]
                )
                new_masses[old] -= counts[k]
                new_masses[fold] += counts[k]
                labels[k] = fold
            new_violation = _violation(new_masses, bounds)
            new_energy = new_objective + penalty * new_violation
            delta = new_energy - energy
            if delta <= 0 or rng.random() < math.exp(-delta / max(temperature, 1e-12)):
                masses = new_masses
                violation = new_violation
                objective = consider(labels, violation, new_objective)
                energy = objective + penalty * violation
            else:
                for k, old, _ in moves:
                    labels[k] = old
            temperature *= cooling

    assert best_labels is not None
    violation, objective = best_key
    return _assignment(problem, best_labels, objective, violation, bounds)


# ---------------------------------------------------------------------------
# Serialization


def load_facts_jsonl(path: str | Path) -> list[SeedFact]:
    """Rows: {"id", "text", "questions"} (or "question_count").  Ids are
    strings or integers, read as strings, and must be distinct, so 7 and
    "7" are one id.  An id is one field of split.tsv, so it must be
    printable (``str.isprintable``): tabs, line breaks and lone surrogates
    are refused, and so are no-break spaces and format characters."""
    return read_jsonl(path, _fact_from_json, key=attrgetter("id"))


def _fact_from_json(row: dict) -> SeedFact:
    count = require_type(row.get("questions", row.get("question_count", 1)), int, "questions")
    text = require_type(row["text"], str, "text")
    if type(row["id"]) not in (str, int):
        raise TypeError(f"id must be str or int, got {type(row['id']).__name__}")
    fact_id = str(row["id"])
    if not fact_id.isprintable():
        raise ValueError(f"id {fact_id!r} is not printable, so split.tsv cannot hold it")
    return SeedFact(fact_id, count, tokenize_normalize(text))


def problem_to_json(problem: SplitProblem) -> dict:
    return {
        "facts": [
            {"id": f.id, "questions": f.question_count, "tokens": dict(sorted(f.tokens.items()))}
            for f in problem.facts
        ],
        "edges": [
            {"i": problem.facts[i].id, "k": problem.facts[k].id, "sim": round(value, 9)}
            for (i, k), value in sorted(problem.sim.items())
        ],
        "fold_targets": list(problem.fold_targets),
        "slack": problem.slack,
        "prune_threshold": problem.prune_threshold,
    }
