import hashlib
import json
import math
import os
import random
import subprocess
import sys
from collections import Counter
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hopkit.corpus import tokenize_normalize
from hopkit.errors import HopkitError, SplitSizeError
from hopkit.splitter import (
    FOLDS,
    SeedFact,
    SplitProblem,
    build_problem,
    cross_fold_objective,
    idf_table,
    seed_fact_similarity,
    _components,
    _greedy_packing,
    _masses,
    _violation,
    solve_exact,
    solve_heuristic,
)

from conftest import (
    FIG1_ANSWER,
    FIG1_FL,
    FIG1_FS,
    FIG1_QUESTION,
    make_question,
    random_split_instance,
    save_questions,
    seed_facts,
)
from oracles import (
    annealing_solve_heuristic,
    brute_build_problem,
    enumerate_split,
    frozen_greedy_labels,
    greedy_component_labels,
)

WORDS = "zoka flerb drant mulo vask grinta binda wopple tesk yorn quib lemmo".split()


@st.composite
def seed_fact_lists(draw):
    """SeedFacts over a small vocabulary: shared terms, tf > 1, duplicate
    bags, and optionally a term in every fact (idf 0) or in all but one or
    two (the smallest positive idf)."""
    vocab = WORDS[: draw(st.integers(2, len(WORDS)))]
    common = draw(st.booleans())
    lacking_common = draw(st.sets(st.integers(0, 23), max_size=2))
    bags: list[Counter] = []
    for i in range(draw(st.integers(0, 24))):
        if bags and draw(st.integers(0, 4)) == 0:
            bag = Counter(draw(st.sampled_from(bags)))
        else:
            bag = Counter(draw(st.lists(st.sampled_from(vocab), min_size=0, max_size=6)))
        if common and i not in lacking_common:
            bag["everywhere"] = draw(st.integers(1, 2))
        bags.append(bag)
    return seed_facts((f"f{i:02d}", draw(st.integers(1, 5)), bag) for i, bag in enumerate(bags))


THRESHOLDS = st.one_of(
    st.sampled_from([-1.0, 0.0, 1e-12, 1e9]),
    st.floats(0.05, 4.0),
)


def toy_facts():
    texts = {
        "f1": "zoka flerb drant",
        "f2": "zoka flerb wopple",
        "f3": "zoka binda binda",
        "f4": "mulo vask grinta",
        "f5": "zoka flerb drant extra",
    }
    return [SeedFact(fid, 1, tokenize_normalize(text)) for fid, text in texts.items()]


class TestSeedFactSimilarity:
    def test_hand_computed_toy_table(self):
        facts = toy_facts()
        idf = idf_table(facts)
        by_id = {f.id: f.tokens for f in facts}
        ln = math.log
        # df over the 5 facts: zoka 4, flerb 3, drant 2, everything else 1
        assert seed_fact_similarity(by_id["f1"], by_id["f2"], idf) == pytest.approx(
            ln(5 / 4) + ln(5 / 3)
        )
        assert seed_fact_similarity(by_id["f1"], by_id["f5"], idf) == pytest.approx(
            ln(5 / 4) + ln(5 / 3) + ln(5 / 2)
        )
        assert seed_fact_similarity(by_id["f1"], by_id["f3"], idf) == pytest.approx(
            ln(5 / 4)
        )

    def test_disjoint_zero(self):
        facts = toy_facts()
        idf = idf_table(facts)
        assert seed_fact_similarity(facts[0].tokens, facts[3].tokens, idf) == 0.0

    def test_self_similarity_uses_term_frequency(self):
        facts = toy_facts()
        idf = idf_table(facts)
        f3 = facts[2].tokens  # {zoka: 1, binda: 2}
        expected = idf["zoka"] + 2 * idf["binda"]
        assert seed_fact_similarity(f3, f3, idf) == pytest.approx(expected)
        for other in facts:
            assert (
                seed_fact_similarity(f3, other.tokens, idf)
                <= seed_fact_similarity(f3, f3, idf) + 1e-12
            )

    def test_min_term_frequency_no_length_normalization(self):
        idf = {"zoka": 2.0}
        a = Counter({"zoka": 3})
        b = Counter({"zoka": 2, "other": 5})
        assert seed_fact_similarity(a, b, idf) == pytest.approx(4.0)


class TestBuildProblem:
    def test_threshold_above_everything_gives_edgeless_graph(self):
        problem = build_problem(toy_facts(), prune_threshold=1e9)
        assert problem.sim == {}

    def test_threshold_zero_keeps_nonzero_pairs(self):
        problem = build_problem(toy_facts(), prune_threshold=1e-12)
        # f4 shares nothing with anyone; all other pairs share at least "zoka"
        ids = {frozenset((i, k)) for i, k in problem.sim}
        assert frozenset((0, 3)) not in ids
        assert frozenset((0, 1)) in ids
        assert all(value >= 1e-12 for value in problem.sim.values())

    def test_edges_respect_threshold(self):
        rng = random.Random(3)
        texts = seed_facts(
            (i, rng.randint(1, 5), " ".join(rng.choices("zoka flerb drant mulo vask".split(), k=4)))
            for i in range(12)
        )
        threshold = 0.8
        problem = build_problem(texts, prune_threshold=threshold)
        assert problem.sim
        assert all(value >= threshold for value in problem.sim.values())
        expected = brute_build_problem(texts, prune_threshold=threshold)
        assert list(problem.sim.items()) == list(expected.sim.items())

    @given(facts=seed_fact_lists(), threshold=THRESHOLDS)
    @example(facts=[], threshold=0.0)
    @example(facts=seed_facts([("f0", 1, Counter({"zoka": 2}))]), threshold=-1.0)
    @example(facts=seed_facts([("f0", 1, Counter({"zoka": 1})), ("f1", 2, Counter({"zoka": 2}))]),
             threshold=0.0)
    @settings(max_examples=200, deadline=None)
    def test_postings_build_equals_all_pairs(self, facts, threshold):
        problem = build_problem(facts, prune_threshold=threshold)
        expected = brute_build_problem(facts, prune_threshold=threshold)
        # same keys, same floats, same insertion order: the solvers' sums follow it
        assert list(problem.sim.items()) == list(expected.sim.items())
        assert problem.facts == expected.facts
        assert (solve_heuristic(problem, seed=1, iterations=300, restarts=2).to_json()
                == solve_heuristic(expected, seed=1, iterations=300, restarts=2).to_json())

    def test_targets_must_sum_to_one(self):
        with pytest.raises(HopkitError, match="sum to 1"):
            build_problem(seed_facts([("f", 1, Counter({"a": 1}))]), targets=(0.5, 0.3, 0.3))

    def test_question_count_validated(self):
        with pytest.raises(ValueError):
            SeedFact("f", 0, Counter())


@st.composite
def shuffled_split_problems(draw):
    """Split problems of up to 8 facts whose edges are inserted into ``sim``
    in a drawn order, not in build_problem's ascending (i, k) order."""
    n = draw(st.integers(1, 8))
    facts = [SeedFact(f"f{i}", draw(st.integers(1, 6)), Counter()) for i in range(n)]
    pairs = draw(st.permutations([(i, k) for i in range(n) for k in range(i + 1, n)]))
    edges = pairs[: draw(st.integers(0, len(pairs)))]
    values = st.one_of(st.sampled_from([0.0, 0.1, 1.0]), st.floats(0.01, 60.0))
    sim = {edge: draw(values) for edge in edges}
    return SplitProblem(facts, sim, slack=draw(st.sampled_from([0.0, 0.05, 0.2])))


class TestSolveExact:
    def test_edgeless_feasible_zero_objective(self):
        rng = random.Random(5)
        problem = random_split_instance(rng, 9)
        problem.sim.clear()
        assignment = solve_exact(problem)
        assert assignment.feasible
        assert assignment.objective == 0.0

    def test_matches_enumeration_on_random_instances(self):
        rng = random.Random(7)
        for _ in range(12):
            problem = random_split_instance(rng, rng.randint(5, 10))
            assignment = solve_exact(problem)
            violation, objective, feasible = enumerate_split(problem)
            assert assignment.feasible == feasible
            if feasible:
                assert assignment.objective == pytest.approx(objective, abs=1e-9)

    @given(problem=shuffled_split_problems())
    @example(problem=SplitProblem(  # the least violation is reached at objective 0.0 and 0.1
        [SeedFact(f"f{i}", count, Counter()) for i, count in enumerate([1, 4, 4, 4, 4, 4])],
        {(0, 1): 0.0, (0, 2): 0.0, (2, 5): 0.1}, slack=0.0))
    @settings(max_examples=200, deadline=None)
    def test_any_edge_insertion_order_matches_enumeration(self, problem):
        assignment = solve_exact(problem)
        labels = [FOLDS.index(assignment.fold_of[f.id]) for f in problem.facts]
        violation, objective, feasible = enumerate_split(problem)
        assert assignment.feasible == feasible
        assert _violation(_masses(problem, labels), problem.mass_bounds()) == pytest.approx(
            violation, abs=1e-9)
        assert assignment.objective == pytest.approx(objective, abs=1e-9)

    def test_dominant_fact_forced_into_train(self):
        counts = [50] + [5] * 9 + [1] * 5
        facts = [SeedFact(f"f{i:02d}", c, Counter()) for i, c in enumerate(counts)]
        problem = SplitProblem(facts, {})
        assignment = solve_exact(problem)
        assert assignment.feasible
        assert assignment.fold_of["f00"] == "train"

    def test_infeasible_instance_reported_with_least_violation(self):
        # two facts of 50 questions each: train wants 77..79, dev/test 10..12
        facts = [SeedFact("a", 50, Counter()), SeedFact("b", 50, Counter())]
        problem = SplitProblem(facts, {})
        assignment = solve_exact(problem)
        assert not assignment.feasible
        assert assignment.violation_report is not None
        violation, _, feasible = enumerate_split(problem)
        assert not feasible
        reported = sum(fold["deviation"] for fold in assignment.violation_report.values())
        assert reported == pytest.approx(violation, abs=1e-6)

    def test_objective_self_audit(self):
        rng = random.Random(11)
        for _ in range(8):
            problem = random_split_instance(rng, 8)
            assignment = solve_exact(problem)
            labels = [FOLDS.index(assignment.fold_of[f.id]) for f in problem.facts]
            assert cross_fold_objective(problem, labels) == pytest.approx(
                assignment.objective, abs=1e-9
            )

    def test_size_cap(self):
        facts = [SeedFact(f"f{i}", 1, Counter()) for i in range(19)]
        with pytest.raises(SplitSizeError):
            solve_exact(SplitProblem(facts, {}))

    def test_empty_problem(self):
        # the search itself returns the empty split, feasible with nothing cut
        for targets, slack in [((0.78, 0.11, 0.11), 0.01), ((1.0, 0.0, 0.0), 0.0),
                               ((0.5, 0.5, 0.0), 0.3)]:
            assignment = solve_exact(SplitProblem([], {}, targets, slack))
            assert assignment.to_json() == {"fold_of": {}, "objective": 0.0, "feasible": True}


class TestSolveHeuristic:
    def test_edgeless_instance_finds_zero(self):
        rng = random.Random(13)
        problem = random_split_instance(rng, 14)
        problem.sim.clear()
        assignment = solve_heuristic(problem, seed=1, iterations=4000, restarts=4)
        assert assignment.feasible
        assert assignment.objective == 0.0

    def test_fixed_seed_reproducible(self):
        rng = random.Random(17)
        problem = random_split_instance(rng, 12)
        first = solve_heuristic(problem, seed=9, iterations=3000, restarts=3)
        second = solve_heuristic(problem, seed=9, iterations=3000, restarts=3)
        assert first.fold_of == second.fold_of
        assert first.objective == second.objective

    def test_never_beats_exact_and_usually_matches(self):
        rng = random.Random(19)
        gaps = []
        for _ in range(8):
            problem = random_split_instance(rng, rng.randint(6, 10))
            exact = solve_exact(problem)
            heur = solve_heuristic(problem, seed=2, iterations=6000, restarts=10)
            if exact.feasible:
                assert heur.feasible
                assert heur.objective >= exact.objective - 1e-9
                gaps.append(
                    (heur.objective - exact.objective) / exact.objective
                    if exact.objective
                    else 0.0
                )
        assert gaps and sum(gap <= 0.05 for gap in gaps) >= len(gaps) - 1

    def test_feasible_assignment_reported_when_visited(self):
        rng = random.Random(23)
        for _ in range(5):
            problem = random_split_instance(rng, 10)
            assignment = solve_heuristic(problem, seed=3, iterations=5000, restarts=5)
            assert assignment.feasible  # instances are feasible by construction

    @given(
        counts=st.lists(st.integers(1, 20), min_size=0, max_size=12),
        slack=st.sampled_from([0.0, 0.01, 0.05, 0.2, 1.0]),
        edge_seed=st.one_of(st.none(), st.integers(0, 2**16)),
        seed=st.integers(0, 3),
        iterations=st.integers(0, 300),
        restarts=st.integers(1, 4),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_the_full_annealing_run(
        self, counts, slack, edge_seed, seed, iterations, restarts
    ):
        """Where the greedy packing of whole components fits the mass
        bounds, the solver returns that packing: feasible, with objective
        exactly 0.0.  Everywhere else it is the full annealing run, bit for
        bit."""
        facts = [SeedFact(f"f{i:02d}", c, Counter()) for i, c in enumerate(counts)]
        sim = {}
        if edge_seed is not None:
            rng = random.Random(edge_seed)
            sim = {
                (i, k): rng.uniform(10.0, 60.0)
                for i in range(len(facts)) for k in range(i + 1, len(facts))
                if rng.random() < 0.3
            }
        problem = SplitProblem(facts, sim, slack=slack)
        got = solve_heuristic(problem, seed, iterations, restarts)
        packed = greedy_component_labels(problem)
        masses = [sum(f.question_count for f, fold in zip(facts, packed) if fold == j)
                  for j in range(3)]
        if all(lo <= m <= hi for m, (lo, hi) in zip(masses, problem.mass_bounds())):
            assert got.fold_of == {f.id: FOLDS[j] for f, j in zip(facts, packed)}
            assert (got.feasible, got.objective, got.to_json()["objective"]) == (True, 0.0, 0.0)
            assert cross_fold_objective(problem, packed) == 0.0
        else:
            want = annealing_solve_heuristic(problem, seed, iterations, restarts)
            assert (got.to_json(), got.objective) == (want.to_json(), want.objective)

    def test_large_instance_matches_the_full_annealing_run(self):
        # 300 facts at about 2 % edge density: each swap prices facts with
        # several neighbours, some swaps move two adjacent facts, and the
        # packing of the one large component misses the mass bounds
        rng = random.Random(300)
        facts = [SeedFact(f"f{i:03d}", rng.randint(1, 9), Counter()) for i in range(300)]
        sim = {(i, k): rng.uniform(10.0, 60.0)
               for i in range(300) for k in range(i + 1, 300) if rng.random() < 0.02}
        problem = SplitProblem(facts, sim, slack=0.01)
        assert 800 < len(sim) < 1000
        masses = _greedy_packing(problem, _components(problem))[1]
        assert _violation(masses, problem.mass_bounds()) > 0.0
        got = solve_heuristic(problem, seed=0, iterations=2000, restarts=2)
        want = annealing_solve_heuristic(problem, seed=0, iterations=2000, restarts=2)
        assert (got.to_json(), got.objective) == (want.to_json(), want.objective)

    def test_annealing_tie_keeps_the_earlier_state(self):
        # with slack 1.0 every split of 11 one-question facts is feasible,
        # and the greedy start cuts nothing; restart 1 reaches other
        # zero-cut splits whose running objective has drifted below 0.0,
        # and on the recomputed objective they only tie with the start
        facts = [SeedFact(f"f{i:02d}", 1, Counter()) for i in range(11)]
        rng = random.Random(0)
        sim = {(i, k): rng.uniform(10.0, 60.0)
               for i in range(11) for k in range(i + 1, 11) if rng.random() < 0.3}
        problem = SplitProblem(facts, sim, slack=1.0)
        packed = greedy_component_labels(problem)
        assert cross_fold_objective(problem, packed) == 0.0
        got = annealing_solve_heuristic(problem, seed=0, iterations=100, restarts=2)
        assert got.fold_of == {f.id: FOLDS[j] for f, j in zip(facts, packed)}
        assert got.fold_of == solve_heuristic(problem, 0, 100, 2).fold_of

    def test_greedy_miss_falls_back_to_the_annealing_run(self):
        # components of mass 49, 33, 12, 10, 9, 5 (118 questions): greedy
        # packing gives test 15 against a window of [11.8, 14.16], so the
        # annealing runs, although train 49+33+10, dev 12, test 9+5 would
        # keep every component whole
        counts = {"a1": 30, "a2": 19, "b1": 20, "b2": 13, "c": 12, "d1": 6, "d2": 4,
                  "e": 9, "f": 5}
        facts = [SeedFact(fid, count, Counter()) for fid, count in counts.items()]
        problem = SplitProblem(facts, {(0, 1): 25.0, (2, 3): 31.0, (5, 6): 12.5})
        assert _greedy_packing(problem, _components(problem))[1] == [91, 12, 15]
        got = solve_heuristic(problem, seed=1, iterations=3000, restarts=3)
        want = annealing_solve_heuristic(problem, seed=1, iterations=3000, restarts=3)
        assert (got.to_json(), got.objective) == (want.to_json(), want.objective)
        assert got.feasible

    def test_one_component_falls_back_to_the_annealing_run(self):
        # a chain joins every fact, and no fold can hold all of them
        problem = random_split_instance(random.Random(41), 10)
        problem.sim = {(i, i + 1): 10.0 + i for i in range(9)}
        assert len(_components(problem)) == 1
        got = solve_heuristic(problem, seed=2, iterations=3000, restarts=3)
        want = annealing_solve_heuristic(problem, seed=2, iterations=3000, restarts=3)
        assert (got.to_json(), got.objective) == (want.to_json(), want.objective)
        assert got.feasible and got.objective > 0.0

    def test_cost_does_not_grow_with_question_count(self):
        # one fact of a million questions fits no fold; the fallback's work
        # is set by iterations and restarts, not by the question mass
        problem = SplitProblem([SeedFact("big", 10**6, Counter())], {})
        assignment = solve_heuristic(problem, seed=0, iterations=2000, restarts=2)
        assert not assignment.feasible
        assert assignment.violation_report["train"]["mass"] == 10**6

    @given(
        counts=st.lists(st.integers(1, 30), max_size=40),
        targets=st.sampled_from([(0.78, 0.11, 0.11), (1 / 3, 1 / 3, 1 / 3), (0.5, 0.5, 0.0),
                                 (0.1, 0.2, 0.7)]),
        zero_edges=st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_singleton_packing_is_the_old_greedy_start(self, counts, targets, zero_edges):
        # the byte-identity promise for edgeless problems: 0.0-weight edges
        # join nothing, and singleton components pack exactly as facts did
        facts = [SeedFact(f"f{i:02d}", c, Counter()) for i, c in enumerate(counts)]
        sim = {(i, i + 1): 0.0 for i in range(len(facts) - 1)} if zero_edges else {}
        problem = SplitProblem(facts, sim, targets)
        frozen = frozen_greedy_labels(problem)
        assert _greedy_packing(problem, _components(problem))[0] == frozen
        assignment = solve_heuristic(problem, seed=0, iterations=0, restarts=1)
        if _violation(_masses(problem, frozen), problem.mass_bounds()) == 0.0:
            assert assignment.fold_of == {f.id: FOLDS[j] for f, j in zip(facts, frozen)}

    @pytest.mark.parametrize("option, value", [("restarts", 0), ("restarts", -1),
                                               ("iterations", -1)])
    def test_rejects_out_of_range_runs_by_name(self, option, value):
        problem = random_split_instance(random.Random(5), 6)
        with pytest.raises(HopkitError, match=f"{option} must be >= "):
            solve_heuristic(problem, **{"seed": 0, "iterations": 100, "restarts": 1,
                                        option: value})

    def test_edgeless_default_run_matches_the_full_annealing_run(self):
        problem = random_split_instance(random.Random(13), 14)
        problem.sim.clear()
        # the CLI's default run: --seed 0 --iterations 20000 --restarts 10
        runs = {"seed": 0, "iterations": 20000, "restarts": 10}
        assert (solve_heuristic(problem, **runs).to_json()
                == annealing_solve_heuristic(problem, **runs).to_json())

    def test_objective_self_audit(self):
        rng = random.Random(29)
        problem = random_split_instance(rng, 12)
        assignment = solve_heuristic(problem, seed=4, iterations=4000, restarts=4)
        labels = [FOLDS.index(assignment.fold_of[f.id]) for f in problem.facts]
        assert cross_fold_objective(problem, labels) == pytest.approx(
            assignment.objective, abs=1e-9
        )


def test_same_fold_guarantee_questions_follow_their_fact():
    # assignment is per fact; any question keyed by a fact id inherits one fold
    rng = random.Random(31)
    problem = random_split_instance(rng, 9)
    assignment = solve_exact(problem)
    questions = [("question-%d" % i, problem.facts[i % len(problem.facts)].id)
                 for i in range(40)]
    fold_of_question = {qid: assignment.fold_of[fid] for qid, fid in questions}
    by_fact: dict[str, set[str]] = {}
    for (qid, fid) in questions:
        by_fact.setdefault(fid, set()).add(fold_of_question[qid])
    assert all(len(folds) == 1 for folds in by_fact.values())


def test_mass_bounds_inclusive_at_integer_boundaries():
    # 100 questions: train band [77, 79] must admit exactly 77 and 79
    facts = [SeedFact("a", 77, Counter()), SeedFact("b", 12, Counter()),
             SeedFact("c", 11, Counter())]
    assignment = solve_exact(SplitProblem(facts, {}))
    assert assignment.feasible
    assert assignment.fold_of["a"] == "train"


ROOT = Path(__file__).resolve().parents[1]
HASH_SEEDS = ("0", "1", "2", "3")


def _facts_sharing_many_terms(path: Path) -> None:
    """Facts over a small vocabulary with skewed frequencies, so most pairs
    share several terms of different idf."""
    rng = random.Random(5)
    vocab = [w + suffix for w in WORDS for suffix in ("", "er", "ic")]
    weights = [1.0 / (rank + 1) for rank in range(len(vocab))]
    rows = [
        {"id": f"f{i:02d}", "questions": rng.randint(1, 4),
         "text": " ".join(rng.choices(vocab, weights, k=rng.randint(6, 12)))}
        for i in range(40)
    ]
    path.write_text("".join(json.dumps(row) + "\n" for row in rows), "utf-8")


# Runs CLI commands in one process: argv (a JSON list of [argv, stdout file
# or null]); each must exit 0.
_PIPELINE = """
import io, json, sys
from contextlib import redirect_stdout
from hopkit.cli import main
for argv, stdout in json.loads(sys.argv[1]):
    with redirect_stdout(io.StringIO()) as text:
        assert main(argv) == 0, argv
    if stdout:
        with open(stdout, "w", encoding="utf-8") as handle:
            handle.write(text.getvalue())
"""


def _pipeline_commands(corpus: Path, questions: Path, fold: Path, out: Path) -> list:
    idx = str(out / "idx")
    return [
        [["index", "build", "--corpus", str(corpus), "--out", idx], None],
        [["index", "stats", "--index", idx], str(out / "stats.jsonl")],
        [["retrieve", "--index", idx, "--mode", "two", "--question", FIG1_QUESTION,
          "--answer", FIG1_ANSWER, "--out", str(out / "retrieve.jsonl")], None],
        [["retrieve", "--index", idx, "--mode", "single", "--question", FIG1_QUESTION,
          "--answer", FIG1_ANSWER, "--out", str(out / "retrieve_single.jsonl")], None],
        [["eval", "recall", "--index", idx, "--dataset", str(questions), "--mode", "two",
          "--out", str(out / "recall.tsv"), "--audit", str(out / "audit.jsonl")], None],
        [["eval", "recall", "--index", idx, "--dataset", str(questions), "--mode", "single",
          "--out", str(out / "recall_single.tsv"),
          "--audit", str(out / "audit_single.jsonl")], None],
        [["stats", "overlap", "--dataset", str(questions),
          "--out", str(out / "overlap.tsv")], None],
        [["distract", "gen", "--dataset", str(fold), "--ways", "4",
          "--out", str(out / "pools.jsonl")], None],
        [["distract", "rank", "--dataset", str(fold), "--pools", str(out / "pools.jsonl"),
          "--scorer", f"ir:{idx}", "--out", str(out / "ranked.jsonl")], None],
        [["distract", "assemble", "--dataset", str(fold), "--ranked",
          str(out / "ranked.jsonl"), "--seed", "1", "--ways", "4",
          "--out", str(out / "assembled.jsonl")], None],
        [["eval", "accuracy", "--dataset", str(out / "assembled.jsonl"), "--scorer", f"ir:{idx}",
          "--out", str(out / "accuracy.tsv")], None],
        [["validate", "--dataset", str(out / "assembled.jsonl"),
          "--out", str(out / "validate.jsonl")], None],
    ]


def _run_with_hash_seed(hash_seed: str, argv: list[str]) -> str:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, *argv], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


class TestHashSeedIndependence:
    def test_edge_weights_identical_at_full_precision(self, tmp_path):
        facts = tmp_path / "facts.jsonl"
        _facts_sharing_many_terms(facts)
        script = (
            "import sys\n"
            "from hopkit.splitter import build_problem, load_facts_jsonl\n"
            "problem = build_problem(load_facts_jsonl(sys.argv[1]), prune_threshold=0.0)\n"
            "print(repr(list(problem.sim.items())))\n"
        )
        outputs = {_run_with_hash_seed(h, ["-c", script, str(facts)]) for h in HASH_SEEDS}
        assert len(outputs) == 1

    def test_split_solve_writes_identical_bytes(self, tmp_path):
        facts = tmp_path / "facts.jsonl"
        _facts_sharing_many_terms(facts)
        written = set()
        for hash_seed in HASH_SEEDS:
            out = tmp_path / hash_seed
            out.mkdir()
            _run_with_hash_seed(hash_seed, [
                "-m", "hopkit.cli", "split", "solve", "--facts", str(facts), "--heuristic",
                "--prune-threshold", "1.0", "--iterations", "2000",
                "--dump-problem", str(out / "problem.json"), "--out", str(out / "split"),
            ])
            written.add(tuple(
                (out / name).read_bytes() for name in ("problem.json", "split.json", "split.tsv")
            ))
        assert len(written) == 1

    def test_pipeline_writes_identical_bytes(self, tmp_path):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text(
            resources.files("hopkit.data").joinpath("mini_corpus.txt").read_text("utf-8"),
            "utf-8")
        fold = [make_question(f"q{i:03d}", f"what is thing number {i} made of?",
                              f"answer{i:03d}", [f"human distractor {i}"],
                              fact1=f"thing{i} relates to matter{i}",
                              fact2=f"matter{i} builds answer{i:03d} pieces")
                for i in range(1, 9)]
        questions, fold_path = tmp_path / "questions.jsonl", tmp_path / "fold.jsonl"
        save_questions(fold, fold_path)
        save_questions([make_question("q000", FIG1_QUESTION, FIG1_ANSWER, ["erosion prevention"],
                                      fact1=FIG1_FS, fact2=FIG1_FL), *fold], questions)
        written = set()
        for hash_seed in HASH_SEEDS:
            out = tmp_path / hash_seed
            commands = _pipeline_commands(corpus, questions, fold_path, out)
            _run_with_hash_seed(hash_seed, ["-c", _PIPELINE, json.dumps(commands)])
            written.add(tuple(sorted(
                (str(path.relative_to(out)), hashlib.sha256(path.read_bytes()).hexdigest())
                for path in out.rglob("*") if path.is_file())))
        assert len(written) == 1
        assert [name for name, _ in next(iter(written))] == [
            "accuracy.tsv", "assembled.jsonl", "audit.jsonl", "audit_single.jsonl",
            "idx/index.hopidx", "idx/rejections.tsv", "overlap.tsv", "pools.jsonl",
            "ranked.jsonl", "recall.tsv", "recall_single.tsv", "retrieve.jsonl",
            "retrieve_single.jsonl", "stats.jsonl", "validate.jsonl"]

