"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the report lines.
"""

import json
import math
import os
import random
import time

import pytest

from hopkit.cli import main
from hopkit.corpus import Corpus
from hopkit.distractor import multi_adversary_rank
from hopkit.index import build_index, search
from hopkit.qa import load_questions, overlap_stats
from hopkit.retrieval import RetrievalParams, recall_report, two_step
from hopkit.splitter import FOLDS, solve_exact, solve_heuristic
from hopkit.validator import check_composition, check_link, check_question

from conftest import (
    make_question,
    planted_chain_dataset,
    random_corpus,
    random_query,
    random_split_instance,
    save_questions,
    unsourced,
)
from oracles import OracleSearcher, brute_adversary_sort, enumerate_split


def report(criterion: int, description: str, passed: bool) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {criterion}: {description}")
    assert passed, f"criterion {criterion}: {description}"


class TableScorer:
    name = "table"

    def __init__(self, table):
        self.table = table

    def score(self, question, choice_text):
        return self.table[choice_text]


def test_criterion_1_retrieval_oracle_equivalence():
    """two_step equals the brute-force pair enumerator on random corpora."""
    rng = random.Random(101)
    started = time.monotonic()
    params = RetrievalParams()
    sizes = [rng.randint(80, 600) for _ in range(44)] + [1200, 1200, 1200, 2000, 2000, 2000]
    n_queries = 0
    ok = True
    for size in sizes:
        corpus, vocab = random_corpus(rng, size, vocab_size=rng.randint(100, 220))
        index = build_index(corpus)
        oracle = OracleSearcher(corpus)
        for _ in range(10):
            q, a = random_query(rng, vocab)
            n_queries += 1
            got_facts, got_pairs = two_step(index, q, a, params)
            want_facts, want_pairs = oracle.two_step(q, a, params)
            if got_facts != want_facts:
                ok = False
            if [(p.f1, p.f2) for p in got_pairs] != [(p.f1, p.f2) for p in want_pairs]:
                ok = False
            if not all(
                abs(g.score1 - w.score1) <= 1e-9 and abs(g.score2 - w.score2) <= 1e-9
                for g, w in zip(got_pairs, want_pairs)
            ):
                ok = False
            if not ok:
                break
        if not ok:
            break
    elapsed = time.monotonic() - started
    report(
        1,
        f"two_step == brute force on {len(sizes)} corpora / {n_queries} queries "
        f"(ids, order, scores to 1e-9) in {elapsed:.1f}s (< 120s)",
        ok and n_queries == 500 and elapsed < 120.0,
    )


def test_criterion_2_two_step_dominance():
    """Planted 2-hop chains: two-step recall dominates single-step."""
    rng = random.Random(202)
    started = time.monotonic()
    corpus, questions = planted_chain_dataset(rng, n_chains=200, n_noise=9600)
    assert len(corpus) == 10000
    index = build_index(corpus)
    params = RetrievalParams()
    single = recall_report(index, questions, params, "single")
    two = recall_report(index, questions, params, "two")
    elapsed = time.monotonic() - started
    dominance = two.both_found >= 5 * single.both_found and two.both_found > 0
    either_strict = two.either_found > single.either_found
    report(
        2,
        f"both@10 two={two.both_found:.3f} vs single={single.both_found:.3f} (>=5x), "
        f"either@10 two={two.either_found:.3f} > single={single.either_found:.3f}, "
        f"{elapsed:.1f}s (< 60s)",
        dominance and either_strict and elapsed < 60.0,
    )


def test_criterion_3_bm25_golden_values():
    """Ten hand-computed scores on a five-sentence corpus, to 1e-9."""
    corpus = Corpus.from_texts(
        [
            "wind wind turbin",
            "wind solar panel",
            "solar panel panel storm",
            "river rock",
            "storm rain wind rock",
        ]
    )
    index = build_index(corpus)
    # by-hand ingredients: N=5, avg_len=16/5, K(dl)=1.2*(0.25+0.75*dl/3.2)
    ln = math.log

    def idf(df):
        return ln(1 + (5 - df + 0.5) / (df + 0.5))

    def w(tf, dl):
        return tf * 2.2 / (tf + 1.2 * (1 - 0.75 + 0.75 * dl / 3.2))

    goldens = [
        ({"wind"}, 0, idf(3) * w(2, 3), 0.754380788302),
        ({"wind"}, 1, idf(3) * w(1, 3), 0.553139266058),
        ({"wind"}, 4, idf(3) * w(1, 4), 0.488986516129),
        ({"turbin"}, 0, idf(1) * w(1, 3), 1.422669431820),
        ({"solar", "panel"}, 2, idf(2) * w(2, 4) + idf(2) * w(1, 4), 1.918929444025),
        ({"solar", "panel"}, 1, idf(2) * w(1, 3) + idf(2) * w(1, 3), 1.796880440516),
        ({"river"}, 3, idf(1) * w(1, 2), 1.637502064142),
        ({"rock", "rain"}, 4, idf(1) * w(1, 4) + idf(2) * w(1, 4), 2.051908790368),
        ({"storm"}, 2, idf(2) * w(1, 4), 0.794239679249),
        ({"wind", "turbin", "solar"}, 0, idf(1) * w(1, 3) + idf(3) * w(2, 3), 2.177050220122),
    ]
    ok = True
    for query, doc_id, formula_value, frozen_value in goldens:
        hits = search(index, dict.fromkeys(query, 1), index.n_docs)
        got = {h.sentence_id: h.score for h in hits}.get(doc_id, 0.0)
        if abs(got - formula_value) > 1e-9 or abs(got - frozen_value) > 1e-9:
            ok = False
    report(3, "10 hand-computed BM25 scores match to 1e-9", ok)


def test_criterion_4_multi_adversary_ranking():
    """Fuzzed ranking equals brute-force sort; fooled counts survive
    strictly increasing per-scorer transforms."""
    rng = random.Random(404)
    question = make_question("q", "stem", "answer", ["filler"])
    ok = True
    for _ in range(1000):
        candidates = [f"c{i:02d}" for i in range(30)]
        tables = [
            {text: rng.uniform(-3, 3) for text in candidates + ["answer"]}
            for _ in range(2)
        ]
        ranked = multi_adversary_rank(
            [TableScorer(t) for t in tables], question, unsourced(candidates)
        )
        answer_scores = [t["answer"] for t in tables]
        expected = brute_adversary_sort(
            [(text, [t[text] for t in tables], answer_scores) for text in candidates]
        )
        if [(c.text, c.fooled_count) for c in ranked] != [
            (text, fooled) for text, fooled, _ in expected
        ]:
            ok = False
            break
        if not all(
            abs(c.margin_sum - margin) <= 1e-12
            for c, (_, _, margin) in zip(ranked, expected)
        ):
            ok = False
            break

    def sample_transform():
        kind = rng.randrange(4)
        a, b = rng.uniform(0.1, 4.0), rng.uniform(-2.0, 2.0)
        if kind == 0:
            return lambda x: a * x + b
        if kind == 1:
            return lambda x: x**3 + a * x + b
        if kind == 2:
            return lambda x: math.tanh(a * x) + b
        return lambda x: math.exp(a * x)

    transform_ok = True
    candidates = [f"c{i:02d}" for i in range(30)]
    base = [
        {text: rng.uniform(-2, 2) for text in candidates + ["answer"]}
        for _ in range(2)
    ]
    baseline = {
        c.text: c.fooled_count
        for c in multi_adversary_rank(
            [TableScorer(t) for t in base], question, unsourced(candidates)
        )
    }
    for _ in range(100):
        f0, f1 = sample_transform(), sample_transform()
        warped = [
            {text: f0(v) for text, v in base[0].items()},
            {text: f1(v) for text, v in base[1].items()},
        ]
        ranked = multi_adversary_rank(
            [TableScorer(t) for t in warped], question, unsourced(candidates)
        )
        if {c.text: c.fooled_count for c in ranked} != baseline:
            transform_ok = False
            break
    report(
        4,
        "1000 fuzzed rankings == brute-force sort; fooled counts invariant "
        "under 100 strictly-increasing transforms",
        ok and transform_ok,
    )


def test_criterion_5_splitter_optimality():
    """Exact solver matches 3^n enumeration; heuristic lands within 5% on
    at least 90%; reported assignments respect the mass bands or are
    flagged infeasible."""
    rng = random.Random(505)
    started = time.monotonic()
    exact_ok = True
    flags_ok = True
    gaps = []
    n_feasible = 0
    for trial in range(50):
        n_facts = rng.randint(5, 12)
        if trial % 10 == 9:
            # unconstructed instance: may be infeasible
            from collections import Counter as _Counter

            from hopkit.splitter import SeedFact, SplitProblem

            facts = [
                SeedFact(f"f{i:02d}", rng.randint(1, 40), _Counter())
                for i in range(n_facts)
            ]
            sim = {
                (i, k): rng.uniform(10.0, 60.0)
                for i in range(n_facts)
                for k in range(i + 1, n_facts)
                if rng.random() < 0.3
            }
            problem = SplitProblem(facts, sim)
        else:
            problem = random_split_instance(rng, n_facts)
        exact = solve_exact(problem)
        best_viol, best_obj, feasible = enumerate_split(problem)
        if exact.feasible != feasible:
            exact_ok = False
        if feasible and not math.isclose(exact.objective, best_obj, rel_tol=1e-9, abs_tol=1e-9):
            exact_ok = False
        # mass-band audit of whatever the solvers report
        for assignment in (exact, solve_heuristic(problem, seed=trial, iterations=6000, restarts=10)):
            masses = [0.0, 0.0, 0.0]
            for fact in problem.facts:
                masses[FOLDS.index(assignment.fold_of[fact.id])] += fact.question_count
            bands = problem.mass_bounds()
            within = all(lo <= mass <= hi for mass, (lo, hi) in zip(masses, bands))
            if assignment.feasible != within:
                flags_ok = False
            if feasible and assignment is not exact:
                n_feasible += 1
                gaps.append(
                    (assignment.objective - best_obj) / best_obj if best_obj else
                    (0.0 if assignment.objective == 0 else math.inf)
                )
    within5 = sum(gap <= 0.05 + 1e-12 for gap in gaps)
    heuristic_ok = n_feasible > 0 and within5 >= 0.9 * n_feasible
    elapsed = time.monotonic() - started
    report(
        5,
        f"exact == enumeration on 50 instances; heuristic within 5% on "
        f"{within5}/{n_feasible} feasible instances (>=90%); mass bands "
        f"respected or flagged; {elapsed:.1f}s (< 300s)",
        exact_ok and flags_ok and heuristic_ok and elapsed < 300.0,
    )


def test_criterion_6_validator_pesticide_walkthrough():
    """The composition-quality walkthrough reproduces exactly."""
    fs = "pesticides cause pollution"
    fl = "Air pollution harms animals"
    fc = "pesticides can harm animals"
    stem_text = "What can harm animals?"
    tigers_rejected = not check_link(fs, "Tigers are fierce and harmful animals").passed
    pollutants_rejected = not check_composition(fs, fl, "pollutants can harm animals").passed
    pollution_rejected = not check_question(fs, fl, fc, stem_text, "pollution").passed
    pesticides_accepted = check_question(fs, fl, fc, stem_text, "pesticides").passed
    report(
        6,
        "tigers fL rejected; pollutants fc rejected; answer 'pollution' "
        "rejected; answer 'pesticides' accepted",
        tigers_rejected and pollutants_rejected and pollution_rejected and pesticides_accepted,
    )


def test_criterion_7_cli_determinism(tmp_path):
    """distract assemble and split solve --heuristic are byte-identical
    across reruns with the same seed."""
    questions = [
        make_question(
            f"q{i:03d}",
            f"what is thing number {i} made of?",
            f"answer{i:03d}",
            [f"human distractor {i}"],
            fact1=f"thing{i} relates to matter{i} strongly",
            fact2=f"matter{i} builds answer{i:03d} pieces",
        )
        for i in range(12)
    ]
    dataset = tmp_path / "fold.jsonl"
    save_questions(questions, dataset)
    pools = tmp_path / "pools.jsonl"
    assert main(["distract", "gen", "--dataset", str(dataset), "--out", str(pools)]) == 0
    ranked = tmp_path / "ranked.jsonl"
    corpus_file = tmp_path / "corpus.txt"
    corpus_file.write_text(
        "".join(f"The answer{i:03d} block rests on granite slabs.\n" for i in range(12)),
        "utf-8",
    )
    idx = tmp_path / "idx"
    assert main(["index", "build", "--corpus", str(corpus_file), "--out", str(idx)]) == 0
    assert main([
        "distract", "rank", "--dataset", str(dataset), "--pools", str(pools),
        "--scorer", f"ir:{idx}", "--scorer", f"ir:{idx}", "--out", str(ranked),
    ]) == 0
    outs = []
    for run in ("a", "b"):
        out = tmp_path / f"assembled-{run}.jsonl"
        assert main([
            "distract", "assemble", "--dataset", str(dataset), "--ranked", str(ranked),
            "--seed", "13", "--out", str(out),
        ]) == 0
        outs.append(out.read_bytes())
    assemble_same = outs[0] == outs[1]

    facts = tmp_path / "facts.jsonl"
    rows = [
        {"id": f"f{i}", "text": f"topic{i % 4} concept{i} detail{i}", "questions": c}
        for i, c in enumerate([39, 39, 6, 5, 6, 5])
    ]
    facts.write_text("".join(json.dumps(r) + "\n" for r in rows), "utf-8")
    split_outs = []
    for run in ("a", "b"):
        prefix = tmp_path / f"split-{run}"
        assert main([
            "split", "solve", "--facts", str(facts), "--heuristic", "--seed", "31",
            "--prune-threshold", "0.01", "--out", str(prefix),
        ]) == 0
        split_outs.append(
            (tmp_path / f"split-{run}.json").read_bytes()
            + (tmp_path / f"split-{run}.tsv").read_bytes()
        )
    split_same = split_outs[0] == split_outs[1]
    report(7, "assemble and heuristic split byte-identical for a fixed seed",
           assemble_same and split_same)


RELEASED_DEV = os.environ.get("HOPKIT_DEV_JSONL")


@pytest.mark.skipif(
    not RELEASED_DEV,
    reason="optional dataset-dependent check; set HOPKIT_DEV_JSONL to the released dev file",
)
def test_criterion_8_released_dev_overlap_reproduction():
    """Overlap statistics reproduce the published reference values."""
    questions = load_questions(RELEASED_DEV)
    stats = overlap_stats(questions)
    targets = {2: 0.486, 3: 0.825, 4: 0.963}
    deviations = {
        k: abs(stats.fraction_below[k] - target) for k, target in targets.items()
    }
    mean_dev = (abs(stats.mean_fact1 - 3.17), abs(stats.mean_fact2 - 1.98))
    print(
        "criterion 8 detail: fractions "
        + ", ".join(f"<{k}: {stats.fraction_below[k]:.3f} (dev {d:.3f})" for k, d in deviations.items())
        + f"; means {stats.mean_fact1:.2f}/{stats.mean_fact2:.2f}"
    )
    report(
        8,
        "overlap stats within 2 points / 0.3 tokens of the published table",
        all(d <= 0.02 for d in deviations.values()) and all(d <= 0.3 for d in mean_dev),
    )
