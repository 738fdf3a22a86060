import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopkit.distractor import (
    AdversarialConfig,
    assemble_8way,
    candidate_pool_with_sources,
    multi_adversary_rank,
    prune_by_scorer,
    question_similarity,
    rank_by_dissimilarity,
)
from hopkit.errors import HopkitError, InsufficientCandidatesError

from conftest import make_question, unsourced
from oracles import brute_adversary_sort, brute_rank_by_dissimilarity, text_set_prune_then_rank


class TableScorer:
    name = "table"

    def __init__(self, table, default=0.0):
        self.table = table
        self.default = default

    def score(self, question, choice_text):
        return self.table.get(choice_text, self.default)


def question_with_facts(qid, answer, fact1, fact2, distractors=("filler choice",)):
    return make_question(
        qid, f"stem of {qid}", answer, list(distractors), fact1=fact1, fact2=fact2
    )


class TestQuestionSimilarity:
    def test_identical_fact_pairs_maximal(self):
        q1 = question_with_facts("q1", "a", "zoka flerb binda", "drant mulo")
        q2 = question_with_facts("q2", "b", "zoka flerb binda", "drant mulo")
        q3 = question_with_facts("q3", "c", "zoka grinta wopple", "other stuff")
        assert question_similarity(q1, q2) == 5
        assert question_similarity(q1, q2) > question_similarity(q1, q3)

    def test_disjoint_zero(self):
        q1 = question_with_facts("q1", "a", "zoka flerb", "binda mulo")
        q2 = question_with_facts("q2", "b", "drant wopple", "grinta vask")
        assert question_similarity(q1, q2) == 0

    def test_fig1_vs_antigen_facts(self):
        q1 = question_with_facts(
            "q1", "electricity production",
            "Differential heating of air produces wind.",
            "Wind is used for producing electricity.",
        )
        q2 = question_with_facts(
            "q2", "Transplanted organs",
            "Antigens are found on cancer cells and the cells of transplanted organs.",
            "Anything that can trigger an immune response is called an antigen.",
        )
        # hand stem intersection: the two fact-pair vocabularies are disjoint
        assert question_similarity(q1, q2) == 0

    def test_missing_facts_error_names_question(self):
        q1 = question_with_facts("q1", "a", "zoka", "mulo")
        q2 = make_question("q-broken", "stem", "a", ["b"])
        with pytest.raises(HopkitError, match="q-broken"):
            question_similarity(q1, q2)

    def test_rank_ascending_similarity_ties_by_id(self):
        base = question_with_facts("base", "a", "zoka flerb", "binda")
        near = question_with_facts("q-near", "b", "zoka flerb", "grinta")
        far_b = question_with_facts("q-far-b", "c", "drant", "wopple")
        far_a = question_with_facts("q-far-a", "d", "vask", "mulo")
        ranked = rank_by_dissimilarity(base, [base, near, far_b, far_a])
        assert [q.id for q in ranked] == ["q-far-a", "q-far-b", "q-near"]

    @given(facts=st.lists(
        st.tuples(*[st.lists(st.sampled_from("zoka flerb binda drant mulo vask".split()),
                             min_size=1, max_size=4).map(" ".join)] * 2),
        min_size=1, max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_rank_equals_retokenizing_reference(self, facts):
        fold = [question_with_facts(f"q{i:02d}", "a", f1, f2) for i, (f1, f2) in enumerate(facts)]
        for question in fold:
            assert rank_by_dissimilarity(question, fold) == brute_rank_by_dissimilarity(
                question, fold)

    def test_rank_names_question_missing_facts_after_others_were_seen(self):
        base = question_with_facts("base", "a", "zoka flerb", "binda")
        near = question_with_facts("q-near", "b", "zoka flerb", "grinta")
        rank_by_dissimilarity(base, [base, near])
        broken = make_question("q-broken", "stem", "a", ["b"], fact1="zoka flerb")
        with pytest.raises(HopkitError, match="q-broken"):
            rank_by_dissimilarity(base, [base, near, broken])


def pool_texts(question, fold, config):
    return [text for text, _ in candidate_pool_with_sources(question, fold, config)]


def build_fold(n=40, seed=1):
    """Fold of questions with disjoint fact vocabularies and 1-token answers."""
    rng = random.Random(seed)
    fold = []
    for i in range(n):
        fold.append(
            question_with_facts(
                f"q{i:03d}",
                f"answer{i:03d}",
                f"fact{i} alpha{i} beta{i}",
                f"gamma{i} delta{i}",
            )
        )
    rng.shuffle(fold)
    return fold


class TestCandidatePool:
    def test_length_rules_from_worked_example(self):
        question = question_with_facts("base", "pesticides", "zoka flerb", "binda")
        others = [
            question_with_facts("q1", "manure", "aa bb", "cc"),
            question_with_facts("q2", "a very long answer phrase here", "dd ee", "ff"),
            question_with_facts("q3", "hay", "gg hh", "ii"),
        ]
        config = AdversarialConfig(pool_dissimilar_n=300, target_ways=2)
        pool = pool_texts(question, [question] + others, config)
        assert "manure" in pool  # 6 chars >= 10 * 0.5, token count within slack
        assert "a very long answer phrase here" not in pool  # token slack
        assert "hay" not in pool  # 3 chars < 5, char-ratio slack

    def test_pool_never_contains_existing_choices(self):
        fold = build_fold()
        question = fold[0]
        clone = question_with_facts("clone", question.answer_text.upper(), "zz yy", "xx")
        pool = pool_texts(question, fold + [clone], AdversarialConfig(target_ways=4))
        lowered = {text.casefold() for text in pool}
        for choice in question.choices:
            assert choice.text.casefold() not in lowered

    def test_dedup_case_insensitive(self):
        question = question_with_facts("base", "pesticides", "zoka", "binda")
        others = [
            question_with_facts("q1", "Manure", "aa", "cc"),
            question_with_facts("q2", "manure", "dd", "ff"),
            question_with_facts("q3", "grain", "gg", "ii"),
        ]
        pool = pool_texts(question, others, AdversarialConfig(target_ways=2))
        assert sorted(pool) == ["Manure", "grain"]

    def test_all_candidates_equal_answer_errors(self):
        question = question_with_facts("base", "pesticides", "zoka", "binda")
        others = [question_with_facts(f"q{i}", "Pesticides", f"a{i}", f"b{i}") for i in range(5)]
        with pytest.raises(InsufficientCandidatesError, match="relax"):
            candidate_pool_with_sources(question, others, AdversarialConfig(target_ways=2))

    def test_pool_n_larger_than_fold_uses_all(self):
        fold = build_fold(n=10)
        pool = pool_texts(
            fold[0], fold, AdversarialConfig(pool_dissimilar_n=5000, target_ways=8)
        )
        assert len(pool) == 9

    def test_sources_track_question_ids(self):
        fold = build_fold(n=12)
        pairs = candidate_pool_with_sources(
            fold[0], fold, AdversarialConfig(target_ways=8)
        )
        by_id = {q.id: q for q in fold}
        for text, source in pairs:
            assert by_id[source].answer_text == text


class TestPruneByScorer:
    def test_keeps_top_thirty_of_forty(self):
        question = make_question("q", "stem", "answer", ["x"])
        candidates = [f"cand{i:02d}" for i in range(40)]
        table = {text: float(i) for i, text in enumerate(candidates)}
        kept = prune_by_scorer(TableScorer(table), question, unsourced(candidates), 30)
        assert len(kept) == 30
        assert kept[0] == ("cand39", "")
        assert set(kept) == set(unsourced(f"cand{i:02d}" for i in range(10, 40)))

    def test_fewer_than_keep_top(self):
        question = make_question("q", "stem", "answer", ["x"])
        scorer = TableScorer({"b": 2.0, "a": 1.0})
        kept = prune_by_scorer(scorer, question, unsourced(["a", "b"]), 30)
        assert kept == unsourced(["b", "a"])

    def test_equal_scores_lexicographic(self):
        question = make_question("q", "stem", "answer", ["x"])
        kept = prune_by_scorer(TableScorer({}), question, unsourced(["pear", "apple", "fig"]), 2)
        assert kept == unsourced(["apple", "fig"])

    @pytest.mark.parametrize("order", ["abcd", "dcba", "bdac", "cadb"])
    def test_nan_score_raises_in_any_order(self, order):
        # a NaN sort key made the kept set depend on the input order, and a
        # NaN candidate pruned away raised nothing
        question = make_question("q", "stem", "answer", ["x"])
        scorer = TableScorer({"a": 3.0, "b": math.nan, "c": 2.0, "d": 1.0})
        scorer.name = "nan-model"
        with pytest.raises(HopkitError, match="nan-model.*'b'"):
            prune_by_scorer(scorer, question, unsourced(order), 2)


# Scores drawn from a few values force ties at the prune cut and between the
# answer and a candidate; the wide range gives random, mostly distinct scores.
SCORES = st.one_of(st.sampled_from([-1.0, 0.0, 0.5, 1.0]), st.floats(-3.0, 3.0))


@given(
    texts=st.lists(st.text("abc", min_size=1, max_size=3), unique=True, max_size=12),
    data=st.data(),
)
@settings(max_examples=300, deadline=None)
def test_prune_then_rank_equals_text_set_reference(texts, data):
    question = make_question("q", "stem", "answer", ["x"])
    candidates = [(text, data.draw(st.sampled_from(["", "q1", "q2"]))) for text in texts]
    scorers = [
        TableScorer({text: data.draw(SCORES) for text in texts + ["answer"]})
        for _ in range(data.draw(st.integers(1, 3)))
    ]
    keep_top = data.draw(st.integers(1, len(texts) + 2))
    kept = prune_by_scorer(scorers[0], question, candidates, keep_top)
    ranked = multi_adversary_rank(scorers, question, kept)
    assert [(c.text, c.source_question_id, c.fooled_count, c.margin_sum) for c in ranked] == (
        text_set_prune_then_rank(scorers, question, candidates, keep_top))


class TestMultiAdversaryRank:
    def test_worked_example(self):
        question = make_question("q", "stem", "answer", ["x"])
        scorers = [
            TableScorer({"answer": 0.6, "d1": 0.7, "d2": 0.65}),
            TableScorer({"answer": 0.5, "d1": 0.4, "d2": 0.55}),
        ]
        ranked = multi_adversary_rank(scorers, question, unsourced(["d1", "d2"]))
        assert [c.text for c in ranked] == ["d2", "d1"]
        d2, d1 = ranked
        assert d2.fooled_count == 2 and d2.margin_sum == pytest.approx(0.1)
        assert d1.fooled_count == 1 and d1.margin_sum == pytest.approx(0.0)

    def test_never_fooling_ranks_last(self):
        question = make_question("q", "stem", "answer", ["x"])
        scorers = [
            TableScorer({"answer": 1.0, "weak": 0.1, "strong": 2.0}),
            TableScorer({"answer": 1.0, "weak": 0.2, "strong": 0.5}),
        ]
        ranked = multi_adversary_rank(scorers, question, unsourced(["weak", "strong"]))
        assert [c.text for c in ranked] == ["strong", "weak"]
        assert ranked[-1].fooled_count == 0

    def test_k1_degenerates_to_margin_sort_within_fooled(self):
        question = make_question("q", "stem", "answer", ["x"])
        scorer = TableScorer({"answer": 1.0, "a": 1.5, "b": 1.2, "c": 0.3})
        ranked = multi_adversary_rank([scorer], question, unsourced(["a", "b", "c"]))
        assert [c.text for c in ranked] == ["a", "b", "c"]
        assert [c.fooled_count for c in ranked] == [1, 1, 0]

    def test_fuzz_matches_brute_force_sort(self):
        rng = random.Random(51)
        question = make_question("q", "stem", "answer", ["x"])
        for _ in range(100):
            candidates = [f"c{i:02d}" for i in range(30)]
            tables = [
                {text: rng.uniform(-2, 2) for text in candidates + ["answer"]}
                for _ in range(2)
            ]
            scorers = [TableScorer(t) for t in tables]
            ranked = multi_adversary_rank(scorers, question, unsourced(candidates))
            answer_scores = [t["answer"] for t in tables]
            expected = brute_adversary_sort(
                [(text, [t[text] for t in tables], answer_scores) for text in candidates]
            )
            assert [(c.text, c.fooled_count) for c in ranked] == [
                (text, fooled) for text, fooled, _ in expected
            ]
            for got, want in zip(ranked, expected):
                assert got.margin_sum == pytest.approx(want[2], abs=1e-12)

    def test_fooled_count_invariant_under_monotone_transforms(self):
        rng = random.Random(53)
        question = make_question("q", "stem", "answer", ["x"])
        candidates = [f"c{i}" for i in range(12)]
        base = [
            {text: rng.uniform(-1, 1) for text in candidates + ["answer"]}
            for _ in range(2)
        ]
        baseline = {
            c.text: c.fooled_count
            for c in multi_adversary_rank(
                [TableScorer(t) for t in base], question, unsourced(candidates)
            )
        }
        transforms = [
            lambda x: 3.0 * x + 7.0,
            lambda x: x**3 + x,
            math.tanh,
            lambda x: math.exp(0.5 * x),
        ]
        for k0 in transforms:
            for k1 in transforms:
                warped = [
                    {text: k0(v) for text, v in base[0].items()},
                    {text: k1(v) for text, v in base[1].items()},
                ]
                ranked = multi_adversary_rank(
                    [TableScorer(t) for t in warped], question, unsourced(candidates)
                )
                assert {c.text: c.fooled_count for c in ranked} == baseline

    def test_full_ranking_invariant_under_per_scorer_additive_shifts(self):
        rng = random.Random(57)
        question = make_question("q", "stem", "answer", ["x"])
        candidates = [f"c{i}" for i in range(15)]
        base = [
            {text: rng.uniform(-1, 1) for text in candidates + ["answer"]}
            for _ in range(2)
        ]
        reference = multi_adversary_rank(
            [TableScorer(t) for t in base], question, unsourced(candidates)
        )
        for _ in range(20):
            shifts = (rng.uniform(-10, 10), rng.uniform(-10, 10))
            shifted = [
                {text: v + shifts[k] for text, v in base[k].items()} for k in range(2)
            ]
            ranked = multi_adversary_rank(
                [TableScorer(t) for t in shifted], question, unsourced(candidates)
            )
            assert [c.text for c in ranked] == [c.text for c in reference]
            for got, ref in zip(ranked, reference):
                assert got.margin_sum == pytest.approx(ref.margin_sum, abs=1e-9)

    def test_margin_tie_break_not_preserved_by_scaling(self):
        # within equal fooled counts, a per-scorer positive scale can flip
        # the margin order, unlike an additive shift
        question = make_question("q", "stem", "answer", ["x"])
        base = [
            {"answer": 0.0, "d1": 1.0, "d2": -0.5},
            {"answer": 0.0, "d1": -2.0, "d2": 0.3},
        ]
        ranked = multi_adversary_rank(
            [TableScorer(t) for t in base], question, unsourced(["d1", "d2"])
        )
        assert [c.fooled_count for c in ranked] == [1, 1]
        assert [c.text for c in ranked] == ["d2", "d1"]  # margins -0.2 vs -1.0
        scaled = [base[0], {k: v * 0.01 for k, v in base[1].items()}]
        reranked = multi_adversary_rank(
            [TableScorer(t) for t in scaled], question, unsourced(["d1", "d2"])
        )
        assert [c.text for c in reranked] == ["d1", "d2"]  # margins 0.98 vs -0.497
        # fooled counts still agree with the unscaled instance
        assert {c.text: c.fooled_count for c in reranked} == {
            c.text: c.fooled_count for c in ranked
        }

    @pytest.mark.parametrize(
        "tables, fooled",
        [
            ([{"answer": 1.0}, {"answer": 0.5}], 0),
            ([{"answer": 0.7, "d": 0.7}], 0),
            ([{"answer": 0.7, "d": 0.71}, {"answer": 0.7, "d": 0.69}], 1),
        ],
        ids=["all_false_when_answer_dominates", "equal_scores_do_not_distract",
             "strictly_higher_distracts"],
    )
    def test_fooled_means_strictly_above_the_answer(self, tables, fooled):
        question = make_question("q", "stem", "answer", ["x"])
        scorers = [TableScorer(table) for table in tables]
        [ranked] = multi_adversary_rank(scorers, question, unsourced(["d"]))
        assert ranked.fooled_count == fooled

    def test_non_finite_score_names_scorer_and_candidate(self):
        question = make_question("q", "stem", "answer", ["x"])
        bad = TableScorer({"answer": 1.0, "evil": float("inf")})
        bad.name = "bad-model"
        with pytest.raises(HopkitError, match="bad-model.*evil"):
            multi_adversary_rank([bad], question, unsourced(["evil"]))

    def test_requires_scorers(self):
        question = make_question("q", "stem", "answer", ["x"])
        with pytest.raises(HopkitError):
            multi_adversary_rank([], question, unsourced(["a"]))


class TestAssemble8Way:
    def ranked(self, n=10):
        return [f"distractor {i:02d}" for i in range(n)]

    def test_fills_to_eight_and_preserves_answer(self):
        question = make_question("q", "stem", "the right answer")
        assembled = assemble_8way(question, self.ranked(), 8, shuffle_seed="7:q")
        assert len(assembled.choices) == 8
        assert assembled.answer_text == "the right answer"
        texts = [c.text for c in assembled.choices]
        assert sorted(texts) == sorted(
            ["the right answer"] + [f"distractor {i:02d}" for i in range(7)]
        )
        assert [c.label for c in assembled.choices] == list("ABCDEFGH")

    def test_already_eight_reshuffles_only(self):
        question = make_question("q", "stem", "right", [f"w{i}" for i in range(7)])
        assembled = assemble_8way(question, [], 8, shuffle_seed="3:q")
        assert sorted(c.text for c in assembled.choices) == sorted(
            c.text for c in question.choices
        )
        assert assembled.answer_text == "right"

    def test_fixed_seed_reproducible(self):
        question = make_question("q", "stem", "right")
        first = assemble_8way(question, self.ranked(), 8, shuffle_seed="42:q")
        second = assemble_8way(question, self.ranked(), 8, shuffle_seed="42:q")
        assert first == second
        different = assemble_8way(question, self.ranked(), 8, shuffle_seed="43:q")
        assert [c.text for c in different.choices] != [c.text for c in first.choices]

    def test_insufficient_candidates(self):
        question = make_question("q", "stem", "right")
        with pytest.raises(InsufficientCandidatesError):
            assemble_8way(question, self.ranked(3), 8, shuffle_seed="0:q")

    def test_more_choices_than_the_target_are_refused(self):
        question = make_question("q", "stem", "right", [f"w{i}" for i in range(8)])
        with pytest.raises(HopkitError, match="q already has 9 choices, more than target 8"):
            assemble_8way(question, self.ranked(), 8, shuffle_seed="0:q")

    def test_a_ranked_text_taken_in_another_case_is_skipped(self):
        question = make_question("q", "stem", "Right", ["Wrong"])
        ranked = ["RIGHT", "wrong", "extra", "EXTRA", "more", "last"]
        assembled = assemble_8way(question, ranked, 4, shuffle_seed="0:q")
        assert sorted(c.text for c in assembled.choices) == ["Right", "Wrong", "extra", "more"]

    def test_plain_strings_accepted(self):
        question = make_question("q", "stem", "right")
        assembled = assemble_8way(question, [f"s{i}" for i in range(7)], 8, shuffle_seed="1:q")
        assert len(assembled.choices) == 8


def test_config_validates_positive():
    with pytest.raises(ValueError):
        AdversarialConfig(token_slack=0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_config_rejects_non_finite_values_by_name(value):
    with pytest.raises(ValueError, match="char_ratio_slack must be finite"):
        AdversarialConfig(char_ratio_slack=value)
