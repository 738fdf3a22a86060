import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hopkit.corpus
from hopkit.corpus import Corpus, stem_set
from hopkit.index import build_index
from hopkit.retrieval import (
    RetrievalParams,
    intermediate_diff,
    query_tokens,
    recall_report,
    single_step,
    two_step,
)

from conftest import (
    FIG1_ANSWER,
    FIG1_FC,
    FIG1_FL,
    FIG1_FS,
    FIG1_QUESTION,
    make_question,
    planted_chain_dataset,
    query_words,
    random_corpus,
    random_query,
    small_corpora,
)
from oracles import brute_two_step


class TestQueryTokens:
    def test_antigen_query(self):
        bag = query_tokens("What can trigger immune response?", "Transplanted organs")
        assert bag == Counter(
            {"trigger": 1, "immun": 1, "respons": 1, "transplant": 1, "organ": 1}
        )

    def test_empty(self):
        assert query_tokens("", "") == Counter()

    def test_counts_union(self):
        assert query_tokens("wind", "wind") == Counter({"wind": 2})


class TestIntermediateDiff:
    def test_fig1_differences(self):
        query_bag = frozenset(query_tokens(FIG1_QUESTION, FIG1_ANSWER))
        q_minus, f_minus = intermediate_diff(query_bag, FIG1_FS)
        # note: the Porter stem of "harnessed" is "har" (step 3 strips -ness)
        assert q_minus == {"har", "electr", "product"}
        assert f_minus == {"produc", "wind"}

    def test_sentence_subset_of_query(self):
        query_bag = frozenset({"wind", "turbin", "power"})
        q_minus, f_minus = intermediate_diff(query_bag, "wind turbine")
        assert q_minus == {"power"}
        assert f_minus == frozenset()

    def test_disjoint(self):
        query_bag = frozenset({"wind"})
        q_minus, f_minus = intermediate_diff(query_bag, "solar panel")
        assert q_minus == {"wind"}
        assert f_minus == {"solar", "panel"}


class TestSingleStep:
    def test_fig1_excludes_unlinked_fact(self, mini_index):
        hits = single_step(mini_index, FIG1_QUESTION, FIG1_ANSWER, 10)
        texts = [mini_index.corpus[h.sentence_id] for h in hits]
        assert FIG1_FC in texts  # overlaps both sides
        assert FIG1_FL not in texts  # no question overlap
        assert FIG1_FS not in texts  # no answer overlap

    def test_empty_corpus(self):
        index = build_index(Corpus.from_texts([]))
        assert single_step(index, "wind", "electricity", 10) == []

    def test_m_one_takes_top_hit(self):
        rng = random.Random(5)
        corpus, vocab = random_corpus(rng, 120)
        index = build_index(corpus)
        q, a = vocab[0] + " " + vocab[1], vocab[2]
        full = single_step(index, q, a, 50)
        if full:
            assert single_step(index, q, a, 1) == full[:1]


class TestTwoStep:
    def test_fig1_pair_recovered(self, mini_index):
        facts, pairs = two_step(mini_index, FIG1_QUESTION, FIG1_ANSWER)
        corpus = mini_index.corpus
        fs = corpus.id_of_text(FIG1_FS)
        fl = corpus.id_of_text(FIG1_FL)
        assert any(p.f1 == fs and p.f2 == fl for p in pairs)
        assert fs in facts and fl in facts

    def test_antigen_pair_recovered(self, mini_index):
        corpus = mini_index.corpus
        facts, pairs = two_step(
            mini_index, "What can trigger immune response?", "Transplanted organs"
        )
        fs = corpus.id_of_text(
            "Antigens are found on cancer cells and the cells of transplanted organs."
        )
        fl = corpus.id_of_text(
            "Anything that can trigger an immune response is called an antigen."
        )
        assert fs in facts and fl in facts
        assert any({p.f1, p.f2} == {fs, fl} for p in pairs)

    def test_no_answer_overlap_yields_empty(self):
        corpus = Corpus.from_texts(
            ["wind turns the turbine.", "turbine blades are long."]
        )
        index = build_index(corpus)
        facts, pairs = two_step(index, "what turns the turbine", "zorblat fuel")
        assert pairs == []
        assert facts == []

    def test_fact_list_unique_and_bounded(self):
        rng = random.Random(29)
        corpus, vocab = random_corpus(rng, 300)
        index = build_index(corpus)
        for _ in range(25):
            q, a = random_query(rng, vocab)
            facts, _ = two_step(index, q, a, RetrievalParams(m=7))
            assert len(facts) <= 7
            assert len(facts) == len(set(facts))

    def test_emitted_pairs_satisfy_step_constraints(self):
        rng = random.Random(31)
        corpus, vocab = random_corpus(rng, 250)
        index = build_index(corpus)
        checked = 0
        for _ in range(40):
            q, a = random_query(rng, vocab)
            query_bag = query_tokens(q, a)
            _, pairs = two_step(index, q, a)
            qa_stems = stem_set(q) | stem_set(a)
            for pair in pairs:
                assert pair.f1 != pair.f2
                f1_keys = stem_set(corpus[pair.f1])
                f2_keys = stem_set(corpus[pair.f2])
                q_minus = frozenset(query_bag) - f1_keys
                f_minus = f1_keys - frozenset(query_bag)
                assert q_minus & f2_keys, "second hop must cover an uncovered query token"
                assert f_minus & f2_keys, "second hop must touch a newly introduced token"
                assert qa_stems & f2_keys, "step-3 overlap with q or a"
                assert pair.pair_score == pair.score1 + pair.score2
                checked += 1
        assert checked > 50

    def test_matches_brute_force_smoke(self):
        rng = random.Random(37)
        for _ in range(6):
            corpus, vocab = random_corpus(rng, rng.randint(50, 300))
            index = build_index(corpus)
            for _ in range(5):
                q, a = random_query(rng, vocab)
                params = RetrievalParams(k=10, l=3, m=8)
                got_facts, got_pairs = two_step(index, q, a, params)
                want_facts, want_pairs = brute_two_step(corpus, q, a, params)
                assert got_facts == want_facts
                assert [(p.f1, p.f2) for p in got_pairs] == [
                    (p.f1, p.f2) for p in want_pairs
                ]
                for got, want in zip(got_pairs, want_pairs):
                    assert got.score1 == pytest.approx(want.score1, abs=1e-9)
                    assert got.score2 == pytest.approx(want.score2, abs=1e-9)

    @given(
        corpus=small_corpora(),
        q=st.lists(query_words, min_size=1, max_size=5).map(" ".join),
        a=st.lists(query_words, min_size=1, max_size=3).map(" ".join),
        k=st.integers(1, 10),
        l=st.integers(1, 5),
        m=st.integers(1, 10),
    )
    @settings(max_examples=300, deadline=None)
    def test_property_equals_brute_force_exactly(self, corpus, q, a, k, l, m):
        params = RetrievalParams(k=k, l=l, m=m)
        got = two_step(build_index(corpus), q, a, params)
        assert got == brute_two_step(corpus, q, a, params)

    def test_params_validated(self):
        with pytest.raises(ValueError):
            RetrievalParams(k=0)
        with pytest.raises(ValueError):
            RetrievalParams(m=-1)


class TestRecallReport:
    def test_planted_chains_match_oracle(self):
        rng = random.Random(41)
        corpus, questions = planted_chain_dataset(rng, n_chains=30, n_noise=400)
        index = build_index(corpus)
        params = RetrievalParams()
        report = recall_report(index, questions, params, "two")
        both = either = 0
        for question in questions:
            gold1 = corpus.id_of_text(question.fact1)
            gold2 = corpus.id_of_text(question.fact2)
            facts, _ = brute_two_step(corpus, question.stem, question.answer_text, params)
            found = [gold1 in facts, gold2 in facts]
            both += all(found)
            either += any(found)
        assert report.n_resolvable == len(questions)
        assert report.both_count == both
        assert report.either_count == either
        assert report.both_found == pytest.approx(both / len(questions))

    def test_two_step_dominates_on_planted_chains(self):
        rng = random.Random(43)
        corpus, questions = planted_chain_dataset(rng, n_chains=25, n_noise=300)
        index = build_index(corpus)
        single = recall_report(index, questions, RetrievalParams(), "single")
        two = recall_report(index, questions, RetrievalParams(), "two")
        # second facts share nothing with the question, so single-step
        # cannot retrieve them at all
        assert single.both_count == 0
        assert two.both_found >= 0.8
        assert two.either_found > single.either_found

    def test_two_step_keeps_no_question_text_in_the_stem_set_memo(self, monkeypatch):
        # each question and answer is asked about once per run, so a memo
        # entry for it would never be hit again
        forms = hopkit.corpus._NormalForms(hopkit.corpus.STOPWORDS, hopkit.corpus.stem)
        monkeypatch.setattr(hopkit.corpus, "_normal_forms", forms)
        corpus, questions = planted_chain_dataset(random.Random(47), n_chains=10, n_noise=100)
        report = recall_report(build_index(corpus), questions, RetrievalParams(), "two")
        assert report.n_resolvable == len(questions)
        texts = {text for q in questions for text in (q.stem, q.answer_text)}
        assert hopkit.corpus._normal_forms is forms
        assert texts.isdisjoint(forms.sets)

    def test_unresolvable_gold_facts_tallied(self, mini_index):
        questions = [
            make_question(
                "q1",
                "What produces wind?",
                "differential heating",
                distractors=["ocean tides"],
                fact1="A sentence that is not in the corpus.",
                fact2=FIG1_FL,
            )
        ]
        report = recall_report(mini_index, questions, RetrievalParams(), "two")
        assert report.n_unresolvable == 1
        assert report.n_resolvable == 0
        assert report.both_found == 0.0
        assert report.either_found == 0.0

    def test_tsv_shape(self, mini_index):
        questions = [
            make_question(
                "q1",
                FIG1_QUESTION,
                FIG1_ANSWER,
                distractors=["reduce acidity of food"],
                fact1=FIG1_FS,
                fact2=FIG1_FL,
            )
        ]
        report = recall_report(mini_index, questions, RetrievalParams(), "two")
        assert report.both_count == 1
        lines = report.to_tsv().splitlines()
        assert lines[0] == "metric\tm\tvalue\tnumerator\tdenominator"
        assert lines[1].startswith("both_found\t10\t1.000000000\t1\t1")
        assert len(report.per_question) == 1

    def test_mode_validated(self, mini_index):
        with pytest.raises(ValueError):
            recall_report(mini_index, [], RetrievalParams(), "three")
