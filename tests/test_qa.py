import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopkit.corpus import Corpus, stem_set
from hopkit.errors import HopkitError
from hopkit.index import build_index
from hopkit.qa import (
    Choice,
    FileScorer,
    IRScorer,
    MCQuestion,
    answer,
    emit_score_requests,
    eval_accuracy,
    ir_score,
    load_questions,
    overlap_stats,
    question_from_json,
    question_to_json,
)
from hopkit.retrieval import query_tokens

from conftest import FIG1_ANSWER, FIG1_FC, FIG1_QUESTION, make_question
from oracles import reference_ir_score


class FixedScorer:
    """Scores by (question id, choice text) lookup; missing entries score 0."""

    name = "fixed"

    def __init__(self, table):
        self.table = table

    def score(self, question, choice_text):
        return self.table.get((question.id, choice_text), 0.0)


class TestMCQuestion:
    def test_labels_must_run_from_a(self):
        with pytest.raises(ValueError, match="consecutive"):
            MCQuestion("q", "stem", [Choice("B", "x")], "B")

    def test_answer_key_must_exist(self):
        with pytest.raises(ValueError, match="answer key"):
            MCQuestion("q", "stem", [Choice("A", "x")], "C")

    def test_answer_text(self):
        question = make_question("q", "stem", "right", ["wrong"], answer_pos=1)
        assert question.answer_key == "B"
        assert question.answer_text == "right"


class TestIRScore:
    def test_fig1_choices(self):
        corpus = Corpus.from_texts([FIG1_FC])
        index = build_index(corpus)
        good = ir_score(index, FIG1_QUESTION, FIG1_ANSWER)
        bad = ir_score(index, FIG1_QUESTION, "reduce acidity of food")
        assert good > 0
        assert bad == 0.0

    def test_empty_corpus(self):
        index = build_index(Corpus.from_texts([]))
        assert ir_score(index, FIG1_QUESTION, FIG1_ANSWER) == 0.0

    def test_identical_choices_identical_scores(self, mini_index):
        s1 = ir_score(mini_index, FIG1_QUESTION, "electricity production")
        s2 = ir_score(mini_index, FIG1_QUESTION, "electricity production")
        assert s1 == s2

    def test_nonnegative(self, mini_index):
        assert ir_score(mini_index, "anything about plants", "sunlight energy") >= 0.0


# Words the generated corpora share with the generated questions, and
# pieces for the query-formulation properties: final and medial sigma, "_",
# non-ASCII digits, apostrophes and control characters.
IR_WORDS = (
    "wind", "Wind", "winds", "heat", "heating", "air", "produces", "electricity",
    "ΟΔΟΣ", "οδος", "don't", "٣",
)
IR_PIECES = IR_WORDS + (
    "Σ", "ΟΔΟΣ'", "ς", "σ", "_", "_Σ", "٤٥", "５", "²", "'", "’", "\x00", "\x1b",
    "\x1f", "\x7f", "\x85", "\t", "\n", " ", "-", "ſ", "İ", "the",
)
ir_texts = st.lists(
    st.tuples(
        st.sampled_from(IR_PIECES) | st.sampled_from(IR_WORDS) | st.text(max_size=3),
        st.sampled_from(("", " ", "  ")),
    ),
    max_size=10,
).map(lambda parts: "".join(piece + sep for piece, sep in parts))
stem_texts = st.sampled_from(("", "wind heat", "Wind heat", "ΟΔΟΣ air")) | ir_texts
ir_indexes = st.lists(
    st.lists(st.sampled_from(IR_WORDS + ("the", "Σ")), min_size=1, max_size=8).map(" ".join),
    min_size=1,
    max_size=12,
).map(lambda texts: build_index(Corpus.from_texts(texts)))


class TestIRScoreQuery:
    """ir_score queries with the union of the stem and choice stem sets;
    the reference tokenizes the joined "q a" string."""

    @given(ir_texts, ir_texts)
    @settings(max_examples=400, deadline=None)
    def test_stem_set_union_is_the_joined_query(self, q, a):
        assert set(query_tokens(q, a)) == stem_set(q) | stem_set(a)

    @given(ir_indexes, ir_texts, ir_texts)
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_bit_for_bit(self, index, q, a):
        want = reference_ir_score(index, q, a).hex()
        assert ir_score(index, q, a).hex() == want

    @given(ir_indexes, st.lists(st.tuples(stem_texts, ir_texts), max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_scorer_across_changing_stems_matches_reference(self, index, calls):
        scorer = IRScorer(index, "ir:test")
        for stem_text, choice in calls:
            question = make_question("q", stem_text, "answer")
            got = scorer.score(question, choice)
            assert got.hex() == reference_ir_score(index, stem_text, choice).hex()


class TestAnswer:
    def test_argmax(self):
        question = make_question("q", "stem", "a1", ["a2"])
        assert answer(FixedScorer({("q", "a1"): 1.0, ("q", "a2"): 2.0}), question) == "B"

    def test_all_zero_ties_to_first_label(self):
        question = make_question("q", "stem", "a1", ["a2", "a3"])
        assert answer(FixedScorer({}), question) == "A"

    def test_fig1_ir_answer(self, mini_index):
        question = make_question(
            "q", FIG1_QUESTION, FIG1_ANSWER,
            ["erosion prevention", "transfer of electrons", "reduce acidity of food"],
            answer_pos=0,
        )
        chosen = answer(IRScorer(mini_index, "ir:mini"), question)
        assert {c.label: c.text for c in question.choices}[chosen] == FIG1_ANSWER

    def test_scale_invariance_of_argmax(self):
        rng = random.Random(3)
        for _ in range(50):
            question = make_question("q", "stem", "a1", ["a2", "a3", "a4"])
            table = {("q", f"a{i}"): rng.uniform(-5, 5) for i in range(1, 5)}
            chosen = answer(FixedScorer(table), question)
            c = rng.uniform(0.01, 100.0)
            scaled = {k: v * c for k, v in table.items()}
            assert answer(FixedScorer(scaled), question) == chosen

    def test_non_finite_score_rejected(self):
        question = make_question("q", "stem", "a1", ["a2"])
        with pytest.raises(HopkitError, match="non-finite"):
            answer(FixedScorer({("q", "a1"): float("nan")}), question)


class TestEvalAccuracy:
    def test_perfect_scorer(self):
        questions = [
            make_question(f"q{i}", "stem", "right", ["wrong"], answer_pos=i % 2)
            for i in range(10)
        ]
        table = {(q.id, q.answer_text): 1.0 for q in questions}
        assert eval_accuracy(FixedScorer(table), questions) == 1.0

    def test_half_right(self):
        q1 = make_question("q1", "stem", "right", ["wrong"])
        q2 = make_question("q2", "stem", "right", ["wrong"])
        table = {("q1", "right"): 1.0, ("q2", "wrong"): 1.0}
        assert eval_accuracy(FixedScorer(table), [q1, q2]) == 0.5

    def test_uniform_zero_scorer_on_shuffled_keys(self):
        # eight-way questions with uniformly random answer keys: the
        # constant scorer always picks label A, so accuracy ~ 1/8
        rng = random.Random(12345)
        questions = []
        for i in range(10000):
            pos = rng.randrange(8)
            questions.append(
                make_question(f"q{i}", "stem", "right", [f"w{j}" for j in range(7)],
                              answer_pos=pos)
            )
        accuracy = eval_accuracy(FixedScorer({}), questions)
        assert accuracy == pytest.approx(0.125, abs=0.02)

    def test_permutation_invariant(self):
        rng = random.Random(9)
        questions = [
            make_question(f"q{i}", "stem", "right", ["wrong"], answer_pos=rng.randrange(2))
            for i in range(40)
        ]
        table = {(q.id, "right"): rng.random() for q in questions}
        scorer = FixedScorer(table)
        base = eval_accuracy(scorer, questions)
        shuffled = questions[:]
        rng.shuffle(shuffled)
        assert eval_accuracy(scorer, shuffled) == base

    def test_empty_dataset(self):
        assert eval_accuracy(FixedScorer({}), []) == 0.0


class TestOverlapStats:
    def test_single_question_one_shared_stem(self):
        question = make_question(
            "q", "the zoka is here", "bimel",
            distractors=["other"],
            fact1="zoka and flerb together",
            fact2="bimel with drant",
        )
        report = overlap_stats([question])
        assert report.n_used == 1
        assert report.fraction_below == {2: 1.0, 3: 1.0, 4: 1.0}
        assert report.mean_fact1 == 1.0
        assert report.mean_fact2 == 1.0

    def test_hand_built_fixture(self):
        # q1: overlaps 2 and 3 -> min 2 (below 3 and 4); q2: 1 and 1 -> min 1
        q1 = make_question(
            "q1", "alpha bravo charli delta", "echo foxtrot golf",
            distractors=["x"],
            fact1="alpha bravo unrelated",
            fact2="charli delta echo wobble",
        )
        q2 = make_question(
            "q2", "hotel india", "juliet",
            distractors=["x"],
            fact1="hotel somewhere",
            fact2="juliet somewhere",
        )
        report = overlap_stats([q1, q2])
        assert report.n_used == 2
        assert report.fraction_below[2] == 0.5
        assert report.fraction_below[3] == 1.0
        assert report.fraction_below[4] == 1.0
        assert report.mean_fact1 == pytest.approx((2 + 1) / 2)
        assert report.mean_fact2 == pytest.approx((3 + 1) / 2)

    def test_missing_facts_skipped(self):
        q1 = make_question("q1", "stem", "answer", ["x"])
        report = overlap_stats([q1])
        assert report.n_used == 0
        assert report.n_skipped == 1

    def test_occurrence_counting_flag(self):
        question = make_question(
            "q", "zoka zoka drant", "zoka",
            distractors=["other"],
            fact1="zoka zoka here",
            fact2="zoka drant here",
        )
        distinct = overlap_stats([question])
        occurrences = overlap_stats([question], count_occurrences=True)
        assert distinct.mean_fact1 == 1.0
        assert occurrences.mean_fact1 == 2.0  # min(tf) of the shared stem
        assert occurrences.mean_fact2 == 2.0  # zoka once + drant once


class TestJsonl:
    def test_roundtrip(self, tmp_path):
        question = make_question(
            "q1", FIG1_QUESTION, FIG1_ANSWER, ["erosion prevention"],
            fact1="f1", fact2="f2", combined=FIG1_FC,
        )
        row = question_to_json(question)
        path = tmp_path / "d.jsonl"
        path.write_text(json.dumps(row) + "\n", encoding="utf-8")
        assert load_questions(path) == [question]
        assert set(row) == {"id", "question", "answerKey", "fact1", "fact2", "combinedfact"}
        assert row["question"]["choices"][0] == {"label": "A", "text": FIG1_ANSWER}

    def test_crlf_file_reads_as_lf(self, tmp_path):
        questions = [make_question(f"q{i}", f"stem {i}", "yes", ["no"]) for i in range(3)]
        rows = [json.dumps(question_to_json(q)) for q in questions]
        lf, crlf = tmp_path / "lf.jsonl", tmp_path / "crlf.jsonl"
        lf.write_bytes(("\n".join(rows) + "\n\n").encode("utf-8"))
        crlf.write_bytes(("\r\n".join(rows) + "\r\n\r\n").encode("utf-8"))
        assert load_questions(crlf) == load_questions(lf) == questions

    def test_bad_record_reports_line(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"id": "q1"}\n')
        with pytest.raises(HopkitError, match=":1"):
            load_questions(path)

    def test_a_27_way_question_names_its_path_and_line(self, tmp_path):
        good = question_to_json(make_question("q0", "stem", "yes", ["no"]))
        choices = [{"label": chr(ord("A") + i), "text": f"choice {i}"} for i in range(27)]
        bad = {"id": "q1", "question": {"stem": "stem", "choices": choices}, "answerKey": "A"}
        path = tmp_path / "d.jsonl"
        path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n", "utf-8")
        with pytest.raises(HopkitError) as caught:
            load_questions(path)
        assert str(caught.value).startswith(f"{path}:2: ")
        assert "27 choices, more than 26" in str(caught.value)

    def test_json_shape_matches_public_schema(self):
        row = {
            "id": "3NGI5ARFTT4HNGVWXAMLNBMFA0U1PG",
            "question": {
                "stem": "What can trigger immune response?",
                "choices": [
                    {"label": "A", "text": "Transplanted organs"},
                    {"label": "B", "text": "Desire"},
                    {"label": "C", "text": "Pain"},
                    {"label": "D", "text": "Death"},
                ],
            },
            "answerKey": "A",
            "fact1": "Antigens are found on cancer cells and the cells of transplanted organs.",
            "fact2": "Anything that can trigger an immune response is called an antigen.",
            "combinedfact": "transplanted organs can trigger an immune response",
        }
        question = question_from_json(row)
        assert question.answer_text == "Transplanted organs"
        assert question_to_json(question) == row


class TestFileScorer:
    def test_label_rows(self, tmp_path):
        question = make_question("q1", "stem", "a1", ["a2"])
        path = tmp_path / "scores.jsonl"
        path.write_text(
            '{"id": "q1", "label": "A", "score": 0.25}\n'
            '{"id": "q1", "label": "B", "score": 0.75}\n'
        )
        scorer = FileScorer(path)
        assert answer(scorer, question) == "B"

    def test_text_rows_cover_candidates(self, tmp_path):
        question = make_question("q1", "stem", "a1", ["a2"])
        path = tmp_path / "scores.jsonl"
        path.write_text('{"id": "q1", "text": "a novel candidate", "score": 3.0}\n')
        scorer = FileScorer(path)
        assert scorer.score(question, "a novel candidate") == 3.0

    @pytest.mark.parametrize("field", ["label", "text"])
    def test_repeated_key_is_a_bad_row(self, tmp_path, field):
        # a repeated (id, label) or (id, text) is not read last-wins
        path = tmp_path / "scores.jsonl"
        path.write_text(
            f'{{"id": "q1", "{field}": "A", "score": 5}}\n'
            f'{{"id": "q1", "{field}": "B", "score": 1}}\n'
            f'{{"id": "q1", "{field}": "A", "score": 0}}\n'
        )
        with pytest.raises(HopkitError, match=r"scores\.jsonl:3: bad row: .* repeats line 1$"):
            FileScorer(path)

    def test_missing_score_is_an_error(self, tmp_path):
        question = make_question("q1", "stem", "a1", ["a2"])
        path = tmp_path / "scores.jsonl"
        path.write_text('{"id": "q1", "label": "A", "score": 0.25}\n')
        with pytest.raises(HopkitError, match="no score"):
            FileScorer(path).score(question, "a2")

    def test_emit_requests_covers_every_choice(self, tmp_path):
        questions = [
            make_question("q2", "stem two", "x", ["y"]),
            make_question("q1", "stem one", "p", ["q", "r"]),
        ]
        path = tmp_path / "requests.jsonl"
        emit_score_requests(questions, path)
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert [(r["id"], r["label"]) for r in rows] == [
            ("q1", "A"), ("q1", "B"), ("q1", "C"), ("q2", "A"), ("q2", "B"),
        ]
        assert all({"id", "label", "stem", "choice"} <= set(r) for r in rows)
