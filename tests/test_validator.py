import json

from hopkit.corpus import stem_set
from hopkit.validator import (
    check_composition,
    check_link,
    check_question,
    run_checks,
    validate_dataset,
)

from conftest import FIG1_FC, FIG1_FL, FIG1_FS, make_question

PESTICIDE_FS = "pesticides cause pollution"
PESTICIDE_FL = "Air pollution harms animals"
PESTICIDE_FC = "pesticides can harm animals"
PESTICIDE_STEM = "What can harm animals?"


class TestCheckLink:
    def test_fig1_bridge_includes_wind(self):
        result = check_link(FIG1_FS, FIG1_FL)
        assert result.passed
        # "produces"/"producing" collide at stem level, so the shared set
        # is {produc, wind}, not wind alone
        assert result.evidence == {"produc", "wind"}
        assert "wind" in result.evidence

    def test_tigers_candidate_rejected(self):
        result = check_link(PESTICIDE_FS, "Tigers are fierce and harmful animals")
        assert not result.passed
        assert result.evidence  # shows the non-overlapping stems

    def test_air_pollution_candidate_accepted(self):
        result = check_link(PESTICIDE_FS, PESTICIDE_FL)
        assert result.passed
        assert result.evidence == {"pollut"}

    def test_identical_facts_pass_trivially(self):
        assert check_link(PESTICIDE_FS, PESTICIDE_FS).passed


class TestCheckComposition:
    def test_fig1_composition_drops_wind(self):
        result = check_composition(FIG1_FS, FIG1_FL, FIG1_FC)
        assert result.passed
        # both shared stems are dropped; "production" stems to product,
        # distinct from produc
        assert result.evidence == {"produc", "wind"}

    def test_retained_bridge_rejected(self):
        # "pollutants" stems to the same token as "pollution"
        result = check_composition(PESTICIDE_FS, PESTICIDE_FL, "pollutants can harm animals")
        assert not result.passed
        assert result.evidence == {"pollut"}

    def test_admissible_composition(self):
        result = check_composition(PESTICIDE_FS, PESTICIDE_FL, PESTICIDE_FC)
        assert result.passed
        assert result.evidence == {"pollut"}

    def test_nothing_unique_to_the_seed_fact_kept(self):
        # drops the bridge "pollut" and keeps "harm", but no seed-only stem
        result = check_composition(PESTICIDE_FS, PESTICIDE_FL, "air can harm animals")
        assert not result.passed
        assert result.evidence == {"pesticid", "caus"}

    def test_nothing_unique_to_the_linked_fact_kept(self):
        result = check_composition(PESTICIDE_FS, PESTICIDE_FL, "pesticides cause trouble")
        assert not result.passed
        assert result.evidence == {"air", "harm", "anim"}

    def test_verbatim_seed_fact_fails(self):
        result = check_composition(PESTICIDE_FS, PESTICIDE_FL, PESTICIDE_FS)
        assert not result.passed


class TestCheckQuestion:
    def check(self, answer):
        return check_question(PESTICIDE_FS, PESTICIDE_FL, PESTICIDE_FC, PESTICIDE_STEM, answer)

    def test_bridge_answer_rejected(self):
        result = self.check("pollution")
        assert not result.passed
        assert result.evidence == {"pollut"}

    def test_pesticides_answer_accepted(self):
        result = self.check("pesticides")
        assert result.passed
        assert result.evidence == {"pollut"}

    def test_question_restating_composition_passes(self):
        assert check_question(
            FIG1_FS, FIG1_FL, FIG1_FC,
            "Differential heating of air can be harnessed for what?",
            "electricity production",
        ).passed


class TestPipeline:
    def test_short_circuits_on_link_failure(self):
        question = make_question(
            "q1", PESTICIDE_STEM, "pesticides", ["manure"], fact1=PESTICIDE_FS,
            fact2="Tigers are fierce and harmful animals", combined=PESTICIDE_FC,
        )
        results = run_checks(question)
        assert [r.check for r in results] == ["link"]
        assert not results[0].passed

    def test_short_circuits_on_composition_failure(self):
        question = make_question(
            "q1", PESTICIDE_STEM, "pesticides", ["manure"], fact1=PESTICIDE_FS,
            fact2=PESTICIDE_FL, combined="pollutants can harm animals",
        )
        results = run_checks(question)
        assert [(r.check, r.passed) for r in results] == [("link", True), ("composition", False)]

    def test_full_pass_runs_all_three(self):
        question = make_question(
            "q1", PESTICIDE_STEM, "pesticides", ["manure"],
            fact1=PESTICIDE_FS, fact2=PESTICIDE_FL, combined=PESTICIDE_FC,
        )
        results = run_checks(question)
        assert [r.check for r in results] == ["link", "composition", "question"]
        assert all(r.passed for r in results)

    def test_missing_facts_read_as_empty_text(self):
        # validate_dataset reports such a question as unannotated before
        # run_checks sees it; on its own, run_checks links against ""
        question = make_question("q1", PESTICIDE_STEM, "pesticides", ["manure"],
                                 fact1=PESTICIDE_FS)
        results = run_checks(question)
        assert [(r.check, r.passed) for r in results] == [("link", False)]
        assert results[0].evidence == stem_set(PESTICIDE_FS)

    def test_idempotent(self):
        question = make_question(
            "q1", "Differential heating of air can be harnessed for what?",
            "electricity production", ["manure"],
            fact1=FIG1_FS, fact2=FIG1_FL, combined=FIG1_FC,
        )
        assert run_checks(question) == run_checks(question)

    def test_validate_dataset_rows(self):
        good = make_question(
            "q2", PESTICIDE_STEM, "pesticides", ["manure"],
            fact1=PESTICIDE_FS, fact2=PESTICIDE_FL, combined=PESTICIDE_FC,
        )
        bad = make_question(
            "q1", PESTICIDE_STEM, "pollution", ["manure"],
            fact1=PESTICIDE_FS, fact2=PESTICIDE_FL, combined=PESTICIDE_FC,
        )
        rows = validate_dataset([good, bad])
        assert [row["id"] for row in rows] == ["q1", "q1", "q1", "q2", "q2", "q2"]
        by_question = {}
        for row in rows:
            by_question.setdefault(row["id"], []).append(row)
        assert [r["pass"] for r in by_question["q2"]] == [True, True, True]
        assert [r["pass"] for r in by_question["q1"]] == [True, True, False]
        for row in rows:
            json.dumps(row)  # JSON-serializable
            if not row["pass"]:
                assert row["evidence"]

    def test_missing_annotations_reported_not_vacuously_failed(self):
        question = make_question("q1", "stem", "answer", ["x"], fact1="zoka flerb")
        rows = validate_dataset([question])
        assert rows == [
            {"id": "q1", "check": "annotations", "pass": False,
             "evidence": ["fact2", "combinedfact"]}
        ]
