import argparse
import hashlib
import io
import json
import math
import random
import shutil
import zlib
from bisect import bisect_right
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from hopkit.cli import ENV_PATHS, build_parser, main
from hopkit.distractor import AdversarialConfig
from hopkit.errors import jsonl
from hopkit.corpus import load_corpus
from hopkit.index import MAGIC, build_index, load_snapshot, write_snapshot
from hopkit.qa import IRScorer, load_questions
from hopkit.retrieval import RetrievalParams
from hopkit.splitter import SplitProblem, load_facts_jsonl, problem_to_json, solve_heuristic

import hopkit.corpus
import hopkit.index
from conftest import (
    FIG1_ANSWER,
    FIG1_FL,
    FIG1_FS,
    FIG1_QUESTION,
    SnapshotParts,
    make_question,
    save_questions,
    synth_vocab,
    whole_postings,
)
from oracles import brute_build_problem


@pytest.fixture()
def corpus_file(tmp_path):
    text = resources.files("hopkit.data").joinpath("mini_corpus.txt").read_text("utf-8")
    path = tmp_path / "corpus.txt"
    path.write_text(text, "utf-8")
    return path


@pytest.fixture()
def snapshot_dir(tmp_path, corpus_file):
    out = tmp_path / "idx"
    assert main(["index", "build", "--corpus", str(corpus_file), "--out", str(out)]) == 0
    return out


@pytest.fixture()
def fig1_dataset(tmp_path):
    questions = [
        make_question(
            "q001",
            FIG1_QUESTION,
            FIG1_ANSWER,
            ["erosion prevention", "transfer of electrons", "reduce acidity of food"],
            fact1=FIG1_FS,
            fact2=FIG1_FL,
            combined="Differential heating of air can be harnessed for electricity production.",
        )
    ]
    path = tmp_path / "fig1.jsonl"
    save_questions(questions, path)
    return path


class TestIndexBuild:
    def test_writes_snapshot_and_report(self, tmp_path, corpus_file, capsys):
        out = tmp_path / "fresh-idx"
        assert main(["index", "build", "--corpus", str(corpus_file), "--out", str(out)]) == 0
        assert (out / "index.hopidx").exists()
        assert (out / "rejections.tsv").exists()
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert summary["sentences"] == 22
        assert summary["rejected"] == 0

    def test_missing_corpus_is_domain_error(self, tmp_path, capsys):
        code = main(["index", "build", "--corpus", str(tmp_path / "nope.txt"),
                     "--out", str(tmp_path / "idx")])
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert "message" in err and "error" in err


class TestIndexStats:
    def test_stats_of_stored_postings(self, snapshot_dir, capsys):
        capsys.readouterr()
        assert main(["index", "stats", "--index", str(snapshot_dir)]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") == 1
        stats = json.loads(out)
        index = load_snapshot(snapshot_dir / "index.hopidx")
        lengths = sorted(map(len, whole_postings(index).values()))
        assert stats == {
            "format": "HOPIDX5", "n_docs": 22, "n_terms": len(lengths),
            "avg_len": round(index.avg_len, 9),
            # nearest-rank percentiles
            "posting_len_p50": lengths[math.ceil(0.50 * len(lengths)) - 1],
            "posting_len_p90": lengths[math.ceil(0.90 * len(lengths)) - 1],
            "posting_len_p99": lengths[math.ceil(0.99 * len(lengths)) - 1],
            "posting_len_max": max(lengths),
            "source_digest": index.corpus.source_digest,
        }

    def test_stats_refuses_another_tokenizer(self, snapshot_dir, capsys, monkeypatch):
        # under another stopword list the stored table no longer holds
        monkeypatch.setattr(hopkit.corpus, "STOPWORDS", hopkit.corpus.STOPWORDS | {"wind"})
        capsys.readouterr()
        code = main(["index", "stats", "--index", str(snapshot_dir / "index.hopidx")])
        captured = capsys.readouterr()
        assert captured.out == ""
        message = assert_domain_error(code, captured.err)["message"]
        assert "'wind'" in message and message.endswith("rebuild it with `hopkit index build`")

    def test_readme_example_is_the_output(self, snapshot_dir, capsys):
        # the README's example line is what the command prints for a copy
        # of the packaged demo corpus, byte for byte
        readme = Path(__file__).parents[1] / "README.md"
        examples = [line for line in readme.read_text("utf-8").splitlines()
                    if line.startswith('{"format": ')]
        assert len(examples) == 1
        capsys.readouterr()
        assert main(["index", "stats", "--index", str(snapshot_dir)]) == 0
        assert capsys.readouterr().out == examples[0] + "\n"

    def test_stats_of_an_empty_index(self, tmp_path, capsys):
        corpus = tmp_path / "empty.txt"
        corpus.write_text("", "utf-8")
        assert main(["index", "build", "--corpus", str(corpus), "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["index", "stats", "--index", str(tmp_path)]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert (stats["n_docs"], stats["n_terms"], stats["posting_len_max"]) == (0, 0, 0)


class TestRetrieve:
    def test_two_step_finds_fig1_pair(self, snapshot_dir, capsys):
        code = main([
            "retrieve", "--index", str(snapshot_dir), "--mode", "two",
            "--question", FIG1_QUESTION, "--answer", FIG1_ANSWER,
        ])
        assert code == 0
        rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        facts = [r for r in rows if r["type"] == "fact"]
        pairs = [r for r in rows if r["type"] == "pair"]
        texts = [r["text"] for r in facts]
        assert FIG1_FS in texts and FIG1_FL in texts
        ids = {r["text"]: r["id"] for r in facts}
        assert any(p["f1"] == ids[FIG1_FS] and p["f2"] == ids[FIG1_FL] for p in pairs)
        for pair in pairs:
            assert pair["pair_score"] == pytest.approx(pair["score1"] + pair["score2"], abs=1e-8)

    def test_single_mode_with_corpus_flag(self, corpus_file, capsys):
        code = main([
            "retrieve", "--corpus", str(corpus_file), "--mode", "single",
            "--question", FIG1_QUESTION, "--answer", FIG1_ANSWER, "--m", "5",
        ])
        assert code == 0
        rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert all(row["type"] == "fact" for row in rows)
        assert all(row["score"] > 0 for row in rows)

    def test_needs_an_index_source(self, capsys):
        code = main(["retrieve", "--mode", "two", "--question", "q", "--answer", "a"])
        assert code == 1
        assert "index" in capsys.readouterr().err

    def test_drop_negations_filters_hits(self, tmp_path, capsys):
        corpus = tmp_path / "neg.txt"
        corpus.write_text(
            "the zorak makes a wibble appear.\n"
            "a wibble cannot create the flumen.\n"
            "a wibble powers the flumen nicely.\n",
            "utf-8",
        )
        args = ["retrieve", "--corpus", str(corpus), "--mode", "two",
                "--question", "what does the zorak make", "--answer", "flumen power"]
        assert main(args) == 0
        plain = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        assert any(r["type"] == "fact" and r["id"] == 1 for r in plain)
        assert main(args + ["--drop-negations"]) == 0
        filtered = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        assert not any(r["type"] == "fact" and r["id"] == 1 for r in filtered)
        assert any(r["type"] == "fact" and r["id"] == 2 for r in filtered)


class TestEval:
    def test_recall_tsv_and_audit(self, snapshot_dir, fig1_dataset, tmp_path, capsys):
        audit = tmp_path / "audit.jsonl"
        code = main([
            "eval", "recall", "--index", str(snapshot_dir),
            "--dataset", str(fig1_dataset), "--mode", "two", "--audit", str(audit),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "metric\tm\tvalue\tnumerator\tdenominator"
        assert "both_found\t10\t1.000000000\t1\t1" in out
        entry = json.loads(audit.read_text().splitlines()[0])
        assert entry["id"] == "q001" and entry["found"] == {"fact1": True, "fact2": True}

    def test_recall_single_mode(self, snapshot_dir, fig1_dataset, capsys):
        code = main([
            "eval", "recall", "--index", str(snapshot_dir),
            "--dataset", str(fig1_dataset), "--mode", "single",
        ])
        assert code == 0
        out = capsys.readouterr().out
        # the second gold fact shares nothing with the question, so
        # single-step retrieval cannot recover the pair
        assert "both_found\t10\t0.000000000\t0\t1" in out

    def test_accuracy_ir_scorer(self, snapshot_dir, fig1_dataset, capsys):
        code = main([
            "eval", "accuracy", "--index", str(snapshot_dir),
            "--dataset", str(fig1_dataset), "--scorer", "ir",
        ])
        assert code == 0
        line = capsys.readouterr().out.strip()
        assert line == "accuracy\t1.000000000\t1"

    def test_accuracy_file_scorer_with_requests(self, fig1_dataset, tmp_path, capsys):
        requests = tmp_path / "requests.jsonl"
        scores = tmp_path / "scores.jsonl"
        code = main([
            "eval", "accuracy", "--dataset", str(fig1_dataset),
            "--scorer", "ir", "--corpus",
            str(resources.files("hopkit.data").joinpath("mini_corpus.txt")),
            "--emit-requests", str(requests),
        ])
        assert code == 0
        capsys.readouterr()
        rows = [json.loads(line) for line in requests.read_text().splitlines()]
        # external "model" scores choice B highest
        scores.write_text(
            "".join(
                json.dumps({"id": r["id"], "label": r["label"],
                            "score": 1.0 if r["label"] == "B" else 0.0}) + "\n"
                for r in rows
            )
        )
        code = main([
            "eval", "accuracy", "--dataset", str(fig1_dataset),
            "--scorer", f"file:{scores}",
        ])
        assert code == 0
        assert capsys.readouterr().out.strip() == "accuracy\t0.000000000\t1"


class TestStatsOverlap:
    def test_fixture_table_exact(self, tmp_path, capsys):
        questions = [
            make_question(
                "q1", "alpha bravo charli delta", "echo foxtrot golf", ["x"],
                fact1="alpha bravo unrelated", fact2="charli delta echo wobble",
            ),
            make_question(
                "q2", "hotel india", "juliet", ["x"],
                fact1="hotel somewhere", fact2="juliet somewhere",
            ),
            make_question(
                "q3", "kilo lima mike nova oscar", "papa quebec romeo sierra", ["x"],
                fact1="kilo lima mike nova papa quebec", fact2="oscar romeo sierra tango",
            ),
        ]
        path = tmp_path / "d.jsonl"
        save_questions(questions, path)
        code = main(["stats", "overlap", "--dataset", str(path)])
        assert code == 0
        table = dict(
            line.split("\t") for line in capsys.readouterr().out.splitlines()[1:]
        )
        # min overlaps: q1 -> 2, q2 -> 1, q3 -> 3
        assert table["pct_min_overlap_lt_2"] == f"{100/3:.9f}"
        assert table["pct_min_overlap_lt_3"] == f"{200/3:.9f}"
        assert table["pct_min_overlap_lt_4"] == f"{100.0:.9f}"
        assert table["mean_overlap_fact1"] == f"{(2+1+6)/3:.9f}"
        assert table["mean_overlap_fact2"] == f"{(3+1+3)/3:.9f}"
        assert table["questions_used"] == "3"


def fold_dataset(tmp_path, n=16):
    questions = [
        make_question(
            f"q{i:03d}",
            f"what is thing number {i} made of?",
            f"answer{i:03d}",
            [f"human distractor {i}"],
            fact1=f"thing{i} relates to matter{i} strongly",
            fact2=f"matter{i} builds answer{i:03d} pieces",
        )
        for i in range(n)
    ]
    path = tmp_path / "fold.jsonl"
    save_questions(questions, path)
    return path


class TestDistractPipeline:
    def test_gen_rank_assemble(self, tmp_path, corpus_file, capsys):
        dataset = fold_dataset(tmp_path)
        idx_a = tmp_path / "idxA"
        idx_b = tmp_path / "idxB"
        corpus_b = tmp_path / "corpusB.txt"
        corpus_b.write_text(
            "".join(f"The answer{i:03d} block rests on granite slabs.\n" for i in range(16)),
            "utf-8",
        )
        assert main(["index", "build", "--corpus", str(corpus_file), "--out", str(idx_a)]) == 0
        assert main(["index", "build", "--corpus", str(corpus_b), "--out", str(idx_b)]) == 0
        pools = tmp_path / "pools.jsonl"
        ranked = tmp_path / "ranked.jsonl"
        assembled = tmp_path / "assembled.jsonl"
        capsys.readouterr()

        assert main(["distract", "gen", "--dataset", str(dataset),
                     "--out", str(pools)]) == 0
        pool_rows = [json.loads(line) for line in pools.read_text().splitlines()]
        assert len(pool_rows) == 16
        assert all(len(row["candidates"]) == 15 for row in pool_rows)

        assert main(["distract", "rank", "--dataset", str(dataset),
                     "--pools", str(pools),
                     "--scorer", f"ir:{idx_a}", "--scorer", f"ir:{idx_b}",
                     "--out", str(ranked)]) == 0
        rank_rows = [json.loads(line) for line in ranked.read_text().splitlines()]
        assert all(len(row["ranked"][0]["per_model"]) == 2 for row in rank_rows)

        assert main(["distract", "assemble", "--dataset", str(dataset),
                     "--ranked", str(ranked), "--seed", "7",
                     "--out", str(assembled)]) == 0
        out_questions = load_questions(assembled)
        assert all(len(q.choices) == 8 for q in out_questions)
        originals = {q.id: q for q in load_questions(dataset)}
        for question in out_questions:
            assert question.answer_text == originals[question.id].answer_text

        # determinism: same seed, byte-identical output
        again = tmp_path / "assembled2.jsonl"
        assert main(["distract", "assemble", "--dataset", str(dataset),
                     "--ranked", str(ranked), "--seed", "7",
                     "--out", str(again)]) == 0
        assert again.read_bytes() == assembled.read_bytes()

        other_seed = tmp_path / "assembled3.jsonl"
        assert main(["distract", "assemble", "--dataset", str(dataset),
                     "--ranked", str(ranked), "--seed", "8",
                     "--out", str(other_seed)]) == 0
        assert other_seed.read_bytes() != assembled.read_bytes()


class TestDistractRankWork:
    """distract rank scores each (scorer, question, text) once, with the
    bytes of a run whose scorers share nothing."""

    def test_each_text_is_scored_once_per_scorer(self, tmp_path, monkeypatch, capsys):
        dataset = fold_dataset(tmp_path)
        corpus = tmp_path / "corpus.txt"
        corpus.write_text(
            "".join(
                f"The thing made of answer{i:03d} rests on {'granite ' * (1 + i % 3)}slabs.\n"
                for i in range(16)
            ),
            "utf-8",
        )
        idx, copy = tmp_path / "idx", tmp_path / "copy"
        assert main(["index", "build", "--corpus", str(corpus), "--out", str(idx)]) == 0
        copy.mkdir()
        shutil.copyfile(idx / "index.hopidx", copy / "index.hopidx")
        pools = tmp_path / "pools.jsonl"
        assert main(["distract", "gen", "--dataset", str(dataset), "--out", str(pools)]) == 0

        calls: Counter = Counter()
        score = IRScorer.score

        def counted_score(scorer, question, text):
            calls[scorer.name, question.id, text] += 1
            return score(scorer, question, text)

        monkeypatch.setattr(IRScorer, "score", counted_score)

        def rank(spec_a: str, spec_b: str, out):
            assert main(["distract", "rank", "--dataset", str(dataset), "--pools", str(pools),
                         "--prune-top", "5", "--scorer", spec_a, "--scorer", spec_b,
                         "--out", str(out)]) == 0
            return out.read_bytes()

        same_file = rank(f"ir:{idx}", f"ir:{idx}/index.hopidx", tmp_path / "same.jsonl")
        assert set(calls.values()) == {1}
        # per question the first scorer scores the answer and 15 candidates,
        # keeping 5; the second scores the answer and those 5
        assert sum(calls.values()) == 16 * ((1 + 15) + (1 + 5))
        separate = rank(f"ir:{idx}", f"ir:{copy}", tmp_path / "separate.jsonl")
        assert same_file == separate
        rows = [json.loads(line) for line in same_file.decode().splitlines()]
        assert any(v > 0 for row in rows for c in row["ranked"] for v in c["per_model"])

    def _rank_salt_sand_snow(self, tmp_path, snow_score: float, prune_top: str) -> int:
        """Run distract rank on one question with the pool salt, sand, snow.
        A file: scorer gives them 5, 4 and snow_score, and the answer 1."""
        dataset = tmp_path / "d.jsonl"
        save_questions([make_question("q1", "what melts ice?", "heat", ["cold"])], dataset)
        pools = tmp_path / "pools.jsonl"
        pools.write_text(json.dumps({"id": "q1", "candidates": [
            {"text": text, "source_question_id": ""} for text in ("salt", "sand", "snow")
        ]}) + "\n", "utf-8")
        scores = tmp_path / "scores.jsonl"
        rows = [("heat", 1.0), ("salt", 5.0), ("sand", 4.0), ("snow", snow_score)]
        scores.write_text(
            "".join(json.dumps({"id": "q1", "text": t, "score": v}) + "\n" for t, v in rows),
            "utf-8",
        )
        return main(["distract", "rank", "--dataset", str(dataset), "--pools", str(pools),
                     "--scorer", f"file:{scores}", "--prune-top", prune_top,
                     "--out", str(tmp_path / "ranked.jsonl")])

    def test_non_finite_score_on_a_pruned_candidate_exits_1(self, tmp_path, capsys):
        code = self._rank_salt_sand_snow(tmp_path, float("nan"), "1")
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "HopkitError"
        assert "non-finite" in err["message"] and "'snow'" in err["message"]
        assert repr(f"file:{tmp_path / 'scores.jsonl'}") in err["message"]

    @pytest.mark.parametrize("prune_top", ["-1", "-2"])
    def test_negative_prune_top_exits_1(self, tmp_path, prune_top, capsys):
        # a negative slice bound used to drop the lowest-scored candidates
        assert self._rank_salt_sand_snow(tmp_path, 3.0, prune_top) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "HopkitError"
        assert "--prune-top" in err["message"]
        assert not (tmp_path / "ranked.jsonl").exists()

    def test_zero_prune_top_keeps_every_candidate(self, tmp_path):
        assert self._rank_salt_sand_snow(tmp_path, 3.0, "0") == 0
        [row] = [json.loads(line) for line in (tmp_path / "ranked.jsonl").read_text().splitlines()]
        assert [c["text"] for c in row["ranked"]] == ["salt", "sand", "snow"]


class TestSplitSolve:
    def write_facts(self, tmp_path):
        rows = [
            {"id": "f1", "text": "wind energy turbine", "questions": 39},
            {"id": "f2", "text": "wind energy generation", "questions": 39},
            {"id": "f3", "text": "solar panel output", "questions": 6},
            {"id": "f4", "text": "solar panel cells", "questions": 5},
            {"id": "f5", "text": "river erosion rocks", "questions": 6},
            {"id": "f6", "text": "river sediment flow", "questions": 5},
        ]
        path = tmp_path / "facts.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in rows), "utf-8")
        return path

    def test_exact_writes_assignment_files(self, tmp_path, capsys):
        facts = self.write_facts(tmp_path)
        prefix = tmp_path / "split"
        code = main(["split", "solve", "--facts", str(facts), "--exact",
                     "--prune-threshold", "0.1", "--out", str(prefix)])
        assert code == 0
        summary = json.loads(capsys.readouterr().out.strip())
        assert summary["feasible"] is True
        payload = json.loads((tmp_path / "split.json").read_text())
        assert set(payload["fold_of"]) == {"f1", "f2", "f3", "f4", "f5", "f6"}
        tsv_rows = dict(
            line.split("\t") for line in (tmp_path / "split.tsv").read_text().splitlines()
        )
        assert tsv_rows == payload["fold_of"]

    def test_dump_problem(self, tmp_path, capsys):
        facts = self.write_facts(tmp_path)
        dumped = tmp_path / "problem.json"
        code = main(["split", "solve", "--facts", str(facts), "--exact",
                     "--prune-threshold", "0.1", "--dump-problem", str(dumped),
                     "--out", str(tmp_path / "s")])
        assert code == 0
        capsys.readouterr()
        problem = json.loads(dumped.read_text())
        assert {f["id"] for f in problem["facts"]} == {"f1", "f2", "f3", "f4", "f5", "f6"}
        assert problem["fold_targets"] == [0.78, 0.11, 0.11]
        assert any(e["sim"] > 0 for e in problem["edges"])

    def test_dump_problem_creates_its_parent_directory(self, tmp_path, capsys):
        facts = self.write_facts(tmp_path)
        dumped = tmp_path / "missing" / "sub" / "problem.json"
        code = main(["split", "solve", "--facts", str(facts), "--exact",
                     "--dump-problem", str(dumped), "--out", str(tmp_path / "s")])
        assert code == 0
        capsys.readouterr()
        assert {f["id"] for f in json.loads(dumped.read_text())["facts"]} == {
            "f1", "f2", "f3", "f4", "f5", "f6"
        }

    def test_heuristic_deterministic(self, tmp_path, capsys):
        facts = self.write_facts(tmp_path)
        for prefix in ("h1", "h2"):
            code = main(["split", "solve", "--facts", str(facts), "--heuristic",
                         "--seed", "5", "--iterations", "2000",
                         "--prune-threshold", "0.1", "--out", str(tmp_path / prefix)])
            assert code == 0
        capsys.readouterr()
        assert (tmp_path / "h1.json").read_bytes() == (tmp_path / "h2.json").read_bytes()
        assert (tmp_path / "h1.tsv").read_bytes() == (tmp_path / "h2.tsv").read_bytes()

    @pytest.mark.parametrize("solver", ["--heuristic", "--exact"])
    def test_empty_facts_file_is_domain_error(self, tmp_path, capsys, solver):
        facts = tmp_path / "empty.jsonl"
        facts.write_text("", "utf-8")
        code = main(["split", "solve", "--facts", str(facts), solver,
                     "--out", str(tmp_path / "s")])
        payload = assert_domain_error(code, capsys.readouterr().err)
        assert str(facts) in payload["message"]
        assert not (tmp_path / "s.json").exists()

    @pytest.mark.parametrize(
        "option, value",
        [("--targets", "nan,0.5,0.5"), ("--targets", "1.5,-0.25,-0.25"),
         ("--targets", "a,b,c"), ("--targets", "0.5,0.5,"),
         ("--slack", "nan"), ("--slack", "-1"),
         ("--slack", "inf"), ("--prune-threshold", "nan"), ("--prune-threshold", "inf")],
    )
    @pytest.mark.parametrize("solver", ["--heuristic", "--exact"])
    def test_bad_numeric_option_is_domain_error(self, tmp_path, capsys, option, value, solver):
        facts = self.write_facts(tmp_path)
        code = main(["split", "solve", "--facts", str(facts), solver, option, value,
                     "--iterations", "50", "--out", str(tmp_path / "s")])
        payload = assert_domain_error(code, capsys.readouterr().err)
        assert payload["error"] == "HopkitError"
        assert not (tmp_path / "s.json").exists()

    @pytest.mark.parametrize("threshold", ["0", "-1"])
    def test_nonpositive_threshold_makes_every_pair_an_edge(self, tmp_path, capsys, threshold):
        facts = self.write_facts(tmp_path)
        dumped = tmp_path / "problem.json"
        code = main(["split", "solve", "--facts", str(facts), "--exact",
                     "--prune-threshold", threshold, "--dump-problem", str(dumped),
                     "--out", str(tmp_path / "s")])
        assert code == 0
        capsys.readouterr()
        assert len(json.loads(dumped.read_text())["edges"]) == 6 * 5 // 2

    def test_outputs_match_all_pairs_oracle(self, tmp_path, capsys):
        rng = random.Random(4)
        topics = [synth_vocab(rng, 8) for _ in range(4)]
        rows = [
            {"id": f"f{i:02d}", "questions": rng.randint(1, 6),
             "text": " ".join(rng.sample(rng.choice(topics), rng.randint(3, 6)))}
            for i in range(60)
        ]
        facts = tmp_path / "facts.jsonl"
        facts.write_text("".join(json.dumps(r) + "\n" for r in rows), "utf-8")
        dumped = tmp_path / "problem.json"
        code = main(["split", "solve", "--facts", str(facts), "--heuristic", "--seed", "3",
                     "--iterations", "3000", "--restarts", "2", "--prune-threshold", "3",
                     "--dump-problem", str(dumped), "--out", str(tmp_path / "split")])
        assert code == 0
        capsys.readouterr()
        oracle = brute_build_problem(load_facts_jsonl(facts), prune_threshold=3.0)
        assert oracle.sim
        assert dumped.read_text("utf-8") == json.dumps(problem_to_json(oracle), indent=2) + "\n"
        expected = solve_heuristic(oracle, seed=3, iterations=3000, restarts=2)
        assert ((tmp_path / "split.json").read_text("utf-8")
                == json.dumps(expected.to_json(), indent=2) + "\n")


class TestValidate:
    def test_per_record_results(self, tmp_path, capsys):
        questions = [
            make_question(
                "q1", "What can harm animals?", "pesticides", ["manure"],
                fact1="pesticides cause pollution",
                fact2="Air pollution harms animals",
                combined="pesticides can harm animals",
            )
        ]
        path = tmp_path / "v.jsonl"
        save_questions(questions, path)
        code = main(["validate", "--dataset", str(path)])
        assert code == 0
        rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert [(r["check"], r["pass"]) for r in rows] == [
            ("link", True), ("composition", True), ("question", True),
        ]


# String options that name no path; every other string option names one.
NON_PATH_OPTIONS = {"--mode", "--question", "--answer", "--seed", "--scorer", "--targets"}


def _commands(parser, words=()):
    """(command words, parser) of every subcommand that runs a handler."""
    subparsers = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subparsers:
        yield words, parser
    for action in subparsers:
        for name, sub in action.choices.items():
            yield from _commands(sub, (*words, name))


def _path_options(parser) -> list:
    """The parser's path options: string-valued and not in NON_PATH_OPTIONS."""
    return [a for a in parser._actions
            if a.option_strings and a.nargs != 0 and a.type is None
            and a.option_strings[-1] not in NON_PATH_OPTIONS]


def _least_argv(words, parser, leave_out=None) -> list[str]:
    """The command with a stand-in for each required option but leave_out.
    The stand-in paths name no file: an empty path is refused before any
    path is read."""
    argv = list(words)
    required = [a for a in parser._actions if a.required]
    required += [g._group_actions[0] for g in parser._mutually_exclusive_groups if g.required]
    for action in required:
        if action is leave_out:
            continue
        argv.append(action.option_strings[-1])
        if action.nargs != 0:
            argv.append(action.choices[0] if action.choices else
                        "1" if action.type in (int, float) else "missing")
    return argv


class TestMalformedInputs:
    def test_truncated_snapshot_is_domain_error(self, snapshot_dir, tmp_path, capsys):
        raw = (snapshot_dir / "index.hopidx").read_bytes()
        body = raw[len(MAGIC) + 32 :][:200]
        trunc = tmp_path / "trunc.hopidx"
        trunc.write_bytes(MAGIC + hashlib.sha256(body).digest() + body)
        capsys.readouterr()
        code = main(["retrieve", "--index", str(trunc), "--mode", "two",
                     "--question", FIG1_QUESTION, "--answer", FIG1_ANSWER])
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "SnapshotError"

    def test_an_empty_path_is_refused(self, snapshot_dir, fig1_dataset, tmp_path,
                                      monkeypatch, capsys):
        # Path("") is the working directory, so an empty path would read the
        # snapshot there or write into it
        pools = tmp_path / "pools.jsonl"
        pools.write_text(json.dumps({"id": "q001", "candidates": []}) + "\n", "utf-8")
        work = tmp_path / "work"
        shutil.copytree(snapshot_dir, work)
        monkeypatch.chdir(work)
        before = {path.name: path.read_bytes() for path in work.iterdir()}

        def refused(argv, named) -> None:
            capsys.readouterr()
            payload = assert_domain_error(main([str(arg) for arg in argv]),
                                          capsys.readouterr().err)
            assert named in payload["message"], argv
            assert {path.name: path.read_bytes() for path in work.iterdir()} == before, argv

        typed = set()
        for words, parser in _commands(build_parser()):
            for action in _path_options(parser):
                typed.add(action.option_strings[-1])
                refused([*_least_argv(words, parser, action), action.option_strings[-1], ""],
                        action.option_strings[-1])
        assert typed >= {"--index", "--corpus", "--dataset", "--out", "--audit", "--pools",
                         "--ranked", "--facts", "--emit-requests", "--dump-problem"}
        for dest, variable in ENV_PATHS.items():
            with monkeypatch.context() as env:
                env.setenv(variable, "")
                for words, parser in _commands(build_parser()):
                    if any(a.dest == dest and a.default == "" for a in parser._actions):
                        refused(_least_argv(words, parser), f"--{dest}")
        for spec in ("ir:", "file:"):
            refused(["eval", "accuracy", "--dataset", fig1_dataset, "--scorer", spec], repr(spec))
            refused(["distract", "rank", "--dataset", fig1_dataset, "--pools", pools,
                     "--scorer", spec], repr(spec))

    def test_an_unopenable_path_names_its_flag_or_spec(self, fig1_dataset, tmp_path, capsys):
        missing = str(tmp_path / "missing")
        snapshot = str(tmp_path / "index.hopidx")  # in a directory that holds none
        for argv, named, path in (
            (["--dataset", missing, "--scorer", f"file:{tmp_path}"], "--dataset", missing),
            (["--dataset", fig1_dataset, "--scorer", f"file:{missing}"],
             f"--scorer file:{missing}", missing),
            (["--dataset", fig1_dataset, "--scorer", f"ir:{tmp_path}"],
             f"--scorer ir:{tmp_path}", snapshot),
            (["--dataset", fig1_dataset, "--index", tmp_path, "--scorer", "ir"], "--index", snapshot),
        ):
            capsys.readouterr()
            payload = assert_domain_error(main(["eval", "accuracy", *map(str, argv)]),
                                          capsys.readouterr().err)
            assert payload["error"] == "FileNotFoundError"
            assert payload["message"] == f"{named}: [Errno 2] No such file or directory: {path!r}"

    @pytest.mark.parametrize(
        "row",
        [
            {"id": "q000"},
            {"id": "q000", "candidates": [{"source_question_id": "q001"}]},
            {"id": "q000", "candidates": ["bare string"]},
            {"id": "q000", "candidates": [{"text": 7}]},
            {"id": "q000", "candidates": [{"text": "rain"}, {"text": "rain"}]},
            {"id": ["q000"], "candidates": []},
            ["q000"],
        ],
    )
    def test_malformed_pools_row_is_domain_error(self, tmp_path, snapshot_dir, row, capsys):
        dataset = fold_dataset(tmp_path)
        pools = tmp_path / "pools.jsonl"
        good = {"id": "q001", "candidates": [{"text": "answer002"}]}
        pools.write_text(json.dumps(good) + "\n" + json.dumps(row) + "\n", "utf-8")
        code = main(["distract", "rank", "--dataset", str(dataset), "--pools", str(pools),
                     "--scorer", f"ir:{snapshot_dir}"])
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "HopkitError"
        assert f"{pools}:2:" in err["message"]

    def test_repeated_question_id_names_the_dataset(self, tmp_path, capsys):
        # gen must refuse the dataset, not write two pool rows for one id
        # and leave rank to blame the pools file
        dataset = fold_dataset(tmp_path, n=5)
        lines = dataset.read_text("utf-8").splitlines()
        dataset.write_text("\n".join([*lines, lines[3]]) + "\n", "utf-8")
        pools = tmp_path / "pools.jsonl"
        capsys.readouterr()
        code = main(["distract", "gen", "--dataset", str(dataset), "--out", str(pools)])
        payload = assert_domain_error(code, capsys.readouterr().err)
        assert f"{dataset}:6:" in payload["message"]
        assert "'q003' repeats line 4" in payload["message"]
        assert not pools.exists()

    @pytest.mark.parametrize("fact_id", ["a\tb", "c\nd", "e\u2028f", "\ud800", "g\u00a0h"])
    def test_a_fact_id_split_tsv_cannot_hold_is_refused(self, tmp_path, fact_id, capsys):
        # a tab or line break would split the id's row, and a lone surrogate
        # cannot be written as UTF-8
        facts = tmp_path / "facts.jsonl"
        facts.write_text(json.dumps({"id": "f0", "text": "wind blows"}) + "\n"
                         + json.dumps({"id": fact_id, "text": "rain falls"}) + "\n", "utf-8")
        out = tmp_path / "out"
        capsys.readouterr()
        code = main(["split", "solve", "--facts", str(facts), "--heuristic", "--out", str(out)])
        payload = assert_domain_error(code, capsys.readouterr().err)
        assert payload["message"].startswith(f"{facts}:2: bad row: ValueError: ")
        assert list(tmp_path.iterdir()) == [facts]

    @pytest.mark.parametrize("command, target", [
        ("validate", "dataset"), ("eval accuracy", "scores"), ("distract rank", "pools"),
        ("distract assemble", "ranked"), ("split solve", "facts"),
    ])
    def test_malformed_utf8_names_file_and_line(self, contract_files, tmp_path, command,
                                                target):
        bad = tmp_path / contract_files[target].name
        first = contract_files[target].read_bytes().splitlines()[0]
        bad.write_bytes(first + b"\n\xff\xfe\n")
        code, err = run_quietly(COMMANDS[command](dict(contract_files, **{target: bad})))
        payload = assert_domain_error(code, err)
        assert payload["error"] == "HopkitError"
        assert payload["message"].startswith(f"{bad}:2: bad row: UnicodeDecodeError: ")

    def test_ways_beyond_the_letters_is_domain_error(self, tmp_path, capsys):
        # choices are labelled A to Z: 26 ways assemble, and 27 exit 1
        # before anything is written
        dataset = fold_dataset(tmp_path, n=30)
        pools, ranked, out = (tmp_path / name for name in ("pools", "ranked", "out"))
        assert main(["distract", "gen", "--dataset", str(dataset), "--ways", "26",
                     "--out", str(pools)]) == 0
        ranked.write_text("".join(
            json.dumps({"id": row["id"], "ranked": row["candidates"]}) + "\n"
            for row in map(json.loads, pools.read_text("utf-8").splitlines())
        ), "utf-8")
        assemble = ["distract", "assemble", "--dataset", str(dataset), "--ranked", str(ranked),
                    "--seed", "1", "--out", str(out), "--ways"]
        assert main(assemble + ["26"]) == 0
        letters = [chr(ord("A") + i) for i in range(26)]
        assert all([c.label for c in q.choices] == letters for q in load_questions(out))
        out.unlink()
        capsys.readouterr()
        for argv in (["distract", "gen", "--dataset", str(dataset), "--out", str(out),
                      "--ways", "27"], assemble + ["27"]):
            payload = assert_domain_error(main(argv), capsys.readouterr().err)
            assert "27" in payload["message"] and "26" in payload["message"]
            assert not out.exists()

    @pytest.mark.parametrize("spec", ["ir", "bogus"])
    def test_rank_names_the_scorer_specs_it_takes(self, tmp_path, spec, capsys):
        dataset = fold_dataset(tmp_path)
        pools = tmp_path / "pools.jsonl"
        pools.write_text(json.dumps({"id": "q001", "candidates": []}) + "\n", "utf-8")
        code = main(["distract", "rank", "--dataset", str(dataset), "--pools", str(pools),
                     "--scorer", spec])
        assert code == 1
        message = json.loads(capsys.readouterr().err.strip())["message"]
        assert f"{spec!r}" in message and message.endswith("use ir:SNAPSHOT or file:PATH")


class TestUsageErrors:
    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_no_arguments_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


def test_option_defaults_are_the_library_defaults():
    parse = build_parser().parse_args
    retrieve = parse(["retrieve", "--mode", "two", "--question", "q", "--answer", "a"])
    recall = parse(["eval", "recall", "--dataset", "d", "--mode", "two"])
    for args in (retrieve, recall):
        assert RetrievalParams(k=args.k, l=args.l, m=args.m) == RetrievalParams()
    gen = parse(["distract", "gen", "--dataset", "d"])
    assert AdversarialConfig(
        pool_dissimilar_n=gen.pool_n, token_slack=gen.token_slack,
        char_ratio_slack=gen.char_slack, target_ways=gen.ways,
    ) == AdversarialConfig()
    assemble = parse(["distract", "assemble", "--dataset", "d", "--ranked", "r", "--seed", "1"])
    assert assemble.ways == AdversarialConfig().target_ways
    solve = parse(["split", "solve", "--facts", "f", "--heuristic", "--out", "o"])
    defaults = SplitProblem([], {})
    assert tuple(map(float, solve.targets.split(","))) == defaults.fold_targets
    assert (solve.slack, solve.prune_threshold) == (defaults.slack, defaults.prune_threshold)


class TestEnvPathOverrides:
    def test_corpus_and_dataset_from_environment(
        self, corpus_file, fig1_dataset, capsys, monkeypatch
    ):
        monkeypatch.setenv("HOPKIT_CORPUS", str(corpus_file))
        monkeypatch.setenv("HOPKIT_DATASET", str(fig1_dataset))
        code = main(["eval", "recall", "--mode", "two"])
        assert code == 0
        assert "both_found\t10\t1.000000000\t1\t1" in capsys.readouterr().out

    def test_flag_beats_environment(self, corpus_file, fig1_dataset, capsys, monkeypatch):
        monkeypatch.setenv("HOPKIT_CORPUS", "/nonexistent/corpus.txt")
        code = main(["eval", "recall", "--corpus", str(corpus_file),
                     "--dataset", str(fig1_dataset), "--mode", "two"])
        assert code == 0
        capsys.readouterr()


# ---------------------------------------------------------------------------
# Input contract: every subcommand that reads a file exits 1 with exactly one
# JSON object on stderr, never a traceback, whatever is wrong with the file.

Q_ROW = {
    "id": "qbad",
    "question": {
        "stem": "what is thing number 9 made of?",
        "choices": [{"label": "A", "text": "answer009"}, {"label": "B", "text": "a decoy"}],
    },
    "answerKey": "A",
    "fact1": "thing9 relates to matter9 strongly",
    "fact2": "matter9 builds answer009 pieces",
    "combinedfact": "thing9 builds answer009 pieces",
}
CHOICE_0 = ("question", "choices", 0)


def _is_str(value):
    return isinstance(value, str)


def _floatable(value):
    if isinstance(value, bool):
        return False
    try:
        float(value)
    except (TypeError, ValueError):
        return False
    return True


# format -> (valid row, keys whose removal must fail, [(field, accepts)]):
# setting a field to a JSON value that `accepts` rejects must fail.
ROW_FORMATS = {
    "dataset": (
        Q_ROW,
        [("id",), ("question",), ("question", "stem"), ("question", "choices"),
         CHOICE_0 + ("label",), CHOICE_0 + ("text",), ("answerKey",)],
        [(("id",), _is_str), (("question",), lambda v: isinstance(v, dict)),
         (("question", "stem"), _is_str), (("question", "choices"), lambda v: isinstance(v, list)),
         (CHOICE_0 + ("label",), _is_str), (CHOICE_0 + ("text",), _is_str),
         (("answerKey",), _is_str)]
        + [((key,), lambda v: v is None or isinstance(v, str))
           for key in ("fact1", "fact2", "combinedfact")],
    ),
    "scores": (
        {"id": "q000", "label": "A", "score": 0.5},
        [("id",), ("label",), ("score",)],
        [(("id",), _is_str), (("label",), _is_str), (("score",), _floatable)],
    ),
    "pools": (
        {"id": "q000", "candidates": [{"text": "answer001", "source_question_id": "q001"}]},
        [("id",), ("candidates",), ("candidates", 0, "text")],
        [(("id",), _is_str), (("candidates",), lambda v: isinstance(v, list)),
         (("candidates", 0, "text"), _is_str), (("candidates", 0, "source_question_id"), _is_str)],
    ),
    "ranked": (
        {"id": "q000", "ranked": [{"text": "answer001"}]},
        [("id",), ("ranked",), ("ranked", 0, "text")],
        [(("id",), _is_str), (("ranked",), lambda v: isinstance(v, list)),
         (("ranked", 0, "text"), _is_str)],
    ),
    "facts": (
        {"id": "f9", "text": "wind energy turbine", "questions": 3},
        [("id",), ("text",)],
        [(("id",), lambda v: isinstance(v, (str, int)) and not isinstance(v, bool)),
         (("text",), _is_str),
         (("questions",), lambda v: isinstance(v, int) and not isinstance(v, bool))],
    ),
}

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: (
        st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner, max_size=3)
    ),
    max_leaves=5,
)

FIG1_ARGS = ["--question", FIG1_QUESTION, "--answer", FIG1_ANSWER]
COMMANDS = {
    "retrieve": lambda f: ["retrieve", "--index", f["snapshot"], "--mode", "two", *FIG1_ARGS],
    "eval recall": lambda f: ["eval", "recall", "--index", f["snapshot"],
                              "--dataset", f["dataset"], "--mode", "two"],
    "eval accuracy": lambda f: ["eval", "accuracy", "--dataset", f["dataset"],
                                "--scorer", f"file:{f['scores']}"],
    "stats overlap": lambda f: ["stats", "overlap", "--dataset", f["dataset"]],
    "distract gen": lambda f: ["distract", "gen", "--dataset", f["dataset"], "--ways", "4"],
    "distract rank": lambda f: ["distract", "rank", "--dataset", f["dataset"],
                                "--pools", f["pools"], "--scorer", f"ir:{f['snapshot']}"],
    "distract assemble": lambda f: ["distract", "assemble", "--dataset", f["dataset"],
                                    "--ranked", f["ranked"], "--seed", "1", "--ways", "4"],
    "split solve": lambda f: ["split", "solve", "--facts", f["facts"], "--heuristic",
                              "--iterations", "50", "--restarts", "1", "--out", f["split"]],
    "split solve --exact": lambda f: ["split", "solve", "--facts", f["facts"], "--exact",
                                      "--out", f["split"]],
    "validate": lambda f: ["validate", "--dataset", f["dataset"]],
    "index stats": lambda f: ["index", "stats", "--index", f["snapshot"]],
}
READS = [
    ("retrieve", "snapshot"), ("eval recall", "snapshot"), ("index stats", "snapshot"),
    ("distract rank", "snapshot"), ("eval recall", "dataset"),
    ("eval accuracy", "dataset"), ("eval accuracy", "scores"), ("stats overlap", "dataset"),
    ("distract gen", "dataset"), ("distract rank", "dataset"), ("distract rank", "pools"),
    ("distract assemble", "dataset"), ("distract assemble", "ranked"),
    ("split solve", "facts"), ("validate", "dataset"),
]


BIG = 10**400  # 401 digits, more than a float holds
BIG_SCORE = [{"id": "q000", "label": "Z", "score": BIG}]
# case -> (argv, file the rows are appended to, rows, exit code, text the
# error message holds, formatted with the files)
HUGE_INTEGER_INPUTS = {
    "eval accuracy score": (COMMANDS["eval accuracy"], "scores", BIG_SCORE, 1, "{scores}:"),
    "distract rank file score": (
        lambda f: [*COMMANDS["distract rank"](f), "--scorer", f"file:{f['scores']}"],
        "scores", BIG_SCORE, 1, "{scores}:"),
    "distract gen --token-slack": (
        lambda f: [*COMMANDS["distract gen"](f), "--token-slack", BIG], None, [], 0, ""),
    "distract gen --pool-n": (
        lambda f: [*COMMANDS["distract gen"](f), "--pool-n", BIG], None, [], 0, ""),
    "distract gen --ways": (
        lambda f: [*COMMANDS["distract gen"](f), "--ways", BIG], None, [], 1, "at most 26"),
    "split solve questions": (
        COMMANDS["split solve"], "facts", [{"id": "f9", "text": "wind", "questions": BIG}], 1,
        "{facts}"),
    "split solve question total": (
        COMMANDS["split solve"], "facts",
        [{"id": f"f{i}", "text": "wind", "questions": 10**308} for i in (8, 9)], 1, "{facts}"),
}


def run_quietly(argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([str(arg) for arg in argv])
    return code, err.getvalue()


@pytest.fixture(scope="module")
def contract_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("contract")
    corpus = root / "corpus.txt"
    corpus.write_text(
        resources.files("hopkit.data").joinpath("mini_corpus.txt").read_text("utf-8"), "utf-8"
    )
    files = {"dataset": fold_dataset(root, n=8), "snapshot": root / "idx" / "index.hopidx",
             "pools": root / "pools.jsonl", "ranked": root / "ranked.jsonl",
             "scores": root / "scores.jsonl", "facts": root / "facts.jsonl",
             "split": root / "split" / "out"}
    assert run_quietly(["index", "build", "--corpus", corpus, "--out", root / "idx"])[0] == 0
    files["scores"].write_text("".join(
        json.dumps({"id": q.id, "label": c.label, "score": float(i)}) + "\n"
        for q in load_questions(files["dataset"]) for i, c in enumerate(q.choices)
    ), "utf-8")
    files["facts"].write_text("".join(
        json.dumps({"id": f"f{i}", "text": f"wind energy item{i % 3}", "questions": 2}) + "\n"
        for i in range(6)
    ), "utf-8")
    for command, out in (("distract gen", "pools"), ("distract rank", "ranked")):
        assert run_quietly(COMMANDS[command](files) + ["--out", files[out]])[0] == 0
    return files


def _at(row, path):
    for key in path:
        row = row[key]
    return row


def _mutated(row, path, value=None, delete=False):
    row = json.loads(json.dumps(row))
    parent = _at(row, path[:-1])
    if delete:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return row


def bad_row_line(draw, fmt: str) -> str:
    """One line of a JSON-lines file that its reader must reject."""
    template, required, typed = ROW_FORMATS[fmt]
    kind = draw(st.sampled_from(["bad json", "not an object", "missing key", "wrong type"]))
    if kind == "bad json":
        # every strict prefix of a serialized object is invalid JSON
        text = json.dumps(template)
        return text[: draw(st.integers(1, len(text) - 1))]
    if kind == "not an object":
        return json.dumps(draw(JSON_VALUES.filter(lambda v: not isinstance(v, dict))))
    if kind == "missing key":
        return json.dumps(_mutated(template, draw(st.sampled_from(required)), delete=True))
    path, accepts = draw(st.sampled_from(typed))
    value = draw(JSON_VALUES.filter(lambda v: not accepts(v)))
    return json.dumps(_mutated(template, path, value))


def bad_snapshot(draw, raw: bytes) -> bytes:
    """Snapshot bytes load_snapshot must reject."""
    body = raw[len(MAGIC) + 32 :]

    def sealed(new_body: bytes) -> bytes:
        return MAGIC + hashlib.sha256(new_body).digest() + new_body

    kind = draw(st.sampled_from([
        "truncated", "trailing", "flipped", "version 1", "version 2", "version 3", "version 4",
        "junk",
        "doc id out of range", "repeated doc id", "tf below 1", "offsets not increasing",
        "section lengths", "another token pattern", "another unicode version",
        "another normal form",
    ]))
    if kind in CRAFTED_BODIES:
        parts = SnapshotParts(raw)
        CRAFTED_BODIES[kind](draw, parts)
        return parts.sealed()
    if kind == "truncated":
        return sealed(body[: draw(st.integers(0, len(body) - 1))])
    if kind == "trailing":
        return sealed(body + draw(st.binary(min_size=1, max_size=8)))
    if kind == "flipped":
        at = draw(st.integers(0, len(raw) - 1))
        return raw[:at] + bytes([raw[at] ^ draw(st.integers(1, 255))]) + raw[at + 1 :]
    if kind.startswith("version"):
        return f"HOPIDX{kind[-1]}\x00".encode() + raw[len(MAGIC) :]
    return draw(st.binary(max_size=64))


def _repeat_a_doc_id(draw, parts) -> None:
    offsets = parts.offsets
    start = draw(st.sampled_from([offsets[t] for t in range(len(offsets) - 1)
                                  if offsets[t + 1] - offsets[t] >= 2]))
    parts.gaps[start + 1] = 0


def _push_a_doc_id_out_of_range(draw, parts) -> None:
    # raise one gap until its term's gaps, which sum to its last id + 1,
    # pass the sentence count
    at = draw(st.integers(0, len(parts.gaps) - 1))
    t = bisect_right(parts.offsets, at) - 1
    total = sum(parts.gaps[parts.offsets[t] : parts.offsets[t + 1]])
    parts.gaps[at] += parts.header[0] + 1 - total + draw(st.integers(0, 9))


def _swap_two_offsets(draw, parts) -> None:
    t = draw(st.integers(0, len(parts.offsets) - 2))
    parts.offsets[t], parts.offsets[t + 1] = parts.offsets[t + 1], parts.offsets[t]


def _set(section, at, value) -> None:
    section[at] = value


def _move_a_normal_form(draw, parts) -> None:
    # the last n_tokens strings are the tokenizer table's normal forms
    at = draw(st.integers(len(parts.strings) - parts.header[3], len(parts.strings) - 1))
    parts.strings[at] += draw(st.sampled_from([b"x", b"\xc3\xa9"]))


# Sealed bodies whose sections are well formed but disagree with each other.
CRAFTED_BODIES = {
    "doc id out of range": _push_a_doc_id_out_of_range,
    "repeated doc id": _repeat_a_doc_id,
    "tf below 1": lambda draw, parts: _set(parts.tfs, draw(st.integers(0, len(parts.tfs) - 1)), 0),
    "offsets not increasing": _swap_two_offsets,
    "section lengths": lambda draw, parts: _set(
        parts.header, at := draw(st.integers(0, 3)), parts.header[at] + draw(st.integers(1, 5))),
    # well formed, but written by another tokenizer
    "another token pattern": lambda draw, parts: _set(
        parts.strings, 1, draw(st.sampled_from([b"[a-z]+", parts.strings[1] + b"|\\d"]))),
    "another unicode version": lambda draw, parts: _set(
        parts.strings, 2, draw(st.sampled_from([b"9.0.0", b"99.0.0", b""]))),
    "another normal form": _move_a_normal_form,
}


def assert_domain_error(code: int, err: str) -> dict:
    assert code == 1
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert isinstance(payload, dict) and set(payload) == {"error", "message"}
    return payload


class TestInputContract:
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_valid_inputs_exit_0(self, contract_files, command):
        assert run_quietly(COMMANDS[command](contract_files)) == (0, "")

    @pytest.mark.parametrize("command, target", READS)
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_malformed_input_exits_1_with_json_error(self, contract_files, command, target, data):
        good = contract_files[target]
        bad = good.with_name(f"bad-{good.name}")
        if target == "snapshot":
            bad.write_bytes(bad_snapshot(data.draw, good.read_bytes()))
        else:
            lines = good.read_text("utf-8").splitlines()
            at = data.draw(st.integers(0, len(lines)))
            lines.insert(at, bad_row_line(data.draw, target))
            bad.write_text("\n".join(lines) + "\n", "utf-8")
        code, err = run_quietly(COMMANDS[command](dict(contract_files, **{target: bad})))
        assert_domain_error(code, err)

    @pytest.mark.parametrize(
        "command, target, line",
        [
            ("distract assemble", "ranked", {"id": "q000"}),
            ("split solve", "facts", [1, 2]),
            ("split solve", "facts", {"id": "f9", "text": 5}),
            ("eval accuracy", "scores", {"label": "A", "score": 1.0}),
            ("eval accuracy", "dataset", {"id": "q9", "question": "x", "answerKey": "A"}),
            ("validate", "dataset", "[" * 100_000),
            ("distract rank", "pools", {"id": "q000", "candidates": [{"text": "answer001"}]}),
            ("distract assemble", "ranked", {"id": "q000", "ranked": []}),
            ("distract assemble", "ranked", {"id": "qX", "ranked": []}),
            ("split solve", "facts", {"id": "f0", "text": "wind energy", "questions": 1}),
            ("split solve", "facts", '{"id": 7, "text": "wind", "questions": 1}\n'
                                     '{"id": "7", "text": "heat", "questions": 1}'),
            ("split solve", "facts", {"id": "f9", "text": "wind", "questions": True}),
            ("eval accuracy", "scores", {"id": "q000", "label": "B", "score": True}),
            ("split solve", "facts", {"id": None, "text": "wind", "questions": 1}),
            ("split solve", "facts", {"id": {"a": 1}, "text": "wind", "questions": 1}),
            ("split solve", "facts", {"id": True, "text": "wind", "questions": 1}),
            ("split solve", "facts", {"id": 1.5, "text": "wind", "questions": 1}),
        ],
        ids=["ranked row without ranked", "facts row not an object", "facts text not a string",
             "scores row without id", "question not an object", "nesting too deep",
             "pools row repeating an id", "ranked row repeating an id",
             "ranked row with an unknown id", "facts row repeating an id",
             "facts ids 7 and '7'", "facts questions a bool", "scores score a bool",
             "facts id null", "facts id an object", "facts id a bool", "facts id a float"],
    )
    def test_reproduced_crashes(self, contract_files, tmp_path, command, target, line):
        bad = tmp_path / contract_files[target].name
        text = line if isinstance(line, str) else json.dumps(line)
        bad.write_text(contract_files[target].read_text("utf-8") + text + "\n", "utf-8")
        code, err = run_quietly(COMMANDS[command](dict(contract_files, **{target: bad})))
        payload = assert_domain_error(code, err)
        assert payload["error"] == "HopkitError"
        assert f"{bad}:" in payload["message"]

    @pytest.mark.parametrize("case", sorted(HUGE_INTEGER_INPUTS))
    def test_integer_too_big_for_a_float_is_no_traceback(self, contract_files, tmp_path, case):
        argv, target, rows, code, named = HUGE_INTEGER_INPUTS[case]
        files = dict(contract_files, split=tmp_path / "split" / "out")
        if target:
            files[target] = tmp_path / files[target].name
            files[target].write_text(contract_files[target].read_text("utf-8") + jsonl(rows),
                                      "utf-8")
        got, err = run_quietly(argv(files))
        assert (got, "Traceback" in err) == (code, False)
        if code == 0:
            assert err == ""
        else:
            assert named.format(**files) in assert_domain_error(got, err)["message"]

    @pytest.mark.parametrize(
        "command, option, value, named",
        [
            ("distract gen", "--char-slack", "nan", "char_ratio_slack"),
            ("distract gen", "--char-slack", "inf", "char_ratio_slack"),
            ("distract assemble", "--ways", "0", "target_ways"),
            ("distract assemble", "--ways", "-3", "target_ways"),
            ("split solve", "--restarts", "0", "restarts"),
            ("split solve", "--restarts", "-1", "restarts"),
            ("split solve", "--iterations", "-1", "iterations"),
            ("split solve --exact", "--restarts", "0", "restarts"),
            ("split solve --exact", "--restarts", "-1", "restarts"),
            ("split solve --exact", "--iterations", "-1", "iterations"),
        ],
    )
    def test_out_of_range_option_is_named(self, contract_files, tmp_path, command, option,
                                          value, named):
        # a value the option cannot take exits 1 naming the option; it is
        # neither clamped nor blamed on the input files
        files = dict(contract_files, split=tmp_path / "split" / "out")
        code, err = run_quietly(COMMANDS[command](files) + [option, value])
        payload = assert_domain_error(code, err)
        assert payload["message"].startswith(f"{named} must be ")
        assert not files["split"].parent.exists()

    def test_iterations_too_big_for_a_float_is_named(self, tmp_path):
        # one fact of 5 questions: the component packing misses the mass
        # bounds, so the annealing would run and compute its cooling rate
        facts = tmp_path / "facts.jsonl"
        facts.write_text(jsonl([{"id": "f1", "text": "wind energy", "questions": 5}]), "utf-8")
        code, err = run_quietly(["split", "solve", "--facts", facts, "--heuristic",
                                 "--iterations", BIG, "--out", tmp_path / "split" / "out"])
        assert "Traceback" not in err
        assert assert_domain_error(code, err)["message"].startswith("iterations must be ")
        assert not (tmp_path / "split").exists()


# The commands that read a snapshot, and the flags of the files they write.
SNAPSHOT_OUTPUTS = {"retrieve": ["--out"], "eval recall": ["--out", "--audit"],
                    "distract rank": ["--out"], "index stats": []}


def _inflates_to(deflated: bytes, parts, at: int) -> bool:
    """Whether deflated bytes inflate, as a snapshot reads block at, to
    exactly that block's text."""
    unpacker = (zlib.decompressobj(zdict=parts.blocks[0][-(1 << 15) :]) if at
                else zlib.decompressobj())
    try:
        text = unpacker.decompress(deflated)
    except zlib.error:
        return False
    return text == parts.blocks[at] and unpacker.eof and not unpacker.unused_data


def bad_block(draw, parts) -> tuple[bytes, int | None]:
    """Snapshot bytes, sealed again, whose stream is intact but one of whose
    text blocks is not; and, for a duplicate sentence, the id of the
    sentence that now repeats another."""
    kind = draw(st.sampled_from(["deflate bytes altered", "one sentence short",
                                 "one sentence long", "invalid utf-8", "duplicate sentence"]))
    size = parts.header[6]
    at = draw(st.integers(0, len(parts.blocks) - 1))
    lines = parts.blocks[at].split(b"\n")[:-1]
    if kind == "deflate bytes altered":
        deflated = parts.deflated()
        block = bytearray(deflated[at])
        block[draw(st.integers(0, len(block) - 1))] ^= draw(st.integers(1, 255))
        # a flipped padding bit after the last deflate code leaves the text
        # as it was, so that draw makes no bad block
        assume(not _inflates_to(bytes(block), parts, at))
        deflated[at] = bytes(block)
        return parts.sealed(deflated), None
    replaced = None
    i = draw(st.integers(0, len(lines) - 1))
    if kind == "one sentence short":
        del lines[i]
    elif kind == "one sentence long":
        lines.insert(i, draw(st.sampled_from([b"", b"wind turbine spins fast.", lines[0]])))
    elif kind == "invalid utf-8":
        cut = draw(st.integers(0, len(lines[i])))
        lines[i] = lines[i][:cut] + b"\xff" + lines[i][cut:]
    else:
        replaced = at * size + i
        source = draw(st.integers(0, parts.header[0] - 1).filter(lambda sid: sid != replaced))
        lines[i] = parts.blocks[source // size].split(b"\n")[source % size]
    parts.blocks[at] = b"".join(line + b"\n" for line in lines)
    return parts.sealed(), replaced


def run_writing(command: str, files: dict, out_dir: Path) -> tuple:
    """(exit code, stderr, stdout, {flag: the bytes written, or None}) of a
    snapshot command whose output flags name files in an empty out_dir."""
    shutil.rmtree(out_dir, ignore_errors=True)
    outputs = {flag: out_dir / flag.strip("-") for flag in SNAPSHOT_OUTPUTS[command]}
    argv = [*COMMANDS[command](files), *(a for item in outputs.items() for a in item)]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([str(arg) for arg in argv])
    written = {flag: path.read_bytes() if path.exists() else None
               for flag, path in outputs.items()}
    return code, err.getvalue(), out.getvalue(), written


@pytest.fixture(scope="module")
def block_files(contract_files, tmp_path_factory):
    """contract_files with the corpus in a snapshot of text blocks of 4
    sentences, and what each snapshot command writes from it."""
    root = tmp_path_factory.mktemp("blocks")
    files = dict(contract_files, snapshot=root / "index.hopidx")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hopkit.index, "TEXT_BLOCK", 4)
        corpus = load_corpus(contract_files["snapshot"].parents[1] / "corpus.txt")
        write_snapshot(build_index(corpus), files["snapshot"])
    intact = {command: run_writing(command, files, root / "out") for command in SNAPSHOT_OUTPUTS}
    assert all(result[0] == 0 for result in intact.values())
    return files, intact


@pytest.mark.parametrize("command", sorted(SNAPSHOT_OUTPUTS))
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_a_bad_text_block_fails_a_command_that_reads_it(block_files, command, data):
    # exit 1 with one JSON error line and no output, or exit 0 with what
    # the intact snapshot gives; eval recall maps every text to its id, so
    # it reads every block and always fails
    files, intact = block_files
    raw, replaced = bad_block(data.draw, SnapshotParts(files["snapshot"].read_bytes()))
    bad = files["snapshot"].with_name("bad.hopidx")
    bad.write_bytes(raw)
    read = set()
    real = hopkit.index._BlockTexts.__getitem__

    def recording(texts, sid):
        read.add(sid)
        return real(texts, sid)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hopkit.index._BlockTexts, "__getitem__", recording)
        code, err, out, written = run_writing(command, dict(files, snapshot=bad),
                                              bad.parent / "out")
    event(f"exit {code}")
    if code or command == "eval recall":
        assert_domain_error(code, err)
        assert out == "" and set(written.values()) <= {None}
    elif replaced not in read:
        # a sentence read by its id is the text stored for it: a resealed
        # copy of another sentence shows only when the texts are mapped
        assert (code, err, out, written) == intact[command]


@pytest.mark.parametrize("command, flag", [
    ("retrieve", "--out"), ("eval recall", "--out"), ("eval recall", "--audit"),
    ("eval accuracy", "--out"), ("eval accuracy", "--emit-requests"), ("stats overlap", "--out"),
    ("distract gen", "--out"), ("distract rank", "--out"), ("distract assemble", "--out"),
    ("validate", "--out"),
])
def test_output_flag_creates_missing_directories(contract_files, tmp_path, command, flag):
    written = []
    for path in (tmp_path / "out.txt", tmp_path / "new" / "sub" / "out.txt"):
        assert run_quietly(COMMANDS[command](contract_files) + [flag, path]) == (0, "")
        written.append(path.read_bytes())
    assert written[0] and written[0] == written[1]
