import hashlib
import json
from importlib import resources

import pytest

from hopkit.cli import main
from hopkit.index import MAGIC
from hopkit.qa import load_questions, save_questions

from conftest import FIG1_ANSWER, FIG1_FL, FIG1_FS, FIG1_QUESTION, make_question


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

    @pytest.mark.parametrize(
        "row",
        [
            {"id": "q000"},
            {"id": "q000", "candidates": [{"source_question_id": "q001"}]},
            {"id": "q000", "candidates": ["bare string"]},
            {"id": "q000", "candidates": [{"text": 7}]},
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


class TestUsageErrors:
    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_no_arguments_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


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
