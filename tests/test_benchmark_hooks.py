"""The benchmark's traced run wraps hopkit functions by name; a renamed or
deleted one must fail here, not only under ``perfbench/run.py --trace 1``."""

import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

from conftest import make_question, save_questions

ROOT = Path(__file__).resolve().parents[1]


def _run_traced(script: str) -> subprocess.CompletedProcess:
    # install() rebinds module globals, so it runs in its own interpreter
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120,
    )


def test_tracer_installs_over_every_hook_point():
    result = _run_traced("import tracing; tracing.Tracer({}).install()")
    assert result.returncode == 0, result.stderr


def test_tracer_counts_tokenizing_and_stemming_a_new_word():
    result = _run_traced(
        "import tracing\n"
        "tracer = tracing.Tracer({})\n"
        "tracer.install()\n"
        "import hopkit.corpus\n"
        "before = (tracer.tokenize_calls, tracer.stem_calls)\n"
        "bag = hopkit.corpus.tokenize_normalize('zorblegrinding')\n"
        "print(before, (tracer.tokenize_calls, tracer.stem_calls), sorted(bag))\n"
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["(0,", "0)", "(1,", "1)", "['zorblegrind']"]


_TRACED_CLI = """
import json, tracing
tracer = tracing.Tracer({})
tracer.install()
from hopkit.cli import main
codes = [main(argv) for argv in json.loads(COMMANDS)]
qids = {name: [span[4] for span in tracer.spans if span[0] == name]
        for name in ("distractor.prune", "distractor.rank")}
print(json.dumps({"codes": codes, "qids": qids}))
"""


def test_traced_cli_runs_distract_and_split_with_question_spans(tmp_path):
    ids = [f"q{i:02d}" for i in range(10)]
    dataset = tmp_path / "fold.jsonl"
    save_questions([
        make_question(qid, f"what is thing {i} made of?", f"answer{i:02d}", [f"other {i}"],
                      fact1=f"thing{i} relates to matter{i}",
                      fact2=f"matter{i} builds answer{i:02d}")
        for i, qid in enumerate(ids)
    ], dataset)
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("".join(f"The thing{i} is made of answer{i:02d} pieces.\n"
                              for i in range(10)), "utf-8")
    facts = tmp_path / "facts.jsonl"
    facts.write_text("".join(f'{{"id": "f{i}", "text": "matter{i % 3} builds thing{i}", '
                             f'"questions": 1}}\n' for i in range(10)), "utf-8")
    idx, pools, ranked = tmp_path / "idx", tmp_path / "pools.jsonl", tmp_path / "ranked.jsonl"
    commands = [
        ["index", "build", "--corpus", str(corpus), "--out", str(idx)],
        ["distract", "gen", "--dataset", str(dataset), "--out", str(pools)],
        ["distract", "rank", "--dataset", str(dataset), "--pools", str(pools),
         "--scorer", f"ir:{idx}", "--scorer", f"ir:{idx}", "--prune-top", "8",
         "--out", str(ranked)],
        ["distract", "assemble", "--dataset", str(dataset), "--ranked", str(ranked),
         "--seed", "3", "--out", str(tmp_path / "assembled.jsonl")],
        ["split", "solve", "--facts", str(facts), "--heuristic", "--iterations", "200",
         "--restarts", "1", "--prune-threshold", "0.1", "--out", str(tmp_path / "split")],
    ]
    result = _run_traced(f"COMMANDS = {json.dumps(commands)!r}\n" + _TRACED_CLI)
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout.splitlines()[-1])
    assert report["codes"] == [0] * len(commands), result.stderr
    assert report["qids"] == {"distractor.prune": ids, "distractor.rank": ids}


_TRACED_RETRIEVAL = """
import json, tracing
tracer = tracing.Tracer({})
tracer.install()
from hopkit.cli import main
codes = [main(argv) for argv in json.loads(COMMANDS)]
searches = [(tracer.spans[span[3]][0] if span[3] >= 0 else "", span[5])
            for span in tracer.spans if span[0] == "index.search"]
metrics = tracing.aggregate(tracer)
print(json.dumps({"codes": codes, "searches": searches,
                  "bridges": metrics["index.search_calls.bridge"][0]}))
"""


def test_traced_cli_runs_index_retrieve_and_recall_with_search_spans(tmp_path):
    # _keep_search reads index.postings of a real index built by the CLI
    corpus = tmp_path / "corpus.txt"
    corpus.write_text(
        "Differential heating of air produces wind.\n"
        "Wind is used for producing electricity.\n"
        "Solar panels convert light into electricity.\n"
        "Heating water produces steam for turbines.\n"
        "Wind turbines spin in moving air.\n", "utf-8")
    dataset = tmp_path / "questions.jsonl"
    save_questions([make_question(
        "q0", "Differential heating of air can be harnessed for what?",
        "electricity production", ["steam", "light"],
        fact1="Differential heating of air produces wind.",
        fact2="Wind is used for producing electricity.")], dataset)
    idx = tmp_path / "idx"
    commands = [
        ["index", "build", "--corpus", str(corpus), "--out", str(idx)],
        ["retrieve", "--index", str(idx), "--mode", "two",
         "--question", "Differential heating of air can be harnessed for what?",
         "--answer", "electricity production", "--out", str(tmp_path / "retrieved.jsonl")],
        ["eval", "recall", "--index", str(idx), "--dataset", str(dataset), "--mode", "two",
         "--out", str(tmp_path / "recall.tsv")],
    ]
    result = _run_traced(f"COMMANDS = {json.dumps(commands)!r}\n" + _TRACED_RETRIEVAL)
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout.splitlines()[-1])
    assert report["codes"] == [0] * len(commands), result.stderr
    searches = report["searches"]
    assert searches and report["bridges"] > 0
    assert {parent for parent, _ in searches} == {"retrieval.two_step"}
    for _, (constrained, hits, scanned, scored) in searches:
        assert 0 <= hits <= scored <= scanned
    # first hops pass no must_contain_any, which is how the tracer tells
    # them from bridges for index.search_calls.first_hop
    assert any(constrained for _, (constrained, *_) in searches)
    assert any(not constrained for _, (constrained, *_) in searches)
    assert all(scanned > 0 for _, (_, _, scanned, _) in searches)


_TRACED_TWO_STEP = """
import json, tracing
tracer = tracing.Tracer({})
tracer.install()
from hopkit.cli import main
codes = [main(argv) for argv in json.loads(COMMANDS)]
children = {i: [] for i, span in enumerate(tracer.spans) if span[0] == "retrieval.two_step"}
for span in tracer.spans:
    if span[0] == "index.search" and span[3] in children:
        children[span[3]].append(span[5][0])
print(json.dumps({"codes": codes, "children": list(children.values())}))
"""


def test_each_two_step_issues_one_first_hop_search(tmp_path):
    # the tracer counts a search passed no must_contain_any as a first hop,
    # so a two_step that constrained its first hop would count as bridges
    mini = resources.files("hopkit.data").joinpath("mini_corpus.txt")
    idx = tmp_path / "idx"
    retrieve = ["retrieve", "--index", str(idx), "--mode", "two", "--question",
                "Differential heating of air can be harnessed for what?",
                "--answer", "electricity production"]
    commands = [
        ["index", "build", "--corpus", str(mini), "--out", str(idx)],
        [*retrieve, "--out", str(tmp_path / "plain.jsonl")],
        ["retrieve", "--index", str(idx), "--mode", "two", "--question",
         "What can trigger an immune response?", "--answer", "transplanted organs",
         "--out", str(tmp_path / "antigen.jsonl")],
    ]
    result = _run_traced(f"COMMANDS = {json.dumps(commands)!r}\n" + _TRACED_TWO_STEP)
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout.splitlines()[-1])
    assert report["codes"] == [0] * len(commands), result.stderr
    assert len(report["children"]) == 2
    for constrained in report["children"]:
        assert constrained.count(False) == 1
        assert constrained[0] is False and len(constrained) > 1
