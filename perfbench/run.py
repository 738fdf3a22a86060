"""hopkit benchmark: the CLI pipeline on generated inputs, with output checks.

Run from the repository root:

    python3 perfbench/run.py --workload dense-10k --seed 1 --seconds 9 --trace 0

Workloads (sizes and reasons are also recorded in BENCHMARK.json):

* ``chain-100k``: 2,000 planted 2-hop chains in 100,000 sentences of Zipf
  noise over 400 words, every chain question.  Queries are sparse, so
  corpus loading, Porter stemming and the snapshot (which re-stems the
  corpus on load) dominate; BM25 scoring should not move here.
* ``dense-10k``: 10,000 sentences and 80 questions built from the 40 most
  frequent noise words, gold facts in the corpus.  Bridge searches walk
  long posting lists, so the search kernel dominates and the snapshot
  barely shows.
* ``construct-fold``: a 160-question fold of composed questions (facts mix
  chain-unique and topic-clustered words) over a 10,000-sentence IR
  corpus, plus the dataset's 2,000 seed facts for the splitter.  The
  quadratic candidate pooling, many tiny top-1 IR searches and the
  quadratic split problem build dominate.

Every run is one closed loop (one caller, each command waiting for the
last, no threads).  Inputs are generated from ``--seed``; the commands run
through ``hopkit.cli.main`` in a fresh child process (pipeline.py), whose
peak memory is reported.  Index build, cold retrieve and split solve run
in rounds until each has run at least once and for ``--seconds / 3``
seconds, and each reports its median.  Then the batch commands run in
order, once, or on dense-10k twice (its single long recall command is the
noisiest measurement), and report their median.

``--trace 1`` runs the pipeline twice in fresh processes, each command
once: untraced, then traced.  It prints the per-layer metrics and the
tracing overhead, writes the spans to ``.perfbench_out/``, and fails the
run if tracing changed any output byte.

Times are reported at reference machine speed.  A shared machine's speed
drifts by tens of percent within minutes, so pipeline.py samples it all
through the run by timing a fixed reference work every 0.1 s; a command's
wall time, less the probes that ran inside it, is divided by the median
probe time around the command over REFERENCE_S.  The unscaled values are
printed too, as the ``measured`` line.  Per-layer times are not scaled;
the tracing overhead is, like the end-to-end times.

Output checks (checks.py) run after the pipeline, outside the timings;
a command that exits non-zero or fails a check is a failed operation.
The sha256 of every output file is printed, and written to
``.perfbench_out/``, so byte identity can be compared across commits.
The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN_LIMIT_S = 175.0
# Duration of one pipeline.reference_work() call at reference machine speed
# (the typical speed of a shared 2-core x86-64 VM on Python 3.11), and how far
# around a command its speed is sampled.
REFERENCE_S = 0.005
PROBE_WINDOW_S = 1.0
RETRIEVE_QUESTIONS = 8  # cold retrieves cycle through this many questions
DENSE_ORACLE_SAMPLE = 2  # dense-10k audit entries also checked against the oracle
POOL_N = 100
PRUNE_TOP = 30
N_SCORERS = 2

WORKLOADS = {
    "chain-100k": {"kind": "retrieval", "chains": 2000, "sentences": 100_000},
    "dense-10k": {"kind": "retrieval", "questions": 80, "sentences": 10_000, "batch_runs": 2},
    "construct-fold": {"kind": "construct", "facts": 2000, "fold": 160, "sentences": 10_000},
}


def generate(name: str, seed: int, in_dir: Path) -> dict:
    import synth

    spec = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    if name == "chain-100k":
        lines, questions, facts = synth.chain_dataset(rng, spec["chains"], spec["sentences"])
    elif name == "dense-10k":
        lines, questions, facts = synth.dense_dataset(rng, spec["sentences"], spec["questions"])
    else:
        lines, questions, facts = synth.construct_dataset(
            rng, spec["facts"], spec["fold"], spec["sentences"])
    in_dir.mkdir(parents=True)
    paths = {"corpus": in_dir / "corpus.txt", "questions": in_dir / "questions.jsonl",
             "facts": in_dir / "facts.jsonl"}
    paths["corpus"].write_text("\n".join(lines) + "\n", "utf-8")
    for key, rows in (("questions", questions), ("facts", facts)):
        paths[key].write_text("".join(json.dumps(row) + "\n" for row in rows), "utf-8")
    return {"lines": lines, "questions": questions, "facts": facts,
            "paths": {k: str(v) for k, v in paths.items()}}


def make_plan(name: str, data: dict, out: Path, budget: float, trace: bool,
              seed: int) -> dict:
    from checks import answer_text

    paths = data["paths"]
    idx = str(out / "idx")

    def phase(command, ops):
        return {"name": command, "ops": ops}

    def op(argv, outputs, qid=None):
        return {"argv": [str(a) for a in argv], "outputs": outputs, "qid": qid}

    retrieves = []
    for i, q in enumerate(data["questions"][:RETRIEVE_QUESTIONS]):
        retrieves.append(op(
            ["retrieve", "--index", idx, "--mode", "two", "--question", q["question"]["stem"],
             "--answer", answer_text(q), "--out", out / f"retrieve-{i}.jsonl"],
            [f"retrieve-{i}.jsonl"], q["id"]))
    rounds = [
        phase("index_build", [op(["index", "build", "--corpus", paths["corpus"], "--out", idx],
                                 ["idx/index.hopidx", "idx/rejections.tsv"])]),
        phase("retrieve", retrieves),
        phase("split_solve", [op(
            ["split", "solve", "--facts", paths["facts"], "--heuristic",
             "--out", out / "split" / "split"], ["split/split.json", "split/split.tsv"])]),
    ]
    if WORKLOADS[name]["kind"] == "retrieval":
        batch = [phase("eval_recall", [op(
            ["eval", "recall", "--index", idx, "--dataset", paths["questions"], "--mode", "two",
             "--out", out / "recall.tsv", "--audit", out / "audit.jsonl"],
            ["recall.tsv", "audit.jsonl"])])]
    else:
        batch = [
            phase("distract_gen", [op(
                ["distract", "gen", "--dataset", paths["questions"], "--pool-n", POOL_N,
                 "--out", out / "pools.jsonl"], ["pools.jsonl"])]),
            phase("distract_rank", [op(
                ["distract", "rank", "--dataset", paths["questions"], "--pools",
                 out / "pools.jsonl", "--scorer", f"ir:{idx}",
                 "--scorer", f"ir:{idx}/index.hopidx", "--prune-top", PRUNE_TOP,
                 "--out", out / "ranked.jsonl"], ["ranked.jsonl"])]),
            phase("distract_assemble", [op(
                ["distract", "assemble", "--dataset", paths["questions"], "--ranked",
                 out / "ranked.jsonl", "--seed", seed, "--out", out / "assembled.jsonl"],
                ["assembled.jsonl"])]),
            phase("validate", [op(
                ["validate", "--dataset", out / "assembled.jsonl", "--out",
                 out / "validate.jsonl"], ["validate.jsonl"])]),
        ]
    return {
        "root": ".",
        "trace": trace,
        # a zero budget (trace runs) runs every command once
        "batch_runs": WORKLOADS[name].get("batch_runs", 1) if budget else 1,
        "qid_by_stem": {q["question"]["stem"]: q["id"] for q in data["questions"]},
        "budget": budget,
        "rounds": rounds,
        "batch": batch,
        "result_out": str(out / "pipeline-result.json"),
        "spans_out": str(out.parent / "spans.jsonl"),
    }


def run_pipeline(plan: dict, out: Path, deadline: float) -> dict:
    out.mkdir(parents=True)
    plan_path = out.parent / f"plan-{out.name}.json"
    plan_path.write_text(json.dumps(plan), "utf-8")
    env = dict(os.environ, PYTHONHASHSEED="0")
    subprocess.run([sys.executable, str(HERE / "pipeline.py"), str(plan_path)],
                   check=True, env=env, timeout=max(1.0, deadline - time.monotonic()))
    result = json.loads(Path(plan["result_out"]).read_text("utf-8"))
    Path(plan["result_out"]).unlink()
    ops = {phase["name"]: phase["ops"] for phase in plan["rounds"] + plan["batch"]}
    for record in result["records"]:
        record["outputs"] = ops[record["phase"]][record["op"]]["outputs"]
    return result


def digests(out: Path) -> dict[str, str]:
    return {
        str(path.relative_to(out)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*")) if path.is_file()
    }


def check_outputs(name: str, data: dict, out: Path, records: list[dict]) -> list[list[str]]:
    """Failure messages per record, from checks.py."""
    import checks

    lines, questions, facts = data["lines"], data["questions"], data["facts"]
    line_of = {text: i for i, text in enumerate(lines)}
    failures = [[] for _ in records]
    by_phase: dict[str, list[int]] = {}
    for i, record in enumerate(records):
        by_phase.setdefault(record["phase"], []).append(i)
        if record["rc"] != 0:
            failures[i].append(f"exit {record['rc']}: {record['stderr'].strip()[-300:]}")

    def run(i: int, check, *args) -> None:
        if failures[i]:
            return
        try:
            failures[i] += check(*args)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            failures[i].append(f"{check.__name__}: unreadable output ({exc!r})")

    for i in by_phase["index_build"]:
        run(i, checks.check_build, records[i]["stdout"], len(lines))
    oracle = None
    if name == "dense-10k":
        from hopkit.corpus import Corpus
        from oracles import OracleSearcher

        oracle = OracleSearcher(Corpus.from_texts(lines))
    retrieved_by_qid = {}
    first_of_op: dict[int, int] = {}
    for i in by_phase["retrieve"]:
        # repeats of one question rewrite the same file: check it once
        first = first_of_op.setdefault(records[i]["op"], i)
        if first != i:
            failures[i] += failures[first]
            continue
        question = questions[records[i]["op"]]
        path = out / records[i]["outputs"][0]
        run(i, checks.check_retrieve, path, question, lines)
        if oracle is not None:
            run(i, checks.check_retrieve_oracle, path, question, oracle)
        if not failures[i]:
            retrieved_by_qid[question["id"]] = checks.parse_retrieve(path)[0]
    if WORKLOADS[name]["kind"] == "retrieval":
        i, *repeats = by_phase["eval_recall"]
        run(i, checks.check_recall, out / "recall.tsv", out / "audit.jsonl", questions,
            line_of, retrieved_by_qid)
        if name == "chain-100k":
            run(i, checks.check_dominance, out / "recall.tsv", questions)
        if oracle is not None:
            run(i, checks.check_audit_oracle, out / "audit.jsonl",
                questions[-DENSE_ORACLE_SAMPLE:], oracle)
        for j in repeats:  # rewrote the same files
            failures[j] += failures[i]
    else:
        (gen,) = by_phase["distract_gen"]
        (rank,) = by_phase["distract_rank"]
        (assemble,) = by_phase["distract_assemble"]
        (validate,) = by_phase["validate"]
        run(gen, checks.check_pools, out / "pools.jsonl", questions)
        run(rank, checks.check_ranked, out / "ranked.jsonl", out / "pools.jsonl",
            PRUNE_TOP, N_SCORERS)
        run(assemble, checks.check_assembled, out / "assembled.jsonl", questions)
        run(validate, checks.check_validation, out / "validate.jsonl", questions)
    for i in by_phase["split_solve"]:
        run(i, checks.check_split, out / "split" / "split.json", facts, records[i]["stdout"])
    return failures


def scale_to_reference(records: list[dict], probes: list[list[float]]) -> None:
    """Give each record ``measured_s`` (its wall time minus the speed
    probes that ran inside it) and ``scaled_s`` (that time at reference
    machine speed: divided by the median probe duration within
    PROBE_WINDOW_S of the command, over REFERENCE_S)."""
    for record in records:
        start, end = record["start"], record["start"] + record["seconds"]
        inside = sum(d for t, d in probes if start <= t < end)
        near = [d for t, d in probes if start - PROBE_WINDOW_S <= t < end + PROBE_WINDOW_S]
        record["measured_s"] = record["seconds"] - inside
        record["speed_factor"] = statistics.median(near) / REFERENCE_S if near else 1.0
        record["scaled_s"] = record["measured_s"] / record["speed_factor"]


def end_to_end(name: str, data: dict, out: Path, result: dict, key: str) -> dict:
    seconds: dict[str, list[float]] = {}
    for record in result["records"]:
        seconds.setdefault(record["phase"], []).append(record[key])
    if WORKLOADS[name]["kind"] == "retrieval":
        qps = len(data["questions"]) / statistics.median(seconds["eval_recall"])
    else:
        stages = ("distract_gen", "distract_rank", "distract_assemble", "validate")
        qps = len(data["questions"]) / sum(statistics.median(seconds[s]) for s in stages)
    corpus_bytes = os.path.getsize(data["paths"]["corpus"])
    return {
        "setup_s": (statistics.median(seconds["index_build"]), "s"),
        "retrieve_cold_s": (statistics.median(seconds["retrieve"]), "s"),
        "pipeline_qps": (qps, "1/s"),
        "split_s": (statistics.median(seconds["split_solve"]), "s"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024.0, "MB"),
        "index_bytes_per_corpus_byte": (
            os.path.getsize(out / "idx" / "index.hopidx") / corpus_bytes, "ratio"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    root = Path.cwd()
    if not (root / "src" / "hopkit" / "cli.py").is_file() or not (root / "tests" / "oracles.py").is_file():
        sys.stderr.write("run from the repository root: src/hopkit and tests/oracles.py are needed\n")
        return 2
    sys.path[1:1] = [str(root / "src"), str(root / "tests")]

    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    work = Path(".perfbench_work") / f"{tag}-{os.getpid()}"
    record_dir = Path(".perfbench_out")
    record_dir.mkdir(exist_ok=True)
    deadline = started + RUN_LIMIT_S
    try:
        data = generate(args.workload, args.seed, work / "in")
        if args.trace:
            plain_out, out = work / "plain", work / "traced"
            plain = run_pipeline(make_plan(args.workload, data, plain_out, 0.0, False, args.seed),
                                 plain_out, deadline)
            result = run_pipeline(make_plan(args.workload, data, out, 0.0, True, args.seed),
                                  out, deadline)
        else:
            out = work / "out"
            result = run_pipeline(
                make_plan(args.workload, data, out, args.seconds / 3, False, args.seed),
                out, deadline)
        records = result["records"]
        failures = check_outputs(args.workload, data, out, records)
        output_digests = digests(out)
        if args.trace:
            # the traced run must write exactly the bytes the untraced run wrote
            plain_digests = digests(plain_out)
            for i, record in enumerate(records):
                changed = [p for p in record["outputs"] if plain_digests.get(p) != output_digests.get(p)]
                if changed:
                    failures[i].append(f"tracing changed output bytes of {changed}")
            shutil.move(str(work / "spans.jsonl"), record_dir / f"spans-{tag}.jsonl")
            metrics = {name: tuple(pair) for name, pair in result["layers"].items()}
            scale_to_reference(plain["records"], plain["probes"])
            scale_to_reference(records, result["probes"])
            plain_s = sum(r["scaled_s"] for r in plain["records"])
            traced_s = sum(r["scaled_s"] for r in records)
            metrics["trace.overhead_s"] = (traced_s - plain_s, "s")
            metrics["trace.overhead_ratio"] = ((traced_s - plain_s) / plain_s, "ratio")
        else:
            scale_to_reference(records, result["probes"])
            measured = end_to_end(args.workload, data, out, result, "measured_s")
            print(json.dumps({
                "measured": {name: value for name, (value, _) in measured.items()},
                "speed_factor": statistics.median(r["speed_factor"] for r in records),
                "probes": len(result["probes"]),
            }))
            metrics = end_to_end(args.workload, data, out, result, "scaled_s")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = [(r["phase"], msgs) for r, msgs in zip(records, failures) if msgs]
    for phase, msgs in failed:
        sys.stderr.write(f"FAILED {phase}: {'; '.join(msgs)}\n")
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "sha256": output_digests}
    (record_dir / f"sha256-{tag}.json").write_text(json.dumps(record, indent=1) + "\n", "utf-8")
    print(json.dumps({"sha256": output_digests}, sort_keys=True))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
