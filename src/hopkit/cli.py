"""Command-line interface: one subcommand per pipeline stage.

Outputs are deterministic for fixed (inputs, flags, seed): per-question
work is emitted sorted by question id and floats are rounded to 9
decimals.  Exit codes: 0 ok, 1 domain error (JSON on stderr), 2 usage.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import __version__
from .corpus import load_corpus, write_rejection_report
from .distractor import (
    AdversarialConfig,
    assemble_8way,
    candidate_pool_with_sources,
    multi_adversary_rank,
    prune_by_scorer,
)
from .errors import HopkitError
from .index import (
    NEGATION_TOKENS,
    InvertedIndex,
    build_index,
    load_snapshot,
    write_snapshot,
)
from .qa import (
    FileScorer,
    IRScorer,
    emit_score_requests,
    eval_accuracy,
    load_questions,
    overlap_stats,
    question_to_json,
)
from .retrieval import RetrievalParams, recall_report, single_step, two_step
from .splitter import (
    build_problem,
    load_facts_jsonl,
    problem_to_json,
    solve_exact,
    solve_heuristic,
)
from .validator import validation_jsonl

SNAPSHOT_NAME = "index.hopidx"

# Path flags fall back to these when omitted (paths only, per the contract).
ENV_PATHS = {"index": "HOPKIT_INDEX", "corpus": "HOPKIT_CORPUS", "dataset": "HOPKIT_DATASET"}


def _round9(value: float) -> float:
    return round(value, 9)


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, "utf-8")
    else:
        sys.stdout.write(text)


def _resolve_snapshot(path: str) -> Path:
    p = Path(path)
    if p.is_dir():
        return p / SNAPSHOT_NAME
    return p


def _load_index(args) -> InvertedIndex:
    if getattr(args, "index", None):
        return load_snapshot(_resolve_snapshot(args.index))
    if getattr(args, "corpus", None):
        return build_index(load_corpus(args.corpus))
    raise HopkitError("need --index SNAPSHOT or --corpus FILE")


def _make_scorer(spec: str, args):
    if spec == "ir":
        return IRScorer(_load_index(args))
    if spec.startswith("ir:"):
        return IRScorer(load_snapshot(_resolve_snapshot(spec[3:])), name=spec)
    if spec.startswith("file:"):
        return FileScorer(spec[5:], name=spec)
    raise HopkitError(f"unknown scorer spec {spec!r}; use ir, ir:SNAPSHOT, or file:PATH")


# ---------------------------------------------------------------------------
# Subcommand handlers


def cmd_index_build(args) -> int:
    corpus = load_corpus(args.corpus)
    index = build_index(corpus)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_snapshot(index, out_dir / SNAPSHOT_NAME)
    write_rejection_report(corpus, out_dir / "rejections.tsv")
    summary = {
        "sentences": len(corpus),
        "rejected": sum(corpus.rejections.values()),
        "source_digest": corpus.source_digest,
        "snapshot": str(out_dir / SNAPSHOT_NAME),
    }
    sys.stdout.write(json.dumps(summary) + "\n")
    return 0


def cmd_retrieve(args) -> int:
    index = _load_index(args)
    params = RetrievalParams(k=args.k, l=args.l, m=args.m)
    negations = NEGATION_TOKENS if args.drop_negations else None
    lines = []
    if args.mode == "single":
        hits = single_step(index, args.question, args.answer, params.m, negations)
        for rank, hit in enumerate(hits, start=1):
            lines.append(
                {
                    "type": "fact",
                    "rank": rank,
                    "id": hit.sentence_id,
                    "score": _round9(hit.score),
                    "text": index.corpus[hit.sentence_id].text,
                }
            )
    else:
        facts, pairs = two_step(index, args.question, args.answer, params, negations)
        for rank, fid in enumerate(facts, start=1):
            lines.append(
                {"type": "fact", "rank": rank, "id": fid, "text": index.corpus[fid].text}
            )
        for pair in pairs:
            lines.append(
                {
                    "type": "pair",
                    "f1": pair.f1,
                    "f2": pair.f2,
                    "score1": _round9(pair.score1),
                    "score2": _round9(pair.score2),
                    "pair_score": _round9(pair.pair_score),
                }
            )
    _emit("".join(json.dumps(line) + "\n" for line in lines), args.out)
    return 0


def cmd_eval_recall(args) -> int:
    index = _load_index(args)
    params = RetrievalParams(k=args.k, l=args.l, m=args.m)
    dataset = load_questions(args.dataset)
    report = recall_report(index, dataset, params, args.mode)
    _emit(report.to_tsv(), args.out)
    if args.audit:
        Path(args.audit).write_text(report.audit_jsonl(), "utf-8")
    return 0


def cmd_eval_accuracy(args) -> int:
    dataset = load_questions(args.dataset)
    if args.emit_requests:
        emit_score_requests(dataset, args.emit_requests)
    scorer = _make_scorer(args.scorer, args)
    accuracy = eval_accuracy(scorer, dataset)
    _emit(f"accuracy\t{accuracy:.9f}\t{len(dataset)}\n", args.out)
    return 0


def cmd_stats_overlap(args) -> int:
    dataset = load_questions(args.dataset)
    report = overlap_stats(dataset, count_occurrences=args.occurrences)
    _emit(report.to_table(), args.out)
    return 0


def cmd_distract_gen(args) -> int:
    dataset = load_questions(args.dataset)
    config = AdversarialConfig(
        pool_dissimilar_n=args.pool_n,
        pool_keep_top=args.prune_top,
        token_slack=args.token_slack,
        char_ratio_slack=args.char_slack,
        target_ways=args.ways,
    )
    lines = []
    for question in sorted(dataset, key=lambda q: q.id):
        pool = candidate_pool_with_sources(question, dataset, config)
        lines.append(
            {
                "id": question.id,
                "answer": question.answer_text,
                "candidates": [
                    {"text": text, "source_question_id": source} for text, source in pool
                ],
            }
        )
    _emit("".join(json.dumps(line) + "\n" for line in lines), args.out)
    return 0


def _load_pools(path: str) -> dict[str, list[tuple[str, str]]]:
    pools = {}
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
                qid = row["id"]
                candidates = [
                    (c["text"], c.get("source_question_id", "")) for c in row["candidates"]
                ]
                if not isinstance(qid, str) or not all(
                    isinstance(text, str) for text, _ in candidates
                ):
                    raise TypeError("id and candidate texts must be strings")
            except (KeyError, TypeError, ValueError) as exc:
                raise HopkitError(f"{path}:{lineno}: bad pools row: {exc!r}") from exc
            pools[qid] = candidates
    return pools


def cmd_distract_rank(args) -> int:
    dataset = {q.id: q for q in load_questions(args.dataset)}
    pools = _load_pools(args.pools)
    scorers = [_make_scorer(spec, args) for spec in args.scorer]
    lines = []
    for qid in sorted(pools):
        if qid not in dataset:
            raise HopkitError(f"pool references unknown question id {qid!r}")
        question = dataset[qid]
        candidates = pools[qid]
        if args.prune_top:
            kept = set(
                prune_by_scorer(scorers[0], question, candidates, args.prune_top)
            )
            candidates = [c for c in candidates if c[0] in kept]
        ranked = multi_adversary_rank(scorers, question, candidates)
        lines.append(
            {
                "id": qid,
                "answer": question.answer_text,
                "ranked": [
                    {
                        "text": c.text,
                        "source_question_id": c.source_question_id,
                        "per_model": [_round9(v) for v in c.per_model],
                        "fooled_count": c.fooled_count,
                        "margin_sum": _round9(c.margin_sum),
                    }
                    for c in ranked
                ],
            }
        )
    _emit("".join(json.dumps(line) + "\n" for line in lines), args.out)
    return 0


def cmd_distract_assemble(args) -> int:
    dataset = load_questions(args.dataset)
    ranked_by_id = {}
    with open(args.ranked, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            row = json.loads(line)
            ranked_by_id[row["id"]] = [c["text"] for c in row["ranked"]]
    assembled = []
    for question in sorted(dataset, key=lambda q: q.id):
        ranked = ranked_by_id.get(question.id, [])
        assembled.append(
            assemble_8way(
                question,
                ranked,
                target_ways=args.ways,
                shuffle_seed=f"{args.seed}:{question.id}",
            )
        )
    text = "".join(json.dumps(question_to_json(q)) + "\n" for q in assembled)
    _emit(text, args.out)
    return 0


def cmd_split_solve(args) -> int:
    facts = load_facts_jsonl(args.facts)
    targets = tuple(float(t) for t in args.targets.split(","))
    if len(targets) != 3:
        raise HopkitError(f"--targets needs three comma-separated fractions, got {args.targets!r}")
    problem = build_problem(facts, targets, args.slack, args.prune_threshold)
    if args.dump_problem:
        Path(args.dump_problem).write_text(
            json.dumps(problem_to_json(problem), indent=2) + "\n", "utf-8"
        )
    if args.exact:
        assignment = solve_exact(problem)
    else:
        assignment = solve_heuristic(
            problem, seed=args.seed, iterations=args.iterations, restarts=args.restarts
        )
    prefix = Path(args.out)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    Path(f"{prefix}.json").write_text(
        json.dumps(assignment.to_json(), indent=2) + "\n", "utf-8"
    )
    Path(f"{prefix}.tsv").write_text(assignment.to_tsv(), "utf-8")
    sys.stdout.write(
        json.dumps(
            {
                "feasible": assignment.feasible,
                "objective": _round9(assignment.objective),
                "out": f"{prefix}.json",
            }
        )
        + "\n"
    )
    return 0


def cmd_validate(args) -> int:
    dataset = load_questions(args.dataset)
    _emit(validation_jsonl(dataset), args.out)
    return 0


# ---------------------------------------------------------------------------
# Parser


def _add_index_source(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--index", default=os.environ.get(ENV_PATHS["index"]),
                        help="index snapshot file or directory (env: HOPKIT_INDEX)")
    parser.add_argument("--corpus", default=os.environ.get(ENV_PATHS["corpus"]),
                        help="corpus file, one sentence per line (env: HOPKIT_CORPUS)")


def _add_dataset(parser: argparse.ArgumentParser) -> None:
    env_value = os.environ.get(ENV_PATHS["dataset"])
    parser.add_argument("--dataset", default=env_value, required=env_value is None,
                        help="question JSON-lines file (env: HOPKIT_DATASET)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hopkit",
        description="Two-step retrieval and dataset construction for 2-hop MCQ.",
    )
    parser.add_argument("--version", action="version", version=f"hopkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_index = sub.add_parser("index", help="index management")
    index_sub = p_index.add_subparsers(dest="index_command", required=True)
    p_build = index_sub.add_parser("build", help="build an index snapshot from a corpus")
    p_build.add_argument("--corpus", required=True)
    p_build.add_argument("--out", required=True, help="output directory")
    p_build.set_defaults(func=cmd_index_build)

    p_retrieve = sub.add_parser("retrieve", help="retrieve facts for one question")
    _add_index_source(p_retrieve)
    p_retrieve.add_argument("--mode", choices=("single", "two"), required=True)
    p_retrieve.add_argument("--question", required=True)
    p_retrieve.add_argument("--answer", required=True)
    p_retrieve.add_argument("--k", type=int, default=20)
    p_retrieve.add_argument("--l", type=int, default=4)
    p_retrieve.add_argument("--m", type=int, default=10)
    p_retrieve.add_argument("--drop-negations", action="store_true",
                            help="drop hits containing negation words (noise hook)")
    p_retrieve.add_argument("--out")
    p_retrieve.set_defaults(func=cmd_retrieve)

    p_eval = sub.add_parser("eval", help="evaluation harnesses")
    eval_sub = p_eval.add_subparsers(dest="eval_command", required=True)
    p_recall = eval_sub.add_parser("recall", help="fact-pair recall report")
    _add_index_source(p_recall)
    _add_dataset(p_recall)
    p_recall.add_argument("--mode", choices=("single", "two"), required=True)
    p_recall.add_argument("--k", type=int, default=20)
    p_recall.add_argument("--l", type=int, default=4)
    p_recall.add_argument("--m", type=int, default=10)
    p_recall.add_argument("--audit", help="write per-question JSON lines here")
    p_recall.add_argument("--out")
    p_recall.set_defaults(func=cmd_eval_recall)
    p_accuracy = eval_sub.add_parser("accuracy", help="answer accuracy of a scorer")
    _add_index_source(p_accuracy)
    _add_dataset(p_accuracy)
    p_accuracy.add_argument("--scorer", required=True, help="ir, ir:SNAPSHOT, or file:PATH")
    p_accuracy.add_argument("--emit-requests", help="write score requests for external scorers")
    p_accuracy.add_argument("--out")
    p_accuracy.set_defaults(func=cmd_eval_accuracy)

    p_stats = sub.add_parser("stats", help="dataset statistics")
    stats_sub = p_stats.add_subparsers(dest="stats_command", required=True)
    p_overlap = stats_sub.add_parser("overlap", help="fact/question token overlap table")
    _add_dataset(p_overlap)
    p_overlap.add_argument("--occurrences", action="store_true",
                           help="count token occurrences instead of distinct stems")
    p_overlap.add_argument("--out")
    p_overlap.set_defaults(func=cmd_stats_overlap)

    p_distract = sub.add_parser("distract", help="adversarial distractor pipeline")
    distract_sub = p_distract.add_subparsers(dest="distract_command", required=True)
    p_gen = distract_sub.add_parser("gen", help="generate candidate pools")
    _add_dataset(p_gen)
    p_gen.add_argument("--pool-n", type=int, default=300)
    p_gen.add_argument("--prune-top", type=int, default=30)
    p_gen.add_argument("--token-slack", type=int, default=2)
    p_gen.add_argument("--char-slack", type=float, default=0.5)
    p_gen.add_argument("--ways", type=int, default=8)
    p_gen.add_argument("--out")
    p_gen.set_defaults(func=cmd_distract_gen)
    p_rank = distract_sub.add_parser("rank", help="rank pooled candidates by scorers")
    _add_dataset(p_rank)
    p_rank.add_argument("--pools", required=True)
    p_rank.add_argument("--scorer", action="append", required=True,
                        help="ir:SNAPSHOT or file:PATH; repeat for K models")
    p_rank.add_argument("--prune-top", type=int, default=30,
                        help="keep this many candidates by the first scorer (0 disables)")
    p_rank.add_argument("--out")
    p_rank.set_defaults(func=cmd_distract_rank)
    p_assemble = distract_sub.add_parser("assemble", help="assemble 8-way questions")
    _add_dataset(p_assemble)
    p_assemble.add_argument("--ranked", required=True)
    p_assemble.add_argument("--seed", required=True)
    p_assemble.add_argument("--ways", type=int, default=8)
    p_assemble.add_argument("--out")
    p_assemble.set_defaults(func=cmd_distract_assemble)

    p_split = sub.add_parser("split", help="fold assignment")
    split_sub = p_split.add_subparsers(dest="split_command", required=True)
    p_solve = split_sub.add_parser("solve", help="solve a fold-assignment problem")
    p_solve.add_argument("--facts", required=True, help="JSONL: id, text, questions")
    group = p_solve.add_mutually_exclusive_group(required=True)
    group.add_argument("--exact", action="store_true")
    group.add_argument("--heuristic", action="store_true")
    p_solve.add_argument("--seed", type=int, default=0)
    p_solve.add_argument("--iterations", type=int, default=20000)
    p_solve.add_argument("--restarts", type=int, default=10)
    p_solve.add_argument("--targets", default="0.78,0.11,0.11")
    p_solve.add_argument("--slack", type=float, default=0.01)
    p_solve.add_argument("--prune-threshold", type=float, default=10.0)
    p_solve.add_argument("--dump-problem", help="also write the built problem as JSON here")
    p_solve.add_argument("--out", required=True, help="output path prefix")
    p_solve.set_defaults(func=cmd_split_solve)

    p_validate = sub.add_parser("validate", help="composition-quality checks")
    _add_dataset(p_validate)
    p_validate.add_argument("--out")
    p_validate.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except HopkitError as exc:
        sys.stderr.write(json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n")
        return 1
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        sys.stderr.write(json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
