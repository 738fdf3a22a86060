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
from functools import partial
from operator import itemgetter
from pathlib import Path

from . import __version__
from .corpus import Memo, load_corpus, write_rejection_report
from .distractor import (
    AdversarialConfig,
    assemble_8way,
    candidate_pool_with_sources,
    multi_adversary_rank,
    prune_by_scorer,
)
from .errors import HopkitError, jsonl, read_jsonl, require_type, write_output
from .index import (
    MAGIC,
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
    SplitProblem,
    build_problem,
    check_annealing_runs,
    load_facts_jsonl,
    problem_to_json,
    solve_exact,
    solve_heuristic,
)
from .validator import validation_jsonl

SNAPSHOT_NAME = "index.hopidx"

# Path flags fall back to these when omitted (paths only, per the contract).
ENV_PATHS = {"index": "HOPKIT_INDEX", "corpus": "HOPKIT_CORPUS", "dataset": "HOPKIT_DATASET"}

# Every option that names a path refuses "", which Path reads as ".".
PATH_OPTIONS = ("index", "corpus", "dataset", "out", "audit", "pools", "ranked", "facts",
                "emit_requests", "dump_problem")


def _round9(value: float) -> float:
    return round(value, 9)


def _emit(text: str, out: str | None) -> None:
    if out:
        write_output(out, text)
    else:
        sys.stdout.write(text)


def _load_snapshot(path: str) -> InvertedIndex:
    """The snapshot path names, or the index.hopidx in a directory it names."""
    p = Path(path)
    return load_snapshot(p / SNAPSHOT_NAME if p.is_dir() else p)


def _load_index(args) -> InvertedIndex:
    if getattr(args, "index", None):
        return _load_snapshot(args.index)
    if getattr(args, "corpus", None):
        return build_index(load_corpus(args.corpus))
    raise HopkitError("need --index SNAPSHOT or --corpus FILE")


def _make_scorer(spec: str, args):
    """The scorer a --scorer spec names; a bare "ir" reads the command's own
    --index or --corpus, so it is a spec only where the command takes them."""
    takes_index = hasattr(args, "index")
    if spec in ("ir:", "file:"):
        raise HopkitError(f"scorer spec {spec!r} names no path")
    if spec == "ir" and takes_index:
        return IRScorer(_load_index(args))
    if spec.startswith("ir:"):
        return IRScorer(_load_snapshot(spec[3:]), name=spec)
    if spec.startswith("file:"):
        return FileScorer(spec[5:])
    specs = "ir, ir:SNAPSHOT, or file:PATH" if takes_index else "ir:SNAPSHOT or file:PATH"
    raise HopkitError(f"unknown scorer spec {spec!r} for this command; use {specs}")


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
    sys.stdout.write(jsonl([summary]))
    return 0


def cmd_index_stats(args) -> int:
    index = _load_snapshot(args.index)
    lengths = sorted(index.df.values())
    stats = {
        "format": MAGIC.rstrip(b"\0").decode("ascii"),
        "n_docs": index.n_docs,
        "n_terms": len(lengths),
        "avg_len": _round9(index.avg_len),
    }
    # nearest-rank percentiles of the posting-list lengths
    for name, pct in (("p50", 50), ("p90", 90), ("p99", 99), ("max", 100)):
        stats[f"posting_len_{name}"] = lengths[(pct * len(lengths) - 1) // 100] if lengths else 0
    stats["source_digest"] = index.corpus.source_digest
    sys.stdout.write(jsonl([stats]))
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
                    "text": index.corpus[hit.sentence_id],
                }
            )
    else:
        facts, pairs = two_step(index, args.question, args.answer, params, negations)
        for rank, fid in enumerate(facts, start=1):
            lines.append(
                {"type": "fact", "rank": rank, "id": fid, "text": index.corpus[fid]}
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
    _emit(jsonl(lines), args.out)
    return 0


def cmd_eval_recall(args) -> int:
    index = _load_index(args)
    params = RetrievalParams(k=args.k, l=args.l, m=args.m)
    dataset = load_questions(args.dataset)
    report = recall_report(index, dataset, params, args.mode)
    _emit(report.to_tsv(), args.out)
    if args.audit:
        write_output(args.audit, jsonl(report.per_question))
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
    _emit(jsonl(lines), args.out)
    return 0


def _pool_from_json(row: dict) -> tuple[str, list[tuple[str, str]]]:
    candidates = [
        (require_type(c["text"], str, "candidate text"),
         require_type(c.get("source_question_id", ""), str, "source_question_id"))
        for c in require_type(row["candidates"], list, "candidates")
    ]
    if len({text for text, _ in candidates}) < len(candidates):
        raise ValueError("candidate texts must be distinct")
    return require_type(row["id"], str, "id"), candidates


def _ranked_from_json(row: dict) -> tuple[str, list[str]]:
    texts = [require_type(c["text"], str, "ranked text")
             for c in require_type(row["ranked"], list, "ranked")]
    return require_type(row["id"], str, "id"), texts


def _rows_by_id(path, parse, dataset) -> dict:
    """{question id: value} of a pools or ranked file, ``parse(row)`` giving
    (id, value).  A row whose id is not in dataset or repeats an earlier
    row's is a bad row, so no row is dropped or overwritten unseen."""

    def parse_known(row: dict):
        qid, value = parse(row)
        if qid not in dataset:
            raise ValueError(f"unknown question id {qid!r}")
        return qid, value

    return dict(read_jsonl(path, parse_known, key=itemgetter(0)))


class _ScoreMap:
    """One scorer's scores on one question: each text is scored once, and
    pruning and ranking both read the kept value.  The scorer's name carries
    over, so checked_score reports a bad value as the scorer would."""

    def __init__(self, scorer, question):
        self.name = scorer.name
        self.scores = Memo(partial(scorer.score, question))

    def score(self, question, text: str) -> float:
        return self.scores[text]


def cmd_distract_rank(args) -> int:
    if args.prune_top < 0:
        raise HopkitError(f"--prune-top must be >= 0 (0 disables pruning), got {args.prune_top}")
    dataset = {q.id: q for q in load_questions(args.dataset)}
    pools = _rows_by_id(args.pools, _pool_from_json, dataset)
    scorers = [_make_scorer(spec, args) for spec in args.scorer]
    lines = []
    for qid in sorted(pools):
        question = dataset[qid]
        candidates = pools[qid]
        score_maps = [_ScoreMap(scorer, question) for scorer in scorers]
        if args.prune_top:
            candidates = prune_by_scorer(score_maps[0], question, candidates, args.prune_top)
        ranked = multi_adversary_rank(score_maps, question, candidates)
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
    _emit(jsonl(lines), args.out)
    return 0


def cmd_distract_assemble(args) -> int:
    ways = AdversarialConfig(target_ways=args.ways).target_ways  # distract gen's rule
    dataset = load_questions(args.dataset)
    ranked_by_id = _rows_by_id(args.ranked, _ranked_from_json, {q.id for q in dataset})
    assembled = []
    for question in sorted(dataset, key=lambda q: q.id):
        ranked = ranked_by_id.get(question.id, [])
        assembled.append(
            assemble_8way(
                question,
                ranked,
                target_ways=ways,
                shuffle_seed=f"{args.seed}:{question.id}",
            )
        )
    _emit(jsonl(map(question_to_json, assembled)), args.out)
    return 0


def cmd_split_solve(args) -> int:
    check_annealing_runs(args.iterations, args.restarts)
    facts = load_facts_jsonl(args.facts)
    if not facts:
        raise HopkitError(f"{args.facts}: no seed facts to split")
    if sum(fact.question_count for fact in facts) > sys.float_info.max:
        raise HopkitError(f"{args.facts}: the question counts sum past the largest float")
    try:
        targets = tuple(float(t) for t in args.targets.split(","))
    except ValueError:
        targets = ()
    if len(targets) != 3:
        raise HopkitError(f"--targets needs three comma-separated fractions, got {args.targets!r}")
    problem = build_problem(facts, targets, args.slack, args.prune_threshold)
    if args.dump_problem:
        write_output(args.dump_problem, json.dumps(problem_to_json(problem), indent=2) + "\n")
    if args.exact:
        assignment = solve_exact(problem)
    else:
        assignment = solve_heuristic(
            problem, seed=args.seed, iterations=args.iterations, restarts=args.restarts
        )
    prefix = Path(args.out)
    write_output(f"{prefix}.json", json.dumps(assignment.to_json(), indent=2) + "\n")
    write_output(f"{prefix}.tsv", assignment.to_tsv())
    summary = {
        "feasible": assignment.feasible,
        "objective": _round9(assignment.objective),
        "out": f"{prefix}.json",
    }
    sys.stdout.write(jsonl([summary]))
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


def _add_retrieval_params(parser: argparse.ArgumentParser) -> None:
    for name in ("k", "l", "m"):
        parser.add_argument(f"--{name}", type=int, default=getattr(RetrievalParams, name))


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
    p_stats = index_sub.add_parser("stats", help="describe an index snapshot")
    p_stats.add_argument("--index", required=True, help="index snapshot file or directory")
    p_stats.set_defaults(func=cmd_index_stats)

    p_retrieve = sub.add_parser("retrieve", help="retrieve facts for one question")
    _add_index_source(p_retrieve)
    p_retrieve.add_argument("--mode", choices=("single", "two"), required=True)
    p_retrieve.add_argument("--question", required=True)
    p_retrieve.add_argument("--answer", required=True)
    _add_retrieval_params(p_retrieve)
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
    _add_retrieval_params(p_recall)
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
    p_gen.add_argument("--pool-n", type=int, default=AdversarialConfig.pool_dissimilar_n)
    p_gen.add_argument("--token-slack", type=int, default=AdversarialConfig.token_slack)
    p_gen.add_argument("--char-slack", type=float, default=AdversarialConfig.char_ratio_slack)
    p_gen.add_argument("--ways", type=int, default=AdversarialConfig.target_ways)
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
    p_assemble.add_argument("--ways", type=int, default=AdversarialConfig.target_ways)
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
    p_solve.add_argument("--targets", default=",".join(map(str, SplitProblem.fold_targets)))
    p_solve.add_argument("--slack", type=float, default=SplitProblem.slack)
    p_solve.add_argument("--prune-threshold", type=float, default=SplitProblem.prune_threshold)
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
        for dest in PATH_OPTIONS:
            if getattr(args, dest, None) == "":
                raise HopkitError(f"--{dest.replace('_', '-')} names no path")
        return args.func(args)
    except (HopkitError, OSError, ValueError) as exc:
        message = str(exc)
        if isinstance(exc, OSError) and exc.filename is not None:
            named = _options_naming(args, str(exc.filename))
            if named:
                message = f"{' and '.join(named)}: {message}"
        sys.stderr.write(jsonl([{"error": type(exc).__name__, "message": message}]))
        return 1


def _options_naming(args, path: str) -> list[str]:
    """The path flags and scorer specs that name ``path``, or a directory
    whose index.hopidx it is."""
    def names(value) -> bool:
        return bool(value) and path in (value, str(Path(value) / SNAPSHOT_NAME))

    flags = [f"--{dest.replace('_', '-')}" for dest in PATH_OPTIONS
             if names(getattr(args, dest, None))]
    specs = getattr(args, "scorer", None) or []  # one spec, or a list of them
    specs = [specs] if isinstance(specs, str) else specs
    return flags + [f"--scorer {spec}" for spec in specs if names(spec.partition(":")[2])]


if __name__ == "__main__":
    sys.exit(main())
