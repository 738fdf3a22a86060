"""Tracing for the benchmark's traced run, installed from outside the package.

``install`` replaces public functions of each hopkit layer, under every
name a hopkit module binds them to, with wrappers that record spans or
counts.  Nothing under ``src/`` changes.  Spans stay in memory until the
run ends.  Counters are derived from each call's arguments and result
(postings scanned is the summed length of the query terms' posting
lists); the time spent deriving them is taken out of the span clock, so
it shows in the tracing overhead but in no span.
"""

from __future__ import annotations

import json
import math
import os
import sys
from time import perf_counter

SEARCH_KINDS = ("first_hop", "bridge", "ir")

# CLI commands the workloads run; each is a span named cli.<command>.
CLI_COMMANDS = ("index_build", "retrieve", "eval_recall", "distract_gen",
                "distract_rank", "distract_assemble", "split_solve", "validate")

# Where a spanned function receives its question: an MCQuestion, or for
# retrieval the question stem text.
_QUESTION_ARG = {
    "retrieval.two_step": 1,
    "distractor.pool": 0,
    "distractor.prune": 1,
    "distractor.rank": 1,
    "distractor.assemble": 0,
}

# (module, function) -> span name; every binding of the function object in a
# loaded hopkit module is replaced.
SPANNED = {
    ("hopkit.corpus", "load_corpus"): "corpus.load_corpus",
    ("hopkit.index", "build_index"): "index.build_index",
    ("hopkit.index", "write_snapshot"): "index.write_snapshot",
    ("hopkit.index", "load_snapshot"): "index.load_snapshot",
    ("hopkit.index", "search"): "index.search",
    ("hopkit.retrieval", "two_step"): "retrieval.two_step",
    ("hopkit.retrieval", "recall_report"): "retrieval.recall_report",
    ("hopkit.qa", "ir_score"): "qa.ir_score",
    ("hopkit.qa", "load_questions"): "qa.load_questions",
    ("hopkit.distractor", "candidate_pool_with_sources"): "distractor.pool",
    ("hopkit.distractor", "prune_by_scorer"): "distractor.prune",
    ("hopkit.distractor", "multi_adversary_rank"): "distractor.rank",
    ("hopkit.distractor", "assemble_8way"): "distractor.assemble",
    ("hopkit.splitter", "load_facts_jsonl"): "splitter.load_facts",
    ("hopkit.splitter", "build_problem"): "splitter.build_problem",
    ("hopkit.splitter", "solve_heuristic"): "splitter.solve_heuristic",
    ("hopkit.validator", "validation_jsonl"): "validator.validate",
}


def _hopkit_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "hopkit" or name.startswith("hopkit."))]


def _rebind(original, wrapper, modules) -> int:
    count = 0
    for module in modules:
        for name, value in list(vars(module).items()):
            if value is original:
                setattr(module, name, wrapper)
                count += 1
    return count


class Tracer:
    """Spans and counters of one traced run.

    A span is [name, start, end, parent index, question id, kept data].
    The question id comes from the call's arguments when it names one and
    is inherited from the parent span otherwise.  Span times are on
    ``clock()``, which stops while counters are derived and while the
    speed probe runs.
    """

    def __init__(self, qid_by_stem: dict[str, str]):
        self.qid_by_stem = qid_by_stem
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.excluded = 0.0
        self.stem_calls = 0
        self.stem_words: set[str] = set()
        self.tokenize_calls = 0
        self.tokenize_s = 0.0
        self.similarity_calls = 0
        self.stem_set_calls = 0
        self.scorer_calls = 0

    # -- span bookkeeping ---------------------------------------------------

    def clock(self) -> float:
        return perf_counter() - self.excluded

    def open(self, name: str, qid=None) -> int:
        parent = self.stack[-1] if self.stack else -1
        if qid is None and parent >= 0:
            qid = self.spans[parent][4]
        self.spans.append([name, 0.0, 0.0, parent, qid, None])
        index = len(self.spans) - 1
        self.stack.append(index)
        self.spans[index][1] = self.clock()
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = self.clock()
        self.stack.pop()

    def _qid(self, name: str, args):
        where = _QUESTION_ARG.get(name)
        if where is None or len(args) <= where:
            return None
        value = args[where]
        if isinstance(value, str):
            return self.qid_by_stem.get(value)
        return value.id

    def span_wrapper(self, name: str, fn):
        keep = _KEEPERS.get(name)

        def traced(*args, **kwargs):
            index = self.open(name, self._qid(name, args))
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self.close(index)
                if keep is not None:
                    started = self.clock()
                    self.spans[index][5] = keep(args, kwargs, result)
                    self.excluded += self.clock() - started

        traced.__wrapped__ = fn
        return traced

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        import hopkit.cli  # noqa: F401  (loads every layer module)
        import hopkit.corpus as corpus_mod
        import hopkit.distractor as distractor_mod
        import hopkit.qa as qa_mod

        modules = _hopkit_modules()
        for (module_name, attr), span_name in SPANNED.items():
            original = getattr(sys.modules[module_name], attr)
            if not _rebind(original, self.span_wrapper(span_name, original), modules):
                raise RuntimeError(f"could not wrap {module_name}.{attr}")

        stem = corpus_mod.stem
        words = self.stem_words

        def counted_stem(word):
            self.stem_calls += 1
            words.add(word)
            return stem(word)

        corpus_mod.stem = counted_stem

        tokenize = corpus_mod.tokenize_normalize

        def timed_tokenize(text):
            start = self.clock()
            try:
                return tokenize(text)
            finally:
                self.tokenize_s += self.clock() - start
                self.tokenize_calls += 1

        _rebind(tokenize, timed_tokenize, modules)

        similarity = distractor_mod.question_similarity

        def counted_similarity(qa, qb):
            self.similarity_calls += 1
            return similarity(qa, qb)

        distractor_mod.question_similarity = counted_similarity

        stem_set = distractor_mod.stem_set

        def counted_stem_set(text):
            self.stem_set_calls += 1
            return stem_set(text)

        distractor_mod.stem_set = counted_stem_set

        score = qa_mod.IRScorer.score

        def counted_score(scorer, question, choice_text):
            self.scorer_calls += 1
            return score(scorer, question, choice_text)

        qa_mod.IRScorer.score = counted_score

    # -- output -------------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, qid, _ in self.spans:
                handle.write(json.dumps(
                    {"name": name, "start": start, "end": end, "parent": parent, "qid": qid}
                ) + "\n")


# What each span keeps for the counters, derived from the call's arguments
# and result while the span clock is stopped.

def _keep_search(args, kwargs, result):
    """(constrained, hits, postings scanned, candidates scored)."""
    index, query = args[0], args[1]
    must = kwargs.get("must_contain_any", args[3] if len(args) > 3 else None)
    lists = [index.postings[t] for t in set(query) if t in index.postings]
    scored = len({doc for plist in lists for doc, _ in plist})
    return (must is not None, len(result or ()), sum(map(len, lists)), scored)


def _keep_two_step(args, kwargs, result):
    return len(result[1]) if result else 0


def _keep_pool(args, kwargs, result):
    question, fold = args[0], args[1]
    config = args[2] if len(args) > 2 else kwargs.get("config")
    limit = config.pool_dissimilar_n if config is not None else 300
    considered = min(limit, sum(1 for q in fold if q.id != question.id))
    return (considered, len(result or ()))


def _keep_build_problem(args, kwargs, result):
    if result is None:
        return None
    n = len(result.facts)
    return (n * (n - 1) // 2, len(result.sim))


def _keep_solve(args, kwargs, result):
    return result.objective if result is not None else None


def _keep_write_snapshot(args, kwargs, result):
    return os.fspath(args[1])


def _keep_validate(args, kwargs, result):
    return result.count("\n") if result else 0


_KEEPERS = {
    "index.search": _keep_search,
    "retrieval.two_step": _keep_two_step,
    "distractor.pool": _keep_pool,
    "splitter.build_problem": _keep_build_problem,
    "splitter.solve_heuristic": _keep_solve,
    "index.write_snapshot": _keep_write_snapshot,
    "validator.validate": _keep_validate,
}


# ---------------------------------------------------------------------------
# Aggregation into per-layer metrics

TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile of an already sorted list."""
    if not values:
        return 0.0
    rank = max(1, math.ceil(pct / 100.0 * len(values)))
    return values[rank - 1]


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest ladder percentile with at least ten
    samples beyond it; the median when there are too few samples."""
    n = len(values)
    for pct in TAIL_LADDER:
        if n * (100.0 - pct) / 100.0 >= 10:
            return pct, percentile(values, pct)
    return 50.0, percentile(values, 50.0)


def _distribution(durations: list[float]) -> tuple[float, float, float]:
    """(median ms, tail ms, tail percentile) of span durations in seconds."""
    values = sorted(d * 1e3 for d in durations)
    pct, value = tail(values)
    return percentile(values, 50.0), value, pct


def aggregate(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as name -> (value, unit)."""
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span[0], []).append(i)

    def total(name: str) -> float:
        return sum(spans[i][2] - spans[i][1] for i in by_name.get(name, ()))

    def self_total(name: str) -> float:
        return sum(spans[i][2] - spans[i][1] - child_time[i] for i in by_name.get(name, ()))

    def durations(name: str) -> list[float]:
        return [spans[i][2] - spans[i][1] for i in by_name.get(name, ())]

    out: dict[str, tuple[float, str]] = {}
    for command in CLI_COMMANDS:
        out[f"cli.{command}_s"] = (total(f"cli.{command}"), "s")
    out["cli.self_s"] = (sum(self_total(f"cli.{command}") for command in CLI_COMMANDS), "s")

    out["corpus.load_corpus_s"] = (total("corpus.load_corpus"), "s")
    out["corpus.tokenize_calls"] = (tracer.tokenize_calls, "count")
    out["corpus.tokenize_s"] = (tracer.tokenize_s, "s")
    out["porter.stem_calls"] = (tracer.stem_calls, "count")
    out["porter.distinct_words"] = (len(tracer.stem_words), "count")
    out["porter.distinct_ratio"] = (
        len(tracer.stem_words) / tracer.stem_calls if tracer.stem_calls else 0.0, "ratio")

    out["index.build_index_s"] = (total("index.build_index"), "s")
    out["index.write_snapshot_s"] = (total("index.write_snapshot"), "s")
    out["index.load_snapshot_s"] = (total("index.load_snapshot"), "s")
    snapshots = {spans[i][5] for i in by_name.get("index.write_snapshot", ())}
    out["index.snapshot_bytes"] = (
        sum(os.path.getsize(p) for p in snapshots if p and os.path.exists(p)), "bytes")

    # search: kind from the parent span, work counters from kept arguments
    kind_durations = {kind: [] for kind in SEARCH_KINDS}
    scanned = scored = hits = 0
    bridges = first_hops = pairs_generated = 0
    for i in by_name.get("index.search", ()):
        _, start, end, parent, _, (constrained, n_hits, n_scanned, n_scored) = spans[i]
        parent_name = spans[parent][0] if parent >= 0 else ""
        if parent_name == "retrieval.two_step":
            kind = "bridge" if constrained else "first_hop"
        elif parent_name == "qa.ir_score":
            kind = "ir"
        else:
            kind = None
        if kind is not None:
            kind_durations[kind].append(end - start)
        if kind == "bridge":
            bridges += 1
            pairs_generated += n_hits
        elif kind == "first_hop":
            first_hops += n_hits
        scanned += n_scanned
        scored += n_scored
        hits += n_hits
    for kind in SEARCH_KINDS:
        values = kind_durations[kind]
        out[f"index.search_calls.{kind}"] = (len(values), "count")
        out[f"index.search_s.{kind}"] = (sum(values), "s")
        p50, tail_ms, pct = _distribution(values)
        out[f"index.search_p50_ms.{kind}"] = (p50, "ms")
        out[f"index.search_tail_ms.{kind}"] = (tail_ms, "ms")
        out[f"index.search_tail_pct.{kind}"] = (pct, "%")
    out["index.postings_scanned"] = (scanned, "count")
    out["index.candidates_scored"] = (scored, "count")
    out["index.hits_returned"] = (hits, "count")
    out["index.hit_yield"] = (hits / scored if scored else 0.0, "ratio")

    two_steps = by_name.get("retrieval.two_step", ())
    n_two = len(two_steps)
    out["retrieval.two_step_calls"] = (n_two, "count")
    p50, tail_ms, pct = _distribution(durations("retrieval.two_step"))
    out["retrieval.two_step_p50_ms"] = (p50, "ms")
    out["retrieval.two_step_tail_ms"] = (tail_ms, "ms")
    out["retrieval.two_step_tail_pct"] = (pct, "%")
    out["retrieval.two_step_self_s"] = (self_total("retrieval.two_step"), "s")
    kept = sum(spans[i][5] for i in two_steps)
    out["retrieval.bridge_searches_per_question"] = (bridges / n_two if n_two else 0.0, "count")
    out["retrieval.first_hops_skipped"] = (first_hops - bridges, "count")
    out["retrieval.pairs_generated"] = (pairs_generated, "count")
    out["retrieval.pairs_kept_ratio"] = (
        kept / pairs_generated if pairs_generated else 0.0, "ratio")

    ir = durations("qa.ir_score")
    out["qa.ir_score_calls"] = (len(ir), "count")
    out["qa.ir_score_s"] = (sum(ir), "s")
    out["qa.ir_score_p50_ms"] = (_distribution(ir)[0], "ms")
    out["qa.load_questions_s"] = (total("qa.load_questions"), "s")

    pools = by_name.get("distractor.pool", ())
    considered = sum(spans[i][5][0] for i in pools if spans[i][5])
    pooled = sum(spans[i][5][1] for i in pools if spans[i][5])
    out["distractor.pool_calls"] = (len(pools), "count")
    out["distractor.pool_s"] = (total("distractor.pool"), "s")
    out["distractor.pool_p50_ms"] = (_distribution(durations("distractor.pool"))[0], "ms")
    out["distractor.similarity_calls"] = (tracer.similarity_calls, "count")
    out["distractor.stem_set_calls"] = (tracer.stem_set_calls, "count")
    out["distractor.pool_yield"] = (pooled / considered if considered else 0.0, "ratio")
    out["distractor.prune_s"] = (total("distractor.prune"), "s")
    out["distractor.rank_s"] = (total("distractor.rank"), "s")
    out["distractor.scorer_calls"] = (tracer.scorer_calls, "count")
    out["distractor.assemble_s"] = (total("distractor.assemble"), "s")

    problems = [spans[i][5] for i in by_name.get("splitter.build_problem", ()) if spans[i][5]]
    compared = sum(p[0] for p in problems)
    edges = sum(p[1] for p in problems)
    out["splitter.build_problem_s"] = (total("splitter.build_problem"), "s")
    out["splitter.pairs_compared"] = (compared, "count")
    out["splitter.edges"] = (edges, "count")
    out["splitter.edge_yield"] = (edges / compared if compared else 0.0, "ratio")
    out["splitter.solve_heuristic_s"] = (total("splitter.solve_heuristic"), "s")
    out["splitter.objective"] = (
        sum(spans[i][5] or 0.0 for i in by_name.get("splitter.solve_heuristic", ())), "1")

    out["validator.validate_s"] = (total("validator.validate"), "s")
    out["validator.rows"] = (
        sum(spans[i][5] or 0 for i in by_name.get("validator.validate", ())), "count")
    out["trace.spans"] = (len(spans), "count")
    return out
