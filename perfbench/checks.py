"""Output checks that do not rely on the code under test.

Each check re-derives a property of a CLI output file from the generated
inputs: ids against corpus line numbers, orderings and set rules
recomputed here, retrieval against the exhaustive-scan oracle in
``tests/oracles.py``, and the split objective recomputed from scratch.
Only the canonical tokenizer is shared with the program, as the oracle
shares it.  A check returns a list of failure messages; empty means pass.
"""

from __future__ import annotations

import json
import math
from collections import Counter, defaultdict
from pathlib import Path

from hopkit.corpus import stem_set, tokenize_normalize

SCORE_TOL = 1e-9  # CLI scores are rounded to 9 decimals
M = 10  # retrieve / eval recall default output size


def read_jsonl(path) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def answer_text(row: dict) -> str:
    return next(c["text"] for c in row["question"]["choices"] if c["label"] == row["answerKey"])


def check_build(stdout: str, n_lines: int) -> list[str]:
    summary = json.loads(stdout)
    if summary["sentences"] != n_lines or summary["rejected"] != 0:
        return [f"index build kept {summary['sentences']} of {n_lines} lines, "
                f"rejected {summary['rejected']}"]
    return []


def parse_retrieve(path) -> tuple[list[int], list[tuple]]:
    rows = read_jsonl(path)
    facts = [row["id"] for row in rows if row["type"] == "fact"]
    pairs = [(r["f1"], r["f2"], r["score1"], r["score2"], r["pair_score"])
             for r in rows if r["type"] == "pair"]
    return facts, pairs


def check_retrieve(path, question: dict, lines: list[str]) -> list[str]:
    """Two-step output rules, re-derived: every fact text is its corpus
    line, pairs are sorted by summed score, each bridge pair meets the
    must-contain rule, each second hop overlaps the question or answer,
    and the fact list is the pairs' unique ids in order, cut at m."""
    rows = read_jsonl(path)
    errors = []
    facts = [row for row in rows if row["type"] == "fact"]
    for rank, row in enumerate(facts, start=1):
        if row["rank"] != rank or lines[row["id"]] != row["text"]:
            errors.append(f"fact row {rank} does not match corpus line {row['id']}")
    _, pairs = parse_retrieve(path)
    q, a = question["question"]["stem"], answer_text(question)
    query = frozenset(tokenize_normalize(q + " " + a))
    q_stems, a_stems = stem_set(q), stem_set(a)
    expected, seen = [], set()
    for i, (f1, f2, s1, s2, ps) in enumerate(pairs):
        if abs(ps - (s1 + s2)) > 3 * SCORE_TOL:
            errors.append(f"pair {i}: pair_score {ps} != {s1} + {s2}")
        if i and ps > pairs[i - 1][4]:
            errors.append(f"pair {i}: not sorted by pair score")
        f1_keys = frozenset(tokenize_normalize(lines[f1]))
        f2_keys = frozenset(tokenize_normalize(lines[f2]))
        if f2_keys.isdisjoint(query - f1_keys) or f2_keys.isdisjoint(f1_keys - query):
            errors.append(f"pair {i}: second hop {f2} misses the bridge constraint")
        if f2_keys.isdisjoint(q_stems) and f2_keys.isdisjoint(a_stems):
            errors.append(f"pair {i}: second hop {f2} overlaps neither question nor answer")
        for fid in (f1, f2):
            if fid not in seen and len(expected) < M:
                seen.add(fid)
                expected.append(fid)
    if [row["id"] for row in facts] != expected:
        errors.append("fact list is not the pairs' unique ids in order")
    return errors


def _oracle_two_step(oracle, question: dict):
    from hopkit.retrieval import RetrievalParams

    return oracle.two_step(question["question"]["stem"], answer_text(question), RetrievalParams())


def check_retrieve_oracle(path, question: dict, oracle) -> list[str]:
    """Ids, order and scores equal the exhaustive-scan oracle's two_step."""
    facts, pairs = parse_retrieve(path)
    want_facts, want_pairs = _oracle_two_step(oracle, question)
    errors = []
    if facts != want_facts:
        errors.append("facts differ from the oracle")
    if [(p[0], p[1]) for p in pairs] != [(p.f1, p.f2) for p in want_pairs]:
        errors.append("pairs differ from the oracle")
    elif any(abs(g[2] - w.score1) > SCORE_TOL or abs(g[3] - w.score2) > SCORE_TOL
             for g, w in zip(pairs, want_pairs)):
        errors.append("pair scores differ from the oracle by more than 1e-9")
    return errors


def parse_recall(path) -> dict[str, tuple[float, int, int]]:
    rows = {}
    for line in Path(path).read_text("utf-8").splitlines()[1:]:
        name, _, value, num, den = line.split("\t")
        rows[name] = (float(value), int(num), int(den))
    return rows


def check_recall(tsv_path, audit_path, questions: list[dict], line_of: dict[str, int],
                 retrieved_by_qid: dict[str, list[int]]) -> list[str]:
    """Recall report and audit agree with the planted gold ids and with
    each other; audit entries equal the separate retrieve outputs."""
    errors = []
    tsv = parse_recall(tsv_path)
    audit = read_jsonl(audit_path)
    ids = sorted(q["id"] for q in questions)
    if [entry["id"] for entry in audit] != ids:
        return ["audit does not list every question once, sorted by id"]
    by_id = {q["id"]: q for q in questions}
    both = 0
    for entry in audit:
        question = by_id[entry["id"]]
        gold = (line_of[question["fact1"]], line_of[question["fact2"]])
        if (entry["gold"]["fact1"], entry["gold"]["fact2"]) != gold or not entry["resolvable"]:
            errors.append(f"{entry['id']}: gold ids {entry['gold']} != corpus lines {gold}")
            continue
        retrieved = entry["retrieved"]
        found = [g in retrieved for g in gold]
        if [entry["found"]["fact1"], entry["found"]["fact2"]] != found or len(retrieved) > M:
            errors.append(f"{entry['id']}: found flags disagree with the retrieved list")
        both += all(found)
        if entry["id"] in retrieved_by_qid and retrieved_by_qid[entry["id"]] != retrieved:
            errors.append(f"{entry['id']}: audit differs from the retrieve output")
    if tsv["both_found"][1:] != (both, len(questions)):
        errors.append(f"both_found {tsv['both_found']} != {both}/{len(questions)} from the audit")
    return errors


def check_audit_oracle(audit_path, sample: list[dict], oracle) -> list[str]:
    """The audit's retrieved facts equal the oracle's for sampled questions."""
    by_id = {q["id"]: q for q in sample}
    return [
        f"{entry['id']}: audit differs from the oracle"
        for entry in read_jsonl(audit_path)
        if entry["id"] in by_id and entry["retrieved"] != _oracle_two_step(oracle, by_id[entry["id"]])[0]
    ]


def single_step_bound(questions: list[dict]) -> float:
    """Upper bound on single-step both_found: single-step hits must share a
    stem with the question and one with the answer, so a question counts
    only if both its facts do."""
    reachable = 0
    for q in questions:
        q_stems, a_stems = stem_set(q["question"]["stem"]), stem_set(answer_text(q))
        facts = (stem_set(q["fact1"]), stem_set(q["fact2"]))
        reachable += all(not f.isdisjoint(q_stems) and not f.isdisjoint(a_stems) for f in facts)
    return reachable / len(questions)


def check_dominance(tsv_path, questions: list[dict]) -> list[str]:
    """Criterion 2: two-step both_found is at least 5x single-step's."""
    two = parse_recall(tsv_path)["both_found"][0]
    bound = single_step_bound(questions)
    if two > 0 and two >= 5 * bound:
        return []
    return [f"two-step both_found {two:.3f} is not >= 5 x single-step bound {bound:.3f}"]


def check_split(json_path, facts: list[dict], stdout: str,
                targets=(0.78, 0.11, 0.11), slack=0.01, threshold=10.0) -> list[str]:
    """The split is feasible, and its objective equals the cross-fold
    similarity recomputed here from the fact texts."""
    result = json.loads(Path(json_path).read_text("utf-8"))
    reported = json.loads(stdout)
    fold_of = result["fold_of"]
    errors = []
    if not result["feasible"] or not reported["feasible"]:
        errors.append("split reported infeasible")
    if sorted(fold_of) != sorted(f["id"] for f in facts):
        return errors + ["split does not assign every fact"]
    total = sum(f["questions"] for f in facts)
    for fold, target in zip(("train", "dev", "test"), targets):
        mass = sum(f["questions"] for f in facts if fold_of[f["id"]] == fold)
        eps = 1e-9 * max(1, total)
        if not (target - slack) * total - eps <= mass <= (target + slack) * total + eps:
            errors.append(f"fold {fold} mass {mass} outside {target}±{slack} of {total}")
    bags = [tokenize_normalize(f["text"]) for f in facts]
    df = Counter(term for bag in bags for term in bag)
    idf = {term: math.log(len(bags) / count) for term, count in df.items()}
    holders = defaultdict(list)
    for i, bag in enumerate(bags):
        for term in bag:
            holders[term].append(i)
    sims: dict[tuple[int, int], float] = defaultdict(float)
    for term, plist in holders.items():
        for x, i in enumerate(plist):
            for k in plist[x + 1:]:
                sims[(i, k)] += idf[term] * min(bags[i][term], bags[k][term])
    objective = sum(
        value for (i, k), value in sims.items()
        if value >= threshold and fold_of[facts[i]["id"]] != fold_of[facts[k]["id"]]
    )
    for name, value in (("file", result["objective"]), ("stdout", reported["objective"])):
        if abs(value - objective) > 1e-6 * max(1.0, objective):
            errors.append(f"split objective ({name}) {value} != recomputed {objective}")
    return errors


def check_pools(path, fold: list[dict]) -> list[str]:
    """One pool per question; every candidate is another fold question's
    answer, named by its source, and none repeats an existing choice."""
    rows = read_jsonl(path)
    answers = {q["id"]: answer_text(q) for q in fold}
    by_id = {q["id"]: q for q in fold}
    if [row["id"] for row in rows] != sorted(answers):
        return ["pools do not list every fold question once, sorted by id"]
    errors = []
    for row in rows:
        taken = {c["text"].casefold() for c in by_id[row["id"]]["question"]["choices"]}
        texts = [c["text"].casefold() for c in row["candidates"]]
        if len(texts) < 7 or len(set(texts)) != len(texts) or taken & set(texts):
            errors.append(f"{row['id']}: pool has too few, repeated or taken candidates")
        for cand in row["candidates"]:
            source = cand["source_question_id"]
            if source == row["id"] or answers.get(source) != cand["text"]:
                errors.append(f"{row['id']}: candidate {cand['text']!r} is not {source}'s answer")
                break
    return errors


def check_ranked(path, pools_path, prune_top: int, n_scorers: int) -> list[str]:
    """Ranked candidates come from the pool, at most prune_top of them,
    sorted by (models fooled desc, margin desc)."""
    pools = {row["id"]: {c["text"] for c in row["candidates"]} for row in read_jsonl(pools_path)}
    rows = read_jsonl(path)
    if [row["id"] for row in rows] != sorted(pools):
        return ["ranked does not list every pooled question once, sorted by id"]
    errors = []
    for row in rows:
        ranked = row["ranked"]
        if len(ranked) > prune_top or not {c["text"] for c in ranked} <= pools[row["id"]]:
            errors.append(f"{row['id']}: ranked list is not a pruned subset of its pool")
        for a, b in zip(ranked, ranked[1:]):
            order = (b["fooled_count"], b["margin_sum"]) <= (a["fooled_count"], a["margin_sum"] + SCORE_TOL)
            if not order or len(a["per_model"]) != n_scorers:
                errors.append(f"{row['id']}: ranked list out of order")
                break
    return errors


def check_assembled(path, fold: list[dict], ways: int = 8) -> list[str]:
    """Every question has `ways` unique choices, keeps its own choices, and
    its key points at the original answer."""
    rows = read_jsonl(path)
    by_id = {q["id"]: q for q in fold}
    if [row["id"] for row in rows] != sorted(by_id):
        return ["assembled does not list every fold question once, sorted by id"]
    errors = []
    for row in rows:
        original = by_id[row["id"]]
        texts = [c["text"] for c in row["question"]["choices"]]
        labels = [c["label"] for c in row["question"]["choices"]]
        if (len(texts) != ways or len({t.casefold() for t in texts}) != ways
                or labels != [chr(ord("A") + i) for i in range(ways)]):
            errors.append(f"{row['id']}: not {ways} unique labelled choices")
        if answer_text(row) != answer_text(original):
            errors.append(f"{row['id']}: answer key does not point at the original answer")
        if not {c["text"] for c in original["question"]["choices"]} <= set(texts):
            errors.append(f"{row['id']}: original choices were dropped")
        if row["question"]["stem"] != original["question"]["stem"] or any(
                row.get(k) != original.get(k) for k in ("fact1", "fact2", "combinedfact")):
            errors.append(f"{row['id']}: stem or facts changed")
    return errors


def check_validation(path, fold: list[dict]) -> list[str]:
    """Every generated composition passes link, composition and question."""
    rows = read_jsonl(path)
    checks = defaultdict(list)
    for row in rows:
        checks[row["id"]].append((row["check"], row["pass"]))
    expected = [("link", True), ("composition", True), ("question", True)]
    bad = sorted(q["id"] for q in fold if checks.get(q["id"]) != expected)
    return [f"{len(bad)} compositions fail validation, first {bad[0]}"] if bad else []
