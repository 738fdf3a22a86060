"""Independent reference implementations used to check the engine.

Everything here works by exhaustive scan/enumeration straight from the
scoring formulas, with no inverted index, so the package under test and
the oracle share no ranking code.  Float accumulation follows sorted term
order, the same convention the engine documents, so scores are comparable
at full precision.
"""

from __future__ import annotations

import math
import random
import re
from collections import Counter

from hopkit.corpus import STOPWORDS, CleanResult, Corpus, stem_set
from hopkit.errors import HopkitError
from hopkit.index import InvertedIndex, search
from hopkit.porter import stem
from hopkit.qa import checked_score
from hopkit.retrieval import RetrievalParams, RetrievedPair, query_tokens
from hopkit.splitter import (
    FoldAssignment,
    SplitProblem,
    _assignment,
    _masses,
    _violation,
    cross_fold_objective,
    idf_table,
    seed_fact_similarity,
)

K1 = 1.2
B = 0.75


class OracleSearcher:
    """Exhaustive-scan BM25 with corpus statistics computed once up front.

    Every text, question and answer is tokenized with reference_tokenize,
    so the oracle shares no tokenizer code with the engine."""

    def __init__(self, corpus: Corpus):
        self.corpus = corpus
        self.bags = [reference_tokenize(text) for text in corpus.texts]
        self.n_docs = len(self.bags)
        self.doc_len = [sum(bag.values()) for bag in self.bags]
        self.avg_len = sum(self.doc_len) / self.n_docs if self.n_docs else 0.0
        self.df = Counter()
        for bag in self.bags:
            self.df.update(bag.keys())

    def scores(self, query_terms) -> dict[int, float]:
        scores: dict[int, float] = {}
        if self.n_docs == 0:
            return scores
        for term in sorted(set(query_terms)):
            df = self.df.get(term, 0)
            if df == 0:
                continue
            idf = math.log(1.0 + (self.n_docs - df + 0.5) / (df + 0.5))
            for sid, bag in enumerate(self.bags):
                tf = bag.get(term, 0)
                if tf == 0:
                    continue
                norm = K1 * (1.0 - B + B * self.doc_len[sid] / self.avg_len)
                contrib = idf * tf * (K1 + 1.0) / (tf + norm)
                scores[sid] = scores.get(sid, 0.0) + contrib
        return scores

    def search(self, query_terms, top_n, must_contain_any=None):
        scores = self.scores(query_terms)
        candidates = list(scores)
        if must_contain_any is not None:
            side_a, side_b = must_contain_any
            candidates = [
                sid
                for sid in candidates
                if not side_a.isdisjoint(self.bags[sid].keys())
                and not side_b.isdisjoint(self.bags[sid].keys())
            ]
        candidates.sort(key=lambda sid: (-scores[sid], sid))
        if top_n is not None:
            candidates = candidates[:top_n]
        return [(sid, scores[sid]) for sid in candidates]

    def two_step(self, q: str, a: str, params: RetrievalParams):
        query_bag = reference_tokenize(q + " " + a)
        first = self.search(query_bag, params.k)
        q_stems = frozenset(reference_tokenize(q))
        a_stems = frozenset(reference_tokenize(a))
        pairs = []
        for f1_id, score1 in first:
            f1_keys = frozenset(self.bags[f1_id])
            q_minus = frozenset(query_bag) - f1_keys
            f_minus = f1_keys - frozenset(query_bag)
            if not q_minus or not f_minus:
                continue
            second = self.search(
                q_minus | f_minus, params.l, must_contain_any=(q_minus, f_minus)
            )
            for f2_id, score2 in second:
                f2_keys = self.bags[f2_id].keys()
                if not q_stems.isdisjoint(f2_keys) or not a_stems.isdisjoint(f2_keys):
                    pairs.append(RetrievedPair(f1_id, f2_id, score1, score2))
        pairs.sort(key=lambda p: (-p.pair_score, p.f1, p.f2))
        facts = []
        seen = set()
        for pair in pairs:
            for fid in (pair.f1, pair.f2):
                if fid not in seen:
                    seen.add(fid)
                    facts.append(fid)
                    if len(facts) == params.m:
                        return facts, pairs
        return facts, pairs


def naive_search(corpus: Corpus, query_terms, top_n, must_contain_any=None):
    """(sentence id, score) list ranked like the engine's search."""
    return OracleSearcher(corpus).search(query_terms, top_n, must_contain_any)


def reference_ir_score(index: InvertedIndex, stem_text: str, choice_text: str) -> float:
    """The IR baseline score as first written: the query is the tokenized
    "q a" string, and the stem and the choice are each tokenized again for
    the constraint.  It runs the engine's search, so it pins the query
    formulation; naive_search pins search itself."""
    hits = search(
        index,
        query_tokens(stem_text, choice_text),
        1,
        must_contain_any=(stem_set(stem_text), stem_set(choice_text)),
    )
    return hits[0].score if hits else 0.0


def brute_two_step(corpus: Corpus, q: str, a: str, params: RetrievalParams):
    """Mirror of the two-step pipeline built on the exhaustive scan."""
    return OracleSearcher(corpus).two_step(q, a, params)


def brute_rank_by_dissimilarity(question, fold_questions):
    """Reference dissimilarity order: both fact pairs re-tokenized for every
    comparison, shared distinct stems ascending, ties by id."""

    def stems(q):
        return stem_set(q.fact1) | stem_set(q.fact2)

    others = [q for q in fold_questions if q.id != question.id]
    return sorted(others, key=lambda q: (len(stems(question) & stems(q)), q.id))


def brute_adversary_sort(candidates):
    """Reference ranking: (fooled desc, margin desc, text asc) computed from
    raw (text, per_model, answer_scores) triples."""
    rows = []
    for text, per_model, answer_scores in candidates:
        fooled = sum(1 for p, ans in zip(per_model, answer_scores) if p > ans)
        margin = sum(p - ans for p, ans in zip(per_model, answer_scores))
        rows.append((text, fooled, margin))
    rows.sort(key=lambda r: (-r[1], -r[2], r[0]))
    return rows


def text_set_prune_then_rank(scorers, question, candidates, keep_top):
    """Reference prune-then-rank over (text, source) pairs, as `distract
    rank` once ran it: prune bare texts by the first scorer, keep the pool's
    pairs whose text is in the kept set (in pool order), then rank those
    with brute_adversary_sort.  Returns (text, source, fooled, margin) rows."""
    texts = [c if isinstance(c, str) else c[0] for c in candidates]
    scored = sorted(
        texts, key=lambda text: (-checked_score(scorers[0], question, text), text)
    )
    kept = set(scored[:keep_top])
    candidates = [c for c in candidates if c[0] in kept]
    answer_scores = [s.score(question, question.answer_text) for s in scorers]
    rows = brute_adversary_sort(
        [(text, [s.score(question, text) for s in scorers], answer_scores)
         for text, _ in candidates]
    )
    source_of = dict(candidates)
    return [(text, source_of[text], fooled, margin) for text, fooled, margin in rows]


def brute_build_problem(
    facts,
    targets: tuple[float, float, float] = (0.78, 0.11, 0.11),
    slack: float = 0.01,
    prune_threshold: float = 10.0,
) -> SplitProblem:
    """Reference split problem: scores all n(n-1)/2 fact pairs in (i, k)
    order and keeps those at or above the threshold."""
    if abs(sum(targets) - 1.0) > 1e-9:
        raise HopkitError(f"fold targets must sum to 1, got {targets}")
    seed_facts = list(facts)
    idf = idf_table(seed_facts)
    sim: dict[tuple[int, int], float] = {}
    for i in range(len(seed_facts)):
        for k in range(i + 1, len(seed_facts)):
            value = seed_fact_similarity(seed_facts[i].tokens, seed_facts[k].tokens, idf)
            if value >= prune_threshold:
                sim[(i, k)] = value
    return SplitProblem(seed_facts, sim, tuple(targets), slack, prune_threshold)


def enumerate_split(problem):
    """Full 3^n scan returning the best (violation, objective) and whether
    any feasible assignment exists.  Uses numpy, vectorized per edge."""
    import numpy as np

    n = len(problem.facts)
    counts = np.array([f.question_count for f in problem.facts], dtype=np.int64)
    total = 3**n
    # assignment matrix: base-3 digits of 0..3^n-1
    codes = np.arange(total, dtype=np.int64)
    labels = np.empty((total, n), dtype=np.int8)
    for i in range(n):
        labels[:, i] = (codes // (3**i)) % 3
    masses = np.zeros((total, 3), dtype=np.int64)
    for fold in range(3):
        masses[:, fold] = (labels == fold) @ counts
    bounds = problem.mass_bounds()
    violation = np.zeros(total, dtype=np.float64)
    for fold, (lo, hi) in enumerate(bounds):
        violation += np.maximum(0.0, lo - masses[:, fold])
        violation += np.maximum(0.0, masses[:, fold] - hi)
    objective = np.zeros(total, dtype=np.float64)
    for (i, k), value in sorted(problem.sim.items()):
        objective += value * (labels[:, i] != labels[:, k])
    feasible = violation == 0.0
    if feasible.any():
        best_obj = objective[feasible].min()
        return 0.0, float(best_obj), True
    best_viol = violation.min()
    at_min = violation == best_viol
    return float(best_viol), float(objective[at_min].min()), False


# ---------------------------------------------------------------------------
# Corpus ingest, one character or token at a time: the tokenizer, cleaning
# filter and sentence normal form the memoised, prechecked versions in
# hopkit.corpus must reproduce exactly.

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)
_WS_RE = re.compile(r"\s+")
_CONTROL_RE = re.compile(r"[\x00-\x08\x0b-\x1f\x7f]")
_MARKUP_RE = re.compile(r"[<>{}][A-Za-z/]|[A-Za-z/][<>{}]")
_EMAIL_RE = re.compile(r"[\w.+-]+@[\w-]+\.[\w.-]+")
_URL_RE = re.compile(r"https?://\S+|www\.\S+", re.IGNORECASE)
_NUMERIC_TOKEN_RE = re.compile(r"[\d.,:/%-]*\d[\d.,:/%-]*")

MIN_TOKENS = 3
MAX_TOKENS = 60
MIN_ALPHA_RATIO = 0.6
NUMBER_RUN_LEN = 4


def reference_tokenize(text: str) -> Counter:
    """Per-token loop: stopword check, Porter stem, post-stem stopword check."""
    bag = Counter()
    for token in _TOKEN_RE.findall(text.lower()):
        if token in STOPWORDS:
            continue
        stemmed = stem(token)
        if not stemmed or stemmed in STOPWORDS:
            continue
        bag[stemmed] += 1
    return bag


def reference_normal_form(text: str) -> str:
    """corpus._normal_form(text) without its printable-text fast path:
    always through both regexes."""
    return _WS_RE.sub(" ", _CONTROL_RE.sub(" ", text)).strip()


def reference_clean_filter(candidate: str) -> CleanResult:
    """Every rule's regex on every text; characters counted one at a time."""
    text = candidate.strip()
    if _MARKUP_RE.search(text):
        return CleanResult(False, "markup")
    tokens = text.split()
    run = 0
    for token in tokens:
        if _NUMERIC_TOKEN_RE.fullmatch(token):
            run += 1
            if run >= NUMBER_RUN_LEN:
                return CleanResult(False, "number_run")
        else:
            run = 0
    if _EMAIL_RE.search(text):
        return CleanResult(False, "email")
    if _URL_RE.search(text):
        return CleanResult(False, "url")
    non_space = sum(1 for ch in text if not ch.isspace())
    alpha = sum(1 for ch in text if ch.isalpha())
    if non_space == 0 or alpha / non_space < MIN_ALPHA_RATIO:
        return CleanResult(False, "alpha_ratio")
    if not MIN_TOKENS <= len(tokens) <= MAX_TOKENS:
        return CleanResult(False, "token_count")
    return CleanResult(True)


# ---------------------------------------------------------------------------
# Split packing and annealing


def frozen_greedy_labels(problem: SplitProblem) -> list[int]:
    """The fact-by-fact greedy start the annealing used before components:
    largest fact first, each to the fold with the largest remaining deficit.
    On an edgeless problem the component packing must equal it."""
    q = problem.total_questions
    deficits = [t * q for t in problem.fold_targets]
    labels = [0] * len(problem.facts)
    for i in sorted(range(len(problem.facts)),
                    key=lambda i: (-problem.facts[i].question_count, i)):
        fold = max(range(3), key=lambda j: deficits[j])
        labels[i] = fold
        deficits[fold] -= problem.facts[i].question_count
    return labels


def flood_fill_components(problem: SplitProblem) -> list[list[int]]:
    """Components of the positive-weight edges by repeated flood fill, each
    sorted, listed by smallest fact index."""
    neighbours: dict[int, set[int]] = {i: set() for i in range(len(problem.facts))}
    for (i, k), value in problem.sim.items():
        if value > 0.0:
            neighbours[i].add(k)
            neighbours[k].add(i)
    seen: set[int] = set()
    components = []
    for start in range(len(problem.facts)):
        if start in seen:
            continue
        component, frontier = {start}, [start]
        while frontier:
            for other in neighbours[frontier.pop()] - component:
                component.add(other)
                frontier.append(other)
        seen |= component
        components.append(sorted(component))
    return components


def greedy_component_labels(problem: SplitProblem) -> list[int]:
    """Whole components, heaviest first (ties by smallest fact index), each
    to the fold with the largest remaining deficit."""
    q = problem.total_questions
    deficits = [t * q for t in problem.fold_targets]
    labels = [0] * len(problem.facts)
    weighed = [(sum(problem.facts[i].question_count for i in c), c)
               for c in flood_fill_components(problem)]
    for mass, component in sorted(weighed, key=lambda mc: (-mc[0], mc[1][0])):
        fold = max(range(3), key=lambda j: deficits[j])
        for i in component:
            labels[i] = fold
        deficits[fold] -= mass
    return labels


def annealing_solve_heuristic(
    problem: SplitProblem,
    seed: int = 0,
    iterations: int = 20000,
    restarts: int = 10,
) -> FoldAssignment:
    """The annealing on its own: every restart and iteration runs, whether or
    not a packing of whole components would cut nothing.  Restart 0 starts
    from the greedy component packing."""
    n = len(problem.facts)
    bounds = problem.mass_bounds()
    if n == 0:
        return FoldAssignment({}, 0.0, _violation([0, 0, 0], bounds) == 0.0)
    penalty = sum(problem.sim.values()) + 1.0
    adj: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for (i, k), value in problem.sim.items():
        adj[i].append((k, value))
        adj[k].append((i, value))
    counts = [f.question_count for f in problem.facts]

    best_key = (math.inf, math.inf)
    best_labels: list[int] | None = None

    def consider(labels, violation, objective) -> float:
        # The running objective drifts by float rounding, so a state that
        # seems to beat the best one is judged on its recomputed objective,
        # and the walk goes on from that exact value.
        nonlocal best_key, best_labels
        if (violation, objective) < best_key:
            objective = cross_fold_objective(problem, labels)
            if (violation, objective) < best_key:
                best_key = (violation, objective)
                best_labels = labels.copy()
        return objective

    for restart in range(max(1, restarts)):
        rng = random.Random(f"{seed}:{restart}")
        if restart == 0:
            labels = greedy_component_labels(problem)
        else:
            labels = [rng.randrange(3) for _ in range(n)]
        masses = _masses(problem, labels)
        objective = cross_fold_objective(problem, labels)
        violation = _violation(masses, bounds)
        consider(labels, violation, objective)
        energy = objective + penalty * violation
        t0 = max(penalty, 1.0)
        t_end = 1e-3
        cooling = (t_end / t0) ** (1.0 / max(1, iterations - 1))
        temperature = t0

        def move_delta(i: int, fold: int) -> float:
            return sum(
                value * ((labels[k] != fold) - (labels[k] != labels[i]))
                for k, value in adj[i]
            )

        for _ in range(iterations):
            if n >= 2 and rng.random() < 0.5:
                i, j = rng.sample(range(n), 2)
                if labels[i] == labels[j]:
                    temperature *= cooling
                    continue
                fi, fj = labels[i], labels[j]
                d1 = move_delta(i, fj)
                labels[i] = fj
                d2 = move_delta(j, fi)
                labels[i] = fi
                new_masses = list(masses)
                new_masses[fi] += counts[j] - counts[i]
                new_masses[fj] += counts[i] - counts[j]
                new_objective = objective + d1 + d2
                apply_change = (((i, fj), (j, fi)), new_masses, new_objective)
            else:
                i = rng.randrange(n)
                fold = rng.randrange(3)
                if fold == labels[i]:
                    temperature *= cooling
                    continue
                new_masses = list(masses)
                new_masses[labels[i]] -= counts[i]
                new_masses[fold] += counts[i]
                new_objective = objective + move_delta(i, fold)
                apply_change = (((i, fold),), new_masses, new_objective)
            changes, new_masses, new_objective = apply_change
            new_violation = _violation(new_masses, bounds)
            new_energy = new_objective + penalty * new_violation
            delta = new_energy - energy
            if delta <= 0 or rng.random() < math.exp(-delta / max(temperature, 1e-12)):
                for fact_index, fold in changes:
                    labels[fact_index] = fold
                masses = new_masses
                violation = new_violation
                objective = consider(labels, violation, new_objective)
                energy = objective + penalty * violation
            temperature *= cooling

    assert best_labels is not None
    objective = cross_fold_objective(problem, best_labels)
    return _assignment(problem, best_labels, objective, best_key[0], bounds)
