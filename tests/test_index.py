import dataclasses
import errno
import hashlib
import itertools
import math
import random
import struct
import sys
import threading
import unicodedata
import zlib
from array import array
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

import hopkit.corpus
import hopkit.index
import hopkit.retrieval
from hopkit.corpus import STOPWORDS, Corpus
from hopkit.errors import SnapshotError
from hopkit.index import (
    K1,
    MAGIC,
    POOL_POSTINGS_PER_HIT,
    InvertedIndex,
    _score_constrained,
    bm25_term_score,
    build_index,
    load_snapshot,
    search,
    write_snapshot,
)
from hopkit.retrieval import two_step

from conftest import (
    STEM_WORDS,
    SnapshotParts,
    query_words,
    random_corpus,
    random_query,
    reference_packing,
    small_corpora,
    whole_postings,
)
from oracles import OracleSearcher, naive_search


@st.composite
def tied_corpora(draw) -> Corpus:
    """Sentences that are word-order permutations of a few word lists: each
    permutation is its own sentence with the same bag, so whole groups of
    sentences tie at every query's score."""
    texts = []
    for words in draw(st.lists(st.lists(st.sampled_from(STEM_WORDS), min_size=1, max_size=10),
                               min_size=1, max_size=8)):
        copies = draw(st.integers(1, 10))
        texts += [" ".join(draw(st.permutations(words))) + "." for _ in range(copies)]
    return Corpus.from_texts(texts)


# Sentences of words that stem or are stopwords beside words that are their
# own stems, and sentences of 256 or more tokens, which make tfs 4 bytes.
packing_texts = st.lists(
    st.lists(st.sampled_from(STEM_WORDS + ("winds", "heating", "running", "the", "is", "doing")),
             min_size=1, max_size=12).map(" ".join)
    | st.builds(lambda word, n: " ".join([word] * n), st.sampled_from(STEM_WORDS),
                st.integers(256, 300)),
    max_size=12)


def toy_corpus():
    return Corpus.from_texts(
        [
            "wind turbine spins fast.",
            "wind power and solar power together.",
            "solar panel output rises.",
        ]
    )


def one_full_match_corpus():
    """"wind heat air." and 40 permutations of one bag that hold "wind" in
    longer sentences, so for the query (air, heat, wind) only the first
    sentence can reach the top-1."""
    others = [" ".join(p) + "." for p in
              itertools.islice(itertools.permutations(["wind", *STEM_WORDS[4:]]), 40)]
    return Corpus.from_texts(["wind heat air.", *others])


def counting_contributions(monkeypatch) -> list[int]:
    """Each later _score_constrained call appends the BM25 contributions it
    summed: over the documents it scored, the query terms each holds."""
    counts = []
    real = hopkit.index._score_constrained

    def counting(index, terms, *args):
        scores = real(index, terms, *args)
        held = [index.postings[term].mapping for term in terms if term in index.df]
        counts.append(sum(doc_id in tfs for doc_id in scores for tfs in held))
        return scores

    monkeypatch.setattr(hopkit.index, "_score_constrained", counting)
    return counts


class TestBuild:
    def test_toy_postings(self):
        index = build_index(toy_corpus())
        assert index.n_docs == 3
        assert list(index.postings["wind"]) == [(0, 1), (1, 1)]
        assert list(index.postings["power"]) == [(1, 2)]
        assert list(index.postings["solar"]) == [(1, 1), (2, 1)]
        assert index.doc_len == [4, 5, 4]
        assert index.avg_len == pytest.approx(13 / 3)

    def test_posting_lists_strictly_increasing(self):
        rng = random.Random(7)
        corpus, _ = random_corpus(rng, 120)
        index = build_index(corpus)
        for plist in whole_postings(index).values():
            ids = [doc_id for doc_id, _ in plist]
            assert ids == sorted(ids)
            assert len(ids) == len(set(ids))
            assert all(doc_id < index.n_docs for doc_id in ids)

    def test_doc_len_equals_posting_tf_sums(self):
        rng = random.Random(11)
        corpus, _ = random_corpus(rng, 80)
        index = build_index(corpus)
        totals = [0] * index.n_docs
        for plist in whole_postings(index).values():
            for doc_id, tf in plist:
                totals[doc_id] += tf
        assert totals == index.doc_len

    def test_term_in_every_doc_still_positive_idf(self):
        corpus = Corpus.from_texts(
            ["wind one extra.", "wind two extra more.", "wind three things."]
        )
        index = build_index(corpus)
        # ln(1 + (3 - 3 + 0.5) / (3 + 0.5)) = ln(1 + 1/7)
        assert index.idf("wind") == pytest.approx(math.log(1 + 0.5 / 3.5), abs=1e-12)
        assert index.idf("wind") > 0

    @given(small_corpora())
    @settings(max_examples=100, deadline=None)
    def test_idf_table_is_the_formula(self, corpus):
        index = build_index(corpus)
        n = index.n_docs
        for term, plist in whole_postings(index).items():
            df = len(plist)
            assert index.idf(term) == math.log(1.0 + (n - df + 0.5) / (df + 0.5))
        assert index.idf("notaterm") == 0.0

    @example(texts=[" ".join(["wind"] * 300 + ["heat"]) + ".", "wind heat."])
    @given(packing_texts)
    @settings(max_examples=100, deadline=None)
    def test_packed_postings_are_the_snapshot_sections(self, tmp_path_factory, texts):
        # a built index holds the arrays its snapshot stores, and a plain
        # reference packing derives the same
        corpus = Corpus.from_texts(texts)
        index = build_index(corpus)
        path = tmp_path_factory.mktemp("packed") / "index.hopidx"
        write_snapshot(index, path)
        parts = SnapshotParts(path.read_bytes())
        postings = index.postings
        offsets = [*postings.starts.values(), len(postings.gaps)]
        packed = [offsets, postings.gaps, postings.tfs, index.doc_len]
        event(f"tf width {postings.tfs.itemsize}")
        assert [postings.gaps.itemsize, postings.tfs.itemsize] == parts.header[4:6]
        assert list(map(list, packed)) == list(map(list, [*parts.arrays[1:], parts.doc_len]))
        assert list(map(list, packed)) == reference_packing(corpus.texts)

    def test_empty_corpus(self):
        index = build_index(Corpus.from_texts([]))
        assert index.n_docs == 0
        assert search(index, Counter({"wind": 1}), 10) == []


class TestSearch:
    def test_matches_naive_scan_hand_case(self):
        corpus = toy_corpus()
        index = build_index(corpus)
        query = Counter({"wind": 1, "power": 1})
        hits = search(index, query, 10)
        expected = naive_search(corpus, query, 10)
        assert [(h.sentence_id, h.score) for h in hits] == expected

    def test_query_term_frequency_ignored(self):
        index = build_index(toy_corpus())
        once = search(index, Counter({"wind": 1}), 10)
        thrice = search(index, Counter({"wind": 3}), 10)
        assert [(h.sentence_id, h.score) for h in once] == [
            (h.sentence_id, h.score) for h in thrice
        ]

    def test_top_n_zero(self):
        index = build_index(toy_corpus())
        assert search(index, Counter({"wind": 1}), 0) == []

    def test_tie_break_ascending_id(self):
        corpus = Corpus.from_texts(["wind alpha beta.", "wind gamma delta."])
        index = build_index(corpus)
        hits = search(index, Counter({"wind": 1}), 10)
        assert [h.sentence_id for h in hits] == [0, 1]
        assert hits[0].score == hits[1].score

    def test_must_contain_any_requires_both_sides(self, mini_index):
        hits = search(
            mini_index,
            Counter({"wind": 1, "electr": 1}),
            10,
            must_contain_any=(frozenset({"wind"}), frozenset({"electr"})),
        )
        texts = [mini_index.corpus[h.sentence_id] for h in hits]
        assert texts == ["Wind is used for producing electricity."]

    def test_must_contain_any_empty_side_admits_nothing(self, mini_index):
        hits = search(
            mini_index,
            Counter({"wind": 1}),
            10,
            must_contain_any=(frozenset(), frozenset({"wind"})),
        )
        assert hits == []

    def test_scores_positive_and_sorted(self):
        rng = random.Random(13)
        corpus, vocab = random_corpus(rng, 200)
        index = build_index(corpus)
        for _ in range(50):
            q, a = random_query(rng, vocab)
            query = Counter(q.split() + a.split())
            hits = search(index, query, 25)
            assert all(h.score > 0 for h in hits)
            keys = [(-h.score, h.sentence_id) for h in hits]
            assert keys == sorted(keys)

    def test_fuzz_equivalence_with_naive_scan(self):
        rng = random.Random(17)
        for trial in range(15):
            corpus, vocab = random_corpus(rng, rng.randint(30, 250))
            index = build_index(corpus)
            for _ in range(10):
                q, a = random_query(rng, vocab)
                query = Counter(q.split() + a.split())
                constraint = None
                if rng.random() < 0.5:
                    constraint = (
                        frozenset(rng.sample(vocab, 3)),
                        frozenset(rng.sample(vocab, 3)),
                    )
                got = search(index, query, 20, must_contain_any=constraint)
                want = naive_search(corpus, query, 20, must_contain_any=constraint)
                assert [(h.sentence_id, h.score) for h in got] == want

    @given(
        corpus=small_corpora(),
        query=st.lists(query_words, min_size=1, max_size=6),
        sides=st.none() | st.tuples(st.frozensets(query_words, max_size=4),
                                    st.frozensets(query_words, max_size=4)),
        top_n=st.integers(1, 40),
    )
    @settings(max_examples=400, deadline=None)
    def test_property_equals_naive_scan_exactly(self, corpus, query, sides, top_n):
        # sides range over none, empty, disjoint-from-query and overlapping
        # sets; top_n over 1 and more than the (at most 30) candidates
        index = build_index(corpus)
        got = search(index, Counter(query), top_n, must_contain_any=sides)
        want = naive_search(corpus, query, None, must_contain_any=sides)
        assert [(h.sentence_id, h.score) for h in got] == want[:top_n]

    @given(
        corpus=small_corpora(),
        query=st.lists(query_words, min_size=1, max_size=6),
        top_n=st.integers(1, 40),
    )
    @settings(max_examples=300, deadline=None)
    def test_unconstrained_search_is_the_query_against_itself(self, corpus, query, top_n):
        # a sentence holding any query term holds one from each side of
        # (Q, Q), so leaving must_contain_any out is that constraint
        index = build_index(corpus)
        got = search(index, query, top_n)
        constrained = search(index, query, top_n, must_contain_any=(frozenset(query),) * 2)
        want = naive_search(corpus, query, None)
        assert got == constrained
        assert [(h.sentence_id, h.score) for h in got] == want[:top_n]

    @given(
        corpus=tied_corpora(),
        query=st.frozensets(st.sampled_from(STEM_WORDS), min_size=1, max_size=6),
        inside=st.booleans(),
        top_n=st.integers(1, 5),
        data=st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_pruned_top_n_equals_naive_scan_with_ties(self, corpus, query, inside, top_n, data):
        # sides inside the query are the two_step/single_step shape, where
        # pruning engages; sides outside it leave no survivor a query term,
        # so the floor must fall below every impact and stop
        words = sorted(query) if inside else sorted(set(STEM_WORDS) - query)
        side = st.frozensets(st.sampled_from(words), min_size=1)
        sides = (data.draw(side), data.draw(side))
        got = search(build_index(corpus), Counter(query), top_n, must_contain_any=sides)
        want = naive_search(corpus, Counter(query), top_n, must_contain_any=sides)
        assert [(h.sentence_id, h.score) for h in got] == want

    def test_pruned_search_scores_only_what_can_rank(self):
        # only the first sentence can reach the top-1, so the rest are
        # never scored
        corpus = one_full_match_corpus()
        index = build_index(corpus)
        terms, sides = ["air", "heat", "wind"], (frozenset({"wind"}), frozenset({"wind"}))
        assert len(_score_constrained(index, terms, *sides, index.n_docs)) == 41
        assert list(_score_constrained(index, terms, *sides, 1)) == [0]
        hits = search(index, Counter(terms), 1, must_contain_any=sides)
        assert [(h.sentence_id, h.score) for h in hits] == naive_search(
            corpus, terms, 1, must_contain_any=sides)

    def test_unconstrained_search_is_pruned(self, monkeypatch):
        # every sentence holds a query term, and still only the one that
        # can reach the top-1 is scored once the max impacts are known
        # (filling one scores the term's whole posting list)
        corpus = one_full_match_corpus()
        index = build_index(corpus)
        terms = ["air", "heat", "wind"]
        holders = set().union(*(index.postings[term].mapping for term in terms))
        assert len(holders) == 41
        for term in terms:
            index.max_impact(term)
        counts = counting_contributions(monkeypatch)
        hits = search(index, Counter(terms), 1)
        assert sum(counts) < len(holders)
        assert [(h.sentence_id, h.score) for h in hits] == naive_search(corpus, terms, 1)

    @given(
        corpus=small_corpora(max_sentences=100, min_sentences=10),
        query=st.lists(query_words, min_size=1, max_size=6),
        sides=st.tuples(st.frozensets(query_words, min_size=1, max_size=4),
                        st.frozensets(query_words, min_size=1, max_size=4)),
        cut=st.sampled_from([1, POOL_POSTINGS_PER_HIT]),
        walk=st.booleans(),
        data=st.data(),
    )
    @settings(max_examples=400, deadline=None)
    def test_both_candidate_sources_equal_naive_scan(self, corpus, query, sides, cut, walk,
                                                     data):
        # top_n is drawn on the side of the pool cut-off that walk names:
        # up to cut * top_n * len(terms) postings on the rarer side builds
        # the survivor set, and more walks the impact rounds from the
        # documents meeting both sides, which needs the max impacts and
        # bitsets.  The cut-off only chooses the candidate source, so the
        # hits must not depend on it; the cut of 1 puts the walk within
        # reach of these small corpora, whose up to 100 sentences make
        # bitsets of several 30-bit int digits.  The least top_n that
        # builds the survivor set is drawn often: it is the likeliest to
        # score more than top_n survivors per query term.
        index = build_index(corpus)
        terms = set(query)
        rarer = min(sum(len(index.postings[t]) for t in side if t in index.postings)
                    for side in sides)
        per_hit = cut * len(terms)
        if walk:
            assume(rarer > per_hit)
            top_n = data.draw(st.integers(1, min(40, (rarer - 1) // per_hit)))
        else:
            least = max(1, -(-rarer // per_hit))
            assume(least <= 40)
            top_n = data.draw(st.just(least) | st.integers(least, 40))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(hopkit.index, "POOL_POSTINGS_PER_HIT", cut)
            got = search(index, query, top_n, must_contain_any=sides)
        want = naive_search(corpus, query, None, sides)
        assert [(h.sentence_id, h.score) for h in got] == want[:top_n]
        # A walk fills the bitsets and max impacts of its query and side
        # terms only; a survivor set, scored whole, fills none.
        holding = [set().union(*(index.postings[t].mapping for t in side if t in index.postings))
                   for side in sides]
        survivors = holding[0] & holding[1]
        weighted = len(terms & index.postings.df.keys())
        if not weighted:
            source = "none"
        elif walk:
            source = "walk"
        elif not survivors:
            source = "none"
        else:
            source = "pool"
        event(source)
        assert set(index._impact_bits) <= terms | sides[0] | sides[1]
        assert bool(index._impact_bits) == (source == "walk")

    def test_walk_with_side_check_reaches_every_bitset_digit(self):
        # The only sentences meeting both sides are ids 29, 30, 63, 64 and
        # the last, which straddle the 30-bit digits of a CPython int and
        # end the bitset; shorter sentences that fail a side outscore them,
        # so the side check must drop those.  Each side holds more than
        # POOL_POSTINGS_PER_HIT postings per hit per query term, so the
        # search walks from the bitset of the documents meeting both sides.
        n_docs = 800
        both = {29, 30, 63, 64, n_docs - 1}
        corpus = Corpus.from_texts(
            f"wind heat air rock sand tree s{i}." if i in both else
            f"{['wind rain', 'heat air'][i % 2]} s{i}." for i in range(n_docs))
        index = build_index(corpus)
        terms = ["air", "heat", "rain", "wind"]
        sides = (frozenset({"wind"}), frozenset({"air", "heat"}))
        assert naive_search(corpus, terms, 1)[0][0] not in both
        rarer = min(sum(len(index.postings[term]) for term in side) for side in sides)
        assert rarer > POOL_POSTINGS_PER_HIT * 6 * len(terms)
        for top_n in (1, 2, 5, 6):
            hits = search(index, Counter(terms), top_n, must_contain_any=sides)
            want = naive_search(corpus, terms, top_n, must_contain_any=sides)
            assert [(h.sentence_id, h.score) for h in hits] == want
        assert {h.sentence_id for h in hits} == both
        assert set(index._impact_bits) == set(terms)

    def test_walk_with_an_empty_start_returns_at_once(self, monkeypatch):
        # no sentence holds both "wind" and "heat", and each side holds
        # more postings than the cut of 1 admits for a top-1 search over
        # two terms: the search walks, finds its start empty and returns
        # before it ranks the query terms, so it decodes nothing and fills
        # the max impact and bitset of no query term that is on no side
        corpus = Corpus.from_texts(["wind.", "wind not.", "heat.", "heat not.",
                                    "rain wind.", "rain heat."])
        index = build_index(corpus)
        decoded = []
        real = hopkit.index._doc_ids

        def recording(bits):
            decoded.append(bits)
            return real(bits)

        monkeypatch.setattr(hopkit.index, "_doc_ids", recording)
        monkeypatch.setattr(hopkit.index, "POOL_POSTINGS_PER_HIT", 1)
        sides = (frozenset({"wind"}), frozenset({"heat"}))
        assert search(index, ["wind", "rain"], 1, must_contain_any=sides) == []
        assert decoded == []
        assert set(index._impact_bits) == {"heat", "wind"}

    def test_survivor_set_larger_than_top_n_per_query_term_is_scored_whole(self):
        # "air" is in as many sentences as the cut-off admits for a top-1
        # search over two terms, each also holding "heat": the survivor set
        # is built from that side and holds more than top_n survivors per
        # query term, and it is scored whole, with no walk
        terms, sides = ["air", "heat"], (frozenset({"air"}), frozenset({"heat"}))
        n_air = POOL_POSTINGS_PER_HIT * len(terms)
        corpus = Corpus.from_texts(
            f"heat {'air ' * (1 + i % 3)}{'sand ' * i}cloud." if i % 7 == 0 else
            f"heat wind s{i}." for i in range(7 * n_air))
        index = build_index(corpus)
        assert len(index.postings["air"]) == n_air > len(terms)
        hits = search(index, Counter(terms), 1, must_contain_any=sides)
        assert [(h.sentence_id, h.score) for h in hits] == naive_search(
            corpus, terms, 1, must_contain_any=sides)
        assert index._impact_bits == {}  # no max impact and no bitset

    def test_rare_side_search_scores_only_its_pool(self, monkeypatch):
        # "air" is in one sentence and "wind" in all 41: the survivor set
        # built from the rare side holds one sentence, so scoring it needs
        # no max impact and one contribution per query term, where a walk
        # over the impact rounds would reach every sentence.  The other
        # side has more terms than the pool has sentences, so the pooled
        # sentence is tested for each of them; in the second corpus it
        # holds neither, and nothing may be hit.
        counts = counting_contributions(monkeypatch)
        terms, sides = ["air", "heat", "wind"], (frozenset({"air"}), frozenset({"heat", "wind"}))
        for texts, n_hits in ((["wind heat air."], 1), (["air rain.", "heat rain."], 0)):
            corpus = Corpus.from_texts([*texts, *one_full_match_corpus().texts[1:]])
            index = build_index(corpus)
            assert [len(index.postings[term]) for term in terms] == [1, 1, 40 + n_hits]
            counts.clear()
            hits = search(index, terms, 1, must_contain_any=sides)
            assert index._impact_bits == {}  # no max impact and no bitset
            assert sum(counts) <= len(terms)
            want = naive_search(corpus, terms, 1, must_contain_any=sides)
            assert len(want) == n_hits
            assert [(h.sentence_id, h.score) for h in hits] == want

    def test_pruning_scores_past_a_first_round_of_weak_hits(self):
        # the long sentence holds both query terms, so its bound is the
        # highest and the first round scores only it; each short sentence
        # has a lower bound but a higher score, so stopping after that
        # round would return the wrong top hit
        long = "wind heat " + "rock sand soil tree cloud " * 2
        corpus = Corpus.from_texts(["wind rock.", "heat sand.", long])
        terms = ["heat", "wind"]
        sides = (frozenset(terms), frozenset(terms))
        want = naive_search(corpus, terms, 1, must_contain_any=sides)
        assert want[0][0] == 0
        hits = search(build_index(corpus), Counter(terms), 1, must_contain_any=sides)
        assert [(h.sentence_id, h.score) for h in hits] == want

    def test_scores_are_pure_in_declared_statistics(self):
        # rebuilding over a superset corpus changes only (N, avg_len, df);
        # with those pinned, per-term contributions are identical
        corpus = toy_corpus()
        index = build_index(corpus)
        hits = search(index, Counter({"wind": 1}), 10)
        for hit in hits:
            tf = dict(index.postings["wind"])[hit.sentence_id]
            recomputed = bm25_term_score(
                tf, index.idf("wind"), index._norm[index.doc_len[hit.sentence_id]]
            )
            assert recomputed == hit.score

    @given(tf=st.integers(1, 300), dl=st.integers(1, 300),
           avg_len=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
           n_docs=st.integers(1, 300), data=st.data())
    def test_inlined_contribution_is_the_term_score_and_the_oracles(
            self, tf, dl, avg_len, n_docs, data):
        # _score_constrained's score() inlines bm25_term_score; both must
        # equal the oracle's four-argument formula bit for bit
        df = data.draw(st.integers(1, n_docs))
        index = build_index(Corpus.from_texts(
            f"{'wind' if i < df else 'rock'} s{i}." for i in range(n_docs)))
        assert (index.n_docs, index.df["wind"]) == (n_docs, df)
        idf = index.idf("wind")
        norm = InvertedIndex._length_norm(SimpleNamespace(avg_len=avg_len), dl)
        k1_1 = K1 + 1.0
        inlined = idf * tf * k1_1 / (tf + norm)  # score()'s expression
        oracle = OracleSearcher(Corpus.from_texts([]))
        oracle.bags, oracle.n_docs, oracle.df = [{"wind": tf}], n_docs, Counter({"wind": df})
        oracle.doc_len, oracle.avg_len = [dl], avg_len
        assert inlined.hex() == bm25_term_score(tf, idf, norm).hex() == oracle.scores(["wind"])[0].hex()

    def test_rebuild_with_disjoint_sentence_keeps_per_doc_statistics(self):
        # scores depend on the corpus only through (tf, df, dl, N, avg_len):
        # growing the corpus with disjoint vocabulary leaves the original
        # docs' tf/df/dl untouched, and rescoring them with the original
        # N and avg_len pinned reproduces the original scores exactly
        corpus = toy_corpus()
        small = build_index(corpus)
        grown = build_index(
            Corpus.from_texts([*corpus.texts, "quartz vein glitters."])
        )
        for term in ("wind", "solar", "power"):
            assert grown.postings[term] == small.postings[term]
        assert grown.doc_len[: small.n_docs] == small.doc_len
        for hit in search(small, Counter({"wind": 1, "power": 1}), 10):
            repinned = sum(
                bm25_term_score(
                    dict(grown.postings[t])[hit.sentence_id],
                    small.idf(t),
                    small._norm[grown.doc_len[hit.sentence_id]],  # small's avg_len
                )
                for t in ("power", "wind")
                if hit.sentence_id in dict(grown.postings[t])
            )
            assert repinned == pytest.approx(hit.score, abs=1e-12)


def assert_same_index(loaded, built) -> None:
    """Equal postings (each term's (doc id, tf) pairs in the same order),
    statistics, idf table and corpus."""
    assert whole_postings(loaded) == whole_postings(built)
    for term in built.df:
        assert type(loaded.postings[term]) is type(built.postings[term])
    assert loaded.doc_len == built.doc_len
    assert (loaded.n_docs, loaded.avg_len) == (built.n_docs, built.avg_len)
    assert loaded._idf == built._idf
    assert list(loaded.corpus.texts) == built.corpus.texts
    assert loaded.corpus.texts.ids() == built.corpus._by_text
    assert loaded.corpus.source_digest == built.corpus.source_digest


def corpus_with_stopwords(rng: random.Random, n_sentences: int) -> tuple[Corpus, list[str]]:
    """random_corpus's sentences with stopwords and stopword-stemming words
    mixed in, so rebinding STOPWORDS or the stemmer changes postings."""
    corpus, vocab = random_corpus(rng, n_sentences)
    extra = ["the", "is", "of", "doing", "running", "winds", "heating", "wind"]
    texts = [" ".join(text.rstrip(".").split() + rng.choices(extra, k=rng.randint(0, 3))) + "."
             for text in corpus.texts]
    return digested(texts), vocab + extra


def digested(texts) -> Corpus:
    """Corpus.from_texts(texts) with a non-empty source digest, so a
    snapshot's digest round-trip compares a value."""
    return dataclasses.replace(Corpus.from_texts(texts), source_digest="digest")


class TestSnapshot:
    def test_length_norms_wait_for_a_scored_search(self, tmp_path):
        # neither a load nor a search that scores nothing computes a norm
        path = tmp_path / "index.hopidx"
        write_snapshot(build_index(toy_corpus()), path)
        index = load_snapshot(path)
        assert index._norm == {}
        sides = (frozenset({"quartz"}), frozenset({"wind"}))  # no sentence holds "quartz"
        assert search(index, ["quartz", "wind"], 5, must_contain_any=sides) == []
        assert index._norm == {}
        assert search(index, Counter({"wind": 1}), 5)
        assert index._norm and set(index._norm) <= set(index.doc_len)

    def test_roundtrip(self, tmp_path):
        rng = random.Random(23)
        corpus, vocab = random_corpus(rng, 90)
        index = build_index(corpus)
        path = tmp_path / "index.hopidx"
        write_snapshot(index, path)
        loaded = load_snapshot(path)
        assert loaded.n_docs == index.n_docs
        assert loaded.doc_len == index.doc_len
        assert loaded.avg_len == index.avg_len
        assert whole_postings(loaded) == whole_postings(index)
        assert list(loaded.corpus.texts) == corpus.texts
        q, a = random_query(rng, vocab)
        query = Counter(q.split() + a.split())
        assert search(loaded, query, 10) == search(index, query, 10)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.hopidx"
        path.write_bytes(b"NOTANIDX" + b"\x00" * 40)
        with pytest.raises(SnapshotError, match="bad magic"):
            load_snapshot(path)

    def test_checksum_validation(self, tmp_path):
        index = build_index(toy_corpus())
        path = tmp_path / "index.hopidx"
        write_snapshot(index, path)
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(SnapshotError, match="checksum mismatch"):
            load_snapshot(path)

    def test_failed_write_keeps_the_old_snapshot(self, tmp_path, monkeypatch):
        path = tmp_path / "index.hopidx"
        write_snapshot(build_index(toy_corpus()), path)
        old = path.read_bytes()
        bigger = build_index(Corpus.from_texts([f"wind turbine {i} spins." for i in range(50)]))

        real_open = open

        def disk_fills_up(file, mode):
            # part of the new snapshot reaches the disk, then the write fails
            with real_open(file, mode) as handle:
                handle.write(MAGIC)
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(hopkit.index, "open", disk_fills_up, raising=False)
        with pytest.raises(OSError, match="No space"):
            write_snapshot(bigger, path)
        assert path.read_bytes() == old
        assert sorted(p.name for p in tmp_path.iterdir()) == ["index.hopidx"]
        assert list(load_snapshot(path).corpus.texts) == toy_corpus().texts

    def test_failed_rename_leaves_no_temporary_file(self, tmp_path, monkeypatch):
        path = tmp_path / "index.hopidx"
        write_snapshot(build_index(toy_corpus()), path)
        old = path.read_bytes()

        def refuse(src, dst):
            raise OSError(errno.EXDEV, "Invalid cross-device link")

        monkeypatch.setattr(hopkit.index.os, "replace", refuse)
        with pytest.raises(OSError, match="cross-device"):
            write_snapshot(build_index(Corpus.from_texts(["solar panel output rises."])), path)
        assert path.read_bytes() == old
        assert sorted(p.name for p in tmp_path.iterdir()) == ["index.hopidx"]

    def _rewrite_body(self, path, body: bytes) -> None:
        path.write_bytes(MAGIC + hashlib.sha256(body).digest() + body)

    def test_truncated_body_with_valid_checksum(self, tmp_path):
        path = tmp_path / "index.hopidx"
        write_snapshot(build_index(toy_corpus()), path)
        body = path.read_bytes()[len(MAGIC) + 32 :]
        for cut in range(len(body)):
            self._rewrite_body(path, body[:cut])
            with pytest.raises(SnapshotError):
                load_snapshot(path)

    def test_undecodable_text_with_valid_checksum(self, tmp_path):
        path = tmp_path / "index.hopidx"
        write_snapshot(build_index(toy_corpus()), path)
        parts = SnapshotParts(path.read_bytes())
        # a stored token is checked at load
        token = parts.strings[3]
        parts.strings[3] = b"turb\xffne"
        path.write_bytes(parts.sealed())
        with pytest.raises(SnapshotError, match="malformed snapshot body"):
            load_snapshot(path)
        # a sentence text when its block is first read
        parts.strings[3] = token
        parts.blocks[0] = parts.blocks[0].replace(b"turbine", b"turb\xffne")
        path.write_bytes(parts.sealed())
        loaded = load_snapshot(path)
        with pytest.raises(SnapshotError, match="malformed text block 0"):
            loaded.corpus[2]

    @pytest.mark.parametrize("kind", ["token form", "pattern", "unicode version"])
    def test_load_refuses_another_tokenizer(self, tmp_path, monkeypatch, kind):
        # a snapshot written under another stopword list, token pattern or
        # Unicode database is refused like a stale magic, never rebuilt
        path = tmp_path / "index.hopidx"
        write_snapshot(build_index(toy_corpus()), path)
        parts = SnapshotParts(path.read_bytes())
        if kind == "token form":
            monkeypatch.setattr(hopkit.corpus, "STOPWORDS", hopkit.corpus.STOPWORDS | {"wind"})
            message = "the token 'wind' as 'wind', which now normalizes to ''"
        elif kind == "pattern":
            parts.strings[1] = b"[a-z]+"
            message = r"token pattern '\[a-z\]\+' is not '.+'"
        else:
            parts.strings[2] = b"9.9.9"
            message = f"Unicode version 9.9.9 is not {unicodedata.unidata_version}"
        path.write_bytes(parts.sealed())
        with pytest.raises(SnapshotError, match=f"{message}; rebuild it with `hopkit index build`"):
            load_snapshot(path)

    def test_version_1_snapshot_asks_for_a_rebuild(self, tmp_path):
        path = tmp_path / "index.hopidx"
        write_snapshot(build_index(toy_corpus()), path)
        path.write_bytes(b"HOPIDX1\x00" + path.read_bytes()[len(MAGIC) :])
        with pytest.raises(SnapshotError, match="magic.*rebuild.*hopkit index build"):
            load_snapshot(path)

    def test_duplicate_sentences_with_valid_checksum(self, tmp_path):
        # the texts are checked to be distinct when the first is mapped to
        # its id: the load and reading a sentence succeed
        path = tmp_path / "index.hopidx"
        write_snapshot(build_index(toy_corpus()), path)
        parts = SnapshotParts(path.read_bytes())
        first, _, *rest = parts.blocks[0].split(b"\n")
        parts.blocks[0] = b"\n".join([first, first, *rest])  # the second is the first
        path.write_bytes(parts.sealed())
        loaded = load_snapshot(path)
        assert loaded.corpus[1] == loaded.corpus[0] == "wind turbine spins fast."
        with pytest.raises(SnapshotError, match="duplicate sentences"):
            loaded.corpus.id_of_text("solar panel output rises.")

    def test_trailing_bytes_with_valid_checksum(self, tmp_path):
        path = tmp_path / "index.hopidx"
        write_snapshot(build_index(toy_corpus()), path)
        body = path.read_bytes()[len(MAGIC) + 32 :]
        for tail in (b"\x00", b"\x00\x00\x00\x00", b"\x05\x00\x00\x00extra"):
            self._rewrite_body(path, body + tail)
            with pytest.raises(SnapshotError, match="trailing bytes after the body"):
                load_snapshot(path)

    def test_version_2_and_3_snapshots_ask_for_a_rebuild(self, tmp_path):
        # a texts-only snapshot as HOPIDX2 wrote it
        body = struct.pack("<I", 1)
        for text in ("digest", "wind turbine spins fast."):
            body += struct.pack("<I", len(text)) + text.encode("utf-8")
        path = tmp_path / "index.hopidx"
        path.write_bytes(b"HOPIDX2\x00" + hashlib.sha256(body).digest() + body)
        with pytest.raises(SnapshotError, match="bad magic.*HOPIDX2.*rebuild.*hopkit index build"):
            load_snapshot(path)
        # a HOPIDX3 snapshot: these sections, with doc ids in place of gaps
        write_snapshot(build_index(toy_corpus()), path)
        parts = SnapshotParts(path.read_bytes())
        for start, end in zip(parts.offsets, parts.offsets[1:]):
            ids = [total - 1 for total in itertools.accumulate(parts.gaps[start:end])]
            parts.gaps[start:end] = array(parts.gaps.typecode, ids)
        path.write_bytes(b"HOPIDX3\x00" + parts.sealed()[len(MAGIC) :])
        with pytest.raises(SnapshotError, match="bad magic.*HOPIDX3.*rebuild.*hopkit index build"):
            load_snapshot(path)

    def test_version_4_snapshot_asks_for_a_rebuild(self, tmp_path):
        # a HOPIDX4 snapshot: a header of six u32, these arrays without the
        # text block offsets, and the texts among the stream's strings
        path = tmp_path / "index.hopidx"
        write_snapshot(build_index(toy_corpus()), path)
        parts = SnapshotParts(path.read_bytes())
        texts = b"".join(parts.blocks).split(b"\n")[:-1]
        strings = [*parts.strings[:3], *texts, *parts.strings[3:]]
        body = zlib.compress(struct.pack("<6I", *parts.header[:6])
                             + b"".join(a.tobytes() for a in parts.arrays)
                             + b"".join(s + b"\n" for s in strings), 1)
        path.write_bytes(b"HOPIDX4\x00" + hashlib.sha256(body).digest() + body)
        with pytest.raises(SnapshotError, match="bad magic.*HOPIDX4.*rebuild.*hopkit index build"):
            load_snapshot(path)

    @given(seed=st.integers(0, 2**32 - 1), n_sentences=st.integers(0, 120))
    @settings(max_examples=60, deadline=None)
    def test_write_then_load_equals_build(self, tmp_path_factory, seed, n_sentences):
        corpus, _ = random_corpus(random.Random(seed), n_sentences)
        built = build_index(corpus)
        path = tmp_path_factory.mktemp("snapshot") / "index.hopidx"
        write_snapshot(built, path)
        loaded = load_snapshot(path)
        assert loaded.tokens is None
        assert_same_index(loaded, built)
        # the loaded index keeps no table, so it is not written; a build
        # over its corpus writes the same bytes
        again = path.with_name("again.hopidx")
        with pytest.raises(ValueError, match="no tokenizer table"):
            write_snapshot(loaded, again)
        assert not again.exists()
        write_snapshot(build_index(loaded.corpus), again)
        assert again.read_bytes() == path.read_bytes()

    @given(seed=st.integers(0, 2**32 - 1),
           rebinding=st.sampled_from(["add stopwords", "drop stopwords", "stemmer"]))
    @settings(max_examples=60, deadline=None)
    def test_load_under_a_rebound_tokenizer_keeps_or_refuses(self, tmp_path_factory, seed,
                                                              rebinding):
        rng = random.Random(seed)
        corpus, vocab = corpus_with_stopwords(rng, rng.randint(1, 60))
        built = build_index(corpus)
        path = tmp_path_factory.mktemp("snapshot") / "index.hopidx"
        write_snapshot(built, path)
        with pytest.MonkeyPatch.context() as patch:
            if rebinding == "add stopwords":
                patch.setattr(hopkit.corpus, "STOPWORDS",
                              STOPWORDS | set(rng.sample(vocab, rng.randint(1, 4))))
            elif rebinding == "drop stopwords":
                patch.setattr(hopkit.corpus, "STOPWORDS",
                              STOPWORDS - {rng.choice(["the", "is", "of", "do", "zzz"])})
            else:
                cut = rng.randint(1, 6)
                patch.setattr(hopkit.corpus, "stem", lambda word: word[:cut])
            rebuilt = build_index(digested(corpus.texts))
            # the snapshot is refused exactly when a token's form moved
            kept = rebuilt.tokens == built.tokens
            event("kept" if kept else "refused")
            if not kept:
                with pytest.raises(SnapshotError, match="rebuild it with `hopkit index build`"):
                    load_snapshot(path)
                return
            loaded = load_snapshot(path)
        assert loaded.tokens is None
        assert_same_index(loaded, rebuilt)

    def test_tf_above_255(self, tmp_path):
        corpus = Corpus.from_texts([" ".join(["wind"] * 300 + ["heat"]) + ".", "wind heat."])
        built = build_index(corpus)
        path = tmp_path / "index.hopidx"
        write_snapshot(built, path)
        assert SnapshotParts(path.read_bytes()).header[4:6] == [2, 4]
        loaded = load_snapshot(path)
        assert loaded.tokens is None
        assert dict(loaded.postings["wind"]) == {0: 300, 1: 1}
        assert_same_index(loaded, built)

    def test_wide_doc_ids_and_a_table_past_the_memo_bound(self, tmp_path):
        # more sentences than a 2-byte doc id holds, and a tokenizer table of
        # more than 65,536 tokens, which the token memo keeps whole
        corpus = Corpus.from_texts([f"wind w{i}." for i in range(1 << 16 | 1)])
        built = build_index(corpus)
        assert len(built.tokens) > 1 << 16
        path = tmp_path / "index.hopidx"
        write_snapshot(built, path)
        assert SnapshotParts(path.read_bytes()).header[4:6] == [4, 1]
        loaded = load_snapshot(path)
        assert loaded.tokens is None
        assert_same_index(loaded, built)

    @pytest.mark.parametrize("n_docs, id_width", [((1 << 16) - 1, 2), (1 << 16, 4)])
    def test_gap_width_follows_the_sentence_count(self, tmp_path, n_docs, id_width):
        # the last sentence alone holds its term, whose one gap is n_docs:
        # two bytes hold it only below 65,536 sentences
        corpus = Corpus.from_texts([f"w{i}." for i in range(n_docs)])
        built = build_index(corpus)
        path = tmp_path / "index.hopidx"
        write_snapshot(built, path)
        for gaps in (SnapshotParts(path.read_bytes()).gaps, built.postings.gaps):
            assert gaps.itemsize == id_width
            assert max(gaps) == n_docs
        loaded = load_snapshot(path)
        assert loaded.tokens is None
        assert_same_index(loaded, built)

    def test_reloads_past_the_memo_bound_stem_nothing(self, tmp_path, stem_calls):
        # a build, then two loads in one process, through one token memo of
        # more than 65,536 tokens: every token is stemmed once
        n = 1 << 14
        corpus = Corpus.from_texts([f"w{i} x{i} y{i} z{i} v{i}." for i in range(n)])
        built = build_index(corpus)
        assert len(built.tokens) == 5 * n > 1 << 16
        assert len(stem_calls) == 5 * n
        path = tmp_path / "index.hopidx"
        write_snapshot(built, path)
        stem_calls.clear()
        for _ in range(2):
            loaded = load_snapshot(path)
            assert loaded.tokens is None
            assert stem_calls == []
        assert_same_index(loaded, built)

    @given(seed=st.integers(0, 2**32 - 1), n_sentences=st.integers(0, 120), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_terms_read_in_any_order_equal_build(self, tmp_path_factory, seed, n_sentences,
                                                 data):
        # a loaded index builds a term's dict when the term is first read:
        # searches read some terms, then every term is read in a drawn order
        corpus, _ = random_corpus(random.Random(seed), n_sentences)
        built = build_index(corpus)
        path = tmp_path_factory.mktemp("snapshot") / "index.hopidx"
        write_snapshot(built, path)
        loaded = load_snapshot(path)
        terms = sorted(built.df)
        words = st.sampled_from([*terms, "absent"])
        for _ in range(data.draw(st.integers(0, 4))):
            query = data.draw(st.lists(words, min_size=1, max_size=6))
            sides = data.draw(st.none() | st.tuples(st.frozensets(words, max_size=4),
                                                    st.frozensets(words, max_size=4)))
            top_n = data.draw(st.integers(1, 30))
            assert search(loaded, query, top_n, sides) == search(built, query, top_n, sides)
        for term in data.draw(st.permutations(terms)):
            assert list(loaded.postings[term]) == list(built.postings[term])
            assert loaded.idf(term) == built.idf(term)
        assert loaded.df == built.df

    def test_a_load_builds_only_the_terms_its_searches_read(self, tmp_path, monkeypatch):
        # so does a build, whose snapshot write reads no term's dict either
        rng = random.Random(31)
        corpus, vocab = random_corpus(rng, 300)
        path = tmp_path / "index.hopidx"
        built = build_index(corpus)
        write_snapshot(built, path)
        queries = []

        def recording(index, query, *args, **kwargs):
            queries.append(frozenset(query))
            return search(index, query, *args, **kwargs)

        monkeypatch.setattr(hopkit.retrieval, "search", recording)
        question = random_query(rng, vocab)
        for index in (built, load_snapshot(path)):
            assert not index.postings._built  # nothing is built yet
            queries.clear()
            two_step(index, *question)
            read = set(index.postings._built)
            assert len(queries) > 1
            assert queries[0] & set(index.df) <= read  # the first hop reads its query
            assert read <= set().union(*queries)
            assert len(read) < len(index.df)

    @example(seed=0, n_sentences=0, size=3)
    @example(seed=0, n_sentences=14, size=7)
    @given(seed=st.integers(0, 2**32 - 1), n_sentences=st.integers(0, 40),
           size=st.integers(1, 7))
    @settings(max_examples=60, deadline=None)
    def test_text_blocks_read_in_any_order_equal_build(self, tmp_path_factory, seed,
                                                       n_sentences, size):
        corpus, vocab = random_corpus(random.Random(seed), n_sentences)
        corpus = digested(corpus.texts)
        path = tmp_path_factory.mktemp("blocks") / "index.hopidx"
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(hopkit.index, "TEXT_BLOCK", size)
            write_snapshot(build_index(corpus), path)
            event("empty" if not n_sentences else
                  "partial last block" if n_sentences % size else "whole blocks")
            loaded = load_snapshot(path).corpus
            assert len(loaded) == n_sentences
            order = list(range(n_sentences))
            random.Random(seed).shuffle(order)
            for sid in order:
                assert loaded[sid] == corpus[sid]
            assert set(loaded.texts._blocks) == set(range(-(-n_sentences // size)))
            assert loaded._by_text is None
            for text in [*corpus.texts, "absent words here.", *vocab[:3]]:
                assert loaded.id_of_text(text) == corpus.id_of_text(text)
            again = path.with_name("again.hopidx")
            write_snapshot(build_index(digested(list(loaded.texts))), again)
            assert again.read_bytes() == path.read_bytes()

    def test_a_retrieve_inflates_only_the_blocks_it_reads(self, tmp_path, monkeypatch):
        # two_step reads the text of each first hop; the first block is
        # read too, as every later block's dictionary
        rng = random.Random(37)
        corpus, vocab = random_corpus(rng, 300)
        path = tmp_path / "index.hopidx"
        monkeypatch.setattr(hopkit.index, "TEXT_BLOCK", 8)
        write_snapshot(build_index(corpus), path)
        first_hops = []

        def recording(index, query, *args, **kwargs):
            hits = search(index, query, *args, **kwargs)
            if not first_hops:
                first_hops.append([hit.sentence_id for hit in hits])
            return hits

        monkeypatch.setattr(hopkit.retrieval, "search", recording)
        loaded = load_snapshot(path)
        texts = loaded.corpus.texts
        assert not texts._blocks
        two_step(loaded, *random_query(rng, vocab))
        read = {0} | {sid // 8 for sid in first_hops[0]}
        assert set(texts._blocks) == read
        assert len(read) < 300 // 8

    def test_concurrent_first_reads_equal_build(self, tmp_path, monkeypatch):
        # threads fill the same text blocks, terms, max impacts and text map
        # at once; each fill stores what any reader would compute, so every
        # read agrees with the build
        corpus, _ = random_corpus(random.Random(41), 200)
        built = build_index(corpus)
        path = tmp_path / "index.hopidx"
        monkeypatch.setattr(hopkit.index, "TEXT_BLOCK", 3)
        write_snapshot(built, path)
        loaded = load_snapshot(path)
        terms = list(built.df)
        failures = []

        def reader(seed: int) -> None:
            rng = random.Random(seed)
            try:
                for sid in rng.sample(range(len(corpus)), len(corpus)):
                    assert loaded.corpus[sid] == corpus[sid]
                    term = rng.choice(terms)
                    assert list(loaded.postings[term]) == list(built.postings[term])
                    assert loaded.max_impact(term) == built.max_impact(term)
                    assert loaded.bitset(term) == built.bitset(term)
                assert loaded.corpus.id_of_text(corpus[seed]) == seed
            except Exception as exc:  # handed to the main thread
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=reader, args=(seed,)) for seed in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []

    def test_loaded_texts_take_negative_ids_and_refuse_out_of_range_ones(self, tmp_path):
        # an id out of range is the caller's IndexError, not a bad snapshot
        corpus, _ = random_corpus(random.Random(47), 20)
        path = tmp_path / "index.hopidx"
        write_snapshot(build_index(corpus), path)
        loaded = load_snapshot(path).corpus
        n_docs = len(corpus)
        assert loaded[-1] == corpus[n_docs - 1]
        for sid in (n_docs, -n_docs - 1):
            with pytest.raises(IndexError):
                loaded[sid]

    def test_a_text_maps_to_the_id_its_postings_hold(self, tmp_path):
        # a loaded corpus's text map and its index's term dicts share one
        # int per doc id; ids past 256 are not CPython's cached small ints
        corpus, _ = random_corpus(random.Random(43), 300)
        path = tmp_path / "index.hopidx"
        write_snapshot(build_index(corpus), path)
        loaded = load_snapshot(path)
        for sid in (0, 257, len(corpus) - 1):
            term = next(iter(hopkit.corpus.tokenize_normalize(corpus[sid])))
            doc_id = loaded.corpus.id_of_text(corpus[sid])
            held = next(key for key in loaded.postings[term].mapping if key == sid)
            assert doc_id is held

    def test_postings_and_texts_answer_no_partial_mapping(self, tmp_path):
        # no mapping method answers from the terms or blocks read so far
        path = tmp_path / "index.hopidx"
        built = build_index(toy_corpus())
        write_snapshot(built, path)
        loaded = load_snapshot(path)
        for index in (built, loaded):
            list(index.postings["wind"])
            with pytest.raises(AttributeError):
                index.postings.get("wind")
            with pytest.raises(AttributeError):
                index.postings.items()
            assert index.postings != {"wind": index.postings["wind"]}
        assert loaded.corpus[0] == "wind turbine spins fast."
        assert loaded.corpus.texts != ["wind turbine spins fast."]
        assert loaded.corpus.texts != built.corpus.texts

    @pytest.mark.parametrize("kind, message", [
        ("doc id out of range", "doc id out of range"),
        ("a zero first gap", "doc id out of range in the postings of 'wind'"),
        ("repeated doc id", "repeated doc id in the postings of 'wind'"),
        ("tf below 1", "term frequencies disagree"),
        ("tfs and lengths disagree", "term frequencies disagree"),
        ("offsets not increasing", "offsets not strictly increasing"),
        ("a term with no postings", "offsets not strictly increasing"),
        ("fewer terms than the table", "offsets disagree with the tokenizer table"),
        ("more postings than stored", "section lengths disagree"),
        ("more sentences than stored", "section lengths disagree"),
        ("sentences past the end of the body", "section lengths disagree"),
        ("a string past the last", "section lengths disagree"),
        ("bad id width", "width"),
        ("text blocks of 0 sentences", "text blocks of 0 sentences"),
        ("a text block of no bytes", "text block offsets not strictly increasing from 0"),
        ("text blocks from byte 1", "text block offsets not strictly increasing from 0"),
    ])
    def test_crafted_body_with_valid_checksum(self, tmp_path, kind, message):
        # toy_corpus: "wind" is in sentences 0 and 1, "power" twice in 1
        path = tmp_path / "index.hopidx"
        write_snapshot(build_index(toy_corpus()), path)
        parts = SnapshotParts(path.read_bytes())
        terms = sorted(build_index(toy_corpus()).df)
        wind = parts.offsets[terms.index("wind")]
        deflated = ends = None
        if kind == "doc id out of range":
            # the gaps sum to the last id + 1: raise them to n_docs + 1
            parts.gaps[wind + 1] = parts.header[0] + 1 - parts.gaps[wind]
        elif kind == "a zero first gap":
            parts.gaps[wind] = 0  # a first id of -1
        elif kind == "repeated doc id":
            parts.gaps[wind + 1] = 0
        elif kind == "tf below 1":
            parts.tfs[wind], parts.tfs[wind + 1] = 0, parts.tfs[wind + 1] + 1
        elif kind == "tfs and lengths disagree":
            parts.doc_len[0] += 1
        elif kind == "offsets not increasing":
            parts.offsets[1], parts.offsets[2] = parts.offsets[2], parts.offsets[1]
        elif kind == "a term with no postings":
            parts.offsets[1] = parts.offsets[0]
        elif kind == "fewer terms than the table":
            parts.header[1] -= 1
            parts.offsets.pop(-2)
        elif kind == "more postings than stored":
            parts.header[2] += 1
        elif kind == "more sentences than stored":
            parts.header[0] += 1
        elif kind == "sentences past the end of the body":
            # two more bytes, so the sentence lengths would end mid-item
            parts.header[0] = 1 << 31
            parts.strings.append(b"x")
        elif kind == "a string past the last":
            parts.strings.append(b"wind")
        elif kind == "bad id width":
            parts.header[4] = 3
        elif kind == "text blocks of 0 sentences":
            parts.header[6] = 0
        elif kind == "a text block of no bytes":
            deflated = [b"", *parts.deflated()[1:]]
        else:
            deflated = parts.deflated()
            ends = list(itertools.accumulate(map(len, deflated), initial=1))
            deflated[0] = b"\x00" + deflated[0]
        path.write_bytes(parts.sealed(deflated, ends))
        with pytest.raises(SnapshotError, match=message):
            load_snapshot(path)

