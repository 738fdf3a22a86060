import hashlib
import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hopkit.corpus
from hopkit.corpus import Corpus
from hopkit.errors import SnapshotError
from hopkit.index import (
    MAGIC,
    NEGATION_TOKENS,
    bm25_term_score,
    build_index,
    load_snapshot,
    search,
    write_snapshot,
)

from conftest import query_words, random_corpus, random_query, small_corpora
from oracles import naive_search


def toy_corpus():
    return Corpus.from_texts(
        [
            "wind turbine spins fast.",
            "wind power and solar power together.",
            "solar panel output rises.",
        ]
    )


class TestBuild:
    def test_toy_postings(self):
        index = build_index(toy_corpus())
        assert index.n_docs == 3
        assert index.postings["wind"] == [(0, 1), (1, 1)]
        assert index.postings["power"] == [(1, 2)]
        assert index.postings["solar"] == [(1, 1), (2, 1)]
        assert index.doc_len == [4, 5, 4]
        assert index.avg_len == pytest.approx(13 / 3)

    def test_posting_lists_strictly_increasing(self):
        rng = random.Random(7)
        corpus, _ = random_corpus(rng, 120)
        index = build_index(corpus)
        for plist in index.postings.values():
            ids = [doc_id for doc_id, _ in plist]
            assert ids == sorted(ids)
            assert len(ids) == len(set(ids))
            assert all(doc_id < index.n_docs for doc_id in ids)

    def test_doc_len_equals_posting_tf_sums(self):
        rng = random.Random(11)
        corpus, _ = random_corpus(rng, 80)
        index = build_index(corpus)
        totals = [0] * index.n_docs
        for plist in index.postings.values():
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
        texts = [mini_index.corpus[h.sentence_id].text for h in hits]
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
        top_n=st.none() | st.integers(1, 40),
        negate=st.booleans(),
    )
    @settings(max_examples=400, deadline=None)
    def test_property_equals_naive_scan_exactly(self, corpus, query, sides, top_n, negate):
        # sides range over empty, disjoint-from-query and overlapping sets;
        # top_n over unbounded, 1, and more than the candidates
        index = build_index(corpus)
        got = search(index, Counter(query), top_n, must_contain_any=sides,
                     negation_filter=NEGATION_TOKENS if negate else None)
        want = naive_search(corpus, query, None, must_contain_any=sides)
        if negate:
            want = [(sid, score) for sid, score in want
                    if not corpus[sid].text.endswith(" not.")]
        if top_n is not None:
            want = want[:top_n]
        assert [(h.sentence_id, h.score) for h in got] == want

    def test_scores_are_pure_in_declared_statistics(self):
        # rebuilding over a superset corpus changes only (N, avg_len, df);
        # with those pinned, per-term contributions are identical
        corpus = toy_corpus()
        index = build_index(corpus)
        hits = search(index, Counter({"wind": 1}), 10)
        for hit in hits:
            tf = dict(index.postings["wind"])[hit.sentence_id]
            recomputed = bm25_term_score(
                tf, index.idf("wind"), index.doc_len[hit.sentence_id], index.avg_len
            )
            assert recomputed == hit.score

    def test_rebuild_with_disjoint_sentence_keeps_per_doc_statistics(self):
        # scores depend on the corpus only through (tf, df, dl, N, avg_len):
        # growing the corpus with disjoint vocabulary leaves the original
        # docs' tf/df/dl untouched, and rescoring them with the original
        # N and avg_len pinned reproduces the original scores exactly
        corpus = toy_corpus()
        small = build_index(corpus)
        grown = build_index(
            Corpus.from_texts([s.text for s in corpus.sentences] + ["quartz vein glitters."])
        )
        for term in ("wind", "solar", "power"):
            assert grown.postings[term] == small.postings[term]
        assert grown.doc_len[: small.n_docs] == small.doc_len
        for hit in search(small, Counter({"wind": 1, "power": 1}), 10):
            repinned = sum(
                bm25_term_score(
                    dict(grown.postings[t])[hit.sentence_id],
                    small.idf(t),
                    grown.doc_len[hit.sentence_id],
                    small.avg_len,
                )
                for t in ("power", "wind")
                if hit.sentence_id in dict(grown.postings[t])
            )
            assert repinned == pytest.approx(hit.score, abs=1e-12)

    def test_negation_hook_drops_surface_matches(self):
        corpus = Corpus.from_texts(
            ["wind does not turn here.", "wind turns the turbine."]
        )
        index = build_index(corpus)
        plain = search(index, Counter({"wind": 1}), 10)
        assert len(plain) == 2
        filtered = search(index, Counter({"wind": 1}), 10, negation_filter=NEGATION_TOKENS)
        assert [h.sentence_id for h in filtered] == [1]


class TestSnapshot:
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
        assert loaded.postings == index.postings
        assert [s.text for s in loaded.corpus.sentences] == [
            s.text for s in corpus.sentences
        ]
        q, a = random_query(rng, vocab)
        query = Counter(q.split() + a.split())
        assert search(loaded, query, 10) == search(index, query, 10)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.hopidx"
        path.write_bytes(b"NOTANIDX" + b"\x00" * 40)
        with pytest.raises(SnapshotError, match="magic"):
            load_snapshot(path)

    def test_checksum_validation(self, tmp_path):
        index = build_index(toy_corpus())
        path = tmp_path / "index.hopidx"
        write_snapshot(index, path)
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(SnapshotError, match="checksum"):
            load_snapshot(path)

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
        body = path.read_bytes()[len(MAGIC) + 32 :]
        self._rewrite_body(path, body.replace(b"turbine", b"turb\xffne"))
        with pytest.raises(SnapshotError, match="malformed"):
            load_snapshot(path)

    def test_tokenizer_mismatch_rejected(self, tmp_path, monkeypatch):
        path = tmp_path / "index.hopidx"
        write_snapshot(build_index(toy_corpus()), path)
        monkeypatch.setattr(hopkit.corpus, "STOPWORDS", hopkit.corpus.STOPWORDS | {"wind"})
        with pytest.raises(SnapshotError, match="tokenizer"):
            load_snapshot(path)
