import ast
import codecs
import hashlib
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hopkit.corpus
from hopkit.corpus import (
    STOPWORDS,
    Corpus,
    clean_filter,
    load_corpus,
    stem_set,
    tokenize_normalize,
)
from hopkit.index import build_index
from hopkit.porter import stem

import oracles
from conftest import whole_postings
from oracles import reference_clean_filter, reference_normal_form, reference_tokenize


class TestTokenizeNormalize:
    def test_fig1_seed_fact(self):
        assert tokenize_normalize("Differential heating of air produces wind.") == Counter(
            {"differenti": 1, "heat": 1, "air": 1, "produc": 1, "wind": 1}
        )

    def test_empty(self):
        assert tokenize_normalize("") == Counter()

    def test_all_stopwords(self):
        assert tokenize_normalize("The the THE") == Counter()

    def test_counts_preserved(self):
        assert tokenize_normalize("wind wind Wind") == Counter({"wind": 3})

    def test_stopword_list_is_frozen(self):
        # golden guard: pinned size and required members
        assert len(STOPWORDS) == 179
        for word in ("of", "the", "what", "can", "is", "are", "for", "be",
                     "and", "that", "a", "an", "to", "not", "cannot"):
            assert word in STOPWORDS

    @given(st.text(max_size=200))
    @settings(max_examples=200)
    def test_no_stopword_keys_and_positive_counts(self, text):
        bag = tokenize_normalize(text)
        assert all(count > 0 for count in bag.values())
        assert not set(bag) & STOPWORDS

    @given(st.text(max_size=200))
    @settings(max_examples=100)
    def test_set_and_multiset_views_agree(self, text):
        bag = tokenize_normalize(text)
        assert set(bag.keys()) == set(bag)
        assert sum(bag.values()) >= len(bag)


class TestCleanFilter:
    def test_markup(self):
        assert clean_filter("<div>Click here</div>").reason == "markup"

    def test_accepts_plain_fact(self):
        assert clean_filter("Wind is used for producing electricity.").accepted

    def test_number_run(self):
        assert clean_filter("12 34 56 78 90").reason == "number_run"

    def test_three_numbers_ok(self):
        verdict = clean_filter("The score was 12 34 56 overall.")
        assert verdict.accepted

    def test_email(self):
        assert clean_filter("Contact us at someone@example.com today please.").reason == "email"

    def test_url(self):
        assert clean_filter("See https://example.com for all the details.").reason == "url"

    def test_alpha_ratio(self):
        assert clean_filter("@@@@ #### $$$$ %%%% wind").reason == "alpha_ratio"

    def test_token_count_low(self):
        assert clean_filter("Too short.").reason == "token_count"

    def test_token_count_high(self):
        assert clean_filter("word " * 61).reason == "token_count"

    def test_first_failed_rule_named(self):
        # markup precedes the (also failing) token-count rule
        assert clean_filter("<b>hi</b>").reason == "markup"

    def test_braces_adjacent_to_text(self):
        assert clean_filter("body {color: red; font-size: 12px}").reason == "markup"

    def test_comparison_with_spaces_is_not_markup(self):
        assert clean_filter("Three is < four in every counting system.").accepted

    @given(st.text(max_size=120))
    @settings(max_examples=200)
    def test_pure_function_of_candidate(self, text):
        assert clean_filter(text) == clean_filter(text)


class TestLoadCorpus(object):
    def test_dedup_and_ids(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text(
            "Wind turns the turbine blades.\n"
            "Solar panels capture the light.\n"
            "Wind turns the turbine blades.\n"
            "Rivers carve deep stone canyons.\n"
            "Plants absorb water through roots.\n"
        )
        corpus = load_corpus(path)
        assert corpus.texts == [
            "Wind turns the turbine blades.",
            "Solar panels capture the light.",
            "Rivers carve deep stone canyons.",
            "Plants absorb water through roots.",
        ]
        assert [corpus.id_of_text(text) for text in corpus.texts] == [0, 1, 2, 3]
        assert corpus.rejections == Counter({"duplicate": 1})

    def test_markup_line_rejected(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("Wind turns the turbine blades.\n<div>menu</div>\n")
        corpus = load_corpus(path)
        assert len(corpus) == 1
        assert corpus.rejections == Counter({"markup": 1})

    def test_empty_file(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("")
        corpus = load_corpus(path)
        assert len(corpus) == 0

    def test_malformed_utf8_names_line(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_bytes(b"Wind turns the turbine blades.\n\xff\xfe broken\n")
        with pytest.raises(ValueError, match="line 2"):
            load_corpus(path)

    def test_leading_byte_order_mark_is_dropped(self, tmp_path):
        # the mark is not part of sentence 0, so a fact equal to it resolves;
        # the digest and line numbers are still the file's
        path = tmp_path / "c.txt"
        raw = (codecs.BOM_UTF8 + b"Differential heating of air produces wind.\n"
               b"Rivers carve deep canyons.\n")
        path.write_bytes(raw)
        corpus = load_corpus(path)
        assert corpus.texts == ["Differential heating of air produces wind.",
                                "Rivers carve deep canyons."]
        assert corpus.id_of_text("Differential heating of air produces wind.") == 0
        assert corpus.source_digest == hashlib.sha256(raw).hexdigest()
        path.write_bytes(codecs.BOM_UTF8 + b"Wind turns the turbine blades.\n\xff broken\n")
        with pytest.raises(ValueError, match="line 2"):
            load_corpus(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_corpus(tmp_path / "nope.txt")

    def test_deterministic_digest_and_content(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("Wind turns the turbine blades.\nRivers carve deep canyons.\n")
        first = load_corpus(path)
        second = load_corpus(path)
        assert first.source_digest == second.source_digest
        assert first.texts == second.texts

    def test_id_of_text_normalizes_whitespace(self):
        corpus = Corpus.from_texts(["Wind  turns the   turbine."])
        assert corpus.id_of_text("Wind turns the turbine.") == 0
        assert corpus.id_of_text("missing sentence") is None

    def test_rejection_report_format(self, tmp_path):
        from hopkit.corpus import write_rejection_report

        src = tmp_path / "c.txt"
        src.write_text(
            "Wind turns the turbine blades.\n"
            "<div>menu</div>\n"
            "<b>nav</b>\n"
            "12 34 56 78\n"
        )
        corpus = load_corpus(src)
        out = tmp_path / "rejections.tsv"
        write_rejection_report(corpus, out)
        assert out.read_text() == "markup\t2\nnumber_run\t1\n"


# Pieces that exercise every ingest shortcut: the markup, email and URL
# trigger characters, www in both cases, ASCII and non-ASCII digits (and
# "²", a digit that is not decimal), "ſ" (which matches "s" when case is
# ignored), Unicode whitespace, control characters, stopwords and words
# whose stems collide or fall onto a stopword.
INGEST_PIECES = (
    "<", ">", "{", "}", "@", ":", "/", ".", "://", "http://", "https://x.y", "www.",
    "WWW.", "wWw.", "www", "WWW", "a@b.co", "<b>", "{x}", "x<", "12", "3.5", "2019",
    "10%", "٣", "٤٥", "５", "²", "ſ", "httpſ://z", "İ", "K", "ß", "é", "e\u0301",
    "_", "-", ",", "\x85", "\xa0", "\u1680", "\u2002", "\u2003", "\u2028",
    "\u3000", "\x7f", "\x1c", "\x1f", "\t", "\n", "\r", " ", "  ", "the", "The",
    "doing", "wind", "winds", "Wind", "heat", "heating", "running", "runs", "produces",
    "differential", "air", "generalization",
) + tuple(chr(c) for c in range(0x20))

ingest_texts = st.lists(
    st.sampled_from(INGEST_PIECES) | st.text(max_size=3), max_size=40
).map("".join)


class TestIngestMatchesOracles:
    """The memoised tokenizer, prechecked filter and normal-form shortcut
    give exactly what the per-token and per-character references give."""

    @given(ingest_texts)
    @settings(max_examples=400, deadline=None)
    def test_tokenize_keys_counts_and_order(self, text):
        assert list(tokenize_normalize(text).items()) == list(reference_tokenize(text).items())

    @given(ingest_texts)
    @settings(max_examples=400, deadline=None)
    def test_memoised_stem_set(self, text):
        want = frozenset(reference_tokenize(text))
        assert stem_set(text) == want
        assert stem_set(text) == want  # second call is served by the set memo

    # Each ASCII whitespace character, five times between letters: counted
    # as a letter or as neither, it would turn the alpha ratio's verdict.
    @example("ab\t\t\t\t\tcd ef")
    @example("ab\n\n\n\n\ncd ef")
    @example("ab\x0b\x0b\x0b\x0b\x0bcd ef")
    @example("ab\x0c\x0c\x0c\x0c\x0ccd ef")
    @example("ab\r\r\r\r\rcd ef")
    @example("ab\x1c\x1c\x1c\x1c\x1ccd ef")
    @example("ab\x1d\x1d\x1d\x1d\x1dcd ef")
    @example("ab\x1e\x1e\x1e\x1e\x1ecd ef")
    @example("ab\x1f\x1f\x1f\x1f\x1fcd ef")
    @example("ab     cd ef")
    @given(ingest_texts)
    @settings(max_examples=400, deadline=None)
    def test_clean_filter(self, text):
        assert clean_filter(text) == reference_clean_filter(text)

    @given(st.lists(st.sampled_from(INGEST_PIECES), min_size=3, max_size=12).map(" ".join))
    @settings(max_examples=300, deadline=None)
    def test_clean_filter_on_space_separated_pieces(self, text):
        assert clean_filter(text) == reference_clean_filter(text)

    @given(st.lists(st.sampled_from(
        ("12", "3.5", "10%", "٣", "٤٥", "٣.٤", "５", "²", "-", "/", "wind", "heat")
    ), min_size=3, max_size=10).map(" ".join))
    @settings(max_examples=300, deadline=None)
    def test_clean_filter_on_number_runs(self, text):
        assert clean_filter(text) == reference_clean_filter(text)

    @given(st.lists(ingest_texts, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_from_texts(self, texts):
        corpus = Corpus.from_texts(texts)
        expected = list(dict.fromkeys(t for t in map(reference_normal_form, texts) if t))
        assert corpus.texts == expected
        assert [corpus[sid] for sid in range(len(corpus))] == expected
        # the text -> id map the corpus was handed is the one it would build
        assert corpus._by_text == {
            reference_normal_form(text): sid for sid, text in enumerate(corpus.texts)
        }

    @given(st.lists(ingest_texts, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_postings_match_reference_tokenizer(self, texts):
        # the postings hold what a plain loop of the reference tokenizer
        # over the texts in id order gives: terms in sorted order, as a
        # snapshot stores them, each term's (id, tf) pairs in id order, and
        # every document's length
        corpus = Corpus.from_texts(texts)
        postings: dict[str, list[tuple[int, int]]] = {}
        doc_len = []
        for sid, text in enumerate(corpus.texts):
            bag = reference_tokenize(text)
            doc_len.append(sum(bag.values()))
            for term, tf in bag.items():
                postings.setdefault(term, []).append((sid, tf))
        index = build_index(corpus)
        assert list(whole_postings(index).items()) == sorted(postings.items())
        assert index.doc_len == doc_len

    @given(st.lists(ingest_texts | st.sampled_from((
        "Wind turns the turbine blades.", "Wind  turns the turbine blades. ",
        "The score was 12 34 56 78 today.", "Mail a@b.co for the details now.",
    )), max_size=8))
    @settings(max_examples=150, deadline=None)
    def test_load_corpus(self, tmp_path_factory, lines):
        path = tmp_path_factory.mktemp("ingest") / "c.txt"
        path.write_text("\n".join(lines), "utf-8", newline="")
        texts: list[str] = []
        rejections: Counter = Counter()
        for line in "\n".join(lines).split("\n"):
            text = reference_normal_form(line)
            if not text:
                continue
            verdict = reference_clean_filter(text)
            if not verdict.accepted:
                rejections[verdict.reason] += 1
            elif text in texts:
                rejections["duplicate"] += 1
            else:
                texts.append(text)
        corpus = load_corpus(path)
        assert corpus.texts == texts
        assert corpus.rejections == rejections
        assert corpus._by_text == {
            reference_normal_form(text): sid for sid, text in enumerate(corpus.texts)
        }

    @given(st.lists(ingest_texts, max_size=8))
    @settings(max_examples=300, deadline=None)
    def test_every_accepted_text_resolves_to_its_own_id(self, texts):
        corpus = Corpus.from_texts(texts)
        for raw in texts:
            alone = Corpus.from_texts([raw])
            if not len(alone):
                continue
            assert alone.id_of_text(raw) == 0
            sid = corpus.id_of_text(raw)
            assert sid is not None and corpus[sid] == alone[0]

    def test_text_with_a_control_character_resolves(self):
        text = "Heat\x1bmelts the ice."
        corpus = Corpus.from_texts(["Wind turns the blades.", text])
        assert corpus.id_of_text(text) == 1
        assert corpus.id_of_text("Heat melts the ice.") == 1

    def test_rebinding_stopwords_takes_effect_after_memoising(self, monkeypatch):
        assert tokenize_normalize("wind") == Counter({"wind": 1})
        assert stem_set("wind heat") == {"wind", "heat"}
        monkeypatch.setattr(hopkit.corpus, "STOPWORDS", STOPWORDS | {"wind"})
        assert tokenize_normalize("wind heat") == Counter({"heat": 1})
        assert stem_set("wind heat") == {"heat"}
        monkeypatch.undo()
        assert tokenize_normalize("wind heat") == Counter({"wind": 1, "heat": 1})
        assert stem_set("wind heat") == {"wind", "heat"}

    @given(ingest_texts)
    @settings(max_examples=200, deadline=None)
    def test_rebinding_the_stemmer_rebuilds_the_set_memo(self, text):
        # the set memo is rebuilt with the token memo, so a text asked
        # under the old stemmer is asked again under the new one
        assert stem_set(text) == frozenset(reference_tokenize(text))

        def reversed_stem(word):
            return stem(word)[::-1]

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(hopkit.corpus, "stem", reversed_stem)
            patch.setattr(oracles, "stem", reversed_stem)
            assert stem_set(text) == frozenset(reference_tokenize(text))
        assert stem_set(text) == frozenset(reference_tokenize(text))

    def test_memo_stays_bounded(self, monkeypatch, stem_calls):
        text = " ".join(f"zork{chr(97 + i)}{chr(97 + j)}" for i in range(5) for j in range(10))
        text += " doing the running"
        assert list(tokenize_normalize(text).items()) == list(reference_tokenize(text).items())
        # the token memo is never cleared: every token stays, each stemmed
        # once, and asking again stems nothing
        assert hopkit.corpus._normal_forms.keys() == set(text.split())
        assert sorted(stem_calls) == sorted(set(text.split()) - STOPWORDS)
        stem_calls.clear()
        assert tokenize_normalize(text) == reference_tokenize(text)
        assert stem_calls == []
        # the set memo is never cleared either: every text asked stays, and
        # asking again neither stems nor tokenizes
        tokenized = []
        tokenize = hopkit.corpus.tokenize_normalize

        def counted_tokenize(asked):
            tokenized.append(asked)
            return tokenize(asked)

        monkeypatch.setattr(hopkit.corpus, "tokenize_normalize", counted_tokenize)
        words = text.split()
        for word in words:
            assert stem_set(word) == frozenset(reference_tokenize(word))
        assert hopkit.corpus._normal_forms.sets.keys() == set(words)
        assert sorted(tokenized) == sorted(words)
        tokenized.clear()
        for word in words:
            assert stem_set(word) == frozenset(reference_tokenize(word))
        assert tokenized == stem_calls == []


def test_corpus_owns_every_memo():
    """No module but corpus memoises: stem_set and the token memo live on
    one object that a rebound STOPWORDS or stemmer rebuilds, which a
    functools cache elsewhere would outlive."""
    src = Path(hopkit.corpus.__file__).parent
    uses = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                names = {alias.name for alias in node.names}
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                names = {node.attr} if node.value.id == "functools" else set()
            else:
                continue
            uses += [f"{path.name}:{node.lineno}: {name}"
                     for name in sorted(names & {"lru_cache", "cache"})]
    assert uses == []
