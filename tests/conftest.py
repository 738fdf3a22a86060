from __future__ import annotations

import hashlib
import itertools
import json
import random
import struct
import sys
import zlib
from array import array
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))

import hopkit.corpus
from hopkit.corpus import STOPWORDS, Corpus, load_corpus, tokenize_normalize
from hopkit.index import MAGIC, build_index
from hopkit.porter import stem
from hopkit.qa import Choice, MCQuestion, question_to_json
from hopkit.splitter import SeedFact
from oracles import reference_tokenize

FIG1_QUESTION = "Differential heating of air can be harnessed for what?"
FIG1_ANSWER = "electricity production"
FIG1_FS = "Differential heating of air produces wind."
FIG1_FL = "Wind is used for producing electricity."
FIG1_FC = "Differential heating of air can be harnessed for electricity production."


class SnapshotParts:
    """A HOPIDX5 snapshot cut into its sections, so a test can change any of
    them and seal the snapshot again.  ``header`` is [n_docs, n_terms,
    n_postings, n_tokens, id width, tf width, sentences per text block];
    the arrays are doc_len, offsets, gaps (each term's first doc id + 1,
    then each id less the one before) and tfs; ``strings`` holds the raw
    bytes of each "\\n"-ended string of the zlib stream, and ``blocks`` the
    inflated bytes of each text block: its sentences, each ended by "\\n".
    Sealing compresses the blocks again and stores their offsets."""

    HEADER = struct.Struct("<7I")
    TYPECODES = {1: "B", 2: "H", 4: "I"}

    def __init__(self, raw: bytes):
        unpacker = zlib.decompressobj()
        body = unpacker.decompress(raw[len(MAGIC) + 32 :])
        self.header = list(self.HEADER.unpack_from(body))
        n_docs, n_terms, n_postings, _, id_width, tf_width, size = self.header
        at = self.HEADER.size
        sections = []
        for width, count in ((4, n_docs), (4, n_terms + 1), (id_width, n_postings),
                             (tf_width, n_postings), (4, -(-n_docs // size) + 1)):
            section = array(self.TYPECODES[width], body[at : at + width * count])
            if sys.byteorder == "big":
                section.byteswap()
            sections.append(section)
            at += width * count
        *self.arrays, ends = sections
        self.doc_len, self.offsets, self.gaps, self.tfs = self.arrays
        assert body[-1:] == b"\n"
        self.strings = body[at:-1].split(b"\n")
        region = unpacker.unused_data
        assert ends[-1] == len(region)
        self.blocks = []
        for start, end in zip(ends, ends[1:]):
            unpacker = (zlib.decompressobj(zdict=self.blocks[0][-(1 << 15) :]) if self.blocks
                        else zlib.decompressobj())
            self.blocks.append(unpacker.decompress(region[start:end]))

    def deflated(self) -> list[bytes]:
        """Each block compressed as a snapshot stores it: every block after
        the first with the first's text as its preset dictionary."""
        deflated = []
        for at, block in enumerate(self.blocks):
            packer = (zlib.compressobj(1, zdict=self.blocks[0][-(1 << 15) :]) if at
                      else zlib.compressobj(1))
            deflated.append(packer.compress(block) + packer.flush())
        return deflated

    def sealed(self, deflated: list[bytes] | None = None, ends=None) -> bytes:
        """The snapshot file: the magic, the sha256 of the rest, the zlib
        stream, then the compressed blocks (by default, deflated()) at the
        given offsets (by default, one after the other from 0)."""
        if deflated is None:
            deflated = self.deflated()
        if ends is None:
            ends = itertools.accumulate(map(len, deflated), initial=0)
        arrays = [array(a.typecode, a) for a in (*self.arrays, array("I", ends))]
        if sys.byteorder == "big":
            for section in arrays:
                section.byteswap()
        body = zlib.compress(self.HEADER.pack(*self.header)
                             + b"".join(a.tobytes() for a in arrays)
                             + b"".join(s + b"\n" for s in self.strings), 1)
        body += b"".join(deflated)
        return MAGIC + hashlib.sha256(body).digest() + body


def whole_postings(index) -> dict[str, list[tuple[int, int]]]:
    """Every term's (doc id, tf) pairs, read through index.postings[term]
    one term at a time in df (sorted term) order."""
    return {term: list(index.postings[term]) for term in index.df}


def reference_packing(texts) -> list[list[int]]:
    """[offsets, gaps, tfs, doc_len] of the sentences texts, in id order, as
    a snapshot stores them, by a plain loop of reference_tokenize: the terms
    sorted, each term's postings by ascending id, its first gap the first
    id + 1 and each later one the id less the one before."""
    bags = [reference_tokenize(text) for text in texts]
    postings: dict[str, list[tuple[int, int]]] = {}
    for doc_id, bag in enumerate(bags):
        for term, tf in bag.items():
            postings.setdefault(term, []).append((doc_id, tf))
    offsets, gaps, tfs = [0], [], []
    for term in sorted(postings):
        previous = -1
        for doc_id, tf in postings[term]:
            gaps.append(doc_id - previous)
            tfs.append(tf)
            previous = doc_id
        offsets.append(len(gaps))
    return [offsets, gaps, tfs, [sum(bag.values()) for bag in bags]]


@pytest.fixture
def stem_calls(monkeypatch) -> list[str]:
    """The words stemmed from here on: hopkit.corpus.stem is rebound to a
    recording wrapper, so the token memo starts empty around it."""
    calls: list[str] = []

    def recording(word: str) -> str:
        calls.append(word)
        return stem(word)

    monkeypatch.setattr(hopkit.corpus, "stem", recording)
    return calls


@pytest.fixture(scope="session")
def mini_corpus() -> Corpus:
    path = resources.files("hopkit.data").joinpath("mini_corpus.txt")
    return load_corpus(path)


@pytest.fixture(scope="session")
def mini_index(mini_corpus):
    return build_index(mini_corpus)


def make_question(
    qid: str,
    stem: str,
    answer: str,
    distractors=(),
    fact1: str | None = None,
    fact2: str | None = None,
    combined: str | None = None,
    answer_pos: int = 0,
) -> MCQuestion:
    texts = list(distractors)
    texts.insert(answer_pos, answer)
    choices = [Choice(chr(ord("A") + i), t) for i, t in enumerate(texts)]
    return MCQuestion(
        id=qid,
        stem=stem,
        choices=choices,
        answer_key=chr(ord("A") + answer_pos),
        fact1=fact1,
        fact2=fact2,
        combined_fact=combined,
    )


def save_questions(questions, path) -> None:
    """Write questions as a JSON-lines dataset, one question_to_json row each."""
    with open(path, "w", encoding="utf-8") as handle:
        for question in questions:
            handle.write(json.dumps(question_to_json(question)) + "\n")


def unsourced(texts) -> list[tuple[str, str]]:
    """(text, "") distractor candidate pairs, for candidates with no source question."""
    return [(text, "") for text in texts]


def seed_facts(rows) -> list[SeedFact]:
    """SeedFacts from (id, question_count, text-or-bag) rows; a text is tokenized."""
    return [
        SeedFact(str(fid), int(count),
                 tokenize_normalize(tokens) if isinstance(tokens, str) else tokens)
        for fid, count, tokens in rows
    ]


_CONSONANTS = "bcdfgklmnprstvz"
_VOWELS = "aeiou"


def synth_word(rng: random.Random, syllables: int = 2) -> str:
    while True:
        word = "".join(
            rng.choice(_CONSONANTS) + rng.choice(_VOWELS) for _ in range(syllables)
        ) + rng.choice(_CONSONANTS)
        if word not in STOPWORDS:
            return word


def synth_vocab(rng: random.Random, size: int) -> list[str]:
    vocab: set[str] = set()
    while len(vocab) < size:
        vocab.add(synth_word(rng, rng.choice((2, 2, 3))))
    return sorted(vocab)


def random_corpus(
    rng: random.Random, n_sentences: int, vocab_size: int = 150
) -> tuple[Corpus, list[str]]:
    """Synthetic corpus with a skewed term distribution; texts bypass the
    cleaning filter so engine-level tests control exactly what is indexed."""
    vocab = synth_vocab(rng, vocab_size)
    weights = [1.0 / (rank + 1) for rank in range(len(vocab))]
    texts = []
    while len(texts) < n_sentences:
        length = rng.randint(4, 12)
        words = rng.choices(vocab, weights=weights, k=length)
        texts.append(" ".join(words) + ".")
    return Corpus.from_texts(texts), vocab


def random_query(rng: random.Random, vocab: list[str]) -> tuple[str, str]:
    q = " ".join(rng.choices(vocab, k=rng.randint(2, 6)))
    a = " ".join(rng.choices(vocab, k=rng.randint(1, 3)))
    return q, a


# Words that are their own normalized stem, so hypothesis-built texts and
# queries speak the index vocabulary directly; "absent" is in no corpus.
STEM_WORDS = ("wind", "heat", "air", "rain", "cloud", "rock", "sand", "tree", "soil")
query_words = st.sampled_from(STEM_WORDS + ("absent",))


@st.composite
def small_corpora(draw, max_sentences: int = 30, min_sentences: int = 0) -> Corpus:
    """Corpus over STEM_WORDS with heavy term overlap (so many score ties);
    sentences drawn with the flag set end in the negation word "not"."""
    rows = draw(
        st.lists(
            st.tuples(st.lists(st.sampled_from(STEM_WORDS), min_size=1, max_size=8), st.booleans()),
            min_size=min_sentences,
            max_size=max_sentences,
        )
    )
    return Corpus.from_texts(
        " ".join(words) + (" not." if negated else ".") for words, negated in rows
    )


def random_split_instance(rng: random.Random, n_facts: int):
    """Split problem with question counts built by partitioning fold masses,
    so at least one feasible assignment exists by construction."""
    from collections import Counter as _Counter

    from hopkit.splitter import SeedFact, SplitProblem

    targets = (0.78, 0.11, 0.11)
    total = rng.randint(60, 140)
    masses = [round(total * t) for t in targets]
    masses[0] = total - masses[1] - masses[2]
    # distribute the fact count over folds, one fact minimum each
    n_per_fold = [1, 1, 1]
    for _ in range(n_facts - 3):
        n_per_fold[rng.randrange(3)] += 1
    counts: list[int] = []
    for fold in range(3):
        mass, parts = masses[fold], n_per_fold[fold]
        if parts > mass:  # can't split into that many positive integers
            parts = mass
            n_per_fold[fold] = parts
        cuts = sorted(rng.sample(range(1, mass), parts - 1)) if parts > 1 else []
        edges = [0] + cuts + [mass]
        counts.extend(edges[i + 1] - edges[i] for i in range(parts))
    rng.shuffle(counts)
    facts = [SeedFact(f"f{i:02d}", count, _Counter()) for i, count in enumerate(counts)]
    sim = {}
    for i in range(len(facts)):
        for k in range(i + 1, len(facts)):
            if rng.random() < 0.3:
                sim[(i, k)] = rng.uniform(10.0, 60.0)
    return SplitProblem(facts, sim)


def planted_chain_dataset(
    rng: random.Random,
    n_chains: int,
    n_noise: int,
    touch_fraction: float = 0.5,
    noise_vocab_size: int = 400,
):
    """Corpus with 2-hop chains planted among noise sentences.

    Each chain holds a first fact reachable from the question tokens and a
    second fact that shares nothing with the question: only the bridge
    token (and the answer concept) connect it.  In `touch_fraction` of the
    chains the first fact also mentions an answer token, so single-step
    retrieval can at least find that one.
    """
    noise_vocab = synth_vocab(rng, noise_vocab_size)
    used = set(noise_vocab) | set(STOPWORDS)

    def fresh() -> str:
        while True:
            word = synth_word(rng, rng.choice((2, 3)))
            if word not in used:
                used.add(word)
                return word

    texts: list[str] = []
    questions = []
    n_touch = round(n_chains * touch_fraction)
    for i in range(n_chains):
        a, b, w, c, d = (fresh() for _ in range(5))
        if i < n_touch:
            first = f"The {a} {b} is {w} with {d}."
        else:
            first = f"The {a} {b} is {w}."
        second = f"The {w} is the {c}."
        texts.extend([first, second])
        questions.append(
            make_question(
                f"q{i:04d}",
                f"What is the {a} {b}?",
                f"{c} {d}",
                distractors=[f"{fresh()} {fresh()}"],
                fact1=first,
                fact2=second,
            )
        )
    weights = [1.0 / (rank + 1) for rank in range(len(noise_vocab))]
    seen = set(texts)
    while len(texts) < 2 * n_chains + n_noise:
        length = rng.randint(4, 12)
        noise = " ".join(rng.choices(noise_vocab, weights=weights, k=length)) + "."
        if noise not in seen:
            seen.add(noise)
            texts.append(noise)
    rng.shuffle(texts)
    return Corpus.from_texts(texts), questions
