from __future__ import annotations

import random
import sys
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))

from hopkit.corpus import STOPWORDS, Corpus, load_corpus
from hopkit.index import build_index
from hopkit.qa import Choice, MCQuestion

FIG1_QUESTION = "Differential heating of air can be harnessed for what?"
FIG1_ANSWER = "electricity production"
FIG1_FS = "Differential heating of air produces wind."
FIG1_FL = "Wind is used for producing electricity."
FIG1_FC = "Differential heating of air can be harnessed for electricity production."


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
def small_corpora(draw, max_sentences: int = 30) -> Corpus:
    """Corpus over STEM_WORDS with heavy term overlap (so many score ties);
    sentences drawn with the flag set end in the negation word "not"."""
    rows = draw(
        st.lists(
            st.tuples(st.lists(st.sampled_from(STEM_WORDS), min_size=1, max_size=8), st.booleans()),
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
