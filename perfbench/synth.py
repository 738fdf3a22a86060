"""Seeded input generators for the benchmark workloads.

Each generator returns plain data (sentence lines, question rows in the
8-way JSON-lines format, seed-fact rows) that the benchmark writes to
files; the program under test only ever sees those files.  The same
``random.Random`` seed always gives the same inputs.
"""

from __future__ import annotations

import random

from hopkit.corpus import STOPWORDS
from hopkit.porter import stem

_CONSONANTS = "bcdfgklmnprstvz"
_VOWELS = "aeiou"


def synth_word(rng: random.Random, syllables: int) -> str:
    while True:
        word = "".join(
            rng.choice(_CONSONANTS) + rng.choice(_VOWELS) for _ in range(syllables)
        ) + rng.choice(_CONSONANTS)
        if word not in STOPWORDS:
            return word


class FreshWords:
    """Hands out words never handed out before, no two with the same
    Porter stem and none with the stem of a word in ``taken``, so planted
    facts cannot collide through stemming."""

    def __init__(self, rng: random.Random, taken=()):
        self.rng = rng
        self.used = set(taken) | set(STOPWORDS)
        self.stems = {stem(w) for w in self.used}

    def __call__(self) -> str:
        while True:
            word = synth_word(self.rng, self.rng.choice((2, 3)))
            root = stem(word)
            if word in self.used or root in self.stems or root in STOPWORDS:
                continue
            self.stems.add(root)
            self.used.add(word)
            return word


def zipf_vocab(rng: random.Random, size: int) -> tuple[list[str], list[float]]:
    """A sorted vocabulary and 1/rank weights over it."""
    vocab: set[str] = set()
    while len(vocab) < size:
        vocab.add(synth_word(rng, rng.choice((2, 2, 3))))
    words = sorted(vocab)
    return words, [1.0 / (rank + 1) for rank in range(size)]


def _noise(rng, vocab, weights, seen: set[str], lo: int = 4, hi: int = 12) -> str:
    while True:
        text = " ".join(rng.choices(vocab, weights=weights, k=rng.randint(lo, hi))) + "."
        if text not in seen:
            seen.add(text)
            return text


def question_row(qid: str, stem_text: str, choices: list[str], answer_pos: int,
                 fact1: str, fact2: str, combined: str | None = None) -> dict:
    labels = [chr(ord("A") + i) for i in range(len(choices))]
    row = {
        "id": qid,
        "question": {
            "stem": stem_text,
            "choices": [{"label": lab, "text": text} for lab, text in zip(labels, choices)],
        },
        "answerKey": labels[answer_pos],
        "fact1": fact1,
        "fact2": fact2,
    }
    if combined is not None:
        row["combinedfact"] = combined
    return row


def chain_dataset(rng: random.Random, n_chains: int, n_sentences: int,
                  noise_vocab_size: int = 400, touch_fraction: float = 0.5):
    """Planted 2-hop chains among Zipf noise.

    Each chain's first fact is reachable from the question; its second
    fact shares only the bridge word with the first and only the answer
    with the question, so single-step retrieval cannot find the pair.
    Chain words never share a stem with the noise, so every query stays
    sparse: the few questions a stem collision would tie to a long posting
    list would otherwise swing recall time by seed.
    Returns (corpus lines, question rows, seed-fact rows).
    """
    vocab, weights = zipf_vocab(rng, noise_vocab_size)
    fresh = FreshWords(rng, vocab)
    texts: list[str] = []
    questions, facts = [], []
    n_touch = round(n_chains * touch_fraction)
    for i in range(n_chains):
        a, b, w, c, d = (fresh() for _ in range(5))
        first = f"The {a} {b} is {w} with {d}." if i < n_touch else f"The {a} {b} is {w}."
        second = f"The {w} is the {c}."
        texts += [first, second]
        questions.append(question_row(
            f"q{i:05d}", f"What is the {a} {b}?", [f"{c} {d}", f"{fresh()} {fresh()}"],
            0, first, second))
        facts.append({"id": f"f{i:05d}", "text": first, "questions": 1 + i % 3})
    seen = set(texts)
    while len(texts) < n_sentences:
        texts.append(_noise(rng, vocab, weights, seen))
    rng.shuffle(texts)
    return texts, questions, facts


def dense_dataset(rng: random.Random, n_sentences: int, n_questions: int,
                  noise_vocab_size: int = 400, head: int = 40):
    """Questions built from the head of the noise vocabulary.

    Every question, its answer, and both gold facts use the ``head`` most
    frequent noise words, so each search walks long posting lists.  Both
    gold facts are corpus lines, which makes every question resolvable
    (recall skips retrieval for unresolvable ones).
    """
    vocab, weights = zipf_vocab(rng, noise_vocab_size)
    top, top_w = vocab[:head], weights[:head]
    seen: set[str] = set()
    texts: list[str] = []
    questions, facts = [], []
    for i in range(n_questions):
        words = rng.sample(top, 6)
        q_words, bridge, a_words = words[:3], words[3], words[4:]
        while True:
            fill1 = rng.choices(top, weights=top_w, k=2)
            fill2 = rng.choices(top, weights=top_w, k=2)
            first = f"{q_words[0]} {q_words[1]} {bridge} {fill1[0]} {fill1[1]}."
            second = f"{bridge} {a_words[0]} {fill2[0]} {a_words[1]} {fill2[1]}."
            if first not in seen and second not in seen and first != second:
                break
        seen.update((first, second))
        texts += [first, second]
        distractor = " ".join(rng.sample(top, 2))
        questions.append(question_row(
            f"d{i:05d}", f"What {' '.join(q_words)}?", [" ".join(a_words), distractor],
            0, first, second))
        facts.append({"id": f"f{i:05d}", "text": first, "questions": 1 + i % 3})
    while len(texts) < n_sentences:
        texts.append(_noise(rng, vocab, weights, seen))
    rng.shuffle(texts)
    return texts, questions, facts


def construct_dataset(rng: random.Random, n_facts: int, fold_size: int, n_sentences: int,
                      n_topics: int = 40, topic_size: int = 12, shared: int = 6,
                      noise_vocab_size: int = 400):
    """A dataset of composed 2-hop questions, one per seed fact.

    Each seed fact carries two chain-unique words, a bridge word, and
    ``shared`` words of one topic (``n_topics`` topics of ``topic_size``
    words); half the topic words go to the first fact and question, half
    to the second fact.  Shared topic words give the splitter real edges
    (Zipf-only sharing gives almost none) and give the IR scorer small
    non-empty posting lists.  Every composition passes the link,
    composition and question checks by construction: the combined fact
    drops exactly the bridge, which neither question nor answer mentions.

    Returns (IR corpus lines, fold question rows, seed-fact rows).  The
    fold is the first ``fold_size`` questions; the corpus holds every
    fact pair plus topic/Zipf noise up to ``n_sentences`` lines.
    """
    vocab, weights = zipf_vocab(rng, noise_vocab_size)
    fresh = FreshWords(rng, vocab)
    topics = [[fresh() for _ in range(topic_size)] for _ in range(n_topics)]
    half = shared // 2
    texts: list[str] = []
    fold, facts = [], []
    for i in range(n_facts):
        a, b, w, c, d = (fresh() for _ in range(5))
        picked = rng.sample(topics[rng.randrange(n_topics)], shared)
        t1, t2 = " ".join(picked[:half]), " ".join(picked[half:])
        first = f"The {a} {b} of {t1} is {w}."
        second = f"The {w} of {t2} is {c} {d}."
        combined = f"The {a} {b} of {t1} is {c} {d}."
        texts += [first, second]
        facts.append({"id": f"f{i:05d}", "text": first, "questions": 1 + i % 3})
        if i < fold_size:
            choices = [f"{fresh()} {fresh()}"]
            pos = rng.randrange(2)
            choices.insert(pos, f"{c} {d}")
            fold.append(question_row(
                f"c{i:05d}", f"What is the {a} {b} of {t1}?", choices,
                pos, first, second, combined))
    seen = set(texts)
    flat_topics = [word for topic in topics for word in topic]
    while len(texts) < n_sentences:
        words = rng.sample(flat_topics, 2) + rng.choices(vocab, weights=weights, k=rng.randint(3, 8))
        rng.shuffle(words)
        text = " ".join(words) + "."
        if text not in seen:
            seen.add(text)
            texts.append(text)
    rng.shuffle(texts)
    return texts, fold, facts
