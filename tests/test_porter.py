"""Stemmer tests: published per-step vectors, frozen full-pipeline vectors,
and stability of normalized keys over the frozen lexicon."""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopkit.corpus import tokenize_normalize
from hopkit.porter import (
    STEM_CACHE_SIZE,
    _apply_rules,
    _STEP2_RULES,
    _STEP3_RULES,
    _step1a,
    _step1b,
    _step1c,
    _step4,
    _step5,
    stem,
)

DATA = Path(__file__).parent / "data"


# Per-step transformations as published with the original rule set.
STEP1A = [("caresses", "caress"), ("ponies", "poni"), ("ties", "ti"),
          ("caress", "caress"), ("cats", "cat")]
STEP1B = [("feed", "feed"), ("agreed", "agree"), ("plastered", "plaster"),
          ("bled", "bled"), ("motoring", "motor"), ("sing", "sing"),
          ("conflated", "conflate"), ("troubled", "trouble"), ("sized", "size"),
          ("hopping", "hop"), ("tanned", "tan"), ("falling", "fall"),
          ("hissing", "hiss"), ("fizzed", "fizz"), ("failing", "fail"),
          ("filing", "file")]
STEP1C = [("happy", "happi"), ("sky", "sky")]
STEP2 = [("relational", "relate"), ("conditional", "condition"),
         ("rational", "rational"), ("valenci", "valence"),
         ("hesitanci", "hesitance"), ("digitizer", "digitize"),
         ("conformabli", "conformable"), ("radicalli", "radical"),
         ("differentli", "different"), ("vileli", "vile"),
         ("analogousli", "analogous"), ("vietnamization", "vietnamize"),
         ("predication", "predicate"), ("operator", "operate"),
         ("feudalism", "feudal"), ("decisiveness", "decisive"),
         ("hopefulness", "hopeful"), ("callousness", "callous"),
         ("formaliti", "formal"), ("sensitiviti", "sensitive"),
         ("sensibiliti", "sensible")]
STEP3 = [("triplicate", "triplic"), ("formative", "form"),
         ("formalize", "formal"), ("electriciti", "electric"),
         ("electrical", "electric"), ("hopeful", "hope"),
         ("goodness", "good")]
STEP4 = [("revival", "reviv"), ("allowance", "allow"), ("inference", "infer"),
         ("airliner", "airlin"), ("gyroscopic", "gyroscop"),
         ("adjustable", "adjust"), ("defensible", "defens"),
         ("irritant", "irrit"), ("replacement", "replac"),
         ("adjustment", "adjust"), ("dependent", "depend"),
         ("adoption", "adopt"), ("homologou", "homolog"),
         ("communism", "commun"), ("activate", "activ"),
         ("angulariti", "angular"), ("homologous", "homolog"),
         ("effective", "effect"), ("bowdlerize", "bowdler")]
STEP5 = [("probate", "probat"), ("rate", "rate"), ("cease", "ceas"),
         ("controll", "control"), ("roll", "roll")]


@pytest.mark.parametrize("word,expected", STEP1A)
def test_step1a(word, expected):
    assert _step1a(word) == expected


@pytest.mark.parametrize("word,expected", STEP1B)
def test_step1b(word, expected):
    assert _step1b(word) == expected


@pytest.mark.parametrize("word,expected", STEP1C)
def test_step1c(word, expected):
    assert _step1c(word) == expected


@pytest.mark.parametrize("word,expected", STEP2)
def test_step2(word, expected):
    assert _apply_rules(word, _STEP2_RULES) == expected


@pytest.mark.parametrize("word,expected", STEP3)
def test_step3(word, expected):
    assert _apply_rules(word, _STEP3_RULES) == expected


@pytest.mark.parametrize("word,expected", STEP4)
def test_step4(word, expected):
    assert _step4(word) == expected


@pytest.mark.parametrize("word,expected", STEP5)
def test_step5(word, expected):
    assert _step5(word) == expected


def test_full_pipeline_reduces_published_examples():
    assert stem("oscillators") == "oscil"
    assert stem("generalization") == "gener"


def test_frozen_vector_file():
    path = DATA / "porter_vectors.tsv"
    rows = [line.split("\t") for line in path.read_text().splitlines() if line]
    assert len(rows) > 250
    mismatches = [(w, e, stem(w)) for w, e in rows if stem(w) != e]
    assert mismatches == []


def test_stemmer_is_lowercasing_and_total():
    assert stem("WIND") == "wind"
    assert stem("") == ""
    assert stem("a") == "a"
    assert stem("h2o") == "h2o"


def test_y_consonant_rules():
    # leading y is a consonant; y after a consonant acts as a vowel
    assert stem("sky") == "sky"
    assert stem("crying") == "cry"  # "cr" holds no vowel, so step 1c skips
    assert stem("studying") == "studi"
    assert stem("happy") == "happi"


def test_idempotence_over_frozen_lexicon():
    """Normalized key sets are stable under re-tokenization for every word
    of the frozen 10k lexicon."""
    lexicon = (DATA / "idempotence_lexicon.txt").read_text().split()
    assert len(lexicon) == 10000
    broken = []
    for word in lexicon:
        keys = set(tokenize_normalize(word))
        again = set(tokenize_normalize(" ".join(sorted(keys))))
        if keys != again:
            broken.append(word)
    assert broken == []


def test_known_non_fixed_point_stems():
    """Porter stems are not universally fixed points; these documented
    exceptions pin the behaviour rather than hiding it."""
    assert stem("response") == "respons"
    assert stem("respons") == "respon"  # step 1a strips the bare s again
    assert stem("agreed") == "agre"
    assert stem("agre") == "agr"  # step 5a drops the now-final e again


def test_memoised_stem_matches_unmemoised_reference():
    lexicon = (DATA / "idempotence_lexicon.txt").read_text().split()
    vectors = [line.split("\t")[0] for line in
               (DATA / "porter_vectors.tsv").read_text().splitlines() if line]
    for word in lexicon + vectors:
        want = stem.__wrapped__(word)
        assert stem(word) == want
        assert stem(word) == want  # second call is served by the memo
    assert stem.cache_info().maxsize == STEM_CACHE_SIZE


@given(st.text(max_size=30))
@settings(max_examples=300)
def test_memoised_stem_matches_unmemoised_reference_on_any_text(word):
    assert stem(word) == stem.__wrapped__(word)
