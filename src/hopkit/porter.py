"""Porter stemmer, original 1980 rule set.

Embedded so tokenization stays reproducible without an NLP dependency.
Deliberately excludes the later revisions found in most library versions
(step 2 here maps "abli" -> "able" and has no "logi" rule, and there is
no minimum-length guard).  Behaviour is pinned by the frozen vectors in
tests/data/porter_vectors.tsv; do not "fix" rules without regenerating
that file.

Every rule condition reads one consonant/vowel form of its stem, as in
Porter's notation: _form writes c or v per character, so the measure m
of [C](VC)^m[V] counts the form's "vc", *v* is a "v" in it, *d is a
doubled last letter whose form is "c", and *o is a form ending in "cvc"
whose last letter is not w, x or y.
"""

from __future__ import annotations

_VOWELS = "aeiou"


def _form(word: str) -> str:
    """word's c/v form: a, e, i, o and u are vowels, y is a vowel after a
    consonant, and every other character is a consonant."""
    form = ""
    for ch in word:
        form += "v" if ch in _VOWELS or (ch == "y" and form[-1:] == "c") else "c"
    return form


def _measure(stem: str) -> int:
    return _form(stem).count("vc")


def _has_vowel(stem: str) -> bool:
    return "v" in _form(stem)


def _ends_double_cons(stem: str) -> bool:
    return len(stem) >= 2 and stem[-1] == stem[-2] and _form(stem).endswith("c")


def _ends_cvc(stem: str) -> bool:
    return _form(stem).endswith("cvc") and stem[-1] not in "wxy"


# (suffix, replacement) pairs; within each step the first matching suffix
# is the only one considered, as in the reference algorithm, so longer
# suffixes must precede their own tails (e.g. "ational" before "tional").
_STEP1A_RULES = (("sses", "ss"), ("ies", "i"), ("ss", "ss"), ("s", ""))


def _step1a(w: str) -> str:
    for suffix, repl in _STEP1A_RULES:
        if w.endswith(suffix):
            return w[: len(w) - len(suffix)] + repl
    return w


def _step1b(w: str) -> str:
    if w.endswith("eed"):
        return w[:-1] if _measure(w[:-3]) > 0 else w
    for suffix in ("ed", "ing"):
        if w.endswith(suffix):
            stem = w[: len(w) - len(suffix)]
            return _step1b_fixup(stem) if _has_vowel(stem) else w
    return w


def _step1b_fixup(stem: str) -> str:
    if stem.endswith(("at", "bl", "iz")):
        return stem + "e"
    if _ends_double_cons(stem) and stem[-1] not in "lsz":
        return stem[:-1]
    if _measure(stem) == 1 and _ends_cvc(stem):
        return stem + "e"
    return stem


def _step1c(w: str) -> str:
    if w.endswith("y") and _has_vowel(w[:-1]):
        return w[:-1] + "i"
    return w


_STEP2_RULES = (
    ("ational", "ate"),
    ("tional", "tion"),
    ("enci", "ence"),
    ("anci", "ance"),
    ("izer", "ize"),
    ("abli", "able"),
    ("alli", "al"),
    ("entli", "ent"),
    ("eli", "e"),
    ("ousli", "ous"),
    ("ization", "ize"),
    ("ation", "ate"),
    ("ator", "ate"),
    ("alism", "al"),
    ("iveness", "ive"),
    ("fulness", "ful"),
    ("ousness", "ous"),
    ("aliti", "al"),
    ("iviti", "ive"),
    ("biliti", "ble"),
)

_STEP3_RULES = (
    ("icate", "ic"),
    ("ative", ""),
    ("alize", "al"),
    ("iciti", "ic"),
    ("ical", "ic"),
    ("ful", ""),
    ("ness", ""),
)

_STEP4_SUFFIXES = (
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant",
    "ement", "ment", "ent", "ion", "ou", "ism", "ate", "iti",
    "ous", "ive", "ize",
)


# Each step's suffixes, so stem skips a step's loop in one C-level check
# when the word ends in none of them; the loop acts on no other word.
_STEP2_SUFFIXES = tuple(suffix for suffix, _ in _STEP2_RULES)
_STEP3_SUFFIXES = tuple(suffix for suffix, _ in _STEP3_RULES)


def _apply_rules(w: str, rules) -> str:
    for suffix, repl in rules:
        if w.endswith(suffix):
            stem = w[: len(w) - len(suffix)]
            return stem + repl if _measure(stem) > 0 else w
    return w


def _step4(w: str) -> str:
    for suffix in _STEP4_SUFFIXES:
        if w.endswith(suffix):
            stem = w[: len(w) - len(suffix)]
            # "ion" needs *S or *T; no later suffix ends in n, so a miss ends the step
            ion_ok = suffix != "ion" or stem.endswith(("s", "t"))
            return stem if ion_ok and _measure(stem) > 1 else w
    return w


def _step5(w: str) -> str:
    if w.endswith("e"):
        stem = w[:-1]
        m = _measure(stem)
        if m > 1 or (m == 1 and not _ends_cvc(stem)):
            w = stem
    if w.endswith("ll") and _measure(w) > 1:
        w = w[:-1]
    return w


def stem(word: str) -> str:
    """Stem a single lowercase token; non-letters are treated as consonants."""
    w = word.lower()
    w = _step1a(w)
    w = _step1b(w)
    w = _step1c(w)
    if w.endswith(_STEP2_SUFFIXES):
        w = _apply_rules(w, _STEP2_RULES)
    if w.endswith(_STEP3_SUFFIXES):
        w = _apply_rules(w, _STEP3_RULES)
    if w.endswith(_STEP4_SUFFIXES):
        w = _step4(w)
    w = _step5(w)
    return w
