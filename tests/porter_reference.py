"""A frozen copy of hopkit.porter's stemmer as it was before stem learned to
skip a step whose suffixes a word cannot end in: every rule loop runs on
every word.  tests/test_porter.py checks that hopkit.porter.stem equals
this stem; do not change it."""

from __future__ import annotations

_VOWELS = "aeiou"


def _is_cons(word: str, i: int) -> bool:
    ch = word[i]
    if ch in _VOWELS:
        return False
    if ch == "y":
        return i == 0 or not _is_cons(word, i - 1)
    return True


def _measure(stem: str) -> int:
    # number of vowel->consonant transitions: [C](VC)^m[V]
    i, n = 0, 0
    length = len(stem)
    while i < length and _is_cons(stem, i):
        i += 1
    while i < length:
        while i < length and not _is_cons(stem, i):
            i += 1
        if i >= length:
            break
        n += 1
        while i < length and _is_cons(stem, i):
            i += 1
    return n


def _has_vowel(stem: str) -> bool:
    return any(not _is_cons(stem, i) for i in range(len(stem)))


def _ends_double_cons(stem: str) -> bool:
    return (
        len(stem) >= 2
        and stem[-1] == stem[-2]
        and _is_cons(stem, len(stem) - 1)
    )


def _ends_cvc(stem: str) -> bool:
    if len(stem) < 3:
        return False
    i = len(stem) - 1
    return (
        _is_cons(stem, i)
        and not _is_cons(stem, i - 1)
        and _is_cons(stem, i - 2)
        and stem[i] not in "wxy"
    )


def _step1a(w: str) -> str:
    if w.endswith("sses"):
        return w[:-2]
    if w.endswith("ies"):
        return w[:-2]
    if w.endswith("ss"):
        return w
    if w.endswith("s"):
        return w[:-1]
    return w


def _step1b(w: str) -> str:
    if w.endswith("eed"):
        return w[:-1] if _measure(w[:-3]) > 0 else w
    if w.endswith("ed"):
        stem = w[:-2]
        return _step1b_fixup(stem) if _has_vowel(stem) else w
    if w.endswith("ing"):
        stem = w[:-3]
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


# (suffix, replacement) pairs; within each step the first matching suffix
# is the only one considered, as in the reference algorithm, so longer
# suffixes must precede their own tails (e.g. "ational" before "tional").
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


def _apply_rules(w: str, rules) -> str:
    for suffix, repl in rules:
        if w.endswith(suffix):
            stem = w[: len(w) - len(suffix)]
            if _measure(stem) > 0:
                return stem + repl
            return w
    return w


def _step4(w: str) -> str:
    for suffix in _STEP4_SUFFIXES:
        if w.endswith(suffix):
            stem = w[: len(w) - len(suffix)]
            if suffix == "ion" and not stem.endswith(("s", "t")):
                continue
            if _measure(stem) > 1:
                return stem
            return w
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
    if not w:
        return w
    w = _step1a(w)
    w = _step1b(w)
    w = _step1c(w)
    w = _apply_rules(w, _STEP2_RULES)
    w = _apply_rules(w, _STEP3_RULES)
    w = _step4(w)
    w = _step5(w)
    return w
