"""Sentence corpus loading, cleaning, and the canonical tokenization.

Every other stage (indexing, retrieval, distractor selection, validation)
counts tokens with :func:`_count_tokens`, the one tokenizer (``build_index``
directly, the rest through :func:`tokenize_normalize`), so this module owns
the single definition of what a "token" is: lowercase, split on
non-alphanumeric runs, stopword-filtered, Porter-stemmed.  Its two memos,
token -> stem and text -> :func:`stem_set`, fill on first use and are kept
for the life of the process.
"""

from __future__ import annotations

import codecs
import hashlib
import re
from collections import Counter, _count_elements
from collections.abc import Sequence
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from .errors import write_output
from .porter import stem

# A token bag maps stem -> occurrence count.  The key view is the set view;
# dict key views support the set algebra used for the retrieval differences.
TokenBag = Counter


STOPWORDS: frozenset[str] = frozenset(
    resources.files("hopkit.data").joinpath("stopwords.txt").read_text("utf-8").split()
)

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)
_WS_RE = re.compile(r"\s+")


class Memo(dict):
    """key -> fill(key), filled on the key's first read and kept: the one
    memo of every state hopkit fills on first use.  A fill stores the value
    any reader would compute, so readers in several threads need no lock:
    two that fill one key at once each get an equal value, and one of them
    is kept.  A fill that raises stores nothing."""

    def __init__(self, fill) -> None:
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


class _NormalForms(Memo):
    """Raw lowercase token -> its normalized stem, or "" for a token that
    normalizes to nothing, under one stopword set and one stemmer, so each
    token is stemmed once.  ``sets`` is the Memo of text -> stem_set under
    the same two.  Both fill on first use and are kept for the life of the
    process: the tokens grow to the vocabulary of the text the process has
    read, which any index over that text holds too, and the texts to the
    question, choice and fact texts the stages ask about, which corpus
    sentences never join (two-step retrieval tokenizes those outside it)."""

    def __init__(self, stopwords: frozenset[str], stemmer) -> None:
        super().__init__(self._normalize)
        self.stopwords = stopwords
        self.stemmer = stemmer
        # tokenize_normalize is looked up at fill time, so a rebound one
        # (a traced run's) counts each miss
        self.sets = Memo(lambda text: frozenset(tokenize_normalize(text)))

    def _normalize(self, token: str) -> str:
        form = "" if token in self.stopwords else self.stemmer(token)
        return "" if form in self.stopwords else form


_normal_forms = _NormalForms(STOPWORDS, stem)


def _current_forms() -> _NormalForms:
    """The memos, rebuilt empty whenever STOPWORDS or the stemmer is rebound."""
    global _normal_forms
    forms = _normal_forms
    if forms.stopwords is not STOPWORDS or forms.stemmer is not stem:
        forms = _normal_forms = _NormalForms(STOPWORDS, stem)
    return forms


def _count_tokens(text: str, forms: dict[str, str], bag: dict) -> dict:
    """Count text's normalized tokens into bag: the one tokenizer.  Each raw
    lowercase token is mapped through forms, a Memo of _NormalForms values
    ("" for a token that normalizes to nothing).  _count_elements is the C
    loop Counter.update runs, without Counter's Python-level dispatch."""
    _count_elements(bag, filter(None, map(forms.__getitem__, _TOKEN_RE.findall(text.lower()))))
    return bag


def tokenize_normalize(text: str) -> TokenBag:
    """Lowercase, split, drop stopwords, Porter-stem; counts preserved.

    Stems that collapse onto a stopword (e.g. "doing" -> "do") are dropped
    too, so no stopword ever appears as a key.  Each distinct token is
    normalized once through a memo, which is rebuilt whenever STOPWORDS or
    the stemmer is rebound.
    """
    return _count_tokens(text, _current_forms(), Counter())


def stem_set(text: str) -> frozenset[str]:
    """Distinct normalized stems of a string, memoised per text beside the
    token memo and rebuilt with it, so each stage can ask again rather than
    keep its own copy.  An entry is kept for the life of the process."""
    return _current_forms().sets[text]


# ---------------------------------------------------------------------------
# Cleaning


@dataclass(frozen=True)
class CleanResult:
    accepted: bool
    reason: str | None = None


_MARKUP_RE = re.compile(r"[<>{}][A-Za-z/]|[A-Za-z/][<>{}]")
_EMAIL_RE = re.compile(r"[\w.+-]+@[\w-]+\.[\w.-]+")
_URL_RE = re.compile(r"https?://\S+|www\.\S+", re.IGNORECASE)
_NUMERIC_TOKEN_RE = re.compile(r"[\d.,:/%-]*\d[\d.,:/%-]*")
_DIGIT_RE = re.compile(r"\d")

MIN_TOKENS = 3
MAX_TOKENS = 60
MIN_ALPHA_RATIO = 0.6
NUMBER_RUN_LEN = 4

# The ASCII characters _DIGIT_RE, str.isspace and str.isalpha accept, so
# clean_filter can find and count them in C on an ASCII line.
_ASCII_DIGIT = bytes(c for c in range(128) if _DIGIT_RE.match(chr(c)))
_ASCII_SPACE = bytes(c for c in range(128) if chr(c).isspace())
_ASCII_ALPHA = bytes(c for c in range(128) if chr(c).isalpha())
_ACCEPTED = CleanResult(True)


def clean_filter(candidate: str) -> CleanResult:
    """Accept or reject a candidate sentence; the reason names the first
    failed rule (markup, number_run, email, url, alpha_ratio, token_count).

    Each regex rule runs only on text holding what every match of it needs:
    one of <>{} for markup, a digit for a number run, @ for an email, and
    :// or (any case) www. for a URL.
    """
    text = candidate.strip()
    if ("<" in text or ">" in text or "{" in text or "}" in text) and _MARKUP_RE.search(text):
        return CleanResult(False, "markup")
    tokens = text.split()
    if text.isascii():
        data = text.encode("ascii")
        has_digit = len(data.translate(None, _ASCII_DIGIT)) < len(data)
        non_space = len(data.translate(None, _ASCII_SPACE))
        alpha = len(data) - len(data.translate(None, _ASCII_ALPHA))
    else:
        has_digit = _DIGIT_RE.search(text) is not None
        non_space = len(text) - sum(map(str.isspace, text))
        alpha = sum(map(str.isalpha, text))
    if has_digit:
        run = 0
        for token in tokens:
            if _NUMERIC_TOKEN_RE.fullmatch(token):
                run += 1
                if run >= NUMBER_RUN_LEN:
                    return CleanResult(False, "number_run")
            else:
                run = 0
    if "@" in text and _EMAIL_RE.search(text):
        return CleanResult(False, "email")
    if ("://" in text or "www." in text.lower()) and _URL_RE.search(text):
        return CleanResult(False, "url")
    if non_space == 0 or alpha / non_space < MIN_ALPHA_RATIO:
        return CleanResult(False, "alpha_ratio")
    if not MIN_TOKENS <= len(tokens) <= MAX_TOKENS:
        return CleanResult(False, "token_count")
    return _ACCEPTED


# ---------------------------------------------------------------------------
# Corpus


@dataclass
class Corpus:
    """Immutable-after-load ordered sentence texts.

    A sentence's id is its position in ``texts``, so ids are dense 0..n-1;
    texts are unique in normal form (control characters replaced,
    whitespace collapsed).  A corpus made from text holds its texts in a
    list and its text -> id map from the start.  A corpus loaded from an
    index snapshot holds a sequence whose Memo inflates a block of texts
    when one of them is first read, and builds its map, reading every text,
    checking that none repeats and mapping each to the doc-id int its
    index's postings hold, on the first id_of_text.  The corpus keeps
    no tokens: an index built over it holds the only term frequencies.
    Safe to share across concurrent readers.
    """

    texts: Sequence[str]
    source_digest: str = ""
    rejections: Counter = field(default_factory=Counter)
    _by_text: dict[str, int] | None = field(default=None, repr=False)

    def __len__(self) -> int:
        return len(self.texts)

    def __getitem__(self, sid: int) -> str:
        return self.texts[sid]

    def id_of_text(self, text: str) -> int | None:
        """Resolve a sentence by its text in the corpus's normal form, or None."""
        if self._by_text is None:
            self._by_text = self.texts.ids()  # a loaded corpus, mapped on first use
        return self._by_text.get(_normal_form(text))

    @classmethod
    def from_texts(cls, texts) -> "Corpus":
        """Build a corpus from already-clean sentence strings (dedups,
        assigns ids in order).  Lines are not run through clean_filter."""
        seen: dict[str, int] = {}
        for raw in texts:
            text = _normal_form(raw)
            if text and text not in seen:
                seen[text] = len(seen)
        return cls(list(seen), _by_text=seen)


_CONTROL_RE = re.compile(r"[\x00-\x08\x0b-\x1f\x7f]")


def _normal_form(text: str) -> str:
    """text with each control character replaced by a space, every
    whitespace run collapsed to one space, and the ends stripped.

    Printable text holds no control character and no whitespace but " ",
    so without a double, leading or trailing space it is its own normal
    form and skips both regex passes.
    """
    if text.isprintable() and "  " not in text and text[:1] != " " and text[-1:] != " ":
        return text
    return _WS_RE.sub(" ", _CONTROL_RE.sub(" ", text)).strip()


def load_corpus(path: str | Path) -> Corpus:
    """Load a one-sentence-per-line UTF-8 file into a Corpus.

    Applies clean_filter per line (rejection counts are kept on the
    corpus), dedups exact normalized text, and assigns ids in input order.
    One leading UTF-8 byte order mark is dropped; the digest is still that
    of the file's bytes.  Raises on unreadable files; malformed UTF-8 fails
    fast with the line number.
    """
    path = Path(path)
    raw = path.read_bytes()
    digest = hashlib.sha256(raw).hexdigest()
    rejections: Counter = Counter()
    seen: dict[str, int] = {}
    for lineno, line in enumerate(raw.removeprefix(codecs.BOM_UTF8).split(b"\n"), start=1):
        try:
            decoded = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: malformed UTF-8 on line {lineno}: {exc}") from exc
        text = _normal_form(decoded)
        if not text:
            continue
        verdict = clean_filter(text)
        if not verdict.accepted:
            rejections[verdict.reason] += 1
            continue
        if text in seen:
            rejections["duplicate"] += 1
            continue
        seen[text] = len(seen)
    return Corpus(list(seen), digest, rejections, seen)


def write_rejection_report(corpus: Corpus, path: str | Path) -> None:
    """Tab-separated "reason<TAB>count" lines, sorted by reason."""
    lines = [f"{reason}\t{count}" for reason, count in sorted(corpus.rejections.items())]
    write_output(path, "\n".join(lines) + ("\n" if lines else ""))
