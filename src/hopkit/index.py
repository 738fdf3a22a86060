"""In-process inverted index with BM25 ranking.

The index is rebuild-only: corpora are static per experiment, so there are
no incremental updates.  After build it is immutable and safe for
concurrent searches without synchronization.
"""

from __future__ import annotations

import hashlib
import heapq
import math
import re
import struct
from dataclasses import dataclass
from pathlib import Path

from .corpus import Corpus, TokenBag
from .errors import SnapshotError

K1 = 1.2
B = 0.75

# Post-retrieval noise hook: hits whose surface text contains one of these
# words can optionally be dropped (off by default).
NEGATION_TOKENS = frozenset({"not", "except", "cannot"})

_SURFACE_RE = re.compile(r"[^\W_]+", re.UNICODE)


@dataclass(frozen=True)
class SearchHit:
    sentence_id: int
    score: float


class InvertedIndex:
    """Postings over a Corpus plus the statistics BM25 needs."""

    def __init__(
        self,
        corpus: Corpus,
        postings: dict[str, list[tuple[int, int]]],
        doc_len: list[int],
    ):
        self.corpus = corpus
        self.postings = postings
        self.doc_len = doc_len
        self.n_docs = len(doc_len)
        self.avg_len = sum(doc_len) / self.n_docs if self.n_docs else 0.0

    def idf(self, term: str) -> float:
        df = len(self.postings.get(term, ()))
        if df == 0:
            return 0.0
        return math.log(1.0 + (self.n_docs - df + 0.5) / (df + 0.5))


def build_index(corpus: Corpus) -> InvertedIndex:
    postings: dict[str, list[tuple[int, int]]] = {}
    doc_len = []
    for sentence in corpus.sentences:
        doc_len.append(sum(sentence.tokens.values()))
        for term, tf in sentence.tokens.items():
            postings.setdefault(term, []).append((sentence.id, tf))
    return InvertedIndex(corpus, postings, doc_len)


def bm25_term_score(tf: int, idf: float, dl: int, avg_len: float) -> float:
    """One term's contribution; pure in (tf, idf, dl, avg_len)."""
    norm = K1 * (1.0 - B + B * dl / avg_len)
    return idf * tf * (K1 + 1.0) / (tf + norm)


def search(
    index: InvertedIndex,
    query: TokenBag,
    top_n: int | None,
    must_contain_any: tuple[frozenset[str], frozenset[str]] | None = None,
    negation_filter: frozenset[str] | None = None,
) -> list[SearchHit]:
    """BM25-ranked sentences matching at least one query token.

    Query term frequency is ignored: each distinct query stem contributes
    once.  With must_contain_any=(A, B), a candidate must contain at least
    one token from A and one from B (an empty side admits nothing).  Ties
    break by ascending sentence id.  Scores accumulate in sorted term
    order so reruns and the naive reference scan agree bit for bit.

    A constrained search is evaluated candidate-first: it takes the
    documents of whichever side has fewer postings, keeps those whose
    token bag meets the other side, and scores only those survivors.  A
    survivor's score adds the same per-term contributions, read from its
    token bag, in the same sorted term order as the full posting scan, so
    both evaluations give identical floats; load_snapshot rejects a
    snapshot whose per-document posting counts disagree with the bags.
    """
    if top_n is not None and top_n <= 0:
        return []
    if index.n_docs == 0:
        return []
    terms = sorted(set(query))
    if must_contain_any is not None:
        scores = _score_constrained(index, terms, *must_contain_any)
    else:
        scores = {}
        for term in terms:
            plist = index.postings.get(term)
            if not plist:
                continue
            idf = index.idf(term)
            for doc_id, tf in plist:
                contrib = bm25_term_score(tf, idf, index.doc_len[doc_id], index.avg_len)
                scores[doc_id] = scores.get(doc_id, 0.0) + contrib
    keyed = [(-score, doc_id) for doc_id, score in scores.items()]
    if negation_filter:
        keyed = [
            (neg_score, doc_id)
            for neg_score, doc_id in keyed
            if not negation_filter.intersection(
                _SURFACE_RE.findall(index.corpus[doc_id].text.lower())
            )
        ]
    ranked = heapq.nsmallest(len(keyed) if top_n is None else top_n, keyed)
    return [SearchHit(doc_id, -neg_score) for neg_score, doc_id in ranked]


def _score_constrained(
    index: InvertedIndex, terms: list[str], side_a: frozenset[str], side_b: frozenset[str]
) -> dict[int, float]:
    """Scores of the documents meeting both sides, found from the side with
    fewer postings and accumulated from their token bags."""

    def postings_total(side) -> int:
        return sum(len(index.postings.get(term, ())) for term in side)

    if postings_total(side_b) < postings_total(side_a):
        side_a, side_b = side_b, side_a
    weighted = [(term, index.idf(term)) for term in terms if index.postings.get(term)]
    sentences, doc_len, avg_len = index.corpus.sentences, index.doc_len, index.avg_len
    scores: dict[int, float] = {}
    for doc_id in {doc_id for term in side_a for doc_id, _ in index.postings.get(term, ())}:
        bag = sentences[doc_id].tokens
        if side_b.isdisjoint(bag):
            continue
        score = None
        for term, idf in weighted:
            tf = bag.get(term)
            if tf:
                contrib = bm25_term_score(tf, idf, doc_len[doc_id], avg_len)
                score = contrib if score is None else score + contrib
        if score is not None:
            scores[doc_id] = score
    return scores


# ---------------------------------------------------------------------------
# On-disk snapshot: magic, sha256 of body, then length-prefixed fields
# (little-endian).  The corpus text is stored alongside the postings so a
# snapshot is self-contained.

MAGIC = b"HOPIDX1\x00"


def write_snapshot(index: InvertedIndex, path: str | Path) -> None:
    body = bytearray()

    def put_bytes(data: bytes, fmt: str = "<I") -> None:
        body.extend(struct.pack(fmt, len(data)))
        body.extend(data)

    put_bytes(index.corpus.source_digest.encode("utf-8"))
    body.extend(struct.pack("<I", index.n_docs))
    for sentence in index.corpus.sentences:
        put_bytes(sentence.text.encode("utf-8"))
    body.extend(struct.pack("<I", len(index.postings)))
    for term in sorted(index.postings):
        put_bytes(term.encode("utf-8"), "<H")
        plist = index.postings[term]
        body.extend(struct.pack("<I", len(plist)))
        for doc_id, tf in plist:
            body.extend(struct.pack("<II", doc_id, tf))
    digest = hashlib.sha256(bytes(body)).digest()
    Path(path).write_bytes(MAGIC + digest + bytes(body))


def load_snapshot(path: str | Path) -> InvertedIndex:
    raw = Path(path).read_bytes()
    if raw[: len(MAGIC)] != MAGIC:
        raise SnapshotError(f"{path}: not an index snapshot (bad magic)")
    digest, body = raw[len(MAGIC) : len(MAGIC) + 32], raw[len(MAGIC) + 32 :]
    if hashlib.sha256(body).digest() != digest:
        raise SnapshotError(f"{path}: checksum mismatch, snapshot corrupt")
    try:
        source_digest, texts, postings = _parse_body(path, memoryview(body))
    except (struct.error, UnicodeDecodeError) as exc:
        raise SnapshotError(f"{path}: malformed snapshot body: {exc}") from exc
    n_docs = len(texts)
    corpus = Corpus.from_texts(texts, source_digest)
    if len(corpus) != n_docs:
        raise SnapshotError(f"{path}: duplicate sentences in snapshot")
    doc_len = [0] * n_docs
    for plist in postings.values():
        for doc_id, tf in plist:
            if doc_id >= n_docs:
                raise SnapshotError(f"{path}: posting id {doc_id} out of range")
            doc_len[doc_id] += tf
    # search reads term frequencies from the re-tokenized sentences, so the
    # stored postings must agree with the tokenizer that loads them
    if doc_len != [sum(sentence.tokens.values()) for sentence in corpus.sentences]:
        raise SnapshotError(f"{path}: postings disagree with the tokenizer")
    return InvertedIndex(corpus, postings, doc_len)


def _parse_body(path, view: memoryview):
    offset = 0

    def take(fmt: str):
        nonlocal offset
        size = struct.calcsize(fmt)
        values = struct.unpack_from(fmt, view, offset)
        offset += size
        return values if len(values) > 1 else values[0]

    def take_bytes(fmt: str = "<I") -> bytes:
        nonlocal offset
        length = take(fmt)
        if offset + length > len(view):
            raise SnapshotError(f"{path}: snapshot body truncated at byte {offset}")
        data = bytes(view[offset : offset + length])
        offset += length
        return data

    source_digest = take_bytes().decode("utf-8")
    n_docs = take("<I")
    texts = [take_bytes().decode("utf-8") for _ in range(n_docs)]
    postings: dict[str, list[tuple[int, int]]] = {}
    n_terms = take("<I")
    for _ in range(n_terms):
        term = take_bytes("<H").decode("utf-8")
        n_post = take("<I")
        postings[term] = [take("<II") for _ in range(n_post)]
    return source_digest, texts, postings
