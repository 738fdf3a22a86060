"""In-process inverted index with BM25 ranking.

The index is rebuild-only: corpora are static per experiment, so there are
no incremental updates.  An index comes from build_index, or from a
snapshot loaded exactly as stored.  Its terms, document frequencies and
statistics never change, and its postings are the packed arrays a snapshot
stores.  What is filled on first use is filled through a corpus.Memo,
whose rule makes concurrent searches safe without a lock: a term's
postings dict, built from those arrays when the term is first read; a
term's max impact and bitset, filled together from that dict when a
pruned search first walks the term; a sentence length's BM25 length
norm, computed when a document of that length is first scored, so each
distinct length is normed once; and a loaded corpus's blocks of sentence
texts, each inflated when one of its sentences is first read.
"""

from __future__ import annotations

import hashlib
import heapq
import math
import os
import struct
import sys
import unicodedata
import zlib
from array import array
from bisect import bisect_right
from collections import defaultdict
from collections.abc import ItemsView, Iterable, Iterator, Sequence
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate, chain, islice, repeat
from operator import ge, methodcaller, mul, or_, sub
from pathlib import Path

from .corpus import _TOKEN_RE, Corpus, Memo, _count_tokens, _current_forms
from .errors import SnapshotError

K1 = 1.2
B = 0.75

# Post-retrieval noise hook: hits whose surface text contains one of these
# words can optionally be dropped (off by default).
NEGATION_TOKENS = frozenset({"not", "except", "cannot"})

# A search builds the survivor set from its rarer side, and scores it
# whole, when that side holds at most this many postings per wanted hit
# per query term.  Building it costs a C-level set insertion per posting.
# Skipping it, the impact rounds intersect the query terms' bitsets, each
# filled once per index.  Timed per search on the benchmark's corpora
# with filled bitsets, the two broke even near 4: on dense-10k, a search
# with 4 to 16 postings per hit per query term took 2.6 times as long
# through the survivor set.  chain-100k's and construct-fold's searches
# hold at most 0.1 and 0.3, so every one of them builds it.
POOL_POSTINGS_PER_HIT = 4


@dataclass(frozen=True)
class SearchHit:
    sentence_id: int
    score: float


class InvertedIndex:
    """Postings over a Corpus plus the statistics BM25 needs.

    Built or loaded, its postings are the doc-id gaps and tfs a snapshot
    stores (see the format comment below), in sorted term order.
    ``postings[term]`` is the items view of a dict from doc id to tf, in
    ascending id order, built when the term is first read (see
    _PackedPostings): it iterates as (doc id, tf) pairs, and its dict's
    key view intersects with sets in C.  Which terms a document holds is
    answered by key membership, ``doc_id in postings[term].mapping``.
    ``df`` maps every term to its document frequency, in term order; ask
    it, not ``postings``, whether a term is indexed.  ``tokens`` is the
    tokenizer table a build made the postings under: every distinct raw
    lowercase token of the corpus and its normal form ("" for none).  A
    loaded index keeps none.
    """

    def __init__(
        self,
        corpus: Corpus,
        terms: list[str],
        offsets: array,
        gaps: array,
        tfs: array,
        doc_len: list[int],
        tokens: dict[str, str] | None,
    ):
        self.corpus = corpus
        self.df = df = dict(zip(terms, map(sub, offsets[1:], offsets)))
        self.n_docs = len(doc_len)
        self.postings = _PackedPostings(df, dict(zip(terms, offsets)), self.n_docs, gaps, tfs)
        self.doc_len = doc_len
        self.tokens = tokens
        self.avg_len = sum(doc_len) / self.n_docs if self.n_docs else 0.0
        # Derived state, not in the snapshot: one log per distinct term.
        self._idf = {term: math.log(1.0 + (self.n_docs - n + 0.5) / (n + 0.5))
                     for term, n in df.items()}
        # Derived state filled on first use: a sentence length's norm, read
        # for every contribution scored, and, by pruned searches, a term's
        # largest contribution and its bitset, filled together.  The norms
        # are one float per distinct length, not one per document, and no
        # build or load computes them.
        self._norm = Memo(self._length_norm)
        self._impact_bits = Memo(self._impact_and_bitset)

    def idf(self, term: str) -> float:
        """BM25 idf of a term; 0.0 for a term no document holds."""
        return self._idf.get(term, 0.0)

    def max_impact(self, term: str) -> float:
        """The largest bm25_term_score of an indexed term over its postings."""
        return self._impact_bits[term][0]

    def bitset(self, term: str) -> int:
        """The documents holding an indexed term, as an int with bit d set
        for each document d."""
        return self._impact_bits[term][1]

    def _length_norm(self, dl: int) -> float:
        return K1 * (1.0 - B + B * dl / self.avg_len)

    def _impact_and_bitset(self, term: str) -> tuple[float, int]:
        idf, doc_len, norm = self.idf(term), self.doc_len, self._norm
        tfs = self.postings[term].mapping
        impact = max(bm25_term_score(tf, idf, norm[doc_len[doc_id]])
                     for doc_id, tf in tfs.items())
        octets = bytearray(self.n_docs // 8 + 1)
        for doc_id in tfs:
            octets[doc_id >> 3] |= 1 << (doc_id & 7)
        return impact, int.from_bytes(octets, "little")


def _doc_ids(bits: int) -> list[int]:
    """The ids whose bits are set in a non-negative bitset, descending."""
    digits = bin(bits)
    top = len(digits) - 1  # bit 0's digit
    ids, at = [], digits.find("1")
    while at >= 0:
        ids.append(top - at)
        at = digits.find("1", at + 1)
    return ids


class _PackedPostings:
    """An index's postings.  Every term's doc-id gaps and tfs stay in the
    arrays a snapshot stores until the term is first read; then its dict
    is built and kept.  The gaps' running sums, in the stored (ascending)
    order, are each id + 1, and ``docs[id + 1]`` is the one int every
    term's dict holds for doc id ``id``.  ``in`` answers from ``df`` and
    builds nothing.  It is no dict, so no other mapping method can answer
    from the terms built so far."""

    def __init__(self, df: dict[str, int], starts: dict[str, int], n_docs: int,
                 gaps: array, tfs: array):
        self.df, self.starts, self.gaps, self.tfs = df, starts, gaps, tfs
        self.docs = [None, *range(n_docs)]
        self._built = Memo(self._build)

    def __getitem__(self, term: str) -> ItemsView[int, int]:
        return self._built[term]

    def _build(self, term: str) -> ItemsView[int, int]:
        start = self.starts[term]
        end = start + self.df[term]
        return dict(zip(map(self.docs.__getitem__, accumulate(self.gaps[start:end])),
                        self.tfs[start:end])).items()

    def __contains__(self, term) -> bool:
        return term in self.df


def build_index(corpus: Corpus) -> InvertedIndex:
    """Count each term's postings into a dict, then pack them as a snapshot does."""
    tokens = Memo(_current_forms().__getitem__)  # the tokenizer table, in first-seen order
    docs_of: defaultdict[str, dict[int, int]] = defaultdict(dict)
    doc_len = []
    for doc_id, text in enumerate(corpus.texts):
        bag = _count_tokens(text, tokens, {})
        doc_len.append(sum(bag.values()))
        for term, tf in bag.items():
            docs_of[term][doc_id] = tf
    terms = sorted(docs_of)
    lists = [docs_of[term] for term in terms]
    # Each term's doc-id gaps, made in C: map(sub, ids, chain((-1,), ids)).
    gaps = array("H" if len(doc_len) < 1 << 16 else "I", chain.from_iterable(
        map(map, repeat(sub), lists, map(chain, repeat((-1,)), lists))))
    tf_values = chain.from_iterable(map(methodcaller("values"), lists))
    # A tf is at most its sentence's length; bytes() packs small ints fastest.
    if max(doc_len, default=0) < 256:
        tfs = array("B", bytes(tf_values))
    else:
        tfs = array("I", tf_values)
    offsets = array("I", accumulate(map(len, lists), initial=0))
    del docs_of, lists  # the dicts go before the index is made
    return InvertedIndex(corpus, terms, offsets, gaps, tfs, doc_len, tokens)


def bm25_term_score(tf: int, idf: float, norm: float) -> float:
    """One term's contribution, given its sentence's length norm
    K1 * (1 - B + B * dl / avg_len) (see InvertedIndex._length_norm)."""
    return idf * tf * (K1 + 1.0) / (tf + norm)


def search(
    index: InvertedIndex,
    query: Iterable[str],
    top_n: int,
    must_contain_any: tuple[frozenset[str], frozenset[str]] | None = None,
    negation_filter: frozenset[str] | None = None,
) -> list[SearchHit]:
    """The top_n BM25-ranked sentences holding at least one query term.

    Only the query's distinct terms count, each once.  With
    must_contain_any=(A, B), a hit must hold at least one term from A and
    one from B (an empty side admits nothing).  None means any query term:
    (Q, Q) for the query's term set Q, since a sentence holding a query
    term holds one from each side.  Ties break by ascending sentence id.

    Candidates come from one of two sources.  When the rarer side holds
    at most POOL_POSTINGS_PER_HIT postings per wanted hit per query term,
    the survivors (the documents meeting both sides) are that side's
    documents found in the other side's postings, and every survivor is
    scored.  Otherwise the search walks: no survivor set is built, and
    the pruning rounds below reach documents by intersecting the query
    terms' bitsets (see InvertedIndex.bitset), starting from the
    documents holding a term of each side.  Each round decodes the
    documents it reached to ids for scoring.  Scoring is term-at-a-time:
    for each query term in sorted order, its contribution is assigned
    to, or added to, each candidate holding it, the order in which the
    naive reference scan sums a document's terms, so reruns and that
    scan agree bit for bit.

    A walked search scores only the candidates whose bound, the sum of
    the max impacts of the query terms they hold, reaches a floor that
    falls until the top_n-th best score theta found so far satisfies
    theta * (1 - 1e-9) >= floor, or until the floor is at or below the
    smallest max impact, when every candidate holding a query term has
    been reached.  This is exact.  Every contribution is at most its
    term's max impact, and float addition is monotone, so a score is at
    most its bound up to the rounding of summing the same terms in
    another order: a relative error far below 1e-9 for any real query.
    An unscored candidate therefore scores strictly below theta, and can
    neither enter the top_n nor tie with a hit at theta; a candidate that
    does tie at theta has a bound above the floor and is scored, so ties
    still break by id.

    A negation_filter drops hits whose surface words include one of its
    words.  The rounds then take theta over the hits the filter keeps, so
    the floor falls until top_n kept hits are found and one search scores
    each candidate at most once.  Only the best-scored documents are
    checked against the filter, a few per round, best first.
    """
    if top_n <= 0:
        return []
    terms = sorted(set(query))
    if must_contain_any is None:
        must_contain_any = (frozenset(terms),) * 2
    keep = None
    if negation_filter:
        def keep(doc_id: int) -> bool:
            return negation_filter.isdisjoint(_TOKEN_RE.findall(index.corpus[doc_id].lower()))
    scores = _score_constrained(index, terms, *must_contain_any, top_n, keep)
    if not scores:
        return []
    return [SearchHit(doc_id, -neg_score) for neg_score, doc_id in _best(scores, top_n, keep)]


def _best(scores: dict[int, float], n: int, keep) -> list[tuple[float, int]]:
    """The n best (-score, doc id) pairs of scores, best first, of the
    documents keep admits (every document when keep is None).  A document
    keep rejects is deleted from scores, so no later call asks about it."""
    ranked = [(-score, doc_id) for doc_id, score in scores.items()]
    if keep is None:
        return heapq.nsmallest(n, ranked)
    heapq.heapify(ranked)
    best = []
    while ranked and len(best) < n:
        hit = heapq.heappop(ranked)
        if keep(hit[1]):
            best.append(hit)
        else:
            del scores[hit[1]]
    return best


def _score_constrained(
    index: InvertedIndex,
    terms: list[str],
    side_a: frozenset[str],
    side_b: frozenset[str],
    top_n: int,
    keep=None,
) -> dict[int, float]:
    """Scores of at least the documents meeting both sides that can rank
    in the top_n of those keep admits (see search)."""
    postings, df = index.postings, index.df
    if any(map(df.keys().isdisjoint, (terms, side_a, side_b))):
        return {}  # no document holds a query term, or a term of one side
    # A document holds a term of a side when it is a key of one of the
    # side's {doc id: tf} dicts.
    tfs_a = [postings[term].mapping for term in side_a if term in df]
    tfs_b = tfs_a if side_b is side_a else [postings[term].mapping
                                            for term in side_b if term in df]
    total_a, total_b = sum(map(len, tfs_a)), sum(map(len, tfs_b))
    if total_b < total_a:
        tfs_a, tfs_b, total_a = tfs_b, tfs_a, total_b
    if total_a <= POOL_POSTINGS_PER_HIT * top_n * len(terms):
        # The rarer side's documents holding a term of the other side.  The
        # cut above bounds the pool, so these lookups stay few.
        survivors = {doc_id for doc_id in set().union(*tfs_a)
                     if any(doc_id in tfs for tfs in tfs_b)}
        if not survivors:
            return {}
    else:
        survivors = None  # the rounds below reach the documents meeting both sides
        start = (reduce(or_, (index.bitset(term) for term in side_a if term in df))
                 & reduce(or_, (index.bitset(term) for term in side_b if term in df)))
        if not start:
            return {}
    weighted = [(term, index.idf(term), postings[term].mapping) for term in terms if term in df]
    doc_len, norm, k1_1 = index.doc_len, index._norm, K1 + 1.0
    scores: dict[int, float] = {}
    get = scores.get

    def score(doc_ids) -> None:
        # Documents not scored yet, term-at-a-time in sorted term order,
        # the order a document-at-a-time sum would take.  Each contribution
        # is bm25_term_score's, inlined; it is positive, and 0.0 + x == x,
        # so a document's first one is stored exactly.
        for term, idf, tfs in weighted:
            for doc_id in tfs.keys() & doc_ids:
                tf = tfs[doc_id]
                scores[doc_id] = get(doc_id, 0.0) + idf * tf * k1_1 / (tf + norm[doc_len[doc_id]])

    if survivors is not None:
        score(survivors)
        return scores
    # Query terms by descending max impact, with their bitsets and the
    # summed impact of each term and those after it.
    ranked = sorted(((index.max_impact(term), term) for term, _, _ in weighted), reverse=True)
    impacts = [impact for impact, _ in ranked]
    term_bits = [index.bitset(term) for _, term in ranked]
    tail = [0.0] * (len(ranked) + 1)
    for i in range(len(ranked) - 1, -1, -1):
        tail[i] = impacts[i] + tail[i + 1]
    seen = 0

    floor = tail[0]
    while True:
        # Documents whose held terms' impacts sum to at least floor: each
        # entry is (the bitset of the start's documents holding the terms
        # taken so far; the next term to take or skip; the taken terms'
        # summed impact).  That sum is below floor, so an entry past the
        # last term stops at tail[-1] == 0.0.
        reached = 0
        stack = [(start, 0, 0.0)]
        while stack:
            docs, i, bound = stack.pop()
            if bound + tail[i] < floor:
                continue
            stack.append((docs, i + 1, bound))
            held = term_bits[i] & docs
            if not held:
                continue
            if bound + impacts[i] >= floor:
                reached |= held
            else:
                stack.append((held, i + 1, bound + impacts[i]))
        reached &= ~seen
        seen |= reached
        score(_doc_ids(reached))
        if floor <= impacts[-1]:
            return scores  # every document holding a query term is reached
        if keep is None:
            best = heapq.nlargest(top_n, scores.values())
        else:
            best = [-neg_score for neg_score, _ in _best(scores, top_n, keep)]
        if len(best) < top_n:
            floor /= 2.0
            continue
        theta = best[-1] * (1.0 - 1e-9)
        if theta >= floor:
            return scores
        floor = theta


# ---------------------------------------------------------------------------
# On-disk snapshot: the magic, the sha256 of the rest, one zlib stream
# (level 1), then the sentence texts in blocks.  The stream holds,
# little-endian:
#   - a header of seven u32: n_docs, n_terms, n_postings, n_tokens, the
#     byte widths of a stored doc-id gap (2, or 4 from 65,536 sentences on,
#     since a gap reaches n_docs) and of a stored tf (1, or 4 when a
#     sentence is 256 tokens or longer), and the sentences per text block;
#   - doc_len and the n_terms + 1 offsets of the terms' postings (u32 each),
#     then every term's doc ids as gaps, the first id + 1 and each later
#     one id - previous id, then every term's tfs; each term's postings
#     ascend by doc id, the terms in sorted order.  So the ids of a term
#     strictly ascend exactly when none of its gaps is 0, and the last
#     lies within the corpus exactly when its gaps sum to at most n_docs;
#   - the n_blocks + 1 byte offsets (u32) of the text blocks in the bytes
#     after the stream, n_blocks = ceil(n_docs / sentences per block): the
#     first is 0 and the last is where the file ends;
#   - UTF-8 strings, each ended by "\n": the source digest, the tokenizer's
#     regex pattern and unicodedata version, then the tokenizer table's
#     n_tokens raw tokens and their n_tokens normal forms ("" for none).
#     The terms are the table's distinct non-empty forms, so they are not
#     stored.
# Each text block is a zlib stream (level 1) of the "\n"-ended UTF-8 texts
# of that many consecutive sentences, the last block of the rest.  Every
# block after the first is compressed with the first block's text (its
# last 32 KB) as a preset dictionary (RFC 1950's FDICT), so a small block
# compresses about as well as one stream, and a block's Adler-32 catches
# altered bytes that a bare deflate stream could inflate to other text.
# A load refuses a snapshot, as it refuses a stale magic, unless the loading
# tokenizer has the same pattern and Unicode version and maps every stored
# raw token to its stored form: equal tokens and equal forms give equal
# postings, so a loaded index agrees with the tokenizer that reads it.  A
# load checks the stream's arrays and the block offsets whole and keeps
# them.  A text block is inflated and checked when one of its sentences is
# first read, and the texts are checked to be distinct when the first text
# is mapped to its id (see _BlockTexts).  Only a built index, which holds
# the table, is written.  A snapshot is written to a temporary file beside
# its target and then renamed over it, so a failed write leaves any
# earlier snapshot at that path whole.

MAGIC = b"HOPIDX5\x00"
_HEADER = struct.Struct("<7I")
_TYPECODES = {1: "B", 2: "H", 4: "I"}
# Sentences per text block.  A retrieve reads a few sentences and inflates
# their blocks only.  With the first block as their dictionary, blocks of
# 512 made the benchmark's snapshots smaller than one stream of the texts;
# blocks of 256 made one of them larger.
TEXT_BLOCK = 512
_WINDOW = 1 << 15  # the most of a preset dictionary zlib uses


def write_snapshot(index: InvertedIndex, path: str | Path) -> None:
    """Write a built index to path.  A loaded index keeps no tokenizer
    table, so it cannot be written."""
    if index.tokens is None:
        raise ValueError("a loaded index keeps no tokenizer table; write a built one")
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(4).hex()}.tmp")
    try:
        with open(tmp, "xb") as handle:
            handle.write(MAGIC + bytes(32))
            digest = hashlib.sha256()
            for chunk in _snapshot_body(index):
                digest.update(chunk)
                handle.write(chunk)
            handle.seek(len(MAGIC))
            handle.write(digest.digest())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _snapshot_body(index: InvertedIndex) -> Iterator[bytes]:
    """The snapshot after its sha256: the zlib stream's chunks, made a
    section at a time, then the text blocks."""
    blocks = _text_blocks(index.corpus.texts)
    packer = zlib.compressobj(1)
    gaps, tfs = index.postings.gaps, index.postings.tfs
    yield packer.compress(_HEADER.pack(index.n_docs, len(index.df), len(gaps), len(index.tokens),
                                       gaps.itemsize, tfs.itemsize, TEXT_BLOCK))
    offsets = array("I", accumulate(index.df.values(), initial=0))  # df is in term order
    block_ends = array("I", accumulate(map(len, blocks), initial=0))
    for section in (array("I", index.doc_len), offsets, gaps, tfs, block_ends):
        if sys.byteorder == "big":
            section = array(section.typecode, section)  # the index keeps its own
            section.byteswap()
        yield packer.compress(section)
    strings = [index.corpus.source_digest, _TOKEN_RE.pattern, unicodedata.unidata_version,
               *index.tokens, *index.tokens.values()]
    yield packer.compress(("\n".join(strings) + "\n").encode("utf-8"))
    yield packer.flush()
    yield from blocks


def _text_blocks(texts: Sequence[str]) -> list[bytes]:
    """The texts in blocks of TEXT_BLOCK sentences, each its own zlib stream,
    made a block at a time, so no second copy of the corpus text is held."""
    blocks, primed, read = [], None, iter(texts)
    for _ in range(0, len(texts), TEXT_BLOCK):
        text = ("\n".join(islice(read, TEXT_BLOCK)) + "\n").encode("utf-8")
        packer = zlib.compressobj(1) if primed is None else primed.copy()
        blocks.append(packer.compress(text) + packer.flush())
        if primed is None:  # copied for every later block, its dictionary set once
            primed = zlib.compressobj(1, zdict=text[-_WINDOW:])
    return blocks


def load_snapshot(path: str | Path) -> InvertedIndex:
    """The index a snapshot holds, with its stored postings (see above)."""
    try:
        counts, strings, doc_len, offsets, gaps, tfs, texts = _read_sections(path)
    except (struct.error, UnicodeDecodeError, zlib.error) as exc:
        raise SnapshotError(f"{path}: malformed snapshot body: {exc}") from exc
    n_docs, n_terms, n_tokens = counts
    source_digest, pattern, unidata_version = strings[:3]
    if pattern != _TOKEN_RE.pattern:
        raise _refused(path, f"its token pattern {pattern!r} is not {_TOKEN_RE.pattern!r}")
    if unidata_version != unicodedata.unidata_version:
        raise _refused(path, f"its Unicode version {unidata_version} is not "
                             f"{unicodedata.unidata_version}")
    tokens = strings[3 : 3 + n_tokens]
    forms = strings[3 + n_tokens :]
    del strings
    loaded = list(map(_current_forms().__getitem__, tokens))
    if loaded != forms:
        token, stored, current = next((t, s, c) for t, s, c in zip(tokens, forms, loaded)
                                      if s != c)
        raise _refused(path, f"it stores the token {token!r} as {stored!r}, "
                             f"which now normalizes to {current!r}")
    # The terms are the loading memo's own strings; the table's copies and
    # the file's buffers are gone before the postings are checked.
    del tokens, forms
    terms = sorted(set(loaded).difference(("",)))
    del loaded
    if len(terms) != n_terms or offsets[0] != 0 or offsets[-1] != len(gaps):
        raise SnapshotError(f"{path}: term offsets disagree with the tokenizer table")
    if any(map(ge, offsets, islice(offsets, 1, None))):
        raise SnapshotError(f"{path}: term offsets not strictly increasing")
    # With one-byte tfs, `in` on their bytes is a memchr; on the array it
    # makes an int of every tf.
    if 0 in (tfs.tobytes() if tfs.itemsize == 1 else tfs) or sum(tfs) != sum(doc_len):
        raise SnapshotError(f"{path}: term frequencies disagree with the sentence lengths")
    # Every doc id is checked here, in two C-level scans of the gaps, so a
    # bad snapshot fails at load though a term's dict is built only when
    # read.  A gap of 0 is a first id of -1 or an id that does not ascend;
    # a term's gap sum is its last id + 1.
    if 0 in gaps:
        at = gaps.index(0)
        t = bisect_right(offsets, at) - 1
        if at == offsets[t]:
            raise SnapshotError(f"{path}: doc id out of range in the postings of {terms[t]!r}")
        raise SnapshotError(f"{path}: repeated doc id in the postings of {terms[t]!r}")
    per_term = map(gaps.__getitem__, map(slice, offsets, islice(offsets, 1, None)))
    if max(map(sum, per_term), default=0) > n_docs:
        raise SnapshotError(f"{path}: doc id out of range in the postings")
    index = InvertedIndex(Corpus(texts, source_digest), terms, offsets, gaps, tfs,
                          doc_len.tolist(), None)
    texts.docs = index.postings.docs
    return index


def _refused(path, reason: str) -> SnapshotError:
    """The error for a snapshot this version reads only once it is rebuilt."""
    return SnapshotError(f"{path}: {reason}; rebuild it with `hopkit index build`")


class _BlockTexts(Sequence):
    """A loaded corpus's sentence texts, kept in the snapshot's text blocks
    until read (see the format comment above).  A block is inflated,
    checked and split into its texts when one of its sentences is first
    read; it must inflate to exactly its bytes, as UTF-8, and hold exactly
    its sentences, or SnapshotError is raised.  ``docs`` is its index's
    list of doc-id ints (see _PackedPostings), set by load_snapshot, so the
    text map holds the ints the postings hold.  ``==`` compares by
    identity, since a Sequence defines no other, so no answer comes from
    the blocks read so far."""

    def __init__(self, path, n_docs: int, size: int, ends: array, region: bytes):
        self.path, self.n_docs, self.size, self.ends, self.region = (
            path, n_docs, size, ends, region)
        self.docs: list | None = None  # set by load_snapshot
        self._blocks = Memo(self._inflate)
        self._zdict = b""  # the first block's text, once it is read

    def __len__(self) -> int:
        return self.n_docs

    def __getitem__(self, sid: int) -> str:
        if not 0 <= sid < self.n_docs:
            sid = range(self.n_docs)[sid]  # a negative id, or IndexError
        return self._blocks[sid // self.size][sid % self.size]

    def __iter__(self) -> Iterator[str]:
        return chain.from_iterable(map(self._blocks.__getitem__, range(len(self.ends) - 1)))

    def ids(self) -> dict[str, int]:
        """Each text's id, read from every block; the texts must be distinct."""
        by_text = dict(zip(self, islice(self.docs, 1, None)))
        if len(by_text) != self.n_docs:
            raise SnapshotError(f"{self.path}: duplicate sentences in snapshot")
        return by_text

    def _inflate(self, block: int) -> list[str]:
        if block:
            self._blocks[0]  # its text is the dictionary of every later block
            unpacker = zlib.decompressobj(zdict=self._zdict)
        else:
            unpacker = zlib.decompressobj()
        count = min(self.size, self.n_docs - block * self.size)
        try:
            data = unpacker.decompress(self.region[self.ends[block] : self.ends[block + 1]])
            texts = str(data, "utf-8").split("\n")
        except (zlib.error, UnicodeDecodeError) as exc:
            raise SnapshotError(f"{self.path}: malformed text block {block}: {exc}") from exc
        if not unpacker.eof or unpacker.unused_data or texts.pop() or len(texts) != count:
            raise SnapshotError(f"{self.path}: text block {block} does not hold exactly "
                                f"its {count} sentences")
        if not block:
            self._zdict = data[-_WINDOW:]
        return texts


def _read_sections(path) -> tuple:
    """((n_docs, n_terms, n_tokens), strings, doc_len, offsets, gaps, tfs,
    texts) of a snapshot whose sections fill its zlib stream exactly and
    whose text blocks fill the rest of the file.  The file's bytes and the
    decompressed stream are dropped when this returns; the texts keep the
    blocks' bytes."""
    raw = Path(path).read_bytes()
    if raw[: len(MAGIC)] != MAGIC:
        raise _refused(path, f"not a {MAGIC!r} index snapshot (bad magic {raw[: len(MAGIC)]!r})")
    stream = memoryview(raw)[len(MAGIC) + 32 :]
    if hashlib.sha256(stream).digest() != raw[len(MAGIC) : len(MAGIC) + 32]:
        raise SnapshotError(f"{path}: checksum mismatch, snapshot corrupt")
    unpacker = zlib.decompressobj()
    body = memoryview(unpacker.decompress(stream))
    if not unpacker.eof:
        raise SnapshotError(f"{path}: snapshot body truncated")
    region = unpacker.unused_data
    (n_docs, n_terms, n_postings, n_tokens, id_width, tf_width,
     block_size) = _HEADER.unpack_from(body)
    if id_width not in _TYPECODES or tf_width not in _TYPECODES:
        raise SnapshotError(f"{path}: id or tf width ({id_width}, {tf_width}) not 1, 2 or 4")
    if block_size < 1:
        raise SnapshotError(f"{path}: text blocks of {block_size} sentences")
    widths = (4, 4, id_width, tf_width, 4)
    counts = (n_docs, n_terms + 1, n_postings, n_postings, -(-n_docs // block_size) + 1)
    ends = list(accumulate(map(mul, widths, counts), initial=_HEADER.size))
    if ends[-1] > len(body):
        raise SnapshotError(f"{path}: section lengths disagree with the body's {len(body)} bytes")
    sections = []
    for width, start, end in zip(widths, ends, ends[1:]):
        section = array(_TYPECODES[width])
        section.frombytes(body[start:end])
        if sys.byteorder == "big":
            section.byteswap()
        sections.append(section)
    strings = str(body[ends[-1] :], "utf-8").split("\n")
    if len(strings) != 4 + 2 * n_tokens or strings.pop():
        raise SnapshotError(f"{path}: section lengths disagree with the body's {len(body)} bytes")
    block_ends = sections.pop()
    if block_ends[0] != 0 or any(map(ge, block_ends, islice(block_ends, 1, None))):
        raise SnapshotError(f"{path}: text block offsets not strictly increasing from 0")
    if block_ends[-1] > len(region):
        raise SnapshotError(f"{path}: snapshot text blocks truncated")
    if block_ends[-1] < len(region):
        raise SnapshotError(f"{path}: {len(region) - block_ends[-1]} trailing bytes after the body")
    texts = _BlockTexts(path, n_docs, block_size, block_ends, region)
    return (n_docs, n_terms, n_tokens), strings, *sections, texts
