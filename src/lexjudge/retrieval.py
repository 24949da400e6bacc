"""Lexical retrieval: tokenizers and a BM25 index.

The index backs both the adaptive demonstration matching and the default
pair pre-ranker, so scoring must stay deterministic: ranking comparisons
happen on scores rounded to 12 significant digits and ties break by
ascending doc id.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .errors import DomainError, UnknownDocError

TOKENIZER_MODES = ("whitespace", "cjk_bigram")

_CJK_RANGES = (
    (0x4E00, 0x9FFF),    # unified ideographs
    (0x3400, 0x4DBF),    # extension A
    (0xF900, 0xFAFF),    # compatibility ideographs
    (0x20000, 0x2FA1F),  # extensions B and beyond
)


def is_cjk(ch: str) -> bool:
    cp = ord(ch)
    return any(lo <= cp <= hi for lo, hi in _CJK_RANGES)


# One character class built from _CJK_RANGES; the capturing group makes
# re.split return CJK runs at odd indices and the stretches between them
# at even indices.
_CJK_RUN_SPLIT = re.compile(
    "([" + "".join(f"{chr(lo)}-{chr(hi)}" for lo, hi in _CJK_RANGES) + "]+)"
).split


def _cjk_bigram_tokens(text: str) -> list[str]:
    parts = _CJK_RUN_SPLIT(text)
    tokens = parts[0].split()
    for i in range(1, len(parts), 2):
        run = parts[i]
        if len(run) <= 2:  # a unigram, or a bigram that is the whole run
            tokens.append(run)
        else:
            tokens.extend(map(str.__add__, run[:-1], run[1:]))
        tokens.extend(parts[i + 1].split())
    return tokens


def tokenize(text: str, mode: str = "cjk_bigram") -> list[str]:
    """Split text into tokens under the given mode.

    whitespace: split on unicode whitespace. cjk_bigram: overlapping
    character bigrams inside CJK runs (a lone CJK character stays a
    unigram), whitespace tokens elsewhere.
    """
    if mode == "whitespace":
        return text.split()
    if mode == "cjk_bigram":
        return _cjk_bigram_tokens(text)
    raise DomainError(f"unknown tokenizer mode: {mode!r}")


def round_sig(x: float, digits: int = 12) -> float:
    """Round to a fixed number of significant digits; 0.0 stays 0.0."""
    if x == 0.0:
        return 0.0
    return float(f"{x:.{digits - 1}e}")


@dataclass
class Bm25Index:
    """Inverted index with BM25 scoring state.

    postings maps term -> {doc_id: term frequency}. Scores use the
    Robertson/Sparck-Jones idf ln(1 + (N - n + 0.5)/(n + 0.5)), which
    never goes negative. The idf of each term and the length norm of each
    document are computed once, when the index is built.
    """

    doc_count: int
    avg_doc_len: float
    postings: dict[str, dict[str, int]]
    doc_lens: dict[str, int]
    k1: float = 1.2
    b: float = 0.75
    _idf: dict[str, float] = field(default_factory=dict, repr=False)
    _norms: dict[str, float] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        for term, docs in self.postings.items():
            n = len(docs)
            self._idf[term] = math.log(1.0 + (self.doc_count - n + 0.5) / (n + 0.5))
        for doc_id, doc_len in self.doc_lens.items():
            self._norms[doc_id] = _length_norm(self, doc_len)

    def idf(self, term: str) -> float:
        return self._idf.get(term, 0.0)


def build_bm25_index(
    docs: Mapping[str, Sequence[str]],
    k1: float = 1.2,
    b: float = 0.75,
) -> Bm25Index:
    """Index pre-tokenized documents keyed by doc id."""
    if k1 < 0 or not 0 <= b <= 1:
        raise DomainError(f"bad BM25 parameters k1={k1} b={b}")
    postings: dict[str, dict[str, int]] = {}
    doc_lens: dict[str, int] = {}
    for doc_id, tokens in docs.items():
        doc_lens[doc_id] = len(tokens)
        for term, tf in Counter(tokens).items():
            postings.setdefault(term, {})[doc_id] = tf
    count = len(doc_lens)
    avg_len = (sum(doc_lens.values()) / count) if count else 0.0
    return Bm25Index(doc_count=count, avg_doc_len=avg_len, postings=postings, doc_lens=doc_lens, k1=k1, b=b)


def _length_norm(index: Bm25Index, doc_len: int) -> float:
    if index.avg_doc_len > 0:
        return index.k1 * (1.0 - index.b + index.b * doc_len / index.avg_doc_len)
    return index.k1


def bm25_score(index: Bm25Index, query_tokens: Iterable[str], doc_id: str) -> float:
    """Score one document against the query token sequence.

    The sum runs over query token occurrences, so a repeated query term
    contributes once per occurrence. Invariant under query permutation.
    """
    if doc_id not in index.doc_lens:
        raise UnknownDocError(f"doc id {doc_id!r} not in index")
    norm = index._norms[doc_id]
    score = 0.0
    for term in query_tokens:
        docs = index.postings.get(term)
        if not docs:
            continue
        tf = docs.get(doc_id)
        if not tf:
            continue
        score += index.idf(term) * tf * (index.k1 + 1.0) / (tf + norm)
    return score


def top_k_rank(index: Bm25Index, query_tokens: Sequence[str], k: int) -> list[tuple[str, float]]:
    """Top-k documents by BM25 score, ties broken by ascending doc id.

    One pass over the postings of the query terms. Each document's sum
    adds the same terms in the same order as bm25_score, so every score
    equals bm25_score(index, query_tokens, doc_id) exactly. Terms absent
    from the postings add nothing, so dropping them changes no score.
    """
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    k1 = index.k1
    norms = index._norms
    scores = dict.fromkeys(index.doc_lens, 0.0)
    for term in query_tokens:
        docs = index.postings.get(term)
        if not docs:
            continue
        idf = index.idf(term)
        for doc_id, tf in docs.items():
            scores[doc_id] += idf * tf * (k1 + 1.0) / (tf + norms[doc_id])
    scored = list(scores.items())
    scored.sort(key=lambda item: (-round_sig(item[1]), item[0]))
    return scored[: min(k, index.doc_count)]
