"""Lexical retrieval: tokenizers, a BM25 index and rank_by_score, the one ranking order.

Demonstration matching (top_k_rank) and the default pair pre-ranker both
rank with rank_by_score, so every ranking is deterministic: scores rounded
to 12 significant digits, descending, ties broken by an ascending key.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

from .errors import DomainError

TOKENIZER_MODES = ("whitespace", "cjk_bigram")

_CJK_RANGES = (
    (0x4E00, 0x9FFF),    # unified ideographs
    (0x3400, 0x4DBF),    # extension A
    (0xF900, 0xFAFF),    # compatibility ideographs
    (0x20000, 0x2FA1F),  # extensions B and beyond
)


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


def rank_by_score(scored: Iterable[tuple], tie_key: Callable) -> list[tuple]:
    """(item, score) pairs best first: rounded score descending, then tie_key(item) ascending."""
    return sorted(scored, key=lambda pair: (-round_sig(pair[1]), tie_key(pair[0])))


@dataclass
class Bm25Index:
    """A BM25 index reduced to what ranking reads.

    weights[term][doc_id] is the BM25 summand of one occurrence of term in
    a query scored against doc_id, computed once by build_bm25_index; equal
    weights share one float object. doc_ids holds every indexed document,
    including those no term reaches.
    """

    weights: dict[str, dict[str, float]] = field(repr=False)
    doc_ids: tuple[str, ...]


def _idf(doc_count: int, n: int) -> float:
    return math.log(1.0 + (doc_count - n + 0.5) / (n + 0.5))


def _length_norm(k1: float, b: float, doc_len: int, avg_doc_len: float) -> float:
    if avg_doc_len > 0:
        return k1 * (1.0 - b + b * doc_len / avg_doc_len)
    return k1


def bm25_weight(idf: float, tf: int, k1: float, norm: float) -> float:
    """One (term, document) BM25 summand; the index and one_document_weights both take it from here."""
    return idf * tf * (k1 + 1.0) / (tf + norm)


def build_bm25_index(
    docs: Mapping[str, Sequence[str]],
    k1: float = 1.2,
    b: float = 0.75,
) -> Bm25Index:
    """Index pre-tokenized documents keyed by doc id.

    Scores use the Robertson/Sparck-Jones idf ln(1 + (N - n + 0.5)/(n + 0.5)),
    which never goes negative. The term frequencies are needed only to
    weigh each (term, document) once, so they stay local to the build.
    """
    if k1 < 0 or not 0 <= b <= 1:
        raise DomainError(f"bad BM25 parameters k1={k1} b={b}")
    tfs: dict[str, dict[str, int]] = {}
    doc_lens: dict[str, int] = {}
    for doc_id, tokens in docs.items():
        doc_lens[doc_id] = len(tokens)
        for term, tf in Counter(tokens).items():
            tfs.setdefault(term, {})[doc_id] = tf
    count = len(doc_lens)
    avg_len = (sum(doc_lens.values()) / count) if count else 0.0
    norms = {doc_id: _length_norm(k1, b, doc_len, avg_len) for doc_id, doc_len in doc_lens.items()}
    idfs: dict[int, float] = {}  # idf depends on the term's document count alone
    shared: dict[float, float] = {}
    weights: dict[str, dict[str, float]] = {}
    for term, doc_tfs in tfs.items():
        idf = idfs.get(len(doc_tfs)) or idfs.setdefault(len(doc_tfs), _idf(count, len(doc_tfs)))
        row = weights[term] = {}
        for doc_id, tf in doc_tfs.items():
            weight = bm25_weight(idf, tf, k1, norms[doc_id])
            row[doc_id] = shared.setdefault(weight, weight)
    return Bm25Index(weights=weights, doc_ids=tuple(doc_lens))


def one_document_weights(tokens: Sequence[str], k1: float, b: float) -> dict[str, float]:
    """{term: weight} of the one document of build_bm25_index({doc: tokens}), without the index.

    With one document every term's idf is _idf(1, 1) and the document has
    the average length, so a weight depends on its term's tf alone: each
    distinct tf is weighed once, with the index's own expressions, and its
    terms share that float.
    """
    counts = Counter(tokens)
    idf = _idf(1, 1)
    norm = _length_norm(k1, b, len(tokens), len(tokens) / 1)  # avg_doc_len as build_bm25_index takes it
    by_tf = {tf: bm25_weight(idf, tf, k1, norm) for tf in set(counts.values())}
    return {term: by_tf[tf] for term, tf in counts.items()}


def top_k_rank(index: Bm25Index, query_tokens: Sequence[str], k: int) -> list[tuple[str, float]]:
    """Top-k documents by BM25 score, ties broken by ascending doc id.

    One pass over the weights of the query terms: a document's score sums,
    in query order, the weight of each query token that occurs in it, so a
    repeated query term counts once per occurrence. Terms absent from the
    weights add nothing, so dropping them changes no score.
    """
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    scores = dict.fromkeys(index.doc_ids, 0.0)
    for term in query_tokens:
        for doc_id, weight in index.weights.get(term, {}).items():
            scores[doc_id] += weight
    return rank_by_score(scores.items(), str)[:k]
