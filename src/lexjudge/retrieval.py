"""Lexical retrieval: tokenizers, BM25 index rows, bm25_score and rank_by_score.

Demonstration matching (top_k_rank) and the default pair pre-ranker both
score with bm25_score over an index's rows and rank with rank_by_score, so
every ranking is deterministic: scores rounded to 12 significant digits,
descending, ties broken by an ascending key.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from functools import reduce
from operator import add
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


def build_bm25_index(
    docs: Mapping[str, Sequence[str]],
    k1: float = 1.2,
    b: float = 0.75,
) -> dict[str, dict[str, float]]:
    """Index pre-tokenized documents keyed by doc id: the BM25 index's rows.

    rows[doc_id][term] is the BM25 summand of one occurrence of term in a
    query scored against doc_id, computed once here; equal weights share one
    float object. Every indexed document has a row, an empty one when it has
    no tokens. Scores use the Robertson/Sparck-Jones idf
    ln(1 + (N - n + 0.5)/(n + 0.5)), which never goes negative. The term
    frequencies are needed only to weigh each (term, document) once, so they
    stay local to the build.
    """
    if k1 < 0 or not 0 <= b <= 1:
        raise DomainError(f"bad BM25 parameters k1={k1} b={b}")
    tfs = {doc_id: Counter(tokens) for doc_id, tokens in docs.items()}
    doc_counts = Counter(term for doc_tfs in tfs.values() for term in doc_tfs)
    count = len(tfs)
    avg_len = (sum(map(len, docs.values())) / count) if count else 0.0
    idfs: dict[int, float] = {}  # idf depends on the term's document count alone
    shared: dict[float, float] = {}
    rows: dict[str, dict[str, float]] = {}
    for doc_id, doc_tfs in tfs.items():
        norm = k1 * (1.0 - b + b * len(docs[doc_id]) / avg_len) if avg_len > 0 else k1
        row = rows[doc_id] = {}
        for term, tf in doc_tfs.items():
            n = doc_counts[term]
            idf = idfs.get(n) or idfs.setdefault(n, math.log(1.0 + (count - n + 0.5) / (n + 0.5)))
            weight = idf * tf * (k1 + 1.0) / (tf + norm)
            row[term] = shared.setdefault(weight, weight)
    return rows


def bm25_score(row: Mapping[str, float], query_tokens: Iterable[str]) -> float:
    """A document's BM25 score: its row's weight of each query token, added left to right in query order.

    A repeated query term counts once per occurrence; a term absent from
    the row adds nothing. Every BM25 score in the package is this sum.
    """
    return reduce(add, filter(None, map(row.get, query_tokens)), 0.0)


def top_k_rank(
    rows: Mapping[str, Mapping[str, float]], query_tokens: Sequence[str], k: int
) -> list[tuple[str, float]]:
    """Top-k of build_bm25_index's rows by BM25 score, ties broken by ascending doc id."""
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    scored = ((doc_id, bm25_score(row, query_tokens)) for doc_id, row in rows.items())
    return rank_by_score(scored, str)[:k]
