"""Independent reference implementations used to verify the package.

Everything here is written directly from the contracted formulas and rules,
without importing package internals, so agreement between the two is
meaningful evidence rather than a tautology.
"""

from __future__ import annotations

import json
import math
import unicodedata
from itertools import permutations


# -- tokenization -------------------------------------------------------------

_CJK_SPANS = ((0x4E00, 0x9FFF), (0x3400, 0x4DBF), (0xF900, 0xFAFF), (0x20000, 0x2FA1F))


def cjk(ch: str) -> bool:
    code = ord(ch)
    for lo, hi in _CJK_SPANS:
        if lo <= code <= hi:
            return True
    return False


def bigram_tokens(text: str) -> list[str]:
    """Reference CJK-bigram tokenizer: an index-walking scanner.

    CJK runs become overlapping bigrams (a single-character run stays a
    unigram); maximal non-CJK stretches are split on whitespace.
    """
    out: list[str] = []
    i, n = 0, len(text)
    while i < n:
        if cjk(text[i]):
            j = i
            while j < n and cjk(text[j]):
                j += 1
            run = text[i:j]
            if len(run) == 1:
                out.append(run)
            else:
                out.extend(run[a : a + 2] for a in range(len(run) - 1))
            i = j
        else:
            j = i
            while j < n and not cjk(text[j]):
                j += 1
            out.extend(text[i:j].split())
            i = j
    return out


# -- BM25 ---------------------------------------------------------------------


def bm25_score_oracle(
    docs: dict[str, list[str]], query: list[str], doc_id: str, k1: float, b: float
) -> float:
    """Direct evaluation of the scoring formula, no index structure."""
    n_docs = len(docs)
    avg_len = sum(len(tokens) for tokens in docs.values()) / n_docs
    doc = docs[doc_id]
    length = len(doc)
    total = 0.0
    for term in query:
        tf = doc.count(term)
        if tf == 0:
            continue
        containing = sum(1 for tokens in docs.values() if term in tokens)
        idf = math.log(1.0 + (n_docs - containing + 0.5) / (containing + 0.5))
        total += idf * tf * (k1 + 1.0) / (tf + k1 * (1.0 - b + b * length / avg_len))
    return total


def twelve_sig(x: float) -> float:
    if x == 0.0:
        return 0.0
    return float(f"{x:.11e}")


def rank_oracle(
    docs: dict[str, list[str]], query: list[str], k: int, k1: float, b: float
) -> list[tuple[str, float]]:
    scored = [
        (doc_id, bm25_score_oracle(docs, query, doc_id, k1, b)) for doc_id in docs
    ]
    scored.sort(key=lambda item: (-twelve_sig(item[1]), item[0]))
    return scored[: min(k, len(scored))]


def selection_oracle(ranked: list, stage: str, k: int) -> list:
    """The demos one stage call takes from a set's ranking (best first).

    An FE call takes the first k. An FA call filters the whole ranking by
    polarity and takes the first k relevant, then the first k irrelevant.
    """
    if stage == "FE":
        return ranked[:k]
    return [d for d in ranked if d.polarity == "relevant"][:k] + [d for d in ranked if d.polarity == "irrelevant"][:k]


# -- Cohen's kappa ------------------------------------------------------------


def kappa_oracle(a: list, b: list) -> float:
    """Kappa from first principles over the union of observed classes."""
    assert len(a) == len(b) and a
    n = len(a)
    classes = sorted(set(a) | set(b))
    p_o = sum(1 for x, y in zip(a, b) if x == y) / n
    p_e = 0.0
    for cls in classes:
        p_e += (a.count(cls) / n) * (b.count(cls) / n)
    if p_e == 1.0:
        return 1.0  # both raters constant on the same class
    return (p_o - p_e) / (1.0 - p_e)


def kappa_is_degenerate(a: list, b: list) -> bool:
    """True when both raters are constant but on different classes."""
    return len(set(a)) == 1 and len(set(b)) == 1 and a[0] != b[0]


# -- NDCG ---------------------------------------------------------------------


def dcg_oracle(labels: list[int]) -> float:
    return sum(
        (2**rel - 1) / math.log2(position + 1)
        for position, rel in enumerate(labels, start=1)
    )


def ndcg_oracle(run_labels: list[int], pool_labels: list[int], k: int) -> float | None:
    """NDCG by exhaustively maximizing DCG over every ordering of the pool.

    run_labels: gold labels of the returned candidates, in run order.
    pool_labels: gold labels of the query's whole assessment pool (the ideal
    ranking may use any of them). Returns None when no ordering of the pool
    earns positive DCG (the skip case).
    """
    best = max(dcg_oracle(list(p)[:k]) for p in permutations(pool_labels))
    if best == 0.0:
        return None
    return dcg_oracle(run_labels[:k]) / best


# -- mock-judge rules and label composition -----------------------------------


def punctuation_to_spaces(text: str) -> str:
    """Replace each punctuation character (Unicode category P*) by a space."""
    cleaned = []
    for ch in text:
        cleaned.append(" " if unicodedata.category(ch).startswith("P") else ch)
    return "".join(cleaned)


def normalized_tokens(text: str) -> list[str]:
    """NFC, punctuation to spaces, bigram tokens, first-seen dedup."""
    tokens = []
    seen = set()
    for token in bigram_tokens(punctuation_to_spaces(unicodedata.normalize("NFC", text))):
        if token not in seen:
            seen.add(token)
            tokens.append(token)
    return tokens


def jaccard_oracle(a: set[str], b: set[str]) -> float:
    if not a and not b:
        return 1.0
    return len(a & b) / len(a | b)


def mock_label_oracle(
    query_text: str, cand_text: str, lexicon: set[str], threshold: float = 0.4
) -> int:
    """Final 0-3 label the staged mock pipeline must produce for a pair."""
    q_tokens = set(normalized_tokens(query_text))
    c_tokens = set(normalized_tokens(cand_text))
    mf = 1 if jaccard_oracle(q_tokens, c_tokens) >= threshold else 0
    q_tags = q_tokens & lexicon
    c_tags = c_tokens & lexicon
    lf = 1 if q_tags & c_tags else 0
    return mf + 2 * lf


# -- quota arithmetic ---------------------------------------------------------


def quota_oracle(size: int, fractions: dict[int, float]) -> dict[int, int]:
    """Largest-remainder apportionment; ties go to the smaller label."""
    floors = {}
    remainders = []
    for label, fraction in fractions.items():
        exact = size * fraction
        floors[label] = int(exact)
        remainders.append((-(exact - int(exact)), label))
    short = size - sum(floors.values())
    remainders.sort()
    for _, label in remainders[:short]:
        floors[label] += 1
    return floors


# -- record lines -------------------------------------------------------------


def record_line_oracle(record) -> str:
    """A records-file line as the generic encoder writes the record's dict view."""
    return json.dumps(record.to_dict(), ensure_ascii=False) + "\n"
