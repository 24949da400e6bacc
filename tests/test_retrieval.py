"""Tokenizer, BM25 index rows, and ranking behavior against the reference oracle."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lexjudge.errors import DomainError
from lexjudge.retrieval import (
    TOKENIZER_MODES,
    bm25_score,
    build_bm25_index,
    rank_by_score,
    round_sig,
    tokenize,
    top_k_rank,
)

from conftest import MIXED_TEXT
from oracles import bigram_tokens, bm25_score_oracle, rank_oracle, twelve_sig


class TestTokenize:
    def test_whitespace_mode(self):
        assert tokenize("a b  c", "whitespace") == ["a", "b", "c"]

    def test_empty(self):
        assert tokenize("", "whitespace") == []
        assert tokenize("", "cjk_bigram") == []

    def test_three_char_run_gives_two_bigrams(self):
        assert tokenize("盗窃罪", "cjk_bigram") == ["盗窃", "窃罪"]

    def test_singleton_run_stays_unigram(self):
        assert tokenize("盗", "cjk_bigram") == ["盗"]

    def test_mixed_scripts(self):
        assert tokenize("abc盗窃def", "cjk_bigram") == ["abc", "盗窃", "def"]

    def test_whitespace_between_runs_restarts_bigrams(self):
        assert tokenize("盗窃 罪名", "cjk_bigram") == ["盗窃", "罪名"]

    @given(MIXED_TEXT)
    @settings(max_examples=200)
    def test_matches_reference_scanner(self, text):
        assert tokenize(text, "cjk_bigram") == bigram_tokens(text)

    @given(MIXED_TEXT)
    @settings(max_examples=100)
    def test_no_empty_tokens(self, text):
        assert all(tokenize(text, "cjk_bigram"))

    @pytest.mark.parametrize("mode", TOKENIZER_MODES)
    @given(a=MIXED_TEXT, b=MIXED_TEXT)
    @settings(max_examples=200)
    def test_newline_join_concatenates_tokens(self, mode, a, b):
        assert tokenize(f"{a}\n{b}", mode) == tokenize(a, mode) + tokenize(b, mode)

    def test_unknown_mode(self):
        with pytest.raises(DomainError):
            tokenize("x", "stemmed")

    def test_is_cjk_spans(self):
        # A CJK character splits the word it sits in; any other character does not.
        for ch in ("盗", "㐀", "\U00020000"):
            assert tokenize(f"a{ch}b", "cjk_bigram") == ["a", ch, "b"]
        for ch in ("a", "。"):
            assert tokenize(f"a{ch}b", "cjk_bigram") == [f"a{ch}b"]


class TestRoundSig:
    def test_zero(self):
        assert round_sig(0.0) == 0.0

    def test_twelve_digits(self):
        assert round_sig(1.2345678901234567) == 1.23456789012

    def test_matches_oracle_formatting(self):
        for x in (3.14159, 1e-9, 123456.789, 2.0 / 3.0):
            assert round_sig(x) == twelve_sig(x)


def random_docs(rng: random.Random, max_docs: int = 32) -> dict[str, list[str]]:
    vocabulary = [f"t{i}" for i in range(20)]
    n = rng.randint(1, max_docs)
    return {
        f"d{i:02d}": [rng.choice(vocabulary) for _ in range(rng.randint(1, 30))]
        for i in range(n)
    }


def rank_score(rows: dict[str, dict[str, float]], query: list[str], doc_id: str) -> float:
    """doc_id's score as top_k_rank reports it when ranking every document."""
    return dict(top_k_rank(rows, query, len(rows)))[doc_id]


class TestBm25:
    def test_bad_params(self):
        with pytest.raises(DomainError):
            build_bm25_index({"d": ["a"]}, k1=-0.1)
        with pytest.raises(DomainError):
            build_bm25_index({"d": ["a"]}, b=1.5)

    def test_absent_query_terms_score_zero(self):
        rows = build_bm25_index({"d1": ["a", "b"], "d2": ["c"]})
        assert rank_score(rows, ["zz", "qq"], "d1") == 0.0

    def test_single_doc_hand_value(self):
        # One document ["law", "law", "fact"], query ["law"], k1=1.2, b=0.75.
        # idf = ln(1 + (1 - 1 + 0.5) / (1 + 0.5)) = ln(4/3)
        # tf = 2, len = avglen = 3 so the length norm collapses to k1.
        # score = idf * 2 * 2.2 / (2 + 1.2)
        rows = build_bm25_index({"d1": ["law", "law", "fact"]})
        expected = math.log(1 + 0.5 / 1.5) * 2 * 2.2 / 3.2
        assert rank_score(rows, ["law"], "d1") == pytest.approx(expected, abs=1e-15)

    def test_repeated_query_term_scores_per_occurrence(self):
        rows = build_bm25_index({"d1": ["a", "b"], "d2": ["b"]})
        single = rank_score(rows, ["a"], "d1")
        double = rank_score(rows, ["a", "a"], "d1")
        assert double == pytest.approx(2 * single, rel=1e-12)

    def test_query_permutation_invariance(self):
        rng = random.Random(11)
        for _ in range(50):
            docs = random_docs(rng, max_docs=8)
            rows = build_bm25_index(docs)
            query = [f"t{rng.randint(0, 19)}" for _ in range(5)]
            shuffled = query[:]
            rng.shuffle(shuffled)
            doc_id = rng.choice(list(docs))
            assert rank_score(rows, query, doc_id) == pytest.approx(
                rank_score(rows, shuffled, doc_id), rel=1e-12
            )

    def test_doubling_tf_never_decreases_score(self):
        rng = random.Random(7)
        for _ in range(100):
            docs = random_docs(rng, max_docs=6)
            doc_id = rng.choice(list(docs))
            term = f"t{rng.randint(0, 19)}"
            query = [term]
            base = rank_score(build_bm25_index(docs), query, doc_id)
            boosted_docs = dict(docs)
            boosted_docs[doc_id] = docs[doc_id] + [term] * max(
                1, docs[doc_id].count(term)
            )
            boosted = rank_score(build_bm25_index(boosted_docs), query, doc_id)
            assert boosted >= base - 1e-12

    def test_scores_match_oracle(self):
        rng = random.Random(23)
        for _ in range(100):
            docs = random_docs(rng, max_docs=10)
            k1 = rng.choice([0.8, 1.2, 2.0])
            b = rng.choice([0.0, 0.4, 0.75, 1.0])
            rows = build_bm25_index(docs, k1=k1, b=b)
            query = [f"t{rng.randint(0, 19)}" for _ in range(rng.randint(0, 6))]
            for doc_id in docs:
                assert rank_score(rows, query, doc_id) == bm25_score_oracle(docs, query, doc_id, k1, b)


DOCS = st.dictionaries(
    st.sampled_from([f"d{i}" for i in range(8)]),
    st.lists(st.sampled_from([f"t{i}" for i in range(6)]), max_size=12),
    max_size=8,
)
# k1 = 0 and b = 0 are the edges: no tf saturation, no length normalization.
BM25_PARAMS = st.sampled_from([(1.2, 0.75), (0.0, 0.75), (1.2, 0.0), (0.0, 0.0), (0.9, 1.0), (1.2, 0.7)])


class TestIndexWeights:
    @given(DOCS, BM25_PARAMS)
    @example({"d0": [], "d1": ["t0"]}, (1.2, 0.75))
    @settings(max_examples=300)
    def test_each_weight_is_the_summand_bm25_score_adds(self, docs, params):
        k1, b = params
        rows = build_bm25_index(docs, k1=k1, b=b)
        assert list(rows) == list(docs)  # a document with no tokens has an empty row
        for doc_id, row in rows.items():
            assert row.keys() == set(docs[doc_id])
            for term, weight in row.items():
                # 0.0 + summand is the summand, so a one-term query adds exactly the weight.
                assert weight == bm25_score_oracle(docs, [term], doc_id, k1, b)

    @given(DOCS, BM25_PARAMS)
    @settings(max_examples=100)
    def test_equal_weights_are_one_object(self, docs, params):
        rows = build_bm25_index(docs, k1=params[0], b=params[1])
        weights = [w for row in rows.values() for w in row.values()]
        assert len(set(map(id, weights))) == len(set(weights))


class TestBm25Score:
    def test_adds_left_to_right_in_query_order(self):
        # 1e16 + 1.0 rounds back to 1e16, so adding left to right keeps 1e16. Adding the
        # two 1.0s first, or a compensated sum such as Python 3.12's sum(), gives 1e16 + 2.
        rows = {"d": {"a": 1e16, "b": 1.0}}
        assert bm25_score(rows["d"], ["a", "b", "b"]) == 1e16
        assert top_k_rank(rows, ["a", "b", "b"], 1) == [("d", 1e16)]
        assert bm25_score(rows["d"], ["b", "b", "a"]) == 1e16 + 2


class TestRankByScore:
    def test_scores_equal_to_twelve_digits_tie_and_break_on_the_key(self):
        scored = [("b", 1.0), ("c", 1.0 + 1e-13), ("a", 1.0 - 1e-13), ("z", 2.0), ("y", 0.0)]
        assert [item for item, _ in rank_by_score(scored, str)] == ["z", "a", "b", "c", "y"]

    def test_tie_key_decides_only_among_ties(self):
        scored = [(("x", 2), 1.0), (("x", 1), 1.0), (("a", 9), 0.5)]
        ranked = rank_by_score(scored, lambda item: item[1])
        assert ranked == [(("x", 1), 1.0), (("x", 2), 1.0), (("a", 9), 0.5)]


class TestTopK:
    def test_dominant_doc_first(self):
        rows = build_bm25_index({"d1": ["theft"], "d2": ["arson"]})
        ranked = top_k_rank(rows, ["theft"], 2)
        assert ranked[0][0] == "d1"

    def test_k_exceeding_doc_count(self):
        rows = build_bm25_index({f"d{i}": ["x"] for i in range(3)})
        assert len(top_k_rank(rows, ["x"], 10)) == 3

    def test_k_below_one(self):
        rows = build_bm25_index({"d": ["x"]})
        with pytest.raises(DomainError):
            top_k_rank(rows, ["x"], 0)

    def test_zero_score_ties_break_by_doc_id(self):
        rows = build_bm25_index({"b": ["x"], "a": ["y"], "c": ["z"]})
        ranked = top_k_rank(rows, ["absent"], 3)
        assert [doc for doc, _ in ranked] == ["a", "b", "c"]

    def test_matches_brute_force_oracle(self):
        rng = random.Random(99)
        for _ in range(200):
            docs = random_docs(rng)
            k1 = rng.choice([0.8, 1.2, 2.0])
            b = rng.choice([0.0, 0.4, 0.75, 1.0])
            rows = build_bm25_index(docs, k1=k1, b=b)
            query = [f"t{rng.randint(0, 19)}" for _ in range(rng.randint(0, 8))]
            k = rng.randint(1, 10)
            got = top_k_rank(rows, query, k)
            want = rank_oracle(docs, query, k, k1, b)
            assert [doc for doc, _ in got] == [doc for doc, _ in want]
            assert got == want


class TestIndexState:
    def test_reindex_equals_fresh_build(self):
        docs = {"d1": ["a", "b"], "d2": ["b", "c"]}
        first = build_bm25_index(docs)
        extended = dict(docs)
        extended["d3"] = ["z"]
        rebuilt = build_bm25_index(extended)
        assert list(rebuilt) == ["d1", "d2", "d3"]
        # The same documents now hold "b" in 2 of 3 rather than 2 of 2, so its idf and weights move.
        assert rebuilt["d1"].keys() == first["d1"].keys()
        assert rebuilt["d1"]["b"] != first["d1"]["b"]
        for doc_id in docs:
            assert rank_score(rebuilt, ["b"], doc_id) == bm25_score_oracle(extended, ["b"], doc_id, 1.2, 0.75)

    def test_empty_index_unscorable(self):
        rows = build_bm25_index({})
        assert rows == {}
        assert top_k_rank(rows, ["a"], 3) == []

    def test_hand_built_rows_rank(self):
        rows = {"d": {"a": 0.5}, "e": {}}
        assert top_k_rank(rows, ["a", "missing", "a"], 2) == [("d", 1.0), ("e", 0.0)]
