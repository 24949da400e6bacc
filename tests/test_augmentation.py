"""Pair sampling, pre-ranking, batch annotation, and dataset assembly."""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import itertools
import json
import logging
import random
import time
import weakref
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lexjudge.augmentation as augmentation

from lexjudge.augmentation import (
    Bm25PairScorer,
    CasePair,
    DatasetSpec,
    annotate_pairs,
    build_dataset,
    export_dataset,
    largest_remainder_quotas,
    load_pairs,
    parse_distribution,
    prerank_pairs,
    sample_pairs,
    save_pairs,
)
from lexjudge.corpus import Case, CaseStore
from lexjudge.demos import FactType, Stage
from lexjudge.engine import FactExtraction
from lexjudge.errors import (
    DomainError,
    ExhaustedError,
    InsufficientLabelError,
    IntegrityError,
    ParseError,
    ScorerError,
)
from lexjudge.gateway import JudgeResponse, MockJudge, MockJudgeConfig, mock_complete, mock_tokens, stage_of
from lexjudge.retrieval import tokenize

from conftest import FaultyOnPairJudge, RecordingJudge, fabricate_record, make_engine
from oracles import bm25_score_oracle, mock_label_oracle, quota_oracle, twelve_sig


def tiny_store(n=6, text=lambda i: f"case number {i} facts"):
    return CaseStore(Case(id=f"x{i}", fact_text=text(i)) for i in range(n))


class TestCasePair:
    def test_self_pair_rejected(self):
        with pytest.raises(DomainError):
            CasePair("aa", "aa")

    def test_non_canonical_construction_rejected(self):
        with pytest.raises(DomainError):
            CasePair("zz", "aa")


class TestSamplePairs:
    def test_exhaustive_three_case_universe(self):
        store = tiny_store(3)
        pairs = sample_pairs(store, 3, seed=0)
        assert {p.key() for p in pairs} == {("x0", "x1"), ("x0", "x2"), ("x1", "x2")}

    def test_deterministic_for_fixed_seed(self, toy_store_only):
        a = sample_pairs(toy_store_only, 30, seed=5)
        b = sample_pairs(toy_store_only, 30, seed=5)
        assert a == b

    def test_seed_changes_output(self, toy_store_only):
        a = sample_pairs(toy_store_only, 30, seed=0)
        b = sample_pairs(toy_store_only, 30, seed=1)
        assert a != b

    def test_oversize_request_rejected(self):
        store = tiny_store(3)
        with pytest.raises(ExhaustedError):
            sample_pairs(store, 4, seed=0)

    def test_negative_request_rejected(self):
        with pytest.raises(DomainError):
            sample_pairs(tiny_store(3), -1, seed=0)

    def test_zero_request(self):
        assert sample_pairs(tiny_store(3), 0, seed=0) == []

    def test_full_draw_enumerates_every_pair(self):
        # Drawing the whole universe must produce each pair exactly once,
        # which exercises the rank-to-pair mapping across all ranks.
        store = tiny_store(12)
        total = 12 * 11 // 2
        pairs = sample_pairs(store, total, seed=3)
        expected = {
            tuple(sorted(combo))
            for combo in itertools.combinations(sorted(store.ids()), 2)
        }
        assert {p.key() for p in pairs} == expected
        assert len(pairs) == total

    def test_independent_of_store_insertion_order(self):
        cases = [Case(id=f"x{i}", fact_text="t") for i in range(8)]
        forward = CaseStore(cases)
        backward = CaseStore(reversed(cases))
        assert sample_pairs(forward, 10, seed=2) == sample_pairs(backward, 10, seed=2)

    def test_pairs_are_distinct_and_canonical(self, toy_store_only):
        pairs = sample_pairs(toy_store_only, 200, seed=9)
        keys = [p.key() for p in pairs]
        assert len(set(keys)) == len(keys)
        for left, right in keys:
            assert left < right


class TestPairsFileRoundtrip:
    def test_roundtrip(self, tmp_path):
        pairs = sample_pairs(tiny_store(5), 6, seed=1)
        path = tmp_path / "pairs.json"
        save_pairs(path, pairs)
        assert load_pairs(path) == pairs

    def test_bad_json_rejected(self, tmp_path):
        path = tmp_path / "pairs.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ParseError):
            load_pairs(path)

    def test_non_array_rejected(self, tmp_path):
        path = tmp_path / "pairs.json"
        path.write_text('{"a": 1}', encoding="utf-8")
        with pytest.raises(ParseError):
            load_pairs(path)

    def test_malformed_item_rejected(self, tmp_path):
        path = tmp_path / "pairs.json"
        path.write_text('[["a", "b", "c"]]', encoding="utf-8")
        with pytest.raises(ParseError):
            load_pairs(path)

    def test_non_canonical_item_rejected(self, tmp_path):
        path = tmp_path / "pairs.json"
        path.write_text('[["zz", "aa"]]', encoding="utf-8")
        with pytest.raises(DomainError):
            load_pairs(path)

    def test_decomposed_ids_are_nfc_normalized(self, tmp_path):
        # Cases are NFC at ingest, so a pair spelled in NFD must name the same case.
        path = tmp_path / "pairs.json"
        path.write_text(json.dumps([["cafe\u0301", "x1"]]), encoding="utf-8")
        [pair] = load_pairs(path)
        assert pair == CasePair("caf\u00e9", "x1")
        store = CaseStore([Case(id="caf\u00e9", fact_text="a"), Case(id="x1", fact_text="b")])
        assert store.get(pair.left_id).fact_text == "a"


class ConstantScorer:
    def score(self, left, right):
        return 1.0


class ExplodingScorer:
    def score(self, left, right):
        raise RuntimeError("boom")


# Fragments that make tokens repeat within and across texts, in CJK runs
# (bigrams, lone characters), ASCII words and punctuation.
FACT_TEXT = st.lists(
    st.sampled_from(["盗窃", "罪", "案件", "被告人", "law", "fact", " law", "x", " ", "  ", "。", "，", ","]),
    max_size=30,
).map("".join)
# b = 0.7 and 0.9: k1 * (1 - b + b * n / n) differs from k1 in the last bit
# for some lengths n (0.7 at n = 3), so the length norm must not be folded.
BM25_PARAMS = st.sampled_from(
    [(1.2, 0.75), (0.9, 0.4), (2.0, 1.0), (1.5, 0.33), (0.0, 0.0), (0.0, 1.0), (1.2, 0.0),
     (1.2, 0.7), (0.8, 0.9)]
)


class TestBm25PairScorer:
    @given(FACT_TEXT, FACT_TEXT, BM25_PARAMS, st.sampled_from(["cjk_bigram", "whitespace"]))
    @example("law", "law fact fact", (1.2, 0.7), "whitespace")
    @settings(max_examples=300)
    def test_equals_one_document_bm25_exactly(self, left_text, right_text, params, mode):
        k1, b = params
        scorer = Bm25PairScorer(mode, k1, b)
        left, right = Case(id="l", fact_text=left_text), Case(id="r", fact_text=right_text)
        # Both orders, then the first again: memo entries serve both roles.
        for query, doc in ((left, right), (right, left), (left, right)):
            docs = {doc.id: tokenize(doc.fact_text, mode)}
            expected = bm25_score_oracle(docs, tokenize(query.fact_text, mode), doc.id, k1, b)
            assert scorer.score(query, doc) == expected

    @given(FACT_TEXT, BM25_PARAMS, st.sampled_from(["cjk_bigram", "whitespace"]))
    @settings(max_examples=200)
    def test_memo_entry_holds_one_float_per_distinct_tf(self, text, params, mode):
        scorer = Bm25PairScorer(mode, *params)
        case = Case(id="c", fact_text=text)
        scorer.score(case, case)
        tokens, summands = scorer._memo[text]
        assert summands.keys() == set(tokens)
        assert len(set(map(id, summands.values()))) <= len(set(Counter(tokens).values()))

    def test_bad_parameters_rejected(self):
        with pytest.raises(DomainError):
            Bm25PairScorer(k1=-0.1)
        with pytest.raises(DomainError):
            Bm25PairScorer(b=1.5)

    def test_is_freed_without_the_cycle_collector(self):
        scorer = Bm25PairScorer()
        assert scorer.score(Case(id="l", fact_text="被告人盗窃"), Case(id="r", fact_text="盗窃财物")) > 0
        freed = weakref.ref(scorer)
        gc.disable()
        try:
            del scorer
            assert freed() is None
        finally:
            gc.enable()

    def counting_tokenize(self, monkeypatch, fail_first: str | None = None):
        seen: Counter[str] = Counter()

        def counted(text, mode="cjk_bigram"):
            seen[text] += 1
            if text == fail_first and seen[text] == 1:
                raise RuntimeError("injected tokenizer failure")
            return tokenize(text, mode)

        monkeypatch.setattr(augmentation, "tokenize", counted)
        return seen

    def test_each_distinct_text_tokenized_once(self, toy_store_only, monkeypatch):
        store = toy_store_only
        pairs = sample_pairs(store, 200, seed=9)
        texts = {store.get(i).fact_text for pair in pairs for i in pair.key()}
        seen = self.counting_tokenize(monkeypatch)
        scorer = Bm25PairScorer()
        kept = prerank_pairs(pairs, store, scorer, top_n=50)
        assert seen == Counter(texts)
        seen.clear()
        assert prerank_pairs(pairs, store, scorer, top_n=50) == kept
        assert not seen

    def test_failed_tokenize_caches_nothing(self, monkeypatch):
        store = tiny_store(2, text=lambda i: ["law fact fact", "fact law"][i])
        pair = CasePair("x0", "x1")
        seen = self.counting_tokenize(monkeypatch, fail_first="law fact fact")
        scorer = Bm25PairScorer()
        with pytest.raises(ScorerError, match="injected"):
            prerank_pairs([pair], store, scorer, top_n=1)
        expected = bm25_score_oracle({"x1": ["fact", "law"]}, ["law", "fact", "fact"], "x1", 1.2, 0.75)
        assert scorer.score(store.get("x0"), store.get("x1")) == expected > 0
        assert seen["law fact fact"] == 2


class TestPrerank:
    def test_near_duplicates_beat_disjoint_pair(self, toy_corpus):
        store, pools, _ = toy_corpus
        qid = pools[0].query_id
        near = CasePair(*sorted((qid, pools[0].candidate_ids[0])))
        far = CasePair(*sorted((qid, pools[5].candidate_ids[0])))
        kept = prerank_pairs([far, near], store, Bm25PairScorer(), top_n=1)
        assert kept == [near]

    def test_order_matches_score_then_key_oracle(self, toy_store_only):
        pairs = sample_pairs(toy_store_only, 20, seed=11)
        scorer = Bm25PairScorer()
        expected = sorted(
            pairs,
            key=lambda p: (
                -twelve_sig(
                    scorer.score(
                        toy_store_only.get(p.left_id), toy_store_only.get(p.right_id)
                    )
                ),
                p.key(),
            ),
        )
        assert prerank_pairs(pairs, toy_store_only, scorer, top_n=20) == expected

    # sha256 of the `augment prerank` file and of every score's float.hex(),
    # 200 toy pairs (seed 0), top 60. One toy case repeats a bigram; every
    # other term has tf 1, whose one-document summand comes out the same
    # under both settings, so both give the same bytes.
    PRERANK_SHA256 = "d0974133a1e8718f3f841ec53473dba19be539aeda4907fcde8264da9308e7c7"
    SCORES_SHA256 = "9dc5ed50cf264c14d862ed5b0b60ecbded94dd10c15005b29d0db8a7eea110f4"

    @pytest.mark.parametrize("k1, b", [(1.2, 0.75), (0.9, 0.4)])
    def test_toy_prerank_matches_pinned_digests(self, k1, b, toy_store_only, tmp_path):
        store = toy_store_only
        pairs = sample_pairs(store, 200, seed=0)
        scorer = Bm25PairScorer("cjk_bigram", k1, b)
        save_pairs(tmp_path / "kept.json", prerank_pairs(pairs, store, scorer, top_n=60))
        assert hashlib.sha256((tmp_path / "kept.json").read_bytes()).hexdigest() == self.PRERANK_SHA256
        scores = [[*p.key(), scorer.score(store.get(p.left_id), store.get(p.right_id)).hex()] for p in pairs]
        assert hashlib.sha256(json.dumps(scores).encode()).hexdigest() == self.SCORES_SHA256

    @pytest.mark.parametrize("mode, top_n, warned", [
        ("whitespace", 60, True),  # unspaced CJK facts: every pair scores 0.0
        ("whitespace", 200, False),  # nothing is cut
        ("cjk_bigram", 60, False),
    ])
    def test_cut_on_all_zero_scores_warns(self, mode, top_n, warned, toy_store_only, caplog):
        pairs = sample_pairs(toy_store_only, 200, seed=0)
        with caplog.at_level(logging.WARNING, logger="lexjudge.augmentation"):
            kept = prerank_pairs(pairs, toy_store_only, Bm25PairScorer(mode), top_n=top_n)
        warnings = [m for m in caplog.messages if "scored 0.0" in m]
        assert warnings == (["all 200 pairs scored 0.0, so the 60 kept are the first by pair key; "
                             "a tokenizer mode that does not split the fact texts scores nothing"] if warned else [])
        if warned:
            assert kept == sorted(pairs, key=CasePair.key)[:top_n]

    def test_ties_break_on_pair_key(self):
        store = tiny_store(4)
        pairs = [CasePair("x1", "x3"), CasePair("x0", "x2"), CasePair("x0", "x1")]
        kept = prerank_pairs(pairs, store, ConstantScorer(), top_n=3)
        assert [p.key() for p in kept] == [("x0", "x1"), ("x0", "x2"), ("x1", "x3")]

    def test_top_n_beyond_input_returns_all(self):
        store = tiny_store(3)
        pairs = sample_pairs(store, 3, seed=0)
        assert len(prerank_pairs(pairs, store, ConstantScorer(), top_n=99)) == 3

    def test_negative_top_n_rejected(self):
        with pytest.raises(DomainError):
            prerank_pairs([], tiny_store(2), ConstantScorer(), top_n=-1)

    def test_scorer_failure_carries_pair_context(self):
        store = tiny_store(2)
        pair = CasePair("x0", "x1")
        with pytest.raises(ScorerError, match="x0"):
            prerank_pairs([pair], store, ExplodingScorer(), top_n=1)


class TestAnnotatePairs:
    def test_labels_match_rule_oracle(
        self, mock_judge, toy_library, toy_corpus, toy_lexicon, tmp_path
    ):
        store, _, _ = toy_corpus
        pairs = sample_pairs(store, 10, seed=4)
        engine = make_engine(mock_judge, toy_library)
        records = annotate_pairs(engine, store, pairs, tmp_path / "annotated.jsonl")
        assert len(records) == 10
        for pair, record in zip(pairs, records):
            assert (record.query_id, record.candidate_id) == pair.key()
            assert record.status == "ok"
            expected = mock_label_oracle(
                store.get(pair.left_id).fact_text,
                store.get(pair.right_id).fact_text,
                toy_lexicon,
            )
            assert record.label == expected

    def test_duplicate_pairs_judged_once(self, mock_judge, toy_library, toy_corpus, tmp_path):
        store, _, _ = toy_corpus
        pair_a = CasePair("c01a", "c01b")
        pair_b = CasePair("c02a", "c02b")
        engine = make_engine(mock_judge, toy_library)
        records = annotate_pairs(engine, store, [pair_a, pair_b, pair_a], tmp_path / "annotated.jsonl")
        assert [(r.query_id, r.candidate_id) for r in records] == [
            pair_a.key(),
            pair_b.key(),
        ]

    def test_empty_input(self, mock_judge, toy_library, toy_corpus, tmp_path):
        store, _, _ = toy_corpus
        engine = make_engine(mock_judge, toy_library)
        assert annotate_pairs(engine, store, [], tmp_path / "annotated.jsonl") == []

    def test_failed_pair_recorded_not_fatal(self, mock_cfg, toy_library, toy_corpus, tmp_path):
        store, _, _ = toy_corpus
        pairs = sample_pairs(store, 5, seed=8)
        victim = store.get(pairs[2].right_id)
        judge = FaultyOnPairJudge(
            mock_cfg, poisoned_fragment=" ".join(mock_tokens(victim.fact_text))
        )
        engine = make_engine(judge, toy_library, retry=0)
        records = annotate_pairs(engine, store, pairs, tmp_path / "annotated.jsonl")
        assert len(records) == 5
        assert records[2].status == "failed"
        assert all(r.status == "ok" for i, r in enumerate(records) if i != 2)

    def test_ok_line_wins_over_failed_lines_on_read(self, mock_cfg, mock_judge, toy_library, toy_corpus, tmp_path):
        store, _, _ = toy_corpus
        pairs = sample_pairs(store, 5, seed=3)
        checkpoint, oneshot = tmp_path / "progress.jsonl", tmp_path / "oneshot.jsonl"
        done = annotate_pairs(make_engine(mock_judge, toy_library), store, pairs, checkpoint_path=oneshot)
        victim = store.get(pairs[2].right_id)
        faulty = FaultyOnPairJudge(mock_cfg, poisoned_fragment=" ".join(mock_tokens(victim.fact_text)))
        annotate_pairs(make_engine(faulty, toy_library, retry=0), store, pairs[2:3], checkpoint_path=checkpoint)
        failed_line = checkpoint.read_text(encoding="utf-8")
        # A failed line on each side of the ok lines: the ok line is kept and nothing is judged.
        checkpoint.write_text(failed_line + oneshot.read_text(encoding="utf-8") + failed_line, encoding="utf-8")
        judge = RecordingJudge(mock_judge)
        assert annotate_pairs(make_engine(judge, toy_library), store, pairs, checkpoint_path=checkpoint) == done
        assert judge.user_texts == []
        lines = lambda path: sorted(path.read_text(encoding="utf-8").splitlines(keepends=True))
        assert lines(checkpoint) == lines(oneshot)

    def test_checkpoint_guards_configuration(
        self, mock_judge, toy_library, toy_corpus, tmp_path
    ):
        store, _, _ = toy_corpus
        pairs = sample_pairs(store, 3, seed=6)
        checkpoint = tmp_path / "progress.jsonl"
        engine = make_engine(mock_judge, toy_library)
        annotate_pairs(engine, store, pairs, checkpoint_path=checkpoint)
        other = make_engine(mock_judge, toy_library, temperature=0.9)
        with pytest.raises(IntegrityError, match="configuration"):
            annotate_pairs(other, store, pairs, checkpoint_path=checkpoint)


class HoldFirstPairJudge:
    """Mock judge whose FA_MF call for one pair waits for the other pairs.

    The call blocks until the checkpoint holds `others` lines or the
    timeout passes, and records whether it saw them.
    """

    def __init__(self, cfg, fragment: str, checkpoint, others: int, timeout: float = 5.0):
        self.cfg = cfg
        self.fragment = fragment
        self.checkpoint = checkpoint
        self.others = others
        self.timeout = timeout
        self.saw_others = None

    def lines(self) -> int:
        if not self.checkpoint.exists():
            return 0
        return sum(1 for line in self.checkpoint.read_text(encoding="utf-8").splitlines() if line)

    def complete(self, request):
        if stage_of(request.user_text) == "FA_MF" and self.fragment in request.user_text:
            deadline = time.monotonic() + self.timeout
            while self.lines() < self.others and time.monotonic() < deadline:
                time.sleep(0.005)
            self.saw_others = self.lines() >= self.others
        return mock_complete(request, self.cfg)


class TestCheckpointOrder:
    def test_finished_pairs_not_held_behind_a_slow_one(
        self, mock_cfg, mock_judge, toy_library, toy_corpus, tmp_path
    ):
        store, _, _ = toy_corpus
        ids = sorted(store.ids())[:8]
        pairs = [CasePair(a, b) for a, b in zip(ids[::2], ids[1::2])]  # no shared cases
        checkpoint = tmp_path / "progress.jsonl"
        judge = HoldFirstPairJudge(
            mock_cfg,
            " ".join(mock_tokens(store.get(pairs[0].left_id).fact_text)),
            checkpoint,
            others=len(pairs) - 1,
        )
        engine = make_engine(judge, toy_library, parallelism=2)
        records = annotate_pairs(engine, store, pairs, checkpoint_path=checkpoint)
        assert judge.saw_others is True
        assert records == annotate_pairs(make_engine(mock_judge, toy_library), store, pairs, tmp_path / "serial.jsonl")
        assert judge.lines() == len(pairs)


def held(engine, stage: Stage) -> list:
    """The keys of the engine's call memo of one stage."""
    return [key for key in engine._calls if key[0] is stage]


class TestReuse:
    """reuse fills the call memo from ok records only, one record per key."""

    def test_failed_records_fill_nothing(self, mock_judge, toy_library):
        ok = fabricate_record("q1", "c1", 3)
        records = [fabricate_record("q1", "c1", 0, status="failed"), dataclasses.replace(ok, status="failed")]
        engine = make_engine(mock_judge, toy_library)
        cases = [Case(id="q1", fact_text="query facts"), Case(id="c1", fact_text="candidate facts")]
        engine.reuse(records, cases)
        assert engine.extractions_reused == 0
        assert not held(engine, Stage.FE) and not held(engine, Stage.FA)
        engine.reuse([*records, ok], cases)
        assert engine.extractions_reused == 2
        assert len(held(engine, Stage.FE)) == 4

    def test_a_case_takes_its_facts_from_one_record(self, mock_judge, toy_library):
        first = fabricate_record("q1", "c1", 3, query_text="盗窃 财物")
        second = fabricate_record("c0", "q1", 1, cand_text="抢劫 财物")
        lf_other = FactExtraction("tag_other", "===FACTS===\ntag_other\n===END===")
        second = dataclasses.replace(second, lf_extractions=(second.lf_extractions[0], lf_other))
        case = Case(id="q1", fact_text="案情")
        for records, source, side in (([first, second], first, 0), ([second, first], second, 1)):
            engine = make_engine(mock_judge, toy_library)
            engine.reuse(records, [case, case])
            assert engine.extractions_reused == 1
            mf = engine._calls[Stage.FE, FactType.MF, case.fact_text]
            assert mf is source.mf_extractions[side]
            assert engine._calls[Stage.FE, FactType.LF, mf.text] is source.lf_extractions[side]
            assert len(held(engine, Stage.FE)) == 2
            engine.reuse(records, [case])
            assert engine.extractions_reused == 1  # a filled case stays as it is

    def test_a_comparison_takes_its_verdict_from_the_first_ok_record(self, toy_library):
        judge = RecordingJudge(MockJudge(MockJudgeConfig()))
        first = fabricate_record("q1", "c1", 3)
        # Another pair with the same fact texts asks the same comparisons; its verdicts differ.
        second = fabricate_record("q2", "c2", 0)
        failed = dataclasses.replace(fabricate_record("q3", "c3", 1), status="failed")
        engine = make_engine(judge, toy_library)
        query, candidate = Case(id="q2", fact_text="query facts"), Case(id="c2", fact_text="candidate facts")
        engine.reuse([failed], [query, candidate])
        assert not held(engine, Stage.FA)
        engine.reuse([failed, first, second], [query, candidate])
        assert len(held(engine, Stage.FA)) == 2
        engine.reuse([second], [query, candidate])
        assert len(held(engine, Stage.FA)) == 2  # a filled comparison stays as it is
        record = engine.judge_pair(query, candidate)
        assert record.mf_extractions == second.mf_extractions and record.lf_extractions == second.lf_extractions
        assert (record.mf_verdict, record.lf_verdict) == (first.mf_verdict, first.lf_verdict)
        assert record.label == 3 and judge.user_texts == []

    def test_fingerprint_mismatch_raises_before_anything_is_filled(
        self, mock_judge, toy_library, toy_store_only, tmp_path, monkeypatch
    ):
        store = toy_store_only
        pairs = sample_pairs(store, 12, seed=5)
        checkpoint, foreign = tmp_path / "progress.jsonl", tmp_path / "foreign.jsonl"
        annotate_pairs(make_engine(mock_judge, toy_library, temperature=0.9), store, pairs[:4], checkpoint)
        annotate_pairs(make_engine(mock_judge, toy_library), store, pairs[4:8], foreign)
        with checkpoint.open("a", encoding="utf-8") as fh:  # its own records first, then foreign ones
            fh.write(foreign.read_text(encoding="utf-8"))
        before = checkpoint.read_bytes()
        engine = make_engine(mock_judge, toy_library, temperature=0.9)
        called = []
        monkeypatch.setattr(engine, "reuse", lambda *args: called.append(args))
        with pytest.raises(IntegrityError, match="configuration"):
            annotate_pairs(engine, store, pairs, checkpoint_path=checkpoint)
        assert called == [] and not engine._calls
        assert checkpoint.read_bytes() == before


class TestDatasetSpec:
    def test_valid_spec(self):
        spec = DatasetSpec(
            name="d", size=20, mode="distribution_matched",
            distribution={0: 0.5, 1: 0.2, 2: 0.1, 3: 0.2},
        )
        assert spec.size == 20

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(name="", size=5, mode="random"),
            dict(name="d", size=0, mode="random"),
            dict(name="d", size=5, mode="exotic"),
            dict(name="d", size=5, mode="distribution_matched"),
            dict(name="d", size=5, mode="distribution_matched", distribution={0: 0.5, 1: 0.4}),
            dict(name="d", size=5, mode="distribution_matched", distribution={0: 1.5, 1: -0.5}),
            dict(name="d", size=5, mode="distribution_matched", distribution={9: 1.0}),
            dict(name="d", size=5, mode="distribution_matched", distribution={0: float("nan")}),
        ],
    )
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(DomainError):
            DatasetSpec(**kwargs)


class TestParseDistribution:
    def test_json_object_becomes_int_labels_and_float_shares(self):
        assert parse_distribution(json.loads('{"0": 0.5, "3": 1, "2": "0.25"}')) == {0: 0.5, 3: 1.0, 2: 0.25}

    @pytest.mark.parametrize("raw", ['[0.5, 0.5]', 'null', '{"0": null}', '{"0": [1]}', '{"x": 0.5}', '{"0": "half"}'])
    def test_anything_else_is_a_domain_error(self, raw):
        with pytest.raises(DomainError):
            parse_distribution(json.loads(raw))


class TestQuotas:
    def test_spec_example(self):
        quotas = largest_remainder_quotas(20, {0: 0.5, 1: 0.2, 2: 0.1, 3: 0.2})
        assert quotas == {0: 10, 1: 4, 2: 2, 3: 4}

    def test_matches_oracle_on_random_distributions(self):
        rng = random.Random(66)
        for _ in range(200):
            size = rng.randint(1, 500)
            weights = [rng.random() + 1e-9 for _ in range(4)]
            total = sum(weights)
            distribution = {label: w / total for label, w in enumerate(weights)}
            quotas = largest_remainder_quotas(size, distribution)
            assert quotas == quota_oracle(size, distribution)
            assert sum(quotas.values()) == size

    def test_quota_never_off_by_more_than_one(self):
        rng = random.Random(67)
        for _ in range(100):
            size = rng.randint(1, 300)
            weights = [rng.random() + 1e-9 for _ in range(4)]
            total = sum(weights)
            distribution = {label: w / total for label, w in enumerate(weights)}
            quotas = largest_remainder_quotas(size, distribution)
            for label, share in distribution.items():
                assert abs(quotas[label] - size * share) < 1.0


def annotated_pool(counts: dict[int, int], fingerprint_suffix: str = "") -> list:
    """Fabricated ok-records, `counts[label]` pairs per label."""
    records = []
    serial = 0
    for label in sorted(counts):
        for _ in range(counts[label]):
            records.append(fabricate_record(f"p{serial:04d}", f"q{serial:04d}", label))
            serial += 1
    return records


class TestBuildDataset:
    def spec20(self, seed=0):
        return DatasetSpec(
            name="d", size=20, mode="distribution_matched",
            distribution={0: 0.5, 1: 0.2, 2: 0.1, 3: 0.2}, seed=seed,
        )

    def test_distribution_matched_counts(self):
        pool = annotated_pool({0: 15, 1: 9, 2: 7, 3: 11})
        dataset = build_dataset(pool, self.spec20())
        counts = {label: 0 for label in range(4)}
        for record in dataset:
            counts[record.label] += 1
        assert counts == {0: 10, 1: 4, 2: 2, 3: 4}

    def test_insufficient_label_reports_shortfall(self):
        pool = annotated_pool({0: 15, 1: 9, 2: 7, 3: 1})
        with pytest.raises(InsufficientLabelError) as excinfo:
            build_dataset(pool, self.spec20())
        assert excinfo.value.label == 3
        assert excinfo.value.shortfall == 3

    def test_failed_records_never_selected(self):
        pool = annotated_pool({0: 3})
        pool.append(fabricate_record("zz1", "zz2", 0, status="failed"))
        spec = DatasetSpec(name="d", size=3, mode="random")
        dataset = build_dataset(pool, spec)
        assert all(r.status == "ok" for r in dataset)
        with pytest.raises(ExhaustedError):
            build_dataset(pool, DatasetSpec(name="d", size=4, mode="random"))

    def test_random_full_draw_is_permutation_invariant_copy(self):
        pool = annotated_pool({0: 4, 2: 3})
        spec = DatasetSpec(name="d", size=7, mode="random", seed=5)
        straight = build_dataset(pool, spec)
        shuffled_input = pool.copy()
        random.Random(1).shuffle(shuffled_input)
        assert sorted(straight, key=lambda r: r.query_id) == sorted(
            pool, key=lambda r: r.query_id
        )
        assert build_dataset(shuffled_input, spec) == straight

    def test_deterministic_per_seed_and_sensitive_to_it(self):
        pool = annotated_pool({0: 30, 1: 10, 2: 10, 3: 10})
        a = build_dataset(pool, self.spec20(seed=1))
        b = build_dataset(pool, self.spec20(seed=1))
        c = build_dataset(pool, self.spec20(seed=2))
        assert a == b
        assert a != c

    def test_input_order_invariance_distribution_matched(self):
        pool = annotated_pool({0: 12, 1: 6, 2: 4, 3: 6})
        shuffled = pool.copy()
        random.Random(9).shuffle(shuffled)
        assert build_dataset(pool, self.spec20()) == build_dataset(
            shuffled, self.spec20()
        )


class TestExportDataset:
    def export_store(self):
        return CaseStore(
            Case(id=f"e{i}", fact_text=f"facts of case {i}") for i in range(8)
        )

    def records(self, labels=(3, 1, 0)):
        return [
            fabricate_record(
                f"e{2 * i}",
                f"e{2 * i + 1}",
                label,
                query_text=f"facts of case {2 * i}",
                cand_text=f"facts of case {2 * i + 1}",
            )
            for i, label in enumerate(labels)
        ]

    def test_label_only_rows_and_roundtrip(self, tmp_path):
        store = self.export_store()
        records = self.records()
        out = tmp_path / "data.jsonl"
        manifest = export_dataset(records, "label_only", out, store)
        rows = [json.loads(l) for l in out.read_text(encoding="utf-8").splitlines() if l]
        assert len(rows) == 3
        for row in rows:
            assert set(row) == {"query_id", "cand_id", "query_text", "cand_text", "label"}
            assert row["query_text"] == store.get(row["query_id"]).fact_text
        got = {(r["query_id"], r["cand_id"], r["label"]) for r in rows}
        want = {(r.query_id, r.candidate_id, r.label) for r in records}
        assert got == want
        assert manifest["size"] == 3
        assert sum(manifest["histogram"].values()) == 3
        assert manifest["histogram"] == {"0": 1, "1": 1, "2": 0, "3": 1}

    def test_rationale_rows_carry_full_reasoning(self, tmp_path):
        store = self.export_store()
        records = self.records(labels=(3,))
        out = tmp_path / "chat.jsonl"
        export_dataset(records, "rationale", out, store)
        row = json.loads(out.read_text(encoding="utf-8").splitlines()[0])
        assert [m["role"] for m in row["messages"]] == ["system", "user", "assistant"]
        assistant = row["messages"][2]["content"]
        assert assistant.count("VERDICT: RELEVANT") == 2
        assert assistant.count("===FACTS===") == 4
        assert records[0].mf_extractions[0].text in assistant
        assert records[0].mf_extractions[1].text in assistant
        assert records[0].mf_verdict.reasoning in assistant
        assert row["label"] == 3
        user = row["messages"][1]["content"]
        assert store.get("e0").fact_text in user
        assert store.get("e1").fact_text in user

    def test_toy_rationale_export_matches_pinned_digest(self, toy_corpus, toy_library, mock_judge, tmp_path):
        # sample -> prerank -> annotate -> build -> export, as `lexjudge augment` runs it.
        store = toy_corpus[0]
        kept = prerank_pairs(sample_pairs(store, 200, seed=0), store, Bm25PairScorer(), top_n=60)
        records = annotate_pairs(make_engine(mock_judge, toy_library), store, kept, tmp_path / "annotated.jsonl")
        spec = DatasetSpec("toy", 30, "random", seed=0)
        out = tmp_path / "rationale.jsonl"
        export_dataset(build_dataset(records, spec), "rationale", out, store, spec=spec)
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == "5654802900be2fd624651e0d1ed90815cad00fbd19849be40c1431fe0fd4ea23"

    def test_manifest_hash_matches_content(self, tmp_path):
        store = self.export_store()
        records = self.records()
        out = tmp_path / "data.jsonl"
        manifest = export_dataset(records, "label_only", out, store)
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert manifest["sha256"] == digest
        sidecar = json.loads(
            (tmp_path / "data.jsonl.manifest.json").read_text(encoding="utf-8")
        )
        assert sidecar == manifest

    def test_identical_datasets_share_hash(self, tmp_path):
        store = self.export_store()
        records = self.records()
        first = export_dataset(records, "label_only", tmp_path / "a.jsonl", store)
        second = export_dataset(records, "label_only", tmp_path / "b.jsonl", store)
        assert first["sha256"] == second["sha256"]

    def test_manifest_records_spec_and_fingerprint(self, tmp_path):
        store = self.export_store()
        records = self.records()
        spec = DatasetSpec(name="train2k", size=3, mode="random", seed=7)
        manifest = export_dataset(
            records, "label_only", tmp_path / "d.jsonl", store, spec=spec
        )
        assert manifest["name"] == "train2k"
        assert manifest["mode"] == "random"
        assert manifest["seed"] == 7
        assert manifest["config_fingerprint"] == "fab0"

    def test_overlap_with_compare(self, tmp_path):
        store = self.export_store()
        base = self.records(labels=(3, 1, 0))
        other = base[:2] + [
            fabricate_record(
                "e6", "e7", 2, query_text="facts of case 6", cand_text="facts of case 7"
            )
        ]
        base_path = tmp_path / "base.jsonl"
        export_dataset(base, "label_only", base_path, store)
        manifest = export_dataset(
            other, "label_only", tmp_path / "other.jsonl", store, compare_path=base_path
        )
        assert manifest["overlap_with_compare"] == 2

    def test_failed_record_rejected(self, tmp_path):
        store = self.export_store()
        bad = [fabricate_record("e0", "e1", 0, status="failed")]
        with pytest.raises(DomainError):
            export_dataset(bad, "label_only", tmp_path / "d.jsonl", store)

    def test_mixed_fingerprints_rejected(self, tmp_path):
        store = self.export_store()
        records = self.records()
        clone = fabricate_record(
            "e6", "e7", 1, query_text="facts of case 6", cand_text="facts of case 7"
        )
        object.__setattr__(clone, "config_fingerprint", "other")
        with pytest.raises(IntegrityError):
            export_dataset(records + [clone], "label_only", tmp_path / "d.jsonl", store)

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(DomainError):
            export_dataset([], "csv", tmp_path / "d.jsonl", self.export_store())

    @pytest.mark.parametrize(
        "bad, error",
        [
            ("failed-record", DomainError),
            ("mixed-fingerprints", IntegrityError),
            ("truncated-compare", ParseError),
            ("unknown-case-mid-stream", IntegrityError),
        ],
    )
    def test_bad_input_leaves_the_dataset_file_as_it_was(self, bad, error, tmp_path):
        records = self.records()
        compare = None
        if bad == "failed-record":
            records.append(fabricate_record("e6", "e7", 0, status="failed"))
        elif bad == "mixed-fingerprints":
            clone = fabricate_record("e6", "e7", 1)
            object.__setattr__(clone, "config_fingerprint", "other")
            records.append(clone)
        elif bad == "truncated-compare":
            compare = tmp_path / "other.jsonl"
            compare.write_text('{"query_id": "e0", "candidate_id": "e1"}\n{"query_id": \n', encoding="utf-8")
        else:
            records.insert(1, fabricate_record("e6", "unknown", 1))
        out = tmp_path / "d.jsonl"
        out.write_text("an earlier export\n", encoding="utf-8")
        before = sorted(tmp_path.iterdir())
        with pytest.raises(error):
            export_dataset(records, "label_only", out, self.export_store(), compare_path=compare)
        assert sorted(tmp_path.iterdir()) == before
        assert out.read_text(encoding="utf-8") == "an earlier export\n"
