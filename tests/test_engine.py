"""Staged judging engine: templates, parsing, stage flow, records."""

from __future__ import annotations

import concurrent.futures
import dataclasses
import errno
import gc
import hashlib
import json
import os
import sys
import tempfile
import threading
import time
import weakref
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lexjudge.demos
import lexjudge.engine
import lexjudge.gateway
from lexjudge.augmentation import annotate_pairs, sample_pairs
from lexjudge.corpus import CandidatePool, Case, CaseStore, aggregate_label, gold_fact_flags
from lexjudge.demos import Demonstration, FactType, Stage, _rank, load_demo_library
from lexjudge.engine import (
    FA_REMINDER,
    FE_REMINDER,
    AblationFlags,
    FactExtraction,
    FactVerdict,
    JudgeEngine,
    JudgmentRecord,
    _read_checkpoint,
    assemble_prompt,
    judge_to_file,
    load_templates,
    parse_facts_block,
    parse_verdict,
    pool_pairs,
    read_records_jsonl,
    record_line,
    write_records_jsonl,
)
from lexjudge.errors import (
    AuthError,
    DomainError,
    JudgeResponseUnparseable,
    ParseError,
    TemplateError,
    UpstreamError,
)
from lexjudge.gateway import (
    INPUT_A,
    INPUT_B,
    STAGE_PREFIX,
    TARGET_BEGIN,
    TARGET_END,
    JudgeRequest,
    JudgeResponse,
    MockJudge,
    MockJudgeConfig,
    TokenUsage,
    mock_complete,
    mock_tokens,
    stage_of,
)
from lexjudge.retrieval import top_k_rank

from conftest import FaultyOnPairJudge, Interrupting, RecordingJudge, ScriptedJudge, fabricate_record, make_engine
from oracles import jaccard_oracle, normalized_tokens, prompt_oracle, record_line_oracle, user_text_oracle

GOOD_FE = "===FACTS===\nfacts ok\n===END==="
GOOD_FA = "because the facts align\nVERDICT: RELEVANT"

VALID_TEMPLATE = (
    "T: {{task_description}}\nD: {{definitions}}\nE: {{demos}}\nX: {{target}}\n"
)

ASCII_LEXICON = frozenset({"theft", "fraud"})


def write_template_dir(tmp_path, overrides=None, skip=None):
    overrides = overrides or {}
    for name in ("fe_mf", "fe_lf", "fa_mf", "fa_lf"):
        if name == skip:
            continue
        (tmp_path / f"{name}.txt").write_text(
            overrides.get(name, VALID_TEMPLATE), encoding="utf-8"
        )
    return tmp_path


def ascii_engine(library, **kwargs):
    cfg = MockJudgeConfig(lexicon=ASCII_LEXICON)
    return make_engine(MockJudge(cfg), library, **kwargs)


class TestTemplates:
    def test_bundled_templates_load(self):
        templates = load_templates()
        assert set(templates) == {"fe_mf", "fe_lf", "fa_mf", "fa_lf"}
        for text in templates.values():
            for placeholder in ("task_description", "definitions", "demos", "target"):
                assert "{{" + placeholder + "}}" in text

    def test_custom_directory(self, tmp_path):
        templates = load_templates(write_template_dir(tmp_path))
        assert templates["fa_lf"] == VALID_TEMPLATE

    def test_unknown_placeholder_rejected(self, tmp_path):
        bad = VALID_TEMPLATE + "oops {{foo}}\n"
        write_template_dir(tmp_path, overrides={"fe_mf": bad})
        with pytest.raises(TemplateError, match="foo"):
            load_templates(tmp_path)

    def test_missing_placeholder_rejected(self, tmp_path):
        bad = "T: {{task_description}}\nD: {{definitions}}\nE: {{demos}}\n"
        write_template_dir(tmp_path, overrides={"fa_mf": bad})
        with pytest.raises(TemplateError, match="target"):
            load_templates(tmp_path)

    def test_missing_file_rejected(self, tmp_path):
        write_template_dir(tmp_path, skip="fe_lf")
        with pytest.raises(TemplateError, match="fe_lf"):
            load_templates(tmp_path)


class TestAssemblePrompt:
    """assemble_prompt's text; each is also checked, with the engine's user text, against the single-pass reference."""

    def demos(self):
        return [
            Demonstration("d1", Stage.FE, FactType.MF, "input one", "output ONE"),
            Demonstration("d2", Stage.FE, FactType.MF, "input two", "output TWO"),
        ]

    @staticmethod
    def prompt(library, stage, fact_type, demos, target):
        templates = load_templates()
        prompt = assemble_prompt(stage, fact_type, demos, target)
        assert prompt == prompt_oracle(templates, stage, fact_type, demos, target)
        engine = make_engine(MockJudge(MockJudgeConfig()), library)
        assert engine._user_text(stage, fact_type, demos, target) == user_text_oracle(
            templates, stage, fact_type, demos, target
        )
        return prompt

    def test_demos_in_order_target_last(self, toy_library):
        prompt = self.prompt(toy_library, Stage.FE, FactType.MF, self.demos(), "THE TARGET")
        first = prompt.index("output ONE")
        second = prompt.index("output TWO")
        target = prompt.index("THE TARGET")
        assert first < second < target
        assert "input one" in prompt and "input two" in prompt

    def test_no_unreplaced_placeholders(self, toy_library):
        for stage, fact_type in (
            (Stage.FE, FactType.MF),
            (Stage.FE, FactType.LF),
            (Stage.FA, FactType.MF),
            (Stage.FA, FactType.LF),
        ):
            prompt = self.prompt(toy_library, stage, fact_type, [], "plain target")
            assert "{{" not in prompt

    def test_empty_demo_list_is_valid(self, toy_library):
        prompt = self.prompt(toy_library, Stage.FA, FactType.MF, [], "pair body")
        assert "Example 1" not in prompt
        assert "pair body" in prompt

    def test_braces_in_target_not_reexpanded(self, toy_library):
        sneaky = "case text mentioning {{demos}} literally"
        prompt = self.prompt(toy_library, Stage.FE, FactType.MF, [], sneaky)
        assert sneaky in prompt

    def test_fa_demos_tagged_with_polarity(self, toy_library):
        demos = [
            Demonstration("p", Stage.FA, FactType.MF, "in", "out", polarity="relevant"),
            Demonstration("n", Stage.FA, FactType.MF, "in", "out", polarity="irrelevant"),
        ]
        prompt = self.prompt(toy_library, Stage.FA, FactType.MF, demos, "pair")
        assert "(relevant pair)" in prompt
        assert "(irrelevant pair)" in prompt


class TestResponseParsing:
    def test_facts_block_example(self):
        assert parse_facts_block("===FACTS===\nA stole a car\n===END===") == "A stole a car"

    def test_facts_block_multiline_with_preamble(self):
        raw = "Sure, here you go:\n===FACTS===\nline one\nline two\n===END===\nthanks"
        assert parse_facts_block(raw) == "line one\nline two"

    def test_facts_block_sentinels_tolerate_whitespace(self):
        raw = "  ===FACTS===  \npayload\n ===END===\n"
        assert parse_facts_block(raw) == "payload"

    def test_facts_block_missing_sentinels(self):
        with pytest.raises(JudgeResponseUnparseable):
            parse_facts_block("no sentinels at all")

    def test_facts_block_unterminated(self):
        with pytest.raises(JudgeResponseUnparseable):
            parse_facts_block("===FACTS===\npayload without end")

    def test_verdict_example(self):
        assert parse_verdict("analysis...\nVERDICT: RELEVANT") == (True, "analysis...")

    def test_verdict_case_insensitive_trailing_space(self):
        relevant, reasoning = parse_verdict("why not\nverdict: irrelevant   \n\n")
        assert relevant is False
        assert reasoning == "why not"

    def test_verdict_alone_has_empty_reasoning(self):
        assert parse_verdict("VERDICT: IRRELEVANT") == (False, "")

    def test_no_verdict_line(self):
        with pytest.raises(JudgeResponseUnparseable):
            parse_verdict("no verdict here")

    def test_verdict_must_be_final(self):
        with pytest.raises(JudgeResponseUnparseable):
            parse_verdict("VERDICT: RELEVANT\nafterthought text")

    def test_reminders_spell_the_reply_protocol(self):
        # A retried prompt ends in its stage's reminder, built from the markers the parsers read.
        assert FE_REMINDER == "Reminder: output the facts between a line ===FACTS=== and a line ===END===."
        assert FA_REMINDER == "Reminder: end with one line reading exactly VERDICT: RELEVANT or VERDICT: IRRELEVANT."


class TestExtractionMemo:
    """An extraction is read from the engine's call memo, which keeps a failure like a value."""

    def test_mf_matches_mock_rule(self, mock_judge, toy_library, toy_corpus):
        store, pools, _ = toy_corpus
        case = store.get(pools[0].query_id)
        engine = make_engine(mock_judge, toy_library)
        extraction = engine._calls[Stage.FE, FactType.MF, case.fact_text]
        assert extraction.text == " ".join(normalized_tokens(case.fact_text))
        block = engine.judge_pair(case, case).to_dict()["mf"]["extractions"]
        assert block["query"] == block["candidate"] == {"text": extraction.text, "raw_response": extraction.raw_response}
        assert "===FACTS===" in extraction.raw_response

    def test_lf_extracts_the_material_facts_first(self, instrumented, toy_library, toy_corpus):
        store, pools, _ = toy_corpus
        case = store.get(pools[0].query_id)
        engine = make_engine(instrumented, toy_library)
        mf = engine._calls[Stage.FE, FactType.MF, case.fact_text]
        lf = engine._calls[Stage.FE, FactType.LF, mf.text]
        assert instrumented.stages == ["FE_MF", "FE_LF"]
        assert engine._calls[Stage.FE, FactType.MF, case.fact_text].text == " ".join(normalized_tokens(case.fact_text))
        assert engine._calls[Stage.FE, FactType.LF, mf.text] is lf
        assert instrumented.stages == ["FE_MF", "FE_LF"]  # both read from the memo

    def test_lf_consumes_prior_extraction_not_raw_text(self, toy_library):
        engine = ascii_engine(toy_library)
        case = Case(id="x1", fact_text="fraud fraud fraud")
        engine._calls[Stage.FE, FactType.MF, case.fact_text] = FactExtraction("alpha theft beta", GOOD_FE)
        extraction = engine.judge_pair(case, case).lf_extractions[0]
        assert extraction.text == "theft"  # from the prior text, not the case

    def test_disable_fe_forwards_raw_text(self, instrumented, toy_library, toy_corpus):
        store, pools, _ = toy_corpus
        case = store.get(pools[0].query_id)
        engine = make_engine(
            instrumented, toy_library, flags=AblationFlags(disable_fe=True)
        )
        extraction = engine._calls[Stage.FE, FactType.MF, case.fact_text]
        assert extraction.text == case.fact_text
        assert extraction.raw_response == ""
        assert instrumented.stages == []  # no prompt was issued

    def test_retry_appends_reminder(self, toy_library):
        judge = ScriptedJudge(["not following the format", GOOD_FE])
        engine = make_engine(judge, toy_library)
        extraction = engine._calls[Stage.FE, FactType.MF, "alpha beta"]
        assert extraction.text == "facts ok"
        assert len(judge.requests) == 2
        assert FE_REMINDER not in judge.requests[0].user_text
        assert judge.requests[1].user_text.endswith(FE_REMINDER)

    def test_empty_facts_block_retries(self, toy_library):
        judge = ScriptedJudge(["===FACTS===\n===END===", GOOD_FE])
        engine = make_engine(judge, toy_library)
        extraction = engine._calls[Stage.FE, FactType.MF, "t"]
        assert extraction.text == "facts ok"
        assert len(judge.requests) == 2

    def test_retry_budget_exhausted(self, toy_library):
        judge = ScriptedJudge(["bad", "still bad"])
        engine = make_engine(judge, toy_library, retry=1)
        failure = engine._calls[Stage.FE, FactType.MF, "t"]
        assert isinstance(failure, JudgeResponseUnparseable) and "2 attempt" in str(failure)
        assert len(judge.requests) == 2

    def test_request_carries_stage_marker_and_target(self, toy_library):
        judge = ScriptedJudge([GOOD_FE])
        engine = make_engine(judge, toy_library)
        engine._calls[Stage.FE, FactType.MF, "alpha beta"]
        text = judge.requests[0].user_text
        assert text.startswith("#STAGE:FE_MF\n")
        assert "#TARGET_BEGIN\nalpha beta\n#TARGET_END" in text


class TestComparisonMemo:
    """A comparison's verdict is read from the engine's call memo, under the key that fixes its prompt."""

    def fx(self, text: str) -> FactExtraction:
        return FactExtraction(text, "raw")

    def compare(self, engine, a: FactExtraction, b: FactExtraction, fact_type: FactType) -> FactVerdict:
        return engine._calls[Stage.FA, fact_type, a.text, b.text]

    def test_identical_texts_relevant(self, mock_judge, toy_library):
        engine = make_engine(mock_judge, toy_library)
        verdict = self.compare(
            engine, self.fx("alpha beta gamma"), self.fx("alpha beta gamma"), FactType.MF
        )
        assert verdict.relevant is True
        case = Case(id="x", fact_text="some case")
        engine._calls[Stage.FE, FactType.MF, case.fact_text] = self.fx("alpha beta gamma")
        engine._calls[Stage.FE, FactType.LF, "alpha beta gamma"] = self.fx("盗窃")
        assert engine.judge_pair(case, case).mf_verdict is verdict  # the MF call fills the record's mf block

    def test_disjoint_texts_irrelevant(self, mock_judge, toy_library):
        engine = make_engine(mock_judge, toy_library)
        verdict = self.compare(
            engine, self.fx("alpha beta"), self.fx("gamma delta"), FactType.MF
        )
        assert verdict.relevant is False

    def test_overlap_below_threshold_irrelevant(self, mock_judge, toy_library):
        # 3 shared tokens of an 8-token union: 0.375, below the 0.4 default.
        a_text = "alpha beta gamma delta epsilon"
        b_text = "alpha beta gamma zeta eta kappa"
        score = jaccard_oracle(set(a_text.split()), set(b_text.split()))
        assert score == pytest.approx(3 / 8)
        assert score < 0.4
        engine = make_engine(mock_judge, toy_library)
        verdict = self.compare(
            engine, self.fx(a_text), self.fx(b_text), FactType.MF
        )
        assert verdict.relevant is False
        assert "jaccard=0.3750" in verdict.reasoning

    def test_reasoning_and_raw_response_captured(self, mock_judge, toy_library):
        engine = make_engine(mock_judge, toy_library)
        verdict = self.compare(
            engine, self.fx("alpha"), self.fx("alpha"), FactType.MF
        )
        assert verdict.reasoning
        assert verdict.raw_response.endswith("VERDICT: RELEVANT")
        assert verdict.reasoning in verdict.raw_response

    def test_lf_pair_uses_tag_intersection(self, mock_judge, toy_library):
        engine = make_engine(mock_judge, toy_library)
        shared = self.compare(
            engine,
            self.fx("盗窃 抢劫"),
            self.fx("盗窃"),
            FactType.LF,
        )
        disjoint = self.compare(
            engine,
            self.fx("盗窃"),
            self.fx("抢劫"),
            FactType.LF,
        )
        assert shared.relevant is True
        assert disjoint.relevant is False

    def test_fa_retry_appends_reminder(self, toy_library):
        judge = ScriptedJudge(["rambling with no verdict", GOOD_FA])
        engine = make_engine(judge, toy_library)
        verdict = self.compare(
            engine, self.fx("t"), self.fx("t"), FactType.MF
        )
        assert verdict.relevant is True
        assert len(judge.requests) == 2
        assert judge.requests[1].user_text.endswith(FA_REMINDER)

    def test_disable_fa_demos_removes_examples(self, toy_library):
        judge = ScriptedJudge([GOOD_FA])
        engine = make_engine(
            judge, toy_library, flags=AblationFlags(disable_fa_demos=True)
        )
        self.compare(engine, self.fx("t"), self.fx("t"), FactType.MF)
        assert "Example 1" not in judge.requests[0].user_text

    def test_fa_prompt_carries_both_polarities_by_default(self, toy_library):
        judge = ScriptedJudge([GOOD_FA])
        engine = make_engine(judge, toy_library)
        self.compare(engine, self.fx("t"), self.fx("t"), FactType.MF)
        text = judge.requests[0].user_text
        assert "(relevant pair)" in text
        assert "(irrelevant pair)" in text
        assert "#INPUT_A" in text and "#INPUT_B" in text


class TestAggregateLabel:
    def test_exhaustive_bijection(self):
        for mf in (False, True):
            for lf in (False, True):
                label = aggregate_label(mf, lf)
                assert label == (1 if mf else 0) + (2 if lf else 0)
                flags = gold_fact_flags(label)
                assert (flags.mf_relevant, flags.lf_relevant) == (mf, lf)


class TestJudgePair:
    def test_identical_cases_label_3(self, mock_judge, toy_library, toy_corpus):
        store, pools, _ = toy_corpus
        text = store.get(pools[0].query_id).fact_text
        engine = make_engine(mock_judge, toy_library)
        record = engine.judge_pair(Case(id="qa", fact_text=text), Case(id="qb", fact_text=text))
        assert record.label == 3
        assert record.status == "ok"

    def test_overlapping_facts_disjoint_tags_label_1(self, toy_library):
        engine = ascii_engine(toy_library)
        record = engine.judge_pair(
            Case(id="a", fact_text="alpha beta gamma delta theft"),
            Case(id="b", fact_text="alpha beta gamma delta fraud"),
        )
        assert record.label == 1
        assert record.mf_verdict.relevant is True
        assert record.lf_verdict.relevant is False

    def test_disjoint_cases_label_0(self, toy_library):
        engine = ascii_engine(toy_library)
        record = engine.judge_pair(
            Case(id="a", fact_text="alpha beta theft"),
            Case(id="b", fact_text="gamma delta fraud"),
        )
        assert record.label == 0

    def test_shared_tag_low_overlap_label_2(self, toy_library):
        engine = ascii_engine(toy_library)
        a = Case(id="a", fact_text="alpha beta gamma epsilon zeta theft")
        b = Case(id="b", fact_text="eta iota kappa lam mu theft")
        score = jaccard_oracle(set(mock_tokens(a.fact_text)), set(mock_tokens(b.fact_text)))
        assert score < 0.4
        record = engine.judge_pair(a, b)
        assert record.label == 2
        assert record.mf_verdict.relevant is False
        assert record.lf_verdict.relevant is True

    def test_record_retains_all_raw_responses(self, mock_judge, toy_library, toy_corpus):
        store, pools, _ = toy_corpus
        query = store.get(pools[0].query_id)
        cand = store.get(pools[0].candidate_ids[0])
        engine = make_engine(mock_judge, toy_library)
        record = engine.judge_pair(query, cand)
        assert record.query_id == query.id and record.candidate_id == cand.id
        assert record.mf_extractions[0] is engine._calls[Stage.FE, FactType.MF, query.fact_text]
        assert record.mf_extractions[1] is engine._calls[Stage.FE, FactType.MF, cand.fact_text]
        for pair in (record.mf_extractions, record.lf_extractions):
            for extraction in pair:
                assert extraction.raw_response
        for verdict in (record.mf_verdict, record.lf_verdict):
            assert verdict.raw_response
        assert record.label == aggregate_label(
            record.mf_verdict.relevant, record.lf_verdict.relevant
        )
        assert record.run_id == "r1"
        assert record.config_fingerprint == engine.config_fingerprint
        assert record.error is None

    def test_stage_order_per_pair(self, instrumented, toy_library, toy_corpus):
        store, pools, _ = toy_corpus
        query = store.get(pools[0].query_id)
        cand = store.get(pools[0].candidate_ids[0])
        engine = make_engine(instrumented, toy_library)
        engine.judge_pair(query, cand)
        assert instrumented.stages == ["FE_MF", "FE_MF", "FE_LF", "FE_LF", "FA_MF", "FA_LF"]

    def test_stage_failure_is_annotated(self, mock_cfg, toy_library, toy_corpus):
        store, pools, _ = toy_corpus
        query = store.get(pools[0].query_id)
        cand = store.get(pools[0].candidate_ids[0])
        fragment = " ".join(mock_tokens(cand.fact_text))
        judge = FaultyOnPairJudge(mock_cfg, poisoned_fragment=fragment)
        record = make_engine(judge, toy_library, retry=1).judge_pair(query, cand)
        assert (record.status, record.label) == ("failed", None)
        assert record.error == "FA_MF: reply does not end with a verdict line after 2 attempt(s)"

    # (stage garbled, the case whose replies are garbled, or None for the pair; the failed
    # record's error; the calls made). The stages run FE_MF(q), FE_MF(c), FE_LF(q), FE_LF(c),
    # FA_MF, FA_LF, and the failing one is asked three times.
    @pytest.mark.parametrize(
        ("stage", "case_id", "error", "calls"),
        [
            ("FE_MF", "q", "FE_MF: empty facts block after 3 attempt(s)", 3),
            ("FE_MF", "c", "FE_MF: empty facts block after 3 attempt(s)", 4),
            ("FE_LF", "q", "FE_LF: empty facts block after 3 attempt(s)", 5),
            ("FE_LF", "c", "FE_LF: empty facts block after 3 attempt(s)", 6),
            ("FA_MF", None, "FA_MF: reply does not end with a verdict line after 3 attempt(s)", 7),
            ("FA_LF", None, "FA_LF: reply does not end with a verdict line after 3 attempt(s)", 8),
        ],
    )
    def test_a_failed_stage_names_itself_in_the_record(self, toy_library, stage, case_id, error, calls):
        query = Case(id="q", fact_text="被告人甲盗窃财物")
        cand = Case(id="c", fact_text="被告人乙诈骗财物")
        judge = GarbledStageJudge(stage, {"q": "甲", "c": "乙", None: ""}[case_id])
        (record,) = make_engine(judge, toy_library).judge_pairs([(query, cand)])
        assert (record.status, record.error, record.label) == ("failed", error, None)
        assert judge.calls == calls


class GarbledStageJudge:
    """Replies well at every stage but one, whose replies are garbled when the target holds marker.

    An FE reply's facts are the stage name and the target, so a case's
    legal-fact target still holds its marker.
    """

    def __init__(self, stage: str, marker: str):
        self.stage = stage
        self.marker = marker
        self.calls = 0

    def complete(self, request: JudgeRequest) -> JudgeResponse:
        self.calls += 1
        stage = stage_of(request.user_text)
        target = request.user_text.split(f"{TARGET_BEGIN}\n", 1)[1].split(f"\n{TARGET_END}", 1)[0]
        garbled = stage == self.stage and self.marker in target
        if stage.startswith("FE"):
            text = f"===FACTS===\n{'' if garbled else f'{stage} {target}'}\n===END==="
        else:
            text = "no verdict provided" if garbled else GOOD_FA
        return JudgeResponse(text=text, usage=TokenUsage(1, 1), latency_ms=0.0)


# Template and text pieces that stress single-pass substitution: repeated
# and brace-wrapped {{target}}, stray braces, placeholder names as words.
PROMPT_PIECES = [
    "{{target}}", "{{demos}}", "{{task_description}}", "{{definitions}}",
    "{", "}", "{{", "}}", "target", "demos", "x", "\n", " ", "盗窃",
]
PROMPT_TEMPLATE = st.lists(st.sampled_from(PROMPT_PIECES), max_size=14).map("".join)
PROMPT_TEXT = st.lists(st.sampled_from(PROMPT_PIECES), max_size=6).map("".join)


def outcome(fill):
    try:
        return fill()
    except KeyError as exc:  # a placeholder name no template may use
        return ("KeyError", exc.args)


# Case and demo text that looks like template syntax or like the engine's marker lines.
TRICKY_TEXT = st.lists(
    st.sampled_from(PROMPT_PIECES + [f"{STAGE_PREFIX}FE_MF", TARGET_BEGIN, TARGET_END, "{{{", "}}}"]), max_size=8
).map("".join)


class TestPromptAssembly:
    """Pins single-pass filling, so any faster assembly must keep it byte for byte."""

    @given(template=PROMPT_TEMPLATE, target=PROMPT_TEXT, demo_in=PROMPT_TEXT, demo_out=PROMPT_TEXT)
    @example(template="{{target}}+{{target}}", target="{{demos}}", demo_in="{{target}}", demo_out="")
    @example(template="{{{target}}}{{demos}}", target="{{target}}", demo_in="{{demos}}", demo_out="}}")
    @settings(max_examples=300, deadline=None)
    def test_equals_single_pass_substitution(self, toy_library, template, target, demo_in, demo_out):
        demos = [Demonstration("d1", Stage.FA, FactType.LF, demo_in, demo_out, polarity="relevant")]
        templates = {"fa_lf": template}
        want = outcome(lambda: prompt_oracle(templates, Stage.FA, FactType.LF, demos, target))
        got = outcome(lambda: assemble_prompt(Stage.FA, FactType.LF, demos, target, templates=templates))
        assert got == want
        # The engine's user text adds the stage line and wraps each target in its marker lines.
        engine = make_engine(MockJudge(MockJudgeConfig()), toy_library)
        engine.templates.update(templates)  # the engine's frames read the dict it was built with
        want_user = outcome(lambda: user_text_oracle(templates, Stage.FA, FactType.LF, demos, target))
        assert outcome(lambda: engine._user_text(Stage.FA, FactType.LF, demos, target)) == want_user

    @given(
        stage=st.sampled_from(Stage),
        fact_type=st.sampled_from(FactType),
        target=TRICKY_TEXT,
        texts=st.lists(st.tuples(TRICKY_TEXT, TRICKY_TEXT), max_size=4),
    )
    @example(stage=Stage.FE, fact_type=FactType.MF, target=f"{{{{target}}}}\n{TARGET_END}", texts=[("{{demos}}", "}")])
    @settings(max_examples=200, deadline=None)
    def test_case_and_demo_text_come_out_verbatim_in_place(self, toy_library, stage, fact_type, target, texts):
        polarities = ["relevant", "irrelevant"] if stage is Stage.FA else [None]
        demos = [
            Demonstration(f"d{i}", stage, fact_type, demo_in, demo_out, polarity=polarities[i % len(polarities)])
            for i, (demo_in, demo_out) in enumerate(texts)
        ]
        templates = load_templates()
        prompt = assemble_prompt(stage, fact_type, demos, target)
        assert prompt == prompt_oracle(templates, stage, fact_type, demos, target)
        user_text = make_engine(MockJudge(MockJudgeConfig()), toy_library)._user_text(stage, fact_type, demos, target)
        assert user_text == user_text_oracle(templates, stage, fact_type, demos, target)
        # Each bundled template ends with a line that is its target slot.
        assert prompt.endswith(f"\n{target}\n") and user_text.endswith(f"\n{TARGET_BEGIN}\n{target}\n{TARGET_END}\n")
        for demo in demos:
            assert f"input:\n{demo.input_text}\n" in prompt and f":\n{demo.exemplar_output}" in prompt


class TestFactExtractionCache:
    def test_query_extracted_once_across_candidates(
        self, instrumented, toy_library, toy_corpus
    ):
        store, pools, _ = toy_corpus
        pool = pools[0]
        query = store.get(pool.query_id)
        candidates = [store.get(cid) for cid in pool.candidate_ids[:2]]
        engine = make_engine(instrumented, toy_library)
        records = engine.judge_pairs([(query, c) for c in candidates])
        assert all(r.status == "ok" for r in records)
        # 1 query + 2 candidates extracted once each, per fact layer.
        assert instrumented.count("FE_MF") == 3
        assert instrumented.count("FE_LF") == 3
        assert instrumented.count("FA_MF") == 2
        assert instrumented.count("FA_LF") == 2

    def test_cases_with_equal_facts_share_their_calls(self, instrumented, toy_library, toy_corpus):
        store, pools, _ = toy_corpus
        query, cand = store.get(pools[0].query_id), store.get(pools[0].candidate_ids[0])
        twin = Case(id="twin", fact_text=cand.fact_text)
        engine = make_engine(instrumented, toy_library)
        pool = CandidatePool(query.id, (cand.id, twin.id))
        first, second = engine.judge_pools(CaseStore([query, cand, twin]), [pool])
        # The twin's extractions and both comparisons are its sibling's: one call per distinct prompt.
        assert Counter(instrumented.stages) == {"FE_MF": 2, "FE_LF": 2, "FA_MF": 1, "FA_LF": 1}
        assert [(r.query_id, r.candidate_id) for r in (first, second)] == [(query.id, cand.id), (query.id, twin.id)]
        assert second.mf_extractions[1] is first.mf_extractions[1]
        assert second.lf_extractions[1] is first.lf_extractions[1]
        assert second.mf_verdict is first.mf_verdict and second.lf_verdict is first.lf_verdict

    def test_repeat_pair_reuses_extractions(self, instrumented, toy_library, toy_corpus):
        store, pools, _ = toy_corpus
        query = store.get(pools[0].query_id)
        cand = store.get(pools[0].candidate_ids[0])
        engine = make_engine(instrumented, toy_library)
        first = engine.judge_pair(query, cand)
        baseline = len(instrumented.stages)
        second = engine.judge_pair(query, cand)
        # Its extractions and both comparisons come from the engine's memos.
        assert instrumented.stages[baseline:] == []
        assert first == second


class SlowExtractionJudge:
    """Mock judge that sleeps on extraction calls, or on the stages slow names, and counts calls by stage.

    The sleep widens the window in which parallel pairs ask for the same
    case, or the same comparison. With fail_target set, every FE_MF call
    for that target fails: it raises, or with garble set, replies garble
    instead.
    """

    def __init__(self, cfg: MockJudgeConfig, fail_target: str | None = None, garble: str | None = None,
                 delay_s: float = 0.003, slow: tuple[str, ...] = ("FE_MF", "FE_LF")):
        self.cfg = cfg
        self.fail_target = fail_target
        self.garble = garble
        self.delay_s = delay_s
        self.slow = slow
        self.calls: Counter[str] = Counter()
        self._lock = threading.Lock()

    def complete(self, request: JudgeRequest) -> JudgeResponse:
        stage = stage_of(request.user_text)
        if stage in self.slow:
            time.sleep(self.delay_s)
        with self._lock:
            self.calls[stage] += 1
        target = f"{TARGET_BEGIN}\n{self.fail_target}\n{TARGET_END}"
        if stage == "FE_MF" and self.fail_target is not None and target in request.user_text:
            if self.garble is None:
                raise UpstreamError("injected extraction failure")
            return JudgeResponse(text=self.garble, usage=TokenUsage(1, 1), latency_ms=0.0)
        return mock_complete(request, self.cfg)


@pytest.mark.usefixtures("short_switch_interval")
class TestSingleFlightExtraction:
    def test_parallel_pool_extracts_each_case_once(self, mock_cfg, toy_library, toy_corpus):
        store, pools, _ = toy_corpus
        query = store.get(pools[0].query_id)
        candidates = [store.get(cid) for cid in pools[0].candidate_ids]
        pairs = [(query, c) for c in candidates]
        judge = SlowExtractionJudge(mock_cfg)
        records = make_engine(judge, toy_library, parallelism=8).judge_pairs(pairs)
        assert len(candidates) == 10
        assert judge.calls["FE_MF"] == judge.calls["FE_LF"] == 11
        serial = make_engine(MockJudge(mock_cfg), toy_library).judge_pairs(pairs)
        assert records == serial

    # (the failing extraction's reply, or None when the call raises; the error of each of the
    # query's pairs; the FE_MF calls of all pools: one per case, the failing one asked once).
    @pytest.mark.parametrize(
        ("garble", "error", "fe_mf_calls"),
        [
            (None, "FE_MF: injected extraction failure", 47 + 1),
            ("no facts here", "FE_MF: no facts block between sentinels after 3 attempt(s)", 47 + 3),
        ],
        ids=["raises", "never-parses"],
    )
    @pytest.mark.parametrize("parallelism", [1, 4])
    def test_failed_extraction_is_kept_and_shared(
        self, parallelism, garble, error, fe_mf_calls, mock_cfg, toy_library, toy_corpus
    ):
        store, pools, _ = toy_corpus
        query = store.get(pools[0].query_id)
        judge = SlowExtractionJudge(mock_cfg, fail_target=query.fact_text, garble=garble)
        records = make_engine(judge, toy_library, parallelism=parallelism).judge_pools(store, pools)
        # Every pair of the query fails with the one kept error; no later pair asks again.
        failed = [r for r in records if r.status == "failed"]
        assert [(r.query_id, r.error) for r in failed] == [(query.id, error)] * len(pools[0].candidate_ids)
        assert judge.calls["FE_MF"] == fe_mf_calls
        serial = make_engine(MockJudge(mock_cfg), toy_library).judge_pools(store, pools)
        assert [r for r in records if r.status == "ok"] == [r for r in serial if r.query_id != query.id]

    # A refusal ends the run and, unlike an upstream error, no memo keeps it: once the key is back,
    # the same engine judges the pairs as a fresh one does. k picks the refused call: FE_MF, FE_MF,
    # FE_LF, FE_LF, FA_MF, FA_LF.
    @pytest.mark.parametrize("k", range(6))
    @pytest.mark.parametrize("parallelism", [1, 4])
    def test_a_refusal_ends_the_run_and_is_kept_by_nothing(self, parallelism, k, mock_judge, toy_library, toy_corpus):
        store, pools, _ = toy_corpus
        pairs = [(store.get(pools[0].query_id), store.get(cid)) for cid in pools[0].candidate_ids[:2]]
        judge = Interrupting(mock_judge, k, AuthError)
        engine = make_engine(judge, toy_library, parallelism=parallelism)
        recorded = []
        with pytest.raises(AuthError):
            engine.judge_pairs(pairs, recorded.append)
        assert recorded == []  # no pair finishes within k calls, and none is recorded as failed
        judge.k = 99
        assert engine.judge_pairs(pairs) == make_engine(mock_judge, toy_library).judge_pairs(pairs)

    @pytest.mark.parametrize("parallelism", [1, 2, 8])
    def test_all_pools_extract_each_case_once(self, parallelism, mock_cfg, toy_library, toy_corpus):
        store, pools, _ = toy_corpus
        cases = {pool.query_id for pool in pools} | {cid for pool in pools for cid in pool.candidate_ids}
        pairs = sum(len(pool.candidate_ids) for pool in pools)
        # Legal-fact comparisons, which pairs share, are slow too.
        judge = SlowExtractionJudge(mock_cfg, slow=("FE_MF", "FE_LF", "FA_LF"))
        records = make_engine(judge, toy_library, parallelism=parallelism).judge_pools(store, pools)
        # FE: 2 calls per case; FA: 1 per distinct comparison, which the bundled library's demos
        # make 1 per distinct (fact type, fact texts), with the pairs of all pools in flight together.
        comparisons = {(r.mf_extractions[0].text, r.mf_extractions[1].text) for r in records}
        legal = {(r.lf_extractions[0].text, r.lf_extractions[1].text) for r in records}
        assert (judge.calls["FA_MF"], judge.calls["FA_LF"]) == (len(comparisons), len(legal)) == (pairs, 84)
        assert sum(judge.calls.values()) == 2 * len(cases) + len(comparisons) + len(legal) == 300
        assert records == make_engine(MockJudge(mock_cfg), toy_library).judge_pools(store, pools)

    def test_parallel_annotation_extracts_each_case_once(self, mock_cfg, toy_library, toy_corpus, tmp_path):
        store = toy_corpus[0]
        pairs = sample_pairs(store, 100, seed=5)
        cases = {case_id for pair in pairs for case_id in (pair.left_id, pair.right_id)}
        judge = SlowExtractionJudge(mock_cfg)
        records = annotate_pairs(make_engine(judge, toy_library, parallelism=8), store, pairs, tmp_path / "p8.jsonl")
        assert judge.calls["FE_MF"] + judge.calls["FE_LF"] == 2 * len(cases)
        assert records == annotate_pairs(make_engine(MockJudge(mock_cfg), toy_library), store, pairs, tmp_path / "p1.jsonl")

    # With the toy lexicon no pair fails; with an empty one every FE_LF reply has an empty
    # facts block, so every pair fails and the memo keeps those failures.
    @pytest.mark.parametrize("parallelism", [1, 4])
    @pytest.mark.parametrize("lexicon", ["toy", "empty"])
    def test_finished_engine_is_freed_without_the_cycle_collector(
        self, lexicon, parallelism, toy_lexicon, toy_library, toy_corpus
    ):
        # An engine kept alive by a reference cycle holds its extractions until a full collection.
        store, pools, _ = toy_corpus
        judge = MockJudge(MockJudgeConfig(lexicon=toy_lexicon if lexicon == "toy" else frozenset()))
        gc.collect()
        gc.disable()
        try:
            engine = make_engine(judge, toy_library, parallelism=parallelism)
            records = engine.judge_pools(store, pools, top_n=3)
            freed = weakref.ref(engine)
            del engine
            assert freed() is None
        finally:
            gc.enable()
        assert {r.status for r in records} == {"ok" if lexicon == "toy" else "failed"}


class RefusedMidRun:
    """Passes calls to inner; the k-th raises AuthError, and each later one is held until cancelled is set.

    With cancelled set when the run cancels its unstarted pairs, every pair
    still running then finishes after the error has ended the run.
    """

    def __init__(self, inner, k: int):
        self.inner = inner
        self.k = k
        self.calls = 0
        self.cancelled = threading.Event()
        self._lock = threading.Lock()

    def complete(self, request):
        with self._lock:
            self.calls += 1
            n = self.calls
        if n == self.k:
            raise AuthError("refused once")
        if n > self.k and not self.cancelled.wait(timeout=60):
            raise TimeoutError("the run never cancelled its unstarted pairs")
        return self.inner.complete(request)


class TestParallelRunEndedByAnError:
    def test_every_pair_that_finishes_is_written_and_not_asked_again(
        self, monkeypatch, mock_judge, toy_library, toy_corpus, tmp_path
    ):
        store, pools, _ = toy_corpus
        pairs = pool_pairs(pools)
        judge = RefusedMidRun(mock_judge, k=150)
        cancel = concurrent.futures.Future.cancel

        def observed_cancel(future):
            judge.cancelled.set()
            return cancel(future)

        monkeypatch.setattr(concurrent.futures.Future, "cancel", observed_cancel)
        engine = make_engine(judge, toy_library, parallelism=8)
        returned, late = [], []
        judge_pair = engine.judge_pair

        def tracked(query, candidate):
            record = judge_pair(query, candidate)
            (late if judge.cancelled.is_set() else returned).append((query.id, candidate.id))
            return record

        engine.judge_pair = tracked
        path = tmp_path / "run.jsonl"
        with pytest.raises(AuthError, match="refused once"):
            judge_to_file(engine, store, pairs, path)
        monkeypatch.undo()
        # Pairs running when the run was cancelled finished after it, and have their lines too.
        assert late
        held = read_records_jsonl(path)
        assert sorted((r.query_id, r.candidate_id) for r in held) == sorted(returned + late)
        rerun = RecordingJudge(mock_judge)
        judge_to_file(make_engine(rerun, toy_library, parallelism=8), store, pairs, path)
        # The rerun extracts no case of a held pair and asks none of its comparisons.
        asked = {text[text.index(TARGET_BEGIN):] for text in rerun.user_texts}
        for r in held:
            targets = [store.get(r.query_id).fact_text, store.get(r.candidate_id).fact_text,
                       r.mf_extractions[0].text, r.mf_extractions[1].text,
                       f"{INPUT_A}\n{r.mf_extractions[0].text}\n{INPUT_B}\n{r.mf_extractions[1].text}",
                       f"{INPUT_A}\n{r.lf_extractions[0].text}\n{INPUT_B}\n{r.lf_extractions[1].text}"]
            assert not asked & {f"{TARGET_BEGIN}\n{target}\n{TARGET_END}" for target in targets}
        oneshot = tmp_path / "oneshot.jsonl"
        judge_to_file(make_engine(mock_judge, toy_library), store, pairs, oneshot)
        assert path.read_bytes() == oneshot.read_bytes()


class CountingCalls:
    """Wraps a one-text function, counting calls per text."""

    def __init__(self, fn):
        self.fn = fn
        self.counts: Counter[str] = Counter()
        self._lock = threading.Lock()

    def __call__(self, text, *args):
        with self._lock:
            self.counts[text] += 1
        return self.fn(text, *args)


@pytest.mark.usefixtures("short_switch_interval")
class TestComputedOnce:
    @pytest.mark.parametrize("parallelism", [1, 8])
    def test_each_text_tokenized_once(self, parallelism, monkeypatch, toy, mock_cfg, toy_library, toy_corpus):
        store, pools, _ = toy_corpus
        pairs = [(store.get(pool.query_id), store.get(cid)) for pool in pools for cid in pool.candidate_ids]
        library = load_demo_library(toy.demos)
        demo_tokenize = CountingCalls(lexjudge.demos.tokenize)
        mock_tokens_calls = CountingCalls(lexjudge.gateway.mock_tokens)
        monkeypatch.setattr(lexjudge.demos, "tokenize", demo_tokenize)
        monkeypatch.setattr(lexjudge.gateway, "mock_tokens", mock_tokens_calls)
        rankings = []
        monkeypatch.setattr(
            lexjudge.demos, "top_k_rank", lambda index, query, k: rankings.append(query) or top_k_rank(index, query, k)
        )
        judge = MockJudge(mock_cfg)
        records = make_engine(judge, library, parallelism=parallelism).judge_pairs(pairs)
        # Each call filled one entry of the library's one memo, and no entry twice, though an
        # MF extraction feeds both FE_LF and FA_MF.
        assert demo_tokenize.counts.keys() == library._terms.keys()
        assert set(demo_tokenize.counts.values()) == {1}
        # Likewise one ranking per distinct (stage, fact type, term sequence), fewer than the selections.
        assert len(rankings) == len(library._rankings) < 2 * len(pairs)  # two FA selections per pair
        assert set(mock_tokens_calls.counts.values()) == {1}
        mock_calls = sum(mock_tokens_calls.counts.values())
        # A second run on the same judge: a fresh library tokenizes again, the judge does not.
        again = make_engine(judge, load_demo_library(toy.demos), parallelism=parallelism, run_id="r2")
        second = again.judge_pairs(pairs)
        assert sum(mock_tokens_calls.counts.values()) == mock_calls
        monkeypatch.undo()
        serial = make_engine(MockJudge(mock_cfg), toy_library).judge_pairs(pairs)
        assert records == serial
        assert [r.to_dict() | {"run_id": "r1"} for r in second] == [r.to_dict() for r in serial]

    @pytest.mark.parametrize("parallelism", [1, 8])
    def test_prompt_memos_stay_bounded(self, parallelism, mock_cfg, toy_library, toy_corpus):
        store, pools, _ = toy_corpus
        mock = MockJudge(mock_cfg)
        judge = RecordingJudge(mock)
        engine = make_engine(judge, toy_library, parallelism=parallelism)
        records = engine.judge_pools(store, pools)
        assert len(engine._frames) == 4  # one per (stage, fact type)
        positions = max(engine.top_k_demos, 2 * engine.fa_demos_per_polarity)
        demos = set(toy_library._by_id.values())  # every demo of the library
        assert {demo for demo, _ in engine._demo_blocks} <= demos
        assert {i for _, i in engine._demo_blocks} <= set(range(1, positions + 1))
        assert len(engine._demo_blocks) <= len(toy_library) * positions
        # One count per distinct prompt line.
        assert set(mock._line_counts) == {line for text in judge.user_texts for line in text.splitlines()}
        assert records == make_engine(MockJudge(mock_cfg), toy_library).judge_pools(store, pools)

    @pytest.mark.parametrize("disable_adm", [False, True])
    @pytest.mark.parametrize("parallelism", [1, 8])
    def test_memos_stay_bounded_on_a_larger_library(
        self, parallelism, disable_adm, monkeypatch, mock_cfg, toy_library, toy_corpus, large_library_path
    ):
        store, pools, _ = toy_corpus
        ranked = []
        monkeypatch.setattr(lexjudge.demos, "_rank", lambda *args: ranked.append(args[-1]) or _rank(*args))
        # Room for five whole-set rankings of 24 demos, fewer than the run's distinct queries.
        monkeypatch.setattr(lexjudge.demos, "RANKED_DEMOS_LIMIT", 5 * 24)
        library = load_demo_library(large_library_path)
        assert set(library.counts().values()) == {24}
        flags = AblationFlags(disable_adm=disable_adm)
        judge = RecordingJudge(MockJudge(mock_cfg))
        runs = []
        for run_id in ("r1", "r2"):  # two runs on one library, as judge --runs 2 makes them
            engine = make_engine(judge, library, parallelism=parallelism, flags=flags, run_id=run_id)
            runs.append(engine.judge_pools(store, pools))
            assert len(engine._frames) == 4
            positions = max(engine.top_k_demos, 2 * engine.fa_demos_per_polarity)
            assert len(engine._demo_blocks) <= len(library) * positions
            assert len(library._rankings) <= 5
        if disable_adm:
            assert not ranked and not library._rankings
        else:
            assert len(library._rankings) == 5 < len(set(ranked))
            assert set(library._rankings) <= set(ranked)
        monkeypatch.undo()
        # Rankings computed past the bound equal kept ones: the prompts equal a run with room for all.
        unbounded = RecordingJudge(MockJudge(mock_cfg))
        make_engine(unbounded, load_demo_library(large_library_path), flags=flags).judge_pools(store, pools)
        assert Counter(judge.user_texts) == Counter(unbounded.user_texts * 2)
        # Mock records do not depend on the library: only the fingerprint, which covers it, differs.
        bundled = make_engine(MockJudge(mock_cfg), toy_library, flags=flags).judge_pools(store, pools)
        unfingerprinted = [[r.to_dict() | {"config_fingerprint": "", "run_id": ""} for r in run] for run in runs]
        assert unfingerprinted == [[r.to_dict() | {"config_fingerprint": "", "run_id": ""} for r in bundled]] * 2


GOLDEN_RUN_SHA256 = {
    "r1": "28f23d42565d9d1efba790927e5e14644be25344e5d334806f4e5649b68e5b9d",
    "r2": "2f3f048a377a44e6f0bf52d9a581e6135d5628a9ce7c3f7c77527a939de08718",
    "r3": "38a1659c393e6e2458751041733a5fbde727315518b25ef254058ecbe081d048",
}


def _write_pools(engine, store, pools, path):
    write_records_jsonl(path, engine.judge_pools(store, pools))


def _judge_pools_to_file(engine, store, pools, path):
    judge_to_file(engine, store, pool_pairs(pools), path)


# The collect-then-write path and the checkpointed one that `lexjudge judge` takes.
RUN_WRITERS = pytest.mark.parametrize("write", [_write_pools, _judge_pools_to_file], ids=["collected", "checkpointed"])


class TestGoldenRecords:
    """Run files of the bundled pools, byte for byte, as `lexjudge judge --mock` writes them."""

    @staticmethod
    def run_digests(write, libraries, parallelism, tmp_path, mock_cfg, toy_corpus) -> dict[str, str]:
        """One engine per run on a shared judge, run i on the i-th library."""
        store, pools, _ = toy_corpus
        judge = MockJudge(mock_cfg)
        digests = {}
        for run_id, library in zip(GOLDEN_RUN_SHA256, libraries):
            engine = make_engine(judge, library, parallelism=parallelism, run_id=run_id)
            path = tmp_path / f"judge.{run_id}.jsonl"
            write(engine, store, pools, path)
            digests[run_id] = hashlib.sha256(path.read_bytes()).hexdigest()
        return digests

    @RUN_WRITERS
    @pytest.mark.parametrize("parallelism", [1, 8])
    def test_run_files_match_pinned_digests(self, write, parallelism, tmp_path, toy, mock_cfg, toy_corpus):
        libraries = (load_demo_library(toy.demos) for _ in GOLDEN_RUN_SHA256)
        assert self.run_digests(write, libraries, parallelism, tmp_path, mock_cfg, toy_corpus) == GOLDEN_RUN_SHA256

    @RUN_WRITERS
    @pytest.mark.parametrize("parallelism", [1, 8])
    def test_one_library_serves_every_run(self, write, parallelism, tmp_path, toy, mock_cfg, toy_corpus):
        libraries = [load_demo_library(toy.demos)] * len(GOLDEN_RUN_SHA256)
        assert self.run_digests(write, libraries, parallelism, tmp_path, mock_cfg, toy_corpus) == GOLDEN_RUN_SHA256


# (library, ablation flag) -> (prompts sent, sha256 of their user texts as a JSON list). Each
# distinct prompt is sent once, in every ablation: 36 of the toy pools' 240 comparisons repeat
# an earlier one's fact type and texts, which fix its prompt, disable_adm's seeded draw included.
GOLDEN_PROMPTS = {
    ("bundled", None): (300, "f43ecb84351f4cab39672f28cad15e29f2ef6be5ff765f5f441bb66b098120e5"),
    ("bundled", "disable_adm"): (300, "bb23ba5fd5f9156a94e9ed0c3170b1f132e61d7caf98962efe145672800c0e81"),
    ("bundled", "disable_fa_demos"): (300, "7aaae62d7641377811dbb7b22ec860aef89de435e0324793cfff36a9f274f588"),
    ("bundled", "disable_fe"): (240, "9395aa2ed95569542957745c957022729dfeea8031333f8e1e677d8d72a2562e"),
    ("large", None): (300, "018adbeba0a4daa24577678c8ec9271fdc32a3f801a8c053e7450c10bfa24d12"),
    ("large", "disable_adm"): (300, "73b8e4a7f1d56e4c1ca7f07e686491cfe9373711875ea70b23f8b48a1ec22a08"),
    ("large", "disable_fa_demos"): (300, "f5f57575eb3ab96dc1f3fcea87f90fcf585ff5d737560c7933e4cb8158a0a780"),
    ("large", "disable_fe"): (240, "ffd23e4802eda2cc7ee0a00da88d05dd4cfc2c8202ec8ff9bb91cd6e97e35e4a"),
}


class TestGoldenPrompts:
    """Every prompt sent on the bundled pools, byte for byte. Mock records ignore
    the demonstrations, so only this pins demo selection and order: BM25 matching
    and the seeded draw of disable_adm, on the bundled library and on one of 24
    demos per set."""

    @pytest.mark.parametrize("library_name, flag", list(GOLDEN_PROMPTS))
    def test_user_texts_match_pinned_digest(
        self, library_name, flag, toy, large_library_path, mock_judge, toy_corpus
    ):
        store, pools, _ = toy_corpus
        library = load_demo_library(toy.demos if library_name == "bundled" else large_library_path)
        flags = AblationFlags(**({flag: True} if flag else {}))
        judge = RecordingJudge(mock_judge)
        make_engine(judge, library, parallelism=1, flags=flags).judge_pools(store, pools)
        digest = hashlib.sha256(json.dumps(judge.user_texts, ensure_ascii=False).encode()).hexdigest()
        assert (len(judge.user_texts), digest) == GOLDEN_PROMPTS[library_name, flag]
        assert len(set(judge.user_texts)) == len(judge.user_texts)


class TestRetryExhaustion:
    def test_prose_replies_fail_the_pair_with_the_parse_error(self, toy_library):
        judge = ScriptedJudge(["These cases look related to me."] * 3)
        engine = make_engine(judge, toy_library, retry=2, flags=AblationFlags(disable_fe=True))
        [record] = engine.judge_pairs([(Case(id="a", fact_text="t"), Case(id="b", fact_text="t"))])
        assert record.status == "failed"
        assert "reply does not end with a verdict line after 3 attempt(s)" in record.error
        assert len(judge.requests) == 3
        assert not judge.requests[0].user_text.endswith(FA_REMINDER)
        assert all(r.user_text.endswith(FA_REMINDER) for r in judge.requests[1:])

    def test_empty_facts_block_reported(self, toy_library):
        judge = ScriptedJudge(["===FACTS===\n===END==="] * 3)
        engine = make_engine(judge, toy_library, retry=2)
        [record] = engine.judge_pairs([(Case(id="x1", fact_text="t"), Case(id="x2", fact_text="t"))])
        assert record.status == "failed"
        assert record.error == "FE_MF: empty facts block after 3 attempt(s)"
        assert len(judge.requests) == 3


class TestDisableFe:
    def test_no_extraction_prompts_issued(self, instrumented, toy_library, toy_corpus):
        store, pools, _ = toy_corpus
        query = store.get(pools[0].query_id)
        cand = store.get(pools[0].candidate_ids[0])
        engine = make_engine(
            instrumented, toy_library, flags=AblationFlags(disable_fe=True)
        )
        record = engine.judge_pair(query, cand)
        assert instrumented.count("FE") == 0
        assert instrumented.stages == ["FA_MF", "FA_LF"]
        assert record.mf_extractions[0].text == query.fact_text
        assert record.mf_extractions[1].text == cand.fact_text
        assert record.lf_extractions[0].text == query.fact_text
        assert record.status == "ok"


class TestDisableAdm:
    def test_labels_unchanged_under_random_sampling(
        self, mock_judge, toy_library, toy_corpus
    ):
        store, pools, _ = toy_corpus
        pool = pools[0]
        query = store.get(pool.query_id)
        candidates = [store.get(cid) for cid in pool.candidate_ids]
        adm = make_engine(mock_judge, toy_library)
        rnd = make_engine(
            mock_judge, toy_library, flags=AblationFlags(disable_adm=True)
        )
        pairs = [(query, c) for c in candidates]
        adm_labels = [r.label for r in adm.judge_pairs(pairs)]
        rnd_labels = [r.label for r in rnd.judge_pairs(pairs)]
        assert adm_labels == rnd_labels  # mock verdicts ignore the demos


class TestJudgeQuery:
    def test_top_n_slices_in_pool_order(self, mock_judge, toy_library, toy_corpus):
        store, pools, _ = toy_corpus
        pool = pools[0]
        query = store.get(pool.query_id)
        engine = make_engine(mock_judge, toy_library)
        five = CandidatePool(query.id, pool.candidate_ids[:5])
        records = engine.judge_pools(store, [five], top_n=3)
        assert [r.candidate_id for r in records] == list(pool.candidate_ids[:3])

    def test_top_n_larger_than_pool(self, mock_judge, toy_library, toy_corpus):
        store, pools, _ = toy_corpus
        pool = pools[0]
        query = store.get(pool.query_id)
        engine = make_engine(mock_judge, toy_library)
        two = CandidatePool(query.id, pool.candidate_ids[:2])
        records = engine.judge_pools(store, [two], top_n=30)
        assert len(records) == 2

    @pytest.mark.parametrize("top_n", [0, -1])
    def test_top_n_below_one_rejected(self, top_n, mock_judge, toy_library, toy_corpus):
        # A negative slice bound would drop each pool's last candidates rather than fail.
        store, pools, _ = toy_corpus
        with pytest.raises(DomainError, match="top_n"):
            make_engine(mock_judge, toy_library).judge_pools(store, pools, top_n=top_n)

    def test_failed_pair_does_not_abort_run(self, mock_cfg, toy_library, toy_corpus):
        store, pools, _ = toy_corpus
        pool = pools[0]
        query = store.get(pool.query_id)
        candidates = [store.get(cid) for cid in pool.candidate_ids[:3]]
        fragment = " ".join(mock_tokens(candidates[1].fact_text))
        judge = FaultyOnPairJudge(mock_cfg, poisoned_fragment=fragment)
        engine = make_engine(judge, toy_library, retry=1)
        records = engine.judge_pairs([(query, c) for c in candidates])
        assert [r.candidate_id for r in records] == [c.id for c in candidates]
        assert [r.status for r in records] == ["ok", "failed", "ok"]
        failed = records[1]
        assert failed.label is None
        assert failed.mf_extractions is None and failed.mf_verdict is None
        assert failed.error and "FA" in failed.error

    def test_judge_pools_covers_every_pool(self, mock_judge, toy_library, toy_corpus):
        store, pools, _ = toy_corpus
        engine = make_engine(mock_judge, toy_library)
        records = engine.judge_pools(store, pools[:2], top_n=4)
        assert len(records) == 8
        expected = [
            (pool.query_id, cid) for pool in pools[:2] for cid in pool.candidate_ids[:4]
        ]
        assert [(r.query_id, r.candidate_id) for r in records] == expected


class TestDeterminismAndParallelism:
    def test_two_engines_produce_identical_records(
        self, mock_judge, toy_library, toy_corpus
    ):
        store, pools, _ = toy_corpus
        pool = pools[0]
        query = store.get(pool.query_id)
        candidates = [store.get(cid) for cid in pool.candidate_ids]
        pairs = [(query, c) for c in candidates]
        first = make_engine(mock_judge, toy_library).judge_pairs(pairs)
        second = make_engine(mock_judge, toy_library).judge_pairs(pairs)
        assert first == second

    def test_parallel_equals_serial(self, mock_judge, toy_library, toy_corpus):
        store, pools, _ = toy_corpus
        pool = pools[0]
        query = store.get(pool.query_id)
        candidates = [store.get(cid) for cid in pool.candidate_ids]
        serial = make_engine(mock_judge, toy_library, parallelism=1)
        parallel = make_engine(mock_judge, toy_library, parallelism=4)
        pairs = [(query, c) for c in candidates]
        assert serial.judge_pairs(pairs) == parallel.judge_pairs(pairs)

    def test_labels_match_gold_on_bundled_pool(self, mock_judge, toy_library, toy_corpus):
        store, pools, qrels = toy_corpus
        pool = pools[0]
        query = store.get(pool.query_id)
        candidates = [store.get(cid) for cid in pool.candidate_ids]
        engine = make_engine(mock_judge, toy_library)
        for record in engine.judge_pairs([(query, c) for c in candidates]):
            assert record.label == qrels.label(record.query_id, record.candidate_id)


# Characters a string encoder escapes, or must pass through as they are: quote,
# backslash, C0 controls, DEL, the JSON-legal line separators, a non-BMP
# character and lone surrogates (which only a line never written to a UTF-8
# file can hold).
AWKWARD_CHARS = '"\\\x00\x08\t\n\x0c\r\x1b\x1f\x7f\u2028\u2029\U0001f600盗'
LONE_SURROGATES = "\ud800\udbff\udc00\udfff"


def json_texts(surrogates: bool):
    chars = st.characters(exclude_categories=() if surrogates else ("Cs",))
    awkward = AWKWARD_CHARS + LONE_SURROGATES if surrogates else AWKWARD_CHARS
    return st.text(st.one_of(st.sampled_from(awkward), chars), max_size=12)


def json_values(surrogates: bool = True, nan: bool = True):
    """Strings, and the other JSON scalars from_dict carries in from a hand-edited file."""
    floats = st.floats(allow_nan=nan)
    return st.one_of(json_texts(surrogates), st.none(), st.booleans(), st.integers(), floats)


@st.composite
def judgment_records(draw, values, ids, any_label=True):
    """An ok or failed record whose ids, texts, reasoning and error take any of values.

    An ok record's label is drawn from 0-3, booleans and floats, or, unless
    any_label, is the one its verdicts give, the only label that reads back.
    """
    qid, cid = draw(ids), draw(ids)
    run_id, fingerprint = draw(values), draw(values)
    if draw(st.booleans()):
        return JudgmentRecord(qid, cid, "failed", None, None, None, None, None, run_id, fingerprint, draw(values))

    def extractions():
        return FactExtraction(draw(values), draw(values)), FactExtraction(draw(values), draw(values))

    def verdict():
        return FactVerdict(draw(st.booleans()), draw(values), draw(values))

    mf_extractions, lf_extractions, mf_verdict, lf_verdict = extractions(), extractions(), verdict(), verdict()
    if any_label:
        label = draw(st.one_of(st.integers(0, 3), st.booleans(), st.floats(allow_nan=False)))
    else:
        label = aggregate_label(mf_verdict.relevant, lf_verdict.relevant)
    return JudgmentRecord(
        qid, cid, "ok", label, mf_extractions, lf_extractions, mf_verdict, lf_verdict,
        run_id, fingerprint, draw(values),
    )


@st.composite
def records_with_repeats(draw):
    """Records that draw every value from a few, so ids, texts and verdicts repeat."""
    few = draw(st.lists(json_values(surrogates=False, nan=False), min_size=1, max_size=3))
    some = st.sampled_from(few)
    ids = st.one_of(st.sampled_from(["q1", "c1", "c2"]), some)
    return draw(st.lists(judgment_records(some, ids, any_label=False), min_size=1, max_size=8))


def parts(record):
    """(kind, part) for each part that one read shares between records."""
    for kind in ("query_id", "candidate_id", "status", "run_id", "config_fingerprint"):
        yield "value", getattr(record, kind)
    for extraction in (*(record.mf_extractions or ()), *(record.lf_extractions or ())):
        yield "extraction", extraction
    for verdict in (record.mf_verdict, record.lf_verdict):
        if verdict is not None:
            yield "verdict", verdict


class TestRecordSerialization:
    def make_records(self, mock_cfg, toy_library, toy_corpus):
        store, pools, _ = toy_corpus
        pool = pools[0]
        query = store.get(pool.query_id)
        candidates = [store.get(cid) for cid in pool.candidate_ids[:3]]
        fragment = " ".join(mock_tokens(candidates[2].fact_text))
        judge = FaultyOnPairJudge(mock_cfg, poisoned_fragment=fragment)
        engine = make_engine(judge, toy_library, retry=0)
        return engine.judge_pairs([(query, c) for c in candidates])

    def test_roundtrip_through_dict(self, mock_cfg, toy_library, toy_corpus):
        for record in self.make_records(mock_cfg, toy_library, toy_corpus):
            assert JudgmentRecord.from_dict(record.to_dict()) == record

    def test_roundtrip_through_jsonl(self, tmp_path, mock_cfg, toy_library, toy_corpus):
        records = self.make_records(mock_cfg, toy_library, toy_corpus)
        assert {r.status for r in records} == {"ok", "failed"}
        path = tmp_path / "records.jsonl"
        write_records_jsonl(path, records)
        assert read_records_jsonl(path) == records

    @settings(max_examples=400, deadline=None)
    @given(judgment_records(json_values(), st.one_of(json_texts(True), st.integers(), st.floats())))
    def test_line_matches_the_generic_encoder(self, record):
        assert record_line(record) == record_line_oracle(record)

    @settings(max_examples=150, deadline=None)
    @given(records=records_with_repeats())
    def test_file_reads_back_equal_with_one_object_per_repeated_part(self, tmp_path_factory, records):
        path = tmp_path_factory.mktemp("records") / "run.jsonl"
        write_records_jsonl(path, records)
        read = read_records_jsonl(path)
        assert read == records
        first: dict = {}
        for record in read:
            for kind, part in parts(record):
                assert first.setdefault((kind, part), part) is part

    def test_stable_field_order(self, tmp_path, mock_judge, toy_library, toy_corpus):
        store, pools, _ = toy_corpus
        query = store.get(pools[0].query_id)
        cand = store.get(pools[0].candidate_ids[0])
        engine = make_engine(mock_judge, toy_library)
        record = engine.judge_pair(query, cand)
        keys = list(record.to_dict())
        assert keys == [
            "query_id",
            "candidate_id",
            "status",
            "label",
            "mf",
            "lf",
            "run_id",
            "config_fingerprint",
            "error",
        ]


class TestRecordFiles:
    """A records file is written line by line; one read shares each repeated part."""

    @staticmethod
    def toy_run(path, parallelism, mock_cfg, toy_library, toy_corpus):
        store, pools, _ = toy_corpus
        engine = make_engine(MockJudge(mock_cfg), toy_library, parallelism=parallelism)
        records = engine.judge_pools(store, pools)
        write_records_jsonl(path, records)
        return records

    @pytest.mark.parametrize("parallelism", [1, 8])
    def test_read_back_rewrites_byte_identical(self, parallelism, tmp_path, mock_cfg, toy_library, toy_corpus):
        path, again = tmp_path / "run.jsonl", tmp_path / "again.jsonl"
        records = self.toy_run(path, parallelism, mock_cfg, toy_library, toy_corpus)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_RUN_SHA256["r1"]
        read = read_records_jsonl(path)
        assert read == records
        write_records_jsonl(again, read)
        assert again.read_bytes() == path.read_bytes()

    def test_one_read_shares_each_repeated_part(self, tmp_path, mock_cfg, toy_library, toy_corpus):
        _, pools, _ = toy_corpus
        path = tmp_path / "run.jsonl"
        self.toy_run(path, 1, mock_cfg, toy_library, toy_corpus)
        read = read_records_jsonl(path)
        for pool in pools:
            first, *rest = [r for r in read if r.query_id == pool.query_id]
            assert len(rest) == len(pool.candidate_ids) - 1
            for record in rest:
                assert record.query_id is first.query_id
                assert record.mf_extractions[0] is first.mf_extractions[0]
                assert record.lf_extractions[0] is first.lf_extractions[0]
        # A case met in several pools, as query or candidate, has one object per block, mf and lf.
        objects: dict[tuple[str, str], set[int]] = {}
        for record in read:
            for case_id, mf, lf in zip((record.query_id, record.candidate_id), record.mf_extractions,
                                       record.lf_extractions):
                for block, extraction in (("mf", mf), ("lf", lf)):
                    objects.setdefault((case_id, block), set()).add(id(extraction))
        assert {len(ids) for ids in objects.values()} == {1}
        for field in ("status", "run_id", "config_fingerprint"):
            assert len({id(getattr(r, field)) for r in read}) == 1

    def test_without_extraction_a_case_holds_one_object_for_both_layers(
        self, tmp_path, mock_cfg, toy_library, toy_corpus
    ):
        # Under disable_fe each layer's extraction is the case's fact text with no reply.
        store, pools, _ = toy_corpus
        path = tmp_path / "raw.jsonl"
        engine = make_engine(MockJudge(mock_cfg), toy_library, flags=AblationFlags(disable_fe=True))
        write_records_jsonl(path, engine.judge_pools(store, pools))
        read = read_records_jsonl(path)
        for record in read:
            assert all(mf is lf for mf, lf in zip(record.mf_extractions, record.lf_extractions))
        assert len({id(e) for r in read for e in (*r.mf_extractions, *r.lf_extractions)}) == len(store) == 48

    def test_different_texts_of_one_case_stay_distinct(self, tmp_path):
        # A run resumed against a live backend can hold two extractions of one case.
        first = fabricate_record("q1", "c1", 3, query_text="盗窃 财物")
        second = fabricate_record("q1", "c2", 1, query_text="抢劫 财物")
        third = fabricate_record("q1", "c3", 1, query_text="盗窃 财物")
        fourth = fabricate_record("q1", "c4", 3, query_text="盗窃 财物")
        other_raw = FactExtraction("盗窃 财物", "another reply")
        fourth = dataclasses.replace(fourth, mf_extractions=(other_raw, fourth.mf_extractions[1]))
        records = [first, second, third, fourth]
        path = tmp_path / "resumed.jsonl"
        write_records_jsonl(path, records)
        read = read_records_jsonl(path)
        assert read == records
        queries = [r.mf_extractions[0] for r in read]
        assert queries[0] is queries[2]
        assert [q.text for q in queries] == ["盗窃 财物", "抢劫 财物", "盗窃 财物", "盗窃 财物"]
        assert queries[3].raw_response == "another reply"
        assert len({id(q) for q in queries}) == 3
        assert read[1].mf_verdict is read[2].mf_verdict


class TestTornCheckpoint:
    """A checkpoint whose last line lacks its newline is repaired in place before it is read."""

    LINE = record_line(fabricate_record("q1", "c1", 3, query_text="盗窃 财物 value " * 100)).encode()

    @pytest.mark.parametrize("tail", [b" \t", b"\r", LINE[:-1]], ids=["spaces", "carriage-return", "whole-record"])
    def test_a_last_line_without_its_newline_is_repaired_in_place(self, tail, tmp_path, caplog):
        path = tmp_path / "torn.jsonl"
        path.write_bytes(self.LINE * 2 + tail)
        inode = path.stat().st_ino
        whole = not tail.isspace()  # a whole record gets its newline; a whitespace-only tail is cut off
        assert len(_read_checkpoint(path)) == 2 + whole
        assert path.read_bytes() == self.LINE * (2 + whole) and path.stat().st_ino == inode
        warnings = [] if whole else [f"{path}:3: dropping a line cut short by an interrupted write"]
        assert [r.getMessage() for r in caplog.records] == warnings

    @pytest.mark.parametrize("cut", ["mid-line", "before-newline"])
    def test_a_resume_needs_no_room_on_disk(self, cut, tmp_path, monkeypatch, mock_judge, toy_library, toy_corpus):
        store, pools, _ = toy_corpus
        pairs = pool_pairs(pools)[:12]
        oneshot, path = tmp_path / "oneshot.jsonl", tmp_path / "ck" / "run.jsonl"
        judge_to_file(make_engine(mock_judge, toy_library), store, pairs, oneshot)
        lines = oneshot.read_bytes().splitlines(keepends=True)
        end = {"mid-line": len(lines[5]) // 2, "before-newline": len(lines[5]) - 1}[cut]
        path.parent.mkdir()
        path.write_bytes(b"".join(lines[:5]) + lines[5][:end])
        inode = path.stat().st_ino

        def no_room(*args, **kwargs):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(tempfile, "mkstemp", no_room)
        judge_to_file(make_engine(mock_judge, toy_library), store, pairs, path)
        assert path.read_bytes() == oneshot.read_bytes()
        assert path.stat().st_ino == inode
        assert [p.name for p in path.parent.iterdir()] == ["run.jsonl"]  # no temp file was made

    def test_a_head_that_is_not_utf8_is_reported_and_left_alone(self, tmp_path, mock_judge, toy_library):
        path = tmp_path / "torn.jsonl"
        second = self.LINE.replace("财物".encode(), "café".encode("latin-1"), 1)
        path.write_bytes(self.LINE + second + self.LINE + self.LINE[:50])
        before = path.read_bytes()
        with pytest.raises(ParseError, match="not UTF-8") as excinfo:
            judge_to_file(make_engine(mock_judge, toy_library), None, [], path)
        assert excinfo.value.line == 2
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["torn.jsonl"]  # no temp file is left


def _type_error(container, key) -> str:
    """The message of the TypeError that container[key] raises."""
    try:
        container[key]
    except TypeError as exc:
        return str(exc)
    raise AssertionError("no TypeError")


def _edited(edit) -> dict:
    row = fabricate_record("q1", "c1", 3).to_dict()
    edit(row)
    return row


class TestRecordReadErrors:
    """A malformed record line keeps its ParseError message and line number."""

    # Each TypeError message is taken from the subscript or lookup that fails
    # on that line, since its wording varies across Python versions; the
    # last test pins the wording on 3.11.
    CASES = {
        "mf-missing": (lambda row: row.pop("mf"), "record missing key 'mf'"),
        "mf-a-list": (
            lambda row: row.update(mf=[1, 2]),
            "malformed record: " + _type_error([1, 2], "extractions"),
        ),
        "verdict-a-string": (
            lambda row: row["mf"].update(verdict="RELEVANT"),
            "malformed record: " + _type_error("RELEVANT", "relevant"),
        ),
        "text-an-array": (
            lambda row: row["lf"]["extractions"]["candidate"].update(text=["a", "b"]),
            "malformed record: " + _type_error({}, (FactExtraction, ["a", "b"], "===FACTS===\ntag_c\n===END===")),
        ),
        "lf-null": (
            lambda row: row.update(lf=None),
            "malformed record: " + _type_error(None, "extractions"),
        ),
        "relevant-a-string": (
            lambda row: row["mf"]["verdict"].update(relevant="false"),
            "malformed record: verdict relevant 'false' is not a boolean",
        ),
        "label-a-string": (
            lambda row: row.update(label="x"),
            "malformed record: ok record label 'x' is not 3, the label of its verdicts",
        ),
        "label-out-of-range": (
            lambda row: row.update(label=7),
            "malformed record: ok record label 7 is not 3, the label of its verdicts",
        ),
        "label-a-float": (
            lambda row: row.update(label=2.5),
            "malformed record: ok record label 2.5 is not 3, the label of its verdicts",
        ),
        "label-against-its-verdicts": (
            lambda row: row.update(label=row["label"] ^ 3),
            "malformed record: ok record label 0 is not 3, the label of its verdicts",
        ),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_message_and_line(self, case, tmp_path):
        edit, message = self.CASES[case]
        good = record_line(fabricate_record("q1", "c1", 3))
        path = tmp_path / "bad.jsonl"
        path.write_text(good + " \t\n" + json.dumps(_edited(edit), ensure_ascii=False) + "\n", encoding="utf-8")
        with pytest.raises(ParseError) as info:
            read_records_jsonl(path)
        assert (str(info.value), info.value.line) == (f"{message} ({path}:3)", 3)

    @pytest.mark.parametrize(
        "layer, part",
        [(None, "label"), ("mf", "extractions"), ("mf", "verdict"), ("lf", "extractions"), ("lf", "verdict")],
    )
    def test_ok_record_without_a_part(self, layer, part, tmp_path):
        def edit(row):
            (row if layer is None else row[layer])[part] = None

        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(_edited(edit)) + "\n", encoding="utf-8")
        with pytest.raises(ParseError) as info:
            read_records_jsonl(path)
        name = part if layer is None else f"{layer}_{part}"
        assert (str(info.value), info.value.line) == (f"malformed record: ok record lacks {name} ({path}:1)", 1)

    @pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="the messages were recorded on Python 3.11")
    def test_messages_as_recorded_on_python_3_11(self):
        messages = {case: message for case, (_, message) in self.CASES.items()}
        assert messages == {
            "mf-missing": "record missing key 'mf'",
            "mf-a-list": "malformed record: list indices must be integers or slices, not str",
            "verdict-a-string": "malformed record: string indices must be integers, not 'str'",
            "text-an-array": "malformed record: unhashable type: 'list'",
            "lf-null": "malformed record: 'NoneType' object is not subscriptable",
            "relevant-a-string": "malformed record: verdict relevant 'false' is not a boolean",
            "label-a-string": "malformed record: ok record label 'x' is not 3, the label of its verdicts",
            "label-out-of-range": "malformed record: ok record label 7 is not 3, the label of its verdicts",
            "label-a-float": "malformed record: ok record label 2.5 is not 3, the label of its verdicts",
            "label-against-its-verdicts": "malformed record: ok record label 0 is not 3, the label of its verdicts",
        }


def fingerprint(
    judge, toy, *, tokenizer_mode="cjk_bigram", k1=1.2, b=0.75, exemplar_suffix="", **engine_kwargs
):
    """The fingerprint of an engine on the toy demos, loaded with these settings.

    exemplar_suffix is appended to the exemplar output of the demo first in
    id order, to change the library's content and nothing else.
    """
    library = load_demo_library(toy.demos, tokenizer_mode=tokenizer_mode, k1=k1, b=b)
    if exemplar_suffix:
        demos = [library._by_id[i] for i in sorted(library._by_id)]
        edited = dataclasses.replace(demos[0], exemplar_output=demos[0].exemplar_output + exemplar_suffix)
        library = lexjudge.demos.DemoLibrary([edited, *demos[1:]], tokenizer_mode=tokenizer_mode, k1=k1, b=b)
    return make_engine(judge, library, **engine_kwargs).config_fingerprint


class TestFingerprint:
    def test_stable_for_identical_configuration(self, mock_judge, toy):
        assert fingerprint(mock_judge, toy) == fingerprint(mock_judge, toy)

    @pytest.mark.parametrize(
        "change",
        [
            {"model": "other"},
            {"temperature": 0.5},
            {"top_k_demos": 3},
            {"fa_demos_per_polarity": 1},
            {"flags": AblationFlags(disable_fe=True)},
            {"max_tokens": 512},
            {"sampling_seed": 1},
            {"tokenizer_mode": "whitespace"},
            {"k1": 0.9},
            {"b": 0.4},
            {"exemplar_suffix": " "},
        ],
    )
    def test_sensitive_to_each_knob(self, change, mock_judge, toy):
        assert fingerprint(mock_judge, toy, **change) != fingerprint(mock_judge, toy)

    def test_sensitive_to_template_text(self, mock_judge, toy, tmp_path):
        templates = load_templates()
        write_template_dir(tmp_path, templates)
        assert fingerprint(mock_judge, toy, templates_dir=tmp_path) == fingerprint(mock_judge, toy)
        write_template_dir(tmp_path, templates | {"fe_mf": templates["fe_mf"] + "\nExtra instruction line."})
        assert fingerprint(mock_judge, toy, templates_dir=tmp_path) != fingerprint(mock_judge, toy)

    def test_integer_bm25_parameters_fingerprint_as_floats(self, mock_judge, toy):
        assert fingerprint(mock_judge, toy, k1=1, b=1) == fingerprint(mock_judge, toy, k1=1.0, b=1.0)

    def test_engine_fingerprint_follows_the_demo_library(self, mock_judge, toy_library):
        # The content hash takes the demos in id order, not file order.
        demos = [toy_library._by_id[i] for i in sorted(toy_library._by_id)]
        reordered = lexjudge.demos.DemoLibrary(reversed(demos))
        assert reordered.content_sha256 == toy_library.content_sha256
        base = make_engine(mock_judge, toy_library).config_fingerprint
        assert make_engine(mock_judge, reordered).config_fingerprint == base

    def test_engine_validates_knobs(self, mock_judge, toy_library):
        with pytest.raises(DomainError):
            make_engine(mock_judge, toy_library, top_k_demos=0)
        with pytest.raises(DomainError):
            make_engine(mock_judge, toy_library, retry=-1)
        with pytest.raises(DomainError):
            make_engine(mock_judge, toy_library, parallelism=0)

    def test_run_id_override(self, mock_judge, toy_library):
        assert make_engine(mock_judge, toy_library).run_id == "r1"
        assert make_engine(mock_judge, toy_library, run_id="r7").run_id == "r7"

    @pytest.mark.parametrize("run_id", ["r0", "r01", "run1", "r1x", ""])
    def test_run_id_names_a_run_number(self, run_id, mock_judge, toy_library):
        with pytest.raises(DomainError, match="run_id must read r<n>"):
            make_engine(mock_judge, toy_library, run_id=run_id)

    def test_requests_carry_the_run_number(self, toy_library, toy_corpus):
        store, pools, _ = toy_corpus
        judge = ScriptedJudge([GOOD_FE] * 4 + [GOOD_FA] * 2)
        engine = make_engine(judge, toy_library, run_id="r7")
        assert engine.judge_pair(store.get(pools[0].query_id), store.get(pools[0].candidate_ids[0])).status == "ok"
        assert [request.sample_index for request in judge.requests] == [7] * 6
