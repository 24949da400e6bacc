"""The engine diffed against the slow reference pipeline of tests/oracles.py.

The reference judges serially, ranks each stage call's whole demo set with
rank_oracle, fills prompts by one re.sub and writes lines with the generic
JSON encoder. Agreement on run-file bytes and on every prompt sent, over
drawn pools, libraries, ablations, seeds, parallelism and mock lexicons
(a short one fails extractions), is the evidence that the engine's memos,
frames and scheduling change nothing, failed pairs included. The reference
keeps only each case's extractions and asks each pair's comparisons, where
the engine makes each call with a distinct first prompt once per run, so
the engine must send the reference's calls less those whose first prompt
was sent before, in the reference's order.
The same agreement over drawn schedules of interrupted, torn and resumed
runs is the evidence for the checkpoint's resume rules.
"""

from __future__ import annotations

import json
import math
import sys
import tempfile
from collections import Counter
from contextlib import nullcontext
from functools import lru_cache
from pathlib import Path
from unittest.mock import Mock

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from lexjudge.config import AblationFlags
from lexjudge.corpus import CandidatePool
from lexjudge.demos import DemoLibrary, Demonstration, FactType, Stage
from lexjudge.engine import FA_REMINDER, FE_REMINDER, JudgeEngine, judge_to_file, load_templates, pool_pairs
from lexjudge.errors import AuthError, UpstreamError
from lexjudge.gateway import MockJudge, MockJudgeConfig

from conftest import Interrupting, RecordingJudge
from oracles import reference_judge_pools

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
from make_demo_library import build_library  # noqa: E402


def each_call_once(sent) -> list[str]:
    """The texts of sent less each call whose first prompt was sent before: what one engine run sends.

    A call is a first prompt and the retries after it, each a retry of the
    first prompt with its stage's reminder appended, so a call that retries
    twice sends one text twice.
    """
    calls: dict[str, list[str]] = {}
    for text in sent:
        if not text.endswith((f"\n\n{FE_REMINDER}", f"\n\n{FA_REMINDER}")):
            texts = [] if text in calls else calls.setdefault(text, [])
        texts.append(text)
    return [text for texts in calls.values() for text in texts]


@lru_cache(maxsize=None)
def drawn_library(per_set: int, lexicon: frozenset[str]) -> tuple[Demonstration, ...]:
    """A scripts/make_demo_library.py library of per_set demos per (stage, fact type) set."""
    records = build_library(per_set, MockJudgeConfig(lexicon=lexicon))
    return tuple(
        Demonstration(r["id"], Stage(r["stage"]), FactType(r["fact_type"]), r["input_text"], r["exemplar_output"],
                      r["polarity"])
        for r in records
    )


class TestReferencePipeline:
    @given(
        data=st.data(),
        top_n=st.none() | st.integers(1, 10),
        per_set=st.integers(2, 24),
        flags=st.builds(AblationFlags, st.booleans(), st.booleans(), st.booleans()),
        sampling_seed=st.integers(0, 2**32),
        top_k_demos=st.integers(1, 3),
        fa_demos_per_polarity=st.integers(1, 3),
        parallelism=st.sampled_from([1, 4]),
    )
    @settings(max_examples=60, deadline=None)
    def test_engine_writes_and_sends_what_the_reference_does(
        self, toy_corpus, toy_lexicon, data, top_n, per_set, flags, sampling_seed, top_k_demos,
        fa_demos_per_polarity, parallelism,
    ):
        store, all_pools, _ = toy_corpus
        picked = data.draw(st.sets(st.integers(0, len(all_pools) - 1), min_size=1, max_size=3), label="pools")
        pools = [all_pools[i] for i in sorted(picked)]
        demos = drawn_library(per_set, toy_lexicon)
        # A case holding no term of the mock's lexicon gets an empty FE_LF facts block, so its
        # legal-fact extraction fails and every pair of that case fails with it.
        lexicon = data.draw(st.frozensets(st.sampled_from(sorted(toy_lexicon))), label="lexicon")
        mock_cfg = MockJudgeConfig(lexicon=lexicon)
        knobs = dict(sampling_seed=sampling_seed, top_k_demos=top_k_demos, fa_demos_per_polarity=fa_demos_per_polarity)
        want_file, want_sent, owners = reference_judge_pools(store, pools, top_n, demos, load_templates(), mock_cfg,
                                                             flags, **knobs)
        judge = RecordingJudge(MockJudge(mock_cfg))
        engine = JudgeEngine(judge, DemoLibrary(demos), flags=flags, parallelism=parallelism, **knobs)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "judge.jsonl"
            judge_to_file(engine, store, pool_pairs(pools, top_n), path)
            assert path.read_bytes() == want_file.encode("utf-8")
        event("a failed record" if '"status": "failed"' in want_file else "no failed record")
        # Every call of the reference whose first prompt is not sent before; serial, in its order too.
        want = each_call_once(want_sent)
        if len(want) < len(want_sent):
            event("a repeated call")
        assert set(judge.user_texts) == set(want_sent)
        assert Counter(judge.user_texts) == Counter(want)
        if parallelism == 1:
            assert judge.user_texts == want


def held_ok(path: Path) -> set[tuple[str, str]]:
    """The pairs of a checkpoint's ok lines; a last line cut short holds none, one without its newline counts."""
    held = set()
    for line in path.read_bytes().splitlines() if path.exists() else []:
        try:
            row = json.loads(line)
        except ValueError:
            continue
        if row["status"] == "ok":
            held.add((row["query_id"], row["candidate_id"]))
    return held


class TestResumedCheckpoint:
    # Each segment but the last is cut short once it has made a drawn percentage of the calls it
    # needs: by KeyboardInterrupt, which gets past the engine's except Exception; by AuthError,
    # which the engine lets through; or by UpstreamError, which fails every pair left, so the run
    # ends with failed lines to retry. Then the drawn number of bytes may be cut off its last line.
    # Nothing drawn depends on the file, whose lines a parallel segment leaves in any order.
    @given(
        data=st.data(),
        segments=st.lists(
            st.tuples(st.sampled_from([1, 4]), st.sampled_from([KeyboardInterrupt, AuthError, UpstreamError]),
                      st.integers(0, 100), st.none() | st.just(1) | st.integers(2, 4000)),
            min_size=1, max_size=3,
        ),
        last_parallelism=st.sampled_from([1, 4]),
    )
    @settings(max_examples=100, deadline=None)
    def test_any_schedule_of_resumes_ends_in_the_one_shot_file(
        self, toy_corpus, toy_lexicon, data, segments, last_parallelism
    ):
        store = toy_corpus[0]
        # Few cases, so pairs share them and a resume has extractions to reuse.
        cases = data.draw(st.lists(st.sampled_from(sorted(store.ids())), min_size=2, max_size=6, unique=True),
                          label="cases")
        pairs = data.draw(st.lists(st.sampled_from([(q, c) for q in cases for c in cases if q != c]), min_size=1,
                                   max_size=12, unique=True), label="pairs")
        # A case holding no term of the mock's lexicon fails its legal-fact extraction.
        dropped = data.draw(st.frozensets(st.sampled_from(sorted(toy_lexicon))), label="terms dropped")
        mock_cfg = MockJudgeConfig(lexicon=toy_lexicon - dropped)
        demos = drawn_library(4, toy_lexicon)
        library = DemoLibrary(demos)
        pools = [CandidatePool(q, (c,)) for q, c in pairs]
        want_file, want_sent, owners = reference_judge_pools(store, pools, None, demos, load_templates(), mock_cfg,
                                                             AblationFlags())
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "run.jsonl"
            for parallelism, error, percent, tear in [*segments, (last_parallelism, None, None, None)]:
                held = held_ok(path)
                held_cases = {case for pair in held for case in pair}
                pending_cases = {case for pair in pairs if pair not in held for case in pair}
                if pending_cases & held_cases:
                    event("a resume with extractions to reuse")
                # The reference's prompts less those of a pair an ok line holds, of a case one holds,
                # whose extractions the resume takes from that line, and of a comparison one holds,
                # whose verdict it takes; then each call once.
                held_comparisons = {text for text, (pair, case) in zip(want_sent, owners)
                                    if case is None and pair in held}
                if any(text in held_comparisons for text, (pair, _) in zip(want_sent, owners) if pair not in held):
                    event("a resume with a comparison to reuse")
                need = each_call_once(text for text, (pair, case) in zip(want_sent, owners)
                                      if pair not in held and case not in held_cases and text not in held_comparisons)
                k = math.inf if error is None else len(need) * percent // 100
                judge = RecordingJudge(MockJudge(mock_cfg))
                interrupting = Interrupting(judge, k, error)
                engine = JudgeEngine(interrupting, library, parallelism=parallelism)
                counting = Mock(wraps=store)
                with pytest.raises(error) if error in (KeyboardInterrupt, AuthError) and k < len(need) else nullcontext():
                    judge_to_file(engine, counting, pairs, path)
                looked_up = {call.args[0] for call in counting.get.call_args_list}
                assert looked_up == pending_cases  # only the pending pairs' cases
                if interrupting.stopped_at:
                    event(f"{error.__name__} at {interrupting.stopped_at}")
                sent = judge.user_texts
                # Nothing held is asked for again, and no call twice.
                assert Counter(sent) <= Counter(need)
                assert not set(sent) & held_comparisons
                # A segment stops only at its interrupt, and a serial one asks in the reference's order.
                assert len(sent) == min(k, len(need))
                if parallelism == 1:
                    assert sent == need[: len(sent)]
                assert not list(path.parent.glob("*.tmp"))
                lines = path.read_bytes().splitlines(keepends=True)
                if tear is not None and lines:
                    event("a line without its newline" if tear == 1 else "a line cut short")
                    path.write_bytes(b"".join(lines[:-1]) + lines[-1][: -min(tear, len(lines[-1]))])
            assert path.read_bytes() == want_file.encode("utf-8")
