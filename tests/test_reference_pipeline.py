"""The engine diffed against the slow reference pipeline of tests/oracles.py.

The reference judges serially, ranks each stage call's whole demo set with
rank_oracle, fills prompts by one re.sub and writes lines with the generic
JSON encoder. Agreement on run-file bytes and on every prompt sent, over
drawn pools, libraries, ablations, seeds, parallelism and mock lexicons
(a short one fails extractions), is the evidence that the engine's memos,
frames and scheduling change nothing, failed pairs included.
"""

from __future__ import annotations

import sys
import tempfile
from collections import Counter
from functools import lru_cache
from pathlib import Path

from hypothesis import event, given, settings
from hypothesis import strategies as st

from lexjudge.config import AblationFlags
from lexjudge.demos import DemoLibrary, Demonstration, FactType, Stage
from lexjudge.engine import JudgeEngine, judge_to_file, load_templates, pool_pairs
from lexjudge.gateway import MockJudge, MockJudgeConfig

from conftest import RecordingJudge
from oracles import reference_judge_pools

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
from make_demo_library import build_library  # noqa: E402


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
        want_file, want_sent = reference_judge_pools(store, pools, top_n, demos, load_templates(), mock_cfg, flags,
                                                     **knobs)
        judge = RecordingJudge(MockJudge(mock_cfg))
        engine = JudgeEngine(judge, DemoLibrary(demos), flags=flags, parallelism=parallelism, **knobs)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "judge.jsonl"
            judge_to_file(engine, store, pool_pairs(pools, top_n), path)
            assert path.read_bytes() == want_file.encode("utf-8")
        event("a failed record" if '"status": "failed"' in want_file else "no failed record")
        # Each prompt as often as the reference sends it, so the same distinct prompts and call
        # count; serial, in the same order too.
        assert Counter(judge.user_texts) == Counter(want_sent)
        if parallelism == 1:
            assert judge.user_texts == want_sent
