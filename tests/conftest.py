"""Shared fixtures: bundled corpus handles, instrumented judges, engines."""

from __future__ import annotations

import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import strategies as st

from lexjudge.corpus import CaseStore, ingest_corpus
from lexjudge.demos import load_demo_library
from lexjudge.engine import FactExtraction, FactVerdict, JudgeEngine, JudgmentRecord
from lexjudge.gateway import (
    JudgeRequest,
    JudgeResponse,
    MockJudge,
    MockJudgeConfig,
    TokenUsage,
    load_lexicon,
    mock_complete,
    stage_of,
)
from lexjudge.toydata import toy_paths

# The code points on each side of every CJK range boundary, and the
# whitespace str.split honours beyond the ASCII space.
CJK_BOUNDARIES = [
    chr(cp)
    for cp in (
        0x33FF, 0x3400, 0x4DBF, 0x4DC0, 0x4DFF, 0x4E00, 0x9FFF, 0xA000,
        0xF8FF, 0xF900, 0xFAFF, 0xFB00, 0x1FFFF, 0x20000, 0x2FA1F, 0x2FA20,
    )
]
SPLIT_WHITESPACE = ["\u3000", "\u00a0", "\u0085", "\x1c", "\x1d", "\x1e", "\x1f"]
MIXED_ALPHABET = st.sampled_from(
    list("盗窃罪案件被告人abc XY12 。，") + CJK_BOUNDARIES + SPLIT_WHITESPACE
)
MIXED_TEXT = st.text(alphabet=MIXED_ALPHABET, max_size=40)


@pytest.fixture()
def short_switch_interval():
    """Threads switch far more often than by default, so races show up in short tests."""
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(previous)


@pytest.fixture(scope="session")
def toy():
    return toy_paths()


@pytest.fixture(scope="session")
def large_library_path(tmp_path_factory) -> Path:
    """A library of 24 demos per set, as scripts/make_demo_library.py writes it."""
    script = Path(__file__).resolve().parents[1] / "scripts" / "make_demo_library.py"
    path = tmp_path_factory.mktemp("library") / "demos-24.json"
    command = [sys.executable, str(script), "--per-set", "24", "--out", str(path)]
    subprocess.run(command, check=True, capture_output=True)
    return path


@pytest.fixture(scope="session")
def toy_corpus(toy):
    """(store, pools, qrels) for the bundled corpus."""
    return ingest_corpus(toy.cases, toy.pools, toy.qrels)


@pytest.fixture(scope="session")
def toy_lexicon(toy):
    return load_lexicon(toy.lexicon)


@pytest.fixture(scope="session")
def toy_library(toy):
    return load_demo_library(toy.demos)


@pytest.fixture()
def mock_cfg(toy_lexicon):
    return MockJudgeConfig(lexicon=toy_lexicon)


@pytest.fixture()
def mock_judge(mock_cfg):
    return MockJudge(mock_cfg)


class InstrumentedJudge:
    """Wraps a judge, recording the stage marker of every request."""

    def __init__(self, inner):
        self.inner = inner
        self.stages: list[str] = []
        self._lock = threading.Lock()

    def complete(self, request: JudgeRequest) -> JudgeResponse:
        stage = stage_of(request.user_text) or "UNKNOWN"
        with self._lock:
            self.stages.append(stage)
        return self.inner.complete(request)

    def count(self, prefix: str) -> int:
        return sum(1 for s in self.stages if s.startswith(prefix))


class RecordingJudge:
    """Wraps a judge, keeping the user text of every request in call order."""

    def __init__(self, inner):
        self.inner = inner
        self.user_texts: list[str] = []

    def complete(self, request):
        self.user_texts.append(request.user_text)  # list.append is atomic, so parallel calls lose none
        return self.inner.complete(request)


class Interrupting:
    """Passes the first k calls to inner; every later call raises error, and stopped_at keeps its first stage."""

    def __init__(self, inner, k: float, error: type[BaseException] | None):
        self.inner = inner
        self.k = k
        self.error = error
        self.calls = 0
        self.stopped_at = None
        self._lock = threading.Lock()

    def complete(self, request):
        with self._lock:
            self.calls += 1
            if self.calls > self.k:
                self.stopped_at = self.stopped_at or stage_of(request.user_text)
                raise self.error(f"after {self.k} calls")
        return self.inner.complete(request)


@pytest.fixture()
def instrumented(mock_judge):
    return InstrumentedJudge(mock_judge)


class ScriptedJudge:
    """Returns canned response texts in order; records every request."""

    def __init__(self, texts):
        self.texts = list(texts)
        self.requests: list[JudgeRequest] = []

    def complete(self, request: JudgeRequest) -> JudgeResponse:
        self.requests.append(request)
        if not self.texts:
            raise AssertionError("scripted judge ran out of responses")
        return JudgeResponse(
            text=self.texts.pop(0), usage=TokenUsage(1, 1), latency_ms=0.0
        )


class FaultyOnPairJudge:
    """Mock judge that garbles FA_MF responses for one (query, cand) pair.

    The garbled text carries no verdict line, so the stage exhausts its
    retries and the pair must surface as a failed record.
    """

    def __init__(self, cfg: MockJudgeConfig, poisoned_fragment: str):
        self.cfg = cfg
        self.poisoned_fragment = poisoned_fragment

    def complete(self, request: JudgeRequest) -> JudgeResponse:
        if (
            stage_of(request.user_text) == "FA_MF"
            and self.poisoned_fragment in request.user_text
        ):
            return JudgeResponse(
                text="no verdict provided", usage=TokenUsage(1, 1), latency_ms=0.0
            )
        return mock_complete(request, self.cfg)


def fabricate_record(
    query_id: str,
    candidate_id: str,
    label: int,
    *,
    status: str = "ok",
    run_id: str = "r1",
    query_text: str = "query facts",
    cand_text: str = "candidate facts",
) -> JudgmentRecord:
    """Hand-built judgment record whose verdicts are consistent with label."""
    if status != "ok":
        return JudgmentRecord(
            query_id=query_id,
            candidate_id=candidate_id,
            status=status,
            label=None,
            mf_extractions=None,
            lf_extractions=None,
            mf_verdict=None,
            lf_verdict=None,
            run_id=run_id,
            config_fingerprint="fab0",
            error="fabricated failure",
        )
    mf = bool(label & 1)
    lf = bool(label & 2)
    verdict_word = {True: "VERDICT: RELEVANT", False: "VERDICT: IRRELEVANT"}
    return JudgmentRecord(
        query_id=query_id,
        candidate_id=candidate_id,
        status="ok",
        label=label,
        mf_extractions=(
            FactExtraction(query_text, f"===FACTS===\n{query_text}\n===END==="),
            FactExtraction(cand_text, f"===FACTS===\n{cand_text}\n===END==="),
        ),
        lf_extractions=(
            FactExtraction("tag_q", "===FACTS===\ntag_q\n===END==="),
            FactExtraction("tag_c", "===FACTS===\ntag_c\n===END==="),
        ),
        mf_verdict=FactVerdict(mf, "material comparison", f"material comparison\n{verdict_word[mf]}"),
        lf_verdict=FactVerdict(lf, "legal comparison", f"legal comparison\n{verdict_word[lf]}"),
        run_id=run_id,
        config_fingerprint="fab0",
    )


def make_engine(judge, library, **kwargs) -> JudgeEngine:
    return JudgeEngine(judge, library, **kwargs)


@pytest.fixture()
def engine_factory(toy_library):
    def factory(judge, **kwargs):
        return make_engine(judge, toy_library, **kwargs)

    return factory


@pytest.fixture(scope="session")
def toy_store_only(toy_corpus) -> CaseStore:
    return toy_corpus[0]
