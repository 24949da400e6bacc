"""Workload parameters and the set-up each workload pays before judging.

Set-up is what a ``lexjudge`` command does before its first judge call:
import, ingest, lexicon, judge construction, demo library with its BM25
indexes, and the engine (templates and fingerprint). The benchmark runs it
in-process, and ``setup_probe.py`` runs it in fresh interpreters to time
it from process start.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from lexjudge.augmentation import Bm25PairScorer
from lexjudge.config import Config
from lexjudge.corpus import CandidatePool, CaseStore, Qrels, ingest_corpus, load_cases
from lexjudge.demos import load_demo_library
from lexjudge.engine import JudgeEngine
from lexjudge.gateway import ChatCompletionsJudge, Judge, MockJudge, MockJudgeConfig, load_lexicon

from tracing import no_span

API_KEY_ENV = "LEXJUDGE_BENCH_API_KEY"
BASE_URL = "http://fake-backend.invalid/v1"


@dataclass(frozen=True)
class WorkloadSpec:
    scale: int  # replicas of the twelve toy families
    parallelism: int
    backend: bool  # ChatCompletionsJudge over the fake transport, else MockJudge
    pools_per_iteration: int = 0  # pools: judge this many pools per iteration, in turn; 0 for all
    sample: int = 0  # augment: pairs sampled
    keep: int = 0  # augment: pairs kept by the pre-ranker
    prefix: int = 0  # augment: pairs annotated before the resumed rerun


WORKLOADS = {
    # Each iteration judges the next twelve pools, so a run meets new request
    # contents (and so new latencies) as it goes, instead of repeating them.
    "pools-backend": WorkloadSpec(scale=6, parallelism=2, backend=True, pools_per_iteration=12),
    "pools-cpu": WorkloadSpec(scale=5, parallelism=1, backend=False),
    "augment-funnel": WorkloadSpec(
        scale=10, parallelism=1, backend=False, sample=2000, keep=240, prefix=80
    ),
}


def _no_transport(url: str, headers: dict, payload: dict, timeout: float) -> tuple[int, dict]:
    raise RuntimeError("set-up probe makes no backend call")


@dataclass
class Setup:
    name: str
    spec: WorkloadSpec
    config: Config
    data: Path
    store: CaseStore
    pools: list[CandidatePool]
    qrels: Qrels | None
    mock_cfg: MockJudgeConfig
    judge: Judge
    engine: JudgeEngine
    scorer: Bm25PairScorer | None

    def make_engine(self, run_id: str | None = None, *, temperature: float | None = None,
                    span=no_span) -> JudgeEngine:
        """Library plus engine, built as the CLI builds them for each run."""
        return make_engine(self.config, self.judge, self.data, run_id=run_id,
                           temperature=temperature, span=span)


def make_engine(config: Config, judge: Judge, data: Path, *, run_id: str | None = None,
                temperature: float | None = None, span=no_span) -> JudgeEngine:
    with span("demos.load_library"):
        library = load_demo_library(
            data / "demos.json", tokenizer_mode=config.tokenizer.mode, k1=config.bm25.k1, b=config.bm25.b
        )
    return JudgeEngine(
        judge,
        library,
        model=config.api.model,
        temperature=config.judge.temperature if temperature is None else temperature,
        max_tokens=config.judge.max_tokens,
        top_k_demos=config.judge.top_k_demos,
        fa_demos_per_polarity=config.judge.fa_demos_per_polarity,
        retry=config.judge.retry,
        sampling_seed=config.mock.seed,
        parallelism=config.parallelism,
        run_id=run_id,
    )


def setup(
    name: str,
    data: str | Path,
    *,
    transport: Callable | None = None,
    span=no_span,
) -> Setup:
    """Everything before the first judge call of workload ``name``."""
    spec = WORKLOADS[name]
    data = Path(data)
    config = Config()
    config.parallelism = spec.parallelism
    with span("corpus.ingest"):
        if spec.sample:
            store, pools, qrels = load_cases(data / "cases.jsonl"), [], None
        else:
            store, pools, qrels = ingest_corpus(
                data / "cases.jsonl", data / "pools.json", data / "qrels.json"
            )
    mock_cfg = MockJudgeConfig(
        mf_jaccard_threshold=config.mock.mf_jaccard_threshold,
        lexicon=load_lexicon(data / "lexicon.txt"),
        seed=config.mock.seed,
    )
    if spec.backend:
        judge: Judge = ChatCompletionsJudge(
            base_url=BASE_URL,
            model=config.api.model,
            key_env=API_KEY_ENV,
            timeout=config.api.timeout,
            retry=config.judge.retry,
            # Twice the fake backend's base latency: the 0.5 s default would
            # turn each injected 503 into half a second of idle worker.
            backoff_base=0.01,
            cache_dir=None,
            transcript_path=None,
            transport=transport or _no_transport,
        )
    else:
        judge = MockJudge(mock_cfg)
    temperature = config.augment.temperature if spec.sample else None
    engine = make_engine(config, judge, data, temperature=temperature, span=span)
    scorer = (
        Bm25PairScorer(config.tokenizer.mode, config.bm25.k1, config.bm25.b) if spec.sample else None
    )
    return Setup(name, spec, config, data, store, pools, qrels, mock_cfg, judge, engine, scorer)
