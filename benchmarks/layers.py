"""Per-layer metrics of the traced run.

Boundary metrics come from the spans the benchmark records around its
calls into lexjudge. The layers nested inside ``judge_pools`` (tokenizer,
demo selection, prompt assembly, reply parsing, mock rules, record
(de)serialisation) are out of reach of those spans, so they are measured
by replaying the requests, replies and records captured at the ``Judge``
boundary through the layers' public functions.
"""

from __future__ import annotations

import json
import statistics
import time
from typing import Callable, Sequence

from lexjudge.demos import FactType, Stage, adm_select, adm_select_fa
from lexjudge.engine import JudgmentRecord, assemble_prompt, load_templates, parse_facts_block, parse_verdict
from lexjudge.errors import JudgeResponseUnparseable
from lexjudge.gateway import (
    INPUT_A,
    INPUT_B,
    STAGE_PREFIX,
    STAGES,
    TARGET_BEGIN,
    TARGET_END,
    JudgeRequest,
    JudgeResponse,
    mock_complete,
    stage_of,
)
from lexjudge.retrieval import tokenize

from setup_phase import Setup
from tracing import Span, Tracer, busy_time, percentile, self_time, within

ENGINE_SPANS = ("engine.judge_pools", "augmentation.annotate")
REPLAY_SAMPLE = 1500
REPLAY_MIN_S = 0.25


def _median(spans: Sequence[Span]) -> float | None:
    return statistics.median(s.duration for s in spans) if spans else None


def boundary_metrics(tracer: Tracer, backend: bool) -> tuple[dict[str, float | None], dict[str, str]]:
    """Metrics from spans; a value of None is unmeasured, with the reason returned."""
    engines = [s for s in tracer.spans if s.name in ENGINE_SPANS]
    completes = tracer.named("gateway.complete")
    transports = tracer.named("gateway.transport")
    pairs = sum(e.attrs["pairs"] for e in engines)
    cases = sum(e.attrs["cases"] for e in engines)
    engine_time = sum(e.duration for e in engines)
    busy = self_total = inflight = 0.0
    for e in engines:
        inside = within(completes, e)
        busy += busy_time((e.start, e.end), [(c.start, c.end, c.thread) for c in inside])
        self_total += self_time((e.start, e.end), [(c.start, c.end) for c in inside])
        inflight += sum(c.duration for c in inside)
    slots = sum(e.duration * e.attrs["parallelism"] for e in engines)
    fe_first = sum(1 for c in completes if c.attrs["first"] and c.attrs["stage"] in ("FE_MF", "FE_LF"))
    backend_calls = transports if backend else completes
    m: dict[str, float | None] = {
        "engine.worker_idle_share": 1.0 - busy / slots,
        "engine.fe_calls_per_case": fe_first / (2 * cases),
        "engine.fe_reuse_share": 1.0 - fe_first / (4 * pairs),
        "engine.self_s_per_pair": self_total / pairs,
        "engine.parse_retries": sum(1 for c in completes if not c.attrs["first"]) / pairs,
        "gateway.transport_retries": (len(transports) - len(completes)) / pairs if backend else None,
        "gateway.call_ms.p50": percentile([c.duration for c in completes], 50) * 1e3,
        "gateway.call_ms.p99": percentile([c.duration for c in completes], 99) * 1e3,
        "gateway.inflight_mean": inflight / engine_time,
        "gateway.overhead_us_per_call": (
            (sum(c.duration for c in completes) - sum(t.duration for t in transports)) / len(completes) * 1e6
            if backend
            else None
        ),
    }
    for stage in STAGES:
        calls = [c for c in backend_calls if c.attrs["stage"] == stage]
        m[f"gateway.calls.{stage}"] = len(calls) / pairs
        answered = [c for c in calls if c.attrs.get("status", 200) == 200]
        m[f"gateway.prompt_tokens_per_call.{stage}"] = (
            sum(c.attrs["prompt_tokens"] for c in answered) / len(answered) if answered else None
        )
    m["corpus.ingest_s"] = _median(tracer.named("corpus.ingest"))
    m["demos.library_load_s"] = _median(tracer.named("demos.load_library"))
    prerank = tracer.named("augmentation.prerank")
    annotate = tracer.named("augmentation.annotate")
    annotated = sum(s.attrs["pairs"] for s in annotate)
    m["augmentation.sample_s"] = _median(tracer.named("augmentation.sample"))
    m["augmentation.prerank_us_per_pair"] = (
        sum(s.duration for s in prerank) / sum(s.attrs["pairs"] for s in prerank) * 1e6 if prerank else None
    )
    m["augmentation.annotate_s_per_pair"] = (
        sum(s.duration for s in annotate) / annotated if annotated else None
    )
    m["augmentation.resume_read_s"] = _median(tracer.named("augmentation.resume_read"))
    m["augmentation.build_export_s"] = _median(tracer.named("augmentation.build_export"))
    m["engine.write_records_s"] = _median(tracer.named("engine.write_records"))
    m["evaluation.validity_s"] = _median(tracer.named("evaluation.validity"))
    m["evaluation.reliability_s"] = _median(tracer.named("evaluation.reliability"))
    m["evaluation.ndcg_s"] = _median(tracer.named("evaluation.ndcg"))
    reasons = {
        "gateway.transport_retries": "MockJudge has no transport",
        "gateway.overhead_us_per_call": "MockJudge has no transport to subtract",
        "augmentation.sample_s": "workload runs no augmentation",
        "augmentation.prerank_us_per_pair": "workload runs no augmentation",
        "augmentation.annotate_s_per_pair": "workload runs no augmentation",
        "augmentation.resume_read_s": "workload runs no augmentation",
        "augmentation.build_export_s": "workload runs no augmentation",
        "evaluation.validity_s": "workload runs no evaluation",
        "evaluation.reliability_s": "workload runs no evaluation",
        "evaluation.ndcg_s": "workload runs no evaluation",
    }
    unmeasured = {k: reasons.get(k, "no calls of this kind") for k, v in m.items() if v is None}
    return m, unmeasured


# -- replay of the nested layers ----------------------------------------------


def _per_call_us(fn: Callable, items: Sequence) -> float:
    calls = 0
    started = time.perf_counter()
    while True:
        for item in items:
            fn(item)
        calls += len(items)
        elapsed = time.perf_counter() - started
        if elapsed >= REPLAY_MIN_S:
            return elapsed / calls * 1e6


def _between(lines: list[str], begin: str, end: str | None) -> str:
    start = lines.index(begin) + 1
    return "\n".join(lines[start : lines.index(end, start)] if end else lines[start:])


def _decode(request: JudgeRequest) -> tuple[Stage, FactType, str, str]:
    """Stage, fact type, target and demo-selection text of a captured request."""
    stage, fact_type = stage_of(request.user_text).split("_")
    target = _between(request.user_text.splitlines(), TARGET_BEGIN, TARGET_END)
    if stage == "FE":
        return Stage.FE, FactType(fact_type), target, target
    lines = target.splitlines()
    a = _between(lines, INPUT_A, INPUT_B)
    b = _between(lines, INPUT_B, None)
    return Stage.FA, FactType(fact_type), target, f"{a}\n{b}"


def replay_metrics(
    s: Setup,
    captured: Sequence[tuple[JudgeRequest, JudgeResponse]],
    records: Sequence[JudgmentRecord],
) -> tuple[dict[str, float], list[str]]:
    """Per-call cost of the nested layers on the captured inputs, plus notes.

    A note says where the replay no longer rebuilds the prompts the engine
    sent; the replayed costs then describe the layers' functions, not the
    engine's exact use of them.
    """
    step = max(1, len(captured) // REPLAY_SAMPLE)
    sample = [(req, resp, *_decode(req)) for req, resp in captured[::step]]
    library = s.engine.library
    cfg = s.config.judge
    templates = load_templates()
    mode = s.config.tokenizer.mode

    def select(item):
        _, _, stage, fact_type, _, query = item
        if stage is Stage.FE:
            return adm_select(library, query, stage, fact_type, cfg.top_k_demos)
        relevant, irrelevant = adm_select_fa(library, query, fact_type, cfg.fa_demos_per_polarity)
        return relevant + irrelevant

    demos = [select(item) for item in sample]
    assembly = [(item[2], item[3], d, f"{TARGET_BEGIN}\n{item[4]}\n{TARGET_END}") for item, d in zip(sample, demos)]
    notes = []
    mismatched = sum(
        1
        for (req, *_), (stage, fact_type, d, wrapped) in zip(sample, assembly)
        if f"{STAGE_PREFIX}{stage.value}_{fact_type.value}\n"
        + assemble_prompt(stage, fact_type, d, wrapped, templates=templates)
        not in (req.user_text, req.user_text.rsplit("\n\n", 1)[0])
    )
    if mismatched:
        notes.append(f"replayed prompts differ from {mismatched} of {len(sample)} captured prompts")

    def parse(item):
        try:
            (parse_facts_block if item[2] is Stage.FE else parse_verdict)(item[1].text)
        except JudgeResponseUnparseable:
            pass

    texts = [item[5] for item in sample]
    chars = sum(len(t) for t in texts)
    tokenize_us = _per_call_us(lambda t: tokenize(t, mode), texts)
    lines = [json.dumps(r.to_dict(), ensure_ascii=False) for r in records]
    metrics = {
        "retrieval.tokenize_mchar_per_s": chars / len(texts) / tokenize_us,
        "demos.select_us_per_call": _per_call_us(select, sample),
        "engine.assemble_us_per_call": _per_call_us(
            lambda a: assemble_prompt(a[0], a[1], a[2], a[3], templates=templates), assembly
        ),
        "engine.parse_us_per_call": _per_call_us(parse, sample),
        "gateway.mock_us_per_call": _per_call_us(lambda item: mock_complete(item[0], s.mock_cfg), sample),
        "engine.record_roundtrip_us": _per_call_us(
            lambda r: JudgmentRecord.from_dict(json.loads(json.dumps(r.to_dict(), ensure_ascii=False))), records
        ),
        "engine.record_bytes_per_pair": sum(len(line.encode("utf-8")) + 1 for line in lines) / len(lines),
    }
    return metrics, notes
