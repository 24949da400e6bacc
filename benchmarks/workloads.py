"""The benchmark's workloads: timed iterations and their correctness gate.

Each workload drives lexjudge through the public functions its CLI
handlers call. One iteration is one pass of the workload's user flow; the
part a user waits for is timed, the checks that follow are not.

* pools: ``judge`` (three runs, each with a fresh demo library and engine,
  records written per run), then ``evaluate validity``, ``evaluate
  reliability`` and ``ndcg`` over a run file ranked by the judged labels.
* augment: ``sample`` -> ``prerank`` -> ``annotate`` a prefix of the kept
  pairs -> ``annotate`` all kept pairs against the same checkpoint ->
  ``build`` -> ``export``.

Every judged label must equal the generator's gold label. On the backend
workload the records must also equal a serial MockJudge run of the same
inputs, computed once before timing.
"""

from __future__ import annotations

import dataclasses
import json
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from lexjudge.augmentation import DatasetSpec, annotate_pairs, build_dataset, export_dataset, prerank_pairs, sample_pairs
from lexjudge.engine import FA_REMINDER, FE_REMINDER, JudgeEngine, JudgmentRecord, read_records_jsonl, write_records_jsonl
from lexjudge.evaluation import RunFile, build_reliability_report, build_validity_report, load_run, ndcg_at_k, save_run
from lexjudge.gateway import JudgeRequest, JudgeResponse, MockJudge, stage_of

from corpus_gen import Corpus
from setup_phase import Setup, make_engine
from tracing import Tracer, no_span

NDCG_K = 30
CAPTURE_LIMIT = 20000


class CountingJudge:
    """Counts requests and prompt tokens per stage at the Judge boundary."""

    def __init__(self, inner):
        self.inner = inner
        self.calls: Counter[str] = Counter()
        self.prompt_tokens: Counter[str] = Counter()
        self._lock = threading.Lock()

    def complete(self, request: JudgeRequest) -> JudgeResponse:
        response = self.inner.complete(request)
        stage = stage_of(request.user_text) or "unknown"
        with self._lock:
            self.calls[stage] += 1
            self.prompt_tokens[stage] += response.usage.prompt_tokens
        return response


class TracingJudge:
    """Records a span per Judge.complete and, while armed, captures its inputs."""

    def __init__(self, inner, tracer: Tracer):
        self.inner = inner
        self.tracer = tracer
        self.capturing = False
        self.captured: list[tuple[JudgeRequest, JudgeResponse]] = []

    def complete(self, request: JudgeRequest) -> JudgeResponse:
        text = request.user_text
        first = not (text.endswith(FE_REMINDER) or text.endswith(FA_REMINDER))
        with self.tracer.span("gateway.complete", stage=stage_of(text), first=first) as span:
            response = self.inner.complete(request)
        span.attrs["prompt_tokens"] = response.usage.prompt_tokens
        if self.capturing and len(self.captured) < CAPTURE_LIMIT:
            self.captured.append((request, response))
        return response


class TracingTransport:
    """Records a span per transport call, with its stage and status."""

    def __init__(self, inner, tracer: Tracer):
        self.inner = inner
        self.tracer = tracer

    def __call__(self, url: str, headers: dict, payload: dict, timeout: float) -> tuple[int, dict]:
        stage = stage_of(payload["messages"][-1]["content"])
        with self.tracer.span("gateway.transport", stage=stage) as span:
            status, body = self.inner(url, headers, payload, timeout)
        span.attrs["status"] = status
        span.attrs["prompt_tokens"] = body.get("usage", {}).get("prompt_tokens", 0)
        return status, body


@dataclass
class Iteration:
    pairs: int
    wall_s: float
    failed_pairs: int = 0
    problems: list[str] = field(default_factory=list)
    records: list[JudgmentRecord] = field(default_factory=list)


def _failed_pairs(records, gold, reference: list[dict] | None = None) -> int:
    """Pairs that failed, missed their gold label, or differ from the reference."""
    failed = {
        (r.query_id, r.candidate_id)
        for r in records
        if r.status != "ok" or r.label != gold(r.query_id, r.candidate_id)
    }
    if reference is not None:
        expected = {(d["query_id"], d["candidate_id"]): d for d in reference}
        failed |= {key for r in records if expected.get(key := (r.query_id, r.candidate_id)) != r.to_dict()}
        failed |= expected.keys() - {(r.query_id, r.candidate_id) for r in records}
    return len(failed)


def _distinct_cases(pairs) -> int:
    return len({case for pair in pairs for case in pair})


class PoolsWorkload:
    def __init__(self, s: Setup, work: Path, transport=None):
        self.s = s
        self.work = work
        self.transport = transport
        self.runs = s.config.judge.runs
        self.top_n = s.config.judge.top_n_candidates
        size = s.spec.pools_per_iteration or len(s.pools)
        self.slices = [s.pools[i : i + size] for i in range(0, len(s.pools), size)]
        self.reference: dict[int, dict[str, list[dict]]] = {}

    def _reference(self, index: int, pools) -> dict[str, list[dict]]:
        """Serial MockJudge records per run id: the backend's reference."""
        if not self.s.spec.backend:
            return {}
        if index not in self.reference:
            serial = dataclasses.replace(self.s.config, parallelism=1)
            judge = MockJudge(self.s.mock_cfg)
            self.reference[index] = {
                f"r{i}": [
                    r.to_dict()
                    for r in make_engine(serial, judge, self.s.data, run_id=f"r{i}").judge_pools(
                        self.s.store, pools, self.top_n
                    )
                ]
                for i in range(1, self.runs + 1)
            }
        return self.reference[index]

    def iterate(self, span=no_span, index: int = 0) -> Iteration:
        """Run the flow on slice ``index`` (modulo the number of slices)."""
        s = self.s
        index %= len(self.slices)
        pools = self.slices[index]
        reference = self._reference(index, pools)
        pair_keys = [(p.query_id, cid) for p in pools for cid in p.candidate_ids[: self.top_n]]
        paths = [self.work / f"judged.run{i}.jsonl" for i in range(1, self.runs + 1)]
        run_path = self.work / "ranking.run"
        cases = _distinct_cases(pair_keys)
        started = time.perf_counter()
        runs = []
        for i, path in enumerate(paths, start=1):
            engine = s.make_engine(f"r{i}", span=span)
            if self.transport is not None:
                self.transport.new_run()
            with span("engine.judge_pools", parallelism=engine.parallelism,
                      pairs=len(pair_keys), cases=cases):
                records = engine.judge_pools(s.store, pools, self.top_n)
            with span("engine.write_records"):
                write_records_jsonl(path, records)
            runs.append(records)
        with span("evaluation.validity"):
            validity, heatmaps = build_validity_report(read_records_jsonl(paths[0]), s.qrels)
            (self.work / "validity.json").write_text(json.dumps(validity), encoding="utf-8")
            for name, csv_text in heatmaps.items():
                (self.work / f"{name}.csv").write_text(csv_text, encoding="utf-8")
        with span("evaluation.reliability"):
            reliability = build_reliability_report([read_records_jsonl(p) for p in paths])
            (self.work / "reliability.json").write_text(json.dumps(reliability), encoding="utf-8")
        with span("evaluation.ndcg"):
            save_run(run_path, _ranking(runs[0]))
            ndcg = ndcg_at_k(load_run(run_path), s.qrels, NDCG_K)
        wall = time.perf_counter() - started

        it = Iteration(pairs=sum(len(r) for r in runs), wall_s=wall, records=runs[0])
        for i, records in enumerate(runs, start=1):
            if [(r.query_id, r.candidate_id) for r in records] != pair_keys:
                it.problems.append("judged pairs differ from the pool pairs")
            it.failed_pairs += _failed_pairs(records, s.qrels.label, reference.get(f"r{i}"))
        if validity["kappa_4level"] != 1.0 or validity["pairs_compared"] != len(pair_keys):
            it.problems.append(f"validity report disagrees with gold: {validity}")
        if reliability["kappa_label"]["mean"] != 1.0:
            it.problems.append("reliability kappa of identical runs is not 1.0")
        if ndcg.mean != 1.0 or ndcg.skipped:
            it.problems.append(f"ndcg of the gold-ordered ranking is {ndcg.mean}")
        return it


def _ranking(records) -> RunFile:
    entries: dict[str, list[tuple[str, float]]] = {}
    for r in records:
        score = float(r.label) if r.label is not None else -1.0
        entries.setdefault(r.query_id, []).append((r.candidate_id, score))
    for ranking in entries.values():
        ranking.sort(key=lambda item: (-item[1], item[0]))
    return RunFile(entries=entries)


class AugmentWorkload:
    def __init__(self, s: Setup, corpus: Corpus, work: Path, seed: int, counter: CountingJudge):
        self.s = s
        self.corpus = corpus
        self.work = work
        self.seed = seed
        self.counter = counter
        self.resume_probe: tuple[JudgeEngine, list] | None = None

    def iterate(self, span=no_span, index: int = 0) -> Iteration:
        """Run the funnel; every iteration has the same inputs, whatever ``index``."""
        s, spec = self.s, self.s.spec
        checkpoint = self.work / "annotated.jsonl"
        dataset_path = self.work / "dataset.jsonl"
        export_path = self.work / "export.jsonl"
        checkpoint.unlink(missing_ok=True)
        temperature = s.config.augment.temperature
        started = time.perf_counter()
        with span("augmentation.sample"):
            pairs = sample_pairs(s.store, spec.sample, self.seed)
        with span("augmentation.prerank", pairs=len(pairs)):
            kept = prerank_pairs(pairs, s.store, s.scorer, spec.keep)
        head, rest = kept[: spec.prefix], kept[spec.prefix :]
        engine = s.make_engine(temperature=temperature, span=span)
        with span("augmentation.annotate", parallelism=engine.parallelism, pairs=len(head),
                  cases=_distinct_cases(p.key() for p in head)):
            annotate_pairs(engine, s.store, head, checkpoint_path=checkpoint)
        fa_before = self.counter.calls["FA_MF"]
        engine = s.make_engine(temperature=temperature, span=span)
        with span("augmentation.annotate", parallelism=engine.parallelism, pairs=len(rest),
                  cases=_distinct_cases(p.key() for p in rest)):
            records = annotate_pairs(engine, s.store, kept, checkpoint_path=checkpoint)
        fa_rest = self.counter.calls["FA_MF"] - fa_before
        with span("augmentation.build_export"):
            dataset_spec = DatasetSpec(name="bench", size=len(records) // 2, mode="random", seed=self.seed)
            dataset = build_dataset(records, dataset_spec)
            with span("engine.write_records"):
                write_records_jsonl(dataset_path, dataset)
            manifest = export_dataset(dataset, "rationale", export_path, s.store, spec=dataset_spec)
        wall = time.perf_counter() - started

        self.resume_probe = (engine, kept)
        it = Iteration(pairs=len(kept), wall_s=wall, records=records)
        if [(r.query_id, r.candidate_id) for r in records] != [p.key() for p in kept]:
            it.problems.append("annotated pairs differ from the kept pairs")
        it.failed_pairs += _failed_pairs(records, self.corpus.gold)
        if len(kept) != spec.keep:
            it.problems.append(f"pre-ranker kept {len(kept)} pairs, expected {spec.keep}")
        if fa_rest != len(rest):
            it.problems.append(f"resumed annotation judged {fa_rest} pairs, expected {len(rest)}")
        if len(dataset) != dataset_spec.size or manifest["size"] != dataset_spec.size:
            it.problems.append("built dataset has the wrong size")
        if sum(manifest["histogram"].values()) != dataset_spec.size:
            it.problems.append("export manifest histogram does not sum to the dataset size")
        with export_path.open(encoding="utf-8") as fh:
            if sum(1 for _ in fh) != dataset_spec.size:
                it.problems.append("export file row count differs from the dataset size")
        return it

    def probe_resume(self, span) -> str | None:
        """Rerun the last annotation on its finished checkpoint: a pure resume read."""
        engine, kept = self.resume_probe
        before = sum(self.counter.calls.values())
        with span("augmentation.resume_read", records=len(kept)):
            records = annotate_pairs(engine, self.s.store, kept, checkpoint_path=self.work / "annotated.jsonl")
        if sum(self.counter.calls.values()) != before or len(records) != len(kept):
            return "resuming a finished checkpoint made judge calls"
        return None
