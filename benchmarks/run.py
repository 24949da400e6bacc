"""lexjudge benchmark: one workload, one seed, one JSON result line.

Usage (from the repository root):

    python3 benchmarks/run.py --workload pools-backend --seed 1 --seconds 25 --trace 0

Workloads (BENCHMARK.json says why each exists):

* pools-backend: judge -> evaluate -> ndcg over generated pools through
  ChatCompletionsJudge and an in-process fake transport (latency, 503s,
  protocol violations), parallelism 2, response cache off;
* pools-cpu: the same flow on a larger corpus with MockJudge, parallelism 1;
* augment-funnel: sample -> prerank -> annotate (prefix, then resumed rerun)
  -> build -> export with MockJudge, parallelism 1.

With ``--trace 0`` the result carries the end-to-end metrics, measured
without tracing. With ``--trace 1`` the run alternates untraced and traced
iterations, then replays captured inputs through the nested layers,
and the result carries the per-layer metrics; spans are written to
``.bench_out/trace-<workload>-seed<seed>.jsonl``.

The last line of standard output is the result; lines before it are a
human-readable summary. The exit code is 0 only when every output passed
the correctness gate.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from tracing import Tracer, no_span

ROOT = Path(__file__).resolve().parents[1]
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"
SETUP_PROBES = 15
API_KEY = "bench-dummy-key"


def _units(kind: str) -> dict[str, str]:
    """Metric name -> unit for ``end_to_end`` or ``per_layer``, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def _probe_setup(workload: str, data: Path) -> float:
    """Set-up time of the workload in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, str(BENCH / "setup_probe.py"), workload, str(data)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def _run_untraced(workload, budget_s: float, between=None) -> list:
    """Iterate until the timed wall time reaches the budget (at least once).

    ``between(spent_s)`` runs after each iteration, outside the timed part.
    """
    iterations = []
    spent = 0.0
    while not iterations or spent < budget_s:
        it = workload.iterate(no_span, len(iterations))
        it.records = []
        iterations.append(it)
        spent += it.wall_s
        if between is not None:
            between(spent)
    return iterations


def _run_traced(workload, budget_s: float, plain, traced, tracer: Tracer, capture, after=None):
    """Alternate untraced and traced iterations on the same inputs.

    Pairing the two on each input, in alternating order, keeps drift in
    machine speed out of the tracing overhead. The first traced iteration
    keeps its captured judge calls and records for the replay.
    """
    runs: dict[bool, list] = {False: [], True: []}
    spent = 0.0
    while not runs[True] or spent < budget_s:
        k = len(runs[True])
        for use_tracer in (False, True) if k % 2 == 0 else (True, False):
            workload.s = traced if use_tracer else plain
            capture.capturing = use_tracer and k == 0
            if use_tracer:
                tracer.new_trace()
            it = workload.iterate(tracer.span if use_tracer else no_span, k)
            if not capture.capturing:
                it.records = []
            if use_tracer and after is not None and (problem := after(tracer.span)):
                it.problems.append(problem)
            runs[use_tracer].append(it)
            spent += it.wall_s
    capture.capturing = False
    return runs[False], runs[True]


def _rate(iterations) -> float:
    return sum(it.pairs for it in iterations) / sum(it.wall_s for it in iterations)


def _measure(args: argparse.Namespace, work: Path) -> tuple[dict, list]:
    """Run the workload; return its metrics and iterations."""
    import corpus_gen
    import setup_phase
    from fake_transport import FakeChatTransport
    from layers import boundary_metrics, replay_metrics
    from lexjudge.gateway import MockJudgeConfig, load_lexicon
    from workloads import AugmentWorkload, CountingJudge, PoolsWorkload, TracingJudge, TracingTransport

    spec = setup_phase.WORKLOADS[args.workload]
    corpus = corpus_gen.generate(work / "corpus", spec.scale, args.seed)
    tracer = Tracer() if args.trace else None
    span = tracer.span if tracer else no_span
    transport = None
    if spec.backend:
        rules = MockJudgeConfig(lexicon=load_lexicon(corpus.lexicon_path))
        transport = FakeChatTransport(rules, seed=args.seed, api_key=API_KEY)

    # Untraced iterations run on the first set-up. With tracing, two more
    # set-ups add ingest and library spans, and the last one serves the
    # traced iterations.
    setups = [setup_phase.setup(args.workload, corpus.root, transport=transport, span=span)]
    if tracer:
        traced_transport = TracingTransport(transport, tracer) if transport else None
        setups += [
            setup_phase.setup(args.workload, corpus.root, transport=traced_transport, span=span)
            for _ in range(2)
        ]
    counter = None if spec.backend else CountingJudge(setups[0].judge)
    if counter is not None:
        setups[0].judge = counter
    if spec.sample:
        workload = AugmentWorkload(setups[0], corpus, work, args.seed, counter)
    else:
        workload = PoolsWorkload(setups[0], work, transport)

    if not tracer:
        # Set-up probes are spread over the run, so drift in machine speed
        # during the run reaches the median of all of them alike.
        probes: list[float] = []

        def probe(spent_s: float) -> None:
            while len(probes) < min(SETUP_PROBES, int(SETUP_PROBES * spent_s / args.seconds)):
                probes.append(_probe_setup(args.workload, corpus.root))

        iterations = _run_untraced(workload, args.seconds, between=probe)
        probe(args.seconds)
        if spec.backend:
            calls, tokens = transport.total_calls(), transport.total_prompt_tokens()
        else:
            calls, tokens = sum(counter.calls.values()), sum(counter.prompt_tokens.values())
        pairs = sum(it.pairs for it in iterations)
        metrics = {
            "pairs_per_s": _rate(iterations),
            "backend_calls_per_pair": calls / pairs,
            "prompt_tokens_per_pair": tokens / pairs,
            "setup_s": statistics.median(probes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        return metrics, iterations

    traced_judge = TracingJudge(counter or setups[-1].judge, tracer)
    setups[-1].judge = traced_judge
    after = workload.probe_resume if spec.sample else None
    untraced, traced = _run_traced(workload, args.seconds, setups[0], setups[-1], tracer, traced_judge, after)
    metrics, unmeasured = boundary_metrics(tracer, spec.backend)
    records = next(it.records for it in traced if it.records)
    replayed, notes = replay_metrics(setups[-1], traced_judge.captured, records)
    metrics.update(replayed)
    metrics["tracing.overhead_share"] = 1.0 - _rate(traced) / _rate(untraced)
    tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
    for name, reason in sorted(unmeasured.items()):
        print(f"unmeasured {name}: {reason} (reported as 0)")
    for note in notes:
        print(f"note: {note}")
    return metrics, untraced + traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="lexjudge benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "lexjudge" / "__init__.py").is_file() or not (
        ROOT / "scripts" / "make_toy_corpus.py"
    ).is_file():
        print("error: run from a lexjudge checkout (src/lexjudge and scripts/ are missing)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import setup_phase

    if args.workload not in setup_phase.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(setup_phase.WORKLOADS)}",
              file=sys.stderr)
        return 2
    os.environ[setup_phase.API_KEY_ENV] = API_KEY

    work = OUT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        metrics, iterations = _measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(it.pairs for it in iterations)
    failed = sum(it.failed_pairs for it in iterations)
    problems = sorted({p for it in iterations for p in it.problems})
    units = _units("per_layer" if args.trace else "end_to_end")
    result = {name: {"value": metrics.get(name) or 0.0, "unit": unit} for name, unit in units.items()}
    print(f"failed_pair_share {failed / attempted:.6f} ratio")
    for name, entry in result.items():
        print(f"{name} {entry['value']:.6g} {entry['unit']}")
    for problem in problems:
        print(f"problem: {problem}")
    print(f"iterations {len(iterations)}, pairs {attempted}, failed {failed}; pairs/s per iteration:",
          " ".join(f"{it.pairs / it.wall_s:.1f}" for it in iterations))
    correct = failed == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": result}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
