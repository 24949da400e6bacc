"""Command-line entry points.

Every subcommand exits 0 on success, 1 on a data problem (bad file, failed
validation, backend refusal), and 2 on a usage error. Output files are
written atomically; given identical inputs, configuration, and the mock
judge, outputs are byte-identical across invocations.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Sequence

from ._util import atomic_write_json, atomic_write_text, read_json
from .augmentation import (
    Bm25PairScorer,
    DatasetSpec,
    build_dataset,
    export_dataset,
    load_pairs,
    parse_distribution,
    prerank_pairs,
    sample_pairs,
    save_pairs,
)
from .config import Config, load_config
from .corpus import ingest_corpus, load_cases, load_qrels
from .demos import DemoLibrary, load_demo_library
from .engine import (
    JudgeEngine,
    check_demo_sets,
    judge_to_file,
    pool_pairs,
    read_records_jsonl,
    write_records_jsonl,
)
from .errors import DomainError, LexjudgeError
from .evaluation import (
    build_reliability_report,
    build_validity_report,
    load_run,
    ndcg_at_k,
)
from .gateway import CachedJudge, ChatCompletionsJudge, Judge, MockJudge, MockJudgeConfig, TranscribedJudge, load_lexicon
from .toydata import materialize, toy_paths


def _emit(payload: dict) -> None:
    print(json.dumps(payload, ensure_ascii=False, indent=2))


def _make_judge(config: Config, mock: bool) -> Judge:
    judge: Judge
    if mock:
        lexicon_path = config.mock.lexicon_path or str(toy_paths().lexicon)
        judge = MockJudge(
            MockJudgeConfig(
                mf_jaccard_threshold=config.mock.mf_jaccard_threshold,
                lexicon=load_lexicon(lexicon_path),
                seed=config.mock.seed,
            )
        )
    else:
        judge = ChatCompletionsJudge(
            base_url=config.api.base_url,
            model=config.api.model,
            key_env=config.api.key_env,
            timeout=config.api.timeout,
            retry=config.judge.retry,
            backoff_base=config.api.backoff_base,
            rate_limit_rpm=config.api.rate_limit_rpm,
        )
    # The transcript sits inside the cache, so a cache hit writes no transcript line.
    if config.transcript_path:
        judge = TranscribedJudge(judge, config.transcript_path)
    if config.cache.enabled:
        judge = CachedJudge(judge, config.cache.dir)
    return judge


def _load_library(config: Config, demos_path: str | None) -> DemoLibrary:
    return load_demo_library(
        demos_path or str(toy_paths().demos),
        tokenizer_mode=config.tokenizer.mode,
        k1=config.bm25.k1,
        b=config.bm25.b,
    )


def _make_engine(
    config: Config,
    judge: Judge,
    library: DemoLibrary,
    *,
    temperature: float | None = None,
    run_id: str | None = None,
    templates_dir: str | None = None,
) -> JudgeEngine:
    return JudgeEngine(
        judge,
        library,
        model=config.api.model,
        temperature=config.judge.temperature if temperature is None else temperature,
        max_tokens=config.judge.max_tokens,
        top_k_demos=config.judge.top_k_demos,
        fa_demos_per_polarity=config.judge.fa_demos_per_polarity,
        retry=config.judge.retry,
        flags=config.ablation,
        templates_dir=templates_dir,
        sampling_seed=config.mock.seed,
        parallelism=config.parallelism,
        run_id=run_id,
    )


# -- subcommand handlers -----------------------------------------------------


def _cmd_ingest(args: argparse.Namespace, config: Config) -> int:
    store, pools, qrels = ingest_corpus(args.cases, args.pools, args.qrels)
    _emit(
        {
            "cases": len(store),
            "pools": len(pools),
            "qrels_pairs": len(qrels) if qrels is not None else None,
        }
    )
    return 0


def _cmd_demos_validate(args: argparse.Namespace, config: Config) -> int:
    library = _load_library(config, args.demos)
    check_demo_sets(library, config.ablation)  # as judge does, before its first call
    _emit({"demonstrations": len(library), "sets": library.counts()})
    return 0


def _run_paths(out: Path, runs: int) -> list[Path]:
    if runs == 1:
        return [out]
    return [out.with_name(f"{out.stem}.run{i}{out.suffix}") for i in range(1, runs + 1)]


def _cmd_judge(args: argparse.Namespace, config: Config) -> int:
    store, pools, _ = ingest_corpus(args.cases, args.pools)
    judge = _make_judge(config, args.mock)
    runs = args.runs if args.runs is not None else config.judge.runs
    if runs < 1:
        raise LexjudgeError(f"runs must be >= 1, got {runs}")
    top_n = args.top_n if args.top_n is not None else config.judge.top_n_candidates
    pairs = pool_pairs(pools, top_n)
    # One library serves every run; each run gets its own engine, so runs
    # share no extraction memo. Each run file is a checkpoint, so a rerun
    # skips a finished run and resumes a partial one.
    library = _load_library(config, args.demos)
    written = []
    for index, out_path in enumerate(_run_paths(Path(args.out), runs), start=1):
        engine = _make_engine(config, judge, library, run_id=f"r{index}", templates_dir=args.templates)
        records = judge_to_file(engine, store, pairs, out_path)
        failed = sum(1 for r in records if r.status != "ok")
        written.append({"path": str(out_path), "pairs": len(records), "failed": failed,
                        "resumed": engine.pairs_resumed, "extractions_reused": engine.extractions_reused})
    _emit({"runs": runs, "outputs": written})
    return 0


def _cmd_evaluate(args: argparse.Namespace, config: Config) -> int:
    report_dir = Path(args.report_dir)
    if args.mode == "reliability":
        if len(args.infile) < 2:
            raise LexjudgeError("reliability needs at least two run files (--in a b ...)")
        if args.qrels is not None:
            raise LexjudgeError("reliability takes no --qrels")
        for i, path in enumerate(args.infile):
            if any(os.path.samefile(path, earlier) for earlier in args.infile[:i]):
                raise LexjudgeError(f"reliability needs distinct run files, but {path} is given twice")
        records_per_run = [read_records_jsonl(p) for p in args.infile]
        report = build_reliability_report(records_per_run, args.infile)
        atomic_write_json(report_dir / "report.json", report)
        _emit({"report": str(report_dir / "report.json"),
               "kappa_mf_mean": report["kappa_mf"]["mean"],
               "kappa_lf_mean": report["kappa_lf"]["mean"],
               "kappa_label_mean": report["kappa_label"]["mean"]})
        return 0
    if len(args.infile) != 1:
        raise LexjudgeError(f"validity reads one run file, got {len(args.infile)}")
    if args.qrels is None:
        raise LexjudgeError("validity needs --qrels")
    records = read_records_jsonl(args.infile[0])
    qrels = load_qrels(args.qrels)
    report, heatmaps = build_validity_report(records, qrels, args.infile[0])
    atomic_write_json(report_dir / "report.json", report)
    for name, csv_text in heatmaps.items():
        atomic_write_text(report_dir / f"{name}.csv", csv_text)
    _emit({"report": str(report_dir / "report.json"), **report})
    return 0


def _cmd_ndcg(args: argparse.Namespace, config: Config) -> int:
    run = load_run(args.run)
    qrels = load_qrels(args.qrels)
    result = ndcg_at_k(run, qrels, args.k)
    _emit(
        {
            "k": args.k,
            "mean": result.mean,
            "queries_scored": len(result.per_query),
            "queries_skipped": list(result.skipped),
            "per_query": result.per_query,
        }
    )
    return 0


def _cmd_augment_sample(args: argparse.Namespace, config: Config) -> int:
    store = load_cases(args.cases)
    n = args.n if args.n is not None else config.augment.pairs
    seed = args.seed if args.seed is not None else config.augment.seed
    pairs = sample_pairs(store, n, seed)
    save_pairs(args.out, pairs)
    _emit({"pairs": len(pairs), "out": args.out})
    return 0


def _cmd_augment_prerank(args: argparse.Namespace, config: Config) -> int:
    store = load_cases(args.cases)
    pairs = load_pairs(args.pairs)
    top_n = args.top_n if args.top_n is not None else config.augment.prerank_top
    scorer = Bm25PairScorer(config.tokenizer.mode, config.bm25.k1, config.bm25.b)
    kept = prerank_pairs(pairs, store, scorer, top_n)
    save_pairs(args.out, kept)
    _emit({"scored": len(pairs), "kept": len(kept), "out": args.out})
    return 0


def _cmd_augment_annotate(args: argparse.Namespace, config: Config) -> int:
    store = load_cases(args.cases)
    pairs = load_pairs(args.pairs)
    judge = _make_judge(config, args.mock)
    engine = _make_engine(
        config, judge, _load_library(config, args.demos), temperature=config.augment.temperature
    )
    records = judge_to_file(engine, store, [pair.key() for pair in pairs], args.out)
    failed = sum(1 for r in records if r.status != "ok")
    _emit(
        {
            "pairs": len(records),
            "failed": failed,
            "resumed": engine.pairs_resumed,
            "extractions_reused": engine.extractions_reused,
            "checkpoint": args.out,
        }
    )
    return 0


def _cmd_augment_build(args: argparse.Namespace, config: Config) -> int:
    records = read_records_jsonl(args.annotated)
    distribution = None
    if args.distribution:
        try:
            distribution = parse_distribution(json.loads(args.distribution))
        except (ValueError, DomainError) as exc:
            raise LexjudgeError(
                f"--distribution must be a JSON object of label fractions: {exc}"
            ) from None
    spec = DatasetSpec(
        name=args.name,
        size=args.size,
        mode=args.mode,
        distribution=distribution,
        seed=args.seed,
    )
    chosen = build_dataset(records, spec)
    write_records_jsonl(args.out, chosen)
    atomic_write_json(Path(args.out + ".spec.json"), spec.to_dict())
    histogram: dict[str, int] = {}
    for record in chosen:
        histogram[str(record.label)] = histogram.get(str(record.label), 0) + 1
    _emit({"selected": len(chosen), "histogram": histogram, "out": args.out})
    return 0


def _cmd_augment_export(args: argparse.Namespace, config: Config) -> int:
    records = read_records_jsonl(args.dataset)
    store = load_cases(args.cases)
    spec = None
    sidecar_path = Path(args.dataset + ".spec.json")
    if sidecar_path.exists():
        spec = DatasetSpec.from_dict(read_json(sidecar_path, dict, "spec sidecar"), sidecar_path)
    manifest = export_dataset(
        records, args.format, args.out, store, spec=spec, compare_path=args.compare
    )
    _emit(manifest)
    return 0


def _cmd_toydata(args: argparse.Namespace, config: Config) -> int:
    copied = materialize(args.out_dir)
    _emit({"written": [str(p) for p in copied]})
    return 0


# -- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lexjudge",
        description="Staged LLM relevance judgments for legal case retrieval",
    )
    parser.add_argument("--config", help="JSON config file", default=None)
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override one config key (repeatable)",
    )
    # The same two options are accepted after the subcommand; SUPPRESS keeps
    # the subparser from overwriting values parsed at the top level.
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", default=argparse.SUPPRESS, help=argparse.SUPPRESS)
    shared.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=argparse.SUPPRESS,
        metavar="KEY=VALUE",
        help="override one config key (repeatable)",
    )
    parents = [shared]
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="validate a corpus", parents=parents)
    p.add_argument("--cases", required=True)
    p.add_argument("--pools", "--queries", dest="pools", required=True)
    p.add_argument("--qrels", default=None)
    p.set_defaults(handler=_cmd_ingest)

    p = sub.add_parser("demos", help="demonstration library tools")
    demos_sub = p.add_subparsers(dest="demos_command", required=True)
    v = demos_sub.add_parser("validate", help="check a demonstration library", parents=parents)
    v.add_argument("--demos", required=True)
    v.set_defaults(handler=_cmd_demos_validate)

    p = sub.add_parser("judge", help="judge candidate pools", parents=parents)
    p.add_argument("--cases", required=True)
    p.add_argument("--pools", "--queries", dest="pools", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--runs", type=int, default=None)
    p.add_argument("--top-n", type=int, default=None)
    p.add_argument("--mock", action="store_true")
    p.add_argument("--demos", default=None)
    p.add_argument("--templates", default=None)
    p.set_defaults(handler=_cmd_judge)

    p = sub.add_parser("evaluate", help="agreement metrics", parents=parents)
    p.add_argument("mode", choices=("reliability", "validity"))
    p.add_argument("--in", dest="infile", nargs="+", required=True)
    p.add_argument("--qrels", default=None)
    p.add_argument("--report-dir", required=True)
    p.set_defaults(handler=_cmd_evaluate)

    p = sub.add_parser("ndcg", help="ranking quality of a run file", parents=parents)
    p.add_argument("--run", required=True)
    p.add_argument("--qrels", required=True)
    p.add_argument("--k", type=int, default=30)
    p.set_defaults(handler=_cmd_ndcg)

    p = sub.add_parser("augment", help="synthetic dataset construction")
    aug = p.add_subparsers(dest="augment_command", required=True)

    s = aug.add_parser("sample", help="sample case pairs", parents=parents)
    s.add_argument("--cases", required=True)
    s.add_argument("--n", type=int, default=None)
    s.add_argument("--seed", type=int, default=None)
    s.add_argument("--out", required=True)
    s.set_defaults(handler=_cmd_augment_sample)

    s = aug.add_parser("prerank", help="keep the lexically closest pairs", parents=parents)
    s.add_argument("--cases", required=True)
    s.add_argument("--pairs", required=True)
    s.add_argument("--top-n", type=int, default=None)
    s.add_argument("--out", required=True)
    s.set_defaults(handler=_cmd_augment_prerank)

    s = aug.add_parser("annotate", help="judge pairs with checkpointed progress", parents=parents)
    s.add_argument("--cases", required=True)
    s.add_argument("--pairs", required=True)
    s.add_argument("--out", required=True, help="checkpoint JSONL; reruns resume it")
    s.add_argument("--mock", action="store_true")
    s.add_argument("--demos", default=None)
    s.set_defaults(handler=_cmd_augment_annotate)

    s = aug.add_parser("build", help="select records for a training set", parents=parents)
    s.add_argument("--annotated", required=True)
    s.add_argument("--name", required=True)
    s.add_argument("--size", type=int, required=True)
    s.add_argument("--mode", choices=("distribution_matched", "random"), required=True)
    s.add_argument("--distribution", default=None, help='JSON like {"0":0.5,"1":0.2,...}')
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", required=True)
    s.set_defaults(handler=_cmd_augment_build)

    s = aug.add_parser("export", help="write a dataset file plus manifest", parents=parents)
    s.add_argument("--dataset", required=True, help="records JSONL from augment build")
    s.add_argument("--cases", required=True)
    s.add_argument("--format", choices=("label_only", "rationale"), required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--compare", default=None, help="records JSONL to report overlap against")
    s.set_defaults(handler=_cmd_augment_export)

    p = sub.add_parser("toydata", help="copy the bundled corpus to a directory", parents=parents)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(handler=_cmd_toydata)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config, args.overrides)
        return args.handler(args, config)
    except LexjudgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
