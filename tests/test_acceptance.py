"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints exactly one ``ACCEPTANCE n PASS: ...`` line after all of
its assertions hold, and asserts its own wall-clock budget where one is
promised. Everything runs against the bundled corpus and the deterministic
mock judge; no network access is involved.
"""

from __future__ import annotations

import itertools
import json
import random
import time
import warnings

import pytest

from conftest import InstrumentedJudge, fabricate_record, make_engine
from oracles import (
    kappa_is_degenerate,
    kappa_oracle,
    ndcg_oracle,
    rank_oracle,
    bigram_tokens,
    twelve_sig,
)

from lexjudge.augmentation import (
    DatasetSpec,
    annotate_pairs,
    build_dataset,
    export_dataset,
    sample_pairs,
)
from lexjudge.cli import main as cli_main
from lexjudge.corpus import Case, CaseStore, Qrels, aggregate_label, gold_fact_flags
from lexjudge.demos import (
    DemoLibrary,
    Demonstration,
    FactType,
    Stage,
    select,
)
from lexjudge.engine import AblationFlags
from lexjudge.errors import IntegrityError
from lexjudge.evaluation import (
    DegenerateSeriesWarning,
    RunFile,
    build_reliability_report,
    cohens_kappa,
    ndcg_at_k,
)
from lexjudge.gateway import MockJudge, MockJudgeConfig
from lexjudge.retrieval import build_bm25_index, tokenize, top_k_rank


def series_pair(a_labels, b_labels):
    return tuple(a_labels), tuple(b_labels)


def attach_counter(engine, stop_after=None):
    """Shadow engine.judge_pair with a counting (optionally interrupting) wrapper."""
    calls: list[tuple[str, str]] = []
    inner = engine.judge_pair

    def wrapper(query, candidate):
        if stop_after is not None and len(calls) >= stop_after:
            raise KeyboardInterrupt
        record = inner(query, candidate)
        calls.append((query.id, candidate.id))
        return record

    engine.judge_pair = wrapper
    return calls


def run_cli(capsys, *argv) -> dict:
    code = cli_main(list(argv))
    out = capsys.readouterr().out
    assert code == 0, f"cli exited {code}: {out}"
    return json.loads(out)


def test_01_validity_surface_carries_comparable_agreement_keys(toy, tmp_path, capsys):
    records = tmp_path / "records.jsonl"
    run_cli(
        capsys,
        "judge",
        "--cases", str(toy.cases),
        "--pools", str(toy.pools),
        "--out", str(records),
        "--mock",
        "--runs", "1",
        "--top-n", "3",
    )
    report_dir = tmp_path / "validity"
    payload = run_cli(
        capsys,
        "evaluate", "validity",
        "--in", str(records),
        "--qrels", str(toy.qrels),
        "--report-dir", str(report_dir),
    )
    on_disk = json.loads((report_dir / "report.json").read_text(encoding="utf-8"))
    for key in ("kappa_mf", "kappa_lf", "kappa_4level"):
        assert isinstance(payload[key], float)
        assert isinstance(on_disk[key], float)
    assert on_disk["pairs_compared"] == 36
    print(
        "ACCEPTANCE 1 PASS: the validity report exposes kappa_mf, kappa_lf and "
        "kappa_4level for direct comparison with published agreement figures; "
        "reaching those figures needs a real chat backend and a production-size "
        "corpus, so this suite verifies the pipeline against exact oracles at "
        "desk scale instead."
    )


def test_02_mock_pipeline_closes_on_gold_labels(toy, toy_corpus, tmp_path, capsys):
    start = time.monotonic()
    _, pools, _ = toy_corpus
    assert len(pools) >= 10
    assert all(len(pool.candidate_ids) >= 10 for pool in pools)
    records = tmp_path / "records.jsonl"
    run_cli(
        capsys,
        "judge",
        "--cases", str(toy.cases),
        "--pools", str(toy.pools),
        "--out", str(records),
        "--mock",
        "--runs", "1",
    )
    payload = run_cli(
        capsys,
        "evaluate", "validity",
        "--in", str(records),
        "--qrels", str(toy.qrels),
        "--report-dir", str(tmp_path / "validity"),
    )
    assert payload["kappa_mf"] == 1.0
    assert payload["kappa_lf"] == 1.0
    assert payload["kappa_4level"] == 1.0
    assert payload["pairs_compared"] == sum(len(p.candidate_ids) for p in pools)
    assert payload["failed_excluded"] == 0
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    print(
        f"ACCEPTANCE 2 PASS: the mock pipeline over the bundled {len(pools)}x10 "
        f"corpus reproduces every gold label (all three kappas exactly 1.0) "
        f"in {elapsed:.1f}s."
    )


def test_03_label_algebra_is_a_bijection():
    seen = set()
    for mf, lf in itertools.product((False, True), repeat=2):
        label = aggregate_label(mf, lf)
        assert label == (1 if mf else 0) + (2 if lf else 0)
        flags = gold_fact_flags(label)
        assert (flags.mf_relevant, flags.lf_relevant) == (mf, lf)
        assert flags.label == label
        seen.add(label)
    assert seen == {0, 1, 2, 3}
    print(
        "ACCEPTANCE 3 PASS: layer verdicts and graded labels form an exact "
        "bijection across all 4 combinations."
    )


def test_04_kappa_matches_first_principles():
    start = time.monotonic()
    # 3 of 4 agreements with marginals (.5, .5) vs (.75, .25):
    # observed agreement 0.75, chance agreement 0.5, kappa 0.5.
    a, b = series_pair((0, 0, 1, 1), (0, 0, 1, 0))
    assert cohens_kappa(a, b) == pytest.approx(0.5, abs=1e-9)

    rng = random.Random(20260817)
    checked = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateSeriesWarning)
        for _ in range(1000):
            n = rng.randint(2, 50)
            classes = rng.choice(((0, 1), (0, 1, 2, 3)))
            xs = [rng.choice(classes) for _ in range(n)]
            ys = [rng.choice(classes) for _ in range(n)]
            a, b = series_pair(xs, ys)
            if kappa_is_degenerate(xs, ys):
                assert cohens_kappa(a, b) == 0.0
            else:
                assert cohens_kappa(a, b) == pytest.approx(
                    kappa_oracle(xs, ys), abs=1e-12
                )
                checked += 1
    assert checked >= 900
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    print(
        f"ACCEPTANCE 4 PASS: Cohen's kappa hits the hand-built fixture at 1e-9 "
        f"and matches first-principles recomputation on {checked} of 1000 "
        f"random series in {elapsed:.1f}s."
    )


def test_05_ndcg_matches_exhaustive_permutation_oracle():
    start = time.monotonic()
    rng = random.Random(50505)
    compared = skipped = ideal_checked = 0
    for i in range(200):
        qid = f"q{i}"
        n = rng.randint(1, 6)
        pool = {f"c{j}": rng.randint(0, 3) for j in range(n)}
        k = rng.randint(1, 6)
        ranked = list(pool)
        rng.shuffle(ranked)
        if n > 1 and rng.random() < 0.3:
            ranked = ranked[: rng.randint(1, n - 1)]
        if rng.random() < 0.2:
            ranked.insert(rng.randrange(len(ranked) + 1), "ghost")
        run = RunFile(
            {qid: [(cid, float(len(ranked) - pos)) for pos, cid in enumerate(ranked)]}
        )
        qrels = Qrels({qid: pool})
        result = ndcg_at_k(run, qrels, k)
        expected = ndcg_oracle(
            [pool.get(cid, 0) for cid in ranked], list(pool.values()), k
        )
        if expected is None:
            assert qid in result.skipped
            assert qid not in result.per_query
            skipped += 1
        else:
            assert result.per_query[qid] == pytest.approx(expected, abs=1e-9)
            compared += 1
        if any(label > 0 for label in pool.values()):
            ideal = sorted(pool, key=lambda cid: (-pool[cid], cid))
            ideal_run = RunFile(
                {qid: [(cid, float(len(ideal) - pos)) for pos, cid in enumerate(ideal)]}
            )
            assert ndcg_at_k(ideal_run, qrels, k).per_query[qid] == 1.0
            ideal_checked += 1
    assert compared + skipped == 200 and compared >= 100 and ideal_checked >= 100
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    print(
        f"ACCEPTANCE 5 PASS: NDCG@k equals the exhaustive-permutation oracle at "
        f"1e-9 on {compared} scoreable of 200 random instances, skips "
        f"{skipped} zero-gain pools, and scores {ideal_checked} ideal orderings "
        f"exactly 1.0 in {elapsed:.1f}s."
    )


WORDS = [f"w{i}" for i in range(18)] + ["盗窃罪案", "合同纠纷"]


def _random_text(rng: random.Random) -> str:
    return " ".join(rng.choice(WORDS) for _ in range(rng.randint(1, 10)))


def test_06_retrieval_matches_brute_force_ranking():
    start = time.monotonic()
    rng = random.Random(60606)
    for _ in range(500):
        texts = {f"d{j:02d}": _random_text(rng) for j in range(rng.randint(1, 32))}
        query = _random_text(rng)
        k = rng.randint(1, len(texts))
        index = build_bm25_index(
            {doc_id: tokenize(text, "cjk_bigram") for doc_id, text in texts.items()}
        )
        got = top_k_rank(index, tokenize(query, "cjk_bigram"), k)
        expected = rank_oracle(
            {doc_id: bigram_tokens(text) for doc_id, text in texts.items()},
            bigram_tokens(query),
            k,
            1.2,
            0.75,
        )
        assert [doc_id for doc_id, _ in got] == [doc_id for doc_id, _ in expected]
        assert [twelve_sig(s) for _, s in got] == [twelve_sig(s) for _, s in expected]

    for _ in range(500):
        texts = {f"d{j:02d}": _random_text(rng) for j in range(rng.randint(1, 32))}
        query = _random_text(rng)
        k = rng.randint(1, len(texts))
        library = DemoLibrary(
            Demonstration(
                id=doc_id,
                stage=Stage.FE,
                fact_type=FactType.MF,
                input_text=text,
                exemplar_output="worked example",
            )
            for doc_id, text in texts.items()
        )
        got_ids = [d.id for d in select(library, Stage.FE, FactType.MF, k, query)]
        expected = rank_oracle(
            {doc_id: bigram_tokens(text) for doc_id, text in texts.items()},
            bigram_tokens(query),
            k,
            1.2,
            0.75,
        )
        assert got_ids == [doc_id for doc_id, _ in expected]
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    print(
        f"ACCEPTANCE 6 PASS: similarity ranking and demonstration selection "
        f"match brute-force score-and-sort on 500 random instances each "
        f"(up to 32 documents) in {elapsed:.1f}s."
    )


def test_07_repeat_runs_agree_perfectly(toy_corpus, toy_lexicon, toy_library):
    store, pools, _ = toy_corpus

    def runs(*temperatures):
        return [
            make_engine(
                MockJudge(MockJudgeConfig(lexicon=toy_lexicon)), toy_library, temperature=t, run_id=f"r{i}"
            ).judge_pools(store, pools[:4])
            for i, t in enumerate(temperatures, start=1)
        ]

    # The mock's labels do not follow the temperature, but runs at three temperatures are
    # three configurations, and reliability compares repeats of one.
    mixed = runs(0.0, 0.7, 1.3)
    assert [r.label for r in mixed[0]] == [r.label for r in mixed[1]] == [r.label for r in mixed[2]]
    with pytest.raises(IntegrityError, match="one configuration"):
        build_reliability_report(mixed)
    report = build_reliability_report(runs(0.7, 0.7, 0.7))
    assert report["runs"] == 3
    assert report["pairs_compared"] == sum(len(p.candidate_ids) for p in pools[:4])
    for kind in ("kappa_mf", "kappa_lf", "kappa_label"):
        assert report[kind]["mean"] == 1.0
        assert len(report[kind]["pairs"]) == 3
        assert all(entry["kappa"] == 1.0 for entry in report[kind]["pairs"])
    print(
        "ACCEPTANCE 7 PASS: three mock runs at temperatures 0.0, 0.7 and 1.3 "
        "agree perfectly (mean pairwise kappa exactly 1.0 for MF, LF and the "
        "graded label)."
    )


def test_08_ablation_switches_change_the_wiring(toy_corpus, toy_lexicon, toy_library):
    store, pools, _ = toy_corpus
    query = store.get(pools[0].query_id)
    candidate = store.get(pools[0].candidate_ids[0])

    baseline = InstrumentedJudge(MockJudge(MockJudgeConfig(lexicon=toy_lexicon)))
    record = make_engine(baseline, toy_library).judge_pair(query, candidate)
    assert record.status == "ok"
    assert baseline.stages == ["FE_MF", "FE_MF", "FE_LF", "FE_LF", "FA_MF", "FA_LF"]

    no_fe = InstrumentedJudge(MockJudge(MockJudgeConfig(lexicon=toy_lexicon)))
    record = make_engine(
        no_fe, toy_library, flags=AblationFlags(disable_fe=True)
    ).judge_pair(query, candidate)
    assert record.status == "ok"
    assert no_fe.stages == ["FA_MF", "FA_LF"]
    assert no_fe.count("FE") == 0

    # d1/d2 dominate the similarity ranking for this query by construction,
    # so seeded random sampling must pick a different pair for some call key.
    library = DemoLibrary(
        [
            Demonstration("d1", Stage.FE, FactType.MF, "alpha beta gamma", "out"),
            Demonstration("d2", Stage.FE, FactType.MF, "alpha beta delta", "out"),
            Demonstration("d3", Stage.FE, FactType.MF, "unrelated one", "out"),
            Demonstration("d4", Stage.FE, FactType.MF, "unrelated two", "out"),
            Demonstration("d5", Stage.FE, FactType.MF, "unrelated three", "out"),
            Demonstration("d6", Stage.FE, FactType.MF, "unrelated four", "out"),
        ]
    )
    bm25_pick = [d.id for d in select(library, Stage.FE, FactType.MF, 2, "alpha beta gamma")]
    assert bm25_pick == ["d1", "d2"]
    random_picks = [
        [d.id for d in select(library, Stage.FE, FactType.MF, 2, seed=0, call_key=f"pair-{i}")]
        for i in range(6)
    ]
    assert any(pick != bm25_pick for pick in random_picks)
    print(
        "ACCEPTANCE 8 PASS: disabling extraction removes every FE call "
        "(exactly 2 requests instead of 6) and random demonstration selection "
        "departs from similarity ranking on the forcing fixture."
    )


def test_09_dataset_builds_hit_quotas_and_reproduce(tmp_path):
    start = time.monotonic()
    counts = {0: 120, 1: 50, 2: 30, 3: 50}
    pool = []
    cases = []
    i = 0
    for label, how_many in counts.items():
        for _ in range(how_many):
            qid, cid = f"q{i:03d}", f"c{i:03d}"
            pool.append(fabricate_record(qid, cid, label))
            cases.append(Case(qid, f"query narrative {i} theft"))
            cases.append(Case(cid, f"candidate narrative {i} theft"))
            i += 1
    store = CaseStore(cases)
    spec = DatasetSpec(
        name="quota-check",
        size=200,
        mode="distribution_matched",
        distribution={0: 0.5, 1: 0.2, 2: 0.1, 3: 0.2},
        seed=9,
    )
    dataset = build_dataset(pool, spec)
    got = {label: 0 for label in range(4)}
    for record in dataset:
        got[record.label] += 1
    wanted = {0: 100, 1: 40, 2: 20, 3: 40}
    assert sum(got.values()) == 200
    for label, want in wanted.items():
        assert abs(got[label] - want) <= 1

    shuffled = list(pool)
    random.Random(1).shuffle(shuffled)
    again = build_dataset(shuffled, spec)
    out_a, out_b = tmp_path / "export_a.jsonl", tmp_path / "export_b.jsonl"
    manifest_a = export_dataset(dataset, "label_only", out_a, store, spec=spec)
    manifest_b = export_dataset(again, "label_only", out_b, store, spec=spec)
    assert out_a.read_bytes() == out_b.read_bytes()
    assert manifest_a["sha256"] == manifest_b["sha256"]
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    print(
        f"ACCEPTANCE 9 PASS: a distribution-matched build of 200 hits the "
        f"quotas {wanted[0]}/{wanted[1]}/{wanted[2]}/{wanted[3]} within 1, and "
        f"identical seeds export byte-identical files with equal manifest "
        f"hashes in {elapsed:.1f}s."
    )


def test_10_interrupted_annotation_resumes_without_rework(
    toy_store_only, toy_lexicon, toy_library, tmp_path
):
    start = time.monotonic()
    store = toy_store_only
    pairs = sample_pairs(store, 100, seed=11)
    checkpoint = tmp_path / "checkpoint.jsonl"

    def fresh_engine(judge=None):
        return make_engine(judge or MockJudge(MockJudgeConfig(lexicon=toy_lexicon)), toy_library)

    interrupted = fresh_engine()
    attach_counter(interrupted, stop_after=50)
    with pytest.raises(KeyboardInterrupt):
        annotate_pairs(interrupted, store, pairs, checkpoint)
    flushed = [
        line for line in checkpoint.read_text(encoding="utf-8").splitlines() if line
    ]
    assert len(flushed) == 50

    judge = InstrumentedJudge(MockJudge(MockJudgeConfig(lexicon=toy_lexicon)))
    resumed_engine = fresh_engine(judge)
    calls = attach_counter(resumed_engine)
    resumed = annotate_pairs(resumed_engine, store, pairs, checkpoint)
    assert len(calls) == 50
    assert len(resumed) == 100
    # Only cases that no finished pair extracted are extracted again, MF then LF.
    cases = lambda chosen: {case_id for pair in chosen for case_id in pair.key()}
    unextracted = cases(pairs[50:]) - cases(pairs[:50])
    assert judge.count("FE") == 2 * len(unextracted) < 2 * len(cases(pairs[50:]))

    baseline = annotate_pairs(fresh_engine(), store, pairs, tmp_path / "baseline.jsonl")
    assert [r.to_dict() for r in resumed] == [r.to_dict() for r in baseline]
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    print(
        f"ACCEPTANCE 10 PASS: a batch interrupted after 50 of 100 pairs resumes "
        f"with exactly 50 further judgments and {judge.count('FE')} extractions, "
        f"and matches the uninterrupted result in {elapsed:.1f}s."
    )


def test_11_parallel_and_serial_judging_agree(toy_store_only, toy_lexicon, toy_library, tmp_path):
    start = time.monotonic()
    store = toy_store_only
    pairs = sample_pairs(store, 100, seed=23)

    def records_with(parallelism: int):
        engine = make_engine(
            MockJudge(MockJudgeConfig(lexicon=toy_lexicon)),
            toy_library,
            parallelism=parallelism,
        )
        return annotate_pairs(engine, store, pairs, tmp_path / f"p{parallelism}.jsonl")

    key = lambda record: (record.query_id, record.candidate_id)
    parallel = [r.to_dict() for r in sorted(records_with(8), key=key)]
    serial = [r.to_dict() for r in sorted(records_with(1), key=key)]
    assert len(parallel) == 100
    assert parallel == serial
    assert all(row["status"] == "ok" for row in parallel)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(
        f"ACCEPTANCE 11 PASS: judging 100 pairs at parallelism 8 produces "
        f"records identical to the serial run in {elapsed:.1f}s."
    )
