"""Agreement statistics, confusion matrices, run files, and NDCG."""

from __future__ import annotations

import dataclasses
import json
import random
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexjudge.corpus import Qrels
from lexjudge.errors import (
    DomainError,
    EmptyRunError,
    IntegrityError,
    MissingGoldError,
    ParseError,
)
from lexjudge.evaluation import (
    ConfusionMatrix,
    DegenerateSeriesWarning,
    RunFile,
    build_reliability_report,
    build_validity_report,
    cohens_kappa,
    confusion_matrix,
    load_run,
    ndcg_at_k,
    reliability_kappa,
    save_run,
)

from conftest import fabricate_record, make_engine
from oracles import kappa_is_degenerate, kappa_oracle, ndcg_oracle, reliability_oracle, validity_oracle


class TestCohensKappa:
    def test_identical_series(self):
        s = [0, 1, 2, 3, 1]
        assert cohens_kappa(s, s) == 1.0

    def test_hand_computed_half(self):
        a = [0, 1, 0, 1]
        b = [0, 1, 1, 1]
        # observed agreement 0.75, chance agreement 0.5
        assert cohens_kappa(a, b) == pytest.approx(0.5, abs=1e-9)

    def test_chance_level_agreement_is_zero(self):
        a = [0, 0, 1, 1]
        b = [0, 1, 0, 1]
        assert cohens_kappa(a, b) == pytest.approx(0.0, abs=1e-12)

    def test_both_constant_same_class(self):
        a = [2, 2, 2]
        b = [2, 2, 2]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cohens_kappa(a, b) == 1.0

    def test_both_constant_different_classes_warns(self):
        a = [0, 0, 0]
        b = [1, 1, 1]
        with pytest.warns(DegenerateSeriesWarning):
            assert cohens_kappa(a, b) == 0.0

    def test_one_constant_rater_uses_plain_formula(self):
        a = [0, 0, 0, 0]
        b = [0, 1, 2, 3]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cohens_kappa(a, b) == pytest.approx(0.0, abs=1e-12)

    def test_empty_series_rejected(self):
        with pytest.raises(DomainError):
            cohens_kappa((), ())

    def test_length_mismatch_rejected(self):
        with pytest.raises(DomainError, match="equal length, got 1 and 2"):
            cohens_kappa((1,), (1, 2))

    def test_matches_oracle_on_random_series(self):
        rng = random.Random(20260817)
        checked = 0
        for _ in range(1000):
            n = rng.randint(1, 50)
            a_labels = [rng.randint(0, 3) for _ in range(n)]
            b_labels = [rng.randint(0, 3) for _ in range(n)]
            if kappa_is_degenerate(a_labels, b_labels):
                continue
            got = cohens_kappa(a_labels, b_labels)
            assert got == pytest.approx(kappa_oracle(a_labels, b_labels), abs=1e-12)
            checked += 1
        assert checked > 900

    @given(
        st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=30
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_symmetry_and_range(self, pairs):
        a = [x for x, _ in pairs]
        b = [y for _, y in pairs]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateSeriesWarning)
            forward = cohens_kappa(a, b)
            backward = cohens_kappa(b, a)
        assert forward == pytest.approx(backward, abs=1e-12)
        assert -1.0 - 1e-12 <= forward <= 1.0 + 1e-12

    @given(st.lists(st.integers(0, 3), min_size=1, max_size=30))
    @settings(max_examples=200, deadline=None)
    def test_self_agreement_is_one(self, labels):
        assert cohens_kappa(labels, labels) == 1.0


class TestReliabilityKappa:
    def test_three_identical_runs(self):
        runs = [[0, 1, 2, 3]] * 3
        mean, per_pair = reliability_kappa(runs)
        assert mean == 1.0
        assert len(per_pair) == 3

    def test_two_runs_single_pair(self):
        mean, per_pair = reliability_kappa([[0, 1], [0, 1]])
        assert len(per_pair) == 1
        assert per_pair[0][:2] == (0, 1)

    def test_known_pairwise_values_mean(self):
        a = [0, 1, 0, 1]
        b = [0, 1, 1, 1]
        mean, per_pair = reliability_kappa([a, b, a])
        kappas = {(i, j): k for i, j, k in per_pair}
        assert kappas[(0, 1)] == pytest.approx(0.5, abs=1e-9)
        assert kappas[(0, 2)] == 1.0
        assert kappas[(1, 2)] == pytest.approx(0.5, abs=1e-9)
        assert mean == pytest.approx(2 / 3, abs=1e-9)

    def test_single_run_rejected(self):
        with pytest.raises(DomainError):
            reliability_kappa([[0, 1]])


def heatmap_counts(csv: str) -> dict[tuple[int, int], int]:
    """The nonzero cells of a heatmap CSV as {(judged, gold): count}."""
    header, *rows = [line.split(",") for line in csv.strip().split("\n")]
    return {
        (int(row[0]), int(gold)): int(count)
        for row in rows
        for gold, count in zip(header[1:], row[1:])
        if count != "0"
    }


class TestSeriesFromRecords:
    """The validity report reads each layer's series off the successful records."""

    def records(self):
        return [
            fabricate_record("q1", "c1", 3),
            fabricate_record("q1", "c2", 1),
            fabricate_record("q1", "c3", 0, status="failed"),
            fabricate_record("q1", "c4", 2),
        ]

    def test_label_series_excludes_failed(self):
        # c3 has no gold label, so reading its failed record would raise.
        qrels = Qrels({"q1": {"c1": 3, "c2": 1, "c4": 2}})
        _, heatmaps = build_validity_report(self.records(), qrels)
        assert heatmap_counts(heatmaps["heatmap_4x4"]) == {(3, 3): 1, (1, 1): 1, (2, 2): 1}

    def test_mf_and_lf_series(self):
        qrels = Qrels({"q1": {"c1": 0, "c2": 0, "c4": 0}})
        _, heatmaps = build_validity_report(self.records(), qrels)
        # Judged mf is (1, 1, 0) and lf is (1, 0, 1) over c1, c2, c4.
        assert heatmap_counts(heatmaps["heatmap_mf"]) == {(1, 0): 2, (0, 0): 1}
        assert heatmap_counts(heatmaps["heatmap_lf"]) == {(1, 0): 2, (0, 0): 1}


class TestValidityKappa:
    def test_identical_to_gold_on_fixture_pairs(self):
        labels = [0, 1, 2, 3] * 5
        records = [
            fabricate_record("q1", f"c{i}", label) for i, label in enumerate(labels)
        ]
        qrels = Qrels({"q1": {f"c{i}": label for i, label in enumerate(labels)}})
        result, _ = build_validity_report(records, qrels)
        assert result["kappa_mf"] == 1.0
        assert result["kappa_lf"] == 1.0
        assert result["kappa_4level"] == 1.0
        assert result["pairs_compared"] == 20
        assert result["failed_excluded"] == 0

    def test_mock_pipeline_matches_gold(self, mock_judge, toy_library, toy_corpus):
        store, pools, qrels = toy_corpus
        engine = make_engine(mock_judge, toy_library)
        records = engine.judge_pools(store, pools[:3])
        result, _ = build_validity_report(records, qrels)
        assert result["kappa_mf"] == pytest.approx(1.0)
        assert result["kappa_lf"] == pytest.approx(1.0)
        assert result["kappa_4level"] == pytest.approx(1.0)
        assert result["pairs_compared"] == 30

    def test_failed_records_are_excluded_and_counted(self):
        records = [
            fabricate_record("q1", "c1", 3),
            fabricate_record("q1", "c2", 0, status="failed"),
            fabricate_record("q1", "c3", 1),
        ]
        qrels = Qrels({"q1": {"c1": 3, "c3": 1}})
        result, _ = build_validity_report(records, qrels)
        assert result["pairs_compared"] == 2
        assert result["failed_excluded"] == 1

    def test_missing_gold_rejected(self):
        records = [fabricate_record("q1", "c1", 3)]
        qrels = Qrels({"q1": {"other": 3}})
        with pytest.raises(MissingGoldError):
            build_validity_report(records, qrels)

    def test_no_successful_records_rejected(self):
        records = [fabricate_record("q1", "c1", 0, status="failed")]
        with pytest.raises(DomainError):
            build_validity_report(records, Qrels({"q1": {"c1": 0}}))


class TestConfusionMatrix:
    def test_agreement_gives_diagonal(self):
        s = [0, 1, 2, 3, 3]
        matrix = confusion_matrix(s, s, (0, 1, 2, 3))
        for i in range(4):
            for j in range(4):
                if i != j:
                    assert matrix.counts[i][j] == 0
        assert matrix.counts[3][3] == 2

    def test_single_off_diagonal_count(self):
        a = [1]
        b = [3]
        matrix = confusion_matrix(a, b, (0, 1, 2, 3))
        assert matrix.counts[1][3] == 1
        assert sum(map(sum, matrix.counts)) == 1

    def test_400_random_pairs_totals_and_marginals(self):
        rng = random.Random(400)
        a_labels = [rng.randint(0, 3) for _ in range(400)]
        b_labels = [rng.randint(0, 3) for _ in range(400)]
        matrix = confusion_matrix(
            a_labels, b_labels, (0, 1, 2, 3)
        )
        assert sum(map(sum, matrix.counts)) == 400
        for i, cls in enumerate(matrix.classes):
            assert sum(matrix.counts[i]) == a_labels.count(cls)
            assert sum(row[i] for row in matrix.counts) == b_labels.count(cls)

    def test_label_outside_classes_rejected(self):
        with pytest.raises(DomainError, match=r"label outside classes \(0, 1, 2, 3\): \(5, 1\)"):
            confusion_matrix([0, 5], [0, 1], (0, 1, 2, 3))

    @pytest.mark.parametrize("a, b", [((), ()), ((0,), (0, 1))])
    def test_empty_or_unequal_sequences_rejected(self, a, b):
        with pytest.raises(DomainError, match="non-empty and of equal length"):
            confusion_matrix(a, b, (0, 1))

    def test_kappa_over_all_classes_is_kappa_over_observed_ones(self):
        # Classes neither rater used add an exact 0.0 to chance agreement.
        rng = random.Random(30)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateSeriesWarning)
            for _ in range(500):
                n = rng.randint(1, 20)
                a = [rng.choice((1, 3)) for _ in range(n)]
                b = [rng.choice((0, 1, 3)) for _ in range(n)]
                assert confusion_matrix(a, b, (0, 1, 2, 3)).kappa() == cohens_kappa(a, b)

    def test_csv_layout(self):
        matrix = ConfusionMatrix(classes=(0, 1), counts=((3, 0), (1, 2)))
        lines = matrix.to_csv().strip().split("\n")
        assert lines[0] == ",0,1"
        assert lines[1] == "0,3,0"
        assert lines[2] == "1,1,2"


class TestRunFiles:
    def make_run(self):
        return RunFile(
            entries={
                "q1": [("c1", 3.5), ("c2", 2.25), ("c3", 2.25)],
                "q2": [("c9", 1.0)],
            }
        )

    def test_save_load_roundtrip(self, tmp_path):
        path = tmp_path / "run.txt"
        run = self.make_run()
        save_run(path, run, tag="test")
        loaded = load_run(path)
        assert loaded == run

    def test_save_into_a_new_directory_round_trips(self, tmp_path):
        path = tmp_path / "runs" / "new" / "run.txt"
        run = self.make_run()
        save_run(path, run, tag="test")
        assert load_run(path) == run
        assert [p.name for p in path.parent.iterdir()] == ["run.txt"]  # no temp file left

    def test_file_format(self, tmp_path):
        path = tmp_path / "run.txt"
        save_run(path, self.make_run(), tag="mytag")
        first = path.read_text(encoding="utf-8").splitlines()[0].split()
        assert first == ["q1", "Q0", "c1", "1", "3.500000", "mytag"]

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "run.txt"
        path.write_text("\nq1 Q0 c1 1 2.0 t\n\nq1 Q0 c2 2 1.0 t\n", encoding="utf-8")
        assert len(load_run(path).entries["q1"]) == 2

    def test_wrong_column_count(self, tmp_path):
        path = tmp_path / "run.txt"
        path.write_text("q1 Q0 c1 1 2.0\n", encoding="utf-8")
        with pytest.raises(ParseError) as excinfo:
            load_run(path)
        assert excinfo.value.line == 1

    def test_bad_rank_value(self, tmp_path):
        path = tmp_path / "run.txt"
        path.write_text("q1 Q0 c1 one 2.0 t\n", encoding="utf-8")
        with pytest.raises(ParseError):
            load_run(path)

    def test_rank_gap_rejected(self, tmp_path):
        path = tmp_path / "run.txt"
        path.write_text("q1 Q0 c1 1 2.0 t\nq1 Q0 c2 3 1.0 t\n", encoding="utf-8")
        with pytest.raises(IntegrityError, match="rank"):
            load_run(path)

    def test_increasing_scores_rejected(self, tmp_path):
        path = tmp_path / "run.txt"
        path.write_text("q1 Q0 c1 1 1.0 t\nq1 Q0 c2 2 2.0 t\n", encoding="utf-8")
        with pytest.raises(IntegrityError, match="scores increase"):
            load_run(path)

    def test_duplicate_candidate_rejected(self, tmp_path):
        path = tmp_path / "run.txt"
        path.write_text("q1 Q0 c1 1 2.0 t\nq1 Q0 c1 2 1.0 t\n", encoding="utf-8")
        with pytest.raises(IntegrityError, match="repeats"):
            load_run(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "run.txt"
        path.write_text("\n", encoding="utf-8")
        with pytest.raises(EmptyRunError):
            load_run(path)


def run_of(qid: str, ordered_cids: list[str]) -> RunFile:
    n = len(ordered_cids)
    return RunFile(entries={qid: [(cid, float(n - i)) for i, cid in enumerate(ordered_cids)]})


class TestNdcg:
    def test_ideal_order_scores_one(self, toy_corpus):
        _, _, qrels = toy_corpus
        qid = next(iter(qrels.entries))
        row = qrels.entries[qid]
        ordered = sorted(row, key=lambda cid: (-row[cid], cid))
        result = ndcg_at_k(run_of(qid, ordered), qrels, k=10)
        assert result.per_query[qid] == pytest.approx(1.0, abs=1e-12)
        assert result.mean == pytest.approx(1.0, abs=1e-12)
        assert result.skipped == ()

    def test_all_zero_gold_query_skipped(self):
        qrels = Qrels({"q1": {"c1": 0, "c2": 0}, "q2": {"c1": 2}})
        run = RunFile(entries={"q1": [("c1", 2.0), ("c2", 1.0)], "q2": [("c1", 1.0)]})
        result = ndcg_at_k(run, qrels, k=5)
        assert result.skipped == ("q1",)
        assert "q1" not in result.per_query
        assert result.mean == pytest.approx(result.per_query["q2"])

    def test_candidates_missing_from_gold_count_as_zero(self):
        qrels = Qrels({"q1": {"c1": 3}})
        best = ndcg_at_k(run_of("q1", ["c1", "zz"]), qrels, k=2)
        worst = ndcg_at_k(run_of("q1", ["zz", "c1"]), qrels, k=2)
        assert best.per_query["q1"] == pytest.approx(1.0)
        # unknown candidate first: DCG = 7/log2(3), IDCG = 7, so NDCG = 1/log2(3)
        assert worst.per_query["q1"] == pytest.approx(1.0 / 1.5849625007211562, abs=1e-12)

    def test_query_without_gold_rejected(self):
        qrels = Qrels({"q1": {"c1": 1}})
        with pytest.raises(MissingGoldError):
            ndcg_at_k(run_of("q2", ["c1"]), qrels, k=1)

    def test_k_validation_and_empty_run(self):
        qrels = Qrels({"q1": {"c1": 1}})
        with pytest.raises(DomainError):
            ndcg_at_k(run_of("q1", ["c1"]), qrels, k=0)
        with pytest.raises(EmptyRunError):
            ndcg_at_k(RunFile(entries={}), qrels, k=1)

    def test_matches_exhaustive_permutation_oracle(self):
        rng = random.Random(777)
        checked = 0
        for _ in range(200):
            pool_size = rng.randint(1, 6)
            pool = {f"c{i}": rng.randint(0, 3) for i in range(pool_size)}
            ranked = list(pool)
            rng.shuffle(ranked)
            if rng.random() < 0.3 and pool_size > 1:
                ranked = ranked[: pool_size - 1]  # run omits one candidate
            k = rng.randint(1, 6)
            qrels = Qrels({"q": pool})
            result = ndcg_at_k(run_of("q", ranked), qrels, k=k)
            run_labels = [pool[cid] for cid in ranked]
            expected = ndcg_oracle(run_labels, list(pool.values()), k)
            if expected is None:
                assert result.skipped == ("q",)
            else:
                assert result.per_query["q"] == pytest.approx(expected, abs=1e-9)
            checked += 1
        assert checked == 200

    def test_adjacent_swap_toward_gold_never_decreases(self):
        rng = random.Random(4242)
        for _ in range(100):
            pool_size = rng.randint(2, 6)
            pool = {f"c{i}": rng.randint(0, 3) for i in range(pool_size)}
            if set(pool.values()) == {0}:
                continue
            ranked = list(pool)
            rng.shuffle(ranked)
            i = rng.randrange(pool_size - 1)
            if pool[ranked[i]] >= pool[ranked[i + 1]]:
                continue  # already in gold order at this boundary
            qrels = Qrels({"q": pool})
            before = ndcg_at_k(run_of("q", ranked), qrels, k=pool_size).per_query["q"]
            swapped = ranked.copy()
            swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
            after = ndcg_at_k(run_of("q", swapped), qrels, k=pool_size).per_query["q"]
            assert after >= before - 1e-12

    def test_invariant_under_candidate_relabeling(self):
        pool = {"c1": 3, "c2": 0, "c3": 2}
        rename = {"c1": "x9", "c2": "x7", "c3": "x8"}
        ranked = ["c3", "c1", "c2"]
        original = ndcg_at_k(run_of("q", ranked), Qrels({"q": pool}), k=3)
        renamed = ndcg_at_k(
            run_of("q", [rename[c] for c in ranked]),
            Qrels({"q": {rename[c]: v for c, v in pool.items()}}),
            k=3,
        )
        assert original.per_query["q"] == pytest.approx(renamed.per_query["q"], abs=1e-15)


@st.composite
def judged_runs(draw):
    """Runs over one list of pairs, with their gold labels.

    A run's label for a pair may differ from gold and from the other runs.
    Its record may be failed, ok, or a failed line followed by an ok one,
    as a resumed checkpoint holds it.
    """
    n = draw(st.integers(1, 12))
    pairs = [(f"q{i % 3}", f"c{i}") for i in range(n)]
    gold = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    runs = []
    for run in range(1, draw(st.integers(2, 4)) + 1):
        records = []
        for (qid, cid), g in zip(pairs, gold):
            label = draw(st.one_of(st.just(g), st.integers(0, 3)))
            outcome = draw(st.sampled_from(("ok", "ok", "ok", "failed", "resumed")))
            if outcome != "ok":
                records.append(fabricate_record(qid, cid, 0, status="failed", run_id=f"r{run}"))
            if outcome != "failed":
                records.append(fabricate_record(qid, cid, label, run_id=f"r{run}"))
        runs.append(records)
    entries: dict = {}
    for (qid, cid), g in zip(pairs, gold):
        entries.setdefault(qid, {})[cid] = g
    return runs, Qrels(entries)


class TestReportsAgainstOracle:
    """Both reports equal, with ==, the ones kappa_oracle builds by brute force."""

    @given(judged_runs())
    @settings(max_examples=200, deadline=None)
    def test_reports_equal_oracle(self, drawn):
        runs, qrels = drawn
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateSeriesWarning)
            for records in runs:
                expected = validity_oracle(records, qrels)
                if expected is None:
                    with pytest.raises(DomainError):
                        build_validity_report(records, qrels)
                else:
                    assert build_validity_report(records, qrels) == expected
            expected = reliability_oracle(runs)
            if expected is None:
                with pytest.raises(DomainError):
                    build_reliability_report(runs)
            else:
                assert build_reliability_report(runs) == expected


def numbered(*runs):
    """The runs with run i's records under run id r<i>, as `judge --runs N` writes them."""
    return [[dataclasses.replace(r, run_id=f"r{i}") for r in run] for i, run in enumerate(runs, start=1)]


class TestReports:
    def test_validity_report_shape(self, mock_judge, toy_library, toy_corpus):
        store, pools, qrels = toy_corpus
        engine = make_engine(mock_judge, toy_library)
        records = engine.judge_pools(store, pools[:2])
        report, heatmaps = build_validity_report(records, qrels)
        assert set(report) == {
            "kappa_mf",
            "kappa_lf",
            "kappa_4level",
            "pairs_compared",
            "failed_excluded",
        }
        assert set(heatmaps) == {"heatmap_4x4", "heatmap_mf", "heatmap_lf"}
        grid = [line.split(",") for line in heatmaps["heatmap_4x4"].strip().split("\n")]
        assert grid[0] == ["", "0", "1", "2", "3"]
        total = sum(int(v) for row in grid[1:] for v in row[1:])
        assert total == report["pairs_compared"]
        assert json.dumps(report)  # JSON-serializable as written to report.json

    def test_reliability_report_identical_runs(self):
        run = [fabricate_record("q1", f"c{i}", label) for i, label in enumerate([0, 1, 2, 3])]
        report = build_reliability_report(numbered(run, run, run))
        assert report["runs"] == 3
        assert report["pairs_compared"] == 4
        for kind in ("mf", "lf", "label"):
            assert report[f"kappa_{kind}"]["mean"] == 1.0
            assert len(report[f"kappa_{kind}"]["pairs"]) == 3

    def test_reliability_restricts_to_commonly_ok_pairs(self):
        run_a = [
            fabricate_record("q1", "c1", 3),
            fabricate_record("q1", "c2", 1),
            fabricate_record("q1", "c3", 2),
        ]
        run_b = [
            fabricate_record("q1", "c1", 3),
            fabricate_record("q1", "c2", 1, status="failed"),
            fabricate_record("q1", "c3", 2),
        ]
        report = build_reliability_report(numbered(run_a, run_b))
        assert report["pairs_compared"] == 2

    def test_reliability_needs_two_runs(self):
        run = [fabricate_record("q1", "c1", 1)]
        with pytest.raises(DomainError):
            build_reliability_report([run])

    def test_reliability_refuses_runs_of_two_configurations(self):
        run_a = [fabricate_record("q1", "c1", 1), fabricate_record("q1", "c2", 2)]
        # A failed record counts too: it was written under its run's configuration.
        other = dataclasses.replace(fabricate_record("q1", "c2", 2, status="failed"), config_fingerprint="fab1")
        run_b = [fabricate_record("q1", "c1", 1), other]
        with pytest.raises(IntegrityError, match="fingerprints fab0 in run 1; fab0, fab1 in run 2$"):
            build_reliability_report([run_a, run_b])

    def test_validity_refuses_a_pair_judged_ok_twice(self):
        records = [fabricate_record("q1", "c1", 3), fabricate_record("q1", "c2", 1), fabricate_record("q1", "c1", 3)]
        with pytest.raises(IntegrityError, match=r"^run judges pair \('q1', 'c1'\) more than once$"):
            build_validity_report(records, Qrels({"q1": {"c1": 3, "c2": 1}}))

    def test_reliability_refuses_a_pair_judged_ok_twice(self):
        run_a = [fabricate_record("q1", "c1", 3), fabricate_record("q1", "c2", 1)]
        run_b = [fabricate_record("q1", "c1", 3), fabricate_record("q1", "c2", 1), fabricate_record("q1", "c2", 2)]
        with pytest.raises(IntegrityError, match=r"^run 2 judges pair \('q1', 'c2'\) more than once$"):
            build_reliability_report(numbered(run_a, run_b))

    def test_a_failed_line_then_an_ok_line_for_one_pair_is_kept(self):
        # A resumed checkpoint holds the failed line of an interrupted run and the rerun's ok line.
        resumed = [
            fabricate_record("q1", "c1", 0, status="failed"),
            fabricate_record("q1", "c2", 1),
            fabricate_record("q1", "c1", 3),
        ]
        validity, _ = build_validity_report(resumed, Qrels({"q1": {"c1": 3, "c2": 1}}))
        assert (validity["kappa_4level"], validity["pairs_compared"], validity["failed_excluded"]) == (1.0, 2, 1)
        reliability = build_reliability_report(
            numbered(resumed, [fabricate_record("q1", "c1", 3), fabricate_record("q1", "c2", 1)])
        )
        assert (reliability["kappa_label"]["mean"], reliability["pairs_compared"]) == (1.0, 2)

    def test_reliability_no_common_pairs(self):
        run_a = [fabricate_record("q1", "c1", 1, status="failed")]
        run_b = [fabricate_record("q1", "c1", 1)]
        with pytest.raises(DomainError):
            build_reliability_report(numbered(run_a, run_b))

    # A run's number is its requests' sample index, so runs sharing a run id may share cached
    # replies, and their agreement would measure the cache. The failed record counts too.
    @pytest.mark.parametrize(("sources", "named"), [
        (None, "r1 in run 1, run 3; r2 in run 2, run 3$"),
        (["a.jsonl", "b.jsonl", "c.jsonl"], "r1 in a.jsonl, c.jsonl; r2 in b.jsonl, c.jsonl$"),
    ])
    def test_reliability_refuses_runs_that_share_a_run_id(self, sources, named):
        run_a, run_b = numbered([fabricate_record("q1", "c1", 1)], [fabricate_record("q1", "c1", 1)])
        run_c = [fabricate_record("q1", "c1", 1, run_id="r1"),
                 fabricate_record("q1", "c2", 1, status="failed", run_id="r2")]
        with pytest.raises(IntegrityError, match=f"^reliability needs runs of distinct run ids, got run id {named}"):
            build_reliability_report([run_a, run_b, run_c], sources)
        assert build_reliability_report([run_a, run_b], sources)["pairs_compared"] == 1
