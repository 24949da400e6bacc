"""Configuration layering/validation and the command-line surface."""

from __future__ import annotations

import json
from importlib import resources

import pytest

from lexjudge import cli
from lexjudge.cli import _make_judge, main
from lexjudge.config import _KEYS, Config, load_config
from lexjudge.corpus import load_qrels
from lexjudge.engine import TEMPLATE_NAMES, JudgeEngine, read_records_jsonl
from lexjudge.errors import ConfigError, ParseError
from lexjudge.gateway import CachedJudge, ChatCompletionsJudge, MockJudge, TranscribedJudge


class TestConfigDefaults:
    def test_documented_defaults(self):
        config = load_config()
        assert config.api.model == "gpt-3.5-turbo"
        assert config.api.key_env == "OPENAI_API_KEY"
        assert config.judge.temperature == 0.4
        assert config.judge.top_k_demos == 2
        assert config.judge.fa_demos_per_polarity == 2
        assert config.judge.runs == 3
        assert config.judge.top_n_candidates == 30
        assert config.judge.retry == 2
        assert config.judge.max_tokens == 1024
        assert config.augment.temperature == 0.5
        assert config.bm25.k1 == 1.2
        assert config.bm25.b == 0.75
        assert config.tokenizer.mode == "cjk_bigram"
        assert config.mock.mf_jaccard_threshold == 0.4
        assert config.cache.enabled is False
        assert config.ablation.disable_adm is False
        assert config.parallelism == 1

    def test_no_arguments_equals_plain_construction(self):
        assert load_config() == Config()


class TestConfigLayering:
    def test_file_over_defaults_nested(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"judge": {"temperature": 0.7}}', encoding="utf-8")
        config = load_config(path)
        assert config.judge.temperature == 0.7
        assert config.judge.retry == 2  # untouched default

    def test_file_dotted_keys(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"judge.temperature": 0.7, "parallelism": 3}', encoding="utf-8")
        config = load_config(path)
        assert config.judge.temperature == 0.7
        assert config.parallelism == 3

    def test_overrides_beat_file(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"judge": {"temperature": 0.7}}', encoding="utf-8")
        config = load_config(path, ["judge.temperature=0.9"])
        assert config.judge.temperature == 0.9

    def test_override_value_types(self):
        config = load_config(
            overrides=[
                "parallelism=4",
                "cache.enabled=true",
                "api.model=gpt-4",
                "judge.temperature=0.8",
                "transcript_path=/tmp/t.jsonl",
            ]
        )
        assert config.parallelism == 4
        assert config.cache.enabled is True
        assert config.api.model == "gpt-4"
        assert config.judge.temperature == 0.8
        assert config.transcript_path == "/tmp/t.jsonl"

    def test_integer_widens_to_float_slot(self):
        config = load_config(overrides=["judge.temperature=1"])
        assert config.judge.temperature == 1.0
        assert isinstance(config.judge.temperature, float)

    def test_rate_limit_accepts_null_and_int(self):
        assert load_config(overrides=["api.rate_limit_rpm=null"]).api.rate_limit_rpm is None
        assert load_config(overrides=["api.rate_limit_rpm=90"]).api.rate_limit_rpm == 90


class TestConfigValidation:
    @pytest.mark.parametrize(
        "override",
        [
            "nonsense=1",
            "judge.nope=1",
            "nope.temperature=1",
            "judge.temperature=3.0",
            "judge.temperature=-0.1",
            "judge.retry=true",
            "cache.enabled=1",
            "parallelism=0",
            "tokenizer.mode=word",
            "mock.mf_jaccard_threshold=0",
            "bm25.b=1.5",
            "api.rate_limit_rpm=0",
            "judge.runs=0",
            "mock.lexicon_path=true",
            "api.rate_limit_rpm=true",
            "mock.lexicon_path=5",
            "bm25.k1=null",
            pytest.param("judge.temperature=1" + "0" * 400, id="float-key-integer-overflow"),
            "bm25.k1=Infinity",
            "bm25.k1=1e999",
            "api.timeout=-1",
            "api.timeout=0",
            "api.timeout=NaN",
            "api.backoff_base=-1",
        ],
    )
    def test_rejected_overrides(self, override):
        with pytest.raises(ConfigError):
            load_config(overrides=[override])

    def test_every_default_lies_in_its_bounds(self):
        # Setting each key to its own default passes the same checks as any other value.
        defaults = []
        for key in _KEYS:
            section, _, attr = key.rpartition(".")
            value = getattr(getattr(Config(), section) if section else Config(), attr)
            defaults.append(f"{key}={json.dumps(value)}")
        assert len(defaults) == 30
        assert load_config(overrides=defaults) == Config()

    def test_file_value_out_of_bounds_is_refused_despite_an_override(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"judge": {"temperature": 3.0}}', encoding="utf-8")
        with pytest.raises(ConfigError, match="judge.temperature"):
            load_config(path, ["judge.temperature=0.5"])

    def test_override_without_equals(self):
        with pytest.raises(ConfigError):
            load_config(overrides=["judge.temperature"])

    def test_external_tokenizer_needs_command(self):
        # Only the built-in tokenizers are modes, and there is no command key.
        with pytest.raises(ConfigError, match="tokenizer.mode") as excinfo:
            load_config(overrides=["tokenizer.mode=external"])
        assert excinfo.value.key == "tokenizer.mode"
        with pytest.raises(ConfigError, match="unknown configuration key"):
            load_config(overrides=["tokenizer.command=cat"])

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "absent.json")

    def test_bad_json_file(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{broken", encoding="utf-8")
        with pytest.raises(ParseError):
            load_config(path)

    def test_non_object_file(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(ParseError):
            load_config(path)

    def test_unknown_file_key(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"judge": {"tempurature": 0.4}}', encoding="utf-8")
        with pytest.raises(ConfigError):
            load_config(path)


def run_cli(capsys, *argv: str) -> tuple[int, dict]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else {})


class TestCliBasics:
    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2

    def test_missing_required_option_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["ingest", "--cases", "x.jsonl"])  # --pools missing
        assert excinfo.value.code == 2

    def test_missing_file_exits_1(self, tmp_path, capsys):
        code = main(
            [
                "ingest",
                "--cases", str(tmp_path / "absent.jsonl"),
                "--pools", str(tmp_path / "absent.json"),
            ]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "error:" in captured.err

    def test_bad_config_key_exits_1(self, toy, capsys):
        code = main(
            [
                "--set", "judge.bogus=1",
                "ingest",
                "--cases", str(toy.cases),
                "--pools", str(toy.pools),
            ]
        )
        assert code == 1
        assert "judge.bogus" in capsys.readouterr().err

    def test_non_finite_config_value_exits_1(self, toy, tmp_path, capsys):
        code = main(
            [
                "judge", "--mock",
                "--cases", str(toy.cases),
                "--pools", str(toy.pools),
                "--out", str(tmp_path / "j.jsonl"),
                "--set", "bm25.k1=Infinity",
            ]
        )
        [message] = capsys.readouterr().err.splitlines()
        assert code == 1
        assert message.startswith("error: bm25.k1")
        assert not list(tmp_path.iterdir())

    def test_ingest_reports_corpus_shape(self, toy, capsys):
        code, payload = run_cli(
            capsys,
            "ingest",
            "--cases", str(toy.cases),
            "--pools", str(toy.pools),
            "--qrels", str(toy.qrels),
        )
        assert code == 0
        assert payload == {"cases": 48, "pools": 12, "qrels_pairs": 120}

    def test_queries_alias_for_pools(self, toy, capsys):
        code, payload = run_cli(
            capsys,
            "ingest",
            "--cases", str(toy.cases),
            "--queries", str(toy.pools),
        )
        assert code == 0
        assert payload["qrels_pairs"] is None

    def test_demos_validate(self, toy, capsys):
        code, payload = run_cli(capsys, "demos", "validate", "--demos", str(toy.demos))
        assert code == 0
        assert payload["demonstrations"] == 12
        assert payload["sets"] == {"FE_MF": 2, "FE_LF": 2, "FA_MF": 4, "FA_LF": 4}

    def test_toydata_materializes_corpus(self, tmp_path, capsys):
        out_dir = tmp_path / "toy"
        code, payload = run_cli(capsys, "toydata", "--out-dir", str(out_dir))
        assert code == 0
        names = {p.rsplit("/", 1)[-1] for p in payload["written"]}
        assert names == {"cases.jsonl", "pools.json", "qrels.json", "demos.json", "lexicon.txt"}
        code2, shape = run_cli(
            capsys,
            "ingest",
            "--cases", str(out_dir / "cases.jsonl"),
            "--pools", str(out_dir / "pools.json"),
            "--qrels", str(out_dir / "qrels.json"),
        )
        assert code2 == 0 and shape["cases"] == 48


@pytest.fixture(scope="module")
def judged(tmp_path_factory):
    """One mock judging run over the bundled corpus, plus its location."""
    from lexjudge.toydata import toy_paths

    toy = toy_paths()
    out = tmp_path_factory.mktemp("judged") / "records.jsonl"
    code = main(
        [
            "judge",
            "--cases", str(toy.cases),
            "--pools", str(toy.pools),
            "--out", str(out),
            "--runs", "1",
            "--mock",
        ]
    )
    assert code == 0
    return toy, out


class TestCliJudge:
    def test_mock_labels_equal_gold(self, judged):
        toy, out = judged
        qrels = load_qrels(toy.qrels)
        records = read_records_jsonl(out)
        assert len(records) == 120
        for record in records:
            assert record.status == "ok"
            assert record.label == qrels.label(record.query_id, record.candidate_id)
            assert record.run_id == "r1"

    def test_rerun_is_byte_identical(self, judged, tmp_path, capsys):
        toy, out = judged
        again = tmp_path / "again.jsonl"
        code, _ = run_cli(
            capsys,
            "judge",
            "--cases", str(toy.cases),
            "--pools", str(toy.pools),
            "--out", str(again),
            "--runs", "1",
            "--mock",
        )
        assert code == 0
        assert again.read_bytes() == out.read_bytes()

    def test_multi_run_suffix_naming(self, toy, tmp_path, capsys):
        out = tmp_path / "r.jsonl"
        code, payload = run_cli(
            capsys,
            "judge",
            "--cases", str(toy.cases),
            "--pools", str(toy.pools),
            "--out", str(out),
            "--runs", "2",
            "--top-n", "2",
            "--mock",
        )
        assert code == 0
        paths = [tmp_path / "r.run1.jsonl", tmp_path / "r.run2.jsonl"]
        assert [entry["path"] for entry in payload["outputs"]] == [str(p) for p in paths]
        first, second = (read_records_jsonl(p) for p in paths)
        assert [r.run_id for r in first] == ["r1"] * 24
        assert [r.run_id for r in second] == ["r2"] * 24
        assert [(r.query_id, r.candidate_id, r.label) for r in first] == [
            (r.query_id, r.candidate_id, r.label) for r in second
        ]

    def test_top_n_limits_pairs(self, toy, tmp_path, capsys):
        out = tmp_path / "r.jsonl"
        code, payload = run_cli(
            capsys,
            "judge",
            "--cases", str(toy.cases),
            "--pools", str(toy.pools),
            "--out", str(out),
            "--runs", "1",
            "--top-n", "3",
            "--mock",
        )
        assert code == 0
        assert payload["outputs"][0]["pairs"] == 36

    @pytest.mark.parametrize("top_n", ["0", "-1"])
    def test_top_n_below_one_exits_1(self, top_n, toy, tmp_path, capsys):
        out = tmp_path / "r.jsonl"
        code = main(["judge", "--cases", str(toy.cases), "--pools", str(toy.pools), "--out", str(out),
                     "--runs", "1", "--top-n", top_n, "--mock"])
        err = capsys.readouterr().err
        assert code == 1
        [message] = err.splitlines()
        assert message.startswith("error: ") and "top_n" in message
        assert not out.exists()

    def test_set_after_subcommand_changes_threshold(self, toy, tmp_path, capsys):
        out = tmp_path / "strict.jsonl"
        code, _ = run_cli(
            capsys,
            "judge",
            "--cases", str(toy.cases),
            "--pools", str(toy.pools),
            "--out", str(out),
            "--runs", "1",
            "--top-n", "2",
            "--mock",
            "--set", "mock.mf_jaccard_threshold=0.9",
        )
        assert code == 0
        labels = [r.label for r in read_records_jsonl(out)]
        # near-duplicate pairs no longer clear the stricter similarity bar
        assert set(labels) == {0, 2}

    def test_set_before_subcommand_equivalent(self, toy, tmp_path, capsys):
        out = tmp_path / "strict2.jsonl"
        code, _ = run_cli(
            capsys,
            "--set", "mock.mf_jaccard_threshold=0.9",
            "judge",
            "--cases", str(toy.cases),
            "--pools", str(toy.pools),
            "--out", str(out),
            "--runs", "1",
            "--top-n", "2",
            "--mock",
        )
        assert code == 0
        assert {r.label for r in read_records_jsonl(out)} == {0, 2}

    def test_config_file_option(self, toy, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"judge": {"top_n_candidates": 2}}', encoding="utf-8")
        out = tmp_path / "r.jsonl"
        code, payload = run_cli(
            capsys,
            "--config", str(cfg),
            "judge",
            "--cases", str(toy.cases),
            "--pools", str(toy.pools),
            "--out", str(out),
            "--runs", "1",
            "--mock",
        )
        assert code == 0
        assert payload["outputs"][0]["pairs"] == 24


    def test_runs_share_one_demo_library(self, toy, tmp_path, monkeypatch, capsys):
        import lexjudge.demos

        calls = []
        tokenize = lexjudge.demos.tokenize

        def counting_tokenize(text, *args):
            calls.append(text)
            return tokenize(text, *args)

        monkeypatch.setattr(lexjudge.demos, "tokenize", counting_tokenize)
        counts = {}
        for runs in (1, 3):
            calls.clear()
            code, payload = run_cli(
                capsys,
                "judge",
                "--cases", str(toy.cases),
                "--pools", str(toy.pools),
                "--out", str(tmp_path / f"runs{runs}" / "j.jsonl"),
                "--runs", str(runs),
                "--mock",
            )
            assert code == 0 and payload["runs"] == runs
            counts[runs] = len(calls)
        assert counts[3] == counts[1] > 0

    @pytest.mark.parametrize("transcript", [True, False], ids=["transcript-on", "transcript-off"])
    @pytest.mark.parametrize("cache", [True, False], ids=["cache-on", "cache-off"])
    @pytest.mark.parametrize("mock", [True, False], ids=["mock", "chat"])
    def test_make_judge_layers_cache_over_transcript_over_backend(self, mock, cache, transcript, tmp_path):
        overrides = [f"cache.enabled={str(cache).lower()}", f"cache.dir={tmp_path / 'cache'}"]
        if transcript:
            overrides.append(f"transcript_path={tmp_path / 't.jsonl'}")
        judge = _make_judge(load_config(None, overrides), mock)
        if cache:
            assert type(judge) is CachedJudge and judge.cache_dir == tmp_path / "cache"
            judge = judge.inner
        if transcript:
            assert type(judge) is TranscribedJudge and judge.transcript_path == tmp_path / "t.jsonl"
            judge = judge.inner
        # With both off the bare backend comes back, so the default path has no wrapper.
        assert type(judge) is (MockJudge if mock else ChatCompletionsJudge)

    def test_cache_serves_run_two_from_run_one(self, toy, tmp_path, monkeypatch, capsys):
        transcript = tmp_path / "t.jsonl"
        mock_calls, at_write = [], []
        complete, write = MockJudge.complete, cli.write_records_jsonl

        def counting_complete(self, request):
            mock_calls.append(request)
            return complete(self, request)

        def snapshot_then_write(path, records):
            lines = len(transcript.read_text(encoding="utf-8").splitlines()) if transcript.exists() else 0
            at_write.append((len(mock_calls), lines))
            write(path, records)

        monkeypatch.setattr(MockJudge, "complete", counting_complete)
        monkeypatch.setattr(cli, "write_records_jsonl", snapshot_then_write)
        judge = ["judge", "--cases", str(toy.cases), "--pools", str(toy.pools), "--runs", "2", "--mock"]
        assert run_cli(capsys, *judge, "--out", str(tmp_path / "plain" / "j.jsonl"))[0] == 0
        # Each run issues 336 calls, of which 300 are distinct: equal pairs repeat.
        assert at_write == [(336, 0), (672, 0)]
        mock_calls.clear()
        at_write.clear()
        cached = [
            "--set", "cache.enabled=true",
            "--set", f"cache.dir={tmp_path / 'cache'}",
            "--set", f"transcript_path={transcript}",
        ]
        assert run_cli(capsys, *judge, "--out", str(tmp_path / "cached" / "j.jsonl"), *cached)[0] == 0
        # Run 1 reaches the mock once per distinct request and writes one line for each;
        # run 2 is served wholly from run 1's entries, so it reaches nothing and writes nothing.
        assert at_write == [(300, 300), (300, 300)]
        assert len(list((tmp_path / "cache").iterdir())) == 300
        for name in ("j.run1.jsonl", "j.run2.jsonl"):
            assert (tmp_path / "cached" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()
        code, payload = run_cli(
            capsys,
            "evaluate", "reliability",
            "--in", str(tmp_path / "cached" / "j.run1.jsonl"), str(tmp_path / "cached" / "j.run2.jsonl"),
            "--report-dir", str(tmp_path / "rep"),
        )
        assert code == 0
        # Kappa 1.0 by construction: run 2 repeats run 1's replies. The ROADMAP item
        # "Reliability and validity that can fail" puts a sample index in the request
        # hash, so run 2 misses the cache and this assertion turns around.
        assert (payload["kappa_mf_mean"], payload["kappa_lf_mean"], payload["kappa_label_mean"]) == (1.0, 1.0, 1.0)


class TestCliEvaluate:
    def test_validity_report(self, judged, tmp_path, capsys):
        toy, out = judged
        report_dir = tmp_path / "rep"
        code, payload = run_cli(
            capsys,
            "evaluate", "validity",
            "--in", str(out),
            "--qrels", str(toy.qrels),
            "--report-dir", str(report_dir),
        )
        assert code == 0
        assert payload["kappa_mf"] == 1.0
        assert payload["kappa_lf"] == 1.0
        assert payload["kappa_4level"] == 1.0
        assert payload["pairs_compared"] == 120
        assert payload["failed_excluded"] == 0
        report = json.loads((report_dir / "report.json").read_text(encoding="utf-8"))
        assert report["kappa_4level"] == 1.0
        for name in ("heatmap_4x4", "heatmap_mf", "heatmap_lf"):
            assert (report_dir / f"{name}.csv").is_file()

    def test_validity_requires_qrels(self, judged, tmp_path, capsys):
        _, out = judged
        code = main(
            [
                "evaluate", "validity",
                "--in", str(out),
                "--report-dir", str(tmp_path),
            ]
        )
        assert code == 1
        assert "qrels" in capsys.readouterr().err

    def test_reliability_needs_two_runs(self, judged, tmp_path, capsys):
        _, out = judged
        code = main(
            [
                "evaluate", "reliability",
                "--in", str(out),
                "--report-dir", str(tmp_path),
            ]
        )
        assert code == 1
        assert "two run files" in capsys.readouterr().err

    def test_reliability_across_repeat_runs(self, judged, tmp_path, capsys):
        toy, out = judged
        second = tmp_path / "second.jsonl"
        assert (
            main(
                [
                    "judge",
                    "--cases", str(toy.cases),
                    "--pools", str(toy.pools),
                    "--out", str(second),
                    "--runs", "1",
                    "--mock",
                ]
            )
            == 0
        )
        capsys.readouterr()
        report_dir = tmp_path / "rep"
        code, payload = run_cli(
            capsys,
            "evaluate", "reliability",
            "--in", str(out), str(second),
            "--report-dir", str(report_dir),
        )
        assert code == 0
        assert payload["kappa_mf_mean"] == 1.0
        assert payload["kappa_lf_mean"] == 1.0
        assert payload["kappa_label_mean"] == 1.0
        report = json.loads((report_dir / "report.json").read_text(encoding="utf-8"))
        assert report["pairs_compared"] == 120
        assert report["runs"] == 2

    def test_report_heatmap_writes_three_csvs(self, judged, tmp_path, capsys):
        toy, out = judged
        out_dir = tmp_path / "maps"
        code, payload = run_cli(
            capsys,
            "report", "heatmap",
            "--in", str(out),
            "--qrels", str(toy.qrels),
            "--out-dir", str(out_dir),
        )
        assert code == 0
        assert len(payload["written"]) == 3
        grid = (out_dir / "heatmap_4x4.csv").read_text(encoding="utf-8").strip().split("\n")
        assert grid[0] == ",0,1,2,3"


class TestCliNdcg:
    def write_ideal_run(self, qrels_path, run_path):
        qrels = load_qrels(qrels_path)
        lines = []
        for qid in qrels.entries:
            row = qrels.entries[qid]
            ordered = sorted(row, key=lambda cid: (-row[cid], cid))
            for rank, cid in enumerate(ordered, start=1):
                lines.append(f"{qid} Q0 {cid} {rank} {float(row[cid]):.6f} ideal")
        run_path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def test_ideal_run_scores_one(self, toy, tmp_path, capsys):
        run_path = tmp_path / "ideal.run"
        self.write_ideal_run(toy.qrels, run_path)
        code, payload = run_cli(
            capsys,
            "ndcg",
            "--run", str(run_path),
            "--qrels", str(toy.qrels),
            "--k", "30",
        )
        assert code == 0
        assert payload["mean"] == 1.0
        assert payload["queries_scored"] == 12
        assert payload["queries_skipped"] == []
        assert all(v == 1.0 for v in payload["per_query"].values())

    def test_malformed_run_exits_1(self, toy, tmp_path, capsys):
        run_path = tmp_path / "bad.run"
        run_path.write_text("q01 Q0 c01a 2 1.0 t\n", encoding="utf-8")
        code = main(["ndcg", "--run", str(run_path), "--qrels", str(toy.qrels)])
        assert code == 1
        assert "rank" in capsys.readouterr().err


class TestCliAugment:
    def test_full_chain(self, toy, tmp_path, capsys):
        pairs = tmp_path / "pairs.json"
        code, payload = run_cli(
            capsys,
            "augment", "sample",
            "--cases", str(toy.cases),
            "--n", "40",
            "--seed", "3",
            "--out", str(pairs),
        )
        assert code == 0 and payload["pairs"] == 40

        kept = tmp_path / "kept.json"
        code, payload = run_cli(
            capsys,
            "augment", "prerank",
            "--cases", str(toy.cases),
            "--pairs", str(pairs),
            "--top-n", "15",
            "--out", str(kept),
        )
        assert code == 0
        assert payload == {"scored": 40, "kept": 15, "out": str(kept)}

        annotated = tmp_path / "annotated.jsonl"
        code, payload = run_cli(
            capsys,
            "augment", "annotate",
            "--cases", str(toy.cases),
            "--pairs", str(kept),
            "--out", str(annotated),
            "--mock",
        )
        assert code == 0
        assert payload["pairs"] == 15 and payload["failed"] == 0

        dataset = tmp_path / "train.jsonl"
        code, payload = run_cli(
            capsys,
            "augment", "build",
            "--annotated", str(annotated),
            "--name", "toy-train",
            "--size", "10",
            "--mode", "random",
            "--seed", "1",
            "--out", str(dataset),
        )
        assert code == 0
        assert payload["selected"] == 10
        assert sum(payload["histogram"].values()) == 10
        assert (tmp_path / "train.jsonl.spec.json").is_file()

        exported = tmp_path / "train.export.jsonl"
        code, manifest = run_cli(
            capsys,
            "augment", "export",
            "--dataset", str(dataset),
            "--cases", str(toy.cases),
            "--format", "label_only",
            "--out", str(exported),
            "--compare", str(dataset),
        )
        assert code == 0
        assert manifest["name"] == "toy-train"
        assert manifest["mode"] == "random"
        assert manifest["seed"] == 1
        assert manifest["size"] == 10
        assert manifest["overlap_with_compare"] == 10
        rows = [
            json.loads(l)
            for l in exported.read_text(encoding="utf-8").splitlines()
            if l
        ]
        assert len(rows) == 10
        assert set(rows[0]) == {"query_id", "cand_id", "query_text", "cand_text", "label"}

        chat = tmp_path / "train.chat.jsonl"
        code, manifest = run_cli(
            capsys,
            "augment", "export",
            "--dataset", str(dataset),
            "--cases", str(toy.cases),
            "--format", "rationale",
            "--out", str(chat),
        )
        assert code == 0 and manifest["format"] == "rationale"
        row = json.loads(chat.read_text(encoding="utf-8").splitlines()[0])
        assert [m["role"] for m in row["messages"]] == ["system", "user", "assistant"]

    def test_annotate_resumes_from_checkpoint(self, toy, tmp_path, capsys):
        pairs = tmp_path / "pairs.json"
        run_cli(
            capsys,
            "augment", "sample",
            "--cases", str(toy.cases),
            "--n", "6",
            "--seed", "2",
            "--out", str(pairs),
        )
        checkpoint = tmp_path / "ck.jsonl"
        code, first = run_cli(
            capsys,
            "augment", "annotate",
            "--cases", str(toy.cases),
            "--pairs", str(pairs),
            "--out", str(checkpoint),
            "--mock",
        )
        assert code == 0 and first["pairs"] == 6
        before = checkpoint.read_bytes()
        code, second = run_cli(
            capsys,
            "augment", "annotate",
            "--cases", str(toy.cases),
            "--pairs", str(pairs),
            "--out", str(checkpoint),
            "--mock",
        )
        assert code == 0 and second["pairs"] == 6
        assert checkpoint.read_bytes() == before  # nothing re-judged or appended
        assert first["extractions_reused"] == second["extractions_reused"] == 0  # nothing pending

    @pytest.mark.parametrize("cut", ["mid-utf8", "mid-ascii", "before-newline"])
    def test_annotate_resumes_past_a_torn_last_line(self, cut, toy, tmp_path, capsys, monkeypatch, caplog):
        pairs, oneshot, checkpoint = tmp_path / "pairs.json", tmp_path / "oneshot.jsonl", tmp_path / "ck.jsonl"
        run_cli(capsys, "augment", "sample", "--cases", str(toy.cases), "--n", "20", "--seed", "0",
                "--out", str(pairs))
        annotate = lambda out: run_cli(capsys, "augment", "annotate", "--cases", str(toy.cases),
                                       "--pairs", str(pairs), "--out", str(out), "--mock")
        assert annotate(oneshot)[0] == 0
        # A run interrupted while appending its 10th line: the checkpoint ends inside that line.
        lines = oneshot.read_bytes().splitlines(keepends=True)
        tenth = lines[9]
        end = {
            "mid-utf8": next(i for i, byte in enumerate(tenth) if byte & 0xC0 == 0x80),
            "mid-ascii": tenth.index(b"query_id"),
            "before-newline": len(tenth) - 1,
        }[cut]
        checkpoint.write_bytes(b"".join(lines[:9]) + tenth[:end])
        judged = []
        judge_pairs = JudgeEngine.judge_pairs

        def counting(engine, todo, **kwargs):
            judged.extend((query.id, candidate.id) for query, candidate in todo)
            return judge_pairs(engine, todo, **kwargs)

        monkeypatch.setattr(JudgeEngine, "judge_pairs", counting)
        code, summary = annotate(checkpoint)
        assert code == 0 and summary["pairs"] == 20 and summary["failed"] == 0
        kept = 10 if cut == "before-newline" else 9  # a whole 10th line is kept, a cut one dropped
        keys = [(row["query_id"], row["candidate_id"]) for row in map(json.loads, lines[kept:])]
        assert sorted(judged) == sorted(keys)
        dropped = [r.getMessage() for r in caplog.records if "cut short" in r.getMessage()]
        warning = f"{checkpoint}:10: dropping a line cut short by an interrupted write"
        assert dropped == ([] if kept == 10 else [warning])
        # The appended lines start lines of their own.
        assert sorted(checkpoint.read_bytes().splitlines(keepends=True)) == sorted(lines)

    def test_annotate_reports_reused_extractions(self, toy, tmp_path, capsys):
        pairs, head = tmp_path / "pairs.json", tmp_path / "head.json"
        run_cli(capsys, "augment", "sample", "--cases", str(toy.cases), "--n", "40", "--seed", "5",
                "--out", str(pairs))
        kept = json.loads(pairs.read_text(encoding="utf-8"))
        head.write_text(json.dumps(kept[:10]), encoding="utf-8")
        annotate = lambda path, out: run_cli(capsys, "augment", "annotate", "--cases", str(toy.cases),
                                             "--pairs", str(path), "--out", str(out), "--mock")
        cases = lambda chosen: {case_id for pair in chosen for case_id in pair}
        code, first = annotate(head, tmp_path / "resumed.jsonl")
        assert code == 0 and first["extractions_reused"] == 0
        code, resumed = annotate(pairs, tmp_path / "resumed.jsonl")
        assert code == 0 and resumed["pairs"] == 40
        assert resumed["extractions_reused"] == len(cases(kept[10:]) & cases(kept[:10])) > 0
        code, oneshot = annotate(pairs, tmp_path / "oneshot.jsonl")
        assert code == 0 and oneshot["extractions_reused"] == 0
        sorted_lines = lambda name: sorted((tmp_path / name).read_text(encoding="utf-8").splitlines())
        assert sorted_lines("resumed.jsonl") == sorted_lines("oneshot.jsonl")

    def test_build_infeasible_distribution_exits_1(self, toy, tmp_path, capsys):
        pairs = tmp_path / "pairs.json"
        run_cli(
            capsys,
            "augment", "sample",
            "--cases", str(toy.cases),
            "--n", "6",
            "--seed", "2",
            "--out", str(pairs),
        )
        annotated = tmp_path / "annotated.jsonl"
        run_cli(
            capsys,
            "augment", "annotate",
            "--cases", str(toy.cases),
            "--pairs", str(pairs),
            "--out", str(annotated),
            "--mock",
        )
        code = main(
            [
                "augment", "build",
                "--annotated", str(annotated),
                "--name", "x",
                "--size", "6",
                "--mode", "distribution_matched",
                "--distribution", '{"0": 0.0, "1": 0.0, "2": 0.0, "3": 1.0}',
                "--out", str(tmp_path / "d.jsonl"),
            ]
        )
        assert code == 1
        assert "label 3" in capsys.readouterr().err

    def test_build_rejects_bad_distribution_json(self, toy, tmp_path, capsys):
        annotated = tmp_path / "annotated.jsonl"
        annotated.write_text("", encoding="utf-8")
        code = main(
            [
                "augment", "build",
                "--annotated", str(annotated),
                "--name", "x",
                "--size", "2",
                "--mode", "distribution_matched",
                "--distribution", "{broken",
                "--out", str(tmp_path / "d.jsonl"),
            ]
        )
        assert code == 1
        assert "distribution" in capsys.readouterr().err


def _records_file(path, source, line_no: int, text: str):
    """The first three lines of a records file, with line line_no replaced by text."""
    lines = source.read_text(encoding="utf-8").splitlines(keepends=True)[:3]
    lines[line_no - 1] = text + "\n"
    path.write_text("".join(lines), encoding="utf-8")
    return path


def _truncated(source, line_no: int) -> str:
    return source.read_text(encoding="utf-8").splitlines()[line_no - 1][:40]


def _without_candidate_id(source, line_no: int) -> str:
    row = json.loads(source.read_text(encoding="utf-8").splitlines()[line_no - 1])
    del row["candidate_id"]
    return json.dumps(row, ensure_ascii=False)


def _validity_truncated(toy, out, tmp):
    bad = _records_file(tmp / "in.jsonl", out, 2, _truncated(out, 2))
    return ["evaluate", "validity", "--in", str(bad), "--qrels", str(toy.qrels),
            "--report-dir", str(tmp / "rep")], bad, 2


def _heatmap_truncated(toy, out, tmp):
    bad = _records_file(tmp / "in.jsonl", out, 3, _truncated(out, 3))
    return ["report", "heatmap", "--in", str(bad), "--qrels", str(toy.qrels),
            "--out-dir", str(tmp / "maps")], bad, 3


def _checkpoint_without_candidate_id(toy, out, tmp):
    bad = _records_file(tmp / "ck.jsonl", out, 2, _without_candidate_id(out, 2))
    pairs = tmp / "pairs.json"
    pairs.write_text('[["q01", "q02"]]', encoding="utf-8")
    return ["augment", "annotate", "--cases", str(toy.cases), "--pairs", str(pairs),
            "--out", str(bad), "--mock"], bad, 2


def _checkpoint_truncated_last_line(toy, out, tmp):
    """A malformed last line that ends in a newline is no interrupted append."""
    bad = _records_file(tmp / "ck.jsonl", out, 3, _truncated(out, 3))
    pairs = tmp / "pairs.json"
    pairs.write_text('[["q01", "q02"]]', encoding="utf-8")
    return ["augment", "annotate", "--cases", str(toy.cases), "--pairs", str(pairs),
            "--out", str(bad), "--mock"], bad, 3


def _annotated_non_object(toy, out, tmp):
    bad = _records_file(tmp / "annotated.jsonl", out, 2, "[1, 2]")
    return ["augment", "build", "--annotated", str(bad), "--name", "x", "--size", "1",
            "--mode", "random", "--out", str(tmp / "d.jsonl")], bad, 2


def _export_args(toy, out, tmp):
    """Export a three-record dataset d.jsonl from tmp."""
    dataset = tmp / "d.jsonl"
    dataset.write_text("".join(out.read_text(encoding="utf-8").splitlines(keepends=True)[:3]), encoding="utf-8")
    return ["augment", "export", "--dataset", str(dataset), "--cases", str(toy.cases),
            "--format", "label_only", "--out", str(tmp / "e.jsonl")]


def _sidecar(text):
    def case(toy, out, tmp):
        bad = tmp / "d.jsonl.spec.json"
        bad.write_text(text, encoding="utf-8")
        return _export_args(toy, out, tmp), bad, None

    return case


def _compare_truncated(toy, out, tmp):
    bad = _records_file(tmp / "other.jsonl", out, 2, _truncated(out, 2))
    return _export_args(toy, out, tmp) + ["--compare", str(bad)], bad, 2


def _cases_latin1(toy, out, tmp):
    bad = tmp / "cases.jsonl"
    first = toy.cases.read_bytes().splitlines(keepends=True)[0]
    bad.write_bytes(first + '{"id": "x1", "fact_text": "café"}\n'.encode("latin-1"))
    return ["ingest", "--cases", str(bad), "--pools", str(toy.pools)], bad, 2


def _judge_args(toy, tmp):
    return ["judge", "--mock", "--cases", str(toy.cases), "--pools", str(toy.pools),
            "--runs", "1", "--out", str(tmp / "j.jsonl")]


def _lexicon_latin1(toy, out, tmp):
    bad = tmp / "lexicon.txt"
    bad.write_bytes("盗窃\n".encode("utf-8") + "café\n".encode("latin-1"))
    return ["--set", f"mock.lexicon_path={bad}"] + _judge_args(toy, tmp), bad, 2


def _template_ends_in_latin1(toy, out, tmp):
    templates = tmp / "templates"
    templates.mkdir()
    for name in TEMPLATE_NAMES:
        packaged = resources.files("lexjudge").joinpath(f"templates/{name}.txt")
        (templates / f"{name}.txt").write_bytes(packaged.read_bytes())
    bad = templates / "fa_lf.txt"
    text = bad.read_bytes()
    assert text.endswith(b"\n")
    bad.write_bytes(text + b"\xe9")
    return _judge_args(toy, tmp) + ["--templates", str(templates)], bad, text.count(b"\n") + 1


def _pools_candidate_ids(value):
    def case(toy, out, tmp):
        bad = tmp / "pools.json"
        bad.write_text(json.dumps([{"query_id": "q01", "candidate_ids": value}]), encoding="utf-8")
        return ["ingest", "--cases", str(toy.cases), "--pools", str(bad)], bad, None

    return case


def _run_latin1_line(toy, out, tmp):
    bad = tmp / "run.txt"
    bad.write_bytes(b"q01 Q0 c01 1 0.9 t\n" + "q01 Q0 café 2 0.8 t\n".encode("latin-1"))
    return ["ndcg", "--run", str(bad), "--qrels", str(toy.qrels)], bad, 2


class TestCliMalformedInput:
    """A malformed input file is a data problem: exit 1 with one error line naming it."""

    @pytest.mark.parametrize(
        "make_case",
        [
            _validity_truncated,
            _heatmap_truncated,
            _checkpoint_without_candidate_id,
            _checkpoint_truncated_last_line,
            _annotated_non_object,
            _sidecar('{"name": "x", "size": '),
            _sidecar('["x"]'),
            _sidecar('{"name": "x", "mode": "random", "seed": 0}'),
            _sidecar('{"name": "x", "size": 4, "mode": "random", "distribution": [1], "seed": 0}'),
            _sidecar('{"name": "x", "size": "4", "mode": "random", "distribution": null, "seed": 0}'),
            _compare_truncated,
            _cases_latin1,
            _lexicon_latin1,
            _template_ends_in_latin1,
            _run_latin1_line,
            _pools_candidate_ids(5),
            _pools_candidate_ids("c01a"),
        ],
        ids=[
            "validity-truncated-line",
            "heatmap-truncated-line",
            "checkpoint-line-without-candidate_id",
            "checkpoint-truncated-last-line",
            "annotated-non-object-line",
            "spec-sidecar-truncated",
            "spec-sidecar-not-an-object",
            "spec-sidecar-missing-key",
            "spec-sidecar-distribution-not-an-object",
            "spec-sidecar-size-a-string",
            "compare-truncated-line",
            "cases-latin1-line",
            "lexicon-latin1-line",
            "template-ends-in-latin1",
            "run-latin1-line",
            "pools-candidate_ids-a-number",
            "pools-candidate_ids-a-string",
        ],
    )
    def test_exits_1_with_one_error_line(self, make_case, judged, tmp_path, capsys):
        toy, out = judged
        argv, bad, line = make_case(toy, out, tmp_path)
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 1
        assert "Traceback" not in err
        [message] = err.splitlines()
        assert message.startswith("error: ")
        assert message.endswith(f"({bad}:{line})" if line is not None else f"({bad})")

    @pytest.mark.parametrize("distribution", ['{"0": null}', '{"0": [1]}', '{"0": NaN}', '[0.5]'])
    def test_bad_distribution_exits_1_with_one_error_line(self, distribution, judged, tmp_path, capsys):
        toy, out = judged
        argv = ["augment", "build", "--annotated", str(out), "--name", "x", "--size", "4",
                "--mode", "distribution_matched", "--distribution", distribution,
                "--out", str(tmp_path / "d.jsonl")]
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 1
        assert "Traceback" not in err
        [message] = err.splitlines()
        assert message.startswith("error: ") and "distribution" in message
        assert not (tmp_path / "d.jsonl").exists()

    def test_export_with_a_bad_compare_file_writes_no_dataset(self, judged, tmp_path, capsys):
        toy, out = judged
        argv, _, _ = _compare_truncated(toy, out, tmp_path)
        assert main(argv) == 1
        assert "error: " in capsys.readouterr().err
        assert not (tmp_path / "e.jsonl").exists()
        assert not (tmp_path / "e.jsonl.manifest.json").exists()
