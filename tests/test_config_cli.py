"""Configuration layering/validation and the command-line surface."""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shlex
import threading
from collections import Counter
from importlib import resources
from pathlib import Path

import pytest

from lexjudge import cli, gateway
from lexjudge.cli import _make_judge, main
from lexjudge.config import _KEYS, Config, load_config
from lexjudge.corpus import load_qrels
from lexjudge.engine import TEMPLATE_NAMES, JudgeEngine, read_records_jsonl
from lexjudge.errors import ConfigError, ParseError
from lexjudge.gateway import CachedJudge, ChatCompletionsJudge, MockJudge, TranscribedJudge, stage_of


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


README = Path(__file__).resolve().parents[1] / "README.md"


def _leaf_commands(parser: argparse.ArgumentParser, path: tuple[str, ...] = ()) -> dict:
    """{handler: (command, subcommand...)} for every subcommand the parser runs."""
    leaves = {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                leaves.update(_leaf_commands(sub, path + (name,)))
    handler = parser.get_default("handler")
    if handler is not None:
        leaves[handler] = path
    return leaves


def _readme_commands() -> list[list[str]]:
    """The arguments of each `lexjudge` command line in the README's bash blocks, continuations joined."""
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```bash\n(.*?)^```$", text, re.DOTALL | re.MULTILINE)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True)[1:] for line in lines if line.startswith("lexjudge ")]


class TestReadmeCommands:
    """The README documents the CLI as the parser builds it, and every subcommand it runs."""

    def test_each_readme_command_parses(self):
        commands = _readme_commands()
        assert len(commands) >= 10
        for argv in commands:
            try:
                cli.build_parser().parse_args(argv)
            except SystemExit:
                pytest.fail(f"README command does not parse: lexjudge {shlex.join(argv)}")

    def test_each_subcommand_is_in_the_readme(self):
        parser = cli.build_parser()
        leaves = _leaf_commands(parser)
        documented = {leaves[parser.parse_args(argv).handler] for argv in _readme_commands()}
        assert sorted(set(leaves.values()) - documented) == []


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

    def test_cache_serves_each_run_only_its_own_replies(self, toy, tmp_path, monkeypatch, capsys):
        transcript = tmp_path / "t.jsonl"
        mock_calls, at_write = [], []
        complete, judge_to_file = MockJudge.complete, cli.judge_to_file

        def counting_complete(self, request):
            mock_calls.append(request)
            return complete(self, request)

        def write_then_snapshot(*args):
            records = judge_to_file(*args)
            lines = len(transcript.read_text(encoding="utf-8").splitlines()) if transcript.exists() else 0
            at_write.append((len(mock_calls), lines))
            return records

        monkeypatch.setattr(MockJudge, "complete", counting_complete)
        monkeypatch.setattr(cli, "judge_to_file", write_then_snapshot)
        judge = ["judge", "--cases", str(toy.cases), "--pools", str(toy.pools), "--runs", "2", "--mock"]
        assert run_cli(capsys, *judge, "--out", str(tmp_path / "plain" / "j.jsonl"))[0] == 0
        # Each run asks each of its 300 distinct requests once: pairs of equal legal facts share a reply.
        assert at_write == [(300, 0), (600, 0)]
        assert [r.sample_index for r in mock_calls] == [1] * 300 + [2] * 300
        mock_calls.clear()
        at_write.clear()
        cached = [
            "--set", "cache.enabled=true",
            "--set", f"cache.dir={tmp_path / 'cache'}",
            "--set", f"transcript_path={transcript}",
        ]
        assert run_cli(capsys, *judge, "--out", str(tmp_path / "cached" / "j.jsonl"), *cached)[0] == 0
        # Run 2's requests carry its own sample index, so the cache serves it none of run 1's
        # entries: it reaches the mock once per request and writes one line for each.
        assert at_write == [(300, 300), (600, 600)]
        assert len(list((tmp_path / "cache").iterdir())) == 600
        for name in ("j.run1.jsonl", "j.run2.jsonl"):
            assert (tmp_path / "cached" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()
        # Another invocation's runs are r1 and r2 again, so the cache serves them wholly; this is
        # why evaluate reliability refuses runs that share a run id.
        at_write.clear()
        assert run_cli(capsys, *judge, "--out", str(tmp_path / "again" / "j.jsonl"), *cached)[0] == 0
        assert at_write == [(600, 600), (600, 600)]
        code, payload = run_cli(
            capsys,
            "evaluate", "reliability",
            "--in", str(tmp_path / "cached" / "j.run1.jsonl"), str(tmp_path / "cached" / "j.run2.jsonl"),
            "--report-dir", str(tmp_path / "rep"),
        )
        assert code == 0
        # Still 1.0, now because the mock ignores the sample index: a noisy mock that reads it is
        # the second half of the ROADMAP item "Reliability and validity that can fail".
        assert (payload["kappa_mf_mean"], payload["kappa_lf_mean"], payload["kappa_label_mean"]) == (1.0, 1.0, 1.0)

    # The key is looked up before each call, so a run without it ends at its first call, on
    # whichever thread makes it, and no pair is recorded as failed.
    @pytest.mark.parametrize("parallelism", [1, 8])
    def test_a_missing_key_ends_the_run_before_any_call(self, parallelism, toy, tmp_path, monkeypatch, capsys):
        calls = []
        monkeypatch.delenv("OPENAI_API_KEY", raising=False)
        monkeypatch.setattr(gateway, "_SessionTransport", lambda: lambda *request: calls.append(request))
        code = main(["judge", "--cases", str(toy.cases), "--pools", str(toy.pools), "--out", str(tmp_path / "j.jsonl"),
                     "--set", "api.base_url=http://127.0.0.1:9", "--set", f"parallelism={parallelism}"])
        [message] = capsys.readouterr().err.splitlines()
        assert code == 1 and calls == []
        assert message == "error: environment variable OPENAI_API_KEY is not set"
        assert (tmp_path / "j.run1.jsonl").read_bytes() == b""
        assert not (tmp_path / "j.run2.jsonl").exists()

    # Every call of a stage whose demo set is empty would fail alike, so the engine refuses the
    # library before any call, at either stage, and no run file is opened; the ablation that asks
    # for no demo of that set judges every pair with the same library. demos validate agrees.
    @pytest.mark.parametrize("parallelism", [1, 4])
    @pytest.mark.parametrize("stage, fact_type, ablation", [
        ("FE", "MF", "disable_fe"), ("FE", "LF", "disable_fe"),
        ("FA", "MF", "disable_fa_demos"), ("FA", "LF", "disable_fa_demos"),
    ])
    def test_an_empty_demo_set_ends_the_run(
        self, stage, fact_type, ablation, parallelism, toy, tmp_path, capsys, monkeypatch
    ):
        demos = [demo for demo in json.loads(Path(toy.demos).read_text(encoding="utf-8"))
                 if (demo["stage"], demo["fact_type"]) != (stage, fact_type)]
        library = tmp_path / "demos.json"
        library.write_text(json.dumps(demos, ensure_ascii=False), encoding="utf-8")
        judge = ["judge", "--mock", "--cases", str(toy.cases), "--pools", str(toy.pools), "--demos", str(library),
                 "--runs", "1", "--set", f"parallelism={parallelism}"]
        counter = StageCounter(monkeypatch)
        code = main([*judge, "--out", str(tmp_path / "j.jsonl")])
        [message] = capsys.readouterr().err.splitlines()
        assert code == 1 and message == f"error: no demonstrations for {stage}/{fact_type}"
        assert sum(counter.calls.values()) == 0 and not (tmp_path / "j.jsonl").exists()
        validate = ["demos", "validate", "--demos", str(library)]
        assert main(validate) == 1
        assert capsys.readouterr().err.splitlines() == [message]
        assert main([*judge, "--out", str(tmp_path / "ablated.jsonl"), "--set", f"ablation.{ablation}=true"]) == 0
        records = read_records_jsonl(tmp_path / "ablated.jsonl")
        assert len(records) == 120 and all(record.status == "ok" for record in records)
        capsys.readouterr()
        code, payload = run_cli(capsys, *validate, "--set", f"ablation.{ablation}=true")
        assert code == 0 and payload["sets"][f"{stage}_{fact_type}"] == 0


class StageCounter:
    """Counts MockJudge calls per stage, across threads; the call after stop_after calls raises KeyboardInterrupt."""

    def __init__(self, monkeypatch, stop_after: int | None = None):
        self.calls: Counter[str] = Counter()
        lock = threading.Lock()

        def counting(judge, request):
            with lock:
                if sum(self.calls.values()) == stop_after:
                    raise KeyboardInterrupt
                self.calls[stage_of(request.user_text)] += 1
            return _MOCK_COMPLETE(judge, request)

        monkeypatch.setattr(MockJudge, "complete", counting)


_MOCK_COMPLETE = MockJudge.complete  # what a StageCounter wraps, however many are made
RUN_FILES = [f"j.run{i}.jsonl" for i in (1, 2, 3)]


def _judge_three_runs(toy, out, *extra: str) -> list[str]:
    return ["judge", "--cases", str(toy.cases), "--pools", str(toy.pools), "--out", str(out), "--runs", "3",
            "--mock", *extra]


def _pair_cases(pairs) -> set[str]:
    return {case_id for pair in pairs for case_id in pair}


class TestCliJudgeResume:
    """Each run file of `judge` is a checkpoint: a rerun keeps every finished pair."""

    @pytest.fixture(scope="class")
    def oneshot(self, tmp_path_factory):
        """The bytes of each run file of one uninterrupted `judge --runs 3`."""
        from lexjudge.toydata import toy_paths

        out = tmp_path_factory.mktemp("oneshot") / "j.jsonl"
        assert main(_judge_three_runs(toy_paths(), out)) == 0
        return {name: (out.parent / name).read_bytes() for name in RUN_FILES}

    @pytest.mark.parametrize("parallelism", [1, 8])
    def test_interrupted_run_resumes_to_the_one_shot_bytes(
        self, parallelism, oneshot, toy, tmp_path, monkeypatch, capsys
    ):
        out = tmp_path / "j.jsonl"
        run_calls = 300  # one toy run: 204 distinct comparisons and 96 extractions of 48 cases
        StageCounter(monkeypatch, stop_after=run_calls + 150)
        with pytest.raises(KeyboardInterrupt):
            main(_judge_three_runs(toy, out))
        assert (tmp_path / "j.run1.jsonl").read_bytes() == oneshot["j.run1.jsonl"]
        assert not (tmp_path / "j.run3.jsonl").exists()
        run1 = read_records_jsonl(tmp_path / "j.run1.jsonl")
        pairs = [(r.query_id, r.candidate_id) for r in run1]
        legal = {(r.query_id, r.candidate_id): (r.lf_extractions[0].text, r.lf_extractions[1].text) for r in run1}
        done = [(r.query_id, r.candidate_id) for r in read_records_jsonl(tmp_path / "j.run2.jsonl")]
        assert 0 < len(done) < len(pairs) and done == pairs[: len(done)]
        pending = pairs[len(done) :]

        counter = StageCounter(monkeypatch)
        code, summary = run_cli(capsys, *_judge_three_runs(toy, out, "--set", f"parallelism={parallelism}"))
        assert code == 0
        for name in RUN_FILES:
            assert (tmp_path / name).read_bytes() == oneshot[name]
        # Run 1 calls nothing. Run 2 extracts the cases no finished pair extracted and asks the
        # comparisons no finished pair asked: each pending pair's material facts, and each
        # distinct pair of legal facts; run 3 makes every call, each distinct comparison once.
        fe = len(_pair_cases(pending) - _pair_cases(done)) + len(_pair_cases(pairs))
        fa_mf = len(pending) + len(pairs)
        fa_lf = len({legal[pair] for pair in pending} - {legal[pair] for pair in done}) + len(set(legal.values()))
        assert counter.calls == {"FE_MF": fe, "FE_LF": fe, "FA_MF": fa_mf, "FA_LF": fa_lf}
        # With the 150 calls before the interrupt, run 2 made one run's calls, though some of
        # its pending pairs compare the legal facts that a done pair compared.
        assert sum(counter.calls.values()) - run_calls == run_calls - 150
        assert {legal[pair] for pair in pending} & {legal[pair] for pair in done}
        reused = len(_pair_cases(pending) & _pair_cases(done))
        assert [(o["pairs"], o["failed"], o["resumed"], o["extractions_reused"]) for o in summary["outputs"]] == [
            (120, 0, 120, 0),
            (120, 0, len(done), reused),
            (120, 0, 0, 0),
        ]

    def test_rerun_over_finished_run_files_calls_nothing(self, oneshot, toy, tmp_path, monkeypatch, capsys):
        for name, data in oneshot.items():
            (tmp_path / name).write_bytes(data)
        stamps = [(tmp_path / name).stat().st_mtime_ns for name in RUN_FILES]
        counter = StageCounter(monkeypatch)
        code, summary = run_cli(capsys, *_judge_three_runs(toy, tmp_path / "j.jsonl", "--set", "parallelism=8"))
        assert code == 0 and counter.calls == {}
        assert [(tmp_path / name).read_bytes() for name in RUN_FILES] == list(oneshot.values())
        assert [(tmp_path / name).stat().st_mtime_ns for name in RUN_FILES] == stamps  # not rewritten
        assert [(o["resumed"], o["extractions_reused"]) for o in summary["outputs"]] == [(120, 0)] * 3

    @pytest.mark.parametrize("cut", ["mid-utf8", "mid-ascii", "before-newline"])
    def test_a_run_file_torn_mid_line_resumes(self, cut, oneshot, toy, tmp_path, monkeypatch, capsys, caplog):
        for name, data in oneshot.items():
            (tmp_path / name).write_bytes(data)
        # Run 2 was interrupted while appending its 10th line: the file ends inside that line.
        lines = oneshot["j.run2.jsonl"].splitlines(keepends=True)
        tenth = lines[9]
        end = {
            "mid-utf8": next(i for i, byte in enumerate(tenth) if byte & 0xC0 == 0x80),
            "mid-ascii": tenth.index(b"query_id"),
            "before-newline": len(tenth) - 1,
        }[cut]
        torn = tmp_path / "j.run2.jsonl"
        torn.write_bytes(b"".join(lines[:9]) + tenth[:end])
        judged = []
        judge_pairs = JudgeEngine.judge_pairs

        def counting(engine, todo, **kwargs):
            judged.extend((query.id, candidate.id) for query, candidate in todo)
            return judge_pairs(engine, todo, **kwargs)

        monkeypatch.setattr(JudgeEngine, "judge_pairs", counting)
        code, summary = run_cli(capsys, *_judge_three_runs(toy, tmp_path / "j.jsonl"))
        assert code == 0
        assert [(tmp_path / name).read_bytes() for name in RUN_FILES] == list(oneshot.values())
        kept = 10 if cut == "before-newline" else 9  # a whole 10th line is kept, a cut one dropped
        assert judged == [(row["query_id"], row["candidate_id"]) for row in map(json.loads, lines[kept:])]
        assert [o["resumed"] for o in summary["outputs"]] == [120, kept, 120]
        dropped = [r.getMessage() for r in caplog.records if "cut short" in r.getMessage()]
        assert dropped == ([] if kept == 10 else [f"{torn}:10: dropping a line cut short by an interrupted write"])

    def test_a_run_file_from_another_configuration_is_refused(self, toy, tmp_path, monkeypatch, capsys):
        out = tmp_path / "j.jsonl"
        assert main(_judge_three_runs(toy, out, "--set", "judge.temperature=0.9")) == 0
        before = [(tmp_path / name).read_bytes() for name in RUN_FILES]
        capsys.readouterr()
        counter = StageCounter(monkeypatch)
        code = main(_judge_three_runs(toy, out))
        [message] = capsys.readouterr().err.splitlines()
        assert code == 1 and counter.calls == {}
        assert message == f"error: {tmp_path / 'j.run1.jsonl'} was written under a different configuration"
        assert [(tmp_path / name).read_bytes() for name in RUN_FILES] == before


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
        grid = (report_dir / "heatmap_4x4.csv").read_text(encoding="utf-8").strip().split("\n")
        assert grid[0] == ",0,1,2,3"

    # The validity files of the bundled corpus judged without fact extraction (ablation.disable_fe),
    # so that every layer and class is counted off the diagonal as well as on it.
    RAW_VALIDITY_SHA256 = {
        "report.json": "6dd1a06ce2927c0062a0f15c3dcf87a4ca6977d9683c8b3905b1887d08ead8a4",
        "heatmap_4x4.csv": "42f83dde3eeecc46066b75bf3d05e233b1d0e5532a18579ece56cbfc9e225756",
        "heatmap_mf.csv": "4cdac041a536a7323a299baee81d4d04029a5e0b11d31311983e66be1ba3d52d",
        "heatmap_lf.csv": "87a3d4284130c0b50559185243825be9155e87ad85a908a121a9bb2f09a8d663",
    }

    def test_validity_files_without_fact_extraction_are_pinned(self, toy, tmp_path, capsys):
        out = tmp_path / "raw.jsonl"
        code, _ = run_cli(capsys, "judge", "--mock", "--cases", str(toy.cases), "--pools", str(toy.pools),
                          "--out", str(out), "--runs", "1", "--set", "ablation.disable_fe=true")
        assert code == 0
        report_dir = tmp_path / "rep"
        code, payload = run_cli(capsys, "evaluate", "validity", "--in", str(out), "--qrels", str(toy.qrels),
                                "--report-dir", str(report_dir))
        assert code == 0
        assert (payload["kappa_mf"], payload["kappa_lf"], payload["kappa_4level"]) == (1.0, 0.0, 0.523809523809524)
        digests = {name: hashlib.sha256((report_dir / name).read_bytes()).hexdigest() for name in self.RAW_VALIDITY_SHA256}
        assert digests == self.RAW_VALIDITY_SHA256

    def test_validity_refuses_more_than_one_run_file(self, judged, tmp_path, capsys):
        toy, out = judged
        other = tmp_path / "other.jsonl"
        other.write_bytes(out.read_bytes())
        report_dir = tmp_path / "rep"
        code = main(
            [
                "evaluate", "validity",
                "--in", str(out), str(other), str(tmp_path / "missing.jsonl"),
                "--qrels", str(toy.qrels),
                "--report-dir", str(report_dir),
            ]
        )
        [message] = capsys.readouterr().err.splitlines()
        assert code == 1
        assert message == "error: validity reads one run file, got 3"
        assert not report_dir.exists()

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

    @pytest.mark.parametrize("alias", ["same-path", "relative-path", "hard-link"])
    def test_reliability_refuses_one_file_given_twice(self, alias, judged, tmp_path, capsys):
        _, out = judged
        again = out
        if alias == "relative-path":
            again = os.path.relpath(out)
        elif alias == "hard-link":
            again = tmp_path / "link.jsonl"
            os.link(out, again)
        code = main(["evaluate", "reliability", "--in", str(out), str(again), "--report-dir", str(tmp_path / "rep")])
        [message] = capsys.readouterr().err.splitlines()
        assert code == 1
        assert message == f"error: reliability needs distinct run files, but {again} is given twice"
        assert not (tmp_path / "rep").exists()

    @pytest.mark.parametrize("mode", ["validity", "reliability"])
    def test_a_run_that_judges_a_pair_twice_exits_1(self, mode, judged, tmp_path, capsys):
        toy, out = judged
        first = out.read_text(encoding="utf-8").splitlines(keepends=True)[0]
        twice = tmp_path / "twice.jsonl"
        twice.write_text(first + out.read_text(encoding="utf-8"), encoding="utf-8")
        pair = (json.loads(first)["query_id"], json.loads(first)["candidate_id"])
        given = ["--in", str(twice), "--qrels", str(toy.qrels)] if mode == "validity" else ["--in", str(out), str(twice)]
        code = main(["evaluate", mode, *given, "--report-dir", str(tmp_path / "rep")])
        [message] = capsys.readouterr().err.splitlines()
        assert code == 1
        assert message == f"error: {twice} judges pair {pair!r} more than once"
        assert not (tmp_path / "rep").exists()

    def test_reliability_refuses_qrels(self, judged, tmp_path, capsys):
        toy, out = judged
        other = tmp_path / "other.jsonl"
        other.write_bytes(out.read_bytes())
        code = main(["evaluate", "reliability", "--in", str(out), str(other), "--qrels", str(toy.qrels),
                     "--report-dir", str(tmp_path / "rep")])
        [message] = capsys.readouterr().err.splitlines()
        assert code == 1
        assert message == "error: reliability takes no --qrels"
        assert not (tmp_path / "rep").exists()

    def test_reliability_across_repeat_runs(self, judged, tmp_path, capsys):
        toy, out = judged
        judge = ["judge", "--cases", str(toy.cases), "--pools", str(toy.pools), "--mock"]
        # A second `judge --runs 1` is run r1 again: it asks run 1's requests, which a cache would
        # serve it, so the two are refused together.
        second = tmp_path / "second.jsonl"
        assert main([*judge, "--out", str(second), "--runs", "1"]) == 0
        capsys.readouterr()
        code = main(["evaluate", "reliability", "--in", str(out), str(second), "--report-dir", str(tmp_path / "rep")])
        [message] = capsys.readouterr().err.splitlines()
        assert code == 1
        assert message == f"error: reliability needs runs of distinct run ids, got run id r1 in {out}, {second}"
        assert not (tmp_path / "rep").exists()
        # The runs of one `judge --runs 2` are r1 and r2.
        assert main([*judge, "--out", str(tmp_path / "j.jsonl"), "--runs", "2"]) == 0
        capsys.readouterr()
        report_dir = tmp_path / "rep"
        code, payload = run_cli(
            capsys,
            "evaluate", "reliability",
            "--in", str(tmp_path / "j.run1.jsonl"), str(tmp_path / "j.run2.jsonl"),
            "--report-dir", str(report_dir),
        )
        assert code == 0
        assert payload["kappa_mf_mean"] == 1.0
        assert payload["kappa_lf_mean"] == 1.0
        assert payload["kappa_label_mean"] == 1.0
        report = json.loads((report_dir / "report.json").read_text(encoding="utf-8"))
        assert report["pairs_compared"] == 120
        assert report["runs"] == 2

    def test_reliability_refuses_runs_of_different_configurations(self, judged, tmp_path, capsys):
        # Kappa over these three would read 1.0 (MF), 0.33 (LF) and 0.68 (label): the
        # disagreement comes from the configurations, not from repeating one judge.
        toy, out = judged
        paths = [out]
        for name, setting in (("warm", "judge.temperature=0.9"), ("raw", "ablation.disable_fe=true")):
            paths.append(tmp_path / f"{name}.jsonl")
            code = main(["judge", "--mock", "--cases", str(toy.cases), "--pools", str(toy.pools),
                         "--out", str(paths[-1]), "--runs", "1", "--set", setting])
            assert code == 0
        capsys.readouterr()
        fingerprints = [read_records_jsonl(path)[0].config_fingerprint for path in paths]
        assert len(set(fingerprints)) == 3
        code = main(["evaluate", "reliability", "--in", *map(str, paths), "--report-dir", str(tmp_path / "rep")])
        [message] = capsys.readouterr().err.splitlines()
        assert code == 1
        each = "; ".join(f"{fingerprint} in {path}" for fingerprint, path in zip(fingerprints, paths))
        assert message == f"error: reliability needs runs of one configuration, got fingerprints {each}"
        assert not (tmp_path / "rep").exists()


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
        assert (first["resumed"], second["resumed"]) == (0, 6)

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
        assert code == 0 and (first["resumed"], first["extractions_reused"]) == (0, 0)
        code, resumed = annotate(pairs, tmp_path / "resumed.jsonl")
        assert code == 0 and resumed["pairs"] == 40
        assert resumed["resumed"] == 10  # the pairs the first annotation finished
        assert resumed["extractions_reused"] == len(cases(kept[10:]) & cases(kept[:10])) > 0
        code, oneshot = annotate(pairs, tmp_path / "oneshot.jsonl")
        assert code == 0 and (oneshot["resumed"], oneshot["extractions_reused"]) == (0, 0)
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


def _validity_truncated(line_no: int):
    def case(toy, out, tmp):
        bad = _records_file(tmp / "in.jsonl", out, line_no, _truncated(out, line_no))
        return ["evaluate", "validity", "--in", str(bad), "--qrels", str(toy.qrels),
                "--report-dir", str(tmp / "rep")], bad, line_no

    return case


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


def _checkpoint_latin1_before_a_torn_line(toy, out, tmp):
    """A line that is not UTF-8 before a torn last line is reported, not mended away."""
    lines = out.read_bytes().splitlines(keepends=True)[:3]
    bad = tmp / "ck.jsonl"
    bad.write_bytes(lines[0] + lines[1].replace(b"status", "café".encode("latin-1"), 1) + lines[2][:40])
    pairs = tmp / "pairs.json"
    pairs.write_text('[["q01", "q02"]]', encoding="utf-8")
    return ["augment", "annotate", "--cases", str(toy.cases), "--pairs", str(pairs),
            "--out", str(bad), "--mock"], bad, 2


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
            _validity_truncated(2),
            _validity_truncated(3),
            _checkpoint_without_candidate_id,
            _checkpoint_truncated_last_line,
            _checkpoint_latin1_before_a_torn_line,
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
            "validity-truncated-line-3",
            "checkpoint-line-without-candidate_id",
            "checkpoint-truncated-last-line",
            "checkpoint-latin1-line-before-a-torn-one",
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
