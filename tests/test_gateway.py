"""Mock-judge rules and the chat-completions backend (faults injected)."""

from __future__ import annotations

import json
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lexjudge.errors import AuthError, DomainError, MalformedStageMarker, UpstreamError
from lexjudge.gateway import (
    CachedJudge,
    ChatCompletionsJudge,
    FACTS_BEGIN,
    FACTS_END,
    INPUT_A,
    INPUT_B,
    JudgeRequest,
    MockJudge,
    MockJudgeConfig,
    STAGE_PREFIX,
    TARGET_BEGIN,
    TARGET_END,
    TranscribedJudge,
    TransportError,
    _PUNCTUATION_TO_SPACE,
    load_lexicon,
    mock_complete,
    mock_lf_tags,
    mock_tokens,
    request_hash,
    stage_of,
    word_count,
)
from lexjudge.engine import FA_REMINDER, FE_REMINDER

from conftest import InstrumentedJudge, make_engine
from oracles import normalized_tokens, punctuation_to_spaces

CJK_TEXT = st.text(
    alphabet=st.sampled_from(list("盗窃抢劫罪被告人案ab1 。，；")), max_size=30
)


def req(stage: str, target: str, temperature: float = 0.4) -> JudgeRequest:
    return JudgeRequest(
        system_text="system",
        user_text=f"{STAGE_PREFIX}{stage}\n{TARGET_BEGIN}\n{target}\n{TARGET_END}",
        temperature=temperature,
        model="m",
        max_tokens=64,
    )


def pair_target(a: str, b: str) -> str:
    return f"{INPUT_A}\n{a}\n{INPUT_B}\n{b}"


class TestRequestBasics:
    def test_empty_user_text(self):
        with pytest.raises(DomainError):
            JudgeRequest(system_text="", user_text="", temperature=0.4, model="m")

    def test_temperature_range(self):
        with pytest.raises(DomainError):
            JudgeRequest(system_text="", user_text="x", temperature=2.5, model="m")

    def test_sample_index_range(self):
        with pytest.raises(DomainError, match="sample_index"):
            JudgeRequest(system_text="", user_text="x", temperature=0.4, model="m", sample_index=0)

    def test_request_hash_distinguishes_fields(self):
        base = JudgeRequest(system_text="s", user_text="u", temperature=0.4, model="m")
        assert request_hash(base) != request_hash(
            JudgeRequest(system_text="s", user_text="u!", temperature=0.4, model="m")
        )
        assert request_hash(base) != request_hash(
            JudgeRequest(system_text="s", user_text="u", temperature=0.5, model="m")
        )
        assert request_hash(base) != request_hash(
            JudgeRequest(system_text="s", user_text="u", temperature=0.4, model="m", max_tokens=64)
        )
        assert request_hash(base) != request_hash(
            JudgeRequest(system_text="s!", user_text="u", temperature=0.4, model="m")
        )
        assert request_hash(base) != request_hash(
            JudgeRequest(system_text="s", user_text="u", temperature=0.4, model="m2")
        )
        assert request_hash(base) != request_hash(
            JudgeRequest(system_text="s", user_text="u", temperature=0.4, model="m", sample_index=2)
        )
        assert request_hash(base) == request_hash(
            JudgeRequest(system_text="s", user_text="u", temperature=0.4, model="m", sample_index=1)
        )

    def test_stage_of(self):
        assert stage_of("#STAGE:FE_MF\nbody") == "FE_MF"
        assert stage_of("intro\n#STAGE:FA_LF\nbody") == "FA_LF"
        assert stage_of("#STAGE:XX\nbody") is None
        assert stage_of("no marker") is None


class TestMockRules:
    def test_threshold_validation(self):
        with pytest.raises(DomainError):
            MockJudgeConfig(mf_jaccard_threshold=0.0)
        with pytest.raises(DomainError):
            MockJudgeConfig(mf_jaccard_threshold=1.5)

    def test_fe_mf_emits_normalized_tokens(self, mock_cfg):
        response = mock_complete(req("FE_MF", "被告人王某，盗窃财物。"), mock_cfg)
        body = response.text
        assert body.startswith(FACTS_BEGIN) and body.endswith(FACTS_END)
        tokens = body.splitlines()[1].split()
        assert tokens == mock_tokens("被告人王某，盗窃财物。")
        assert len(tokens) == len(set(tokens))

    def test_fe_lf_emits_lexicon_intersection(self, mock_cfg):
        response = mock_complete(req("FE_LF", "某人实施盗窃并逃跑"), mock_cfg)
        assert response.text.splitlines()[1].split() == ["盗窃"]

    def test_fa_mf_identical_texts_relevant(self, mock_cfg):
        target = pair_target("被告 告人 盗窃", "被告 告人 盗窃")
        response = mock_complete(req("FA_MF", target), mock_cfg)
        assert response.text.endswith("VERDICT: RELEVANT")

    def test_fa_mf_two_of_six_irrelevant(self, mock_cfg):
        # |A ∩ B| = 2, |A ∪ B| = 6 so Jaccard = 1/3 < 0.4
        target = pair_target("w1 w2 w3 w4", "w1 w2 w5 w6")
        response = mock_complete(req("FA_MF", target), mock_cfg)
        assert response.text.endswith("VERDICT: IRRELEVANT")
        assert "jaccard=0.3333" in response.text

    def test_fa_mf_disjoint_irrelevant(self, mock_cfg):
        response = mock_complete(req("FA_MF", pair_target("a b", "c d")), mock_cfg)
        assert response.text.endswith("VERDICT: IRRELEVANT")

    def test_fa_lf_shared_tag_relevant(self, mock_cfg):
        response = mock_complete(req("FA_LF", pair_target("盗窃 抢劫", "盗窃")), mock_cfg)
        assert response.text.endswith("VERDICT: RELEVANT")

    def test_fa_lf_no_shared_tag_irrelevant(self, mock_cfg):
        response = mock_complete(req("FA_LF", pair_target("盗窃", "抢劫")), mock_cfg)
        assert response.text.endswith("VERDICT: IRRELEVANT")

    def test_temperature_ignored(self, mock_cfg):
        cold = mock_complete(req("FE_MF", "盗窃案件", 0.0), mock_cfg)
        hot = mock_complete(req("FE_MF", "盗窃案件", 1.9), mock_cfg)
        assert cold.text == hot.text

    def test_pure_under_repetition(self, mock_cfg):
        request = req("FA_MF", pair_target("盗窃 案件", "盗窃 案件 另外"))
        assert mock_complete(request, mock_cfg).text == mock_complete(request, mock_cfg).text

    def test_missing_stage_marker(self, mock_cfg):
        request = JudgeRequest(
            system_text="", user_text="plain text", temperature=0.4, model="m"
        )
        with pytest.raises(MalformedStageMarker):
            mock_complete(request, mock_cfg)

    def test_missing_target_block(self, mock_cfg):
        request = JudgeRequest(
            system_text="", user_text="#STAGE:FE_MF\nno target", temperature=0.4, model="m"
        )
        with pytest.raises(MalformedStageMarker):
            mock_complete(request, mock_cfg)

    def test_fa_without_input_sections(self, mock_cfg):
        with pytest.raises(MalformedStageMarker):
            mock_complete(req("FA_MF", "just one blob"), mock_cfg)

    @given(st.one_of(CJK_TEXT, st.text()))
    @settings(max_examples=400)
    def test_tokens_match_independent_rules(self, text):
        assert mock_tokens(text) == normalized_tokens(text)

    @given(st.text())
    @settings(max_examples=300)
    def test_punctuation_table_matches_per_character_rule(self, text):
        assert text.translate(_PUNCTUATION_TO_SPACE) == punctuation_to_spaces(text)

    @given(CJK_TEXT)
    @settings(max_examples=200)
    def test_tokens_idempotent_over_space_join(self, text):
        tokens = mock_tokens(text)
        assert mock_tokens(" ".join(tokens)) == tokens

    def test_lf_tags_sorted(self):
        lexicon = frozenset({"盗窃", "抢劫"})
        assert mock_lf_tags(["抢劫", "盗窃", "其他"], lexicon) == ["抢劫", "盗窃"]

    def test_load_lexicon_skips_comments(self, tmp_path):
        path = tmp_path / "lexicon.txt"
        path.write_text("# header\n盗窃\n\n 抢劫 \n", encoding="utf-8")
        assert load_lexicon(path) == frozenset({"盗窃", "抢劫"})


# Every str.splitlines boundary ("\r\n" among them), and whitespace str.split honours beyond ASCII.
LINE_BOUNDARIES = ["\n", "\x0b", "\x0c", "\r", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
SPLIT_TEXT = st.text(alphabet=st.sampled_from([*LINE_BOUNDARIES, "\u3000", "\xa0", " ", "\t", "a", "盗", "#"]))


class TestPromptTokenCounts:
    """The mock counts prompt tokens line by line; the sum is the whole prompt's split."""

    def test_boundaries_are_every_line_boundary(self):
        assert [chr(cp) for cp in range(0x110000) if len(f"a{chr(cp)}a".splitlines()) == 2] == LINE_BOUNDARIES

    @given(SPLIT_TEXT)
    @example("a\r\nb\r\n\r\n盗\u3000a\xa0\x85")
    @settings(max_examples=400)
    def test_line_counts_sum_to_the_whole_split(self, text):
        assert sum(map(word_count, text.splitlines())) == len(text.split())

    @given(SPLIT_TEXT)
    @settings(max_examples=200)
    def test_mock_reports_the_whole_prompt_split(self, text):
        request = req("FE_MF", text)
        want = len(request.user_text.split())
        assert mock_complete(request, MockJudgeConfig()).usage.prompt_tokens == want
        assert MockJudge(MockJudgeConfig()).complete(request).usage.prompt_tokens == want

    def test_every_toy_request_with_and_without_reminder(self, mock_cfg, toy_library, toy_corpus):
        store, pools, _ = toy_corpus
        sent: list[JudgeRequest] = []
        judge = MockJudge(mock_cfg)

        class Recording:
            def complete(self, request):
                sent.append(request)
                return judge.complete(request)

        make_engine(Recording(), toy_library).judge_pools(store, pools)
        assert len(sent) == 300  # each distinct request once
        shared = MockJudge(mock_cfg)  # its line counts fill across all the requests
        for request in sent:
            reminder = FE_REMINDER if stage_of(request.user_text).startswith("FE") else FA_REMINDER
            retry = JudgeRequest(
                system_text=request.system_text,
                user_text=f"{request.user_text}\n\n{reminder}",
                temperature=request.temperature,
                model=request.model,
                max_tokens=request.max_tokens,
            )
            for r in (request, retry):
                want = len(r.user_text.split())
                assert mock_complete(r, mock_cfg).usage.prompt_tokens == want
                assert shared.complete(r).usage.prompt_tokens == want


# -- chat-completions backend -------------------------------------------------


class FakeTransport:
    """Scripted (status, payload) responses; raises TransportError entries."""

    def __init__(self, script):
        self.script = list(script)
        self.calls = []
        self.lock = threading.Lock()

    def __call__(self, url, headers, payload, timeout):
        with self.lock:
            self.calls.append({"url": url, "headers": headers, "payload": payload})
            step = self.script.pop(0)
        if isinstance(step, Exception):
            raise step
        return step


def ok_payload(text="ok"):
    return (
        200,
        {
            "choices": [{"message": {"content": text}}],
            "usage": {"prompt_tokens": 5, "completion_tokens": 3},
        },
    )


class FakeTime:
    """Deterministic clock whose sleep advances it, recording every wait."""

    def __init__(self):
        self.now = 0.0
        self.sleeps: list[float] = []

    def clock(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.sleeps.append(seconds)
        self.now += seconds


def wrapped(judge, cache_dir=None, transcript_path=None):
    """judge inside a TranscribedJudge, then a CachedJudge, each when its argument is given."""
    if transcript_path is not None:
        judge = TranscribedJudge(judge, transcript_path)
    if cache_dir is not None:
        judge = CachedJudge(judge, cache_dir)
    return judge


def make_judge(transport, tmp_path, monkeypatch, cache_dir=None, transcript_path=None, **kwargs):
    """A ChatCompletionsJudge on transport with a fake clock, wrapped as wrapped() wraps."""
    monkeypatch.setenv("TEST_JUDGE_KEY", "secret-key")
    defaults = dict(
        base_url="https://backend.example/v1",
        model="m",
        key_env="TEST_JUDGE_KEY",
        timeout=5.0,
        retry=2,
        backoff_base=1.0,
        rate_limit_rpm=None,
        transport=transport,
    )
    defaults.update(kwargs)
    fake = FakeTime()
    judge = ChatCompletionsJudge(**defaults, sleep=fake.sleep, clock=fake.clock)
    return wrapped(judge, cache_dir, transcript_path), fake.sleeps


def plain_request(text="hello") -> JudgeRequest:
    return JudgeRequest(
        system_text="sys",
        user_text=f"{STAGE_PREFIX}FE_MF\n{TARGET_BEGIN}\n{text}\n{TARGET_END}",
        temperature=0.4,
        model="m",
        max_tokens=64,
    )


BAD_CACHE_ENTRIES = pytest.mark.parametrize(
    "entry",
    [
        b'{"text": null, "prompt_tokens": 1, "completion_tokens": 0}',
        b"\xff not json",
        b'["ok", 1, 0]',
        b'{"text": "ok", "prompt_tokens": 1}',
    ],
    ids=["text-null", "not-json", "json-array", "missing-key"],
)


class TestChatCompletionsJudge:
    def test_success_roundtrip(self, tmp_path, monkeypatch):
        transport = FakeTransport([ok_payload("the answer")])
        judge, _ = make_judge(transport, tmp_path, monkeypatch)
        response = judge.complete(plain_request())
        assert response.text == "the answer"
        assert response.cached is False
        assert response.usage.prompt_tokens == 5
        body = transport.calls[0]["payload"]
        assert body["model"] == "m"
        assert body["messages"][0]["role"] == "system"
        assert body["messages"][1]["role"] == "user"
        assert transport.calls[0]["headers"]["Authorization"] == "Bearer secret-key"

    def test_missing_api_key(self, tmp_path, monkeypatch):
        monkeypatch.delenv("ABSENT_KEY_VAR", raising=False)
        transport = FakeTransport([ok_payload()])
        judge = ChatCompletionsJudge(
            base_url="https://backend.example/v1",
            model="m",
            key_env="ABSENT_KEY_VAR",
            transport=transport,
        )
        with pytest.raises(AuthError):
            judge.complete(plain_request())
        assert transport.calls == []  # refused before any network use

    def test_retry_on_429_then_success(self, tmp_path, monkeypatch):
        transport = FakeTransport([(429, {}), (429, {}), ok_payload()])
        judge, sleeps = make_judge(transport, tmp_path, monkeypatch)
        response = judge.complete(plain_request())
        assert response.text == "ok"
        assert len(transport.calls) == 3
        # exponential backoff before each retry: base * 2^(attempt-1)
        assert sleeps == [1.0, 2.0]

    def test_retry_on_transport_error(self, tmp_path, monkeypatch):
        transport = FakeTransport([TransportError("timeout"), ok_payload()])
        judge, _ = make_judge(transport, tmp_path, monkeypatch)
        assert judge.complete(plain_request()).text == "ok"
        assert len(transport.calls) == 2

    def test_budget_exhausted(self, tmp_path, monkeypatch):
        transport = FakeTransport([(503, {}), (503, {}), (503, {})])
        judge, _ = make_judge(transport, tmp_path, monkeypatch)
        with pytest.raises(UpstreamError):
            judge.complete(plain_request())
        assert len(transport.calls) == 3  # retry=2 means three attempts

    def test_auth_failure_never_retried(self, tmp_path, monkeypatch):
        transport = FakeTransport([(401, {}), ok_payload()])
        judge, _ = make_judge(transport, tmp_path, monkeypatch)
        with pytest.raises(AuthError):
            judge.complete(plain_request())
        assert len(transport.calls) == 1

    def test_other_client_error_fails_fast(self, tmp_path, monkeypatch):
        transport = FakeTransport([(400, {"error": "bad request"}), ok_payload()])
        judge, _ = make_judge(transport, tmp_path, monkeypatch)
        with pytest.raises(UpstreamError):
            judge.complete(plain_request())
        assert len(transport.calls) == 1

    def test_cache_hit_skips_backend(self, tmp_path, monkeypatch):
        transport = FakeTransport([ok_payload("first")])
        judge, _ = make_judge(
            transport, tmp_path, monkeypatch, cache_dir=str(tmp_path / "cache")
        )
        first = judge.complete(plain_request())
        second = judge.complete(plain_request())
        assert first.cached is False and second.cached is True
        assert second.text == "first"
        assert len(transport.calls) == 1

    def test_cache_distinguishes_requests(self, tmp_path, monkeypatch):
        transport = FakeTransport([ok_payload("one"), ok_payload("two")])
        judge, _ = make_judge(
            transport, tmp_path, monkeypatch, cache_dir=str(tmp_path / "cache")
        )
        assert judge.complete(plain_request("a")).text == "one"
        assert judge.complete(plain_request("b")).text == "two"
        assert len(transport.calls) == 2

    def test_cache_survives_new_judge_instance(self, tmp_path, monkeypatch):
        cache_dir = str(tmp_path / "cache")
        transport = FakeTransport([ok_payload("persisted")])
        judge, _ = make_judge(transport, tmp_path, monkeypatch, cache_dir=cache_dir)
        judge.complete(plain_request())
        fresh_transport = FakeTransport([])
        fresh_judge, _ = make_judge(
            fresh_transport, tmp_path, monkeypatch, cache_dir=cache_dir
        )
        assert fresh_judge.complete(plain_request()).text == "persisted"
        assert fresh_transport.calls == []

    @BAD_CACHE_ENTRIES
    def test_bad_cache_entry_is_a_miss_and_is_rewritten(self, entry, tmp_path, monkeypatch):
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        (cache_dir / f"{request_hash(plain_request())}.json").write_bytes(entry)
        transport = FakeTransport([ok_payload("live")])
        judge, _ = make_judge(transport, tmp_path, monkeypatch, cache_dir=str(cache_dir))
        first = judge.complete(plain_request())
        assert (first.text, first.cached) == ("live", False)
        assert len(transport.calls) == 1
        # The live reply replaced the bad entry, so a fresh judge is served from the cache.
        fresh, _ = make_judge(FakeTransport([]), tmp_path, monkeypatch, cache_dir=str(cache_dir))
        again = fresh.complete(plain_request())
        assert (again.text, again.usage, again.cached) == ("live", first.usage, True)

    def test_transcript_one_line_per_backend_call(self, tmp_path, monkeypatch):
        transcript = tmp_path / "transcript.jsonl"
        transport = FakeTransport([ok_payload("x"), ok_payload("y")])
        judge, _ = make_judge(
            transport,
            tmp_path,
            monkeypatch,
            cache_dir=str(tmp_path / "cache"),
            transcript_path=str(transcript),
        )
        judge.complete(plain_request("a"))
        judge.complete(plain_request("a"))  # cached: no new transcript line
        judge.complete(plain_request("b"))
        lines = [json.loads(l) for l in transcript.read_text().splitlines()]
        assert len(lines) == 2
        for entry in lines:
            assert set(entry) == {"ts", "request_hash", "stage", "model", "latency_ms", "usage"}
            assert entry["stage"] == "FE_MF"

    def test_rate_limit_sleeps_when_bucket_empty(self, tmp_path, monkeypatch):
        transport = FakeTransport([ok_payload(), ok_payload(), ok_payload()])
        judge, sleeps = make_judge(
            transport, tmp_path, monkeypatch, rate_limit_rpm=2
        )
        judge.complete(plain_request("a"))
        judge.complete(plain_request("b"))
        assert sleeps == []
        judge.complete(plain_request("c"))  # bucket of 2 exhausted at t=0
        # refilling one token at 2 requests/minute takes 30 seconds
        assert sleeps == [pytest.approx(30.0)]

    def test_malformed_success_payload(self, tmp_path, monkeypatch):
        transport = FakeTransport([(200, {"unexpected": True})])
        judge, _ = make_judge(transport, tmp_path, monkeypatch)
        with pytest.raises(UpstreamError):
            judge.complete(plain_request())

    @pytest.mark.parametrize(
        "body",
        [
            {"choices": [{"message": {"content": None}}], "usage": {"prompt_tokens": 5, "completion_tokens": 0}},
            {"choices": [{"message": {"content": "ok"}}], "usage": None},
            {"choices": [{"message": {"content": "ok"}}], "usage": {"prompt_tokens": "5", "completion_tokens": 3}},
            {"choices": [{"message": {"content": "ok"}}], "usage": {"prompt_tokens": 5, "completion_tokens": 2.5}},
        ],
        ids=["content-null", "usage-null", "token-count-a-string", "token-count-a-float"],
    )
    def test_malformed_reply_is_neither_cached_nor_transcribed(self, body, tmp_path, monkeypatch):
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        transport = FakeTransport([(200, body)])
        judge, _ = make_judge(
            transport,
            tmp_path,
            monkeypatch,
            cache_dir=str(cache_dir),
            transcript_path=str(tmp_path / "transcript.jsonl"),
        )
        with pytest.raises(UpstreamError, match="malformed backend response"):
            judge.complete(plain_request())
        assert list(cache_dir.iterdir()) == []
        assert not (tmp_path / "transcript.jsonl").exists()

    @pytest.mark.parametrize("keyword", ["cache_dir", "transcript_path"])
    def test_caching_and_transcribing_are_left_to_the_wrappers(self, keyword, tmp_path):
        with pytest.raises(DomainError, match="CachedJudge or TranscribedJudge"):
            ChatCompletionsJudge("https://backend.example/v1", "m", "K", **{keyword: str(tmp_path / "x")})
        judge = ChatCompletionsJudge("https://backend.example/v1", "m", "K", **{keyword: None})
        assert not any(name.startswith(("_cache", "_transcri", "cache", "transcript")) for name in vars(judge))


class FakeResponse:
    def __init__(self, status_code, body):
        self.status_code = status_code
        self._body = body

    def json(self):
        if isinstance(self._body, str):
            raise ValueError("not JSON")  # as requests' JSONDecodeError is
        return self._body


class TestRequestsTransport:
    """Built without a transport, the chat judge posts through one requests.Session."""

    @pytest.fixture()
    def sessions(self, monkeypatch):
        """requests.Session swapped for a fake: (sessions made, the steps their posts pop in turn)."""
        import requests

        made, script = [], []

        class FakeSession:
            def __init__(self):
                made.append(self)

            def post(self, url, headers, json, timeout):
                step = script.pop(0)
                if isinstance(step, Exception):
                    raise step
                return FakeResponse(*step)

        monkeypatch.setattr(requests, "Session", FakeSession)
        return made, script

    def test_calls_from_several_threads_share_one_session(self, sessions, tmp_path, monkeypatch):
        made, script = sessions
        script.extend([ok_payload()] * 3)
        judge, _ = make_judge(None, tmp_path, monkeypatch)
        assert made == []  # made on first use
        with ThreadPoolExecutor(max_workers=3) as pool:
            replies = list(pool.map(lambda _: judge.complete(plain_request()).text, range(3)))
        assert replies == ["ok"] * 3
        assert len(made) == 1 and script == []

    def test_a_request_exception_is_a_transport_error(self, sessions, tmp_path, monkeypatch):
        import requests

        made, script = sessions
        script.append(requests.ConnectionError("connection refused"))
        judge, _ = make_judge(None, tmp_path, monkeypatch, retry=0)
        with pytest.raises(TransportError, match="connection refused"):
            judge._transport("https://backend.example/v1/chat/completions", {}, {}, 1.0)

    def test_a_body_that_is_not_json_reads_as_empty_with_its_status(self, sessions, tmp_path, monkeypatch):
        made, script = sessions
        script.extend([(502, "<html>bad gateway</html>"), (200, "not json")])
        judge, _ = make_judge(None, tmp_path, monkeypatch, retry=0)
        assert judge._transport("https://backend.example/v1/chat/completions", {}, {}, 1.0) == (502, {})
        with pytest.raises(UpstreamError, match="malformed backend response"):
            judge.complete(plain_request())
        assert len(made) == 1


class TestWrappersAroundMock:
    """The cache and the transcript work around the mock as around the chat backend."""

    def test_cache_hit_never_reaches_the_mock(self, mock_judge, tmp_path):
        inner = InstrumentedJudge(mock_judge)
        judge = wrapped(inner, cache_dir=tmp_path / "cache", transcript_path=tmp_path / "t.jsonl")
        first = judge.complete(req("FE_MF", "被告人盗窃"))
        second = judge.complete(req("FE_MF", "被告人盗窃"))
        assert (first.cached, second.cached) == (False, True)
        assert (second.text, second.usage) == (first.text, first.usage)
        assert inner.stages == ["FE_MF"]
        [line] = [json.loads(l) for l in (tmp_path / "t.jsonl").read_text().splitlines()]
        assert line["latency_ms"] == 0.0
        assert line["usage"] == {
            "prompt_tokens": first.usage.prompt_tokens,
            "completion_tokens": first.usage.completion_tokens,
        }

    def test_distinct_requests_miss(self, mock_judge, tmp_path):
        inner = InstrumentedJudge(mock_judge)
        judge = wrapped(inner, cache_dir=tmp_path / "cache")
        replies = [judge.complete(req("FE_MF", text)) for text in ("盗窃", "抢劫")]
        assert [r.cached for r in replies] == [False, False]
        assert replies[0].text != replies[1].text
        assert len(inner.stages) == 2
        assert len(list((tmp_path / "cache").iterdir())) == 2

    @BAD_CACHE_ENTRIES
    def test_bad_cache_entry_is_a_miss_and_is_rewritten(self, entry, mock_judge, tmp_path):
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        request = req("FE_MF", "被告人盗窃")
        (cache_dir / f"{request_hash(request)}.json").write_bytes(entry)
        inner = InstrumentedJudge(mock_judge)
        live = wrapped(inner, cache_dir=cache_dir).complete(request)
        assert live.cached is False and len(inner.stages) == 1
        fresh = InstrumentedJudge(mock_judge)
        again = wrapped(fresh, cache_dir=cache_dir).complete(request)
        assert (again.text, again.usage, again.cached) == (live.text, live.usage, True)
        assert fresh.stages == []

    def test_an_equal_request_in_flight_reaches_the_inner_judge_once(self, mock_judge, tmp_path):
        entered, release, waiting = threading.Event(), threading.Event(), threading.Event()
        calls = []

        class GatedJudge:
            """Holds its first call until released."""

            def complete(self, request):
                calls.append(request)
                if len(calls) == 1:
                    entered.set()
                    release.wait(timeout=30)
                return mock_judge.complete(request)

        judge = wrapped(GatedJudge(), cache_dir=tmp_path / "cache", transcript_path=tmp_path / "t.jsonl")
        request = req("FE_MF", "被告人盗窃")
        replies = {}

        def ask(name):
            replies[name] = judge.complete(request)

        first = threading.Thread(target=ask, args=("first",), daemon=True)
        first.start()
        assert entered.wait(timeout=10)
        # The first call holds its flight's lock; a spy around it says when the second caller waits on it.
        flight = judge._flights._running[request]

        class Spy:
            def __enter__(self):
                waiting.set()
                flight.acquire()

            def __exit__(self, *exc):
                flight.release()

        judge._flights._running[request] = Spy()
        second = threading.Thread(target=ask, args=("second",), daemon=True)
        second.start()
        try:
            assert waiting.wait(timeout=10), "the second caller did not wait for the request in flight"
        finally:
            release.set()
        first.join(timeout=10)
        second.join(timeout=10)
        assert not first.is_alive() and not second.is_alive()
        assert calls == [request]
        assert (replies["first"].cached, replies["second"].cached) == (False, True)
        assert replies["second"].text == replies["first"].text
        assert len((tmp_path / "t.jsonl").read_text().splitlines()) == 1
        assert judge._flights == {}  # nothing is kept in memory
