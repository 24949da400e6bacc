import bench_paths  # noqa: F401  (must precede the benchmark imports)
import time

import pytest

from fake_transport import VIOLATION_REPLY, FakeChatTransport
from lexjudge.engine import FE_REMINDER
from lexjudge.gateway import ChatCompletionsJudge, JudgeRequest, MockJudgeConfig

KEY = "test-key"
HEADERS = {"Authorization": f"Bearer {KEY}"}


def _payload(user_text: str) -> dict:
    return {
        "model": "m",
        "messages": [{"role": "system", "content": "sys"}, {"role": "user", "content": user_text}],
        "temperature": 0.4,
        "max_tokens": 64,
    }


def _fe_mf(target: str) -> str:
    return f"#STAGE:FE_MF\n#TARGET_BEGIN\n{target}\n#TARGET_END"


def _transport(**kw) -> FakeChatTransport:
    kw.setdefault("base_latency_s", 0.0)
    return FakeChatTransport(MockJudgeConfig(lexicon=frozenset({"盗窃"})), seed=kw.pop("seed", 1), api_key=KEY, **kw)


def test_plan_is_a_function_of_content_and_seed():
    t = _transport()
    texts = [_fe_mf(f"被告人{i}号盗窃") for i in range(400)]
    plans = [t.plan("sys", text, "m") for text in texts]
    assert plans == [_transport().plan("sys", text, "m") for text in texts]
    assert plans != [_transport(seed=2).plan("sys", text, "m") for text in texts]
    timed = _transport(base_latency_s=1.0)
    latencies = [timed.plan("sys", text, "m").latency_s for text in texts]
    assert set(latencies) == {1.0, 4.0}
    assert 20 <= latencies.count(4.0) <= 60, "about one request in ten is slow"


def test_latency_is_the_planned_latency():
    t = _transport(base_latency_s=0.004)
    text = _fe_mf("被告人某甲盗窃")
    planned = t.plan("sys", text, "m").latency_s
    started = time.perf_counter()
    status, _ = t("u", HEADERS, _payload(text), 1.0)
    assert status == 200
    assert time.perf_counter() - started >= planned


def test_transient_503_recovers_on_retry_and_rearms_per_run():
    t = _transport(per_mille_503=1000, per_mille_violation=0)
    payload = _payload(_fe_mf("被告人某甲盗窃"))
    assert t("u", HEADERS, payload, 1.0)[0] == 503
    assert t("u", HEADERS, payload, 1.0)[0] == 200
    t.new_run()
    assert t("u", HEADERS, payload, 1.0)[0] == 503
    assert t.calls["FE_MF"] == 3 and t.statuses == {503: 2, 200: 1}


def test_protocol_violation_only_on_first_attempt():
    t = _transport(per_mille_503=0, per_mille_violation=1000)
    first = _fe_mf("被告人某甲盗窃")
    _, body = t("u", HEADERS, _payload(first), 1.0)
    assert body["choices"][0]["message"]["content"] == VIOLATION_REPLY
    _, body = t("u", HEADERS, _payload(f"{first}\n\n{FE_REMINDER}"), 1.0)
    assert "===FACTS===" in body["choices"][0]["message"]["content"]


def test_wrong_credential_is_refused():
    t = _transport()
    assert t("u", {"Authorization": "Bearer other"}, _payload(_fe_mf("盗窃")), 1.0)[0] == 401


def test_chat_judge_recovers_from_every_injected_fault(monkeypatch):
    monkeypatch.setenv("BENCH_TEST_KEY", KEY)
    t = _transport(per_mille_503=1000, per_mille_violation=0)
    judge = ChatCompletionsJudge("http://fake.invalid/v1", "m", "BENCH_TEST_KEY",
                                 transport=t, backoff_base=0.0)
    request = JudgeRequest(system_text="sys", user_text=_fe_mf("被告人某甲盗窃"), temperature=0.4, model="m")
    response = judge.complete(request)
    assert response.text.startswith("===FACTS===")
    assert t.total_calls() == 2
    assert t.total_prompt_tokens() == response.usage.prompt_tokens > 0


@pytest.mark.parametrize("stage", ["FE_MF", "FA_LF"])
def test_calls_are_counted_per_stage(stage):
    t = _transport(per_mille_503=0, per_mille_violation=0)
    target = "盗窃" if stage == "FE_MF" else "#INPUT_A\n盗窃\n#INPUT_B\n盗窃"
    t("u", HEADERS, _payload(f"#STAGE:{stage}\n#TARGET_BEGIN\n{target}\n#TARGET_END"), 1.0)
    assert dict(t.calls) == {stage: 1}
