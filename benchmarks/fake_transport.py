"""In-process fake chat-completions backend for the benchmark.

``FakeChatTransport`` has the ``Transport`` signature that
``ChatCompletionsJudge`` accepts. It answers with the mock judge rules after
a latency, and injects faults. Latency and faults are decided by a hash of
the request content plus the seed, never by arrival order or thread, so a
request gets the same treatment however the engine schedules it:

* latency is ``base_latency_s``; one request in ``SLOW_EVERY`` (by hash) is
  ``SLOW_FACTOR`` times slower. The reply is computed first and the call
  then sleeps until its deadline, so the backend's own compute is hidden
  inside the latency;
* a faulty request gets HTTP 503 on its first attempt in the current run
  and succeeds when the gateway retries it;
* a request picked for a protocol violation gets a reply without the
  response protocol, unless it already carries the engine's reminder, so
  the engine's parse retry recovers it.

No socket is opened, and nothing is cached or transcribed.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import Counter
from dataclasses import dataclass

from lexjudge.engine import FA_REMINDER, FE_REMINDER
from lexjudge.gateway import JudgeRequest, MockJudgeConfig, mock_complete, stage_of

VIOLATION_REPLY = "I have reviewed the case and will answer in prose instead."
SLOW_EVERY = 10
SLOW_FACTOR = 4.0


@dataclass(frozen=True, slots=True)
class Plan:
    latency_s: float
    transient_503: bool
    violation: bool


class FakeChatTransport:
    def __init__(
        self,
        cfg: MockJudgeConfig,
        *,
        seed: int,
        api_key: str,
        base_latency_s: float = 0.005,
        per_mille_503: int = 20,
        per_mille_violation: int = 20,
    ):
        self.cfg = cfg
        self.seed = seed
        self.api_key = api_key
        self.base_latency_s = base_latency_s
        self.per_mille_503 = per_mille_503
        self.per_mille_violation = per_mille_violation
        self.calls: Counter[str] = Counter()
        self.prompt_tokens: Counter[str] = Counter()
        self.statuses: Counter[int] = Counter()
        self._failed_once: set[str] = set()
        self._lock = threading.Lock()

    def plan(self, system_text: str, user_text: str, model: str) -> Plan:
        """Latency and faults for a request; a pure function of content and seed."""
        digest = hashlib.sha256(
            "\x1f".join((str(self.seed), model, system_text, user_text)).encode("utf-8")
        ).digest()
        slow = int.from_bytes(digest[0:4], "big") % SLOW_EVERY == 0
        reminded = user_text.endswith(FE_REMINDER) or user_text.endswith(FA_REMINDER)
        return Plan(
            latency_s=self.base_latency_s * (SLOW_FACTOR if slow else 1.0),
            transient_503=int.from_bytes(digest[4:8], "big") % 1000 < self.per_mille_503,
            violation=not reminded
            and int.from_bytes(digest[8:12], "big") % 1000 < self.per_mille_violation,
        )

    def new_run(self) -> None:
        """Arm the transient 503s again, as for a fresh judge run."""
        with self._lock:
            self._failed_once.clear()

    def total_calls(self) -> int:
        return sum(self.calls.values())

    def total_prompt_tokens(self) -> int:
        return sum(self.prompt_tokens.values())

    def __call__(self, url: str, headers: dict, payload: dict, timeout: float) -> tuple[int, dict]:
        deadline = time.perf_counter()
        system_text = payload["messages"][0]["content"]
        user_text = payload["messages"][-1]["content"]
        stage = stage_of(user_text) or "unknown"
        plan = self.plan(system_text, user_text, payload["model"])
        deadline += plan.latency_s
        with self._lock:
            self.calls[stage] += 1
            fail_now = plan.transient_503 and user_text not in self._failed_once
            if fail_now:
                self._failed_once.add(user_text)
        if headers.get("Authorization") != f"Bearer {self.api_key}":
            status, body = 401, {"error": "bad credentials"}
        elif fail_now:
            status, body = 503, {"error": "temporarily unavailable"}
        else:
            request = JudgeRequest(
                system_text=system_text,
                user_text=user_text,
                temperature=payload["temperature"],
                model=payload["model"],
                max_tokens=payload["max_tokens"],
            )
            response = mock_complete(request, self.cfg)
            text = VIOLATION_REPLY if plan.violation else response.text
            usage = {
                "prompt_tokens": response.usage.prompt_tokens,
                "completion_tokens": len(text.split()),
            }
            status = 200
            body = {"choices": [{"message": {"role": "assistant", "content": text}}], "usage": usage}
            with self._lock:
                self.prompt_tokens[stage] += usage["prompt_tokens"]
        with self._lock:
            self.statuses[status] += 1
        remaining = deadline - time.perf_counter()
        if remaining > 0:
            time.sleep(remaining)
        return status, body
