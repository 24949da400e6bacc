"""Judge backends (chat-completions HTTP and a deterministic mock), plus a cache and a transcript for any judge.

Prompts carry a small machine-readable protocol so that either backend can
serve them: the first line is a stage marker (#STAGE:FE_MF etc.) and the
judging target sits between #TARGET_BEGIN and #TARGET_END lines. Pair
targets contain #INPUT_A and #INPUT_B sections. Replies follow the response
protocol parsed by the engine: extraction output between ===FACTS=== and
===END===, annotation output ending in a VERDICT line.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import sys
import threading
import time
import unicodedata
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Protocol, Sequence

from ._util import OnceMemo, atomic_write_text, read_json, read_text
from .errors import AuthError, DomainError, MalformedStageMarker, ParseError, UpstreamError
from .retrieval import tokenize

STAGE_PREFIX = "#STAGE:"
TARGET_BEGIN = "#TARGET_BEGIN"
TARGET_END = "#TARGET_END"
INPUT_A = "#INPUT_A"
INPUT_B = "#INPUT_B"
FACTS_BEGIN = "===FACTS==="
FACTS_END = "===END==="
VERDICT_RELEVANT = "VERDICT: RELEVANT"
VERDICT_IRRELEVANT = "VERDICT: IRRELEVANT"

STAGES = ("FE_MF", "FE_LF", "FA_MF", "FA_LF")
_STAGE_MARKER = re.compile(rf"^{re.escape(STAGE_PREFIX)}(\S+)\s*$", re.MULTILINE)


@dataclass(frozen=True, slots=True)
class TokenUsage:
    prompt_tokens: int
    completion_tokens: int


@dataclass(frozen=True, slots=True)
class JudgeRequest:
    """One prompt for the judge; immutable so it can double as a cache key."""

    system_text: str
    user_text: str
    temperature: float
    model: str
    max_tokens: int = 1024

    def __post_init__(self) -> None:
        if not self.user_text:
            raise DomainError("user_text must be non-empty")
        if not 0.0 <= self.temperature <= 2.0:
            raise DomainError(f"temperature must lie in [0, 2], got {self.temperature}")
        if self.max_tokens < 1:
            raise DomainError("max_tokens must be >= 1")


@dataclass(frozen=True, slots=True)
class JudgeResponse:
    text: str
    usage: TokenUsage
    latency_ms: float
    cached: bool = False


class Judge(Protocol):
    def complete(self, request: JudgeRequest) -> JudgeResponse: ...


def request_hash(request: JudgeRequest) -> str:
    """Content address of a request: every field that can change the reply."""
    key = "\x1f".join(
        [
            request.model,
            repr(request.temperature),
            str(request.max_tokens),
            request.system_text,
            request.user_text,
        ]
    )
    return hashlib.sha256(key.encode("utf-8")).hexdigest()


def stage_of(user_text: str) -> str | None:
    """Extract the embedded stage marker, or None when absent/unknown."""
    match = _STAGE_MARKER.search(user_text)
    if not match or match.group(1) not in STAGES:
        return None
    return match.group(1)


# ---------------------------------------------------------------------------
# mock judge


@dataclass(frozen=True)
class MockJudgeConfig:
    """Deterministic stand-in rules for offline runs and tests.

    mf_jaccard_threshold drives the material-fact verdict; lexicon is the
    closed vocabulary of legal-fact tags. No rule reads seed: the rules are
    pure in the request content. The ablation sampling seed, config key
    mock.seed, reaches the engine as its sampling_seed argument.
    """

    mf_jaccard_threshold: float = 0.4
    lexicon: frozenset[str] = frozenset()
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.mf_jaccard_threshold <= 1.0:
            raise DomainError(
                f"mf_jaccard_threshold must lie in (0, 1], got {self.mf_jaccard_threshold}"
            )


def load_lexicon(path: str | Path) -> frozenset[str]:
    terms = set()
    for line in read_text(path).splitlines():
        term = unicodedata.normalize("NFC", line.strip())
        if term and not term.startswith("#"):
            terms.add(term)
    return frozenset(terms)


def _punctuation_to_space(cp: int) -> int:
    # Every other code point maps to itself; mapping it to None would delete it.
    return 0x20 if unicodedata.category(chr(cp)).startswith("P") else cp


# str.translate table: punctuation (category P*) to a space, one lookup per code point.
_PUNCTUATION_TO_SPACE = OnceMemo(_punctuation_to_space)


def mock_tokens(text: str) -> list[str]:
    """Normalized token sequence used by every mock rule.

    NFC, punctuation replaced by spaces, then the default CJK-bigram
    tokenization, deduplicated with first occurrence order preserved.
    Idempotent over its own space-joined output.
    """
    stripped = unicodedata.normalize("NFC", text).translate(_PUNCTUATION_TO_SPACE)
    return list(dict.fromkeys(tokenize(stripped, "cjk_bigram")))


def mock_lf_tags(tokens: Iterable[str], lexicon: frozenset[str]) -> list[str]:
    return sorted(set(tokens) & lexicon)


def _jaccard(a: set[str], b: set[str]) -> float:
    if not a and not b:
        return 1.0
    union = a | b
    return len(a & b) / len(union)


def _target_lines(lines: list[str]) -> list[str]:
    try:
        start = lines.index(TARGET_BEGIN)
        end = lines.index(TARGET_END, start + 1)
    except ValueError:
        raise MalformedStageMarker("no target block between markers") from None
    return lines[start + 1 : end]


def _pair_inputs(target: list[str]) -> tuple[str, str]:
    try:
        a_at = target.index(INPUT_A)
        b_at = target.index(INPUT_B, a_at + 1)
    except ValueError:
        raise MalformedStageMarker("pair target lacks input sections") from None
    return "\n".join(target[a_at + 1 : b_at]), "\n".join(target[b_at + 1 :])


def word_count(line: str) -> int:
    """Whitespace-split words of a line: the mock's token count."""
    return len(line.split())


def mock_complete(
    request: JudgeRequest,
    cfg: MockJudgeConfig,
    tokens: Callable[[str], Sequence[str]] = mock_tokens,
    count: Callable[[str], int] = word_count,
) -> JudgeResponse:
    """Answer a judge request by fixed rules; pure in the request content.

    FE_MF: the target's normalized tokens. FE_LF: the sorted intersection
    of target tokens with the lexicon. FA_MF: RELEVANT when the two input
    token sets reach the Jaccard threshold. FA_LF: RELEVANT when the two
    whitespace-split tag sets intersect. Temperature is ignored.

    user_text is split into lines once. Prompt tokens are the sum of
    count over those lines, which equals len(user_text.split()): every
    str.splitlines boundary is whitespace to str.split, so no word spans
    two lines. Completion tokens are the reply's whitespace-split words.
    tokens must return what mock_tokens returns and count what word_count
    returns; MockJudge passes its two memos.
    """
    stage = stage_of(request.user_text)
    if stage is None:
        raise MalformedStageMarker("user_text carries no recognizable stage marker")
    lines = request.user_text.splitlines()
    target = _target_lines(lines)
    if stage == "FE_MF":
        facts = tokens("\n".join(target))
        reply = f"{FACTS_BEGIN}\n{' '.join(facts)}\n{FACTS_END}"
    elif stage == "FE_LF":
        tags = mock_lf_tags(tokens("\n".join(target)), cfg.lexicon)
        reply = f"{FACTS_BEGIN}\n{' '.join(tags)}\n{FACTS_END}"
    elif stage == "FA_MF":
        a_text, b_text = _pair_inputs(target)
        a, b = set(tokens(a_text)), set(tokens(b_text))
        score = _jaccard(a, b)
        verdict = VERDICT_RELEVANT if score >= cfg.mf_jaccard_threshold else VERDICT_IRRELEVANT
        reply = (
            f"Shared tokens {len(a & b)} of {len(a | b)}; "
            f"jaccard={score:.4f} threshold={cfg.mf_jaccard_threshold:.4f}.\n{verdict}"
        )
    else:  # FA_LF
        a_text, b_text = _pair_inputs(target)
        a, b = set(a_text.split()), set(b_text.split())
        shared = sorted(a & b)
        verdict = VERDICT_RELEVANT if shared else VERDICT_IRRELEVANT
        reply = f"Shared legal tags: {' '.join(shared) if shared else '(none)'}.\n{verdict}"
    usage = TokenUsage(prompt_tokens=sum(map(count, lines)), completion_tokens=len(reply.split()))
    return JudgeResponse(text=reply, usage=usage, latency_ms=0.0)


def _interned_mock_tokens(text: str) -> tuple[str, ...]:
    return tuple(map(sys.intern, mock_tokens(text)))


class MockJudge:
    """Judge backed by the mock rules; safe to share across threads.

    mock_tokens runs once per distinct text for the judge's lifetime: the
    judge keeps each text's tokens as a tuple of interned strings in
    _tokens, so a token shared by many texts is stored once. word_count
    runs once per distinct prompt line: _line_counts keeps each line's
    count, and its lookup is mock_complete's count, so the template,
    definition and demo lines every prompt repeats are split once, not
    once per call.
    """

    def __init__(self, cfg: MockJudgeConfig):
        self.cfg = cfg
        self._tokens = OnceMemo(_interned_mock_tokens)
        self._line_counts = OnceMemo(word_count)

    def complete(self, request: JudgeRequest) -> JudgeResponse:
        return mock_complete(request, self.cfg, self._tokens.__getitem__, self._line_counts.__getitem__)


# ---------------------------------------------------------------------------
# chat-completions backend


class TransportError(Exception):
    """Network-level failure (timeout, refused connection); retryable."""


Transport = Callable[[str, dict, dict, float], tuple[int, dict]]


def _requests_transport(url: str, headers: dict, payload: dict, timeout: float) -> tuple[int, dict]:
    import requests

    try:
        resp = requests.post(url, headers=headers, json=payload, timeout=timeout)
    except requests.RequestException as exc:
        raise TransportError(str(exc)) from exc
    try:
        body = resp.json()
    except ValueError:
        body = {}
    return resp.status_code, body


def _checked_reply(text: object, *counts: object) -> tuple[str, TokenUsage]:
    """A reply's text and token usage; TypeError unless text is a string and each count an integer."""
    if isinstance(text, str) and all(type(count) is int for count in counts):
        return text, TokenUsage(*counts)
    raise TypeError("reply text must be a string and token counts integers")


def _reply_of(body: dict) -> tuple[str, TokenUsage]:
    """The reply text and token usage of a 200 body.

    The text must be a string and each token count, when present, an
    integer; otherwise UpstreamError, so nothing malformed is cached.
    """
    try:
        usage = body.get("usage", {})
        return _checked_reply(
            body["choices"][0]["message"]["content"], usage.get("prompt_tokens", 0), usage.get("completion_tokens", 0)
        )
    except (KeyError, IndexError, TypeError, AttributeError):
        raise UpstreamError(f"malformed backend response: {str(body)[:200]}") from None


class _TokenBucket:
    """Requests-per-minute limiter; refills continuously up to rpm tokens."""

    def __init__(self, rpm: int, clock: Callable[[], float], sleep: Callable[[float], None]):
        if rpm < 1:
            raise DomainError("rate limit must be >= 1 request per minute")
        self.rpm = rpm
        self._clock = clock
        self._sleep = sleep
        self._tokens = float(rpm)
        self._last = clock()
        self._lock = threading.Lock()

    def acquire(self) -> None:
        while True:
            with self._lock:
                now = self._clock()
                self._tokens = min(float(self.rpm), self._tokens + (now - self._last) * self.rpm / 60.0)
                self._last = now
                if self._tokens >= 1.0:
                    self._tokens -= 1.0
                    return
                wait = (1.0 - self._tokens) * 60.0 / self.rpm
            self._sleep(wait)


class ChatCompletionsJudge:
    """HTTP judge speaking the chat-completions wire format.

    Credentials come only from the environment variable named at
    construction. It holds only the transport, the rate limit and the retry
    loop; CachedJudge and TranscribedJudge wrap it as they wrap any judge.
    """

    def __init__(
        self,
        base_url: str,
        model: str,
        key_env: str,
        *,
        timeout: float = 60.0,
        retry: int = 2,
        backoff_base: float = 0.5,
        rate_limit_rpm: int | None = None,
        cache_dir: None = None,
        transcript_path: None = None,
        transport: Transport | None = None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ):
        # benchmarks/setup_phase.py still passes cache_dir=None, transcript_path=None.
        if cache_dir is not None or transcript_path is not None:
            raise DomainError("wrap the judge in CachedJudge or TranscribedJudge to cache or transcribe")
        if retry < 0:
            raise DomainError("retry budget must be >= 0")
        self.base_url = base_url.rstrip("/")
        self.model = model
        self.key_env = key_env
        self.timeout = timeout
        self.retry = retry
        self.backoff_base = backoff_base
        self._transport = transport or _requests_transport
        self._sleep = sleep
        self._bucket = _TokenBucket(rate_limit_rpm, clock, sleep) if rate_limit_rpm else None

    def _api_key(self) -> str:
        key = os.environ.get(self.key_env)
        if not key:
            raise AuthError(f"environment variable {self.key_env} is not set")
        return key

    def complete(self, request: JudgeRequest) -> JudgeResponse:
        headers = {"Authorization": f"Bearer {self._api_key()}"}
        payload = {
            "model": request.model,
            "messages": [
                {"role": "system", "content": request.system_text},
                {"role": "user", "content": request.user_text},
            ],
            "temperature": request.temperature,
            "max_tokens": request.max_tokens,
        }
        url = f"{self.base_url}/chat/completions"
        last_error = "no attempt made"
        for attempt in range(self.retry + 1):
            if attempt:
                self._sleep(self.backoff_base * (2 ** (attempt - 1)))
            if self._bucket is not None:
                self._bucket.acquire()
            started = time.perf_counter()
            try:
                status, body = self._transport(url, headers, payload, self.timeout)
            except TransportError as exc:
                last_error = f"transport: {exc}"
                continue
            latency = (time.perf_counter() - started) * 1000.0
            if status in (401, 403):
                raise AuthError(f"backend rejected credentials (HTTP {status})")
            if status == 429 or status >= 500:
                last_error = f"HTTP {status}"
                continue
            if status != 200:
                raise UpstreamError(f"backend returned HTTP {status}: {str(body)[:200]}")
            text, usage = _reply_of(body)
            return JudgeResponse(text=text, usage=usage, latency_ms=latency)
        raise UpstreamError(f"gave up after {self.retry + 1} attempts; last error: {last_error}")


# ---------------------------------------------------------------------------
# response cache and transcript, around any judge


class CachedJudge:
    """On-disk response cache in front of any judge, content-addressed by request_hash.

    A hit returns cached=True and never reaches inner. An entry is checked as _reply_of
    checks a live body; a bad one is a miss that the live reply rewrites.
    """

    def __init__(self, inner: Judge, cache_dir: str | Path):
        self.inner = inner
        self.cache_dir = Path(cache_dir)

    def _cache_load(self, path: Path) -> JudgeResponse | None:
        if not path.exists():
            return None
        try:
            payload = read_json(path, dict, "cache entry")
            text, usage = _checked_reply(payload["text"], payload["prompt_tokens"], payload["completion_tokens"])
        except (ParseError, KeyError, TypeError):
            return None  # a bad entry is a miss, and the live reply overwrites it
        return JudgeResponse(text=text, usage=usage, latency_ms=0.0, cached=True)

    def _cache_store(self, path: Path, response: JudgeResponse) -> None:
        entry = {"text": response.text, **asdict(response.usage)}
        atomic_write_text(path, json.dumps(entry, ensure_ascii=False))

    def complete(self, request: JudgeRequest) -> JudgeResponse:
        path = self.cache_dir / f"{request_hash(request)}.json"
        cached = self._cache_load(path)
        if cached is not None:
            return cached
        response = self.inner.complete(request)
        self._cache_store(path, response)
        return response


class TranscribedJudge:
    """Appends one JSONL line per reply of any judge; safe to share across threads.

    A line holds ts, request_hash, stage, model, latency_ms (0.0 from the mock) and usage.
    A call that raises writes none; so does a hit of a CachedJudge around this judge.
    """

    def __init__(self, inner: Judge, transcript_path: str | Path):
        self.inner = inner
        self.transcript_path = Path(transcript_path)
        self._transcript_lock = threading.Lock()

    def _transcribe(self, request: JudgeRequest, response: JudgeResponse) -> None:
        line = json.dumps(
            {
                "ts": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
                "request_hash": request_hash(request),
                "stage": stage_of(request.user_text) or "",
                "model": request.model,
                "latency_ms": round(response.latency_ms, 3),
                "usage": asdict(response.usage),
            },
            ensure_ascii=False,
        )
        with self._transcript_lock:
            self.transcript_path.parent.mkdir(parents=True, exist_ok=True)
            with self.transcript_path.open("a", encoding="utf-8") as fh:
                fh.write(line + "\n")

    def complete(self, request: JudgeRequest) -> JudgeResponse:
        response = self.inner.complete(request)
        self._transcribe(request, response)
        return response
