"""Layered configuration: built-in defaults, then a JSON file, then overrides.

The file may nest sections or use dotted keys; both spell the same thing.
CLI overrides arrive as key=value strings whose values parse as JSON when
possible and fall back to plain strings.
"""

from __future__ import annotations

import json
import typing
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Sequence

from ._util import read_json
from .errors import ConfigError
from .retrieval import TOKENIZER_MODES


@dataclass
class ApiConfig:
    base_url: str = "https://api.openai.com/v1"
    model: str = "gpt-3.5-turbo"
    key_env: str = "OPENAI_API_KEY"
    timeout: float = 60.0
    rate_limit_rpm: int | None = None
    backoff_base: float = 0.5


@dataclass
class JudgeConfig:
    temperature: float = 0.4
    top_k_demos: int = 2
    fa_demos_per_polarity: int = 2
    runs: int = 3
    top_n_candidates: int = 30
    retry: int = 2
    max_tokens: int = 1024


@dataclass
class AugmentConfig:
    temperature: float = 0.5
    pairs: int = 1000
    prerank_top: int = 250
    seed: int = 0


@dataclass
class Bm25Config:
    k1: float = 1.2
    b: float = 0.75


@dataclass
class TokenizerConfig:
    mode: str = "cjk_bigram"


@dataclass
class MockConfig:
    mf_jaccard_threshold: float = 0.4
    lexicon_path: str | None = None
    seed: int = 0


@dataclass
class CacheConfig:
    enabled: bool = False
    dir: str = ".lexjudge_cache"


@dataclass
class AblationConfig:
    disable_adm: bool = False
    disable_fe: bool = False
    disable_fa_demos: bool = False


@dataclass
class Config:
    api: ApiConfig = field(default_factory=ApiConfig)
    judge: JudgeConfig = field(default_factory=JudgeConfig)
    augment: AugmentConfig = field(default_factory=AugmentConfig)
    bm25: Bm25Config = field(default_factory=Bm25Config)
    tokenizer: TokenizerConfig = field(default_factory=TokenizerConfig)
    mock: MockConfig = field(default_factory=MockConfig)
    cache: CacheConfig = field(default_factory=CacheConfig)
    ablation: AblationConfig = field(default_factory=AblationConfig)
    parallelism: int = 1
    transcript_path: str | None = None


_SECTIONS = {
    "api": ApiConfig,
    "judge": JudgeConfig,
    "augment": AugmentConfig,
    "bm25": Bm25Config,
    "tokenizer": TokenizerConfig,
    "mock": MockConfig,
    "cache": CacheConfig,
    "ablation": AblationConfig,
}
_TOP_LEVEL = ("parallelism", "transcript_path")


def _flatten(data: Mapping[str, Any], prefix: str = "") -> dict[str, Any]:
    flat: dict[str, Any] = {}
    for key, value in data.items():
        dotted = f"{prefix}{key}"
        if isinstance(value, Mapping):
            flat.update(_flatten(value, f"{dotted}."))
        else:
            flat[dotted] = value
    return flat


def _parse_override(raw: str) -> tuple[str, Any]:
    if "=" not in raw:
        raise ConfigError(raw, "override must look like key=value")
    key, _, value = raw.partition("=")
    key = key.strip()
    if not key:
        raise ConfigError(raw, "override key is empty")
    try:
        return key, json.loads(value)
    except json.JSONDecodeError:
        return key, value


def _key_types(cls: type) -> dict[str, tuple[type, ...]]:
    """Each field's accepted types, from its annotation: int | None gives (int, NoneType)."""
    return {name: typing.get_args(hint) or (hint,) for name, hint in typing.get_type_hints(cls).items()}


_KEY_TYPES = {
    **{key: types for key, types in _key_types(Config).items() if key in _TOP_LEVEL},
    **{f"{section}.{attr}": types for section, cls in _SECTIONS.items() for attr, types in _key_types(cls).items()},
}
_TYPE_NAMES = {bool: "a boolean", int: "an integer", float: "a number", str: "a string", type(None): "null"}


def _assign(config: Config, key: str, value: Any) -> None:
    """Set one dotted key, rejecting a value whose JSON type does not fit the key.

    An integer widens to a float key; null fits only a key annotated `| None`.
    """
    types = _KEY_TYPES.get(key)
    if types is None:
        raise ConfigError(key, "unknown configuration key")
    if float in types and type(value) is int:
        try:
            value = float(value)
        except OverflowError:
            raise ConfigError(key, "integer too large for a number") from None
    # bool is a subclass of int, so an integer key must not take true or false.
    if not isinstance(value, types) or (isinstance(value, bool) and bool not in types):
        expected = " or ".join(_TYPE_NAMES[t] for t in types)
        raise ConfigError(key, f"expected {expected}, got {value!r}")
    section, _, attr = key.rpartition(".")
    setattr(getattr(config, section) if section else config, attr, value)


def _validate(config: Config) -> None:
    def check(cond: bool, key: str, message: str) -> None:
        if not cond:
            raise ConfigError(key, message)

    for key, temp in (("judge.temperature", config.judge.temperature),
                      ("augment.temperature", config.augment.temperature)):
        check(isinstance(temp, (int, float)) and 0.0 <= float(temp) <= 2.0,
              key, f"temperature must lie in [0, 2], got {temp!r}")
    check(isinstance(config.parallelism, int) and config.parallelism >= 1,
          "parallelism", f"must be an integer >= 1, got {config.parallelism!r}")
    check(isinstance(config.judge.retry, int) and config.judge.retry >= 0,
          "judge.retry", f"must be an integer >= 0, got {config.judge.retry!r}")
    check(isinstance(config.judge.runs, int) and config.judge.runs >= 1,
          "judge.runs", f"must be an integer >= 1, got {config.judge.runs!r}")
    for key, value in (("judge.top_k_demos", config.judge.top_k_demos),
                       ("judge.fa_demos_per_polarity", config.judge.fa_demos_per_polarity),
                       ("judge.top_n_candidates", config.judge.top_n_candidates),
                       ("judge.max_tokens", config.judge.max_tokens)):
        check(isinstance(value, int) and value >= 1, key, f"must be an integer >= 1, got {value!r}")
    check(config.tokenizer.mode in TOKENIZER_MODES,
          "tokenizer.mode", f"must be one of {TOKENIZER_MODES}, got {config.tokenizer.mode!r}")
    check(0.0 < config.mock.mf_jaccard_threshold <= 1.0,
          "mock.mf_jaccard_threshold",
          f"must lie in (0, 1], got {config.mock.mf_jaccard_threshold!r}")
    check(config.bm25.k1 >= 0, "bm25.k1", f"must be >= 0, got {config.bm25.k1!r}")
    check(0.0 <= config.bm25.b <= 1.0, "bm25.b", f"must lie in [0, 1], got {config.bm25.b!r}")
    check(isinstance(config.augment.pairs, int) and config.augment.pairs >= 0,
          "augment.pairs", f"must be an integer >= 0, got {config.augment.pairs!r}")
    check(isinstance(config.augment.prerank_top, int) and config.augment.prerank_top >= 0,
          "augment.prerank_top", f"must be an integer >= 0, got {config.augment.prerank_top!r}")
    if config.api.rate_limit_rpm is not None:
        check(isinstance(config.api.rate_limit_rpm, int) and config.api.rate_limit_rpm >= 1,
              "api.rate_limit_rpm", f"must be an integer >= 1, got {config.api.rate_limit_rpm!r}")


def load_config(path: str | Path | None = None, overrides: Sequence[str] = ()) -> Config:
    """Build a Config from defaults, an optional JSON file, then overrides."""
    config = Config()
    if path is not None:
        path = Path(path)
        try:
            raw = read_json(path, dict, "config file")
        except FileNotFoundError:
            raise ConfigError(str(path), "config file not found") from None
        for key, value in _flatten(raw).items():
            _assign(config, key, value)
    for raw_override in overrides:
        key, value = _parse_override(raw_override)
        _assign(config, key, value)
    _validate(config)
    return config
