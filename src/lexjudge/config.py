"""Layered configuration: built-in defaults, then a JSON file, then overrides.

The file may nest sections or use dotted keys; both spell the same thing.
CLI overrides arrive as key=value strings whose values parse as JSON when
possible and fall back to plain strings.

Each setting is declared once, as a dataclass field: its type, its default,
and through setting() the interval or the choices its value must lie in.
Every value is checked against that declaration as it is set.
"""

from __future__ import annotations

import dataclasses
import json
import math
import typing
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator, Mapping, Sequence

from ._util import read_json
from .errors import ConfigError
from .retrieval import TOKENIZER_MODES


def setting(default: Any, interval: str | None = None, *, choices: tuple[str, ...] | None = None) -> Any:
    """A field whose value must lie in interval, such as "[0, 2]" or "(0, inf)", or among choices."""
    return field(default=default, metadata={"interval": interval, "choices": choices})


@dataclass
class ApiConfig:
    base_url: str = "https://api.openai.com/v1"
    model: str = "gpt-3.5-turbo"
    key_env: str = "OPENAI_API_KEY"
    timeout: float = setting(60.0, "(0, inf)")
    rate_limit_rpm: int | None = setting(None, "[1, inf)")
    backoff_base: float = setting(0.5, "[0, inf)")


@dataclass
class JudgeConfig:
    temperature: float = setting(0.4, "[0, 2]")
    top_k_demos: int = setting(2, "[1, inf)")
    fa_demos_per_polarity: int = setting(2, "[1, inf)")
    runs: int = setting(3, "[1, inf)")
    top_n_candidates: int = setting(30, "[1, inf)")
    retry: int = setting(2, "[0, inf)")
    max_tokens: int = setting(1024, "[1, inf)")


@dataclass
class AugmentConfig:
    temperature: float = setting(0.5, "[0, 2]")
    pairs: int = setting(1000, "[0, inf)")
    prerank_top: int = setting(250, "[0, inf)")
    seed: int = 0


@dataclass
class Bm25Config:
    k1: float = setting(1.2, "[0, inf)")
    b: float = setting(0.75, "[0, 1]")


@dataclass
class TokenizerConfig:
    mode: str = setting("cjk_bigram", choices=TOKENIZER_MODES)


@dataclass
class MockConfig:
    mf_jaccard_threshold: float = setting(0.4, "(0, 1]")
    lexicon_path: str | None = None
    seed: int = 0


@dataclass
class CacheConfig:
    enabled: bool = False
    dir: str = ".lexjudge_cache"


@dataclass(frozen=True, slots=True)
class AblationFlags:
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
    ablation: AblationFlags = field(default_factory=AblationFlags)
    parallelism: int = setting(1, "[1, inf)")
    transcript_path: str | None = None


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


def _keys(cls: type, prefix: str = "") -> Iterator[tuple[str, tuple]]:
    """Each dotted key with its accepted types, interval and choices.

    The types come from the field's annotation: int | None gives (int, NoneType).
    """
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        hint = hints[f.name]
        if dataclasses.is_dataclass(hint):
            yield from _keys(hint, f"{f.name}.")
        else:
            types = typing.get_args(hint) or (hint,)
            yield f"{prefix}{f.name}", (types, f.metadata.get("interval"), f.metadata.get("choices"))


_KEYS = dict(_keys(Config))
_TYPE_NAMES = {bool: "a boolean", int: "an integer", float: "a number", str: "a string", type(None): "null"}


def _within(value: float, interval: str) -> bool:
    """Whether value lies in interval: "[low, high]", with ( or ) for an open end."""
    low, high = (float(end) for end in interval[1:-1].split(","))
    above = low < value if interval[0] == "(" else low <= value
    return above and (value < high if interval[-1] == ")" else value <= high)


def _assign(config: Config, key: str, value: Any) -> None:
    """Set one dotted key, rejecting a value that does not fit the key's type and bounds.

    An integer widens to a float key; null fits only a key annotated
    `| None`. A number must be finite, and a non-null value must lie in the
    key's interval or among its choices.
    """
    if key not in _KEYS:
        raise ConfigError(key, "unknown configuration key")
    types, interval, choices = _KEYS[key]
    if float in types and type(value) is int:
        try:
            value = float(value)
        except OverflowError:
            raise ConfigError(key, "integer too large for a number") from None
    # bool is a subclass of int, so an integer key must not take true or false.
    if not isinstance(value, types) or (isinstance(value, bool) and bool not in types):
        expected = " or ".join(_TYPE_NAMES[t] for t in types)
        raise ConfigError(key, f"expected {expected}, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(key, f"must be a finite number, got {value!r}")
    if interval and value is not None and not _within(value, interval):
        raise ConfigError(key, f"must lie in {interval}, got {value!r}")
    if choices and value not in choices:
        raise ConfigError(key, f"must be one of {choices}, got {value!r}")
    section, _, attr = key.rpartition(".")
    if section:
        # A new section rather than setattr: AblationFlags is frozen, as an engine keeps it.
        setattr(config, section, dataclasses.replace(getattr(config, section), **{attr: value}))
    else:
        setattr(config, attr, value)


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
    return config
