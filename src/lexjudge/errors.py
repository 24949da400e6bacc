"""Exception types shared across the package.

Every error raised on a data or protocol problem derives from LexjudgeError
so callers (and the CLI) can distinguish bad input from genuine bugs.
"""

from __future__ import annotations


class LexjudgeError(Exception):
    """Base class for all package-specific errors."""


class ParseError(LexjudgeError):
    """A file could not be parsed; carries path and line number when known."""

    def __init__(self, message: str, *, path: str | None = None, line: int | None = None):
        self.path = path
        self.line = line
        where = ""
        if path is not None:
            where = f" ({path}" + (f":{line}" if line is not None else "") + ")"
        super().__init__(message + where)


class IntegrityError(LexjudgeError):
    """Cross-record consistency violated (duplicate ids, dangling references)."""


class DomainError(LexjudgeError):
    """A value lies outside its documented domain."""


class ConfigError(LexjudgeError):
    """Bad configuration value; carries the offending key."""

    def __init__(self, key: str, message: str):
        self.key = key
        super().__init__(f"{key}: {message}")


class EmptySetError(LexjudgeError):
    """A demonstration set that must be non-empty is empty."""


class TemplateError(LexjudgeError):
    """A prompt template is missing or contains unknown placeholders."""


class JudgeResponseUnparseable(LexjudgeError):
    """The judge reply did not match the response protocol after retries."""


class UpstreamError(LexjudgeError):
    """The chat-completions backend kept failing after the retry budget."""


class AuthError(LexjudgeError):
    """The backend rejected the credentials; never retried."""


class MalformedStageMarker(LexjudgeError):
    """The mock judge found no recognizable stage marker in the request."""


class MissingGoldError(LexjudgeError):
    """A judged pair or run query has no gold label."""


class EmptyRunError(LexjudgeError):
    """A run file contains no entries."""


class ExhaustedError(LexjudgeError):
    """More samples requested than the population holds."""


class InsufficientLabelError(LexjudgeError):
    """A label class cannot fill its quota; carries label and shortfall."""

    def __init__(self, label: int, shortfall: int):
        self.label = label
        self.shortfall = shortfall
        super().__init__(f"label {label}: short {shortfall} annotated pairs for quota")


class ScorerError(LexjudgeError):
    """A pair scorer raised; carries the pair that triggered it."""
