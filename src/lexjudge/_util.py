"""Small shared helpers: atomic writes, text, JSON and JSON-lines readers, a fill-once memo."""

from __future__ import annotations

import json
import math
import os
import tempfile
import threading
from pathlib import Path
from typing import Callable, Iterable, Iterator

from .errors import ParseError

_JSON_TYPE_NAMES = {list: "array", dict: "object"}


def atomic_write_lines(path: str | Path, lines: Iterable[str]) -> None:
    """Write lines via a sibling temp file and rename, so readers never see a torn file.

    Lines are written as the iterable yields them, so the whole file never
    sits in memory. The temp file gets a unique name, so concurrent writers
    of one path, threads included, never share it; the last rename wins.
    If anything raises, the iterable included, the temp file is removed and
    the target is left as it was.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.writelines(lines)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def atomic_write_text(path: str | Path, text: str) -> None:
    atomic_write_lines(path, (text,))


def atomic_write_json(path: str | Path, payload: object, *, indent: int = 2) -> None:
    atomic_write_text(path, json.dumps(payload, ensure_ascii=False, indent=indent) + "\n")


def _not_utf8(exc: UnicodeDecodeError, line_start: int = 0) -> str:
    return f"not UTF-8: byte 0x{exc.object[exc.start]:02x} at offset {exc.start - line_start}"


def read_text(path) -> str:
    """Read a UTF-8 file, a path or a packaged resource, with line ends made "\\n" as in text mode.

    A byte that is not UTF-8 raises ParseError naming the file and line,
    with the byte's offset counted from the start of that line.
    """
    data = (Path(path) if isinstance(path, str) else path).read_bytes()
    try:
        return data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    except UnicodeDecodeError as exc:
        line_start = data.rfind(b"\n", 0, exc.start) + 1
        line = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(_not_utf8(exc, line_start), path=str(path), line=line) from None


def read_json(path: str | Path, kind: type, what: str) -> list | dict:
    """Parse a JSON file whose top level must be a kind (list or dict).

    Raises ParseError naming the file, whose message calls it what.
    """
    path = Path(path)
    try:
        raw = json.loads(path.read_bytes().decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ParseError(_not_utf8(exc), path=str(path)) from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad JSON: {exc.msg}", path=str(path)) from None
    if not isinstance(raw, kind):
        raise ParseError(f"{what} must hold a JSON {_JSON_TYPE_NAMES[kind]}", path=str(path))
    return raw


def read_jsonl(path: str | Path) -> Iterator[tuple[int, dict]]:
    """Yield (line number, object) for each non-blank line of a JSON-lines file.

    Lines end at "\n" and each is decoded on its own, so a byte that is not
    UTF-8 is reported at its own line. Raises ParseError naming the file
    and line on a line that is not UTF-8 or not a JSON object.
    """
    path = Path(path)
    with path.open("rb") as fh:
        for line_no, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ParseError(_not_utf8(exc), path=str(path), line=line_no) from None
            if line.isspace():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"bad JSON: {exc.msg}", path=str(path), line=line_no) from None
            if not isinstance(record, dict):
                raise ParseError("each line must hold a JSON object", path=str(path), line=line_no)
            yield line_no, record


class OnceMemo(dict):
    """A dict that computes a missing value once per key and keeps it.

    A hit is a plain dict lookup. A miss runs compute(key) outside any
    memo-wide lock: readers of that key wait for the one computation; a
    miss on another key, or a computation reading another key, goes ahead.
    A computation that raises stores nothing, and its waiters retry one at
    a time. A computation must not read its own key.

    The memo keeps at most limit entries: once it is full, a miss is
    computed and returned but not kept, and waiters on that key compute
    it again, one at a time.
    """

    def __init__(self, compute: Callable, limit: float = math.inf):
        super().__init__()
        self._compute = compute
        self._limit = limit
        self._lock = threading.Lock()  # guards _running, and the memo's size while storing
        self._running: dict = {}

    def __missing__(self, key):
        while True:
            with self._lock:
                if key in self:
                    return self[key]
                running = self._running.get(key)
                if running is None:
                    running = self._running[key] = threading.Lock()  # far cheaper than an Event
                    running.acquire()
                    break
            with running:  # held by the computing thread until it ends; then look again
                pass
        value = failed = object()
        try:
            value = self._compute(key)
        finally:
            with self._lock:
                if value is not failed and len(self) < self._limit:
                    self[key] = value
                del self._running[key]
            running.release()
        return value
