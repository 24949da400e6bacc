"""Shared helpers under concurrent writers and readers."""

from __future__ import annotations

import json
import sys
import threading
import time

import pytest

from lexjudge._util import OnceMemo, atomic_write_lines, atomic_write_text, read_json, read_jsonl
from lexjudge.augmentation import load_pairs
from lexjudge.config import load_config
from lexjudge.corpus import CaseStore, load_cases, load_pools, load_qrels
from lexjudge.demos import load_demo_library
from lexjudge.engine import read_records_jsonl
from lexjudge.errors import ParseError


def test_concurrent_writers_of_one_path_leave_one_whole_payload(tmp_path):
    target = tmp_path / "out.json"
    payloads = [str(i) * 200_000 for i in range(8)]
    start = threading.Barrier(len(payloads))
    errors: list[BaseException] = []

    def write(payload: str) -> None:
        start.wait(timeout=10)
        try:
            for _ in range(5):
                atomic_write_text(target, payload)
        except BaseException as exc:
            errors.append(exc)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=write, args=(p,)) for p in payloads]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert target.read_text(encoding="utf-8") in payloads
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


@pytest.mark.parametrize("existing", [True, False], ids=["over-a-file", "new-path"])
def test_writer_whose_lines_raise_leaves_the_target_as_it_was(existing, tmp_path):
    target = tmp_path / "out.jsonl"
    if existing:
        target.write_text("old\n", encoding="utf-8")

    def lines():
        yield "first\n"
        yield "x" * 100_000 + "\n"
        raise ValueError("the row source failed")

    with pytest.raises(ValueError, match="the row source failed"):
        atomic_write_lines(target, lines())
    assert [p.name for p in tmp_path.iterdir()] == (["out.jsonl"] if existing else [])
    if existing:
        assert target.read_text(encoding="utf-8") == "old\n"


def test_once_memo_computes_each_key_once_across_threads():
    calls: list[str] = []

    def slow_upper(key: str) -> str:
        calls.append(key)
        time.sleep(0.01)
        return key.upper()

    memo = OnceMemo(slow_upper)
    start = threading.Barrier(8)
    results: list[str] = []

    def read() -> None:
        start.wait(timeout=10)
        results.append(memo["abc"])

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=read) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    assert results == ["ABC"] * 8
    assert calls == ["abc"]
    assert memo == {"abc": "ABC"}


def test_once_memo_stores_nothing_when_the_computation_raises():
    attempts = []

    def flaky(key: str) -> int:
        attempts.append(key)
        if len(attempts) == 1:
            raise ValueError("first attempt fails")
        return len(key)

    memo = OnceMemo(flaky)
    with pytest.raises(ValueError):
        memo["abcd"]
    assert memo == {}
    assert memo["abcd"] == 4
    assert memo["abcd"] == 4
    assert attempts == ["abcd", "abcd"]


def test_once_memo_miss_on_one_key_does_not_wait_for_another():
    a_started, release_a = threading.Event(), threading.Event()

    def compute(key: str) -> str:
        if key == "a":
            a_started.set()
            release_a.wait(timeout=30)
        return key.upper()

    memo = OnceMemo(compute)
    results: dict[str, str] = {}

    def read(key: str) -> None:
        results[key] = memo[key]

    slow = threading.Thread(target=read, args=("a",), daemon=True)
    fast = threading.Thread(target=read, args=("b",), daemon=True)
    slow.start()
    try:
        assert a_started.wait(timeout=10)
        fast.start()
        fast.join(timeout=5)
        assert not fast.is_alive(), "a miss on 'b' waited for the computation of 'a'"
        assert results == {"b": "B"}
    finally:
        release_a.set()
    slow.join(timeout=10)
    assert not slow.is_alive()
    assert results == {"a": "A", "b": "B"}


def test_once_memo_computation_may_read_another_key():
    memo = OnceMemo(lambda key: memo["mf"] + "+lf" if key == "lf" else key)
    results: list[str] = []
    reader = threading.Thread(target=lambda: results.append(memo["lf"]), daemon=True)
    reader.start()
    reader.join(timeout=5)
    assert not reader.is_alive(), "a computation that reads another key never finished"
    assert results == ["mf+lf"]
    assert memo == {"mf": "mf", "lf": "mf+lf"}


@pytest.mark.parametrize(
    "load, wrong_top_level, message",
    [
        (lambda p: load_pools(p, CaseStore([])), "{}", "pools file must hold a JSON array"),
        (load_qrels, "[]", "qrels file must hold a JSON object"),
        (load_demo_library, "{}", "demonstration file must hold a JSON array"),
        (load_pairs, "{}", "pairs file must hold a JSON array"),
        (load_config, "[]", "config file must hold a JSON object"),
    ],
    ids=["pools", "qrels", "demos", "pairs", "config"],
)
def test_json_loaders_keep_their_messages(load, wrong_top_level, message, tmp_path):
    path = tmp_path / "in.json"
    path.write_text("[1,", encoding="utf-8")
    with pytest.raises(ParseError) as excinfo:
        load(path)
    assert str(excinfo.value) == f"bad JSON: Expecting value ({path})"
    assert (excinfo.value.path, excinfo.value.line) == (str(path), None)
    path.write_text(wrong_top_level, encoding="utf-8")
    with pytest.raises(ParseError) as excinfo:
        load(path)
    assert str(excinfo.value) == f"{message} ({path})"


@pytest.mark.parametrize("load", [load_cases, read_records_jsonl], ids=["cases", "records"])
def test_jsonl_loaders_name_the_line(load, tmp_path):
    path = tmp_path / "in.jsonl"
    path.write_text("\n[1, 2]\n", encoding="utf-8")
    with pytest.raises(ParseError) as excinfo:
        load(path)
    assert str(excinfo.value) == f"each line must hold a JSON object ({path}:2)"
    path.write_text('\n\n{"id": \n', encoding="utf-8")
    with pytest.raises(ParseError) as excinfo:
        load(path)
    assert str(excinfo.value) == f"bad JSON: Expecting value ({path}:3)"
    assert (excinfo.value.path, excinfo.value.line) == (str(path), 3)


def test_json_that_is_not_utf8_names_the_file(tmp_path):
    path = tmp_path / "in.json"
    path.write_bytes('{"案": "caf'.encode("utf-8") + b'\xe9"}')
    with pytest.raises(ParseError) as excinfo:
        read_json(path, dict, "config file")
    assert str(excinfo.value) == f"not UTF-8: byte 0xe9 at offset 12 ({path})"


def test_jsonl_that_is_not_utf8_names_the_exact_line(tmp_path):
    # Thousands of multi-byte lines first, so the bad byte lies far past any read buffer.
    good = "".join(json.dumps({"id": f"c{i}", "fact_text": "被告人盗窃" * 8}, ensure_ascii=False) + "\n" for i in range(3000))
    path = tmp_path / "in.jsonl"
    path.write_bytes(good.encode("utf-8") + b'{"id": "caf\xe9"}\n' + b'{"id": "next"}\n')
    rows = read_jsonl(path)
    for _ in range(3000):
        next(rows)
    with pytest.raises(ParseError) as excinfo:
        next(rows)
    assert str(excinfo.value) == f"not UTF-8: byte 0xe9 at offset 11 ({path}:3001)"
    assert (excinfo.value.path, excinfo.value.line) == (str(path), 3001)


def test_jsonl_lines_may_end_in_crlf(tmp_path):
    path = tmp_path / "in.jsonl"
    path.write_bytes(b'{"a": 1}\r\n\r\n{"b": "\xe6\xa1\x88"}\r\n')
    assert list(read_jsonl(path)) == [(1, {"a": 1}), (3, {"b": "案"})]


def test_once_memo_keeps_at_most_limit_entries():
    calls: list[str] = []
    memo = OnceMemo(lambda key: calls.append(key) or key.upper(), limit=2)
    assert [memo[key] for key in "abcab"] == list("ABCAB")
    assert memo == {"a": "A", "b": "B"}
    # A miss on a full memo is computed each time and never kept.
    assert memo["c"] == "C"
    assert calls == ["a", "b", "c", "c"]
    assert memo == {"a": "A", "b": "B"}


def test_once_memo_at_its_limit_across_threads():
    memo = OnceMemo(lambda key: (time.sleep(0.001), key * 2)[1], limit=5)
    results: dict[int, list[int]] = {}
    start = threading.Barrier(8)

    def read(offset: int) -> None:
        start.wait(timeout=10)
        results[offset] = [memo[(offset + i) % 20] for i in range(40)]

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=read, args=(offset,)) for offset in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    assert results == {offset: [(offset + i) % 20 * 2 for i in range(40)] for offset in range(8)}
    assert len(memo) == 5
    assert all(value == key * 2 for key, value in memo.items())
