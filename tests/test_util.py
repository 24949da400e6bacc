"""Shared I/O helpers under concurrent writers."""

from __future__ import annotations

import sys
import threading

from lexjudge._util import atomic_write_text


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
