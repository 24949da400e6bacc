import bench_paths  # noqa: F401  (must precede the benchmark imports)
import threading

import pytest

from layers import boundary_metrics
from tracing import Span, Tracer, busy_time, clip, percentile, self_time, union_length


@pytest.mark.parametrize(
    "intervals, expected",
    [
        ([], 0.0),
        ([(0, 1), (2, 3)], 2.0),
        ([(0, 2), (1, 3)], 3.0),
        ([(0, 10), (2, 3), (4, 5)], 10.0),
        ([(5, 6), (0, 1), (0.5, 2)], 3.0),
        ([(1, 1), (2, 1)], 0.0),
        ([(0, 1), (1, 2)], 2.0),
    ],
)
def test_union_length(intervals, expected):
    assert union_length(intervals) == pytest.approx(expected)


def test_clip_drops_and_trims():
    assert clip([(-2, -1), (-1, 1), (2, 3), (9, 12)], 0, 10) == [(0, 1), (2, 3), (9, 10)]


def test_self_time_subtracts_the_union_of_children():
    assert self_time((0, 10), [(1, 3), (2, 4), (8, 12)]) == pytest.approx(10 - 3 - 2)
    assert self_time((0, 10), []) == 10


def test_busy_time_sums_per_thread_unions():
    children = [(0, 5, 1), (3, 6, 1), (0, 10, 2), (-5, 1, 3)]
    assert busy_time((0, 10), children) == pytest.approx(6 + 10 + 1)


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile([3.0], 99) == 3.0


def test_worker_spans_hang_under_the_open_main_span():
    tracer = Tracer()
    with tracer.span("outer") as outer:
        with tracer.span("inner") as inner:
            done = []

            def work():
                with tracer.span("worker") as w:
                    done.append(w)

            worker = threading.Thread(target=work)
            worker.start()
            worker.join(timeout=5)
            assert not worker.is_alive()
    assert inner.parent == outer.id
    assert done[0].parent == inner.id
    assert outer.parent is None


def _span(name, start, end, thread=1, **attrs):
    return Span(id=0, parent=None, trace=1, name=name, thread=thread, start=start, end=end, attrs=attrs)


def test_idle_share_self_time_and_reuse_from_spans():
    tracer = Tracer()
    tracer.spans = [
        _span("engine.judge_pools", 0.0, 10.0, parallelism=2, pairs=2, cases=3),
        _span("gateway.complete", 0.0, 5.0, thread=1, stage="FE_MF", first=True, prompt_tokens=10),
        _span("gateway.complete", 4.0, 6.0, thread=1, stage="FE_LF", first=True, prompt_tokens=20),
        _span("gateway.complete", 1.0, 3.0, thread=2, stage="FE_MF", first=True, prompt_tokens=30),
        _span("gateway.complete", 7.0, 8.0, thread=2, stage="FA_MF", first=False, prompt_tokens=5),
    ]
    m, unmeasured = boundary_metrics(tracer, backend=False)
    assert m["engine.worker_idle_share"] == pytest.approx(1 - (6 + 3) / 20)
    assert m["engine.self_s_per_pair"] == pytest.approx((10 - 7) / 2)
    assert m["engine.fe_calls_per_case"] == pytest.approx(3 / 6)
    assert m["engine.fe_reuse_share"] == pytest.approx(1 - 3 / 8)
    assert m["engine.parse_retries"] == pytest.approx(0.5)
    assert m["gateway.calls.FE_MF"] == pytest.approx(1.0)
    assert m["gateway.prompt_tokens_per_call.FE_MF"] == pytest.approx(20)
    assert m["gateway.inflight_mean"] == pytest.approx(10 / 10)
    assert "gateway.overhead_us_per_call" in unmeasured
