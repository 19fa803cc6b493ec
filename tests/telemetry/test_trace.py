"""Span tracing: recording, lane assignment and Chrome trace export."""

import json

from repro.telemetry import (
    NULL_TRACE,
    TraceCollector,
    assign_lanes,
    span_seconds,
    write_chrome_trace,
)
from repro.telemetry.trace import NULL_SPAN


class FakeClock:
    """Deterministic clock: each call advances by ``step`` seconds."""

    def __init__(self, start=100.0, step=0.25):
        self.now = start
        self.step = step

    def __call__(self):
        value = self.now
        self.now += self.step
        return value


def test_span_records_complete_event_with_args():
    trace = TraceCollector(clock=FakeClock(), pid=1234)
    with trace.span("elaborate", config="cfg_a", seed=7):
        pass
    (event,) = trace.events
    assert event["name"] == "elaborate"
    assert event["ph"] == "X"
    assert event["pid"] == 1234
    assert event["ts"] == 100_000_000
    assert event["dur"] == 250_000
    assert event["args"] == {"config": "cfg_a", "seed": 7}


def test_span_records_even_when_body_raises():
    trace = TraceCollector(clock=FakeClock())
    try:
        with trace.span("run"):
            raise RuntimeError("boom")
    except RuntimeError:
        pass
    assert [e["name"] for e in trace.events] == ["run"]


def test_nested_spans_record_inner_first():
    trace = TraceCollector(clock=FakeClock())
    with trace.span("outer"):
        with trace.span("inner"):
            pass
    names = [e["name"] for e in trace.events]
    assert names == ["inner", "outer"]
    inner, outer = trace.events
    # the outer span fully contains the inner one
    assert outer["ts"] <= inner["ts"]
    assert outer["ts"] + outer["dur"] >= inner["ts"] + inner["dur"]


def test_disabled_collector_shares_null_span_and_records_nothing():
    trace = TraceCollector(enabled=False)
    span = trace.span("anything", key="value")
    assert span is NULL_SPAN
    with span:
        pass
    assert trace.events == []
    assert NULL_TRACE.span("x") is NULL_SPAN


def test_span_seconds_totals_by_name():
    trace = TraceCollector(clock=FakeClock(step=0.5))
    with trace.span("run"):
        pass
    with trace.span("run"):
        pass
    with trace.span("report"):
        pass
    totals = span_seconds(trace.events)
    assert totals == {"run": 1.0, "report": 0.5}


def test_assign_lanes_orders_workers_by_first_event():
    events = [
        {"name": "a", "ph": "X", "ts": 300, "dur": 1, "pid": 333},
        {"name": "b", "ph": "X", "ts": 100, "dur": 1, "pid": 111},
        {"name": "c", "ph": "X", "ts": 200, "dur": 1, "pid": 222},
        {"name": "m", "ph": "X", "ts": 50, "dur": 1, "pid": 999},
    ]
    lanes = assign_lanes(events, main_pid=999)
    assert lanes[999] == (0, "main")
    assert lanes[111] == (1, "worker-0")
    assert lanes[222] == (2, "worker-1")
    assert lanes[333] == (3, "worker-2")


def test_chrome_trace_payload_remaps_pids_to_lanes(tmp_path):
    events = [
        {"name": "job", "ph": "X", "ts": 10, "dur": 5, "pid": 111},
        {"name": "batch", "ph": "X", "ts": 0, "dur": 20, "pid": 999},
    ]
    path = tmp_path / "trace.json"
    write_chrome_trace(
        str(path), events, lanes=assign_lanes(events, main_pid=999),
        process_name="test batch",
    )
    out = json.loads(path.read_text())["traceEvents"]
    meta = [e for e in out if e["ph"] == "M"]
    assert meta[0]["args"] == {"name": "test batch"}
    thread_names = {e["tid"]: e["args"]["name"] for e in meta[1:]}
    assert thread_names == {0: "main", 1: "worker-0"}
    spans = [e for e in out if e["ph"] == "X"]
    assert all(e["pid"] == 1 for e in spans)
    assert {e["name"]: e["tid"] for e in spans} == {"job": 1, "batch": 0}
    # the source events were not mutated
    assert events[0]["pid"] == 111


def test_write_chrome_trace_round_trips(tmp_path):
    trace = TraceCollector(clock=FakeClock(), pid=42)
    with trace.span("phase"):
        pass
    path = str(tmp_path / "trace.json")
    write_chrome_trace(path, trace.events,
                       lanes=assign_lanes(trace.events, main_pid=42))
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    assert payload["displayTimeUnit"] == "ms"
    names = [e["name"] for e in payload["traceEvents"]]
    assert "process_name" in names
    assert "thread_name" in names
    assert "phase" in names
    # written through a sibling temp file, none left behind
    assert sorted(p.name for p in tmp_path.iterdir()) == ["trace.json"]


def test_write_chrome_trace_keeps_the_old_file_on_failure(tmp_path):
    path = tmp_path / "trace.json"
    path.write_text("old\n")
    unserializable = [{"name": "x", "ph": "X", "ts": 0, "dur": 1,
                       "pid": 1, "args": {"obj": object()}}]
    try:
        write_chrome_trace(str(path), unserializable)
    except TypeError:
        pass
    else:
        raise AssertionError("an unserializable event must raise")
    assert path.read_text() == "old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["trace.json"]
