"""Span tracing with Chrome/Perfetto ``trace.json`` export.

A :class:`TraceCollector` records *complete* trace events ("ph": "X")
with wall-clock timestamps (``time.time``, microseconds), so spans
recorded in different worker processes of one regression batch share a
comparable time base.  Each event carries the recording process's OS
pid; :func:`write_chrome_trace` later remaps pids onto numbered lanes
(``tid``) with ``thread_name`` metadata, which is how parallel workers
render as separate horizontal lanes in ``chrome://tracing`` / Perfetto.

A collector created with ``enabled=False`` hands out a shared no-op
context manager from :meth:`TraceCollector.span`, so instrumented code
pays one attribute load and one branch when tracing is off.

Events are plain dicts — picklable across the regression engine's
process pool and JSON-able for export.
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, List, Optional, Sequence, Tuple

from ..ioutil import atomic_write


class _NullSpan:
    """Reusable no-op context manager for disabled collectors."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


NULL_SPAN = _NullSpan()


class _Span:
    """One live span; records a complete event when the ``with`` exits."""

    __slots__ = ("_collector", "name", "args", "_start")

    def __init__(self, collector: "TraceCollector", name: str,
                 args: Optional[dict]) -> None:
        self._collector = collector
        self.name = name
        self.args = args
        self._start = 0.0

    def __enter__(self) -> "_Span":
        self._start = self._collector._clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._collector._record(self, self._collector._clock())
        return False


class TraceCollector:
    """Records spans for one process.

    ``clock`` returns seconds; the default (``time.time``) is shared
    across processes, which is what makes worker lanes comparable.
    """

    __slots__ = ("enabled", "events", "pid", "_clock")

    def __init__(self, enabled: bool = True, clock=time.time,
                 pid: Optional[int] = None) -> None:
        self.enabled = enabled
        self.events: List[dict] = []
        self.pid = os.getpid() if pid is None else pid
        self._clock = clock

    def span(self, name: str, **args: object):
        """Context manager timing a region; ``args`` land in the event."""
        if not self.enabled:
            return NULL_SPAN
        return _Span(self, name, args or None)

    def _record(self, span: _Span, end: float) -> None:
        event = {
            "name": span.name,
            "ph": "X",
            "ts": int(span._start * 1e6),
            "dur": int((end - span._start) * 1e6),
            "pid": self.pid,
        }
        if span.args:
            event["args"] = span.args
        self.events.append(event)


#: Shared disabled collector: the default for instrumented code paths.
NULL_TRACE = TraceCollector(enabled=False)


def span_seconds(events: Sequence[dict]) -> Dict[str, float]:
    """Total duration per span name, in seconds."""
    totals: Dict[str, float] = {}
    for event in events:
        name = event["name"]
        totals[name] = totals.get(name, 0.0) + event.get("dur", 0) / 1e6
    return totals


def assign_lanes(events: Sequence[dict],
                 main_pid: Optional[int] = None) -> Dict[int, Tuple[int, str]]:
    """Map each recording pid to a ``(tid, label)`` lane.

    The orchestrating process (``main_pid``, default: this process) is
    lane 0 ("main"); worker pids become ``worker-N`` lanes numbered by
    the start time of their earliest event, so the lane order in the
    viewer matches the order workers picked up their first job.
    """
    if main_pid is None:
        main_pid = os.getpid()
    first_ts: Dict[int, int] = {}
    for event in events:
        pid = event["pid"]
        ts = event.get("ts", 0)
        if pid not in first_ts or ts < first_ts[pid]:
            first_ts[pid] = ts
    lanes: Dict[int, Tuple[int, str]] = {main_pid: (0, "main")}
    workers = sorted(
        (ts, pid) for pid, ts in first_ts.items() if pid != main_pid
    )
    for index, (_, pid) in enumerate(workers):
        lanes[pid] = (index + 1, f"worker-{index}")
    return lanes


def write_chrome_trace(
    path: str,
    events: Sequence[dict],
    lanes: Optional[Dict[int, Tuple[int, str]]] = None,
    process_name: str = "repro",
) -> None:
    """Write a trace file loadable by chrome://tracing and Perfetto,
    atomically, with each recording pid remapped onto its lane."""
    if lanes is None:
        lanes = assign_lanes(events)
    out: List[dict] = [{
        "name": "process_name", "ph": "M", "pid": 1, "tid": 0,
        "args": {"name": process_name},
    }]
    for pid in sorted(lanes, key=lambda p: lanes[p][0]):
        tid, label = lanes[pid]
        out.append({
            "name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
            "args": {"name": label},
        })
    for event in events:
        mapped = dict(event)
        tid, _ = lanes.get(event["pid"], (len(lanes), "other"))
        mapped["pid"] = 1
        mapped["tid"] = tid
        out.append(mapped)
    with atomic_write(path) as handle:
        json.dump({"traceEvents": out, "displayTimeUnit": "ms"}, handle,
                  indent=1)
        handle.write("\n")
