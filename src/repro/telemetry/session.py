"""Telemetry plumbing for the regression batch engine.

Four pieces:

* :class:`Telemetry` — the facade instrumented code takes: a trace
  collector and a run logger, each individually a no-op when disabled.
  :data:`NULL_TELEMETRY` is the all-disabled default, so hot paths call
  ``telemetry.span(...)`` unconditionally.
* :class:`TelemetryConfig` — what the user asked for on the CLI
  (``--metrics-out``, ``--trace-out``, ``--log-json``,
  ``--time-processes``).
* :class:`RunRecorder` — per-(config, test, seed, view) recorder living
  in whichever process executes the run (a pool worker under
  ``jobs=N``, the parent under ``jobs=1``).  Its :meth:`payload` is a
  picklable :class:`RunTelemetry` shipped back across the process
  boundary; a disabled recorder hands out :data:`NULL_TELEMETRY` and
  no payload.
* :class:`BatchTelemetry` — parent-side aggregator: times the batch
  and exports the side-channel files from the batch's report, whose
  entries carry every job's result with its payload attached
  (:func:`job_results` walks them).  Counts and rates in the metrics
  file are derived from the batch's results (kernel stats, alignment
  and triage reports), never recorded a second time.  Telemetry NEVER writes to stdout and never
  touches the report artifacts — byte-identity between instrumented
  and plain runs is an invariant the tests pin down.
"""

from __future__ import annotations

import os
import time
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from ..ioutil import atomic_write
from .runlog import NULL_LOG, RunLogger
from .trace import (
    NULL_TRACE,
    TraceCollector,
    assign_lanes,
    span_seconds,
    write_chrome_trace,
)

#: Span names that count as run phases in the metrics rollup.
PHASE_NAMES = ("generate", "elaborate", "run", "finalize", "report",
               "compare", "triage")

#: Bucket bounds (inclusive upper bounds, plus one overflow bucket) of
#: the per-port alignment-rate histogram.
ALIGNMENT_BUCKETS = (0.5, 0.9, 0.95, 0.99, 0.999, 1.0)

#: Version tag written into every metrics file.
METRICS_SCHEMA = "repro.telemetry/metrics/v1"


def alignment_histogram(alignments: Iterable) -> Dict[str, object]:
    """The ``analyzer.port_alignment_rate`` histogram: one observation
    per port ``rate`` of each :class:`~repro.analyzer.AlignmentReport`,
    bucketed by :data:`ALIGNMENT_BUCKETS` (``bisect_left``, so a rate
    equal to a bound lands in that bound's bucket).  ``sum`` adds each
    comparison's ports first and then the comparisons, in order."""
    counts = [0] * (len(ALIGNMENT_BUCKETS) + 1)
    rates: List[float] = []
    total = 0.0
    for alignment in alignments:
        subtotal = 0.0
        for port in alignment.ports.values():
            rate = port.rate
            subtotal += rate
            counts[bisect_left(ALIGNMENT_BUCKETS, rate)] += 1
            rates.append(rate)
        total += subtotal
    return {
        "count": len(rates),
        "sum": total,
        "min": min(rates) if rates else None,
        "max": max(rates) if rates else None,
        "bounds": list(ALIGNMENT_BUCKETS),
        "counts": counts,
    }


class Telemetry:
    """Tracer + logger bundle; each part no-op when disabled."""

    __slots__ = ("trace", "log", "enabled")

    def __init__(
        self,
        trace: Optional[TraceCollector] = None,
        log: Optional[RunLogger] = None,
    ) -> None:
        self.trace = trace if trace is not None else NULL_TRACE
        self.log = log if log is not None else NULL_LOG
        self.enabled = self.trace.enabled or self.log.enabled

    def span(self, name: str, **args: object):
        return self.trace.span(name, **args)


#: The all-disabled bundle instrumented code defaults to.
NULL_TELEMETRY = Telemetry()


@dataclass(frozen=True)
class TelemetryConfig:
    """What to record and where the side-channel files go."""

    metrics_out: Optional[str] = None
    trace_out: Optional[str] = None
    log_out: Optional[str] = None
    time_processes: bool = False

    @property
    def enabled(self) -> bool:
        return bool(self.metrics_out or self.trace_out or self.log_out)

    def with_tag(self, tag: str) -> "TelemetryConfig":
        """Derive a config whose file names carry ``tag`` (for flows that
        run several regressions, e.g. one per verification iteration)."""
        def tagged(path: Optional[str]) -> Optional[str]:
            if path is None:
                return None
            stem, ext = os.path.splitext(path)
            return f"{stem}.{tag}{ext}"

        return TelemetryConfig(
            metrics_out=tagged(self.metrics_out),
            trace_out=tagged(self.trace_out),
            log_out=tagged(self.log_out),
            time_processes=self.time_processes,
        )


@dataclass
class RunTelemetry:
    """Picklable per-run telemetry shipped from the executing process."""

    pid: int
    started_at: float
    finished_at: float
    queue_wait_seconds: float
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    events: List[dict] = field(default_factory=list)
    records: List[dict] = field(default_factory=list)

    @property
    def busy_seconds(self) -> float:
        return max(0.0, self.finished_at - self.started_at)


class RunRecorder:
    """Records one run, comparison or triage in the executing process.

    A disabled recorder hands out :data:`NULL_TELEMETRY` and its
    :meth:`payload` is ``None``, so the job bodies that use it have one
    shape with telemetry on or off.
    """

    def __init__(
        self,
        context: Dict[str, object],
        submitted_at: Optional[float] = None,
        enabled: bool = True,
    ) -> None:
        self.context = dict(context)
        self.submitted_at = submitted_at
        self.started_at = time.time()
        self.telemetry = Telemetry(
            trace=TraceCollector(),
            log=RunLogger(buffer=True, context=self.context),
        ) if enabled else NULL_TELEMETRY

    def span(self, name: str, **args: object):
        return self.telemetry.span(name, **args)

    def payload(self) -> Optional[RunTelemetry]:
        """Freeze everything recorded so far into a picklable value
        (``None`` when disabled)."""
        if not self.telemetry.enabled:
            return None
        finished = time.time()
        phases = {
            name: seconds
            for name, seconds in span_seconds(self.telemetry.trace.events).items()
            if name in PHASE_NAMES
        }
        queue_wait = (
            max(0.0, self.started_at - self.submitted_at)
            if self.submitted_at is not None else 0.0
        )
        return RunTelemetry(
            pid=self.telemetry.trace.pid,
            started_at=self.started_at,
            finished_at=finished,
            queue_wait_seconds=queue_wait,
            phase_seconds=phases,
            events=self.telemetry.trace.events,
            records=self.telemetry.log.records,
        )


def _cache_outcomes(cache) -> Dict[Tuple[str, str, int, str], str]:
    """``hit`` or ``miss: <reason>`` per run the cache looked up, by
    (config, test, seed, view), from its event stream."""
    outcomes = {}
    for event in cache.events:
        if event["event"] in ("cache.hit", "cache.miss"):
            outcomes[(event["config"], event["test"], event["seed"],
                      event["view"])] = (
                "hit" if event["event"] == "cache.hit"
                else f"miss: {event['reason']}")
    return outcomes


def job_results(report) -> Iterator[Tuple[object, str, object,
                                           Optional[RunTelemetry]]]:
    """Every job result on ``report``'s entries, as ``(entry, field,
    result, payload)`` in the side files' record order: every run
    (``rtl`` then ``bca`` per entry), then every comparison
    (``alignment``), then every triage (``triage``).  ``payload`` is the
    telemetry the job attached to its result (``None`` without one, and
    for a failed run)."""
    entries = [entry for config in report.configs
               for entry in config.entries]
    for fields in (("rtl", "bca"), ("alignment",), ("triage",)):
        for entry in entries:
            for name in fields:
                result = getattr(entry, name)
                if result is not None:
                    yield (entry, name, result,
                           getattr(result, "telemetry", None))


class BatchTelemetry:
    """Parent-side batch timing, aggregation and file export.

    Built from the batch's :class:`~repro.regression.spec.BatchSpec`
    (its ``telemetry`` config, ``tests``, ``seeds`` and ``jobs``).
    Always times the batch (two ``perf_counter`` calls) so
    ``RegressionReport.wall_seconds`` keeps working; everything else is
    inert unless the config enables an output.
    """

    def __init__(self, spec) -> None:
        self.spec = spec
        self.config = spec.telemetry
        self.enabled = self.config.enabled
        self.trace = TraceCollector(enabled=self.enabled)
        self._wall_start = time.perf_counter()
        self._wall_seconds: Optional[float] = None

    def span(self, name: str, **args: object):
        return self.trace.span(name, **args)

    def stop(self) -> float:
        """Fix and return the batch wall time (idempotent)."""
        if self._wall_seconds is None:
            self._wall_seconds = time.perf_counter() - self._wall_start
        return self._wall_seconds

    # -- export ------------------------------------------------------------

    def export(self, report, *, faults=None, cache=None,
               impact=None) -> None:
        """Write metrics/trace/log side-channel files (no-op if disabled)
        from ``report``, a
        :class:`~repro.regression.runner.RegressionReport` whose entries
        carry every job's result and telemetry payload.

        ``faults`` is the batch's
        :class:`~repro.regression.resilience.BatchFaults` accounting (or
        ``None``): its counters land in the metrics ``batch.faults``
        section and its structured events in the run log.

        ``cache`` is the batch's :class:`~repro.cache.ResultCache` (or
        ``None``): its hit/miss/store/verify counters land in the
        metrics ``batch.cache`` section, each run row says ``cache``:
        ``hit`` or ``miss: <reason>``, and its structured events
        (including quarantine diagnostics) go to the run log.

        ``impact`` is the cached batch's
        :class:`~repro.analysis.impact.ImpactIndex` (or ``None``): its
        fingerprint/fallback counters land in the metrics
        ``batch.impact`` section (its per-design key events ride the
        cache event stream).  Cache-less batches pass nothing and
        export byte-identical metrics files.

        Triage rows appear only for entries that failed and were
        auto-triaged, so batches without failures export files
        byte-identical to a triage-less build.
        """
        if not self.enabled:
            return
        wall = self.stop()
        results = list(job_results(report))
        payloads = [payload for *_, payload in results if payload is not None]
        if self.config.metrics_out:
            self._write_metrics(report, wall, results, payloads, faults,
                                cache, impact)
        if self.config.trace_out:
            events = list(self.trace.events)
            for payload in payloads:
                events.extend(payload.events)
            write_chrome_trace(
                self.config.trace_out, events,
                lanes=assign_lanes(events, main_pid=self.trace.pid),
                process_name="repro regression batch",
            )
        if self.config.log_out:
            self._write_log(report, wall, payloads, faults, cache)

    def _worker_lanes(self, payloads, wall: float) -> Dict[str, dict]:
        lanes: Dict[int, dict] = {}
        for payload in payloads:
            lane = lanes.setdefault(payload.pid, {
                "pid": payload.pid, "n_jobs": 0, "busy_seconds": 0.0,
                "first_start": payload.started_at,
            })
            lane["n_jobs"] += 1
            lane["busy_seconds"] += payload.busy_seconds
            lane["first_start"] = min(lane["first_start"], payload.started_at)
        main_pid = self.trace.pid
        named: Dict[str, dict] = {}
        workers = sorted(
            (lane["first_start"], pid)
            for pid, lane in lanes.items() if pid != main_pid
        )
        for index, (_, pid) in enumerate(workers):
            named[f"worker-{index}"] = lanes[pid]
        if main_pid in lanes:
            named["main"] = lanes[main_pid]
        for lane in named.values():
            lane.pop("first_start")
            lane["busy_seconds"] = round(lane["busy_seconds"], 6)
            lane["utilization"] = round(
                lane["busy_seconds"] / wall, 4) if wall > 0 else 0.0
        return named

    def _write_metrics(self, report, wall, results, payloads, faults,
                       cache, impact) -> None:
        import json

        kernel_totals: Dict[str, int] = {}
        phase_totals: Dict[str, float] = {}
        runs: List[dict] = []
        compares: List[dict] = []
        compared = []
        triage_rows: List[dict] = []
        served = _cache_outcomes(cache) if cache is not None else None
        for entry, name, result, payload in results:
            row = {"config": entry.config_name, "test": entry.test_name,
                   "seed": entry.seed}
            if payload is not None:
                for phase, seconds in payload.phase_seconds.items():
                    phase_totals[phase] = (
                        phase_totals.get(phase, 0.0) + seconds)
            if name == "alignment":
                compared.append(result)
                row["min_rate"] = round(result.min_rate, 6)
                row["overall_rate"] = round(result.overall_rate, 6)
                if payload is not None:
                    row["seconds"] = round(payload.busy_seconds, 6)
                    row["queue_wait_seconds"] = round(
                        payload.queue_wait_seconds, 6)
                if result.identical:
                    # Which path the comparison took: byte-identical
                    # dumps are aligned without expanding a series.
                    row["counters"] = {"analyzer.identical_pairs": 1}
                compares.append(row)
            elif name == "triage":
                row.update({
                    "reason": result.reason,
                    "verdict": result.verdict,
                    "first_divergence_signal": result.signal,
                    "first_divergence_cycle": result.cycle,
                    "suspect_count": len(result.suspects),
                    "top_suspect": result.top_suspect,
                })
                if payload is not None:
                    row["seconds"] = round(payload.busy_seconds, 6)
                triage_rows.append(row)
            elif not hasattr(result, "kernel_stats"):
                # A RunFailure stand-in from the resilience layer: the
                # run never completed, so there is nothing to roll up.
                row.update(view=name, status=result.status,
                           error=result.describe())
                runs.append(row)
            else:
                for counter, value in result.kernel_stats.items():
                    kernel_totals[counter] = (
                        kernel_totals.get(counter, 0) + value)
                row.update({
                    "view": name,
                    "passed": result.passed,
                    "cycles": result.cycles,
                    "wall_seconds": round(result.wall_seconds, 6),
                    "kernel": dict(result.kernel_stats),
                })
                if result.process_seconds:
                    row["process_seconds"] = {
                        process: [calls, round(seconds, 6)]
                        for process, (calls, seconds)
                        in sorted(result.process_seconds.items())
                    }
                if payload is not None:
                    row["queue_wait_seconds"] = round(
                        payload.queue_wait_seconds, 6)
                    row["phase_seconds"] = {
                        phase: round(seconds, 6) for phase, seconds
                        in sorted(payload.phase_seconds.items())
                    }
                runs.append(row)
            if served is not None and name in ("rtl", "bca"):
                row["cache"] = served.get(
                    (entry.config_name, entry.test_name, entry.seed, name))
        payload_out = {
            "schema": METRICS_SCHEMA,
            "batch": {
                "wall_seconds": round(wall, 6),
                "jobs": self.spec.jobs,
                "n_runs": report.n_runs,
                "n_configs": len(report.configs),
                "all_signed_off": report.all_signed_off,
                "kernel_totals": dict(sorted(kernel_totals.items())),
                "phase_totals": {
                    name: round(seconds, 6)
                    for name, seconds in sorted(phase_totals.items())
                },
                "workers": self._worker_lanes(payloads, wall),
            },
            "runs": runs,
            "compares": compares,
            "histograms": {
                "analyzer.port_alignment_rate":
                    alignment_histogram(compared),
            } if compared else {},
        }
        if faults is not None:
            payload_out["batch"]["faults"] = faults.counters()
        if cache is not None:
            # Present only when a result cache was configured, so
            # cache-less batches export byte-identical metrics files.
            payload_out["batch"]["cache"] = cache.stats.counters()
        if impact is not None:
            # Present only for cached batches, same rationale.
            payload_out["batch"]["impact"] = impact.counters()
        if triage_rows:
            # Present only when failures were triaged, so fault-free
            # batches and triage-disabled batches export byte-identical
            # metrics files.
            payload_out["triages"] = triage_rows
            counters = {"triage.suspect_count": sum(
                row["suspect_count"] for row in triage_rows)}
            cycles = [row["first_divergence_cycle"] for row in triage_rows
                      if row["first_divergence_cycle"] is not None]
            if cycles:
                counters["triage.first_divergence_cycle"] = sum(cycles)
            payload_out["batch"]["triage_counters"] = dict(
                sorted(counters.items()))
        with atomic_write(self.config.metrics_out) as handle:
            json.dump(payload_out, handle, indent=1)
            handle.write("\n")

    def _write_log(self, report, wall, payloads, faults, cache) -> None:
        with atomic_write(self.config.log_out) as handle:
            logger = RunLogger(stream=handle)
            logger.log(
                "batch.start",
                configs=[config.config.name for config in report.configs],
                tests=list(self.spec.tests),
                seeds=list(self.spec.seeds),
                jobs=self.spec.jobs,
            )
            for payload in payloads:
                for record in payload.records:
                    logger.write_record(record)
            if faults is not None:
                for event in faults.events:
                    logger.write_record(dict(event))
            if cache is not None:
                for event in cache.events:
                    logger.write_record(dict(event))
            logger.log(
                "batch.complete",
                n_runs=report.n_runs,
                wall_seconds=round(wall, 6),
                jobs=self.spec.jobs,
                all_signed_off=report.all_signed_off,
            )
