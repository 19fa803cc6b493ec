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
* :class:`BatchTelemetry` — parent-side aggregator: times the batch,
  collects every run/compare payload, and exports the side-channel
  files.  Counts and rates in the metrics file are derived from the
  batch's results (kernel stats, alignment and triage reports), never
  recorded a second time.  Telemetry NEVER writes to stdout and never
  touches the report artifacts — byte-identity between instrumented
  and plain runs is an invariant the tests pin down.
"""

from __future__ import annotations

import os
import time
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from ..ioutil import TMP_SUFFIX, atomic_write
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


class BatchTelemetry:
    """Parent-side batch timing, aggregation and file export.

    Always times the batch (two ``perf_counter`` calls) so
    ``RegressionReport.wall_seconds`` keeps working; everything else is
    inert unless the config enables an output.
    """

    def __init__(self, config: Optional[TelemetryConfig], *,
                 jobs: int = 1) -> None:
        self.config = config if config is not None else TelemetryConfig()
        self.enabled = self.config.enabled
        self.jobs = jobs
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

    def export(
        self,
        *,
        report,
        results: Dict[Tuple[int, str, int, str], object],
        alignments: Dict[Tuple[int, str, int], object],
        compare_telemetry: Dict[Tuple[int, str, int], RunTelemetry],
        configs,
        tests,
        seeds,
        faults=None,
        triages=None,
        triage_telemetry=None,
        cache=None,
        impact=None,
    ) -> None:
        """Write metrics/trace/log side-channel files (no-op if disabled).

        ``faults`` is the batch's
        :class:`~repro.regression.resilience.BatchFaults` accounting (or
        ``None``): its counters land in the metrics ``batch.faults``
        section and its structured events in the run log.

        ``cache`` is the batch's :class:`~repro.cache.ResultCache` (or
        ``None``): its hit/miss/store/verify counters land in the
        metrics ``batch.cache`` section and its structured events
        (including quarantine diagnostics) in the run log.

        ``impact`` is the cached batch's
        :class:`~repro.analysis.impact.ImpactIndex` (or ``None``): its
        fingerprint/fallback counters land in the metrics
        ``batch.impact`` section (its per-design key events ride the
        cache event stream).  Cache-less batches pass nothing and
        export byte-identical metrics files.

        ``triages`` maps entry keys to
        :class:`~repro.triage.TriageReport` payloads for the entries that
        failed and were auto-triaged; ``triage_telemetry`` carries their
        per-triage :class:`RunTelemetry`.  Both are keyed like
        ``alignments``.  Batches without failures pass nothing and the
        exported files stay byte-identical to a triage-less build.
        """
        if not self.enabled:
            return
        triages = triages or {}
        triage_telemetry = triage_telemetry or {}
        wall = self.stop()
        run_keys = [
            (ci, test, seed, view)
            for ci in range(len(configs))
            for test in tests
            for seed in seeds
            for view in ("rtl", "bca")
        ]
        entry_keys = [key[:3] for key in run_keys[::2]]
        payloads = {
            key: getattr(results[key], "telemetry", None)
            for key in run_keys if key in results
        }
        if self.config.metrics_out:
            self._write_metrics(
                report, wall, run_keys, entry_keys, results, payloads,
                alignments, compare_telemetry, configs, faults,
                triages, triage_telemetry, cache, impact,
            )
        if self.config.trace_out:
            events = list(self.trace.events)
            for key in run_keys:
                payload = payloads.get(key)
                if payload is not None:
                    events.extend(payload.events)
            for key in entry_keys:
                payload = compare_telemetry.get(key)
                if payload is not None:
                    events.extend(payload.events)
            for key in entry_keys:
                payload = triage_telemetry.get(key)
                if payload is not None:
                    events.extend(payload.events)
            write_chrome_trace(
                self.config.trace_out, events,
                lanes=assign_lanes(events, main_pid=self.trace.pid),
                process_name="repro regression batch",
            )
        if self.config.log_out:
            self._write_log(
                report, wall, run_keys, entry_keys, payloads,
                compare_telemetry, configs, tests, seeds, faults,
                triage_telemetry, cache,
            )

    def _worker_lanes(
        self,
        payloads: Dict[Tuple[int, str, int, str], Optional[RunTelemetry]],
        compare_telemetry: Dict[Tuple[int, str, int], RunTelemetry],
        wall: float,
        triage_telemetry: Optional[
            Dict[Tuple[int, str, int], RunTelemetry]] = None,
    ) -> Dict[str, dict]:
        lanes: Dict[int, dict] = {}
        all_payloads = (
            list(payloads.values())
            + list(compare_telemetry.values())
            + list((triage_telemetry or {}).values())
        )
        for payload in all_payloads:
            if payload is None:
                continue
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

    def _write_metrics(self, report, wall, run_keys, entry_keys, results,
                       payloads, alignments, compare_telemetry,
                       configs, faults=None, triages=None,
                       triage_telemetry=None, cache=None,
                       impact=None) -> None:
        import json

        triages = triages or {}
        triage_telemetry = triage_telemetry or {}

        kernel_totals: Dict[str, int] = {}
        phase_totals: Dict[str, float] = {}
        runs: List[dict] = []
        for key in run_keys:
            ci, test, seed, view = key
            result = results.get(key)
            if result is None:
                continue
            if not hasattr(result, "kernel_stats"):
                # A RunFailure stand-in from the resilience layer: the
                # run never completed, so there is nothing to roll up.
                runs.append({
                    "config": configs[ci].name, "test": test, "seed": seed,
                    "view": view, "status": result.status,
                    "error": result.describe(),
                })
                continue
            for name, value in result.kernel_stats.items():
                kernel_totals[name] = kernel_totals.get(name, 0) + value
            payload = payloads.get(key)
            entry = {
                "config": configs[ci].name,
                "test": test,
                "seed": seed,
                "view": view,
                "passed": result.passed,
                "cycles": result.cycles,
                "wall_seconds": round(result.wall_seconds, 6),
                "kernel": dict(result.kernel_stats),
            }
            if result.process_seconds:
                entry["process_seconds"] = {
                    name: [calls, round(seconds, 6)]
                    for name, (calls, seconds)
                    in sorted(result.process_seconds.items())
                }
            if payload is not None:
                entry["queue_wait_seconds"] = round(
                    payload.queue_wait_seconds, 6)
                entry["phase_seconds"] = {
                    name: round(seconds, 6)
                    for name, seconds in sorted(payload.phase_seconds.items())
                }
                for name, seconds in payload.phase_seconds.items():
                    phase_totals[name] = phase_totals.get(name, 0.0) + seconds
            runs.append(entry)
        compares: List[dict] = []
        compared = []
        for key in entry_keys:
            ci, test, seed = key
            payload = compare_telemetry.get(key)
            alignment = alignments.get(key)
            if payload is None and alignment is None:
                continue
            entry = {"config": configs[ci].name, "test": test, "seed": seed}
            if alignment is not None:
                compared.append(alignment)
                entry["min_rate"] = round(alignment.min_rate, 6)
                entry["overall_rate"] = round(alignment.overall_rate, 6)
            if payload is not None:
                entry["seconds"] = round(payload.busy_seconds, 6)
                entry["queue_wait_seconds"] = round(
                    payload.queue_wait_seconds, 6)
                for name, seconds in payload.phase_seconds.items():
                    phase_totals[name] = phase_totals.get(name, 0.0) + seconds
            if alignment is not None and alignment.identical:
                # Which path the comparison took: byte-identical dumps
                # are aligned without expanding a series.
                entry["counters"] = {"analyzer.identical_pairs": 1}
            compares.append(entry)
        triage_rows: List[dict] = []
        for key in entry_keys:
            triage = triages.get(key)
            if triage is None:
                continue
            ci, test, seed = key
            entry = {
                "config": configs[ci].name, "test": test, "seed": seed,
                "reason": triage.reason,
                "verdict": triage.verdict,
                "first_divergence_signal": triage.signal,
                "first_divergence_cycle": triage.cycle,
                "suspect_count": len(triage.suspects),
                "top_suspect": triage.top_suspect,
            }
            payload = triage_telemetry.get(key)
            if payload is not None:
                entry["seconds"] = round(payload.busy_seconds, 6)
                for name, seconds in payload.phase_seconds.items():
                    phase_totals[name] = phase_totals.get(name, 0.0) + seconds
            triage_rows.append(entry)
        payload_out = {
            "schema": METRICS_SCHEMA,
            "batch": {
                "wall_seconds": round(wall, 6),
                "jobs": self.jobs,
                "n_runs": report.n_runs,
                "n_configs": len(configs),
                "all_signed_off": report.all_signed_off,
                "kernel_totals": dict(sorted(kernel_totals.items())),
                "phase_totals": {
                    name: round(seconds, 6)
                    for name, seconds in sorted(phase_totals.items())
                },
                "workers": self._worker_lanes(
                    payloads, compare_telemetry, wall, triage_telemetry),
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

    def _write_log(self, report, wall, run_keys, entry_keys, payloads,
                   compare_telemetry, configs, tests, seeds,
                   faults=None, triage_telemetry=None,
                   cache=None) -> None:
        tmp = self.config.log_out + TMP_SUFFIX
        logger = RunLogger(path=tmp)
        try:
            logger.log(
                "batch.start",
                configs=[c.name for c in configs],
                tests=list(tests),
                seeds=list(seeds),
                jobs=self.jobs,
            )
            for key in run_keys:
                payload = payloads.get(key)
                if payload is not None:
                    for record in payload.records:
                        logger.write_record(record)
            for key in entry_keys:
                payload = compare_telemetry.get(key)
                if payload is not None:
                    for record in payload.records:
                        logger.write_record(record)
            for key in entry_keys:
                payload = (triage_telemetry or {}).get(key)
                if payload is not None:
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
                jobs=self.jobs,
                all_signed_off=report.all_signed_off,
            )
        finally:
            logger.close()
        os.replace(tmp, self.config.log_out)
