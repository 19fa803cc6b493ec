"""Span tracing and structured run logs for the whole stack.

The measurement substrate under every perf PR: span-based tracing with
Chrome/Perfetto export where parallel regression workers render as
lanes (:mod:`~repro.telemetry.trace`), JSON-lines run logs carrying
``(config, test, seed, view)`` context (:mod:`~repro.telemetry.runlog`),
and the batch plumbing that threads both through the kernel, the
regression engine and the analyzer (:mod:`~repro.telemetry.session`).
Counts and rates are not recorded a second time: the metrics rollup
derives them from the results the batch already holds (kernel stats,
alignment reports, triage reports).

Design invariants:

* **Near-zero overhead when disabled** — disabled collectors and
  loggers are shared no-op singletons; instrumented hot paths never
  branch on "is telemetry on".
* **Side channels only** — telemetry goes to its own files (and stderr
  for the batch log line), never stdout; report artifacts are
  byte-identical with and without telemetry.
* **Picklable payloads** — per-run telemetry crosses the regression
  engine's worker-process boundary as plain dicts/lists.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "trace": ("TraceCollector", "NULL_TRACE", "assign_lanes",
              "span_seconds", "write_chrome_trace"),
    "runlog": ("RunLogger", "NULL_LOG"),
    "session": ("Telemetry", "NULL_TELEMETRY", "TelemetryConfig",
                "RunRecorder", "RunTelemetry", "BatchTelemetry",
                "PHASE_NAMES", "ALIGNMENT_BUCKETS", "METRICS_SCHEMA",
                "alignment_histogram"),
    "summarize": ("SummaryError", "summarize_metrics"),
})
