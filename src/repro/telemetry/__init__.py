"""Metrics, span tracing and structured run logs for the whole stack.

The measurement substrate under every perf PR: counters/gauges/
histograms (:mod:`~repro.telemetry.metrics`), span-based tracing with
Chrome/Perfetto export where parallel regression workers render as
lanes (:mod:`~repro.telemetry.trace`), JSON-lines run logs carrying
``(config, test, seed, view)`` context (:mod:`~repro.telemetry.runlog`),
and the batch plumbing that threads all three through the kernel, the
regression engine and the analyzer (:mod:`~repro.telemetry.session`).

Design invariants:

* **Near-zero overhead when disabled** — disabled registries and
  collectors hand out shared no-op singletons; instrumented hot paths
  never branch on "is telemetry on".
* **Side channels only** — telemetry goes to its own files (and stderr
  for the batch log line), never stdout; report artifacts are
  byte-identical with and without telemetry.
* **Picklable payloads** — per-run telemetry crosses the regression
  engine's worker-process boundary as plain dicts/lists.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "metrics": ("Counter", "Gauge", "Histogram", "MetricError",
                "MetricRegistry", "NULL_COUNTER", "NULL_GAUGE",
                "NULL_HISTOGRAM", "NULL_REGISTRY",
                "merge_histogram_snapshots"),
    "trace": ("TraceCollector", "NULL_TRACE", "assign_lanes",
              "chrome_trace_payload", "span_seconds", "write_chrome_trace"),
    "runlog": ("RunLogger", "NULL_LOG"),
    "session": ("Telemetry", "NULL_TELEMETRY", "TelemetryConfig",
                "RunRecorder", "RunTelemetry", "BatchTelemetry",
                "PHASE_NAMES", "ALIGNMENT_BUCKETS", "METRICS_SCHEMA"),
    "summarize": ("SummaryError", "summarize_metrics"),
})
