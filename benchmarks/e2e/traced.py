"""Traced regression batch: the CLI in-process, with benchmark-side spans.

``run.py`` starts this as a child process for the per-layer table::

    python benchmarks/e2e/traced.py --out SPANS.json --chrome TRACE.json \
        -- CONFIG_DIR --workdir W ... --metrics-out M.json --time-processes

Everything after ``--`` is handed to ``repro.regression.cli.main``
unchanged, so the traced batch does the same work as a timed round.
Before it runs, the public entry points of every layer are wrapped where
the program looks them up; each wrapper records one span (name, pid,
start, duration, optional args).  Nothing under ``src/`` changes.

Spans recorded inside ``lint_config`` and ``ImpactIndex.__init__`` are
not split further: those two gates count as one layer each.  Pool
workers are forked, so they inherit the wrappers; each worker appends
its spans to ``<out>.spans/<pid>.jsonl`` when its outermost wrapped call
returns.  Clocks are ``time.perf_counter`` (system-wide monotonic on
Linux), so the spans of all processes and the parent's spawn time share
one time base.
"""

from __future__ import annotations

import argparse
import copy
import functools
import glob
import json
import os
import pickle
import sys
import time


class SpanRecorder:
    """Spans of one process; forked children start empty."""

    def __init__(self, span_dir: str) -> None:
        self.span_dir = span_dir
        self.main_pid = os.getpid()
        #: Objects main() inspects after the batch (the report, the
        #: result cache, the impact index, stored entry paths).
        self.captured = {"store_paths": []}
        self.reset()

    def reset(self) -> None:
        self.pid = os.getpid()
        self.spans = []
        self.depth = 0
        self.opaque = 0

    def record(self, name, start, end, args=None) -> None:
        event = {"name": name, "pid": self.pid, "ts": start,
                 "dur": end - start}
        if args:
            event["args"] = args
        self.spans.append(event)

    def wrap(self, name, fn, *, opaque=False, on_return=None):
        """``fn`` with a span around each call.  ``on_return(call_args,
        result)`` runs after the span closes and may return span args."""
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if recorder.opaque:
                return fn(*args, **kwargs)
            recorder.depth += 1
            recorder.opaque += opaque
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                recorder.depth -= 1
                recorder.opaque -= opaque
            extra = on_return(args, result) if on_return else None
            recorder.record(name, start, end, extra)
            if recorder.depth == 0 and recorder.pid != recorder.main_pid:
                recorder.flush()
            return result

        return wrapper

    def flush(self) -> None:
        path = os.path.join(self.span_dir, f"{self.pid}.jsonl")
        with open(path, "a", encoding="utf-8") as handle:
            for event in self.spans:
                handle.write(json.dumps(event) + "\n")
        self.spans = []

    def all_spans(self):
        spans = list(self.spans)
        for path in sorted(glob.glob(os.path.join(self.span_dir, "*.jsonl"))):
            with open(path, "r", encoding="utf-8") as handle:
                spans.extend(json.loads(line) for line in handle)
        return spans


def _env_run_args(call_args, result):
    """Per-run split of ``VerificationEnv.run``: kernel counters, DUT and
    testbench process seconds (``--time-processes``) and the program's
    own ``finalize`` phase span."""
    env = call_args[0]
    dut_s = sum(seconds for name, (_, seconds)
                in result.process_seconds.items()
                if name.startswith("tb.dut."))
    tb_s = sum(seconds for _, seconds in result.process_seconds.values())
    finalize_us = [event["dur"] for event in env.telemetry.trace.events
                   if event.get("name") == "finalize"]
    return dict(
        result.kernel_stats,
        view=env.view,
        signals=len(env.sim.signals),
        dut_s=dut_s,
        tb_s=tb_s - dut_s,
        finalize_s=finalize_us[-1] / 1e6 if finalize_us else 0.0,
    )


def install(recorder: SpanRecorder) -> None:
    """Wrap each layer's public entry point where the program calls it."""
    import repro.analyzer.align as align
    import repro.lint
    import repro.regression.parallel as parallel
    import repro.regression.resilience as resilience
    from repro.analysis.impact import ImpactIndex
    from repro.cache import ResultCache
    from repro.catg.env import VerificationEnv
    from repro.kernel.simulator import Simulator
    from repro.regression.runner import RegressionRunner
    from repro.vcd.writer import VcdWriter

    captured = recorder.captured

    def patch(owner, attr, name=None, **kwargs):
        label = name or f"{owner.__name__}.{attr}"
        setattr(owner, attr,
                recorder.wrap(label, getattr(owner, attr), **kwargs))

    def keep_self(key):
        def on_return(call_args, result):
            captured[key] = call_args[0]
        return on_return

    def on_store(call_args, path):
        captured["cache"] = call_args[0]
        if path:
            captured["store_paths"].append(path)

    patch(repro.lint, "lint_config", "lint_config", opaque=True)
    patch(ImpactIndex, "__init__", opaque=True,
          on_return=keep_self("impact"))
    patch(RegressionRunner, "run",
          on_return=lambda call_args, report: captured.update(report=report))
    patch(ResultCache, "load", on_return=keep_self("cache"))
    patch(ResultCache, "store", on_return=on_store)
    patch(resilience, "execute_run_job", "execute_run_job")
    patch(resilience, "execute_compare_job", "execute_compare_job")
    patch(parallel, "build_test", "build_test")
    patch(parallel, "write_run_reports", "write_run_reports")
    patch(parallel, "compare_vcds", "compare_vcds",
          on_return=lambda a, report: {"cycles": report.total_cycles})
    patch(align, "parse_vcd", "parse_vcd")
    patch(VerificationEnv, "__init__")
    patch(VerificationEnv, "run", on_return=_env_run_args)
    patch(Simulator, "elaborate")
    for attr in ("declare", "sample_changes", "finish"):
        patch(VcdWriter, attr)


def _extras(captured):
    """Byte and count layers read off the objects the batch left behind."""
    extras = {"result_bytes": 0, "cache_bytes_read": 0,
              "cache_bytes_written": 0, "impact_processes": 0}
    report = captured.get("report")
    if report is not None:
        for config in report.configs:
            for entry in config.entries:
                for view in (entry.rtl, entry.bca):
                    # What a worker ships back in an untraced batch: no
                    # telemetry payload, no per-process timings.  The
                    # dump path shrinks to its file name so the count
                    # does not depend on where the checkout lives.
                    clean = copy.copy(view)
                    clean.telemetry = None
                    clean.process_seconds = {}
                    clean.vcd_path = os.path.basename(clean.vcd_path or "")
                    extras["result_bytes"] += len(pickle.dumps(clean))
    cache = captured.get("cache")
    if cache is not None:
        extras["cache_bytes_read"] = sum(
            os.path.getsize(cache.entry_path(event["key"]))
            for event in cache.events if event.get("event") == "cache.hit")
    extras["cache_bytes_written"] = sum(
        os.path.getsize(path) for path in captured["store_paths"])
    impact = captured.get("impact")
    if impact is not None:
        extras["impact_processes"] = impact.counters()["impact.processes"]
    return extras


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", required=True, help="spans JSON to write")
    parser.add_argument("--chrome", required=True,
                        help="Chrome/Perfetto trace to write")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] \
        else args.cli_args

    span_dir = args.out + ".spans"
    os.makedirs(span_dir, exist_ok=True)
    recorder = SpanRecorder(span_dir)
    os.register_at_fork(after_in_child=recorder.reset)

    start = time.perf_counter()
    import repro.regression.cli as cli
    from repro.telemetry import write_chrome_trace
    recorder.record("startup.import", start, time.perf_counter())
    install(recorder)
    rc = recorder.wrap("regression.cli", cli.main)(cli_args)
    end = time.perf_counter()

    spans = recorder.all_spans()
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump({
            "end_ts": end, "rc": rc,
            "main_pid": recorder.main_pid, "spans": spans,
            "extras": _extras(recorder.captured),
        }, handle)
    write_chrome_trace(args.chrome, [
        {"name": span["name"], "ph": "X", "pid": span["pid"],
         "ts": int(span["ts"] * 1e6), "dur": int(span["dur"] * 1e6),
         **({"args": span["args"]} if "args" in span else {})}
        for span in spans
    ], process_name="repro regression batch (benchmark spans)")
    return rc


if __name__ == "__main__":
    sys.exit(main())
