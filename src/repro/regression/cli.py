"""Command-line front-end for the regression tool (batch mode).

The original tool's GUI "receives configuration parameters" and "runs
regression tests in batch mode"; this is the batch half.  Usage::

    python -m repro.regression CONFIG_DIR --workdir OUT
        [--tests t02_random_uniform ...] [--seeds 1 2]
        [--bugs lru-recency-stuck ...] [--no-compare]

``CONFIG_DIR`` holds the ``*.cfg`` HDL-parameter files ("it's sufficient
to indicate the directory").  The flags build one
:class:`~repro.regression.spec.BatchSpec`, which validates them.  Exit
status 0 means every configuration signed off, 1 that one did not or
that the static gate failed, 2 a usage error.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
from typing import List, Optional

from ..bca import ALL_BUGS
from ..cache import CACHE_DIR_ENV
from ..stbus import ConfigError
from ..telemetry import RunLogger, TelemetryConfig
from .configs import load_config_dir
from .parallel import default_jobs
from .runner import RegressionRunner
from .spec import BatchSpec, BatchSpecError, ResilienceConfig
from .testcases import TESTCASES


def _raise_interrupt(signum, frame) -> None:
    """SIGTERM handler: funnel into the KeyboardInterrupt abort path."""
    raise KeyboardInterrupt()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.regression",
        description="Run the common verification regression: the same "
                    "seeded test suite on the RTL and BCA views of every "
                    "configuration, with VCD dumps and bus-accurate "
                    "comparison.",
    )
    parser.add_argument("config_dir",
                        help="directory of *.cfg HDL-parameter files")
    parser.add_argument("--workdir", default=None,
                        help="output directory for VCDs and reports "
                             "(omit to skip dumping and comparison)")
    parser.add_argument("--tests", nargs="*", default=None,
                        choices=sorted(TESTCASES), metavar="TEST",
                        help="test cases to run (default: all twelve)")
    parser.add_argument("--seeds", nargs="*", type=int, default=[1, 2],
                        help="seeds applied to every test (default: 1 2)")
    parser.add_argument("--bugs", nargs="*", default=(),
                        choices=sorted(ALL_BUGS), metavar="BUG",
                        help="seed these bugs into the BCA view "
                             "(experiments only)")
    parser.add_argument("--jobs", "-j", type=int, default=1, metavar="N",
                        help="worker processes for the batch (default: 1, "
                             "serial in this process; 0 = one per "
                             "available CPU); the summary is "
                             "byte-identical for any N")
    parser.add_argument("--no-compare", action="store_true",
                        help="skip the bus-accurate comparison")
    parser.add_argument("--triage", action="store_true",
                        help="auto-triage failed entries: locate the first "
                             "diverging (signal, cycle) point between the "
                             "two dumps, rank the fan-in cone suspects and "
                             "write a triage.json minimal repro per "
                             "failure (requires the comparison stage)")
    parser.add_argument("--skip-lint", action="store_true",
                        help="skip the static lint gate that checks both "
                             "views of every configuration before running")
    parser.add_argument("--lint-waivers", metavar="FILE", default=None,
                        help="waiver file for the lint gate (see "
                             "python -m repro.analysis --help)")
    parser.add_argument("--unr", action="store_true",
                        help="annotate each per-config report with the "
                             "static coverage-unreachability verdicts "
                             "(see python -m repro.analysis --help); off "
                             "by default and the reports are then "
                             "byte-identical to a run without this flag")
    resilience = parser.add_argument_group(
        "fault tolerance",
        "Crash isolation is always on: a crashed/hung run becomes an "
        "ERROR/TIMEOUT entry in the report instead of aborting the "
        "batch.  These flags tune deadlines and retries; to resume an "
        "interrupted batch, rerun it against the same --cache-dir.",
    )
    resilience.add_argument("--run-timeout", type=float, default=None,
                            metavar="SECONDS",
                            help="wall-clock deadline per run/comparison; "
                                 "a run past it is killed and recorded as "
                                 "TIMEOUT; with --jobs 1 the batch then "
                                 "runs in one worker process (default: no "
                                 "deadline)")
    resilience.add_argument("--max-retries", type=int, default=2,
                            metavar="N",
                            help="retries for a crashed/timed-out job "
                                 "before it is quarantined (default: "
                                 "%(default)s)")
    resilience.add_argument("--retry-backoff", type=float, default=0.25,
                            metavar="SECONDS",
                            help="base delay before a retry; doubles per "
                                 "attempt (default: %(default)s)")
    cluster = parser.add_argument_group(
        "result cache",
        "Serve repeated runs from a content-addressed result cache; "
        "every artifact stays byte-identical to an uncached batch.",
    )
    cluster.add_argument("--cache-dir", metavar="DIR", default=None,
                         help="root of the content-addressed result "
                              "cache; verified hits replay runs without "
                              "simulating, corrupt entries are "
                              "quarantined and re-executed; every run is "
                              "stored as it completes, so rerunning an "
                              "interrupted batch against the same cache "
                              "resumes it (default: $REPRO_CACHE_DIR if "
                              "set)")
    cluster.add_argument("--no-cache", action="store_true",
                         help="disable the result cache even when "
                              "REPRO_CACHE_DIR is set")
    telemetry = parser.add_argument_group(
        "telemetry",
        "Side-channel observability files; none of them changes a "
        "report artifact or a byte on stdout.",
    )
    telemetry.add_argument("--metrics-out", metavar="FILE", default=None,
                           help="write the per-batch metrics rollup (JSON; "
                                "digest it with python -m repro.telemetry "
                                "summarize FILE)")
    telemetry.add_argument("--trace-out", metavar="FILE", default=None,
                           help="write a Chrome/Perfetto trace of the batch "
                                "(one lane per worker process)")
    telemetry.add_argument("--log-json", metavar="FILE", default=None,
                           help="write a structured JSON-lines run log")
    telemetry.add_argument("--time-processes", action="store_true",
                           help="also record per-process kernel wall time "
                                "(slower; implies nothing unless a "
                                "telemetry output is set)")
    return parser


#: The flag behind each spec field a validation error can name.
_FLAGS = {
    "jobs": "--jobs",
    "triage": "--triage",
    "lint_waivers": "--lint-waivers",
    "run_timeout": "--run-timeout",
    "max_retries": "--max-retries",
    "backoff": "--retry-backoff",
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    # Every flag is checked (here, or by the spec) before any config is
    # loaded or linted.
    if args.cache_dir and args.no_cache:
        print("error: --cache-dir conflicts with --no-cache",
              file=sys.stderr)
        return 2
    cache_dir = args.cache_dir
    if cache_dir is None and not args.no_cache:
        cache_dir = os.environ.get(CACHE_DIR_ENV) or None
    try:
        spec = BatchSpec(
            tests=args.tests,
            seeds=args.seeds,
            workdir=args.workdir,
            compare=not args.no_compare,
            bca_bugs=args.bugs,
            jobs=default_jobs() if args.jobs == 0 else args.jobs,
            telemetry=TelemetryConfig(
                metrics_out=args.metrics_out,
                trace_out=args.trace_out,
                log_out=args.log_json,
                time_processes=args.time_processes,
            ),
            resilience=ResilienceConfig(
                run_timeout=args.run_timeout,
                max_retries=args.max_retries,
                backoff=args.retry_backoff,
            ),
            unr=args.unr,
            triage=args.triage,
            cache_dir=cache_dir,
            lint=not args.skip_lint,
            lint_waivers=args.lint_waivers,
        )
    except BatchSpecError as exc:
        print(f"error: {_FLAGS[exc.field]} {exc.problem}", file=sys.stderr)
        return 2
    try:
        configs = load_config_dir(args.config_dir)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    runner = RegressionRunner(configs, spec)
    failed = runner.gate().failed
    if failed:
        for result in failed:
            print(result.render(), end="", file=sys.stderr)
        print(f"error: static lint failed for {len(failed)} "
              "configuration(s); fix the findings or rerun with "
              "--skip-lint", file=sys.stderr)
        return 1
    # A farm scheduler evicts with SIGTERM, an operator with Ctrl-C;
    # both deserve the same clean abort: the cache stores each run as it
    # completes, so everything finished so far is resumable.
    previous_term = None
    try:
        previous_term = signal.signal(signal.SIGTERM, _raise_interrupt)
    except ValueError:
        pass  # not the main thread (embedded use); SIGINT still works
    try:
        report = runner.run()
    except KeyboardInterrupt:
        hint = (
            f"; rerun with --cache-dir {cache_dir} to resume"
            if cache_dir else ""
        )
        print(f"interrupted: batch aborted{hint}", file=sys.stderr)
        return 130
    finally:
        if previous_term is not None:
            signal.signal(signal.SIGTERM, previous_term)
    print(report.render(), end="")
    # Timing goes to stderr as a structured record so stdout (and the
    # summary artifact) stay byte-identical between serial and parallel
    # runs — and between instrumented and plain ones.
    RunLogger(stream=sys.stderr).log(
        "batch.complete",
        n_runs=report.n_runs,
        n_configs=len(configs),
        wall_seconds=round(report.wall_seconds, 3),
        jobs=spec.jobs,
        all_signed_off=report.all_signed_off,
    )
    return 0 if report.all_signed_off else 1
