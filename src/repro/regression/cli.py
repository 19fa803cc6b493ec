"""Command-line front-end for the regression tool (batch mode).

The original tool's GUI "receives configuration parameters" and "runs
regression tests in batch mode"; this is the batch half.  Usage::

    python -m repro.regression CONFIG_DIR --workdir OUT
        [--tests t02_random_uniform ...] [--seeds 1 2]
        [--bugs lru-recency-stuck ...] [--no-compare]

``CONFIG_DIR`` holds the ``*.cfg`` HDL-parameter files ("it's sufficient
to indicate the directory").  Exit status 0 means every configuration
signed off.
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
from .resilience import ResilienceConfig
from .runner import RegressionRunner
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
                             "serial; 0 = one per available CPU); the "
                             "summary is byte-identical for any N")
    parser.add_argument("--kernel", default="delta",
                        choices=["delta", "compiled", "auto"],
                        help="simulation engine: the interpreted delta "
                             "loop (default), the compiled levelized "
                             "kernel, or auto (compiled only when the "
                             "design levelizes with no feedback); every "
                             "artifact is byte-identical across engines")
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
                             "python -m repro.lint --help)")
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
                                 "TIMEOUT (default: no deadline)")
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
        "distributed execution and result cache",
        "Shard the batch across leased worker processes and/or serve "
        "repeated runs from a content-addressed result cache.  Either "
        "way every artifact stays byte-identical to a plain local "
        "batch.",
    )
    cluster.add_argument("--workers", type=int, default=0, metavar="N",
                         help="distributed worker processes (spawned as "
                              "python -m repro.regression.worker over "
                              "loopback TCP); 0 (default) keeps the "
                              "batch local; if no worker is reachable "
                              "the batch degrades to local execution "
                              "with a warning")
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
    cluster.add_argument("--incremental", action="store_true",
                         help="key cache entries on cone-scoped semantic "
                              "fingerprints (python -m repro.analysis "
                              "impact) instead of the monolithic "
                              "design-source hash: comment-only/"
                              "formatting edits and edits outside a "
                              "design's processes keep their hits; "
                              "everything a change can affect still "
                              "re-executes (requires a cache)")
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


def _lint_gate(configs, waiver_file: Optional[str]) -> int:
    """Lint both views of every configuration; return the number that
    have error-severity findings (each is reported on stderr)."""
    from ..lint import lint_config, parse_waivers

    waivers = ()
    if waiver_file:
        with open(waiver_file, "r", encoding="utf-8") as handle:
            waivers = parse_waivers(handle.read())
    n_bad = 0
    for config in configs:
        result = lint_config(config, waivers=waivers)
        if result.has_errors:
            n_bad += 1
            print(result.render(), end="", file=sys.stderr)
    return n_bad


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    # Flag validation first: a bad flag should fail before any config is
    # loaded or linted.
    if args.jobs < 0:
        print(f"error: --jobs must be >= 0, got {args.jobs}",
              file=sys.stderr)
        return 2
    if args.triage and (args.no_compare or not args.workdir):
        print("error: --triage needs the comparison stage "
              "(a --workdir and no --no-compare)", file=sys.stderr)
        return 2
    if args.max_retries < 0:
        print(f"error: --max-retries must be >= 0, got {args.max_retries}",
              file=sys.stderr)
        return 2
    if args.retry_backoff < 0:
        print("error: --retry-backoff must be >= 0, got "
              f"{args.retry_backoff:g}", file=sys.stderr)
        return 2
    if args.workers < 0:
        print(f"error: --workers must be >= 0, got {args.workers}",
              file=sys.stderr)
        return 2
    if args.cache_dir and args.no_cache:
        print("error: --cache-dir conflicts with --no-cache",
              file=sys.stderr)
        return 2
    if args.incremental:
        has_cache = bool(args.cache_dir) or (
            not args.no_cache
            and bool(os.environ.get(CACHE_DIR_ENV)))
        if not has_cache:
            print("error: --incremental requires a result cache "
                  "(--cache-dir or REPRO_CACHE_DIR)", file=sys.stderr)
            return 2
    if args.run_timeout is not None and args.run_timeout <= 0:
        print(f"error: --run-timeout must be > 0, got {args.run_timeout}",
              file=sys.stderr)
        return 2
    try:
        configs = load_config_dir(args.config_dir)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not args.skip_lint:
        try:
            n_bad = _lint_gate(configs, args.lint_waivers)
        except OSError as exc:
            print(f"error: cannot read lint waivers: {exc}", file=sys.stderr)
            return 2
        except Exception as exc:  # WaiverError and friends
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if n_bad:
            print(f"error: static lint failed for {n_bad} "
                  "configuration(s); fix the findings or rerun with "
                  "--skip-lint", file=sys.stderr)
            return 1
    jobs = args.jobs
    if jobs == 0:
        from .parallel import default_jobs

        jobs = default_jobs()
    cache_dir = args.cache_dir
    if cache_dir is None and not args.no_cache:
        cache_dir = os.environ.get(CACHE_DIR_ENV) or None
    runner = RegressionRunner(
        configs,
        tests=args.tests,
        seeds=args.seeds,
        workdir=args.workdir,
        compare_waveforms=not args.no_compare,
        bca_bugs=set(args.bugs),
        jobs=jobs,
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
        kernel=args.kernel,
        triage=args.triage,
        workers=args.workers,
        cache_dir=cache_dir,
        incremental=args.incremental,
    )
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
        jobs=jobs,
        all_signed_off=report.all_signed_off,
    )
    return 0 if report.all_signed_off else 1
