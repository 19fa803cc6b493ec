"""Command-line front-end for the STBus Analyzer.

Usage::

    python -m repro.analyzer RTL.vcd BCA.vcd [--threshold 0.99]
                                             [--diff] [--ports SCOPE ...]

Prints the per-port alignment table (and optionally the transaction-level
diff) for two dumps of the same test; exit status 0 means the BCA dump
signs off at the threshold on every port.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from ..vcd import VcdParseError
from .align import SIGNOFF_THRESHOLD, compare_vcds, parse_dumps
from .diff import diff_transactions
from .extract import ExtractionError
from .waveview import render_divergence


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.analyzer",
        description="STBus Analyzer: bus-accurate comparison of two VCD "
                    "dumps (RTL vs BCA run of the same seeded test).",
    )
    parser.add_argument("rtl_vcd", help="VCD of the reference (RTL) run")
    parser.add_argument("bca_vcd", help="VCD of the compared (BCA) run")
    parser.add_argument(
        "--threshold", type=float, default=SIGNOFF_THRESHOLD,
        help="per-port sign-off rate (default %(default)s)",
    )
    parser.add_argument(
        "--ports", nargs="*", default=None,
        help="restrict the comparison to these port scopes",
    )
    parser.add_argument(
        "--diff", action="store_true",
        help="also print the transaction-level diff",
    )
    parser.add_argument(
        "--wave", action="store_true",
        help="render a text waveform around each port's first divergence",
    )
    parser.add_argument(
        "--first-divergence", action="store_true",
        help="walk every signal the two dumps share in lockstep and "
             "report the first diverging (signal, cycle) point",
    )
    parser.add_argument(
        "--triage-out", metavar="FILE", default=None,
        help="write a triage.json minimal-repro artifact (implies "
             "--first-divergence); with --config the suspect processes "
             "of the diverging signal's fan-in cone are ranked too",
    )
    parser.add_argument(
        "--config", metavar="FILE", default=None,
        help="the node's *.cfg HDL-parameter file, enabling cone-based "
             "suspect ranking for --first-divergence/--triage-out",
    )
    parser.add_argument(
        "--scoreboard-failed", action="store_true",
        help="declare that an external checker (scoreboard) failed this "
             "run; if the port comparison then finds no functional "
             "divergence, an explicit 'divergence not pin-visible' "
             "diagnostic is printed instead of a bare alignment table",
    )
    parser.add_argument(
        "--metrics-out", metavar="FILE", default=None,
        help="write parse/align timings, the identical-pair count and "
             "the per-port alignment-rate histogram as JSON "
             "(side-channel; stdout is unchanged)",
    )
    parser.add_argument(
        "--trace-out", metavar="FILE", default=None,
        help="write a Chrome/Perfetto trace of the comparison",
    )
    return parser


def _export_telemetry(args, telemetry, report) -> None:
    """Write the analyzer's side-channel metrics/trace files; the counts
    and the rate histogram are derived from ``report``."""
    import json

    from ..ioutil import atomic_write
    from ..telemetry import (
        alignment_histogram,
        assign_lanes,
        span_seconds,
        write_chrome_trace,
    )

    if args.metrics_out:
        payload = {
            "schema": "repro.telemetry/analyzer-metrics/v1",
            "span_seconds": {
                name: round(seconds, 6)
                for name, seconds in sorted(
                    span_seconds(telemetry.trace.events).items())
            },
            "counters": (
                {"analyzer.identical_pairs": 1} if report.identical else {}),
            "histograms": {
                "analyzer.port_alignment_rate": alignment_histogram([report]),
            },
        }
        with atomic_write(args.metrics_out) as handle:
            json.dump(payload, handle, indent=1)
            handle.write("\n")
    if args.trace_out:
        events = telemetry.trace.events
        write_chrome_trace(
            args.trace_out, events,
            lanes=assign_lanes(events, main_pid=telemetry.trace.pid),
            process_name="repro analyzer",
        )


def _run_coordinates(rtl_vcd: str, bca_vcd: str):
    """Recover (config, test, seed) from the regression runner's VCD
    naming scheme ``{config}__{test}__s{seed}__{view}.vcd`` — best
    effort; falls back to neutral placeholders for foreign dumps."""
    import os
    import re

    for path in (rtl_vcd, bca_vcd):
        stem = os.path.splitext(os.path.basename(path))[0]
        match = re.match(r"(?P<cfg>.+)__(?P<test>.+)__s(?P<seed>\d+)__"
                         r"(?:rtl|bca)$", stem)
        if match:
            return (match.group("cfg"), match.group("test"),
                    int(match.group("seed")))
    return "adhoc", "adhoc", 0


def _first_divergence_report(args, dumps, scoreboard_diverged: bool) -> int:
    """The ``--first-divergence``/``--triage-out`` path: lockstep-walk
    the parsed ``dumps``, optionally rank cone suspects and write the
    triage artifact.  Returns an exit status (0 aligned, 1 diverged, 2
    error)."""
    from ..triage import find_first_divergence

    scan = find_first_divergence(*dumps)
    print(scan.summary())
    if scan.only_in_a or scan.only_in_b:
        print(f"  view-private signals skipped: "
              f"{len(scan.only_in_a)} rtl-only, "
              f"{len(scan.only_in_b)} bca-only")
    if scan.truncated:
        print(f"  dumps truncated to the shorter: compared "
              f"{scan.total_cycles} cycle(s)")
    config = None
    if args.config:
        from ..stbus import NodeConfig

        with open(args.config, "r", encoding="utf-8") as handle:
            config = NodeConfig.from_text(handle.read())
    suspects = None
    if scan.first is not None and config is not None:
        from ..triage import rank_suspects

        suspects = rank_suspects(
            config, scan.first.signal, scan.first.cycle, trace=dumps[1],
        )
        if suspects.suspects:
            print("suspects, cone-ranked:")
            for pos, suspect in enumerate(suspects.suspects[:8], 1):
                print(f"  {pos}. {suspect.describe()}")
    if args.triage_out:
        from ..triage import build_triage

        cfg_name, test, seed = _run_coordinates(args.rtl_vcd, args.bca_vcd)
        if config is None:
            print("error: --triage-out needs --config FILE (the node's "
                  "*.cfg) for suspect ranking", file=sys.stderr)
            return 2
        report = build_triage(
            config, test, seed, dumps, scan, suspects,
            paths=(args.rtl_vcd, args.bca_vcd),
            reason="manual", out_path=args.triage_out,
        )
        print(f"triage written: {args.triage_out} "
              f"({report.verdict}, {len(report.suspects)} suspect(s))")
    return 1 if (scan.diverged or scoreboard_diverged) else 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if not 0.0 < args.threshold <= 1.0:
        print("error: threshold must be in (0, 1]", file=sys.stderr)
        return 2
    telemetry = None
    if args.metrics_out or args.trace_out:
        from ..telemetry import Telemetry, TraceCollector

        telemetry = Telemetry(trace=TraceCollector())
    try:
        # Each dump is parsed once; every view below reads these files.
        dumps = parse_dumps(args.rtl_vcd, args.bca_vcd, telemetry)
        report = compare_vcds(*dumps, scopes=args.ports,
                              telemetry=telemetry)
    except (ExtractionError, VcdParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if telemetry is not None:
        _export_telemetry(args, telemetry, report)
    print(report.render(), end="")
    if args.diff:
        try:
            diff = diff_transactions(*dumps, scopes=args.ports)
        except (ExtractionError, VcdParseError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(diff.render(), end="")
    if args.wave:
        for name in sorted(report.ports):
            wave = render_divergence(*dumps, report.ports[name])
            if wave:
                print(wave, end="")
    ports_diverged = any(
        p.first_divergence is not None for p in report.ports.values()
    )
    if args.scoreboard_failed and not ports_diverged:
        # The checker saw a mismatch the dumped port pins never carry —
        # say so explicitly instead of leaving a clean alignment table
        # to contradict the failing run.
        print("diagnostic: divergence not pin-visible — the scoreboard "
              "failed but every compared port pin matches cycle for "
              "cycle; the mismatch lives in state not dumped at these "
              "ports (deepen the dump, or triage with "
              "--first-divergence over a fuller signal set)")
    if args.first_divergence or args.triage_out:
        try:
            status = _first_divergence_report(
                args, dumps, args.scoreboard_failed)
        except (ExtractionError, VcdParseError, OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if status == 2:
            return 2
    signed_off = all(p.rate >= args.threshold for p in report.ports.values())
    if args.scoreboard_failed:
        signed_off = False
    print(f"verdict: {'SIGNED OFF' if signed_off else 'NOT SIGNED OFF'} "
          f"(threshold {args.threshold * 100:.0f}% per port)")
    return 0 if signed_off else 1
