"""Command-line front end: ``python -m repro.analysis``.

Examples::

    # analyze the stock node configuration (default when no source given)
    python -m repro.analysis --stock

    # the full built-in sweep, JSON output
    python -m repro.analysis --matrix --format json

    # the *.cfg files of a configuration directory, races only
    python -m repro.analysis configs/ --rules race-delta-overwrite

    # change-impact analysis against a fingerprint baseline
    python -m repro.analysis impact --matrix --baseline baseline.json

Waiver files use the same dialect as ``repro.lint`` (one
``<rule-glob> <location-glob> [# reason]`` per line); one file can waive
findings of both tools.

Exit status: 0 when no error-severity findings remain after waivers,
1 when errors remain (with ``--strict``, warnings too), 2 on usage
errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence

from .races import ANALYSIS_RULES, resolve_analysis_rules
from .runner import ConfigAnalysisReport, analyze_config
from .waivers import Waiver, WaiverError, load_waiver_file

USAGE_EXIT = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-analysis",
        description="Static dataflow analysis: cones of influence, "
                    "race/CDC detection and coverage-unreachability "
                    "(UNR) proofs over elaborated designs.",
    )
    what = parser.add_argument_group("what to analyze (pick one)")
    what.add_argument(
        "config_dir", nargs="?", default=None,
        help="directory of *.cfg node configurations to analyze",
    )
    what.add_argument(
        "--matrix", action="store_true",
        help="analyze the built-in >36-configuration sweep",
    )
    what.add_argument(
        "--small", action="store_true",
        help="with --matrix: reduced 8-configuration subset",
    )
    what.add_argument(
        "--stock", action="store_true",
        help="analyze the stock (default) node configuration",
    )
    parser.add_argument(
        "--view", choices=("rtl", "bca"), action="append", default=None,
        help="restrict to one view (repeatable; default: both, plus the "
             "cross-view cone check)",
    )
    parser.add_argument(
        "--rules", metavar="ID", action="append", default=None,
        help="run only the named rule (repeatable)",
    )
    parser.add_argument(
        "--waivers", metavar="FILE", default=None,
        help="waiver file (same format as repro.lint): one "
             "'<rule-glob> <location-glob> [# reason]' per line",
    )
    parser.add_argument(
        "--waive", metavar="RULE:LOCATION", action="append", default=[],
        help="inline waiver (repeatable), e.g. "
             "--waive 'cdc-crossing:tb.dut.*'",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--no-unr", action="store_false", dest="unr",
        help="skip the coverage-unreachability verdicts (on by default)",
    )
    parser.add_argument(
        "--symbolic", action="store_true",
        help="run the symbolic pass: check per-port functional RTL/BCA "
             "agreement (comb enumeration from reset plus bounded "
             "lockstep), and upgrade the UNR decode verdicts with the "
             "exact interval engine",
    )
    parser.add_argument(
        "--symbolic-budget", metavar="N", type=int, default=None,
        help="comb-cone enumeration budget for --symbolic (points per "
             "cone; larger cones are skipped with a "
             "symbolic-domain-too-large diagnostic)",
    )
    parser.add_argument(
        "--inject-bug", metavar="NAME", action="append", default=[],
        help="with --symbolic: inject a registered BCA bug into the "
             "equivalence harness (repeatable) to check it is caught",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="exit nonzero on warnings too, not only errors",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="list the registered rules and exit",
    )
    return parser


def _load_waivers(args: argparse.Namespace) -> List[Waiver]:
    waivers: List[Waiver] = []
    if args.waivers:
        waivers.extend(load_waiver_file(args.waivers))
    for spec in args.waive:
        rule, sep, location = spec.partition(":")
        if not sep or not rule or not location:
            raise WaiverError(f"--waive expects RULE:LOCATION, got {spec!r}")
        waivers.append(Waiver(rule, location, "command line"))
    return waivers


def _gate(has_errors: bool, has_warnings: bool, strict: bool) -> int:
    if has_errors:
        return 1
    if strict and has_warnings:
        return 1
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "impact":
        # Change-impact analysis is a distinct sub-tool with its own
        # argument surface (manifests in/out rather than rule gating).
        from .impact_cli import main as impact_main

        return impact_main(argv[1:])
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        from ..lint.diagnostics import format_rule_listing, rule_doc

        entries = [
            (rule_id, rule.severity.value, rule.summary,
             rule_doc(rule.check))
            for rule_id, rule in sorted(ANALYSIS_RULES.items())
        ]
        entries.append((
            "xview-cone", "error",
            "RTL and BCA views must give each port the same fan-in cone",
            "Structural check: the two views' per-port fan-in cones "
            "(signal membership) must be identical.",
        ))
        entries.append((
            "xview-function", "error",
            "RTL and BCA must compute the same function per port "
            "(--symbolic)",
            "Functional check: pointwise comb enumeration plus bounded "
            "lockstep execution must agree on every node-driven pin.",
        ))
        entries.append((
            "symbolic-domain-too-large", "info",
            "a comb cone exceeded the enumeration budget (--symbolic)",
            "The cone's input domain was larger than --symbolic-budget; "
            "its pins are covered by the lockstep engine instead.",
        ))
        entries.append((
            "unr-model-unreachable", "error",
            "a coverage-model bin must not be statically unreachable",
            "An in-model coverage bin proven unreachable means 100% "
            "coverage is impossible on this configuration.",
        ))
        print(format_rule_listing(entries))
        return 0

    sources = [bool(args.config_dir), args.matrix, args.stock]
    if sum(sources) > 1:
        parser.print_usage(sys.stderr)
        print("repro-analysis: pick at most one of CONFIG_DIR, --matrix "
              "or --stock", file=sys.stderr)
        return USAGE_EXIT

    try:
        waivers = _load_waivers(args)
        rules = resolve_analysis_rules(args.rules)
    except (WaiverError, ValueError, OSError) as exc:
        print(f"repro-analysis: {exc}", file=sys.stderr)
        return USAGE_EXIT

    if args.matrix:
        from ..regression.configs import configuration_matrix
        configs = configuration_matrix(small=args.small)
    elif args.config_dir:
        from ..regression.configs import load_config_dir
        from ..stbus import ConfigError
        try:
            configs = load_config_dir(args.config_dir)
        except ConfigError as exc:
            print(f"repro-analysis: {exc}", file=sys.stderr)
            return USAGE_EXIT
    else:
        # Default (and --stock): the stock node configuration.
        from ..stbus import NodeConfig
        configs = [NodeConfig()]

    from ..lint.diagnostics import Severity

    if args.inject_bug:
        from ..bca import validate_bugs
        try:
            validate_bugs(args.inject_bug)
        except ValueError as exc:
            print(f"repro-analysis: {exc}", file=sys.stderr)
            return USAGE_EXIT

    views = tuple(args.view) if args.view else ("rtl", "bca")
    reports: List[ConfigAnalysisReport] = []
    for config in configs:
        reports.append(
            analyze_config(config, views=views, rules=rules,
                           waivers=waivers, unr=args.unr,
                           symbolic=args.symbolic,
                           symbolic_budget=args.symbolic_budget,
                           bca_bugs=tuple(args.inject_bug))
        )

    has_errors = any(r.has_errors for r in reports)
    has_warnings = any(
        f.severity is Severity.WARNING and not f.waived
        for r in reports for f in r.all_findings()
    )
    if args.format == "json":
        from . import SCHEMA_VERSION

        print(json.dumps(
            {
                "schema_version": SCHEMA_VERSION,
                "clean": all(r.clean for r in reports),
                "has_errors": has_errors,
                "configs": [r.to_dict() for r in reports],
            },
            indent=2,
        ))
    else:
        for report in reports:
            print(report.render(), end="")
        n_bad = sum(1 for r in reports if r.has_errors)
        print(f"analyzed {len(reports)} configuration(s) x "
              f"{len(views)} view(s): "
              + ("all clean of errors" if not n_bad
                 else f"{n_bad} with errors"))
        if args.symbolic:
            sym = [r.symbolic for r in reports if r.symbolic is not None]
            n_mismatch = sum(len(s.mismatched_ports) for s in sym)
            n_unknown = sum(s.unknown_unr for s in sym)
            print(f"symbolic: {n_mismatch} mismatched port(s), "
                  f"{n_unknown} UNKNOWN UNR verdict(s) across "
                  f"{len(sym)} configuration(s)")
    return _gate(has_errors, has_warnings, args.strict)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
