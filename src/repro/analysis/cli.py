"""Command-line front end: ``python -m repro.analysis``.

Examples::

    # analyze the stock node configuration (default when no source given)
    python -m repro.analysis --stock

    # the full built-in sweep, JSON output
    python -m repro.analysis --matrix --format json

    # the *.cfg files of a configuration directory, races only
    python -m repro.analysis configs/ --rules race-delta-overwrite

    # the structural tier only (the regression's default gate)
    python -m repro.analysis --matrix --rules comb-loop --rules dead-net

    # a deliberately defective demo design (exits nonzero), or a user
    # design: module path + attribute that is (or returns) a Simulator
    python -m repro.analysis --demo
    python -m repro.analysis --design mypkg.mydesign:build

    # change-impact analysis against a fingerprint baseline
    python -m repro.analysis impact --matrix --baseline baseline.json

Waiver files hold one ``<rule-glob> <location-glob> [# reason]`` per
line.

Exit status: 0 when no error-severity findings remain after waivers,
1 when errors remain (with ``--strict``, warnings too), 2 on usage
errors.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from typing import List, Optional, Sequence

from ..kernel import Simulator
from ..lint.diagnostics import Severity
from .rules import RULES, resolve_rules
from .runner import ConfigAnalysisReport, analyze_config, analyze_simulator
from .waivers import Waiver, WaiverError, load_waiver_file

USAGE_EXIT = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-analysis",
        description="Static checker for elaborated designs, run before "
                    "any cycle is simulated: structural design rules, "
                    "race/CDC detection, cones of influence, "
                    "coverage-unreachability (UNR) proofs and per-port "
                    "RTL/BCA agreement.",
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
    what.add_argument(
        "--demo", action="store_true",
        help="analyze a deliberately defective demo design (exits nonzero)",
    )
    what.add_argument(
        "--design", metavar="MODULE:ATTR", default=None,
        help="analyze a user design: ATTR in MODULE must be a Simulator or "
             "a zero-argument callable returning one",
    )
    parser.add_argument(
        "--view", choices=("rtl", "bca"), action="append", default=None,
        help="restrict to one view (repeatable; default: both, plus the "
             "cross-view checks)",
    )
    parser.add_argument(
        "--rules", metavar="ID", action="append", default=None,
        help="run only the named rule (repeatable); a structural rule "
             "adds the cross-view interface check, a dataflow rule the "
             "UNR, cone and agreement checks",
    )
    parser.add_argument(
        "--waivers", metavar="FILE", default=None,
        help="waiver file: one '<rule-glob> <location-glob> [# reason]' "
             "per line",
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
        "--inject-bug", metavar="NAME", action="append", default=[],
        help="inject a registered BCA bug into the RTL/BCA agreement "
             "harness (repeatable) to check it is caught",
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


def _load_design(spec: str) -> Simulator:
    module_name, sep, attr = spec.partition(":")
    if not sep or not module_name or not attr:
        raise ValueError(f"--design expects MODULE:ATTR, got {spec!r}")
    module = importlib.import_module(module_name)
    try:
        obj = getattr(module, attr)
    except AttributeError:
        raise ValueError(f"{module_name!r} has no attribute {attr!r}")
    if callable(obj) and not isinstance(obj, Simulator):
        obj = obj()
    if not isinstance(obj, Simulator):
        raise ValueError(
            f"{spec!r} resolved to {type(obj).__name__}, not a Simulator"
        )
    return obj


def _rule_doc(check) -> str:
    """First paragraph of a rule check function's docstring, collapsed
    onto one line ('' if none): the one place a rule's one-line
    explanation lives."""
    doc = (check.__doc__ or "").strip()
    first_paragraph = doc.split("\n\n", 1)[0]
    return " ".join(line.strip() for line in first_paragraph.splitlines())


#: ``--list-rules`` entries for the config-level checks, which are not
#: per-design rules: (id, tier, severity, summary, doc).
_CONFIG_CHECKS = (
    ("xview-interface", "structural", "error",
     "RTL and BCA views must expose identical port interfaces",
     "Both views of one configuration must declare the same ports with "
     "the same widths."),
    ("xview-cone", "dataflow", "error",
     "RTL and BCA views must give each port the same fan-in cone",
     "The two views' per-port fan-in cones (signal membership) must be "
     "identical."),
    ("xview-function", "dataflow", "error",
     "RTL and BCA must compute the same function per port",
     "Functional check: pointwise comb enumeration plus bounded lockstep "
     "execution must agree on every node-driven pin."),
    ("agreement-domain-too-large", "dataflow", "info",
     "a comb cone exceeded the agreement check's enumeration budget",
     "The cone's input domain was larger than the budget; its pins are "
     "covered by the lockstep engine instead."),
    ("unr-model-unreachable", "dataflow", "error",
     "a coverage-model bin must not be statically unreachable",
     "An in-model coverage bin proven unreachable means 100% coverage is "
     "impossible on this configuration."),
)


def _list_rules() -> str:
    entries = [(rule.id, rule.tier, rule.severity.value, rule.summary,
                _rule_doc(rule.check)) for rule in RULES.values()]
    lines: List[str] = []
    for rule_id, tier, severity, summary, doc in sorted(
            entries + list(_CONFIG_CHECKS)):
        lines.append(f"{rule_id:26s} {tier:10s} {severity:8s} {summary}")
        if doc:
            lines.append(f"{'':46s} {doc}")
    return "\n".join(lines)


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
        print(_list_rules())
        return 0

    sources = [bool(args.config_dir), args.matrix, args.stock, args.demo,
               bool(args.design)]
    if sum(sources) > 1:
        parser.print_usage(sys.stderr)
        print("repro-analysis: pick at most one of CONFIG_DIR, --matrix, "
              "--stock, --demo or --design", file=sys.stderr)
        return USAGE_EXIT

    try:
        waivers = _load_waivers(args)
        rules = resolve_rules(args.rules)
    except (WaiverError, ValueError, OSError) as exc:
        print(f"repro-analysis: {exc}", file=sys.stderr)
        return USAGE_EXIT

    # -- single-design modes -------------------------------------------------
    if args.demo or args.design:
        try:
            if args.view or args.inject_bug:
                raise ValueError("--view and --inject-bug apply to node "
                                 "configurations only")
            if args.demo:
                from ..lint.demo import build_defective_design
                sim = build_defective_design()
                design_name = "lint-demo"
            else:
                sim = _load_design(args.design)
                design_name = args.design
        except (ValueError, ImportError) as exc:
            print(f"repro-analysis: {exc}", file=sys.stderr)
            return USAGE_EXIT
        report = analyze_simulator(sim, design=design_name, rules=rules,
                                   waivers=waivers)
        if args.format == "json":
            print(report.to_json())
        else:
            print(report.render(), end="")
        return _gate(report.has_errors, bool(report.warnings), args.strict)

    # -- configuration modes -------------------------------------------------

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

    views = tuple(args.view) if args.view else ("rtl", "bca")
    if args.inject_bug:
        from ..bca import validate_bugs
        try:
            validate_bugs(args.inject_bug)
            if not {"rtl", "bca"} <= set(views):
                raise ValueError("--inject-bug needs both views: the "
                                 "agreement check is what runs the bug")
        except ValueError as exc:
            print(f"repro-analysis: {exc}", file=sys.stderr)
            return USAGE_EXIT

    reports: List[ConfigAnalysisReport] = []
    for config in configs:
        reports.append(
            analyze_config(config, views=views, rules=rules,
                           waivers=waivers, bca_bugs=tuple(args.inject_bug))
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
        unr = [r.unr for r in reports if r.unr is not None]
        if unr:
            from .unr import UNKNOWN

            agreed = [r.agreement for r in reports
                      if r.agreement is not None]
            n_mismatch = sum(len(a.mismatched_ports) for a in agreed)
            n_unknown = sum(u.counts()[UNKNOWN] for u in unr)
            print(f"{n_mismatch} mismatched port(s) across {len(agreed)} "
                  f"agreement check(s), {n_unknown} UNKNOWN UNR "
                  "verdict(s)")
    return _gate(has_errors, has_warnings, args.strict)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
