"""``python -m repro.analysis impact`` — fingerprint manifests and
change-impact reports.

Examples::

    # snapshot the current checkout's fingerprints (the baseline)
    python -m repro.analysis impact --matrix --small --write baseline.json

    # after editing sources: what changed, what must re-run?
    python -m repro.analysis impact --matrix --small --baseline baseline.json

    # machine-readable, over a config directory
    python -m repro.analysis impact configs/ --baseline baseline.json --format json

With ``--baseline`` the report lists the semantically-changed
processes, the affected fan-out cones, and the predicted re-run set;
exit status is 1 when anything is affected, 0 when every design is
provably unaffected.  ``--write`` snapshots the *current* fingerprints
(combinable with ``--baseline`` to diff and then roll the baseline
forward in one invocation).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence

USAGE_EXIT = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-analysis impact",
        description="Static change-impact analysis: per-process "
                    "semantic fingerprints, manifest diffing and "
                    "fan-out-cone re-run prediction.",
    )
    what = parser.add_argument_group("what to fingerprint (pick one)")
    what.add_argument(
        "config_dir", nargs="?", default=None,
        help="directory of *.cfg node configurations",
    )
    what.add_argument(
        "--matrix", action="store_true",
        help="fingerprint the built-in >36-configuration sweep",
    )
    what.add_argument(
        "--small", action="store_true",
        help="with --matrix: reduced 8-configuration subset",
    )
    what.add_argument(
        "--stock", action="store_true",
        help="fingerprint the stock (default) node configuration",
    )
    parser.add_argument(
        "--view", choices=("rtl", "bca"), action="append", default=None,
        help="restrict to one view (repeatable; default: both)",
    )
    parser.add_argument(
        "--baseline", metavar="FILE", default=None,
        help="diff the current fingerprints against this manifest",
    )
    parser.add_argument(
        "--write", metavar="FILE", default=None,
        help="write the current fingerprint manifest to FILE",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (default: text)",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    sources = [bool(args.config_dir), args.matrix, args.stock]
    if sum(sources) > 1:
        parser.print_usage(sys.stderr)
        print("repro-analysis impact: pick at most one of CONFIG_DIR, "
              "--matrix or --stock", file=sys.stderr)
        return USAGE_EXIT
    if not args.baseline and not args.write:
        parser.print_usage(sys.stderr)
        print("repro-analysis impact: nothing to do — pass --baseline "
              "to diff and/or --write to snapshot", file=sys.stderr)
        return USAGE_EXIT

    from .impact import DesignManifest, ImpactIndex, ManifestError

    if args.matrix:
        from ..regression.configs import configuration_matrix
        configs = configuration_matrix(small=args.small)
    elif args.config_dir:
        from ..regression.configs import load_config_dir
        from ..stbus import ConfigError
        try:
            configs = load_config_dir(args.config_dir)
        except ConfigError as exc:
            print(f"repro-analysis impact: {exc}", file=sys.stderr)
            return USAGE_EXIT
    else:
        from ..stbus import NodeConfig
        configs = [NodeConfig()]

    baseline = None
    if args.baseline:
        try:
            baseline = DesignManifest.read(args.baseline)
        except ManifestError as exc:
            print(f"repro-analysis impact: {exc}", file=sys.stderr)
            return USAGE_EXIT

    views = tuple(args.view) if args.view else ("rtl", "bca")
    index = ImpactIndex(configs, views=views,
                        keep_graphs=baseline is not None)
    current = index.manifest()

    notes: List[str] = []
    if args.write:
        current.write(args.write)
        notes.append(
            f"wrote manifest: {len(current.designs)} design(s), "
            f"{current.n_processes} process(es) -> {args.write}")

    if baseline is None:
        if args.format == "json":
            payload = {
                "schema_version": _schema_version(),
                "written": args.write,
                "n_designs": len(current.designs),
                "n_processes": current.n_processes,
                "counters": index.counters(),
            }
            print(json.dumps(payload, indent=2))
        else:
            for note in notes:
                print(note)
        return 0

    from .impact import diff_manifests

    report = diff_manifests(baseline, current, graphs=index.graphs)
    if args.format == "json":
        payload = report.to_dict()
        payload["counters"] = index.counters()
        if args.write:
            payload["written"] = args.write
        print(json.dumps(payload, indent=2))
    else:
        print(report.render(), end="")
        for note in notes:
            print(note)
    return 1 if report.affected else 0


def _schema_version() -> int:
    from . import SCHEMA_VERSION

    return SCHEMA_VERSION


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
