"""``python -m repro.cache`` — inspect the content-addressed store.

The one command today is ``explain``: print every component of a cache
entry's key so invalidation is diagnosable instead of opaque — the
design key the entry was stored under (cone-scoped, or the
whole-design fallback for a design with an opaque process),
the configuration text digest, test, seed, view, bug set and
arbitration-checker flag, plus the entry's integrity verdict.

Examples::

    # by path
    python -m repro.cache explain cache/objects/ab/ab12...json

    # by key, against a store root
    python -m repro.cache explain ab12... --root cache/
    REPRO_CACHE_DIR=cache/ python -m repro.cache explain ab12...

Exit status: 0 when the entry verifies, 1 when it exists but fails
verification (the reason is printed), 2 on usage errors (missing or
unlocatable entry).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from typing import List, Optional, Sequence

from .store import CACHE_DIR_ENV, ResultCache, design_source_hash, entry_path

USAGE_EXIT = 2

_KEY_RE = re.compile(r"^[0-9a-f]{64}$")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cache",
        description="Inspect the content-addressed result cache.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    explain = sub.add_parser(
        "explain",
        help="print every key component of one cache entry",
        description="Print every component of a cache entry's key "
                    "(design key, config digest, test, seed, "
                    "view, bugs, checker flag) and verify its "
                    "integrity.",
    )
    explain.add_argument(
        "entry",
        help="entry file path, or a 64-hex key to look up under --root "
             "(default root: $REPRO_CACHE_DIR)",
    )
    explain.add_argument(
        "--root", metavar="DIR", default=None,
        help="cache root for key lookups (default: $REPRO_CACHE_DIR)",
    )
    explain.add_argument(
        "--json", action="store_true",
        help="machine-readable output",
    )
    return parser


def _locate(entry: str, root: Optional[str]) -> Optional[str]:
    """Resolve the ``explain`` operand to an entry file path."""
    if os.path.isfile(entry):
        return entry
    if _KEY_RE.match(entry):
        root = root or os.environ.get(CACHE_DIR_ENV) or None
        if root is None:
            return None
        path = entry_path(root, entry)
        if os.path.isfile(path):
            return path
    return None


def _explain(args: argparse.Namespace) -> int:
    path = _locate(args.entry, args.root)
    if path is None:
        if _KEY_RE.match(args.entry) and not (
                args.root or os.environ.get(CACHE_DIR_ENV)):
            print("repro.cache explain: key lookup needs a store root "
                  "(--root or REPRO_CACHE_DIR)", file=sys.stderr)
        else:
            print(f"repro.cache explain: no such entry: {args.entry}",
                  file=sys.stderr)
        return USAGE_EXIT
    with open(path, "rb") as handle:
        raw = handle.read()
    stem = os.path.basename(path)
    key = stem.split(".", 1)[0]
    entry, reason, detail = ResultCache._verify(key, raw)
    if entry is None:
        # Still show whatever parses, so a corrupt entry is diagnosable.
        try:
            parsed = json.loads(raw.decode("utf-8"))
            entry = parsed if isinstance(parsed, dict) else {}
        except (ValueError, UnicodeDecodeError):
            entry = {}
    verified = reason is None
    coords = entry.get("coords") or {}
    key_inputs = entry.get("key_inputs")
    artifacts = entry.get("artifacts") or {}
    current_design = design_source_hash()
    if args.json:
        payload = {
            "entry": path,
            "key": key,
            "schema": entry.get("schema"),
            "verified": verified,
            "coords": coords,
            "key_inputs": key_inputs,
            "artifacts": sorted(artifacts),
            "current_design_hash": current_design,
        }
        if not verified:
            payload["reason"] = reason
            payload["detail"] = detail
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0 if verified else 1
    lines: List[str] = [
        f"entry: {path}",
        f"key: {key}",
        f"schema: {entry.get('schema')}",
        "integrity: verified" if verified
        else f"integrity: FAILED ({reason}: {detail})",
    ]
    if coords:
        lines.append(
            "coords: config={config} test={test} seed={seed} "
            "view={view}".format(**{
                name: coords.get(name) for name in
                ("config", "test", "seed", "view")}))
    if artifacts:
        lines.append("artifacts: " + ", ".join(sorted(artifacts)))
    if key_inputs is None:
        lines.append(
            "key components: not recorded (entry predates "
            "`repro.cache explain`; re-run the batch to upgrade it)")
    else:
        lines.append("key components:")
        design = key_inputs.get("design")
        mode = ("whole-design fallback (opaque process)"
                if design == current_design
                else "cone-scoped design key")
        lines.append(f"  design: {design}")
        lines.append(f"    ({mode}; current design-source hash is "
                     f"{current_design})")
        lines.append(
            f"  config sha256: {key_inputs.get('config_sha256')}")
        lines.append(f"  test: {key_inputs.get('test')}")
        lines.append(f"  seed: {key_inputs.get('seed')}")
        lines.append(f"  view: {key_inputs.get('view')}")
        bugs = key_inputs.get("bugs") or []
        lines.append(
            "  bugs: " + (", ".join(bugs) if bugs else "(none)"))
        lines.append(
            "  with_arbitration_checker: "
            f"{key_inputs.get('with_arbitration_checker')}")
    print("\n".join(lines))
    return 0 if verified else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "explain":
        return _explain(args)
    parser.print_usage(sys.stderr)  # pragma: no cover - unreachable
    return USAGE_EXIT  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
