"""``python -m repro.cache`` — inspect the content-addressed store.

The one command today is ``explain``: print every component of a cache
entry's key so invalidation is diagnosable instead of opaque — the
design key the entry was stored under (cone-scoped, or the
whole-design fallback for a design with an opaque process),
the configuration text digest, test, seed, view, bug set and
arbitration-checker flag, plus the entry's integrity verdict.  For a
run entry the verdict covers its artifact blobs too: each must exist
under the store's ``blobs/`` and hash to the digest it is named by, and
a missing or corrupt blob is named.  The store root is the one the
entry sits in (``<root>/objects/``), else ``--root`` or
``$REPRO_CACHE_DIR``; an entry file outside any store with no root
given has its blobs reported as not checked.  A
source-summary entry (``sources/``) shows its kind, its integrity
verdict and what its key hashed: the entry schema, the interpreter
version and the digests of ``analysis/impact.py`` and of the source.

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

from . import CACHE_DIR_ENV
from .store import (
    CACHE_SCHEMA,
    SOURCE_SCHEMA,
    ResultCache,
    blob_path,
    design_source_hash,
    entry_path,
    file_sha256,
    source_path,
)

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
        for where in (entry_path, source_path):
            path = where(root, entry)
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
    # Whatever parses is shown even when verification fails, so a
    # corrupt entry is diagnosable.
    try:
        parsed = json.loads(raw.decode("utf-8"))
        entry = parsed if isinstance(parsed, dict) else {}
    except (ValueError, UnicodeDecodeError):
        entry = {}
    # A source summary says so, or lives under ``sources/``.
    store_dir = os.path.dirname(os.path.dirname(os.path.abspath(path)))
    schema = (SOURCE_SCHEMA if entry.get("schema") == SOURCE_SCHEMA
              or os.path.basename(store_dir) == "sources"
              else CACHE_SCHEMA)
    reason, detail = ResultCache._verify(key, raw, schema)[1:]
    if schema == SOURCE_SCHEMA:
        return _explain_source(args, path, key, entry, reason, detail)
    coords = entry.get("coords") or {}
    key_inputs = entry.get("key_inputs")
    artifacts = entry.get("artifacts") or {}
    root = (os.path.dirname(store_dir)
            if os.path.basename(store_dir) == "objects"
            else args.root or os.environ.get(CACHE_DIR_ENV) or None)
    blobs = None
    if reason is None and root is not None:
        blobs = _check_blobs(root, artifacts)
        for role, status in sorted(blobs.items()):
            if status["state"] != "ok":
                reason = ("missing-blob" if status["state"] == "missing"
                          else "blob-mismatch")
                detail = f"artifact {role!r}: {status['detail']}"
                break
    verified = reason is None
    current_design = design_source_hash()
    if args.json:
        payload = {
            "entry": path,
            "key": key,
            "kind": "run",
            "schema": entry.get("schema"),
            "verified": verified,
            "coords": coords,
            "key_inputs": key_inputs,
            "artifacts": sorted(artifacts),
            "blobs": blobs,
            "current_design_hash": current_design,
        }
        if not verified:
            payload["reason"] = reason
            payload["detail"] = detail
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0 if verified else 1
    lines = _header(path, key, "run", entry, reason, detail)
    if coords:
        lines.append(
            "coords: config={config} test={test} seed={seed} "
            "view={view}".format(**{
                name: coords.get(name) for name in
                ("config", "test", "seed", "view")}))
    if artifacts:
        lines.append("artifacts: " + ", ".join(sorted(artifacts)))
    if blobs is not None:
        lines.append("blobs:")
        lines.extend(
            f"  {role}: {status['digest']} {status['state']}"
            + ("" if status["state"] == "ok" else f" ({status['detail']})")
            for role, status in sorted(blobs.items()))
    elif reason is None:
        lines.append("blobs: not checked (entry is outside a store's "
                     "objects/; pass --root)")
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
    print("\n".join(lines))
    return 0 if verified else 1


def _check_blobs(root: str, digests: dict) -> dict:
    """Per artifact role: the blob's digest and ``state`` — ``ok``,
    ``missing`` or ``corrupt`` — with a ``detail`` naming the file."""
    report = {}
    for role, digest in digests.items():
        path = blob_path(root, digest)
        try:
            actual = file_sha256(path)
        except FileNotFoundError:
            report[role] = {"digest": digest, "state": "missing",
                            "detail": f"no blob at {path}"}
            continue
        report[role] = (
            {"digest": digest, "state": "ok"} if actual == digest else
            {"digest": digest, "state": "corrupt",
             "detail": f"blob {path} hashes to {actual}"})
    return report


def _header(path: str, key: str, kind: str, entry: dict,
            reason: Optional[str], detail: Optional[str]) -> List[str]:
    return [
        f"entry: {path}",
        f"key: {key}",
        f"kind: {kind}",
        f"schema: {entry.get('schema')}",
        "integrity: verified" if reason is None
        else f"integrity: FAILED ({reason}: {detail})",
    ]


def _explain_source(args: argparse.Namespace, path: str, key: str,
                    entry: dict, reason: Optional[str],
                    detail: Optional[str]) -> int:
    """``explain`` for a source-summary entry."""
    key_inputs = entry.get("key_inputs")
    if args.json:
        payload = {"entry": path, "key": key, "kind": "source",
                   "schema": entry.get("schema"),
                   "verified": reason is None, "key_inputs": key_inputs}
        if reason is not None:
            payload.update(reason=reason, detail=detail)
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        lines = _header(path, key, "source summary", entry, reason, detail)
        if isinstance(key_inputs, dict):
            lines.append("key components:")
            lines.extend(f"  {name}: {value}"
                         for name, value in sorted(key_inputs.items()))
        print("\n".join(lines))
    return 0 if reason is None else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "explain":
        return _explain(args)
    parser.print_usage(sys.stderr)  # pragma: no cover - unreachable
    return USAGE_EXIT  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
