"""Content-addressed, integrity-verified result store for regression runs.

The paper's economic claim is that one reusable environment amortizes
verification effort across models and teams; the logical endpoint is a
verification farm where every batch any engineer has ever run feeds a
shared, dedup'd result pool.  This module is that pool's storage layer:

* **Content-addressed keys.**  Every simulation run is deterministic in
  its coordinates, so its result is addressed by the SHA-256 of
  everything that determines it: the *design-source hash* (the bytes of
  every Python module the simulated models are built from), the
  canonical configuration text, the test name, the seed, the view, the
  injected BCA bug set (BCA view only — the RTL view never sees bugs,
  so its entries stay shared across bug experiments) and the
  arbitration-checker flag.  The ``--kernel`` engine selection is
  deliberately *excluded*: the compiled kernel's contract is
  byte-identical artifacts, so a result produced under either engine
  answers for both.

* **Integrity verification on every read.**  Each entry carries the
  SHA-256 digest of its own canonical body.  A torn entry (killed
  writer before atomic rename existed), a flipped byte (bad disk, bad
  NFS), or a poisoned entry (payload swapped under a key it does not
  belong to) fails verification and is **never served**: it is moved to
  ``quarantine/`` with a structured diagnostic and the run re-executes.

* **Atomic, last-wins writes.**  Entries are staged to a unique temp
  file in the store and published with :func:`os.replace`, so any
  number of concurrent writers (workers of one batch, or many engineers
  sharing one cache directory) race harmlessly: readers see a complete
  old entry, a complete new entry, or no entry — never a torn one.

On a hit the store materializes the run's artifacts (VCD, verification
report, coverage report) byte-for-byte into the requesting batch's
workdir and returns the unpickled
:class:`~repro.catg.env.RunResult`, so a cache-served batch renders
reports identical to one that simulated every cycle.
"""

from __future__ import annotations

import base64
import contextlib
import copy
import hashlib
import json
import os
import pickle
import tempfile
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

#: Schema tag of every entry file; entries from an incompatible schema
#: are quarantined, not misread.
CACHE_SCHEMA = "repro.cache/entry/v1"

#: Schema tag of the structured diagnostic written next to a
#: quarantined entry.
DIAGNOSTIC_SCHEMA = "repro.cache/diagnostic/v1"

#: Environment variable naming a default cache root for the regression
#: CLI (``--cache-dir`` overrides it, ``--no-cache`` ignores it).
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Package subtrees (under ``src/repro``) whose sources determine a
#: simulation result.  Deliberately excludes the orchestration layers
#: (``regression``, ``telemetry``, ``triage``, ``analysis``, ``lint``,
#: ``analyzer``): a change to the scheduler or the report tooling cannot
#: change a single simulated cycle, so it must not invalidate the pool.
DESIGN_ROOTS: Tuple[str, ...] = (
    "kernel", "stbus", "rtl", "bca", "catg", "fabric", "vcd", "oldflow",
)

#: Module-level memo for :func:`design_source_hash` (the sources cannot
#: change under a running process that already imported them).
_DESIGN_HASH: Optional[str] = None


def design_source_hash(roots: Sequence[str] = DESIGN_ROOTS) -> str:
    """SHA-256 over every ``*.py`` file of the design-defining subtrees.

    Hashed as ``relpath NUL content NUL`` in an explicitly sorted walk
    (directories and files both), with ``__pycache__`` trees and
    compiled ``*.pyc`` files skipped and line endings normalized to
    ``\\n``, so renames, additions and edits all change the hash while a
    checkout of identical sources reproduces it on any platform.
    """
    global _DESIGN_HASH
    if roots == DESIGN_ROOTS and _DESIGN_HASH is not None:
        return _DESIGN_HASH
    package_dir = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    digest = hashlib.sha256()
    for root in roots:
        root_dir = os.path.join(package_dir, root)
        for dirpath, dirnames, filenames in os.walk(root_dir):
            dirnames[:] = sorted(
                d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                if not name.endswith(".py") or name.endswith(".pyc"):
                    continue
                full = os.path.join(dirpath, name)
                rel = os.path.relpath(full, package_dir)
                digest.update(rel.replace(os.sep, "/").encode("utf-8"))
                digest.update(b"\0")
                with open(full, "rb") as handle:
                    data = handle.read()
                digest.update(
                    data.replace(b"\r\n", b"\n").replace(b"\r", b"\n"))
                digest.update(b"\0")
    value = digest.hexdigest()
    if roots == DESIGN_ROOTS:
        _DESIGN_HASH = value
    return value


def cache_key(job, design: Optional[str] = None) -> str:
    """The content address of one run's result.

    ``job`` is a :class:`~repro.regression.parallel.RunJob`; ``design``
    overrides the design-source hash (tests, remote pools with a
    pre-agreed hash).
    """
    # Resolve the address map first: elaboration materializes the
    # default map onto the config, so a resolved and an unresolved copy
    # of the same configuration must key identically.
    job.config.resolved_map
    payload = json.dumps({
        "design": design if design is not None else design_source_hash(),
        "config": job.config.to_text(),
        "test": job.test_name,
        "seed": job.seed,
        "view": job.view,
        # The RTL view never executes with bugs (the runner only seeds
        # them into the BCA model), so RTL entries are shared across
        # bug experiments.
        "bugs": sorted(job.bugs) if job.view == "bca" else [],
        "with_arbitration_checker": job.with_arbitration_checker,
    }, sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass
class CacheStats:
    """What one batch (or one process) did to the store."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    verify_failures: int = 0
    quarantined: int = 0

    def counters(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "verify_failures": self.verify_failures,
            "quarantined": self.quarantined,
        }


@dataclass(frozen=True)
class CacheDiagnostic:
    """Structured record of one rejected (quarantined) entry."""

    key: str
    reason: str        # torn-entry | schema-mismatch | digest-mismatch |
                       # key-mismatch | payload-undecodable
    detail: str
    entry_path: str
    quarantine_path: Optional[str]

    def as_record(self) -> Dict[str, object]:
        return {
            "schema": DIAGNOSTIC_SCHEMA,
            "event": "cache.quarantined",
            "key": self.key,
            "reason": self.reason,
            "detail": self.detail,
            "entry_path": self.entry_path,
            "quarantine_path": self.quarantine_path,
        }


def _encode_blob(data: bytes) -> str:
    return base64.b64encode(zlib.compress(data, 6)).decode("ascii")


def _decode_blob(text: str) -> bytes:
    return zlib.decompress(base64.b64decode(text))


def _entry_digest(body: Dict[str, object]) -> str:
    canonical = json.dumps(body, sort_keys=True).encode("utf-8")
    return hashlib.sha256(canonical).hexdigest()


class ResultCache:
    """A content-addressed result store rooted at one directory.

    Layout::

        <root>/objects/<key[:2]>/<key>.json   one entry per result
        <root>/quarantine/<key>.json          rejected entries (+ .diag.json)

    Thread-compatibility: one instance is used from the coordinating
    process only; concurrent *processes* sharing the same root are safe
    by construction (unique temp files + atomic rename, last-wins).
    """

    def __init__(self, root: str, design: Optional[str] = None,
                 design_resolver=None) -> None:
        self.root = root
        self._design = design
        #: Optional per-job design-key resolver (``job -> hash``), used
        #: by incremental regression to substitute a cone-scoped key
        #: (see :mod:`repro.analysis.impact`) for the monolithic
        #: design-source hash.  When unset, every job keys on
        #: ``design`` (default: the design-source hash).
        self._design_resolver = design_resolver
        self.stats = CacheStats()
        #: Structured events (hit/miss/store/quarantine) for the
        #: telemetry run log; drained by the batch exporter.
        self.events: List[Dict[str, object]] = []

    # -- paths --------------------------------------------------------------

    @property
    def design(self) -> str:
        if self._design is None:
            self._design = design_source_hash()
        return self._design

    def design_for(self, job) -> str:
        """The design-key component of ``job``'s cache key."""
        if self._design_resolver is not None:
            return self._design_resolver(job)
        return self.design

    def key_for(self, job) -> str:
        return cache_key(job, design=self.design_for(job))

    def entry_path(self, key: str) -> str:
        return os.path.join(self.root, "objects", key[:2], f"{key}.json")

    def _quarantine_dir(self) -> str:
        return os.path.join(self.root, "quarantine")

    # -- write --------------------------------------------------------------

    def store(self, job, result,
              artifacts: Dict[str, str]) -> Optional[str]:
        """Publish one run's result (and its artifact bytes) under its
        content address.  Returns the entry path (``None`` when the
        result is not cacheable, e.g. an artifact file vanished).

        The stored payload is stripped of per-execution telemetry and
        process timings: those describe *one historical execution*, not
        the result, and must not leak into a later batch's side-channel
        exports.
        """
        key = self.key_for(job)
        clean = copy.copy(result)
        clean.telemetry = None
        clean.process_seconds = {}
        blobs: Dict[str, str] = {}
        try:
            for role, path in sorted(artifacts.items()):
                with open(path, "rb") as handle:
                    blobs[role] = _encode_blob(handle.read())
        except OSError:
            return None
        # Key components are recorded alongside the entry so cache
        # invalidation is diagnosable (`python -m repro.cache explain`):
        # the config *digest* rather than its full text keeps the entry
        # small while still pinpointing which component diverged.
        job.config.resolved_map
        body = {
            "schema": CACHE_SCHEMA,
            "key": key,
            "coords": {
                "config": job.config.name,
                "test": job.test_name,
                "seed": job.seed,
                "view": job.view,
            },
            "key_inputs": {
                "design": self.design_for(job),
                "config_sha256": hashlib.sha256(
                    job.config.to_text().encode("utf-8")).hexdigest(),
                "test": job.test_name,
                "seed": job.seed,
                "view": job.view,
                "bugs": sorted(job.bugs) if job.view == "bca" else [],
                "with_arbitration_checker": job.with_arbitration_checker,
            },
            "payload": _encode_blob(pickle.dumps(clean, protocol=4)),
            "artifacts": blobs,
        }
        body["digest"] = _entry_digest(
            {name: value for name, value in body.items() if name != "digest"}
        )
        path = self.entry_path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            prefix=f".{key[:12]}.", suffix=".tmp~",
            dir=os.path.dirname(path))
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(body, handle, sort_keys=True)
                handle.write("\n")
            os.replace(tmp, path)
        except BaseException:
            with _suppress_oserror():
                os.remove(tmp)
            raise
        self.stats.stores += 1
        self.events.append({
            "event": "cache.store", "key": key, **body["coords"]})
        return path

    # -- read ---------------------------------------------------------------

    def load(self, job, artifacts: Dict[str, str]):
        """Look one run up.  On a verified hit, materialize its artifact
        files at the paths in ``artifacts`` (atomically) and return the
        :class:`~repro.catg.env.RunResult`; on a miss return ``None``.

        A present-but-unverifiable entry (torn, corrupt, poisoned) is
        quarantined with a structured diagnostic and reported as a miss
        — a batch never trusts bytes that fail verification.
        """
        key = self.key_for(job)
        path = self.entry_path(key)
        try:
            with open(path, "rb") as handle:
                raw = handle.read()
        except OSError:
            self._miss(key, job, "no-entry")
            return None
        entry, reason, detail = self._verify(key, raw)
        if entry is None:
            self._quarantine(key, path, reason, detail)
            self._miss(key, job, f"quarantined:{reason}")
            return None
        if not set(artifacts) <= set(entry["artifacts"]):
            # A valid entry stored by a batch that dumped fewer
            # artifacts (e.g. no workdir) cannot satisfy this request;
            # not corruption, just insufficient — plain miss.
            self._miss(key, job, "insufficient-artifacts")
            return None
        try:
            result = pickle.loads(_decode_blob(entry["payload"]))
        except Exception as exc:
            self._quarantine(key, path, "payload-undecodable",
                             f"{type(exc).__name__}: {exc}")
            self._miss(key, job, "quarantined:payload-undecodable")
            return None
        for role, out_path in sorted(artifacts.items()):
            data = _decode_blob(entry["artifacts"][role])
            out_dir = os.path.dirname(out_path) or "."
            fd, tmp = tempfile.mkstemp(
                prefix=f".{key[:12]}.", suffix=".tmp~", dir=out_dir)
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(data)
                os.replace(tmp, out_path)
            except BaseException:
                with _suppress_oserror():
                    os.remove(tmp)
                raise
        self.stats.hits += 1
        self.events.append({
            "event": "cache.hit", "key": key,
            "config": job.config.name, "test": job.test_name,
            "seed": job.seed, "view": job.view,
        })
        return result

    # -- verification -------------------------------------------------------

    @staticmethod
    def _verify(key: str, raw: bytes):
        """Parse + verify one entry's bytes.  Returns
        ``(entry, None, None)`` or ``(None, reason, detail)``."""
        try:
            entry = json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            return None, "torn-entry", f"undecodable JSON: {exc}"
        if not isinstance(entry, dict) \
                or entry.get("schema") != CACHE_SCHEMA:
            return None, "schema-mismatch", (
                f"expected schema {CACHE_SCHEMA!r}, "
                f"got {entry.get('schema') if isinstance(entry, dict) else type(entry).__name__!r}"
            )
        recorded = entry.get("digest")
        body = {name: value for name, value in entry.items()
                if name != "digest"}
        actual = _entry_digest(body)
        if recorded != actual:
            return None, "digest-mismatch", (
                f"entry digest {recorded} does not match its content "
                f"({actual}); refusing to serve"
            )
        if entry.get("key") != key:
            return None, "key-mismatch", (
                f"entry claims key {entry.get('key')} but is addressed "
                f"as {key}; refusing to serve"
            )
        if not isinstance(entry.get("artifacts"), dict) \
                or "payload" not in entry:
            return None, "schema-mismatch", "entry body is incomplete"
        return entry, None, None

    def _miss(self, key: str, job, reason: str = "no-entry") -> None:
        """Count and log one miss, with attribution: ``no-entry`` (cold
        or key changed), ``insufficient-artifacts``, or
        ``quarantined:<verify reason>``."""
        self.stats.misses += 1
        self.events.append({
            "event": "cache.miss", "key": key, "reason": reason,
            "config": job.config.name, "test": job.test_name,
            "seed": job.seed, "view": job.view,
        })

    def _quarantine(self, key: str, path: str, reason: str,
                    detail: str) -> None:
        """Move a rejected entry out of the addressable store and write
        a structured diagnostic next to it.  The entry is *moved*, not
        deleted: the corrupt bytes are evidence."""
        qdir = self._quarantine_dir()
        os.makedirs(qdir, exist_ok=True)
        dest = os.path.join(qdir, os.path.basename(path))
        index = 0
        while os.path.exists(dest):
            index += 1
            dest = os.path.join(
                qdir, f"{os.path.basename(path)}.{index}")
        moved: Optional[str] = dest
        try:
            os.replace(path, dest)
        except OSError:
            moved = None  # someone else already moved/replaced it
        diagnostic = CacheDiagnostic(
            key=key, reason=reason, detail=detail,
            entry_path=path, quarantine_path=moved,
        )
        if moved is not None:
            with _suppress_oserror():
                fd, tmp = tempfile.mkstemp(
                    prefix=".diag.", suffix=".tmp~", dir=qdir)
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    json.dump(diagnostic.as_record(), handle,
                              sort_keys=True, indent=1)
                    handle.write("\n")
                os.replace(tmp, dest + ".diag.json")
        self.stats.verify_failures += 1
        if moved is not None:
            self.stats.quarantined += 1
        self.events.append(diagnostic.as_record())


def _suppress_oserror():
    return contextlib.suppress(OSError)
