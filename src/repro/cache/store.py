"""Content-addressed, integrity-verified result store for regression runs.

The paper's economic claim is that one reusable environment amortizes
verification effort across models and teams; the logical endpoint is a
verification farm where every batch any engineer has ever run feeds a
shared, dedup'd result pool.  This module is that pool's storage layer:

* **Content-addressed keys.**  Every simulation run is deterministic in
  its coordinates, so its result is addressed by the SHA-256 of
  everything that determines it: the *design key* of its (config, view)
  (the cone-scoped key from :class:`repro.analysis.impact.ImpactIndex`:
  the environment residual plus the fingerprints of the design's
  processes, or :func:`design_source_hash` when a process is opaque),
  the canonical configuration text, the test name, the seed, the view,
  and the injected BCA bug set (BCA view only — the RTL view never
  sees bugs, so its entries stay shared across bug experiments).

* **Integrity verification on every read.**  Each entry carries the
  SHA-256 digest of its own canonical body, and names each artifact by
  the SHA-256 of its bytes.  A torn entry (killed writer before atomic
  rename existed), a flipped byte (bad disk, bad NFS), a poisoned entry
  (payload swapped under a key it does not belong to) or an artifact
  whose bytes no longer hash to their name fails verification and is
  **never served**: it is moved to ``quarantine/`` with a structured
  diagnostic and the run re-executes.

* **Atomic, last-wins writes.**  Entries are staged to a unique temp
  file in the store and published with :func:`os.replace`, so any
  number of concurrent writers (workers of one batch, or many engineers
  sharing one cache directory) race harmlessly: readers see a complete
  old entry, a complete new entry, or no entry — never a torn one.

* **Artifacts stored once, served by hard link.**  Each artifact's
  bytes live once, as the plain file ``blobs/<sha256[:2]>/<sha256>``
  shared by every entry that produced them.  On a hit the store hard
  links each blob next to its target in the requesting batch's workdir,
  hashes the linked file and moves it into place, so a cache-served
  batch renders reports byte-identical to one that simulated every
  cycle without writing a byte of artifact data.  Only where the
  filesystem cannot link (the cache on another device, no hard-link
  support) are the bytes copied.  Blob and workdir file then share one
  inode: every writer in this package replaces an artifact with
  :func:`os.replace` rather than writing it in place, and a blob
  damaged through a link fails the hash on its next hit.
"""

from __future__ import annotations

import base64
import contextlib
import copy
import json
import os
import pickle
import re
import tempfile
import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..digest import file_sha256, sha256

#: Schema tag of every entry file; entries from an incompatible schema
#: (v1 embedded its artifacts) are quarantined, not misread.
CACHE_SCHEMA = "repro.cache/entry/v2"

#: Schema tag of a source-summary entry (see
#: :class:`repro.analysis.impact.ImpactIndex`), the store's second
#: entry kind.
SOURCE_SCHEMA = "repro.cache/source/v1"

#: Schema tag of the structured diagnostic written next to a
#: quarantined entry.
DIAGNOSTIC_SCHEMA = "repro.cache/diagnostic/v1"

#: Package subtrees (under ``src/repro``) whose sources determine a
#: simulation result: the packages a cached job runs.  Deliberately
#: excludes the orchestration layers (``regression``, ``telemetry``,
#: ``triage``, ``analysis``, ``lint``, ``analyzer``, ``cache``): a change
#: to the scheduler or the report tooling cannot change a single
#: simulated cycle, so it must not invalidate the pool.  Packages no
#: cached job imports (``fabric``, ``oldflow``) are left out for the
#: same reason.
DESIGN_ROOTS: Tuple[str, ...] = (
    "kernel", "stbus", "rtl", "bca", "catg", "vcd",
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
    digest = sha256()
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


def cache_key(job, design: str) -> str:
    """The content address of one run's result.

    ``job`` is a :class:`~repro.regression.parallel.RunJob`; ``design``
    is the design key of its (config, view).
    """
    # Resolve the address map first: elaboration materializes the
    # default map onto the config, so a resolved and an unresolved copy
    # of the same configuration must key identically.
    job.config.resolved_map
    payload = json.dumps({
        "design": design,
        "config": job.config.to_text(),
        "test": job.test_name,
        "seed": job.seed,
        "view": job.view,
        # The RTL view never executes with bugs (the runner only seeds
        # them into the BCA model), so RTL entries are shared across
        # bug experiments.
        "bugs": sorted(job.bugs) if job.view == "bca" else [],
    }, sort_keys=True)
    return sha256(payload.encode("utf-8")).hexdigest()


def entry_path(root: str, key: str) -> str:
    """Where the entry for ``key`` lives under the store ``root``."""
    return os.path.join(root, "objects", key[:2], f"{key}.json")


def source_path(root: str, key: str) -> str:
    """Where the source summary for ``key`` lives under ``root``."""
    return os.path.join(root, "sources", key[:2], f"{key}.json")


def blob_path(root: str, digest: str) -> str:
    """Where the artifact bytes whose SHA-256 is ``digest`` live."""
    return os.path.join(root, "blobs", digest[:2], digest)


#: What an entry may name a blob by: nothing that could leave ``blobs/``.
_DIGEST_RE = re.compile(r"[0-9a-f]{64}\Z")


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
                       # key-mismatch | payload-undecodable | blob-mismatch
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


def _encode_field(data: bytes) -> str:
    """Bytes as JSON text: the pickled payload, a source summary."""
    return base64.b64encode(zlib.compress(data, 6)).decode("ascii")


def _decode_field(text: str) -> bytes:
    return zlib.decompress(base64.b64decode(text))


def _temp_name(directory: str) -> str:
    """A fresh temp path in ``directory``, unique across processes and
    hosts sharing the store, for a link that must not exist yet."""
    return os.path.join(directory, f".{os.urandom(8).hex()}.tmp~")


def _link_or_copy(src: str, dest: str) -> str:
    """Hard link ``src`` at the new path ``dest`` and return the SHA-256
    of the file now at ``dest``.  Where the filesystem refuses the link
    (another device, no hard links, the link limit) the bytes are
    copied instead.  A missing ``src`` raises :class:`FileNotFoundError`.
    """
    try:
        os.link(src, dest)
    except FileNotFoundError:
        raise
    except OSError:
        with open(src, "rb") as handle:
            data = handle.read()
        with open(dest, "xb") as handle:
            handle.write(data)
        return sha256(data).hexdigest()
    return file_sha256(dest)


def _entry_digest(body: Dict[str, object]) -> str:
    canonical = json.dumps(body, sort_keys=True).encode("utf-8")
    return sha256(canonical).hexdigest()


class ResultCache:
    """A content-addressed result store rooted at one directory.

    Layout::

        <root>/objects/<key[:2]>/<key>.json   one entry per result
        <root>/blobs/<sha[:2]>/<sha>          one file per distinct artifact
        <root>/sources/<key[:2]>/<key>.json   one source summary per file
        <root>/quarantine/<key>.json          rejected entries (+ .diag.json)
        <root>/quarantine/<sha>               blobs that failed their hash

    Source summaries are the impact index's per-file parse results
    (:meth:`load_source` / :meth:`store_source`).  They are verified,
    published and quarantined like run entries but never counted in
    :attr:`stats`, which describes runs only.

    Thread-compatibility: one instance is used from the coordinating
    process only; concurrent *processes* sharing the same root are safe
    by construction (unique temp files + atomic rename, last-wins; two
    writers of one blob publish the same bytes).
    """

    def __init__(self, root: str,
                 design_key: Optional[Callable[..., str]] = None) -> None:
        self.root = root
        #: ``job -> design key`` (:meth:`ImpactIndex.resolver
        #: <repro.analysis.impact.ImpactIndex.resolver>`); a cache that
        #: serves only source summaries needs none.
        self.design_key = design_key
        self.stats = CacheStats()
        #: Structured events (hit/miss/store/quarantine) for the
        #: telemetry run log; drained by the batch exporter.
        self.events: List[Dict[str, object]] = []

    # -- paths --------------------------------------------------------------

    def key_for(self, job) -> str:
        return cache_key(job, self.design_key(job))

    def entry_path(self, key: str) -> str:
        return entry_path(self.root, key)

    def blob_path(self, digest: str) -> str:
        return blob_path(self.root, digest)

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
        design = self.design_key(job)
        key = cache_key(job, design)
        clean = copy.copy(result)
        clean.telemetry = None
        clean.process_seconds = {}
        digests: Dict[str, str] = {}
        try:
            for role, path in sorted(artifacts.items()):
                digests[role] = self._put_blob(path)
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
                "design": design,
                "config_sha256": sha256(
                    job.config.to_text().encode("utf-8")).hexdigest(),
                "test": job.test_name,
                "seed": job.seed,
                "view": job.view,
                "bugs": sorted(job.bugs) if job.view == "bca" else [],
            },
            "payload": _encode_field(pickle.dumps(clean, protocol=4)),
            "artifacts": digests,
        }
        path = self.entry_path(key)
        _publish(path, key, body)
        self.stats.stores += 1
        self.events.append({
            "event": "cache.store", "key": key, **body["coords"]})
        return path

    def _put_blob(self, path: str) -> str:
        """Store the bytes of the file at ``path`` as the blob named by
        their SHA-256 and return that digest.  The file is linked into
        the store, hashed there, and published only when no blob of
        that digest exists yet."""
        staging = os.path.join(self.root, "blobs")
        os.makedirs(staging, exist_ok=True)
        tmp = _temp_name(staging)
        try:
            digest = _link_or_copy(path, tmp)
            blob = self.blob_path(digest)
            if os.path.exists(blob):
                os.remove(tmp)
            else:
                os.makedirs(os.path.dirname(blob), exist_ok=True)
                os.replace(tmp, blob)
        except BaseException:
            with _suppress_oserror():
                os.remove(tmp)
            raise
        return digest

    def store_source(self, key: str, summary: object,
                     key_inputs: Dict[str, object]) -> str:
        """Publish one source summary (any JSON value) under ``key``;
        ``key_inputs`` records what the key hashed, for ``explain``."""
        path = source_path(self.root, key)
        _publish(path, key, {
            "schema": SOURCE_SCHEMA,
            "key": key,
            "key_inputs": key_inputs,
            "summary": _encode_field(
                json.dumps(summary, sort_keys=True).encode("utf-8")),
        })
        return path

    # -- read ---------------------------------------------------------------

    def load(self, job, artifacts: Dict[str, str]):
        """Look one run up.  On a verified hit, materialize its artifact
        files at the paths in ``artifacts`` (atomically) and return the
        :class:`~repro.catg.env.RunResult`; on a miss return ``None``.

        A present-but-unverifiable entry (torn, corrupt, poisoned, or
        naming a blob whose bytes fail their hash) is quarantined with a
        structured diagnostic and reported as a miss — a batch never
        trusts bytes that fail verification.  An entry whose blob is
        gone is a plain ``missing-blob`` miss: the re-run restores it.
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
            self._quarantine(key, path, reason, detail, count=True)
            self._miss(key, job, f"quarantined:{reason}")
            return None
        if not set(artifacts) <= set(entry["artifacts"]):
            # A valid entry stored by a batch that dumped fewer
            # artifacts (e.g. no workdir) cannot satisfy this request;
            # not corruption, just insufficient — plain miss.
            self._miss(key, job, "insufficient-artifacts")
            return None
        try:
            result = pickle.loads(_decode_field(entry["payload"]))
        except Exception as exc:
            self._quarantine(key, path, "payload-undecodable",
                             f"{type(exc).__name__}: {exc}", count=True)
            self._miss(key, job, "quarantined:payload-undecodable")
            return None
        staged: List[Tuple[Optional[str], str]] = []
        try:
            failure = self._link_artifacts(entry["artifacts"], artifacts,
                                           staged)
            if failure is None:
                while staged:
                    tmp, target = staged.pop()
                    if tmp is not None:
                        os.replace(tmp, target)
        finally:
            for tmp, _ in staged:
                if tmp is not None:
                    with _suppress_oserror():
                        os.remove(tmp)
        if failure is not None:
            reason, detail = failure
            if reason == "missing-blob":
                self._miss(key, job, reason)
            else:
                self._quarantine(key, path, reason, detail, count=True)
                self._miss(key, job, f"quarantined:{reason}")
            return None
        self.stats.hits += 1
        self.events.append({
            "event": "cache.hit", "key": key,
            "config": job.config.name, "test": job.test_name,
            "seed": job.seed, "view": job.view,
        })
        return result

    def _link_artifacts(self, digests: Dict[str, str],
                        artifacts: Dict[str, str],
                        staged: List[Tuple[Optional[str], str]]):
        """Link each requested artifact's blob to a temp name next to its
        target and hash the linked file, appending ``(temp, target)`` to
        ``staged`` (``temp`` is ``None`` when the target already is that
        blob).  Returns ``None`` when every artifact verified, else
        ``(reason, detail)``; a blob that fails its hash is evicted to
        ``quarantine/`` so the re-run can publish it afresh."""
        for role, target in sorted(artifacts.items()):
            digest = digests[role]
            blob = self.blob_path(digest)
            try:
                # A repeat hit into the same workdir finds the blob
                # already in place.  Renaming a link over another link
                # of one inode is a no-op that would leave the temp name
                # behind, so only the bytes are checked.
                linked = os.path.samestat(os.stat(target), os.stat(blob))
            except FileNotFoundError:
                linked = False
            try:
                if linked:
                    tmp, actual = None, file_sha256(target)
                else:
                    tmp = _temp_name(os.path.dirname(target) or ".")
                    actual = _link_or_copy(blob, tmp)
            except FileNotFoundError:
                if os.path.exists(blob):
                    raise
                return "missing-blob", f"artifact {role!r}: no blob {digest}"
            staged.append((tmp, target))
            if actual != digest:
                moved = self._evict(blob)
                return "blob-mismatch", (
                    f"artifact {role!r}: blob {digest} hashes to {actual} "
                    f"(blob moved to {moved}); refusing to serve")
        return None

    def load_source(self, key: str, decode: Callable[[object], object]):
        """The verified source summary stored under ``key``, passed
        through ``decode``, or ``None``.  An entry that fails
        verification or ``decode`` is quarantined like a run entry."""
        path = source_path(self.root, key)
        try:
            with open(path, "rb") as handle:
                raw = handle.read()
        except OSError:
            return None
        entry, reason, detail = self._verify(key, raw, SOURCE_SCHEMA)
        if entry is None:
            self._quarantine(key, path, reason, detail, count=False)
            return None
        try:
            return decode(json.loads(_decode_field(entry["summary"])))
        except Exception as exc:
            self._quarantine(key, path, "payload-undecodable",
                             f"{type(exc).__name__}: {exc}", count=False)
            return None

    # -- verification -------------------------------------------------------

    @staticmethod
    def _verify(key: str, raw: bytes, schema: str = CACHE_SCHEMA):
        """Parse + verify one entry's bytes against its kind's
        ``schema``.  Returns ``(entry, None, None)`` or
        ``(None, reason, detail)``."""
        try:
            entry = json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            return None, "torn-entry", f"undecodable JSON: {exc}"
        if not isinstance(entry, dict) \
                or entry.get("schema") != schema:
            return None, "schema-mismatch", (
                f"expected schema {schema!r}, "
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
        artifacts = entry.get("artifacts")
        complete = (isinstance(entry.get("summary"), str)
                    if schema == SOURCE_SCHEMA
                    else isinstance(artifacts, dict) and "payload" in entry
                    and all(isinstance(digest, str)
                            and _DIGEST_RE.match(digest)
                            for digest in artifacts.values()))
        if not complete:
            return None, "schema-mismatch", "entry body is incomplete"
        return entry, None, None

    def _miss(self, key: str, job, reason: str = "no-entry") -> None:
        """Count and log one miss, with attribution: ``no-entry`` (cold
        or key changed), ``insufficient-artifacts``, ``missing-blob``,
        or ``quarantined:<verify reason>``."""
        self.stats.misses += 1
        self.events.append({
            "event": "cache.miss", "key": key, "reason": reason,
            "config": job.config.name, "test": job.test_name,
            "seed": job.seed, "view": job.view,
        })

    def _quarantine(self, key: str, path: str, reason: str,
                    detail: str, count: bool) -> None:
        """Move a rejected entry out of the addressable store and write
        a structured diagnostic next to it.  The entry is *moved*, not
        deleted: the corrupt bytes are evidence.  ``count`` charges the
        rejection to :attr:`stats` (run entries only)."""
        moved = self._evict(path)
        diagnostic = CacheDiagnostic(
            key=key, reason=reason, detail=detail,
            entry_path=path, quarantine_path=moved,
        )
        if moved is not None:
            with _suppress_oserror():
                fd, tmp = tempfile.mkstemp(
                    prefix=".diag.", suffix=".tmp~",
                    dir=self._quarantine_dir())
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    json.dump(diagnostic.as_record(), handle,
                              sort_keys=True, indent=1)
                    handle.write("\n")
                os.replace(tmp, moved + ".diag.json")
        if count:
            self.stats.verify_failures += 1
            if moved is not None:
                self.stats.quarantined += 1
        self.events.append(diagnostic.as_record())

    def _evict(self, path: str) -> Optional[str]:
        """Move ``path`` into ``quarantine/`` under a free name; return
        that name, or ``None`` when the file was already gone."""
        qdir = self._quarantine_dir()
        os.makedirs(qdir, exist_ok=True)
        dest = os.path.join(qdir, os.path.basename(path))
        index = 0
        while os.path.exists(dest):
            index += 1
            dest = os.path.join(
                qdir, f"{os.path.basename(path)}.{index}")
        try:
            os.replace(path, dest)
        except OSError:
            return None  # someone else already moved/replaced it
        return dest


def _publish(path: str, key: str, body: Dict[str, object]) -> None:
    """Seal ``body`` with its digest and publish it at ``path``
    atomically: a unique temp file, then :func:`os.replace`."""
    body["digest"] = _entry_digest(body)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        prefix=f".{key[:12]}.", suffix=".tmp~", dir=os.path.dirname(path))
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(body, handle, sort_keys=True)
            handle.write("\n")
        os.replace(tmp, path)
    except BaseException:
        with _suppress_oserror():
            os.remove(tmp)
        raise


def _suppress_oserror():
    return contextlib.suppress(OSError)
