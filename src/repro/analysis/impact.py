"""Static change-impact analysis: semantic fingerprints and cone-scoped keys.

A monolithic hash of all design sources would invalidate the whole
result cache when one comment in one BCA decoder changes.  This module
keys every cached run instead, and makes re-verification cost
proportional to the *semantic* size of an edit:

* **Per-process semantic fingerprints.**  Each registered process is
  hashed over a normalized form of its body — comments, docstrings and
  formatting stripped — together with its declared read/write sets,
  sensitivity list and clock domain.  A comment-only edit, a docstring
  edit or a reformat leaves the fingerprint unchanged; a real body edit
  (a renamed constant included), a read/write-set change or a
  sensitivity change produces a new one.

* **The conservatism ladder.**  Normalization degrades honestly, and
  every fallback can only cause extra re-runs, never a stale hit:

  1. ``semantic-ast`` — the def or lambda node of the process is found
     unambiguously in its source file (summarized once per content:
     :class:`_SourceSummary`); the fingerprint hashes its
     docstring-stripped, position-free AST dump.
  2. ``raw-source`` — no unique node (say, two lambdas on one line) but
     the source text is recovered; the fingerprint hashes the raw text
     (any edit re-runs).
  3. ``opaque`` — the source is unrecoverable; the *whole design* falls
     back to the monolithic design hash, with a structured diagnostic.

  Non-process code (constructors, sequence generation, checker logic,
  report rendering) is covered by the **environment residual hash**:
  every design-root module's AST with docstrings stripped and the
  bodies of registered process methods elided.  The elided set is read
  off the source alone (:func:`_registered_defs`), so the residual,
  and every key, is the same whichever configs a batch elaborates.
  Any non-process change flips it — and with it every cone-scoped key
  — so orchestration edits behave exactly like the monolithic hash,
  and so do constant edits outside a body.  A module that fails to
  parse is hashed raw.

* **The design fingerprint manifest** (schema-versioned, one record per
  (config, view)) snapshots the fingerprints so two checkouts can be
  diffed: :func:`diff_manifests` maps a baseline/current pair to the
  set of semantically-changed processes per design.

* **Change-impact closure.**  Changed processes are pushed through the
  dataflow graph's fan-out cones (RTL and BCA independently) to the
  set of affected signals; every (config, view) — and therefore every
  (config, test, seed, view) cache entry — is classified affected or
  provably unaffected.

* **Cone-scoped cache keys.**  :class:`ImpactIndex` hands the result
  cache a per-job design key: the environment residual hash plus the
  sorted fingerprints of every process in the fan-in cone of the
  entry's observed signals (the VCD traces every signal and the port
  monitors and the programming-port checker read every port, so the
  observation cone of a full-trace run is the entire design — the
  scoping power is that RTL and BCA process sets differ, and
  config-conditional processes exist only in some designs).  Unrelated
  or comment-only edits keep their cache hits by construction.
"""

from __future__ import annotations

import ast
import json
import os
import sys
from collections import Counter
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from ..cache.store import DESIGN_ROOTS, SOURCE_SCHEMA, design_source_hash
from ..digest import sha256
from ..ioutil import atomic_write

#: Schema tag of the design fingerprint manifest; manifests from an
#: incompatible schema are rejected, not misread.
MANIFEST_SCHEMA = "repro.analysis/impact-manifest/v1"

#: Fingerprint normalization modes, strongest first (the conservatism
#: ladder of the module docstring).
MODE_SEMANTIC_AST = "semantic-ast"
MODE_RAW_SOURCE = "raw-source"
MODE_OPAQUE = "opaque"

#: The views every impact computation covers by default.
DEFAULT_VIEWS: Tuple[str, ...] = ("rtl", "bca")


class ManifestError(ValueError):
    """A manifest file could not be read or has the wrong schema."""


# ---------------------------------------------------------------------------
# Per-process fingerprints
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProcessFingerprint:
    """Stable semantic identity of one registered process.

    ``digest`` is ``None`` exactly when ``mode`` is ``opaque`` — an
    unrecoverable process has no per-process identity and forces the
    whole-design fallback for its design.
    """

    name: str
    kind: str  # "comb" | "clocked"
    mode: str  # MODE_* above
    digest: Optional[str]
    reason: Optional[str] = None
    reads: Tuple[str, ...] = ()
    writes: Tuple[str, ...] = ()

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "kind": self.kind,
            "mode": self.mode,
            "digest": self.digest,
            "reads": list(self.reads),
            "writes": list(self.writes),
        }
        if self.reason is not None:
            out["reason"] = self.reason
        return out

    @classmethod
    def from_dict(cls, name: str, data: Dict[str, object]
                  ) -> "ProcessFingerprint":
        return cls(
            name=name,
            kind=str(data["kind"]),
            mode=str(data["mode"]),
            digest=data.get("digest"),  # type: ignore[arg-type]
            reason=data.get("reason"),  # type: ignore[arg-type]
            reads=tuple(data.get("reads", ())),  # type: ignore[arg-type]
            writes=tuple(data.get("writes", ())),  # type: ignore[arg-type]
        )


def _normalize_newlines(data: bytes) -> bytes:
    return data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")


def _is_bare_string(stmt: ast.AST) -> bool:
    return (isinstance(stmt, ast.Expr)
            and isinstance(stmt.value, ast.Constant)
            and isinstance(stmt.value.value, str))


def _walk_source(tree: ast.AST):
    """One pass over a parsed module: strip every bare-string expression
    statement (docstrings included) in place, and collect the def and
    lambda nodes by span key plus every class.

    A bare string constant is semantically a no-op wherever it appears,
    so stripping all of them makes a dump insensitive to docstring
    edits without changing behavior.  A span key is a ``(first line,
    name)`` pair a code object compiled from the node can carry: a
    lambda's line, a def's line, and a decorated def's first decorator
    line.

    Returns ``(span key -> nodes, classes)``.
    """
    spans: Dict[Tuple[int, str], List[ast.AST]] = {}
    classes: List[ast.ClassDef] = []
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Lambda):
            spans.setdefault((node.lineno, "<lambda>"), []).append(node)
        elif not isinstance(node, ast.expr):
            for name in ("body", "orelse", "finalbody"):
                stmts = getattr(node, name, None)
                if isinstance(stmts, list):
                    stmts[:] = [stmt for stmt in stmts
                                if not _is_bare_string(stmt)]
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for first in [node] + node.decorator_list[:1]:
                    spans.setdefault(
                        (first.lineno, node.name), []).append(node)
            elif isinstance(node, ast.ClassDef):
                classes.append(node)
        stack.extend(ast.iter_child_nodes(node))
    return spans, classes


def _process_code(info) -> Tuple[Optional[object], str]:
    """``(code object or None, name)`` of a process callable; a
    ``functools.partial`` or a builtin has no code object."""
    func = getattr(info.process, "__func__", info.process)
    return (getattr(func, "__code__", None),
            getattr(func, "__name__", "<unknown>"))


@dataclass(frozen=True)
class _SourceSummary:
    """Everything the index derives from one source file: a pure
    function of the file's newline-normalized bytes.

    ``residual`` is what :func:`environment_digest` hashes: the dump of
    the docstring-stripped tree with every registered process method
    body elided (``n_elided`` of them), or the raw bytes when the file
    does not parse (``error`` says why).  ``spans`` maps every
    ``(first line, name)`` a def or lambda can carry to the dump of its
    docstring-stripped node, or to the number of nodes sharing that
    span when it is not exactly one.
    """

    residual: bytes
    n_elided: int
    error: Optional[str]
    spans: Dict[Tuple[int, str], Union[str, int]]

    def to_dict(self) -> Dict[str, object]:
        return {
            # An unparsable file's residual is its own bytes, which the
            # reader already holds (they are in the key).
            "residual": (None if self.error is not None
                         else self.residual.decode("utf-8")),
            "n_elided": self.n_elided,
            "error": self.error,
            "spans": [[line, name, value] for (line, name), value
                      in sorted(self.spans.items())],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object], raw: bytes
                  ) -> "_SourceSummary":
        error = data["error"]
        return cls(
            residual=(raw if error is not None
                      else data["residual"].encode("utf-8")),  # type: ignore[union-attr]
            n_elided=int(data["n_elided"]),  # type: ignore[arg-type]
            error=error,  # type: ignore[arg-type]
            spans={(int(line), str(name)): value
                   for line, name, value in data["spans"]},  # type: ignore[union-attr]
        )


def _dump(node: ast.AST) -> str:
    """``ast.dump(node)`` with default arguments, without its garbage.

    The standard library's ``dump`` formats through a nested function
    that refers to itself, so every call leaves a reference cycle that
    only the cyclic collector frees.  This module-level twin of the
    Python 3.11 formatter returns the same text and frees by refcount.
    """
    return _format_node(node)[0]


def _format_node(node) -> Tuple[str, bool]:
    """``(text, simple)`` for one value of an AST, as ``ast.dump``."""
    if isinstance(node, ast.AST):
        cls = type(node)
        args = []
        simple = True
        for name in node._fields:
            try:
                value = getattr(node, name)
            except AttributeError:
                continue
            if value is None and getattr(cls, name, ...) is None:
                continue
            text, field_simple = _format_node(value)
            simple = simple and field_simple
            args.append(f"{name}={text}")
        text = f"{cls.__name__}({', '.join(args)})"
        return text, simple and not args
    if isinstance(node, list):
        if not node:
            return "[]", True
        return "[" + ", ".join(_format_node(x)[0] for x in node) + "]", False
    return repr(node), True


def _summarize_source(raw: bytes) -> _SourceSummary:
    """Parse newline-normalized source bytes once into a summary."""
    try:
        tree = ast.parse(raw.decode("utf-8"))
    except (SyntaxError, UnicodeDecodeError) as exc:
        return _SourceSummary(raw, 0, str(exc), {})
    found, classes = _walk_source(tree)
    spans = {key: _dump(nodes[0]) if len(nodes) == 1 else len(nodes)
             for key, nodes in found.items()}
    targets = (_registered_defs(classes)
               if any(call in raw for call in _REGISTRATION_CALLS)
               else [])
    for node in targets:
        node.body = [ast.Pass()]
    return _SourceSummary(
        _dump(tree).encode("utf-8"), len(targets), None, spans)


def _summary_key_prefix(module_path: str = __file__):
    """``(hash state, key inputs)`` every source-summary key starts
    from: the entry schema, the full interpreter version (the parsed
    tree follows it) and the bytes of this module (which define a
    summary)."""
    with open(module_path, "rb") as handle:
        this = handle.read()
    prefix = sha256()
    for part in (SOURCE_SCHEMA.encode("utf-8"),
                 sys.version.encode("utf-8"), this):
        prefix.update(part)
        prefix.update(b"\0")
    return prefix, {"schema": SOURCE_SCHEMA, "python": sys.version,
                    "impact_sha256": sha256(this).hexdigest()}


class _SourceSummaries:
    """The source summary of every file one index build touches, each
    file summarized once.

    With a ``store`` (a :class:`~repro.cache.ResultCache`), a summary is
    read from the store when its key is there and published to it when
    computed; :attr:`hits` and :attr:`misses` count the two per file.
    Without one, every summary is computed (a miss).
    """

    def __init__(self, store=None) -> None:
        self.store = store
        self.hits = 0
        self.misses = 0
        self._prefix, self._key_inputs = _summary_key_prefix()
        self._by_path: Dict[str, _SourceSummary] = {}

    def summary(self, path: str) -> _SourceSummary:
        if path not in self._by_path:
            with open(path, "rb") as handle:
                raw = _normalize_newlines(handle.read())
            self._by_path[path] = self._resolve(raw)
        return self._by_path[path]

    def _resolve(self, raw: bytes) -> _SourceSummary:
        hasher = self._prefix.copy()
        hasher.update(raw)
        key = hasher.hexdigest()
        summary = None
        if self.store is not None:
            summary = self.store.load_source(
                key, lambda data: _SourceSummary.from_dict(data, raw))
        if summary is not None:
            self.hits += 1
        else:
            summary = _summarize_source(raw)
            self.misses += 1
            if self.store is not None:
                self.store.store_source(key, summary.to_dict(), dict(
                    self._key_inputs,
                    source_sha256=sha256(raw).hexdigest()))
        return summary

    def body(self, info) -> Tuple[str, Optional[str], Optional[str]]:
        """``(mode, body text, reason)`` for one process, per the ladder."""
        code, name = _process_code(info)
        if code is None:
            return _unlocated_body(info, "process has no code object")
        path = os.path.abspath(code.co_filename)
        try:
            span = self.summary(path).spans.get(
                (code.co_firstlineno, name), 0)
        except OSError:
            span = 0
        if isinstance(span, str):
            return MODE_SEMANTIC_AST, span, None
        return _unlocated_body(
            info, f"{span} AST nodes match {name} at "
            f"{os.path.basename(path)}:{code.co_firstlineno}")


#: Kernel registration methods; the process is their first argument.
_REGISTRATIONS = ("clocked", "comb", "add_clocked", "add_comb")
#: A file whose bytes contain none of these registers no process.
_REGISTRATION_CALLS = tuple(f".{name}(".encode("ascii")
                            for name in _REGISTRATIONS)


def _registered_defs(classes: Iterable[ast.ClassDef]) -> List[ast.AST]:
    """The method defs whose bodies the environment residual elides.

    In each class, ``def X`` is elided when ``self.X`` is the process
    argument of a registration call made inside that class and is
    referenced nowhere else in it (a method the class also calls
    directly may run outside any process fingerprint).  Lambdas,
    closures, ``functools.partial``s and inherited targets are not
    matched, so their bodies stay in the residual: conservative.
    """
    defs: List[ast.AST] = []
    for cls in classes:
        registered: Counter = Counter()
        referenced: Counter = Counter()
        for node in _own_nodes(cls):
            name = _self_attr(node)
            if name is not None:
                referenced[name] += 1
            elif isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in _REGISTRATIONS and node.args:
                target = _self_attr(node.args[0])
                if target is not None:
                    registered[target] += 1
        defs.extend(
            node for node in cls.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and registered[node.name] == referenced[node.name] > 0)
    return defs


def _own_nodes(cls: ast.ClassDef):
    """Every node of ``cls`` outside its nested classes."""
    stack = [cls]
    while stack:
        children = [child for child in ast.iter_child_nodes(stack.pop())
                    if not isinstance(child, ast.ClassDef)]
        yield from children
        stack.extend(children)


def _self_attr(node: ast.AST) -> Optional[str]:
    """``X`` when ``node`` is ``self.X``, else ``None``."""
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
            and node.value.id == "self":
        return node.attr
    return None


def _unlocated_body(info, reason: str
                    ) -> Tuple[str, Optional[str], Optional[str]]:
    """The lower rungs: the raw source text, else opaque."""
    text = info.source()
    if text is not None:
        return MODE_RAW_SOURCE, text, reason
    return MODE_OPAQUE, None, "source unavailable (inspect.getsource failed)"


def _dataflow_sets(info) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
    """The (reads, writes) signal names the dataflow graph uses for
    ``info`` — observed sets for comb, declarations for clocked."""
    if info.kind == "comb":
        reads = {s.name for s in info.sensitivity}
        reads.update(s.name for s in info.observed_reads)
        writes = {s.name for s in info.observed_writes}
    else:
        reads = {s.name for s in (info.declared_reads or ())}
        writes = {s.name for s in (info.declared_writes or ())}
        writes.update(s.name for s, _ in info.declared_tie_offs)
    return tuple(sorted(reads)), tuple(sorted(writes))


def process_fingerprint(info, sources: Optional[_SourceSummaries] = None
                        ) -> ProcessFingerprint:
    """Semantic fingerprint of one :class:`~repro.kernel.ProcessInfo`;
    ``sources`` shares source summaries across calls."""
    reads, writes = _dataflow_sets(info)
    mode, body, reason = (sources or _SourceSummaries()).body(info)
    if mode == MODE_OPAQUE:
        return ProcessFingerprint(
            name=info.name, kind=info.kind, mode=mode, digest=None,
            reason=reason, reads=reads, writes=writes,
        )
    payload = json.dumps({
        "kind": info.kind,
        "sensitivity": sorted(s.name for s in info.sensitivity),
        "declared_reads": (
            sorted(s.name for s in info.declared_reads)
            if info.declared_reads is not None else None
        ),
        "declared_writes": (
            sorted(s.name for s in info.declared_writes)
            if info.declared_writes is not None else None
        ),
        "tie_offs": sorted(
            [s.name, value] for s, value in info.declared_tie_offs
        ),
        "domain": info.domain,
        "body_mode": mode,
        "body": body,
    }, sort_keys=True)
    return ProcessFingerprint(
        name=info.name, kind=info.kind, mode=mode,
        digest=sha256(payload.encode("utf-8")).hexdigest(),
        reason=reason, reads=reads, writes=writes,
    )


# ---------------------------------------------------------------------------
# Environment residual hash (everything that is not a process body)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EnvironmentDigest:
    """Hash of the design-root sources with process bodies elided.

    ``diagnostics`` names files that failed to parse and were hashed
    raw (still sound — raw hashing over-invalidates, never under-).
    """

    digest: str
    n_files: int
    n_elided: int
    diagnostics: Tuple[str, ...] = ()

    def to_dict(self) -> Dict[str, object]:
        return {
            "digest": self.digest,
            "n_files": self.n_files,
            "n_elided": self.n_elided,
            "diagnostics": list(self.diagnostics),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "EnvironmentDigest":
        return cls(
            digest=str(data["digest"]),
            n_files=int(data["n_files"]),  # type: ignore[arg-type]
            n_elided=int(data["n_elided"]),  # type: ignore[arg-type]
            diagnostics=tuple(data.get("diagnostics", ())),  # type: ignore[arg-type]
        )


def environment_digest(
    roots: Sequence[str] = DESIGN_ROOTS,
    sources: Optional[_SourceSummaries] = None,
) -> EnvironmentDigest:
    """Residual hash of the design roots with registered process method
    bodies elided: a pure function of the sources, whatever configs
    were elaborated."""
    sources = sources or _SourceSummaries()
    package_dir = os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    digest = sha256()
    n_files = 0
    n_elided = 0
    diagnostics: List[str] = []
    for root in roots:
        root_dir = os.path.join(package_dir, root)
        for dirpath, dirnames, filenames in os.walk(root_dir):
            dirnames[:] = sorted(
                d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                if not name.endswith(".py"):
                    continue
                full = os.path.abspath(os.path.join(dirpath, name))
                rel = os.path.relpath(full, package_dir)
                summary = sources.summary(full)
                n_elided += summary.n_elided
                if summary.error is not None:
                    # Unparsable file: hashed raw (comment edits in it
                    # will over-invalidate; never under-invalidate).
                    diagnostics.append(
                        f"{rel}: hashed raw ({summary.error})")
                digest.update(rel.replace(os.sep, "/").encode("utf-8"))
                digest.update(b"\0")
                digest.update(summary.residual)
                digest.update(b"\0")
                n_files += 1
    return EnvironmentDigest(
        digest=digest.hexdigest(), n_files=n_files, n_elided=n_elided,
        diagnostics=tuple(sorted(diagnostics)),
    )


# ---------------------------------------------------------------------------
# Per-(config, view) fingerprints and the manifest
# ---------------------------------------------------------------------------


@dataclass
class DesignFingerprints:
    """Fingerprints of every process of one (config, view) design."""

    config_name: str
    view: str
    config_digest: str
    processes: Dict[str, ProcessFingerprint] = field(default_factory=dict)

    @property
    def fallback_reason(self) -> Optional[str]:
        """Why this design cannot use a cone-scoped key (or ``None``)."""
        opaque = sorted(name for name, fp in self.processes.items()
                        if fp.mode == MODE_OPAQUE)
        if opaque:
            return ("opaque-process: unrecoverable source for "
                    + ", ".join(opaque))
        return None

    def design_key(self, environment: EnvironmentDigest,
                   whole_design: str) -> str:
        """The cone-scoped design key: the environment residual hash
        plus the sorted fingerprints of every process in the fan-in
        cone of the observed signals.  A full-trace run observes every
        signal (VCD + every port's reader), so the cone is the
        whole process set of *this* design — still per-(config, view),
        which is where the scoping power lives.  Any opaque process
        degrades to the monolithic design hash: conservative, never
        stale."""
        if self.fallback_reason is not None:
            return whole_design
        payload = json.dumps({
            "schema": MANIFEST_SCHEMA,
            "environment": environment.digest,
            "processes": sorted(
                (name, fp.digest) for name, fp in self.processes.items()
            ),
        }, sort_keys=True)
        return sha256(payload.encode("utf-8")).hexdigest()

    def to_dict(self) -> Dict[str, object]:
        return {
            "config": self.config_name,
            "view": self.view,
            "config_digest": self.config_digest,
            "processes": {
                name: fp.to_dict()
                for name, fp in sorted(self.processes.items())
            },
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "DesignFingerprints":
        processes = {
            name: ProcessFingerprint.from_dict(name, fp)
            for name, fp in data.get("processes", {}).items()  # type: ignore[union-attr]
        }
        return cls(
            config_name=str(data["config"]),
            view=str(data["view"]),
            config_digest=str(data["config_digest"]),
            processes=processes,
        )


def _design_label(config_name: str, view: str) -> str:
    return f"{config_name}::{view}"


def _config_digest(config) -> str:
    # Resolve the address map first, exactly like the cache key does:
    # elaboration materializes the default map onto the config, so a
    # resolved and an unresolved copy must fingerprint identically.
    config.resolved_map
    return sha256(config.to_text().encode("utf-8")).hexdigest()


def design_fingerprints(config, view: str,
                        sources: Optional[_SourceSummaries] = None):
    """Build one design and fingerprint it.

    Returns ``(DesignFingerprints, DesignGraph)`` — the graph is kept so
    the impact closure can run fan-out cones without re-elaborating.
    """
    from ..catg.env import VerificationEnv
    from ..lint.graph import DesignGraph

    env = VerificationEnv(config, view=view)
    graph = DesignGraph.from_simulator(env.sim)
    fingerprints = DesignFingerprints(
        config_name=config.name, view=view,
        config_digest=_config_digest(config),
    )
    names_seen: Dict[str, int] = {}
    for info in list(graph.comb) + list(graph.clocked):
        fp = process_fingerprint(info, sources)
        name = fp.name
        # Registration names are unique in practice; if a design ever
        # reuses one, disambiguate deterministically by occurrence.
        count = names_seen.get(name, 0)
        names_seen[name] = count + 1
        if count:
            name = f"{name}#{count}"
        fingerprints.processes[name] = fp
    return fingerprints, graph


@dataclass
class DesignManifest:
    """Schema-versioned snapshot of every design's fingerprints."""

    design_hash: str
    environment: EnvironmentDigest
    designs: Dict[str, DesignFingerprints] = field(default_factory=dict)
    schema: str = MANIFEST_SCHEMA

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": self.schema,
            "design_hash": self.design_hash,
            "environment": self.environment.to_dict(),
            "designs": {
                label: design.to_dict()
                for label, design in sorted(self.designs.items())
            },
        }

    @classmethod
    def from_dict(cls, data: object) -> "DesignManifest":
        if not isinstance(data, dict):
            raise ManifestError(
                f"manifest must be a JSON object, got {type(data).__name__}")
        schema = data.get("schema")
        if schema != MANIFEST_SCHEMA:
            raise ManifestError(
                f"manifest schema {schema!r} is not {MANIFEST_SCHEMA!r}; "
                "rebuild the baseline with this checkout")
        try:
            return cls(
                design_hash=str(data["design_hash"]),
                environment=EnvironmentDigest.from_dict(
                    data["environment"]),
                designs={
                    label: DesignFingerprints.from_dict(design)
                    for label, design in data["designs"].items()
                },
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ManifestError(f"malformed manifest: {exc}")

    def write(self, path: str) -> None:
        with atomic_write(path) as handle:
            json.dump(self.to_dict(), handle, indent=1, sort_keys=True)
            handle.write("\n")

    @classmethod
    def read(cls, path: str) -> "DesignManifest":
        try:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except OSError as exc:
            raise ManifestError(f"cannot read manifest {path!r}: {exc}")
        except ValueError as exc:
            raise ManifestError(f"manifest {path!r} is not JSON: {exc}")
        return cls.from_dict(data)

    @property
    def n_processes(self) -> int:
        return sum(len(d.processes) for d in self.designs.values())


# ---------------------------------------------------------------------------
# The index: eager fingerprints + cone-scoped key resolution
# ---------------------------------------------------------------------------


class ImpactIndex:
    """Fingerprints of every (config, view) of one batch, plus the
    cone-scoped design-key resolver the result cache consumes.

    A design's key depends only on the sources and on that design: the
    environment residual does not depend on which configs were indexed,
    so an entry stored by one batch hits in any batch that contains
    the same (config, view).

    ``store`` (a :class:`~repro.cache.ResultCache`) serves and keeps the
    per-file source summaries, so a batch re-parses only the files that
    changed since the store last saw them; keys, manifests and the
    environment digest are the same with or without it.  ``keep_graphs``
    keeps each design's :class:`~repro.lint.graph.DesignGraph` in
    :attr:`graphs` for :func:`diff_manifests`' fan-out cones; otherwise
    each design's simulator is finished and dropped as soon as it is
    fingerprinted, so refcounting frees it.
    """

    def __init__(self, configs: Sequence,
                 views: Sequence[str] = DEFAULT_VIEWS,
                 store=None, keep_graphs: bool = False) -> None:
        self.views = tuple(views)
        self.designs: Dict[str, DesignFingerprints] = {}
        self.graphs: Dict[str, object] = {}
        self.whole_design = design_source_hash()
        sources = _SourceSummaries(store)  # shared by all designs
        for config in configs:
            for view in self.views:
                label = _design_label(config.name, view)
                if label in self.designs:
                    continue
                fingerprints, graph = design_fingerprints(
                    config, view, sources)
                self.designs[label] = fingerprints
                if keep_graphs:
                    self.graphs[label] = graph
                else:
                    graph.sim.finish()
        self.environment = environment_digest(sources=sources)
        self._keys: Dict[str, str] = {}
        self.events: List[Dict[str, object]] = []
        self._counters: Dict[str, int] = {
            "impact.designs": len(self.designs),
            "impact.processes": 0,
            "impact.semantic_ast": 0,
            "impact.raw_source": 0,
            "impact.opaque": 0,
            "impact.cone_keys": 0,
            "impact.design_fallbacks": 0,
            "impact.source_hits": sources.hits,
            "impact.source_misses": sources.misses,
        }
        for label, design in sorted(self.designs.items()):
            degraded = []
            for name, fp in sorted(design.processes.items()):
                self._counters["impact.processes"] += 1
                self._counters["impact." + fp.mode.replace("-", "_")] += 1
                if fp.mode != MODE_SEMANTIC_AST:
                    degraded.append({"process": name, "mode": fp.mode,
                                     "reason": fp.reason})
            key = design.design_key(self.environment, self.whole_design)
            self._keys[label] = key
            fallback = design.fallback_reason
            event = {"event": "impact.design-key", "design": label,
                     "mode": "cone", "key": key, "degraded": degraded}
            if fallback is None:
                self._counters["impact.cone_keys"] += 1
            else:
                self._counters["impact.design_fallbacks"] += 1
                event.update(mode="whole-design", reason=fallback)
            self.events.append(event)

    def counters(self) -> Dict[str, int]:
        return dict(self._counters)

    def design_key(self, config_name: str, view: str) -> str:
        """The cone-scoped key component for one (config, view); the
        monolithic design hash for designs this index never saw (a job
        outside the indexed batch must not get a fabricated key)."""
        return self._keys.get(
            _design_label(config_name, view), self.whole_design)

    def resolver(self) -> Callable:
        """Per-job design resolver for
        :class:`repro.cache.ResultCache`."""
        def resolve(job) -> str:
            return self.design_key(job.config.name, job.view)

        return resolve

    def manifest(self) -> DesignManifest:
        return DesignManifest(
            design_hash=self.whole_design,
            environment=self.environment,
            designs=dict(self.designs),
        )


def build_manifest(configs: Sequence,
                   views: Sequence[str] = DEFAULT_VIEWS) -> DesignManifest:
    """Fingerprint ``configs`` under the current sources."""
    return ImpactIndex(configs, views=views).manifest()


# ---------------------------------------------------------------------------
# Manifest differ + change-impact closure
# ---------------------------------------------------------------------------


@dataclass
class DesignImpact:
    """Impact classification for one (config, view) design.

    ``affected`` means the design's cache entries must re-execute;
    ``reason`` says why (or ``"unchanged"``).  For process-level
    changes, ``affected_signals`` is the union of the changed
    processes' fan-out cones — the signals a re-run can legitimately
    change.
    """

    config_name: str
    view: str
    affected: bool
    reason: str
    changed_processes: Tuple[str, ...] = ()
    affected_signals: Tuple[str, ...] = ()

    @property
    def label(self) -> str:
        return _design_label(self.config_name, self.view)

    def to_dict(self) -> Dict[str, object]:
        return {
            "config": self.config_name,
            "view": self.view,
            "affected": self.affected,
            "reason": self.reason,
            "changed_processes": list(self.changed_processes),
            "affected_signals": list(self.affected_signals),
        }


@dataclass
class ImpactReport:
    """What changed between two manifests and what must re-run."""

    baseline_design_hash: str
    current_design_hash: str
    environment_changed: bool
    designs: List[DesignImpact] = field(default_factory=list)

    @property
    def affected(self) -> List[DesignImpact]:
        return [d for d in self.designs if d.affected]

    @property
    def unaffected(self) -> List[DesignImpact]:
        return [d for d in self.designs if not d.affected]

    @property
    def changed_processes(self) -> Tuple[str, ...]:
        out: Set[str] = set()
        for design in self.designs:
            out.update(design.changed_processes)
        return tuple(sorted(out))

    @property
    def rerun_fraction(self) -> float:
        if not self.designs:
            return 0.0
        return len(self.affected) / len(self.designs)

    def to_dict(self) -> Dict[str, object]:
        from . import SCHEMA_VERSION

        return {
            "schema_version": SCHEMA_VERSION,
            "baseline_design_hash": self.baseline_design_hash,
            "current_design_hash": self.current_design_hash,
            "environment_changed": self.environment_changed,
            "changed_processes": list(self.changed_processes),
            "n_designs": len(self.designs),
            "n_affected": len(self.affected),
            "rerun_fraction": round(self.rerun_fraction, 4),
            "designs": [d.to_dict() for d in self.designs],
        }

    def render(self) -> str:
        lines = [
            "Change impact: "
            f"{len(self.affected)}/{len(self.designs)} design(s) affected "
            f"({self.rerun_fraction * 100:.1f}% predicted re-run)",
        ]
        if self.environment_changed:
            lines.append(
                "  environment changed (non-process design code): every "
                "entry re-runs")
        changed = self.changed_processes
        if changed:
            lines.append(f"  changed processes ({len(changed)}):")
            for name in changed:
                lines.append(f"    {name}")
        for design in self.designs:
            if not design.affected:
                continue
            lines.append(
                f"  AFFECTED {design.label}: {design.reason}")
            if design.changed_processes:
                lines.append(
                    "    processes: "
                    + ", ".join(design.changed_processes))
            if design.affected_signals:
                shown = design.affected_signals[:8]
                suffix = (
                    f" (+{len(design.affected_signals) - len(shown)} more)"
                    if len(design.affected_signals) > len(shown) else ""
                )
                lines.append(
                    "    fan-out cone: " + ", ".join(shown) + suffix)
        unaffected = self.unaffected
        if unaffected:
            lines.append(
                f"  provably unaffected ({len(unaffected)}): "
                + ", ".join(d.label for d in unaffected))
        lines.append(
            "  predicted re-run set: every (test, seed) of the affected "
            "designs; all other cache entries stay warm")
        return "\n".join(lines) + "\n"


def affected_signal_cone(graph, process_names: Iterable[str]
                         ) -> Tuple[str, ...]:
    """Fan-out closure of the named processes' writes over ``graph``
    (a :class:`~repro.lint.graph.DesignGraph`): the written signals
    plus everything they can transitively influence."""
    from .dataflow import DataflowGraph

    dataflow = DataflowGraph(graph)
    by_name = {sig.name: sig for sig in graph.signals}
    wanted = set(process_names)
    affected: Set[str] = set()
    for info in list(graph.comb) + list(graph.clocked):
        if info.name not in wanted:
            continue
        _, writes = _dataflow_sets(info)
        for name in writes:
            affected.add(name)
            sig = by_name.get(name)
            if sig is not None:
                affected.update(
                    s.name for s in dataflow.fan_out_cone(sig))
    return tuple(sorted(affected))


def diff_manifests(
    baseline: DesignManifest,
    current: DesignManifest,
    graphs: Optional[Dict[str, object]] = None,
) -> ImpactReport:
    """Classify every design of two manifests as affected or provably
    unaffected.  Every uncertain case (schema'd fallback, missing
    design, environment change) classifies as affected — the differ
    never guesses a design safe."""
    env_changed = (
        baseline.environment.digest != current.environment.digest)
    report = ImpactReport(
        baseline_design_hash=baseline.design_hash,
        current_design_hash=current.design_hash,
        environment_changed=env_changed,
    )
    for label in sorted(set(baseline.designs) | set(current.designs)):
        base = baseline.designs.get(label)
        cur = current.designs.get(label)
        anchor = cur if cur is not None else base
        design = dict(config_name=anchor.config_name, view=anchor.view)
        reason = _forced_rerun_reason(base, cur, env_changed)
        if reason is not None:
            report.designs.append(
                DesignImpact(**design, affected=True, reason=reason))
            continue
        changed = sorted(
            set(base.processes) ^ set(cur.processes)
            | {
                name for name in set(base.processes) & set(cur.processes)
                if base.processes[name].digest != cur.processes[name].digest
            }
        )
        if not changed:
            report.designs.append(
                DesignImpact(**design, affected=False, reason="unchanged"))
            continue
        graph = (graphs or {}).get(label)
        report.designs.append(DesignImpact(
            **design, affected=True,
            reason=f"{len(changed)} semantically-changed process(es)",
            changed_processes=tuple(changed),
            affected_signals=(affected_signal_cone(graph, changed)
                              if graph is not None else ()),
        ))
    return report


def _forced_rerun_reason(base: Optional[DesignFingerprints],
                         cur: Optional[DesignFingerprints],
                         env_changed: bool) -> Optional[str]:
    """Why a design re-runs whatever its process digests say, if so."""
    if base is None:
        return "design added since baseline"
    if cur is None:
        return "design removed since baseline"
    if env_changed:
        return "environment changed (non-process design code)"
    fallback = base.fallback_reason or cur.fallback_reason
    if fallback is not None:
        return f"conservative fallback ({fallback})"
    if base.config_digest != cur.config_digest:
        return "configuration text changed"
    return None
