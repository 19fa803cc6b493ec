"""Tests for the change-impact machinery: environment residual hash,
manifest round-trip, the differ's miss reasons and index keys."""

import ast
import copy
import json
import os

import pytest

from repro.analysis import impact
from repro.analysis.impact import (
    DesignFingerprints,
    DesignManifest,
    ImpactIndex,
    ManifestError,
    ProcessFingerprint,
    diff_manifests,
    environment_digest,
)
from repro.cache.store import DESIGN_ROOTS, design_source_hash
from repro.catg.env import VerificationEnv
from repro.regression.configs import configuration_matrix
from repro.stbus import NodeConfig


# -- environment residual hash ---------------------------------------------


def _env_digest(tmp_path, source):
    """Write ``source`` as the single module of a temp design root and
    digest it; the residual elides what the source itself registers."""
    path = os.path.join(str(tmp_path), "mod.py")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(source)
    return environment_digest(roots=(str(tmp_path),))


ENV_V1 = '''\
"""Module docstring."""
DEPTH = 4

def helper(x):
    return x + DEPTH

class Node:
    def __init__(self):
        self.comb(self._proc, [self.a])

    def _proc(self):
        self.q.drive(self.a.value)
'''

#: ``ENV_V1`` with ``_proc`` defined but never registered.
ENV_UNREGISTERED = ENV_V1.replace(
    "        self.comb(self._proc, [self.a])\n", "        pass\n")


def test_env_digest_ignores_comments_and_docstrings(tmp_path):
    base = _env_digest(tmp_path, ENV_V1)
    commented = ENV_V1.replace(
        "DEPTH = 4", "DEPTH = 4  # pipeline depth").replace(
        '"""Module docstring."""', '"""Rewritten docstring."""')
    edited = _env_digest(tmp_path, commented)
    assert base.digest == edited.digest
    assert base.n_elided == 1


def test_env_digest_ignores_registered_process_bodies(tmp_path):
    base = _env_digest(tmp_path, ENV_V1)
    body_edit = ENV_V1.replace(
        "self.q.drive(self.a.value)",
        "self.q.drive(self.a.value & 1)")
    edited = _env_digest(tmp_path, body_edit)
    assert base.digest == edited.digest


def test_env_digest_catches_top_level_change(tmp_path):
    base = _env_digest(tmp_path, ENV_V1)
    edited = _env_digest(tmp_path, ENV_V1.replace("DEPTH = 4", "DEPTH = 8"))
    assert base.digest != edited.digest


def test_env_digest_catches_non_process_function_edit(tmp_path):
    base = _env_digest(tmp_path, ENV_V1)
    edited = _env_digest(
        tmp_path, ENV_V1.replace("return x + DEPTH", "return x - DEPTH"))
    assert base.digest != edited.digest


ENV_CONSTANT = '''\
MASK = 7

class Node:
    def __init__(self):
        self.comb(self._proc, [self.a])

    def _proc(self):
        self.q.drive(self.a.value & MASK)
'''


def test_env_digest_catches_constant_value_edit_outside_the_body(
        tmp_path):
    """A process fingerprint does not see a module constant's value;
    the residual around the elided body does."""
    base = _env_digest(tmp_path, ENV_CONSTANT)
    assert base.n_elided == 1
    edited = _env_digest(
        tmp_path, ENV_CONSTANT.replace("MASK = 7", "MASK = 3"))
    assert base.digest != edited.digest


ENV_CLOSURE = '''\
class Node:
    def __init__(self, sim):
        MASK = 7

        def _proc():
            self.q.drive(self.a.value & MASK)

        sim.comb(_proc)
'''


def test_env_digest_keeps_closure_process_bodies(tmp_path):
    """Only ``self.X`` methods are elided: a closure process's body
    stays in the residual, so an edit to it changes the digest."""
    base = _env_digest(tmp_path, ENV_CLOSURE)
    assert base.n_elided == 0
    edited = _env_digest(tmp_path, ENV_CLOSURE.replace(
        "self.a.value & MASK", "self.a.value | MASK"))
    assert base.digest != edited.digest


def test_env_digest_without_elision_sees_process_edits(tmp_path):
    """An unregistered process body counts as environment code — edits
    to it invalidate, conservatively."""
    base = _env_digest(tmp_path, ENV_UNREGISTERED)
    edited = _env_digest(
        tmp_path,
        ENV_UNREGISTERED.replace("self.q.drive(self.a.value)",
                                 "self.q.drive(0)"))
    assert base.n_elided == 0
    assert base.digest != edited.digest


def test_env_digest_keeps_a_registered_method_the_class_also_calls(
        tmp_path):
    """A process method the class also calls directly can run outside
    any process fingerprint, so its body stays in the residual."""
    called = ENV_V1.replace(
        "        self.comb(self._proc, [self.a])\n",
        "        self.comb(self._proc, [self.a])\n        self._proc()\n")
    base = _env_digest(tmp_path, called)
    assert base.n_elided == 0
    edited = _env_digest(tmp_path, called.replace(
        "self.q.drive(self.a.value)", "self.q.drive(0)"))
    assert base.digest != edited.digest


def test_env_digest_elides_only_the_registering_class_methods(tmp_path):
    """``self.X`` names a method of the class whose code registers it:
    a same-named method of another or a nested class stays in."""
    source = ENV_V1 + '''
class Other:
    def _proc(self):
        self.q.drive(1)

    class Inner:
        def __init__(self):
            self.comb(self._proc, [self.a])
'''
    base = _env_digest(tmp_path, source)
    assert base.n_elided == 1
    edited = _env_digest(tmp_path, source.replace(
        "self.q.drive(1)", "self.q.drive(2)"))
    assert base.digest != edited.digest


def test_env_digest_hashes_paths_with_forward_slashes(tmp_path,
                                                      monkeypatch):
    """Identical checkouts key identically on Windows and POSIX: each
    file's relative path is hashed with ``/`` whatever the separator."""
    package = os.path.join(str(tmp_path), "pkg")
    os.makedirs(package)
    with open(os.path.join(package, "mod.py"), "w",
              encoding="utf-8") as handle:
        handle.write(ENV_V1)
    native = environment_digest(roots=(package,))
    relpath = os.path.relpath
    monkeypatch.setattr(os, "sep", "\\")
    monkeypatch.setattr(os.path, "relpath", lambda path, start: relpath(
        path, start).replace("/", "\\"))
    windows = environment_digest(roots=(package,))
    assert windows.digest == native.digest


def test_env_digest_hashes_unparsable_files_raw(tmp_path):
    broken = "def broken(:\n"
    base = _env_digest(tmp_path, broken)
    assert base.diagnostics and "hashed raw" in base.diagnostics[0]
    # On the raw fallback even a comment edit invalidates — sound.
    edited = _env_digest(tmp_path, broken + "# note\n")
    assert base.digest != edited.digest


# -- manifest round-trip and differ ----------------------------------------


@pytest.fixture(scope="module")
def stock_index():
    return ImpactIndex([NodeConfig(name="node")])


def test_manifest_round_trip(tmp_path, stock_index):
    manifest = stock_index.manifest()
    path = os.path.join(str(tmp_path), "manifest.json")
    manifest.write(path)
    loaded = DesignManifest.read(path)
    assert loaded.design_hash == manifest.design_hash
    assert loaded.environment.digest == manifest.environment.digest
    assert set(loaded.designs) == set(manifest.designs)
    assert diff_manifests(manifest, loaded) == {
        "node::bca": None, "node::rtl": None}


def test_manifest_schema_is_enforced(tmp_path, stock_index):
    path = os.path.join(str(tmp_path), "manifest.json")
    stock_index.manifest().write(path)
    data = json.load(open(path))
    data["schema"] = "repro.analysis/impact-manifest/v0"
    json.dump(data, open(path, "w"))
    with pytest.raises(ManifestError):
        DesignManifest.read(path)
    with pytest.raises(ManifestError):
        DesignManifest.read(os.path.join(str(tmp_path), "missing.json"))


@pytest.mark.parametrize("damage", [
    lambda data: data.update(designs=[]),
    lambda data: data["designs"]["node::rtl"].update(processes=[]),
    lambda data: data.update(environment=[]),
], ids=["designs-list", "processes-list", "environment-list"])
def test_malformed_manifest_is_a_manifest_error(tmp_path, stock_index,
                                                damage):
    """A cached batch reads the store's manifest as outside input: any
    malformed body is a ``ManifestError``, which the batch ignores."""
    path = os.path.join(str(tmp_path), "manifest.json")
    stock_index.manifest().write(path)
    data = json.load(open(path))
    damage(data)
    json.dump(data, open(path, "w"))
    with pytest.raises(ManifestError):
        DesignManifest.read(path)


def _mutated(manifest, label, process_suffix):
    """Deep-copied manifest with one process digest flipped."""
    other = copy.deepcopy(manifest)
    design = other.designs[label]
    for name in design.processes:
        if name.endswith(process_suffix):
            old = design.processes[name]
            design.processes[name] = ProcessFingerprint(
                name=old.name, kind=old.kind, mode=old.mode,
                digest="0" * 64, reads=old.reads, writes=old.writes)
            return other
    raise AssertionError(f"no process ending in {process_suffix}")


def test_differ_classifies_process_change_with_cone(stock_index):
    manifest = stock_index.manifest()
    edited = _mutated(manifest, "node::bca", "_on_clock")
    assert diff_manifests(manifest, edited) == {
        "node::bca": "cone-changed: tb.dut._on_clock", "node::rtl": None}


def test_differ_classifies_environment_change(stock_index):
    manifest = stock_index.manifest()
    edited = copy.deepcopy(manifest)
    object.__setattr__(edited.environment, "digest", "f" * 64)
    assert diff_manifests(manifest, edited) == {
        "node::bca": "environment-changed",
        "node::rtl": "environment-changed"}


def test_differ_classifies_config_change(stock_index):
    manifest = stock_index.manifest()
    edited = copy.deepcopy(manifest)
    edited.designs["node::rtl"].config_digest = "0" * 64
    assert diff_manifests(manifest, edited) == {
        "node::bca": None, "node::rtl": "config-changed"}


def test_differ_classifies_added_and_removed(stock_index):
    """A design the stored manifest lacks has no reason to give (its
    misses read ``no-entry``); one the current batch lacks is not
    asked about."""
    manifest = stock_index.manifest()
    pruned = copy.deepcopy(manifest)
    del pruned.designs["node::bca"]
    assert diff_manifests(pruned, manifest) == {
        "node::bca": None, "node::rtl": None}
    assert diff_manifests(manifest, pruned) == {"node::rtl": None}


def _opaque_design():
    design = DesignFingerprints(
        config_name="node", view="bca", config_digest="c" * 64)
    design.processes["tb.dut._mystery"] = ProcessFingerprint(
        name="tb.dut._mystery", kind="comb", mode="opaque",
        digest=None, reason="source unavailable")
    return design


def test_opaque_process_forces_whole_design_fallback():
    """Satellite (c): an unrecoverable process degrades its design to
    the monolithic hash, with a structured diagnostic naming it."""
    design = _opaque_design()
    whole = design_source_hash()
    reason = design.fallback_reason
    assert reason is not None
    assert "opaque-process" in reason and "tb.dut._mystery" in reason
    env = environment_digest(roots=())
    assert design.design_key(env, whole) == whole


def test_differ_treats_fallback_as_affected(stock_index):
    manifest = stock_index.manifest()
    edited = copy.deepcopy(manifest)
    edited.designs["node::bca"] = _opaque_design()
    assert diff_manifests(manifest, edited) == {
        "node::bca": "fallback: opaque-process: unrecoverable source "
                     "for tb.dut._mystery",
        "node::rtl": None}


# -- the index -------------------------------------------------------------


def test_index_keys_are_per_view_and_stable(stock_index):
    rtl = stock_index.design_key("node", "rtl")
    bca = stock_index.design_key("node", "bca")
    assert rtl != bca
    assert rtl != design_source_hash()
    fresh = ImpactIndex([NodeConfig(name="node")])
    assert fresh.design_key("node", "rtl") == rtl
    assert fresh.design_key("node", "bca") == bca


def test_index_keys_do_not_depend_on_the_batch_composition():
    """A design's key is the same whichever configs the index holds,
    so an entry stored by one batch hits in any batch containing it."""
    configs = configuration_matrix(small=True)
    everything = ImpactIndex(configs)
    for config in configs:
        alone = ImpactIndex([config])
        assert alone.environment == everything.environment, config.name
        for view in ("rtl", "bca"):
            assert (alone.design_key(config.name, view)
                    == everything.design_key(config.name, view))


def _elided_spans():
    """``(file, first line, name)`` of every def the residual elides."""
    package_dir = os.path.dirname(os.path.dirname(impact.__file__))
    spans = set()
    for root in DESIGN_ROOTS:
        for dirpath, _, filenames in os.walk(
                os.path.join(package_dir, root)):
            for name in filenames:
                if not name.endswith(".py"):
                    continue
                path = os.path.abspath(os.path.join(dirpath, name))
                with open(path, encoding="utf-8") as handle:
                    tree = ast.parse(handle.read())
                classes = (node for node in ast.walk(tree)
                           if isinstance(node, ast.ClassDef))
                spans.update((path, node.lineno, node.name)
                             for node in impact._registered_defs(classes))
    return spans


def test_every_shipped_process_body_is_elided_from_the_residual():
    """No process of the full matrix leaks its body into the residual,
    where an edit to it would re-run every design."""
    elided = _elided_spans()
    runtime = set()
    for config in configuration_matrix():
        for view in ("rtl", "bca"):
            sim = VerificationEnv(config, view=view).sim
            for info in sim.comb_processes + sim.clocked_processes:
                code, name = impact._process_code(info)
                runtime.add((os.path.abspath(code.co_filename),
                             code.co_firstlineno, name))
    assert runtime and runtime <= elided


def test_index_unknown_design_degrades_to_whole_hash(stock_index):
    assert (stock_index.design_key("never-built", "rtl")
            == design_source_hash())


def test_index_resolver_and_counters(stock_index):
    class Job:
        config = NodeConfig(name="node")
        view = "bca"

    resolve = stock_index.resolver()
    assert resolve(Job()) == stock_index.design_key("node", "bca")
    counters = stock_index.counters()
    assert counters["impact.designs"] == 2
    assert counters["impact.cone_keys"] == 2
    assert counters["impact.design_fallbacks"] == 0
    assert counters["impact.processes"] == sum(
        counters[f"impact.{mode}"]
        for mode in ("semantic_ast", "raw_source", "opaque"))
    assert {e["event"] for e in stock_index.events} == {
        "impact.design-key"}
    assert all(e["mode"] == "cone" for e in stock_index.events)
    # Every shipped process fingerprints on the top rung.
    assert all(e["degraded"] == [] for e in stock_index.events)
