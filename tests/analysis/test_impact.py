"""Tests for the change-impact machinery: environment residual hash,
manifest round-trip, differ classification, fan-out closure, index keys
and the ``python -m repro.analysis impact`` CLI."""

import ast
import copy
import json
import os

import pytest

from repro.analysis.impact import (
    DesignFingerprints,
    DesignManifest,
    ImpactIndex,
    ManifestError,
    ProcessFingerprint,
    build_manifest,
    diff_manifests,
    environment_digest,
)
from repro.analysis.impact_cli import main as impact_main
from repro.cache.store import design_source_hash
from repro.stbus import NodeConfig


# -- environment residual hash ---------------------------------------------


def _env_digest(tmp_path, source, process_names=()):
    """Write ``source`` as the single module of a temp design root and
    digest it, eliding the named defs as registered process bodies."""
    path = os.path.join(str(tmp_path), "mod.py")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(source)
    spans = set()
    if process_names:
        tree = ast.parse(source)
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) \
                    and node.name in process_names:
                spans.add(
                    (os.path.abspath(path), node.lineno, node.name))
    return environment_digest(spans, roots=(str(tmp_path),))


ENV_V1 = '''\
"""Module docstring."""
DEPTH = 4

def helper(x):
    return x + DEPTH

class Node:
    def _proc(self):
        self.q.drive(self.a.value)
'''


def test_env_digest_ignores_comments_and_docstrings(tmp_path):
    base = _env_digest(tmp_path, ENV_V1, ("_proc",))
    commented = ENV_V1.replace(
        "DEPTH = 4", "DEPTH = 4  # pipeline depth").replace(
        '"""Module docstring."""', '"""Rewritten docstring."""')
    edited = _env_digest(tmp_path, commented, ("_proc",))
    assert base.digest == edited.digest
    assert base.n_elided == 1


def test_env_digest_ignores_registered_process_bodies(tmp_path):
    base = _env_digest(tmp_path, ENV_V1, ("_proc",))
    body_edit = ENV_V1.replace(
        "self.q.drive(self.a.value)",
        "self.q.drive(self.a.value & 1)")
    edited = _env_digest(tmp_path, body_edit, ("_proc",))
    assert base.digest == edited.digest


def test_env_digest_catches_top_level_change(tmp_path):
    base = _env_digest(tmp_path, ENV_V1, ("_proc",))
    edited = _env_digest(
        tmp_path, ENV_V1.replace("DEPTH = 4", "DEPTH = 8"), ("_proc",))
    assert base.digest != edited.digest


def test_env_digest_catches_non_process_function_edit(tmp_path):
    base = _env_digest(tmp_path, ENV_V1, ("_proc",))
    edited = _env_digest(
        tmp_path,
        ENV_V1.replace("return x + DEPTH", "return x - DEPTH"),
        ("_proc",))
    assert base.digest != edited.digest


ENV_CLOSURE = '''\
class Node:
    def __init__(self, sim):
        MASK = 7

        def _proc():
            self.q.drive(self.a.value & MASK)

        sim.comb(_proc)
'''


def test_env_digest_catches_constant_value_edit_outside_the_body(
        tmp_path):
    """A process fingerprint does not see a closure constant's value;
    the residual around the elided body does."""
    base = _env_digest(tmp_path, ENV_CLOSURE, ("_proc",))
    assert base.n_elided == 1
    edited = _env_digest(
        tmp_path, ENV_CLOSURE.replace("MASK = 7", "MASK = 3"), ("_proc",))
    assert base.digest != edited.digest


def test_env_digest_without_elision_sees_process_edits(tmp_path):
    """An unregistered (never-manifested) process body counts as
    environment code — edits to it invalidate, conservatively."""
    base = _env_digest(tmp_path, ENV_V1, ())
    edited = _env_digest(
        tmp_path,
        ENV_V1.replace("self.q.drive(self.a.value)",
                       "self.q.drive(0)"),
        ())
    assert base.n_elided == 0
    assert base.digest != edited.digest


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
    report = diff_manifests(manifest, loaded)
    assert not report.affected
    assert len(report.unaffected) == 2


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
    report = diff_manifests(manifest, edited, graphs=stock_index.graphs)
    assert [d.label for d in report.affected] == ["node::bca"]
    assert [d.label for d in report.unaffected] == ["node::rtl"]
    (impact,) = report.affected
    assert impact.reason == "1 semantically-changed process(es)"
    assert impact.changed_processes == ("tb.dut._on_clock",)
    # The clocked process writes reach downstream state: a non-empty
    # fan-out cone of concrete signal names.
    assert impact.affected_signals
    assert all(isinstance(s, str) for s in impact.affected_signals)
    assert 0 < report.rerun_fraction < 1


def test_differ_classifies_environment_change(stock_index):
    manifest = stock_index.manifest()
    edited = copy.deepcopy(manifest)
    object.__setattr__(edited.environment, "digest", "f" * 64)
    report = diff_manifests(manifest, edited)
    assert report.environment_changed
    assert len(report.affected) == 2 and not report.unaffected
    assert all("environment" in d.reason for d in report.affected)


def test_differ_classifies_config_change(stock_index):
    manifest = stock_index.manifest()
    edited = copy.deepcopy(manifest)
    edited.designs["node::rtl"].config_digest = "0" * 64
    report = diff_manifests(manifest, edited)
    assert [d.label for d in report.affected] == ["node::rtl"]
    assert "configuration" in report.affected[0].reason


def test_differ_classifies_added_and_removed(stock_index):
    manifest = stock_index.manifest()
    pruned = copy.deepcopy(manifest)
    del pruned.designs["node::bca"]
    report = diff_manifests(pruned, manifest)
    added = [d for d in report.affected if "added" in d.reason]
    assert [d.label for d in added] == ["node::bca"]
    report = diff_manifests(manifest, pruned)
    removed = [d for d in report.affected if "removed" in d.reason]
    assert [d.label for d in removed] == ["node::bca"]


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
    env = environment_digest(set(), roots=())
    assert design.design_key(env, whole) == whole


def test_differ_treats_fallback_as_affected(stock_index):
    manifest = stock_index.manifest()
    edited = copy.deepcopy(manifest)
    edited.designs["node::bca"] = _opaque_design()
    report = diff_manifests(manifest, edited)
    affected = {d.label: d for d in report.affected}
    assert "node::bca" in affected
    assert "conservative fallback" in affected["node::bca"].reason
    assert "node::rtl" in {d.label for d in report.unaffected}


def test_report_render_and_json(stock_index):
    manifest = stock_index.manifest()
    edited = _mutated(manifest, "node::bca", "_on_clock")
    report = diff_manifests(manifest, edited, graphs=stock_index.graphs)
    text = report.render()
    assert "1/2 design(s) affected" in text
    assert "tb.dut._on_clock" in text
    assert "fan-out cone" in text
    payload = report.to_dict()
    assert payload["schema_version"] == 1
    assert payload["n_affected"] == 1
    json.dumps(payload)  # JSON-serializable throughout


# -- the index -------------------------------------------------------------


def test_index_keys_are_per_view_and_stable(stock_index):
    rtl = stock_index.design_key("node", "rtl")
    bca = stock_index.design_key("node", "bca")
    assert rtl != bca
    assert rtl != design_source_hash()
    fresh = ImpactIndex([NodeConfig(name="node")])
    assert fresh.design_key("node", "rtl") == rtl
    assert fresh.design_key("node", "bca") == bca


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


def test_build_manifest_convenience():
    manifest = build_manifest([NodeConfig(name="node")], views=("rtl",))
    assert set(manifest.designs) == {"node::rtl"}
    assert manifest.design_hash == design_source_hash()


# -- the CLI ---------------------------------------------------------------


def test_cli_write_then_self_diff(tmp_path, capsys):
    path = os.path.join(str(tmp_path), "baseline.json")
    assert impact_main(["--stock", "--write", path]) == 0
    out = capsys.readouterr().out
    assert "wrote manifest" in out and "2 design(s)" in out
    assert impact_main(["--stock", "--baseline", path]) == 0
    out = capsys.readouterr().out
    assert "0/2 design(s) affected" in out
    assert "provably unaffected" in out


def test_cli_detects_change_and_exits_nonzero(tmp_path, capsys):
    path = os.path.join(str(tmp_path), "baseline.json")
    assert impact_main(["--stock", "--write", path]) == 0
    capsys.readouterr()
    data = json.load(open(path))
    for fp in data["designs"]["node::bca"]["processes"].values():
        fp["digest"] = "0" * 64
        break
    json.dump(data, open(path, "w"))
    assert impact_main(["--stock", "--baseline", path]) == 1
    assert "AFFECTED node::bca" in capsys.readouterr().out


def test_cli_json_format(tmp_path, capsys):
    path = os.path.join(str(tmp_path), "baseline.json")
    assert impact_main(
        ["--stock", "--write", path, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema_version"] == 1
    assert payload["n_designs"] == 2
    assert impact_main(
        ["--stock", "--baseline", path, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n_affected"] == 0
    assert payload["counters"]["impact.designs"] == 2


def test_cli_usage_errors(tmp_path, capsys):
    # Nothing to do
    assert impact_main(["--stock"]) == 2
    assert "nothing to do" in capsys.readouterr().err
    # Conflicting sources
    assert impact_main(
        ["--stock", "--matrix", "--write", "x.json"]) == 2
    capsys.readouterr()
    # Unreadable/wrong-schema baseline
    path = os.path.join(str(tmp_path), "bad.json")
    json.dump({"schema": "nope"}, open(path, "w"))
    assert impact_main(["--stock", "--baseline", path]) == 2
    assert "schema" in capsys.readouterr().err


def test_cli_dispatch_through_analysis_main(tmp_path, capsys):
    from repro.analysis.cli import main as analysis_main

    path = os.path.join(str(tmp_path), "baseline.json")
    assert analysis_main(["impact", "--stock", "--write", path]) == 0
    assert os.path.exists(path)
