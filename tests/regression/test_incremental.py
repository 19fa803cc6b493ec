"""End-to-end proof of incremental regression soundness.

The contract under test (the ISSUE's acceptance criteria):

* a **comment-only edit** to a design source re-runs **zero**
  simulation jobs — proven by re-running the edited tree under a
  crash-everything chaos spec — and the outputs are byte-identical;
* a **semantic edit to one process** re-runs only the entries whose
  fan-out cone contains that process (here: the BCA view, leaving the
  RTL view provably unaffected), and the incremental outputs are
  byte-identical to a full cold re-run of the edited tree;
* an **opaque process** (unrecoverable source) degrades the whole
  design to the monolithic source hash with a structured diagnostic —
  conservative, never stale;
* incremental mode without a result cache is a configuration error
  everywhere it can be requested (runner, flow, CLI).

The edit tests run real subprocess batches against a *copy* of the
package tree, because a source edit cannot be applied to an
already-imported module in-process.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

from repro.analysis import impact as impact_mod
from repro.analysis.impact import MODE_OPAQUE, ImpactIndex
from repro.cache import design_source_hash
from repro.regression import RegressionRunner
from repro.regression.chaos import CHAOS_ENV
from repro.regression.cli import main as regression_main
from repro.regression.configs import save_config_dir
from repro.regression.flow import CommonVerificationFlow
from repro.stbus import NodeConfig, ProtocolType

REPO_SRC = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "..", "src"))

CLOCK_MARKER = "def _on_clock(self) -> None:"


def _config():
    return NodeConfig(n_initiators=2, n_targets=2,
                      protocol_type=ProtocolType.T3, name="incr_cfg")


def _copy_tree(dst):
    shutil.copytree(
        REPO_SRC, str(dst),
        ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))
    return str(dst)


def _edit_bca_clock(src, insert):
    """Insert ``insert`` as the first body line of
    ``BcaNode._on_clock`` in the copied tree."""
    path = os.path.join(src, "repro", "bca", "node.py")
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    assert text.count(CLOCK_MARKER) == 1
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text.replace(
            CLOCK_MARKER, CLOCK_MARKER + "\n" + insert, 1))


def _run_batch(src, cfg_dir, workdir, cache_dir, metrics,
               chaos=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = src
    env.pop("REPRO_CACHE_DIR", None)
    env.pop(CHAOS_ENV, None)
    if chaos is not None:
        env[CHAOS_ENV] = chaos
    proc = subprocess.run(
        [sys.executable, "-m", "repro.regression", str(cfg_dir),
         "--workdir", str(workdir),
         "--tests", "t01_sanity_write_read", "--seeds", "1",
         "--skip-lint", "--cache-dir", str(cache_dir),
         "--incremental", "--metrics-out", str(metrics)],
        capture_output=True, text=True, env=env)
    # Exit 1 is the expected not-signed-off verdict for this deliberately
    # tiny batch (one test, one seed, coverage far below threshold);
    # anything else is a real failure.  A chaos crash lands here too.
    assert proc.returncode in (0, 1), proc.stdout + proc.stderr
    with open(metrics, "r", encoding="utf-8") as handle:
        return json.load(handle)["batch"]


def _snapshot(workdir):
    snap = {}
    for dirpath, _, filenames in os.walk(str(workdir)):
        for name in filenames:
            full = os.path.join(dirpath, name)
            rel = os.path.relpath(full, str(workdir))
            with open(full, "rb") as handle:
                snap[rel] = handle.read()
    assert snap
    return snap


@pytest.fixture
def cfg_dir(tmp_path):
    path = tmp_path / "cfg"
    save_config_dir([_config()], str(path))
    return path


def test_comment_only_edit_executes_zero_sim_jobs(tmp_path, cfg_dir):
    src = _copy_tree(tmp_path / "pkg")
    cold = _run_batch(src, cfg_dir, tmp_path / "cold",
                      tmp_path / "cache", tmp_path / "cold.json")
    assert cold["cache"] == {
        "hits": 0, "misses": 2, "stores": 2,
        "verify_failures": 0, "quarantined": 0,
    }
    assert cold["impact"]["impact.designs"] == 2
    assert cold["impact"]["impact.cone_keys"] == 2
    _edit_bca_clock(
        src, "        # incremental-impact probe: semantically inert")
    # Any simulation that executes now crashes — so a passing,
    # byte-identical warm batch proves the comment cost zero re-runs.
    warm = _run_batch(src, cfg_dir, tmp_path / "warm",
                      tmp_path / "cache", tmp_path / "warm.json",
                      chaos="crash:*:*:*:*")
    assert warm["cache"] == {
        "hits": 2, "misses": 0, "stores": 0,
        "verify_failures": 0, "quarantined": 0,
    }
    assert _snapshot(tmp_path / "warm") == _snapshot(tmp_path / "cold")


def test_single_process_edit_reruns_only_its_cone(tmp_path, cfg_dir):
    src = _copy_tree(tmp_path / "pkg")
    _run_batch(src, cfg_dir, tmp_path / "cold",
               tmp_path / "cache", tmp_path / "cold.json")
    # A behavior-neutral but AST-visible edit to one BCA process: only
    # the BCA entry's cone contains it, so the RTL entry must hit.
    _edit_bca_clock(src, "        _impact_probe = 0")
    warm = _run_batch(src, cfg_dir, tmp_path / "warm",
                      tmp_path / "cache", tmp_path / "warm.json")
    assert warm["cache"] == {
        "hits": 1, "misses": 1, "stores": 1,
        "verify_failures": 0, "quarantined": 0,
    }
    # Soundness: the selective re-run is byte-identical to a full cold
    # re-run of the edited tree into a fresh cache.
    full = _run_batch(src, cfg_dir, tmp_path / "full",
                      tmp_path / "cache2", tmp_path / "full.json")
    assert full["cache"]["misses"] == 2
    assert _snapshot(tmp_path / "warm") == _snapshot(tmp_path / "full")


def test_opaque_process_degrades_to_whole_design(monkeypatch):
    """One unrecoverable process body widens that design's key to the
    monolithic source hash and leaves a structured diagnostic."""
    real = impact_mod.design_fingerprints

    def doctored(config, view, *args):
        fingerprints, graph = real(config, view, *args)
        if view == "bca":
            name = sorted(fingerprints.processes)[0]
            fingerprints.processes[name] = dataclasses.replace(
                fingerprints.processes[name], mode=MODE_OPAQUE,
                digest=None, reason="source unavailable")
        return fingerprints, graph

    monkeypatch.setattr(impact_mod, "design_fingerprints", doctored)
    index = ImpactIndex([_config()])
    counters = index.counters()
    assert counters["impact.design_fallbacks"] == 1
    assert counters["impact.cone_keys"] == 1
    assert counters["impact.opaque"] == 1
    assert index.design_key("incr_cfg", "bca") == design_source_hash()
    assert index.design_key("incr_cfg", "rtl") != design_source_hash()
    fallbacks = [event for event in index.events
                 if event["mode"] == "whole-design"]
    assert len(fallbacks) == 1
    assert fallbacks[0]["design"] == "incr_cfg::bca"
    assert "opaque-process" in fallbacks[0]["reason"]
    # The event names the process that left the top rung, and why.
    assert [(d["mode"], d["reason"]) for d in fallbacks[0]["degraded"]] \
        == [(MODE_OPAQUE, "source unavailable")]


def test_runner_rejects_incremental_without_cache(tmp_path):
    with pytest.raises(ValueError, match="result cache"):
        RegressionRunner([_config()], tests=["t01_sanity_write_read"],
                         seeds=[1], workdir=str(tmp_path / "work"),
                         incremental=True)


def test_flow_rejects_incremental_without_cache():
    with pytest.raises(ValueError, match="result cache"):
        CommonVerificationFlow(_config(), incremental=True)


def test_cli_rejects_incremental_without_cache(
        tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    assert regression_main([str(tmp_path), "--incremental"]) == 2
    assert "--incremental requires a result cache" \
        in capsys.readouterr().err
