"""End-to-end proof that cone-scoped cache keys are sound and reusable.

Every cached batch keys its entries on cone-scoped design keys.  The
contract under test:

* a **comment-only edit** to a design source re-runs **zero**
  simulation jobs — proven by re-running the edited tree under a
  crash-everything chaos spec — and the outputs are byte-identical;
* the keys do not depend on the **batch composition**: entries stored
  by a batch of config A hit in a later batch of A+B;
* a **semantic edit to one process** re-runs only the entries whose
  fan-out cone contains that process (here: the BCA view, leaving the
  RTL view provably unaffected), and the selective outputs are
  byte-identical to a full cold re-run of the edited tree;
* an **opaque process** (unrecoverable source) degrades the whole
  design to the monolithic source hash with a structured diagnostic —
  conservative, never stale;
* every cached batch's metrics carry the ``batch.impact`` counters,
  and the retired ``--incremental`` flag is a usage error.

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
from repro.regression.cli import main as regression_main
from repro.regression.configs import save_config_dir
from repro.stbus import NodeConfig, ProtocolType

REPO_ROOT = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", ".."))
REPO_SRC = os.path.join(REPO_ROOT, "src")

CLOCK_MARKER = "def _on_clock(self) -> None:"


def _config():
    return NodeConfig(n_initiators=2, n_targets=2,
                      protocol_type=ProtocolType.T3, name="incr_cfg")


def _programmable_config():
    """A config registering processes ``_config()`` does not (the
    programming port's master and the node's ``_prog_comb``)."""
    return NodeConfig(n_initiators=2, n_targets=2,
                      protocol_type=ProtocolType.T3,
                      has_programming_port=True, name="incr_prog")


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
    # The copied tree provides ``repro``; the checkout, the chaos helper.
    env["PYTHONPATH"] = os.pathsep.join([src, REPO_ROOT])
    env.pop("REPRO_CACHE_DIR", None)
    entry = ["repro.regression"] if chaos is None \
        else ["tests.chaos", chaos]
    proc = subprocess.run(
        [sys.executable, "-m", *entry, str(cfg_dir),
         "--workdir", str(workdir),
         "--tests", "t01_sanity_write_read", "--seeds", "1",
         "--skip-lint", "--cache-dir", str(cache_dir),
         "--metrics-out", str(metrics)],
        capture_output=True, text=True, env=env)
    # Exit 1 is the expected not-signed-off verdict for this deliberately
    # tiny batch (one test, one seed, coverage far below threshold);
    # anything else is a real failure.  A chaos crash lands here too.
    assert proc.returncode in (0, 1), proc.stdout + proc.stderr
    with open(metrics, "r", encoding="utf-8") as handle:
        return json.load(handle)["batch"]


def _snapshot(workdir, prefix=""):
    snap = {}
    for dirpath, _, filenames in os.walk(str(workdir)):
        for name in filenames:
            if not name.startswith(prefix):
                continue
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
    # The index re-summarized only the edited bca/node.py; every other
    # source came from the cache.
    files = (cold["impact"]["impact.source_hits"]
             + cold["impact"]["impact.source_misses"])
    assert files > 1
    assert (warm["impact"]["impact.source_hits"],
            warm["impact"]["impact.source_misses"]) == (files - 1, 1)


def test_entries_of_one_config_hit_in_a_batch_of_two(tmp_path, cfg_dir):
    """Keys do not depend on which configs a batch holds: config A's
    entries, stored by an A-only batch, hit after a comment-only edit
    in a batch of A and a config B that registers processes A lacks."""
    src = _copy_tree(tmp_path / "pkg")
    _run_batch(src, cfg_dir, tmp_path / "cold",
               tmp_path / "cache", tmp_path / "cold.json")
    both = tmp_path / "cfg_both"
    save_config_dir([_config(), _programmable_config()], str(both))
    _edit_bca_clock(
        src, "        # composition probe: semantically inert")
    # Any simulation of A that executes now crashes.
    warm = _run_batch(src, both, tmp_path / "warm", tmp_path / "cache",
                      tmp_path / "warm.json", chaos="crash:incr_cfg:*:*:*")
    assert warm["cache"] == {
        "hits": 2, "misses": 2, "stores": 2,
        "verify_failures": 0, "quarantined": 0,
    }
    assert warm["impact"]["impact.cone_keys"] == 4
    assert (_snapshot(tmp_path / "warm", "incr_cfg__")
            == _snapshot(tmp_path / "cold", "incr_cfg__"))


def test_cached_batch_metrics_carry_impact_counters(tmp_path, cfg_dir):
    """A cached batch builds the impact index, so its metrics rollup
    has ``batch.impact`` with one cone key per (config, view)."""
    both = tmp_path / "cfg_both"
    save_config_dir([_config(), _programmable_config()], str(both))
    metrics = tmp_path / "metrics.json"
    assert regression_main(
        [str(both), "--workdir", str(tmp_path / "work"),
         "--tests", "t01_sanity_write_read", "--seeds", "1",
         "--skip-lint", "--cache-dir", str(tmp_path / "cache"),
         "--metrics-out", str(metrics)]) in (0, 1)
    with open(metrics, "r", encoding="utf-8") as handle:
        impact = json.load(handle)["batch"]["impact"]
    assert impact["impact.designs"] == 4
    assert impact["impact.cone_keys"] == 4
    assert impact["impact.design_fallbacks"] == 0


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


def test_cli_rejects_removed_incremental_flag(tmp_path, capsys):
    """Every cached batch keys on cone-scoped design keys, so the flag
    that used to opt in to them is gone."""
    save_config_dir([_config()], str(tmp_path / "cfgs"))
    with pytest.raises(SystemExit) as excinfo:
        regression_main([str(tmp_path / "cfgs"), "--incremental",
                         "--cache-dir", str(tmp_path / "cache")])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --incremental" \
        in capsys.readouterr().err
