"""Tests for ``python -m repro.cache explain``.

The command's contract: every component of an entry's cache key is
printed (design hash, config digest, test, seed, view, bugs, checker
flag) alongside an integrity verdict, so a surprising miss is
diagnosable instead of opaque.  Exit status 0 = verified, 1 = entry
exists but fails verification, 2 = usage error.
"""

import glob
import hashlib
import json
import os
import sys

import pytest

from repro.analysis.impact import ImpactIndex
from repro.cache import ResultCache, design_source_hash
from repro.cache.cli import USAGE_EXIT, main as cache_main
from repro.cache.store import _entry_digest
from repro.regression.parallel import RunJob, execute_run_job
from repro.regression.resilience import run_artifact_paths
from repro.stbus import NodeConfig, ProtocolType


def _job(workdir):
    os.makedirs(str(workdir), exist_ok=True)
    stem = os.path.join(str(workdir), "entry__rtl")
    config = NodeConfig(n_initiators=2, n_targets=2,
                        protocol_type=ProtocolType.T3, name="cache_cfg")
    return RunJob(config=config, test_name="t01_sanity_write_read",
                  seed=1, view="rtl", vcd_path=stem + ".vcd",
                  report_stem=stem, bugs=frozenset())


@pytest.fixture(scope="module")
def stored(tmp_path_factory):
    """One real executed-and-stored entry, shared across tests, keyed
    like a regression batch keys it."""
    tmp_path = tmp_path_factory.mktemp("explain")
    job = _job(tmp_path / "work")
    result = execute_run_job(job)
    index = ImpactIndex([job.config], views=("rtl",))
    cache = ResultCache(str(tmp_path / "cache"), index.resolver())
    path = cache.store(job, result, run_artifact_paths(job))
    assert path is not None
    return job, cache, path


def test_explain_by_path(stored, capsys):
    job, cache, path = stored
    assert cache_main(["explain", path]) == 0
    out = capsys.readouterr().out
    assert "integrity: verified" in out
    assert "key components:" in out
    assert f"design: {cache.design_key(job)}" in out
    assert "(cone-scoped design key;" in out
    expected_cfg = hashlib.sha256(
        job.config.to_text().encode("utf-8")).hexdigest()
    assert f"config sha256: {expected_cfg}" in out
    assert "test: t01_sanity_write_read" in out
    assert "seed: 1" in out
    assert "view: rtl" in out
    assert "bugs: (none)" in out
    assert "with_arbitration_checker" not in out


def test_explain_by_key_with_root(stored, capsys):
    job, cache, path = stored
    key = os.path.basename(path).split(".", 1)[0]
    assert cache_main(["explain", key, "--root", cache.root]) == 0
    assert "integrity: verified" in capsys.readouterr().out


def test_explain_by_key_with_env_root(stored, capsys, monkeypatch):
    job, cache, path = stored
    key = os.path.basename(path).split(".", 1)[0]
    monkeypatch.setenv("REPRO_CACHE_DIR", cache.root)
    assert cache_main(["explain", key]) == 0
    assert "integrity: verified" in capsys.readouterr().out


def test_explain_json(stored, capsys):
    job, cache, path = stored
    assert cache_main(["explain", path, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verified"] is True
    assert payload["key"] == os.path.basename(path).split(".", 1)[0]
    inputs = payload["key_inputs"]
    assert inputs["design"] == cache.design_key(job)
    assert inputs["design"] != design_source_hash()
    assert inputs["test"] == "t01_sanity_write_read"
    assert inputs["seed"] == 1
    assert inputs["view"] == "rtl"
    assert inputs["bugs"] == []
    assert "with_arbitration_checker" not in inputs
    assert "report" in payload["artifacts"]


def test_explain_labels_the_whole_design_fallback(tmp_path, capsys):
    """A design with an opaque process keys on the whole-source hash;
    ``explain`` names that fallback."""
    job = _job(tmp_path / "work")
    cache = ResultCache(str(tmp_path / "cache"),
                        lambda job: design_source_hash())
    path = cache.store(job, execute_run_job(job), run_artifact_paths(job))
    assert cache_main(["explain", path]) == 0
    out = capsys.readouterr().out
    assert f"design: {design_source_hash()}" in out
    assert "(whole-design fallback (opaque process);" in out


def test_explain_pre_upgrade_entry(stored, capsys, tmp_path):
    """An entry stored before key components were recorded still
    explains — with an honest "not recorded" note, not a crash."""
    job, cache, path = stored
    with open(path, "r", encoding="utf-8") as handle:
        entry = json.load(handle)
    del entry["key_inputs"]
    entry["digest"] = _entry_digest(
        {name: value for name, value in entry.items()
         if name != "digest"})
    old = tmp_path / os.path.basename(path)
    with open(old, "w", encoding="utf-8") as handle:
        json.dump(entry, handle, sort_keys=True)
    assert cache_main(["explain", str(old)]) == 0
    out = capsys.readouterr().out
    assert "integrity: verified" in out
    assert "key components: not recorded" in out


def test_explain_corrupt_entry_exits_1(stored, capsys, tmp_path):
    job, cache, path = stored
    with open(path, "r", encoding="utf-8") as handle:
        entry = json.load(handle)
    blob = entry["artifacts"]["report"]
    entry["artifacts"]["report"] = \
        ("A" if blob[0] != "A" else "B") + blob[1:]
    bad = tmp_path / os.path.basename(path)
    with open(bad, "w", encoding="utf-8") as handle:
        json.dump(entry, handle, sort_keys=True)
    assert cache_main(["explain", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "integrity: FAILED" in out
    # The surviving fields still print, so the damage is diagnosable.
    assert "test: t01_sanity_write_read" in out


def test_explain_missing_entry_exits_2(capsys):
    assert cache_main(["explain", "/no/such/entry.json"]) == USAGE_EXIT
    assert "no such entry" in capsys.readouterr().err


def test_explain_key_without_root_exits_2(capsys, monkeypatch):
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    assert cache_main(["explain", "a" * 64]) == USAGE_EXIT
    assert "needs a store root" in capsys.readouterr().err


def test_explain_unknown_key_under_root_exits_2(capsys, tmp_path):
    assert cache_main(
        ["explain", "a" * 64, "--root", str(tmp_path)]) == USAGE_EXIT
    assert "no such entry" in capsys.readouterr().err


# -- source-summary entries --------------------------------------------------


@pytest.fixture(scope="module")
def source_entry(tmp_path_factory):
    """One source summary the impact index published to a store."""
    root = str(tmp_path_factory.mktemp("explain_sources") / "cache")
    ImpactIndex([NodeConfig()], views=("rtl",), store=ResultCache(root))
    path = sorted(glob.glob(os.path.join(root, "sources", "*", "*.json")))[0]
    return root, path


def test_explain_source_entry(source_entry, capsys):
    root, path = source_entry
    assert cache_main(["explain", path]) == 0
    out = capsys.readouterr().out
    assert "kind: source summary" in out
    assert "integrity: verified" in out
    assert f"  python: {sys.version}" in out
    assert "  impact_sha256: " in out


def test_explain_source_entry_by_key_json(source_entry, capsys):
    root, path = source_entry
    key = os.path.basename(path).split(".", 1)[0]
    assert cache_main(["explain", key, "--root", root, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["kind"], payload["verified"]) == ("source", True)
    assert payload["entry"] == path


def test_explain_damaged_source_entry_exits_1(source_entry, capsys,
                                              tmp_path):
    root, path = source_entry
    with open(path, "r", encoding="utf-8") as handle:
        entry = json.load(handle)
    entry["key_inputs"]["python"] = "another interpreter"
    bad = tmp_path / os.path.basename(path)
    with open(bad, "w", encoding="utf-8") as handle:
        json.dump(entry, handle, sort_keys=True)
    assert cache_main(["explain", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "kind: source summary" in out
    assert "integrity: FAILED (digest-mismatch" in out


# -- artifact blobs ------------------------------------------------------------


def test_explain_checks_every_blob(stored, capsys):
    job, cache, path = stored
    assert cache_main(["explain", path, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert sorted(payload["blobs"]) == payload["artifacts"]
    assert {status["state"] for status in payload["blobs"].values()} \
        == {"ok"}
    assert cache_main(["explain", path]) == 0
    assert "blobs:\n" in capsys.readouterr().out


def _private_entry(tmp_path):
    job = _job(tmp_path / "work")
    cache = ResultCache(str(tmp_path / "cache"), lambda job: "d" * 64)
    path = cache.store(job, execute_run_job(job), run_artifact_paths(job))
    with open(path, "r", encoding="utf-8") as handle:
        digest = json.load(handle)["artifacts"]["vcd"]
    return path, digest, cache.blob_path(digest)


def test_explain_names_a_missing_blob(tmp_path, capsys):
    path, digest, blob = _private_entry(tmp_path)
    os.remove(blob)
    assert cache_main(["explain", path]) == 1
    out = capsys.readouterr().out
    assert "integrity: FAILED (missing-blob: artifact 'vcd'" in out
    assert f"vcd: {digest} missing (no blob at {blob})" in out
    assert cache_main(["explain", path, "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["verified"] is False
    assert payload["reason"] == "missing-blob"
    assert payload["blobs"]["vcd"]["state"] == "missing"
    assert payload["blobs"]["report"]["state"] == "ok"


def test_explain_names_a_corrupt_blob(tmp_path, capsys):
    path, digest, blob = _private_entry(tmp_path)
    with open(blob, "r+b") as handle:
        byte = handle.read(1)
        handle.seek(0)
        handle.write(bytes([byte[0] ^ 0xFF]))
    assert cache_main(["explain", path]) == 1
    out = capsys.readouterr().out
    assert "integrity: FAILED (blob-mismatch: artifact 'vcd'" in out
    assert f"vcd: {digest} corrupt (blob {blob} hashes to " in out
    assert cache_main(["explain", path, "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["verified"] is False
    assert payload["reason"] == "blob-mismatch"
    assert payload["blobs"]["vcd"]["state"] == "corrupt"


def test_explain_entry_outside_a_store_checks_blobs_under_root(
        tmp_path, capsys, monkeypatch):
    """A copied-out entry file checks its blobs under ``--root``; with
    no root to look in, it says the blobs were not checked."""
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    path, digest, blob = _private_entry(tmp_path)
    copy = tmp_path / os.path.basename(path)
    with open(path, "rb") as src, open(copy, "wb") as dst:
        dst.write(src.read())
    os.remove(blob)
    assert cache_main(
        ["explain", str(copy), "--root", str(tmp_path / "cache")]) == 1
    assert "missing-blob" in capsys.readouterr().out
    assert cache_main(["explain", str(copy)]) == 0
    assert "blobs: not checked" in capsys.readouterr().out
