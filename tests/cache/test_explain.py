"""Tests for ``python -m repro.cache explain``.

The command's contract: every component of an entry's cache key is
printed (design hash, config digest, test, seed, view, bugs, checker
flag) alongside an integrity verdict, so a surprising miss is
diagnosable instead of opaque.  Exit status 0 = verified, 1 = entry
exists but fails verification, 2 = usage error.
"""

import hashlib
import json
import os

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
                  report_stem=stem, bugs=frozenset(),
                  with_arbitration_checker=True)


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
    assert "with_arbitration_checker: True" in out


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
    assert inputs["with_arbitration_checker"] is True
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
