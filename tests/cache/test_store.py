"""Tests for the content-addressed, integrity-verified result store.

The store's contract has three legs, each pinned here:

* **Addressing** — the key is a pure function of what determines a run
  (design sources, config, test, seed, view, BCA bug set, checker
  flags) and of nothing else (artifact paths, attempt, telemetry).
* **Integrity** — an entry that fails verification (torn, corrupt,
  poisoned, mis-addressed) is never served: it is quarantined with a
  structured diagnostic and the run re-executes.
* **Atomicity** — concurrent writers racing on one key leave a single
  valid entry (last-wins); readers never observe a torn one.

The end-to-end law — a warm cache means a second identical batch
executes **zero** simulation jobs — is proven by re-running under a
crash-everything chaos spec: any run that actually executed would
crash, so a passing byte-identical batch is a zero-execution batch.
"""

import dataclasses
import json
import multiprocessing
import os

import pytest

from repro.analysis.impact import ImpactIndex
from repro.cache import (
    CACHE_SCHEMA,
    DIAGNOSTIC_SCHEMA,
    ResultCache,
    cache_key,
    design_source_hash,
)
from repro.cache.store import _entry_digest
from repro.regression import RegressionRunner
from repro.regression.chaos import CHAOS_ENV
from repro.regression.parallel import RunJob, execute_run_job
from repro.regression.resilience import run_artifact_paths
from repro.stbus import NodeConfig, ProtocolType

DESIGN = "d" * 64  # fixed design key: store tests need no impact index


def _fixed_design(job):
    return DESIGN


def _config(name="cache_cfg"):
    return NodeConfig(n_initiators=2, n_targets=2,
                      protocol_type=ProtocolType.T3, name=name)


def _job(workdir=None, **overrides):
    fields = dict(
        config=_config(), test_name="t01_sanity_write_read", seed=1,
        view="rtl", vcd_path=None, report_stem=None, bugs=frozenset(),
        with_arbitration_checker=True,
    )
    if workdir is not None:
        os.makedirs(str(workdir), exist_ok=True)
        stem = os.path.join(str(workdir), "entry__rtl")
        fields["vcd_path"] = stem + ".vcd"
        fields["report_stem"] = stem
    fields.update(overrides)
    return RunJob(**fields)


def _executed_job(workdir):
    """A run job plus its real result and artifact files."""
    job = _job(workdir)
    result = execute_run_job(job)
    return job, result


# -- key derivation -----------------------------------------------------


def test_key_is_stable_and_coordinate_sensitive():
    base = cache_key(_job(), design=DESIGN)
    assert base == cache_key(_job(), design=DESIGN)
    assert len(base) == 64
    assert cache_key(_job(seed=2), design=DESIGN) != base
    assert cache_key(_job(view="bca"), design=DESIGN) != base
    assert cache_key(
        _job(test_name="t02_random_uniform"), design=DESIGN) != base
    assert cache_key(
        _job(config=_config(name="other")), design=DESIGN) != base
    assert cache_key(
        _job(with_arbitration_checker=False), design=DESIGN) != base
    assert cache_key(_job(), design="e" * 64) != base


def test_key_ignores_execution_details():
    """Attempt number, artifact paths and telemetry describe *how* a
    run executes, not *what* it computes — none of them may shard the
    pool."""
    base = cache_key(_job(), design=DESIGN)
    assert cache_key(_job(attempt=3), design=DESIGN) == base
    assert cache_key(_job(telemetry=True, time_processes=True,
                          submitted_at=1.0), design=DESIGN) == base
    assert cache_key(
        _job(vcd_path="/elsewhere/x.vcd", report_stem="/elsewhere/x"),
        design=DESIGN) == base


def test_key_ignores_bugs_on_rtl_only():
    """Only the BCA view executes with injected bugs, so RTL entries
    are shared across bug experiments while BCA entries are not."""
    bugs = frozenset({"lru-recency-stuck"})
    assert cache_key(_job(bugs=bugs), design=DESIGN) \
        == cache_key(_job(), design=DESIGN)
    assert cache_key(_job(view="bca", bugs=bugs), design=DESIGN) \
        != cache_key(_job(view="bca"), design=DESIGN)


def test_design_source_hash_memoized_and_root_sensitive():
    assert design_source_hash() == design_source_hash()
    assert design_source_hash(("kernel",)) != design_source_hash(("stbus",))


# -- store/load round trip ----------------------------------------------


def test_round_trip_materializes_artifacts_byte_identically(tmp_path):
    job, result = _executed_job(tmp_path / "first")
    artifacts = run_artifact_paths(job)
    originals = {role: open(path, "rb").read()
                 for role, path in artifacts.items()}
    cache = ResultCache(str(tmp_path / "cache"), _fixed_design)
    assert cache.store(job, result, artifacts) is not None

    replay_dir = tmp_path / "second"
    os.makedirs(replay_dir)
    replay_job = _job(replay_dir)
    replayed = cache.load(replay_job, run_artifact_paths(replay_job))
    assert replayed is not None
    assert replayed.passed == result.passed
    assert replayed.cycles == result.cycles
    assert replayed.report.render() == result.report.render()
    for role, path in run_artifact_paths(replay_job).items():
        assert open(path, "rb").read() == originals[role]
    assert cache.stats.counters() == {
        "hits": 1, "misses": 0, "stores": 1,
        "verify_failures": 0, "quarantined": 0,
    }


def test_cached_payload_strips_execution_telemetry(tmp_path):
    job = _job(tmp_path, telemetry=True, time_processes=True,
               submitted_at=0.0)
    result = execute_run_job(job)
    assert result.telemetry is not None
    cache = ResultCache(str(tmp_path / "cache"), _fixed_design)
    cache.store(job, result, run_artifact_paths(job))
    replayed = cache.load(job, run_artifact_paths(job))
    assert replayed.telemetry is None
    assert replayed.process_seconds == {}
    # The caller's result object was not mutated by the store.
    assert result.telemetry is not None


def test_miss_on_empty_store(tmp_path):
    cache = ResultCache(str(tmp_path), _fixed_design)
    assert cache.load(_job(), {}) is None
    assert cache.stats.misses == 1
    assert cache.stats.verify_failures == 0


# -- integrity verification ---------------------------------------------


def _stored_entry(tmp_path):
    job, result = _executed_job(tmp_path / "work")
    cache = ResultCache(str(tmp_path / "cache"), _fixed_design)
    path = cache.store(job, result, run_artifact_paths(job))
    assert path is not None
    return job, cache, path


def _assert_rejected(tmp_path, cache, job, reason):
    """A doctored entry must quarantine with ``reason`` — and then a
    fresh run must re-execute and repopulate the store."""
    replay = cache.load(job, run_artifact_paths(job))
    assert replay is None
    assert cache.stats.verify_failures == 1
    assert cache.stats.quarantined == 1
    assert not os.path.exists(cache.entry_path(cache.key_for(job)))
    quarantine = os.path.join(cache.root, "quarantine")
    entries = [name for name in os.listdir(quarantine)
               if not name.endswith(".diag.json")]
    assert len(entries) == 1
    with open(os.path.join(quarantine, entries[0] + ".diag.json")) as fh:
        diagnostic = json.load(fh)
    assert diagnostic["schema"] == DIAGNOSTIC_SCHEMA
    assert diagnostic["event"] == "cache.quarantined"
    assert diagnostic["reason"] == reason
    assert diagnostic["quarantine_path"]
    assert [e for e in cache.events
            if e.get("event") == "cache.quarantined"] == [diagnostic]


def test_flipped_payload_byte_is_digest_mismatch(tmp_path):
    job, cache, path = _stored_entry(tmp_path)
    with open(path, "r", encoding="utf-8") as handle:
        entry = json.load(handle)
    # Corrupt one artifact blob but keep the JSON well-formed: this is
    # the adversarial case where only the digest can catch the damage.
    blob = entry["artifacts"]["report"]
    entry["artifacts"]["report"] = ("A" if blob[0] != "A" else "B") + blob[1:]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(entry, handle, sort_keys=True)
    _assert_rejected(tmp_path, cache, job, "digest-mismatch")


def test_truncated_entry_is_torn(tmp_path):
    job, cache, path = _stored_entry(tmp_path)
    data = open(path, "rb").read()
    with open(path, "wb") as handle:
        handle.write(data[: len(data) // 2])
    _assert_rejected(tmp_path, cache, job, "torn-entry")


def test_wrong_schema_is_rejected(tmp_path):
    job, cache, path = _stored_entry(tmp_path)
    with open(path, "r", encoding="utf-8") as handle:
        entry = json.load(handle)
    entry["schema"] = "repro.cache/entry/v999"
    body = {k: v for k, v in entry.items() if k != "digest"}
    entry["digest"] = _entry_digest(body)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(entry, handle, sort_keys=True)
    _assert_rejected(tmp_path, cache, job, "schema-mismatch")


def test_entry_under_wrong_address_is_key_mismatch(tmp_path):
    """A valid entry copied under another run's address (poisoning, or
    a filesystem-level mixup) must not be served for that run."""
    job, cache, path = _stored_entry(tmp_path)
    other = dataclasses.replace(job, seed=2)
    other_path = cache.entry_path(cache.key_for(other))
    os.makedirs(os.path.dirname(other_path), exist_ok=True)
    with open(path, "rb") as src, open(other_path, "wb") as dst:
        dst.write(src.read())
    replay = cache.load(other, run_artifact_paths(other))
    assert replay is None
    assert cache.stats.verify_failures == 1
    diagnostics = [e for e in cache.events
                   if e.get("event") == "cache.quarantined"]
    assert diagnostics and diagnostics[0]["reason"] == "key-mismatch"
    # The original, correctly addressed entry still verifies.
    assert cache.load(job, run_artifact_paths(job)) is not None


def test_entry_with_fewer_artifacts_is_plain_miss(tmp_path):
    """An entry stored by a batch that dumped fewer artifacts is not
    corruption — it simply cannot satisfy this request."""
    job = _job()  # no workdir: no artifacts stored
    result = execute_run_job(job)
    cache = ResultCache(str(tmp_path / "cache"), _fixed_design)
    assert cache.store(job, result, run_artifact_paths(job)) is not None
    rich = _job(tmp_path / "work")
    assert cache.load(rich, run_artifact_paths(rich)) is None
    assert cache.stats.misses == 1
    assert cache.stats.verify_failures == 0


# -- concurrent writers -------------------------------------------------


def _store_worker(root, workdir, index, done):
    job = _job(workdir)
    result = execute_run_job(job)
    cache = ResultCache(root, _fixed_design)
    path = cache.store(job, result, run_artifact_paths(job))
    done.put((index, path))


def test_concurrent_writers_leave_one_valid_entry(tmp_path):
    """N processes racing to publish the same key: last-wins, and the
    surviving entry verifies and replays."""
    ctx = multiprocessing.get_context()
    done = ctx.Queue()
    procs = []
    for index in range(3):
        workdir = tmp_path / f"w{index}"
        os.makedirs(workdir)
        proc = ctx.Process(
            target=_store_worker,
            args=(str(tmp_path / "cache"), workdir, index, done))
        proc.start()
        procs.append(proc)
    for proc in procs:
        proc.join(120)
        assert proc.exitcode == 0
    paths = {done.get(timeout=10)[1] for _ in procs}
    assert None not in paths and len(paths) == 1
    # No stale temp files; exactly one entry; it verifies on read.
    objects = []
    for dirpath, _, filenames in os.walk(tmp_path / "cache"):
        objects.extend(os.path.join(dirpath, name) for name in filenames)
    assert len(objects) == 1 and objects[0].endswith(".json")
    cache = ResultCache(str(tmp_path / "cache"), _fixed_design)
    replay_dir = tmp_path / "replay"
    os.makedirs(replay_dir)
    job = _job(replay_dir)
    assert cache.load(job, run_artifact_paths(job)) is not None
    with open(objects[0], "r", encoding="utf-8") as handle:
        assert json.load(handle)["schema"] == CACHE_SCHEMA


# -- end-to-end: warm cache = zero executed simulations ------------------


def _batch(workdir, cache_dir, jobs=1):
    runner = RegressionRunner(
        [_config()], tests=["t01_sanity_write_read"], seeds=[1],
        workdir=str(workdir), jobs=jobs,
        cache_dir=str(cache_dir),
    )
    return runner.run(), runner


def _snapshot(workdir):
    return {name: (workdir / name).read_bytes()
            for name in sorted(os.listdir(workdir))}


def test_second_identical_batch_executes_zero_sim_jobs(
        tmp_path, monkeypatch):
    report, runner = _batch(tmp_path / "cold", tmp_path / "cache")
    assert runner.cache.stats.stores == 2
    cold = _snapshot(tmp_path / "cold")
    # Any simulation that executes now crashes — so a passing, byte-
    # identical second batch is a zero-execution batch.
    monkeypatch.setenv(CHAOS_ENV, "crash:*:*:*:*")
    warm_report, warm_runner = _batch(tmp_path / "warm", tmp_path / "cache")
    assert warm_runner.cache.stats.counters() == {
        "hits": 2, "misses": 0, "stores": 0,
        "verify_failures": 0, "quarantined": 0,
    }
    assert warm_report.render() == report.render()
    assert _snapshot(tmp_path / "warm") == cold


def test_batch_entries_key_on_cone_scoped_design_keys(tmp_path):
    """A cached batch stores every entry under its (config, view)'s
    cone-scoped design key, never the whole-source hash."""
    _, runner = _batch(tmp_path / "work", tmp_path / "cache")
    assert isinstance(runner.impact, ImpactIndex)
    designs = {}
    for dirpath, _, filenames in os.walk(tmp_path / "cache" / "objects"):
        for name in filenames:
            with open(os.path.join(dirpath, name), encoding="utf-8") as fh:
                entry = json.load(fh)
            designs[entry["coords"]["view"]] = entry["key_inputs"]["design"]
    assert designs == {
        view: runner.impact.design_key("cache_cfg", view)
        for view in ("rtl", "bca")}
    assert design_source_hash() not in designs.values()


def test_keys_stable_across_serial_and_pooled_engines(tmp_path):
    """A ``jobs=2`` batch on leased workers must address the exact
    entries a serial batch stored: all hits, zero stores,
    byte-identical artifacts."""
    report, _ = _batch(tmp_path / "serial", tmp_path / "cache")
    pooled_report, runner = _batch(
        tmp_path / "pooled", tmp_path / "cache", jobs=2)
    assert runner.cache.stats.hits == 2
    assert runner.cache.stats.stores == 0
    assert pooled_report.render() == report.render()
    assert _snapshot(tmp_path / "pooled") == _snapshot(tmp_path / "serial")
