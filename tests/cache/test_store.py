"""Tests for the content-addressed, integrity-verified result store.

The store's contract has three legs, each pinned here:

* **Addressing** — the key is a pure function of what determines a run
  (design sources, config, test, seed, view, BCA bug set, checker
  flags) and of nothing else (artifact paths, telemetry).
* **Integrity** — an entry that fails verification (torn, corrupt,
  poisoned, mis-addressed) is never served: it is quarantined with a
  structured diagnostic and the run re-executes.
* **Atomicity** — concurrent writers racing on one key leave a single
  valid entry (last-wins); readers never observe a torn one.
* **Blobs** — each artifact is stored once, as a file named by its
  SHA-256, and served by hard link: every served artifact is hashed
  after it is linked, a corrupt blob is quarantined and never served, a
  missing one is a plain miss, and a filesystem that cannot link gets
  a byte-identical copy.

The end-to-end law — a warm cache means a second identical batch
executes **zero** simulation jobs — is proven by re-running under a
crash-everything chaos spec: any run that actually executed would
crash, so a passing byte-identical batch is a zero-execution batch.
"""

import dataclasses
import errno
import hashlib
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
from repro.regression import BatchSpec, RegressionRunner
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
    assert cache_key(_job(), design="e" * 64) != base


def test_key_ignores_execution_details():
    """Artifact paths and telemetry describe *how* a run executes, not
    *what* it computes — none of them may shard the pool."""
    base = cache_key(_job(), design=DESIGN)
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
    # Corrupt the blob name of one artifact but keep the JSON
    # well-formed: only the entry's own digest can catch the damage.
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
    # Exactly one entry under objects/, one blob per distinct digest it
    # names, no stale temp file anywhere; the entry verifies on read.
    files = _tree_files(tmp_path / "cache")
    assert not [path for path in files if path.endswith(".tmp~")]
    objects = [path for path in files if os.sep + "objects" + os.sep in path]
    assert len(objects) == 1 and objects[0].endswith(".json")
    with open(objects[0], "r", encoding="utf-8") as handle:
        entry = json.load(handle)
    assert entry["schema"] == CACHE_SCHEMA
    blobs = sorted(path for path in files if os.sep + "blobs" + os.sep in path)
    digests = set(entry["artifacts"].values())
    assert sorted(os.path.basename(path) for path in blobs) == sorted(digests)
    for path in blobs:
        assert _sha256(path) == os.path.basename(path)
    assert len(files) == len(objects) + len(blobs)
    cache = ResultCache(str(tmp_path / "cache"), _fixed_design)
    replay_dir = tmp_path / "replay"
    os.makedirs(replay_dir)
    job = _job(replay_dir)
    assert cache.load(job, run_artifact_paths(job)) is not None
    assert cache.stats.verify_failures == 0


def _tree_files(root):
    return sorted(os.path.join(dirpath, name)
                  for dirpath, _, filenames in os.walk(root)
                  for name in filenames)


def _sha256(path):
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


# -- blobs: linked hits and their failure paths ---------------------------


def _blob_of(cache, job, role):
    with open(cache.entry_path(cache.key_for(job)), encoding="utf-8") as fh:
        return cache.blob_path(json.load(fh)["artifacts"][role])


def _flip_byte(path):
    with open(path, "r+b") as handle:
        byte = handle.read(1)
        handle.seek(0)
        handle.write(bytes([byte[0] ^ 0xFF]))


def _replay_job(tmp_path, name):
    workdir = tmp_path / name
    os.makedirs(workdir, exist_ok=True)
    return _job(workdir)


def test_hit_links_each_artifact_to_its_blob(tmp_path):
    job, cache, _ = _stored_entry(tmp_path)
    replay = _replay_job(tmp_path, "replay")
    assert cache.load(replay, run_artifact_paths(replay)) is not None
    for role, path in run_artifact_paths(replay).items():
        assert os.path.samefile(path, _blob_of(cache, replay, role))
    assert not [p for p in _tree_files(tmp_path) if p.endswith(".tmp~")]


def _assert_blob_rejected(cache, job, bad_bytes):
    """The load is a quarantined ``blob-mismatch`` miss, the damaged
    blob is evicted next to the entry, and no artifact is served."""
    artifacts = run_artifact_paths(job)
    before = {role: (open(path, "rb").read() if os.path.exists(path)
                     else None) for role, path in artifacts.items()}
    assert cache.load(job, artifacts) is None
    assert cache.stats.counters()["verify_failures"] == 1
    misses = [e for e in cache.events if e.get("event") == "cache.miss"]
    assert misses[-1]["reason"] == "quarantined:blob-mismatch"
    diagnostic = [e for e in cache.events
                  if e.get("event") == "cache.quarantined"][-1]
    assert diagnostic["reason"] == "blob-mismatch"
    assert not os.path.exists(cache.entry_path(cache.key_for(job)))
    quarantine = os.listdir(os.path.join(cache.root, "quarantine"))
    assert sum(len(name) == 64 for name in quarantine) == 1  # the blob
    after = {role: (open(path, "rb").read() if os.path.exists(path)
                    else None) for role, path in artifacts.items()}
    assert after == before  # nothing linked into place
    assert bad_bytes not in [data for data in after.values() if data]
    assert not [p for p in _tree_files(os.path.dirname(cache.root))
                if p.endswith(".tmp~")]


def test_flipped_blob_byte_is_quarantined_and_rerun(tmp_path):
    """A damaged blob is never served: the entry and the blob go to
    quarantine, and a batch re-runs the job and republishes both."""
    report, _ = _batch(tmp_path / "cold", tmp_path / "cache")
    cold = _snapshot(tmp_path / "cold")
    victim = _tree_files(tmp_path / "cache" / "blobs")[0]
    _flip_byte(victim)
    bad = open(victim, "rb").read()
    warm_report, warm = _batch(tmp_path / "warm", tmp_path / "cache")
    counters = warm.cache.stats.counters()
    assert counters["verify_failures"] >= 1
    assert counters["stores"] == counters["misses"] >= 1
    assert any(e.get("reason") == "blob-mismatch" for e in warm.cache.events)
    assert warm_report.render() == report.render()
    assert _snapshot(tmp_path / "warm") == cold
    assert bad not in _snapshot(tmp_path / "warm").values()
    # The re-run republished the blob: the next batch is all hits.
    _, again = _batch(tmp_path / "again", tmp_path / "cache")
    assert again.cache.stats.hits == 2 and again.cache.stats.misses == 0


def test_flipped_blob_byte_never_reaches_the_workdir(tmp_path):
    job, cache, _ = _stored_entry(tmp_path)
    blob = _blob_of(cache, job, "report")
    _flip_byte(blob)
    _assert_blob_rejected(cache, _replay_job(tmp_path, "replay"),
                          open(blob, "rb").read())


def test_flipped_byte_in_a_linked_workdir_artifact(tmp_path):
    """A served artifact is a link to its blob, so damage done to it in
    place damages the blob: the next hit, in another workdir, must
    catch it."""
    job, cache, _ = _stored_entry(tmp_path)
    first = _replay_job(tmp_path, "first")
    assert cache.load(first, run_artifact_paths(first)) is not None
    vcd = run_artifact_paths(first)["vcd"]
    _flip_byte(vcd)
    bad = open(vcd, "rb").read()
    _assert_blob_rejected(cache, _replay_job(tmp_path, "second"), bad)


def test_flipped_byte_in_the_same_workdir_is_caught(tmp_path):
    """The same damage seen by a repeat hit into that workdir, where the
    target already is the blob and is hashed without relinking."""
    job, cache, _ = _stored_entry(tmp_path)
    replay = _replay_job(tmp_path, "replay")
    assert cache.load(replay, run_artifact_paths(replay)) is not None
    _flip_byte(run_artifact_paths(replay)["report"])
    assert cache.load(replay, run_artifact_paths(replay)) is None
    assert cache.stats.verify_failures == 1
    assert [e["reason"] for e in cache.events
            if e.get("event") == "cache.quarantined"] == ["blob-mismatch"]
    assert not [p for p in _tree_files(tmp_path) if p.endswith(".tmp~")]


def test_deleted_blob_is_a_plain_missing_blob_miss(tmp_path):
    job, cache, path = _stored_entry(tmp_path)
    os.remove(_blob_of(cache, job, "vcd"))
    replay = _replay_job(tmp_path, "replay")
    assert cache.load(replay, run_artifact_paths(replay)) is None
    assert cache.stats.counters() == {
        "hits": 0, "misses": 1, "stores": 1,
        "verify_failures": 0, "quarantined": 0,
    }
    assert cache.events[-1]["reason"] == "missing-blob"
    assert os.path.exists(path)  # the entry itself is sound
    assert not os.listdir(tmp_path / "replay")
    # Storing the re-run restores the blob; the entry serves again.
    cache.store(job, execute_run_job(job), run_artifact_paths(job))
    assert cache.load(replay, run_artifact_paths(replay)) is not None


def test_unlinkable_filesystem_takes_the_copy_path(tmp_path, monkeypatch):
    """Where ``os.link`` fails (cache and workdir on two devices), the
    store copies: byte-identical artifacts, no shared inode."""
    job, result = _executed_job(tmp_path / "first")
    originals = {role: open(path, "rb").read()
                 for role, path in run_artifact_paths(job).items()}

    def no_link(src, dst, *args, **kwargs):
        raise OSError(errno.EXDEV, "Invalid cross-device link")

    monkeypatch.setattr(os, "link", no_link)
    cache = ResultCache(str(tmp_path / "cache"), _fixed_design)
    assert cache.store(job, result, run_artifact_paths(job)) is not None
    replay = _replay_job(tmp_path, "replay")
    assert cache.load(replay, run_artifact_paths(replay)) is not None
    for role, path in run_artifact_paths(replay).items():
        assert open(path, "rb").read() == originals[role]
        assert os.stat(path).st_nlink == 1
        assert not os.path.samefile(path, _blob_of(cache, replay, role))
    for role, path in run_artifact_paths(job).items():
        assert os.stat(path).st_nlink == 1
    assert not [p for p in _tree_files(tmp_path) if p.endswith(".tmp~")]


# -- end-to-end: warm cache = zero executed simulations ------------------


def _batch(workdir, cache_dir, jobs=1):
    runner = RegressionRunner([_config()], BatchSpec(
        tests=["t01_sanity_write_read"], seeds=[1],
        workdir=str(workdir), jobs=jobs,
        cache_dir=str(cache_dir),
    ))
    return runner.run(), runner


def _snapshot(workdir):
    return {name: (workdir / name).read_bytes()
            for name in sorted(os.listdir(workdir))}


def test_repeat_cached_batch_into_one_workdir_leaves_no_temp_file(
        tmp_path, monkeypatch):
    """Rerunning a fully cached batch into the workdir it already served
    finds every artifact already linked to its blob: the tree stays
    byte-identical and no temp name is left behind."""
    _batch(tmp_path / "work", tmp_path / "cache")
    monkeypatch.setenv(CHAOS_ENV, "crash:*:*:*:*")
    _, first = _batch(tmp_path / "warm", tmp_path / "cache")
    tree = {path: open(path, "rb").read()
            for path in _tree_files(tmp_path / "warm")}
    for _ in range(2):
        _, again = _batch(tmp_path / "warm", tmp_path / "cache")
        assert again.cache.stats.hits == 2
        assert again.cache.stats.misses == 0
        assert {path: open(path, "rb").read()
                for path in _tree_files(tmp_path / "warm")} == tree
    assert first.cache.stats.hits == 2
    assert not [path for path in _tree_files(tmp_path)
                if path.endswith(".tmp~")]


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
