"""Tests for the leased-worker executor.

The coordinator's contract: a batch run on ``jobs`` forked worker
processes produces artifacts **byte-identical** to a serial batch, at
any worker count.  A worker's death fails the one job it was running,
never the job it had queued, and leaves every other artifact as a
serial batch writes it; a rerun against the same result cache executes
only the failed job and ends byte-identical to serial.

Faults are injected through the same ``chaos`` fixture as the
in-process tests (:mod:`tests.chaos`): it wraps the run-job entry point
in the coordinator, and the forked workers inherit the wrapper, so a
fault fires inside a worker, which is exactly how a farm scheduler's
kill shows up — from outside the coordinator.  Faults the spec cannot
express, a reply lost or garbled after the work, are monkeypatched into
the worker loop, which forked workers inherit too.
"""

import json
import os
import signal
import threading

import pytest

from repro.regression import BatchFaults, BatchSpec, RegressionRunner
from repro.regression import distributed, resilience
from repro.regression.cli import main as regression_main
from repro.regression.configs import save_config_dir
from repro.stbus import NodeConfig, ProtocolType
from repro.telemetry.session import TelemetryConfig

TESTS = ["t01_sanity_write_read", "t02_random_uniform"]
CONFIG_NAME = "dist_cfg"


def _configs():
    return [NodeConfig(n_initiators=2, n_targets=2,
                       protocol_type=ProtocolType.T3, name=CONFIG_NAME)]


def _runner(workdir, jobs=1, run_timeout=None, seeds=(1,), metrics=None,
            log=None, cache_dir=None):
    return RegressionRunner(_configs(), BatchSpec(
        tests=TESTS, seeds=seeds, workdir=str(workdir),
        jobs=jobs, run_timeout=run_timeout, cache_dir=cache_dir,
        telemetry=TelemetryConfig(metrics_out=metrics, log_out=log),
    ))


def _run(workdir, **kwargs):
    return _runner(workdir, **kwargs).run()


def _snapshot(workdir):
    return {name: (workdir / name).read_bytes()
            for name in sorted(os.listdir(workdir))}


def _assert_only_faulted(workdir, ref_snap, faulted):
    """``workdir`` equals the reference except for the two batch
    reports, which list the failed entry, and the artifacts of the one
    failed run ``faulted`` (``<test>__s<seed>__<view>``)."""
    snap = _snapshot(workdir)
    missing = set(ref_snap) - set(snap)
    assert all(name.startswith(f"{CONFIG_NAME}__{faulted}")
               for name in missing), missing
    for name, data in snap.items():
        if name not in (f"{CONFIG_NAME}__report.txt",
                        "regression_summary.txt"):
            assert data == ref_snap[name], name


def _rerun_matches(workdir, cache_dir, ref, jobs=2):
    """Rerun the batch against ``cache_dir`` (chaos and patches off): it
    executes exactly the one job that failed and ends byte-identical to
    ``ref``."""
    ref_report, ref_snap = ref
    runner = _runner(workdir, jobs=jobs, cache_dir=cache_dir)
    assert runner.run().render() == ref_report.render()
    assert runner.cache.stats.stores == 1
    assert _snapshot(workdir) == ref_snap


def _faults(metrics_path):
    with open(metrics_path) as handle:
        return json.load(handle)["batch"]["faults"]


@pytest.fixture()
def clean_ref(tmp_path):
    """A fault-free serial run: the byte-identity reference."""
    report = _run(tmp_path / "ref")
    return report, _snapshot(tmp_path / "ref")


# -- byte-identity ------------------------------------------------------


def test_distributed_matches_serial_byte_identically(tmp_path, clean_ref):
    ref_report, ref_snap = clean_ref
    metrics = tmp_path / "metrics.json"
    report = _run(tmp_path / "dist", jobs=2, metrics=str(metrics))
    assert report.render() == ref_report.render()
    assert _snapshot(tmp_path / "dist") == ref_snap
    faults = _faults(metrics)
    assert faults["worker_deaths"] == 0
    assert faults["worker_respawns"] == 0


def test_single_worker_cluster_matches_serial(tmp_path, clean_ref):
    """``jobs=1`` with a deadline runs on one leased worker."""
    ref_report, ref_snap = clean_ref
    report = _run(tmp_path / "dist", run_timeout=60.0)
    assert report.render() == ref_report.render()
    assert _snapshot(tmp_path / "dist") == ref_snap


@pytest.mark.parametrize("mode", ["crash", "exit", "hang"])
@pytest.mark.parametrize("jobs", [1, 2, 4])
def test_chaos_fails_once_then_rerun_recovers_at_any_jobs(
        tmp_path, chaos, clean_ref, jobs, mode):
    """Every fault mode, at one, two and four workers, fails exactly the
    faulted run (``TIMEOUT`` for a hang, ``ERROR`` otherwise) and leaves
    every other artifact as serial writes it; a rerun against the same
    cache recovers the serial artifacts.  ``jobs=1`` runs on one worker
    because of the deadline; ``hang`` needs a short deadline to be
    caught at all."""
    workdir = tmp_path / "dist"
    cache_dir = str(tmp_path / "cache")
    chaos.set(f"{mode}:{CONFIG_NAME}:t01_sanity_write_read:1:bca")
    run_timeout = 2.0 if mode == "hang" else 60.0
    report = _run(workdir, jobs=jobs, run_timeout=run_timeout,
                  cache_dir=cache_dir)
    statuses = [entry.status for entry in report.configs[0].entries]
    assert statuses == ["TIMEOUT" if mode == "hang" else "ERROR", "PASS"]
    _assert_only_faulted(workdir, clean_ref[1],
                         "t01_sanity_write_read__s1__bca")
    chaos.set()
    _rerun_matches(workdir, cache_dir, clean_ref, jobs=jobs)


def test_workers_start_no_threads(tmp_path, monkeypatch):
    """A worker is a plain receive/execute/reply loop: while it executes
    a job, its thread is the only one."""
    execute_run = resilience.execute_run_job
    counts = tmp_path / "threads.txt"

    def run_and_count(job):
        with open(counts, "a") as handle:
            handle.write(f"{threading.active_count()}\n")
        return execute_run(job)

    monkeypatch.setattr(resilience, "execute_run_job", run_and_count)
    _run(tmp_path / "dist", jobs=2)
    assert counts.read_text().split() == ["1"] * (2 * len(TESTS))


# -- lease attribution --------------------------------------------------


def test_queued_lease_is_requeued_free_when_its_worker_dies(
        tmp_path, chaos, clean_ref):
    """One worker holds the crashing job and the sibling queued behind
    it.  The ``exit`` kills the worker with both leases out: only the
    running job fails, the sibling is requeued at no cost and passes,
    and a rerun against the cache ends byte-identical to serial."""
    workdir = tmp_path / "dist"
    cache_dir = str(tmp_path / "cache")
    chaos.set(f"exit:{CONFIG_NAME}:t01_sanity_write_read:1:rtl")
    metrics = tmp_path / "metrics.json"
    log = tmp_path / "run.log.jsonl"
    report = _run(workdir, run_timeout=60.0, cache_dir=cache_dir,
                  metrics=str(metrics), log=str(log))
    faults = _faults(metrics)
    assert faults["crashes"] == 1
    assert faults["worker_deaths"] == 1
    entries = report.configs[0].entries
    assert entries[0].rtl.exc_type == "WorkerLost"
    assert entries[0].bca.passed
    assert [entry.status for entry in entries] == ["ERROR", "PASS"]
    _assert_only_faulted(workdir, clean_ref[1],
                         "t01_sanity_write_read__s1__rtl")
    events = [json.loads(line) for line in log.read_text().splitlines()]
    requeued = [(e["test"], e["view"]) for e in events
                if e["event"] == "lease.requeued"]
    assert requeued == [("t01_sanity_write_read", "bca")]
    chaos.set()
    _rerun_matches(workdir, cache_dir, clean_ref, jobs=1)


def test_every_worker_dying_still_yields_full_report(
        tmp_path, monkeypatch):
    """Workers that die on start: each death is charged to the lease it
    held (or to the 2 x jobs budget when it held none); once no worker
    can be started the rest are recorded as ``WorkerLost``.  The batch
    ends with every entry reported, never hangs."""
    monkeypatch.setattr(distributed, "_serve", lambda conn: None)
    report = _run(tmp_path / "dist", jobs=2)
    entries = report.configs[0].entries
    assert len(entries) == len(TESTS)
    for entry in entries:
        assert entry.status == "ERROR"
        for view in (entry.rtl, entry.bca):
            assert view.exc_type == "WorkerLost"
    assert (tmp_path / "dist" / "regression_summary.txt").exists()


# -- worker death and bad replies ---------------------------------------


def test_worker_death_mid_job_fails_once_then_reruns(
        tmp_path, chaos, clean_ref):
    """A farm scheduler OOM-kills one worker mid-job (``exit`` chaos =
    ``os._exit`` inside the run): the coordinator sees the dead
    connection, fails that one job, respawns a worker for the rest of
    the batch, and a rerun against the cache ends byte-identical."""
    workdir = tmp_path / "dist"
    cache_dir = str(tmp_path / "cache")
    chaos.set(f"exit:{CONFIG_NAME}:t01_sanity_write_read:1:rtl")
    metrics = tmp_path / "metrics.json"
    report = _run(workdir, jobs=2, cache_dir=cache_dir,
                  metrics=str(metrics))
    assert [entry.status for entry in report.configs[0].entries] == \
        ["ERROR", "PASS"]
    _assert_only_faulted(workdir, clean_ref[1],
                         "t01_sanity_write_read__s1__rtl")
    faults = _faults(metrics)
    assert faults["worker_deaths"] == 1
    assert faults["crashes"] == 1
    assert faults["worker_respawns"] == 1
    chaos.set()
    _rerun_matches(workdir, cache_dir, clean_ref)


def test_result_lost_after_the_work_fails_once(
        tmp_path, monkeypatch, clean_ref):
    """A worker that dies after executing a job but before replying:
    the work happened, the coordinator never learns.  End-of-file on
    the pipe fails the lease; the dump it wrote equals the reference,
    and a rerun re-executes the job and stores its result."""
    workdir = tmp_path / "dist"
    cache_dir = str(tmp_path / "cache")
    execute_run = resilience.execute_run_job

    def run_then_vanish(job):
        outcome = execute_run(job)
        if (job.test_name, job.view) == ("t01_sanity_write_read", "bca"):
            os._exit(0)
        return outcome

    metrics = tmp_path / "metrics.json"
    log = tmp_path / "run.log.jsonl"
    with monkeypatch.context() as patch:
        # Forked workers inherit the patched entry point.
        patch.setattr(resilience, "execute_run_job", run_then_vanish)
        report = _run(workdir, jobs=2, cache_dir=cache_dir,
                      metrics=str(metrics), log=str(log))
    entries = report.configs[0].entries
    assert entries[0].bca.exc_type == "WorkerLost"
    assert [entry.status for entry in entries] == ["ERROR", "PASS"]
    _assert_only_faulted(workdir, clean_ref[1],
                         "t01_sanity_write_read__s1__bca")
    faults = _faults(metrics)
    assert faults["worker_deaths"] == 1
    assert faults["crashes"] == 1
    events = [json.loads(line) for line in log.read_text().splitlines()]
    failed = [(e["test"], e["view"]) for e in events
              if e["event"] == "job.failed"]
    assert failed == [("t01_sanity_write_read", "bca")]
    _rerun_matches(workdir, cache_dir, clean_ref)


class _GarblingConn:
    """A worker's end of the pipe that garbles every reply to
    ``t01_sanity_write_read``/rtl and passes everything else through."""

    def __init__(self, conn, fault):
        self.conn = conn
        self.fault = fault
        self.job = None

    def recv(self):
        message = self.conn.recv()
        self.job = message[1]
        return message

    def send(self, reply):
        job = self.job
        if (job.test_name, getattr(job, "view", None)) != (
                "t01_sanity_write_read", "rtl"):
            self.conn.send(reply)
        elif self.fault == "wrong-job-id":
            # Names the queued lease, not the oldest one.
            self.conn.send((reply[0] + 1, reply[1]))
        else:
            self.conn.send_bytes(b"not a pickle")

    def close(self):
        self.conn.close()


@pytest.mark.parametrize("fault", ["wrong-job-id", "unpicklable"])
def test_reply_is_never_half_trusted(tmp_path, monkeypatch, clean_ref,
                                     fault):
    """A reply naming a job other than the worker's oldest lease, or
    bytes that do not unpickle, drop the worker: only its oldest lease
    fails, the queued one is requeued free, and a rerun against the
    cache ends byte-identical to serial."""
    workdir = tmp_path / "dist"
    cache_dir = str(tmp_path / "cache")
    serve = distributed._serve
    metrics = tmp_path / "metrics.json"
    log = tmp_path / "run.log.jsonl"
    with monkeypatch.context() as patch:
        patch.setattr(distributed, "_serve",
                      lambda conn: serve(_GarblingConn(conn, fault)))
        report = _run(workdir, run_timeout=60.0, cache_dir=cache_dir,
                      metrics=str(metrics), log=str(log))
    assert [entry.status for entry in report.configs[0].entries] == \
        ["ERROR", "PASS"]
    _assert_only_faulted(workdir, clean_ref[1],
                         "t01_sanity_write_read__s1__rtl")
    faults = _faults(metrics)
    assert faults["worker_deaths"] == 1
    assert faults["crashes"] == 1
    events = [json.loads(line) for line in log.read_text().splitlines()]
    lost = [e["reason"] for e in events if e["event"] == "worker.lost"]
    assert lost == ["protocol-error"]
    requeued = [(e["test"], e["view"]) for e in events
                if e["event"] == "lease.requeued"]
    assert requeued == [("t01_sanity_write_read", "bca")]
    _rerun_matches(workdir, cache_dir, clean_ref, jobs=1)


# -- CLI ----------------------------------------------------------------


def test_cli_rejects_bad_cluster_flags(tmp_path, capsys):
    assert regression_main(
        [str(tmp_path), "--cache-dir", str(tmp_path), "--no-cache"]) == 2
    assert "--no-cache" in capsys.readouterr().err


def test_cli_rejects_removed_workers_flag(tmp_path, capsys):
    """``--jobs N`` is the one worker count; ``--workers`` is gone."""
    save_config_dir(_configs(), str(tmp_path / "cfgs"))
    with pytest.raises(SystemExit) as excinfo:
        regression_main([str(tmp_path / "cfgs"), "--workers", "2",
                         "--tests", "t01_sanity_write_read",
                         "--seeds", "1"])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --workers" in capsys.readouterr().err


def test_cli_distributed_stdout_matches_serial(tmp_path, capsys):
    """The CLI's stdout and summary artifact are byte-identical between
    ``--jobs 1`` and ``--jobs 2`` (with a result cache on the side for
    the parallel batch)."""
    save_config_dir(_configs(), str(tmp_path / "cfgs"))
    outputs = {}
    for label, extra in (
            ("serial", []),
            ("dist", ["--jobs", "2",
                      "--cache-dir", str(tmp_path / "cache")])):
        code = regression_main([
            str(tmp_path / "cfgs"),
            "--workdir", str(tmp_path / label),
            "--tests", "t01_sanity_write_read",
            "--seeds", "1",
        ] + extra)
        outputs[label] = capsys.readouterr().out
        assert code == 1  # one test alone never reaches full coverage
    assert outputs["dist"] == outputs["serial"]
    assert _snapshot(tmp_path / "dist") == _snapshot(tmp_path / "serial")
    # The cache saw the batch: one store per (view) run.
    assert os.path.isdir(tmp_path / "cache" / "objects")


def test_cli_jobs_metrics_count_the_workers(tmp_path, capsys):
    """``--metrics-out`` of a ``--jobs 2`` batch reports ``jobs == 2``,
    one lane per worker that ran jobs, and every fault counter."""
    save_config_dir(_configs(), str(tmp_path / "cfgs"))
    metrics = tmp_path / "metrics.json"
    regression_main([
        str(tmp_path / "cfgs"), "--workdir", str(tmp_path / "out"),
        "--tests"] + TESTS + ["--seeds", "1", "--jobs", "2",
                              "--metrics-out", str(metrics)])
    capsys.readouterr()
    batch = json.loads(metrics.read_text())["batch"]
    assert batch["jobs"] == 2
    lanes = [lane for name, lane in batch["workers"].items()
             if name.startswith("worker-")]
    assert len(lanes) == 2
    assert all(lane["n_jobs"] > 0 for lane in lanes)
    assert set(batch["faults"]) == set(BatchFaults().counters())


def test_cli_sigterm_aborts_like_sigint(tmp_path, capsys, chaos):
    """A farm scheduler evicts with SIGTERM: same clean abort as Ctrl-C
    — exit 130 and a resume hint naming the cache directory."""
    save_config_dir(_configs(), str(tmp_path / "cfgs"))
    chaos.set(f"hang:{CONFIG_NAME}:t01_sanity_write_read:1:rtl")
    timer = threading.Timer(
        1.0, os.kill, (os.getpid(), signal.SIGTERM))
    timer.start()
    try:
        code = regression_main([
            str(tmp_path / "cfgs"),
            "--workdir", str(tmp_path / "out"),
            "--tests", "t01_sanity_write_read",
            "--seeds", "1",
            "--cache-dir", str(tmp_path / "cache"),
        ])
    finally:
        timer.cancel()
    assert code == 130
    err = capsys.readouterr().err
    assert ("interrupted: batch aborted; rerun with --cache-dir "
            f"{tmp_path / 'cache'} to resume") in err
    # The handler was restored: SIGTERM is back to its previous
    # disposition for the embedding process.
    assert signal.getsignal(signal.SIGTERM) == signal.SIG_DFL
