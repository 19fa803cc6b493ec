"""Tests for the leased-worker executor.

The coordinator's contract: a batch run on ``jobs`` forked worker
processes produces artifacts **byte-identical** to a serial batch, at
any worker count, under any worker-death schedule, and a worker's death
is charged to the one job it was running, never to the job it had
queued.

Faults are injected through the same ``REPRO_CHAOS`` environment hook
as the in-process tests (:mod:`repro.regression.chaos`); the variable
crosses the process boundary to the forked workers, which is exactly
how a farm scheduler's kill shows up — from outside the coordinator.
Faults the hook cannot express, a reply lost or garbled after the work,
are monkeypatched into the worker loop, which forked workers inherit.
"""

import json
import os
import signal
import threading

import pytest

from repro.regression import (
    BatchFaults,
    BatchSpec,
    RegressionRunner,
    ResilienceConfig,
)
from repro.regression import distributed
from repro.regression.chaos import CHAOS_ENV
from repro.regression.cli import main as regression_main
from repro.regression.configs import save_config_dir
from repro.stbus import NodeConfig, ProtocolType
from repro.telemetry.session import TelemetryConfig

TESTS = ["t01_sanity_write_read", "t02_random_uniform"]
CONFIG_NAME = "dist_cfg"


def _configs():
    return [NodeConfig(n_initiators=2, n_targets=2,
                       protocol_type=ProtocolType.T3, name=CONFIG_NAME)]


def _run(workdir, jobs=1, resilience=None, seeds=(1,), metrics=None,
         log=None):
    runner = RegressionRunner(_configs(), BatchSpec(
        tests=TESTS, seeds=seeds, workdir=str(workdir),
        jobs=jobs,
        resilience=resilience or ResilienceConfig(backoff=0.0),
        telemetry=TelemetryConfig(metrics_out=metrics, log_out=log),
    ))
    return runner.run()


def _snapshot(workdir):
    return {name: (workdir / name).read_bytes()
            for name in sorted(os.listdir(workdir))}


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
    report = _run(tmp_path / "dist", resilience=ResilienceConfig(
        run_timeout=60.0, backoff=0.0))
    assert report.render() == ref_report.render()
    assert _snapshot(tmp_path / "dist") == ref_snap


@pytest.mark.parametrize("mode", [
    "crash", "exit", "worker-kill", "hang"])
@pytest.mark.parametrize("jobs", [1, 2, 4])
def test_chaos_recovery_byte_identical_at_any_jobs(
        tmp_path, monkeypatch, clean_ref, jobs, mode):
    """Every fault mode, faulting the first attempt of one run, recovers
    to the serial artifacts at one, two and four workers.  ``jobs=1``
    runs on one worker because of the deadline; ``hang`` needs a short
    deadline to be caught at all."""
    ref_report, ref_snap = clean_ref
    monkeypatch.setenv(
        CHAOS_ENV, f"{mode}:{CONFIG_NAME}:t01_sanity_write_read:1:bca:1")
    run_timeout = 2.0 if mode == "hang" else 60.0
    report = _run(tmp_path / "dist", jobs=jobs,
                  resilience=ResilienceConfig(
                      run_timeout=run_timeout, max_retries=2, backoff=0.0))
    assert report.render() == ref_report.render()
    assert _snapshot(tmp_path / "dist") == ref_snap


def test_workers_start_no_threads(tmp_path, monkeypatch):
    """A worker is a plain receive/execute/reply loop: while it executes
    a job, its thread is the only one."""
    execute_run = distributed.GUARDS["run"]
    counts = tmp_path / "threads.txt"

    def run_and_count(job):
        with open(counts, "a") as handle:
            handle.write(f"{threading.active_count()}\n")
        return execute_run(job)

    monkeypatch.setitem(distributed.GUARDS, "run", run_and_count)
    _run(tmp_path / "dist", jobs=2)
    assert counts.read_text().split() == ["1"] * (2 * len(TESTS))


# -- lease attribution --------------------------------------------------


def test_queued_lease_is_requeued_free_when_its_worker_dies(
        tmp_path, monkeypatch, clean_ref):
    """One worker holds the crashing job and the sibling queued behind
    it.  The ``exit`` kills the worker with both leases out: only the
    running job is charged, the sibling is requeued at no cost and
    passes, and the batch ends byte-identical to serial."""
    ref_report, ref_snap = clean_ref
    monkeypatch.setenv(
        CHAOS_ENV, f"exit:{CONFIG_NAME}:t01_sanity_write_read:1:rtl:1")
    metrics = tmp_path / "metrics.json"
    log = tmp_path / "run.log.jsonl"
    report = _run(tmp_path / "dist", resilience=ResilienceConfig(
        run_timeout=60.0, max_retries=1, backoff=0.0),
        metrics=str(metrics), log=str(log))
    faults = _faults(metrics)
    assert faults["retries"] == 1
    assert faults["crashes"] == 1
    assert faults["worker_deaths"] == 1
    assert all(entry.status == "PASS" for entry in report.configs[0].entries)
    assert report.render() == ref_report.render()
    assert _snapshot(tmp_path / "dist") == ref_snap
    events = [json.loads(line) for line in log.read_text().splitlines()]
    requeued = [(e["test"], e["view"]) for e in events
                if e["event"] == "lease.requeued"]
    assert requeued == [("t01_sanity_write_read", "bca")]


def test_every_worker_dying_still_yields_full_report(
        tmp_path, monkeypatch):
    """Workers that die on start: each death is charged to the lease it
    held (or to the 2 x jobs budget when it held none); once no worker
    can be started the rest are recorded as ``WorkerLost``.  The batch
    ends with every entry reported, never hangs."""
    monkeypatch.setattr(distributed, "_serve", lambda conn: None)
    report = _run(tmp_path / "dist", jobs=2,
                  resilience=ResilienceConfig(max_retries=0, backoff=0.0))
    entries = report.configs[0].entries
    assert len(entries) == len(TESTS)
    for entry in entries:
        assert entry.status == "ERROR"
        for view in (entry.rtl, entry.bca):
            assert view.exc_type == "WorkerLost"
    assert (tmp_path / "dist" / "regression_summary.txt").exists()


# -- worker death and bad replies ---------------------------------------


def test_worker_kill_mid_job_recovers_byte_identically(
        tmp_path, monkeypatch, clean_ref):
    """A farm scheduler OOM-kills one worker mid-job (``worker-kill``
    chaos = ``os._exit(43)`` inside the run): the coordinator sees the
    dead connection, charges one attempt, re-leases the job on a
    respawned worker, and the batch ends byte-identical."""
    ref_report, ref_snap = clean_ref
    monkeypatch.setenv(
        CHAOS_ENV, f"worker-kill:{CONFIG_NAME}:t01_sanity_write_read:1:rtl:1")
    metrics = tmp_path / "metrics.json"
    report = _run(tmp_path / "dist", jobs=2,
                  resilience=ResilienceConfig(max_retries=2, backoff=0.0),
                  metrics=str(metrics))
    assert report.render() == ref_report.render()
    assert _snapshot(tmp_path / "dist") == ref_snap
    faults = _faults(metrics)
    assert faults["worker_deaths"] == 1
    assert faults["retries"] == 1
    assert faults["worker_respawns"] == 1


def test_result_lost_after_the_work_reexecutes(
        tmp_path, monkeypatch, clean_ref):
    """A worker that dies after executing a job but before replying:
    the work happened, the coordinator never learns.  End-of-file on
    the pipe charges the lease and the job re-executes elsewhere."""
    ref_report, ref_snap = clean_ref
    execute_run = distributed.GUARDS["run"]

    def run_then_vanish(job):
        outcome = execute_run(job)
        if (job.test_name, job.view, job.attempt) == (
                "t01_sanity_write_read", "bca", 0):
            os._exit(0)
        return outcome

    # Forked workers inherit the patched table.
    monkeypatch.setitem(distributed.GUARDS, "run", run_then_vanish)
    metrics = tmp_path / "metrics.json"
    log = tmp_path / "run.log.jsonl"
    report = _run(tmp_path / "dist", jobs=2,
                  resilience=ResilienceConfig(max_retries=2, backoff=0.0),
                  metrics=str(metrics), log=str(log))
    assert report.render() == ref_report.render()
    assert _snapshot(tmp_path / "dist") == ref_snap
    faults = _faults(metrics)
    assert faults["worker_deaths"] == 1
    assert faults["retries"] == 1
    events = [json.loads(line) for line in log.read_text().splitlines()]
    recovered = [(e["test"], e["view"], e["attempts"]) for e in events
                 if e["event"] == "job.recovered"]
    assert recovered == [("t01_sanity_write_read", "bca", 2)]


class _GarblingConn:
    """A worker's end of the pipe that garbles the reply to the first
    attempt of ``t01_sanity_write_read``/rtl and passes everything else
    through."""

    def __init__(self, conn, fault):
        self.conn = conn
        self.fault = fault
        self.job = None

    def recv(self):
        message = self.conn.recv()
        self.job = message[2]
        return message

    def send(self, reply):
        job = self.job
        if (job.test_name, getattr(job, "view", None), job.attempt) != (
                "t01_sanity_write_read", "rtl", 0):
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
    is charged, the queued one is requeued free, and the batch ends
    byte-identical to serial."""
    ref_report, ref_snap = clean_ref
    serve = distributed._serve
    monkeypatch.setattr(distributed, "_serve",
                        lambda conn: serve(_GarblingConn(conn, fault)))
    metrics = tmp_path / "metrics.json"
    log = tmp_path / "run.log.jsonl"
    report = _run(tmp_path / "dist", resilience=ResilienceConfig(
        run_timeout=60.0, max_retries=1, backoff=0.0),
        metrics=str(metrics), log=str(log))
    assert report.render() == ref_report.render()
    assert _snapshot(tmp_path / "dist") == ref_snap
    faults = _faults(metrics)
    assert faults["worker_deaths"] == 1
    assert faults["retries"] == 1
    assert faults["crashes"] == 1
    events = [json.loads(line) for line in log.read_text().splitlines()]
    lost = [e["reason"] for e in events if e["event"] == "worker.lost"]
    assert lost == ["protocol-error"]
    requeued = [(e["test"], e["view"]) for e in events
                if e["event"] == "lease.requeued"]
    assert requeued == [("t01_sanity_write_read", "bca")]


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


def test_cli_sigterm_aborts_like_sigint(tmp_path, capsys, monkeypatch):
    """A farm scheduler evicts with SIGTERM: same clean abort as Ctrl-C
    — exit 130 and a resume hint naming the cache directory."""
    save_config_dir(_configs(), str(tmp_path / "cfgs"))
    monkeypatch.setenv(
        CHAOS_ENV, f"hang:{CONFIG_NAME}:t01_sanity_write_read:1:rtl")
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
