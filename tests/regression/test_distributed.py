"""Tests for the distributed regression service.

The coordinator's contract: a batch sharded across leased worker
processes produces artifacts **byte-identical** to a serial batch, at
any cluster size, under any worker-death schedule — and when the
cluster is entirely unreachable the batch degrades to local execution
with a single warning, never a failure.

Faults are injected through the same ``REPRO_CHAOS`` environment hook
as the in-process tests (:mod:`repro.regression.chaos`); the variable
crosses the process boundary to the spawned workers, which is exactly
how a farm scheduler's kill shows up — from outside the coordinator.
"""

import json
import os
import signal
import threading

import pytest

from repro.regression import (
    DistributedConfig,
    RegressionRunner,
    ResilienceConfig,
)
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


def _cluster(workers=2, **overrides):
    knobs = dict(lease_seconds=15.0, heartbeat_seconds=0.2,
                 spawn_timeout=30.0)
    knobs.update(overrides)
    return DistributedConfig(workers=workers, **knobs)


def _run(workdir, distributed=None, resilience=None, seeds=(1,),
         metrics=None):
    runner = RegressionRunner(
        _configs(), tests=TESTS, seeds=seeds, workdir=str(workdir),
        resilience=resilience or ResilienceConfig(backoff=0.0),
        distributed=distributed,
        telemetry=TelemetryConfig(metrics_out=metrics),
    )
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
    report = _run(tmp_path / "dist", distributed=_cluster(workers=2),
                  metrics=str(metrics))
    assert report.render() == ref_report.render()
    assert _snapshot(tmp_path / "dist") == ref_snap
    faults = _faults(metrics)
    assert faults["worker_deaths"] == 0
    assert faults["lease_reclaims"] == 0
    assert not faults["degraded_local"]


def test_single_worker_cluster_matches_serial(tmp_path, clean_ref):
    ref_report, ref_snap = clean_ref
    report = _run(tmp_path / "dist", distributed=_cluster(workers=1))
    assert report.render() == ref_report.render()
    assert _snapshot(tmp_path / "dist") == ref_snap


# -- worker death and lease reclamation ---------------------------------


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
    report = _run(tmp_path / "dist", distributed=_cluster(workers=2),
                  resilience=ResilienceConfig(max_retries=2, backoff=0.0),
                  metrics=str(metrics))
    assert report.render() == ref_report.render()
    assert _snapshot(tmp_path / "dist") == ref_snap
    faults = _faults(metrics)
    assert faults["worker_deaths"] >= 1
    assert faults["retries"] >= 1
    assert not faults["degraded_serial"]


def test_net_corrupt_frame_drops_worker_and_recovers(
        tmp_path, monkeypatch, clean_ref):
    """A corrupt result frame must poison the connection (never be
    half-trusted): the worker is dropped, the job re-leased."""
    ref_report, ref_snap = clean_ref
    monkeypatch.setenv(
        CHAOS_ENV,
        f"net-corrupt-frame:{CONFIG_NAME}:t02_random_uniform:1:bca:1")
    metrics = tmp_path / "metrics.json"
    report = _run(tmp_path / "dist", distributed=_cluster(workers=2),
                  resilience=ResilienceConfig(max_retries=2, backoff=0.0),
                  metrics=str(metrics))
    assert report.render() == ref_report.render()
    assert _snapshot(tmp_path / "dist") == ref_snap
    assert _faults(metrics)["worker_deaths"] >= 1


def test_net_drop_loses_result_not_batch(tmp_path, monkeypatch, clean_ref):
    """A network partition right before the result frame: the work
    happened but the coordinator never learns — the lost worker's lease
    is reclaimed and the job re-executes."""
    ref_report, ref_snap = clean_ref
    monkeypatch.setenv(
        CHAOS_ENV, f"net-drop:{CONFIG_NAME}:t01_sanity_write_read:1:bca:1")
    report = _run(tmp_path / "dist", distributed=_cluster(workers=2),
                  resilience=ResilienceConfig(max_retries=2, backoff=0.0))
    assert report.render() == ref_report.render()
    assert _snapshot(tmp_path / "dist") == ref_snap


def test_silent_worker_lease_is_reclaimed(tmp_path, monkeypatch, clean_ref):
    """``net-delay`` sits on the result frame past the lease: the
    coordinator must reclaim the lease, re-run the job elsewhere, and
    discard the late (stale) result rather than double-complete."""
    ref_report, ref_snap = clean_ref
    monkeypatch.setenv(
        CHAOS_ENV, f"net-delay:{CONFIG_NAME}:t01_sanity_write_read:1:rtl:1")
    metrics = tmp_path / "metrics.json"
    report = _run(tmp_path / "dist",
                  distributed=_cluster(workers=2, lease_seconds=1.0),
                  resilience=ResilienceConfig(max_retries=2, backoff=0.0),
                  metrics=str(metrics))
    assert report.render() == ref_report.render()
    assert _snapshot(tmp_path / "dist") == ref_snap
    faults = _faults(metrics)
    assert faults["lease_reclaims"] >= 1
    assert faults["worker_deaths"] >= 1


# -- graceful degradation -----------------------------------------------


def test_unreachable_cluster_degrades_to_local(tmp_path, capfd, clean_ref):
    """Every spawn exits without dialing back (`/bin/false` standing in
    for a broken farm): one warning line, then the batch runs locally
    and stays byte-identical.  Never a failure."""
    ref_report, ref_snap = clean_ref
    metrics = tmp_path / "metrics.json"
    cluster = _cluster(workers=2, spawn_timeout=10.0,
                       spawn_command=("/bin/false",))
    report = _run(tmp_path / "dist", distributed=cluster,
                  metrics=str(metrics))
    err = capfd.readouterr().err
    assert err.count("no distributed workers reachable") == 1
    assert report.render() == ref_report.render()
    assert _snapshot(tmp_path / "dist") == ref_snap
    assert _faults(metrics)["degraded_local"] is True


# -- CLI ----------------------------------------------------------------


def test_cli_rejects_bad_cluster_flags(tmp_path, capsys):
    assert regression_main(
        [str(tmp_path), "--workers", "-1"]) == 2
    assert "--workers" in capsys.readouterr().err
    assert regression_main(
        [str(tmp_path), "--cache-dir", str(tmp_path), "--no-cache"]) == 2
    assert "--no-cache" in capsys.readouterr().err


def test_cli_distributed_stdout_matches_serial(tmp_path, capsys):
    """The CLI's stdout and summary artifact are byte-identical between
    ``--workers 0`` and ``--workers 2`` (with a result cache on the
    side for the distributed batch)."""
    save_config_dir(_configs(), str(tmp_path / "cfgs"))
    outputs = {}
    for label, extra in (
            ("serial", []),
            ("dist", ["--workers", "2",
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
