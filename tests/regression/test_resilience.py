"""Fault-tolerance tests for the regression batch engine.

Every fault here is injected deterministically by the test helper
:mod:`tests.chaos`, whose ``chaos`` fixture wraps the run-job entry
point from the test side.  The product has no fault hook, so the first
tests pin down the spec grammar, that an unset helper is inert, and
that the product ignores a ``REPRO_CHAOS`` variable in its environment.
A job is a pure function of its coordinates, so a failed job fails
once: it is recorded as ``ERROR``/``TIMEOUT`` and the rest of the batch
is untouched.  The load-bearing invariant: rerunning the batch
against the same result cache executes only the failed job and produces
artifacts *byte-identical* to a batch that never faulted.
"""

import os

import pytest

from repro.regression import BatchSpec, RegressionRunner, save_config_dir
from repro.regression.cli import main as regression_main
from repro.regression.parallel import TriageJob
from repro.regression.resilience import ResilientBatchExecutor, _Task
from repro.stbus import NodeConfig, ProtocolType
from tests.chaos import ChaosError, ChaosSpec

TESTS = ["t01_sanity_write_read", "t02_random_uniform"]
CONFIG_NAME = "rsl_cfg"


def _configs():
    return [NodeConfig(n_initiators=2, n_targets=2,
                       protocol_type=ProtocolType.T3, name=CONFIG_NAME)]


def _runner(workdir, jobs=1, run_timeout=None, seeds=(1,), cache_dir=None):
    return RegressionRunner(_configs(), BatchSpec(
        tests=TESTS, seeds=seeds, workdir=str(workdir),
        jobs=jobs, run_timeout=run_timeout, cache_dir=cache_dir,
    ))


def _run(workdir, **kwargs):
    return _runner(workdir, **kwargs).run()


def _snapshot(workdir):
    """Every artifact in the workdir, as bytes, keyed by filename."""
    return {
        name: (workdir / name).read_bytes()
        for name in sorted(os.listdir(workdir))
    }


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


@pytest.fixture()
def clean_ref(tmp_path):
    """A fault-free serial run: the byte-identity reference."""
    report = _run(tmp_path / "ref")
    return report, _snapshot(tmp_path / "ref")


# -- chaos hook ---------------------------------------------------------


def test_chaos_spec_grammar():
    spec = ChaosSpec.parse("crash:cfg:t01:*:rtl; hang:*:*:3:bca")
    assert len(spec.rules) == 2
    crash, hang = spec.rules
    assert crash.matches("cfg", "t01", 7, "rtl")
    assert not crash.matches("other", "t01", 7, "rtl")
    assert hang.matches("anything", "t99", 3, "bca")
    assert not hang.matches("anything", "t99", 4, "bca")
    assert ChaosSpec.parse("exit:*:*:*:*").rules[0].mode == "exit"
    with pytest.raises(ChaosError):
        ChaosSpec.parse("crash:only:three")
    with pytest.raises(ChaosError):  # no LIMIT field: a fault is final
        ChaosSpec.parse("crash:*:*:*:*:1")


@pytest.mark.parametrize("mode", ["sabotage", "net-drop", "worker-kill",
                                  "truncate-vcd", "cache-corrupt"])
def test_chaos_rejects_modes_outside_crash_exit_hang(mode):
    with pytest.raises(ChaosError):
        ChaosSpec.parse(f"{mode}:*:*:*:*")


def test_chaos_inert_without_env(chaos):
    assert chaos.spec.rules == ()

    class _Job:
        class config:
            name = "x"
        test_name, seed, view = "t", 1, "rtl"

    chaos.inject(_Job())  # must be a silent no-op


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_product_ignores_the_chaos_variable(tmp_path, monkeypatch, capsys,
                                            jobs):
    """With no helper installed, a crash-everything ``REPRO_CHAOS`` in
    the environment changes nothing: inline and on two workers, the
    batch passes byte-identical to a clean run."""
    save_config_dir(_configs(), str(tmp_path / "cfgs"))

    def batch(label):
        code = regression_main([
            str(tmp_path / "cfgs"), "--workdir", str(tmp_path / label),
            "--tests"] + TESTS + ["--seeds", "1", "--jobs", jobs])
        return code, capsys.readouterr().out, _snapshot(tmp_path / label)

    clean = batch("clean")
    monkeypatch.setenv("REPRO_CHAOS", "crash:*:*:*:*")
    assert batch("env") == clean
    assert "ERROR" not in clean[1]


# -- crash isolation ----------------------------------------------------


def test_worker_crash_still_yields_full_report(tmp_path, chaos):
    chaos.set(f"crash:{CONFIG_NAME}:t02_random_uniform:1:bca")
    report = _run(tmp_path)
    entries = report.configs[0].entries
    assert len(entries) == len(TESTS)
    assert entries[0].status == "PASS"
    assert entries[1].status == "ERROR"
    assert not entries[1].bca.passed
    assert "chaos: injected crash" in entries[1].bca.message
    # The batch completed: summary + per-config report were written.
    assert (tmp_path / "regression_summary.txt").exists()
    assert "ERROR" in report.configs[0].render()


def test_crash_executes_once(tmp_path, monkeypatch, chaos):
    """A deterministic crash is run once and reported as a plain
    ``ERROR``: no second attempt, no backoff sleep."""
    calls = []
    inject = chaos.inject

    def counting(job):
        calls.append((job.test_name, job.view))
        inject(job)

    monkeypatch.setattr(chaos, "inject", counting)
    chaos.set(f"crash:{CONFIG_NAME}:t02_random_uniform:1:rtl")
    report = _run(tmp_path)
    assert calls.count(("t02_random_uniform", "rtl")) == 1
    assert len(calls) == 2 * len(TESTS)
    assert [entry.status for entry in report.configs[0].entries] == \
        ["PASS", "ERROR"]
    assert "quarantined" not in report.configs[0].render()
    assert not report.all_signed_off


# -- deadlines ----------------------------------------------------------


def test_hang_times_out_once(tmp_path, chaos):
    chaos.set(f"hang:{CONFIG_NAME}:t01_sanity_write_read:1:bca")
    report = _run(tmp_path, run_timeout=0.5)
    entry = report.configs[0].entries[0]
    assert entry.status == "TIMEOUT"
    assert entry.bca.timed_out
    assert entry.bca.kind == "TIMEOUT"
    # The un-faulted sibling entry was unaffected.
    assert report.configs[0].entries[1].status == "PASS"


# -- worker deaths under leases ----------------------------------------


def test_worker_death_fails_only_its_job(tmp_path, chaos, clean_ref):
    """A worker that dies mid-job (``exit`` = ``os._exit`` inside the
    run) fails that one job; every other run's artifacts equal the
    serial reference, and a rerun against the same cache executes only
    the failed job and ends byte-identical."""
    ref_report, ref_snap = clean_ref
    workdir = tmp_path / "faulted"
    cache_dir = str(tmp_path / "cache")
    chaos.set(f"exit:{CONFIG_NAME}:t01_sanity_write_read:1:bca")
    report = _run(workdir, jobs=2, cache_dir=cache_dir)
    entries = report.configs[0].entries
    assert len(entries) == len(TESTS)
    assert entries[0].status == "ERROR"
    assert entries[0].bca.exc_type == "WorkerLost"
    assert entries[1].status == "PASS"
    _assert_only_faulted(workdir, ref_snap, "t01_sanity_write_read__s1__bca")
    chaos.set()
    runner = _runner(workdir, jobs=2, cache_dir=cache_dir)
    assert runner.run().render() == ref_report.render()
    assert runner.cache.stats.stores == 1
    assert _snapshot(workdir) == ref_snap


def test_scheduler_charged_triage_counts_as_triage_failure():
    """A triage job whose worker dies or overruns its deadline is a
    triage failure, not a compare failure."""
    executor = ResilientBatchExecutor(
        {}, BatchSpec(jobs=2, workdir="unused", triage=True))
    task = _Task("triage", (CONFIG_NAME, "t01_sanity_write_read", 1),
                 TriageJob(config=_configs()[0],
                           test_name="t01_sanity_write_read", seed=1,
                           rtl_vcd="rtl.vcd", bca_vcd="bca.vcd",
                           out_path=None, bugs=frozenset(),
                           reason="checkers-failed"))
    for failure in (executor._worker_failure(task, "WorkerLost", "lost"),
                    executor._timeout_failure(task)):
        assert failure.stage == "triage"
        executor._register_failure(task, failure)
    assert executor.faults.triage_failures == 2
    assert executor.faults.compare_failures == 0
    assert executor.faults.crashes == executor.faults.timeouts == 0


# -- resume from the result cache ---------------------------------------


def test_resume_is_byte_identical_and_replay_proof(
        tmp_path, chaos, clean_ref):
    ref_report, ref_snap = clean_ref
    workdir = tmp_path / "faulted"
    cache_dir = str(tmp_path / "cache")
    chaos.set(f"crash:{CONFIG_NAME}:t02_random_uniform:1:bca")
    first = _run(workdir, cache_dir=cache_dir)
    assert first.configs[0].entries[1].status == "ERROR"
    # Rerun with chaos now set to crash every *already cached* t01 run:
    # if the rerun re-executed any of them, the batch would fail again.
    chaos.set(f"crash:{CONFIG_NAME}:t01_sanity_write_read:*:*")
    runner = _runner(workdir, cache_dir=cache_dir)
    assert runner.run().render() == ref_report.render()
    assert runner.cache.stats.stores == 1
    assert _snapshot(workdir) == ref_snap


def test_resume_rejects_stale_artifacts(tmp_path, clean_ref):
    _, ref_snap = clean_ref
    workdir = tmp_path / "run"
    cache_dir = str(tmp_path / "cache")
    _run(workdir, cache_dir=cache_dir)
    vcd = workdir / f"{CONFIG_NAME}__t01_sanity_write_read__s1__rtl.vcd"
    vcd.write_bytes(vcd.read_bytes() + b"tampered\n")
    _run(workdir, cache_dir=cache_dir)
    # The cached rerun re-materialized every artifact from its verified
    # entry, restoring the tampered dump.
    assert _snapshot(workdir) == ref_snap


def test_cli_faulted_cached_batch_prints_the_resume_hint(
        tmp_path, chaos, capsys):
    """A batch that ends with a failed entry names the rerun that
    retries it, when it has a cache to rerun against."""
    save_config_dir(_configs(), str(tmp_path / "cfgs"))
    chaos.set(f"crash:{CONFIG_NAME}:t01_sanity_write_read:1:rtl")
    base = [str(tmp_path / "cfgs"), "--tests", "t01_sanity_write_read",
            "--seeds", "1"]
    cache_dir = str(tmp_path / "cache")
    assert regression_main(base + ["--cache-dir", cache_dir]) == 1
    err = capsys.readouterr().err
    assert (f"faulted: 1 of 1 entries failed to run; rerun with "
            f"--cache-dir {cache_dir} to resume") in err
    assert regression_main(base) == 1
    assert "faulted:" not in capsys.readouterr().err


@pytest.mark.parametrize("flag", [
    ["--journal", "j.jsonl"], ["--resume"],
    ["--max-retries", "2"], ["--retry-backoff", "0.25"],
], ids=lambda flag: flag[0])
def test_cli_rejects_removed_journal_flags(tmp_path, capsys, flag):
    with pytest.raises(SystemExit) as excinfo:
        regression_main([str(tmp_path)] + flag)
    assert excinfo.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-1"])
def test_cli_rejects_nonpositive_run_timeout(tmp_path, capsys, value):
    # Checked before the config dir is read: the directory is missing.
    rc = regression_main([str(tmp_path / "missing"), "--run-timeout", value])
    assert rc == 2
    assert f"--run-timeout must be > 0, got {value}" \
        in capsys.readouterr().err


# -- artifact atomicity -------------------------------------------------


def test_vcd_writer_is_atomic(tmp_path):
    from repro.ioutil import TMP_SUFFIX
    from repro.kernel.signal import Signal
    from repro.vcd.writer import VcdWriter

    target = tmp_path / "dump.vcd"
    writer = VcdWriter(str(target))
    sig = Signal("top.s", width=1)
    writer.declare(sig)
    writer.sample(0, [sig])
    assert not target.exists()  # nothing visible until finish()
    assert (tmp_path / ("dump.vcd" + TMP_SUFFIX)).exists()
    writer.finish(1)
    assert target.exists()
    assert not (tmp_path / ("dump.vcd" + TMP_SUFFIX)).exists()


def test_no_temp_leftovers_after_faulted_batch(tmp_path, chaos):
    from repro.ioutil import TMP_SUFFIX

    chaos.set(f"crash:{CONFIG_NAME}:t01_sanity_write_read:1:rtl")
    _run(tmp_path)
    assert not [n for n in os.listdir(tmp_path) if n.endswith(TMP_SUFFIX)]


def test_run_raising_mid_simulation_leaves_no_temp_vcd(tmp_path,
                                                       monkeypatch):
    """A process that raises after the VCD is open fails its run, and
    the run removes the half-written dump with its handle closed."""
    from repro.catg.bfm import InitiatorBfm
    from repro.ioutil import TMP_SUFFIX

    calls = []
    clk = InitiatorBfm._clk

    def failing(self):
        calls.append(1)
        if len(calls) == 21:
            raise RuntimeError("bfm failed mid-run")
        clk(self)

    monkeypatch.setattr(InitiatorBfm, "_clk", failing)
    report = _run(tmp_path)
    entries = report.configs[0].entries
    assert entries[0].status == "ERROR"
    assert "bfm failed mid-run" in entries[0].rtl.message
    assert not [n for n in os.listdir(tmp_path) if n.endswith(TMP_SUFFIX)]


# -- analyzer robustness ------------------------------------------------


def test_analyzer_truncated_vcd_exits_2_with_diagnostic(tmp_path, capsys):
    from repro.analyzer.cli import main as analyzer_main

    good = tmp_path / "a.vcd"
    bad = tmp_path / "b.vcd"
    good.write_text("$enddefinitions $end\n#0\n")
    bad.write_text("$scope module top $end\n")  # truncated mid-header
    rc = analyzer_main([str(good), str(bad)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert len(err.strip().splitlines()) == 1
    assert "b.vcd" in err


def test_compare_vcds_names_the_corrupt_dump(tmp_path):
    from repro.analyzer.align import compare_vcds
    from repro.analyzer.extract import ExtractionError

    empty = tmp_path / "empty.vcd"
    empty.write_text("")
    with pytest.raises(ExtractionError, match="truncated or corrupt"):
        compare_vcds(str(empty), str(empty))
