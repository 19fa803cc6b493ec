"""Fault-tolerance tests for the regression batch engine.

Every fault here is injected deterministically through the ``REPRO_CHAOS``
environment hook (:mod:`repro.regression.chaos`); production batches never
set the variable, so the first tests pin down that the hooks are inert
without it.  The load-bearing invariant throughout: a batch that recovers
from a fault (retry, pool rebuild, cached rerun) produces artifacts
*byte-identical* to a batch that never faulted.
"""

import os

import pytest

from repro.regression import RegressionRunner, ResilienceConfig
from repro.regression.chaos import (
    CHAOS_ENV,
    ChaosError,
    ChaosSpec,
    inject_before_run,
)
from repro.regression.cli import main as regression_main
from repro.stbus import NodeConfig, ProtocolType

TESTS = ["t01_sanity_write_read", "t02_random_uniform"]
CONFIG_NAME = "rsl_cfg"


def _configs():
    return [NodeConfig(n_initiators=2, n_targets=2,
                       protocol_type=ProtocolType.T3, name=CONFIG_NAME)]


def _run(workdir, jobs=1, resilience=None, seeds=(1,), cache_dir=None):
    runner = RegressionRunner(
        _configs(), tests=TESTS, seeds=seeds, workdir=str(workdir),
        jobs=jobs, resilience=resilience or ResilienceConfig(),
        cache_dir=cache_dir,
    )
    return runner.run()


def _snapshot(workdir):
    """Every artifact in the workdir, as bytes, keyed by filename."""
    return {
        name: (workdir / name).read_bytes()
        for name in sorted(os.listdir(workdir))
    }


@pytest.fixture()
def clean_ref(tmp_path):
    """A fault-free serial run: the byte-identity reference."""
    report = _run(tmp_path / "ref")
    return report, _snapshot(tmp_path / "ref")


# -- chaos hook ---------------------------------------------------------


def test_chaos_spec_grammar():
    spec = ChaosSpec.parse("crash:cfg:t01:*:rtl:2; hang:*:*:3:bca")
    assert len(spec.rules) == 2
    crash, hang = spec.rules
    assert crash.matches("cfg", "t01", 7, "rtl", attempt=1)
    assert not crash.matches("cfg", "t01", 7, "rtl", attempt=2)  # limit
    assert not crash.matches("other", "t01", 7, "rtl", attempt=0)
    assert hang.matches("anything", "t99", 3, "bca", attempt=50)
    assert not hang.matches("anything", "t99", 4, "bca", attempt=0)
    with pytest.raises(ChaosError):
        ChaosSpec.parse("crash:only:three")
    with pytest.raises(ChaosError):
        ChaosSpec.parse("sabotage:*:*:*:*")
    with pytest.raises(ChaosError):
        ChaosSpec.parse("crash:*:*:*:*:soon")


def test_chaos_inert_without_env(monkeypatch):
    monkeypatch.delenv(CHAOS_ENV, raising=False)
    assert ChaosSpec.from_env().rules == ()

    class _Job:
        class config:
            name = "x"
        test_name, seed, view, attempt = "t", 1, "rtl", 0
        vcd_path = None

    inject_before_run(_Job())  # must be a silent no-op


# -- crash isolation ----------------------------------------------------


def test_worker_crash_still_yields_full_report(tmp_path, monkeypatch):
    monkeypatch.setenv(
        CHAOS_ENV, f"crash:{CONFIG_NAME}:t02_random_uniform:1:bca")
    report = _run(tmp_path, resilience=ResilienceConfig(max_retries=0))
    entries = report.configs[0].entries
    assert len(entries) == len(TESTS)
    assert entries[0].status == "PASS"
    assert entries[1].status == "ERROR"
    assert not entries[1].bca.passed
    assert "chaos: injected crash" in entries[1].bca.message
    # The batch completed: summary + per-config report were written.
    assert (tmp_path / "regression_summary.txt").exists()
    assert "ERROR" in report.configs[0].render()


def test_retry_recovers_byte_identically(tmp_path, monkeypatch, clean_ref):
    ref_report, ref_snap = clean_ref
    monkeypatch.setenv(
        CHAOS_ENV, f"crash:{CONFIG_NAME}:t01_sanity_write_read:1:rtl:1")
    report = _run(tmp_path / "faulted",
                  resilience=ResilienceConfig(max_retries=2, backoff=0.0))
    assert report.render() == ref_report.render()
    assert _snapshot(tmp_path / "faulted") == ref_snap


def test_persistent_crash_is_quarantined(tmp_path, monkeypatch):
    monkeypatch.setenv(
        CHAOS_ENV, f"crash:{CONFIG_NAME}:t02_random_uniform:1:rtl")
    report = _run(tmp_path,
                  resilience=ResilienceConfig(max_retries=2, backoff=0.0))
    entry = report.configs[0].entries[1]
    assert entry.status == "QUARANTINED"
    failures = report.configs[0].quarantined_failures()
    assert len(failures) == 1
    assert len(failures[0].history) == 3  # 1 attempt + 2 retries
    rendered = report.configs[0].render()
    assert "quarantined: 1 job(s)" in rendered
    assert not report.all_signed_off


def test_no_retries_means_plain_error(tmp_path, monkeypatch):
    monkeypatch.setenv(
        CHAOS_ENV, f"crash:{CONFIG_NAME}:t02_random_uniform:1:rtl")
    report = _run(tmp_path, resilience=ResilienceConfig(max_retries=0))
    entry = report.configs[0].entries[1]
    assert entry.status == "ERROR"  # never retried -> not quarantined
    assert not report.configs[0].quarantined_failures()


# -- deadlines ----------------------------------------------------------


def test_hang_times_out_and_quarantines(tmp_path, monkeypatch):
    monkeypatch.setenv(
        CHAOS_ENV, f"hang:{CONFIG_NAME}:t01_sanity_write_read:1:bca")
    report = _run(tmp_path, resilience=ResilienceConfig(
        run_timeout=0.5, max_retries=1, backoff=0.0))
    entry = report.configs[0].entries[0]
    assert entry.status == "QUARANTINED"
    assert entry.bca.timed_out
    assert entry.bca.kind == "TIMEOUT"
    # The un-faulted sibling entry was unaffected.
    assert report.configs[0].entries[1].status == "PASS"


def test_timeout_then_retry_recovers(tmp_path, monkeypatch, clean_ref):
    ref_report, ref_snap = clean_ref
    monkeypatch.setenv(
        CHAOS_ENV, f"hang:{CONFIG_NAME}:t01_sanity_write_read:1:rtl:1")
    report = _run(tmp_path / "faulted", resilience=ResilienceConfig(
        run_timeout=0.5, max_retries=1, backoff=0.0))
    assert report.render() == ref_report.render()
    assert _snapshot(tmp_path / "faulted") == ref_snap


# -- pool crashes -------------------------------------------------------


def test_pool_hard_death_recovers_byte_identically(
        tmp_path, monkeypatch, clean_ref):
    ref_report, ref_snap = clean_ref
    monkeypatch.setenv(
        CHAOS_ENV, f"exit:{CONFIG_NAME}:t02_random_uniform:1:rtl:1")
    report = _run(tmp_path / "faulted", jobs=2,
                  resilience=ResilienceConfig(max_retries=2, backoff=0.0))
    assert report.render() == ref_report.render()
    assert _snapshot(tmp_path / "faulted") == ref_snap


def test_pool_crash_mid_batch_report_complete(tmp_path, monkeypatch):
    monkeypatch.setenv(
        CHAOS_ENV, f"exit:{CONFIG_NAME}:t01_sanity_write_read:1:bca")
    report = _run(tmp_path, jobs=2,
                  resilience=ResilienceConfig(max_retries=1, backoff=0.0))
    entries = report.configs[0].entries
    assert len(entries) == len(TESTS)
    assert entries[0].status == "QUARANTINED"
    assert entries[1].status == "PASS"


# -- resume from the result cache ---------------------------------------


def test_resume_is_byte_identical_and_replay_proof(
        tmp_path, monkeypatch, clean_ref):
    ref_report, ref_snap = clean_ref
    workdir = tmp_path / "faulted"
    cache_dir = str(tmp_path / "cache")
    monkeypatch.setenv(
        CHAOS_ENV, f"crash:{CONFIG_NAME}:t02_random_uniform:1:bca")
    first = _run(workdir, resilience=ResilienceConfig(max_retries=0),
                 cache_dir=cache_dir)
    assert first.configs[0].entries[1].status == "ERROR"
    # Rerun with chaos now set to crash every *already cached* t01 run:
    # if the rerun re-executed any of them, the batch would fail again.
    monkeypatch.setenv(
        CHAOS_ENV, f"crash:{CONFIG_NAME}:t01_sanity_write_read:*:*")
    resumed = _run(workdir, resilience=ResilienceConfig(max_retries=0),
                   cache_dir=cache_dir)
    assert resumed.render() == ref_report.render()
    assert _snapshot(workdir) == ref_snap


def test_resume_rejects_stale_artifacts(tmp_path, monkeypatch, clean_ref):
    _, ref_snap = clean_ref
    workdir = tmp_path / "run"
    cache_dir = str(tmp_path / "cache")
    monkeypatch.delenv(CHAOS_ENV, raising=False)
    _run(workdir, cache_dir=cache_dir)
    vcd = workdir / f"{CONFIG_NAME}__t01_sanity_write_read__s1__rtl.vcd"
    vcd.write_bytes(vcd.read_bytes() + b"tampered\n")
    _run(workdir, cache_dir=cache_dir)
    # The cached rerun re-materialized every artifact from its verified
    # entry, restoring the tampered dump.
    assert _snapshot(workdir) == ref_snap


def test_cli_rejects_removed_journal_flags(tmp_path, capsys):
    for flag in (["--journal", str(tmp_path / "j.jsonl")], ["--resume"]):
        with pytest.raises(SystemExit) as excinfo:
            regression_main([str(tmp_path)] + flag)
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_cli_rejects_negative_retry_backoff(tmp_path, capsys):
    # Checked before the config dir is read: the directory is missing.
    rc = regression_main([str(tmp_path / "missing"),
                          "--retry-backoff", "-1"])
    assert rc == 2
    assert ("--retry-backoff must be >= 0, got -1"
            in capsys.readouterr().err)


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


def test_no_temp_leftovers_after_faulted_batch(tmp_path, monkeypatch):
    from repro.ioutil import TMP_SUFFIX

    monkeypatch.setenv(
        CHAOS_ENV, f"crash:{CONFIG_NAME}:t01_sanity_write_read:1:rtl:1")
    _run(tmp_path, resilience=ResilienceConfig(max_retries=1, backoff=0.0))
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
