"""Parallel-vs-serial equivalence for the batch regression engine.

The whole point of ``jobs=N`` is throughput without observability: the
assembled :class:`RegressionReport`, every rendered artifact and every
VCD must be byte-identical to the serial run.  These tests pin that
down, including for a failing (buggy-BCA) run.
"""

import os

import pytest

from repro.regression import BatchSpec, RegressionRunner, default_jobs
from repro.regression.parallel import RunJob, execute_run_job
from repro.stbus import ArbitrationPolicy, NodeConfig, ProtocolType

TESTS = ["t01_sanity_write_read", "t06_lru_fairness"]


def _configs():
    return [
        NodeConfig(n_initiators=2, n_targets=2,
                   protocol_type=ProtocolType.T3, name="par_clean"),
        NodeConfig(n_initiators=3, n_targets=2,
                   arbitration=ArbitrationPolicy.LRU, name="par_lru"),
    ]


def _run(workdir, jobs, bugs=()):
    runner = RegressionRunner(_configs(), BatchSpec(
        tests=TESTS, seeds=(1,), workdir=str(workdir),
        bca_bugs=set(bugs), jobs=jobs,
    ))
    return runner.run()


def _snapshot(workdir):
    """Every artifact in the workdir, as bytes, keyed by filename."""
    return {
        name: (workdir / name).read_bytes()
        for name in sorted(os.listdir(workdir))
    }


def test_parallel_report_and_artifacts_byte_identical(tmp_path):
    serial = _run(tmp_path / "serial", jobs=1)
    parallel = _run(tmp_path / "parallel", jobs=4)
    assert serial.render() == parallel.render()
    assert serial.all_signed_off == parallel.all_signed_off
    snap_s = _snapshot(tmp_path / "serial")
    snap_p = _snapshot(tmp_path / "parallel")
    assert sorted(snap_s) == sorted(snap_p)
    for name in snap_s:
        assert snap_s[name] == snap_p[name], f"{name} differs"
    # VCDs specifically (the alignment comparison inputs).
    vcds = [n for n in snap_s if n.endswith(".vcd")]
    assert len(vcds) == 2 * len(TESTS) * len(_configs())


def test_parallel_equivalence_with_buggy_bca(tmp_path):
    serial = _run(tmp_path / "serial", jobs=1, bugs={"lru-recency-stuck"})
    parallel = _run(tmp_path / "parallel", jobs=3,
                    bugs={"lru-recency-stuck"})
    assert serial.render() == parallel.render()
    # The bug must actually have fired, and identically on both paths.
    assert not serial.all_signed_off
    lru = serial.configs[1]
    lru_p = parallel.configs[1]
    assert not lru.all_passed
    assert [e.summary() for e in lru.entries] == \
        [e.summary() for e in lru_p.entries]
    assert _snapshot(tmp_path / "serial") == _snapshot(tmp_path / "parallel")


def test_parallel_entry_order_is_deterministic(tmp_path):
    report = _run(tmp_path, jobs=2)
    entries = [(e.config_name, e.test_name, e.seed)
               for c in report.configs for e in c.entries]
    assert entries == [
        (cfg.name, test, 1) for cfg in _configs() for test in TESTS
    ]


def test_parallel_without_workdir_skips_alignment():
    runner = RegressionRunner(
        [NodeConfig(n_initiators=1, n_targets=1, name="par_nowork")],
        BatchSpec(tests=["t01_sanity_write_read"], jobs=2),
    )
    report = runner.run()
    entry = report.configs[0].entries[0]
    assert entry.alignment is None
    assert entry.both_passed


def test_jobs_validation():
    with pytest.raises(ValueError):
        BatchSpec(jobs=0)
    with pytest.raises(ValueError):
        BatchSpec(jobs=-2)


def test_default_jobs_positive():
    assert default_jobs() >= 1


def test_run_job_is_picklable_and_executable():
    import pickle

    job = RunJob(
        config=NodeConfig(n_initiators=1, n_targets=1, name="pickled"),
        test_name="t01_sanity_write_read", seed=1, view="rtl",
        vcd_path=None, report_stem=None, bugs=frozenset(),
    )
    restored = pickle.loads(pickle.dumps(job))
    result = execute_run_job(restored)
    assert result.passed
    assert result.view == "rtl"
    assert pickle.loads(pickle.dumps(result)).passed  # results cross back
