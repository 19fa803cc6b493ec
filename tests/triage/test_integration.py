"""Triage threaded through the regression stack.

Covers the runner (FAIL entries grow a triage payload and a
``*__triage.json`` artifact), the report's Triage section, cached
reruns (runs hit the cache, triage re-executes byte-identically),
serial/parallel byte-identity, the flow's fix-loop enrichment and the telemetry rollup —
plus the invariants that triage-disabled and fault-free batches are
byte-identical to pre-triage output.
"""

import json
import os

from repro.regression import CommonVerificationFlow, RegressionRunner
from repro.stbus import ArbitrationPolicy, NodeConfig
from repro.telemetry import TelemetryConfig
from repro.triage import load_triage

BUGGY = dict(n_initiators=3, n_targets=2,
             arbitration=ArbitrationPolicy.LRU, name="buggy")
TEST = "t06_lru_fairness"
BUG = "lru-recency-stuck"


def _run(tmp_path, sub, **kwargs):
    workdir = str(tmp_path / sub)
    runner = RegressionRunner(
        [NodeConfig(**BUGGY)], tests=[TEST], seeds=(2,), workdir=workdir,
        bca_bugs={BUG}, **kwargs,
    )
    return runner.run(), workdir


def _triage_files(workdir):
    return sorted(p for p in os.listdir(workdir)
                  if p.endswith("__triage.json"))


def test_runner_attaches_triage_to_failed_entries(tmp_path):
    report, workdir = _run(tmp_path, "on", triage=True)
    entry = report.configs[0].entries[0]
    assert entry.triage is not None
    assert entry.triage.reason == "checkers-failed"
    assert entry.triage.localized
    assert entry.triage.suspects
    files = _triage_files(workdir)
    assert files == [f"buggy__{TEST}__s2__triage.json"]
    payload = load_triage(os.path.join(workdir, files[0]))
    assert payload == entry.triage.to_dict()
    rendered = report.configs[0].render()
    assert "Triage:" in rendered
    assert entry.triage.signal in rendered


def test_triage_disabled_output_is_untouched(tmp_path):
    with_triage, _ = _run(tmp_path, "on", triage=True)
    without, workdir = _run(tmp_path, "off")
    assert _triage_files(workdir) == []
    assert without.configs[0].entries[0].triage is None
    plain = without.configs[0].render()
    enriched = with_triage.configs[0].render()
    assert "Triage:" not in plain
    assert "Triage:" in enriched
    # The triage run's report is the disabled report plus the appended
    # Triage section — nothing else moved.
    assert enriched.startswith(plain)
    assert enriched[len(plain):].lstrip().startswith("Triage:")


def test_fault_free_batch_is_byte_identical_with_triage_on(tmp_path):
    clean = dict(BUGGY)
    runner_on = RegressionRunner(
        [NodeConfig(**clean)], tests=[TEST], seeds=(2,),
        workdir=str(tmp_path / "on"), triage=True,
    )
    runner_off = RegressionRunner(
        [NodeConfig(**clean)], tests=[TEST], seeds=(2,),
        workdir=str(tmp_path / "off"),
    )
    on, off = runner_on.run(), runner_off.run()
    # One test/seed cannot reach full coverage, but every run passes
    # and the alignment is perfect — no triage may fire.
    assert on.configs[0].entries[0].both_passed
    assert on.configs[0].min_alignment == 1.0
    assert on.render() == off.render()
    assert on.configs[0].render() == off.configs[0].render()
    assert _triage_files(str(tmp_path / "on")) == []


def test_serial_and_parallel_triage_are_byte_identical(tmp_path):
    serial, wd1 = _run(tmp_path, "serial", triage=True, jobs=1)
    pooled, wd2 = _run(tmp_path, "pooled", triage=True, jobs=2)
    assert serial.configs[0].render() == pooled.configs[0].render()
    assert _triage_files(wd1) == _triage_files(wd2)
    for name in _triage_files(wd1):
        a = open(os.path.join(wd1, name)).read()
        b = open(os.path.join(wd2, name)).read()
        assert a == b


def test_cache_rerun_reproduces_triage_byte_identically(tmp_path):
    cache_dir = str(tmp_path / "cache")
    first, workdir = _run(tmp_path, "cached", triage=True,
                          cache_dir=cache_dir)
    name = _triage_files(workdir)[0]
    report_name = "buggy__report.txt"
    before = {n: open(os.path.join(workdir, n), "rb").read()
              for n in (name, report_name)}
    # Rerun against the same cache: the runs are verified hits, the
    # comparison and the triage re-execute deterministically.
    runner = RegressionRunner(
        [NodeConfig(**BUGGY)], tests=[TEST], seeds=(2,), workdir=workdir,
        bca_bugs={BUG}, triage=True, cache_dir=cache_dir,
    )
    rerun = runner.run()
    assert runner.cache.stats.hits == 2
    assert rerun.render() == first.render()
    for n, data in before.items():
        assert open(os.path.join(workdir, n), "rb").read() == data
    entry = rerun.configs[0].entries[0]
    assert entry.triage is not None
    assert entry.triage.localized


def test_resume_with_triage_toggled_on_still_works(tmp_path):
    # Triage is not part of any cache key, so a batch cached without it
    # can be rerun with --triage: runs hit the cache, triage runs fresh.
    cache_dir = str(tmp_path / "cache")
    plain, workdir = _run(tmp_path, "wd", cache_dir=cache_dir)
    runner = RegressionRunner(
        [NodeConfig(**BUGGY)], tests=[TEST], seeds=(2,), workdir=workdir,
        bca_bugs={BUG}, triage=True, cache_dir=cache_dir,
    )
    resumed = runner.run()
    assert runner.cache.stats.hits == 2
    entry = resumed.configs[0].entries[0]
    assert entry.triage is not None
    assert "Triage:" in resumed.configs[0].render()


def test_flow_fix_loop_names_the_suspects(tmp_path):
    flow = CommonVerificationFlow(
        NodeConfig(n_initiators=3, n_targets=2, name="flow-triage",
                   arbitration=ArbitrationPolicy.LRU),
        tests=[TEST], seeds=(2,), workdir=str(tmp_path),
        initial_bca_bugs=(BUG,), triage=True,
    )
    outcome = flow.execute()
    assert outcome.signed_off
    details = " ".join(e.detail for e in outcome.history)
    assert "fix the BCA model" in details  # pinned wording survives
    assert "triage: first divergence" in details
    assert "top suspect" in details


def test_flow_without_triage_is_unchanged(tmp_path):
    flow = CommonVerificationFlow(
        NodeConfig(n_initiators=3, n_targets=2, name="flow-plain",
                   arbitration=ArbitrationPolicy.LRU),
        tests=[TEST], seeds=(2,), workdir=str(tmp_path),
        initial_bca_bugs=(BUG,),
    )
    outcome = flow.execute()
    details = " ".join(e.detail for e in outcome.history)
    assert "fix the BCA model" in details
    assert "triage:" not in details


def test_metrics_rollup_reports_triage(tmp_path):
    metrics = str(tmp_path / "metrics.json")
    _run(tmp_path, "wd", triage=True,
         telemetry=TelemetryConfig(metrics_out=metrics))
    payload = json.load(open(metrics))
    rows = payload["triages"]
    assert len(rows) == 1
    row = rows[0]
    assert row["config"] == "buggy" and row["test"] == TEST
    assert row["reason"] == "checkers-failed"
    assert row["verdict"] == "localized"
    assert row["suspect_count"] > 0 and row["top_suspect"]
    counters = payload["batch"]["triage_counters"]
    assert counters["triage.suspect_count"] == row["suspect_count"]
    assert "triage.first_divergence_cycle" in counters
    # The triage span shows up in the phase split.
    assert "triage" in payload["batch"]["phase_totals"]

    from repro.telemetry.summarize import summarize_metrics

    digest = summarize_metrics(payload)
    assert "Triaged failures: 1" in digest
    assert "top suspect" in digest


def test_metrics_rollup_has_no_triage_keys_when_clean(tmp_path):
    metrics = str(tmp_path / "metrics.json")
    runner = RegressionRunner(
        [NodeConfig(**BUGGY)], tests=[TEST], seeds=(2,),
        workdir=str(tmp_path / "wd"), triage=True,
        telemetry=TelemetryConfig(metrics_out=metrics),
    )
    runner.run()  # fault-free: same config, no bug injected
    payload = json.load(open(metrics))
    assert "triages" not in payload
    assert "triage_counters" not in payload["batch"]
