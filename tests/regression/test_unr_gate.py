"""The opt-in UNR annotation and the flow's static-analysis gate."""

import os

from repro.regression import (
    BatchSpec,
    CommonVerificationFlow,
    FlowState,
    RegressionRunner,
)
from repro.stbus import NodeConfig

CFG = dict(n_initiators=1, n_targets=1, name="unrgate")
TESTS = ["t01_sanity_write_read"]


def _run(tmp_path, subdir, **kwargs):
    workdir = str(tmp_path / subdir)
    runner = RegressionRunner([NodeConfig(**CFG)], BatchSpec(
        tests=TESTS, seeds=(1,), workdir=workdir, **kwargs))
    runner.run()
    with open(os.path.join(workdir, "unrgate__report.txt"),
              encoding="utf-8") as handle:
        return handle.read()


def test_report_byte_identical_with_flag_off(tmp_path):
    baseline = _run(tmp_path, "baseline")
    explicit_off = _run(tmp_path, "off", unr=False)
    assert explicit_off == baseline
    assert "UNR analysis" not in baseline


def test_unr_flag_annotates_the_config_report(tmp_path):
    report = _run(tmp_path, "on", unr=True)
    assert "UNR analysis" in report
    assert "UNREACHABLE" in report
    # Full coverage on this config: the annotation says so rather than
    # cross-referencing holes.
    assert ("no coverage holes" in report
            or "coverage holes vs static verdicts" in report)
    # The annotation is strictly appended: the flag-off report is a prefix.
    baseline = _run(tmp_path, "prefix")
    assert report.startswith(baseline)


def test_flow_analysis_gate_runs_and_passes(tmp_path):
    flow = CommonVerificationFlow(NodeConfig(**CFG), BatchSpec(
        tests=TESTS, seeds=(1,), workdir=str(tmp_path), analysis=True))
    outcome = flow.execute()
    assert outcome.signed_off, outcome.render()
    events = [e for e in outcome.history
              if e.state is FlowState.STATIC_ANALYSIS]
    assert len(events) == 1
    assert "no races" in events[0].detail
    assert "proven unreachable" in events[0].detail


def test_flow_without_analysis_skips_the_gate(tmp_path):
    flow = CommonVerificationFlow(NodeConfig(**CFG), BatchSpec(
        tests=TESTS, seeds=(1,), workdir=str(tmp_path)))
    outcome = flow.execute()
    assert outcome.signed_off
    assert all(e.state is not FlowState.STATIC_ANALYSIS
               for e in outcome.history)
