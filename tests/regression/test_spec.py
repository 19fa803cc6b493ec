"""The batch spec and the one static gate both front-ends share.

A :class:`BatchSpec` is validated once, when it is built; the CLI and
the flow run the same ``RegressionRunner.gate()`` before any cycle is
simulated, and only render its result differently.
"""

import dataclasses

import pytest

import repro.lint
import repro.regression.resilience as resilience
from repro.analysis import ConfigAnalysisReport, apply_waivers
from repro.lint import Finding, Severity
from repro.regression import (
    BatchSpec,
    BatchSpecError,
    CommonVerificationFlow,
    FlowState,
    RegressionRunner,
    TESTCASES,
    save_config_dir,
)
from repro.regression.cli import main as regression_main
from repro.stbus import NodeConfig

TESTS = ["t01_sanity_write_read"]


def _config():
    return NodeConfig(n_initiators=1, n_targets=1, name="specgate")


@pytest.fixture
def seeded_lint_error(monkeypatch):
    """Make every lint report carry one error finding (waivable as
    ``xview-interface tb.seeded``); returns the recorded calls."""
    calls = []

    def lint_config(config, *, waivers=(), **_):
        calls.append((config.name, tuple(waivers)))
        report = ConfigAnalysisReport(config_name=config.name, cross_view=[
            Finding("xview-interface", Severity.ERROR, "seeded defect",
                    signal="tb.seeded")])
        apply_waivers(report.cross_view, waivers)
        return report

    monkeypatch.setattr(repro.lint, "lint_config", lint_config)
    return calls


@pytest.fixture
def no_simulation(monkeypatch):
    def execute_run_job(job):
        raise AssertionError("a run executed past a failed gate")

    monkeypatch.setattr(resilience, "execute_run_job", execute_run_job)


# -- validation ---------------------------------------------------------


def test_spec_rejects_triage_without_comparison(tmp_path):
    with pytest.raises(BatchSpecError) as excinfo:
        BatchSpec(triage=True, compare=False, workdir=str(tmp_path))
    assert excinfo.value.field == "triage"
    # No workdir means no dumps, hence no comparison to triage from.
    with pytest.raises(BatchSpecError) as excinfo:
        BatchSpec(triage=True)
    assert excinfo.value.field == "triage"


def test_comparison_needs_a_workdir(tmp_path):
    assert BatchSpec().compare is False
    assert BatchSpec(workdir=str(tmp_path)).compare is True
    assert BatchSpec(workdir=str(tmp_path), compare=False).compare is False


def test_spec_normalizes_and_rejects_values():
    spec = BatchSpec(tests=None, seeds=[3, 4], bca_bugs=["lru-recency-stuck"])
    assert spec.tests == tuple(TESTCASES)
    assert spec.seeds == (3, 4)
    assert spec.bca_bugs == frozenset({"lru-recency-stuck"})
    with pytest.raises(KeyError):
        BatchSpec(tests=["t99_nope"])
    for jobs in (0, -1):
        with pytest.raises(BatchSpecError) as excinfo:
            BatchSpec(jobs=jobs)
        assert excinfo.value.field == "jobs"
    assert BatchSpec(run_timeout=0.5).run_timeout == 0.5


@pytest.mark.parametrize("run_timeout", [0, -0.5])
def test_spec_rejects_nonpositive_run_timeout(run_timeout):
    with pytest.raises(BatchSpecError) as excinfo:
        BatchSpec(run_timeout=run_timeout)
    assert excinfo.value.field == "run_timeout"


def test_replace_revalidates(tmp_path):
    spec = BatchSpec(workdir=str(tmp_path), triage=True)
    with pytest.raises(BatchSpecError):
        dataclasses.replace(spec, compare=False)
    assert dataclasses.replace(spec, seeds=[7]).seeds == (7,)


def test_spec_parses_its_waiver_file(tmp_path):
    good = tmp_path / "good.waivers"
    good.write_text("dead-net tb.* # reason\n")
    spec = BatchSpec(lint_waivers=str(good))
    assert [(w.rule, w.location) for w in spec.waivers] == \
        [("dead-net", "tb.*")]
    bad = tmp_path / "bad.waivers"
    bad.write_text("only-a-rule\n")
    for path in (bad, tmp_path / "missing.waivers"):
        with pytest.raises(BatchSpecError) as excinfo:
            BatchSpec(lint_waivers=str(path))
        assert excinfo.value.field == "lint_waivers"


# -- one gate, two front-ends --------------------------------------------


def test_gate_blocks_the_cli(tmp_path, capsys, seeded_lint_error,
                             no_simulation):
    save_config_dir([_config()], str(tmp_path / "cfgs"))
    code = regression_main([str(tmp_path / "cfgs"), "--tests"] + TESTS
                           + ["--seeds", "1",
                              "--workdir", str(tmp_path / "out")])
    assert code == 1
    captured = capsys.readouterr()
    assert "error[xview-interface]" in captured.err
    assert "static lint failed for 1 configuration(s)" in captured.err
    assert captured.out == ""
    assert seeded_lint_error == [("specgate", ())]


def test_gate_blocks_the_flow(tmp_path, seeded_lint_error, no_simulation):
    flow = CommonVerificationFlow(_config(), BatchSpec(
        tests=TESTS, workdir=str(tmp_path), analysis=True))
    outcome = flow.execute()
    assert not outcome.signed_off
    assert outcome.final_report is None
    assert outcome.history[-1].state is FlowState.STATIC_LINT
    assert "1 error-severity finding(s) (xview-interface)" in \
        outcome.history[-1].detail
    # A failed lint stops the gate before the analysis pass.
    assert all(e.state is not FlowState.STATIC_ANALYSIS
               for e in outcome.history)


def test_both_front_ends_lint_with_the_waivers(tmp_path, capsys,
                                               seeded_lint_error):
    waivers = tmp_path / "lint.waivers"
    waivers.write_text("xview-interface tb.seeded # known\n")
    save_config_dir([_config()], str(tmp_path / "cfgs"))
    code = regression_main([str(tmp_path / "cfgs"), "--tests"] + TESTS
                           + ["--seeds", "1",
                              "--lint-waivers", str(waivers)])
    capsys.readouterr()
    assert code == 1  # one test never reaches full coverage
    spec = BatchSpec(tests=TESTS, workdir=str(tmp_path / "out"),
                     lint_waivers=str(waivers))
    gate = RegressionRunner([_config()], spec).gate()
    assert gate.failed == []
    assert [waived for _, waived in seeded_lint_error] == [spec.waivers] * 2


def test_malformed_waivers_stop_both_front_ends_before_lint(
        tmp_path, capsys, seeded_lint_error):
    waivers = tmp_path / "bad.waivers"
    waivers.write_text("xview-interface\n")
    save_config_dir([_config()], str(tmp_path / "cfgs"))
    code = regression_main([str(tmp_path / "cfgs"),
                            "--lint-waivers", str(waivers)])
    assert code == 2
    assert "error: --lint-waivers is malformed" in capsys.readouterr().err
    assert seeded_lint_error == []
    with pytest.raises(BatchSpecError):
        CommonVerificationFlow(_config(), BatchSpec(
            workdir=str(tmp_path), lint_waivers=str(waivers)))


@pytest.mark.parametrize("analysis", [False, True],
                         ids=["structural", "both-tiers"])
def test_gate_builds_each_testbench_once(monkeypatch, analysis):
    """Both tiers read one build of each configuration's two views,
    finished before the next configuration is built, and report exactly
    what two separate passes report."""
    import json
    import os

    from repro.analysis import DATAFLOW_RULES, analyze_config
    from repro.catg.env import VerificationEnv
    from repro.regression.configs import load_config_dir

    configs = load_config_dir(os.path.join(
        os.path.dirname(__file__), "..", "..", "benchmarks", "e2e",
        "configs"))
    assert len(configs) == 6
    separate_lint = [repro.lint.lint_config(c).to_dict() for c in configs]
    separate_analysis = [
        analyze_config(c, rules=DATAFLOW_RULES).to_dict() for c in configs
    ] if analysis else []

    builds, lint_calls = [], []
    build = VerificationEnv.__init__
    lint_config = repro.lint.lint_config

    def counting_build(self, config, *args, **kwargs):
        assert all(sim._finished for name, sim in builds
                   if name != config.name)
        build(self, config, *args, **kwargs)
        builds.append((config.name, self.sim))

    def counting_lint(config, **kwargs):
        lint_calls.append(config.name)
        return lint_config(config, **kwargs)

    monkeypatch.setattr(VerificationEnv, "__init__", counting_build)
    monkeypatch.setattr(repro.lint, "lint_config", counting_lint)
    gate = RegressionRunner(configs, BatchSpec(analysis=analysis)).gate()
    names = [c.name for c in configs]
    # The builds the tiers read are never stepped; the agreement check's
    # lockstep environments (dataflow tier only) simulate.
    static = [name for name, sim in builds if sim.now == 0]
    assert sorted(static) == sorted(names * 2)
    assert (len(builds) > len(static)) == analysis
    assert lint_calls == names

    def dump(reports):
        return json.dumps([r.to_dict() for r in reports], sort_keys=True)

    assert dump(gate.lint) == json.dumps(separate_lint, sort_keys=True)
    assert dump(gate.analysis) == json.dumps(separate_analysis,
                                             sort_keys=True)
