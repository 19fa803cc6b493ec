"""Regression tool tests: config dirs, runner, sign-off logic, flow."""

import os

import pytest

from repro.regression import (
    BatchSpec,
    CommonVerificationFlow,
    FlowState,
    RegressionRunner,
    TESTCASES,
    build_test,
    configuration_matrix,
    load_config_dir,
    save_config_dir,
)
from repro.stbus import (
    Architecture,
    ArbitrationPolicy,
    ConfigError,
    NodeConfig,
    ProtocolType,
)


def test_configuration_matrix_has_more_than_36():
    configs = configuration_matrix()
    assert len(configs) > 36  # "More than 36 configurations ... tested"
    names = [c.name for c in configs]
    assert len(set(names)) == len(names)
    # The sweep covers both protocols, all architectures, all policies.
    assert {c.protocol_type for c in configs} == \
        {ProtocolType.T2, ProtocolType.T3}
    assert {c.architecture for c in configs} == set(Architecture)
    assert {c.arbitration for c in configs} == set(ArbitrationPolicy)


def test_configuration_matrix_small_subset():
    small = configuration_matrix(small=True)
    assert 0 < len(small) < len(configuration_matrix())


def test_config_dir_roundtrip(tmp_path):
    configs = configuration_matrix(small=True)
    save_config_dir(configs, str(tmp_path))
    loaded = load_config_dir(str(tmp_path))
    assert [c.name for c in loaded] == sorted(c.name for c in configs)
    by_name = {c.name: c for c in configs}
    for config in loaded:
        assert config.to_text() == by_name[config.name].to_text()


def test_load_config_dir_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_config_dir(str(tmp_path / "missing"))
    with pytest.raises(ConfigError):
        load_config_dir(str(tmp_path))  # exists but empty


def test_unknown_testcase_rejected():
    with pytest.raises(KeyError):
        BatchSpec(tests=["t99_nope"])
    with pytest.raises(KeyError):
        build_test("t99_nope", NodeConfig(), 1)


def test_build_test_deterministic():
    cfg = NodeConfig(n_initiators=2, n_targets=2)
    a = build_test("t02_random_uniform", cfg, 5)
    b = build_test("t02_random_uniform", cfg, 5)
    cells_a = [(t.opcode, t.address, t.data) for p in a.programs for t, _ in p]
    cells_b = [(t.opcode, t.address, t.data) for p in b.programs for t, _ in p]
    assert cells_a == cells_b
    c = build_test("t02_random_uniform", cfg, 6)
    cells_c = [(t.opcode, t.address, t.data) for p in c.programs for t, _ in p]
    assert cells_a != cells_c


def test_all_testcases_buildable_on_every_matrix_config():
    for config in configuration_matrix(small=True):
        for name in TESTCASES:
            test = TESTCASES[name](config, 1)
            assert len(test.programs) == config.n_initiators
            assert len(test.target_latencies) == config.n_targets
            assert test.total_transactions() > 0


def test_runner_produces_signed_off_config(tmp_path):
    cfg = NodeConfig(n_initiators=2, n_targets=2,
                     protocol_type=ProtocolType.T3,
                     arbitration=ArbitrationPolicy.ROUND_ROBIN,
                     name="signoff")
    runner = RegressionRunner(
        [cfg], BatchSpec(seeds=(1, 2), workdir=str(tmp_path)))
    report = runner.run()
    assert report.all_signed_off, report.render()
    config_report = report.configs[0]
    assert config_report.all_passed
    assert config_report.full_functional_coverage
    assert config_report.min_alignment == 1.0
    assert all(e.coverage_equal for e in config_report.entries)
    # The tool wrote its artifacts.
    assert os.path.exists(tmp_path / "regression_summary.txt")
    assert os.path.exists(tmp_path / "signoff__report.txt")
    vcds = [p for p in os.listdir(tmp_path) if p.endswith(".vcd")]
    assert len(vcds) == 2 * 2 * len(TESTCASES)  # views x seeds x tests


def test_runner_without_workdir_skips_alignment():
    cfg = NodeConfig(n_initiators=1, n_targets=1, name="nowork")
    runner = RegressionRunner(
        [cfg], BatchSpec(tests=["t01_sanity_write_read"]))
    report = runner.run()
    entry = report.configs[0].entries[0]
    assert entry.alignment is None
    assert entry.both_passed


def test_runner_flags_buggy_bca(tmp_path):
    cfg = NodeConfig(n_initiators=3, n_targets=2,
                     arbitration=ArbitrationPolicy.LRU, name="buggy")
    runner = RegressionRunner([cfg], BatchSpec(
        tests=["t06_lru_fairness"], workdir=str(tmp_path),
        bca_bugs={"lru-recency-stuck"},
    ))
    report = runner.run()
    config_report = report.configs[0]
    assert not config_report.signed_off
    entry = config_report.entries[0]
    assert entry.rtl.passed and not entry.bca.passed
    assert entry.alignment.min_rate < 0.99


def test_flow_reaches_signoff_with_clean_models(tmp_path):
    cfg = NodeConfig(n_initiators=2, n_targets=2, name="flow-clean",
                     protocol_type=ProtocolType.T3)
    flow = CommonVerificationFlow(
        cfg, BatchSpec(seeds=(1, 2), workdir=str(tmp_path)))
    outcome = flow.execute()
    assert outcome.signed_off
    assert outcome.iterations == 1
    states = [e.state for e in outcome.history]
    assert states[0] is FlowState.FUNCTIONAL_SPEC
    assert FlowState.BUS_ACCURATE_COMPARISON in states
    assert states[-1] is FlowState.SIGNED_OFF


def test_flow_loops_on_buggy_bca_then_signs_off(tmp_path):
    cfg = NodeConfig(n_initiators=3, n_targets=2, name="flow-buggy",
                     protocol_type=ProtocolType.T3,
                     arbitration=ArbitrationPolicy.LRU)
    flow = CommonVerificationFlow(cfg, BatchSpec(
        seeds=(1, 2), workdir=str(tmp_path),
        bca_bugs=("lru-recency-stuck",),
    ))
    outcome = flow.execute()
    assert outcome.signed_off
    assert outcome.iterations >= 2  # one failed round, one after the fix
    details = " ".join(e.detail for e in outcome.history)
    assert "fix the BCA model" in details


def test_runner_writes_per_run_reports(tmp_path):
    cfg = NodeConfig(n_initiators=1, n_targets=1, name="reports")
    runner = RegressionRunner([cfg], BatchSpec(
        tests=["t01_sanity_write_read"], seeds=(3,), workdir=str(tmp_path)))
    runner.run()
    for view in ("rtl", "bca"):
        stem = tmp_path / f"reports__t01_sanity_write_read__s3__{view}"
        report = (stem.parent / (stem.name + ".report.txt")).read_text()
        coverage = (stem.parent / (stem.name + ".coverage.txt")).read_text()
        assert "Status: PASS" in report
        assert "Functional coverage" in coverage
