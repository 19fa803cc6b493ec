"""Targeted tests for the arbitration reference checker."""

import pytest

from repro.catg import ArbitrationChecker, InitiatorBfm, TargetHarness, VerificationReport
from repro.kernel import Module, Simulator
from repro.stbus import (
    ArbitrationPolicy,
    NodeConfig,
    Opcode,
    StbusPort,
    Transaction,
)


class FakeDutRig:
    """A degenerate 1x1 'node' whose grant behaviour the test scripts."""

    def __init__(self, grant_mode):
        self.cfg = NodeConfig(n_initiators=1, n_targets=1)
        self.sim = Simulator()
        self.top = Module(self.sim, "rig")
        self.init_port = StbusPort(self.top, "init0", 32)
        self.targ_port = StbusPort(self.top, "targ0", 32)
        self.report = VerificationReport()
        self.bfm = InitiatorBfm(self.sim, "bfm", self.init_port,
                                self.cfg.protocol_type, parent=self.top)
        self.bfm.load_program(
            [(Transaction(Opcode.load(4), 0x10), 0)]
        )
        self.checker = ArbitrationChecker(
            self.sim, "arb", self.cfg, [self.init_port], [self.targ_port],
            self.report, parent=self.top)

        def fake_dut():
            if grant_mode == "never":
                self.init_port.gnt.drive(0)
            elif grant_mode == "always":
                self.init_port.gnt.drive(1)

        self.sim.add_clocked(fake_dut)
        self.sim.elaborate()


def test_checker_flags_missing_grant():
    rig = FakeDutRig("never")
    rig.sim.run(10)
    hits = [v for v in rig.report.violations if v.rule == "ARB_POLICY"]
    assert hits
    assert "missing grant" in hits[0].message


def test_checker_flags_spurious_grant():
    # "always" grants even after the request packet finished.
    rig = FakeDutRig("always")
    rig.sim.run(20)
    hits = [v for v in rig.report.violations if v.rule == "ARB_POLICY"]
    assert any("unexpected grant" in v.message for v in hits)


@pytest.mark.parametrize("policy", list(ArbitrationPolicy),
                         ids=lambda p: p.value)
def test_checker_silent_on_golden_rtl_per_policy(policy):
    """No false positives: the reference must agree with the real RTL
    node under every arbitration policy."""
    from repro.catg import run_test
    from repro.regression.testcases import build_test

    cfg = NodeConfig(
        n_initiators=3, n_targets=2, arbitration=policy,
        has_programming_port=policy in (
            ArbitrationPolicy.PROGRAMMABLE_PRIORITY,
            ArbitrationPolicy.LATENCY_BASED,
        ),
        name=f"golden-{policy.value}",
    )
    for test_name in ("t04_latency_arbitration", "t06_lru_fairness",
                      "t07_priority_reprogramming"):
        result = run_test(cfg, build_test(test_name, cfg, 11))
        assert result.passed, (policy, test_name,
                               result.report.violations[:3])


def test_checker_counts_cycles():
    rig = FakeDutRig("never")
    rig.sim.run(7)
    # one checked cycle per clock
    assert rig.checker.checked_cycles == 7
