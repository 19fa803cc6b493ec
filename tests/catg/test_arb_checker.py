"""Targeted tests for the arbitration reference checker."""

import pytest

from repro.catg import (
    ArbitrationChecker,
    InitiatorBfm,
    PortMonitor,
    VerificationReport,
)
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
        self.init_mon = PortMonitor(self.sim, "mon_init0", self.init_port,
                                    "initiator", 0, route=self.cfg.route,
                                    parent=self.top)
        self.targ_mon = PortMonitor(self.sim, "mon_targ0", self.targ_port,
                                    "target", 0, parent=self.top)
        self.checker = ArbitrationChecker(
            self.sim, "arb", self.cfg, [self.init_mon], [self.targ_mon],
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


def test_checker_checks_once_every_port_has_sampled(monkeypatch):
    """Each cycle's grant check runs after every port's monitor has
    published that cycle's sample, whichever monitor publishes last."""
    events = []
    check = ArbitrationChecker._check

    def recording_check(self):
        events.append((self.sim.now, "check"))
        check(self)

    monkeypatch.setattr(ArbitrationChecker, "_check", recording_check)
    cfg = NodeConfig(n_initiators=2, n_targets=2)
    sim = Simulator()
    top = Module(sim, "rig")
    # Target monitors first: the last sample of a cycle is an initiator's.
    specs = [("target", t) for t in range(2)] \
        + [("initiator", i) for i in range(2)]
    monitors = {}
    for role, index in specs:
        port = StbusPort(top, f"{role}{index}", 32)
        monitor = PortMonitor(sim, f"mon_{role}{index}", port, role, index,
                              route=cfg.route, parent=top)
        monitor.on_sample(
            lambda sample, name=monitor.name: events.append((sim.now, name)))
        monitors[role, index] = monitor
    ArbitrationChecker(
        sim, "arb", cfg, [monitors["initiator", i] for i in range(2)],
        [monitors["target", t] for t in range(2)], VerificationReport(),
        parent=top)
    assert [p.name for p in sim.clocked_processes] == \
        [f"rig.mon_{role}{index}._clk" for role, index in specs]
    sim.elaborate()
    sim.run(3)
    per_cycle = [[name for cycle, name in events if cycle == c]
                 for c in range(3)]
    assert per_cycle == [[f"rig.mon_{r}{i}" for r, i in specs] + ["check"]] * 3


def test_env_observes_through_the_monitors_alone():
    """The arbitration checker and the conflict coverage register no
    process; the programming-port checker runs after every monitor."""
    from repro.catg import VerificationEnv

    cfg = NodeConfig(n_initiators=3, n_targets=2,
                     arbitration=ArbitrationPolicy.PROGRAMMABLE_PRIORITY,
                     has_programming_port=True)
    env = VerificationEnv(cfg)
    names = [p.name for p in env.sim.clocked_processes]
    assert not [n for n in names if "arb_chk" in n or "probe" in n]
    monitors = [i for i, n in enumerate(names) if n.startswith("tb.mon_")]
    assert len(monitors) == 5
    assert names.index("tb.chk_prog._clk") > max(monitors)
