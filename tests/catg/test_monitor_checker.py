"""Monitor packet re-assembly and protocol checker rule tests."""

import os

import pytest

from repro.catg import (
    PortMonitor,
    ProtocolChecker,
    VerificationReport,
)
from repro.catg.env import VerificationEnv
from repro.kernel import Module, Simulator
from repro.regression.configs import load_config_dir
from repro.regression.testcases import build_test
from repro.stbus import Opcode, ProtocolType, StbusPort

BENCH_CONFIGS = os.path.join(os.path.dirname(__file__), "..", "..",
                             "benchmarks", "e2e", "configs")


class PortRig:
    """Directly drives a port's pins to unit-test passive components."""

    def __init__(self, protocol=ProtocolType.T2, width=32, role="initiator"):
        self.sim = Simulator()
        self.top = Module(self.sim, "rig")
        self.port = StbusPort(self.top, "p0", width)
        self.report = VerificationReport()
        self.monitor = PortMonitor(self.sim, "mon", self.port, role, 0,
                                   parent=self.top)
        self.checker = ProtocolChecker(self.sim, "chk", self.monitor,
                                       protocol, self.report, parent=self.top)
        self.sim.elaborate()
        # One idle step so the first driven cycle is observed as cycle 0.
        self.sim.step()

    def cycle(self, **pins):
        """Apply pin values for one cycle (unlisted pins keep value)."""
        for name, value in pins.items():
            getattr(self.port, name).drive(value)
        self.sim._settle()
        self.sim.step()


OPC_ST4 = Opcode.store(4).encode()
OPC_LD8 = Opcode.load(8).encode()


def test_monitor_assembles_request_packet():
    rig = PortRig()
    rig.cycle(req=1, gnt=1, add=0x40, opc=OPC_LD8, be=0xF, eop=0, tid=3)
    rig.cycle(req=1, gnt=1, add=0x44, opc=OPC_LD8, be=0xF, eop=1, tid=3)
    rig.cycle(req=0, gnt=0, eop=0)
    assert len(rig.monitor.requests) == 1
    obs = rig.monitor.requests[0]
    assert len(obs.cells) == 2
    assert obs.start_cycle == 0 and obs.end_cycle == 1
    assert obs.tid == 3


def test_monitor_ungranted_cycles_not_collected():
    rig = PortRig()
    rig.cycle(req=1, gnt=0, add=0x40, opc=OPC_ST4, be=0xF, eop=1)
    rig.cycle(req=1, gnt=0, add=0x40, opc=OPC_ST4, be=0xF, eop=1)
    rig.cycle(req=1, gnt=1, add=0x40, opc=OPC_ST4, be=0xF, eop=1)
    rig.cycle(req=0, eop=0)
    assert len(rig.monitor.requests) == 1
    assert rig.monitor.requests[0].start_cycle == 2
    assert rig.report.passed  # stability held


def test_checker_req_dropped():
    rig = PortRig()
    rig.cycle(req=1, gnt=0, add=0x40, opc=OPC_ST4, be=0xF, eop=1)
    rig.cycle(req=0)
    assert any(v.rule == "REQ_DROPPED" for v in rig.report.violations)


def test_checker_req_unstable():
    rig = PortRig()
    rig.cycle(req=1, gnt=0, add=0x40, opc=OPC_ST4, be=0xF, eop=1)
    rig.cycle(req=1, gnt=0, add=0x48, opc=OPC_ST4, be=0xF, eop=1)
    assert any(v.rule == "REQ_UNSTABLE" for v in rig.report.violations)


def test_checker_invalid_opcode():
    rig = PortRig()
    rig.cycle(req=1, gnt=1, add=0x40, opc=0xFF, be=0xF, eop=1)
    assert any(v.rule == "OPC_INVALID" for v in rig.report.violations)


def test_checker_misaligned_address():
    rig = PortRig()
    rig.cycle(req=1, gnt=1, add=0x41, opc=OPC_LD8, be=0xF, eop=0)
    assert any(v.rule == "ADDR_ALIGN" for v in rig.report.violations)


def test_checker_wrong_be():
    rig = PortRig()
    # STORE4 at 0x40 on a 32-bit bus needs be=0xF.
    rig.cycle(req=1, gnt=1, add=0x40, opc=OPC_ST4, be=0x3, eop=1)
    assert any(v.rule == "PKT_BE" for v in rig.report.violations)


def test_checker_eop_too_early():
    rig = PortRig()
    # LOAD8 on 32-bit Type II = 2 request cells; eop on the first is short.
    rig.cycle(req=1, gnt=1, add=0x40, opc=OPC_LD8, be=0xF, eop=1)
    assert any(v.rule == "PKT_LEN" for v in rig.report.violations)


def test_checker_burst_address_geometry():
    rig = PortRig()
    rig.cycle(req=1, gnt=1, add=0x40, opc=OPC_LD8, be=0xF, eop=0)
    rig.cycle(req=1, gnt=1, add=0x48, opc=OPC_LD8, be=0xF, eop=1)  # not 0x44
    assert any(v.rule == "PKT_ADDR" for v in rig.report.violations)


def test_checker_lck_midpacket():
    rig = PortRig()
    rig.cycle(req=1, gnt=1, add=0x40, opc=OPC_LD8, be=0xF, eop=0, lck=1)
    assert any(v.rule == "LCK_MIDPACKET" for v in rig.report.violations)


def test_checker_clean_packet_passes():
    rig = PortRig()
    rig.cycle(req=1, gnt=1, add=0x40, opc=OPC_LD8, be=0xF, eop=0, tid=1)
    rig.cycle(req=1, gnt=1, add=0x44, opc=OPC_LD8, be=0xF, eop=1, tid=1)
    rig.cycle(req=0, eop=0)
    # Response: 2 cells, tid and src reflected (initiator port 0 -> src 0).
    rig.cycle(r_req=1, r_gnt=1, r_opc=0, r_eop=0, r_tid=1, r_src=0)
    rig.cycle(r_req=1, r_gnt=1, r_opc=0, r_eop=1, r_tid=1, r_src=0)
    rig.cycle(r_req=0, r_eop=0)
    rig.checker.finalize()
    assert rig.report.passed, rig.report.violations


def test_checker_response_length_mismatch():
    rig = PortRig()
    rig.cycle(req=1, gnt=1, add=0x40, opc=OPC_LD8, be=0xF, eop=0, tid=1)
    rig.cycle(req=1, gnt=1, add=0x44, opc=OPC_LD8, be=0xF, eop=1, tid=1)
    rig.cycle(req=0, eop=0)
    rig.cycle(r_req=1, r_gnt=1, r_opc=0, r_eop=1, r_tid=1, r_src=0)  # 1 cell
    assert any(v.rule == "RESP_LEN" for v in rig.report.violations)


def test_checker_unexpected_response():
    rig = PortRig()
    rig.cycle(r_req=1, r_gnt=1, r_opc=0, r_eop=1, r_tid=9, r_src=0)
    assert any(v.rule == "RESP_UNEXPECTED" for v in rig.report.violations)


def test_checker_t2_response_order():
    rig = PortRig()
    for tid in (0, 1):
        rig.cycle(req=1, gnt=1, add=0x40, opc=OPC_ST4, be=0xF, eop=1, tid=tid)
    rig.cycle(req=0, eop=0)
    rig.cycle(r_req=1, r_gnt=1, r_opc=0, r_eop=1, r_tid=1, r_src=0)
    assert any(v.rule == "RESP_ORDER" for v in rig.report.violations)


def test_checker_t3_out_of_order_allowed():
    rig = PortRig(protocol=ProtocolType.T3)
    for tid in (0, 1):
        rig.cycle(req=1, gnt=1, add=0x40, opc=OPC_ST4, be=0xF, eop=1, tid=tid)
    rig.cycle(req=0, eop=0)
    rig.cycle(r_req=1, r_gnt=1, r_opc=0, r_eop=1, r_tid=1, r_src=0)
    rig.cycle(r_req=1, r_gnt=1, r_opc=0, r_eop=1, r_tid=0, r_src=0)
    rig.cycle(r_req=0, r_eop=0)
    rig.checker.finalize()
    assert rig.report.passed, rig.report.violations


def test_checker_wrong_r_src_at_initiator():
    rig = PortRig()
    rig.cycle(req=1, gnt=1, add=0x40, opc=OPC_ST4, be=0xF, eop=1, tid=0)
    rig.cycle(req=0, eop=0)
    rig.cycle(r_req=1, r_gnt=1, r_opc=0, r_eop=1, r_tid=0, r_src=3)
    assert any(v.rule == "RESP_SRC" for v in rig.report.violations)


def test_checker_chunk_atomicity_at_target():
    rig = PortRig(role="target")
    # src 1 sends a chunked packet (lck=1)...
    rig.cycle(req=1, gnt=1, add=0x40, opc=OPC_ST4, be=0xF, eop=1, lck=1, src=1)
    # ... but the next packet at this port comes from src 2.
    rig.cycle(req=1, gnt=1, add=0x80, opc=OPC_ST4, be=0xF, eop=1, lck=0, src=2)
    assert any(v.rule == "CHUNK_ATOMIC" for v in rig.report.violations)


def test_checker_finalize_flags_missing_response():
    rig = PortRig()
    rig.cycle(req=1, gnt=1, add=0x40, opc=OPC_ST4, be=0xF, eop=1, tid=5)
    rig.cycle(req=0, eop=0)
    rig.checker.finalize()
    assert any(v.rule == "RESP_MISSING" for v in rig.report.violations)


def test_checker_response_dropped():
    rig = PortRig()
    rig.cycle(r_req=1, r_gnt=0, r_opc=0, r_eop=1, r_tid=0, r_src=0)
    rig.cycle(r_req=0)
    assert any(v.rule == "RESP_DROPPED" for v in rig.report.violations)


def test_monitor_response_assembly_and_error_flag():
    rig = PortRig()
    rig.cycle(r_req=1, r_gnt=1, r_opc=1, r_eop=1, r_tid=0, r_src=0)
    rig.cycle(r_req=0, r_eop=0)
    assert len(rig.monitor.responses) == 1
    assert rig.monitor.responses[0].is_error


def test_checker_registers_no_process():
    rig = PortRig()
    names = [info.name for info in rig.sim.clocked_processes]
    assert names == ["rig.mon._clk"]
    assert rig.sim.comb_processes == []


def test_checker_reports_after_monitor_subscribers():
    # Sub-word lanes shifted by the seeded BCA bug: the scoreboard (a
    # monitor packet subscriber) and the target port's protocol checker
    # both flag the same cell, scoreboard first, as before the checker
    # ran on its monitor's sample.
    config = next(c for c in load_config_dir(BENCH_CONFIGS)
                  if c.name.startswith("cfg14"))
    env = VerificationEnv(config, view="bca",
                          bugs={"subword-lane-misplacement"})
    env.load_test(build_test("t08_locked_chunks", config, 1))
    assert env.run().report.render() == (
        "Verification report: cfg14_t2_2x2_w32_partial_round_robin/bca\n"
        "Status: FAIL\n"
        "Violations: 6\n"
        "  [SB_REQ_CORRUPT] @1 scoreboard: init0->targ0 cell 0: sent "
        "Cell(add=965, opc=32, data=32256, be=2, eop=1, lck=1, tid=0, src=0,"
        " pri=14), observed Cell(add=965, opc=32, data=126, be=1, eop=1, "
        "lck=1, tid=0, src=0, pri=14)\n"
        "  [PKT_BE] @1 tb.chk_targ0: cell 0: be 0x1, expected 0x2\n"
        "  [SB_REQ_CORRUPT] @14 scoreboard: init0->targ1 cell 0: sent "
        "Cell(add=6277, opc=32, data=47104, be=2, eop=1, lck=1, tid=2, "
        "src=0, pri=7), observed Cell(add=6277, opc=32, data=184, be=1, "
        "eop=1, lck=1, tid=2, src=0, pri=7)\n"
        "  [PKT_BE] @14 tb.chk_targ1: cell 0: be 0x1, expected 0x2\n"
        "  [SB_REQ_CORRUPT] @15 scoreboard: init0->targ1 cell 0: sent "
        "Cell(add=4346, opc=32, data=327680, be=4, eop=1, lck=0, tid=3, "
        "src=0, pri=0), observed Cell(add=4346, opc=32, data=5, be=1, eop=1,"
        " lck=0, tid=3, src=0, pri=0)\n"
        "  [PKT_BE] @15 tb.chk_targ1: cell 0: be 0x1, expected 0x4\n"
    )


def test_elaborated_signal_value_is_read_only():
    rig = PortRig()
    with pytest.raises(AttributeError):
        rig.port.req.value = 1
    assert rig.port.req.value == 0


def test_initiator_monitor_decodes_each_packet_once():
    """The destination is decoded once per packet, from its first cell,
    and published with every cycle's sample and on the packet."""
    sim = Simulator()
    top = Module(sim, "rig")
    port = StbusPort(top, "p0", 32)
    calls = []

    def route(initiator, address):
        calls.append((initiator, address))
        return address >> 12

    monitor = PortMonitor(sim, "mon", port, "initiator", 3, route=route,
                          parent=top)
    dests = []
    monitor.on_sample(lambda sample: dests.append(sample.dest))
    sim.elaborate()
    pins = [dict(req=0),
            dict(req=1, gnt=0, add=0x1040, opc=OPC_LD8, be=0xF, eop=0),
            dict(req=1, gnt=0),
            dict(req=1, gnt=1),
            dict(req=1, gnt=1, add=0x2044, eop=1),  # keeps the first cell's
            dict(req=0, gnt=0, eop=0)]
    for cycle in pins:
        for name, value in cycle.items():
            getattr(port, name).drive(value)
        sim._settle()
        sim.step()
    assert calls == [(3, 0x1040)]
    assert dests == [None, 1, 1, 1, 1, None]
    assert [obs.dest for obs in monitor.requests] == [1]
