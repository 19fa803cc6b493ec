"""Unit tests for the harness components: BFM, target, programming master."""

import pytest

from repro.catg import (
    InitiatorBfm,
    ProgOp,
    ProgrammingMaster,
    TargetHarness,
    default_byte,
)
from repro.kernel import Module, Simulator
from repro.kernel.signal import _FastSignal
from repro.lint import lint_simulator
from repro.stbus import (
    Opcode,
    ProtocolType,
    StbusPort,
    T1_READ,
    T1_WRITE,
    Transaction,
    Type1Port,
)


class LoopRig:
    """BFM wired straight to a target harness (no node in between)."""

    def __init__(self, protocol=ProtocolType.T2, width=32, **target_kwargs):
        self.sim = Simulator()
        self.top = Module(self.sim, "rig")
        self.port = StbusPort(self.top, "p", width)
        self.bfm = InitiatorBfm(self.sim, "bfm", self.port, protocol,
                                parent=self.top)
        self.target = TargetHarness(self.sim, "mem", self.port, protocol,
                                    parent=self.top, **target_kwargs)

    def run(self, txns_with_gaps, max_cycles=2000):
        self.bfm.load_program(txns_with_gaps)
        self.sim.elaborate()
        n = len(txns_with_gaps)
        self.sim.run_until(
            lambda: self.bfm.done and len(self.bfm.response_packets) >= n,
            max_cycles,
        )
        return self.sim.now


def test_bfm_gap_delays_injection():
    durations = {}
    for gap in (0, 6):
        rig = LoopRig(latency=1)
        durations[gap] = rig.run([
            (Transaction(Opcode.store(4), 0x0, data=b"\x01\x02\x03\x04"), gap),
            (Transaction(Opcode.load(4), 0x0), gap),
        ])
    assert durations[6] >= durations[0] + 10  # two gaps of 6 cycles


def test_bfm_assigns_rolling_tids():
    rig = LoopRig(latency=1)
    rig.run([(Transaction(Opcode.load(4), 0x10 * k), 0) for k in range(5)])
    assert [t.tid for t in rig.bfm.sent] == [0, 1, 2, 3, 4]


def test_bfm_done_property():
    rig = LoopRig(latency=1)
    assert rig.bfm.done  # empty program
    rig.run([(Transaction(Opcode.load(4), 0x0), 0)])
    assert rig.bfm.done


def test_target_latency_controls_response_time():
    times = {}
    for latency in (1, 20):
        rig = LoopRig(latency=latency)
        times[latency] = rig.run([(Transaction(Opcode.load(4), 0x0), 0)])
    assert times[20] >= times[1] + 15


def test_target_jitter_is_deterministic_per_seed():
    def run_with(seed):
        rig = LoopRig(latency=1, jitter=8, seed=seed)
        cycles = rig.run([
            (Transaction(Opcode.load(4), 0x10 * k), 0) for k in range(6)
        ])
        return cycles

    assert run_with(7) == run_with(7)
    # A different seed draws different jitter (overwhelmingly likely).
    assert run_with(7) != run_with(8) or run_with(9) != run_with(7)


def test_target_capacity_backpressures_gnt():
    # Capacity 1 and long latency: the second packet must wait for the
    # first response, visible as a much longer run.
    times = {}
    for capacity in (1, 8):
        rig = LoopRig(latency=15, capacity=capacity)
        times[capacity] = rig.run([
            (Transaction(Opcode.load(4), 0x10 * k), 0) for k in range(3)
        ])
    assert times[1] > times[8] + 20


def test_target_memory_semantics_direct():
    rig = LoopRig()
    rig.target.write_mem(0x100, b"\xAA\xBB")
    assert rig.target.read_mem(0x100, 2) == b"\xAA\xBB"
    assert rig.target.read_mem(0x200, 1) == bytes([default_byte(0x200)])


def test_target_invalid_opcode_gets_error_response():
    # A raw driver (no BFM) injects a malformed request cell.
    sim = Simulator()
    top = Module(sim, "rig")
    port = StbusPort(top, "p", 32)
    TargetHarness(sim, "mem", port, ProtocolType.T2, latency=1, parent=top)
    state = {"sent": False, "error_seen": False}

    def driver():
        if port.request_fired:
            state["sent"] = True
        if port.response_fired and port.r_opc.value & 1:
            state["error_seen"] = True
        if not state["sent"]:
            port.req.drive(1)
            port.opc.drive(0xFF)  # undecodable
            port.add.drive(0)
            port.be.drive(0xF)
            port.eop.drive(1)
        else:
            port.req.drive(0)
            port.eop.drive(0)
        port.r_gnt.drive(1)

    sim.add_clocked(driver)
    sim.elaborate()
    sim.run_until(lambda: state["error_seen"], 50)


# -- agents hold their registered outputs ------------------------------------


@pytest.fixture
def drive_log(monkeypatch):
    """Every post-elaboration drive as ``(signal name, writer process)``."""
    log = []
    real_drive = _FastSignal.drive

    def spy(sig, value):
        log.append((sig.name, sig._sim.active_process))
        real_drive(sig, value)

    monkeypatch.setattr(_FastSignal, "drive", spy)
    return log


def _drives_by(log, process):
    return [name for name, writer in log if writer == process]


def _request_pins(port):
    return (port.req.value, port.add.value, port.opc.value, port.data.value,
            port.be.value, port.eop.value, port.lck.value, port.tid.value,
            port.src.value, port.pri.value, port.r_gnt.value)


def _cell_pins(cell):
    """What the request pins read while ``cell`` is presented."""
    return (1, cell.add, cell.opc, cell.data, cell.be, cell.eop, cell.lck,
            cell.tid, 0, cell.pri, 1)


def _grant_from(sim, port, cycle):
    """A stand-in node: holds ``gnt`` low until ``cycle``."""
    sim.add_clocked(lambda: port.gnt.drive(int(sim.now >= cycle)))


def test_bfm_holds_ungranted_cell_without_drives(drive_log):
    waited = 5
    sim = Simulator()
    top = Module(sim, "rig")
    port = StbusPort(top, "p", 32)
    bfm = InitiatorBfm(sim, "bfm", port, ProtocolType.T2, parent=top)
    bfm.load_program([(Transaction(Opcode.store(4), 0x40, pri=3, lck=1,
                                   data=b"\x11\x22\x33\x44"), 0)])
    _grant_from(sim, port, waited + 1)
    sim.elaborate()
    sim.step()  # cycle 0: the BFM presents the cell and its tie-offs
    assert set(_drives_by(drive_log, bfm._clk)) == {
        sig.name for sig in port.request_signals() + [port.r_gnt]
    }
    cell = bfm._cells[0]
    for _ in range(waited):
        drive_log.clear()
        sim.step()
        assert _drives_by(drive_log, bfm._clk) == []
        assert _request_pins(port) == _cell_pins(cell)
    # Once the grant lands the BFM goes idle, driving the change.
    sim.run(2)
    assert port.req.value == 0 and port.add.value == 0
    assert port.r_gnt.value == 1 and bfm.done


def test_idle_agents_issue_no_drives(drive_log):
    rig = LoopRig(latency=1)
    rig.sim.elaborate()
    rig.sim.step()
    for _ in range(4):
        drive_log.clear()
        rig.sim.step()
        assert _drives_by(drive_log, rig.bfm._clk) == []
        # The target's tick toggles every cycle; nothing else is driven.
        assert _drives_by(drive_log, rig.target._clk) == [
            rig.target._tick.name
        ]
        assert _request_pins(rig.port)[:-1] == (0,) * 10
        assert rig.port.r_gnt.value == 1
        assert rig.port.r_req.value == rig.port.r_opc.value == 0


def test_target_holds_ungranted_response_without_drives(drive_log):
    waited = 5
    sim = Simulator()
    top = Module(sim, "rig")
    port = StbusPort(top, "p", 32)
    target = TargetHarness(sim, "mem", port, ProtocolType.T2, latency=1,
                           parent=top)
    target.write_mem(0x40, b"\x11\x22\x33\x44")

    def initiator():  # one LOAD4 cell at cycle 0; r_gnt low for a while
        first = sim.now == 0
        port.req.drive(int(first))
        port.opc.drive(Opcode.load(4).encode() if first else 0)
        port.add.drive(0x40 if first else 0)
        port.be.drive(0xF if first else 0)
        port.eop.drive(int(first))
        port.tid.drive(7 if first else 0)
        port.r_gnt.drive(int(sim.now >= 20))

    sim.add_clocked(initiator)
    sim.elaborate()
    sim.run_until(lambda: port.r_req.value, 10)
    cell = target._resp_cells[0]
    pins = (port.r_req, port.r_opc, port.r_data, port.r_eop, port.r_src,
            port.r_tid)
    expected = (1, cell.r_opc, cell.r_data, cell.r_eop, cell.r_src,
                cell.r_tid)
    assert expected == (1, 0, 0x44332211, 1, 0, 7)
    for _ in range(waited):
        drive_log.clear()
        sim.step()
        assert _drives_by(drive_log, target._clk) == [target._tick.name]
        assert tuple(sig.value for sig in pins) == expected


def test_second_writer_on_bfm_pin_is_a_lint_error():
    sim = Simulator()
    top = Module(sim, "rig")
    port = StbusPort(top, "p", 32)
    InitiatorBfm(sim, "bfm", port, ProtocolType.T2, parent=top)
    top.clocked(lambda: port.add.drive(0), name="intruder", reads=(),
                writes=[port.add])
    report = lint_simulator(sim, design="two-writers")
    findings = [f for f in report.findings if f.rule == "multi-driver"]
    assert [f.signal for f in findings] == ["rig.p.add"]
    assert "rig.bfm._clk" in findings[0].message
    assert "rig.intruder" in findings[0].message


def test_target_validation():
    sim = Simulator()
    top = Module(sim, "t")
    port = StbusPort(top, "p", 32)
    with pytest.raises(ValueError):
        TargetHarness(sim, "m", port, ProtocolType.T2, latency=-1)
    with pytest.raises(ValueError):
        TargetHarness(sim, "m2", port, ProtocolType.T2, capacity=0)


class ProgRig:
    def __init__(self):
        self.sim = Simulator()
        self.top = Module(self.sim, "rig")
        self.port = Type1Port(self.top, "prog")
        self.master = ProgrammingMaster(self.sim, "pm", self.port,
                                        parent=self.top)
        self.writes = []
        self.regs = {}

        def slave():
            port = self.port
            if port.req.value and port.ack.value:
                idx = port.add.value >> 2
                if port.opc.value == T1_WRITE:
                    self.regs[idx] = port.wdata.value
                    self.writes.append((self.sim.now - 1, idx,
                                        port.wdata.value))
            port.ack.drive(port.req.value)
            port.rdata.drive(self.regs.get(port.add.value >> 2, 0))

        self.sim.add_clocked(slave)


def test_prog_master_executes_schedule_in_order():
    rig = ProgRig()
    rig.master.load_schedule([
        ProgOp(cycle=5, index=1, value=42),
        ProgOp(cycle=2, index=0, value=7),
        ProgOp(cycle=20, index=2, value=9),
    ])
    rig.sim.elaborate()
    rig.sim.run_until(lambda: rig.master.done, 100)
    assert [(i, v) for _, i, v in rig.writes] == [(0, 7), (1, 42), (2, 9)]
    # Ops wait for their scheduled cycle.
    assert rig.writes[0][0] >= 2
    assert rig.writes[2][0] >= 20
    assert len(rig.master.completed) == 3


def test_prog_master_read_captures_value():
    rig = ProgRig()
    rig.master.load_schedule([
        ProgOp(cycle=1, index=3, value=0x55, is_write=True),
        ProgOp(cycle=5, index=3, value=0, is_write=False),
    ])
    rig.sim.elaborate()
    rig.sim.run_until(lambda: rig.master.done, 100)
    assert rig.master.read_values == [0x55]


def test_prog_master_idle_with_empty_schedule():
    rig = ProgRig()
    rig.sim.elaborate()
    rig.sim.run(10)
    assert rig.master.done
    assert not rig.writes
