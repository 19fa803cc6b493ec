"""StbusPort holds each channel's bundle between changes."""

import functools
from random import Random

import pytest

from repro.bca.node import BcaNode
from repro.catg import run_test
from repro.catg.bfm import InitiatorBfm
from repro.catg.converter_env import ConverterEnv, bridge_random_program
from repro.catg.env import VerificationEnv
from repro.catg.prog import ProgrammingMaster
from repro.catg.target import TargetHarness
from repro.kernel import Module, Simulator, Tracer
from repro.regression.testcases import build_test
from repro.rtl.node import RtlNode
from repro.stbus import (
    ArbitrationPolicy,
    Cell,
    NodeConfig,
    RespCell,
    StbusPort,
)
from repro.stbus import interface


def test_present_drives_only_on_change():
    sim = Simulator()
    top = Module(sim, "t")
    port = StbusPort(top, "p", 32)
    first = Cell(add=0x40, opc=1, data=5, be=0xF, eop=1, tid=3, src=2, pri=1)
    second = Cell(add=0x40, opc=1, data=5, be=0xF, eop=1, tid=3, src=2, pri=1)
    reply = RespCell(r_opc=1, r_data=9, r_eop=1, r_src=2, r_tid=3)
    schedule = [(None, None), (first, reply), (first, reply),
                (second, None), (None, None), (None, None)]

    def present():
        request, response = schedule[sim.now]
        port.present_request(request)
        port.present_response(response)

    top.clocked(present, writes=port.request_signals()
                + port.response_signals())
    sim.elaborate()
    commits = []
    for _ in schedule:
        before = sim.stat_commits
        sim.step()
        commits.append(sim.stat_commits - before)
    # The first presentation drives all 16 pins.  After it only the pins
    # whose value changes are driven: a cell from idle moves 9 request
    # pins (lck stays 0) and all 6 response pins; the same object again
    # drives nothing; an equal but distinct cell drives nothing either,
    # since its fields match the pins; idle drives back the 6 response
    # pins, then the 9 request pins.
    assert commits == [16, 15, 0, 6, 9, 0]
    assert port.request_cell() == Cell(add=0, opc=0)
    assert port.req.value == port.r_req.value == port.r_tid.value == 0


#: Every comb or clocked process that holds its outputs, and the held
#: values that, reset to None, make it drive all of them again.
HOLDS = (
    (RtlNode, "_grant_proc", "_gnt_held"),
    (RtlNode, "_resp_grant_proc", "_r_gnt_held"),
    (RtlNode, "_prog_comb", "_prog_held"),
    (BcaNode, "_compute_grants", "_gnt_held"),
    (BcaNode, "_compute_response_grants", "_r_gnt_held"),
    (BcaNode, "_prog_comb", "_prog_held"),
    (TargetHarness, "_gnt_comb", "_gnt_held"),
    (ProgrammingMaster, "_clk", "_held"),
)

#: Two workloads: out-of-order traffic on a crossbar, and priority
#: reprogramming through the programming port.
HOLD_CASES = [
    (NodeConfig(n_initiators=3, n_targets=2, name="hold"),
     "t03_out_of_order"),
    (NodeConfig(n_initiators=3, n_targets=2, name="hold_prog",
                arbitration=ArbitrationPolicy.PROGRAMMABLE_PRIORITY,
                has_programming_port=True),
     "t07_priority_reprogramming"),
]


def _turn_off_holds(monkeypatch):
    """Make every holding writer re-drive all its pins on every call, as
    before the holds: the port bundles, the BFM's ``r_gnt``, the
    target's ``gnt``, both views' ``gnt``, ``r_gnt``, ``err_pop`` and
    programming-port outputs, and the programming master's command."""
    for name in ("present_request", "present_response"):
        attr = "_request_held" if name == "present_request" \
            else "_response_held"
        hold = getattr(StbusPort, name)

        def redrive(port, cell, hold=hold, attr=attr):
            setattr(port, attr, interface._UNDRIVEN)
            hold(port, cell)

        monkeypatch.setattr(StbusPort, name, redrive)
    for owner, method, attr in HOLDS:
        held = getattr(owner, method)

        @functools.wraps(held)
        def drive_all(self, held=held, attr=attr):
            setattr(self, attr, None)
            held(self)

        monkeypatch.setattr(owner, method, drive_all)
    bfm_clk = InitiatorBfm._clk

    @functools.wraps(bfm_clk)
    def bfm_drive_all(self):
        bfm_clk(self)
        self.port.r_gnt.drive(1)

    monkeypatch.setattr(InitiatorBfm, "_clk", bfm_drive_all)


@pytest.mark.parametrize("view", ["rtl", "bca"])
def test_dut_hold_drops_only_no_op_commits(tmp_path, monkeypatch, view):
    """Holding every sole writer's outputs writes the same dump, with the
    same toggles, activations and deltas, as re-driving them every
    cycle."""

    def run(tag, config, test):
        path = tmp_path / f"{tag}_{config.name}.vcd"
        result = run_test(config, test, view=view, vcd_path=str(path))
        assert result.passed
        return path.read_bytes(), result.kernel_stats

    cases = [(config, build_test(name, config, 1))
             for config, name in HOLD_CASES]
    held = [run("held", config, test) for config, test in cases]
    _turn_off_holds(monkeypatch)
    full = [run("full", config, test) for config, test in cases]
    for (held_vcd, held_stats), (full_vcd, full_stats) in zip(held, full):
        assert held_vcd == full_vcd
        for counter in ("process_activations", "signal_toggles",
                        "delta_iterations", "cycles"):
            assert held_stats[counter] == full_stats[counter], counter
        assert held_stats["signal_commits"] < full_stats["signal_commits"]


@pytest.mark.parametrize("view", ["rtl", "bca"])
def test_comb_processes_observe_every_output_in_elaboration(view):
    """Each comb process's first activation drives all of its outputs,
    so the elaboration dry run, and the lint graph built from it,
    records every pin it can ever write."""
    config = HOLD_CASES[1][0]
    env = VerificationEnv(config, view=view)
    env.sim.elaborate()
    writes = {info.name: {sig.name for sig in info.observed_writes}
              for info in env.sim.comb_processes}
    dut = env.dut
    err_pops = {sig.name for sig in dut._err_pop}
    grant, response = ("_grant_proc", "_resp_grant_proc") if view == "rtl" \
        else ("_compute_grants", "_compute_response_grants")
    expected = {
        f"tb.dut.{grant}": {port.gnt.name for port in env.init_ports},
        f"tb.dut.{response}":
            {port.r_gnt.name for port in env.targ_ports} | err_pops,
        "tb.dut._prog_comb": {env.prog_port.ack.name,
                              env.prog_port.rdata.name},
    }
    expected.update({
        f"{target.name}._gnt_comb": {target.port.gnt.name}
        for target in env.targets
    })
    assert writes == expected


#: Kernel counters of ``ConverterEnv(kind, view)`` on
#: ``bridge_random_program(Random(1), 40, 4)``, equal in both views.
CONVERTER_COUNTS = {
    "size": {"cycles": 917, "delta_iterations": 965,
             "process_activations": 6419, "signal_commits": 6425,
             "signal_toggles": 4610},
    "type": {"cycles": 302, "delta_iterations": 312,
             "process_activations": 2114, "signal_commits": 2985,
             "signal_toggles": 2364},
}


class _Values(Tracer):
    """Every signal's value after each cycle."""

    def __init__(self):
        self.rows = []

    def declare(self, signal):
        pass

    def sample(self, cycle, signals):
        self.rows.append(tuple(sig.value for sig in signals))


@pytest.mark.parametrize("view", ["rtl", "bca"])
@pytest.mark.parametrize("kind", ["size", "type"])
def test_converter_hold_drops_only_no_op_commits(monkeypatch, kind, view):
    """The bridges present their channels through the port holds: every
    signal of the converter testbench has the same value on every cycle
    as when every pin is re-driven each cycle, with the same cycles,
    deltas, activations and toggles."""

    def run():
        env = ConverterEnv(kind, view)
        values = _Values()
        env.sim.add_tracer(values)
        assert env.run(bridge_random_program(Random(1), 40, 4)).passed
        return values.rows, env.sim.stats_snapshot()

    held_rows, held = run()
    assert held == CONVERTER_COUNTS[kind]
    _turn_off_holds(monkeypatch)
    full_rows, full = run()
    assert held_rows == full_rows
    for counter in ("process_activations", "signal_toggles",
                    "delta_iterations", "cycles"):
        assert held[counter] == full[counter], counter
    assert held["signal_commits"] < full["signal_commits"]
