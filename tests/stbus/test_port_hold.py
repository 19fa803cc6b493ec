"""StbusPort holds each channel's bundle between changes."""

import pytest

from repro.catg import run_test
from repro.kernel import Module, Simulator
from repro.regression.testcases import build_test
from repro.stbus import Cell, NodeConfig, RespCell, StbusPort
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
    # An equal but distinct cell object is a change: the hold compares
    # identity, like the agents' holds.
    assert commits == [16, 16, 0, 16, 10, 0]
    assert port.request_cell() == Cell(add=0, opc=0)
    assert port.req.value == port.r_req.value == port.r_tid.value == 0


@pytest.mark.parametrize("view", ["rtl", "bca"])
def test_dut_hold_drops_only_no_op_commits(tmp_path, monkeypatch, view):
    """Holding the node's output bundles writes the same dump, with the
    same toggles and activations, as re-driving them every cycle."""
    config = NodeConfig(n_initiators=3, n_targets=2, name="hold")
    test = build_test("t03_out_of_order", config, 1)

    def run(tag):
        path = tmp_path / f"{tag}.vcd"
        result = run_test(config, test, view=view, vcd_path=str(path))
        assert result.passed
        return path.read_bytes(), result.kernel_stats

    held_vcd, held = run("held")
    for name in ("present_request", "present_response"):
        attr = "_request_held" if name == "present_request" \
            else "_response_held"
        hold = getattr(StbusPort, name)

        def redrive(port, cell, hold=hold, attr=attr):
            setattr(port, attr, interface._UNDRIVEN)
            hold(port, cell)

        monkeypatch.setattr(StbusPort, name, redrive)
    full_vcd, full = run("full")
    assert held_vcd == full_vcd
    for counter in ("process_activations", "signal_toggles",
                    "delta_iterations", "cycles"):
        assert held[counter] == full[counter], counter
    assert held["signal_commits"] < full["signal_commits"]
