"""Dataflow graph construction and cone-of-influence queries."""

from repro.analysis.dataflow import ConeReport, DataflowGraph, interface_cones
from repro.analysis.graph import DesignGraph
from repro.kernel import Module, Simulator


def _pipeline_design():
    """a --comb--> b --clocked--> c --comb--> d, plus unrelated e."""
    sim = Simulator()
    top = Module(sim, "t")
    a, b, c, d, e = (top.signal(n) for n in "abcde")

    top.comb(lambda: b.drive(int(a)), [a], name="ab")
    top.clocked(lambda: c.drive(int(b)), name="bc", reads=[b], writes=[c])
    top.comb(lambda: d.drive(int(c)), [c], name="cd")
    top.clocked(lambda: e.drive(1), name="e", reads=[], writes=[e])
    return sim, (a, b, c, d, e)


def test_fan_in_and_fan_out_cones():
    sim, (a, b, c, d, e) = _pipeline_design()
    flow = DataflowGraph(DesignGraph.from_simulator(sim))
    assert flow.complete
    assert flow.fan_in_cone(d) == {a, b, c}
    assert flow.fan_out_cone(a) == {b, c, d}
    assert flow.fan_in_cone(a) == set()
    assert flow.fan_out_cone(e) == set()


def test_opaque_clocked_process_marks_graph_incomplete():
    sim = Simulator()
    top = Module(sim, "t")
    x = top.signal("x")
    top.clocked(lambda: x.drive(1), name="mystery")  # nothing declared
    flow = DataflowGraph(DesignGraph.from_simulator(sim))
    assert not flow.complete
    assert [p.name for p in flow.opaque] == ["t.mystery"]


def test_tie_off_contributes_no_influence_edges():
    sim = Simulator()
    top = Module(sim, "t")
    src = top.signal("src")
    tied = top.signal("tied")
    top.clocked(lambda: tied.drive(0), name="tie",
                reads=[src], writes=[tied], tie_offs={tied: 0})
    flow = DataflowGraph(DesignGraph.from_simulator(sim))
    # The tie-off's value depends on nothing: src must not be in its cone.
    assert flow.fan_in_cone(tied) == set()
    assert flow.complete


def test_cone_report_shape():
    sim, (a, b, c, d, _) = _pipeline_design()
    flow = DataflowGraph(DesignGraph.from_simulator(sim))
    report = ConeReport.for_signal(flow, d)
    assert report.signal == "t.d"
    assert report.fan_in == ("t.a", "t.b", "t.c")
    assert report.to_dict()["complete"] is True


def test_interface_cones_drop_internal_transit():
    sim = Simulator()
    top = Module(sim, "tb")
    port_in = top.signal("port_in")
    dut = Module(sim, "dut", parent=top)
    internal = dut.signal("hidden")
    port_out = top.signal("port_out")

    top.comb(lambda: internal.drive(int(port_in)), [port_in], name="into")
    top.comb(lambda: port_out.drive(int(internal)), [internal], name="out")
    flow = DataflowGraph(DesignGraph.from_simulator(sim))
    cones = interface_cones(flow)
    # Influence flows *through* tb.dut.hidden but the cone reports only
    # interface signals.
    assert cones["tb.port_out"] == frozenset({"tb.port_in"})
    assert "tb.dut.hidden" not in cones
