"""Cross-view cone equivalence between the RTL and BCA environments."""

from repro.analysis.dataflow import DataflowGraph
from repro.analysis.xview import cone_equivalence_findings
from repro.kernel import Module, Simulator
from repro.lint.diagnostics import Severity
from repro.lint.graph import DesignGraph


def _view(wire_b_into_out: bool, declare: bool = True):
    """A toy 'testbench': two port inputs, one port output, a DUT."""
    sim = Simulator()
    tb = Module(sim, "tb")
    a = tb.signal("a")
    b = tb.signal("b")
    out = tb.signal("out")
    dut = Module(sim, "dut", parent=tb)
    mid = dut.signal("mid")

    if wire_b_into_out:
        tb.comb(lambda: mid.drive(int(a) ^ int(b)), [a, b], name="in")
    else:
        tb.comb(lambda: mid.drive(int(a)), [a], name="in")
    if declare:
        tb.clocked(lambda: out.drive(int(mid)), name="reg",
                   reads=[mid], writes=[out])
    else:
        tb.clocked(lambda: out.drive(int(mid)), name="reg")
    return DataflowGraph(DesignGraph.from_simulator(sim))


def test_equal_cones_produce_no_findings():
    findings = cone_equivalence_findings(
        "cfg", _view(True), _view(True)
    )
    assert findings == []


def test_diverging_cone_is_an_error_naming_the_signals():
    findings = cone_equivalence_findings(
        "cfg", _view(True), _view(False)
    )
    assert len(findings) == 1
    finding = findings[0]
    assert finding.rule == "xview-cone"
    assert finding.severity is Severity.ERROR
    assert finding.signal == "tb.out"
    assert "tb.b" in finding.message
    assert "RTL view only" in finding.message


def test_incomplete_view_degrades_to_info_note():
    findings = cone_equivalence_findings(
        "cfg", _view(True), _view(True, declare=False)
    )
    assert len(findings) == 1
    assert findings[0].severity is Severity.INFO
    assert "BCA" in findings[0].message


def test_real_environments_have_matching_cones():
    from repro.analysis.runner import analyze_config
    from repro.stbus import NodeConfig

    report = analyze_config(NodeConfig())
    assert report.cross_view == []
    assert not report.has_errors
