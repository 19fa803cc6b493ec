"""The dead-net rule's tie-off exemption.

Only a *declared* tie-off exempts a driven-but-never-observed net.  A
combinational process that pins a net to a constant without declaring
it still warns: nothing reads the net, and the declaration is how a
design says the pin is on purpose.
"""

from repro.kernel import Module, Simulator
from repro.lint.runner import lint_simulator


def _dead_nets(sim):
    report = lint_simulator(sim, design="t")
    return [f for f in report.findings if f.rule == "dead-net"]


def _base(sim):
    """A design where the dead-net rule is armed: all clocked reads
    declared, nothing traced."""
    top = Module(sim, "t")
    clk = top.signal("clk")
    sink = top.signal("sink")
    top.clocked(lambda: sink.drive(int(clk) ^ int(sink)), name="reg",
                reads=[clk, sink], writes=[sink])
    return top, clk


def test_undeclared_constant_pin_warns():
    sim = Simulator()
    top, clk = _base(sim)
    pin = top.signal("pin")
    # Constantly driven, never read, never declared as a tie-off.
    top.comb(lambda: pin.drive(1), [clk], name="tie")
    findings = _dead_nets(sim)
    assert len(findings) == 1
    assert findings[0].signal == "t.pin"


def test_input_dependent_dead_net_still_warns():
    sim = Simulator()
    top, clk = _base(sim)
    dangling = top.signal("dangling")
    top.comb(lambda: dangling.drive(int(clk)), [clk], name="drv")
    findings = _dead_nets(sim)
    assert len(findings) == 1
    assert findings[0].signal == "t.dangling"


def test_unliftable_constant_still_warns():
    """A writer whose value depends on hidden state warns like any
    other undeclared pin."""
    state = {"v": 1}
    sim = Simulator()
    top, clk = _base(sim)
    pin = top.signal("pin")
    top.comb(lambda: pin.drive(state["v"]), [clk], name="mystery")
    findings = _dead_nets(sim)
    assert len(findings) == 1
    assert findings[0].signal == "t.pin"


def test_declared_tie_off_exemption_still_holds():
    sim = Simulator()
    top, clk = _base(sim)
    pin = top.signal("pin")
    top.clocked(lambda: pin.drive(0), name="tie",
                reads=[clk], writes=[pin], tie_offs={pin: 0})
    assert not _dead_nets(sim)
