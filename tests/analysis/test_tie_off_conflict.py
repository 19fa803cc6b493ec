"""The tie-off-conflict rule is declaration-only.

It flags two *declared* tie-offs that disagree.  A declared tie-off
contradicted by a second, comb writer of the same net is a second
driver: ``multi-driver`` (structural) and ``race-delta-overwrite``
(dataflow) already report it as errors, so tie-off-conflict stays silent there.
"""

from repro.analysis.runner import analyze_simulator
from repro.kernel import Module, Simulator
from repro.lint.diagnostics import Severity


def _findings(sim, rule):
    report = analyze_simulator(sim, design="t")
    return [f for f in report.findings if f.rule == rule]


def test_tied_net_with_second_comb_writer_is_a_multi_driver_race():
    sim = Simulator()
    top = Module(sim, "t")
    clk = top.signal("clk")
    out = top.signal("out")
    # The clocked process declares the net tied to 0; a comb process
    # always drives 1 onto the same net.
    top.clocked(lambda: out.drive(0), name="zero",
                reads=[clk], writes=[out], tie_offs={out: 0})
    top.comb(lambda: out.drive(1), [clk], name="one")
    multi = _findings(sim, "multi-driver")
    assert multi and all(f.severity is Severity.ERROR for f in multi)
    assert {f.signal for f in multi} == {"t.out"}
    races = _findings(sim, "race-delta-overwrite")
    assert races and all(f.severity is Severity.ERROR for f in races)
    assert {f.signal for f in races} == {"t.out"}
    assert not _findings(sim, "tie-off-conflict")


def test_agreeing_proven_constant_is_fine():
    sim = Simulator()
    top = Module(sim, "t")
    clk = top.signal("clk")
    out = top.signal("out")
    top.clocked(lambda: out.drive(1), name="one",
                reads=[clk], writes=[out], tie_offs={out: 1})
    top.comb(lambda: out.drive(1), [clk], name="also_one")
    assert not _findings(sim, "tie-off-conflict")


def test_input_dependent_comb_drive_is_not_accused():
    """A comb drive whose value depends on an input is not a constant;
    the rule must not guess from one observed evaluation."""
    sim = Simulator()
    top = Module(sim, "t")
    sel = top.signal("sel")
    out = top.signal("out")
    top.clocked(lambda: out.drive(0), name="zero",
                reads=[sel], writes=[out], tie_offs={out: 0})
    top.comb(lambda: out.drive(int(sel)), [sel], name="follow")
    assert not _findings(sim, "tie-off-conflict")


def test_unliftable_comb_writer_stays_silent():
    """A comb writer whose value the rule cannot see proves nothing, so
    no conflict may be reported from it."""
    state = {"v": 1}
    sim = Simulator()
    top = Module(sim, "t")
    clk = top.signal("clk")
    out = top.signal("out")
    top.clocked(lambda: out.drive(0), name="zero",
                reads=[clk], writes=[out], tie_offs={out: 0})
    top.comb(lambda: out.drive(state["v"]), [clk], name="mystery")
    assert not _findings(sim, "tie-off-conflict")
