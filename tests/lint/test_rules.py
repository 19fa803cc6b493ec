"""Unit tests for the six structural design rules and the waiver
machinery."""

import pytest

from repro.analysis import (
    STRUCTURAL_RULES,
    DesignGraph,
    Severity,
    WaiverError,
    analyze_simulator,
    parse_waivers,
)
from repro.analysis.demo import build_defective_design
from repro.kernel import Module, Simulator


def lint_simulator(sim, design="design", waivers=()):
    """The structural tier over one design."""
    return analyze_simulator(sim, design=design, rules=STRUCTURAL_RULES,
                             waivers=waivers)


def _rules(report, rule):
    return [f for f in report.findings if f.rule == rule]


# ---------------------------------------------------------------------------
# comb-loop
# ---------------------------------------------------------------------------

def test_comb_loop_reports_full_path():
    sim = Simulator()
    top = Module(sim, "t")
    a, b = top.signal("a"), top.signal("b")

    def pa():
        a.drive(1 - int(b))

    def pb():
        b.drive(1 - int(a))

    top.comb(pa, [b], name="pa")
    top.comb(pb, [a], name="pb")
    report = lint_simulator(sim, design="loop")
    findings = _rules(report, "comb-loop")
    assert len(findings) == 1
    finding = findings[0]
    assert finding.severity is Severity.ERROR
    # The path walks process -> signal -> process ... back to the start.
    assert finding.path[0] == finding.path[-1]
    assert set(finding.path) >= {"t.pa", "t.pb", "t.a", "t.b"}
    assert report.has_errors


def test_self_loop_detected():
    sim = Simulator()
    top = Module(sim, "t")
    a = top.signal("a")

    def toggle():
        a.drive(1 - int(a))

    top.comb(toggle, [a], name="toggle")
    report = lint_simulator(sim, design="selfloop")
    assert len(_rules(report, "comb-loop")) == 1


def test_registered_stage_breaks_the_loop():
    sim = Simulator()
    top = Module(sim, "t")
    a, b = top.signal("a"), top.signal("b")

    def comb_stage():
        a.drive(1 - int(b))

    def clocked_stage():
        b.drive(int(a))

    top.comb(comb_stage, [b], name="comb_stage")
    top.clocked(clocked_stage, name="clocked_stage",
                reads=[a], writes=[b])
    report = lint_simulator(sim, design="registered")
    assert not _rules(report, "comb-loop")


# ---------------------------------------------------------------------------
# multi-driver
# ---------------------------------------------------------------------------

def test_multi_driver_names_both_processes():
    sim = Simulator()
    top = Module(sim, "t")
    sel = top.signal("sel")
    out = top.signal("out")

    def one():
        out.drive(1)

    def two():
        out.drive(0)

    top.comb(one, [sel], name="one")
    top.comb(two, [sel], name="two")
    report = lint_simulator(sim, design="conflict")
    findings = _rules(report, "multi-driver")
    assert len(findings) == 1
    assert findings[0].signal == "t.out"
    assert "t.one" in findings[0].message
    assert "t.two" in findings[0].message


def test_comb_and_clocked_driver_conflict_detected():
    sim = Simulator()
    top = Module(sim, "t")
    sel = top.signal("sel")
    out = top.signal("out")

    def comb_drv():
        out.drive(int(sel))

    def clk_drv():
        out.drive(0)

    top.comb(comb_drv, [sel], name="comb_drv")
    top.clocked(clk_drv, name="clk_drv", reads=[], writes=[out])
    report = lint_simulator(sim, design="mixed-conflict")
    assert len(_rules(report, "multi-driver")) == 1


# ---------------------------------------------------------------------------
# incomplete-sensitivity
# ---------------------------------------------------------------------------

def test_incomplete_sensitivity_flags_unlisted_read():
    sim = Simulator()
    top = Module(sim, "t")
    a, b, out = top.signal("a"), top.signal("b"), top.signal("out")

    def gate():
        out.drive(int(a) & int(b))

    top.comb(gate, [a], name="gate")  # forgot b
    report = lint_simulator(sim, design="sens")
    findings = _rules(report, "incomplete-sensitivity")
    assert [f.signal for f in findings] == ["t.b"]
    assert findings[0].severity is Severity.WARNING


def test_complete_sensitivity_is_clean():
    sim = Simulator()
    top = Module(sim, "t")
    a, b, out = top.signal("a"), top.signal("b"), top.signal("out")

    def gate():
        out.drive(int(a) & int(b))

    top.comb(gate, [a, b], name="gate")
    report = lint_simulator(sim, design="sens-ok")
    assert not _rules(report, "incomplete-sensitivity")


# ---------------------------------------------------------------------------
# undriven-input / dead-net soundness guards
# ---------------------------------------------------------------------------

def _floating_input_design(declare):
    sim = Simulator()
    top = Module(sim, "t")
    floating = top.signal("floating")
    out = top.signal("out")
    reg = top.signal("reg")

    def mirror():
        out.drive(int(floating))

    def clk():
        reg.drive(1)

    top.comb(mirror, [floating], name="mirror")
    if declare:
        top.clocked(clk, name="clk", reads=[out], writes=[reg])
    else:
        top.clocked(clk, name="clk")
    return sim


def test_undriven_input_flagged_when_clocked_writes_declared():
    report = lint_simulator(_floating_input_design(declare=True))
    findings = _rules(report, "undriven-input")
    assert [f.signal for f in findings] == ["t.floating"]
    assert findings[0].severity is Severity.ERROR


def test_undriven_input_disabled_without_declarations():
    # An undeclared clocked process could drive anything: stay silent.
    report = lint_simulator(_floating_input_design(declare=False))
    assert not _rules(report, "undriven-input")


def test_dead_net_requires_declared_reads():
    sim = Simulator()
    top = Module(sim, "t")
    dead = top.signal("dead")

    def clk():
        dead.drive(1)

    top.clocked(clk, name="clk", reads=[], writes=[dead])
    report = lint_simulator(sim, design="dead")
    findings = _rules(report, "dead-net")
    assert [f.signal for f in findings] == ["t.dead"]
    assert findings[0].severity is Severity.WARNING


def test_dead_net_skips_proven_tie_offs():
    # A never-read net whose only driver declares it as a constant tie-off
    # is pinned on purpose (a BFM holding src at 0), not dangling.
    sim = Simulator()
    top = Module(sim, "t")
    tied = top.signal("tied")

    def clk():
        tied.drive(0)

    top.clocked(clk, name="clk", reads=[], writes=[tied],
                tie_offs={tied: 0})
    report = lint_simulator(sim, design="tied")
    assert not _rules(report, "dead-net")


def test_dead_net_still_fires_when_one_driver_is_not_a_tie_off():
    sim = Simulator()
    top = Module(sim, "t")
    tied = top.signal("tied")
    sel = top.signal("sel")

    def clk():
        tied.drive(0)

    top.clocked(clk, name="clk", reads=[], writes=[tied],
                tie_offs={tied: 0})
    top.comb(lambda: tied.drive(int(sel)), [sel], name="mux")
    report = lint_simulator(sim, design="mixed")
    assert [f.signal for f in _rules(report, "dead-net")] == ["t.tied"]


def test_dead_net_silent_when_design_is_traced():
    from repro.kernel import Tracer

    class NullTracer(Tracer):
        def declare(self, signal):
            pass

        def sample(self, cycle, signals):
            pass

    sim = Simulator()
    top = Module(sim, "t")
    dead = top.signal("dead")

    def clk():
        dead.drive(1)

    top.clocked(clk, name="clk", reads=[], writes=[dead])
    sim.add_tracer(NullTracer())
    report = lint_simulator(sim, design="traced")
    assert not _rules(report, "dead-net")


# ---------------------------------------------------------------------------
# width-mismatch
# ---------------------------------------------------------------------------

def test_width_mismatch_names_process_and_value():
    sim = Simulator()
    top = Module(sim, "t")
    sel = top.signal("sel")
    narrow = top.signal("narrow", width=4)

    def overdrive():
        narrow.drive(0x1F)

    top.comb(overdrive, [sel], name="overdrive")
    report = lint_simulator(sim, design="width")
    findings = _rules(report, "width-mismatch")
    assert len(findings) == 1
    assert findings[0].signal == "t.narrow"
    assert "t.overdrive" in findings[0].message
    assert "31" in findings[0].message


# ---------------------------------------------------------------------------
# no simulation happened
# ---------------------------------------------------------------------------

def test_lint_never_advances_simulation_time():
    sim = build_defective_design()
    report = lint_simulator(sim, design="demo")
    assert sim.now == 0
    assert report.has_errors


def test_demo_design_triggers_every_rule():
    report = lint_simulator(build_defective_design(), design="demo")
    fired = {f.rule for f in report.findings}
    assert fired >= {
        "comb-loop",
        "multi-driver",
        "undriven-input",
        "width-mismatch",
        "incomplete-sensitivity",
        "dead-net",
    }


#: The demo design's findings as ``(rule, severity, location, message)``,
#: exactly as the structural rules reported them before they joined the
#: one analysis pass.
DEMO_FINDINGS = [
    ("comb-loop", "error", "demo.a",
     "combinational feedback loop through 2 process(es): demo.invert_b "
     "-> demo.a -> demo.invert_a -> demo.b -> demo.invert_b"),
    ("multi-driver", "error", "demo.shared",
     "driven by 2 processes: demo.source_one, demo.source_two"),
    ("undriven-input", "error", "demo.floating_in",
     "read by demo.mirror but driven by no process and never toggled "
     "(floating input)"),
    ("undriven-input", "error", "demo.sel",
     "read by demo.gate but driven by no process and never toggled "
     "(floating input)"),
    ("width-mismatch", "error", "demo.narrow",
     "process demo.drive_wide drives 31, which does not fit the declared "
     "width of 4 bit(s) (max 15)"),
    ("dead-net", "warning", "demo.gated",
     "driven by demo.gate but never read, never in a sensitivity list, "
     "and not traced"),
    ("dead-net", "warning", "demo.narrow",
     "driven by demo.drive_wide but never read, never in a sensitivity "
     "list, and not traced"),
    ("dead-net", "warning", "demo.shared",
     "driven by demo.source_one, demo.source_two but never read, never in "
     "a sensitivity list, and not traced"),
    ("dead-net", "warning", "demo.status",
     "driven by demo.mirror but never read, never in a sensitivity list, "
     "and not traced"),
    ("dead-net", "warning", "demo.unused_net",
     "driven by demo.pulse but never read, never in a sensitivity list, "
     "and not traced"),
    ("incomplete-sensitivity", "warning", "demo.sel",
     "read by combinational process demo.gate but absent from its "
     "sensitivity list (the process will not re-evaluate when it "
     "changes)"),
]


def _tuples(report):
    return [(f.rule, f.severity.value, f.location, f.message)
            for f in report.findings]


def test_demo_findings_are_pinned():
    report = lint_simulator(build_defective_design(), design="demo")
    assert _tuples(report) == DEMO_FINDINGS
    assert (len(report.errors), len(report.warnings)) == (5, 6)
    # The dataflow rules add nothing on this design.
    assert _tuples(analyze_simulator(build_defective_design())) \
        == DEMO_FINDINGS


def test_structural_tier_builds_no_dataflow(monkeypatch):
    """The default regression gate builds no dataflow graph and derives
    no constants."""
    import repro.analysis.constants as constants
    from repro.analysis.dataflow import DataflowGraph
    from repro.lint import lint_config
    from repro.stbus import NodeConfig

    def refuse(*args, **kwargs):
        raise AssertionError("the structural tier built dataflow facts")

    monkeypatch.setattr(DataflowGraph, "__init__", refuse)
    monkeypatch.setattr(constants, "derive_constants", refuse)
    report = lint_config(NodeConfig())
    assert report.clean and report.cross_checks == ["interface"]
    assert report.unr is None and report.agreement is None
    assert all(view.n_edges is None for view in report.views.values())


# ---------------------------------------------------------------------------
# waivers
# ---------------------------------------------------------------------------

def test_waivers_suppress_but_keep_findings():
    waivers = parse_waivers(
        "comb-loop demo.* # known oscillator\n"
        "\n"
        "# full-line comment\n"
        "dead-net *\n"
    )
    assert waivers[0].reason == "known oscillator"
    report = lint_simulator(build_defective_design(), design="demo",
                            waivers=waivers)
    waived_rules = {f.rule for f in report.findings if f.waived}
    assert "comb-loop" in waived_rules
    assert "dead-net" in waived_rules
    # Waived findings no longer gate...
    assert not any(
        f.rule == "comb-loop" for f in report.errors
    )
    # ...but unrelated errors still do.
    assert report.has_errors


def test_waiver_parse_error():
    with pytest.raises(WaiverError):
        parse_waivers("only-one-token\n")


# ---------------------------------------------------------------------------
# graph plumbing
# ---------------------------------------------------------------------------

def test_design_graph_requires_elaboration():
    sim = Simulator()
    with pytest.raises(ValueError):
        DesignGraph(sim)
    graph = DesignGraph.from_simulator(sim)
    assert graph.signals == []
    assert sim.elaborated
