"""Race, tie-off-conflict and CDC rule tests."""

from repro.analysis.diagnostics import Severity
from repro.analysis.graph import DesignGraph
from repro.analysis.rules import AnalysisContext, resolve_rules
from repro.analysis.runner import analyze_simulator
from repro.kernel import Module, Simulator

import pytest


def _findings(sim, rule):
    report = analyze_simulator(sim, design="t")
    return [f for f in report.findings if f.rule == rule]


# ---------------------------------------------------------------------------
# race-delta-overwrite
# ---------------------------------------------------------------------------

def test_clocked_then_comb_overwrite_detected():
    sim = Simulator()
    top = Module(sim, "t")
    sel = top.signal("sel")
    shared = top.signal("shared")
    sink = top.signal("sink")

    # The clocked write commits at the posedge; the comb write lands in a
    # later delta of the same cycle — invisible to MultipleDriverError.
    top.clocked(lambda: shared.drive(1), name="reg",
                reads=[], writes=[shared])
    top.comb(lambda: shared.drive(int(sel)), [sel], name="override")
    top.clocked(lambda: sink.drive(int(shared)), name="reader",
                reads=[shared], writes=[sink])
    findings = _findings(sim, "race-delta-overwrite")
    assert len(findings) == 1
    finding = findings[0]
    assert finding.severity is Severity.ERROR
    assert finding.signal == "t.shared"
    assert "t.reg" in finding.message
    assert "t.override" in finding.message
    assert "t.reader" in finding.message  # the clocked sampler is named


def test_single_owner_nets_are_race_free():
    sim = Simulator()
    top = Module(sim, "t")
    a = top.signal("a")
    b = top.signal("b")
    top.clocked(lambda: a.drive(1), name="reg", reads=[], writes=[a])
    top.comb(lambda: b.drive(int(a)), [a], name="mirror")
    assert not _findings(sim, "race-delta-overwrite")


# ---------------------------------------------------------------------------
# tie-off-conflict
# ---------------------------------------------------------------------------

def test_conflicting_tie_offs_reported():
    sim = Simulator()
    top = Module(sim, "t")
    out = top.signal("out")
    top.clocked(lambda: out.drive(0), name="zero",
                reads=[], writes=[out], tie_offs={out: 0})
    top.clocked(lambda: out.drive(1), name="one",
                reads=[], writes=[out], tie_offs={out: 1})
    findings = _findings(sim, "tie-off-conflict")
    assert len(findings) == 1
    assert "t.zero->0" in findings[0].message
    assert "t.one->1" in findings[0].message


def test_agreeing_tie_offs_are_fine():
    sim = Simulator()
    top = Module(sim, "t")
    out = top.signal("out")
    top.clocked(lambda: out.drive(0), name="zero",
                reads=[], writes=[out], tie_offs={out: 0})
    assert not _findings(sim, "tie-off-conflict")


# ---------------------------------------------------------------------------
# cdc-crossing
# ---------------------------------------------------------------------------

def _two_domain_design(comb_hop: bool):
    sim = Simulator()
    top = Module(sim, "t")
    src = top.signal("src")
    hop = top.signal("hop")
    dst = top.signal("dst")

    top.clocked(lambda: src.drive(1), name="writer",
                reads=[], writes=[src], domain="fast")
    if comb_hop:
        top.comb(lambda: hop.drive(int(src)), [src], name="wire")
        read_from = hop
    else:
        read_from = src
    top.clocked(lambda: dst.drive(int(read_from)), name="sampler",
                reads=[read_from], writes=[dst], domain="slow")
    return sim


def test_direct_crossing_detected():
    findings = _findings(_two_domain_design(comb_hop=False), "cdc-crossing")
    assert len(findings) == 1
    assert "'fast'" in findings[0].message
    assert "'slow'" in findings[0].message


def test_crossing_through_comb_logic_detected():
    findings = _findings(_two_domain_design(comb_hop=True), "cdc-crossing")
    assert len(findings) == 1
    assert "t.hop" in findings[0].message  # the comb transit is named


def test_single_domain_is_vacuously_quiet():
    sim = Simulator()
    top = Module(sim, "t")
    a, b = top.signal("a"), top.signal("b")
    top.clocked(lambda: a.drive(1), name="w", reads=[], writes=[a])
    top.clocked(lambda: b.drive(int(a)), name="r", reads=[a], writes=[b])
    assert not _findings(sim, "cdc-crossing")


# ---------------------------------------------------------------------------
# rule resolution
# ---------------------------------------------------------------------------

def test_resolve_analysis_rules():
    rules = resolve_rules(["cdc-crossing", "comb-loop"])
    assert [(r.id, r.tier) for r in rules] == [
        ("cdc-crossing", "dataflow"), ("comb-loop", "structural")]
    assert resolve_rules(None) is None
    with pytest.raises(ValueError):
        resolve_rules(["no-such-rule"])


def test_context_builder_counts():
    sim = Simulator()
    top = Module(sim, "t")
    tied = top.signal("tied")
    top.clocked(lambda: tied.drive(0), name="tie",
                reads=[], writes=[tied], tie_offs={tied: 0})
    ctx = AnalysisContext(DesignGraph.from_simulator(sim))
    assert len(ctx.constants) == 1
    assert ctx.dataflow.complete
