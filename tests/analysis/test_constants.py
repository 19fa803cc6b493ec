"""Constant derivation: tie-offs, undriven nets, soundness guards."""

import pytest

from repro.analysis import constants
from repro.analysis.constants import ValueRange, derive_constants
from repro.analysis.graph import DesignGraph
from repro.analysis.runner import analyze_config
from repro.kernel import Module, Simulator
from repro.stbus import NodeConfig


def _facts(sim):
    return derive_constants(DesignGraph.from_simulator(sim))


def test_tie_off_proves_constant():
    sim = Simulator()
    top = Module(sim, "t")
    tied = top.signal("tied")
    top.clocked(lambda: tied.drive(1), name="tie",
                writes=[tied], reads=[], tie_offs={tied: 1})
    facts = _facts(sim)
    assert facts.value_of(tied) == 1
    assert "t.tie" in facts.reason_of(tied)
    assert facts.range_of(tied) == ValueRange.constant(1)


def test_undriven_net_holds_init_value():
    sim = Simulator()
    top = Module(sim, "t")
    floating = top.signal("floating", init=0)
    sink = top.signal("sink")
    top.clocked(lambda: sink.drive(int(floating)), name="clk",
                reads=[floating], writes=[sink])
    facts = _facts(sim)
    assert facts.value_of(floating) == 0
    assert "undriven" in facts.reason_of(floating)
    assert facts.value_of(sink) is None  # computed, not constant


def test_no_facts_when_a_clocked_process_is_undeclared():
    sim = Simulator()
    top = Module(sim, "t")
    tied = top.signal("tied")
    top.clocked(lambda: tied.drive(1), name="tie",
                writes=[tied], reads=[], tie_offs={tied: 1})
    top.clocked(lambda: None, name="mystery")  # could write anything
    assert len(_facts(sim)) == 0


def test_mixed_writer_defeats_the_tie_off_proof():
    sim = Simulator()
    top = Module(sim, "t")
    sel = top.signal("sel")
    out = top.signal("out")
    top.clocked(lambda: out.drive(0), name="tie",
                reads=[], writes=[out], tie_offs={out: 0})
    top.comb(lambda: out.drive(int(sel)), [sel], name="mux")
    facts = _facts(sim)
    assert out not in facts  # the comb writer computes a value


def test_conflicting_tie_offs_prove_nothing():
    sim = Simulator()
    top = Module(sim, "t")
    out = top.signal("out")
    top.clocked(lambda: out.drive(0), name="zero",
                reads=[], writes=[out], tie_offs={out: 0})
    top.clocked(lambda: out.drive(1), name="one",
                reads=[], writes=[out], tie_offs={out: 1})
    assert out not in _facts(sim)


def test_value_range_helpers():
    sim = Simulator()
    top = Module(sim, "t")
    wide = top.signal("wide", width=4)
    assert ValueRange.full(wide) == ValueRange(0, 15)
    assert 7 in ValueRange.full(wide)
    assert not ValueRange.constant(3).__contains__(4)
    assert str(ValueRange.constant(3)) == "[3]"
    assert str(ValueRange(0, 15)) == "[0..15]"


@pytest.mark.parametrize("views", [("rtl", "bca"), ("bca",)])
def test_analyze_config_derives_constants_once_per_view(monkeypatch, views):
    """The rules and the UNR report share one constant pass per view."""
    calls = []

    def counting(graph):
        calls.append(graph)
        return derive_constants(graph)

    monkeypatch.setattr(constants, "derive_constants", counting)
    analyze_config(NodeConfig(), views=views)
    assert len(calls) == len(views)
