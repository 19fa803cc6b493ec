"""Fabric builder tests: validation and the Figure 1 example."""

import importlib.util
from pathlib import Path

import pytest

from repro.fabric import FabricError, FabricSpec
from repro.stbus import (
    NodeConfig,
    Opcode,
    Transaction,
    response_data_from_cells,
)

EXAMPLE = Path(__file__).resolve().parents[2] / "examples" / "interconnect.py"


def load_figure1_example():
    spec = importlib.util.spec_from_file_location("figure1_example", EXAMPLE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("view", ["rtl", "bca"])
def test_figure1_fabric_end_to_end(view):
    """The shipped Figure 1 example passes its data checks in ``view``."""
    example = load_figure1_example()
    fabric, trace = example.run(view)
    example.check_data(fabric, view)
    assert len(trace) == example.CYCLES


def test_figure1_views_pin_aligned():
    """The shipped Figure 1 example drives identical values on all 162
    link pins on every cycle in both views."""
    example = load_figure1_example()
    traces = {view: example.run(view)[1] for view in ("rtl", "bca")}
    assert len(traces["rtl"]) == example.CYCLES
    assert len(traces["rtl"][0]) == 162
    assert traces["rtl"] == traces["bca"]


def test_validation_rejects_unwired_node_port():
    spec = FabricSpec()
    spec.master("m", width=32)
    spec.node("n", NodeConfig(n_initiators=1, n_targets=1))
    spec.connect("m", ("n", "init", 0))
    # target 0 left unwired
    with pytest.raises(FabricError, match="unwired"):
        spec.validate()


def test_validation_rejects_double_connection():
    spec = FabricSpec()
    spec.master("m", width=32)
    spec.memory("mem")
    spec.memory("mem2")
    spec.connect("m", "mem")
    spec.connect("m", "mem2")
    with pytest.raises(FabricError, match="twice"):
        spec.validate()


def test_validation_rejects_width_mismatch():
    spec = FabricSpec()
    spec.master("m", width=64)
    spec.node("n", NodeConfig(n_initiators=1, n_targets=1,
                              data_width_bits=32))
    spec.memory("mem")
    spec.connect("m", ("n", "init", 0))
    spec.connect(("n", "targ", 0), "mem")
    with pytest.raises(FabricError, match="width mismatch"):
        spec.validate()


def test_validation_rejects_two_sources():
    spec = FabricSpec()
    spec.master("m1", width=32)
    spec.master("m2", width=32)
    spec.connect("m1", "m2")
    with pytest.raises(FabricError, match="request driver"):
        spec.validate()


def test_validation_rejects_duplicate_names():
    spec = FabricSpec()
    spec.master("x", width=32)
    with pytest.raises(FabricError, match="duplicate"):
        spec.memory("x")


def test_validation_rejects_bad_endpoints():
    spec = FabricSpec()
    spec.node("n", NodeConfig(n_initiators=1, n_targets=1))
    spec.master("m", width=32)
    spec.memory("mem")
    spec.connect("m", ("n", "init", 5))
    with pytest.raises(FabricError, match="out of range"):
        spec.validate()
    spec2 = FabricSpec()
    spec2.master("m", width=32)
    spec2.connect("m", "ghost")
    with pytest.raises(FabricError, match="unknown component"):
        spec2.validate()


def test_build_rejects_bad_view():
    spec = FabricSpec()
    spec.master("m", width=32)
    spec.memory("mem")
    spec.connect("m", "mem")
    with pytest.raises(FabricError):
        spec.build(view="gate")


def test_master_direct_to_memory():
    """The degenerate fabric: a master wired straight to a memory."""
    spec = FabricSpec()
    spec.master("m", width=32)
    spec.memory("mem", latency=1)
    spec.connect("m", "mem")
    fabric = spec.build()
    fabric.masters["m"].load_program([
        (Transaction(Opcode.store(4), 0x0, data=b"\x11\x22\x33\x44"), 0),
        (Transaction(Opcode.load(4), 0x0), 0),
    ])
    fabric.sim.elaborate()
    fabric.sim.run(20)
    got = response_data_from_cells(
        fabric.masters["m"].response_packets[1], Opcode.load(4), 4)
    assert got == b"\x11\x22\x33\x44"
