#!/usr/bin/env python3
"""Figure 1: a hierarchical STBus interconnect, in both design views.

The paper's Figure 1 shows a communication network built from the four
basic components: two nodes of different protocol types, a 64/32 size
converter in front of one initiator, and a t2/t3 type converter between
the nodes.  This example declares that topology with
:class:`~repro.fabric.FabricSpec`, builds it once with the RTL views and
once with the BCA views, runs the same traffic through both fabrics,
checks end-to-end data integrity, and verifies that the two fabrics
drive identical values on every link pin, cycle by cycle.

Topology (addresses in brackets):

    bfm0 (32b) ──┐
    bfm1 (32b) ──┤  Node A (Type II, 32-bit)     [0x0000-0x0FFF] mem A
    bfm2 (64b) ─ 64/32 size conv ─┘        └─ t2/t3 conv ─ Node B (Type III)
                                                  [0x1000-0x1FFF] mem B
                                                  [0x2000-0x20FF] registers

Run:  python examples/interconnect.py
"""

from repro.fabric import FabricSpec
from repro.stbus import (
    AddressMap,
    NodeConfig,
    Opcode,
    ProtocolType,
    Region,
    Transaction,
    response_data_from_cells,
)

MEM_A = 0x0000
MEM_B = 0x1000
REGS = 0x2000
CYCLES = 600


def figure1() -> FabricSpec:
    """The Figure 1 fabric, declared once for both design views."""
    spec = FabricSpec()
    # Node A: Type II, 32-bit, 3 initiators, 2 targets.
    spec.node("nodeA", NodeConfig(
        name="nodeA", protocol_type=ProtocolType.T2,
        n_initiators=3, n_targets=2, data_width_bits=32,
        address_map=AddressMap([
            Region(MEM_A, 0x1000, 0),      # local memory
            Region(MEM_B, 0x1100, 1),      # everything behind node B
        ]),
    ))
    # Node B: Type III, 32-bit, 1 initiator (the bridge), 2 targets.
    spec.node("nodeB", NodeConfig(
        name="nodeB", protocol_type=ProtocolType.T3,
        n_initiators=1, n_targets=2, data_width_bits=32,
        address_map=AddressMap([
            Region(MEM_B, 0x1000, 0),
            Region(REGS, 0x100, 1),
        ]),
    ))
    # Figure 1's "64/32" in front of initiator 2 and "t2 / t3" between
    # the nodes.
    spec.size_converter("sizeconv", ProtocolType.T2)
    spec.type_converter("typeconv", ProtocolType.T2, ProtocolType.T3)
    # Leaf agents: memories and a 16-register decoder.
    spec.memory("memA", latency=2)
    spec.memory("memB", latency=4)
    spec.register_decoder("regs")
    # Bus masters: two 32-bit BFMs plus one 64-bit BFM over the size
    # converter.
    spec.master("bfm0")
    spec.master("bfm1")
    spec.master("bfm2", width=64)

    spec.connect("bfm0", ("nodeA", "init", 0))
    spec.connect("bfm1", ("nodeA", "init", 1))
    spec.connect("bfm2", ("sizeconv", "up"))
    spec.connect(("sizeconv", "down"), ("nodeA", "init", 2))
    spec.connect(("nodeA", "targ", 0), "memA")
    spec.connect(("nodeA", "targ", 1), ("typeconv", "up"))
    spec.connect(("typeconv", "down"), ("nodeB", "init", 0))
    spec.connect(("nodeB", "targ", 0), "memB")
    spec.connect(("nodeB", "targ", 1), "regs")
    return spec


def load_traffic(masters) -> None:
    """Each master exercises a different corner of the fabric."""
    # bfm0: local memory on node A, then remote memory behind node B.
    masters["bfm0"].load_program([
        (Transaction(Opcode.store(4), MEM_A + 0x10,
                     data=b"\x01\x02\x03\x04"), 0),
        (Transaction(Opcode.load(4), MEM_A + 0x10), 0),
        (Transaction(Opcode.store(8), MEM_B + 0x20,
                     data=bytes(range(8))), 0),
        (Transaction(Opcode.load(8), MEM_B + 0x20), 0),
    ])
    # bfm1: hammers node A's local memory (contending with bfm0).
    masters["bfm1"].load_program([
        (Transaction(Opcode.store(4), MEM_A + 0x40 + 8 * k,
                     data=bytes([k, k + 1, k + 2, k + 3])), 1)
        for k in range(4)
    ])
    # bfm2 (64-bit): writes a register behind two nodes and two
    # converters, then reads it back.
    masters["bfm2"].load_program([
        (Transaction(Opcode.store(4), REGS + 0x08,
                     data=b"\xCA\xFE\xBA\xBE"), 0),
        (Transaction(Opcode.load(4), REGS + 0x08), 0),
    ])


def run(view: str):
    """Build Figure 1 in ``view``, step it CYCLES cycles under the
    traffic, and return the fabric with one row of link pin values per
    cycle."""
    fabric = figure1().build(view)
    load_traffic(fabric.masters)
    fabric.sim.elaborate()
    pins = fabric.all_port_signals()
    trace = []
    for _ in range(CYCLES):
        fabric.sim.step()
        trace.append(tuple(sig.value for sig in pins))
    return fabric, trace


def check_data(fabric, view: str) -> None:
    bfm0, bfm1, bfm2 = (fabric.masters[f"bfm{k}"] for k in range(3))
    assert [len(bfm.response_packets) for bfm in (bfm0, bfm1, bfm2)] \
        == [4, 4, 2]
    local = response_data_from_cells(
        bfm0.response_packets[1], Opcode.load(4), 4, address=MEM_A + 0x10)
    assert local == b"\x01\x02\x03\x04", local
    for k in range(4):
        stored = fabric.memories["memA"].read_mem(MEM_A + 0x40 + 8 * k, 4)
        assert stored == bytes([k, k + 1, k + 2, k + 3]), stored
    remote = response_data_from_cells(
        bfm0.response_packets[3], Opcode.load(8), 4, address=MEM_B + 0x20)
    assert remote == bytes(range(8)), remote
    reg = response_data_from_cells(
        bfm2.response_packets[1], Opcode.load(4), 8, address=REGS + 0x08)
    assert reg == b"\xCA\xFE\xBA\xBE", reg
    assert fabric.registers["regs"].read_register(2) == b"\xCA\xFE\xBA\xBE"
    print(f"  [{view}] local read:  {local.hex()} "
          "(and bfm1's four contending stores landed)")
    print(f"  [{view}] remote read: {remote.hex()} "
          "(through t2/t3 converter and node B)")
    print(f"  [{view}] register read: {reg.hex()} "
          "(64-bit master through the 64/32 size converter)")


def main() -> None:
    print("Building the Figure 1 interconnect in both design views...")
    traces = {}
    for view in ("rtl", "bca"):
        fabric, traces[view] = run(view)
        check_data(fabric, view)
    aligned = sum(a == b for a, b in zip(traces["rtl"], traces["bca"]))
    print(f"\nwhole-fabric RTL/BCA pin alignment over {CYCLES} cycles: "
          f"{aligned / CYCLES * 100:.2f}%")
    assert traces["rtl"] == traces["bca"], "fabric views diverged"
    print("Figure 1 topology verified in both views.")


if __name__ == "__main__":
    main()
