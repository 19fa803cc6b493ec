"""Target harness — the CATG memory-model agent behind each target port.

Plays the role of the paper's "models of STBus harnesses" on the target
side: it accepts request packets, applies memory semantics (loads, stores,
read-modify-write, swap), and returns protocol-correct response packets
after a configurable latency.  Per-target latencies are how the test cases
provoke out-of-order traffic: "short transactions are sent by one
initiator to different targets, having different speed" (Section 5).

The behaviour lives in the pin-free :class:`MemoryTarget`;
:class:`TargetHarness` adds the port.  The standalone BCA mode
(:mod:`repro.bca.fast`) drives a :class:`MemoryTarget` directly, so both
BCA drivers run against one memory model.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..kernel import Module, Simulator
from ..stbus import (
    Cell,
    OpKind,
    Opcode,
    OpcodeError,
    ProtocolType,
    RespCell,
    StbusPort,
    build_response_cells,
    request_data_from_cells,
)


def default_byte(address: int) -> int:
    """Deterministic background pattern for never-written memory."""
    return (address & 0xFF) ^ 0xA5


@dataclass
class _Job:
    """A fully received request packet awaiting its response turn."""

    cells: List[RespCell]
    ready_cycle: int


class MemoryTarget:
    """Memory-backed slave with configurable speed, without pins.

    Parameters
    ----------
    latency:
        Base cycles between receiving a packet's last request cell and
        presenting the first response cell.
    jitter:
        If > 0, a deterministic per-packet extra delay drawn uniformly
        from ``[0, jitter)`` using ``seed``.
    capacity:
        Maximum queued packets; the target stops granting when full
        (back-pressure toward the node).
    error_rate:
        Fault injection: the fraction of packets answered with an error
        response instead of being executed (deterministic per seed).
    """

    def __init__(
        self,
        protocol: ProtocolType,
        bus_bytes: int,
        latency: int = 2,
        jitter: int = 0,
        capacity: int = 8,
        seed: int = 0,
        error_rate: float = 0.0,
    ):
        if latency < 0 or jitter < 0 or capacity < 1:
            raise ValueError("latency/jitter must be >= 0, capacity >= 1")
        if not 0.0 <= error_rate <= 1.0:
            raise ValueError("error_rate must be in [0, 1]")
        self.protocol = protocol
        self.bus_bytes = bus_bytes
        self.latency = latency
        self.jitter = jitter
        self.capacity = capacity
        self.error_rate = error_rate
        self._rng = random.Random(seed)
        self._mem: Dict[int, int] = {}
        self._assembly: List[Cell] = []
        self._jobs: List[_Job] = []
        self._resp_cells: List[RespCell] = []
        self._resp_idx = 0
        self.packets_served = 0

    # -- memory model -----------------------------------------------------

    def read_mem(self, address: int, size: int) -> bytes:
        return bytes(
            self._mem.get(address + k, default_byte(address + k))
            for k in range(size)
        )

    def write_mem(self, address: int, data: bytes) -> None:
        for k, byte in enumerate(data):
            self._mem[address + k] = byte

    @property
    def busy(self) -> bool:
        """Packets queued or a response still being transmitted."""
        return bool(self._jobs or self._resp_cells or self._assembly)

    # -- one cycle ----------------------------------------------------------

    def gnt(self) -> bool:
        """Does the target take a request cell this cycle?"""
        return len(self._jobs) < self.capacity

    def presented(self) -> Optional[RespCell]:
        """The response cell presented this cycle (None: idle)."""
        return self._resp_cells[self._resp_idx] if self._resp_cells else None

    def accept(self, cell: Cell, now: int) -> None:
        """Take the request cell that transferred before the edge ``now``."""
        self._assembly.append(cell)
        if cell.eop:
            self._complete_packet(now)

    def advance(self, resp_fired: bool, now: int) -> None:
        """At the edge ``now``: step past the response cell consumed
        before it, and start the next ready response."""
        if self._resp_cells and resp_fired:
            self._resp_idx += 1
            if self._resp_idx >= len(self._resp_cells):
                self._resp_cells = []
                self._resp_idx = 0
        if not self._resp_cells and self._jobs \
                and self._jobs[0].ready_cycle <= now:
            job = self._jobs.pop(0)
            self._resp_cells = job.cells
            self._resp_idx = 0

    # -- packet semantics ---------------------------------------------------

    def _complete_packet(self, now: int) -> None:
        cells, self._assembly = self._assembly, []
        first = cells[0]
        delay = self.latency
        if self.jitter:
            delay += self._rng.randrange(self.jitter)
        try:
            opcode = Opcode.decode(first.opc)
        except OpcodeError:
            resp = [RespCell(r_opc=1, r_eop=1, r_src=first.src, r_tid=first.tid)]
            self._jobs.append(_Job(resp, now + delay))
            return
        if self.error_rate and self._rng.random() < self.error_rate:
            resp = build_response_cells(
                opcode, self.bus_bytes, self.protocol, error=True,
                src=first.src, tid=first.tid, address=first.add,
            )
            self._jobs.append(_Job(resp, now + delay))
            return
        data = self._execute(opcode, first.add, cells)
        resp = build_response_cells(
            opcode,
            self.bus_bytes,
            self.protocol,
            data=data,
            src=first.src,
            tid=first.tid,
            address=first.add,
        )
        self._jobs.append(_Job(resp, now + delay))
        self.packets_served += 1

    def _execute(self, opcode: Opcode, address: int, cells: List[Cell]) -> bytes:
        """Apply memory semantics at arrival time (the serialization point)."""
        kind = opcode.kind
        if kind in (OpKind.LOAD, OpKind.READEX):
            return self.read_mem(address, opcode.size)
        if kind is OpKind.STORE:
            self.write_mem(address, request_data_from_cells(cells, self.bus_bytes))
            return b""
        if kind in (OpKind.RMW, OpKind.SWAP):
            old = self.read_mem(address, opcode.size)
            self.write_mem(address, request_data_from_cells(cells, self.bus_bytes))
            return old
        # FLUSH / PURGE: pure acknowledgements.
        return b""


class TargetHarness(Module, MemoryTarget):
    """A :class:`MemoryTarget` behind the target side of ``port``.

    It deasserts ``gnt`` when its packet queue is full; see
    :class:`MemoryTarget` for the parameters.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        port: StbusPort,
        protocol: ProtocolType,
        latency: int = 2,
        jitter: int = 0,
        capacity: int = 8,
        seed: int = 0,
        error_rate: float = 0.0,
        parent: Optional[Module] = None,
    ):
        Module.__init__(self, sim, name, parent)
        MemoryTarget.__init__(self, protocol, port.bus_bytes, latency,
                              jitter, capacity, seed, error_rate)
        self.port = port
        self._tick = self.signal("tick")
        self.clocked(
            self._clk,
            reads=port.signals() + [self._tick],
            writes=port.response_signals() + [self._tick],
        )
        self.comb(self._gnt_comb, [self._tick, port.req])

    # -- processes -----------------------------------------------------------

    def _gnt_comb(self) -> None:
        self.port.gnt.drive(1 if self.gnt() else 0)

    def _clk(self) -> None:
        port = self.port
        now = self.sim.now
        # Request side: capture the cell that transferred last cycle.
        if port.req._value and port.gnt._value:
            self.accept(port.request_cell(), now)
        # Response side: advance past the cell consumed last cycle.
        self.advance(port.r_req._value and port.r_gnt._value, now)
        # Present the current response cell (registered outputs, held
        # between changes).
        port.present_response(self.presented())
        # The tick toggles every cycle: it wakes _gnt_comb, and the VCD
        # records it.
        self._tick.drive(self._tick._value ^ 1)
