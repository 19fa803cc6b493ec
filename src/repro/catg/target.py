"""Target harness — the CATG memory-model agent behind each target port.

Plays the role of the paper's "models of STBus harnesses" on the target
side: it accepts request packets, applies memory semantics (loads, stores,
read-modify-write, swap), and returns protocol-correct response packets
after a configurable latency.  Per-target latencies are how the test cases
provoke out-of-order traffic: "short transactions are sent by one
initiator to different targets, having different speed" (Section 5).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

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


#: ``_presented`` before the first activation: nothing driven yet.
_UNDRIVEN = object()


def default_byte(address: int) -> int:
    """Deterministic background pattern for never-written memory."""
    return (address & 0xFF) ^ 0xA5


@dataclass
class _Job:
    """A fully received request packet awaiting its response turn."""

    cells: List[RespCell]
    ready_cycle: int


class TargetHarness(Module):
    """Memory-backed slave agent with configurable speed.

    Parameters
    ----------
    latency:
        Base cycles between receiving a packet's last request cell and
        presenting the first response cell.
    jitter:
        If > 0, a deterministic per-packet extra delay drawn uniformly
        from ``[0, jitter)`` using ``seed``.
    capacity:
        Maximum queued packets; the harness deasserts ``gnt`` when full
        (back-pressure toward the node).
    error_rate:
        Fault injection: the fraction of packets answered with an error
        response instead of being executed (deterministic per seed).
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
        super().__init__(sim, name, parent)
        if latency < 0 or jitter < 0 or capacity < 1:
            raise ValueError("latency/jitter must be >= 0, capacity >= 1")
        if not 0.0 <= error_rate <= 1.0:
            raise ValueError("error_rate must be in [0, 1]")
        self.port = port
        self.protocol = protocol
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
        #: The cell on the response pins (None: idle), or _UNDRIVEN.
        self._presented: object = _UNDRIVEN
        self.packets_served = 0
        self._tick = self.signal("tick")
        self.clocked(
            self._clk,
            reads=port.signals() + [self._tick],
            writes=port.response_signals() + [self._tick],
        )
        self.comb(self._gnt_comb, [self._tick, port.req])

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

    # -- processes -----------------------------------------------------------

    def _gnt_comb(self) -> None:
        self.port.gnt.drive(1 if len(self._jobs) < self.capacity else 0)

    def _clk(self) -> None:
        port = self.port
        now = self.sim.now
        # Request side: capture the cell that transferred last cycle.
        if port.req._value and port.gnt._value:
            self._assembly.append(port.request_cell())
            if self._assembly[-1].eop:
                self._complete_packet(now)
        # Response side: advance past the cell consumed last cycle.
        if self._resp_cells and port.r_req._value and port.r_gnt._value:
            self._resp_idx += 1
            if self._resp_idx >= len(self._resp_cells):
                self._resp_cells = []
                self._resp_idx = 0
        if not self._resp_cells and self._jobs \
                and self._jobs[0].ready_cycle <= now:
            job = self._jobs.pop(0)
            self._resp_cells = job.cells
            self._resp_idx = 0
        # Present the current response cell (registered outputs, held
        # between changes like the BFM's request bundle).
        cell = self._resp_cells[self._resp_idx] if self._resp_cells else None
        if cell is not self._presented:
            self._presented = cell
            if cell is not None:
                port.drive_response(cell)
            else:
                port.idle_response()
                port.r_opc.drive(0)
                port.r_data.drive(0)
                port.r_src.drive(0)
                port.r_tid.drive(0)
        # The tick toggles every cycle: it wakes _gnt_comb, and the VCD
        # records it.
        self._tick.drive(self._tick._value ^ 1)

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
                opcode, self.port.bus_bytes, self.protocol, error=True,
                src=first.src, tid=first.tid, address=first.add,
            )
            self._jobs.append(_Job(resp, now + delay))
            return
        data = self._execute(opcode, first.add, cells)
        resp = build_response_cells(
            opcode,
            self.port.bus_bytes,
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
            self.write_mem(address, request_data_from_cells(cells, self.port.bus_bytes))
            return b""
        if kind in (OpKind.RMW, OpKind.SWAP):
            old = self.read_mem(address, opcode.size)
            self.write_mem(address, request_data_from_cells(cells, self.port.bus_bytes))
            return old
        # FLUSH / PURGE: pure acknowledgements.
        return b""
