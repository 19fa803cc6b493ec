"""RTL register decoder.

The fourth basic STBus component (Section 3): a register-file target for
control/status access.  It exposes a Type II/III port; word and sub-word
loads/stores (and RMW/SWAP, for semaphore-style registers) address a
small register window that wraps — operations wider than the bus width
are answered with an error response.
"""

from __future__ import annotations

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


class RtlRegisterDecoder(Module):
    """Cycle-accurate register-file target."""

    view = "rtl"

    def __init__(
        self,
        sim: Simulator,
        name: str,
        port: StbusPort,
        protocol: ProtocolType,
        n_regs: int = 16,
        latency: int = 1,
        parent: Optional[Module] = None,
    ):
        super().__init__(sim, name, parent)
        if n_regs < 1 or latency < 1:
            raise ValueError("n_regs and latency must be >= 1")
        self.port = port
        self.protocol = protocol
        self.n_regs = n_regs
        self.latency = latency
        self.window = n_regs * port.bus_bytes
        self._bytes: Dict[int, int] = {}
        self._assembly: List[Cell] = []
        self._jobs: List[tuple] = []  # (cells, ready_cycle)
        self._resp: List[RespCell] = []
        self._resp_idx = 0
        self.errors = 0
        self._tick = self.signal("tick")
        self.clocked(
            self._clk,
            reads=port.request_signals()
            + [port.gnt, port.r_req, port.r_gnt, self._tick],
            writes=port.response_signals() + [self._tick],
        )
        self.comb(self._gnt_tie, [self._tick])

    def _gnt_tie(self) -> None:
        self.port.gnt.drive(1)

    # -- register access ---------------------------------------------------------

    def read_register(self, index: int) -> bytes:
        base = (index % self.n_regs) * self.port.bus_bytes
        return bytes(self._bytes.get(base + k, 0)
                     for k in range(self.port.bus_bytes))

    def write_register(self, index: int, data: bytes) -> None:
        base = (index % self.n_regs) * self.port.bus_bytes
        for k, byte in enumerate(data[: self.port.bus_bytes]):
            self._bytes[base + k] = byte

    def _read(self, address: int, size: int) -> bytes:
        base = address % self.window
        return bytes(self._bytes.get((base + k) % self.window, 0)
                     for k in range(size))

    def _write(self, address: int, data: bytes) -> None:
        base = address % self.window
        for k, byte in enumerate(data):
            self._bytes[(base + k) % self.window] = byte

    # -- engine ----------------------------------------------------------------

    def _clk(self) -> None:
        port = self.port
        now = self.sim.now
        if port.request_fired:
            cell = port.request_cell()
            self._assembly.append(cell)
            if cell.eop:
                cells, self._assembly = self._assembly, []
                self._jobs.append((self._execute(cells), now + self.latency))
        if self._resp and port.response_fired:
            self._resp_idx += 1
            if self._resp_idx >= len(self._resp):
                self._resp = []
                self._resp_idx = 0
        if not self._resp and self._jobs and self._jobs[0][1] <= now:
            self._resp = self._jobs.pop(0)[0]
            self._resp_idx = 0
        port.present_response(
            self._resp[self._resp_idx] if self._resp else None)
        self._tick.drive(self._tick.value ^ 1)

    def _execute(self, cells: List[Cell]) -> List[RespCell]:
        first = cells[0]
        bus_bytes = self.port.bus_bytes
        try:
            opcode = Opcode.decode(first.opc)
        except OpcodeError:
            self.errors += 1
            return [RespCell(r_opc=1, r_eop=1, r_src=first.src,
                             r_tid=first.tid)]
        kind = opcode.kind
        supported = (
            opcode.size <= bus_bytes
            or kind in (OpKind.FLUSH, OpKind.PURGE)
        )
        if not supported:
            self.errors += 1
            return build_response_cells(
                opcode, bus_bytes, self.protocol, error=True,
                src=first.src, tid=first.tid, address=first.add,
            )
        data = b""
        if kind in (OpKind.LOAD, OpKind.READEX):
            data = self._read(first.add, opcode.size)
        elif kind is OpKind.STORE:
            self._write(first.add, request_data_from_cells(cells, bus_bytes))
        elif kind in (OpKind.RMW, OpKind.SWAP):
            data = self._read(first.add, opcode.size)
            self._write(first.add, request_data_from_cells(cells, bus_bytes))
        return build_response_cells(
            opcode, bus_bytes, self.protocol, data=data,
            src=first.src, tid=first.tid, address=first.add,
        )
