"""BCA register decoder.

Transaction-level second implementation of the register-file target:
requests become register operations executed whole, responses are played
back through a scheduled emission queue.  Pin timing matches the RTL view
(fixed ``latency`` cycles between the last request cell and the first
response cell).
"""

from __future__ import annotations

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


class BcaRegisterDecoder(Module):
    """Register-file target, BCA view."""

    view = "bca"

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
        self._file: Dict[int, int] = {}
        self._collect: List[Cell] = []
        #: (response cells, not-before cycle), in completion order
        self._pending: List[Tuple[List[RespCell], int]] = []
        self._cursor = 0
        self.errors = 0
        self._tick = self.signal("tick")
        self.clocked(
            self._step,
            reads=port.request_signals()
            + [port.gnt, port.r_req, port.r_gnt, self._tick],
            writes=port.response_signals() + [self._tick],
        )
        self.comb(self._gnt_tie, [self._tick])

    def _gnt_tie(self) -> None:
        self.port.gnt.drive(1)

    def read_register(self, index: int) -> bytes:
        base = (index % self.n_regs) * self.port.bus_bytes
        return bytes(self._file.get(base + k, 0)
                     for k in range(self.port.bus_bytes))

    def write_register(self, index: int, data: bytes) -> None:
        base = (index % self.n_regs) * self.port.bus_bytes
        for k, byte in enumerate(data[: self.port.bus_bytes]):
            self._file[base + k] = byte

    # -- the transaction engine -----------------------------------------------

    def _step(self) -> None:
        now = self.sim.now
        port = self.port
        if port.request_fired:
            cell = port.request_cell()
            self._collect.append(cell)
            if cell.eop:
                packet, self._collect = self._collect, []
                self._pending.append(
                    (self._perform(packet), now + self.latency)
                )
        if self._pending and port.response_fired:
            self._cursor += 1
            if self._cursor >= len(self._pending[0][0]):
                self._pending.pop(0)
                self._cursor = 0
        port.present_response(
            self._pending[0][0][self._cursor]
            if self._pending and self._pending[0][1] <= now else None)
        self._tick.drive(self._tick.value ^ 1)

    def _perform(self, cells: List[Cell]) -> List[RespCell]:
        head = cells[0]
        bus_bytes = self.port.bus_bytes
        try:
            opcode = Opcode.decode(head.opc)
        except OpcodeError:
            self.errors += 1
            return [RespCell(r_opc=1, r_eop=1, r_src=head.src,
                             r_tid=head.tid)]
        if opcode.size > bus_bytes and opcode.kind not in (
            OpKind.FLUSH, OpKind.PURGE
        ):
            self.errors += 1
            return build_response_cells(
                opcode, bus_bytes, self.protocol, error=True,
                src=head.src, tid=head.tid, address=head.add,
            )
        base = head.add % self.window
        data = b""
        if opcode.kind in (OpKind.LOAD, OpKind.READEX, OpKind.RMW,
                           OpKind.SWAP):
            data = bytes(
                self._file.get((base + k) % self.window, 0)
                for k in range(opcode.size)
            )
        if opcode.kind in (OpKind.STORE, OpKind.RMW, OpKind.SWAP):
            payload = request_data_from_cells(cells, bus_bytes)
            for k, byte in enumerate(payload):
                self._file[(base + k) % self.window] = byte
        return build_response_cells(
            opcode, bus_bytes, self.protocol, data=data,
            src=head.src, tid=head.tid, address=head.add,
        )
