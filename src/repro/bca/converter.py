"""BCA size and type converters.

The transaction-level second implementation of the bridge components:
where the RTL view (:mod:`repro.rtl.converter`) runs per-cell FSMs, the
BCA model thinks in whole packets — an inbound *collector* binds cells
into a packet record, the conversion happens once per packet, and an
outbound *streamer* plays the converted packet onto the pins under the
req/gnt handshake.  Pin-level timing matches the RTL view cycle for cycle
(store-and-forward: re-emission starts the cycle after the last inbound
cell).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..kernel import Module, Simulator, drive_changes
from ..stbus import (
    Cell,
    Opcode,
    OpcodeError,
    ProtocolType,
    RespCell,
    StbusPort,
)
from ..stbus.repack import RepackError, repack_request, repack_response


@dataclass
class _Packet:
    """A whole packet with its outbound cell stream."""

    cells: List
    cursor: int = 0

    @property
    def current(self):
        return self.cells[self.cursor]

    def advance(self) -> bool:
        """Move past a transferred cell; True when the packet is done."""
        self.cursor += 1
        return self.cursor >= len(self.cells)


class _Streamer:
    """Plays queued packets onto a port side under a fired() handshake."""

    def __init__(self, present: Callable, fired: Callable):
        self._queue: List[_Packet] = []
        self._present = present
        self._fired = fired

    def push(self, cells: List) -> None:
        self._queue.append(_Packet(list(cells)))

    def step(self) -> None:
        if self._queue and self._fired():
            if self._queue[0].advance():
                self._queue.pop(0)
        self._present(self._queue[0].current if self._queue else None)

    def __len__(self) -> int:
        return len(self._queue)


@dataclass
class _Expected:
    order: int
    src: int
    tid: int  # upstream tid, restored on the response
    down_tid: int  # converter-assigned tid on the downstream link
    opcode: Opcode
    address: int


class BcaBridge(Module):
    """Transaction-level width/protocol bridge (BCA view)."""

    view = "bca"

    def __init__(
        self,
        sim: Simulator,
        name: str,
        up_port: StbusPort,
        down_port: StbusPort,
        up_protocol: ProtocolType,
        down_protocol: ProtocolType,
        queue_depth: int = 2,
        parent: Optional[Module] = None,
    ):
        super().__init__(sim, name, parent)
        if queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        self.up = up_port
        self.down = down_port
        self.up_protocol = up_protocol
        self.down_protocol = down_protocol
        self.queue_depth = queue_depth
        self.stats: Dict[str, int] = {"requests": 0, "responses": 0,
                                      "repack_errors": 0}
        self._inbound_req: List[Cell] = []
        self._inbound_resp: List[RespCell] = []
        self._expected: List[_Expected] = []
        self._order = 0
        self._down_tid = 0
        self._deliver_next = 0
        self._held: Dict[int, List[RespCell]] = {}

        # The handshakes close over the ports, not ``self``: a bridge
        # holding a closure over itself would outlive its run as a cycle.
        self._down_stream = _Streamer(
            down_port.present_request, lambda: down_port.request_fired)
        self._up_stream = _Streamer(
            up_port.present_response, lambda: up_port.response_fired)
        self._tick = self.signal("tick")
        self.clocked(
            self._on_clock,
            reads=up_port.request_signals()
            + [up_port.gnt, up_port.r_req, up_port.r_gnt]
            + down_port.response_signals()
            + [down_port.gnt, down_port.req, down_port.r_gnt]
            + [self._tick],
            writes=down_port.request_signals()
            + up_port.response_signals()
            + [self._tick],
        )
        self._gnt_pins = (up_port.gnt, down_port.r_gnt)
        #: The (gnt, r_gnt) _accept_comb last drove (None: not yet driven).
        self._gnt_held: Optional[Tuple[int, int]] = None
        self.comb(self._accept_comb, [self._tick, up_port.req])

    # -- combinational ---------------------------------------------------------

    def _accept_comb(self) -> None:
        values = (1 if len(self._down_stream) < self.queue_depth else 0, 1)
        if values != self._gnt_held:
            self._gnt_held = drive_changes(self._gnt_pins, values,
                                           self._gnt_held)

    # -- transaction engine -------------------------------------------------------

    def _on_clock(self) -> None:
        # Collect inbound cells (fired during the previous cycle).
        if self.up.request_fired:
            cell = self.up.request_cell()
            self._inbound_req.append(cell)
            if cell.eop:
                packet, self._inbound_req = self._inbound_req, []
                self._convert_request(packet)
        if self.down.response_fired:
            cell = self.down.response_cell()
            self._inbound_resp.append(cell)
            if cell.r_eop:
                packet, self._inbound_resp = self._inbound_resp, []
                self._convert_response(packet)
        self._down_stream.step()
        self._up_stream.step()
        self._tick.drive(self._tick.value ^ 1)

    def _convert_request(self, cells: List[Cell]) -> None:
        self.stats["requests"] += 1
        try:
            converted = repack_request(
                cells, self.up.bus_bytes, self.down.bus_bytes,
                self.up_protocol, self.down_protocol,
            )
            opcode = Opcode.decode(cells[0].opc)
        except (RepackError, OpcodeError):
            self.stats["repack_errors"] += 1
            self._up_stream.push(
                [RespCell(r_opc=1, r_eop=1, r_src=cells[0].src,
                          r_tid=cells[0].tid)]
            )
            return
        down_tid = self._down_tid & 0xFF
        self._down_tid += 1
        for fwd_cell in converted:
            fwd_cell.tid = down_tid
        self._expected.append(
            _Expected(self._order, cells[0].src, cells[0].tid, down_tid,
                      opcode, cells[0].add)
        )
        self._order += 1
        self._down_stream.push(converted)

    def _convert_response(self, cells: List[RespCell]) -> None:
        self.stats["responses"] += 1
        entry = None
        for idx, candidate in enumerate(self._expected):
            if candidate.down_tid == cells[0].r_tid:
                entry = self._expected.pop(idx)
                break
        if entry is None:
            if not self._expected:
                return
            entry = self._expected.pop(0)
        converted = repack_response(
            cells, entry.opcode, entry.address,
            self.down.bus_bytes, self.up.bus_bytes,
            self.down_protocol, self.up_protocol,
        )
        for cell_out in converted:
            # Restore the upstream link's tags (a downstream node rewrites
            # r_src with its own port index).
            cell_out.r_src = entry.src
            cell_out.r_tid = entry.tid
        if self.up_protocol is ProtocolType.T2:
            # Type II upstream: strict request order.
            self._held[entry.order] = converted
            while self._deliver_next in self._held:
                self._up_stream.push(self._held.pop(self._deliver_next))
                self._deliver_next += 1
        else:
            self._deliver_next = max(self._deliver_next, entry.order + 1)
            self._up_stream.push(converted)


class BcaSizeConverter(BcaBridge):
    """Width bridge, BCA view."""

    def __init__(self, sim, name, up_port, down_port, protocol,
                 queue_depth=2, parent=None):
        if up_port.width_bits == down_port.width_bits:
            raise ValueError("size converter needs differing port widths")
        super().__init__(sim, name, up_port, down_port, protocol, protocol,
                         queue_depth, parent)


class BcaTypeConverter(BcaBridge):
    """Protocol bridge, BCA view."""

    def __init__(self, sim, name, up_port, down_port, up_protocol,
                 down_protocol, queue_depth=2, parent=None):
        if up_port.width_bits != down_port.width_bits:
            raise ValueError("type converter needs equal port widths")
        if up_protocol is down_protocol:
            raise ValueError("type converter needs differing protocol types")
        if {up_protocol, down_protocol} != {ProtocolType.T2, ProtocolType.T3}:
            raise ValueError("type conversion is between Type II and Type III")
        super().__init__(sim, name, up_port, down_port, up_protocol,
                         down_protocol, queue_depth, parent)
