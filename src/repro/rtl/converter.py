"""RTL size and type converters.

Section 3 names four basic interconnect components: nodes, size
converters, type converters and register decoders.  Both converters are
*bridges*: a slave-side (upstream) port facing an initiator or a node, a
master-side (downstream) port facing a target or another node, and a
repacking function between them.

Microarchitecture: store-and-forward at packet granularity.  A request
packet is assembled upstream, repacked
(:func:`~repro.stbus.repack.repack_request`) and re-emitted downstream
starting the cycle after its last cell arrived; responses take the mirror
path.  A Type II upstream side additionally gets a reorder stage so
responses always return in request order, whatever the downstream side
does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..kernel import Module, Simulator
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
class _Forwarded:
    """Bookkeeping for a request packet sent downstream."""

    order: int
    src: int
    tid: int  # upstream tid, restored on the response
    down_tid: int  # converter-assigned tid on the downstream link
    opcode: Opcode
    address: int


class RtlBridge(Module):
    """Store-and-forward protocol/width bridge (see module docstring).

    Subclasses fix the legal parameter combinations; instantiate
    :class:`RtlSizeConverter` or :class:`RtlTypeConverter` rather than
    this class directly.
    """

    view = "rtl"

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

        # Request path.
        self._req_assembly: List[Cell] = []
        self._req_queue: List[List[Cell]] = []  # repacked, ready to emit
        self._req_cells: List[Cell] = []  # currently emitting downstream
        self._req_idx = 0

        # Response path.
        self._order_counter = 0
        self._down_tid_counter = 0
        self._forwarded: List[_Forwarded] = []
        self._resp_assembly: List[RespCell] = []
        self._reorder: Dict[int, List[RespCell]] = {}
        self._next_to_deliver = 0
        self._resp_queue: List[List[RespCell]] = []
        self._resp_cells: List[RespCell] = []
        self._resp_idx = 0

        self._tick = self.signal("tick")
        self.clocked(
            self._clk,
            reads=up_port.request_signals()
            + [up_port.gnt, up_port.r_req, up_port.r_gnt]
            + down_port.response_signals()
            + [down_port.gnt, down_port.req, down_port.r_gnt]
            + [self._tick],
            writes=down_port.request_signals()
            + up_port.response_signals()
            + [self._tick],
        )
        self.comb(self._gnt_comb, [self._tick, up_port.req, down_port.r_req])

    # -- combinational accept logic -------------------------------------------

    def _gnt_comb(self) -> None:
        in_flight = len(self._req_queue) + (1 if self._req_cells else 0)
        self.up.gnt.drive(1 if in_flight < self.queue_depth else 0)
        # Responses are always accepted: each matches a forwarded request,
        # so the buffering is already bounded by the outstanding count.
        self.down.r_gnt.drive(1)

    # -- clocked engine ----------------------------------------------------------

    def _clk(self) -> None:
        self._absorb_upstream_request()
        self._emit_downstream_request()
        self._absorb_downstream_response()
        self._emit_upstream_response()
        self._tick.drive(self._tick.value ^ 1)

    def _absorb_upstream_request(self) -> None:
        if not self.up.request_fired:
            return
        cell = self.up.request_cell()
        self._req_assembly.append(cell)
        if not cell.eop:
            return
        cells, self._req_assembly = self._req_assembly, []
        self.stats["requests"] += 1
        try:
            repacked = repack_request(
                cells, self.up.bus_bytes, self.down.bus_bytes,
                self.up_protocol, self.down_protocol,
            )
            opcode = Opcode.decode(cells[0].opc)
        except (RepackError, OpcodeError):
            self.stats["repack_errors"] += 1
            # Answer upstream directly with a single-cell error response.
            self._queue_response([RespCell(r_opc=1, r_eop=1,
                                           r_src=cells[0].src,
                                           r_tid=cells[0].tid)])
            return
        # Remap the tid on the downstream link so responses are
        # unambiguous even when several upstream masters share tid values
        # (the downstream node rewrites source tags on its own link).
        down_tid = self._down_tid_counter & 0xFF
        self._down_tid_counter += 1
        for fwd_cell in repacked:
            fwd_cell.tid = down_tid
        self._forwarded.append(
            _Forwarded(self._order_counter, cells[0].src, cells[0].tid,
                       down_tid, opcode, cells[0].add)
        )
        self._order_counter += 1
        self._req_queue.append(repacked)

    def _emit_downstream_request(self) -> None:
        down = self.down
        if self._req_cells and down.request_fired:
            self._req_idx += 1
            if self._req_idx >= len(self._req_cells):
                self._req_cells = []
                self._req_idx = 0
        if not self._req_cells and self._req_queue:
            self._req_cells = self._req_queue.pop(0)
            self._req_idx = 0
        down.present_request(
            self._req_cells[self._req_idx] if self._req_cells else None)

    def _absorb_downstream_response(self) -> None:
        if not self.down.response_fired:
            return
        cell = self.down.response_cell()
        self._resp_assembly.append(cell)
        if not cell.r_eop:
            return
        cells, self._resp_assembly = self._resp_assembly, []
        self.stats["responses"] += 1
        entry = self._match_forwarded(cells[0])
        if entry is None:
            return  # spurious; upstream checkers flag missing responses
        repacked = repack_response(
            cells, entry.opcode, entry.address,
            self.down.bus_bytes, self.up.bus_bytes,
            self.down_protocol, self.up_protocol,
        )
        for cell_out in repacked:
            # Restore the tags of the upstream link (a downstream node
            # rewrites r_src with its own port index).
            cell_out.r_src = entry.src
            cell_out.r_tid = entry.tid
        if self.up_protocol is ProtocolType.T2:
            self._reorder[entry.order] = repacked
            while self._next_to_deliver in self._reorder:
                self._queue_response(self._reorder.pop(self._next_to_deliver))
                self._next_to_deliver += 1
        else:
            self._next_to_deliver = max(self._next_to_deliver, entry.order + 1)
            self._queue_response(repacked)

    def _match_forwarded(self, first: RespCell) -> Optional[_Forwarded]:
        # The converter-assigned downstream tid identifies the response
        # regardless of what the downstream side did to the source tag.
        for idx, entry in enumerate(self._forwarded):
            if entry.down_tid == first.r_tid:
                return self._forwarded.pop(idx)
        if self._forwarded:
            return self._forwarded.pop(0)
        return None

    def _queue_response(self, cells: List[RespCell]) -> None:
        self._resp_queue.append(cells)

    def _emit_upstream_response(self) -> None:
        up = self.up
        if self._resp_cells and up.response_fired:
            self._resp_idx += 1
            if self._resp_idx >= len(self._resp_cells):
                self._resp_cells = []
                self._resp_idx = 0
        if not self._resp_cells and self._resp_queue:
            self._resp_cells = self._resp_queue.pop(0)
            self._resp_idx = 0
        up.present_response(
            self._resp_cells[self._resp_idx] if self._resp_cells else None)


class RtlSizeConverter(RtlBridge):
    """Width bridge: same protocol type, different data bus widths."""

    def __init__(self, sim, name, up_port, down_port, protocol,
                 queue_depth=2, parent=None):
        if up_port.width_bits == down_port.width_bits:
            raise ValueError("size converter needs differing port widths")
        super().__init__(sim, name, up_port, down_port, protocol, protocol,
                         queue_depth, parent)


class RtlTypeConverter(RtlBridge):
    """Protocol bridge: same width, Type II on one side, Type III on the
    other (either direction)."""

    def __init__(self, sim, name, up_port, down_port, up_protocol,
                 down_protocol, queue_depth=2, parent=None):
        if up_port.width_bits != down_port.width_bits:
            raise ValueError("type converter needs equal port widths")
        if up_protocol is down_protocol:
            raise ValueError("type converter needs differing protocol types")
        legal = {ProtocolType.T2, ProtocolType.T3}
        if {up_protocol, down_protocol} != legal:
            raise ValueError("type conversion is between Type II and Type III")
        super().__init__(sim, name, up_port, down_port, up_protocol,
                         down_protocol, queue_depth, parent)
