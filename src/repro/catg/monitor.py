"""Port monitors — passive packet re-assembly.

Fig. 2: each eVC has "monitors that collect traffic information".  A
:class:`PortMonitor` watches one STBus port, reassembles request and
response cells into observed packets, timestamps them, and broadcasts them
to subscribers: the scoreboard and coverage model consume whole packets,
and the port's protocol checker consumes the per-cycle handshake sample
the monitor read, so each port's pins are sampled by one process.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from ..kernel import Module, Simulator
from ..stbus import Cell, RespCell, StbusPort


@dataclass
class ObservedRequest:
    """A complete request packet as seen at one port."""

    port_name: str
    role: str  # "initiator" (DUT slave side) or "target" (DUT master side)
    index: int  # port index within its role
    cells: List[Cell]
    start_cycle: int
    end_cycle: int

    @property
    def opc(self) -> int:
        return self.cells[0].opc

    @property
    def address(self) -> int:
        return self.cells[0].add

    @property
    def tid(self) -> int:
        return self.cells[0].tid

    @property
    def src(self) -> int:
        return self.cells[0].src

    @property
    def lck(self) -> int:
        return self.cells[-1].lck


@dataclass
class ObservedResponse:
    """A complete response packet as seen at one port."""

    port_name: str
    role: str
    index: int
    cells: List[RespCell]
    start_cycle: int
    end_cycle: int

    @property
    def r_src(self) -> int:
        return self.cells[0].r_src

    @property
    def r_tid(self) -> int:
        return self.cells[0].r_tid

    @property
    def is_error(self) -> bool:
        return any(cell.is_error for cell in self.cells)


RequestCallback = Callable[[ObservedRequest], None]
ResponseCallback = Callable[[ObservedResponse], None]
#: ``callback(req, gnt, r_req, r_gnt)`` with the sampled handshake bits.
SampleCallback = Callable[[int, int, int, int], None]


class PortMonitor(Module):
    """Collects the traffic of one port into observed packets."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        port: StbusPort,
        role: str,
        index: int,
        parent: Optional[Module] = None,
    ):
        super().__init__(sim, name, parent)
        if role not in ("initiator", "target"):
            raise ValueError("role must be 'initiator' or 'target'")
        self.port = port
        self.role = role
        self.index = index
        self._req_cells: List[Cell] = []
        self._req_start = 0
        self._resp_cells: List[RespCell] = []
        self._resp_start = 0
        self._req_subs: List[RequestCallback] = []
        self._resp_subs: List[ResponseCallback] = []
        self._sample_subs: List[SampleCallback] = []
        self.requests: List[ObservedRequest] = []
        self.responses: List[ObservedResponse] = []
        self.clocked(self._clk, reads=port.signals(), writes=())

    def on_request(self, callback: RequestCallback) -> None:
        self._req_subs.append(callback)

    def on_response(self, callback: ResponseCallback) -> None:
        self._resp_subs.append(callback)

    def on_sample(self, callback: SampleCallback) -> None:
        """Receive every cycle's handshake bits, after the packet callbacks."""
        self._sample_subs.append(callback)

    def _clk(self) -> None:
        cycle = self.sim.now - 1  # the cycle whose values we sampled
        port = self.port
        req = port.req._value
        gnt = port.gnt._value
        if req and gnt:
            if not self._req_cells:
                self._req_start = cycle
            cell = port.request_cell()
            self._req_cells.append(cell)
            if cell.eop:
                obs = ObservedRequest(
                    port.name, self.role, self.index,
                    self._req_cells, self._req_start, cycle,
                )
                self._req_cells = []
                self.requests.append(obs)
                for callback in self._req_subs:
                    callback(obs)
        r_req = port.r_req._value
        r_gnt = port.r_gnt._value
        if r_req and r_gnt:
            if not self._resp_cells:
                self._resp_start = cycle
            cell = port.response_cell()
            self._resp_cells.append(cell)
            if cell.r_eop:
                obs = ObservedResponse(
                    port.name, self.role, self.index,
                    self._resp_cells, self._resp_start, cycle,
                )
                self._resp_cells = []
                self.responses.append(obs)
                for callback in self._resp_subs:
                    callback(obs)
        for callback in self._sample_subs:
            callback(req, gnt, r_req, r_gnt)
