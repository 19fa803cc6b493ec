"""Port monitors — passive packet re-assembly.

Fig. 2: each eVC has "monitors that collect traffic information".  A
:class:`PortMonitor` watches one STBus port, reassembles request and
response cells into observed packets, timestamps them, and broadcasts them
to subscribers: the scoreboard and coverage model consume whole packets,
and the protocol checker, arbitration checker and conflict coverage
consume the per-cycle :class:`PortSample`, so each port's pins are
sampled by one process.  Given the node's ``route``, a monitor decodes
each request's destination once, from its first cell, as the node does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

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
    #: Where the packet is routed (None at a monitor without a route).
    dest: Optional[int] = None

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


class PortSample:
    """One cycle at one port, rewritten in place by its monitor: the
    handshake bits, the destination of the request on the pins (None
    while ``req`` is low or without a route) and the request and
    response cells transferred (None if none).  A subscriber reading
    several ports keeps their samples, not their monitors, so a
    finished run holds no reference cycle."""

    __slots__ = ("req", "gnt", "r_req", "r_gnt", "dest", "cell", "r_cell")

    def __init__(self) -> None:
        self.req = self.gnt = self.r_req = self.r_gnt = 0
        self.dest = self.cell = self.r_cell = None


RequestCallback = Callable[[ObservedRequest], None]
ResponseCallback = Callable[[ObservedResponse], None]
SampleCallback = Callable[[PortSample], None]


class PortMonitor(Module):
    """Collects the traffic of one port into observed packets."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        port: StbusPort,
        role: str,
        index: int,
        route: Optional[Callable[[int, int], int]] = None,
        parent: Optional[Module] = None,
    ):
        super().__init__(sim, name, parent)
        if role not in ("initiator", "target"):
            raise ValueError("role must be 'initiator' or 'target'")
        self.port = port
        self.role = role
        self.index = index
        self.sample = PortSample()
        self._route = route
        self._dest_add: Optional[int] = None
        self._dest: Optional[int] = None
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
        """Receive every cycle's sample, after the packet callbacks."""
        self._sample_subs.append(callback)

    def _clk(self) -> None:
        # The values sampled are those of the cycle before this edge.  An
        # idle channel publishes its handshake bits and nothing else: no
        # head to decode, no cell to build.
        port = self.port
        sample = self.sample
        sample.req = req = port.req._value
        sample.gnt = gnt = port.gnt._value
        if not req:
            sample.dest = sample.cell = None
        else:
            if not self._req_cells and self._route is not None \
                    and port.add._value != self._dest_add:
                # A new head decodes once; an open packet keeps its
                # first cell's destination.
                self._dest_add = port.add._value
                self._dest = self._route(self.index, self._dest_add)
            sample.dest = self._dest
            sample.cell = cell = port.request_cell() if gnt else None
            if cell is not None:
                cycle = self.sim.now - 1
                if not self._req_cells:
                    self._req_start = cycle
                self._req_cells.append(cell)
                if cell.eop:
                    obs = ObservedRequest(
                        port.name, self.role, self.index,
                        self._req_cells, self._req_start, cycle, self._dest,
                    )
                    self._req_cells = []
                    self.requests.append(obs)
                    for callback in self._req_subs:
                        callback(obs)
        sample.r_req = r_req = port.r_req._value
        sample.r_gnt = r_gnt = port.r_gnt._value
        sample.r_cell = r_cell = \
            port.response_cell() if r_req and r_gnt else None
        if r_cell is not None:
            cycle = self.sim.now - 1
            if not self._resp_cells:
                self._resp_start = cycle
            self._resp_cells.append(r_cell)
            if r_cell.r_eop:
                obs = ObservedResponse(
                    port.name, self.role, self.index,
                    self._resp_cells, self._resp_start, cycle,
                )
                self._resp_cells = []
                self.responses.append(obs)
                for callback in self._resp_subs:
                    callback(obs)
        for callback in self._sample_subs:
            callback(sample)


def on_every_sample(monitors: Sequence[PortMonitor],
                    callback: Callable[[], None]) -> None:
    """Call ``callback()`` once a cycle, after every one of ``monitors``
    has published its sample."""
    count = pending = len(monitors)

    def sampled(_sample: PortSample) -> None:
        nonlocal pending
        pending -= 1
        if not pending:
            pending = count
            callback()

    for monitor in monitors:
        monitor.on_sample(sampled)
