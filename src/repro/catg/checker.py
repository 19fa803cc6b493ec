"""Protocol checkers — per-port STBus interface rule enforcement.

Fig. 2: "checkers that check the correctness of the protocol at the
interface".  One :class:`ProtocolChecker` watches one port, cycle by
cycle, and reports every rule violation to the shared
:class:`~repro.catg.report.VerificationReport`.

Rules enforced (rule ids as reported):

==================  =====================================================
``REQ_DROPPED``      request retracted before being granted
``REQ_UNSTABLE``     request fields changed while waiting for grant
``OPC_INVALID``      undecodable operation encoding on a first cell
``ADDR_ALIGN``       address not naturally aligned to the operation size
``PKT_FIELDS``       opc/tid/pri changed between cells of one packet
``PKT_ADDR``         cell address off the expected burst geometry
``PKT_BE``           byte enables off the expected lane geometry
``PKT_LEN``          eop asserted at the wrong cell count
``LCK_MIDPACKET``    lck asserted on a non-final cell
``RESP_DROPPED``     response retracted before being granted
``RESP_UNSTABLE``    response fields changed while waiting for grant
``RESP_LEN``         response packet length wrong for its operation
``RESP_UNEXPECTED``  response matches no outstanding request
``RESP_ORDER``       Type II response out of request order
``RESP_SRC``         wrong source tag on a response
``CHUNK_ATOMIC``     another initiator's packet inside a locked chunk
==================  =====================================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..kernel import Module, Simulator
from ..stbus import (
    Opcode,
    OpcodeError,
    ProtocolType,
    StbusPort,
    T1_IDLE,
    T1_READ,
    T1_WRITE,
    Type1Port,
)
from ..stbus.packet import lane_geometry
from .report import VerificationReport


@dataclass
class _OpenRequest:
    """Request packet currently being transferred at this port."""

    opcode: Optional[Opcode]
    base_address: int
    opc: int
    tid: int
    pri: int
    src: int
    cells_seen: int
    expected_cells: Optional[int]
    geometry: List[Tuple[int, int, int]]


@dataclass
class _PendingResponse:
    """Request packet completed at this port, awaiting its response."""

    opcode: Optional[Opcode]
    tid: int
    src: int


def _request_fields(port: StbusPort) -> tuple:
    """The request fields ``REQ_UNSTABLE`` compares (all but ``src``)."""
    return (
        port.add._value, port.opc._value, port.data._value, port.be._value,
        port.eop._value, port.lck._value, port.tid._value, port.pri._value,
    )


def _response_fields(port: StbusPort) -> tuple:
    """The response fields ``RESP_UNSTABLE`` compares."""
    return (
        port.r_opc._value, port.r_data._value, port.r_eop._value,
        port.r_src._value, port.r_tid._value,
    )


class ProtocolChecker(Module):
    """STBus Type II/III interface rule checker for one port."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        port: StbusPort,
        role: str,
        index: int,
        protocol: ProtocolType,
        report: VerificationReport,
        parent: Optional[Module] = None,
    ):
        super().__init__(sim, name, parent)
        if role not in ("initiator", "target"):
            raise ValueError("role must be 'initiator' or 'target'")
        self.port = port
        self.role = role
        self.index = index
        self.protocol = protocol
        self.report = report
        # Field snapshot of the previous cycle when its req (r_req) was
        # high and ungranted, else None: only such a cycle binds the next.
        self._held_req: Optional[tuple] = None
        self._held_resp: Optional[tuple] = None
        self._open: Optional[_OpenRequest] = None
        self._pending: List[_PendingResponse] = []
        self._resp_cells_seen = 0
        self._resp_first: Optional[tuple] = None  # (r_src, r_tid)
        self._chunk_src: Optional[int] = None
        self.clocked(self._clk, reads=port.signals(), writes=())

    # -- reporting helper ---------------------------------------------------

    def _fail(self, rule: str, message: str) -> None:
        self.report.error(rule, self.name, self.sim.now - 1, message)

    # -- per-cycle sampling --------------------------------------------------

    def _clk(self) -> None:
        port = self.port
        req = port.req._value
        gnt = port.gnt._value
        if self._held_req is not None:
            if not req:
                self._fail("REQ_DROPPED",
                           "req deasserted before grant")
            elif _request_fields(port) != self._held_req:
                self._fail("REQ_UNSTABLE",
                           "request fields changed while ungranted")
        if req and gnt:
            self._check_request_cell(port)
        self._held_req = _request_fields(port) if req and not gnt else None

        r_req = port.r_req._value
        r_gnt = port.r_gnt._value
        if self._held_resp is not None:
            if not r_req:
                self._fail("RESP_DROPPED",
                           "r_req deasserted before grant")
            elif _response_fields(port) != self._held_resp:
                self._fail("RESP_UNSTABLE",
                           "response fields changed while ungranted")
        if r_req and r_gnt:
            self._check_response_cell(port)
        self._held_resp = (
            _response_fields(port) if r_req and not r_gnt else None
        )

    # -- request packet rules ---------------------------------------------------

    def _check_request_cell(self, port: StbusPort) -> None:
        add = port.add._value
        opc = port.opc._value
        eop = port.eop._value
        lck = port.lck._value
        tid = port.tid._value
        pri = port.pri._value
        src = port.src._value
        be = port.be._value
        bus_bytes = port.bus_bytes

        if self._open is None:
            # First cell of a packet: chunk-atomicity + header legality.
            if self.role == "target" and self._chunk_src is not None:
                if src != self._chunk_src:
                    self._fail(
                        "CHUNK_ATOMIC",
                        f"packet from src {src} inside chunk locked to "
                        f"src {self._chunk_src}",
                    )
                self._chunk_src = None
            opcode: Optional[Opcode] = None
            try:
                opcode = Opcode.decode(opc)
            except OpcodeError:
                self._fail("OPC_INVALID", f"opc 0x{opc:02x} is not a legal encoding")
            expected = None
            geometry: List[Tuple[int, int, int]] = []
            if opcode is not None:
                if add % opcode.size:
                    self._fail(
                        "ADDR_ALIGN",
                        f"address {add:#x} unaligned for {opcode}",
                    )
                expected = opcode.request_cells(bus_bytes, self.protocol)
                geometry = list(lane_geometry(opcode, add, bus_bytes))
            self._open = _OpenRequest(
                opcode, add, opc, tid, pri, src, 0, expected, geometry
            )
        open_pkt = self._open
        idx = open_pkt.cells_seen
        if (opc, tid, pri) != (open_pkt.opc, open_pkt.tid, open_pkt.pri):
            self._fail("PKT_FIELDS", "opc/tid/pri changed mid-packet")
        if open_pkt.geometry:
            exp_add, exp_off, exp_bytes = open_pkt.geometry[
                min(idx, len(open_pkt.geometry) - 1)
            ]
            exp_be = ((1 << exp_bytes) - 1) << exp_off
            if add != exp_add:
                self._fail(
                    "PKT_ADDR",
                    f"cell {idx}: address {add:#x}, expected {exp_add:#x}",
                )
            if be != exp_be:
                self._fail(
                    "PKT_BE",
                    f"cell {idx}: be {be:#x}, expected {exp_be:#x}",
                )
        if lck and not eop:
            self._fail("LCK_MIDPACKET", "lck asserted on a non-final cell")
        open_pkt.cells_seen += 1
        if eop:
            if open_pkt.expected_cells is not None \
                    and open_pkt.cells_seen != open_pkt.expected_cells:
                self._fail(
                    "PKT_LEN",
                    f"packet of {open_pkt.cells_seen} cells, expected "
                    f"{open_pkt.expected_cells}",
                )
            self._pending.append(
                _PendingResponse(open_pkt.opcode, open_pkt.tid, open_pkt.src)
            )
            if self.role == "target" and lck:
                self._chunk_src = open_pkt.src
            self._open = None
        elif open_pkt.expected_cells is not None \
                and open_pkt.cells_seen >= open_pkt.expected_cells:
            self._fail(
                "PKT_LEN",
                f"packet exceeds expected {open_pkt.expected_cells} cells",
            )
            self._open = None  # resync on the next cell

    # -- response packet rules -----------------------------------------------

    def _check_response_cell(self, port: StbusPort) -> None:
        r_src = port.r_src._value
        r_tid = port.r_tid._value
        r_eop = port.r_eop._value
        if self._resp_cells_seen == 0:
            self._resp_first = (r_src, r_tid)
        else:
            if (r_src, r_tid) != self._resp_first:
                self._fail("PKT_FIELDS", "r_src/r_tid changed mid-response")
        self._resp_cells_seen += 1
        if not r_eop:
            return
        cells_seen, self._resp_cells_seen = self._resp_cells_seen, 0
        first_src, first_tid = self._resp_first
        self._resp_first = None
        entry = self._match_pending(first_src, first_tid)
        if entry is None:
            self._fail(
                "RESP_UNEXPECTED",
                f"response tid={first_tid} src={first_src} matches no "
                "outstanding request",
            )
            return
        if self.role == "initiator" and first_src != self.index:
            self._fail(
                "RESP_SRC",
                f"r_src {first_src} at initiator port {self.index}",
            )
        if self.role == "target" and first_src != entry.src:
            self._fail(
                "RESP_SRC",
                f"r_src {first_src}, request carried src {entry.src}",
            )
        if entry.opcode is not None:
            expected = entry.opcode.response_cells(
                port.bus_bytes, self.protocol
            )
            if cells_seen != expected:
                self._fail(
                    "RESP_LEN",
                    f"{entry.opcode}: {cells_seen} response cells, "
                    f"expected {expected}",
                )

    def _matches(self, entry: _PendingResponse, r_src: int, r_tid: int) -> bool:
        if entry.tid != r_tid:
            return False
        # At a target port two initiators may share a tid value; the source
        # tag disambiguates.  At an initiator port tids are unique.
        return self.role != "target" or entry.src == r_src

    def _match_pending(self, r_src: int, r_tid: int) -> Optional[_PendingResponse]:
        if not self._pending:
            return None
        if self.protocol is ProtocolType.T2:
            head = self._pending[0]
            if not self._matches(head, r_src, r_tid):
                self._fail(
                    "RESP_ORDER",
                    f"Type II response tid={r_tid} src={r_src}, expected "
                    f"in-order tid={head.tid} src={head.src}",
                )
                # Resync: drop the entry that actually matches, if any.
                for idx, entry in enumerate(self._pending):
                    if self._matches(entry, r_src, r_tid):
                        return self._pending.pop(idx)
                return None
            return self._pending.pop(0)
        for idx, entry in enumerate(self._pending):
            if self._matches(entry, r_src, r_tid):
                return self._pending.pop(idx)
        return None

    # -- end-of-test ------------------------------------------------------------

    def finalize(self) -> None:
        """Check for work left hanging when the test ends."""
        if self._open is not None:
            self._fail("PKT_LEN", "request packet truncated at end of test")
        if self._resp_cells_seen:
            self._fail("RESP_LEN", "response packet truncated at end of test")
        for entry in self._pending:
            self._fail(
                "RESP_MISSING",
                f"no response for request tid={entry.tid} "
                f"({entry.opcode})",
            )


class Type1Checker(Module):
    """Type I interface rules for the register/programming port.

    ==================  ================================================
    ``T1_ACK_SPURIOUS``  ack asserted while req is low
    ``T1_OPC``           opc is IDLE while req is high, or undefined
    ``T1_UNSTABLE``      command fields changed while waiting for ack
    ``T1_DROPPED``       req retracted before ack
    ==================  ================================================
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        port: Type1Port,
        report: VerificationReport,
        parent: Optional[Module] = None,
    ):
        super().__init__(sim, name, parent)
        self.port = port
        self.report = report
        self._prev: Optional[tuple] = None
        self.clocked(self._clk, reads=port.signals(), writes=())

    def _fail(self, rule: str, message: str) -> None:
        self.report.error(rule, self.name, self.sim.now - 1, message)

    def _clk(self) -> None:
        port = self.port
        req = port.req.value
        ack = port.ack.value
        fields = (port.opc.value, port.add.value, port.wdata.value,
                  port.be.value)
        if ack and not req:
            self._fail("T1_ACK_SPURIOUS", "ack asserted without req")
        if req:
            if fields[0] == T1_IDLE:
                self._fail("T1_OPC", "req asserted with IDLE opcode")
            elif fields[0] not in (T1_READ, T1_WRITE):
                self._fail("T1_OPC", f"undefined opcode {fields[0]}")
        if self._prev is not None:
            prev_req, prev_ack, prev_fields = self._prev
            if prev_req and not prev_ack:
                if not req:
                    self._fail("T1_DROPPED", "req retracted before ack")
                elif fields != prev_fields:
                    self._fail("T1_UNSTABLE",
                               "command changed while waiting for ack")
        self._prev = (req, ack, fields)
