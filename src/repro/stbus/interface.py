"""Pin-level STBus interface bundles.

Each DUT port is a bundle of named signals, scoped hierarchically so the
VCD shows (and the bus analyzer compares) one scope per port — the paper's
alignment metric is computed "at each port level".

Type II/III bundle (one request channel, one response channel):

=============  ====== ====================================================
signal          width  meaning
=============  ====== ====================================================
``req``          1    request cell valid (held until granted)
``gnt``          1    request cell accepted this cycle
``add``         32    byte address
``opc``          8    operation encoding (:mod:`repro.stbus.opcodes`)
``data``         W    write data lanes
``be``          W/8   byte enables
``eop``          1    last cell of the request packet
``lck``          1    chunk lock: keep the slave for the next packet
``tid``          8    transaction id (out-of-order matching, Type III)
``src``          6    source port tag (driven by the node, target side)
``pri``          4    request priority hint
``r_req``        1    response cell valid
``r_gnt``        1    response cell accepted this cycle
``r_opc``        8    response opcode (bit 0 = error)
``r_data``       W    read data lanes
``r_eop``        1    last cell of the response packet
``r_src``        6    originating initiator port (reflected by the target)
``r_tid``        8    reflected transaction id
=============  ====== ====================================================

A cell transfers on a clock edge where ``req & gnt`` (respectively
``r_req & r_gnt``) were both high during the preceding cycle.
"""

from __future__ import annotations

from operator import attrgetter
from typing import List, Optional

from ..kernel import Module, Signal
from .packet import Cell, RespCell
from .types import (
    ADDR_WIDTH,
    OPC_WIDTH,
    PRI_WIDTH,
    R_OPC_WIDTH,
    SRC_WIDTH,
    TID_WIDTH,
)

#: Request-channel payload fields, in (name, width-or-None) form.
#: None means "data width dependent" (resolved per port).
REQUEST_FIELDS = (
    ("add", ADDR_WIDTH),
    ("opc", OPC_WIDTH),
    ("data", None),
    ("be", None),
    ("eop", 1),
    ("lck", 1),
    ("tid", TID_WIDTH),
    ("src", SRC_WIDTH),
    ("pri", PRI_WIDTH),
)

RESPONSE_FIELDS = (
    ("r_opc", R_OPC_WIDTH),
    ("r_data", None),
    ("r_eop", 1),
    ("r_src", SRC_WIDTH),
    ("r_tid", TID_WIDTH),
)

#: What a bundle hold presents before its first drive: nothing yet.
_UNDRIVEN = object()

#: A cell's pin values after ``req``/``r_req``, in pin order.
_request_values = attrgetter(*(name for name, _ in REQUEST_FIELDS))
_response_values = attrgetter(*(name for name, _ in RESPONSE_FIELDS))


def _present(cell, first: bool, pins, idle, values) -> None:
    """Move one channel to ``cell`` (None: idle, every pin 0), driving
    the pins whose pending value differs, or every pin when ``first``.
    ``pins`` are the handshake pin then the fields ``values(cell)``
    reads; ``idle`` is the order idle drives them in."""
    if cell is None:
        for sig in idle:
            if first or sig._next:
                sig.drive(0)
    else:
        for sig, value in zip(pins, (1, *values(cell))):
            if first or sig._next != value:
                sig.drive(value)


class StbusPort:
    """Type II/III signal bundle scoped as ``<module>.<name>.*``."""

    def __init__(self, module: Module, name: str, width_bits: int):
        if width_bits % 8:
            raise ValueError("data width must be a whole number of bytes")
        self.name = f"{module.name}.{name}"
        self.width_bits = width_bits
        self.bus_bytes = width_bits // 8
        make = module.signal
        self.req = make(f"{name}.req")
        self.gnt = make(f"{name}.gnt")
        self.add = make(f"{name}.add", ADDR_WIDTH)
        self.opc = make(f"{name}.opc", OPC_WIDTH)
        self.data = make(f"{name}.data", width_bits)
        self.be = make(f"{name}.be", max(1, width_bits // 8))
        self.eop = make(f"{name}.eop")
        self.lck = make(f"{name}.lck")
        self.tid = make(f"{name}.tid", TID_WIDTH)
        self.src = make(f"{name}.src", SRC_WIDTH)
        self.pri = make(f"{name}.pri", PRI_WIDTH)
        self.r_req = make(f"{name}.r_req")
        self.r_gnt = make(f"{name}.r_gnt")
        self.r_opc = make(f"{name}.r_opc", R_OPC_WIDTH)
        self.r_data = make(f"{name}.r_data", width_bits)
        self.r_eop = make(f"{name}.r_eop")
        self.r_src = make(f"{name}.r_src", SRC_WIDTH)
        self.r_tid = make(f"{name}.r_tid", TID_WIDTH)
        #: The cell on each channel's pins (None: idle), or _UNDRIVEN.
        self._request_held: object = _UNDRIVEN
        self._response_held: object = _UNDRIVEN
        # A cell drives its channel's pins in field order and idle zeroes
        # them handshake pins first, each in the order of a full drive.
        # The drive order is the commit order, and that sets the order in
        # which the changed pins wake combinational processes.
        self._request_pins = (
            self.req, self.add, self.opc, self.data, self.be, self.eop,
            self.lck, self.tid, self.src, self.pri,
        )
        self._response_pins = (
            self.r_req, self.r_opc, self.r_data, self.r_eop, self.r_src,
            self.r_tid,
        )
        self._request_idle = (
            self.req, self.eop, self.lck, self.add, self.opc, self.data,
            self.be, self.tid, self.src, self.pri,
        )
        self._response_idle = (
            self.r_req, self.r_eop, self.r_opc, self.r_data, self.r_src,
            self.r_tid,
        )

    # -- observation ----------------------------------------------------------

    @property
    def request_fired(self) -> bool:
        """A request cell transfers at the next clock edge."""
        return bool(self.req.value and self.gnt.value)

    @property
    def response_fired(self) -> bool:
        return bool(self.r_req.value and self.r_gnt.value)

    def request_cell(self) -> Cell:
        """Snapshot the request-channel fields as a :class:`Cell`.

        Clocked observers call it, so it reads the committed values
        directly (in field order), never through the dry run's hooks.
        """
        return Cell(self.add._value, self.opc._value, self.data._value,
                    self.be._value, self.eop._value, self.lck._value,
                    self.tid._value, self.src._value, self.pri._value)

    def response_cell(self) -> RespCell:
        return RespCell(self.r_opc._value, self.r_data._value,
                        self.r_eop._value, self.r_src._value,
                        self.r_tid._value)

    # -- held bundles (registered outputs, driven only on a change) ----------

    def present_request(self, cell: Optional[Cell]) -> None:
        """Present ``cell`` on the request pins, or idle (every request pin
        0) for None, driving only the pins whose value changes.

        The pins are registered, so a skipped drive leaves every value
        where it was; the first presentation drives every pin.  Only the
        one process that owns this channel may call it: the hold trusts
        that each pin's pending value is its own last drive.
        """
        held = self._request_held
        if cell is not held:
            self._request_held = cell
            _present(cell, held is _UNDRIVEN, self._request_pins,
                     self._request_idle, _request_values)

    def present_response(self, cell: Optional[RespCell]) -> None:
        """The response-channel twin of :meth:`present_request`."""
        held = self._response_held
        if cell is not held:
            self._response_held = cell
            _present(cell, held is _UNDRIVEN, self._response_pins,
                     self._response_idle, _response_values)

    def signals(self) -> List[Signal]:
        """All bundle signals (the analyzer's per-port comparison set)."""
        return [
            self.req, self.gnt, self.add, self.opc, self.data, self.be,
            self.eop, self.lck, self.tid, self.src, self.pri,
            self.r_req, self.r_gnt, self.r_opc, self.r_data, self.r_eop,
            self.r_src, self.r_tid,
        ]

    def request_signals(self) -> List[Signal]:
        """Request-channel fields owned by the requesting side (not gnt).

        This is the write set of whatever drives requests into this port —
        an initiator BFM, or the node's target-side output stage.  Used by
        the static lint pass's clocked write/read declarations.
        """
        return list(self._request_pins)

    def response_signals(self) -> List[Signal]:
        """Response-channel fields owned by the responding side (not r_gnt)."""
        return list(self._response_pins)


#: Type I command encodings (limited command set).
T1_IDLE = 0
T1_READ = 1
T1_WRITE = 2


class Type1Port:
    """Type I bundle: synchronous req/ack handshake, single outstanding.

    Used for register access — in this reproduction, the node's optional
    programming port and the register decoder component.
    """

    def __init__(self, module: Module, name: str, width_bits: int = 32):
        if width_bits % 8:
            raise ValueError("data width must be a whole number of bytes")
        self.name = f"{module.name}.{name}"
        self.width_bits = width_bits
        self.bus_bytes = width_bits // 8
        make = module.signal
        self.req = make(f"{name}.req")
        self.ack = make(f"{name}.ack")
        self.opc = make(f"{name}.opc", 2)
        self.add = make(f"{name}.add", ADDR_WIDTH)
        self.wdata = make(f"{name}.wdata", width_bits)
        self.rdata = make(f"{name}.rdata", width_bits)
        self.be = make(f"{name}.be", max(1, width_bits // 8))

    @property
    def fired(self) -> bool:
        """The transfer completes at the next clock edge."""
        return bool(self.req.value and self.ack.value)

    def signals(self) -> List[Signal]:
        return [
            self.req, self.ack, self.opc, self.add,
            self.wdata, self.rdata, self.be,
        ]
