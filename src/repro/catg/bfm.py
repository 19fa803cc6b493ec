"""Initiator BFM — the CATG "harness" that generates bus traffic.

Each eVC in Fig. 2 "is endowed with BFMs that generate random scenarios".
The BFM owns the initiator side of one STBus port: it serializes a list of
:class:`~repro.stbus.packet.Transaction` objects into request cells
(respecting the req/gnt handshake), inserts the inter-packet gaps its
sequence prescribes, and always accepts response cells.

Determinism: the BFM's behaviour is a pure function of its transaction
list, gap list and the DUT's grant timing — the same seeded sequence run
against the RTL and BCA views produces identical stimulus, which is what
makes the paper's cycle-alignment comparison meaningful.

The request side itself is the pin-free :class:`RequestSequencer`, which
the standalone BCA mode (:mod:`repro.bca.fast`) drives directly, so both
BCA drivers see the same stimulus.

The request pins are registered outputs the BFM alone drives, and a
signal keeps its committed value until its next drive.  So the BFM drives
the bundle only when the presented cell changes (a new cell, or the move
to or from idle) and holds it otherwise; the pins read the same on every
cycle as if it re-drove them.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..kernel import Module, Simulator
from ..stbus import (
    Cell,
    ProtocolType,
    StbusPort,
    Transaction,
    build_request_cells,
)

#: ``_presented`` before the first activation: nothing driven yet.
_UNDRIVEN = object()


class RequestSequencer:
    """The initiator BFM's request side, without pins.

    It walks a ``(transaction, gap)`` program cell by cell: ``gap`` idle
    cycles, then the transaction's request cells, each held until it is
    granted.  :class:`InitiatorBfm` adds the port; the standalone BCA mode
    (:mod:`repro.bca.fast`) drives a sequencer directly.
    """

    def __init__(self, program: Sequence[Tuple[Transaction, int]],
                 bus_bytes: int, protocol: ProtocolType):
        self.protocol = protocol
        self.bus_bytes = bus_bytes
        self._program: List[Tuple[Transaction, int]] = list(program)
        self._next_txn = 0
        self._cells: List[Cell] = []
        self._cell_idx = 0
        self._gap_left = 0
        self._gap_primed = False
        self._tid_counter = 0
        #: Every transaction begun, in order; the last is the one presented.
        self.sent: List[Transaction] = []

    def load_program(self, program: Sequence[Tuple[Transaction, int]]) -> None:
        """Replace the program (before the simulation starts)."""
        self._program = list(program)

    @property
    def done(self) -> bool:
        """All transactions fully injected (responses may still be in flight)."""
        return self._next_txn >= len(self._program) and not self._cells

    def presented(self) -> Optional[Cell]:
        """The request cell presented this cycle (None: idle)."""
        return self._cells[self._cell_idx] if self._cells else None

    def advance(self, granted: bool) -> None:
        """At an edge: step past the cell granted before it, and begin the
        next transaction when the current one is over."""
        if self._cells and granted:
            if self._cells[self._cell_idx].eop:
                self._cells = []
                self._cell_idx = 0
            else:
                self._cell_idx += 1
        if not self._cells:
            self._begin_next()

    def _begin_next(self) -> None:
        if self._next_txn >= len(self._program):
            return
        txn, gap = self._program[self._next_txn]
        if not self._gap_primed:
            self._gap_left = gap
            self._gap_primed = True
        if self._gap_left > 0:
            self._gap_left -= 1
            return
        self._next_txn += 1
        self._gap_primed = False
        txn.tid = self._tid_counter & 0xFF
        self._tid_counter += 1
        self._cells = build_request_cells(txn, self.bus_bytes, self.protocol)
        self._cell_idx = 0
        self.sent.append(txn)


class InitiatorBfm(Module, RequestSequencer):
    """Drives the initiator side of ``port`` with a transaction program.

    Parameters
    ----------
    program:
        ``(transaction, gap)`` pairs; ``gap`` is the number of idle cycles
        inserted *before* the transaction's first cell is presented.
    protocol:
        Governs packet geometry (Type II symmetric / Type III asymmetric).
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        port: StbusPort,
        protocol: ProtocolType,
        program: Sequence[Tuple[Transaction, int]] = (),
        parent: Optional[Module] = None,
    ):
        Module.__init__(self, sim, name, parent)
        RequestSequencer.__init__(self, program, port.bus_bytes, protocol)
        self.port = port
        #: The cell on the request pins (None: idle), or _UNDRIVEN.
        self._presented: object = _UNDRIVEN
        self.response_packets: List[List] = []
        self._resp_assembly: List = []
        self.clocked(
            self._clk,
            reads=[port.req, port.gnt, port.r_gnt] + port.response_signals(),
            writes=port.request_signals() + [port.r_gnt],
            # src/r_gnt are driven once, on the first activation, and
            # held at that constant; declaring the tie-off lets the
            # static analysis treat them as proven constants.
            tie_offs={port.src: 0, port.r_gnt: 1},
        )

    def _clk(self) -> None:
        port = self.port
        # Record response cells (the scoreboard uses monitors; keeping a
        # local copy makes the BFM usable standalone in unit tests).
        if port.r_req._value and port.r_gnt._value:
            cell = port.response_cell()
            self._resp_assembly.append(cell)
            if cell.r_eop:
                self.response_packets.append(self._resp_assembly)
                self._resp_assembly = []
        # Consume the grant observed during the previous cycle.
        self.advance(port.req._value and port.gnt._value)
        # Present the current cell (registered outputs, held between
        # changes).
        cell = self.presented()
        if cell is not self._presented:
            self._drive_request(cell)
            if self._presented is _UNDRIVEN:
                port.src.drive(0)  # meaningful only on the node's target side
                port.r_gnt.drive(1)  # the BFM always absorbs response cells
            self._presented = cell

    def _drive_request(self, cell: Optional[Cell]) -> None:
        """Drive every request pin but ``src`` with ``cell`` (None: idle)."""
        port = self.port
        if cell is None:
            port.idle_request()
            port.add.drive(0)
            port.opc.drive(0)
            port.data.drive(0)
            port.be.drive(0)
            port.tid.drive(0)
            port.pri.drive(0)
            return
        port.req.drive(1)
        port.add.drive(cell.add)
        port.opc.drive(cell.opc)
        port.data.drive(cell.data)
        port.be.drive(cell.be)
        port.eop.drive(cell.eop)
        port.lck.drive(cell.lck)
        port.tid.drive(cell.tid)
        port.pri.drive(cell.pri)
