"""Programming-port master — drives the node's Type I register port.

Section 5: the node "has an optional programmable port allowing changing
the arbitration priority of initiators or targets"; test case T07 uses
this master to reprogram priorities mid-test.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..kernel import Module, Simulator, drive_changes
from ..stbus import T1_IDLE, T1_READ, T1_WRITE, Type1Port
from .sequence import ProgOp

#: The command pins of an idle master.
_IDLE = (0, T1_IDLE, 0, 0, 0)


class ProgrammingMaster(Module):
    """Executes a schedule of register reads/writes over a Type I port."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        port: Type1Port,
        schedule: Sequence[ProgOp] = (),
        parent: Optional[Module] = None,
    ):
        super().__init__(sim, name, parent)
        self.port = port
        self._schedule: List[ProgOp] = sorted(schedule, key=lambda op: op.cycle)
        self._idx = 0
        self._active: Optional[ProgOp] = None
        self.completed: List[ProgOp] = []
        self.read_values: List[int] = []
        #: req, opc, add, wdata, be: the pins _clk drives, and the
        #: values it drove last (None: not yet driven).
        self._pins = (port.req, port.opc, port.add, port.wdata, port.be)
        self._held: Optional[Tuple[int, ...]] = None
        self.clocked(
            self._clk,
            reads=[port.req, port.ack, port.rdata],
            writes=self._pins,
        )

    def load_schedule(self, schedule: Sequence[ProgOp]) -> None:
        self._schedule = sorted(schedule, key=lambda op: op.cycle)

    @property
    def done(self) -> bool:
        return self._active is None and self._idx >= len(self._schedule)

    def _clk(self) -> None:
        port = self.port
        if self._active is not None and port.fired:
            if not self._active.is_write:
                self.read_values.append(port.rdata.value)
            self.completed.append(self._active)
            self._active = None
        if self._active is None and self._idx < len(self._schedule) \
                and self._schedule[self._idx].cycle <= self.sim.now:
            self._active = self._schedule[self._idx]
            self._idx += 1
        if self._active is not None:
            op = self._active
            values = (1, T1_WRITE if op.is_write else T1_READ,
                      (op.index * 4) & port.add.mask,
                      op.value & port.wdata.mask, port.be.mask)
        else:
            values = _IDLE
        # The command pins are registered and this process's alone:
        # drive only the ones that change.
        if values != self._held:
            self._held = drive_changes(self._pins, values, self._held)
