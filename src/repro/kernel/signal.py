"""Two-state signals for the cycle-based simulation kernel.

A :class:`Signal` models a wire or register output visible at the pin level.
Reads always observe the *current* committed value; writes go to a shadow
``next`` value that the simulator commits between delta cycles.  This gives
the usual RTL simulation contract: every process scheduled in the same delta
sees the same stable snapshot, and combinational feedback settles through
repeated delta cycles rather than through Python call ordering.

Values are plain non-negative integers masked to the signal width (2-state
simulation: no ``X``/``Z``; the paper's flow compares VCD dumps of two
2-state-equivalent models, so 4-state resolution is not needed).

A signal remembers only the process that wrote its pending value
(``_writer``), so a :class:`MultipleDriverError` names both offending
processes instead of printing bare values.  It keeps no history of past
drivers: the static lint pass takes its multi-driver evidence from each
process's write set, declared at registration or recorded by the
elaboration dry run (:class:`~repro.kernel.simulator.ProcessInfo`).

Fast path
---------

Reads and writes carry per-access overhead that only matters *during*
elaboration: the read/write attribution hooks exist solely for the
one-shot dry run that feeds the static lint pass.  Once
:meth:`~repro.kernel.simulator.Simulator.elaborate` returns, the
simulator flips every bound signal to :class:`_FastSignal`, a
layout-compatible subclass whose accessors skip the hook checks entirely.
All contracts survive the switch: :class:`WidthError` and
:class:`MultipleDriverError` are still raised with the same
process-named messages.  :meth:`~repro.kernel.simulator.Simulator.finish`
unbinds every signal and reverts it to :class:`Signal`, so a signal
outlives its run without pointing back at the simulator.
"""

from __future__ import annotations

import operator
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from .simulator import Simulator


class SignalError(Exception):
    """Base class for signal-related simulation errors."""


class MultipleDriverError(SignalError):
    """Two different processes drove conflicting values in one delta."""


class WidthError(SignalError):
    """A value outside the representable range was driven onto a signal."""


def multiple_driver_message(
    name: str, held: int, held_by: str, value: int, new_by: str
) -> str:
    """The canonical :class:`MultipleDriverError` text.

    Both drive paths — the guarded elaboration accessors and the
    post-elaboration fast path — format conflicts through this one
    helper, so the diagnostics carry identical process names and wording
    before and after elaboration.
    """
    return (
        f"signal {name!r}: driven to {held} by process {held_by} and to "
        f"{value} by process {new_by} in the same delta cycle"
    )


def drive_changes(signals, values, held):
    """Drive each of ``signals`` whose value in ``values`` differs from
    ``held``, the values this sole writer drove last (every one when
    ``held`` is None), and return ``values``, the new held values.

    A pin keeps its value until its next drive, so a re-drive of the
    held value would only schedule a commit that changes nothing.  The
    caller is the pin's one writer: a second, undeclared writer of a
    held pin can miss its :class:`MultipleDriverError`, which the lint
    pass's declared-writer ``multi-driver`` rule still catches.
    """
    if held is None:
        for sig, value in zip(signals, values):
            sig.drive(value)
    else:
        for sig, value, old in zip(signals, values, held):
            if value != old:
                sig.drive(value)
    return values


class Signal:
    """A named, fixed-width, 2-state wire with deferred-commit semantics.

    Parameters
    ----------
    name:
        Hierarchical name (``top.dut.req``); used for VCD dumping and
        error messages.
    width:
        Bit width (>= 1).  Values are masked against ``(1 << width) - 1``;
        driving a value that does not fit raises :class:`WidthError`.
    init:
        Reset value, committed before time zero.
    """

    __slots__ = (
        "name",
        "width",
        "mask",
        "init",
        "_value",
        "_next",
        "_pending",
        "_writer",
        "_sim",
        "vcd_id",
    )

    def __init__(self, name: str, width: int = 1, init: int = 0) -> None:
        if width < 1:
            raise WidthError(f"signal {name!r}: width must be >= 1, got {width}")
        self.name = name
        self.width = width
        self.mask = (1 << width) - 1
        if init < 0 or init > self.mask:
            raise WidthError(
                f"signal {name!r}: init value {init} does not fit in {width} bits"
            )
        self.init = init
        self._value: int = init
        self._next: int = init
        self._pending = False
        self._writer: Optional[object] = None
        self._sim: Optional["Simulator"] = None
        self.vcd_id: Optional[str] = None

    # -- read side ---------------------------------------------------------

    @property
    def value(self) -> int:
        """The committed value, stable within a delta cycle."""
        sim = self._sim
        if sim is not None and sim._read_hook is not None:
            sim._read_hook(self)
        return self._value

    def __bool__(self) -> bool:
        sim = self._sim
        if sim is not None and sim._read_hook is not None:
            sim._read_hook(self)
        return self._value != 0

    def __int__(self) -> int:
        sim = self._sim
        if sim is not None and sim._read_hook is not None:
            sim._read_hook(self)
        return self._value

    def __index__(self) -> int:
        sim = self._sim
        if sim is not None and sim._read_hook is not None:
            sim._read_hook(self)
        return self._value

    # -- write side --------------------------------------------------------

    def drive(self, value: int) -> None:
        """Schedule ``value`` to be committed at the end of this delta.

        Conflicting writes from two different processes in the same delta
        raise :class:`MultipleDriverError`; re-driving the same value is
        allowed (idempotent fan-in of identical drivers is common in
        combinational code).
        """
        value = int(value)
        sim = self._sim
        if sim is not None and sim._write_hook is not None:
            # The hook runs before validation so the lint pass can record
            # over-wide drive attempts with their driving process.
            sim._write_hook(self, value)
        if value < 0 or value > self.mask:
            raise WidthError(
                f"signal {self.name!r}: value {value} does not fit in "
                f"{self.width} bits"
            )
        writer = sim.active_process if sim is not None else None
        if self._pending:
            if self._next != value and self._writer is not writer:
                if sim is not None:
                    held_by = sim.process_label(self._writer)
                    new_by = sim.process_label(writer)
                else:  # unbound signal: best effort
                    held_by = repr(self._writer)
                    new_by = repr(writer)
                raise MultipleDriverError(
                    multiple_driver_message(
                        self.name, self._next, held_by, value, new_by
                    )
                )
            self._next = value
            self._writer = writer
            return
        self._next = value
        self._pending = True
        self._writer = writer
        if sim is not None:
            sim._schedule_commit(self)

    @property
    def next(self) -> int:
        """The pending (not yet committed) value."""
        return self._next

    @next.setter
    def next(self, value: int) -> None:
        self.drive(value)

    def poke(self, value: int) -> None:
        """Drive ``value`` and commit it immediately.

        For replaying recorded traces onto unbound signals (the VCD
        ``dump_to_string`` helper, testbench scaffolding) — not for use
        inside simulation processes, where the deferred-commit contract
        of :meth:`drive` applies.
        """
        self.drive(value)
        self._commit()

    # -- kernel interface ----------------------------------------------------

    def _bind(self, sim: "Simulator") -> None:
        if self._sim is not None and self._sim is not sim:
            raise SignalError(
                f"signal {self.name!r} is already bound to another simulator"
            )
        self._sim = sim

    def _enable_fast_path(self) -> None:
        """Swap in the post-elaboration fast accessors (idempotent).

        Only bound signals switch: an unbound signal has no simulator to
        take ``active_process`` from, so it keeps the guarded slow path.
        """
        if self._sim is not None and type(self) is Signal:
            self.__class__ = _FastSignal

    def _commit(self) -> bool:
        """Apply the pending value. Returns True if the value changed."""
        self._pending = False
        self._writer = None
        if self._next != self._value:
            self._value = self._next
            return True
        return False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Signal({self.name!r}, width={self.width}, value={self._value})"


class _FastSignal(Signal):
    """Post-elaboration accessors with the dry-run hook checks removed.

    The attribution hooks (``sim._read_hook``/``sim._write_hook``) only
    ever exist while :meth:`Simulator.elaborate` runs; afterwards every
    read paid two attribute loads and a comparison for nothing, on the
    hottest path in the kernel.  ``__slots__`` stays empty so instances
    keep the exact :class:`Signal` layout and ``__class__`` assignment is
    legal.  Width validation and the :class:`MultipleDriverError`
    diagnostics are byte-for-byte the same as the slow path.
    """

    __slots__ = ()

    # A C-level getter: model code reads ``.value`` without a Python frame.
    value = property(operator.attrgetter("_value"),
                     doc="The committed value, stable within a delta cycle.")

    def __bool__(self) -> bool:
        return self._value != 0

    def __int__(self) -> int:
        return self._value

    def __index__(self) -> int:
        return self._value

    def drive(self, value: int) -> None:
        if type(value) is not int:
            value = int(value)
        if value < 0 or value > self.mask:
            raise WidthError(
                f"signal {self.name!r}: value {value} does not fit in "
                f"{self.width} bits"
            )
        sim = self._sim
        writer = sim.active_process
        if self._pending:
            if self._next != value and self._writer is not writer:
                raise MultipleDriverError(
                    multiple_driver_message(
                        self.name, self._next,
                        sim.process_label(self._writer),
                        value, sim.process_label(writer),
                    )
                )
            self._next = value
            self._writer = writer
            return
        self._next = value
        self._pending = True
        self._writer = writer
        sim._commit_queue.append(self)

    # ``next`` is re-declared so the setter dispatches to the fast drive
    # without an extra method-resolution hop through the base property.
    @property
    def next(self) -> int:
        return self._next

    @next.setter
    def next(self, value: int) -> None:
        self.drive(value)
