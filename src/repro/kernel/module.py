"""Hierarchical module base class.

Plays the role of the SystemC ``SC_MODULE`` / VHDL entity in the paper's
flow: a named container that owns signals (its pins and internal nets) and
registers processes with the simulator.  Port *binding* is by reference —
two modules that should share a wire are simply handed the same
:class:`~repro.kernel.signal.Signal` object, mirroring how the paper's VHDL
testbench declares the signals and both the wrapper and the eVCs connect to
them.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Optional

from .signal import Signal
from .simulator import Simulator


class Module:
    """Base class for simulated hardware and verification components.

    Subclasses receive the simulator and a hierarchical name; helpers create
    signals scoped under that name and register processes.  A module made
    with a ``parent`` is named under it; the VCD writer turns those dotted
    names into nested scopes.  A parent keeps no list of its children.
    """

    def __init__(self, sim: Simulator, name: str, parent: Optional["Module"] = None):
        self.sim = sim
        self.parent = parent
        self.name = name if parent is None else f"{parent.name}.{name}"

    # -- construction helpers -------------------------------------------------

    def signal(self, name: str, width: int = 1, init: int = 0) -> Signal:
        """Create a signal named under this module's scope."""
        return self.sim.signal(f"{self.name}.{name}", width=width, init=init)

    def clocked(
        self,
        process: Callable[[], None],
        *,
        name: Optional[str] = None,
        reads: Optional[Iterable[Signal]] = None,
        writes: Optional[Iterable[Signal]] = None,
        tie_offs: Optional[Dict[Signal, int]] = None,
        domain: Optional[str] = None,
    ) -> None:
        """Register a posedge process, named under this module's scope.

        ``reads``/``writes`` optionally declare every signal the process
        may ever read or drive; ``tie_offs`` declares unconditional
        constant drives and ``domain`` the clock domain.  The static
        lint/analysis passes use the declarations to reason about clocked
        dataflow (see :meth:`repro.kernel.Simulator.add_clocked`).
        """
        self.sim.add_clocked(
            process, name=self._process_name(process, name),
            reads=reads, writes=writes, tie_offs=tie_offs, domain=domain,
        )

    def comb(
        self,
        process: Callable[[], None],
        sensitive_to: Iterable[Signal],
        *,
        name: Optional[str] = None,
    ) -> None:
        """Register a combinational process with a sensitivity list."""
        self.sim.add_comb(
            process, sensitive_to, name=self._process_name(process, name),
        )

    def _process_name(self, process: Callable[[], None],
                      name: Optional[str]) -> str:
        base = name or getattr(process, "__name__", "proc")
        return f"{self.name}.{base}"

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}({self.name!r})"
