"""BCA (bus-cycle-accurate) view of the STBus node.

A second, independent implementation of the node specification, written
the way SystemC BCA models are: transaction-level state machines and timed
queues instead of register stages, quantized to clock cycles and driving
the very same pin interface as the RTL view.  The common verification
environment plugs either view into the same testbench; the bus analyzer
then checks that the two stay cycle-aligned at every port.

:class:`BcaNode` is the pin adapter of the model.  The transaction engine
itself is the pin-free :class:`~repro.bca.core.BcaCore`, which the
standalone fast mode (:mod:`repro.bca.fast`) runs too, so the model the
common environment verifies is the model architecture exploration uses.
Each registered process reads its pins, calls the core and drives the
node's outputs.

The model optionally carries the five seeded bugs of
:mod:`repro.bca.bugs`, which reproduce the paper's headline result (five
BCA bugs found by the common environment, all invisible to the past
flow).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from ..kernel import Module, Simulator
from ..stbus import NodeConfig, StbusPort, T1_WRITE, Type1Port
from .core import BcaCore


class BcaNode(Module):
    """Transaction-level, cycle-quantized STBus node model."""

    view = "bca"

    def __init__(
        self,
        sim: Simulator,
        name: str,
        config: NodeConfig,
        init_ports: Sequence[StbusPort],
        targ_ports: Sequence[StbusPort],
        prog_port: Optional[Type1Port] = None,
        parent: Optional[Module] = None,
        bugs: Iterable[str] = (),
    ):
        super().__init__(sim, name, parent)
        config.validate()
        if len(init_ports) != config.n_initiators:
            raise ValueError("init_ports count does not match configuration")
        if len(targ_ports) != config.n_targets:
            raise ValueError("targ_ports count does not match configuration")
        if config.has_programming_port and prog_port is None:
            raise ValueError("configuration requires a programming port")
        self.config = config
        self.core = BcaCore(config, bugs)
        self.bugs = self.core.bugs
        self.stats: Dict[str, int] = self.core.stats
        self.init_ports = list(init_ports)
        self.targ_ports = list(targ_ports)
        self.prog_port = prog_port
        # Readiness as the core reads it: a port takes a cell while its
        # grant signal is high.
        self._targ_gnt = [port.gnt for port in self.targ_ports]
        self._init_r_gnt = [port.r_gnt for port in self.init_ports]

        self._tick = self.signal("tick")
        self._err_pop = [
            self.signal(f"err_pop{i}") for i in range(config.n_initiators)
        ]

        pin_universe = [
            sig for port in self.init_ports + self.targ_ports
            for sig in port.signals()
        ]
        if self.prog_port is not None:
            pin_universe += self.prog_port.signals()
        clk_writes = [self._tick]
        for port in self.targ_ports:
            clk_writes += port.request_signals()
        for port in self.init_ports:
            clk_writes += port.response_signals()
        self.clocked(
            self._on_clock,
            reads=pin_universe + [self._tick] + self._err_pop,
            writes=clk_writes,
        )
        sens = [self._tick]
        for port in self.init_ports:
            sens += [port.req, port.add, port.eop, port.lck]
        for port in self.targ_ports:
            sens += [port.gnt]
        self.comb(self._compute_grants, sens)
        rsens = [self._tick]
        for port in self.targ_ports:
            rsens += [port.r_req, port.r_src, port.r_eop]
        for port in self.init_ports:
            rsens += [port.r_gnt]
        self.comb(self._compute_response_grants, rsens)
        if self.prog_port is not None:
            self.comb(
                self._prog_comb,
                [self._tick, self.prog_port.req, self.prog_port.add],
            )

    def _requests(self) -> List[Optional[int]]:
        """The address on each initiator's request pins (None: no req)."""
        return [
            port.add.value if port.req.value else None
            for port in self.init_ports
        ]

    # ------------------------------------------------------------------
    # combinational: grants
    # ------------------------------------------------------------------

    def _compute_grants(self) -> None:
        grants = self.core.request_grants(self._requests(), self._targ_gnt)
        for port, gnt in zip(self.init_ports, grants):
            port.gnt.drive(gnt)

    def _compute_response_grants(self) -> None:
        r_srcs = [
            port.r_src.value if port.r_req.value else None
            for port in self.targ_ports
        ]
        r_gnts, err_pops = self.core.response_grants(
            self.sim.now, r_srcs, self._init_r_gnt)
        for port, r_gnt in zip(self.targ_ports, r_gnts):
            port.r_gnt.drive(r_gnt)
        for sig, pop in zip(self._err_pop, err_pops):
            sig.drive(pop)

    def _prog_comb(self) -> None:
        port = self.prog_port
        assert port is not None
        port.ack.drive(port.req.value)
        port.rdata.drive(self.core.prog_read(port.add.value)
                         & port.rdata.mask)

    # ------------------------------------------------------------------
    # clocked: the transaction engine's edge
    # ------------------------------------------------------------------

    def _on_clock(self) -> None:
        # What transferred during the previous cycle?
        self.core.edge(
            self.sim.now,
            self._requests(),
            [port.request_cell() if port.request_fired else None
             for port in self.init_ports],
            [port.response_cell() if port.response_fired else None
             for port in self.targ_ports],
            [sig.value for sig in self._err_pop],
            self._targ_gnt,
            self._init_r_gnt,
        )
        self._prog_clock()
        self._drive_outputs()
        self._tick.drive(self._tick.value ^ 1)

    def _prog_clock(self) -> None:
        port = self.prog_port
        if port is None:
            return
        if not (port.req.value and port.ack.value):
            return
        if port.opc.value != T1_WRITE:
            return
        self.core.prog_write(port.add.value, port.wdata.value)

    def _drive_outputs(self) -> None:
        visible = {
            item.target: item for item in self.core.req_heads
            if item is not None
        }
        for t, port in enumerate(self.targ_ports):
            item = visible.get(t)
            port.present_request(None if item is None else item.cell)
        visible_resp = {
            item.dest: item for item in self.core.resp_heads
            if item is not None
        }
        for i, port in enumerate(self.init_ports):
            item = visible_resp.get(i)
            port.present_response(None if item is None else item.cell)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def outstanding_count(self, initiator: int) -> int:
        return self.core.outstanding_count(initiator)

    def prog_register(self, idx: int) -> int:
        return self.core.prog_regs[idx]
