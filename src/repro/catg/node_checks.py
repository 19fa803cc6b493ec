"""Node-specific checks: the arbitration reference checker.

Section 5: "Specific checks, not covered by CATG, have also been
developed."  For the node, the interesting DUT-specific behaviour is
*arbitration*: which initiator the node grants, per policy, per cycle.

:class:`ArbitrationChecker` rebuilds the grant function of the node
specification purely from pin observations — reference arbiter instances
(shared spec code from :mod:`repro.stbus.arbitration`), packet/chunk
locks, pipe occupancy reconstructed from cells-in minus cells-out, the
Type II ordering rule and the split-transaction credit — and compares the
node's actual ``gnt`` pins against the prediction every cycle.

This is the mechanism that catches the seeded BCA bugs
``lru-recency-stuck``, ``chunk-lock-ignored`` and ``prog-update-stale``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..kernel import Module, Simulator
from ..stbus import (
    ERROR_TARGET,
    Architecture,
    ArbitrationPolicy,
    NodeConfig,
    Opcode,
    OpcodeError,
    ProtocolType,
    StbusPort,
    T1_WRITE,
    Type1Port,
    make_arbiter,
)
from ..stbus.arbitration import LatencyArbiter, ProgrammablePriorityArbiter
from .report import VerificationReport


@dataclass
class _Flight:
    target: int
    tid: int


class ArbitrationChecker(Module):
    """Reference-model checker for the node's request-side grant logic."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        config: NodeConfig,
        init_ports: Sequence[StbusPort],
        targ_ports: Sequence[StbusPort],
        report: VerificationReport,
        prog_port: Optional[Type1Port] = None,
        parent: Optional[Module] = None,
    ):
        super().__init__(sim, name, parent)
        self.config = config
        self.init_ports = list(init_ports)
        self.targ_ports = list(targ_ports)
        self.prog_port = prog_port
        self.report = report
        self.shared = config.architecture is Architecture.SHARED_BUS
        n_domains = 1 if self.shared else config.n_targets
        self._arb = [
            make_arbiter(
                config.arbitration,
                config.n_initiators,
                priorities=config.priorities,
                latency_budgets=config.latency_budgets,
                bandwidth_allocations=config.bandwidth_allocations,
                bandwidth_window=config.bandwidth_window,
            )
            for _ in range(n_domains)
        ]
        self._busy: List[Optional[int]] = [None] * n_domains
        self._chunk: List[Optional[int]] = [None] * n_domains
        self._occupancy: List[int] = [0] * n_domains
        self._route: List[Optional[int]] = [None] * config.n_initiators
        self._flights: List[List[_Flight]] = [
            [] for _ in range(config.n_initiators)
        ]
        self.checked_cycles = 0
        observed = [
            sig for port in self.init_ports + self.targ_ports
            for sig in port.signals()
        ]
        if prog_port is not None:
            observed += prog_port.signals()
        self.clocked(self._clk, reads=observed, writes=())

    # -- shared spec helpers ----------------------------------------------------

    def _domain(self, target: int) -> int:
        return 0 if self.shared else target

    def _destinations(self) -> List[Optional[int]]:
        """Each initiator's requested target this cycle (None: no req)."""
        dests: List[Optional[int]] = []
        for i, port in enumerate(self.init_ports):
            if not port.req._value:
                dests.append(None)
            elif self._route[i] is not None:
                dests.append(self._route[i])
            else:
                dests.append(self.config.route(i, port.add._value))
        return dests

    def _may_open(self, initiator: int, target: int) -> bool:
        flights = self._flights[initiator]
        if len(flights) >= self.config.max_outstanding:
            return False
        if self.config.protocol_type is ProtocolType.T2:
            return all(flight.target == target for flight in flights)
        return True

    def _domain_fired(self, domain: int) -> bool:
        if self.shared:
            return any(
                port.req._value and port.gnt._value for port in self.targ_ports
            )
        port = self.targ_ports[domain]
        return bool(port.req._value and port.gnt._value)

    # -- the reference grant function -----------------------------------------

    def _expected_grants(self) -> List[int]:
        grants = [0] * self.config.n_initiators
        # One pass over the initiators, bucketed by domain in ascending
        # index order; error-engine packets are granted outright.
        eligible: List[List[int]] = [[] for _ in self._arb]
        for i, dest in enumerate(self._destinations()):
            if dest is None:
                continue
            if self._route[i] is None and not self._may_open(i, dest):
                continue
            if dest == ERROR_TARGET:
                grants[i] = 1
            else:
                eligible[self._domain(dest)].append(i)
        for domain, candidates in enumerate(eligible):
            if not candidates:
                continue
            if not (self._domain_fired(domain)
                    or self._occupancy[domain] < self.config.pipe_depth):
                continue
            if self._busy[domain] is not None:
                winner = self._busy[domain] \
                    if self._busy[domain] in candidates else None
            elif self._chunk[domain] is not None:
                winner = self._chunk[domain] \
                    if self._chunk[domain] in candidates else None
            else:
                winner = self._arb[domain].pick(candidates)
            if winner is not None:
                grants[winner] = 1
        return grants

    # -- per-cycle: predict, compare, then update state ------------------------

    def _clk(self) -> None:
        cycle = self.sim.now - 1
        expected = self._expected_grants()
        for i, port in enumerate(self.init_ports):
            actual = port.gnt._value
            if actual != expected[i]:
                kind = "unexpected grant to" if actual else "missing grant for"
                self.report.error(
                    "ARB_POLICY", self.name, cycle,
                    f"{kind} initiator {i} "
                    f"(policy {self.config.arbitration.value})",
                )
        self.checked_cycles += 1
        self._update_state()

    def _update_state(self) -> None:
        # Cells leaving toward targets free pipe slots.
        for t, port in enumerate(self.targ_ports):
            if port.req._value and port.gnt._value:
                self._occupancy[self._domain(t)] -= 1
        # Granted request cells.
        for i, port in enumerate(self.init_ports):
            if not (port.req._value and port.gnt._value):
                continue
            if self._route[i] is None:
                self._route[i] = self.config.route(i, port.add._value)
            target = self._route[i]
            eop = port.eop._value
            if target != ERROR_TARGET:
                domain = self._domain(target)
                self._occupancy[domain] += 1
                self._arb[domain].on_grant_cycle(i)
                if eop:
                    self._flights[i].append(_Flight(target, port.tid._value))
                    self._route[i] = None
                    self._busy[domain] = None
                    self._chunk[domain] = i if port.lck._value else None
                    self._arb[domain].on_packet_end(i)
                else:
                    self._busy[domain] = i
            elif eop:
                self._flights[i].append(_Flight(ERROR_TARGET, port.tid._value))
                self._route[i] = None
        # Responses retiring at initiator ports release credit.
        for i, port in enumerate(self.init_ports):
            if port.r_req._value and port.r_gnt._value and port.r_eop._value:
                self._retire(i, port.r_tid._value)
        # Per-cycle arbiter ageing (identical rule to the specification),
        # against the routes the grants above just updated.
        waiting: List[List[int]] = [[] for _ in self._arb]
        for i, dest in enumerate(self._destinations()):
            if dest is not None and dest != ERROR_TARGET:
                waiting[self._domain(dest)].append(i)
        for arbiter, requesting in zip(self._arb, waiting):
            arbiter.tick(requesting)
        # Programming-port writes reprogram the reference immediately.
        self._watch_prog()

    def _retire(self, initiator: int, r_tid: int) -> None:
        flights = self._flights[initiator]
        if not flights:
            return
        if self.config.protocol_type is ProtocolType.T2:
            flights.pop(0)
            return
        for idx, flight in enumerate(flights):
            if flight.tid == r_tid:
                flights.pop(idx)
                return
        flights.pop(0)

    def _watch_prog(self) -> None:
        port = self.prog_port
        if port is None:
            return
        if not (port.req._value and port.ack._value):
            return
        if port.opc._value != T1_WRITE:
            return
        idx = (port.add._value >> 2) % max(1, self.config.n_initiators)
        if idx >= self.config.n_initiators:
            return
        value = port.wdata._value
        if self.config.arbitration is ArbitrationPolicy.PROGRAMMABLE_PRIORITY:
            for arbiter in self._arb:
                assert isinstance(arbiter, ProgrammablePriorityArbiter)
                arbiter.set_priority(idx, value)
        elif self.config.arbitration is ArbitrationPolicy.LATENCY_BASED:
            for arbiter in self._arb:
                assert isinstance(arbiter, LatencyArbiter)
                arbiter.set_budget(idx, max(1, value))
