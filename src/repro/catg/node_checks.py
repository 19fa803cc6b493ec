"""Node-specific checks: the arbitration reference checker.

Section 5: "Specific checks, not covered by CATG, have also been
developed."  For the node, the interesting DUT-specific behaviour is
*arbitration*: which initiator the node grants, per policy, per cycle.

:class:`ArbitrationChecker` rebuilds the grant function of the node
specification purely from the port monitors' samples — reference arbiter
instances (shared spec code from :mod:`repro.stbus.arbitration`),
packet/chunk locks, pipe occupancy reconstructed from cells-in minus
cells-out, the Type II ordering rule and the split-transaction credit —
and compares the node's actual ``gnt`` pins against the prediction once
every port has published its sample of the cycle.  It registers no
process; programming-port writes come from the ``Type1Checker``.

This is the mechanism that catches the seeded BCA bugs
``lru-recency-stuck``, ``chunk-lock-ignored`` and ``prog-update-stale``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..kernel import Module, Simulator
from ..stbus import (
    ERROR_TARGET,
    Architecture,
    ArbitrationPolicy,
    NodeConfig,
    ProtocolType,
    T1_WRITE,
    make_arbiter,
)
from ..stbus.arbitration import LatencyArbiter, ProgrammablePriorityArbiter
from .checker import Type1Checker
from .monitor import PortMonitor, on_every_sample
from .report import VerificationReport


class ArbitrationChecker(Module):
    """Reference-model checker for the node's request-side grant logic."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        config: NodeConfig,
        init_monitors: Sequence[PortMonitor],
        targ_monitors: Sequence[PortMonitor],
        report: VerificationReport,
        prog_checker: Optional[Type1Checker] = None,
        parent: Optional[Module] = None,
    ):
        super().__init__(sim, name, parent)
        self.config = config
        self._init = [monitor.sample for monitor in init_monitors]
        self._targ = [monitor.sample for monitor in targ_monitors]
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
        self._open: List[bool] = [False] * config.n_initiators
        # Per initiator, (target, tid) of each packet awaiting a response.
        self._flights: List[List[Tuple[int, int]]] = [
            [] for _ in range(config.n_initiators)
        ]
        self._no_grants = [0] * config.n_initiators
        self.checked_cycles = 0
        on_every_sample([*init_monitors, *targ_monitors], self._check)
        if prog_checker is not None:
            # It runs after every monitor: a write reprograms the
            # reference after this cycle's grant check.
            prog_checker.on_command(self._on_prog_command)

    # -- shared spec helpers ----------------------------------------------------

    def _domain(self, target: int) -> int:
        return 0 if self.shared else target

    def _may_open(self, initiator: int, target: int) -> bool:
        flights = self._flights[initiator]
        if len(flights) >= self.config.max_outstanding:
            return False
        if self.config.protocol_type is ProtocolType.T2:
            return all(dest == target for dest, _ in flights)
        return True

    def _domain_fired(self, domain: int) -> bool:
        if self.shared:
            return any(sample.cell is not None for sample in self._targ)
        return self._targ[domain].cell is not None

    # -- the reference grant function -----------------------------------------

    def _expected_grants(self, dests: List[Optional[int]]) -> List[int]:
        grants = [0] * self.config.n_initiators
        # One pass over the initiators, bucketed by domain in ascending
        # index order; error-engine packets are granted outright.
        eligible: List[List[int]] = [[] for _ in self._arb]
        for i, dest in enumerate(dests):
            if dest is None:
                continue
            if not self._open[i] and not self._may_open(i, dest):
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

    def _check(self) -> None:
        dests = [sample.dest for sample in self._init]
        # With no initiator requesting, the reference grants nothing.
        expected = self._no_grants if dests.count(None) == len(dests) \
            else self._expected_grants(dests)
        self.checked_cycles += 1
        shared = self.shared
        # Cells leaving toward targets free pipe slots.
        for t, sample in enumerate(self._targ):
            if sample.cell is not None:
                self._occupancy[0 if shared else t] -= 1
        # One walk over the initiators: compare the grant with the
        # prediction, then apply the granted request cell, the response
        # retiring (it releases credit) and the request the arbiters age.
        # A packet keeps its first cell's destination, so a grant changes
        # no requester's domain.
        waiting: List[List[int]] = [[] for _ in self._arb]
        for i, sample in enumerate(self._init):
            if sample.gnt != expected[i]:
                kind = "unexpected grant to" if sample.gnt \
                    else "missing grant for"
                self.report.error(
                    "ARB_POLICY", self.name, self.sim.now - 1,
                    f"{kind} initiator {i} "
                    f"(policy {self.config.arbitration.value})",
                )
            target = dests[i]
            cell = sample.cell
            if cell is not None:
                self._open[i] = not cell.eop
                if cell.eop:
                    self._flights[i].append((target, cell.tid))
                if target != ERROR_TARGET:
                    domain = 0 if shared else target
                    self._occupancy[domain] += 1
                    self._arb[domain].on_grant_cycle(i)
                    if cell.eop:
                        self._busy[domain] = None
                        self._chunk[domain] = i if cell.lck else None
                        self._arb[domain].on_packet_end(i)
                    else:
                        self._busy[domain] = i
            r_cell = sample.r_cell
            if r_cell is not None and r_cell.r_eop:
                self._retire(i, r_cell.r_tid)
            if target is not None and target != ERROR_TARGET:
                waiting[0 if shared else target].append(i)
        # Per-cycle arbiter ageing (identical rule to the specification).
        for arbiter, requesting in zip(self._arb, waiting):
            arbiter.tick(requesting)

    def _retire(self, initiator: int, r_tid: int) -> None:
        flights = self._flights[initiator]
        if not flights:
            return
        if self.config.protocol_type is ProtocolType.T2:
            flights.pop(0)
            return
        for idx, (_, tid) in enumerate(flights):
            if tid == r_tid:
                flights.pop(idx)
                return
        flights.pop(0)

    def _on_prog_command(self, opc: int, add: int, wdata: int) -> None:
        if opc != T1_WRITE:
            return
        idx = (add >> 2) % max(1, self.config.n_initiators)
        if idx >= self.config.n_initiators:
            return
        if self.config.arbitration is ArbitrationPolicy.PROGRAMMABLE_PRIORITY:
            for arbiter in self._arb:
                assert isinstance(arbiter, ProgrammablePriorityArbiter)
                arbiter.set_priority(idx, wdata)
        elif self.config.arbitration is ArbitrationPolicy.LATENCY_BASED:
            for arbiter in self._arb:
                assert isinstance(arbiter, LatencyArbiter)
                arbiter.set_budget(idx, max(1, wdata))
