"""Standalone (fast) execution mode of the BCA model.

Section 1: "The fast simulation of BCA models permits to fast find the
optimized configuration, in terms of bandwidth, area and power
consumption."  In the paper's world that speed comes from running the
SystemC BCA model natively instead of through an HDL simulator; the
pin-level co-simulation (:class:`~repro.bca.node.BcaNode` inside the
kernel) is only needed for verification and alignment.

:class:`FastBcaSim` is that native mode.  It drives the very
:class:`~repro.bca.core.BcaCore` the pin-level node adapts to its pins,
from a flat cycle loop over pin-free initiator and target models: no
signals, no delta cycles, no monitors.  The node's rules therefore exist
once, and the model the common environment verifies is the model the fast
mode runs.  ``tests/bca/test_fast_mode.py`` checks that both drivers
complete the same programs in exactly the same number of cycles, with
identical per-transaction response timestamps; the E5 benchmark measures
the speedup this buys for architecture exploration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..catg.bfm import RequestSequencer
from ..catg.target import MemoryTarget
from ..stbus import NodeConfig, Opcode, Transaction
from .core import BcaCore


@dataclass
class CompletedTxn:
    """Per-transaction timing as observed at the initiator port."""

    initiator: int
    tid: int
    opcode: Opcode
    address: int
    request_start: int
    request_end: int
    response_end: int
    is_error: bool

    @property
    def latency(self) -> int:
        return self.response_end - self.request_start


@dataclass
class FastResult:
    """Outcome of one standalone BCA run."""

    cycles: int
    completed: List[CompletedTxn]
    timed_out: bool

    def mean_latency(self) -> float:
        if not self.completed:
            return 0.0
        return sum(t.latency for t in self.completed) / len(self.completed)

    def latency_percentile(self, percentile: float) -> int:
        """Latency at the given percentile (nearest-rank; 0 < p <= 100)."""
        if not 0 < percentile <= 100:
            raise ValueError("percentile must be in (0, 100]")
        if not self.completed:
            return 0
        ordered = sorted(t.latency for t in self.completed)
        rank = max(1, -(-len(ordered) * percentile // 100))  # ceil
        return ordered[int(rank) - 1]

    def throughput(self) -> float:
        """Completed transactions per cycle."""
        return len(self.completed) / self.cycles if self.cycles else 0.0

    def per_initiator_latency(self) -> Dict[int, float]:
        """Mean latency per initiator (the QoS view of a policy sweep)."""
        sums: Dict[int, List[int]] = {}
        for txn in self.completed:
            sums.setdefault(txn.initiator, []).append(txn.latency)
        return {
            initiator: sum(values) / len(values)
            for initiator, values in sorted(sums.items())
        }


class FastBcaSim:
    """Flat cycle loop driving the BCA core and pin-free harness models."""

    def __init__(
        self,
        config: NodeConfig,
        programs: Sequence[Sequence[Tuple[Transaction, int]]],
        target_latencies: Sequence[int],
        target_jitters: Optional[Sequence[int]] = None,
        target_capacity: int = 8,
        target_seeds: Optional[Sequence[int]] = None,
    ):
        config.validate()
        if config.has_programming_port:
            raise ValueError(
                "the standalone fast mode does not model the programming "
                "port; use the pin-level environment"
            )
        self.config = config
        bus = config.bus_bytes
        protocol = config.protocol_type
        self.bfms = [
            RequestSequencer(program, bus, protocol) for program in programs
        ]
        jitters = list(target_jitters or [0] * config.n_targets)
        seeds = list(target_seeds or
                     [0xC0DE + t for t in range(config.n_targets)])
        self.targets = [
            MemoryTarget(protocol, bus, target_latencies[t], jitters[t],
                         target_capacity, seeds[t])
            for t in range(config.n_targets)
        ]
        self.core = BcaCore(config)
        #: The initiators take every response cell at once.
        self._init_ready = [1] * config.n_initiators
        #: Cycle of each initiator's first granted cell of its open packet.
        self._request_start: List[Optional[int]] = \
            [None] * config.n_initiators
        self.completed: List[CompletedTxn] = []

    def _cycle(self, now: int) -> None:
        core = self.core
        # What is presented during this cycle.  The edge ages the
        # arbiters on these requests, as the pin-level node ages them on
        # its pre-edge pins.
        presented = [bfm.presented() for bfm in self.bfms]
        adds = [None if cell is None else cell.add for cell in presented]
        responses = [target.presented() for target in self.targets]
        targ_gnt = [target.gnt() for target in self.targets]
        r_gnts, err_pops = core.response_grants(
            now, [None if cell is None else cell.r_src for cell in responses],
            self._init_ready)
        grants = core.request_grants(adds, targ_gnt)

        # ---- edge: apply everything that fired during this cycle ----
        for head in core.req_heads:
            if head is not None and targ_gnt[head.target]:
                self.targets[head.target].accept(head.cell, now + 1)
        for i, granted in enumerate(grants):
            if not granted:
                continue
            if self._request_start[i] is None:
                self._request_start[i] = now
            if presented[i].eop:
                core.packet_tags[i] = (self.bfms[i].sent[-1],
                                       self._request_start[i], now)
                self._request_start[i] = None
        retired = core.edge(
            now + 1, adds,
            [cell if granted else None
             for cell, granted in zip(presented, grants)],
            [cell if granted else None
             for cell, granted in zip(responses, r_gnts)],
            err_pops, targ_gnt, self._init_ready,
        )
        for item, record in retired:
            if record is None:
                continue
            txn, request_start, request_end = record.tag
            self.completed.append(CompletedTxn(
                item.dest, record.tid, record.opcode or Opcode.load(1),
                txn.address, request_start, request_end, now,
                bool(item.cell.r_opc & 1),
            ))
        for bfm, granted in zip(self.bfms, grants):
            bfm.advance(granted)
        for target, granted in zip(self.targets, r_gnts):
            target.advance(granted, now + 1)

    def run(self, max_cycles: int = 200000) -> FastResult:
        # Mirror the pin-level step 0: the BFMs load their first cell
        # before any grant is computed, and the core takes one edge with
        # nothing on the pins — its arbiters age with no requesters, which
        # keeps windowed policies (bandwidth) phase-aligned with the pin
        # model.
        for bfm in self.bfms:
            bfm.advance(False)
        n_init, n_targ = self.config.n_initiators, self.config.n_targets
        self.core.edge(0, [None] * n_init, [None] * n_init, [None] * n_targ,
                       [0] * n_init, [0] * n_targ, self._init_ready)
        now = 0
        while now < max_cycles:
            self._cycle(now)
            now += 1
            if self.core.idle() and all(bfm.done for bfm in self.bfms):
                return FastResult(now, self.completed, False)
        return FastResult(now, self.completed, True)


def run_fast(config: NodeConfig, test_program) -> FastResult:
    """Run a :class:`~repro.catg.sequence.TestProgram` in fast mode."""
    if test_program.prog_ops:
        raise ValueError("fast mode does not support programming-port ops")
    sim = FastBcaSim(
        config,
        test_program.programs,
        test_program.target_latencies,
        target_jitters=test_program.target_jitters or None,
    )
    return sim.run(test_program.max_cycles)
