"""The BCA node's transaction engine, without pins.

The node's bus-cycle-accurate rules live here once: the timed request
and response queues (:class:`~repro.bca.queues.TimedFifo`), the routes
and packet/chunk locks, the request and response arbiters, the
split-transaction records, the error engines, the programming registers
and the five seeded bugs of :mod:`repro.bca.bugs`.  Two drivers run the
same :class:`BcaCore`:

* :class:`~repro.bca.node.BcaNode`, the pin adapter the common
  environment verifies: its registered processes read the pins, call
  the core and drive the outputs;
* :class:`~repro.bca.fast.FastBcaSim`, the standalone fast mode: a flat
  cycle loop over pin-free initiator and target models.

A cycle is the same for both.  During the cycle,
:meth:`BcaCore.response_grants` and :meth:`BcaCore.request_grants` turn
what is presented into grants; at the clock edge that ends it,
:meth:`BcaCore.edge` applies what transferred and reports the queue
heads visible in the next cycle (:attr:`BcaCore.req_heads`,
:attr:`BcaCore.resp_heads`).  Readiness arguments are sequences indexed
by port whose items are truthy when that port takes a cell.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, List, Optional, Sequence, Tuple

from ..stbus import (
    ERROR_TARGET,
    Architecture,
    ArbitrationPolicy,
    Cell,
    NodeConfig,
    Opcode,
    OpcodeError,
    ProtocolType,
    RespCell,
    RoundRobinArbiter,
    build_response_cells,
    make_arbiter,
)
from ..stbus.arbitration import LatencyArbiter, ProgrammablePriorityArbiter
from .bugs import (
    BUG_CHUNK_IGNORED,
    BUG_LRU_STUCK,
    BUG_PROG_STALE,
    BUG_SRC_TRUNCATION,
    BUG_SUBWORD_LANES,
    validate_bugs,
)
from .queues import TimedFifo


@dataclass
class ReqItem:
    """A forwarded request cell on its way to ``target``."""

    cell: Cell
    target: int


@dataclass
class RespItem:
    """A response cell on its way to initiator ``dest``."""

    cell: RespCell
    source: int  # target index, or error-engine slot
    dest: int


@dataclass
class PacketRecord:
    """One request packet awaiting its response (split-transaction credit).

    ``tag`` is whatever the driver put in :attr:`BcaCore.packet_tags`
    for the initiator when the packet closed; the core never reads it.
    """

    target: int
    tid: int
    opcode: Optional[Opcode]
    tag: object = None


def _opcode_of(cell: Cell) -> Optional[Opcode]:
    try:
        return Opcode.decode(cell.opc)
    except OpcodeError:
        return None


class BcaCore:
    """Queues, arbiters, locks and error engines of one BCA node."""

    def __init__(self, config: NodeConfig, bugs: Iterable[str] = ()):
        config.resolved_map  # materializes the default map onto the config
        self.config = config
        self.bugs = validate_bugs(bugs)
        self.stats = {
            "req_cells": 0,
            "resp_cells": 0,
            "error_packets": 0,
            "unmatched_responses": 0,
        }
        shared = config.architecture is Architecture.SHARED_BUS
        self.shared = shared
        n_init, n_targ = config.n_initiators, config.n_targets
        n_req_q = 1 if shared else n_targ
        n_resp_q = 1 if shared else n_init

        self._req_q: List[TimedFifo[ReqItem]] = [
            TimedFifo(config.pipe_depth) for _ in range(n_req_q)
        ]
        self._resp_q: List[TimedFifo[RespItem]] = [
            TimedFifo(config.pipe_depth) for _ in range(n_resp_q)
        ]
        self._arb = [
            make_arbiter(
                config.arbitration,
                n_init,
                priorities=config.priorities,
                latency_budgets=config.latency_budgets,
                bandwidth_allocations=config.bandwidth_allocations,
                bandwidth_window=config.bandwidth_window,
            )
            for _ in range(n_req_q)
        ]
        resp_universe = n_targ + (n_init if shared else 1)
        self._resp_arb = [
            RoundRobinArbiter(resp_universe) for _ in range(n_resp_q)
        ]

        # Per-queue locks: the initiator a request queue serves until its
        # packet ends (or, with ``lck`` on the eop cell, its chunk), and
        # the requester a response queue serves until its packet ends.
        self._req_lock: List[Optional[int]] = [None] * n_req_q
        self._resp_lock: List[Optional[int]] = [None] * n_resp_q
        # Per-initiator transaction state.
        self._open_packet: List[Optional[int]] = [None] * n_init  # route
        # The address of each initiator's last decoded head and where it
        # goes: a head waiting for its grant is decoded once.
        self._head_add: List[Optional[int]] = [None] * n_init
        self._head_dest: List[int] = [ERROR_TARGET] * n_init
        self._in_flight: List[List[PacketRecord]] = [[] for _ in range(n_init)]
        self._err_resp: List[List[Tuple[RespCell, int]]] = [
            [] for _ in range(n_init)
        ]
        self.prog_regs = self._initial_prog_regs()
        self._stale_prog_writes: List[Tuple[int, int]] = []

        #: The queue heads visible during the current cycle.
        self.req_heads: List[Optional[ReqItem]] = [None] * n_req_q
        self.resp_heads: List[Optional[RespItem]] = [None] * n_resp_q
        #: Set by the driver: the tag each initiator's next closing packet
        #: records (the fast mode's per-transaction timing).
        self.packet_tags: List[object] = [None] * n_init

    def _initial_prog_regs(self) -> List[int]:
        cfg = self.config
        if cfg.arbitration is ArbitrationPolicy.PROGRAMMABLE_PRIORITY:
            return list(self._arb[0].priorities)  # type: ignore[attr-defined]
        if cfg.arbitration is ArbitrationPolicy.LATENCY_BASED:
            return list(self._arb[0].budgets)  # type: ignore[attr-defined]
        return [0] * cfg.n_initiators

    def _error_slot(self, initiator: int) -> int:
        n_targ = self.config.n_targets
        return n_targ + initiator if self.shared else n_targ

    def _decode(self, initiator: int, add: int) -> int:
        """``config.route`` of a head at ``add``, once per head."""
        if self._head_add[initiator] != add:
            self._head_add[initiator] = add
            self._head_dest[initiator] = self.config.route(initiator, add)
        return self._head_dest[initiator]

    def _may_open_packet(self, initiator: int, target: int) -> bool:
        records = self._in_flight[initiator]
        if len(records) >= self.config.max_outstanding:
            return False
        if self.config.protocol_type is ProtocolType.T2:
            return all(record.target == target for record in records)
        return True

    def _response_order_ok(self, initiator: int, source: int) -> bool:
        records = self._in_flight[initiator]
        if not records:
            # Spurious response: forward it; the checkers will flag it.
            return True
        if self.config.protocol_type is ProtocolType.T2:
            return records[0].target == source
        return any(record.target == source for record in records)

    # ------------------------------------------------------------------
    # during a cycle: grants
    # ------------------------------------------------------------------

    def request_grants(self, adds: Sequence[Optional[int]],
                       targ_ready: Sequence) -> List[int]:
        """Each initiator's ``gnt``.

        ``adds[i]`` is the address initiator ``i`` presents, None when it
        requests nothing; ``targ_ready[t]`` says whether target ``t``
        takes the request cell presented to it.
        """
        grants = [0] * len(adds)
        # One pass over the initiators: each one's eligibility, bucketed
        # by request queue in ascending index order.
        eligible: List[List[int]] = [[] for _ in self._req_q]
        for i, add in enumerate(adds):
            if add is None:
                continue
            dest = self._open_packet[i]
            if dest is None:
                dest = self._decode(i, add)
                if not self._may_open_packet(i, dest):
                    continue
            if dest == ERROR_TARGET:
                grants[i] = 1  # the error engine is always ready
            else:
                eligible[0 if self.shared else dest].append(i)
        for q, candidates in enumerate(eligible):
            if not candidates:
                continue
            head = self.req_heads[q]
            if not self._req_q[q].can_accept(
                    head is not None and bool(targ_ready[head.target])):
                continue
            lock = self._req_lock[q]
            if lock is None:
                winner = self._arb[q].pick(candidates)
            else:
                winner = lock if lock in candidates else None
            if winner is not None:
                grants[winner] = 1
        return grants

    def response_grants(self, now: int, r_srcs: Sequence[Optional[int]],
                        init_ready: Sequence
                        ) -> Tuple[List[int], List[int]]:
        """Each target's ``r_gnt`` and each error engine's pop in cycle
        ``now``.

        ``r_srcs[t]`` is the ``r_src`` target ``t`` presents, None when it
        presents no response cell; ``init_ready[i]`` says whether
        initiator ``i`` takes the response cell presented to it.
        """
        n_init = self.config.n_initiators
        n_targ = self.config.n_targets
        r_gnts = [0] * n_targ
        err_pops = [0] * n_init
        # The requesters as (slot, initiator, source): targets first,
        # then error engines, each in ascending order.
        requesters = [
            (t, dest, t) for t, dest in enumerate(r_srcs)
            if dest is not None and dest < n_init
        ]
        requesters += [
            (self._error_slot(i), i, ERROR_TARGET)
            for i, pending in enumerate(self._err_resp)
            if pending and pending[0][1] <= now
        ]
        if not requesters:
            return r_gnts, err_pops
        # One pass over them, bucketed by response queue.
        eligible: List[List[Tuple[int, int]]] = [[] for _ in self._resp_q]
        for slot, dest, source in requesters:
            q = 0 if self.shared else dest
            lock = self._resp_lock[q]
            if lock is None:
                if not self._response_order_ok(dest, source):
                    continue
            elif lock != slot:
                continue
            eligible[q].append((slot, dest))
        for q, candidates in enumerate(eligible):
            if not candidates:
                continue
            head = self.resp_heads[q]
            if not self._resp_q[q].can_accept(
                    head is not None and bool(init_ready[head.dest])):
                continue
            winner = self._resp_arb[q].pick([slot for slot, _ in candidates])
            if winner < n_targ:
                r_gnts[winner] = 1
            else:
                err_pops[dict(candidates)[winner]] = 1
        return r_gnts, err_pops

    # ------------------------------------------------------------------
    # at the clock edge
    # ------------------------------------------------------------------

    def edge(self, now: int, adds: Sequence[Optional[int]],
             req_cells: Sequence[Optional[Cell]],
             resp_cells: Sequence[Optional[RespCell]],
             err_pops: Sequence[int], targ_ready: Sequence,
             init_ready: Sequence
             ) -> List[Tuple[RespItem, Optional[PacketRecord]]]:
        """Apply the clock edge that starts cycle ``now``.

        Every argument describes the cycle that ends: ``adds``,
        ``targ_ready`` and ``init_ready`` as for the grant functions, the
        request cell each initiator transferred and the response cell
        each target transferred (None: none), and the error-engine pops
        of :meth:`response_grants`.  Returns each end-of-packet response
        delivered to its initiator with the record it retired (None when
        there was none).
        """
        cfg = self.config
        visible_at = now + cfg.pipe_depth - 1

        # Pop the heads consumed during the cycle: they leave their
        # stage at this edge.
        for q, head in enumerate(self.req_heads):
            if head is not None and targ_ready[head.target]:
                self._req_q[q].pop()
        delivered: List[RespItem] = []
        for q, head in enumerate(self.resp_heads):
            if head is not None and init_ready[head.dest]:
                self._resp_q[q].pop()
                if head.cell.r_eop:
                    delivered.append(head)

        # Absorb granted request cells.
        for i, cell in enumerate(req_cells):
            if cell is None:
                continue
            self.stats["req_cells"] += 1
            target = self._open_packet[i]
            if target is None:
                target = self._open_packet[i] = self._decode(i, cell.add)
            if target == ERROR_TARGET:
                if cell.eop:
                    self._absorb_error_packet(i, cell, now)
                continue
            q = 0 if self.shared else target
            self._req_q[q].push(
                ReqItem(self._forward_cell(cell, i), target), visible_at
            )
            self._arb[q].on_grant_cycle(i)
            if cell.eop:
                self._close_packet(i, target, cell, q)
            else:
                self._req_lock[q] = i

        # Admit response cells from targets and error engines.
        for t, cell in enumerate(resp_cells):
            if cell is None:
                continue
            self.stats["resp_cells"] += 1
            if cell.r_src >= cfg.n_initiators:
                self.stats["unmatched_responses"] += 1
                continue
            self._admit_response(cell, t, cell.r_src, visible_at)
        for i, popped in enumerate(err_pops):
            if popped:
                cell, _avail = self._err_resp[i].pop(0)
                self._admit_response(cell, self._error_slot(i), i,
                                     visible_at)

        # Retire responses that reached their initiator.
        retired = [(item, self._retire(item)) for item in delivered]

        # Arbiter ageing mirrors the specification's per-cycle semantics:
        # the requests presented before this edge, with the routes after.
        waiting: List[List[int]] = [[] for _ in self._arb]
        for i, add in enumerate(adds):
            if add is None:
                continue
            dest = self._open_packet[i]
            if dest is None:
                dest = self._decode(i, add)
            if dest != ERROR_TARGET:
                waiting[0 if self.shared else dest].append(i)
        for arbiter, requesting in zip(self._arb, waiting):
            arbiter.tick(requesting)

        self.req_heads = [queue.visible_head(now) for queue in self._req_q]
        self.resp_heads = [queue.visible_head(now) for queue in self._resp_q]
        return retired

    def _forward_cell(self, cell: Cell, initiator: int) -> Cell:
        src = initiator
        if BUG_SRC_TRUNCATION in self.bugs:
            src = initiator & 0b11
        fwd = Cell(cell.add, cell.opc, cell.data, cell.be, cell.eop,
                   cell.lck, cell.tid, src, cell.pri)
        if BUG_SUBWORD_LANES in self.bugs:
            offset = fwd.add % self.config.bus_bytes
            if offset:
                opcode = _opcode_of(fwd)
                if opcode is not None and opcode.size < self.config.bus_bytes:
                    fwd = replace(
                        fwd,
                        data=fwd.data >> (offset * 8),
                        be=fwd.be >> offset,
                    )
        return fwd

    def _close_packet(self, initiator: int, target: int, eop_cell: Cell,
                      queue_idx: int) -> None:
        self._in_flight[initiator].append(PacketRecord(
            target, eop_cell.tid, _opcode_of(eop_cell),
            self.packet_tags[initiator],
        ))
        self._open_packet[initiator] = None
        if eop_cell.lck and BUG_CHUNK_IGNORED not in self.bugs:
            self._req_lock[queue_idx] = initiator
        else:
            self._req_lock[queue_idx] = None
        if BUG_LRU_STUCK in self.bugs \
                and self.config.arbitration is ArbitrationPolicy.LRU:
            pass  # seeded bug: the recency update hook was forgotten
        else:
            self._arb[queue_idx].on_packet_end(initiator)
        if BUG_PROG_STALE in self.bugs and self._stale_prog_writes:
            pending, self._stale_prog_writes = self._stale_prog_writes, []
            for idx, value in pending:
                self._apply_prog(idx, value)

    def _absorb_error_packet(self, initiator: int, eop_cell: Cell,
                             now: int) -> None:
        self.stats["error_packets"] += 1
        opcode = _opcode_of(eop_cell)
        self._in_flight[initiator].append(PacketRecord(
            ERROR_TARGET, eop_cell.tid, opcode, self.packet_tags[initiator],
        ))
        self._open_packet[initiator] = None
        if opcode is None:
            cells = [RespCell(r_opc=1, r_eop=1, r_src=initiator,
                              r_tid=eop_cell.tid)]
        else:
            cells = build_response_cells(
                opcode, self.config.bus_bytes, self.config.protocol_type,
                error=True, src=initiator, tid=eop_cell.tid,
                address=eop_cell.add,
            )
        self._err_resp[initiator].extend((cell, now) for cell in cells)

    def _admit_response(self, cell: RespCell, source: int, dest: int,
                        visible_at: int) -> None:
        q = 0 if self.shared else dest
        self._resp_q[q].push(RespItem(cell, source, dest), visible_at)
        if cell.r_eop:
            self._resp_lock[q] = None
            self._resp_arb[q].on_packet_end(source)
        else:
            self._resp_lock[q] = source

    def _retire(self, item: RespItem) -> Optional[PacketRecord]:
        source = item.source
        if source >= self.config.n_targets:
            source = ERROR_TARGET
        records = self._in_flight[item.dest]
        if not records:
            self.stats["unmatched_responses"] += 1
            return None
        if self.config.protocol_type is ProtocolType.T2:
            return records.pop(0)
        for idx, record in enumerate(records):
            if record.target == source and record.tid == item.cell.r_tid:
                return records.pop(idx)
        self.stats["unmatched_responses"] += 1
        return records.pop(0)

    # ------------------------------------------------------------------
    # programming registers
    # ------------------------------------------------------------------

    def prog_read(self, address: int) -> int:
        return self.prog_regs[self._prog_index(address)]

    def prog_write(self, address: int, value: int) -> None:
        idx = self._prog_index(address)
        self.prog_regs[idx] = value
        if BUG_PROG_STALE in self.bugs:
            self._stale_prog_writes.append((idx, value))
        else:
            self._apply_prog(idx, value)

    def _prog_index(self, address: int) -> int:
        return (address >> 2) % max(1, len(self.prog_regs))

    def _apply_prog(self, idx: int, value: int) -> None:
        cfg = self.config
        if idx >= cfg.n_initiators:
            return
        if cfg.arbitration is ArbitrationPolicy.PROGRAMMABLE_PRIORITY:
            for arbiter in self._arb:
                assert isinstance(arbiter, ProgrammablePriorityArbiter)
                arbiter.set_priority(idx, value)
        elif cfg.arbitration is ArbitrationPolicy.LATENCY_BASED:
            for arbiter in self._arb:
                assert isinstance(arbiter, LatencyArbiter)
                arbiter.set_budget(idx, max(1, value))

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def outstanding_count(self, initiator: int) -> int:
        return len(self._in_flight[initiator])

    def idle(self) -> bool:
        """No packet awaits its response."""
        return not any(self._in_flight)
