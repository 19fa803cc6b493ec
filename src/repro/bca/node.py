"""BCA (bus-cycle-accurate) view of the STBus node.

A second, independent implementation of the node specification, written
the way SystemC BCA models are: transaction-level state machines and timed
queues (:class:`~repro.bca.queues.TimedFifo`) instead of register stages,
quantized to clock cycles and driving the very same pin interface as the
RTL view.  The common verification environment plugs either view into the
same testbench; the bus analyzer then checks that the two stay
cycle-aligned at every port.

The model optionally carries the five seeded bugs of
:mod:`repro.bca.bugs`, which reproduce the paper's headline result (five
BCA bugs found by the common environment, all invisible to the past
flow).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..kernel import Module, Simulator
from ..stbus import (
    Architecture,
    ArbitrationPolicy,
    Cell,
    NodeConfig,
    Opcode,
    OpcodeError,
    ProtocolType,
    RespCell,
    RoundRobinArbiter,
    StbusPort,
    T1_WRITE,
    Type1Port,
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

#: Sentinel "target" for requests the node answers itself with an error.
ERROR_TARGET = -1


@dataclass
class _ReqItem:
    cell: Cell
    initiator: int
    target: int


@dataclass
class _RespItem:
    cell: RespCell
    source: int  # target index, or error-engine slot
    dest: int


@dataclass
class _PacketRecord:
    """One request packet awaiting its response (split-transaction credit)."""

    target: int
    tid: int
    opcode: Optional[Opcode]


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
        self.bugs = validate_bugs(bugs)
        self.init_ports = list(init_ports)
        self.targ_ports = list(targ_ports)
        self.prog_port = prog_port
        self.amap = config.resolved_map
        self.stats: Dict[str, int] = {
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

        self._req_q: List[TimedFifo[_ReqItem]] = [
            TimedFifo(config.pipe_depth) for _ in range(n_req_q)
        ]
        self._resp_q: List[TimedFifo[_RespItem]] = [
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

        # Per-queue packet/chunk locks; per-initiator transaction state.
        self._busy_with: List[Optional[int]] = [None] * n_req_q
        self._chunk_hold: List[Optional[int]] = [None] * n_req_q
        self._resp_busy_with: List[Optional[int]] = [None] * n_resp_q
        self._open_packet: List[Optional[int]] = [None] * n_init  # route
        self._in_flight: List[List[_PacketRecord]] = [[] for _ in range(n_init)]
        self._err_resp: List[List[Tuple[RespCell, int]]] = [
            [] for _ in range(n_init)
        ]
        self._prog_regs = self._initial_prog_regs()
        self._stale_prog_writes: List[Tuple[int, int]] = []

        self._tick = self.signal("tick")
        self._err_pop = [self.signal(f"err_pop{i}") for i in range(n_init)]

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

    # ------------------------------------------------------------------
    # small helpers
    # ------------------------------------------------------------------

    def _initial_prog_regs(self) -> List[int]:
        cfg = self.config
        if cfg.arbitration is ArbitrationPolicy.PROGRAMMABLE_PRIORITY:
            return list(self._arb[0].priorities)  # type: ignore[attr-defined]
        if cfg.arbitration is ArbitrationPolicy.LATENCY_BASED:
            return list(self._arb[0].budgets)  # type: ignore[attr-defined]
        return [0] * cfg.n_initiators

    def _req_queue_of(self, target: int) -> int:
        return 0 if self.shared else target

    def _resp_queue_of(self, initiator: int) -> int:
        return 0 if self.shared else initiator

    def _error_slot(self, initiator: int) -> int:
        n_targ = self.config.n_targets
        return n_targ + initiator if self.shared else n_targ

    def _route_of(self, initiator: int, address: int) -> int:
        target = self.amap.decode(address)
        if target is None or not self.config.path_allowed(initiator, target):
            return ERROR_TARGET
        return target

    def _current_destination(self, initiator: int) -> Optional[int]:
        port = self.init_ports[initiator]
        if not port.req.value:
            return None
        if self._open_packet[initiator] is not None:
            return self._open_packet[initiator]
        return self._route_of(initiator, port.add.value)

    def _may_open_packet(self, initiator: int, target: int) -> bool:
        records = self._in_flight[initiator]
        if len(records) >= self.config.max_outstanding:
            return False
        if self.config.protocol_type is ProtocolType.T2:
            return all(record.target == target for record in records)
        return True

    def _queue_output_fired(self, queue_idx: int) -> bool:
        item = self._req_q[queue_idx].visible_head(self.sim.now)
        if item is None:
            return False
        port = self.targ_ports[item.target]
        return bool(port.req.value and port.gnt.value)

    def _resp_queue_output_fired(self, queue_idx: int) -> bool:
        item = self._resp_q[queue_idx].visible_head(self.sim.now)
        if item is None:
            return False
        port = self.init_ports[item.dest]
        return bool(port.r_req.value and port.r_gnt.value)

    # ------------------------------------------------------------------
    # combinational: grants
    # ------------------------------------------------------------------

    def _compute_grants(self) -> None:
        n_init = self.config.n_initiators
        grants = [0] * n_init
        # One pass over the initiators: each one's eligibility, bucketed
        # by request queue in ascending index order.
        eligible: List[List[int]] = [[] for _ in self._req_q]
        for i in range(n_init):
            dest = self._current_destination(i)
            if dest is None:
                continue
            if self._open_packet[i] is None \
                    and not self._may_open_packet(i, dest):
                continue
            if dest == ERROR_TARGET:
                grants[i] = 1  # the error engine is always ready
            else:
                eligible[self._req_queue_of(dest)].append(i)
        for q, candidates in enumerate(eligible):
            if not candidates or not self._req_q[q].can_accept(
                    self._queue_output_fired(q)):
                continue
            if self._busy_with[q] is not None:
                winner = self._busy_with[q] \
                    if self._busy_with[q] in candidates else None
            elif self._chunk_hold[q] is not None:
                winner = self._chunk_hold[q] \
                    if self._chunk_hold[q] in candidates else None
            else:
                winner = self._arb[q].pick(candidates)
            if winner is not None:
                grants[winner] = 1
        for i, port in enumerate(self.init_ports):
            port.gnt.drive(grants[i])

    def _response_order_ok(self, initiator: int, source: int) -> bool:
        records = self._in_flight[initiator]
        if not records:
            # Spurious response: forward it; the checkers will flag it.
            return True
        if self.config.protocol_type is ProtocolType.T2:
            return records[0].target == source
        return any(record.target == source for record in records)

    def _compute_response_grants(self) -> None:
        n_init = self.config.n_initiators
        r_gnts = [0] * self.config.n_targets
        err_pops = [0] * n_init
        # One pass over the requesters, bucketed by response queue:
        # targets first, then error engines, each in ascending order.
        eligible: List[List[Tuple[int, int]]] = [[] for _ in self._resp_q]
        locks = self._resp_busy_with
        for t, port in enumerate(self.targ_ports):
            if not port.r_req.value:
                continue
            dest = port.r_src.value
            if dest >= n_init:
                continue
            q = self._resp_queue_of(dest)
            lock = locks[q]
            if lock is not None and lock != t:
                continue
            if lock is None and not self._response_order_ok(dest, t):
                continue
            eligible[q].append((t, dest))
        now = self.sim.now
        for i in range(n_init):
            if not self._err_resp[i] or self._err_resp[i][0][1] > now:
                continue
            q = self._resp_queue_of(i)
            lock = locks[q]
            slot = self._error_slot(i)
            if lock is not None and lock != slot:
                continue
            if lock is None and not self._response_order_ok(i, ERROR_TARGET):
                continue
            eligible[q].append((slot, i))
        for q, candidates in enumerate(eligible):
            if not candidates or not self._resp_q[q].can_accept(
                    self._resp_queue_output_fired(q)):
                continue
            winner = self._resp_arb[q].pick([slot for slot, _ in candidates])
            if winner < self.config.n_targets:
                r_gnts[winner] = 1
            else:
                err_pops[dict(candidates)[winner]] = 1
        for t, port in enumerate(self.targ_ports):
            port.r_gnt.drive(r_gnts[t])
        for i, sig in enumerate(self._err_pop):
            sig.drive(err_pops[i])

    def _prog_comb(self) -> None:
        port = self.prog_port
        assert port is not None
        port.ack.drive(port.req.value)
        idx = (port.add.value >> 2) % max(1, len(self._prog_regs))
        port.rdata.drive(self._prog_regs[idx] & port.rdata.mask)

    # ------------------------------------------------------------------
    # clocked: the transaction engine
    # ------------------------------------------------------------------

    def _on_clock(self) -> None:
        now = self.sim.now
        cfg = self.config

        # What transferred during the previous cycle?
        req_fired = [
            port.request_cell() if port.request_fired else None
            for port in self.init_ports
        ]
        req_out_fired = [
            self._queue_output_fired(q) for q in range(len(self._req_q))
        ]
        resp_fired = [
            port.response_cell() if port.response_fired else None
            for port in self.targ_ports
        ]
        resp_out_fired = [
            self._resp_queue_output_fired(q) for q in range(len(self._resp_q))
        ]
        delivered = [
            self._resp_q[q].visible_head(now) if resp_out_fired[q] else None
            for q in range(len(self._resp_q))
        ]
        err_pops = [bool(sig.value) for sig in self._err_pop]

        # Pop consumed queue heads first (they fired during the previous
        # cycle and leave their stage at this edge).
        for q, fired in enumerate(req_out_fired):
            if fired:
                self._req_q[q].pop()
        for q, fired in enumerate(resp_out_fired):
            if fired:
                self._resp_q[q].pop()

        # Absorb granted request cells.
        for i, cell in enumerate(req_fired):
            if cell is None:
                continue
            self.stats["req_cells"] += 1
            if self._open_packet[i] is None:
                self._open_packet[i] = self._route_of(i, cell.add)
            target = self._open_packet[i]
            if target == ERROR_TARGET:
                if cell.eop:
                    self._absorb_error_packet(i, cell, now)
                continue
            q = self._req_queue_of(target)
            fwd = self._forward_cell(cell, i)
            self._req_q[q].push(
                _ReqItem(fwd, i, target), now + cfg.pipe_depth - 1
            )
            self._arb[q].on_grant_cycle(i)
            if cell.eop:
                self._close_packet(i, target, cell, q)
            else:
                self._busy_with[q] = i

        # Admit response cells from targets and error engines.
        for t, cell in enumerate(resp_fired):
            if cell is None:
                continue
            self.stats["resp_cells"] += 1
            dest = cell.r_src
            if dest >= cfg.n_initiators:
                self.stats["unmatched_responses"] += 1
                continue
            q = self._resp_queue_of(dest)
            self._resp_q[q].push(
                _RespItem(cell, t, dest), now + cfg.pipe_depth - 1
            )
            if cell.r_eop:
                self._resp_busy_with[q] = None
                self._resp_arb[q].on_packet_end(t)
            else:
                self._resp_busy_with[q] = t
        for i, popped in enumerate(err_pops):
            if not popped:
                continue
            cell, _avail = self._err_resp[i].pop(0)
            q = self._resp_queue_of(i)
            slot = self._error_slot(i)
            self._resp_q[q].push(
                _RespItem(cell, slot, i), now + cfg.pipe_depth - 1
            )
            if cell.r_eop:
                self._resp_busy_with[q] = None
                self._resp_arb[q].on_packet_end(slot)
            else:
                self._resp_busy_with[q] = slot

        # Retire responses that reached their initiator.
        for item in delivered:
            if item is not None and item.cell.r_eop:
                self._retire(item)

        # Arbiter ageing mirrors the specification's per-cycle semantics.
        waiting: List[List[int]] = [[] for _ in self._arb]
        for i in range(cfg.n_initiators):
            dest = self._current_destination(i)
            if dest is not None and dest != ERROR_TARGET:
                waiting[self._req_queue_of(dest)].append(i)
        for arbiter, requesting in zip(self._arb, waiting):
            arbiter.tick(requesting)

        self._prog_clock()
        self._drive_outputs(now)
        self._tick.drive(self._tick.value ^ 1)

    # -- engine helpers ------------------------------------------------------

    def _forward_cell(self, cell: Cell, initiator: int) -> Cell:
        src = initiator
        if BUG_SRC_TRUNCATION in self.bugs:
            src = initiator & 0b11
        fwd = replace(cell, src=src)
        if BUG_SUBWORD_LANES in self.bugs:
            offset = fwd.add % self.config.bus_bytes
            if offset:
                try:
                    opcode = Opcode.decode(fwd.opc)
                except OpcodeError:
                    opcode = None
                if opcode is not None and opcode.size < self.config.bus_bytes:
                    fwd = replace(
                        fwd,
                        data=fwd.data >> (offset * 8),
                        be=fwd.be >> offset,
                    )
        return fwd

    def _close_packet(self, initiator: int, target: int, eop_cell: Cell,
                      queue_idx: int) -> None:
        try:
            opcode: Optional[Opcode] = Opcode.decode(eop_cell.opc)
        except OpcodeError:
            opcode = None
        self._in_flight[initiator].append(
            _PacketRecord(target, eop_cell.tid, opcode)
        )
        self._open_packet[initiator] = None
        self._busy_with[queue_idx] = None
        if BUG_CHUNK_IGNORED in self.bugs:
            self._chunk_hold[queue_idx] = None
        else:
            self._chunk_hold[queue_idx] = initiator if eop_cell.lck else None
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
        try:
            opcode: Optional[Opcode] = Opcode.decode(eop_cell.opc)
        except OpcodeError:
            opcode = None
        self._in_flight[initiator].append(
            _PacketRecord(ERROR_TARGET, eop_cell.tid, opcode)
        )
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

    def _retire(self, item: _RespItem) -> None:
        source = item.source
        if source >= self.config.n_targets:
            source = ERROR_TARGET
        records = self._in_flight[item.dest]
        if not records:
            self.stats["unmatched_responses"] += 1
            return
        if self.config.protocol_type is ProtocolType.T2:
            records.pop(0)
            return
        for idx, record in enumerate(records):
            if record.target == source and record.tid == item.cell.r_tid:
                records.pop(idx)
                return
        self.stats["unmatched_responses"] += 1
        records.pop(0)

    def _prog_clock(self) -> None:
        port = self.prog_port
        if port is None:
            return
        if not (port.req.value and port.ack.value):
            return
        if port.opc.value != T1_WRITE:
            return
        idx = (port.add.value >> 2) % max(1, len(self._prog_regs))
        value = port.wdata.value
        self._prog_regs[idx] = value
        if BUG_PROG_STALE in self.bugs:
            self._stale_prog_writes.append((idx, value))
        else:
            self._apply_prog(idx, value)

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

    def _drive_outputs(self, now: int) -> None:
        visible: Dict[int, _ReqItem] = {}
        for queue in self._req_q:
            item = queue.visible_head(now)
            if item is not None:
                visible[item.target] = item
        for t, port in enumerate(self.targ_ports):
            item = visible.get(t)
            port.present_request(None if item is None else item.cell)
        visible_resp: Dict[int, _RespItem] = {}
        for queue in self._resp_q:
            item = queue.visible_head(now)
            if item is not None:
                visible_resp[item.dest] = item
        for i, port in enumerate(self.init_ports):
            item = visible_resp.get(i)
            port.present_response(None if item is None else item.cell)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def outstanding_count(self, initiator: int) -> int:
        return len(self._in_flight[initiator])

    def prog_register(self, idx: int) -> int:
        return self._prog_regs[idx]
