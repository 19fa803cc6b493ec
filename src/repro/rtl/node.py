"""RTL view of the STBus node.

The node is "the key IP of an STBus interconnect system ... responsible for
performing the arbitration among the requests issued by the initiators ...
and among the response-requests issued by the targets ... and for the
routing of the information" (Section 5).

This is the signal-level, cycle-accurate implementation: combinational
grant logic plus registered datapaths built from
:class:`~repro.rtl.pipeline.Pipe` stages.  The BCA view
(:mod:`repro.bca.node`) reimplements the same specification with
transaction-level queues; the whole point of the paper's flow is verifying
that the two stay cycle-aligned at every port.

Microarchitecture summary
-------------------------

* **Request path** — per arbitration domain (one per target for crossbars,
  a single domain for the shared bus), a ``pipe_depth``-stage elastic
  pipeline feeds the target port(s).  Grant is combinational: the domain
  arbiter picks among eligible initiators whenever the domain pipe can
  accept a cell.  Arbitration is packet-level: the first accepted cell
  locks the domain to its initiator until the ``eop`` cell, and ``lck`` on
  the ``eop`` cell holds the lock for the next packet (chunks).
* **Response path** — mirrored: per response domain (one per initiator, or
  a single shared one), a round-robin arbiter admits response cells from
  the targets (matched on ``r_src``) and from the node's internal *error
  engine*, through a ``pipe_depth`` pipeline to the initiator port.
* **Ordering** — Type II traffic must stay ordered: an initiator is only
  granted toward a target when all its outstanding responses come from
  that same target, and responses are admitted strictly in request order.
  Type III lifts both restrictions (out-of-order, matched by ``tid``).
* **Error engine** — requests that decode to no target (or to a forbidden
  partial-crossbar path) are absorbed and answered with an error response
  of the protocol-correct length.
* **Programming port** — an optional Type I port exposing one register per
  initiator that rewrites the arbitration parameters (priority or latency
  budget) on the fly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..kernel import Module, Simulator
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
    StbusPort,
    T1_READ,
    T1_WRITE,
    Type1Port,
    build_response_cells,
    make_arbiter,
)
from ..stbus.arbitration import (
    LatencyArbiter,
    ProgrammablePriorityArbiter,
)
from .pipeline import Pipe


@dataclass
class _ReqFlit:
    """A request cell in flight through the node."""

    cell: Cell
    initiator: int
    target: int


@dataclass
class _RespFlit:
    """A response cell in flight through the node."""

    cell: RespCell
    source: int  # target index, or n_targets for the error engine
    dest: int  # initiator index


@dataclass
class _Outstanding:
    """One request packet awaiting its response."""

    target: int  # target index or ERROR_TARGET
    tid: int
    opcode: Optional[Opcode]


class RtlNode(Module):
    """Cycle-accurate STBus node (see module docstring)."""

    #: Which design view this class implements (reports/regression use it).
    view = "rtl"

    def __init__(
        self,
        sim: Simulator,
        name: str,
        config: NodeConfig,
        init_ports: Sequence[StbusPort],
        targ_ports: Sequence[StbusPort],
        prog_port: Optional[Type1Port] = None,
        parent: Optional[Module] = None,
    ):
        super().__init__(sim, name, parent)
        config.validate()
        if len(init_ports) != config.n_initiators:
            raise ValueError("init_ports count does not match configuration")
        if len(targ_ports) != config.n_targets:
            raise ValueError("targ_ports count does not match configuration")
        for port in list(init_ports) + list(targ_ports):
            if port.width_bits != config.data_width_bits:
                raise ValueError(
                    f"port {port.name} width {port.width_bits} != node width "
                    f"{config.data_width_bits}"
                )
        if config.has_programming_port and prog_port is None:
            raise ValueError("configuration requires a programming port")
        self.config = config
        self.init_ports = list(init_ports)
        self.targ_ports = list(targ_ports)
        self.prog_port = prog_port
        config.resolved_map  # materializes the default map onto the config
        self.stats: Dict[str, int] = {
            "req_cells": 0,
            "resp_cells": 0,
            "error_packets": 0,
            "unmatched_responses": 0,
        }

        n_init = config.n_initiators
        n_targ = config.n_targets
        shared = config.architecture is Architecture.SHARED_BUS
        self.shared = shared

        # -- arbitration domains (request side) --------------------------------
        n_domains = 1 if shared else n_targ
        self.req_arbiters = [
            make_arbiter(
                config.arbitration,
                n_init,
                priorities=config.priorities,
                latency_budgets=config.latency_budgets,
                bandwidth_allocations=config.bandwidth_allocations,
                bandwidth_window=config.bandwidth_window,
            )
            for _ in range(n_domains)
        ]
        self.req_pipes: List[Pipe[_ReqFlit]] = [
            Pipe(config.pipe_depth) for _ in range(n_domains)
        ]
        # Packet/chunk locks per request domain.
        self._in_packet: List[Optional[int]] = [None] * n_domains
        self._chunk_owner: List[Optional[int]] = [None] * n_domains

        # -- response domains ---------------------------------------------------
        # Requester universe: targets, then one error engine per initiator
        # (shared) or the single error-engine slot n_targets (crossbar).
        n_resp_domains = 1 if shared else n_init
        resp_universe = n_targ + (n_init if shared else 1)
        self.resp_arbiters = [
            RoundRobinArbiter(resp_universe) for _ in range(n_resp_domains)
        ]
        self.resp_pipes: List[Pipe[_RespFlit]] = [
            Pipe(config.pipe_depth) for _ in range(n_resp_domains)
        ]
        self._resp_in_packet: List[Optional[int]] = [None] * n_resp_domains

        # -- per-initiator protocol state ---------------------------------------
        self._route: List[Optional[int]] = [None] * n_init
        self._outstanding: List[List[_Outstanding]] = [[] for _ in range(n_init)]
        self._err_queue: List[List[Tuple[RespCell, int]]] = [
            [] for _ in range(n_init)
        ]

        # -- programming registers -----------------------------------------------
        self._prog_regs: List[int] = self._initial_prog_regs()

        # -- internal signals ------------------------------------------------------
        self._tick = self.signal("tick")
        self._err_pop = [self.signal(f"err_pop{i}") for i in range(n_init)]

        # -- processes ---------------------------------------------------------------
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
            self._clk_proc,
            reads=pin_universe + [self._tick] + self._err_pop,
            writes=clk_writes,
        )
        sens = [self._tick]
        for port in self.init_ports:
            sens += [port.req, port.add, port.eop, port.lck]
        for port in self.targ_ports:
            sens += [port.gnt]
        self.comb(self._grant_proc, sens)

        rsens = [self._tick]
        for port in self.targ_ports:
            rsens += [port.r_req, port.r_src, port.r_eop]
        for port in self.init_ports:
            rsens += [port.r_gnt]
        self.comb(self._resp_grant_proc, rsens)

        if self.prog_port is not None:
            self.comb(
                self._prog_comb,
                [self._tick, self.prog_port.req, self.prog_port.add],
            )

    # ------------------------------------------------------------------
    # configuration helpers
    # ------------------------------------------------------------------

    def _initial_prog_regs(self) -> List[int]:
        cfg = self.config
        n = cfg.n_initiators
        if cfg.arbitration is ArbitrationPolicy.PROGRAMMABLE_PRIORITY:
            arb = self.req_arbiters[0]
            assert isinstance(arb, ProgrammablePriorityArbiter)
            return list(arb.priorities)
        if cfg.arbitration is ArbitrationPolicy.LATENCY_BASED:
            arb = self.req_arbiters[0]
            assert isinstance(arb, LatencyArbiter)
            return list(arb.budgets)
        return [0] * n

    def _domain_of(self, target: int) -> int:
        return 0 if self.shared else target

    def _resp_domain_of(self, initiator: int) -> int:
        return 0 if self.shared else initiator

    def _error_slot(self, initiator: int) -> int:
        """Requester index of initiator's error engine in resp arbitration."""
        n_targ = self.config.n_targets
        return n_targ + initiator if self.shared else n_targ

    # ------------------------------------------------------------------
    # request-side eligibility (pure; used by both comb and clocked code)
    # ------------------------------------------------------------------

    def _head_target(self, initiator: int) -> Optional[int]:
        """Where initiator's current request cell is headed (None if idle)."""
        port = self.init_ports[initiator]
        if not port.req.value:
            return None
        if self._route[initiator] is not None:
            return self._route[initiator]
        return self.config.route(initiator, port.add.value)

    def _ordering_ok(self, initiator: int, target: int) -> bool:
        """May initiator open a new packet toward ``target``?"""
        outstanding = self._outstanding[initiator]
        if len(outstanding) >= self.config.max_outstanding:
            return False
        if self.config.protocol_type is ProtocolType.T2:
            return all(entry.target == target for entry in outstanding)
        return True

    def _candidates(self) -> Tuple[List[List[int]], List[int]]:
        """Initiators eligible for request arbitration now, in one pass.

        Returns each domain's eligible initiators in ascending index
        order, and the initiators whose current packet goes to the error
        engine and may proceed.
        """
        domains: List[List[int]] = [[] for _ in self.req_pipes]
        errors: List[int] = []
        for i in range(self.config.n_initiators):
            target = self._head_target(i)
            if target is None:
                continue
            if self._route[i] is None and not self._ordering_ok(i, target):
                continue
            if target == ERROR_TARGET:
                errors.append(i)
            else:
                domains[self._domain_of(target)].append(i)
        return domains, errors

    def _domain_output_fired(self, domain: int) -> bool:
        pipe = self.req_pipes[domain]
        flit = pipe.output
        if flit is None:
            return False
        port = self.targ_ports[flit.target]
        return bool(port.req.value and port.gnt.value)

    # ------------------------------------------------------------------
    # combinational grant logic
    # ------------------------------------------------------------------

    def _grant_proc(self) -> None:
        grants = [0] * self.config.n_initiators
        eligible, errors = self._candidates()
        for domain, pipe in enumerate(self.req_pipes):
            candidates = eligible[domain]
            if not candidates \
                    or not pipe.can_accept(self._domain_output_fired(domain)):
                continue
            if self._in_packet[domain] is not None:
                owner = self._in_packet[domain]
                winner = owner if owner in candidates else None
            elif self._chunk_owner[domain] is not None:
                owner = self._chunk_owner[domain]
                winner = owner if owner in candidates else None
            else:
                winner = self.req_arbiters[domain].pick(candidates)
            if winner is not None:
                grants[winner] = 1
        # Error-engine grants (always ready; disjoint from domain grants).
        for i in errors:
            grants[i] = 1
        for i, port in enumerate(self.init_ports):
            port.gnt.drive(grants[i])

    def _resp_candidates(self) -> List[List[Tuple[int, int]]]:
        """Each response domain's eligible (requester_slot, dest_initiator)
        pairs, in one pass: targets first, then error engines."""
        n_init = self.config.n_initiators
        locks = self._resp_in_packet
        result: List[List[Tuple[int, int]]] = [[] for _ in self.resp_pipes]
        for t, port in enumerate(self.targ_ports):
            if not port.r_req.value:
                continue
            dest = port.r_src.value
            if dest >= n_init:
                continue  # corrupt src: no route (checkers will flag the DUT)
            domain = self._resp_domain_of(dest)
            lock = locks[domain]
            if lock is not None and lock != t:
                continue
            if lock is None and not self._resp_order_ok(dest, t):
                continue
            result[domain].append((t, dest))
        now = self.sim.now
        for i in range(n_init):
            if not self._err_queue[i]:
                continue
            if self._err_queue[i][0][1] > now:
                continue
            domain = self._resp_domain_of(i)
            lock = locks[domain]
            slot = self._error_slot(i)
            if lock is not None and lock != slot:
                continue
            if lock is None and not self._resp_order_ok(i, ERROR_TARGET):
                continue
            result[domain].append((slot, i))
        return result

    def _resp_order_ok(self, initiator: int, source: int) -> bool:
        """May a response from ``source`` start toward ``initiator``?

        Type II responses must return in request order, so only the head
        of the outstanding queue may answer.  ``source`` is a target index
        or ERROR_TARGET for the error engine.
        """
        outstanding = self._outstanding[initiator]
        if not outstanding:
            # Spurious response (e.g. a corrupted src tag): the node does
            # not police targets — forward it and let the checkers flag it.
            return True
        if self.config.protocol_type is ProtocolType.T2:
            return outstanding[0].target == source
        return any(entry.target == source for entry in outstanding)

    def _resp_grant_proc(self) -> None:
        r_gnts = [0] * self.config.n_targets
        err_pops = [0] * self.config.n_initiators
        eligible = self._resp_candidates()
        for domain, pipe in enumerate(self.resp_pipes):
            candidates = eligible[domain]
            if not candidates:
                continue
            flit = pipe.output
            fired = bool(
                flit is not None
                and self.init_ports[flit.dest].r_req.value
                and self.init_ports[flit.dest].r_gnt.value
            )
            if not pipe.can_accept(fired):
                continue
            slots = [slot for slot, _ in candidates]
            winner = self.resp_arbiters[domain].pick(slots)
            if winner < self.config.n_targets:
                r_gnts[winner] = 1
            else:
                dest = dict(candidates)[winner]
                err_pops[dest] = 1
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
    # clocked datapath
    # ------------------------------------------------------------------

    def _clk_proc(self) -> None:
        cfg = self.config
        # 1. Observe what transferred during the previous cycle.
        fired_req: List[Optional[Cell]] = []
        for port in self.init_ports:
            fired_req.append(
                port.request_cell() if port.request_fired else None
            )
        fired_out = [self._domain_output_fired(d)
                     for d in range(len(self.req_pipes))]
        fired_resp_in: List[Optional[RespCell]] = []
        for port in self.targ_ports:
            fired_resp_in.append(
                port.response_cell() if port.response_fired else None
            )
        resp_out_fired = []
        for domain, pipe in enumerate(self.resp_pipes):
            flit = pipe.output
            resp_out_fired.append(
                bool(
                    flit is not None
                    and self.init_ports[flit.dest].response_fired
                )
            )
        fired_resp_out_flits: List[Optional[_RespFlit]] = [
            self.resp_pipes[d].output if resp_out_fired[d] else None
            for d in range(len(self.resp_pipes))
        ]
        err_pops = [bool(sig.value) for sig in self._err_pop]

        # 2. Route freshly accepted request cells and update protocol state.
        loads: Dict[int, _ReqFlit] = {}  # domain -> flit
        for i, cell in enumerate(fired_req):
            if cell is None:
                continue
            self.stats["req_cells"] += 1
            if self._route[i] is None:
                self._route[i] = self.config.route(i, cell.add)
            target = self._route[i]
            if target != ERROR_TARGET:
                domain = self._domain_of(target)
                flit = _ReqFlit(replace(cell, src=i), i, target)
                loads[domain] = flit
                self.req_arbiters[domain].on_grant_cycle(i)
                if cell.eop:
                    self._finish_request_packet(i, target, cell)
                else:
                    self._in_packet[domain] = i
            else:
                if cell.eop:
                    self._finish_request_packet(i, ERROR_TARGET, cell)

        # 3. Advance request pipes.
        for domain, pipe in enumerate(self.req_pipes):
            pipe.advance(fired_out[domain], loads.get(domain))

        # 4. Admit response cells (targets and error engines) and advance
        #    the response pipes.
        resp_loads: Dict[int, _RespFlit] = {}
        for t, cell in enumerate(fired_resp_in):
            if cell is None:
                continue
            self.stats["resp_cells"] += 1
            dest = cell.r_src
            if dest >= cfg.n_initiators:
                self.stats["unmatched_responses"] += 1
                continue
            domain = self._resp_domain_of(dest)
            resp_loads[domain] = _RespFlit(cell, t, dest)
            if cell.r_eop:
                self._resp_in_packet[domain] = None
                self.resp_arbiters[domain].on_packet_end(t)
            else:
                self._resp_in_packet[domain] = t
        for i, popped in enumerate(err_pops):
            if not popped:
                continue
            cell, _avail = self._err_queue[i].pop(0)
            domain = self._resp_domain_of(i)
            slot = self._error_slot(i)
            resp_loads[domain] = _RespFlit(cell, slot, i)
            if cell.r_eop:
                self._resp_in_packet[domain] = None
                self.resp_arbiters[domain].on_packet_end(slot)
            else:
                self._resp_in_packet[domain] = slot
        for domain, pipe in enumerate(self.resp_pipes):
            pipe.advance(resp_out_fired[domain], resp_loads.get(domain))

        # 5. Retire responses delivered to initiators.
        for flit in fired_resp_out_flits:
            if flit is None or not flit.cell.r_eop:
                continue
            self._retire_outstanding(flit)

        # 6. Per-cycle arbiter ageing.
        waiting: List[List[int]] = [[] for _ in self.req_arbiters]
        for i in range(cfg.n_initiators):
            target = self._head_target(i)
            if target is not None and target != ERROR_TARGET:
                waiting[self._domain_of(target)].append(i)
        for arbiter, requesting in zip(self.req_arbiters, waiting):
            arbiter.tick(requesting)

        # 7. Programming port.
        self._prog_clk()

        # 8. Drive registered outputs.
        self._drive_request_outputs()
        self._drive_response_outputs()
        self._tick.drive(self._tick.value ^ 1)

    # -- clocked helpers ------------------------------------------------------

    def _finish_request_packet(self, initiator: int, target: int, eop_cell: Cell) -> None:
        try:
            opcode: Optional[Opcode] = Opcode.decode(eop_cell.opc)
        except OpcodeError:
            opcode = None
        self._outstanding[initiator].append(
            _Outstanding(target, eop_cell.tid, opcode)
        )
        self._route[initiator] = None
        if target == ERROR_TARGET:
            self._queue_error_response(initiator, eop_cell, opcode)
            return
        domain = self._domain_of(target)
        self._in_packet[domain] = None
        self._chunk_owner[domain] = initiator if eop_cell.lck else None
        self.req_arbiters[domain].on_packet_end(initiator)

    def _queue_error_response(
        self, initiator: int, eop_cell: Cell, opcode: Optional[Opcode]
    ) -> None:
        self.stats["error_packets"] += 1
        if opcode is None:
            cells = [RespCell(r_opc=1, r_eop=1, r_src=initiator,
                              r_tid=eop_cell.tid)]
        else:
            cells = build_response_cells(
                opcode,
                self.config.bus_bytes,
                self.config.protocol_type,
                error=True,
                src=initiator,
                tid=eop_cell.tid,
                address=eop_cell.add,
            )
        avail = self.sim.now
        self._err_queue[initiator].extend((cell, avail) for cell in cells)

    def _retire_outstanding(self, flit: _RespFlit) -> None:
        initiator = flit.dest
        source = flit.source
        if source >= self.config.n_targets:  # error engine slot
            source = ERROR_TARGET
        outstanding = self._outstanding[initiator]
        if not outstanding:
            self.stats["unmatched_responses"] += 1
            return
        if self.config.protocol_type is ProtocolType.T2:
            outstanding.pop(0)
            return
        for idx, entry in enumerate(outstanding):
            if entry.target == source and entry.tid == flit.cell.r_tid:
                outstanding.pop(idx)
                return
        self.stats["unmatched_responses"] += 1
        outstanding.pop(0)

    def _prog_clk(self) -> None:
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
        self._apply_prog_register(idx, value)

    def _apply_prog_register(self, idx: int, value: int) -> None:
        cfg = self.config
        if idx >= cfg.n_initiators:
            return
        if cfg.arbitration is ArbitrationPolicy.PROGRAMMABLE_PRIORITY:
            for arbiter in self.req_arbiters:
                assert isinstance(arbiter, ProgrammablePriorityArbiter)
                arbiter.set_priority(idx, value)
        elif cfg.arbitration is ArbitrationPolicy.LATENCY_BASED:
            for arbiter in self.req_arbiters:
                assert isinstance(arbiter, LatencyArbiter)
                arbiter.set_budget(idx, max(1, value))

    def _drive_request_outputs(self) -> None:
        heads: Dict[int, _ReqFlit] = {}
        for pipe in self.req_pipes:
            flit = pipe.output
            if flit is not None:
                heads[flit.target] = flit
        for t, port in enumerate(self.targ_ports):
            flit = heads.get(t)
            port.present_request(None if flit is None else flit.cell)

    def _drive_response_outputs(self) -> None:
        heads: Dict[int, _RespFlit] = {}
        for pipe in self.resp_pipes:
            flit = pipe.output
            if flit is not None:
                heads[flit.dest] = flit
        for i, port in enumerate(self.init_ports):
            flit = heads.get(i)
            port.present_response(None if flit is None else flit.cell)

    # ------------------------------------------------------------------
    # introspection (tests, checkers, reports)
    # ------------------------------------------------------------------

    def outstanding_count(self, initiator: int) -> int:
        return len(self._outstanding[initiator])

    def prog_register(self, idx: int) -> int:
        return self._prog_regs[idx]
