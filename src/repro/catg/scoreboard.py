"""Scoreboard — end-to-end data-integrity checking across the node.

Fig. 2/6: "the scoreboard compares results got from monitors" to "verify
data flow integrity between initiators and targets".  This scoreboard
subscribes to the monitors of every port and checks three things:

1. **Request transport** — every request packet observed at an initiator
   port must re-appear, unmodified (apart from the node-attached source
   tag), at the target port its address decodes to, in per-path order.
2. **Response semantics** — a reference memory per target, updated in
   target-port observation order (the serialization point), predicts the
   data every response must carry.
3. **Response delivery** — every response observed at a target port must
   reach the right initiator port unmodified, in request order for Type
   II; and every request must eventually get exactly one response
   (:meth:`finalize` flags leftovers).

Requests that decode to no target (or a forbidden partial-crossbar path)
must instead produce a node-generated error response of the correct
length.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..stbus import (
    ERROR_TARGET,
    Cell,
    NodeConfig,
    OpKind,
    Opcode,
    OpcodeError,
    ProtocolType,
    RespCell,
    build_response_cells,
    request_data_from_cells,
)
from .monitor import ObservedRequest, ObservedResponse, PortMonitor
from .report import VerificationReport
from .target import default_byte


def _cells_equal_fwd(src_cell: Cell, dst_cell: Cell) -> bool:
    """Initiator-side vs target-side request cell comparison.

    Every field must match except ``src`` (attached by the node).
    """
    return (
        src_cell.add == dst_cell.add
        and src_cell.opc == dst_cell.opc
        and src_cell.data == dst_cell.data
        and src_cell.be == dst_cell.be
        and src_cell.eop == dst_cell.eop
        and src_cell.lck == dst_cell.lck
        and src_cell.tid == dst_cell.tid
        and src_cell.pri == dst_cell.pri
    )


@dataclass
class _ExpectedDelivery:
    """A response emitted at a target port, expected at an initiator port."""

    cells: List[RespCell]
    source: int  # target index or ERROR_TARGET


@dataclass
class _InFlight:
    """One request packet tracked from injection to response delivery."""

    initiator: int
    target: int
    tid: int
    opcode: Optional[Opcode]
    delivery: Optional[_ExpectedDelivery] = None


class Scoreboard:
    """Routing-aware data-integrity scoreboard for a node DUT."""

    def __init__(self, config: NodeConfig, report: VerificationReport,
                 name: str = "scoreboard"):
        self.config = config
        self.report = report
        self.name = name
        # Per (initiator, target) FIFO of request packets still crossing.
        self._crossing: Dict[Tuple[int, int], List[ObservedRequest]] = {}
        # Per initiator, all packets awaiting response delivery.
        self._in_flight: Dict[int, List[_InFlight]] = {
            i: [] for i in range(config.n_initiators)
        }
        # Per target, reference memory and in-order expected responses.
        self._ref_mem: Dict[int, Dict[int, int]] = {
            t: {} for t in range(config.n_targets)
        }
        self._expected_resp: Dict[int, List[Tuple[int, int, List[RespCell]]]] = {
            t: [] for t in range(config.n_targets)
        }
        self.matched_requests = 0
        self.matched_responses = 0

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------

    def connect(self, monitors: List[PortMonitor]) -> None:
        for monitor in monitors:
            if monitor.role == "initiator":
                monitor.on_request(self._on_initiator_request)
                monitor.on_response(self._on_initiator_response)
            else:
                monitor.on_request(self._on_target_request)
                monitor.on_response(self._on_target_response)

    def _fail(self, rule: str, cycle: int, message: str) -> None:
        self.report.error(rule, self.name, cycle, message)

    # ------------------------------------------------------------------
    # initiator-side request: predict routing
    # ------------------------------------------------------------------

    def _on_initiator_request(self, obs: ObservedRequest) -> None:
        initiator = obs.index
        target = self.config.route(initiator, obs.address)
        try:
            opcode: Optional[Opcode] = Opcode.decode(obs.opc)
        except OpcodeError:
            opcode = None
        self._in_flight[initiator].append(
            _InFlight(initiator, target, obs.tid, opcode)
        )
        if target != ERROR_TARGET:
            self._crossing.setdefault((initiator, target), []).append(obs)

    # ------------------------------------------------------------------
    # target-side request: transport check + semantics prediction
    # ------------------------------------------------------------------

    def _on_target_request(self, obs: ObservedRequest) -> None:
        target = obs.index
        initiator = obs.src
        queue = self._crossing.get((initiator, target), [])
        if not queue:
            self._fail(
                "SB_REQ_UNEXPECTED", obs.end_cycle,
                f"request at target {target} with src {initiator} matches "
                "no packet sent by that initiator",
            )
            return
        sent = queue.pop(0)
        if len(sent.cells) != len(obs.cells):
            self._fail(
                "SB_REQ_LEN", obs.end_cycle,
                f"init{initiator}->targ{target}: packet length changed "
                f"{len(sent.cells)} -> {len(obs.cells)}",
            )
        else:
            for k, (a, b) in enumerate(zip(sent.cells, obs.cells)):
                if not _cells_equal_fwd(a, b):
                    self._fail(
                        "SB_REQ_CORRUPT", obs.end_cycle,
                        f"init{initiator}->targ{target} cell {k}: "
                        f"sent {a}, observed {b}",
                    )
                    break
        self.matched_requests += 1
        self._predict_response(obs)

    def _read_ref(self, target: int, address: int, size: int) -> bytes:
        mem = self._ref_mem[target]
        return bytes(
            mem.get(address + k, default_byte(address + k))
            for k in range(size)
        )

    def _write_ref(self, target: int, address: int, data: bytes) -> None:
        mem = self._ref_mem[target]
        for k, byte in enumerate(data):
            mem[address + k] = byte

    def _predict_response(self, obs: ObservedRequest) -> None:
        target = obs.index
        try:
            opcode = Opcode.decode(obs.opc)
        except OpcodeError:
            return  # protocol checker already flagged it
        address = obs.address
        bus_bytes = self.config.bus_bytes
        kind = opcode.kind
        data = b""
        if kind in (OpKind.LOAD, OpKind.READEX):
            data = self._read_ref(target, address, opcode.size)
        elif kind is OpKind.STORE:
            self._write_ref(
                target, address, request_data_from_cells(obs.cells, bus_bytes)
            )
        elif kind in (OpKind.RMW, OpKind.SWAP):
            data = self._read_ref(target, address, opcode.size)
            self._write_ref(
                target, address, request_data_from_cells(obs.cells, bus_bytes)
            )
        cells = build_response_cells(
            opcode, bus_bytes, self.config.protocol_type,
            data=data, src=obs.src, tid=obs.tid, address=address,
        )
        self._expected_resp[target].append((obs.src, obs.tid, cells))

    # ------------------------------------------------------------------
    # target-side response: semantic check, then expect delivery
    # ------------------------------------------------------------------

    def _on_target_response(self, obs: ObservedResponse) -> None:
        target = obs.index
        expected = self._expected_resp[target]
        if not expected:
            self._fail(
                "SB_RESP_SPURIOUS", obs.end_cycle,
                f"target {target} responded with nothing outstanding",
            )
            return
        exp_src, exp_tid, exp_cells = expected.pop(0)
        if (obs.r_src, obs.r_tid) != (exp_src, exp_tid):
            self._fail(
                "SB_RESP_MISMATCH", obs.end_cycle,
                f"target {target}: response (src={obs.r_src}, "
                f"tid={obs.r_tid}), expected (src={exp_src}, tid={exp_tid})",
            )
            return
        if [c.key_fields() for c in obs.cells] != \
                [c.key_fields() for c in exp_cells]:
            self._fail(
                "SB_DATA", obs.end_cycle,
                f"target {target}: response data differs from the "
                f"reference-memory prediction (tid={obs.r_tid})",
            )
        # Queue the delivery expectation at the destination initiator.
        if exp_src < self.config.n_initiators:
            for record in self._in_flight[exp_src]:
                if record.target == target and record.tid == exp_tid \
                        and record.delivery is None:
                    record.delivery = _ExpectedDelivery(list(obs.cells), target)
                    return
        self._fail(
            "SB_RESP_ORPHAN", obs.end_cycle,
            f"target {target} response (src={exp_src}, tid={exp_tid}) has "
            "no in-flight request at that initiator",
        )

    # ------------------------------------------------------------------
    # initiator-side response: delivery check
    # ------------------------------------------------------------------

    def _on_initiator_response(self, obs: ObservedResponse) -> None:
        initiator = obs.index
        records = self._in_flight[initiator]
        if not records:
            self._fail(
                "SB_RESP_UNEXPECTED", obs.end_cycle,
                f"initiator {initiator} received a response with no "
                "request in flight",
            )
            return
        record = self._take_record(records, obs)
        if record is None:
            self._fail(
                "SB_RESP_UNEXPECTED", obs.end_cycle,
                f"initiator {initiator}: response tid={obs.r_tid} matches "
                "no in-flight request",
            )
            return
        if record.target == ERROR_TARGET:
            self._check_error_response(record, obs)
            self.matched_responses += 1
            return
        if record.delivery is None:
            self._fail(
                "SB_RESP_EARLY", obs.end_cycle,
                f"initiator {initiator}: response tid={obs.r_tid} delivered "
                "before its target port emitted it",
            )
            return
        if [c.key_fields() for c in obs.cells] != \
                [c.key_fields() for c in record.delivery.cells]:
            self._fail(
                "SB_RESP_CORRUPT", obs.end_cycle,
                f"initiator {initiator}: response tid={obs.r_tid} modified "
                "between the target port and the initiator port",
            )
        self.matched_responses += 1

    def _take_record(self, records: List[_InFlight],
                     obs: ObservedResponse) -> Optional[_InFlight]:
        if self.config.protocol_type is ProtocolType.T2:
            head = records[0]
            if head.tid != obs.r_tid:
                self._fail(
                    "SB_RESP_ORDER", obs.end_cycle,
                    f"initiator {obs.index}: Type II response tid="
                    f"{obs.r_tid}, expected tid={head.tid}",
                )
                for idx, record in enumerate(records):
                    if record.tid == obs.r_tid:
                        return records.pop(idx)
                return None
            return records.pop(0)
        for idx, record in enumerate(records):
            if record.tid == obs.r_tid:
                return records.pop(idx)
        return None

    def _check_error_response(self, record: _InFlight,
                              obs: ObservedResponse) -> None:
        if not obs.is_error:
            self._fail(
                "SB_ERR_FLAG", obs.end_cycle,
                f"initiator {record.initiator}: request tid={record.tid} "
                "decodes to no target but its response is not an error",
            )
        if record.opcode is not None:
            expected = record.opcode.response_cells(
                self.config.bus_bytes, self.config.protocol_type
            )
            if len(obs.cells) != expected:
                self._fail(
                    "SB_ERR_LEN", obs.end_cycle,
                    f"error response of {len(obs.cells)} cells, expected "
                    f"{expected}",
                )

    # ------------------------------------------------------------------
    # end of test
    # ------------------------------------------------------------------

    def finalize(self, cycle: int) -> None:
        """Flag everything that never completed."""
        for (initiator, target), queue in self._crossing.items():
            for obs in queue:
                self._fail(
                    "SB_REQ_LOST", cycle,
                    f"request tid={obs.tid} from init{initiator} never "
                    f"reached target {target}",
                )
        for initiator, records in self._in_flight.items():
            for record in records:
                self._fail(
                    "SB_RESP_LOST", cycle,
                    f"request tid={record.tid} from init{initiator} "
                    f"(target {record.target}) never got its response",
                )
        for target, expected in self._expected_resp.items():
            for exp_src, exp_tid, _cells in expected:
                self._fail(
                    "SB_RESP_STUCK", cycle,
                    f"target {target} never responded to src={exp_src} "
                    f"tid={exp_tid}",
                )
