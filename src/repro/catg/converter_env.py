"""Verification environment for converter DUTs.

Section 4: CATG is "aimed to test component[s] having STBus interfaces" —
not only the node.  :class:`ConverterEnv` instantiates the shared Fig. 2
environment (:class:`~repro.catg.env.VerificationEnv`) around a size or
type converter: BFM upstream, memory harness downstream, monitors and
protocol checkers on both ports (each speaking its own width/protocol).
Only what differs per DUT lives here: the converter's constructor, a
*transformation-aware* scoreboard that predicts the downstream packet by
repacking the upstream one (and vice versa for responses), including the
converter's tid remapping, and the bridge coverage model.  Loading,
running, ending and reporting a test, VCD dump included, are the shared
environment's.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from ..bca import BcaSizeConverter, BcaTypeConverter
from ..rtl import RtlSizeConverter, RtlTypeConverter
from ..stbus import (
    Opcode,
    OpcodeError,
    ProtocolType,
    StbusPort,
    Transaction,
    all_opcodes,
)
from ..stbus.repack import RepackError, repack_request, repack_response
from .bfm import InitiatorBfm
from .coverage import CoverGroup, CoverageModel
from .env import VerificationEnv
from .monitor import ObservedRequest, ObservedResponse, PortMonitor
from .report import VerificationReport
from .sequence import DEFAULT_MIX, _SIZES, TestProgram, pick_kind
from .target import TargetHarness


def build_bridge_coverage(up_bytes: int, down_bytes: int) -> CoverageModel:
    """Functional coverage space for a converter DUT."""
    up_lens = sorted({
        str(op.request_cells(up_bytes, ProtocolType.T2))
        for op in all_opcodes()
    }, key=int)
    groups = [
        CoverGroup("opcode", [str(op) for op in all_opcodes()]),
        CoverGroup("up_len", up_lens),
        CoverGroup("response", ["ok", "error"]),
        CoverGroup("direction", ["request", "response"]),
    ]
    if up_bytes > 1:
        groups.append(CoverGroup("be", ["full", "partial"]))
    return CoverageModel(groups)


class BridgeCoverageCollector:
    """Samples a converter's upstream traffic into its coverage model."""

    def __init__(self, up_bytes: int, down_bytes: int):
        self.model = build_bridge_coverage(up_bytes, down_bytes)
        self._full_be = (1 << up_bytes) - 1

    def connect(self, up_monitor: PortMonitor) -> None:
        up_monitor.on_request(self._on_request)
        up_monitor.on_response(self._on_response)

    def _on_request(self, obs: ObservedRequest) -> None:
        try:
            opcode = Opcode.decode(obs.opc)
        except OpcodeError:
            return
        model = self.model
        model["opcode"].sample(str(opcode))
        model["up_len"].sample(str(len(obs.cells)))
        model["direction"].sample("request")
        if "be" in model.groups:
            full = all(cell.be == self._full_be for cell in obs.cells)
            model["be"].sample("full" if full else "partial")

    def _on_response(self, obs: ObservedResponse) -> None:
        self.model["direction"].sample("response")
        self.model["response"].sample("error" if obs.is_error else "ok")


class BridgeScoreboard:
    """Repack-predicting scoreboard across a converter.

    Every upstream request must reappear downstream as its repacked form
    (with the converter's sequentially remapped tid); every downstream
    response must reappear upstream repacked with the original tags.
    """

    def __init__(
        self,
        up_bytes: int,
        down_bytes: int,
        up_protocol: ProtocolType,
        down_protocol: ProtocolType,
        report: VerificationReport,
        name: str = "bridge_sb",
    ):
        self.up_bytes = up_bytes
        self.down_bytes = down_bytes
        self.up_protocol = up_protocol
        self.down_protocol = down_protocol
        self.report = report
        self.name = name
        self._down_tid = 0
        self._expected_down: List[Tuple[int, list]] = []  # (down_tid, cells)
        #: down_tid -> (orig src, orig tid, opcode, address)
        self._forwarded: Dict[int, Tuple[int, int, Opcode, int]] = {}
        #: (src, tid) -> expected upstream response cells
        self._expected_up: Dict[Tuple[int, int], list] = {}
        self.matched_requests = 0
        self.matched_responses = 0

    def _fail(self, rule: str, cycle: int, message: str) -> None:
        self.report.error(rule, self.name, cycle, message)

    @property
    def idle(self) -> bool:
        """Every forwarded packet seen downstream and every response
        delivered upstream."""
        return not (self._expected_down or self._forwarded
                    or self._expected_up)

    def connect(self, up_monitor: PortMonitor,
                down_monitor: PortMonitor) -> None:
        up_monitor.on_request(self.on_up_request)
        down_monitor.on_request(self.on_down_request)
        down_monitor.on_response(self.on_down_response)
        up_monitor.on_response(self.on_up_response)

    # -- request direction ---------------------------------------------------

    def on_up_request(self, obs: ObservedRequest) -> None:
        try:
            predicted = repack_request(
                obs.cells, self.up_bytes, self.down_bytes,
                self.up_protocol, self.down_protocol,
            )
            opcode = Opcode.decode(obs.opc)
        except (RepackError, OpcodeError):
            return  # protocol checkers flag malformed traffic
        down_tid = self._down_tid & 0xFF
        self._down_tid += 1
        for cell in predicted:
            cell.tid = down_tid
        self._expected_down.append((down_tid, predicted))
        self._forwarded[down_tid] = (obs.src, obs.tid, opcode, obs.address)

    def on_down_request(self, obs: ObservedRequest) -> None:
        if not self._expected_down:
            self._fail("SBC_REQ_SPURIOUS", obs.end_cycle,
                       "downstream request with nothing forwarded")
            return
        _, predicted = self._expected_down.pop(0)
        if [c.key_fields() for c in obs.cells] != \
                [c.key_fields() for c in predicted]:
            self._fail(
                "SBC_REQ_TRANSFORM", obs.end_cycle,
                "downstream packet differs from the repacked prediction",
            )
        self.matched_requests += 1

    # -- response direction ----------------------------------------------------

    def on_down_response(self, obs: ObservedResponse) -> None:
        entry = self._forwarded.pop(obs.r_tid, None)
        if entry is None:
            self._fail("SBC_RESP_SPURIOUS", obs.end_cycle,
                       f"downstream response tid={obs.r_tid} matches no "
                       "forwarded request")
            return
        src, tid, opcode, address = entry
        predicted = repack_response(
            obs.cells, opcode, address, self.down_bytes, self.up_bytes,
            self.down_protocol, self.up_protocol,
        )
        for cell in predicted:
            cell.r_src = src
            cell.r_tid = tid
        self._expected_up[(src, tid)] = predicted

    def on_up_response(self, obs: ObservedResponse) -> None:
        predicted = self._expected_up.pop((obs.r_src, obs.r_tid), None)
        if predicted is None:
            self._fail("SBC_RESP_UNEXPECTED", obs.end_cycle,
                       f"upstream response (src={obs.r_src}, "
                       f"tid={obs.r_tid}) was never produced downstream")
            return
        if [c.key_fields() for c in obs.cells] != \
                [c.key_fields() for c in predicted]:
            self._fail(
                "SBC_RESP_TRANSFORM", obs.end_cycle,
                "upstream response differs from the repacked prediction",
            )
        self.matched_responses += 1

    def finalize(self, cycle: int) -> None:
        for down_tid, _ in self._expected_down:
            self._fail("SBC_REQ_LOST", cycle,
                       f"forwarded packet (down tid={down_tid}) never "
                       "reached the downstream port")
        for down_tid in self._forwarded:
            self._fail("SBC_RESP_LOST", cycle,
                       f"no downstream response for down tid={down_tid}")
        for (src, tid) in self._expected_up:
            self._fail("SBC_RESP_STUCK", cycle,
                       f"response (src={src}, tid={tid}) never delivered "
                       "upstream")


class ConverterEnv(VerificationEnv):
    """Fig. 2 testbench instantiated around a converter DUT.

    ``kind`` is ``"size"`` or ``"type"``.  A run is ``load_test`` of a
    one-initiator, one-target :class:`~repro.catg.sequence.TestProgram`
    (:func:`bridge_random_program`), then ``run``; the run ends when the
    BFM is done and the scoreboard expects nothing.
    """

    def __init__(
        self,
        kind: str,
        view: str = "rtl",
        up_width: int = 32,
        down_width: int = 8,
        up_protocol: ProtocolType = ProtocolType.T2,
        down_protocol: Optional[ProtocolType] = None,
        target_error_rate: float = 0.0,
        dut_cls=None,
        vcd_path: Optional[str] = None,
    ):
        if kind not in ("size", "type"):
            raise ValueError("kind must be 'size' or 'type'")
        self._open(f"{kind}conv", view, vcd_path)
        if kind == "size":
            down_protocol = up_protocol
        elif down_protocol is None:
            down_protocol = ProtocolType.T3 \
                if up_protocol is ProtocolType.T2 else ProtocolType.T2
        if kind == "type":
            down_width = up_width
        self.up_port = StbusPort(self.top, "up", up_width)
        self.down_port = StbusPort(self.top, "down", down_width)
        if dut_cls is None:
            if kind == "size":
                dut_cls = RtlSizeConverter if view == "rtl" \
                    else BcaSizeConverter
            else:
                dut_cls = RtlTypeConverter if view == "rtl" \
                    else BcaTypeConverter
        if kind == "size":
            self.dut = dut_cls(self.sim, "dut", self.up_port, self.down_port,
                               up_protocol, parent=self.top)
        else:
            self.dut = dut_cls(self.sim, "dut", self.up_port, self.down_port,
                               up_protocol, down_protocol, parent=self.top)
        self.bfms = [InitiatorBfm(self.sim, "bfm", self.up_port, up_protocol,
                                  parent=self.top)]
        self.targets = [TargetHarness(self.sim, "mem", self.down_port,
                                      down_protocol, seed=0xBEEF,
                                      error_rate=target_error_rate,
                                      parent=self.top)]
        up_monitor = self._watch("up", "initiator", 0, self.up_port,
                                 up_protocol)
        down_monitor = self._watch("down", "target", 0, self.down_port,
                                   down_protocol)
        up_bytes = self.up_port.bus_bytes
        down_bytes = self.down_port.bus_bytes
        self.scoreboard = BridgeScoreboard(
            up_bytes, down_bytes, up_protocol, down_protocol, self.report,
        )
        self.scoreboard.connect(up_monitor, down_monitor)
        self.coverage = BridgeCoverageCollector(up_bytes, down_bytes)
        self.coverage.connect(up_monitor)


def bridge_random_program(
    seed: int,
    n_transactions: int,
    up_bytes: int,
    window: int = 0x1000,
    gap_range: Tuple[int, int] = (0, 2),
) -> TestProgram:
    """Constrained-random traffic for a converter DUT: one master's
    program against one memory target of latency 2."""
    rng = random.Random(seed)
    program = []
    for _ in range(n_transactions):
        kind = pick_kind(rng, DEFAULT_MIX)
        size = rng.choice(_SIZES[kind])
        slots = window // size
        address = rng.randrange(slots) * size
        data = rng.randbytes(size) if kind.carries_request_data else b""
        program.append((
            Transaction(Opcode(kind, size), address, data=data,
                        pri=rng.randrange(16)),
            rng.randint(*gap_range),
        ))
    return TestProgram("bridge_random", seed, [program], target_latencies=[2],
                       max_cycles=10000, drain_cycles=20)
