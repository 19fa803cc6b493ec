"""Verification environment for converter DUTs.

Section 4: CATG is "aimed to test component[s] having STBus interfaces" —
not only the node.  This module instantiates the Fig. 2 architecture
around a size or type converter: BFM upstream, memory harness downstream,
monitors and protocol checkers on both ports (each speaking its own
width/protocol), plus a *transformation-aware* scoreboard that predicts
the downstream packet by repacking the upstream one (and vice versa for
responses), including the converter's tid remapping.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..bca import BcaSizeConverter, BcaTypeConverter
from ..kernel import Module, Simulator
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
from .checker import ProtocolChecker
from .coverage import CoverGroup, CoverageModel
from .monitor import ObservedRequest, ObservedResponse, PortMonitor
from .report import VerificationReport
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


@dataclass
class ConverterRunResult:
    """Outcome of one converter verification run."""

    view: str
    kind: str
    passed: bool
    timed_out: bool
    cycles: int
    report: VerificationReport
    coverage: CoverageModel
    wall_seconds: float

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status} {self.kind}/{self.view} cycles={self.cycles} "
            f"cov={self.coverage.percent:.1f}% "
            f"violations={len(self.report.violations)}"
        )


class ConverterEnv:
    """Fig. 2 testbench instantiated around a converter DUT."""

    def __init__(
        self,
        kind: str,  # "size" or "type"
        view: str = "rtl",
        up_width: int = 32,
        down_width: int = 8,
        up_protocol: ProtocolType = ProtocolType.T2,
        down_protocol: Optional[ProtocolType] = None,
        target_latency: int = 2,
        target_error_rate: float = 0.0,
        dut_cls=None,
    ):
        if kind not in ("size", "type"):
            raise ValueError("kind must be 'size' or 'type'")
        if view not in ("rtl", "bca"):
            raise ValueError("view must be 'rtl' or 'bca'")
        if kind == "size":
            down_protocol = up_protocol
        elif down_protocol is None:
            down_protocol = ProtocolType.T3 \
                if up_protocol is ProtocolType.T2 else ProtocolType.T2
        if kind == "type":
            down_width = up_width
        self.kind = kind
        self.view = view
        self.sim = Simulator()
        self.top = Module(self.sim, "ctb")
        self.report = VerificationReport(name=f"{kind}conv/{view}")
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
        self.bfm = InitiatorBfm(self.sim, "bfm", self.up_port, up_protocol,
                                parent=self.top)
        self.memory = TargetHarness(self.sim, "mem", self.down_port,
                                    down_protocol, latency=target_latency,
                                    seed=0xBEEF,
                                    error_rate=target_error_rate,
                                    parent=self.top)
        self.up_monitor = PortMonitor(self.sim, "mon_up", self.up_port,
                                      "initiator", 0, parent=self.top)
        self.down_monitor = PortMonitor(self.sim, "mon_down", self.down_port,
                                        "target", 0, parent=self.top)
        self.checkers = [
            ProtocolChecker(self.sim, "chk_up", self.up_monitor,
                            up_protocol, self.report, parent=self.top),
            ProtocolChecker(self.sim, "chk_down", self.down_monitor,
                            down_protocol, self.report, parent=self.top),
        ]
        self.scoreboard = BridgeScoreboard(
            self.up_port.bus_bytes, self.down_port.bus_bytes,
            up_protocol, down_protocol, self.report,
        )
        self.scoreboard.connect(self.up_monitor, self.down_monitor)
        self.coverage = build_bridge_coverage(
            self.up_port.bus_bytes, self.down_port.bus_bytes
        )
        self.up_monitor.on_request(self._sample_request)
        self.up_monitor.on_response(self._sample_response)

    # -- coverage sampling ------------------------------------------------------

    def _sample_request(self, obs: ObservedRequest) -> None:
        try:
            opcode = Opcode.decode(obs.opc)
        except OpcodeError:
            return
        self.coverage["opcode"].sample(str(opcode))
        self.coverage["up_len"].sample(str(len(obs.cells)))
        self.coverage["direction"].sample("request")
        if "be" in self.coverage.groups:
            full = all(
                cell.be == (1 << self.up_port.bus_bytes) - 1
                for cell in obs.cells
            )
            self.coverage["be"].sample("full" if full else "partial")

    def _sample_response(self, obs: ObservedResponse) -> None:
        self.coverage["direction"].sample("response")
        self.coverage["response"].sample("error" if obs.is_error else "ok")

    # -- running -------------------------------------------------------------------

    def run(self, program: Sequence[Tuple[Transaction, int]],
            max_cycles: int = 10000, drain: int = 20) -> ConverterRunResult:
        started = time.perf_counter()
        self.bfm.load_program(program)
        self.sim.elaborate()
        timed_out = True
        n = len(program)
        for _ in range(max_cycles):
            self.sim.step()
            if self.bfm.done and len(self.bfm.response_packets) >= n:
                timed_out = False
                break
        if timed_out:
            self.report.error("TIMEOUT", "env", self.sim.now,
                              f"run did not drain in {max_cycles} cycles")
        self.sim.run(drain)
        for checker in self.checkers:
            checker.finalize()
        self.scoreboard.finalize(self.sim.now)
        self.sim.finish()
        return ConverterRunResult(
            view=self.view,
            kind=self.kind,
            passed=self.report.passed and not timed_out,
            timed_out=timed_out,
            cycles=self.sim.now,
            report=self.report,
            coverage=self.coverage,
            wall_seconds=time.perf_counter() - started,
        )


def bridge_random_program(
    rng: random.Random,
    n_transactions: int,
    up_bytes: int,
    window: int = 0x1000,
    gap_range: Tuple[int, int] = (0, 2),
) -> List[Tuple[Transaction, int]]:
    """Constrained-random traffic for a converter DUT (single master)."""
    from .sequence import DEFAULT_MIX, _SIZES, pick_kind

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
    return program
