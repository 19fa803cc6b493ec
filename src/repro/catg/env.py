"""The generic testbench of Fig. 2, assembled.

"The DUT interfaces are connected to eVCs ... Each eVC is endowed with
BFMs that generate random scenarios, monitors that collect traffic
information and checkers that check the correctness of the protocol at the
interface.  Moreover the scoreboard and specific checkers are required for
each DUT."

:class:`VerificationEnv` builds exactly that around either design view of
the node — the *same* environment code for both, which is the paper's
contribution.  A :class:`RunResult` corresponds to the per-(test, seed)
"verification report and functional coverage one" the regression tool
emits, plus the optional VCD for bus-accurate comparison.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from ..bca.node import BcaNode
from ..kernel import Module, Simulator
from ..rtl.node import RtlNode
from ..stbus import NodeConfig, StbusPort, T1_WRITE, Type1Port
from ..telemetry import NULL_TELEMETRY, Telemetry
from ..vcd import VcdWriter
from .bfm import InitiatorBfm
from .checker import ProtocolChecker, Type1Checker
from .coverage import CoverageModel, NodeCoverageCollector
from .monitor import PortMonitor
from .node_checks import ArbitrationChecker
from .prog import ProgrammingMaster
from .report import VerificationReport
from .scoreboard import Scoreboard
from .sequence import TestProgram
from .target import TargetHarness

#: The two design views the environment accepts — "the DUT can be RTL or BCA".
VIEWS = ("rtl", "bca")

#: Accepted simulation-engine selections (mirrors
#: :data:`repro.kernel.compiled.KERNELS`, duplicated here so validating a
#: run request does not import the compiled kernel and its analysis
#: dependencies).  ``delta`` is the interpreted reference loop,
#: ``compiled`` always attaches the levelized kernel, ``auto`` attaches
#: it only when the whole combinational graph levelized acyclically.
KERNELS = ("delta", "compiled", "auto")


@dataclass
class RunResult:
    """Outcome of one (config, view, test, seed) run."""

    config_name: str
    view: str
    test_name: str
    seed: int
    passed: bool
    timed_out: bool
    cycles: int
    wall_seconds: float
    report: VerificationReport
    coverage: CoverageModel
    dut_stats: Dict[str, int] = field(default_factory=dict)
    vcd_path: Optional[str] = None
    #: Kernel activity counters (cycles, delta iterations, process
    #: activations, signal commits/toggles, VCD bytes) — always recorded.
    kernel_stats: Dict[str, int] = field(default_factory=dict)
    #: ``{process name: [activations, seconds]}`` when the run was
    #: executed with per-process timing enabled.
    process_seconds: Dict[str, List[float]] = field(default_factory=dict)
    #: Per-run telemetry payload (set by the regression engine when the
    #: batch runs with telemetry; picklable, excluded from all reports).
    telemetry: Optional[object] = None

    @property
    def coverage_percent(self) -> float:
        return self.coverage.percent

    @property
    def status(self) -> str:
        """Entry status for the regression report:
        ``PASS``/``FAIL`` for completed runs, ``TIMEOUT`` when the
        simulation hit its cycle budget.  The resilience layer adds
        ``ERROR``/``QUARANTINED`` via
        :class:`~repro.regression.resilience.RunFailure`."""
        if self.timed_out:
            return "TIMEOUT"
        return "PASS" if self.passed else "FAIL"

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status} {self.config_name}/{self.view} {self.test_name} "
            f"seed={self.seed} cycles={self.cycles} "
            f"cov={self.coverage_percent:.1f}% "
            f"violations={len(self.report.violations)}"
        )


class VerificationEnv:
    """One instantiated testbench around one DUT view.

    Parameters
    ----------
    config:
        The node's HDL parameters.
    view:
        ``"rtl"`` or ``"bca"`` — which model to plug in as DUT.
    bugs:
        Seeded BCA bugs to enable (BCA view only).
    vcd_path:
        If set, dump a VCD of the whole testbench for the bus analyzer.
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry` bundle; phase spans
        (elaborate/run/finalize) and kernel counters are recorded into
        it.  ``None`` (the default) costs nothing.
    time_processes:
        Opt in to per-process cumulative wall-time accounting in the
        kernel (reported via ``RunResult.process_seconds``).
    kernel:
        Simulation engine: ``"delta"`` (interpreted loop, the default),
        ``"compiled"`` (levelized kernel, byte-identical results), or
        ``"auto"`` (compiled only when the design levelizes with no
        feedback islands).
    """

    def __init__(
        self,
        config: NodeConfig,
        view: str = "rtl",
        bugs=(),
        vcd_path: Optional[str] = None,
        with_arbitration_checker: bool = True,
        telemetry: Optional[Telemetry] = None,
        time_processes: bool = False,
        kernel: str = "delta",
    ):
        if view not in VIEWS:
            raise ValueError(f"view must be one of {VIEWS}")
        if kernel not in KERNELS:
            raise ValueError(f"kernel must be one of {KERNELS}")
        self.kernel = kernel
        if bugs and view != "bca":
            raise ValueError("bug injection applies to the BCA view only")
        self.config = config
        self.view = view
        self.vcd_path = vcd_path
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.sim = Simulator()
        if time_processes:
            self.sim.enable_process_timing()
        self.top = Module(self.sim, "tb")
        self.report = VerificationReport(name=f"{config.name}/{view}")
        if vcd_path:
            self._writer: Optional[VcdWriter] = VcdWriter(vcd_path)
            self.sim.add_tracer(self._writer)
        else:
            self._writer = None

        width = config.data_width_bits
        self.init_ports = [
            StbusPort(self.top, f"init{i}", width)
            for i in range(config.n_initiators)
        ]
        self.targ_ports = [
            StbusPort(self.top, f"targ{t}", width)
            for t in range(config.n_targets)
        ]
        self.prog_port = (
            Type1Port(self.top, "prog") if config.has_programming_port else None
        )

        dut_cls = RtlNode if view == "rtl" else BcaNode
        kwargs = {} if view == "rtl" else {"bugs": bugs}
        self.dut = dut_cls(
            self.sim, "dut", config, self.init_ports, self.targ_ports,
            prog_port=self.prog_port, parent=self.top, **kwargs,
        )

        protocol = config.protocol_type
        self.bfms = [
            InitiatorBfm(self.sim, f"bfm{i}", self.init_ports[i], protocol,
                         parent=self.top)
            for i in range(config.n_initiators)
        ]
        self.targets = [
            TargetHarness(self.sim, f"mem{t}", self.targ_ports[t], protocol,
                          seed=0xC0DE + t, parent=self.top)
            for t in range(config.n_targets)
        ]
        self.prog_master = (
            ProgrammingMaster(self.sim, "prog_master", self.prog_port,
                              parent=self.top)
            if self.prog_port is not None else None
        )

        self.monitors: List[PortMonitor] = []
        self.checkers: List[ProtocolChecker] = []
        for i, port in enumerate(self.init_ports):
            self.monitors.append(
                PortMonitor(self.sim, f"mon_init{i}", port, "initiator", i,
                            parent=self.top)
            )
            self.checkers.append(
                ProtocolChecker(self.sim, f"chk_init{i}", port, "initiator",
                                i, protocol, self.report, parent=self.top)
            )
        for t, port in enumerate(self.targ_ports):
            self.monitors.append(
                PortMonitor(self.sim, f"mon_targ{t}", port, "target", t,
                            parent=self.top)
            )
            self.checkers.append(
                ProtocolChecker(self.sim, f"chk_targ{t}", port, "target",
                                t, protocol, self.report, parent=self.top)
            )

        if self.prog_port is not None:
            self.t1_checker: Type1Checker = Type1Checker(
                self.sim, "chk_prog", self.prog_port, self.report,
                parent=self.top,
            )
        else:
            self.t1_checker = None

        self.scoreboard = Scoreboard(config, self.report)
        self.scoreboard.connect(self.monitors)
        self.coverage = NodeCoverageCollector(config)
        self.coverage.connect(self.monitors)
        self.arb_checker = (
            ArbitrationChecker(
                self.sim, "arb_chk", config, self.init_ports,
                self.targ_ports, self.report, prog_port=self.prog_port,
                parent=self.top,
            )
            if with_arbitration_checker else None
        )
        # Probe hot path: the (req, add) signal pairs and the resolved
        # address map never change after construction, so resolve them
        # once here instead of re-walking ports (and re-materializing the
        # default AddressMap through the property) every cycle.
        self._probe_pairs = [(port.req, port.add) for port in self.init_ports]
        self._probe_map = config.resolved_map
        probe_reads = [sig for pair in self._probe_pairs for sig in pair]
        if self.prog_port is not None:
            probe_reads += [
                self.prog_port.req, self.prog_port.ack, self.prog_port.opc,
            ]
        self.sim.add_clocked(
            self._coverage_probe, name="tb.coverage_probe",
            reads=probe_reads, writes=(),
        )
        self._test: Optional[TestProgram] = None

    # -- per-cycle coverage probe -------------------------------------------

    def _coverage_probe(self) -> None:
        decode = self._probe_map.decode
        requesting: Dict[int, int] = {}
        for req, add in self._probe_pairs:
            if req._value:
                target = decode(add._value)
                if target is not None:
                    requesting[target] = requesting.get(target, 0) + 1
        self.coverage.sample_cycle(requesting)
        if self.prog_port is not None and self.prog_port.fired:
            self.coverage.sample_programming(
                self.prog_port.opc.value == T1_WRITE
            )

    # -- test loading and execution ---------------------------------------------

    def load_test(self, test: TestProgram) -> None:
        if len(test.programs) != self.config.n_initiators:
            raise ValueError("test program count != number of initiators")
        if len(test.target_latencies) != self.config.n_targets:
            raise ValueError("target latency count != number of targets")
        for bfm, program in zip(self.bfms, test.programs):
            bfm.load_program(program)
        jitters = test.target_jitters or [0] * self.config.n_targets
        for harness, latency, jitter in zip(
            self.targets, test.target_latencies, jitters
        ):
            harness.latency = latency
            harness.jitter = jitter
        if test.prog_ops:
            if self.prog_master is None:
                raise ValueError(
                    "test uses the programming port but the configuration "
                    "has none"
                )
            self.prog_master.load_schedule(test.prog_ops)
        self._test = test

    def _drained(self) -> bool:
        if not all(bfm.done for bfm in self.bfms):
            return False
        if self.prog_master is not None and not self.prog_master.done:
            return False
        if any(records for records in self.scoreboard._in_flight.values()):
            return False
        return not any(self.scoreboard._crossing.values())

    def run(self) -> RunResult:
        """Execute the loaded test to completion (or timeout)."""
        if self._test is None:
            raise RuntimeError("load_test() before run()")
        test = self._test
        tele = self.telemetry
        ctx = {"config": self.config.name, "view": self.view,
               "test": test.name, "seed": test.seed}
        started = time.perf_counter()
        with tele.span("elaborate", **ctx):
            self.sim.elaborate()
            if self.kernel != "delta":
                # Imported lazily: the compiled kernel pulls in the
                # static-analysis layer, which itself builds on this
                # package — a top-level import would cycle.
                from ..kernel.compiled import maybe_compile
                maybe_compile(self.sim, self.kernel)
        timed_out = False
        executed = 0
        with tele.span("run", **ctx):
            while executed < test.max_cycles:
                self.sim.step()
                executed += 1
                if self._drained():
                    break
            else:
                timed_out = True
                self.report.error(
                    "TIMEOUT", "env", self.sim.now,
                    f"test did not drain within {test.max_cycles} cycles",
                )
                tele.log.log("run.timeout", max_cycles=test.max_cycles)
            for _ in range(test.drain_cycles):
                self.sim.step()
        with tele.span("finalize", **ctx):
            for checker in self.checkers:
                checker.finalize()
            self.scoreboard.finalize(self.sim.now)
            self.sim.finish()
        wall = time.perf_counter() - started
        kernel_stats = self.sim.stats_snapshot()
        if self._writer is not None:
            kernel_stats["vcd_bytes"] = self._writer.bytes_written
        if tele.enabled:
            tele.registry.inc_many(kernel_stats.items(), prefix="kernel.")
        return RunResult(
            config_name=self.config.name,
            view=self.view,
            test_name=test.name,
            seed=test.seed,
            passed=self.report.passed and not timed_out,
            timed_out=timed_out,
            cycles=self.sim.now,
            wall_seconds=wall,
            report=self.report,
            coverage=self.coverage.model,
            dut_stats=dict(self.dut.stats),
            vcd_path=self.vcd_path,
            kernel_stats=kernel_stats,
            process_seconds={
                name: [calls, seconds]
                for name, (calls, seconds) in self.sim.process_times().items()
            },
        )


def run_test(
    config: NodeConfig,
    test: TestProgram,
    view: str = "rtl",
    bugs=(),
    vcd_path: Optional[str] = None,
    with_arbitration_checker: bool = True,
    telemetry: Optional[Telemetry] = None,
    time_processes: bool = False,
    kernel: str = "delta",
) -> RunResult:
    """Convenience wrapper: build an environment, run one test."""
    env = VerificationEnv(
        config, view=view, bugs=bugs, vcd_path=vcd_path,
        with_arbitration_checker=with_arbitration_checker,
        telemetry=telemetry, time_processes=time_processes,
        kernel=kernel,
    )
    env.load_test(test)
    return env.run()
