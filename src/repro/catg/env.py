"""The generic testbench of Fig. 2, assembled.

"The DUT interfaces are connected to eVCs ... Each eVC is endowed with
BFMs that generate random scenarios, monitors that collect traffic
information and checkers that check the correctness of the protocol at the
interface.  Moreover the scoreboard and specific checkers are required for
each DUT."

:class:`VerificationEnv` builds exactly that around either design view of
the node — the *same* environment code for both, which is the paper's
contribution.  Its shell, per-port eVC stacks, run loop and end rule are
shared with every other STBus component: a DUT's environment only builds
its ports, DUT, scoreboard and coverage collector
(:class:`~repro.catg.converter_env.ConverterEnv` for the converters).  A
:class:`RunResult` corresponds to the per-(test, seed) "verification
report and functional coverage one" the regression tool emits, plus the
optional VCD for bus-accurate comparison.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..bca.node import BcaNode
from ..kernel import Module, Simulator
from ..rtl.node import RtlNode
from ..stbus import NodeConfig, ProtocolType, StbusPort, Type1Port
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
        ``ERROR`` (and a wall-clock ``TIMEOUT``) via
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
        (elaborate/run/finalize) and the timeout log record go into it.
        ``None`` (the default) costs nothing.  Kernel counters ride on
        ``RunResult.kernel_stats`` either way.
    time_processes:
        Opt in to per-process cumulative wall-time accounting in the
        kernel (reported via ``RunResult.process_seconds``).

    Another DUT's environment subclasses this one with its own
    constructor only: it opens the shell (:meth:`_open`), builds its
    ports, DUT, ``bfms``, ``targets``, a ``scoreboard`` with ``idle`` and
    ``finalize`` and a ``coverage`` collector with a ``model``, and
    watches each port (:meth:`_watch`).  Loading, running and ending a
    test are the same for every DUT.
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
    ):
        self._open(config.name, view, vcd_path, telemetry, time_processes)
        if bugs and view != "bca":
            raise ValueError("bug injection applies to the BCA view only")
        self.config = config

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
        if self.prog_port is not None:
            self.prog_master = ProgrammingMaster(
                self.sim, "prog_master", self.prog_port, parent=self.top)

        for i, port in enumerate(self.init_ports):
            self._watch(f"init{i}", "initiator", i, port, protocol,
                        route=config.route)
        for t, port in enumerate(self.targ_ports):
            self._watch(f"targ{t}", "target", t, port, protocol)

        self.t1_checker = (
            Type1Checker(self.sim, "chk_prog", self.prog_port, self.report,
                         parent=self.top)
            if self.prog_port is not None else None
        )

        self.scoreboard = Scoreboard(config, self.report)
        self.scoreboard.connect(self.monitors)
        self.coverage = NodeCoverageCollector(config)
        self.coverage.connect(self.monitors, self.t1_checker)
        n_init = config.n_initiators
        self.arb_checker = (
            ArbitrationChecker(
                self.sim, "arb_chk", config, self.monitors[:n_init],
                self.monitors[n_init:], self.report,
                prog_checker=self.t1_checker, parent=self.top,
            )
            if with_arbitration_checker else None
        )

    # -- the shared shell -------------------------------------------------------

    def _open(self, name: str, view: str, vcd_path: Optional[str],
              telemetry: Optional[Telemetry] = None,
              time_processes: bool = False) -> None:
        """Simulator, top module, report and optional VCD writer, with
        the port helpers' empty lists and no programming master.  ``name``
        labels the report and the ``RunResult`` (the node's config name,
        a converter's ``sizeconv``/``typeconv``)."""
        if view not in VIEWS:
            raise ValueError(f"view must be one of {VIEWS}")
        self.name = name
        self.view = view
        self.vcd_path = vcd_path
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.sim = Simulator()
        if time_processes:
            self.sim.enable_process_timing()
        self.top = Module(self.sim, "tb")
        self.report = VerificationReport(name=f"{name}/{view}")
        if vcd_path:
            self._writer: Optional[VcdWriter] = VcdWriter(vcd_path)
            self.sim.add_tracer(self._writer)
        else:
            self._writer = None
        self.prog_master: Optional[ProgrammingMaster] = None
        self.monitors: List[PortMonitor] = []
        self.checkers: List[ProtocolChecker] = []
        self._test: Optional[TestProgram] = None

    def _watch(self, label: str, role: str, index: int, port: StbusPort,
               protocol: ProtocolType, route=None) -> PortMonitor:
        """One port's eVC stack: a monitor and its protocol checker."""
        monitor = PortMonitor(self.sim, f"mon_{label}", port, role, index,
                              route=route, parent=self.top)
        self.monitors.append(monitor)
        self.checkers.append(
            ProtocolChecker(self.sim, f"chk_{label}", monitor, protocol,
                            self.report, parent=self.top)
        )
        return monitor

    # -- test loading and execution ---------------------------------------------

    def load_test(self, test: TestProgram) -> None:
        if len(test.programs) != len(self.bfms):
            raise ValueError("test program count != number of initiators")
        if len(test.target_latencies) != len(self.targets):
            raise ValueError("target latency count != number of targets")
        for bfm, program in zip(self.bfms, test.programs):
            bfm.load_program(program)
        jitters = test.target_jitters or [0] * len(self.targets)
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

    @property
    def drained(self) -> bool:
        """Every program sent and every packet answered: the end rule of
        :meth:`run`, after which the test's ``drain_cycles`` still run."""
        if not all(bfm.done for bfm in self.bfms):
            return False
        if self.prog_master is not None and not self.prog_master.done:
            return False
        return self.scoreboard.idle

    def run(self) -> RunResult:
        """Execute the loaded test to completion (or timeout)."""
        if self._test is None:
            raise RuntimeError("load_test() before run()")
        test = self._test
        tele = self.telemetry
        ctx = {"config": self.name, "view": self.view,
               "test": test.name, "seed": test.seed}
        started = time.perf_counter()
        try:
            with tele.span("elaborate", **ctx):
                self.sim.elaborate()
            timed_out = False
            executed = 0
            with tele.span("run", **ctx):
                while executed < test.max_cycles:
                    self.sim.step()
                    executed += 1
                    if self.drained:
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
        except BaseException:
            # A process raised: drop the half-written dump, so the
            # failed run leaves neither a temp file nor an open handle.
            if self._writer is not None:
                self._writer.abort()
            raise
        wall = time.perf_counter() - started
        kernel_stats = self.sim.stats_snapshot()
        if self._writer is not None:
            kernel_stats["vcd_bytes"] = self._writer.bytes_written
        return RunResult(
            config_name=self.name,
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
) -> RunResult:
    """Convenience wrapper: build an environment, run one test."""
    env = VerificationEnv(
        config, view=view, bugs=bugs, vcd_path=vcd_path,
        with_arbitration_checker=with_arbitration_checker,
        telemetry=telemetry, time_processes=time_processes,
    )
    env.load_test(test)
    return env.run()
