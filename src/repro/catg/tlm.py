"""TLM verification phase — the paper's future work, implemented.

Section 6: "Future including of SystemC Verification in verification flow
will be a great opportunity to add TLM (Transaction Level Modeling)
development and verification phase in the flow."

This module is that phase: checks and coverage that operate on whole
transactions from the standalone BCA mode
(:class:`~repro.bca.fast.FastBcaSim`), with no pins and no waveform — the
early, fast gate that runs *before* the pin-level common environment.
The fast mode runs the same :class:`~repro.bca.core.BcaCore` as the
pin-level node the common environment verifies, so a TLM pass here is
evidence about that model, and a TLM failure localizes a bug orders of
magnitude earlier in the flow.

Checks:

=================  ======================================================
``TLM_COMPLETE``    every injected transaction completed exactly once
``TLM_ORDER``       Type II responses return in request order
``TLM_ERROR``       error flag iff the address decodes to no target
``TLM_LATENCY``     latency is at least the structural minimum
``TLM_TIMEOUT``     the run drained within its cycle budget
=================  ======================================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..bca.fast import CompletedTxn, FastResult, run_fast
from ..stbus import ERROR_TARGET, NodeConfig, ProtocolType
from .coverage import CoverGroup, CoverageModel
from .report import VerificationReport
from .sequence import TestProgram


def build_tlm_coverage(config: NodeConfig) -> CoverageModel:
    """The transaction-level coverage space (a subset of the pin-level
    space: bins that need cycle-level observation — conflicts, outstanding
    depth, byte-enable lanes — belong to the pin-level phase)."""
    from ..stbus import all_opcodes

    paths = [
        f"init{i}->targ{t}"
        for i in range(config.n_initiators)
        for t in range(config.n_targets)
        if config.path_allowed(i, t)
    ]
    return CoverageModel([
        CoverGroup("opcode", [str(op) for op in all_opcodes()]),
        CoverGroup("path", paths),
        CoverGroup("response", ["ok", "error"]),
        CoverGroup("decode", ["hit", "error"]),
    ])


@dataclass
class TlmResult:
    """Outcome of the TLM verification phase for one (config, test)."""

    config_name: str
    test_name: str
    seed: int
    passed: bool
    report: VerificationReport
    coverage: CoverageModel
    fast: FastResult

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status} tlm {self.config_name} {self.test_name} "
            f"seed={self.seed} cycles={self.fast.cycles} "
            f"txns={len(self.fast.completed)} "
            f"cov={self.coverage.percent:.1f}% "
            f"violations={len(self.report.violations)}"
        )


class TlmChecker:
    """Applies the TLM rules to a completed fast-mode run."""

    def __init__(self, config: NodeConfig, report: VerificationReport):
        self.config = config
        self.report = report

    def _fail(self, rule: str, cycle: int, message: str) -> None:
        self.report.error(rule, "tlm", cycle, message)

    def min_latency(self, is_error: bool = False) -> int:
        """Structural latency floor.

        Normal responses cross the request pipe, spend at least one cycle
        at the target, and cross the response pipe.  Error responses are
        generated inside the node and only cross the response pipe.
        """
        if is_error:
            return self.config.pipe_depth + 1
        return 2 * self.config.pipe_depth + 1

    def check(self, test: TestProgram, result: FastResult) -> None:
        if result.timed_out:
            self._fail("TLM_TIMEOUT", result.cycles,
                       f"run did not drain in {result.cycles} cycles")
        expected = test.total_transactions()
        if len(result.completed) != expected:
            self._fail(
                "TLM_COMPLETE", result.cycles,
                f"{len(result.completed)} transactions completed, "
                f"{expected} injected",
            )
        per_initiator: Dict[int, List[CompletedTxn]] = {}
        for txn in result.completed:
            per_initiator.setdefault(txn.initiator, []).append(txn)
            target = self.config.route(txn.initiator, txn.address)
            floor = self.min_latency(is_error=target == ERROR_TARGET)
            if (target == ERROR_TARGET) != txn.is_error:
                self._fail(
                    "TLM_ERROR", txn.response_end,
                    f"init{txn.initiator} tid={txn.tid} @{txn.address:#x}: "
                    f"decode={'error' if target == ERROR_TARGET else target} "
                    f"but response error={txn.is_error}",
                )
            if txn.latency < floor:
                self._fail(
                    "TLM_LATENCY", txn.response_end,
                    f"init{txn.initiator} tid={txn.tid}: latency "
                    f"{txn.latency} below structural minimum {floor}",
                )
        if self.config.protocol_type is ProtocolType.T2:
            for initiator, txns in per_initiator.items():
                ordered = sorted(txns, key=lambda t: t.response_end)
                issue_order = sorted(txns, key=lambda t: t.request_end)
                if [t.tid for t in ordered] != [t.tid for t in issue_order]:
                    self._fail(
                        "TLM_ORDER", ordered[-1].response_end,
                        f"init{initiator}: Type II responses out of "
                        "request order",
                    )


class TlmCoverageCollector:
    """Samples the TLM coverage space from completed transactions."""

    def __init__(self, config: NodeConfig,
                 model: Optional[CoverageModel] = None):
        self.config = config
        self.model = model or build_tlm_coverage(config)

    def sample(self, result: FastResult) -> None:
        for txn in result.completed:
            self.model["opcode"].sample(str(txn.opcode))
            target = self.config.route(txn.initiator, txn.address)
            if target == ERROR_TARGET:
                self.model["decode"].sample("error")
            else:
                self.model["decode"].sample("hit")
                self.model["path"].sample(
                    f"init{txn.initiator}->targ{target}"
                )
            self.model["response"].sample(
                "error" if txn.is_error else "ok"
            )


def run_tlm_verification(config: NodeConfig, test: TestProgram) -> TlmResult:
    """Execute one (config, test) in the TLM phase."""
    report = VerificationReport(name=f"{config.name}/tlm")
    result = run_fast(config, test)
    TlmChecker(config, report).check(test, result)
    collector = TlmCoverageCollector(config)
    collector.sample(result)
    return TlmResult(
        config_name=config.name,
        test_name=test.name,
        seed=test.seed,
        passed=report.passed,
        report=report,
        coverage=collector.model,
        fast=result,
    )
