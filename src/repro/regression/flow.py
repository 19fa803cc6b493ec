"""The common verification flow of Figures 4 and 5, as a state machine.

Figure 4: functional specifications → verification implementation → RTL
and BCA model verification in parallel (looping while the functional spec
is unstable or coverage is not full) → bus-accurate comparison (looping
back into BCA verification while the alignment rate is low) → sign-off.

:class:`CommonVerificationFlow` drives a :class:`RegressionRunner` through
those states for one configuration, recording the transition history —
the executable form of the paper's flow diagram, used by
``examples/common_flow.py`` and the E3/E6 benches.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import List, Optional

from ..analyzer import SIGNOFF_THRESHOLD
from ..stbus import NodeConfig
from .runner import ConfigReport, RegressionRunner
from .spec import BatchSpec


class FlowState(enum.Enum):
    """The boxes of Figure 4 (plus the static gates added in front of
    model verification: the lint pass catches defective testbench/model
    structure, the opt-in dataflow analysis catches ordering races, CDC
    hazards and statically-unreachable coverage bins — all before any
    cycle is simulated)."""

    FUNCTIONAL_SPEC = "functional_specifications"
    VERIFICATION_IMPL = "verification_implementation"
    STATIC_LINT = "static_design_lint"
    STATIC_ANALYSIS = "static_dataflow_analysis"
    MODEL_VERIFICATION = "rtl_and_bca_verification"
    BUS_ACCURATE_COMPARISON = "bus_accurate_comparison"
    SIGNED_OFF = "signed_off"


@dataclass
class FlowEvent:
    """One transition taken by the flow."""

    state: FlowState
    detail: str


@dataclass
class FlowOutcome:
    """Where the flow ended and why."""

    signed_off: bool
    iterations: int
    history: List[FlowEvent]
    final_report: Optional[ConfigReport]

    def render(self) -> str:
        lines = [
            f"Common verification flow: "
            f"{'SIGNED OFF' if self.signed_off else 'stopped'} after "
            f"{self.iterations} verification iteration(s)"
        ]
        for event in self.history:
            lines.append(f"  [{event.state.value}] {event.detail}")
        return "\n".join(lines) + "\n"


class CommonVerificationFlow:
    """Executable Figure 4/5 for one node configuration.

    ``spec`` (a :class:`~repro.regression.spec.BatchSpec`) describes the
    first iteration's regression; each later iteration derives its spec
    from the last with :func:`dataclasses.replace`:

    * the "fix the BCA model" loop (checkers failed, or a low alignment
      rate) drops ``bca_bugs`` — an empty set is the fixed model;
    * the "extend the test suite" loop (coverage below 100%) adds the
      missing test cases, then an extra seed;
    * enabled telemetry files are tagged ``iterN`` (e.g.
      ``metrics.iter2.json``) so no iteration overwrites another.

    Before the first iteration the runner's static gate lints both views
    (``spec.lint``) and, with ``spec.analysis``, runs the dataflow
    analysis (races, CDC, cross-view cones, UNR); error findings stop
    the flow before any cycle is simulated.  With ``spec.triage`` the
    localized suspects are folded into the fix-loop transitions, and
    with a ``spec.cache_dir`` later iterations re-run only what the fix
    invalidated (BCA entries key on their bug set).
    """

    def __init__(self, config: NodeConfig, spec: BatchSpec,
                 max_iterations: int = 4):
        self.config = config
        self.spec = spec
        self.max_iterations = max_iterations
        self._iteration = 0
        self.history: List[FlowEvent] = []
        self.state = FlowState.FUNCTIONAL_SPEC

    def _enter(self, state: FlowState, detail: str) -> None:
        self.state = state
        self.history.append(FlowEvent(state, detail))

    def _extend_suite(self) -> None:
        """Grow the suite toward full coverage: first add the missing test
        cases, then extra seeds — the 'develop specific test files' loop."""
        from .testcases import TESTCASES

        tests = self.spec.tests
        missing = tuple(name for name in TESTCASES if name not in tests)
        if missing:
            self.spec = replace(self.spec, tests=tests + missing)
        else:
            seeds = self.spec.seeds
            self.spec = replace(self.spec, seeds=seeds + (max(seeds) + 1,))

    @staticmethod
    def _blocked(result) -> Optional[str]:
        """The history detail for a gate report that stops the flow, or
        None when it has no error-severity finding."""
        if not result.has_errors:
            return None
        bad = [f for f in result.all_findings()
               if not f.waived and f.severity.value == "error"]
        return (f"{len(bad)} error-severity finding(s) "
                f"({', '.join(sorted({f.rule for f in bad}))}): "
                "fix the design before simulating")

    def _run_gate(self) -> bool:
        """Record the static gate as ``STATIC_LINT``/``STATIC_ANALYSIS``
        history events; True when nothing blocks the flow."""
        gate = RegressionRunner([self.config], self.spec).gate()
        for result in gate.lint:
            blocked = self._blocked(result)
            if blocked:
                self._enter(FlowState.STATIC_LINT, blocked)
                return False
            n_warn = sum(
                1 for f in result.all_findings()
                if not f.waived and f.severity.value == "warning"
            )
            self._enter(
                FlowState.STATIC_LINT,
                "both views lint clean and expose identical port interfaces"
                + (f" ({n_warn} warning(s))" if n_warn else ""),
            )
        for result in gate.analysis:
            blocked = self._blocked(result)
            if blocked:
                self._enter(FlowState.STATIC_ANALYSIS, blocked)
                return False
            counts = result.unr.counts() if result.unr is not None else {}
            unr_note = (
                f"; UNR: {counts.get('UNREACHABLE', 0)} bin(s) proven "
                f"unreachable, {counts.get('UNKNOWN', 0)} unknown"
                if counts else ""
            )
            self._enter(
                FlowState.STATIC_ANALYSIS,
                "no races, no clock-domain crossings, port cones equal "
                f"across views{unr_note}",
            )
        return True

    def _run_regression(self) -> ConfigReport:
        spec = self.spec
        if spec.telemetry.enabled:
            spec = replace(spec, telemetry=spec.telemetry.with_tag(
                f"iter{self._iteration}"))
        return RegressionRunner([self.config], spec).run().configs[0]

    @staticmethod
    def _triage_note(entries) -> str:
        """Summarize the localized suspects of the triaged entries for a
        fix-loop transition (empty string without triage payloads)."""
        triaged = [e for e in entries if e.triage is not None]
        localized = [e for e in triaged if e.triage.signal is not None]
        if not localized:
            return ""
        first = localized[0].triage
        suspects = sorted({
            e.triage.top_suspect for e in localized
            if e.triage.top_suspect is not None
        })
        note = (
            f" (triage: first divergence {first.signal} @ cycle "
            f"{first.cycle}"
        )
        if suspects:
            note += f"; top suspect(s): {', '.join(suspects)}"
        return note + ")"

    def execute(self) -> FlowOutcome:
        """Run the flow to sign-off (or give up after max_iterations)."""
        self._enter(FlowState.FUNCTIONAL_SPEC, "specification signed off")
        self._enter(
            FlowState.VERIFICATION_IMPL,
            "common environment built from the functional spec only",
        )
        if not self._run_gate():
            return FlowOutcome(False, 0, self.history, None)
        report: Optional[ConfigReport] = None
        for iteration in range(1, self.max_iterations + 1):
            self._iteration = iteration
            self._enter(
                FlowState.MODEL_VERIFICATION,
                f"iteration {iteration}: same seeded suite on RTL and BCA "
                f"(BCA bugs present: {sorted(self.spec.bca_bugs) or 'none'})",
            )
            report = self._run_regression()
            if not report.all_passed:
                failed = [e for e in report.entries if not e.both_passed]
                self._enter(
                    FlowState.MODEL_VERIFICATION,
                    f"checkers failed on {len(failed)} run(s): fix the BCA "
                    "model and re-verify"
                    + self._triage_note(failed),
                )
                self.spec = replace(self.spec, bca_bugs=frozenset())  # the fix
                continue
            if not report.full_functional_coverage:
                self._enter(
                    FlowState.MODEL_VERIFICATION,
                    "functional coverage below 100%: extend the test suite",
                )
                self._extend_suite()
                continue
            self._enter(
                FlowState.BUS_ACCURATE_COMPARISON,
                f"full coverage reached; comparing VCDs "
                f"(min port rate {report.min_alignment * 100:.2f}%)",
            )
            if report.min_alignment < SIGNOFF_THRESHOLD:
                self._enter(
                    FlowState.MODEL_VERIFICATION,
                    "low alignment rate: fix the BCA model and re-verify"
                    + self._triage_note(report.entries),
                )
                self.spec = replace(self.spec, bca_bugs=frozenset())  # the fix
                continue
            self._enter(
                FlowState.SIGNED_OFF,
                f"all ports >= {SIGNOFF_THRESHOLD * 100:.0f}%: BCA model "
                "signed off",
            )
            return FlowOutcome(True, iteration, self.history, report)
        return FlowOutcome(False, self.max_iterations, self.history, report)
