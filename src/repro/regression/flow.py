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
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..analyzer import SIGNOFF_THRESHOLD
from ..stbus import NodeConfig
from ..telemetry import TelemetryConfig
from .resilience import ResilienceConfig
from .runner import ConfigReport, RegressionRunner


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

    ``fix_bca`` models the "low alignment rate → fix the BCA model" loop:
    it is called with the current bug set and returns the bug set of the
    next BCA drop (an empty set is the fixed model).

    ``analysis`` adds the static dataflow-analysis gate (races, CDC,
    cross-view cones, UNR) after the lint gate; like lint, it runs before
    any cycle is simulated and error findings stop the flow.

    ``symbolic`` strengthens that gate with the symbolic pass (and
    implies ``analysis=True``): both views are lifted and every port must
    be proven functionally RTL≡BCA-equivalent before a single cycle is
    simulated.  When the current BCA drop carries known bugs the proof
    fails statically — the flow records the disproof, applies the fix
    (mirroring the dynamic "low alignment rate" loop, but without
    running a regression first) and re-proves.

    ``telemetry`` (an optional
    :class:`~repro.telemetry.TelemetryConfig`) is threaded into every
    regression the flow runs; since the flow may iterate several times,
    each iteration's side-channel files are tagged ``iterN`` (e.g.
    ``metrics.iter2.json``) so no iteration overwrites another.

    ``resilience`` (an optional
    :class:`~repro.regression.resilience.ResilienceConfig`) is threaded
    into every regression unchanged.

    ``workers``/``cache_dir`` thread straight into every regression the
    flow runs: with workers the iterations execute on the distributed
    leased-worker service, and with a cache the later iterations reuse
    every run whose coordinates an earlier one already simulated (the
    fix loop re-runs only what the fix invalidated — BCA entries key on
    their bug set, the RTL entries hit the cache unchanged).
    ``incremental=True`` additionally keys the cache on cone-scoped
    semantic fingerprints (:mod:`repro.analysis.impact`), so across
    *source* edits only the entries the edit's fan-out cone can affect
    re-execute.
    """

    def __init__(
        self,
        config: NodeConfig,
        tests: Optional[Sequence[str]] = None,
        seeds: Sequence[int] = (1,),
        workdir: Optional[str] = None,
        initial_bca_bugs: Sequence[str] = (),
        max_iterations: int = 4,
        lint: bool = True,
        analysis: bool = False,
        symbolic: bool = False,
        jobs: int = 1,
        telemetry: Optional[TelemetryConfig] = None,
        resilience: Optional["ResilienceConfig"] = None,
        kernel: str = "delta",
        triage: bool = False,
        workers: int = 0,
        cache_dir: Optional[str] = None,
        incremental: bool = False,
    ):
        self.config = config
        self.tests = tests
        self.seeds = seeds
        self.workdir = workdir
        self.bca_bugs = frozenset(initial_bca_bugs)
        self.max_iterations = max_iterations
        self.lint = lint
        self.analysis = analysis or symbolic
        self.symbolic = symbolic
        self.jobs = jobs
        self.kernel = kernel
        self.workers = workers
        self.cache_dir = cache_dir
        if incremental and not cache_dir:
            raise ValueError(
                "incremental=True requires a result cache (cache_dir)")
        #: Cone-scoped semantic cache keys for every iteration's batch:
        #: across checkouts, only the entries a source edit's fan-out
        #: cone can affect re-execute (see repro.analysis.impact).
        self.incremental = incremental
        #: Auto-triage failing entries each iteration; the localized
        #: suspects are folded into the "fix the BCA model" transitions
        #: so the fix loop starts from a named process, not a hunch.
        self.triage = triage
        self.telemetry = (
            telemetry if telemetry is not None else TelemetryConfig()
        )
        self.resilience = (
            resilience if resilience is not None else ResilienceConfig()
        )
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

        current = list(self.tests) if self.tests is not None \
            else list(TESTCASES)
        missing = [name for name in TESTCASES if name not in current]
        if missing:
            self.tests = current + missing
        else:
            self.seeds = list(self.seeds) + [max(self.seeds) + 1]

    def _run_lint(self) -> bool:
        """Static lint gate: both views, before any cycle is simulated.

        Returns True when no error-severity finding remains; warnings are
        recorded in the history but do not block the flow.
        """
        from ..lint import lint_config

        result = lint_config(self.config)
        n_warn = sum(
            1 for f in result.all_findings()
            if not f.waived and f.severity.value == "warning"
        )
        if result.has_errors:
            bad = [
                f for f in result.all_findings()
                if not f.waived and f.severity.value == "error"
            ]
            self._enter(
                FlowState.STATIC_LINT,
                f"{len(bad)} error-severity finding(s) "
                f"({', '.join(sorted({f.rule for f in bad}))}): "
                "fix the design before simulating",
            )
            return False
        self._enter(
            FlowState.STATIC_LINT,
            "both views lint clean and expose identical port interfaces"
            + (f" ({n_warn} warning(s))" if n_warn else ""),
        )
        return True

    def _run_analysis(self) -> bool:
        """Static dataflow-analysis gate (opt-in via ``analysis=True``).

        Races, CDC hazards and in-model-but-unreachable coverage bins
        are error-severity and block the flow; the UNR summary of the
        pruned bins is recorded in the history either way.  With
        ``symbolic`` on, the gate also demands a functional RTL≡BCA
        equivalence proof per port — a disproof caused by the current
        BCA bug set triggers the fix loop statically (no cycle run) and
        the fixed model is re-proven.
        """
        from ..analysis import analyze_config

        result = analyze_config(
            self.config, symbolic=self.symbolic,
            bca_bugs=tuple(sorted(self.bca_bugs)),
        )
        if (self.symbolic and self.bca_bugs
                and result.symbolic.mismatched_ports):
            ports = result.symbolic.mismatched_ports
            self._enter(
                FlowState.STATIC_ANALYSIS,
                f"symbolic RTL=BCA proof failed on {len(ports)} port(s) "
                f"({', '.join(ports)}): fix the BCA model before "
                "simulating",
            )
            self.bca_bugs = frozenset()  # the fix, applied statically
            result = analyze_config(self.config, symbolic=True)
        if result.has_errors:
            bad = [
                f for f in result.all_findings()
                if not f.waived and f.severity.value == "error"
            ]
            self._enter(
                FlowState.STATIC_ANALYSIS,
                f"{len(bad)} error-severity finding(s) "
                f"({', '.join(sorted({f.rule for f in bad}))}): "
                "fix the design before simulating",
            )
            return False
        counts = result.unr.counts() if result.unr is not None else {}
        unr_note = (
            f"; UNR: {counts.get('UNREACHABLE', 0)} bin(s) proven "
            f"unreachable, {counts.get('UNKNOWN', 0)} unknown"
            if counts else ""
        )
        sym_note = ""
        if self.symbolic and result.symbolic is not None:
            sym = result.symbolic
            upgraded = (
                len(sym.unr_upgrade.deltas)
                if sym.unr_upgrade is not None else 0
            )
            sym_note = (
                f"; symbolic: {len(sym.ports)} port(s) proven RTL=BCA "
                f"equivalent, {upgraded} UNR verdict(s) upgraded to "
                f"exact proofs, {sym.unknown_unr} UNKNOWN"
            )
        self._enter(
            FlowState.STATIC_ANALYSIS,
            "no races, no clock-domain crossings, port cones equal "
            f"across views{unr_note}{sym_note}",
        )
        return True

    def _run_regression(self) -> ConfigReport:
        telemetry = self.telemetry
        if telemetry.enabled:
            telemetry = telemetry.with_tag(f"iter{self._iteration}")
        runner = RegressionRunner(
            [self.config], tests=self.tests, seeds=self.seeds,
            workdir=self.workdir, bca_bugs=self.bca_bugs,
            jobs=self.jobs, telemetry=telemetry,
            resilience=self.resilience,
            kernel=self.kernel, triage=self.triage,
            workers=self.workers, cache_dir=self.cache_dir,
            incremental=self.incremental,
        )
        return runner.run().configs[0]

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
        if self.lint and not self._run_lint():
            return FlowOutcome(False, 0, self.history, None)
        if self.analysis and not self._run_analysis():
            return FlowOutcome(False, 0, self.history, None)
        report: Optional[ConfigReport] = None
        for iteration in range(1, self.max_iterations + 1):
            self._iteration = iteration
            self._enter(
                FlowState.MODEL_VERIFICATION,
                f"iteration {iteration}: same seeded suite on RTL and BCA "
                f"(BCA bugs present: {sorted(self.bca_bugs) or 'none'})",
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
                self.bca_bugs = frozenset()  # the fix
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
                self.bca_bugs = frozenset()  # the fix
                continue
            self._enter(
                FlowState.SIGNED_OFF,
                f"all ports >= {SIGNOFF_THRESHOLD * 100:.0f}%: BCA model "
                "signed off",
            )
            return FlowOutcome(True, iteration, self.history, report)
        return FlowOutcome(False, self.max_iterations, self.history, report)
