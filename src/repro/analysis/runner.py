"""Run the static checker over simulators and configurations.

:func:`analyze_simulator` checks one elaborated design;
:func:`analyze_config` builds the common verification environment
around both views of a node configuration and checks each.  Which
checks run is the ``rules`` argument (default: every rule):

* a structural rule selected adds the ``xview-interface`` check — both
  views must expose the same port signals with the same widths, or the
  "common environment" is not actually common;
* a dataflow rule selected adds the configuration's UNR report
  (sharpened by the first view's constant facts) and, with both views,
  the port-cone diff and the per-port RTL/BCA agreement check.

:func:`repro.lint.lint_config` is the structural tier; the regression
gate adds the dataflow tier when its spec asks for it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from ..kernel import Simulator
from ..stbus import NodeConfig
from .diagnostics import Finding, Severity
from .graph import DesignGraph
from .rules import DATAFLOW, DEFAULT_RULES, STRUCTURAL, AnalysisContext, Rule
from .structural import check_xview_interface
from .waivers import Waiver, apply_waivers

if TYPE_CHECKING:  # loaded only when the dataflow tier runs
    from .agreement import AgreementReport
    from .unr import UnrReport


@dataclass
class AnalysisReport:
    """All findings for one design (one simulator instance).

    The dataflow counts stay None when no dataflow rule ran.
    """

    design: str
    findings: List[Finding] = field(default_factory=list)
    n_signals: int = 0
    n_edges: Optional[int] = None
    n_constants: Optional[int] = None
    complete: Optional[bool] = None

    def _live(self) -> List[Finding]:
        return [f for f in self.findings if not f.waived]

    @property
    def errors(self) -> List[Finding]:
        return [f for f in self._live() if f.severity is Severity.ERROR]

    @property
    def warnings(self) -> List[Finding]:
        return [f for f in self._live() if f.severity is Severity.WARNING]

    @property
    def has_errors(self) -> bool:
        return bool(self.errors)

    @property
    def clean(self) -> bool:
        """No un-waived error or warning; INFO notes do not count."""
        return not self.errors and not self.warnings

    def sort(self) -> None:
        self.findings.sort(
            key=lambda f: (f.severity.rank, f.rule, f.location, f.message)
        )

    def summary(self) -> str:
        n_err, n_warn = len(self.errors), len(self.warnings)
        n_waived = sum(1 for f in self.findings if f.waived)
        verdict = "CLEAN" if self.clean \
            else f"{n_err} error(s), {n_warn} warning(s)"
        extra = f", {n_waived} waived" if n_waived else ""
        facts = f"{self.n_signals} signals"
        if self.n_edges is not None:
            facts += (f", {self.n_edges} dataflow edges, "
                      f"{self.n_constants} proven constants")
        completeness = "" if self.complete is not False \
            else " (dataflow incomplete: undeclared clocked processes)"
        return f"{self.design}: {verdict}{extra} [{facts}]{completeness}"

    def render(self, show_waived: bool = True) -> str:
        lines = [self.summary()]
        for finding in self.findings:
            if finding.waived and not show_waived:
                continue
            lines.append("  " + finding.render().replace("\n", "\n  "))
        return "\n".join(lines) + "\n"

    def to_dict(self) -> Dict[str, object]:
        from . import SCHEMA_VERSION

        return {
            "schema_version": SCHEMA_VERSION,
            "design": self.design,
            "n_signals": self.n_signals,
            "n_edges": self.n_edges,
            "n_constants": self.n_constants,
            "complete": self.complete,
            "clean": self.clean,
            "errors": len(self.errors),
            "warnings": len(self.warnings),
            "findings": [f.to_dict() for f in self.findings],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


def _analyze_context(
    ctx: AnalysisContext,
    design: str,
    rules: Sequence[Rule],
    waivers: Sequence[Waiver],
) -> AnalysisReport:
    report = AnalysisReport(design=design, n_signals=len(ctx.graph.signals))
    if any(rule.tier == DATAFLOW for rule in rules):
        report.n_edges = ctx.dataflow.n_edges
        report.n_constants = len(ctx.constants)
        report.complete = ctx.dataflow.complete
    for rule in rules:
        report.findings.extend(rule.check(ctx))
    apply_waivers(report.findings, waivers)
    report.sort()
    return report


def analyze_simulator(
    sim: Simulator,
    *,
    design: str = "design",
    rules: Optional[Sequence[Rule]] = None,
    waivers: Sequence[Waiver] = (),
) -> AnalysisReport:
    """Statically check one design; no cycle is ever simulated.

    The simulator is elaborated in harvest mode if it has not been
    elaborated yet, so even designs that could not run (combinational
    loops, driver conflicts) produce a report instead of an exception.
    """
    ctx = AnalysisContext(DesignGraph.from_simulator(sim))
    return _analyze_context(
        ctx, design, DEFAULT_RULES if rules is None else rules,
        waivers)


#: The cross-view checks a config report can carry: (name, rule, what
#: a clean result means).
_CROSS_CHECKS = (
    ("interface", "xview-interface", "RTL and BCA ports match"),
    ("cones", "xview-cone", "RTL and BCA port cones match"),
)


@dataclass
class ConfigAnalysisReport:
    """Checker outcome for one configuration: the views and the
    config-level checks of the tiers that ran."""

    config_name: str
    views: Dict[str, AnalysisReport] = field(default_factory=dict)
    #: ``xview-interface`` and ``xview-cone`` findings.
    cross_view: List[Finding] = field(default_factory=list)
    #: The cross-view checks that ran ("interface", "cones").
    cross_checks: List[str] = field(default_factory=list)
    unr: Optional[UnrReport] = None
    unr_findings: List[Finding] = field(default_factory=list)
    #: Per-port RTL/BCA agreement; None unless it ran.
    agreement: Optional[AgreementReport] = None

    def _config_findings(self) -> List[Finding]:
        agreement = [] if self.agreement is None else self.agreement.findings
        return self.cross_view + self.unr_findings + agreement

    @property
    def has_errors(self) -> bool:
        return any(r.has_errors for r in self.views.values()) or any(
            f.severity is Severity.ERROR and not f.waived
            for f in self._config_findings()
        )

    @property
    def clean(self) -> bool:
        """No un-waived error or warning in any view or cross-view,
        UNR or agreement finding; INFO notes do not count."""
        return all(r.clean for r in self.views.values()) and not any(
            not f.waived and f.severity is not Severity.INFO
            for f in self._config_findings()
        )

    def all_findings(self) -> List[Finding]:
        findings: List[Finding] = []
        for report in self.views.values():
            findings.extend(report.findings)
        return findings + self._config_findings()

    def render(self) -> str:
        lines = []
        for view in sorted(self.views):
            lines.append(self.views[view].render().rstrip("\n"))
        for check, rule, ok in _CROSS_CHECKS:
            found = [f for f in self.cross_view if f.rule == rule]
            if not found:
                if check in self.cross_checks:
                    lines.append(f"{self.config_name}: cross-view {check} "
                                 f"OK ({ok})")
                continue
            lines.append(f"{self.config_name}: cross-view {check}")
            for finding in found:
                lines.append("  " + finding.render().replace("\n", "\n  "))
        for finding in self.unr_findings:
            lines.append("  " + finding.render().replace("\n", "\n  "))
        if self.unr is not None:
            lines.append(self.unr.render().rstrip("\n"))
        if self.agreement is not None:
            lines.append(self.agreement.render().rstrip("\n"))
        return "\n".join(lines) + "\n"

    def to_dict(self) -> Dict[str, object]:
        from . import SCHEMA_VERSION

        return {
            "schema_version": SCHEMA_VERSION,
            "config": self.config_name,
            "clean": self.clean,
            "has_errors": self.has_errors,
            "views": {v: r.to_dict() for v, r in self.views.items()},
            "cross_view": [f.to_dict() for f in self.cross_view],
            "unr_findings": [f.to_dict() for f in self.unr_findings],
            "unr": self.unr.to_dict() if self.unr is not None else None,
            "agreement": (self.agreement.to_dict()
                          if self.agreement is not None else None),
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


def analyze_config(
    config: NodeConfig,
    *,
    views: Sequence[str] = ("rtl", "bca"),
    rules: Optional[Sequence[Rule]] = None,
    waivers: Sequence[Waiver] = (),
    bca_bugs: Sequence[str] = (),
    contexts: Optional[Dict[str, AnalysisContext]] = None,
) -> ConfigAnalysisReport:
    """Check every requested view of one configuration.

    ``rules`` (default: every rule) also picks the config-level checks
    (see the module docstring).  ``bca_bugs`` injects registered defects
    into the agreement check's BCA environment so the detection of the bug
    registry can itself be checked.  Passes given one ``contexts`` dict
    share one build per view: the first fills it in, and the caller
    finishes the designs (:func:`release_contexts`).
    """
    from ..catg.env import VerificationEnv  # local import: avoid cycle

    rules = DEFAULT_RULES if rules is None else tuple(rules)
    tiers = {rule.tier for rule in rules}
    result = ConfigAnalysisReport(config_name=config.name)
    owned = contexts is None
    contexts = {} if owned else contexts
    for view in views:
        if view not in contexts:
            contexts[view] = AnalysisContext(
                DesignGraph.from_simulator(
                    VerificationEnv(config, view=view).sim))
        result.views[view] = _analyze_context(
            contexts[view], f"{config.name}/{view}", rules, waivers)
    both = "rtl" in contexts and "bca" in contexts

    if STRUCTURAL in tiers and both:
        result.cross_view += check_xview_interface(
            contexts["rtl"].graph, contexts["bca"].graph)
        result.cross_checks.append("interface")
    if DATAFLOW in tiers:
        from .unr import analyze_unreachability

        result.unr = analyze_unreachability(
            config, constants=contexts[views[0]].constants)
        result.unr_findings = result.unr.findings()
        if both:
            from .agreement import check_agreement
            from .xview import cone_equivalence_findings

            result.cross_view += cone_equivalence_findings(
                config.name, contexts["rtl"].dataflow,
                contexts["bca"].dataflow)
            result.cross_checks.append("cones")
            result.agreement = check_agreement(config, bca_bugs=bca_bugs)
    apply_waivers(result._config_findings(), waivers)
    if owned:
        release_contexts(contexts)
    return result


def release_contexts(contexts: Dict[str, AnalysisContext]) -> None:
    """Finish the designs: unfinished, they stay in reference cycles."""
    for ctx in contexts.values():
        ctx.graph.sim.finish()


__all__ = [
    "AnalysisReport",
    "ConfigAnalysisReport",
    "analyze_config",
    "analyze_simulator",
    "release_contexts",
]
