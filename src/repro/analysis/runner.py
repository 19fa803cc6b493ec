"""Run the dataflow analyses over simulators and configurations.

Mirrors :mod:`repro.lint.runner`: :func:`analyze_simulator` handles one
elaborated design, :func:`analyze_config` builds the common verification
environment around both views of a node configuration, runs the race /
CDC / tie-off rules on each, diffs the port cones across the views, and
attaches the configuration's UNR report (sharpened by the RTL view's
constant facts when available).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..kernel import Simulator
from ..lint.diagnostics import Finding, Severity
from ..lint.graph import DesignGraph
from ..stbus import NodeConfig
from .races import (
    ANALYSIS_RULES,
    DEFAULT_ANALYSIS_RULES,
    AnalysisContext,
    AnalysisRule,
    resolve_analysis_rules,
)
from .unr import UnrReport, analyze_unreachability
from .waivers import Waiver, apply_waivers
from .xview import cone_equivalence_findings


@dataclass
class AnalysisReport:
    """All analysis findings for one design (one simulator instance)."""

    design: str
    findings: List[Finding] = field(default_factory=list)
    n_signals: int = 0
    n_edges: int = 0
    n_constants: int = 0
    complete: bool = True

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
        completeness = "" if self.complete \
            else " (dataflow incomplete: undeclared clocked processes)"
        return (
            f"{self.design}: {verdict}{extra} "
            f"[{self.n_signals} signals, {self.n_edges} dataflow edges, "
            f"{self.n_constants} proven constants]{completeness}"
        )

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


def analyze_simulator(
    sim: Simulator,
    *,
    design: str = "design",
    rules: Optional[Sequence[AnalysisRule]] = None,
    waivers: Sequence[Waiver] = (),
) -> AnalysisReport:
    """Statically analyze one design; no cycle is ever simulated."""
    graph = DesignGraph.from_simulator(sim)
    ctx = AnalysisContext.from_graph(graph)
    report = AnalysisReport(
        design=design,
        n_signals=len(graph.signals),
        n_edges=ctx.dataflow.n_edges,
        n_constants=len(ctx.constants),
        complete=ctx.dataflow.complete,
    )
    for rule in rules if rules is not None else DEFAULT_ANALYSIS_RULES:
        report.findings.extend(rule.check(ctx))
    apply_waivers(report.findings, waivers)
    report.sort()
    return report


@dataclass
class ConfigAnalysisReport:
    """Analysis outcome for one configuration: views + cones + UNR."""

    config_name: str
    views: Dict[str, AnalysisReport] = field(default_factory=dict)
    cross_view: List[Finding] = field(default_factory=list)
    unr: Optional[UnrReport] = None
    unr_findings: List[Finding] = field(default_factory=list)
    #: Symbolic pass results (``--symbolic`` only); None otherwise, and
    #: then absent from both render() and to_dict() so non-symbolic
    #: output stays byte-identical.
    symbolic: Optional[object] = None

    def _symbolic_findings(self) -> List[Finding]:
        return [] if self.symbolic is None else self.symbolic.findings

    @property
    def has_errors(self) -> bool:
        gated = (self.cross_view + self.unr_findings
                 + self._symbolic_findings())
        return any(r.has_errors for r in self.views.values()) or any(
            f.severity is Severity.ERROR and not f.waived for f in gated
        )

    @property
    def clean(self) -> bool:
        """No un-waived error or warning in any view or cross-view,
        UNR or symbolic finding; INFO notes do not count."""
        extra = (self.cross_view + self.unr_findings
                 + self._symbolic_findings())
        return all(r.clean for r in self.views.values()) and not any(
            not f.waived and f.severity is not Severity.INFO
            for f in extra
        )

    def all_findings(self) -> List[Finding]:
        findings: List[Finding] = []
        for report in self.views.values():
            findings.extend(report.findings)
        findings.extend(self.cross_view)
        findings.extend(self.unr_findings)
        findings.extend(self._symbolic_findings())
        return findings

    def render(self) -> str:
        lines = []
        for view in sorted(self.views):
            lines.append(self.views[view].render().rstrip("\n"))
        if self.cross_view:
            lines.append(f"{self.config_name}: cross-view cones")
            for finding in self.cross_view:
                lines.append("  " + finding.render().replace("\n", "\n  "))
        elif len(self.views) > 1:
            lines.append(
                f"{self.config_name}: cross-view cones OK "
                "(RTL and BCA port cones match)"
            )
        for finding in self.unr_findings:
            lines.append("  " + finding.render().replace("\n", "\n  "))
        if self.unr is not None:
            lines.append(self.unr.render().rstrip("\n"))
        if self.symbolic is not None:
            lines.append(self.symbolic.render().rstrip("\n"))
        return "\n".join(lines) + "\n"

    def to_dict(self) -> Dict[str, object]:
        from . import SCHEMA_VERSION

        out: Dict[str, object] = {
            "schema_version": SCHEMA_VERSION,
            "config": self.config_name,
            "clean": self.clean,
            "has_errors": self.has_errors,
            "views": {v: r.to_dict() for v, r in self.views.items()},
            "cross_view": [f.to_dict() for f in self.cross_view],
            "unr_findings": [f.to_dict() for f in self.unr_findings],
            "unr": self.unr.to_dict() if self.unr is not None else None,
        }
        if self.symbolic is not None:
            out["symbolic"] = self.symbolic.to_dict()
        return out

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


def analyze_config(
    config: NodeConfig,
    *,
    views: Sequence[str] = ("rtl", "bca"),
    rules: Optional[Sequence[AnalysisRule]] = None,
    waivers: Sequence[Waiver] = (),
    unr: bool = True,
    symbolic: bool = False,
    symbolic_budget: Optional[int] = None,
    bca_bugs: Sequence[str] = (),
) -> ConfigAnalysisReport:
    """Analyze every requested view of one configuration.

    With both views requested, also diffs the per-port fan-in cones.
    With ``unr`` on (the default), attaches the coverage-unreachability
    report, using the first analyzed view's constant facts to sharpen
    the blocking-constant messages.

    With ``symbolic`` on, additionally runs the symbolic pass: check
    per-port functional RTL/BCA agreement on both views, and upgrade
    the UNR report's probe-based decode verdicts with the exact
    interval-coverage engine.  ``symbolic_budget`` caps the comb-cone
    enumeration domain (None = the engine default); ``bca_bugs`` injects
    defects into the BCA harness so the detection of the bug registry
    can itself be checked.
    """
    from ..lint.runner import build_env
    from .constants import derive_constants

    result = ConfigAnalysisReport(config_name=config.name)
    graphs: Dict[str, DesignGraph] = {}
    for view in views:
        env = build_env(config, view)
        graph = DesignGraph.from_simulator(env.sim)
        graphs[view] = graph
        ctx = AnalysisContext.from_graph(graph)
        report = AnalysisReport(
            design=f"{config.name}/{view}",
            n_signals=len(graph.signals),
            n_edges=ctx.dataflow.n_edges,
            n_constants=len(ctx.constants),
            complete=ctx.dataflow.complete,
        )
        for rule in rules if rules is not None else DEFAULT_ANALYSIS_RULES:
            report.findings.extend(rule.check(ctx))
        apply_waivers(report.findings, waivers)
        report.sort()
        result.views[view] = report

    if "rtl" in graphs and "bca" in graphs:
        result.cross_view = cone_equivalence_findings(
            config.name, graphs["rtl"], graphs["bca"]
        )
        apply_waivers(result.cross_view, waivers)

    if unr:
        constants = None
        for view in views:
            if view in graphs:
                constants = derive_constants(graphs[view])
                break
        result.unr = analyze_unreachability(config, constants=constants)
        result.unr_findings = result.unr.findings()
        apply_waivers(result.unr_findings, waivers)

    if symbolic:
        # Imported lazily: with --symbolic off the subpackage never
        # loads and the report layout stays exactly as before.
        from .symbolic import run_symbolic_analysis
        from .symbolic.equiv import DEFAULT_DOMAIN_BUDGET

        result.symbolic = run_symbolic_analysis(
            config,
            budget=(DEFAULT_DOMAIN_BUDGET if symbolic_budget is None
                    else symbolic_budget),
            bca_bugs=bca_bugs,
            unr_report=result.unr,
        )
        apply_waivers(result.symbolic.findings, waivers)
    return result


__all__ = [
    "ANALYSIS_RULES",
    "AnalysisReport",
    "AnalysisRule",
    "ConfigAnalysisReport",
    "analyze_config",
    "analyze_simulator",
    "resolve_analysis_rules",
]
