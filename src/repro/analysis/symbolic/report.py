"""The per-configuration symbolic analysis report and its orchestrator.

:func:`run_symbolic_analysis` ties the subsystem together for one
configuration: run the functional agreement engines on both bare
views, and (when the caller hands over the probe-based UNR report)
rewrite its decode verdicts with the exact interval-coverage engine.
The resulting :class:`SymbolicReport` hangs off
:class:`repro.analysis.runner.ConfigAnalysisReport` under a ``symbolic``
key that only exists when ``--symbolic`` ran — non-symbolic output stays
byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from ...lint.diagnostics import Finding
from ...stbus import NodeConfig
from .equiv import (
    DEFAULT_DOMAIN_BUDGET,
    MISMATCH,
    PortEquivalence,
    check_functional_equivalence,
)
from .reach import UnrUpgrade, upgrade_unr_report

__all__ = ["SymbolicReport", "run_symbolic_analysis"]


@dataclass
class SymbolicReport:
    """Symbolic results for one configuration."""

    config_name: str
    budget: int = DEFAULT_DOMAIN_BUDGET
    bca_bugs: List[str] = field(default_factory=list)
    ports: List[PortEquivalence] = field(default_factory=list)
    findings: List[Finding] = field(default_factory=list)
    unr_upgrade: Optional[UnrUpgrade] = None

    @property
    def equivalence_clean(self) -> bool:
        return all(p.verdict != MISMATCH for p in self.ports)

    @property
    def mismatched_ports(self) -> List[str]:
        return [p.port for p in self.ports if p.verdict == MISMATCH]

    @property
    def unknown_unr(self) -> int:
        if self.unr_upgrade is None:
            return 0
        return self.unr_upgrade.unknown_after

    def render(self) -> str:
        lines = [f"{self.config_name}: symbolic analysis"]
        for port in self.ports:
            lines.append(f"  {port.render()}")
        for finding in self.findings:
            lines.append(f"  {finding.render()}")
        if self.unr_upgrade is not None:
            lines.append(
                "  " + self.unr_upgrade.render().replace("\n", "\n  ")
            )
        return "\n".join(lines) + "\n"

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "config": self.config_name,
            "budget": self.budget,
            "equivalence_clean": self.equivalence_clean,
            "ports": [p.to_dict() for p in self.ports],
            "findings": [f.to_dict() for f in self.findings],
        }
        if self.bca_bugs:
            out["bca_bugs"] = list(self.bca_bugs)
        if self.unr_upgrade is not None:
            out["unr_upgrade"] = self.unr_upgrade.to_dict()
        return out


def run_symbolic_analysis(
    config: NodeConfig,
    *,
    budget: int = DEFAULT_DOMAIN_BUDGET,
    bca_bugs: Iterable[str] = (),
    unr_report=None,
) -> SymbolicReport:
    """Run the full symbolic pass for one configuration.

    ``unr_report`` — the probe-based :class:`~repro.analysis.unr.UnrReport`
    already computed by the caller; when given, its decode verdicts are
    upgraded *in place* by the exact engine and the delta is recorded.
    ``bca_bugs`` — injected BCA defects for the dual harness; used by
    the bug-registry detection check (an empty tuple analyzes the
    shipped models).
    """
    ports, findings = check_functional_equivalence(
        config, budget=budget, bca_bugs=bca_bugs,
    )
    report = SymbolicReport(
        config_name=config.name,
        budget=budget,
        bca_bugs=sorted(bca_bugs),
        ports=ports,
        findings=findings,
    )
    if unr_report is not None:
        report.unr_upgrade = upgrade_unr_report(unr_report, config)
    return report
